//! Property tests of the streaming trace pipeline: chunked replay must be
//! a *pure refactoring* of materialized replay.
//!
//! Three laws:
//!
//! 1. **Chunk invariance** — for any trace and any chunk capacity in
//!    `1..=4096`, feeding a [`Simulator`] or [`ReplayBank`] chunk by
//!    chunk produces reports byte-identical to one whole-slice pass, and
//!    a [`TraceWorkload`] sweep produces bit-identical records at every
//!    capacity (lane state persists across `feed` calls, so chunking is
//!    invisible).
//! 2. **Error hygiene** — a malformed record mid-stream surfaces as a
//!    typed [`TraceSourceError::Parse`], and the events delivered before
//!    the failure are exactly a prefix of the valid records: nothing
//!    from the poisoned chunk leaks, and a prepared workload refuses the
//!    trace outright.
//! 3. **Streamed ≡ materialized** — for every paper kernel, the streamed
//!    sweep over the trace grid equals the materialized bank replay
//!    record for record, so the explore/pareto selections agree too.

use loopir::{kernels, AccessKind, DataLayout, TraceGen};
use memexplore::{select, CacheDesign, Evaluator, Explorer, TraceError, TraceWorkload};
use memsim::din::{write_din, DinLabel, DinRecord};
use memsim::source::din_event;
use memsim::{
    BusEncoding, CacheConfig, DinSource, IterSource, ReplayBank, Simulator, TraceEvent,
    TraceSource, TraceSourceError,
};
use proptest::prelude::*;

/// Renders records as `.din` text (label + hex address per line).
fn din_text(records: &[DinRecord]) -> String {
    let mut buf = Vec::new();
    write_din(&mut buf, records).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("din text is ASCII")
}

/// A random `.din` trace: reads, writes, and ifetches over a small
/// address range (small enough that hits, evictions, and writebacks all
/// actually occur).
fn arb_records() -> impl Strategy<Value = Vec<DinRecord>> {
    proptest::collection::vec((0u8..3, 0u64..4096), 1..400).prop_map(|rows| {
        rows.into_iter()
            .map(|(label, addr)| DinRecord {
                label: match label {
                    0 => DinLabel::Read,
                    1 => DinLabel::Write,
                    _ => DinLabel::Ifetch,
                },
                addr,
            })
            .collect()
    })
}

fn events_of(records: &[DinRecord]) -> Vec<TraceEvent> {
    records.iter().map(|r| din_event(r.label, r.addr)).collect()
}

/// A tiny design grid for the end-to-end sweeps (tiling pinned at 1, as
/// the trace grid requires).
fn small_designs() -> Vec<CacheDesign> {
    vec![
        CacheDesign::new(64, 8, 1, 1),
        CacheDesign::new(128, 8, 2, 1),
        CacheDesign::new(256, 16, 1, 1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simulator_reports_are_chunk_invariant(
        records in arb_records(),
        cap in 1usize..=4096,
    ) {
        let events = events_of(&records);
        let config = CacheConfig::new(64, 8, 2).expect("valid geometry");
        let mut whole = Simulator::with_options(config, BusEncoding::Gray, true);
        whole.feed(&events);
        let whole = whole.finish();
        let mut chunked = Simulator::with_options(config, BusEncoding::Gray, true);
        for chunk in events.chunks(cap) {
            chunked.feed(chunk);
        }
        let chunked = chunked.finish();
        prop_assert_eq!(format!("{whole:?}"), format!("{chunked:?}"));
    }

    #[test]
    fn replay_bank_reports_are_chunk_invariant(
        records in arb_records(),
        cap in 1usize..=4096,
    ) {
        let events = events_of(&records);
        let configs: Vec<CacheConfig> = small_designs()
            .iter()
            .map(|d| d.cache_config().expect("valid geometry"))
            .collect();
        let mut whole = ReplayBank::with_options(&configs, BusEncoding::Gray, true);
        whole.feed(&events);
        let whole = whole.finish();
        let mut chunked = ReplayBank::with_options(&configs, BusEncoding::Gray, true);
        for chunk in events.chunks(cap) {
            chunked.feed(chunk);
        }
        let chunked = chunked.finish();
        prop_assert_eq!(format!("{whole:?}"), format!("{chunked:?}"));
    }

    #[test]
    fn streamed_sweep_is_chunk_capacity_invariant(
        records in arb_records(),
        cap in 1usize..=4096,
    ) {
        let text = din_text(&records);
        let designs = small_designs();
        let explorer = Explorer::default();
        let base = TraceWorkload::from_text("t.din", text.clone()).expect("valid trace");
        let (base_records, _) = explorer
            .explore_trace(&base, &designs)
            .expect("streamed sweep succeeds");
        let varied = TraceWorkload::from_text("t.din", text)
            .expect("valid trace")
            .with_chunk_capacity(cap);
        let (varied_records, _) = explorer
            .explore_trace(&varied, &designs)
            .expect("streamed sweep succeeds");
        prop_assert_eq!(base_records, varied_records);
        prop_assert_eq!(base.fingerprint(), varied.fingerprint());
    }

    #[test]
    fn malformed_din_mid_stream_is_typed_and_leak_free(
        records in arb_records(),
        cap in 1usize..=64,
        pos_frac in 0.0f64..1.0,
    ) {
        let pos = ((records.len() as f64) * pos_frac) as usize;
        let expected = events_of(&records[..pos]);
        let mut lines: Vec<String> = din_text(&records)
            .lines()
            .map(str::to_string)
            .collect();
        lines.insert(pos, "7 not-an-address".to_string());
        let text = lines.join("\n");

        // A prepared workload refuses the trace outright (the fingerprint
        // pass sees the bad record).
        let err = TraceWorkload::from_text("bad.din", text.clone())
            .expect_err("corrupt trace must be rejected");
        prop_assert!(
            matches!(err, TraceError::Source(TraceSourceError::Parse { .. })),
            "unexpected error: {err}"
        );

        // Chunked streaming delivers at most the records before the bad
        // line, verbatim, then the typed parse error — never anything at
        // or past it.
        let mut src = DinSource::from_reader(text.as_bytes(), "bad.din");
        let mut delivered: Vec<TraceEvent> = Vec::new();
        let mut buf: Vec<TraceEvent> = Vec::new();
        let mut parse_err = None;
        loop {
            match src.fill(&mut buf, cap) {
                Ok(0) => break,
                Ok(n) => delivered.extend_from_slice(&buf[..n]),
                Err(e) => {
                    parse_err = Some(e);
                    break;
                }
            }
        }
        let err = parse_err.expect("corrupt trace must fail mid-stream");
        prop_assert!(
            matches!(err, TraceSourceError::Parse { .. }),
            "unexpected error: {err}"
        );
        prop_assert!(delivered.len() <= pos, "{} > {pos}", delivered.len());
        prop_assert_eq!(&delivered[..], &expected[..delivered.len()]);
    }
}

#[test]
fn tracegen_streams_through_iter_source_without_materializing() {
    // The third `TraceSource` implementation: chunked emission straight
    // off the `loopir::TraceGen` iterator, no intermediate `Vec` of the
    // whole trace. Chunk-fed replay must equal the materialized pass.
    let kernel = kernels::compress(15);
    let layout = DataLayout::natural(&kernel);
    let to_event = |a: loopir::MemoryAccess| TraceEvent {
        addr: a.addr,
        size: a.size,
        is_write: a.kind == AccessKind::Write,
    };
    let configs: Vec<CacheConfig> = small_designs()
        .iter()
        .map(|d| d.cache_config().expect("valid geometry"))
        .collect();

    let mut src = IterSource::new(TraceGen::new(&kernel, &layout).map(to_event));
    let mut streamed = ReplayBank::with_options(&configs, BusEncoding::Gray, true);
    let mut buf: Vec<TraceEvent> = Vec::new();
    loop {
        let n = src.fill(&mut buf, 64).expect("iterator sources never fail");
        if n == 0 {
            break;
        }
        streamed.feed(&buf[..n]);
    }
    let streamed = streamed.finish();

    let events: Vec<TraceEvent> = TraceGen::new(&kernel, &layout).map(to_event).collect();
    let mut whole = ReplayBank::with_options(&configs, BusEncoding::Gray, true);
    whole.feed(&events);
    assert_eq!(format!("{:?}", whole.finish()), format!("{streamed:?}"));
}

#[test]
fn truncated_record_is_rejected_not_padded() {
    // A final line with the label but no address is a parse error, not a
    // silently dropped or zero-padded event.
    let err = TraceWorkload::from_text("cut.din", "0 10\n1 20\n0")
        .expect_err("truncated record must be rejected");
    assert!(
        matches!(err, TraceError::Source(TraceSourceError::Parse { .. })),
        "unexpected error: {err}"
    );
}

#[test]
fn streamed_paper_kernel_sweeps_match_materialized_replay() {
    let explorer = Explorer::default();
    let evaluator = Evaluator::default();
    let designs = TraceWorkload::design_space().designs();
    for kernel in kernels::all_paper_kernels() {
        let layout = DataLayout::natural(&kernel);
        let records: Vec<DinRecord> = TraceGen::new(&kernel, &layout)
            .map(|a| DinRecord {
                label: if a.kind == AccessKind::Read {
                    DinLabel::Read
                } else {
                    DinLabel::Write
                },
                addr: a.addr,
            })
            .collect();
        let events = events_of(&records);
        let workload = TraceWorkload::from_text(format!("{}.din", kernel.name), din_text(&records))
            .expect("valid trace")
            .with_chunk_capacity(997);
        let (streamed, telemetry) = explorer
            .explore_trace(&workload, &designs)
            .expect("streamed sweep succeeds");

        // Materialized reference: the same events through the whole-slice
        // bank replay path.
        let bank: Vec<(CacheDesign, bool)> = designs.iter().map(|&d| (d, false)).collect();
        let reference = evaluator.evaluate_bank_with_trace(&bank, &events, None);
        assert_eq!(streamed, reference, "{}", kernel.name);

        // The downstream selections (explore's minima, pareto's frontier)
        // therefore agree bit-for-bit as well.
        assert_eq!(
            select::min_energy(&streamed),
            select::min_energy(&reference),
            "{}",
            kernel.name
        );
        assert_eq!(
            select::pareto3(&streamed),
            select::pareto3(&reference),
            "{}",
            kernel.name
        );
        assert_eq!(workload.events(), records.len() as u64, "{}", kernel.name);
        assert!(telemetry.peak_chunk_bytes > 0, "{}", kernel.name);
    }
}
