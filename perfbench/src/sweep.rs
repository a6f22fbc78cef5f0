//! Traced recomposition of the sweep pipeline on one worker.
//!
//! For kernels this mirrors the fused engine of `Explorer` group by group:
//! layout per (T, L) pair, tiling per B, one trace per (layout, B) key, the
//! analytic classifier, compression, banked replay from the compressed
//! trace, and evaluation. For `.din` traces it mirrors the streamed sweep:
//! one `DinSource` pass per bank of `TRACE_BANK_WIDTH` designs. Every call
//! into a layer sits in a span named after the layer's per-layer metric.

use crate::spans::Tracer;
use analysis::placement::optimize_layout;
use loopir::transform::tile_all;
use loopir::{DataLayout, Kernel};
use memexplore::analytic::{kernel_footprint_bytes, try_group_records};
use memexplore::metrics::read_trace;
use memexplore::{select, CacheDesign, Evaluator, Record};
use memsim::{
    CompressedTrace, DinSource, ReplayBank, TraceEvent, TraceSource, DEFAULT_CHUNK_CAPACITY,
};
use std::collections::HashMap;
use std::path::Path;

/// Work counts of a traced recomposition (the span tree holds the times).
#[derive(Default)]
pub struct Counts {
    pub layout_calls: u64,
    pub trace_events: u64,
    pub raw_bytes: u64,
    pub compressed_bytes: u64,
    pub design_events: u64,
    pub source_events: u64,
    pub analytic_tried: u64,
    pub analytic_resolved: u64,
}

fn bank_of(
    designs: &[CacheDesign],
    members: &[usize],
    cf: impl Fn(&CacheDesign) -> bool,
) -> Vec<(CacheDesign, bool)> {
    members
        .iter()
        .map(|&i| (designs[i], cf(&designs[i])))
        .collect()
}

fn configs_of(bank: &[(CacheDesign, bool)]) -> Vec<memsim::CacheConfig> {
    bank.iter()
        .map(|(d, _)| d.cache_config().expect("grid designs are valid"))
        .collect()
}

/// The fused explore pipeline over `designs` of `kernel`, one worker.
/// Returns the records in sweep order.
pub fn recompose_kernel(
    tr: &mut Tracer,
    counts: &mut Counts,
    ev: &Evaluator,
    kernel: &Kernel,
    designs: &[CacheDesign],
) -> Vec<Record> {
    // Layouts: one per distinct (T, L) pair, deduplicated by value.
    let mut pair_index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut pair_layout: Vec<usize> = Vec::new();
    let mut pair_cf: Vec<bool> = Vec::new();
    let mut layouts: Vec<DataLayout> = Vec::new();
    for d in designs {
        let key = (d.cache_size, d.line);
        if pair_index.contains_key(&key) {
            continue;
        }
        let (layout, cf) = tr.span("core.layout", || ev.layout_for(kernel, key.0, key.1));
        counts.layout_calls += 1;
        // Placement alone, on the same inputs: core.layout minus this is
        // the padded-vs-natural miss check inside `layout_for`.
        tr.span("analysis.placement", || {
            std::hint::black_box(optimize_layout(kernel, key.0 as u64, key.1 as u64).ok())
        });
        let id = match layouts.iter().position(|u| *u == layout) {
            Some(id) => id,
            None => {
                layouts.push(layout);
                layouts.len() - 1
            }
        };
        pair_index.insert(key, pair_layout.len());
        pair_layout.push(id);
        pair_cf.push(cf);
    }
    let cf_of = |d: &CacheDesign| pair_cf[pair_index[&(d.cache_size, d.line)]];

    // Trace groups: every design keyed to one (layout, B) trace.
    let mut tiled: HashMap<u64, Kernel> = HashMap::new();
    let mut key_index: HashMap<(usize, u64), usize> = HashMap::new();
    let mut groups: Vec<((usize, u64), Vec<usize>)> = Vec::new();
    for (i, d) in designs.iter().enumerate() {
        tiled
            .entry(d.tiling)
            .or_insert_with(|| tr.span("loopir.tile", || tile_all(kernel, d.tiling)));
        let key = (pair_layout[pair_index[&(d.cache_size, d.line)]], d.tiling);
        let g = *key_index.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }

    let footprint = kernel_footprint_bytes(kernel);
    let mut slots: Vec<Option<Record>> = vec![None; designs.len()];
    for ((id, b), members) in &groups {
        let trace: Vec<TraceEvent> =
            tr.span("loopir.trace", || read_trace(&tiled[b], &layouts[*id]));
        counts.trace_events += trace.len() as u64;
        let bank = bank_of(designs, members, cf_of);
        counts.analytic_tried += 1;
        let records = match tr.span("core.analytic", || {
            try_group_records(ev, footprint, &bank, &trace)
        }) {
            Some(records) => {
                counts.analytic_resolved += 1;
                records
            }
            None => {
                let z = tr.span("memsim.zarena.encode", || CompressedTrace::encode(&trace));
                drop(trace);
                counts.raw_bytes += z.raw_bytes() as u64;
                counts.compressed_bytes += z.compressed_bytes() as u64;
                let mut replay =
                    ReplayBank::with_options(&configs_of(&bank), ev.bus_encoding, false);
                // The decode span's self time is the block decoding; the
                // bank's work sits in its child spans.
                let decode = tr.begin("memsim.zarena.decode");
                z.replay(|block| {
                    let s = tr.begin("memsim.bank.replay");
                    replay.feed(block);
                    tr.end(s);
                    counts.design_events += (block.len() * bank.len()) as u64;
                });
                tr.end(decode);
                let reports = tr.span("memsim.bank.replay", || replay.finish());
                tr.span("core.evaluate", || {
                    ev.evaluate_bank_reports(&bank, &reports)
                })
            }
        };
        for (&i, r) in members.iter().zip(records) {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every design belongs to one group"))
        .collect()
}

/// The streamed trace sweep over `designs`, one worker: one source pass
/// per bank of at most `bank_width` designs.
pub fn recompose_din(
    tr: &mut Tracer,
    counts: &mut Counts,
    ev: &Evaluator,
    path: &Path,
    designs: &[CacheDesign],
    bank_width: usize,
) -> Result<Vec<Record>, String> {
    let mut records = Vec::with_capacity(designs.len());
    let all: Vec<usize> = (0..designs.len()).collect();
    for members in all.chunks(bank_width) {
        let bank = bank_of(designs, members, |_| false);
        let mut replay = ReplayBank::with_options(&configs_of(&bank), ev.bus_encoding, false);
        let mut src = tr
            .span("memsim.source.parse", || DinSource::open(path))
            .map_err(|e| e.to_string())?;
        let mut buf: Vec<TraceEvent> = Vec::with_capacity(DEFAULT_CHUNK_CAPACITY);
        loop {
            let s = tr.begin("memsim.source.parse");
            let n = src.fill(&mut buf, DEFAULT_CHUNK_CAPACITY);
            tr.end(s);
            let n = n.map_err(|e| e.to_string())?;
            if n == 0 {
                break;
            }
            counts.source_events += n as u64;
            counts.design_events += (n * bank.len()) as u64;
            let s = tr.begin("memsim.bank.replay");
            replay.feed(&buf);
            tr.end(s);
        }
        let reports = tr.span("memsim.bank.replay", || replay.finish());
        records.extend(tr.span("core.evaluate", || {
            ev.evaluate_bank_reports(&bank, &reports)
        }));
    }
    Ok(records)
}

/// The selections `memx explore` prints, plus the frontier `memx pareto`
/// extracts, inside one `core.select` span. Returns the two selection
/// lines in `memx explore`'s format.
pub fn select_lines(tr: &mut Tracer, records: &[Record]) -> Vec<String> {
    tr.span("core.select", || {
        let mut lines = Vec::new();
        if let Some(r) = select::min_energy(records) {
            lines.push(format!("minimum energy : {}", fmt_record(r)));
        }
        if let Some(r) = select::min_cycles(records) {
            lines.push(format!("minimum time   : {}", fmt_record(r)));
        }
        std::hint::black_box(select::pareto3(records));
        lines
    })
}

/// `memx`'s one-line record format (`explore` and `search` stdout).
pub fn fmt_record(r: &Record) -> String {
    format!(
        "{}  miss rate {:.3}  cycles {:.0}  energy {:.0} nJ",
        r.design, r.miss_rate, r.cycles, r.energy_nj
    )
}
