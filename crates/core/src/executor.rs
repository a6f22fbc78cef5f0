//! The one supervised sweep executor.
//!
//! MemExplore (§2–§4 of the paper) is one loop: for each unit of work,
//! replay one trace and evaluate one record per design. [`execute`] owns
//! that loop for both the kernel sweep
//! ([`Explorer::explore_supervised`]) and the streamed `.din` sweep
//! ([`Explorer::explore_trace_supervised`](crate::Explorer::explore_trace_supervised)),
//! which differ only in the [`UnitPlan`] (which designs share a replay)
//! and the [`UnitRunner`] (how one unit is replayed). Everything else
//! lives here, once:
//!
//! * checkpoint resume, with the [`sweep_id`](crate::supervisor::sweep_id)
//!   check, pre-filling write-once record slots;
//! * the caller's preparation phase (kernel layouts and traces), which
//!   sees the same cooperative [`Deadline`] as the units;
//! * the work-stealing loop over units, each under [`catch_unwind`];
//! * the degradation ladder: a panicking bank is retried one design at a
//!   time, and a design that panics alone is quarantined;
//! * the checkpoint sidecar writer and its periodic and final flushes;
//! * record collection and the telemetry fields every sweep shares.
//!
//! Unaffected designs stay bit-identical to a clean run because units
//! share only immutable inputs and write-once output slots.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::explore::{panic_message, try_steal_loop, ExploreError, SweepHists};
use crate::metrics::{CacheDesign, Record};
use crate::obs::{FieldValue, Obs, Span};
use crate::supervisor::{CheckpointPolicy, SweepError, SweepOptions, SweepOutcome};
use crate::telemetry::SweepTelemetry;
use crate::workload::TraceError;
use crate::Explorer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The cooperative time budget of one sweep, shared by its preparation
/// phase and its units. Expiry is sticky: once [`expired`](Self::expired)
/// returns true it always will, and the cancel event is emitted once.
pub(crate) struct Deadline<'a> {
    at: Option<Instant>,
    cancelled: AtomicBool,
    obs: Option<&'a Obs>,
}

impl Deadline<'_> {
    /// True once the budget is spent.
    pub fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.at.is_some_and(|d| Instant::now() >= d) {
            // `swap` so exactly one worker emits the cancel event.
            if !self.cancelled.swap(true, Ordering::Relaxed) {
                if let Some(o) = self.obs {
                    o.point("supervise", "deadline_cancel", &[]);
                }
            }
            return true;
        }
        false
    }
}

/// How units are formed and how a panicking unit degrades.
pub(crate) enum UnitMode {
    /// Each unit is a bank of designs replaying one trace. A panicking
    /// bank is retried one design at a time; a design that panics again
    /// is quarantined under `fallback`.
    Banked { fallback: &'static str },
    /// Each unit is one design; a panic quarantines it under
    /// `per-design`.
    PerDesign,
}

/// The units of one sweep: design indices in sweep order, grouped by
/// the replay they share.
pub(crate) struct UnitPlan {
    pub units: Vec<Vec<usize>>,
    pub mode: UnitMode,
}

/// How a unit's records were produced — the obs unit name and the
/// latency histogram they are accounted under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitKind {
    /// A banked replay (`scan`).
    Scan,
    /// A bank resolved in closed form without replay (`analytic`).
    Analytic,
    /// A single design replayed alone (`sim`).
    Design,
}

/// The records of one completed unit.
pub(crate) struct UnitRun {
    /// One record per member, in member order.
    pub records: Vec<Record>,
    /// Events in the unit's trace.
    pub events: u64,
    pub kind: UnitKind,
}

/// A sweep's way of replaying its units. `Ok(None)` means the deadline
/// expired mid-unit: the unit is abandoned and produces no record. An
/// `Err` stops the whole sweep (the workload itself is broken).
pub(crate) trait UnitRunner: Sync {
    type Error: SweepFailure;
    /// Replays one bank of designs (indices into the sweep's grid).
    fn run_bank(
        &self,
        members: &[usize],
        deadline: &Deadline,
    ) -> Result<Option<UnitRun>, Self::Error>;
    /// Replays one design alone.
    fn run_design(
        &self,
        design: usize,
        deadline: &Deadline,
    ) -> Result<Option<UnitRun>, Self::Error>;
    /// Adds the runner's own counters (layouts, traces, …) to telemetry.
    fn fill_telemetry(&self, t: &mut SweepTelemetry);
}

/// The error type of a sweep: it wraps checkpoint failures and panics
/// that escape the per-unit quarantine.
pub(crate) trait SweepFailure: From<CheckpointError> + Send {
    fn worker_panic(message: String) -> Self;
}

impl SweepFailure for ExploreError {
    fn worker_panic(message: String) -> Self {
        ExploreError::WorkerPanic {
            phase: "simulate",
            message,
        }
    }
}

impl SweepFailure for TraceError {
    fn worker_panic(message: String) -> Self {
        TraceError::WorkerPanic { message }
    }
}

/// Every record the sidecar holds (resumed ones included), and flush
/// counts. The lock around it is held only for pushes and flushes — never across
/// a simulation — so a unit panic cannot poison it mid-update.
struct SidecarState {
    entries: Vec<(usize, Record)>,
    since_flush: usize,
    flushes: usize,
    written: usize,
    failed: usize,
}

/// The checkpoint sidecar writer shared by a sweep's workers.
struct Sidecar<'a> {
    policy: &'a CheckpointPolicy,
    sweep_id: u64,
    options: &'a SweepOptions,
    hists: &'a SweepHists,
    obs: Option<&'a Obs>,
    state: Mutex<SidecarState>,
}

impl Sidecar<'_> {
    fn push(&self, idx: usize, record: Record) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.entries.push((idx, record));
        state.since_flush += 1;
        if state.since_flush >= self.policy.every.max(1) {
            self.flush(&mut state);
        }
    }

    fn flush(&self, state: &mut SidecarState) {
        let nth = state.flushes;
        state.flushes += 1;
        state.since_flush = 0;
        let flush_start = Instant::now();
        let ok = !self.options.fault.should_fail_checkpoint(nth)
            && Checkpoint {
                sweep_id: self.sweep_id,
                entries: state.entries.clone(),
            }
            .write_atomic(&self.policy.path)
            .is_ok();
        // A failed flush loses nothing but recency: the previous checkpoint
        // is still intact on disk (atomic rename), so the sweep keeps going
        // and the counter reports it.
        if ok {
            state.written += 1;
        } else {
            state.failed += 1;
        }
        let dur = flush_start.elapsed();
        self.hists.flush.record(dur);
        if let Some(o) = self.obs {
            o.point(
                "checkpoint",
                "flush",
                &[
                    (
                        "dur_us",
                        FieldValue::U64(u64::try_from(dur.as_micros()).unwrap_or(u64::MAX)),
                    ),
                    ("ok", FieldValue::U64(u64::from(ok))),
                    ("records", FieldValue::U64(state.entries.len() as u64)),
                ],
            );
        }
    }

    /// Final flush so the sidecar captures the tail of the sweep; returns
    /// (flushes written, flushes failed).
    fn finish(&self) -> (usize, usize) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.since_flush > 0 || state.flushes == 0 {
            self.flush(&mut state);
        }
        (state.written, state.failed)
    }
}

/// Loads the resume checkpoint, if the options ask for one, into the
/// record slots. A missing sidecar is a fresh start; a mismatched or
/// malformed one is a typed error.
fn resume(
    designs: &[CacheDesign],
    options: &SweepOptions,
    sweep_id: u64,
    slots: &[OnceLock<Record>],
) -> Result<Vec<(usize, Record)>, CheckpointError> {
    let Some(policy) = options.checkpoint.as_ref().filter(|p| p.resume) else {
        return Ok(Vec::new());
    };
    let ck = match Checkpoint::read(&policy.path) {
        Ok(ck) => ck,
        // A missing sidecar just means nothing was completed yet (the
        // natural state of a fresh `--resume` invocation).
        Err(CheckpointError::Io { ref source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            return Ok(Vec::new())
        }
        Err(e) => return Err(e),
    };
    if ck.sweep_id != sweep_id {
        return Err(CheckpointError::SweepMismatch {
            expected: sweep_id,
            found: ck.sweep_id,
        });
    }
    let mut resumed = Vec::with_capacity(ck.entries.len());
    for (idx, mut record) in ck.entries {
        if idx >= designs.len() {
            return Err(CheckpointError::BadEntry {
                index: idx as u64,
                designs: designs.len(),
            });
        }
        // Entries persist geometry only; the sweep id just matched, so the
        // grid's design (with policies) is the one this record was
        // measured for.
        record.design = designs[idx];
        let _ = slots[idx].set(record.clone());
        resumed.push((idx, record));
    }
    Ok(resumed)
}

/// Runs one supervised sweep of `designs` on `workers` threads.
///
/// `prepare` runs after resume and before the simulate phase; it builds
/// the unit plan and runner (a kernel sweep lays out and generates its
/// traces there) and must stop early once the deadline expires. Every
/// failure after that point degrades per unit, except a runner `Err`,
/// which stops the sweep and is returned.
pub(crate) fn execute<R: UnitRunner>(
    explorer: &Explorer,
    designs: &[CacheDesign],
    options: &SweepOptions,
    sweep_id: u64,
    workers: usize,
    prepare: impl FnOnce(&Deadline, &SweepHists) -> Result<(UnitPlan, R), R::Error>,
) -> Result<SweepOutcome, R::Error> {
    let sweep_start = Instant::now();
    let obs = explorer.obs.as_deref();
    if let Some(o) = obs {
        o.counters
            .total
            .fetch_add(designs.len() as u64, Ordering::Relaxed);
    }
    let slots: Vec<OnceLock<Record>> = designs.iter().map(|_| OnceLock::new()).collect();
    let resumed = resume(designs, options, sweep_id, &slots)?;
    let records_resumed = resumed.len();
    if let Some(o) = obs {
        if records_resumed > 0 {
            o.counters.add_done(records_resumed as u64);
            o.point(
                "supervise",
                "resume",
                &[("records", FieldValue::U64(records_resumed as u64))],
            );
        }
    }

    let hists = SweepHists::default();
    let deadline = Deadline {
        at: options.deadline.map(|d| sweep_start + d),
        cancelled: AtomicBool::new(false),
        obs,
    };
    let (plan, runner) = prepare(&deadline, &hists)?;

    let sidecar = options.checkpoint.as_ref().map(|policy| Sidecar {
        policy,
        sweep_id,
        options,
        hists: &hists,
        obs,
        state: Mutex::new(SidecarState {
            entries: resumed,
            since_flush: 0,
            flushes: 0,
            written: 0,
            failed: 0,
        }),
    });
    let sim = Simulate {
        designs,
        options,
        obs,
        hists: &hists,
        deadline: &deadline,
        runner: &runner,
        slots: &slots,
        sidecar: sidecar.as_ref(),
        replayed: AtomicU64::new(0),
        scanned: AtomicU64::new(0),
        analytic: AtomicUsize::new(0),
        retried: AtomicUsize::new(0),
        errors: Mutex::new(Vec::new()),
        failure: Mutex::new(None),
    };

    let phase_start = Instant::now();
    let span = Span::begin(obs, "simulate");
    let busy = try_steal_loop(workers, plan.units.len(), |w, u| {
        sim.run_unit(w, u, &plan.units[u], &plan.mode)
    });
    drop(span);
    let worker_busy = busy.map_err(R::Error::worker_panic)?;
    let Simulate {
        replayed,
        scanned,
        analytic,
        retried,
        errors,
        failure,
        ..
    } = sim;
    if let Some(e) = failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let simulate_time = phase_start.elapsed();
    let (checkpoints_written, checkpoints_failed) =
        sidecar.as_ref().map_or((0, 0), Sidecar::finish);

    let phase_start = Instant::now();
    let span = Span::begin(obs, "select");
    let records: Vec<Option<Record>> = slots.into_iter().map(OnceLock::into_inner).collect();
    let mut errors = errors.into_inner().unwrap_or_else(|p| p.into_inner());
    errors.sort_by_key(|e| e.design_index);
    drop(span);
    let select_time = phase_start.elapsed();

    let (fused_groups, max_bank_width) = match plan.mode {
        UnitMode::Banked { .. } => (
            plan.units.len(),
            plan.units.iter().map(Vec::len).max().unwrap_or(0),
        ),
        UnitMode::PerDesign => (0, 0),
    };
    let analytic_groups = analytic.into_inner();
    let mut telemetry = SweepTelemetry {
        designs_evaluated: records.iter().filter(|r| r.is_some()).count(),
        trace_events_replayed: replayed.into_inner(),
        trace_events_scanned: scanned.into_inner(),
        fused_groups,
        max_bank_width,
        analytic_groups,
        simulated_groups: fused_groups.saturating_sub(analytic_groups),
        workers,
        simulate_time,
        select_time,
        worker_busy,
        designs_quarantined: errors.len(),
        designs_retried: retried.into_inner(),
        checkpoints_written,
        checkpoints_failed,
        records_resumed,
        cancelled: deadline.cancelled.into_inner(),
        ..SweepTelemetry::default()
    };
    runner.fill_telemetry(&mut telemetry);
    hists.fill(&mut telemetry);
    telemetry.total_time = sweep_start.elapsed();
    // Busy time is measured strictly inside the simulate window, so the
    // true (unclamped) utilization can only exceed 1 by clock noise;
    // anything more means busy-time overcounting.
    debug_assert!(
        telemetry.worker_utilization() <= 1.05,
        "worker busy time overcounted: utilization {}",
        telemetry.worker_utilization()
    );
    Ok(SweepOutcome {
        records,
        errors,
        telemetry,
    })
}

/// The simulate phase's shared state: write-once slots, the checkpoint
/// sidecar, counters, the quarantine log and the first sweep-stopping error.
struct Simulate<'a, R: UnitRunner> {
    designs: &'a [CacheDesign],
    options: &'a SweepOptions,
    obs: Option<&'a Obs>,
    hists: &'a SweepHists,
    deadline: &'a Deadline<'a>,
    runner: &'a R,
    slots: &'a [OnceLock<Record>],
    sidecar: Option<&'a Sidecar<'a>>,
    replayed: AtomicU64,
    scanned: AtomicU64,
    analytic: AtomicUsize,
    retried: AtomicUsize,
    errors: Mutex<Vec<SweepError>>,
    failure: Mutex<Option<R::Error>>,
}

impl<R: UnitRunner> Simulate<'_, R> {
    fn stopped(&self) -> bool {
        self.deadline.expired()
            || self
                .failure
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_some()
    }

    /// Runs unit `u` (skipping members already resumed), degrading a
    /// panic per [`UnitMode`].
    fn run_unit(&self, w: usize, u: usize, members: &[usize], mode: &UnitMode) {
        if self.stopped() {
            return;
        }
        let fresh = members
            .iter()
            .filter(|&&i| self.slots[i].get().is_none())
            .count();
        if fresh == 0 {
            return; // the whole unit was resumed from the checkpoint
        }
        let unit_start = Instant::now();
        match mode {
            UnitMode::PerDesign => self.run_design(w, members[0], "per-design"),
            UnitMode::Banked { fallback } => {
                // `AssertUnwindSafe` is sound: a unit reads only immutable
                // inputs, and its records reach the write-once slots only
                // after it returns (see also the panic-safety audit in
                // `memsim::bank`).
                let run = catch_unwind(AssertUnwindSafe(|| {
                    self.options.fault.maybe_panic_group(u);
                    self.runner.run_bank(members, self.deadline)
                }));
                match run {
                    Ok(result) => self.settle(w, members, fresh, unit_start, result),
                    Err(_) => self.retry(w, u, members, fallback),
                }
            }
        }
    }

    /// Re-runs each unfinished member of a panicked bank alone; only a
    /// design that also panics there is quarantined.
    fn retry(&self, w: usize, u: usize, members: &[usize], fallback: &'static str) {
        let mut retried_here = 0u64;
        for &i in members {
            if self.slots[i].get().is_some() || self.stopped() {
                continue;
            }
            self.retried.fetch_add(1, Ordering::Relaxed);
            retried_here += 1;
            self.run_design(w, i, fallback);
        }
        if let Some(o) = self.obs {
            o.point(
                "supervise",
                "retry",
                &[
                    ("group", FieldValue::U64(u as u64)),
                    ("count", FieldValue::U64(retried_here)),
                ],
            );
        }
    }

    /// Replays design `i` alone; a panic quarantines it under `engine`.
    fn run_design(&self, w: usize, i: usize, engine: &'static str) {
        let unit_start = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.options.fault.maybe_panic_design(i);
            self.runner.run_design(i, self.deadline)
        }));
        match run {
            Ok(result) => self.settle(w, &[i], 1, unit_start, result),
            Err(payload) => self.quarantine(SweepError {
                design_index: i,
                design: self.designs[i],
                engine,
                message: panic_message(payload),
            }),
        }
    }

    /// Accounts a unit that returned: its records, or its stop reason.
    fn settle(
        &self,
        w: usize,
        members: &[usize],
        fresh: usize,
        unit_start: Instant,
        result: Result<Option<UnitRun>, R::Error>,
    ) {
        let run = match result {
            Ok(Some(run)) => run,
            Ok(None) => return, // the deadline fired mid-unit
            Err(e) => {
                let mut failure = self.failure.lock().unwrap_or_else(|p| p.into_inner());
                failure.get_or_insert(e);
                return;
            }
        };
        let dur = unit_start.elapsed();
        self.replayed
            .fetch_add(run.events * members.len() as u64, Ordering::Relaxed);
        let name = match run.kind {
            UnitKind::Scan => {
                self.hists.scan.record(dur);
                "scan"
            }
            UnitKind::Design => {
                self.hists.design.record(dur);
                "sim"
            }
            UnitKind::Analytic => {
                self.analytic.fetch_add(1, Ordering::Relaxed);
                "analytic"
            }
        };
        if run.kind != UnitKind::Analytic {
            self.scanned.fetch_add(run.events, Ordering::Relaxed);
        }
        for (&i, record) in members.iter().zip(run.records) {
            if self.slots[i].set(record.clone()).is_ok() {
                if let Some(sidecar) = self.sidecar {
                    sidecar.push(i, record);
                }
            }
        }
        if let Some(o) = self.obs {
            o.counters.add_done(fresh as u64);
            let events = ("events", FieldValue::U64(run.events));
            let fields = match run.kind {
                UnitKind::Design => vec![events],
                UnitKind::Scan | UnitKind::Analytic => vec![
                    events,
                    ("width", FieldValue::U64(members.len() as u64)),
                    ("fresh", FieldValue::U64(fresh as u64)),
                ],
            };
            o.unit("simulate", name, w as u64, dur, &fields);
        }
    }

    fn quarantine(&self, e: SweepError) {
        if let Some(o) = self.obs {
            o.counters.quarantined.fetch_add(1, Ordering::Relaxed);
            o.point(
                "supervise",
                "quarantine",
                &[
                    ("design", FieldValue::U64(e.design_index as u64)),
                    ("engine", FieldValue::Str(e.engine.to_string())),
                    ("message", FieldValue::Str(e.message.clone())),
                ],
            );
        }
        self.errors
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(e);
    }
}
