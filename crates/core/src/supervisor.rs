//! The kernel sweep, and the options and results every supervised sweep
//! shares: panic quarantine, engine fallback, checkpoint/resume, and
//! deadline-bounded partial results.
//!
//! Supervision itself lives in the one sweep executor (`executor.rs`),
//! which the kernel sweep here and the streamed `.din` sweep
//! ([`crate::workload`]) both run on. This module supplies the kernel
//! sweep's unit plan and runner. [`Explorer::explore_supervised`] lays
//! out and generates the traces, then makes each *unit of work* a trace
//! group for the fused engine, or a single design for the per-design
//! engine. The runner resolves a group in closed form when the analytic
//! fast path applies, and otherwise replays its raw arena slice through
//! a `memsim::ReplayBank`. The executor runs every unit under
//! `catch_unwind` and degrades per unit:
//!
//! * a panicking fused bank scan is **retried** once per member on the
//!   per-design path (the fallback), so one poisoned design in a bank
//!   cannot take its neighbours down with it;
//! * a panicking single design is **quarantined** into a structured
//!   [`SweepError`] instead of aborting;
//! * every unaffected design stays **bit-identical** to a clean run,
//!   because units share only immutable inputs (the interned sweep plan)
//!   and write-once output slots.
//!
//! With a [`CheckpointPolicy`], completed records are periodically
//! persisted through [`Checkpoint::write_atomic`](crate::Checkpoint::write_atomic);
//! a killed sweep resumed from the sidecar file re-simulates only the
//! missing designs and its final output is bit-identical to an
//! uninterrupted run. A cooperative [`deadline`](SweepOptions::deadline)
//! is checked before every layout job, trace job and unit, and turns a
//! timeout into a well-formed partial [`SweepOutcome`] flagged in
//! telemetry. The deterministic [`FaultPlan`] hooks (compiled in by the
//! `fault-injection` feature) let the suite drive each of these paths on
//! purpose.

use crate::analytic::{kernel_footprint_bytes, try_group_records};
use crate::checkpoint::fnv1a;
use crate::executor::{execute, Deadline, UnitKind, UnitMode, UnitPlan, UnitRun, UnitRunner};
use crate::explore::{ExploreError, SweepPlan};
use crate::fault::FaultPlan;
use crate::metrics::{CacheDesign, Evaluator, Record};
use crate::telemetry::SweepTelemetry;
use crate::{Engine, Explorer};
use loopir::Kernel;
use memsim::TraceEvent;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// How a supervised sweep persists progress.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Sidecar file written atomically (temp + rename).
    pub path: PathBuf,
    /// Flush after every `every` newly completed records (the final
    /// flush at sweep end always happens). Clamped to at least 1.
    pub every: usize,
    /// Load `path` before sweeping and skip every design it already
    /// holds. A missing file is treated as a fresh start; a corrupt or
    /// mismatched file is a typed error.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Policy writing to `path` every 32 records, without resuming.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 32,
            resume: false,
        }
    }
}

/// Knobs of a supervised sweep. The default supervises panics only — no
/// checkpointing, no deadline, no injected faults.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Checkpoint sidecar policy, if any.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Cooperative time budget, checked at unit-of-work boundaries.
    pub deadline: Option<Duration>,
    /// Deterministic fault plan (inert without the `fault-injection`
    /// feature).
    pub fault: FaultPlan,
}

/// One quarantined design: the sweep finished without it and recorded
/// why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the design in the sweep grid.
    pub design_index: usize,
    /// The design itself.
    pub design: CacheDesign,
    /// Engine that panicked last: `"fused"`, `"per-design"`, or
    /// `"fallback"` (per-design retry after a fused bank panic).
    pub engine: &'static str,
    /// Panic payload, downcast to text.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design #{} ({}) quarantined on {} engine: {}",
            self.design_index, self.design, self.engine, self.message
        )
    }
}

/// Result of a supervised sweep: records in sweep order (`None` for
/// designs that were quarantined or never reached before cancellation),
/// the quarantine log, and the run's telemetry.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-design records, in the grid's sweep order.
    pub records: Vec<Option<Record>>,
    /// Quarantined designs, sorted by design index.
    pub errors: Vec<SweepError>,
    /// Counters and timings, including the supervisor's quarantine /
    /// retry / checkpoint / resume / cancellation accounting.
    pub telemetry: SweepTelemetry,
}

impl SweepOutcome {
    /// True when every design produced a record.
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }

    /// The present records, in sweep order.
    pub fn completed_records(&self) -> Vec<Record> {
        self.records.iter().filter_map(Clone::clone).collect()
    }

    /// The records of a sweep run without a deadline, or the first design
    /// it quarantined — the contract of the non-supervised entry points.
    pub(crate) fn into_complete(self) -> Result<(Vec<Record>, SweepTelemetry), SweepError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let records = self
            .records
            .into_iter()
            .map(|r| r.expect("no quarantine and no deadline leaves every slot filled"))
            .collect();
        Ok((records, self.telemetry))
    }
}

/// Stable identity of a sweep configuration, stored in checkpoint
/// headers so a sidecar file can never be resumed against a different
/// kernel, design grid, or evaluator.
pub fn sweep_id(kernel: &Kernel, designs: &[CacheDesign], evaluator: &Evaluator) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(kernel.name.as_bytes());
    bytes.push(0);
    // Pure-geometry grids hash exactly as before this field existed, so
    // sidecar files from older runs stay resumable; policy-bearing grids
    // append their policy words and thus can never collide with them.
    let any_policies = designs.iter().any(|d| !d.has_default_policies());
    for d in designs {
        for word in [d.cache_size as u64, d.line as u64, d.assoc as u64, d.tiling] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        if any_policies {
            let (r, seed) = match d.replacement {
                memsim::Replacement::Lru => (0u8, 0u64),
                memsim::Replacement::Fifo => (1, 0),
                memsim::Replacement::Plru => (2, 0),
                memsim::Replacement::Random { seed } => (3, seed),
            };
            let w = match d.write_policy {
                memsim::WritePolicy::WriteBackAllocate => 0u8,
                memsim::WritePolicy::WriteThroughNoAllocate => 1,
            };
            bytes.push(r);
            bytes.extend_from_slice(&seed.to_le_bytes());
            bytes.push(w);
        }
    }
    bytes.push(evaluator.placement as u8);
    bytes.push(evaluator.bus_encoding as u8);
    bytes.extend_from_slice(evaluator.energy_model.part.name.as_bytes());
    bytes.extend_from_slice(
        &evaluator
            .energy_model
            .part
            .energy_per_access_nj
            .to_bits()
            .to_le_bytes(),
    );
    fnv1a(&bytes)
}

impl Explorer {
    /// Runs the sweep under the fault-isolation supervisor. Layout and
    /// trace phases are shared inputs to every design, so a panic there
    /// is still a whole-sweep [`ExploreError`]; from the simulate phase
    /// on, failures degrade per unit of work as described in the module
    /// docs. The deadline holds in every phase: once it expires the
    /// remaining layout, trace and replay work is skipped.
    pub fn explore_supervised(
        &self,
        kernel: &Kernel,
        designs: &[CacheDesign],
        options: &SweepOptions,
    ) -> Result<SweepOutcome, ExploreError> {
        let workers = self.worker_count(designs.len());
        let id = sweep_id(kernel, designs, &self.evaluator);
        execute(self, designs, options, id, workers, |deadline, hists| {
            let plan = self.prepare(kernel, designs, workers, hists, deadline)?;
            // A cancelled preparation leaves nothing to replay.
            let units = match (plan.complete, self.engine) {
                (false, _) => Vec::new(),
                (true, Engine::Fused) => plan.groups(),
                (true, Engine::PerDesign) => (0..designs.len()).map(|i| vec![i]).collect(),
            };
            let mode = match self.engine {
                Engine::Fused => UnitMode::Banked {
                    fallback: "fallback",
                },
                Engine::PerDesign => UnitMode::PerDesign,
            };
            let runner = KernelRunner {
                explorer: self,
                designs,
                footprint: kernel_footprint_bytes(kernel),
                plan,
            };
            Ok((UnitPlan { units, mode }, runner))
        })
    }
}

/// The kernel sweep's unit runner: trace groups (or single designs)
/// replayed straight from the raw arena of a [`SweepPlan`].
struct KernelRunner<'a> {
    explorer: &'a Explorer,
    designs: &'a [CacheDesign],
    footprint: u64,
    plan: SweepPlan,
}

impl UnitRunner for KernelRunner<'_> {
    type Error = ExploreError;

    /// Resolves the group in closed form when the analytic fast path
    /// applies; otherwise streams its slice once through a replay bank.
    fn run_bank(&self, members: &[usize], _: &Deadline) -> Result<Option<UnitRun>, ExploreError> {
        let evaluator = &self.explorer.evaluator;
        let trace = self.plan.trace(members[0]);
        let events = trace.len() as u64;
        let bank: Vec<(CacheDesign, bool)> = members
            .iter()
            .map(|&i| (self.designs[i], self.plan.conflict_free[i]))
            .collect();
        if self.explorer.analytic {
            if let Some(records) = try_group_records(evaluator, self.footprint, &bank, trace) {
                return Ok(Some(UnitRun {
                    records,
                    events,
                    kind: UnitKind::Analytic,
                }));
            }
        }
        let obs = self.explorer.obs.as_deref();
        let tick = |n| {
            if let Some(o) = obs {
                o.counters.add_events(n);
            }
        };
        let records = evaluator.evaluate_bank_with_trace(
            &bank,
            trace,
            obs.map(|_| &tick as &(dyn Fn(u64) + Sync)),
        );
        Ok(Some(UnitRun {
            records,
            events,
            kind: UnitKind::Scan,
        }))
    }

    fn run_design(&self, i: usize, _: &Deadline) -> Result<Option<UnitRun>, ExploreError> {
        let trace = self.plan.trace(i);
        let record = self.explorer.evaluator.evaluate_with_trace(
            self.designs[i],
            trace,
            self.plan.conflict_free[i],
        );
        if let Some(o) = self.explorer.obs.as_deref() {
            o.counters.add_events(trace.len() as u64);
        }
        Ok(Some(UnitRun {
            records: vec![record],
            events: trace.len() as u64,
            kind: UnitKind::Design,
        }))
    }

    fn fill_telemetry(&self, t: &mut SweepTelemetry) {
        let plan = &self.plan;
        t.layouts_computed = plan.layouts_computed;
        t.traces_generated = plan.traces_generated;
        t.trace_events_generated = plan.events_generated;
        t.arena_bytes = plan.events_generated * std::mem::size_of::<TraceEvent>() as u64;
        t.layout_time = plan.layout_time;
        t.trace_time = plan.trace_time;
    }
}
