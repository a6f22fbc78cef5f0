//! Multi-objective exploration: Pareto frontiers with admissible
//! branch-and-bound pruning.
//!
//! The paper's `Algorithm MemExplore` simulates every `(T, L, S, B)` point
//! and then selects one configuration under bounds. The multi-objective
//! mode instead returns the whole `(cycles, energy, cache size)` Pareto
//! frontier — and it does not have to simulate the whole space to get it
//! exactly.
//!
//! # Why pruning is lossless
//!
//! For a candidate design `d` we can compute, *without simulating it*,
//! admissible (never-overestimating) lower bounds on its true cycles and
//! energy:
//!
//! * The candidate replays a known trace (a function of its layout and
//!   tiling only). Scanning that trace once yields the **exact** number of
//!   line-level accesses `n` and the number of **distinct lines** `m`
//!   ([`analysis::TraceFootprint`]). A cold cache must miss each distinct
//!   line's first touch regardless of `T`, `S` or replacement, so the true
//!   miss count is `≥ m` and the true hit count is `≤ n − m`.
//! * Cycles and energy are both strictly increasing in the miss count, so
//!   evaluating the models at `(hits = n − m, misses = m)` bounds them from
//!   below. Crucially the bounds are computed with the **same expressions**
//!   the evaluator uses (`CycleModel::cycles_from_counts`, `hits·E_hit +
//!   misses·E_miss`), so when a candidate really does achieve the
//!   compulsory floor the bound equals its true metric *bitwise* — there is
//!   no floating-point slack to cross.
//! * The per-access address-bus switching `Add_bs` enters the energy model
//!   and depends only on the replayed trace, so for untiled candidates
//!   (whose trace is the one scanned) it is used exactly; for tiled
//!   candidates it is lower-bounded by 0 (switching energy is
//!   non-negative).
//!
//! If some already-simulated record `r` satisfies `r.cycles ≤ C_lb`,
//! `r.energy ≤ E_lb`, `r.T ≤ T_d`, strictly in at least one coordinate,
//! then `r` strictly dominates `d`'s true record and `d` cannot be on the
//! frontier — it is skipped. Skipping it cannot change the frontier:
//! dominance is transitive, so anything `d`'s true record would have
//! dominated is also dominated by `r`, which *is* simulated. The pruned
//! frontier is therefore bit-identical to the exhaustive one (the oracle
//! test in `tests/pareto_oracle.rs` asserts exactly this on every paper
//! kernel).
//!
//! # Search order
//!
//! Designs are processed in groups of equal cache size, in sweep order,
//! and each group in two waves: first the `(S=1, B=1)` bases, then the
//! rest. Bases of small caches are cheap and dominate aggressively (the
//! cell-array energy term grows linearly in `T`), so by the time the large
//! half of the space is reached, its groups are usually pruned wholesale —
//! the branch-and-bound "incumbent set" is the running list of evaluated
//! records. The analytic minimum-cache-size bound
//! ([`analysis::MinCacheReport`]) gates the bound computation: below the
//! conflict-free minimum for the candidate's line size the compulsory
//! floor is unreachable, so the pruner does not bother scanning for a
//! dominator there.
//!
//! With [`Engine::Fused`] (the default) each wave's survivors are grouped
//! by shared trace slice and simulated as one `memsim::ReplayBank` per
//! group — the pruner drops designs from a bank *before* the scan starts,
//! so fused lockstep only steps lanes that must be measured. Prune
//! decisions are order-independent predicates over the already-evaluated
//! record list (which grows only at wave boundaries in both engines), so
//! banking within a wave changes neither the prune set nor the frontier:
//! both stay bit-identical to the per-design engine.

use crate::analytic::{kernel_footprint_bytes, try_group_records};
use crate::explore::{steal_loop, DesignSpace, Engine, Explorer, SweepHists};
use crate::metrics::{read_trace, CacheDesign, Record};
use crate::obs::{FieldValue, Span};
use crate::select::pareto3;
use crate::telemetry::SweepTelemetry;
use analysis::{MinCacheReport, TraceFootprint};
use loopir::transform::tile_all;
use loopir::{DataLayout, Kernel};
use memsim::{BusMonitor, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-trace quantities the bounds are built from: the exact split-access
/// count, the compulsory-miss floor, and the exact average address-bus
/// switching of the untiled trace.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundInputs {
    /// Line-level accesses (`n`) — exactly what the simulator will count.
    pub(crate) accesses: u64,
    /// Distinct lines touched (`m`) — admissible lower bound on misses.
    pub(crate) min_misses: u64,
    /// Exact `Add_bs` of the untiled trace at this line size.
    pub(crate) add_bs: f64,
}

/// Exact average CPU-bus switching for `trace` at line size `line`,
/// replicating the simulator's line splitting and bus observation order
/// bit-for-bit (see `memsim::Simulator::step`).
pub(crate) fn exact_add_bs(
    trace: &[TraceEvent],
    line: usize,
    encoding: memsim::BusEncoding,
) -> f64 {
    let shift = (line as u64).trailing_zeros();
    let mut bus = BusMonitor::new(encoding);
    for e in trace {
        let size = e.size.max(1) as u64;
        let first_line = e.addr >> shift;
        let last_line = (e.addr + size - 1) >> shift;
        for l in first_line..=last_line {
            let addr = if l == first_line { e.addr } else { l << shift };
            bus.observe_cpu(addr);
        }
    }
    bus.cpu().avg_switches()
}

impl Explorer {
    /// The exhaustive reference: sweep the whole space, then extract the
    /// three-objective frontier with [`pareto3`]. Telemetry reports the
    /// full sweep plus `frontier_size`.
    pub fn pareto_exhaustive(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> (Vec<Record>, SweepTelemetry) {
        let (records, mut telemetry) = self.explore_with_telemetry(kernel, space);
        let select_start = Instant::now();
        let frontier = pareto3(&records);
        telemetry.select_time += select_start.elapsed();
        telemetry.frontier_size = frontier.len();
        telemetry.total_time += select_start.elapsed();
        (frontier, telemetry)
    }

    /// The pruned engine: branch-and-bound over the sweep with admissible
    /// cycle/energy lower bounds. Returns a frontier bit-identical to
    /// [`pareto_exhaustive`](Self::pareto_exhaustive) (see the module
    /// docs for the argument), usually after simulating a fraction of the
    /// space; `telemetry.designs_pruned` counts the skipped designs.
    pub fn pareto_pruned(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> (Vec<Record>, SweepTelemetry) {
        let sweep_start = Instant::now();
        let designs = space.designs();
        let workers = self.worker_count(designs.len());
        let obs = self.obs.as_deref();
        if let Some(o) = obs {
            o.counters
                .total
                .fetch_add(designs.len() as u64, Ordering::Relaxed);
        }
        let hists = SweepHists::default();

        // Caches shared across groups. Layouts are deduplicated by value
        // (distinct (T, L) pairs frequently optimize to the same layout),
        // traces are keyed by (layout id, B) exactly as in the exhaustive
        // engine, and bound inputs by (layout id, L).
        let mut pair_layout: HashMap<(usize, usize), (usize, bool)> = HashMap::new();
        let mut unique_layouts: Vec<DataLayout> = Vec::new();
        let mut traces: HashMap<(usize, u64), Vec<TraceEvent>> = HashMap::new();
        let mut tiled: HashMap<u64, Kernel> = HashMap::new();
        let mut bounds: HashMap<(usize, usize), BoundInputs> = HashMap::new();
        let mut min_cache: HashMap<usize, u64> = HashMap::new();

        let mut evaluated: Vec<Record> = Vec::new();
        let mut telemetry = SweepTelemetry {
            workers,
            ..SweepTelemetry::default()
        };
        let mut worker_busy: Vec<Duration> = Vec::new();

        // Process runs of equal cache size in sweep order.
        let mut group_start = 0;
        while group_start < designs.len() {
            let t = designs[group_start].cache_size;
            let mut group_end = group_start;
            while group_end < designs.len() && designs[group_end].cache_size == t {
                group_end += 1;
            }
            let group = &designs[group_start..group_end];
            group_start = group_end;

            // Layouts for this group's new (T, L) pairs, computed in
            // parallel then deduplicated by value.
            let phase_start = Instant::now();
            let new_pairs: Vec<(usize, usize)> = {
                let mut seen = Vec::new();
                for d in group {
                    let key = (d.cache_size, d.line);
                    if !pair_layout.contains_key(&key) && !seen.contains(&key) {
                        seen.push(key);
                    }
                }
                seen
            };
            let layout_slots: Vec<OnceLock<(DataLayout, bool)>> =
                new_pairs.iter().map(|_| OnceLock::new()).collect();
            let layout_span = Span::begin(obs, "layout");
            steal_loop(workers, new_pairs.len(), |w, i| {
                let (t, l) = new_pairs[i];
                let unit_start = Instant::now();
                let _ = layout_slots[i].set(self.evaluator.layout_for(kernel, t, l));
                let dur = unit_start.elapsed();
                hists.layout.record(dur);
                if let Some(o) = obs {
                    o.unit(
                        "layout",
                        "place",
                        w as u64,
                        dur,
                        &[
                            ("cache", FieldValue::U64(t as u64)),
                            ("line", FieldValue::U64(l as u64)),
                        ],
                    );
                }
            });
            drop(layout_span);
            for (pair, slot) in new_pairs.iter().zip(layout_slots) {
                let (layout, conflict_free) = slot.into_inner().expect("layout slot filled");
                let id = match unique_layouts.iter().position(|u| *u == layout) {
                    Some(id) => id,
                    None => {
                        unique_layouts.push(layout);
                        unique_layouts.len() - 1
                    }
                };
                pair_layout.insert(*pair, (id, conflict_free));
                telemetry.layouts_computed += 1;
            }
            telemetry.layout_time += phase_start.elapsed();

            // Bound inputs per (layout id, L): scan the untiled trace once.
            // The trace is materialized here (and kept — the bases replay
            // it), so bound preparation shares the trace-once discipline.
            for d in group {
                let (id, _) = pair_layout[&(d.cache_size, d.line)];
                if bounds.contains_key(&(id, d.line)) {
                    continue;
                }
                let trace_start = Instant::now();
                if let std::collections::hash_map::Entry::Vacant(slot) = traces.entry((id, 1)) {
                    let base = tiled.entry(1).or_insert_with(|| tile_all(kernel, 1));
                    let trace = read_trace(base, &unique_layouts[id]);
                    telemetry.traces_generated += 1;
                    telemetry.trace_events_generated += trace.len() as u64;
                    slot.insert(trace);
                }
                telemetry.trace_time += trace_start.elapsed();
                let scan_start = Instant::now();
                let trace = &traces[&(id, 1)];
                let fp =
                    TraceFootprint::analyze(d.line as u64, trace.iter().map(|e| (e.addr, e.size)));
                let add_bs = exact_add_bs(trace, d.line, self.evaluator.bus_encoding);
                bounds.insert(
                    (id, d.line),
                    BoundInputs {
                        accesses: fp.accesses,
                        min_misses: fp.min_misses(),
                        add_bs,
                    },
                );
                telemetry.bound_time += scan_start.elapsed();
            }

            // Two waves: bases (S=1, B=1) first so the rest of the group
            // can be pruned against them, then the remaining designs.
            let is_base = |d: &CacheDesign| d.assoc == 1 && d.tiling == 1;
            for wave in 0..2 {
                let members: Vec<CacheDesign> = group
                    .iter()
                    .copied()
                    .filter(|d| is_base(d) == (wave == 0))
                    .collect();
                if members.is_empty() {
                    continue;
                }

                // Bound check (serial — it only scans the evaluated list).
                let phase_start = Instant::now();
                let bound_span = Span::begin(obs, "bound");
                let wave_size = members.len();
                let survivors: Vec<CacheDesign> = members
                    .into_iter()
                    .filter(|d| {
                        let min_pow2 = min_cache_for(kernel, &mut min_cache, d.line);
                        !self.is_pruned(d, &pair_layout, &bounds, min_pow2, &evaluated)
                    })
                    .collect();
                let pruned_here = wave_size - survivors.len();
                telemetry.designs_pruned += pruned_here;
                drop(bound_span);
                if pruned_here > 0 {
                    if let Some(o) = obs {
                        o.counters
                            .pruned
                            .fetch_add(pruned_here as u64, Ordering::Relaxed);
                        o.point(
                            "bound",
                            "pruned",
                            &[
                                ("cache", FieldValue::U64(t as u64)),
                                ("wave", FieldValue::U64(wave as u64)),
                                ("count", FieldValue::U64(pruned_here as u64)),
                            ],
                        );
                    }
                }
                telemetry.bound_time += phase_start.elapsed();

                // Materialize any traces the survivors still need.
                let phase_start = Instant::now();
                for d in &survivors {
                    let (id, _) = pair_layout[&(d.cache_size, d.line)];
                    if traces.contains_key(&(id, d.tiling)) {
                        continue;
                    }
                    let tiled_kernel = tiled
                        .entry(d.tiling)
                        .or_insert_with(|| tile_all(kernel, d.tiling));
                    let trace = read_trace(tiled_kernel, &unique_layouts[id]);
                    telemetry.traces_generated += 1;
                    telemetry.trace_events_generated += trace.len() as u64;
                    traces.insert((id, d.tiling), trace);
                }
                telemetry.trace_time += phase_start.elapsed();

                // Simulate the wave's survivors with work stealing. The
                // pruner has already dropped designs from each bank, so
                // the fused engine only steps lanes that must be measured.
                let phase_start = Instant::now();
                let simulate_span = Span::begin(obs, "simulate");
                let record_slots: Vec<OnceLock<Record>> =
                    survivors.iter().map(|_| OnceLock::new()).collect();
                let replayed = AtomicUsize::new(0);
                let scanned = AtomicUsize::new(0);
                let busy = match self.engine {
                    Engine::Fused => {
                        // Trace groups within the wave: survivors sharing
                        // one (layout id, tiling) slice form one bank.
                        let mut group_of: HashMap<(usize, u64), usize> = HashMap::new();
                        let mut groups: Vec<Vec<usize>> = Vec::new();
                        for (i, d) in survivors.iter().enumerate() {
                            let (id, _) = pair_layout[&(d.cache_size, d.line)];
                            let g = *group_of.entry((id, d.tiling)).or_insert_with(|| {
                                groups.push(Vec::new());
                                groups.len() - 1
                            });
                            groups[g].push(i);
                        }
                        telemetry.fused_groups += groups.len();
                        telemetry.max_bank_width = telemetry
                            .max_bank_width
                            .max(groups.iter().map(Vec::len).max().unwrap_or(0));
                        // The frontier sweep keeps its raw traces resident
                        // (the bound scans reuse them across cache-size
                        // groups), so the analytic fast path is applied
                        // per bank inside the worker — qualifying groups
                        // skip the replay, everything else streams as
                        // before.
                        let analytic_hits = AtomicUsize::new(0);
                        let footprint = kernel_footprint_bytes(kernel);
                        let busy = steal_loop(workers, groups.len(), |w, g| {
                            let members = &groups[g];
                            let bank: Vec<(CacheDesign, bool)> = members
                                .iter()
                                .map(|&i| {
                                    let d = survivors[i];
                                    let (_, conflict_free) = pair_layout[&(d.cache_size, d.line)];
                                    (d, conflict_free)
                                })
                                .collect();
                            let d = survivors[members[0]];
                            let (id, _) = pair_layout[&(d.cache_size, d.line)];
                            let trace = &traces[&(id, d.tiling)];
                            replayed.fetch_add(trace.len() * members.len(), Ordering::Relaxed);
                            let unit_start = Instant::now();
                            if self.analytic {
                                if let Some(records) =
                                    try_group_records(&self.evaluator, footprint, &bank, trace)
                                {
                                    analytic_hits.fetch_add(1, Ordering::Relaxed);
                                    for (&i, record) in members.iter().zip(records) {
                                        let _ = record_slots[i].set(record);
                                    }
                                    let dur = unit_start.elapsed();
                                    if let Some(o) = obs {
                                        o.counters.add_done(members.len() as u64);
                                        o.unit(
                                            "simulate",
                                            "analytic",
                                            w as u64,
                                            dur,
                                            &[
                                                ("events", FieldValue::U64(trace.len() as u64)),
                                                ("width", FieldValue::U64(members.len() as u64)),
                                                ("fresh", FieldValue::U64(members.len() as u64)),
                                            ],
                                        );
                                    }
                                    return;
                                }
                            }
                            scanned.fetch_add(trace.len(), Ordering::Relaxed);
                            let tick = |n| {
                                if let Some(o) = obs {
                                    o.counters.add_events(n);
                                }
                            };
                            let records = self.evaluator.evaluate_bank_with_trace(
                                &bank,
                                trace,
                                obs.map(|_| &tick as &(dyn Fn(u64) + Sync)),
                            );
                            let dur = unit_start.elapsed();
                            hists.scan.record(dur);
                            for (&i, record) in members.iter().zip(records) {
                                let _ = record_slots[i].set(record);
                            }
                            if let Some(o) = obs {
                                o.counters.add_done(members.len() as u64);
                                o.unit(
                                    "simulate",
                                    "scan",
                                    w as u64,
                                    dur,
                                    &[
                                        ("events", FieldValue::U64(trace.len() as u64)),
                                        ("width", FieldValue::U64(members.len() as u64)),
                                        ("fresh", FieldValue::U64(members.len() as u64)),
                                    ],
                                );
                            }
                        });
                        let hits = analytic_hits.into_inner();
                        telemetry.analytic_groups += hits;
                        telemetry.simulated_groups += groups.len() - hits;
                        busy
                    }
                    Engine::PerDesign => steal_loop(workers, survivors.len(), |w, i| {
                        let d = survivors[i];
                        let (id, conflict_free) = pair_layout[&(d.cache_size, d.line)];
                        let trace = &traces[&(id, d.tiling)];
                        replayed.fetch_add(trace.len(), Ordering::Relaxed);
                        scanned.fetch_add(trace.len(), Ordering::Relaxed);
                        let unit_start = Instant::now();
                        let _ = record_slots[i].set(self.evaluator.evaluate_with_trace(
                            d,
                            trace,
                            conflict_free,
                        ));
                        let dur = unit_start.elapsed();
                        hists.design.record(dur);
                        if let Some(o) = obs {
                            o.counters.add_done(1);
                            o.counters.add_events(trace.len() as u64);
                            o.unit(
                                "simulate",
                                "sim",
                                w as u64,
                                dur,
                                &[("events", FieldValue::U64(trace.len() as u64))],
                            );
                        }
                    }),
                };
                drop(simulate_span);
                telemetry.simulate_time += phase_start.elapsed();
                telemetry.trace_events_replayed += replayed.into_inner() as u64;
                telemetry.trace_events_scanned += scanned.into_inner() as u64;
                for (i, d) in busy.into_iter().enumerate() {
                    if i < worker_busy.len() {
                        worker_busy[i] += d;
                    } else {
                        worker_busy.push(d);
                    }
                }
                for slot in record_slots {
                    evaluated.push(slot.into_inner().expect("simulate slot filled"));
                }
            }
        }

        let phase_start = Instant::now();
        let select_span = Span::begin(obs, "select");
        let frontier = pareto3(&evaluated);
        drop(select_span);
        telemetry.select_time = phase_start.elapsed();
        telemetry.designs_evaluated = evaluated.len();
        telemetry.frontier_size = frontier.len();
        telemetry.worker_busy = worker_busy;
        telemetry.total_time = sweep_start.elapsed();
        hists.fill(&mut telemetry);
        debug_assert!(
            telemetry.worker_utilization() <= 1.05,
            "worker busy time overcounted: utilization {}",
            telemetry.worker_utilization()
        );
        (frontier, telemetry)
    }

    /// Whether an evaluated record provably strictly dominates the true
    /// (unsimulated) record of `d`.
    fn is_pruned(
        &self,
        d: &CacheDesign,
        pair_layout: &HashMap<(usize, usize), (usize, bool)>,
        bounds: &HashMap<(usize, usize), BoundInputs>,
        min_pow2_cache: u64,
        evaluated: &[Record],
    ) -> bool {
        // Analytic minimum-cache gate: below the conflict-free minimum for
        // this line size the compulsory floor cannot be approached, so a
        // dominator search is a waste of time (skipping a prune is always
        // sound).
        if (d.cache_size as u64) < min_pow2_cache {
            return false;
        }
        let (id, _) = pair_layout[&(d.cache_size, d.line)];
        let b = bounds[&(id, d.line)];
        let max_hits = b.accesses - b.min_misses;
        let cycles_lb = self.evaluator.cycle_model.cycles_from_counts(
            max_hits,
            b.min_misses,
            d.assoc,
            d.line,
            d.tiling,
        );
        // The untiled trace is exactly the candidate's trace when B = 1;
        // tiling permutes it, so its switching is only bounded below by 0.
        let add_bs = if d.tiling == 1 { b.add_bs } else { 0.0 };
        let cfg = d
            .cache_config()
            .expect("design spaces only enumerate valid geometry");
        let energy_lb = max_hits as f64 * self.evaluator.energy_model.hit_energy_nj(&cfg, add_bs)
            + b.min_misses as f64 * self.evaluator.energy_model.miss_energy_nj(&cfg, add_bs);
        evaluated.iter().any(|r| {
            r.design.cache_size <= d.cache_size
                && r.cycles <= cycles_lb
                && r.energy_nj <= energy_lb
                && (r.design.cache_size < d.cache_size
                    || r.cycles < cycles_lb
                    || r.energy_nj < energy_lb)
        })
    }
}

/// Memoized `MinCacheReport::min_pow2_cache_bytes` per line size.
fn min_cache_for(kernel: &Kernel, cache: &mut HashMap<usize, u64>, line: usize) -> u64 {
    *cache
        .entry(line)
        .or_insert_with(|| MinCacheReport::analyze(kernel, line as u64).min_pow2_cache_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;

    #[test]
    fn pruned_matches_exhaustive_on_the_small_space() {
        let explorer = Explorer::default();
        for k in [kernels::compress(15), kernels::matadd(8), kernels::sor(15)] {
            let space = DesignSpace::small();
            let (exhaustive, te) = explorer.pareto_exhaustive(&k, &space);
            let (pruned, tp) = explorer.pareto_pruned(&k, &space);
            assert_eq!(exhaustive, pruned, "kernel {}", k.name);
            assert_eq!(te.frontier_size, exhaustive.len());
            assert_eq!(
                tp.designs_evaluated + tp.designs_pruned,
                space.designs().len(),
                "kernel {}",
                k.name
            );
        }
    }

    #[test]
    fn pruned_matches_exhaustive_with_tiling_and_assoc() {
        let k = kernels::compress(15);
        let space = DesignSpace {
            cache_sizes: vec![16, 32, 64, 128, 256, 512],
            line_sizes: vec![4, 8, 16],
            assocs: vec![1, 2, 4],
            tilings: vec![1, 2, 4],
            min_lines: 2,
            ..Default::default()
        };
        let explorer = Explorer::default();
        let (exhaustive, _) = explorer.pareto_exhaustive(&k, &space);
        let (pruned, t) = explorer.pareto_pruned(&k, &space);
        assert_eq!(exhaustive, pruned);
        assert!(t.designs_pruned > 0, "expected pruning on compress(15)");
    }

    #[test]
    fn pruning_actually_skips_large_caches_on_compress() {
        // Compress(31)'s working set fits well under 1 KiB, so the big
        // half of the paper grid must prune.
        let k = kernels::compress(31);
        let (frontier, t) = Explorer::default().pareto_pruned(&k, &DesignSpace::paper());
        assert!(!frontier.is_empty());
        assert!(
            t.designs_pruned as f64 >= 0.3 * t.designs_considered() as f64,
            "pruned only {} of {}",
            t.designs_pruned,
            t.designs_considered()
        );
        // Pruned designs generate no records — the frontier never
        // references a cache size the bound ruled out entirely.
        assert_eq!(t.frontier_size, frontier.len());
    }

    #[test]
    fn serial_and_parallel_pruned_sweeps_agree() {
        let k = kernels::sor(15);
        let space = DesignSpace::small();
        let (serial, _) = Explorer::default()
            .with_workers(1)
            .pareto_pruned(&k, &space);
        let (parallel, _) = Explorer::default()
            .with_workers(4)
            .pareto_pruned(&k, &space);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fused_and_per_design_pruned_sweeps_agree() {
        let k = kernels::compress(15);
        let space = DesignSpace {
            cache_sizes: vec![16, 32, 64, 128, 256],
            line_sizes: vec![4, 8, 16],
            assocs: vec![1, 2],
            tilings: vec![1, 2],
            min_lines: 2,
            ..Default::default()
        };
        let (fused, tf) = Explorer::default()
            .with_engine(Engine::Fused)
            .pareto_pruned(&k, &space);
        let (per, tp) = Explorer::default()
            .with_engine(Engine::PerDesign)
            .pareto_pruned(&k, &space);
        assert_eq!(fused, per);
        // Same prune decisions, different scheduling.
        assert_eq!(tf.designs_pruned, tp.designs_pruned);
        assert_eq!(tf.designs_evaluated, tp.designs_evaluated);
        assert_eq!(tf.trace_events_replayed, tp.trace_events_replayed);
        assert!(tf.fused_groups > 0);
        assert!(tf.trace_events_scanned <= tf.trace_events_replayed);
        assert_eq!(tp.fused_groups, 0);
        assert_eq!(tp.trace_events_scanned, tp.trace_events_replayed);
    }

    #[test]
    fn frontier_members_come_from_the_design_space() {
        let k = kernels::matadd(6);
        let space = DesignSpace::small();
        let designs = space.designs();
        let (frontier, _) = Explorer::default().pareto_pruned(&k, &space);
        for r in &frontier {
            assert!(designs.contains(&r.design), "{} not in space", r.design);
        }
    }

    #[test]
    fn exact_add_bs_matches_the_simulator() {
        use memsim::{BusEncoding, CacheConfig, Simulator};
        let k = kernels::compress(15);
        let layout = loopir::DataLayout::natural(&k);
        let trace = read_trace(&k, &layout);
        for line in [4usize, 8, 16] {
            let ours = exact_add_bs(&trace, line, BusEncoding::Gray);
            let cfg = CacheConfig::new(64.max(line * 4), line, 1).unwrap();
            let mut sim = Simulator::with_options(cfg, BusEncoding::Gray, false);
            sim.run_slice(&trace);
            let theirs = sim.into_report().cpu_bus.avg_switches();
            assert_eq!(ours, theirs, "line={line}");
        }
    }

    #[test]
    fn empty_space_produces_empty_frontier() {
        let k = kernels::matadd(4);
        let space = DesignSpace {
            cache_sizes: vec![],
            line_sizes: vec![],
            assocs: vec![],
            tilings: vec![],
            min_lines: 1,
            ..Default::default()
        };
        let (frontier, t) = Explorer::default().pareto_pruned(&k, &space);
        assert!(frontier.is_empty());
        assert_eq!(t.designs_evaluated, 0);
        assert_eq!(t.designs_pruned, 0);
    }
}
