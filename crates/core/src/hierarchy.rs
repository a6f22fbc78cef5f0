//! Two-level (L1 + on-chip L2) exploration.
//!
//! The paper's single-cache exploration generalises directly: an on-chip L2
//! behind the L1 trades extra cell-array energy per L1 miss against far
//! cheaper off-chip traffic. This module sweeps `(L1, L2)` pairs over a
//! kernel using the [`memsim::Hierarchy`] substrate, charging
//!
//! * L1 hits with the paper's `E_hit(L1)`,
//! * L1 misses that hit the L2 with `E_hit(L1) + E_hit(L2)` (probe + on-chip
//!   refill — no pads, no off-chip access),
//! * L2 misses with the full `E_miss(L2)` off-chip path,
//!
//! and a cycle model where an L2 hit costs [`L2_HIT_CYCLES`] instead of the
//! paper's 40–72-cycle off-chip penalty.
//!
//! A faithful consequence of the paper's linear `E_cell = β·8·T` model: a
//! 4 KiB on-chip array costs ~65 nJ per access — more than a whole line
//! fill from the cheap 2 Mbit SRAM (≈40 nJ at L = 8). An on-chip L2 is
//! therefore an energy win only against *expensive* off-chip memory
//! (Em = 43.56 nJ), while it is always a large cycle win. Real SRAM energy
//! grows sub-linearly with capacity, so treat absolute L2 numbers with the
//! same caution as the rest of the model.
//!
//! # Example
//!
//! ```
//! use loopir::kernels;
//! use memexplore::hierarchy::{explore_two_level, TwoLevelSpace};
//! use memexplore::Evaluator;
//!
//! let records = explore_two_level(
//!     &kernels::matmul(16),
//!     &TwoLevelSpace::small(),
//!     &Evaluator::default(),
//! );
//! assert!(!records.is_empty());
//! ```

use crate::metrics::{CacheDesign, Evaluator};
use loopir::{CompiledTrace, Kernel};
use memsim::{CacheConfig, Hierarchy, HierarchyReport};

/// Cycles for an L1 miss served by the on-chip L2 (tag check + array read +
/// line transfer on an on-chip bus) — far below the paper's 40+ cycle
/// off-chip penalty.
pub const L2_HIT_CYCLES: f64 = 6.0;

/// The swept `(L1, L2)` pairs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TwoLevelSpace {
    /// L1 sizes (bytes).
    pub l1_sizes: Vec<usize>,
    /// L1 line sizes (bytes).
    pub l1_lines: Vec<usize>,
    /// L2 sizes (bytes); must exceed the paired L1.
    pub l2_sizes: Vec<usize>,
    /// L2 line sizes (bytes); must be ≥ the paired L1 line.
    pub l2_lines: Vec<usize>,
}

impl TwoLevelSpace {
    /// A compact grid for studies and tests.
    pub fn small() -> Self {
        TwoLevelSpace {
            l1_sizes: vec![32, 64, 128],
            l1_lines: vec![8, 16],
            l2_sizes: vec![512, 1024, 4096],
            l2_lines: vec![16, 32],
        }
    }

    /// Enumerates the valid pairs (L2 strictly larger, L2 line ≥ L1 line).
    pub fn pairs(&self) -> Vec<(CacheConfig, CacheConfig)> {
        let mut out = Vec::new();
        for &t1 in &self.l1_sizes {
            for &l1 in &self.l1_lines {
                let Ok(c1) = CacheConfig::new(t1, l1, 1) else {
                    continue;
                };
                for &t2 in &self.l2_sizes {
                    for &l2 in &self.l2_lines {
                        if t2 <= t1 || l2 < l1 {
                            continue;
                        }
                        let Ok(c2) = CacheConfig::new(t2, l2, 4) else {
                            continue;
                        };
                        out.push((c1, c2));
                    }
                }
            }
        }
        out
    }
}

/// One evaluated `(L1, L2)` pair.
#[derive(Clone, Debug)]
pub struct TwoLevelRecord {
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Per-level counters.
    pub report: HierarchyReport,
    /// Total cycles.
    pub cycles: f64,
    /// Total energy (nanojoules).
    pub energy_nj: f64,
}

impl TwoLevelRecord {
    /// The fraction of processor reads served from off-chip.
    pub fn global_miss_rate(&self) -> f64 {
        self.report.global_miss_rate()
    }
}

/// Evaluates one `(L1, L2)` pair on the kernel's read trace (optimized
/// placement at L1 granularity).
pub fn evaluate_two_level(
    kernel: &Kernel,
    l1: CacheConfig,
    l2: CacheConfig,
    evaluator: &Evaluator,
) -> TwoLevelRecord {
    let (layout, _) = evaluator.layout_for(kernel, l1.size(), l1.line());
    let mut h = Hierarchy::new(l1, l2);
    CompiledTrace::new(kernel, &layout, true)
        .for_each(|a| h.step(memsim::TraceEvent::read(a.addr, a.size)));
    let report = h.report();

    let l1_design = CacheDesign::new(l1.size(), l1.line(), l1.assoc(), 1);
    let l2_design = CacheDesign::new(l2.size(), l2.line(), l2.assoc(), 1);
    let l1_cfg = l1_design.cache_config().expect("validated above");
    let l2_cfg = l2_design.cache_config().expect("validated above");

    // Cycles: L1 hits at the paper's hit cost; L2 hits at the on-chip
    // penalty; L2 misses at the paper's off-chip penalty for the L2 line.
    let cm = &evaluator.cycle_model;
    let l1_hits = report.l1.read_hits as f64;
    let l2_hits = report.l2.read_hits as f64;
    let l2_misses = report.l2.read_misses() as f64;
    let cycles = l1_hits * cm.cycles_per_hit(l1.assoc())
        + l2_hits * L2_HIT_CYCLES
        + l2_misses * (1.0 + cm.cycles_per_miss(l2.line()));

    // Energy: see module docs. Address-bus switching approximated at 2
    // (Gray-coded kernel traces measure 2–7; the E_dec term is negligible
    // either way).
    let add_bs = 2.0;
    let em = &evaluator.energy_model;
    let e_l1_hit = em.hit_energy_nj(&l1_cfg, add_bs);
    let e_l2_hit = em.hit_energy_nj(&l2_cfg, add_bs);
    let e_l2_miss = em.miss_energy_nj(&l2_cfg, add_bs);
    let energy_nj =
        l1_hits * e_l1_hit + l2_hits * (e_l1_hit + e_l2_hit) + l2_misses * (e_l1_hit + e_l2_miss);

    TwoLevelRecord {
        l1,
        l2,
        report,
        cycles,
        energy_nj,
    }
}

/// Sweeps every pair of the space.
pub fn explore_two_level(
    kernel: &Kernel,
    space: &TwoLevelSpace,
    evaluator: &Evaluator,
) -> Vec<TwoLevelRecord> {
    space
        .pairs()
        .into_iter()
        .map(|(l1, l2)| evaluate_two_level(kernel, l1, l2, evaluator))
        .collect()
}

/// The minimum-energy pair of a sweep.
pub fn min_energy(records: &[TwoLevelRecord]) -> Option<&TwoLevelRecord> {
    records
        .iter()
        .min_by(|a, b| a.energy_nj.partial_cmp(&b.energy_nj).expect("finite"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;

    #[test]
    fn pairs_respect_the_geometry_constraints() {
        for (l1, l2) in TwoLevelSpace::small().pairs() {
            assert!(l2.size() > l1.size());
            assert!(l2.line() >= l1.line());
        }
    }

    #[test]
    fn l2_cuts_the_global_miss_rate_for_matmul() {
        // MatMult thrashes a 64 B L1; a 4 KB L2 holds the 3 KB working set.
        let kernel = kernels::matmul(16);
        let eval = Evaluator::default();
        let l1 = CacheConfig::new(64, 8, 1).expect("valid geometry");
        let l2 = CacheConfig::new(4096, 32, 4).expect("valid geometry");
        let r = evaluate_two_level(&kernel, l1, l2, &eval);
        assert!(r.report.l1.read_miss_rate() > 0.3);
        assert!(r.global_miss_rate() < 0.05, "{}", r.global_miss_rate());
    }

    #[test]
    fn two_level_wins_cycles_always_and_energy_against_expensive_offchip() {
        // MatMult's working set exceeds any single small cache. Against the
        // cheap 2 Mbit part the L2's cell energy exceeds an off-chip fill
        // (see module docs), but against the 16 Mbit part it wins on both
        // axes.
        let kernel = kernels::matmul(16);
        let l1 = CacheConfig::new(64, 8, 1).expect("valid geometry");
        let l2 = CacheConfig::new(4096, 32, 4).expect("valid geometry");

        let cheap = Evaluator::default(); // Em = 4.95 nJ
        let two_cheap = evaluate_two_level(&kernel, l1, l2, &cheap);
        let one_cheap = cheap.evaluate(&kernel, CacheDesign::new(64, 8, 1, 1));
        assert!(
            two_cheap.cycles < one_cheap.cycles,
            "the L2 always wins time"
        );
        assert!(
            two_cheap.energy_nj > one_cheap.energy_nj,
            "under the linear cell model the L2 loses energy vs cheap off-chip"
        );

        let dear = Evaluator::with_part(energy::SramPart::sram_16mbit());
        let two_dear = evaluate_two_level(&kernel, l1, l2, &dear);
        let one_dear = dear.evaluate(&kernel, CacheDesign::new(64, 8, 1, 1));
        assert!(
            two_dear.energy_nj < one_dear.energy_nj,
            "two-level {} should beat L1-only {} when off-chip is expensive",
            two_dear.energy_nj,
            one_dear.energy_nj
        );
    }

    #[test]
    fn sweep_returns_one_record_per_pair() {
        let kernel = kernels::matadd(6);
        let space = TwoLevelSpace::small();
        let records = explore_two_level(&kernel, &space, &Evaluator::default());
        assert_eq!(records.len(), space.pairs().len());
        assert!(min_energy(&records).is_some());
    }

    #[test]
    fn energy_accounts_every_read_once() {
        let kernel = kernels::sor(16);
        let eval = Evaluator::default();
        let l1 = CacheConfig::new(64, 8, 1).expect("valid geometry");
        let l2 = CacheConfig::new(1024, 16, 4).expect("valid geometry");
        let r = evaluate_two_level(&kernel, l1, l2, &eval);
        let reads = r.report.l1.reads;
        assert_eq!(
            r.report.l1.read_hits + r.report.l2.read_hits + r.report.l2.read_misses(),
            reads,
            "every read is an L1 hit, an L2 hit, or an off-chip access"
        );
    }
}
