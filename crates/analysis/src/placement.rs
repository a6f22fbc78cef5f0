//! Off-chip memory assignment (§4.1).
//!
//! Conflict misses occur when data that will be reused soon is displaced by
//! another reference mapping to the same cache line. For *compatible* access
//! patterns (same `H` — the accesses keep a loop-invariant distance), a data
//! layout exists that avoids conflicts entirely: give each reference class
//! its own cache-line range by padding array base addresses and row pitches.
//!
//! The paper's Compress walk-through: with a line of 2 and a cache of 8,
//! `a[0][0]` (class 1 leader) sits at address 0 → line 0; the natural
//! address 32 of `a[1][0]` (class 2 leader) also maps to line 0, conflicting
//! every iteration, so the row pitch is padded 32 → 36, putting `a[1][0]` on
//! line 2. Its Example 2 pads *between* arrays instead (`b` moved to 38,
//! `c` to 76).
//!
//! [`optimize_layout`] implements this as a bounded search. Arrays are
//! placed in declaration order; for each, every (row pitch, base) pair
//! within one cache size of padding is scored by how many class byte
//! footprints (member span plus one line of phase slack, taken modulo the
//! cache size) collide — with each other or with classes of already-placed
//! arrays — and the least-colliding, least-padded assignment wins. Later
//! multi-row arrays must keep their pitch congruent
//! (mod cache size) with earlier ones so inter-class spacing survives row
//! boundaries. Unlike a fixed target-line scheme, collision scoring lets
//! stencil classes (rows `i−1`, `i`, `i+1`, whose spacing is forced to
//! multiples of the pitch) settle into any equally-spaced conflict-free
//! arrangement.

use crate::classes::{partition_classes, RefClass};

use loopir::layout::Placement;
use loopir::{ArrayDecl, ArrayId, DataLayout, Kernel};
use std::error::Error;
use std::fmt;

/// Errors from [`optimize_layout`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementError {
    /// The kernel declares no arrays.
    NoArrays,
    /// Cache or line size was zero or line exceeds cache.
    BadGeometry {
        /// Cache size passed in.
        cache_size: u64,
        /// Line size passed in.
        line: u64,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoArrays => write!(f, "kernel declares no arrays"),
            PlacementError::BadGeometry { cache_size, line } => {
                write!(f, "bad cache geometry: size {cache_size}, line {line}")
            }
        }
    }
}

impl Error for PlacementError {}

/// The outcome of a placement optimisation.
#[derive(Clone, Debug)]
pub struct PlacementReport {
    /// The optimised layout.
    pub layout: DataLayout,
    /// Cache line each class leader landed on (in `partition_classes`
    /// order, writes included).
    pub leader_lines: Vec<u64>,
    /// Number of classes whose line range collides with another class.
    pub colliding_classes: usize,
    /// Total classes considered.
    pub total_classes: usize,
    /// Extra off-chip bytes relative to the natural packed layout.
    pub padding_bytes: u64,
    /// True when no class ranges collide *and* the total line requirement
    /// fits the cache — the conflict-free guarantee of §4.1 applies.
    pub conflict_free: bool,
}

/// First iteration point of the nest (lower bounds, evaluated outside-in).
fn first_iteration(kernel: &Kernel) -> Vec<i64> {
    let mut ivs: Vec<i64> = Vec::with_capacity(kernel.nest.depth());
    for l in &kernel.nest.loops {
        let lo = l.lower.eval(&ivs);
        ivs.push(lo);
    }
    ivs
}

/// The subscripts of a class leader at the first iteration point.
fn leader_subscripts(kernel: &Kernel, class: &RefClass, ivs: &[i64]) -> Vec<i64> {
    kernel.nest.refs[class.leader()]
        .subscripts
        .iter()
        .map(|s| s.eval(ivs))
        .collect()
}

/// Computes the byte address of `subs` under a candidate placement.
fn candidate_address(kernel: &Kernel, array: ArrayId, p: Placement, subs: &[i64]) -> u64 {
    let a = kernel.array(array);
    if a.dims.len() == 1 {
        return p.base + subs[0] as u64 * a.elem_size as u64;
    }
    let weights = a.weights();
    let inner: u64 = subs[1..]
        .iter()
        .zip(&weights[1..])
        .map(|(&s, &w)| s as u64 * w as u64)
        .sum();
    p.base + subs[0] as u64 * p.row_pitch + inner * a.elem_size as u64
}

/// A circular byte range `[start, start+len)` on a ring of `n` bytes (the
/// cache size). `len` already includes one line of phase slack.
#[derive(Clone, Copy, Debug)]
struct ByteRange {
    start: u64,
    len: u64,
}

impl ByteRange {
    #[cfg(test)]
    fn overlaps(&self, other: &ByteRange, n: u64) -> bool {
        self.overlap_len(other, n) > 0
    }

    /// Bytes shared by the two circular ranges.
    fn overlap_len(&self, other: &ByteRange, n: u64) -> u64 {
        let (la, lb) = (self.len.min(n), other.len.min(n));
        if la == n || lb == n {
            return la.min(lb);
        }
        // Shift so self starts at 0; other covers [d, d+lb) with a possible
        // wrapped tail [0, d+lb-n).
        let d = (other.start + n - self.start) % n;
        let head = if d < la { lb.min(la - d) } else { 0 };
        let tail = (d + lb).saturating_sub(n).min(la);
        (head + tail).min(la.min(lb))
    }
}

/// Pairwise collision score: how many ranges collide with another, and how
/// many total bytes overlap. The byte term gives the search a gradient when
/// the ranges cannot all be disjoint (small caches), so it spreads them as
/// evenly as possible instead of picking an arbitrary tied candidate.
fn collisions(ranges: &[ByteRange], n: u64) -> (usize, u64) {
    let mut colliding = vec![false; ranges.len()];
    let mut overlap_bytes = 0u64;
    for i in 0..ranges.len() {
        for j in (i + 1)..ranges.len() {
            let ov = ranges[i].overlap_len(&ranges[j], n);
            if ov > 0 {
                colliding[i] = true;
                colliding[j] = true;
                overlap_bytes += ov;
            }
        }
    }
    (colliding.iter().filter(|&&c| c).count(), overlap_bytes)
}

/// Optimises the layout of `kernel` for a direct-mapped (or limited-
/// associativity) cache of `cache_size` bytes with `line`-byte lines.
///
/// Returns the padded layout plus a report. When the constraints cannot all
/// be met (incompatible patterns, or more class lines than the cache holds),
/// the best-effort layout with the fewest collisions is returned with
/// `conflict_free = false`.
///
/// # Errors
///
/// [`PlacementError::NoArrays`] for array-less kernels and
/// [`PlacementError::BadGeometry`] for non-positive or inconsistent cache
/// geometry.
pub fn optimize_layout(
    kernel: &Kernel,
    cache_size: u64,
    line: u64,
) -> Result<PlacementReport, PlacementError> {
    optimize_with(kernel, cache_size, line, pitch_candidates)
}

/// The row pitches [`optimize_layout`] tries for `array`, in search order:
/// the natural pitch padded by `k` elements for `k` in `0..⌈cache/elem⌉`,
/// keeping those congruent to `residue` (mod cache) when one is required —
/// or all of them when none is. Rank-1 and single-row arrays have one
/// candidate. Lazy: the search usually stops at the first zero-collision
/// candidate, long before the `cache/elem` pitches of a large cache.
fn pitch_candidates(
    array: &ArrayDecl,
    cache_size: u64,
    residue: Option<u64>,
) -> impl Iterator<Item = u64> {
    let elem = array.elem_size as u64;
    let natural: u64 = array.dims[1..].iter().map(|&d| d as u64).product::<u64>() * elem;
    let multi_row = array.dims.len() > 1 && array.dims[0] > 1;
    let count = if multi_row {
        cache_size.div_ceil(elem)
    } else {
        0
    };
    let all = move || (0..count).map(move |k| natural + k * elem);
    let mut constrained = all()
        .filter(move |&p| residue.is_none_or(|r| p % cache_size == r))
        .peekable();
    // Fall back to unconstrained pitches if the residue filter matches
    // nothing (differing element sizes can cause this).
    let fallback = constrained.peek().is_none();
    let single = (!multi_row).then_some(natural.max(elem));
    single
        .into_iter()
        .chain(constrained)
        .chain(all().take_while(move |_| fallback))
}

/// [`optimize_layout`] with the pitch candidates of each array supplied
/// by `pitches(array, cache size, required residue)`.
fn optimize_with<I: IntoIterator<Item = u64>>(
    kernel: &Kernel,
    cache_size: u64,
    line: u64,
    pitches: impl Fn(&ArrayDecl, u64, Option<u64>) -> I,
) -> Result<PlacementReport, PlacementError> {
    if kernel.arrays.is_empty() {
        return Err(PlacementError::NoArrays);
    }
    if cache_size == 0 || line == 0 || line > cache_size {
        return Err(PlacementError::BadGeometry { cache_size, line });
    }
    let num_lines = cache_size / line;

    // Writes participate: an allocated store occupies a line too.
    let classes = partition_classes(kernel, false);
    let ivs = first_iteration(kernel);

    // Scoring units. Classes of the same array with the same `H` share
    // data: the element a leading row-class fetches is reused by a trailing
    // row-class a full row of iterations later, so the *whole window*
    // between the group's lowest and highest member must stay resident for
    // that reuse to survive — one protected byte range per (array, H)
    // group. When the window exceeds the cache, the long reuse is lost to
    // capacity in any layout (a fully associative cache of the same size
    // also misses it), so the group degrades gracefully to one range per
    // class protecting each stream's leading edge.
    //
    // Every range carries one line of phase slack: two lockstep streams
    // stay on disjoint cache lines at *every* phase iff the circular byte
    // gap between their footprints is at least one line on both sides.
    // (Scoring on leader line indexes alone is wrong: a half-line
    // separation has distinct leader lines at the first iteration but
    // collides as the streams drift across line boundaries.)
    struct Unit {
        array: ArrayId,
        /// Class whose leader is the group's lowest address.
        leader_class: usize,
        /// Protected bytes (span + element width + line slack).
        footprint: u64,
    }
    let mut units: Vec<Unit> = Vec::new();
    {
        let mut grouped: Vec<bool> = vec![false; classes.len()];
        for i in 0..classes.len() {
            if grouped[i] {
                continue;
            }
            let group: Vec<usize> = (i..classes.len())
                .filter(|&j| classes[j].array == classes[i].array && classes[j].h == classes[i].h)
                .collect();
            for &j in &group {
                grouped[j] = true;
            }
            let elem = kernel.array(classes[i].array).elem_size as u64;
            let min_off = group
                .iter()
                .map(|&j| *classes[j].linear_offsets.first().expect("non-empty class"))
                .min()
                .expect("non-empty group");
            let max_off = group
                .iter()
                .map(|&j| *classes[j].linear_offsets.last().expect("non-empty class"))
                .max()
                .expect("non-empty group");
            let window = (max_off - min_off).unsigned_abs() * elem + elem - 1 + line;
            if window <= cache_size {
                let leader_class = group
                    .iter()
                    .copied()
                    .min_by_key(|&j| *classes[j].linear_offsets.first().expect("non-empty"))
                    .expect("non-empty group");
                units.push(Unit {
                    array: classes[i].array,
                    leader_class,
                    footprint: window,
                });
            } else {
                for &j in &group {
                    units.push(Unit {
                        array: classes[j].array,
                        leader_class: j,
                        footprint: classes[j].element_span().unsigned_abs() * elem + elem - 1
                            + line,
                    });
                }
            }
        }
    }
    let fits = units.iter().map(|u| u.footprint).sum::<u64>() <= cache_size;

    // Unit indices per array.
    let per_array: Vec<Vec<usize>> = (0..kernel.arrays.len())
        .map(|a| {
            units
                .iter()
                .enumerate()
                .filter(|(_, u)| u.array == ArrayId(a))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    let mut placements: Vec<Placement> = Vec::with_capacity(kernel.arrays.len());
    let mut fixed_ranges: Vec<ByteRange> = Vec::new();
    let mut base_cursor = 0u64;
    // Row-pitch residues (mod cache) keyed by the `H` of already-placed
    // classes: arrays accessed with the same `H` advance through memory in
    // lockstep only if their pitches agree mod the cache size, so a later
    // array sharing an `H` with an earlier one must match that residue.
    // Arrays with unrelated access patterns (e.g. a streaming coefficient
    // plane vs. a small resident look-up table) stay unconstrained — forcing
    // a shared pitch there would inflate the small array and wreck its
    // locality.
    let mut residue_by_h: Vec<(Vec<i64>, u64)> = Vec::new();

    for (aidx, array) in kernel.arrays.iter().enumerate() {
        let elem = array.elem_size as u64;
        let natural_pitch: u64 = array.dims[1..].iter().map(|&d| d as u64).product::<u64>() * elem;
        let multi_row = array.dims.len() > 1 && array.dims[0] > 1;
        let unit_ids = &per_array[aidx];

        // Residue this array must honour: the residue of any earlier-placed
        // array sharing an `H` with one of this array's classes.
        let required_residue: Option<u64> = unit_ids.iter().find_map(|&ui| {
            let h = &classes[units[ui].leader_class].h;
            residue_by_h.iter().find(|(rh, _)| rh == h).map(|(_, r)| *r)
        });
        // (collision score, padding, placement, protected ranges)
        type Candidate = ((usize, u64), u64, Placement, Vec<ByteRange>);
        let mut best: Option<Candidate> = None;
        'search: for pitch in pitches(array, cache_size, required_residue) {
            for k in 0..cache_size.div_ceil(elem) {
                let base = base_cursor + k * elem;
                let p = Placement {
                    base,
                    row_pitch: pitch,
                };
                let new_ranges: Vec<ByteRange> = unit_ids
                    .iter()
                    .map(|&ui| {
                        let subs =
                            leader_subscripts(kernel, &classes[units[ui].leader_class], &ivs);
                        let addr = candidate_address(kernel, ArrayId(aidx), p, &subs);
                        ByteRange {
                            start: addr % cache_size,
                            len: units[ui].footprint.min(cache_size),
                        }
                    })
                    .collect();
                let mut all: Vec<ByteRange> = fixed_ranges.clone();
                all.extend(new_ranges.iter().copied());
                let score = collisions(&all, cache_size);
                let padding = (base - base_cursor) + (pitch - natural_pitch);
                let better = match &best {
                    None => true,
                    Some((bs, bp, _, _)) => score < *bs || (score == *bs && padding < *bp),
                };
                if better {
                    let zero = score == (0, 0);
                    best = Some((score, padding, p, new_ranges));
                    if zero {
                        break 'search;
                    }
                }
            }
        }

        let (_, _, placement, new_ranges) =
            best.expect("search space is non-empty for every array");
        fixed_ranges.extend(new_ranges);
        if multi_row {
            for &ui in unit_ids {
                let h = &classes[units[ui].leader_class].h;
                if !residue_by_h.iter().any(|(rh, _)| rh == h) {
                    residue_by_h.push((h.clone(), placement.row_pitch % cache_size));
                }
            }
        }
        // Advance the cursor past this array.
        let rows = array.dims[0] as u64;
        let end = if array.dims.len() == 1 {
            placement.base + array.byte_size() as u64
        } else {
            placement.base + (rows - 1) * placement.row_pitch + natural_pitch
        };
        base_cursor = end;
        placements.push(placement);
    }

    // Final report: recompute leader positions and collisions over all
    // classes.
    let layout = DataLayout::from_placements(kernel, placements);
    let leader_addrs: Vec<u64> = classes
        .iter()
        .map(|c| {
            let subs = leader_subscripts(kernel, c, &ivs);
            layout.element_address(kernel, c.array, &subs)
        })
        .collect();
    let leader_lines: Vec<u64> = leader_addrs
        .iter()
        .map(|&addr| (addr / line) % num_lines)
        .collect();
    let final_ranges: Vec<ByteRange> = units
        .iter()
        .map(|u| ByteRange {
            start: leader_addrs[u.leader_class] % cache_size,
            len: u.footprint.min(cache_size),
        })
        .collect();
    let (colliding_classes, _) = collisions(&final_ranges, cache_size);
    let padding_bytes = layout.padding_overhead(kernel);
    Ok(PlacementReport {
        layout,
        leader_lines,
        colliding_classes,
        total_classes: units.len(),
        padding_bytes,
        conflict_free: fits && colliding_classes == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;
    use loopir::{AccessKind, TraceGen};
    use memsim::{CacheConfig, Simulator, TraceEvent};

    fn miss_rate(kernel: &Kernel, layout: &DataLayout, t: usize, l: usize, s: usize) -> f64 {
        let cfg = CacheConfig::new(t, l, s).unwrap();
        let events = TraceGen::new(kernel, layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        Simulator::simulate(cfg, events).stats.read_miss_rate()
    }

    /// The eager candidate list `optimize_layout` built before its pitch
    /// candidates went lazy: the reference for [`pitch_candidates`].
    fn eager_pitch_candidates(
        array: &ArrayDecl,
        cache_size: u64,
        required_residue: Option<u64>,
    ) -> Vec<u64> {
        let elem = array.elem_size as u64;
        let natural_pitch: u64 = array.dims[1..].iter().map(|&d| d as u64).product::<u64>() * elem;
        let multi_row = array.dims.len() > 1 && array.dims[0] > 1;
        let pitch_candidates: Vec<u64> = if multi_row {
            (0..cache_size.div_ceil(elem))
                .map(|k| natural_pitch + k * elem)
                .filter(|&p| required_residue.is_none_or(|r| p % cache_size == r))
                .collect()
        } else {
            vec![natural_pitch.max(elem)]
        };
        if pitch_candidates.is_empty() {
            (0..cache_size.div_ceil(elem))
                .map(|k| natural_pitch + k * elem)
                .collect()
        } else {
            pitch_candidates
        }
    }

    #[test]
    fn lazy_pitch_candidates_match_the_eager_list() {
        let rows = loopir::ArrayDecl::new("a", &[6, 6], 4);
        let row = loopir::ArrayDecl::new("v", &[6], 4);
        // 28: a residue some pitch meets; 3: none does (falls back).
        for residue in [None, Some(28), Some(3)] {
            for array in [&rows, &row] {
                let lazy: Vec<u64> = pitch_candidates(array, 64, residue).collect();
                assert_eq!(lazy, eager_pitch_candidates(array, 64, residue));
            }
        }
    }

    #[test]
    fn lazy_pitch_candidates_pin_the_expansive_layouts() {
        // The eight example kernels over every (T, L) pair of the
        // expansive grid: T from 16 B to 8 MiB, L from 4 B to 1 KiB, at
        // least four lines.
        let kernels = [
            kernels::compress(31),
            kernels::conv2d(16, 3),
            kernels::dequant(31),
            kernels::matadd(31),
            kernels::matmul(31),
            kernels::pde(31),
            kernels::sor(31),
            kernels::stencil(31),
        ];
        let pairs: Vec<(u64, u64)> = (4..=23)
            .flat_map(|t| (2..=10).map(move |l| (1u64 << t, 1u64 << l)))
            .filter(|&(t, l)| t / l >= 4)
            .collect();
        assert_eq!(pairs.len(), 144);
        // The eager lists cost cache/elem entries each, so the kernels run
        // on their own threads.
        std::thread::scope(|scope| {
            for k in &kernels {
                let pairs = &pairs;
                scope.spawn(move || {
                    for &(t, l) in pairs {
                        let lazy = optimize_layout(k, t, l).unwrap();
                        let eager = optimize_with(k, t, l, eager_pitch_candidates).unwrap();
                        let at = format!("{} at C{t}L{l}", k.name);
                        assert_eq!(lazy.layout, eager.layout, "{at}");
                        assert_eq!(lazy.leader_lines, eager.leader_lines, "{at}");
                        assert_eq!(lazy.colliding_classes, eager.colliding_classes, "{at}");
                        assert_eq!(lazy.total_classes, eager.total_classes, "{at}");
                        assert_eq!(lazy.padding_bytes, eager.padding_bytes, "{at}");
                        assert_eq!(lazy.conflict_free, eager.conflict_free, "{at}");
                    }
                });
            }
        });
    }

    #[test]
    fn matadd_reproduces_example_2_addresses() {
        // Paper §4.1, Example 2: byte elements, line 2, three lines (the
        // stated minimum): a at 0, b moved to 38, c to 76.
        let proto = kernels::matadd(6);
        let arrays = proto
            .arrays
            .iter()
            .map(|a| loopir::ArrayDecl::new(a.name.clone(), &a.dims, 1))
            .collect();
        let k = Kernel::new("matadd-bytes", arrays, proto.nest.clone());
        let r = optimize_layout(&k, 6, 2).unwrap();
        assert!(r.conflict_free, "{r:?}");
        assert_eq!(r.layout.placement(ArrayId(0)).base, 0);
        assert_eq!(r.layout.placement(ArrayId(1)).base, 38);
        assert_eq!(r.layout.placement(ArrayId(2)).base, 76);
        assert_eq!(r.leader_lines, vec![0, 1, 2]);
    }

    #[test]
    fn optimized_compress_eliminates_conflict_misses() {
        let k = kernels::compress(31);
        let r = optimize_layout(&k, 64, 8).unwrap();
        assert!(r.conflict_free, "{r:?}");
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let events = TraceGen::new(&k, &r.layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        let report = Simulator::simulate_classified(cfg, events);
        let classes = report.miss_classes.unwrap();
        assert_eq!(
            classes.conflict, 0,
            "optimized layout must have no conflict misses: {classes:?}"
        );
    }

    #[test]
    fn optimized_beats_natural_for_the_paper_kernels() {
        for k in kernels::all_paper_kernels() {
            let natural = DataLayout::natural(&k);
            let r = optimize_layout(&k, 64, 8).unwrap();
            let mr_nat = miss_rate(&k, &natural, 64, 8, 1);
            let mr_opt = miss_rate(&k, &r.layout, 64, 8, 1);
            assert!(
                mr_opt <= mr_nat + 1e-9,
                "{}: optimized {mr_opt} exceeds natural {mr_nat}",
                k.name
            );
        }
    }

    #[test]
    fn stencil_classes_settle_on_equally_spaced_lines() {
        // SOR's three row classes must be pitched apart; collision scoring
        // should find a conflict-free arrangement in a 64 B / 8 B cache.
        let k = kernels::sor(31);
        let r = optimize_layout(&k, 64, 8).unwrap();
        assert!(r.conflict_free, "{r:?}");
    }

    #[test]
    fn padding_is_bounded() {
        let k = kernels::matadd(6);
        let r = optimize_layout(&k, 32, 4).unwrap();
        // Each array may add at most ~one cache size of padding.
        assert!(r.padding_bytes <= 3 * 32 + 3 * 32);
        assert!(r.layout.check_no_overlap(&k).is_ok());
    }

    #[test]
    fn layouts_never_overlap() {
        for k in kernels::all_paper_kernels() {
            for (t, l) in [(32u64, 4u64), (64, 8), (128, 16), (512, 32)] {
                let r = optimize_layout(&k, t, l).unwrap();
                assert!(
                    r.layout.check_no_overlap(&k).is_ok(),
                    "{} at C{t}L{l}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let k = kernels::matadd(6);
        assert!(matches!(
            optimize_layout(&k, 0, 4),
            Err(PlacementError::BadGeometry { .. })
        ));
        assert!(matches!(
            optimize_layout(&k, 8, 16),
            Err(PlacementError::BadGeometry { .. })
        ));
    }

    #[test]
    fn tiny_cache_reports_not_conflict_free() {
        // Compress needs 4+ lines; a 2-line cache cannot hold the classes.
        let k = kernels::compress(31);
        let r = optimize_layout(&k, 16, 8).unwrap();
        assert!(!r.conflict_free);
    }

    #[test]
    fn line_ranges_overlap_logic() {
        let n = 8;
        let a = ByteRange { start: 0, len: 2 };
        let b = ByteRange { start: 2, len: 2 };
        let c = ByteRange { start: 1, len: 2 };
        let d = ByteRange { start: 7, len: 2 }; // wraps to 0
        assert!(!a.overlaps(&b, n));
        assert!(a.overlaps(&c, n));
        assert!(a.overlaps(&d, n));
        assert!(!b.overlaps(&d, n));
        let full = ByteRange { start: 3, len: 8 };
        assert!(full.overlaps(&a, n));
    }
}
