//! Compiled address traces.
//!
//! The paper's references are uniformly generated (`H·i + c`): every
//! subscript is affine in the loop indices, and once a [`DataLayout`] fixes
//! base addresses and row pitches, so is every byte address. A
//! [`CompiledTrace`] lowers each [`ArrayRef`](crate::ArrayRef) to a constant
//! byte address plus one signed byte stride per loop level, walks the outer
//! loops like an odometer (evaluating their [`Bound`](crate::Bound)s there),
//! and emits each innermost run by adding the innermost stride — no
//! per-event subscript evaluation and no allocation.
//!
//! Bounds stay exact. Each subscript is linear in the innermost index, so
//! over one run it is monotone: if its first and last value lie inside the
//! declared extent, so do all values between. A run that fails the endpoint
//! test is replayed point by point with the interpreter's check, so an
//! out-of-bounds kernel panics at the same access, with the same message,
//! as [`TraceGen`](crate::TraceGen) — which stays as the reference oracle.

use crate::expr::AffineExpr;
use crate::layout::DataLayout;
use crate::nest::{AccessKind, ArrayId, Bound, Kernel};
use crate::trace::MemoryAccess;
use std::error::Error;
use std::fmt;

/// A subscript that leaves its array's declared extent at some iteration
/// point (the first such access in execution order).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutOfBounds {
    /// Index of the offending reference in the loop body (program order).
    pub reference: usize,
    /// The referenced array.
    pub array: ArrayId,
    /// The array's name.
    pub name: String,
    /// Which subscript (dimension, 0 = outermost) is out of range.
    pub dim: usize,
    /// The subscript's value at that point.
    pub value: i64,
    /// The dimension's declared extent.
    pub extent: usize,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subscript {} of `{}` out of bounds: {} not in 0..{}",
            self.dim, self.name, self.value, self.extent
        )
    }
}

impl Error for OutOfBounds {}

/// Metadata of one emitted reference.
#[derive(Clone, Copy, Debug)]
struct Emit {
    size: u32,
    kind: AccessKind,
    array: ArrayId,
}

/// One reference of the body: its emitted slot (if kept) and the lanes
/// holding its subscripts.
#[derive(Clone, Debug)]
struct RefPlan {
    emit: Option<usize>,
    first_sub: usize,
    subs: usize,
}

/// The address trace of a kernel under a layout, lowered to affine lanes.
///
/// Lane `e < emitted` is the byte address of the `e`-th emitted reference;
/// the remaining lanes are every reference's subscripts (all references,
/// emitted or not, so a read-only trace still checks its writes' bounds).
/// Each lane is `constant + Σ coeff[d]·i_d`.
///
/// # Example
///
/// ```
/// use loopir::{kernels, CompiledTrace, DataLayout, TraceGen};
///
/// let k = kernels::compress(31);
/// let layout = DataLayout::natural(&k);
/// let compiled = CompiledTrace::new(&k, &layout, false).collect();
/// let interpreted: Vec<_> = TraceGen::new(&k, &layout).collect();
/// assert_eq!(compiled, interpreted);
/// ```
pub struct CompiledTrace<'a> {
    kernel: &'a Kernel,
    lanes: usize,
    constants: Vec<i64>,
    /// `coeffs[d * lanes + l]`: coefficient of loop `d` in lane `l`.
    coeffs: Vec<i64>,
    emit: Vec<Emit>,
    refs: Vec<RefPlan>,
    /// Declared extent of each subscript lane, indexed from `emit.len()`.
    extents: Vec<i64>,
    /// Whether interval arithmetic proved every subscript in range over
    /// the whole iteration space, so no run needs checking.
    proven: bool,
}

impl<'a> CompiledTrace<'a> {
    /// Lowers `kernel` under `layout`, keeping only reads if `reads_only`.
    ///
    /// # Panics
    ///
    /// Panics if `layout` has fewer placements than the kernel has arrays.
    pub fn new(kernel: &'a Kernel, layout: &DataLayout, reads_only: bool) -> Self {
        Self::lower(kernel, Some(layout), |kind| {
            !reads_only || kind == AccessKind::Read
        })
    }

    /// Lowers the subscripts of every reference; addresses only for the
    /// references `keep` selects (none without a layout).
    fn lower(
        kernel: &'a Kernel,
        layout: Option<&DataLayout>,
        keep: impl Fn(AccessKind) -> bool,
    ) -> Self {
        let depth = kernel.nest.depth();
        let body = &kernel.nest.refs;
        let kept: Vec<usize> = match layout {
            Some(_) => (0..body.len()).filter(|&r| keep(body[r].kind)).collect(),
            None => Vec::new(),
        };
        let subs: usize = body.iter().map(|r| r.subscripts.len()).sum();
        let lanes = kept.len() + subs;
        let mut constants = vec![0i64; lanes];
        let mut coeffs = vec![0i64; depth * lanes];

        let mut emit = Vec::with_capacity(kept.len());
        if let Some(layout) = layout {
            for (lane, &r) in kept.iter().enumerate() {
                let r = &body[r];
                let a = kernel.array(r.array);
                let elem = a.elem_size as i64;
                let p = layout.placement(r.array);
                // Byte weight of each subscript: the row pitch for the
                // first of a multi-row array, row-major element weights
                // times the element size for the rest.
                let weights: Vec<i64> = if a.dims.len() == 1 {
                    vec![elem]
                } else {
                    let w = a.weights();
                    std::iter::once(p.row_pitch as i64)
                        .chain(w[1..].iter().map(|&w| w as i64 * elem))
                        .collect()
                };
                let mut constant = p.base as i64;
                for (s, &w) in r.subscripts.iter().zip(&weights) {
                    constant += s.constant_term() * w;
                    for d in 0..depth {
                        coeffs[d * lanes + lane] += s.coeff(d) * w;
                    }
                }
                constants[lane] = constant;
                emit.push(Emit {
                    size: a.elem_size as u32,
                    kind: r.kind,
                    array: r.array,
                });
            }
        }

        let mut refs = Vec::with_capacity(body.len());
        let mut extents = Vec::with_capacity(subs);
        let mut lane = kept.len();
        for (i, r) in body.iter().enumerate() {
            let a = kernel.array(r.array);
            refs.push(RefPlan {
                emit: kept.iter().position(|&k| k == i),
                first_sub: lane,
                subs: r.subscripts.len(),
            });
            for (s, &d) in r.subscripts.iter().zip(&a.dims) {
                constants[lane] = s.constant_term();
                for l in 0..depth {
                    coeffs[l * lanes + lane] = s.coeff(l);
                }
                extents.push(d as i64);
                lane += 1;
            }
        }

        let first = emit.len();
        let proven = match loop_ranges(kernel) {
            None => true,
            Some(ranges) => (first..lanes).all(|l| {
                let (lo, hi) = affine_range(constants[l], |d| coeffs[d * lanes + l], &ranges);
                lo >= 0 && hi < extents[l - first] as i128
            }),
        };

        CompiledTrace {
            kernel,
            lanes,
            constants,
            coeffs,
            emit,
            refs,
            extents,
            proven,
        }
    }

    /// Number of accesses the trace emits, counted run by run (no events
    /// are generated) — the exact capacity of a materialized trace.
    pub fn event_count(&self) -> u64 {
        let mut points = 0u64;
        self.walk(0, |_, _, n| points += n as u64);
        points * self.emit.len() as u64
    }

    /// Calls `f` with every access of the trace, in execution order.
    ///
    /// # Panics
    ///
    /// Panics, like [`TraceGen`](crate::TraceGen) and at the same access,
    /// if a subscript leaves its array's declared extent.
    pub fn for_each(&self, mut f: impl FnMut(MemoryAccess)) {
        let kept = self.emit.len();
        let mut addrs = vec![0i64; kept];
        let lanes = if self.proven { kept } else { self.lanes };
        self.walk(lanes, |start, inc, n| {
            let bad = if self.proven {
                None
            } else {
                self.check_run(start, inc, n)
            };
            if let Some(oob) = bad {
                self.emit_until(start, inc, &oob, &mut f);
                panic!("{}", oob.1);
            }
            addrs.copy_from_slice(&start[..kept]);
            for _ in 0..n {
                for ((addr, e), &step) in addrs.iter_mut().zip(&self.emit).zip(&inc[..kept]) {
                    f(MemoryAccess {
                        addr: *addr as u64,
                        size: e.size,
                        kind: e.kind,
                        array: e.array,
                    });
                    *addr += step;
                }
            }
        });
    }

    /// The whole trace as a vector sized exactly to its length.
    pub fn collect(&self) -> Vec<MemoryAccess> {
        let mut out = Vec::with_capacity(self.event_count() as usize);
        self.for_each(|a| out.push(a));
        out
    }

    /// Checks one run's endpoints. Subscripts are linear in the run's
    /// iteration, so in-range endpoints prove the whole run in range; on a
    /// failure, returns the first out-of-range access in execution order
    /// as `(iteration within the run, error)`.
    fn check_run(&self, start: &[i64], inc: &[i64], n: i64) -> Option<(i64, OutOfBounds)> {
        let first = self.emit.len();
        let ok = (first..self.lanes).all(|l| {
            let (a, b) = (start[l], start[l] + inc[l] * (n - 1));
            let extent = self.extents[l - first];
            a.min(b) >= 0 && a.max(b) < extent
        });
        if ok {
            return None;
        }
        for t in 0..n {
            for (reference, r) in self.refs.iter().enumerate() {
                for dim in 0..r.subs {
                    let l = r.first_sub + dim;
                    let value = start[l] + inc[l] * t;
                    let extent = self.extents[l - first];
                    if !(0..extent).contains(&value) {
                        let array = self.kernel.nest.refs[reference].array;
                        return Some((
                            t,
                            OutOfBounds {
                                reference,
                                array,
                                name: self.kernel.array(array).name.clone(),
                                dim,
                                value,
                                extent: extent as usize,
                            },
                        ));
                    }
                }
            }
        }
        unreachable!("an endpoint was out of range, so some point is")
    }

    /// Emits the accesses of a failing run that precede its first
    /// out-of-range access, as the interpreter would before panicking.
    fn emit_until(
        &self,
        start: &[i64],
        inc: &[i64],
        (t_bad, oob): &(i64, OutOfBounds),
        f: &mut impl FnMut(MemoryAccess),
    ) {
        for t in 0..=*t_bad {
            for (reference, r) in self.refs.iter().enumerate() {
                if t == *t_bad && reference == oob.reference {
                    return;
                }
                if let Some(e) = r.emit {
                    let m = self.emit[e];
                    f(MemoryAccess {
                        addr: (start[e] + inc[e] * t) as u64,
                        size: m.size,
                        kind: m.kind,
                        array: m.array,
                    });
                }
            }
        }
    }

    /// Walks the iteration space run by run, tracking the first `lanes`
    /// lanes: `on_run(start, inc, n)` gets their values at the run's first
    /// point, their per-iteration increments, and the run's trip count
    /// `n ≥ 1`. A depth-0 nest is one run of one point; a body without
    /// references emits nothing.
    fn walk(&self, lanes: usize, mut on_run: impl FnMut(&[i64], &[i64], i64)) {
        if self.kernel.nest.refs.is_empty() {
            return;
        }
        let loops = &self.kernel.nest.loops;
        let Some(inner) = loops.len().checked_sub(1) else {
            on_run(&self.constants[..lanes], &vec![0; lanes], 1);
            return;
        };
        let last = &loops[inner];
        let inner_coeffs = self.level_coeffs(inner, lanes);
        let inc: Vec<i64> = inner_coeffs.iter().map(|c| c * last.step).collect();
        // rows[d]: lane values with the contributions of loops < d at the
        // current point; ivs and his: the outer loops' indices and upper
        // bounds.
        let mut rows = vec![0i64; (inner + 1) * lanes];
        rows[..lanes].copy_from_slice(&self.constants[..lanes]);
        let mut start = vec![0i64; lanes];
        let mut ivs = vec![0i64; inner];
        let mut his = vec![0i64; inner];
        let mut level = 0;
        loop {
            // Descend from `level` to the innermost loop, or stop at an
            // empty level.
            while level < inner {
                let l = &loops[level];
                let lo = l.lower.eval(&ivs[..level]);
                let hi = l.upper.eval(&ivs[..level]);
                if lo > hi {
                    break;
                }
                ivs[level] = lo;
                his[level] = hi;
                self.set_row(&mut rows, level, lanes, lo);
                level += 1;
            }
            if level == inner {
                let lo = last.lower.eval(&ivs);
                let hi = last.upper.eval(&ivs);
                if lo <= hi {
                    let row = &rows[inner * lanes..];
                    for ((s, &r), &c) in start.iter_mut().zip(row).zip(inner_coeffs) {
                        *s = r + c * lo;
                    }
                    let n = if last.step == 1 {
                        hi - lo + 1
                    } else {
                        (hi - lo) / last.step + 1
                    };
                    on_run(&start, &inc, n);
                }
            }
            // Advance the deepest outer loop with iterations left.
            loop {
                if level == 0 {
                    return;
                }
                level -= 1;
                let v = ivs[level] + loops[level].step;
                if v <= his[level] {
                    ivs[level] = v;
                    self.set_row(&mut rows, level, lanes, v);
                    level += 1;
                    break;
                }
            }
        }
    }

    /// Loop `level`'s coefficients in the first `lanes` lanes.
    fn level_coeffs(&self, level: usize, lanes: usize) -> &[i64] {
        &self.coeffs[level * self.lanes..level * self.lanes + lanes]
    }

    /// Sets `rows[level + 1]` for loop `level` at index `v`.
    fn set_row(&self, rows: &mut [i64], level: usize, lanes: usize, v: i64) {
        let (outer, next) = rows.split_at_mut((level + 1) * lanes);
        let row = &outer[level * lanes..];
        for ((n, &r), &c) in next[..lanes]
            .iter_mut()
            .zip(row)
            .zip(self.level_coeffs(level, lanes))
        {
            *n = r + c * v;
        }
    }
}

/// Checks every subscript of `kernel` against its array's declared extent
/// over the whole iteration space, one endpoint test per innermost run.
///
/// # Errors
///
/// The first out-of-range access in execution order.
pub fn check_bounds(kernel: &Kernel) -> Result<(), OutOfBounds> {
    let plan = CompiledTrace::lower(kernel, None, |_| false);
    if plan.proven {
        return Ok(());
    }
    let mut first = None;
    plan.walk(plan.lanes, |start, inc, n| {
        if first.is_none() {
            first = plan.check_run(start, inc, n);
        }
    });
    first.map_or(Ok(()), |(_, oob)| Err(oob))
}

/// A range `[lo, hi]` holding every value each loop index takes, by
/// interval arithmetic over the bounds (outer ranges feed inner bounds);
/// `None` if some level is empty at every outer point, so the nest has no
/// iteration points at all.
fn loop_ranges(kernel: &Kernel) -> Option<Vec<(i128, i128)>> {
    let affine = |e: &AffineExpr, ranges: &[(i128, i128)]| {
        affine_range(e.constant_term(), |d| e.coeff(d), ranges)
    };
    let bound = |b: &Bound, ranges: &[(i128, i128)]| match b {
        Bound::Const(k) => (*k as i128, *k as i128),
        Bound::Affine(e) => affine(e, ranges),
        Bound::Min(e, cap) => {
            let (lo, hi) = affine(e, ranges);
            (lo.min(*cap as i128), hi.min(*cap as i128))
        }
    };
    let mut ranges = Vec::with_capacity(kernel.nest.depth());
    for l in &kernel.nest.loops {
        let lo = bound(&l.lower, &ranges).0;
        let hi = bound(&l.upper, &ranges).1;
        if lo > hi {
            return None;
        }
        ranges.push((lo, hi));
    }
    Some(ranges)
}

/// The range of `constant + Σ coeff(d)·i_d` when each `i_d` lies in
/// `ranges[d]`.
fn affine_range(
    constant: i64,
    coeff: impl Fn(usize) -> i64,
    ranges: &[(i128, i128)],
) -> (i128, i128) {
    ranges.iter().enumerate().fold(
        (constant as i128, constant as i128),
        |(lo, hi), (d, &(a, b))| {
            let c = coeff(d) as i128;
            (lo + (c * a).min(c * b), hi + (c * a).max(c * b))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{ArrayDecl, ArrayRef, Loop, LoopNest};
    use crate::trace::TraceGen;
    use crate::{kernels, transform::tile_all};

    fn oob_kernel() -> Kernel {
        // a[i+1] for i in 0..=7 over a[8]: the last point reads a[8].
        let a = ArrayDecl::new("a", &[8], 4);
        let nest = LoopNest {
            loops: vec![Loop::new(0, 1), Loop::new(0, 7)],
            refs: vec![
                ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)]),
                ArrayRef::write(ArrayId(0), vec![AffineExpr::var(1) + 1]),
            ],
        };
        Kernel::new("oob", vec![a], nest)
    }

    #[test]
    fn matches_the_interpreter_on_tiled_paper_kernels() {
        for k in kernels::all_paper_kernels() {
            for b in [1, 2, 5, 8] {
                let t = tile_all(&k, b);
                let l = DataLayout::natural(&t);
                for reads_only in [false, true] {
                    let c = CompiledTrace::new(&t, &l, reads_only);
                    let want = TraceGen::collect_trace(&t, &l, reads_only);
                    assert_eq!(c.event_count(), want.len() as u64);
                    assert_eq!(c.collect(), want, "{} B{b}", k.name);
                }
            }
        }
    }

    #[test]
    fn depth_zero_nest_is_one_point() {
        let a = ArrayDecl::new("a", &[4], 2);
        let nest = LoopNest {
            loops: vec![],
            refs: vec![
                ArrayRef::read(ArrayId(0), vec![AffineExpr::constant(3)]),
                ArrayRef::write(ArrayId(0), vec![AffineExpr::constant(1)]),
            ],
        };
        let k = Kernel::new("point", vec![a], nest);
        let l = DataLayout::natural(&k);
        let want: Vec<_> = TraceGen::new(&k, &l).collect();
        assert_eq!(CompiledTrace::new(&k, &l, false).collect(), want);
        assert_eq!(want.len(), 2);
    }

    #[test]
    fn empty_inner_ranges_emit_nothing() {
        let a = ArrayDecl::new("a", &[3], 1);
        let nest = LoopNest {
            loops: vec![
                Loop::new(0, 2),
                Loop {
                    lower: Bound::Affine(AffineExpr::var(0)),
                    upper: Bound::Const(1),
                    step: 1,
                },
            ],
            refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)])],
        };
        let k = Kernel::new("shrink", vec![a], nest);
        let l = DataLayout::natural(&k);
        let addrs: Vec<u64> = CompiledTrace::new(&k, &l, true)
            .collect()
            .iter()
            .map(|a| a.addr)
            .collect();
        assert_eq!(addrs, vec![0, 1, 1]);
    }

    #[test]
    fn check_bounds_names_the_first_bad_access() {
        let err = check_bounds(&oob_kernel()).unwrap_err();
        assert_eq!(
            (err.reference, err.dim, err.value, err.extent),
            (1, 0, 8, 8)
        );
        assert_eq!(
            err.to_string(),
            "subscript 0 of `a` out of bounds: 8 not in 0..8"
        );
        assert!(check_bounds(&kernels::matmul(8)).is_ok());
    }

    #[test]
    fn read_only_trace_still_panics_on_a_bad_write() {
        let k = oob_kernel();
        let l = DataLayout::natural(&k);
        let seen = std::cell::Cell::new(0usize);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CompiledTrace::new(&k, &l, true).for_each(|_| seen.set(seen.get() + 1));
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "subscript 0 of `a` out of bounds: 8 not in 0..8");
        // The interpreter emits the 8 reads of i0 = 0 before the bad write.
        assert_eq!(seen.get(), 8);
    }
}
