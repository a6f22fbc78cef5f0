//! Differential property tests: the compiled trace generator
//! (`CompiledTrace`) against the interpreter (`TraceGen`), on random
//! kernels.
//!
//! Every kernel is decoded from a random tape of integers. Two families
//! cover the shapes the generator must handle:
//!
//! * rectangular unit-step nests of depth 0–3, tiled with `tile_all`
//!   (tile loops step by `B`, element loops have affine lower and
//!   `min(…)` upper bounds);
//! * general nests of depth 0–3 with triangular (affine, possibly
//!   negative-coefficient) bounds, `Bound::Min` lower and upper bounds,
//!   steps up to 3 and ranges that are empty at some or all outer points.
//!
//! References mix reads and writes, use coefficients from −2 to 2, and hit
//! one to three arrays of rank 1–3. Arrays are sized from the exact range
//! of every subscript, so most kernels are in bounds — some only because
//! of a triangle, which interval arithmetic cannot prove — and one in four
//! has a dimension shrunk or shifted so that some access falls out of
//! bounds, above or below. Both
//! generators run under the natural layout and a randomly padded one (base
//! offsets and row pitches, the shape the off-chip assignment produces),
//! for the full trace and the read-only trace. Every `MemoryAccess` field
//! must agree; out-of-bounds kernels must panic with the same message
//! after emitting the same accesses, and `check_bounds` must report the
//! same first bad access.

use loopir::layout::Placement;
use loopir::transform::tile_all;
use loopir::{
    check_bounds, AccessKind, AffineExpr, ArrayDecl, ArrayId, ArrayRef, Bound, CompiledTrace,
    DataLayout, Kernel, Loop, LoopNest, MemoryAccess, TraceGen,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic decoder over a random tape of integers.
struct Tape {
    vals: Vec<u32>,
    pos: usize,
}

impl Tape {
    fn new(vals: Vec<u32>) -> Self {
        Tape { vals, pos: 0 }
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let v = self.vals[self.pos % self.vals.len()];
        self.pos += 1;
        lo + (v as i64) % (hi - lo + 1)
    }

    fn below(&mut self, n: usize) -> usize {
        self.range(0, n as i64 - 1) as usize
    }
}

fn tape() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1_000_000, 64)
}

/// An affine expression over loops `0..depth` with small coefficients.
fn affine(t: &mut Tape, depth: usize, k: (i64, i64)) -> AffineExpr {
    let mut e = AffineExpr::constant(t.range(k.0, k.1));
    for d in 0..depth {
        e = e + AffineExpr::linear(d, t.range(-2, 2), 0);
    }
    e
}

fn rectangular_loops(t: &mut Tape) -> Vec<Loop> {
    (0..t.below(4))
        .map(|_| {
            let lo = t.range(-3, 3);
            Loop::new(lo, lo + t.range(0, 6))
        })
        .collect()
}

fn general_loops(t: &mut Tape) -> Vec<Loop> {
    let depth = t.below(4);
    (0..depth)
        .map(|d| {
            let outer = |t: &mut Tape| {
                let e = t.below(d.max(1));
                let c = [-1, 1, 2][t.below(3)];
                AffineExpr::linear(e, c, t.range(-2, 4))
            };
            let lower = match if d == 0 { 0 } else { t.below(3) } {
                0 => Bound::Const(t.range(-3, 3)),
                1 => Bound::Affine(outer(t)),
                _ => Bound::Min(outer(t), t.range(-3, 3)),
            };
            let upper = match if d == 0 { 0 } else { t.below(3) } {
                0 => Bound::Const(t.range(-2, 6)),
                1 => Bound::Affine(outer(t)),
                _ => Bound::Min(outer(t), t.range(-1, 6)),
            };
            Loop {
                lower,
                upper,
                step: t.range(1, 3),
            }
        })
        .collect()
}

/// Every iteration point of `loops`, in execution order.
fn points(loops: &[Loop]) -> Vec<Vec<i64>> {
    fn rec(loops: &[Loop], ivs: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        let Some(l) = loops.get(ivs.len()) else {
            out.push(ivs.clone());
            return;
        };
        let (lo, hi) = (l.lower.eval(ivs), l.upper.eval(ivs));
        let mut v = lo;
        while v <= hi {
            ivs.push(v);
            rec(loops, ivs, out);
            ivs.pop();
            v += l.step;
        }
    }
    let mut out = Vec::new();
    rec(loops, &mut Vec::new(), &mut out);
    out
}

/// Random references over `loops`, with arrays sized to the exact range of
/// their subscripts (subscripts shifted so the least value is 0). One
/// kernel in four has a used dimension shrunk or shifted by one, so some
/// access is out of bounds.
fn kernel_over(t: &mut Tape, loops: Vec<Loop>) -> Kernel {
    let depth = loops.len();
    let ranks: Vec<usize> = (0..1 + t.below(3)).map(|_| 1 + t.below(3)).collect();
    let mut refs: Vec<ArrayRef> = (0..1 + t.below(4))
        .map(|_| {
            let array = t.below(ranks.len());
            let subs = (0..ranks[array])
                .map(|_| affine(t, depth, (-3, 3)))
                .collect();
            if t.below(3) == 0 {
                ArrayRef::write(ArrayId(array), subs)
            } else {
                ArrayRef::read(ArrayId(array), subs)
            }
        })
        .collect();
    let pts = points(&loops);
    let mut dims: Vec<Vec<(i64, i64)>> = ranks.iter().map(|&r| vec![(0, 0); r]).collect();
    let mut seen: Vec<Vec<bool>> = ranks.iter().map(|&r| vec![false; r]).collect();
    for r in &refs {
        for (k, s) in r.subscripts.iter().enumerate() {
            for p in &pts {
                let v = s.eval(p);
                let (lo, hi) = &mut dims[r.array.0][k];
                if seen[r.array.0][k] {
                    *lo = (*lo).min(v);
                    *hi = (*hi).max(v);
                } else {
                    (*lo, *hi) = (v, v);
                    seen[r.array.0][k] = true;
                }
            }
        }
    }
    let mut extents: Vec<Vec<usize>> = dims
        .iter()
        .map(|ds| ds.iter().map(|(lo, hi)| (hi - lo + 1) as usize).collect())
        .collect();
    if t.below(4) == 0 {
        // Out of bounds at one end of a used dimension: shrink its extent
        // (the top value falls out) or shift its subscripts down by one
        // (the least value becomes -1).
        let used: Vec<(usize, usize)> = seen
            .iter()
            .enumerate()
            .flat_map(|(a, ks)| {
                ks.iter()
                    .enumerate()
                    .filter(|(_, &s)| s)
                    .map(move |(k, _)| (a, k))
            })
            .collect();
        if !used.is_empty() {
            let (a, k) = used[t.below(used.len())];
            if extents[a][k] > 1 && t.below(2) == 0 {
                extents[a][k] -= 1;
            } else {
                dims[a][k].0 += 1;
            }
        }
    } else {
        for ext in &mut extents {
            for e in ext.iter_mut() {
                *e += t.below(2);
            }
        }
    }
    for r in &mut refs {
        for (k, s) in r.subscripts.iter_mut().enumerate() {
            *s = s.clone() - dims[r.array.0][k].0;
        }
    }
    let arrays = extents
        .iter()
        .enumerate()
        .map(|(i, ext)| ArrayDecl::new(format!("a{i}"), ext, [1, 2, 4, 8][t.below(4)]))
        .collect();
    Kernel::new("random", arrays, LoopNest { loops, refs })
}

/// A layout with random padding: each array starts up to 40 bytes past
/// the previous one's end, and multi-row arrays stretch their row pitch by
/// up to 3 elements.
fn padded_layout(t: &mut Tape, kernel: &Kernel) -> DataLayout {
    let mut cursor = 0u64;
    let placements = kernel
        .arrays
        .iter()
        .map(|a| {
            let elem = a.elem_size as u64;
            let natural: u64 = a.dims[1..].iter().map(|&d| d as u64).product::<u64>() * elem;
            let base = cursor + t.range(0, 40) as u64;
            let row_pitch = natural + t.range(0, 3) as u64 * elem;
            cursor = base + (a.dims[0] as u64 - 1) * row_pitch.max(natural) + natural.max(elem);
            Placement { base, row_pitch }
        })
        .collect();
    DataLayout::from_placements(kernel, placements)
}

/// Runs `emit` to completion or panic: the accesses it produced and the
/// panic message, if any.
fn run(emit: impl FnOnce(&mut Vec<MemoryAccess>)) -> (Vec<MemoryAccess>, Option<String>) {
    let mut out = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| emit(&mut out)));
    let message = result
        .err()
        .map(|payload| match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| "<non-string panic>".to_string(), |s| s.to_string()),
        });
    (out, message)
}

/// Compiled ≡ interpreted for `kernel` under `layout`, full and read-only.
fn assert_equivalent(kernel: &Kernel, layout: &DataLayout) -> Result<(), TestCaseError> {
    for reads_only in [false, true] {
        let want = run(|out| {
            for a in TraceGen::new(kernel, layout) {
                if !reads_only || a.kind == AccessKind::Read {
                    out.push(a);
                }
            }
        });
        let compiled = CompiledTrace::new(kernel, layout, reads_only);
        let got = run(|out| compiled.for_each(|a| out.push(a)));
        prop_assert_eq!(&got, &want, "kernel {} reads_only {}", kernel, reads_only);
        match &want.1 {
            None => {
                prop_assert_eq!(compiled.event_count(), want.0.len() as u64);
                prop_assert!(check_bounds(kernel).is_ok());
            }
            Some(msg) => {
                let err = check_bounds(kernel).expect_err("interpreter panicked");
                prop_assert_eq!(&err.to_string(), msg);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn compiled_matches_interpreter_on_tiled_nests(vals in tape()) {
        let mut t = Tape::new(vals);
        let loops = rectangular_loops(&mut t);
        let kernel = kernel_over(&mut t, loops);
        let tiled = tile_all(&kernel, t.range(1, 3) as u64);
        let padded = padded_layout(&mut t, &tiled);
        assert_equivalent(&tiled, &DataLayout::natural(&tiled))?;
        assert_equivalent(&tiled, &padded)?;
    }

    #[test]
    fn compiled_matches_interpreter_on_general_nests(vals in tape()) {
        let mut t = Tape::new(vals);
        let loops = general_loops(&mut t);
        let kernel = kernel_over(&mut t, loops);
        let padded = padded_layout(&mut t, &kernel);
        assert_equivalent(&kernel, &DataLayout::natural(&kernel))?;
        assert_equivalent(&kernel, &padded)?;
    }
}
