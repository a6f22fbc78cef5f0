//! A small text format for describing kernels.
//!
//! Lets users feed their own loop nests to the exploration flow without
//! writing Rust. The format mirrors the paper's pseudo-code:
//!
//! ```text
//! kernel Compress
//! array a[32][32] elem 4
//! for i = 1 .. 31
//! for j = 1 .. 31
//!   read  a[i][j]
//!   read  a[i-1][j]
//!   read  a[i][j-1]
//!   read  a[i-1][j-1]
//!   write a[i][j]
//! ```
//!
//! Rules:
//!
//! * one declaration per line; `#` starts a comment; blank lines ignored;
//! * `array NAME[d1][d2]… elem BYTES` declares an array (rank ≥ 1);
//! * `for VAR = LO .. HI [step S]` opens the next loop level (loops are
//!   perfectly nested in order of appearance); bounds are integers, or
//!   `VAR±K` referencing an *outer* loop variable, or `min(VAR±K, N)`;
//! * `read NAME[expr]…` / `write NAME[expr]…` adds a body reference, where
//!   each subscript is an affine expression over the loop variables:
//!   `i`, `i+1`, `2*i-3`, `i+j`, `4`.
//!
//! # Example
//!
//! ```
//! use loopir::parse::parse_kernel;
//!
//! let text = "\
//! kernel MatAdd
//! array a[6][6] elem 4
//! array b[6][6] elem 4
//! array c[6][6] elem 4
//! for i = 0 .. 5
//! for j = 0 .. 5
//!   read a[i][j]
//!   read b[i][j]
//!   write c[i][j]
//! ";
//! let kernel = parse_kernel(text)?;
//! assert_eq!(kernel.name, "MatAdd");
//! assert_eq!(kernel.nest.refs.len(), 3);
//! # Ok::<(), loopir::parse::ParseKernelError>(())
//! ```

use crate::compiled::{check_bounds, OutOfBounds};
use crate::expr::AffineExpr;
use crate::nest::{ArrayDecl, ArrayId, ArrayRef, Bound, Kernel, Loop, LoopNest};
use std::error::Error;
use std::fmt;

/// Error from [`parse_kernel`], carrying the 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseKernelError {
    /// 1-based line of the offending input (0 for whole-file errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// What kind of problem it is.
    pub kind: ParseErrorKind,
}

/// The kind of a [`ParseKernelError`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseErrorKind {
    /// Malformed or inconsistent text.
    Syntax,
    /// Well-formed text whose reference indexes outside its array at some
    /// iteration point (the first such access in execution order).
    OutOfBounds(OutOfBounds),
}

impl ParseKernelError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseKernelError {
            line,
            message: message.into(),
            kind: ParseErrorKind::Syntax,
        }
    }
}

impl fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseKernelError {}

/// Parses a kernel description.
///
/// # Errors
///
/// Returns a [`ParseKernelError`] with the offending line for any syntax or
/// semantic problem (unknown array, undeclared loop variable, reference
/// before any loop, subscript arity mismatch, and so on). A kernel whose
/// subscript leaves its array's extent at some iteration point is rejected
/// with [`ParseErrorKind::OutOfBounds`], at the reference's line; the check
/// costs at most one endpoint test per innermost run (see [`check_bounds`]).
pub fn parse_kernel(text: &str) -> Result<Kernel, ParseKernelError> {
    let mut name: Option<String> = None;
    let mut arrays: Vec<ArrayDecl> = Vec::new();
    let mut loops: Vec<Loop> = Vec::new();
    let mut loop_vars: Vec<String> = Vec::new();
    let mut refs: Vec<ArrayRef> = Vec::new();
    let mut ref_lines: Vec<usize> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match keyword {
            "kernel" => {
                if name.is_some() {
                    return Err(ParseKernelError::new(line_no, "duplicate `kernel` line"));
                }
                if rest.is_empty() {
                    return Err(ParseKernelError::new(line_no, "missing kernel name"));
                }
                name = Some(rest.to_string());
            }
            "array" => {
                if !loops.is_empty() {
                    return Err(ParseKernelError::new(
                        line_no,
                        "arrays must be declared before loops",
                    ));
                }
                arrays.push(parse_array(line_no, rest)?);
            }
            "for" => {
                if !refs.is_empty() {
                    return Err(ParseKernelError::new(
                        line_no,
                        "loops must precede body references (perfect nest)",
                    ));
                }
                let (var, l) = parse_for(line_no, rest, &loop_vars)?;
                if loop_vars.contains(&var) {
                    return Err(ParseKernelError::new(
                        line_no,
                        format!("loop variable `{var}` reused"),
                    ));
                }
                loop_vars.push(var);
                loops.push(l);
            }
            "read" | "write" => {
                if loops.is_empty() {
                    return Err(ParseKernelError::new(
                        line_no,
                        "body reference before any loop",
                    ));
                }
                refs.push(parse_ref(
                    line_no,
                    keyword == "write",
                    rest,
                    &arrays,
                    &loop_vars,
                )?);
                ref_lines.push(line_no);
            }
            other => {
                return Err(ParseKernelError::new(
                    line_no,
                    format!("unknown keyword `{other}` (expected kernel/array/for/read/write)"),
                ));
            }
        }
    }

    let name = name.ok_or_else(|| ParseKernelError::new(0, "missing `kernel NAME` line"))?;
    if refs.is_empty() {
        return Err(ParseKernelError::new(0, "kernel has no body references"));
    }
    // Kernel::new re-validates arities and depths; surface its panics as
    // parse errors by checking here first.
    let depth = loops.len();
    for r in &refs {
        let a = arrays
            .get(r.array.0)
            .expect("array ids created from the declared list");
        if r.subscripts.len() != a.dims.len() {
            return Err(ParseKernelError::new(
                0,
                format!(
                    "reference to `{}` has {} subscripts, array rank is {}",
                    a.name,
                    r.subscripts.len(),
                    a.dims.len()
                ),
            ));
        }
        for s in &r.subscripts {
            if let Some(d) = s.max_depth() {
                if d >= depth {
                    return Err(ParseKernelError::new(0, "subscript deeper than nest"));
                }
            }
        }
    }
    let kernel = Kernel::new(name, arrays, LoopNest { loops, refs });
    check_bounds(&kernel).map_err(|oob| ParseKernelError {
        line: ref_lines[oob.reference],
        message: oob.to_string(),
        kind: ParseErrorKind::OutOfBounds(oob),
    })?;
    Ok(kernel)
}

/// `NAME[d1][d2]… elem BYTES`
fn parse_array(line: usize, rest: &str) -> Result<ArrayDecl, ParseKernelError> {
    let (decl, elem) = rest
        .split_once("elem")
        .ok_or_else(|| ParseKernelError::new(line, "array declaration needs `elem BYTES`"))?;
    let elem_size: usize = elem
        .trim()
        .parse()
        .map_err(|_| ParseKernelError::new(line, format!("bad element size `{}`", elem.trim())))?;
    let decl = decl.trim();
    let bracket = decl
        .find('[')
        .ok_or_else(|| ParseKernelError::new(line, "array needs at least one dimension"))?;
    let name = decl[..bracket].trim();
    if name.is_empty() {
        return Err(ParseKernelError::new(line, "missing array name"));
    }
    let mut dims = Vec::new();
    let mut remaining = &decl[bracket..];
    while let Some(stripped) = remaining.strip_prefix('[') {
        let close = stripped
            .find(']')
            .ok_or_else(|| ParseKernelError::new(line, "unclosed `[` in array dimensions"))?;
        let dim: usize = stripped[..close].trim().parse().map_err(|_| {
            ParseKernelError::new(line, format!("bad dimension `{}`", &stripped[..close]))
        })?;
        if dim == 0 {
            return Err(ParseKernelError::new(line, "zero array dimension"));
        }
        dims.push(dim);
        remaining = stripped[close + 1..].trim_start();
    }
    if !remaining.is_empty() {
        return Err(ParseKernelError::new(
            line,
            format!("trailing junk after dimensions: `{remaining}`"),
        ));
    }
    if elem_size == 0 {
        return Err(ParseKernelError::new(line, "zero element size"));
    }
    Ok(ArrayDecl::new(name, &dims, elem_size))
}

/// `VAR = LO .. HI [step S]`
fn parse_for(
    line: usize,
    rest: &str,
    outer_vars: &[String],
) -> Result<(String, Loop), ParseKernelError> {
    let (var, bounds) = rest
        .split_once('=')
        .ok_or_else(|| ParseKernelError::new(line, "for-loop needs `VAR = LO .. HI`"))?;
    let var = var.trim().to_string();
    if var.is_empty() || !var.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(ParseKernelError::new(
            line,
            format!("bad loop variable `{var}`"),
        ));
    }
    let (range, step) = match bounds.split_once("step") {
        Some((r, s)) => {
            let step: i64 = s
                .trim()
                .parse()
                .map_err(|_| ParseKernelError::new(line, format!("bad step `{}`", s.trim())))?;
            if step <= 0 {
                return Err(ParseKernelError::new(line, "step must be positive"));
            }
            (r, step)
        }
        None => (bounds, 1),
    };
    let (lo, hi) = range
        .split_once("..")
        .ok_or_else(|| ParseKernelError::new(line, "range needs `LO .. HI`"))?;
    let lower = parse_bound(line, lo.trim(), outer_vars)?;
    let upper = parse_bound(line, hi.trim(), outer_vars)?;
    if let (Some(l), Some(h)) = (lower.as_const(), upper.as_const()) {
        if l > h {
            return Err(ParseKernelError::new(
                line,
                format!("empty range {l} .. {h}"),
            ));
        }
    }
    Ok((var, Loop { lower, upper, step }))
}

/// An integer, `VAR±K`, or `min(VAR±K, N)`.
fn parse_bound(line: usize, text: &str, vars: &[String]) -> Result<Bound, ParseKernelError> {
    if let Some(inner) = text.strip_prefix("min(").and_then(|t| t.strip_suffix(')')) {
        let (e, cap) = inner
            .split_once(',')
            .ok_or_else(|| ParseKernelError::new(line, "min() bound needs `min(EXPR, N)`"))?;
        let expr = parse_affine(line, e.trim(), vars)?;
        let cap: i64 = cap
            .trim()
            .parse()
            .map_err(|_| ParseKernelError::new(line, format!("bad min() cap `{}`", cap.trim())))?;
        return Ok(Bound::Min(expr, cap));
    }
    let expr = parse_affine(line, text, vars)?;
    Ok(if expr.is_constant() {
        Bound::Const(expr.constant_term())
    } else {
        Bound::Affine(expr)
    })
}

/// `read|write NAME[expr][expr]…`
fn parse_ref(
    line: usize,
    is_write: bool,
    rest: &str,
    arrays: &[ArrayDecl],
    vars: &[String],
) -> Result<ArrayRef, ParseKernelError> {
    let bracket = rest
        .find('[')
        .ok_or_else(|| ParseKernelError::new(line, "reference needs subscripts"))?;
    let name = rest[..bracket].trim();
    let array_idx = arrays
        .iter()
        .position(|a| a.name == name)
        .ok_or_else(|| ParseKernelError::new(line, format!("unknown array `{name}`")))?;
    let mut subscripts = Vec::new();
    let mut remaining = &rest[bracket..];
    while let Some(stripped) = remaining.strip_prefix('[') {
        let close = stripped
            .find(']')
            .ok_or_else(|| ParseKernelError::new(line, "unclosed `[` in subscript"))?;
        subscripts.push(parse_affine(line, stripped[..close].trim(), vars)?);
        remaining = stripped[close + 1..].trim_start();
    }
    if !remaining.is_empty() {
        return Err(ParseKernelError::new(
            line,
            format!("trailing junk after subscripts: `{remaining}`"),
        ));
    }
    let array = ArrayId(array_idx);
    Ok(if is_write {
        ArrayRef::write(array, subscripts)
    } else {
        ArrayRef::read(array, subscripts)
    })
}

/// Affine expressions: `±` separated terms of `K`, `VAR`, or `K*VAR`.
fn parse_affine(line: usize, text: &str, vars: &[String]) -> Result<AffineExpr, ParseKernelError> {
    if text.is_empty() {
        return Err(ParseKernelError::new(line, "empty expression"));
    }
    let mut expr = AffineExpr::constant(0);
    // Split into signed terms.
    let mut terms: Vec<(i64, String)> = Vec::new();
    let mut sign = 1i64;
    let mut current = String::new();
    for ch in text.chars() {
        match ch {
            '+' | '-' => {
                if current.trim().is_empty() && terms.is_empty() && ch == '-' {
                    // Leading minus.
                    sign = -1;
                } else if current.trim().is_empty() {
                    return Err(ParseKernelError::new(
                        line,
                        format!("dangling operator in `{text}`"),
                    ));
                } else {
                    terms.push((sign, current.trim().to_string()));
                    current.clear();
                    sign = if ch == '-' { -1 } else { 1 };
                }
            }
            _ => current.push(ch),
        }
    }
    if current.trim().is_empty() {
        return Err(ParseKernelError::new(
            line,
            format!("dangling operator in `{text}`"),
        ));
    }
    terms.push((sign, current.trim().to_string()));

    for (sign, term) in terms {
        let (coeff, symbol) = match term.split_once('*') {
            Some((k, v)) => {
                let k: i64 = k.trim().parse().map_err(|_| {
                    ParseKernelError::new(line, format!("bad coefficient `{}`", k.trim()))
                })?;
                (k, v.trim().to_string())
            }
            None => (1, term.clone()),
        };
        if let Ok(k) = symbol.parse::<i64>() {
            expr = expr + sign * coeff * k;
        } else {
            let depth = vars.iter().position(|v| *v == symbol).ok_or_else(|| {
                ParseKernelError::new(line, format!("unknown variable `{symbol}`"))
            })?;
            expr = expr + AffineExpr::linear(depth, sign * coeff, 0);
        }
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use crate::trace::TraceGen;

    const COMPRESS: &str = "\
kernel Compress
array a[32][32] elem 4
for i = 1 .. 31
for j = 1 .. 31
  read  a[i][j]
  read  a[i-1][j]
  read  a[i][j-1]
  read  a[i-1][j-1]
  write a[i][j]
";

    #[test]
    fn parses_the_compress_example_identically_to_the_builtin() {
        let parsed = parse_kernel(COMPRESS).expect("valid input");
        let builtin = crate::kernels::compress(31);
        assert_eq!(parsed.arrays, builtin.arrays);
        assert_eq!(parsed.nest, builtin.nest);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header comment\n\nkernel K\narray v[8] elem 4 # trailing\nfor i = 0 .. 7\nread v[i]\n";
        let k = parse_kernel(text).expect("valid input");
        assert_eq!(k.name, "K");
        assert_eq!(k.nest.refs.len(), 1);
    }

    #[test]
    fn parses_coefficients_and_multi_var_expressions() {
        let text = "\
kernel Diag
array m[16][16] elem 4
for i = 0 .. 3
for j = 0 .. 3
  read m[2*i+j][i+2]
";
        let k = parse_kernel(text).expect("valid input");
        let s = &k.nest.refs[0].subscripts;
        assert_eq!(s[0].coeff(0), 2);
        assert_eq!(s[0].coeff(1), 1);
        assert_eq!(s[1].constant_term(), 2);
        // And it traces without going out of bounds.
        let l = DataLayout::natural(&k);
        assert_eq!(TraceGen::new(&k, &l).count(), 16);
    }

    #[test]
    fn parses_affine_and_min_bounds() {
        let text = "\
kernel Tri
array v[10] elem 1
for i = 0 .. 8 step 2
for j = i .. min(i+1, 8)
  read v[j]
";
        let k = parse_kernel(text).expect("valid input");
        assert_eq!(k.nest.loops[0].step, 2);
        assert!(matches!(k.nest.loops[1].lower, Bound::Affine(_)));
        assert!(matches!(k.nest.loops[1].upper, Bound::Min(_, 8)));
    }

    #[test]
    fn negative_constants_and_leading_minus() {
        let text = "\
kernel Neg
array v[10] elem 1
for i = 3 .. 9
  read v[i-3]
  read v[-1*i+9]
";
        let k = parse_kernel(text).expect("valid input");
        assert_eq!(k.nest.refs[0].subscripts[0].constant_term(), -3);
        assert_eq!(k.nest.refs[1].subscripts[0].coeff(0), -1);
    }

    fn err_of(text: &str) -> ParseKernelError {
        parse_kernel(text).expect_err("should fail")
    }

    #[test]
    fn reports_line_numbers() {
        let e = err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7\nread w[i]\n");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("unknown array"));
    }

    #[test]
    fn rejects_structural_errors() {
        assert!(err_of("array v[8] elem 4\n").message.contains("kernel"));
        assert!(err_of("kernel K\nread v[0]\n")
            .message
            .contains("before any loop"));
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 5 .. 2\nread v[i]\n")
                .message
                .contains("empty range")
        );
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7\nread v[i]\nfor j = 0 .. 7\n")
                .message
                .contains("perfect nest")
        );
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7\nread v[i][0]\n")
                .message
                .contains("rank")
        );
    }

    #[test]
    fn rejects_bad_expressions() {
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7\nread v[i+]\n")
                .message
                .contains("dangling")
        );
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7\nread v[q]\n")
                .message
                .contains("unknown variable")
        );
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7 step 0\nread v[i]\n")
                .message
                .contains("step")
        );
    }

    #[test]
    fn rejects_out_of_bounds_subscripts_at_the_reference_line() {
        let e = err_of("kernel K\narray a[8] elem 4\nfor i = 0 .. 8\n  read a[i]\n");
        assert_eq!(e.line, 4);
        assert_eq!(
            e.to_string(),
            "line 4: subscript 0 of `a` out of bounds: 8 not in 0..8"
        );
        match e.kind {
            ParseErrorKind::OutOfBounds(oob) => {
                assert_eq!((oob.name.as_str(), oob.dim, oob.value), ("a", 0, 8));
            }
            ParseErrorKind::Syntax => panic!("expected an out-of-bounds error"),
        }
        // A triangular nest whose subscript stays in range only because
        // of the triangle is accepted: the check is exact.
        parse_kernel(
            "kernel T\narray a[8] elem 4\nfor i = 0 .. 7\nfor j = i .. 7\n  read a[j-i]\n",
        )
        .expect("in bounds at every point");
        assert_eq!(err_of("kernel K\nkernel L\n").kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn rejects_duplicate_loop_vars_and_kernel_lines() {
        assert!(err_of("kernel K\nkernel L\n").message.contains("duplicate"));
        assert!(
            err_of("kernel K\narray v[8] elem 4\nfor i = 0 .. 7\nfor i = 0 .. 7\nread v[i]\n")
                .message
                .contains("reused")
        );
    }

    #[test]
    fn display_round_trip_is_stable() {
        // Not a full round-trip (Display is for humans), but the parsed
        // kernel behaves identically to the builtin when explored.
        let parsed = parse_kernel(COMPRESS).expect("valid input");
        let l1 = DataLayout::natural(&parsed);
        let builtin = crate::kernels::compress(31);
        let l2 = DataLayout::natural(&builtin);
        let t1: Vec<_> = TraceGen::new(&parsed, &l1).collect();
        let t2: Vec<_> = TraceGen::new(&builtin, &l2).collect();
        assert_eq!(t1, t2);
    }
}
