//! Affine loop-nest intermediate representation for embedded memory studies.
//!
//! This crate provides the workload substrate for the DAC'99
//! *Memory Exploration for Low Power, Embedded Systems* reproduction:
//!
//! * an IR for perfectly nested affine loops over multi-dimensional arrays
//!   ([`Kernel`], [`LoopNest`], [`ArrayRef`], [`AffineExpr`]),
//! * loop transformations — [tiling](transform::tile) (strip-mine +
//!   interchange, after Wolf & Lam) and [interchange](transform::interchange),
//! * [data layouts](layout::DataLayout) mapping arrays to off-chip byte
//!   addresses, including padded layouts produced by placement optimisers,
//! * an address [trace generator](trace::TraceGen) that walks the nest in
//!   execution order and emits one memory access per array reference,
//! * its [compiled](compiled::CompiledTrace) form, which lowers every
//!   reference to a base address plus one byte stride per loop and emits
//!   the same trace without interpreting subscripts, and
//! * the paper's [benchmark kernels](kernels) (Compress, Matrix
//!   Multiplication, PDE, SOR, Dequant, Matrix Addition, Transpose).
//!
//! # Example
//!
//! ```
//! use loopir::kernels;
//! use loopir::layout::DataLayout;
//! use loopir::trace::TraceGen;
//!
//! let kernel = kernels::compress(31);
//! let layout = DataLayout::natural(&kernel);
//! let trace: Vec<_> = TraceGen::new(&kernel, &layout).collect();
//! // 31*31 iterations, 4 reads + 1 write each.
//! assert_eq!(trace.len(), 31 * 31 * 5);
//! ```

pub mod compiled;
pub mod expr;
pub mod kernels;
pub mod layout;
pub mod nest;
pub mod parse;
pub mod trace;
pub mod transform;

pub use compiled::{check_bounds, CompiledTrace, OutOfBounds};
pub use expr::AffineExpr;
pub use kernels::all_paper_kernels;
pub use layout::DataLayout;
pub use nest::{AccessKind, ArrayDecl, ArrayId, ArrayRef, Bound, Kernel, Loop, LoopNest};
pub use parse::parse_kernel;
pub use trace::{MemoryAccess, TraceGen};
