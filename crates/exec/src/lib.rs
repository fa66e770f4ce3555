//! # spttn-exec
//!
//! Execution subsystem for SpTTN loop nests: a planned
//! [`spttn_ir::LoopForest`] is lowered once, at bind time, into a flat
//! instruction tape ([`tape::CompiledTape`]) that runs over a CSF sparse
//! tensor and dense factors, dispatching innermost dense loops to the
//! BLAS-style microkernels in [`blas`] and [`simd`] (paper Sec. 5).
//!
//! - **One engine.** The tape resolves loop dispatch, microkernel
//!   selection and operand addressing at compile time; densely iterated
//!   sparse modes are re-resolved by a monotone finger search; and the
//!   iterative driver replays the program per tile with zero
//!   allocations and zero atomics on the hot path. All Eq.-5
//!   intermediate buffers and the driver state live in a caller-held
//!   [`Workspace`], and results accumulate into a caller-owned output
//!   ([`OutputMut`]). [`tape::verify`] statically proves every compiled
//!   tape well-formed (loop structure, cursor bounds, Eq.-5 zero
//!   placement, resolver shape) before it ever runs.
//! - **Tiled parallelism.** [`ParallelExecutor`] splits the CSF root
//!   level into tiles ([`spttn_tensor::CsfTile`]) and runs the shared
//!   tape over them on a persistent worker pool, with one workspace and
//!   private output per thread so repeated executions stay
//!   allocation-free; partial outputs combine through a deterministic
//!   tree reduction ([`tree_reduce_partials`]).
//! - **Reference oracles.** [`reference`](mod@reference) holds what the runtime is
//!   tested against: a brute-force dense einsum ([`naive_einsum`]) and
//!   an independent recursive loop-forest interpreter
//!   ([`reference::interpret`]) that a scalar tape must match bit for
//!   bit.
//!
//! The [`simd`] module supplies explicit-SIMD microkernels (AVX2/FMA and
//! AVX-512 on x86_64, scalar elsewhere) selected **once at bind time**
//! and recorded in the tape as function pointers, plus the fused
//! `ZeroAccum` superinstructions and rank-specialized kernel variants
//! the tape compiler emits under [`Microkernels::Auto`].
//!
//! The [`guard`] module hardens all of this for long-lived services:
//! a [`CancelToken`]/[`RunGuard`] pair gives every execution cooperative
//! cancellation and deadlines with checkpoints at root-iteration
//! boundaries, the worker pool isolates panicking jobs behind
//! `catch_unwind` and respawns dead workers, and [`faults`] injects
//! deterministic worker panics and thread deaths so the recovery paths
//! stay tested.

// Unsafe code in the workspace lives in [`parallel`] (raw-pointer job
// hand-off to the worker pool) and [`simd`] (vendor SIMD intrinsics behind
// bind-time feature detection); every unsafe operation inside an
// unsafe fn must carry its own block.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blas;
pub mod faults;
pub mod guard;
pub mod parallel;
pub mod reference;
pub mod runtime;
pub mod simd;
pub mod tape;

pub use guard::{CancelToken, RunGuard};
pub use parallel::{tree_reduce_partials, ParallelExecutor};
pub use reference::naive_einsum;
pub use runtime::{
    validate_operands, validate_slotted_operands, ContractionOutput, ExecStats, OutputMut,
    Workspace,
};
pub use simd::{detected_cpu_features, KernelSel, KernelSet, Microkernels, RankSpec};
pub use tape::verify::{TapeInvariantError, TapeReport};
pub use tape::{
    execute_tape, execute_tape_into, execute_tape_into_guarded, execute_tape_tile_into,
    execute_tape_tile_into_guarded, CompiledTape, TapeState,
};
