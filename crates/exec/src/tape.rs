//! Bind-time compilation of loop forests to a flat instruction tape.
//!
//! The [`crate::interp`] module *interprets* a planned [`LoopForest`]:
//! every vertex visit re-matches node variants, re-probes BLAS
//! eligibility (`try_blas` rebuilds operand metadata from index lists),
//! recomputes strided offsets from scratch, and re-resolves densely
//! iterated sparse modes with a cold binary search. All of those
//! decisions depend only on the *plan*, not on the data — so
//! [`CompiledTape::compile`] makes each of them exactly once, lowering
//! `(Kernel, ContractionPath, LoopForest)` into a flat `Vec<Instr>`
//! program that the tile-parametric driver replays per execution.
//!
//! # Instruction set
//!
//! - `Zero { term }` — reset a term's Eq.-5 buffer at its split vertex
//!   (the positions the interpreter derives per sibling list are baked
//!   into the program).
//! - `Dense` / `Sparse` … `EndLoop` — loop headers paired with a
//!   trailing `EndLoop`; iteration state lives on an explicit frame
//!   stack (the driver never recurses). Each header carries a slice of
//!   the *advance table*: `(cursor, stride)` pairs whose running
//!   offsets are incremented by `Δcoordinate · stride` on every step
//!   and restored on exit, replacing the interpreter's per-visit
//!   `offset_in` recomputation. A sparse header also carries how to
//!   locate its parent CSF node: the tile root range, a node tracked by
//!   an enclosing sparse loop, or a finger-search resolver.
//! - `Leaf` — one scalar contraction `tgt += l · r`, with both operand
//!   addresses precompiled to cursors (or the sparse leaf value).
//! - `Dot` / `Axpy` / `Xmul` / `Ger` / `Gemv` — a whole innermost dense
//!   loop (or loop pair) lowered to a single microkernel call. BLAS-1/2
//!   eligibility, operand roles, and every stride are resolved at
//!   compile time; the interpreter's per-visit `src_meta`/`tgt_meta`
//!   probing disappears entirely. Each microkernel instruction carries
//!   the **function pointer** of its implementation, chosen once at
//!   compile time by a [`crate::simd::KernelSet`] (scalar, AVX2+FMA,
//!   NEON, or portable `std::simd` — never re-decided per visit), plus
//!   a [`RankSpec`] recording whether the body is rank-specialized.
//! - `ZeroAxpy` / `ZeroXmul` / `ZeroGer` — **superinstructions** fusing
//!   a term's Eq.-5 zero point with its first accumulation: when the
//!   instruction immediately following `Zero { t }` is a microkernel
//!   that accumulates into term `t`'s *entire* buffer, the pair
//!   collapses into one assigning pass (`y = αx` instead of
//!   `y = 0; y += αx`), halving the memory traffic of the split point.
//!   Emitted only under [`Microkernels::Auto`]; the fused kernels never
//!   skip the write (even for `α == 0`), preserving the zero point.
//!
//! # Finger search
//!
//! When a sparse CSF mode is iterated *densely* above a sparse loop
//! (e.g. Listing 4's `s` above `k`, or an unfused consumer
//! re-descending the tree), the node for the current coordinate must be
//! re-resolved inside the dense loop. The interpreter binary-searches
//! the child range from scratch on every visit. The tape exploits the
//! **monotone traversal invariant**: while the enclosing context (the
//! parent node) is fixed, successive targets of one resolution site are
//! non-decreasing, and CSF child ranges are sorted — so each searched
//! level keeps a *finger* (the last position), and a new target gallops
//! forward from it (exponential steps, then binary search in the
//! bracket). A parent change or a target decrease resets the finger to
//! the range start, so monotonicity is purely an accelerant, never a
//! correctness assumption. Amortized over a full dense sweep this is
//! O(range + dim) instead of O(dim · log range); the probe counts are
//! reported in [`ExecStats::search_probes`] next to the interpreter's
//! binary-search depths.
//!
//! # Contracts
//!
//! The tape mirrors the interpreter's decisions exactly — same loop
//! structure, same microkernel choices, same floating-point operation
//! order — so the two engines are mutually redundant oracles: the
//! differential suite (`tests/tape_vs_interp.rs`) holds them to ≤1e-9
//! (in practice bitwise) agreement. One compiled tape is shared by all
//! worker threads (it is immutable and tile-parametric); the mutable
//! driver state ([`TapeState`]) lives in each [`Workspace`], is
//! preallocated by [`Workspace::prepare_tape`], and the driver performs
//! **zero heap allocations and zero atomic operations** per execution —
//! stats are plain per-workspace `u64`s folded into the global
//! [`crate::interp::stats`] shim once per run.

use crate::guard::RunGuard;
use crate::interp::{
    forest_stamp, stats, validate_operands, validate_output, validate_slots, ContractionOutput,
    ExecStats, OutputMut, Slots, Workspace,
};
use crate::simd::{AxpyFn, DotFn, GemvFn, GerFn, KernelSet, Microkernels, RankSpec, XmulFn};
use spttn_core::{Result, SpttnError};
use spttn_ir::{
    buffers_for_forest, BufferSpec, ContractionPath, IndexId, Kernel, LoopForest, LoopNode,
    LoopVertex, Operand, VertexKind,
};
use spttn_tensor::{Csf, CsfTile, DenseTensor};
use std::ops::Range;

#[path = "tape_verify.rs"]
pub mod verify;

/// Read-side backing store of a precompiled operand address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RBuf {
    /// Dense factor at a kernel input slot.
    Factor(usize),
    /// Intermediate buffer of an earlier term.
    Inter(usize),
}

/// A loop-invariant scalar source.
#[derive(Debug, Clone, Copy)]
enum Read {
    /// `store[cursors[cur]]`.
    Cursor { buf: RBuf, cur: usize },
    /// The sparse tensor's leaf value at the resolved node (0 when the
    /// coordinate prefix is off-pattern — lineage pruning).
    SparseVal,
}

/// An accumulation-cell target.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// `store[cursors[cur]] += v` into the dense output (`term` is the
    /// final term) or the term's buffer.
    Cell { out: bool, term: usize, cur: usize },
    /// Pattern-sharing sparse output: `vals[node - leaf_lo] += v`.
    SparseCell,
}

/// Strided vector source of a microkernel.
#[derive(Debug, Clone, Copy)]
struct VecSrc {
    buf: RBuf,
    cur: usize,
    inc: usize,
}

/// Strided matrix source (GEMV's `A`).
#[derive(Debug, Clone, Copy)]
struct MatSrc {
    buf: RBuf,
    cur: usize,
    rs: usize,
    cs: usize,
}

/// Strided vector target of a microkernel.
#[derive(Debug, Clone, Copy)]
struct VecTgt {
    out: bool,
    cur: usize,
    inc: usize,
}

/// Strided matrix target (GER's `A`).
#[derive(Debug, Clone, Copy)]
struct MatTgt {
    out: bool,
    cur: usize,
    rs: usize,
    cs: usize,
}

/// How an instruction obtains the CSF node its sparse accesses use.
#[derive(Debug, Clone, Copy)]
enum NodeRes {
    /// No sparse access in this instruction.
    None,
    /// Every level up to the leaf is tracked by an enclosing sparse
    /// loop: read `nodes[level]` directly.
    Tracked(usize),
    /// Some level is densely iterated: run the finger-search resolver.
    Resolver(usize),
}

/// How a sparse loop header locates the node range it iterates.
#[derive(Debug, Clone, Copy)]
enum ParentLoc {
    /// Level 0: the executed tile's root range.
    Root,
    /// Parent level is tracked by an enclosing sparse loop.
    Tracked(usize),
    /// Parent must be resolved (finger search); off-pattern skips the
    /// loop — the covered contributions vanish by lineage pruning.
    Resolver(usize),
}

/// Slice of the advance table owned by one loop header.
type AdvRange = (u32, u32);

/// One cursor delta applied when its loop's coordinate advances.
#[derive(Debug, Clone, Copy)]
struct AdvEntry {
    cur: usize,
    stride: usize,
}

/// One tape instruction. All variants are plain `Copy` data; jump
/// targets (`end`) are absolute instruction indices.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Zero a term's Eq.-5 buffer (split point).
    Zero { term: usize },
    /// Dense loop header over `index` with extent `dim`.
    Dense {
        index: IndexId,
        dim: usize,
        adv: AdvRange,
        end: usize,
    },
    /// Sparse loop header iterating CSF children at `level`.
    Sparse {
        index: IndexId,
        level: usize,
        parent: ParentLoc,
        adv: AdvRange,
        end: usize,
    },
    /// Advance or exit the innermost open loop.
    EndLoop,
    /// Scalar contraction of one term.
    Leaf {
        left: Read,
        right: Read,
        tgt: Write,
        res: NodeRes,
    },
    /// `tgt += Σ_q x[q]·y[q]` (an innermost dense loop lowered to DOT).
    Dot {
        n: usize,
        x: VecSrc,
        y: VecSrc,
        tgt: Write,
        res: NodeRes,
        kern: DotFn,
        spec: RankSpec,
    },
    /// `y[q] += alpha · x[q]`.
    Axpy {
        n: usize,
        term: usize,
        alpha: Read,
        x: VecSrc,
        y: VecTgt,
        res: NodeRes,
        kern: AxpyFn,
        spec: RankSpec,
    },
    /// `y[q] += x[q] · z[q]`.
    Xmul {
        n: usize,
        term: usize,
        x: VecSrc,
        z: VecSrc,
        y: VecTgt,
        kern: XmulFn,
    },
    /// Rank-1 update `a[q1,q2] += x[q1] · y[q2]`.
    Ger {
        m: usize,
        n: usize,
        term: usize,
        x: VecSrc,
        y: VecSrc,
        a: MatTgt,
        kern: GerFn,
        spec: RankSpec,
    },
    /// `y[i] += Σ_j a[i,j] · x[j]` (call-parameter order baked in).
    Gemv {
        m: usize,
        n: usize,
        term: usize,
        a: MatSrc,
        x: VecSrc,
        y: VecTgt,
        kern: GemvFn,
        spec: RankSpec,
    },
    /// Superinstruction: `Zero { term }` fused with an `Axpy` covering
    /// the whole buffer — one assigning pass `y[q] = alpha · x[q]`.
    ZeroAxpy {
        n: usize,
        term: usize,
        alpha: Read,
        x: VecSrc,
        y: VecTgt,
        res: NodeRes,
        kern: AxpyFn,
        spec: RankSpec,
    },
    /// Superinstruction: `Zero` + full-coverage `Xmul`,
    /// `y[q] = x[q] · z[q]`.
    ZeroXmul {
        n: usize,
        term: usize,
        x: VecSrc,
        z: VecSrc,
        y: VecTgt,
        kern: XmulFn,
    },
    /// Superinstruction: `Zero` + full-coverage `Ger`,
    /// `a[q1,q2] = x[q1] · y[q2]`.
    ZeroGer {
        m: usize,
        n: usize,
        term: usize,
        x: VecSrc,
        y: VecSrc,
        a: MatTgt,
        kern: GerFn,
    },
}

/// One level of a resolver's descent program.
#[derive(Debug, Clone, Copy)]
enum ResLevel {
    /// Node set by an enclosing sparse loop: read `nodes[l]`.
    Tracked,
    /// Finger-search `coords[index]` in the current child range, with
    /// persistent finger state at `slot`.
    Search { index: IndexId, slot: usize },
}

/// Compile-time spec of one sparse-node resolver.
///
/// `levels[i]` describes CSF level `start + i`. Unlike the
/// interpreter's `resolve_node` — which walks from level 0 and
/// searches every untracked level even when a deeper tracked level
/// overrides the result — the compiled descent starts at the deepest
/// tracked level at or below the target, so redundant shallow searches
/// are skipped entirely.
#[derive(Debug, Clone)]
struct ResolverSpec {
    start: usize,
    levels: Vec<ResLevel>,
}

/// Static operand-store extents captured at compile time, making a
/// [`CompiledTape`] self-describing for [`CompiledTape::verify`]: the
/// verifier proves cursor offsets in range against these lengths
/// without needing the kernel or buffer specs back.
#[derive(Debug, Clone)]
struct TapeBounds {
    /// Flat length of each dense factor slot (0 for the sparse slot,
    /// which is never cursor-addressed).
    factor_lens: Vec<usize>,
    /// Flat length of each term's Eq.-5 buffer (0 when the term has
    /// none — the final term writes the output instead).
    buffer_lens: Vec<usize>,
    /// Flat length of the dense output (0 for pattern-sharing sparse
    /// outputs, which are node-addressed).
    out_len: usize,
    /// Declared extent of every kernel index.
    index_dims: Vec<usize>,
    /// Kernel index stored at each CSF level.
    level_index: Vec<IndexId>,
    /// Whether the output shares the sparse pattern (node-addressed
    /// `SparseCell` writes instead of dense cursor writes).
    output_sparse: bool,
}

/// A loop forest lowered to a flat instruction program.
///
/// Immutable once compiled and shared by every executing thread; the
/// per-thread mutable state is a [`TapeState`] held by each
/// [`Workspace`]. Compile once per plan (`Plan::bind` does this), run
/// per tile with [`execute_tape_tile_into`].
#[derive(Debug, Clone)]
pub struct CompiledTape {
    instrs: Vec<Instr>,
    adv: Vec<AdvEntry>,
    resolvers: Vec<ResolverSpec>,
    n_cursors: usize,
    n_fingers: usize,
    n_indices: usize,
    n_levels: usize,
    n_terms: usize,
    max_depth: usize,
    forest_stamp: u64,
    bounds: TapeBounds,
    /// Microkernel selection recorded at compile time (function
    /// pointers inside the instructions were drawn from this set).
    kernels: KernelSet,
}

/// Invalid/uninitialized finger parent marker.
const PARENT_INVALID: usize = usize::MAX;
/// Finger parent marker for level-0 (tile root range) searches.
const PARENT_ROOT: usize = usize::MAX - 1;

/// Per-site finger state of one searched CSF level.
#[derive(Debug, Clone, Copy)]
struct Finger {
    /// Parent node the current range was derived from ([`PARENT_ROOT`]
    /// for level 0, [`PARENT_INVALID`] before first use).
    parent: usize,
    /// Last searched coordinate (monotonicity detector).
    target: usize,
    /// Last search position (the finger).
    pos: usize,
}

impl Default for Finger {
    fn default() -> Self {
        Finger {
            parent: PARENT_INVALID,
            target: 0,
            pos: 0,
        }
    }
}

/// Loop-iteration frame of the driver's explicit stack.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// Instruction index of the loop header.
    instr: usize,
    /// Dense: current coordinate. Sparse: current node.
    pos: usize,
    /// Dense: unused (extent is in the header). Sparse: node range end.
    end: usize,
    /// Current coordinate (for delta advances and exit restores).
    prev: usize,
}

/// Preallocated mutable driver state for one thread's tape executions.
///
/// Sized purely from the compiled program; build with
/// [`CompiledTape::new_state`] or let [`Workspace::prepare_tape`] store
/// one in the workspace. After that, running the tape allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct TapeState {
    /// Current coordinate per kernel index (0 outside its loop).
    coords: Vec<usize>,
    /// Current CSF node per tracked tree level.
    nodes: Vec<usize>,
    /// Running offsets of every compiled operand address.
    cursors: Vec<usize>,
    /// Fixed-size frame stack (`fp` is the live depth).
    frames: Vec<Frame>,
    fp: usize,
    /// Finger state per searched resolver level.
    fingers: Vec<Finger>,
    /// Forest fingerprint of the tape this state was sized for.
    stamp: u64,
}

impl TapeState {
    /// True when this state was sized for `tape`.
    pub(crate) fn matches(&self, tape: &CompiledTape) -> bool {
        self.stamp == tape.forest_stamp
            && self.coords.len() == tape.n_indices
            && self.nodes.len() == tape.n_levels
            && self.cursors.len() == tape.n_cursors
            && self.frames.len() == tape.max_depth
            && self.fingers.len() == tape.n_fingers
    }

    /// Reset to the start-of-run state (cheap: O(state size), which is
    /// O(program size), independent of the data).
    fn reset(&mut self) {
        self.coords.fill(0);
        self.nodes.fill(usize::MAX);
        self.cursors.fill(0);
        self.fp = 0;
        self.fingers.fill(Finger::default());
    }
}

impl CompiledTape {
    /// Lower a planned nest to a tape. `specs` must be the Eq.-5 buffer
    /// specs of `forest` (the same ones the executing [`Workspace`] was
    /// built from), so compiled buffer strides agree with the allocated
    /// buffers.
    pub fn compile(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
    ) -> Result<CompiledTape> {
        // Scalar default keeps the free-function tape paths (and every
        // caller that has not opted in) bitwise-identical to the
        // pre-SIMD engine; the facade passes its `Microkernels` option
        // through `compile_with`.
        Self::compile_with_kernels(kernel, path, forest, specs, KernelSet::scalar())
    }

    /// [`CompiledTape::compile`] with a [`Microkernels`] policy: the
    /// policy is resolved against the `SPTTN_MICROKERNELS` environment
    /// override and the host CPU once, here, and the outcome is
    /// recorded in the tape.
    pub fn compile_with(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
        microkernels: Microkernels,
    ) -> Result<CompiledTape> {
        Self::compile_with_kernels(
            kernel,
            path,
            forest,
            specs,
            KernelSet::resolve(microkernels),
        )
    }

    /// Compile against an explicit, already-resolved [`KernelSet`] —
    /// differential tests and benches use this to pin program shape
    /// independently of the environment override.
    pub fn compile_with_kernels(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
        kernels: KernelSet,
    ) -> Result<CompiledTape> {
        let n_terms = path.len();
        let mut buffer_inds: Vec<Vec<IndexId>> = vec![Vec::new(); n_terms];
        let mut buffer_strides: Vec<Vec<usize>> = vec![Vec::new(); n_terms];
        let mut buffer_hint: Vec<Option<usize>> = vec![None; n_terms];
        let mut buffer_lens = vec![0usize; n_terms];
        for s in specs {
            buffer_inds[s.producer] = s.inds.clone();
            buffer_strides[s.producer] = s.strides();
            buffer_hint[s.producer] = s.rank_hint();
            buffer_lens[s.producer] = s.dims.iter().product();
        }
        let mut c = Compiler {
            kernel,
            path,
            buffer_inds,
            buffer_strides,
            buffer_hint,
            factor_strides: kernel
                .inputs
                .iter()
                .map(|r| kernel.ref_strides(r))
                .collect(),
            out_strides: kernel.ref_strides(&kernel.output),
            instrs: Vec::new(),
            adv: Vec::new(),
            resolvers: Vec::new(),
            n_cursors: 0,
            n_fingers: 0,
            loops: Vec::new(),
            kernels,
        };
        c.compile_siblings(&forest.roots, n_terms)?;
        if kernels.superinstructions() {
            fuse_zero_accum(&mut c.instrs, &buffer_lens, &kernels);
        }
        let bounds = TapeBounds {
            factor_lens: kernel
                .inputs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    if i == kernel.sparse_input {
                        0
                    } else {
                        kernel.ref_dims(r).iter().product()
                    }
                })
                .collect(),
            buffer_lens,
            out_len: if kernel.output_sparse {
                0
            } else {
                kernel.ref_dims(&kernel.output).iter().product()
            },
            index_dims: (0..kernel.num_indices()).map(|i| kernel.dim(i)).collect(),
            level_index: kernel.csf_index_order().to_vec(),
            output_sparse: kernel.output_sparse,
        };
        Ok(CompiledTape {
            instrs: c.instrs,
            adv: c.adv,
            resolvers: c.resolvers,
            n_cursors: c.n_cursors,
            n_fingers: c.n_fingers,
            n_indices: kernel.num_indices(),
            n_levels: kernel.csf_index_order().len(),
            n_terms,
            max_depth: forest.max_depth(),
            forest_stamp: forest_stamp(forest),
            bounds,
            kernels,
        })
    }

    /// Convenience: compile with freshly inferred buffer specs
    /// (producer-order layout, as [`crate::Workspace::new`] infers).
    pub fn from_forest(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
    ) -> Result<CompiledTape> {
        Self::compile(
            kernel,
            path,
            forest,
            &buffers_for_forest(kernel, path, forest, None),
        )
    }

    /// Build the preallocated mutable driver state for this program.
    pub fn new_state(&self) -> TapeState {
        TapeState {
            coords: vec![0; self.n_indices],
            nodes: vec![usize::MAX; self.n_levels],
            cursors: vec![0; self.n_cursors],
            frames: vec![Frame::default(); self.max_depth],
            fp: 0,
            fingers: vec![Finger::default(); self.n_fingers],
            stamp: self.forest_stamp,
        }
    }

    /// Number of instructions in the program.
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Number of precompiled operand addresses (incremental cursors).
    pub fn num_cursors(&self) -> usize {
        self.n_cursors
    }

    /// Number of finger-search sites (searched resolver levels).
    pub fn num_fingers(&self) -> usize {
        self.n_fingers
    }

    /// The microkernel selection recorded at compile time.
    pub fn kernel_set(&self) -> KernelSet {
        self.kernels
    }

    /// Name of the recorded microkernel implementation family
    /// (`"scalar"`, `"avx2+fma"`, `"neon"`, `"portable"`).
    pub fn microkernels(&self) -> &'static str {
        self.kernels.name()
    }

    /// f64 lanes per vector operation of the recorded kernels.
    pub fn kernel_width(&self) -> usize {
        self.kernels.width()
    }

    /// Number of fused `ZeroAccum` superinstructions in the program.
    pub fn superinstructions(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::ZeroAxpy { .. } | Instr::ZeroXmul { .. } | Instr::ZeroGer { .. }
                )
            })
            .count()
    }

    /// Number of rank-specialized microkernel sites in the program.
    pub fn specialized(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Dot { spec, .. }
                    | Instr::Axpy { spec, .. }
                    | Instr::Ger { spec, .. }
                    | Instr::Gemv { spec, .. }
                    | Instr::ZeroAxpy { spec, .. }
                        if *spec != RankSpec::Gen
                )
            })
            .count()
    }

    /// Statically prove the compiled program well-formed — see the
    /// [`verify`] module for the invariants checked.
    ///
    /// Abstractly interprets every instruction without touching data:
    /// loop structure, frame-stack depth, cursor bounds under declared
    /// extents, Eq.-5 zero-before-accumulate domination, resolver
    /// shape, and operand-index ranges. Cost is O(program size),
    /// independent of the tensors; `Plan::bind` runs it on every debug
    /// build and behind `PlanOptions::with_verify(true)` in release.
    pub fn verify(&self) -> std::result::Result<verify::TapeReport, verify::TapeInvariantError> {
        verify::verify(self)
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Compile-time operand metadata relative to candidate loop indices
/// `q1`/`q2` — the static mirror of the interpreter's `SrcMeta`.
enum CMeta {
    /// The sparse input: loop-invariant (its value never carries q).
    SparseConst,
    /// Dense source not using q1/q2: loop-invariant scalar.
    Const {
        buf: RBuf,
        inds: Vec<IndexId>,
        strides: Vec<usize>,
    },
    /// Strided source.
    Var {
        buf: RBuf,
        inds: Vec<IndexId>,
        strides: Vec<usize>,
        s1: usize,
        has1: bool,
        s2: usize,
        has2: bool,
    },
}

/// Compile-time target metadata — the static mirror of `TgtMeta`.
enum CTgt {
    /// Scalar cell of the pattern-sharing sparse output.
    CellSparse,
    /// Dense scalar cell (q1/q2 absent from the target's indices).
    CellDense {
        out: bool,
        inds: Vec<IndexId>,
        strides: Vec<usize>,
    },
    /// Strided target.
    Var {
        out: bool,
        inds: Vec<IndexId>,
        strides: Vec<usize>,
        s1: usize,
        has1: bool,
        s2: usize,
        has2: bool,
    },
}

/// One enclosing emitted loop during compilation.
struct LoopCtx {
    index: IndexId,
    /// CSF level for sparse loops (tracked-ness of resolvers).
    level: Option<usize>,
    /// Advance entries collected for this loop's body.
    adv: Vec<AdvEntry>,
}

struct Compiler<'a> {
    kernel: &'a Kernel,
    path: &'a ContractionPath,
    buffer_inds: Vec<Vec<IndexId>>,
    buffer_strides: Vec<Vec<usize>>,
    /// Innermost buffer extent when it is a supported fixed rank
    /// ([`BufferSpec::rank_hint`]) — the pin for rank specialization.
    buffer_hint: Vec<Option<usize>>,
    factor_strides: Vec<Vec<usize>>,
    out_strides: Vec<usize>,
    instrs: Vec<Instr>,
    adv: Vec<AdvEntry>,
    resolvers: Vec<ResolverSpec>,
    n_cursors: usize,
    n_fingers: usize,
    loops: Vec<LoopCtx>,
    /// Microkernel selection the emitted instructions draw their
    /// function pointers from.
    kernels: KernelSet,
}

impl<'a> Compiler<'a> {
    /// Allocate a cursor for a site addressed by `inds`/`strides`,
    /// registering one advance entry with each enclosing loop that
    /// iterates one of the site's indices (`q1`/`q2` are carried as
    /// microkernel strides instead and skipped here).
    fn cursor(
        &mut self,
        inds: &[IndexId],
        strides: &[usize],
        q1: Option<IndexId>,
        q2: Option<IndexId>,
    ) -> Result<usize> {
        let cur = self.n_cursors;
        self.n_cursors += 1;
        for (pos, &ind) in inds.iter().enumerate() {
            if Some(ind) == q1 || Some(ind) == q2 {
                continue;
            }
            let ctx = self
                .loops
                .iter_mut()
                .find(|c| c.index == ind)
                .ok_or_else(|| {
                    SpttnError::Execution(format!(
                        "tape compile: operand index {ind} is not iterated by an enclosing loop"
                    ))
                })?;
            ctx.adv.push(AdvEntry {
                cur,
                stride: strides[pos],
            });
        }
        Ok(cur)
    }

    /// True when CSF `level` is iterated by an enclosing *sparse* loop
    /// at the current compile point.
    fn tracked(&self, level: usize) -> bool {
        self.loops.iter().any(|c| c.level == Some(level))
    }

    /// Allocate a resolver for descent down to `target` level. The
    /// descent starts at the deepest tracked level at or below the
    /// target (searches above it would be discarded anyway).
    fn resolver(&mut self, target: usize) -> usize {
        let start = (0..=target).rev().find(|&l| self.tracked(l)).unwrap_or(0);
        let levels = (start..=target)
            .map(|l| {
                if self.tracked(l) {
                    ResLevel::Tracked
                } else {
                    let slot = self.n_fingers;
                    self.n_fingers += 1;
                    ResLevel::Search {
                        index: self.kernel.index_at_level(l),
                        slot,
                    }
                }
            })
            .collect();
        self.resolvers.push(ResolverSpec { start, levels });
        self.resolvers.len() - 1
    }

    /// Node resolution for an instruction touching the sparse leaves.
    fn node_res(&mut self) -> NodeRes {
        let leaf = self.kernel.csf_index_order().len() - 1;
        if (0..=leaf).all(|l| self.tracked(l)) {
            NodeRes::Tracked(leaf)
        } else {
            NodeRes::Resolver(self.resolver(leaf))
        }
    }

    /// Parent locator for a sparse loop header at `level`, derived from
    /// the loops enclosing it (call before pushing the loop's own ctx).
    fn parent_loc(&mut self, level: usize) -> ParentLoc {
        if level == 0 {
            ParentLoc::Root
        } else if self.tracked(level - 1) {
            ParentLoc::Tracked(level - 1)
        } else {
            ParentLoc::Resolver(self.resolver(level - 1))
        }
    }

    /// Term range covered by a node (mirror of the interpreter's).
    fn node_range(n: &LoopNode) -> (usize, usize) {
        match n {
            LoopNode::Leaf(t) => (*t, *t + 1),
            LoopNode::Loop(v) => (v.term_lo, v.term_hi),
        }
    }

    /// Compile a sibling list, baking in the Eq.-5 split-point zeroing
    /// the interpreter derives per visit.
    fn compile_siblings(&mut self, nodes: &[LoopNode], parent_hi: usize) -> Result<()> {
        for n in nodes {
            let (lo, hi) = Self::node_range(n);
            for t in lo..hi {
                if let Some(c) = self.path.terms[t].consumer {
                    if c >= hi && c < parent_hi {
                        self.instrs.push(Instr::Zero { term: t });
                    }
                }
            }
            match n {
                LoopNode::Leaf(t) => self.compile_leaf(*t)?,
                LoopNode::Loop(v) => self.compile_loop(v)?,
            }
        }
        Ok(())
    }

    fn compile_loop(&mut self, v: &LoopVertex) -> Result<()> {
        if self.try_blas(v)? {
            return Ok(());
        }
        let header = self.instrs.len();
        self.instrs.push(Instr::EndLoop); // placeholder, patched below
                                          // The parent locator sees only the loops *enclosing* v.
        let parent = match v.kind {
            VertexKind::Sparse { level } => Some(self.parent_loc(level)),
            VertexKind::Dense => None,
        };
        self.loops.push(LoopCtx {
            index: v.index,
            level: match v.kind {
                VertexKind::Sparse { level } => Some(level),
                VertexKind::Dense => None,
            },
            adv: Vec::new(),
        });
        self.compile_siblings(&v.children, v.term_hi)?;
        self.instrs.push(Instr::EndLoop);
        let end = self.instrs.len();
        let ctx = self.loops.pop().expect("loop ctx pushed above");
        let adv = self.flush_adv(ctx.adv);
        self.instrs[header] = match v.kind {
            VertexKind::Dense => Instr::Dense {
                index: v.index,
                dim: self.kernel.dim(v.index),
                adv,
                end,
            },
            VertexKind::Sparse { level } => Instr::Sparse {
                index: v.index,
                level,
                parent: parent.expect("sparse vertices computed a parent"),
                adv,
                end,
            },
        };
        Ok(())
    }

    fn flush_adv(&mut self, entries: Vec<AdvEntry>) -> AdvRange {
        let start = self.adv.len() as u32;
        self.adv.extend(entries);
        (start, self.adv.len() as u32)
    }

    /// Compile one scalar-leaf contraction.
    fn compile_leaf(&mut self, t: usize) -> Result<()> {
        let term = &self.path.terms[t];
        let (tl, tr) = (term.left, term.right);
        let left = self.read_operand(tl)?;
        let right = self.read_operand(tr)?;
        let tgt = if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                Write::SparseCell
            } else {
                let inds = self.kernel.output.indices.clone();
                let strides = self.out_strides.clone();
                Write::Cell {
                    out: true,
                    term: t,
                    cur: self.cursor(&inds, &strides, None, None)?,
                }
            }
        } else {
            let inds = self.buffer_inds[t].clone();
            let strides = self.buffer_strides[t].clone();
            Write::Cell {
                out: false,
                term: t,
                cur: self.cursor(&inds, &strides, None, None)?,
            }
        };
        let needs_node = matches!(left, Read::SparseVal)
            || matches!(right, Read::SparseVal)
            || matches!(tgt, Write::SparseCell);
        let res = if needs_node {
            self.node_res()
        } else {
            NodeRes::None
        };
        self.instrs.push(Instr::Leaf {
            left,
            right,
            tgt,
            res,
        });
        Ok(())
    }

    /// Compile a full-coordinate scalar read of an operand.
    fn read_operand(&mut self, op: Operand) -> Result<Read> {
        Ok(match op {
            Operand::Input(i) if i == self.kernel.sparse_input => Read::SparseVal,
            Operand::Input(i) => {
                let inds = self.kernel.inputs[i].indices.clone();
                let strides = self.factor_strides[i].clone();
                Read::Cursor {
                    buf: RBuf::Factor(i),
                    cur: self.cursor(&inds, &strides, None, None)?,
                }
            }
            Operand::Inter(u) => {
                let inds = self.buffer_inds[u].clone();
                let strides = self.buffer_strides[u].clone();
                Read::Cursor {
                    buf: RBuf::Inter(u),
                    cur: self.cursor(&inds, &strides, None, None)?,
                }
            }
        })
    }

    // ----- BLAS lowering (static mirror of the interpreter's probe) --

    /// Source metadata w.r.t. `q1` (and optionally `q2`), from index
    /// lists alone — no cursors are allocated until a dispatch commits.
    fn src_meta(&self, op: Operand, q1: IndexId, q2: Option<IndexId>) -> CMeta {
        let (buf, inds, strides): (RBuf, &[IndexId], &[usize]) = match op {
            Operand::Input(i) if i == self.kernel.sparse_input => return CMeta::SparseConst,
            Operand::Input(i) => (
                RBuf::Factor(i),
                &self.kernel.inputs[i].indices,
                &self.factor_strides[i],
            ),
            Operand::Inter(u) => (
                RBuf::Inter(u),
                &self.buffer_inds[u],
                &self.buffer_strides[u],
            ),
        };
        let (mut s1, mut has1, mut s2, mut has2) = (0usize, false, 0usize, false);
        for (pos, &ind) in inds.iter().enumerate() {
            if ind == q1 {
                s1 = strides[pos];
                has1 = true;
            } else if Some(ind) == q2 {
                s2 = strides[pos];
                has2 = true;
            }
        }
        if !has1 && !has2 {
            CMeta::Const {
                buf,
                inds: inds.to_vec(),
                strides: strides.to_vec(),
            }
        } else {
            CMeta::Var {
                buf,
                inds: inds.to_vec(),
                strides: strides.to_vec(),
                s1,
                has1,
                s2,
                has2,
            }
        }
    }

    /// Target metadata; `None` means dispatch is unsupported (sparse
    /// pattern-sharing output indexed by a loop index).
    fn tgt_meta(&self, t: usize, q1: IndexId, q2: Option<IndexId>) -> Option<CTgt> {
        let (out, inds, strides): (bool, &[IndexId], &[usize]) = if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                let oi = self.path.terms[t].out_inds;
                if oi.contains(q1) || q2.is_some_and(|q| oi.contains(q)) {
                    return None;
                }
                return Some(CTgt::CellSparse);
            }
            (true, &self.kernel.output.indices, &self.out_strides)
        } else {
            (false, &self.buffer_inds[t], &self.buffer_strides[t])
        };
        let (mut s1, mut has1, mut s2, mut has2) = (0usize, false, 0usize, false);
        for (pos, &ind) in inds.iter().enumerate() {
            if ind == q1 {
                s1 = strides[pos];
                has1 = true;
            } else if Some(ind) == q2 {
                s2 = strides[pos];
                has2 = true;
            }
        }
        if has1 || has2 {
            Some(CTgt::Var {
                out,
                inds: inds.to_vec(),
                strides: strides.to_vec(),
                s1,
                has1,
                s2,
                has2,
            })
        } else {
            Some(CTgt::CellDense {
                out,
                inds: inds.to_vec(),
                strides: strides.to_vec(),
            })
        }
    }

    /// Materialize a `Var` source as a microkernel vector operand.
    fn vec_src(
        &mut self,
        m: &CMeta,
        inc: usize,
        q1: IndexId,
        q2: Option<IndexId>,
    ) -> Result<VecSrc> {
        let CMeta::Var {
            buf, inds, strides, ..
        } = m
        else {
            unreachable!("vec_src takes Var metadata");
        };
        let (buf, inds, strides) = (*buf, inds.clone(), strides.clone());
        Ok(VecSrc {
            buf,
            cur: self.cursor(&inds, &strides, Some(q1), q2)?,
            inc,
        })
    }

    /// Materialize a loop-invariant source as a scalar read.
    fn const_src(&mut self, m: &CMeta) -> Result<Read> {
        match m {
            CMeta::SparseConst => Ok(Read::SparseVal),
            CMeta::Const { buf, inds, strides } => {
                let (buf, inds, strides) = (*buf, inds.clone(), strides.clone());
                Ok(Read::Cursor {
                    buf,
                    cur: self.cursor(&inds, &strides, None, None)?,
                })
            }
            CMeta::Var { .. } => unreachable!("const_src takes invariant metadata"),
        }
    }

    /// Materialize a cell target.
    fn cell_tgt(&mut self, tm: &CTgt, t: usize) -> Result<Write> {
        match tm {
            CTgt::CellSparse => Ok(Write::SparseCell),
            CTgt::CellDense { out, inds, strides } => {
                let (out, inds, strides) = (*out, inds.clone(), strides.clone());
                Ok(Write::Cell {
                    out,
                    term: t,
                    cur: self.cursor(&inds, &strides, None, None)?,
                })
            }
            CTgt::Var { .. } => unreachable!("cell_tgt takes cell metadata"),
        }
    }

    /// Materialize a strided target vector.
    fn vec_tgt(
        &mut self,
        tm: &CTgt,
        inc: usize,
        q1: IndexId,
        q2: Option<IndexId>,
    ) -> Result<VecTgt> {
        let CTgt::Var {
            out, inds, strides, ..
        } = tm
        else {
            unreachable!("vec_tgt takes Var metadata");
        };
        let (out, inds, strides) = (*out, inds.clone(), strides.clone());
        Ok(VecTgt {
            out,
            cur: self.cursor(&inds, &strides, Some(q1), q2)?,
            inc,
        })
    }

    /// Rank-specialization pin for a microkernel writing term `t`: a
    /// dense-output row's trip count is statically the kernel dim; a
    /// buffer's pin comes from its `BufferSpec` innermost dim
    /// ([`BufferSpec::rank_hint`]).
    fn tgt_hint(&self, out: bool, t: usize, n: usize) -> Option<usize> {
        if out {
            Some(n)
        } else {
            self.buffer_hint[t]
        }
    }

    /// Try to lower a vertex to one microkernel instruction; mirrors
    /// the interpreter's `try_blas` decisions exactly so both engines
    /// execute the same operation sequence.
    fn try_blas(&mut self, v: &LoopVertex) -> Result<bool> {
        if v.kind != VertexKind::Dense || v.term_hi - v.term_lo != 1 {
            return Ok(false);
        }
        let t = v.term_lo;
        match v.children.as_slice() {
            [LoopNode::Leaf(_)] => self.blas1(v.index, t),
            [LoopNode::Loop(v2)]
                if v2.kind == VertexKind::Dense
                    && v2.term_hi - v2.term_lo == 1
                    && matches!(v2.children.as_slice(), [LoopNode::Leaf(_)]) =>
            {
                self.blas2(v.index, v2.index, t)
            }
            _ => Ok(false),
        }
    }

    /// One dense loop over `q`, single term `t`: AXPY / elementwise /
    /// DOT lowering.
    fn blas1(&mut self, q: IndexId, t: usize) -> Result<bool> {
        let n = self.kernel.dim(q);
        let term = &self.path.terms[t];
        let (tl, tr) = (term.left, term.right);
        let lm = self.src_meta(tl, q, None);
        let rm = self.src_meta(tr, q, None);
        let Some(tm) = self.tgt_meta(t, q, None) else {
            return Ok(false);
        };
        match &tm {
            CTgt::CellSparse | CTgt::CellDense { .. } => {
                // Σ_q l[q]·r[q] into a scalar cell: DOT.
                let (CMeta::Var { s1: ls, .. }, CMeta::Var { s1: rs, .. }) = (&lm, &rm) else {
                    return Ok(false);
                };
                let (ls, rs) = (*ls, *rs);
                let x = self.vec_src(&lm, ls, q, None)?;
                let y = self.vec_src(&rm, rs, q, None)?;
                let tgt = self.cell_tgt(&tm, t)?;
                let res = if matches!(tgt, Write::SparseCell) {
                    self.node_res()
                } else {
                    NodeRes::None
                };
                let (kern, spec) = self.kernels.dot(n, x.inc == 1 && y.inc == 1);
                self.instrs.push(Instr::Dot {
                    n,
                    x,
                    y,
                    tgt,
                    res,
                    kern,
                    spec,
                });
                Ok(true)
            }
            CTgt::Var { s1: ts, .. } => {
                let ts = *ts;
                let y = self.vec_tgt(&tm, ts, q, None)?;
                match (&lm, &rm) {
                    (CMeta::Var { s1, .. }, CMeta::SparseConst | CMeta::Const { .. }) => {
                        let s1 = *s1;
                        let x = self.vec_src(&lm, s1, q, None)?;
                        let alpha = self.const_src(&rm)?;
                        let res = if matches!(alpha, Read::SparseVal) {
                            self.node_res()
                        } else {
                            NodeRes::None
                        };
                        let hint = self.tgt_hint(y.out, t, n);
                        let (kern, spec) = self.kernels.axpy(n, x.inc == 1 && y.inc == 1, hint);
                        self.instrs.push(Instr::Axpy {
                            n,
                            term: t,
                            alpha,
                            x,
                            y,
                            res,
                            kern,
                            spec,
                        });
                        Ok(true)
                    }
                    (CMeta::SparseConst | CMeta::Const { .. }, CMeta::Var { s1, .. }) => {
                        let s1 = *s1;
                        let x = self.vec_src(&rm, s1, q, None)?;
                        let alpha = self.const_src(&lm)?;
                        let res = if matches!(alpha, Read::SparseVal) {
                            self.node_res()
                        } else {
                            NodeRes::None
                        };
                        let hint = self.tgt_hint(y.out, t, n);
                        let (kern, spec) = self.kernels.axpy(n, x.inc == 1 && y.inc == 1, hint);
                        self.instrs.push(Instr::Axpy {
                            n,
                            term: t,
                            alpha,
                            x,
                            y,
                            res,
                            kern,
                            spec,
                        });
                        Ok(true)
                    }
                    (CMeta::Var { s1: ls, .. }, CMeta::Var { s1: rs, .. }) => {
                        let (ls, rs) = (*ls, *rs);
                        let x = self.vec_src(&lm, ls, q, None)?;
                        let z = self.vec_src(&rm, rs, q, None)?;
                        let kern = self.kernels.xmul();
                        self.instrs.push(Instr::Xmul {
                            n,
                            term: t,
                            x,
                            z,
                            y,
                            kern,
                        });
                        Ok(true)
                    }
                    _ => Ok(false),
                }
            }
        }
    }

    /// Two nested dense loops `(q1, q2)` over a single term: GER / GEMV
    /// lowering. The emitted call parameters match the interpreter's
    /// dispatch branch for branch.
    fn blas2(&mut self, q1: IndexId, q2: IndexId, t: usize) -> Result<bool> {
        let (m, n) = (self.kernel.dim(q1), self.kernel.dim(q2));
        let term = &self.path.terms[t];
        let (tl, tr) = (term.left, term.right);
        let lm = self.src_meta(tl, q1, Some(q2));
        let rm = self.src_meta(tr, q1, Some(q2));
        let Some(tm) = self.tgt_meta(t, q1, Some(q2)) else {
            return Ok(false);
        };
        let CTgt::Var {
            s1: t1,
            has1: th1,
            s2: t2,
            has2: th2,
            ..
        } = &tm
        else {
            return Ok(false);
        };
        let (t1, th1, t2, th2) = (*t1, *th1, *t2, *th2);
        let (
            CMeta::Var {
                s1: l1,
                has1: lh1,
                s2: l2,
                has2: lh2,
                ..
            },
            CMeta::Var {
                s1: r1,
                has1: rh1,
                s2: r2,
                has2: rh2,
                ..
            },
        ) = (&lm, &rm)
        else {
            return Ok(false);
        };
        let (l1, lh1, l2, lh2) = (*l1, *lh1, *l2, *lh2);
        let (r1, rh1, r2, rh2) = (*r1, *rh1, *r2, *rh2);

        if th1 && th2 {
            // Rank-1 update: x carries q1, y carries q2.
            if lh1 && !lh2 && !rh1 && rh2 {
                let x = self.vec_src(&lm, l1, q1, Some(q2))?;
                let y = self.vec_src(&rm, r2, q1, Some(q2))?;
                let a = self.mat_tgt(&tm, t1, t2, q1, q2)?;
                let hint = self.tgt_hint(a.out, t, n);
                let (kern, spec) = self.kernels.ger(n, a.cs == 1 && y.inc == 1, hint);
                self.instrs.push(Instr::Ger {
                    m,
                    n,
                    term: t,
                    x,
                    y,
                    a,
                    kern,
                    spec,
                });
                return Ok(true);
            }
            if !lh1 && lh2 && rh1 && !rh2 {
                let x = self.vec_src(&rm, r1, q1, Some(q2))?;
                let y = self.vec_src(&lm, l2, q1, Some(q2))?;
                let a = self.mat_tgt(&tm, t1, t2, q1, q2)?;
                let hint = self.tgt_hint(a.out, t, n);
                let (kern, spec) = self.kernels.ger(n, a.cs == 1 && y.inc == 1, hint);
                self.instrs.push(Instr::Ger {
                    m,
                    n,
                    term: t,
                    x,
                    y,
                    a,
                    kern,
                    spec,
                });
                return Ok(true);
            }
            return Ok(false);
        }
        if th1 && !th2 {
            // y[q1] += Σ_q2 A[q1,q2] · x[q2].
            if lh1 && lh2 && !rh1 && rh2 {
                let a = self.mat_src(&lm, l1, l2, q1, q2)?;
                let x = self.vec_src(&rm, r2, q1, Some(q2))?;
                let y = self.vec_tgt(&tm, t1, q1, Some(q2))?;
                let (kern, spec) = self.kernels.gemv(n, a.cs == 1 && x.inc == 1);
                self.instrs.push(Instr::Gemv {
                    m,
                    n,
                    term: t,
                    a,
                    x,
                    y,
                    kern,
                    spec,
                });
                return Ok(true);
            }
            if rh1 && rh2 && !lh1 && lh2 {
                let a = self.mat_src(&rm, r1, r2, q1, q2)?;
                let x = self.vec_src(&lm, l2, q1, Some(q2))?;
                let y = self.vec_tgt(&tm, t1, q1, Some(q2))?;
                let (kern, spec) = self.kernels.gemv(n, a.cs == 1 && x.inc == 1);
                self.instrs.push(Instr::Gemv {
                    m,
                    n,
                    term: t,
                    a,
                    x,
                    y,
                    kern,
                    spec,
                });
                return Ok(true);
            }
            return Ok(false);
        }
        if !th1 && th2 {
            // y[q2] += Σ_q1 A[q2,q1] · x[q1]  (m/n swapped in the call).
            if lh1 && lh2 && rh1 && !rh2 {
                let a = self.mat_src(&lm, l2, l1, q1, q2)?;
                let x = self.vec_src(&rm, r1, q1, Some(q2))?;
                let y = self.vec_tgt(&tm, t2, q1, Some(q2))?;
                // Row length of the emitted call is `m` (m/n swapped).
                let (kern, spec) = self.kernels.gemv(m, a.cs == 1 && x.inc == 1);
                self.instrs.push(Instr::Gemv {
                    m: n,
                    n: m,
                    term: t,
                    a,
                    x,
                    y,
                    kern,
                    spec,
                });
                return Ok(true);
            }
            if rh1 && rh2 && lh1 && !lh2 {
                let a = self.mat_src(&rm, r2, r1, q1, q2)?;
                let x = self.vec_src(&lm, l1, q1, Some(q2))?;
                let y = self.vec_tgt(&tm, t2, q1, Some(q2))?;
                // Row length of the emitted call is `m` (m/n swapped).
                let (kern, spec) = self.kernels.gemv(m, a.cs == 1 && x.inc == 1);
                self.instrs.push(Instr::Gemv {
                    m: n,
                    n: m,
                    term: t,
                    a,
                    x,
                    y,
                    kern,
                    spec,
                });
                return Ok(true);
            }
            return Ok(false);
        }
        Ok(false)
    }

    fn mat_src(
        &mut self,
        m: &CMeta,
        rs: usize,
        cs: usize,
        q1: IndexId,
        q2: IndexId,
    ) -> Result<MatSrc> {
        let CMeta::Var {
            buf, inds, strides, ..
        } = m
        else {
            unreachable!("mat_src takes Var metadata");
        };
        let (buf, inds, strides) = (*buf, inds.clone(), strides.clone());
        Ok(MatSrc {
            buf,
            cur: self.cursor(&inds, &strides, Some(q1), Some(q2))?,
            rs,
            cs,
        })
    }

    fn mat_tgt(
        &mut self,
        tm: &CTgt,
        rs: usize,
        cs: usize,
        q1: IndexId,
        q2: IndexId,
    ) -> Result<MatTgt> {
        let CTgt::Var {
            out, inds, strides, ..
        } = tm
        else {
            unreachable!("mat_tgt takes Var metadata");
        };
        let (out, inds, strides) = (*out, inds.clone(), strides.clone());
        Ok(MatTgt {
            out,
            cur: self.cursor(&inds, &strides, Some(q1), Some(q2))?,
            rs,
            cs,
        })
    }
}

/// Peephole pass fusing `Zero { t }` with an immediately following
/// microkernel that accumulates over term `t`'s **entire** buffer into
/// one assigning superinstruction (Eq.-5 zero point + first
/// accumulation in a single pass).
///
/// Soundness of the coverage tests: a `VecTgt` covers the buffer iff it
/// is not the output, has unit increment, and its trip count equals the
/// buffer's flat length — then the target cursor addresses offset 0 and
/// the kernel touches every element, so replacing "fill + accumulate"
/// with "assign" is exact. (The cursor *is* statically 0: full coverage
/// means no enclosing loop iterates any buffer index, so no advance
/// entry ever moves it.) A `MatTgt` additionally needs row-major
/// packing (`rs == n`, `m·n == len`). Adjacency guarantees the fused
/// instruction executes on exactly the control paths the `Zero` did.
///
/// Sources cannot alias the zeroed buffer: producer ordering means a
/// microkernel for term `t` only reads factors and buffers of earlier
/// terms (the verifier's `ProducerOrderViolation` rule).
///
/// Jump targets: removing the instruction at `i + 1` shifts everything
/// after it down by one. No loop `end` can point *at* `i + 1` or
/// `i + 2` — an `end` always lands one past an `EndLoop`, and neither
/// `i` (a `Zero`) nor `i + 1` (a microkernel) is one — so the blanket
/// `end > i + 1 → end -= 1` patch is exact.
fn fuse_zero_accum(instrs: &mut Vec<Instr>, buffer_lens: &[usize], kernels: &KernelSet) {
    let mut i = 0;
    while i + 1 < instrs.len() {
        let Instr::Zero { term } = instrs[i] else {
            i += 1;
            continue;
        };
        let fused = match instrs[i + 1] {
            Instr::Axpy {
                n,
                term: t,
                alpha,
                x,
                y,
                res,
                spec,
                ..
            } if t == term && !y.out && y.inc == 1 && n == buffer_lens[t] => {
                // The assigning twin must sit at exactly the recorded
                // specialization: a fixed-rank zaxpy would assert unit
                // source stride, which only the non-Gen spec implies.
                let (kern, zspec) = match spec.rank() {
                    Some(r) => kernels.zaxpy(r, true, Some(r)),
                    None => kernels.zaxpy(n, false, None),
                };
                debug_assert_eq!(zspec, spec);
                Some(Instr::ZeroAxpy {
                    n,
                    term: t,
                    alpha,
                    x,
                    y,
                    res,
                    kern,
                    spec: zspec,
                })
            }
            Instr::Xmul {
                n,
                term: t,
                x,
                z,
                y,
                ..
            } if t == term && !y.out && y.inc == 1 && n == buffer_lens[t] => {
                Some(Instr::ZeroXmul {
                    n,
                    term: t,
                    x,
                    z,
                    y,
                    kern: kernels.zxmul(),
                })
            }
            Instr::Ger {
                m,
                n,
                term: t,
                x,
                y,
                a,
                ..
            } if t == term && !a.out && a.cs == 1 && a.rs == n && m * n == buffer_lens[t] => {
                Some(Instr::ZeroGer {
                    m,
                    n,
                    term: t,
                    x,
                    y,
                    a,
                    kern: kernels.zger(),
                })
            }
            _ => None,
        };
        if let Some(f) = fused {
            instrs[i] = f;
            instrs.remove(i + 1);
            for ins in instrs.iter_mut() {
                if let Instr::Dense { end, .. } | Instr::Sparse { end, .. } = ins {
                    if *end > i + 1 {
                        *end -= 1;
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Run a compiled tape over the whole tree into a caller-owned output,
/// reusing the workspace (see [`execute_tape_tile_into`] for the tiled
/// variant and the allocation contract).
pub fn execute_tape_into(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    execute_tape_into_guarded(tape, kernel, csf, factors_by_slot, ws, out, None)
}

/// [`execute_tape_into`] with a cancellation/deadline guard, checked
/// once before the run and then at every root-frame advance — so
/// cancellation latency is bounded by one root subtree.
#[allow(clippy::too_many_arguments)]
pub fn execute_tape_into_guarded(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    run_tape(
        tape,
        kernel,
        csf,
        csf.root_range(),
        0,
        csf.nnz(),
        Slots::Owned(factors_by_slot),
        ws,
        out,
        guard,
    )
}

/// Run a compiled tape over one [`CsfTile`], computing exactly the
/// tile's additive contribution (the tape analogue of
/// [`crate::execute_forest_tile_into`]).
///
/// After [`Workspace::prepare_tape`] ran, this performs zero heap
/// allocations and zero atomic operations on the success path; the
/// workspace's [`ExecStats`] describe this run and are folded into the
/// global [`crate::interp::stats`] shim once at the end.
pub fn execute_tape_tile_into(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    tile: &CsfTile,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    execute_tape_tile_into_guarded(tape, kernel, csf, tile, factors_by_slot, ws, out, None)
}

/// [`execute_tape_tile_into`] with a cancellation/deadline guard (see
/// [`execute_tape_into_guarded`] for the checkpoint cadence).
#[allow(clippy::too_many_arguments)]
pub fn execute_tape_tile_into_guarded(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    tile: &CsfTile,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    if tile.depth() != csf.order().max(1) {
        return Err(SpttnError::Execution(format!(
            "tile spans {} levels but the CSF has {} (tile built for a different tensor?)",
            tile.depth(),
            csf.order()
        )));
    }
    run_tape(
        tape,
        kernel,
        csf,
        tile.root_range(),
        tile.leaf_range().start,
        tile.leaf_nnz(),
        Slots::Owned(factors_by_slot),
        ws,
        out,
        guard,
    )
}

/// One-shot convenience mirroring [`crate::execute_forest`]: compile
/// the nest, allocate a fresh workspace and output, run the tape.
pub fn execute_tape(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    dense_factors: &[&DenseTensor],
) -> Result<ContractionOutput> {
    validate_operands(kernel, csf, dense_factors)?;
    let tape = CompiledTape::from_forest(kernel, path, forest)?;
    let dummy = DenseTensor::zeros(&[]);
    let mut refs: Vec<&DenseTensor> = Vec::with_capacity(kernel.inputs.len());
    let mut next = 0usize;
    for slot in 0..kernel.inputs.len() {
        if slot == kernel.sparse_input {
            refs.push(&dummy);
        } else {
            refs.push(dense_factors[next]);
            next += 1;
        }
    }
    let mut ws = Workspace::new(kernel, path, forest);
    ws.prepare_tape(&tape);
    if kernel.output_sparse {
        let mut vals = vec![0.0; csf.nnz()];
        run_tape(
            &tape,
            kernel,
            csf,
            csf.root_range(),
            0,
            csf.nnz(),
            Slots::Refs(&refs),
            &mut ws,
            OutputMut::Sparse(&mut vals),
            None,
        )?;
        Ok(ContractionOutput::Sparse(csf.to_coo().with_vals(vals)))
    } else {
        let mut out = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
        run_tape(
            &tape,
            kernel,
            csf,
            csf.root_range(),
            0,
            csf.nnz(),
            Slots::Refs(&refs),
            &mut ws,
            OutputMut::Dense(&mut out),
            None,
        )?;
        Ok(ContractionOutput::Dense(out))
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tape(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    root: Range<usize>,
    leaf_lo: usize,
    leaf_len: usize,
    factors: Slots<'_>,
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    validate_slots(kernel, csf, factors)?;
    validate_output(kernel, &out, leaf_len)?;
    if ws.buffers.len() != tape.n_terms || ws.forest_stamp != tape.forest_stamp {
        return Err(SpttnError::Execution(
            "workspace does not match the tape (build both from the same plan)".into(),
        ));
    }
    if csf.order() != tape.n_levels {
        return Err(SpttnError::Execution(format!(
            "tape was compiled for a {}-level CSF, got {}",
            tape.n_levels,
            csf.order()
        )));
    }
    // Preallocated in the normal bind path; the one-shot convenience
    // path pays this once.
    ws.prepare_tape(tape);
    ws.stats = ExecStats::default();
    let Workspace {
        buffers,
        scratch_dense,
        stats: run_stats,
        tape: tstate,
        ..
    } = ws;
    let st = tstate.as_mut().expect("prepared above");
    st.reset();
    let (out_dense, out_sparse): (&mut DenseTensor, &mut [f64]) = match out {
        OutputMut::Dense(d) => (d, &mut []),
        OutputMut::Sparse(v) => (scratch_dense, v),
    };
    let mut run = Run {
        tape,
        csf,
        root,
        leaf_lo,
        factors,
        buffers,
        out_dense,
        out_sparse,
        st,
        stats: run_stats,
        // A no-op guard costs a branch per root-frame advance; skip
        // even that for ungated runs.
        guard: guard.filter(|g| !g.is_noop()),
    };
    run.go()?;
    stats::fold(&ws.stats());
    Ok(())
}

struct Run<'a> {
    tape: &'a CompiledTape,
    csf: &'a Csf,
    root: Range<usize>,
    leaf_lo: usize,
    factors: Slots<'a>,
    buffers: &'a mut [DenseTensor],
    out_dense: &'a mut DenseTensor,
    out_sparse: &'a mut [f64],
    st: &'a mut TapeState,
    stats: &'a mut ExecStats,
    guard: Option<&'a RunGuard>,
}

/// Search `idx[from..hi]` (sorted, duplicate-free) for `target` by
/// galloping forward from `from`: exponential steps to bracket the
/// target, then binary search inside the bracket. `Ok(pos)` on a hit,
/// `Err(lower_bound)` on a miss (where the finger should rest so the
/// next, larger target continues forward). `probes` counts coordinate
/// comparisons.
fn gallop(
    idx: &[usize],
    from: usize,
    hi: usize,
    target: usize,
    probes: &mut u64,
) -> std::result::Result<usize, usize> {
    let mut lo = from; // invariant: everything before `lo` is < target
    let mut step = 1usize;
    let mut bound = from;
    loop {
        if bound >= hi {
            bound = hi;
            break;
        }
        *probes += 1;
        match idx[bound].cmp(&target) {
            std::cmp::Ordering::Equal => return Ok(bound),
            std::cmp::Ordering::Greater => break,
            std::cmp::Ordering::Less => {
                lo = bound + 1;
                bound = from + step;
                step *= 2;
            }
        }
    }
    let mut hi2 = bound;
    while lo < hi2 {
        let mid = lo + (hi2 - lo) / 2;
        *probes += 1;
        match idx[mid].cmp(&target) {
            std::cmp::Ordering::Equal => return Ok(mid),
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi2 = mid,
        }
    }
    Err(lo)
}

impl<'a> Run<'a> {
    fn go(&mut self) -> Result<()> {
        let instrs = &self.tape.instrs;
        let mut pc = 0usize;
        if let Some(g) = self.guard {
            g.check("tape")?;
        }
        while pc < instrs.len() {
            match instrs[pc] {
                Instr::Zero { term } => {
                    self.buffers[term].fill_zero();
                    pc += 1;
                }
                Instr::Dense {
                    index, dim, end, ..
                } => {
                    if dim == 0 {
                        pc = end;
                        continue;
                    }
                    self.st.coords[index] = 0;
                    self.push_frame(Frame {
                        instr: pc,
                        pos: 0,
                        end: dim,
                        prev: 0,
                    });
                    pc += 1;
                }
                Instr::Sparse {
                    index,
                    level,
                    parent,
                    adv,
                    end,
                } => {
                    let range = match self.parent_range(level, parent) {
                        Some(r) if !r.is_empty() => r,
                        // Empty fiber or off-pattern prefix: every
                        // covered contribution vanishes.
                        _ => {
                            pc = end;
                            continue;
                        }
                    };
                    let node = range.start;
                    let coord = self.csf.node_coord(level, node);
                    self.st.nodes[level] = node;
                    self.st.coords[index] = coord;
                    self.advance(adv, coord as isize);
                    self.push_frame(Frame {
                        instr: pc,
                        pos: node,
                        end: range.end,
                        prev: coord,
                    });
                    pc += 1;
                }
                Instr::EndLoop => {
                    let fi = self.st.fp - 1;
                    let f = self.st.frames[fi];
                    match instrs[f.instr] {
                        Instr::Dense {
                            index,
                            dim,
                            adv,
                            end,
                            ..
                        } => {
                            let x = f.pos + 1;
                            if x < dim {
                                // Root-frame advance = once per root
                                // subtree: the cancellation checkpoint.
                                if fi == 0 {
                                    if let Some(g) = self.guard {
                                        g.check("tape")?;
                                    }
                                }
                                self.st.frames[fi].pos = x;
                                self.st.coords[index] = x;
                                self.advance(adv, 1);
                                pc = f.instr + 1;
                            } else {
                                // Restore the coordinate-0 cursor state.
                                self.advance(adv, -(f.pos as isize));
                                self.st.coords[index] = 0;
                                self.st.fp = fi;
                                pc = end;
                            }
                        }
                        Instr::Sparse {
                            index,
                            level,
                            adv,
                            end,
                            ..
                        } => {
                            let node = f.pos + 1;
                            if node < f.end {
                                if fi == 0 {
                                    if let Some(g) = self.guard {
                                        g.check("tape")?;
                                    }
                                }
                                let coord = self.csf.node_coord(level, node);
                                self.st.nodes[level] = node;
                                self.st.coords[index] = coord;
                                self.advance(adv, coord as isize - f.prev as isize);
                                self.st.frames[fi].pos = node;
                                self.st.frames[fi].prev = coord;
                                pc = f.instr + 1;
                            } else {
                                self.advance(adv, -(f.prev as isize));
                                self.st.coords[index] = 0;
                                self.st.fp = fi;
                                pc = end;
                            }
                        }
                        _ => unreachable!("frame points at a loop header"),
                    }
                }
                Instr::Leaf {
                    left,
                    right,
                    tgt,
                    res,
                } => {
                    let node = self.node_of(res);
                    let v = self.read(left, node) * self.read(right, node);
                    self.cell(tgt, node, v);
                    pc += 1;
                }
                Instr::Dot {
                    n,
                    x,
                    y,
                    tgt,
                    res,
                    kern,
                    ..
                } => {
                    let node = self.node_of(res);
                    let v = {
                        let (xs, xi) = self.rslice(x);
                        let (ys, yi) = self.rslice(y);
                        kern(n, xs, xi, ys, yi)
                    };
                    self.stats.dot += 1;
                    self.stats.dot_elems += n as u64;
                    self.cell(tgt, node, v);
                    pc += 1;
                }
                Instr::Axpy {
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    res,
                    kern,
                    ..
                }
                | Instr::ZeroAxpy {
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    res,
                    kern,
                    ..
                } => {
                    let node = self.node_of(res);
                    let a = self.read(alpha, node);
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y);
                    let (xs, xi) = vec_in(*factors, reads, &st.cursors, x);
                    kern(n, a, xs, xi, tgt, y.inc);
                    stats.axpy += 1;
                    stats.axpy_elems += n as u64;
                    pc += 1;
                }
                Instr::Xmul {
                    n,
                    term,
                    x,
                    z,
                    y,
                    kern,
                }
                | Instr::ZeroXmul {
                    n,
                    term,
                    x,
                    z,
                    y,
                    kern,
                } => {
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y);
                    let (xs, xi) = vec_in(*factors, reads, &st.cursors, x);
                    let (zs, zi) = vec_in(*factors, reads, &st.cursors, z);
                    kern(n, 1.0, xs, xi, zs, zi, tgt, y.inc);
                    stats.xmul += 1;
                    stats.xmul_elems += n as u64;
                    pc += 1;
                }
                Instr::Ger {
                    m,
                    n,
                    term,
                    x,
                    y,
                    a,
                    kern,
                    ..
                }
                | Instr::ZeroGer {
                    m,
                    n,
                    term,
                    x,
                    y,
                    a,
                    kern,
                } => {
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let av = VecTgt {
                        out: a.out,
                        cur: a.cur,
                        inc: 0,
                    };
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, av);
                    let (xs, xi) = vec_in(*factors, reads, &st.cursors, x);
                    let (ys, yi) = vec_in(*factors, reads, &st.cursors, y);
                    kern(m, n, 1.0, xs, xi, ys, yi, tgt, a.rs, a.cs);
                    stats.ger += 1;
                    stats.ger_elems += (m * n) as u64;
                    pc += 1;
                }
                Instr::Gemv {
                    m,
                    n,
                    term,
                    a,
                    x,
                    y,
                    kern,
                    ..
                } => {
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y);
                    let (as_, ai) = mat_in(*factors, reads, &st.cursors, a);
                    let (xs, xi) = vec_in(*factors, reads, &st.cursors, x);
                    kern(m, n, 1.0, as_, ai.0, ai.1, xs, xi, tgt, y.inc);
                    stats.gemv += 1;
                    stats.gemv_elems += (m * n) as u64;
                    pc += 1;
                }
            }
        }
        debug_assert_eq!(self.st.fp, 0, "all loops exited");
        Ok(())
    }

    #[inline]
    fn push_frame(&mut self, f: Frame) {
        self.st.frames[self.st.fp] = f;
        self.st.fp += 1;
    }

    /// Apply one coordinate delta to every cursor a loop advances.
    #[inline]
    fn advance(&mut self, adv: AdvRange, delta: isize) {
        if delta == 0 {
            return;
        }
        for e in &self.tape.adv[adv.0 as usize..adv.1 as usize] {
            let c = &mut self.st.cursors[e.cur];
            *c = c.wrapping_add_signed(delta * e.stride as isize);
        }
    }

    /// Node range a sparse loop at `level` iterates; `None` when the
    /// enclosing coordinates are off-pattern.
    #[inline]
    fn parent_range(&mut self, level: usize, parent: ParentLoc) -> Option<Range<usize>> {
        match parent {
            ParentLoc::Root => Some(self.root.clone()),
            ParentLoc::Tracked(l) => Some(self.csf.children(l, self.st.nodes[l])),
            ParentLoc::Resolver(r) => {
                let node = self.resolve(r)?;
                Some(self.csf.children(level - 1, node))
            }
        }
    }

    /// CSF node for an instruction's sparse accesses.
    #[inline]
    fn node_of(&mut self, res: NodeRes) -> Option<usize> {
        match res {
            NodeRes::None => None,
            NodeRes::Tracked(l) => Some(self.st.nodes[l]),
            NodeRes::Resolver(r) => self.resolve(r),
        }
    }

    /// Run a resolver's descent program: tracked levels are direct
    /// reads, searched levels gallop forward from their finger.
    fn resolve(&mut self, rid: usize) -> Option<usize> {
        let spec = &self.tape.resolvers[rid];
        let mut node = usize::MAX;
        for (off, lev) in spec.levels.iter().enumerate() {
            let l = spec.start + off;
            match *lev {
                ResLevel::Tracked => node = self.st.nodes[l],
                ResLevel::Search { index, slot } => {
                    let (range, pkey) = if l == 0 {
                        (self.root.clone(), PARENT_ROOT)
                    } else {
                        (self.csf.children(l - 1, node), node)
                    };
                    let target = self.st.coords[index];
                    let mut fg = self.st.fingers[slot];
                    // A new parent invalidates the range; a decreased
                    // target means the enclosing dense sweep restarted.
                    // Either way the finger rewinds — monotonicity is
                    // an accelerant, not an assumption.
                    if fg.parent != pkey || target < fg.target {
                        fg.pos = range.start;
                    }
                    fg.parent = pkey;
                    fg.target = target;
                    self.stats.node_searches += 1;
                    let idx = &self.csf.level(l).idx;
                    let from = fg.pos.max(range.start);
                    match gallop(idx, from, range.end, target, &mut self.stats.search_probes) {
                        Ok(pos) => {
                            fg.pos = pos;
                            self.st.fingers[slot] = fg;
                            node = pos;
                        }
                        Err(lower) => {
                            fg.pos = lower;
                            self.st.fingers[slot] = fg;
                            return None;
                        }
                    }
                }
            }
        }
        Some(node)
    }

    /// Read a loop-invariant scalar source.
    #[inline]
    fn read(&self, r: Read, node: Option<usize>) -> f64 {
        match r {
            Read::Cursor { buf, cur } => {
                let off = self.st.cursors[cur];
                match buf {
                    RBuf::Factor(i) => self.factors.get(i).as_slice()[off],
                    RBuf::Inter(u) => self.buffers[u].as_slice()[off],
                }
            }
            Read::SparseVal => node.map_or(0.0, |n| self.csf.leaf_val(n)),
        }
    }

    /// Accumulate into a cell target.
    #[inline]
    fn cell(&mut self, tgt: Write, node: Option<usize>, v: f64) {
        match tgt {
            Write::Cell { out, term, cur } => {
                let off = self.st.cursors[cur];
                if out {
                    self.out_dense.as_mut_slice()[off] += v;
                } else {
                    self.buffers[term].as_mut_slice()[off] += v;
                }
            }
            Write::SparseCell => match node {
                Some(n) => self.out_sparse[n - self.leaf_lo] += v,
                // Off-pattern cell of a pattern-sharing output: exactly
                // zero by lineage pruning.
                None => debug_assert_eq!(v, 0.0),
            },
        }
    }

    /// Borrow a vector source slice (no mutable target in play).
    #[inline]
    fn rslice(&self, v: VecSrc) -> (&[f64], usize) {
        let off = self.st.cursors[v.cur];
        match v.buf {
            RBuf::Factor(i) => (&self.factors.get(i).as_slice()[off..], v.inc),
            RBuf::Inter(u) => (&self.buffers[u].as_slice()[off..], v.inc),
        }
    }
}

/// Split the buffers at `term` and borrow the mutable target slice
/// (the dense output, or `term`'s buffer); sources always live in
/// earlier buffers or factors, so the split is safe by the path's
/// producer-before-consumer order.
#[inline]
fn tgt_split<'b>(
    buffers: &'b mut [DenseTensor],
    out_dense: &'b mut DenseTensor,
    cursors: &[usize],
    term: usize,
    y: VecTgt,
) -> (&'b [DenseTensor], &'b mut [f64]) {
    let off = cursors[y.cur];
    let (reads, tail) = buffers.split_at_mut(term);
    let tgt: &'b mut [f64] = if y.out {
        &mut out_dense.as_mut_slice()[off..]
    } else {
        &mut tail[0].as_mut_slice()[off..]
    };
    (reads, tgt)
}

/// Borrow a vector source from the factor slots or the read-side
/// buffer split.
#[inline]
fn vec_in<'b>(
    factors: Slots<'b>,
    reads: &'b [DenseTensor],
    cursors: &[usize],
    v: VecSrc,
) -> (&'b [f64], usize) {
    let off = cursors[v.cur];
    match v.buf {
        RBuf::Factor(i) => (&factors.get(i).as_slice()[off..], v.inc),
        RBuf::Inter(u) => (&reads[u].as_slice()[off..], v.inc),
    }
}

/// Borrow a matrix source (returns the slice plus `(rs, cs)`).
#[inline]
fn mat_in<'b>(
    factors: Slots<'b>,
    reads: &'b [DenseTensor],
    cursors: &[usize],
    m: MatSrc,
) -> (&'b [f64], (usize, usize)) {
    let off = cursors[m.cur];
    match m.buf {
        RBuf::Factor(i) => (&factors.get(i).as_slice()[off..], (m.rs, m.cs)),
        RBuf::Inter(u) => (&reads[u].as_slice()[off..], (m.rs, m.cs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallop_finds_and_brackets() {
        let idx = [2usize, 3, 5, 8, 13, 21, 34];
        let mut probes = 0u64;
        // Hits from various fingers.
        assert_eq!(gallop(&idx, 0, idx.len(), 2, &mut probes), Ok(0));
        assert_eq!(gallop(&idx, 0, idx.len(), 34, &mut probes), Ok(6));
        assert_eq!(gallop(&idx, 3, idx.len(), 13, &mut probes), Ok(4));
        // Misses return the lower bound.
        assert_eq!(gallop(&idx, 0, idx.len(), 4, &mut probes), Err(2));
        assert_eq!(gallop(&idx, 2, idx.len(), 40, &mut probes), Err(7));
        assert_eq!(gallop(&idx, 0, 0, 1, &mut probes), Err(0));
        assert!(probes > 0);
        // A forward sweep from a finger is cheaper than cold binary
        // search: the next element costs exactly one probe.
        let mut p2 = 0u64;
        assert_eq!(gallop(&idx, 4, idx.len(), 13, &mut p2), Ok(4));
        assert_eq!(p2, 1);
    }

    #[test]
    fn gallop_restricted_range() {
        let idx = [1usize, 4, 7, 1, 3, 9]; // two sibling ranges
        let mut probes = 0u64;
        assert_eq!(gallop(&idx, 3, 6, 3, &mut probes), Ok(4));
        assert_eq!(gallop(&idx, 3, 6, 7, &mut probes), Err(5));
    }
}
