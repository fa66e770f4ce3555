//! Loop-forest interpreter.
//!
//! Executes a planned fused loop nest ([`LoopForest`]) over a CSF sparse
//! tensor and dense factor operands, producing the kernel output. The
//! interpreter realizes the paper's execution model directly:
//!
//! - **Sparse vertices** iterate the children of the current CSF node at
//!   their level; the descent is tracked per level, and when a sparse
//!   loop sits below a *densely* iterated sparse mode the node is
//!   re-resolved by binary search (absent coordinates contribute exactly
//!   zero, by the lineage-pruning argument of Sec. 4).
//! - **Dense vertices** iterate the full index dimension. Innermost
//!   dense loops covering a single term are dispatched to the
//!   [`crate::blas`] microkernels (AXPY/DOT/elementwise for one loop,
//!   GER/GEMV for two), mirroring the paper's Sec. 5 runtime.
//! - **Intermediate buffers** follow Eq. 5: each non-final term owns the
//!   dense buffer computed by [`spttn_ir::buffers_for_forest`]; the
//!   buffer is zeroed exactly at its split vertex — once per iteration
//!   of the deepest loop shared by producer and consumer — and indexed
//!   by the stored (non-ancestor) coordinates only.
//!
//! Execution is split into a *preallocation* stage and a *run* stage so
//! iterative algorithms (CP-ALS, HOOI) can execute the same nest many
//! times without touching the heap: a [`Workspace`] holds every
//! intermediate buffer plus the interpreter's cursor state, sized purely
//! from the plan (no operand data), and [`execute_forest_into`]
//! accumulates into a caller-owned output through [`OutputMut`]. The
//! one-shot [`execute_forest`] remains as a convenience wrapper that
//! allocates a fresh workspace and output per call.

use crate::blas;
use crate::guard::RunGuard;
use spttn_core::{Result, SpttnError};
use spttn_ir::{
    buffers_for_forest, BufferSpec, ContractionPath, IndexId, Kernel, LoopForest, LoopNode,
    LoopVertex, Operand, VertexKind,
};
use spttn_tensor::{CooTensor, Csf, CsfTile, DenseTensor};

/// Per-execution counters of microkernel dispatches and sparse-node
/// searches.
///
/// One instance lives in every [`Workspace`]; [`execute_forest_into`]
/// resets it at the start of each run, so after a call the workspace's
/// stats describe exactly that execution. Parallel runs aggregate one
/// instance per worker with [`ExecStats::merge`]. The counters are
/// plain `u64`s bumped on the executing thread — the hot loops touch
/// **no atomics**; the process-global [`stats::snapshot`] shim is fed
/// once per execution, at fold time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// AXPY dispatches.
    pub axpy: u64,
    /// DOT dispatches.
    pub dot: u64,
    /// Elementwise ternary dispatches.
    pub xmul: u64,
    /// GER dispatches.
    pub ger: u64,
    /// GEMV dispatches.
    pub gemv: u64,
    /// Sparse-node re-resolutions: one per CSF level that had to be
    /// searched (rather than tracked by an enclosing sparse loop).
    pub node_searches: u64,
    /// Coordinate comparisons performed by those searches — binary
    /// search depth on the interpreter, galloping finger probes on the
    /// tape engine (see [`crate::tape`]).
    pub search_probes: u64,
    /// Elements processed by AXPY dispatches (Σ n per call).
    pub axpy_elems: u64,
    /// Elements processed by DOT dispatches (Σ n per call).
    pub dot_elems: u64,
    /// Elements processed by elementwise ternary dispatches.
    pub xmul_elems: u64,
    /// Elements processed by GER dispatches (Σ m·n per call).
    pub ger_elems: u64,
    /// Elements processed by GEMV dispatches (Σ m·n per call).
    pub gemv_elems: u64,
}

impl ExecStats {
    /// Add another counter set into this one (aggregation across
    /// parallel workers).
    pub fn merge(&mut self, other: &ExecStats) {
        self.axpy += other.axpy;
        self.dot += other.dot;
        self.xmul += other.xmul;
        self.ger += other.ger;
        self.gemv += other.gemv;
        self.node_searches += other.node_searches;
        self.search_probes += other.search_probes;
        self.axpy_elems += other.axpy_elems;
        self.dot_elems += other.dot_elems;
        self.xmul_elems += other.xmul_elems;
        self.ger_elems += other.ger_elems;
        self.gemv_elems += other.gemv_elems;
    }

    /// Total microkernel dispatches (searches are not dispatches and
    /// are excluded).
    pub fn total(&self) -> u64 {
        self.axpy + self.dot + self.xmul + self.ger + self.gemv
    }

    /// Total elements processed across all microkernel dispatches —
    /// the per-call work the call counts in [`ExecStats::total`] hide.
    pub fn elems(&self) -> u64 {
        self.axpy_elems + self.dot_elems + self.xmul_elems + self.ger_elems + self.gemv_elems
    }

    /// Floating-point operations implied by the element counters (two
    /// flops — one multiply, one add — per element for every kernel;
    /// XMUL's extra multiply makes it three).
    pub fn flops(&self) -> u64 {
        2 * (self.axpy_elems + self.dot_elems + self.ger_elems + self.gemv_elems)
            + 3 * self.xmul_elems
    }
}

/// Process-wide counters of microkernel dispatches, for tests and
/// perf diagnostics. Monotonically increasing; read with
/// [`stats::snapshot`] and compare before/after deltas. This is the
/// compat shim over atomic totals — per-execution numbers live in
/// [`ExecStats`] (see [`Workspace::stats`]).
///
/// The shim is fed by an internal fold, called exactly once per
/// (serial or per-tile) execution after the run completes. Hot loops
/// never touch these atomics; [`stats::rmw_ops`] counts the individual
/// atomic read-modify-write operations so tests can assert the
/// fold-only contract (a handful of RMWs per execution, independent of
/// how many microkernels dispatched).
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static AXPY: AtomicU64 = AtomicU64::new(0);
    pub(crate) static DOT: AtomicU64 = AtomicU64::new(0);
    pub(crate) static XMUL: AtomicU64 = AtomicU64::new(0);
    pub(crate) static GER: AtomicU64 = AtomicU64::new(0);
    pub(crate) static GEMV: AtomicU64 = AtomicU64::new(0);
    /// Meta-counter of atomic RMWs performed on the dispatch counters.
    static RMW_OPS: AtomicU64 = AtomicU64::new(0);

    /// Cumulative dispatch counts since process start.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Snapshot {
        /// AXPY dispatches.
        pub axpy: u64,
        /// DOT dispatches.
        pub dot: u64,
        /// Elementwise ternary dispatches.
        pub xmul: u64,
        /// GER dispatches.
        pub ger: u64,
        /// GEMV dispatches.
        pub gemv: u64,
    }

    /// Read the counters.
    pub fn snapshot() -> Snapshot {
        Snapshot {
            axpy: AXPY.load(Ordering::Relaxed),
            dot: DOT.load(Ordering::Relaxed),
            xmul: XMUL.load(Ordering::Relaxed),
            ger: GER.load(Ordering::Relaxed),
            gemv: GEMV.load(Ordering::Relaxed),
        }
    }

    /// Number of atomic read-modify-writes ever performed on the
    /// dispatch counters. A fold performs at most five (one per
    /// nonzero counter), so over any execution window this grows by
    /// `O(executions)`, never `O(dispatches)` — the no-alloc test
    /// asserts exactly that.
    pub fn rmw_ops() -> u64 {
        RMW_OPS.load(Ordering::Relaxed)
    }

    /// Fold one execution's counters into the global shim (called once
    /// per serial execution / per parallel tile, after the run).
    pub(crate) fn fold(s: &super::ExecStats) {
        let add = |c: &AtomicU64, v: u64| {
            if v != 0 {
                c.fetch_add(v, Ordering::Relaxed);
                RMW_OPS.fetch_add(1, Ordering::Relaxed);
            }
        };
        add(&AXPY, s.axpy);
        add(&DOT, s.dot);
        add(&XMUL, s.xmul);
        add(&GER, s.ger);
        add(&GEMV, s.gemv);
    }
}

/// Output of a contraction: dense, or sharing the sparse input's pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractionOutput {
    /// Dense output tensor (MTTKRP, TTMc, ...).
    Dense(DenseTensor),
    /// Pattern-sharing sparse output (TTTP / SDDMM-like), in COO form
    /// with the sparse input's coordinates.
    Sparse(CooTensor),
}

impl ContractionOutput {
    /// Densify (cheap for dense, materializes for sparse outputs).
    pub fn to_dense(&self) -> DenseTensor {
        match self {
            ContractionOutput::Dense(t) => t.clone(),
            ContractionOutput::Sparse(c) => c.to_dense(),
        }
    }

    /// Borrow the dense output, if this is one.
    pub fn as_dense(&self) -> Option<&DenseTensor> {
        match self {
            ContractionOutput::Dense(t) => Some(t),
            ContractionOutput::Sparse(_) => None,
        }
    }
}

/// Slot-ordered factor access: the executor hands an owned slice, the
/// one-shot wrapper hands borrowed references — neither path copies
/// tensor data. The sparse slot's entry is never read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slots<'a> {
    /// One owned tensor per kernel input slot.
    Owned(&'a [DenseTensor]),
    /// One borrowed tensor per kernel input slot.
    Refs(&'a [&'a DenseTensor]),
}

impl<'a> Slots<'a> {
    #[inline]
    pub(crate) fn get(self, slot: usize) -> &'a DenseTensor {
        match self {
            Slots::Owned(s) => &s[slot],
            Slots::Refs(r) => r[slot],
        }
    }

    #[inline]
    fn len(self) -> usize {
        match self {
            Slots::Owned(s) => s.len(),
            Slots::Refs(r) => r.len(),
        }
    }
}

/// Check that the CSF's per-level dimensions match the kernel's written
/// index order. Shared by every operand validator so they cannot drift.
fn validate_csf_dims(kernel: &Kernel, csf: &Csf) -> Result<()> {
    let sparse_ref = kernel.sparse_ref();
    if csf.order() != sparse_ref.indices.len() {
        return Err(SpttnError::Shape(format!(
            "sparse tensor '{}' has {} modes in the kernel but the CSF has {}",
            sparse_ref.name,
            sparse_ref.indices.len(),
            csf.order()
        )));
    }
    for level in 0..csf.order() {
        let want = kernel.dim(kernel.index_at_level(level));
        let got = csf.dims()[csf.mode_order()[level]];
        if want != got {
            return Err(SpttnError::Shape(format!(
                "sparse mode at CSF level {level} has dimension {got}, kernel expects {want}"
            )));
        }
    }
    Ok(())
}

/// Check one dense factor against its kernel reference, allocation-free
/// on the success path.
fn validate_factor(kernel: &Kernel, r: &spttn_ir::TensorRef, t: &DenseTensor) -> Result<()> {
    if t.order() != r.indices.len()
        || r.indices
            .iter()
            .enumerate()
            .any(|(pos, &i)| t.dims()[pos] != kernel.dim(i))
    {
        return Err(SpttnError::Shape(format!(
            "factor '{}' has dims {:?}, kernel expects {:?}",
            r.name,
            t.dims(),
            kernel.ref_dims(r)
        )));
    }
    Ok(())
}

/// Validate bound operands against a kernel: factor count, per-level
/// CSF dimensions (the CSF must be stored in the kernel's written index
/// order for the sparse tensor), and dense factor shapes. Shared by the
/// executor and the `spttn` facade so the two cannot drift.
pub fn validate_operands(kernel: &Kernel, csf: &Csf, dense_factors: &[&DenseTensor]) -> Result<()> {
    let n_dense = kernel.inputs.len() - 1;
    if dense_factors.len() != n_dense {
        return Err(SpttnError::Execution(format!(
            "expected {n_dense} dense factors, got {}",
            dense_factors.len()
        )));
    }
    validate_csf_dims(kernel, csf)?;
    let mut next = 0usize;
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        validate_factor(kernel, r, dense_factors[next])?;
        next += 1;
    }
    Ok(())
}

pub(crate) fn validate_slots(kernel: &Kernel, csf: &Csf, slots: Slots<'_>) -> Result<()> {
    if slots.len() != kernel.inputs.len() {
        return Err(SpttnError::Execution(format!(
            "expected {} slot-ordered factors, got {}",
            kernel.inputs.len(),
            slots.len()
        )));
    }
    validate_csf_dims(kernel, csf)?;
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        validate_factor(kernel, r, slots.get(slot))?;
    }
    Ok(())
}

/// Validate *slot-ordered* operands against a kernel: one tensor per
/// kernel input slot (the sparse slot holds an ignored placeholder).
/// Allocation-free on the success path so it can run per execution.
pub fn validate_slotted_operands(
    kernel: &Kernel,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
) -> Result<()> {
    validate_slots(kernel, csf, Slots::Owned(factors_by_slot))
}

/// Preallocated mutable state for repeated executions of one plan.
///
/// Holds every Eq.-5 intermediate buffer plus the interpreter's cursor
/// arrays, sized purely from `(kernel, path, forest)` — no operand data
/// is needed, so a workspace can be built before any tensor is bound.
/// After construction, [`execute_forest_into`] performs no heap
/// allocation.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Per term: the Eq.-5 buffer (scalar placeholder for the final term).
    pub(crate) buffers: Vec<DenseTensor>,
    /// Stored index ids of each term's buffer (producer loop order).
    pub(crate) buffer_inds: Vec<Vec<IndexId>>,
    /// Current coordinate per kernel index.
    coords: Vec<usize>,
    /// Current CSF node per tree level (set by enclosing sparse loops).
    nodes: Vec<Option<usize>>,
    /// Dummy dense target used when the kernel's output is sparse.
    pub(crate) scratch_dense: DenseTensor,
    /// Microkernel dispatch counters of the most recent execution.
    pub(crate) stats: ExecStats,
    /// Fingerprint of the forest the buffers were sized for, so
    /// [`execute_forest_into`] can reject a workspace built for a
    /// different nest (whose buffer shapes would silently disagree).
    pub(crate) forest_stamp: u64,
    /// Preallocated mutable state of the tape engine, present once
    /// [`Workspace::prepare_tape`] ran (the executors do this at bind
    /// time so tape executions stay allocation-free).
    pub(crate) tape: Option<crate::tape::TapeState>,
}

/// Structural fingerprint of a loop forest (allocation-free).
pub(crate) fn forest_stamp(forest: &LoopForest) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    forest.hash(&mut h);
    h.finish()
}

impl Workspace {
    /// Build a workspace for a planned nest, inferring buffer specs via
    /// [`buffers_for_forest`] without a profile (producer-order layout).
    pub fn new(kernel: &Kernel, path: &ContractionPath, forest: &LoopForest) -> Self {
        Self::from_specs(
            kernel,
            path,
            forest,
            &buffers_for_forest(kernel, path, forest, None),
        )
    }

    /// Build a workspace from precomputed buffer specs (e.g. the specs a
    /// symbolic plan carries); `forest` must be the nest the specs were
    /// computed for.
    pub fn from_specs(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
    ) -> Self {
        let mut buffers: Vec<DenseTensor> =
            (0..path.len()).map(|_| DenseTensor::zeros(&[])).collect();
        let mut buffer_inds: Vec<Vec<IndexId>> = vec![Vec::new(); path.len()];
        for spec in specs {
            buffers[spec.producer] = DenseTensor::zeros(&spec.dims);
            buffer_inds[spec.producer] = spec.inds.clone();
        }
        Workspace {
            buffers,
            buffer_inds,
            coords: vec![0; kernel.num_indices()],
            nodes: vec![None; kernel.csf_index_order().len()],
            scratch_dense: DenseTensor::zeros(&[]),
            stats: ExecStats::default(),
            forest_stamp: forest_stamp(forest),
            tape: None,
        }
    }

    /// Preallocate the mutable runtime state of a compiled tape (see
    /// [`crate::tape::CompiledTape`]) inside this workspace, so tape
    /// executions after this call perform zero heap allocations. The
    /// workspace must have been built for the same plan the tape was
    /// compiled from. Idempotent for a matching tape; a state prepared
    /// for a different tape is replaced.
    pub fn prepare_tape(&mut self, tape: &crate::tape::CompiledTape) {
        if !self.tape.as_ref().is_some_and(|s| s.matches(tape)) {
            self.tape = Some(tape.new_state());
        }
    }

    /// Microkernel dispatch counters of the most recent execution run
    /// with this workspace.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The intermediate buffers, one per path term (final term holds a
    /// scalar placeholder). Exposed so callers can assert allocation
    /// stability across executions.
    pub fn buffers(&self) -> &[DenseTensor] {
        &self.buffers
    }

    /// Total preallocated intermediate elements.
    pub fn total_elems(&self) -> usize {
        self.buffers.iter().map(DenseTensor::len).sum()
    }
}

/// A caller-owned output target for [`execute_forest_into`].
#[derive(Debug)]
pub enum OutputMut<'a> {
    /// Dense output tensor, shaped like the kernel output.
    Dense(&'a mut DenseTensor),
    /// Values of a pattern-sharing sparse output, parallel with the
    /// CSF's leaves.
    Sparse(&'a mut [f64]),
}

/// Execute a fused loop forest into a caller-owned output, reusing a
/// preallocated [`Workspace`].
///
/// `factors_by_slot` holds one tensor per kernel input slot; the entry
/// at `kernel.sparse_input` is never read (pass any placeholder).
/// Contributions are **accumulated** into `out` — the caller zeroes it
/// first for plain `=` semantics, or leaves existing values in place for
/// `+=` accumulation. After the workspace exists, this function performs
/// zero heap allocations on the success path.
pub fn execute_forest_into(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    execute_forest_into_guarded(kernel, path, forest, csf, factors_by_slot, ws, out, None)
}

/// [`execute_forest_into`] with a cancellation/deadline guard, checked
/// once up front and then at every root-loop iteration, so cancellation
/// latency is bounded by one root subtree.
#[allow(clippy::too_many_arguments)]
pub fn execute_forest_into_guarded(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    execute_slots(
        kernel,
        path,
        forest,
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

/// Execute a fused loop forest over one [`CsfTile`] of the sparse
/// tensor, reusing a preallocated [`Workspace`].
///
/// Identical to [`execute_forest_into`] but restricted to the tile's
/// root subtrees: only the tile's root fibers are iterated (and binary
/// searches for densely-iterated sparse root modes are confined to the
/// tile), so the call computes exactly the tile's additive contribution
/// to the full contraction. A dense `out` receives that partial sum; a
/// sparse `out` must be the slice of output values covering exactly the
/// tile's [`CsfTile::leaf_range`] (tiles write disjoint leaf ranges, so
/// pattern-sharing outputs need no cross-tile reduction). Executing
/// every tile of a [`Csf::partition`] and summing dense partials in a
/// fixed order reproduces the full result deterministically.
#[allow(clippy::too_many_arguments)]
pub fn execute_forest_tile_into(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    tile: &CsfTile,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    execute_forest_tile_into_guarded(
        kernel,
        path,
        forest,
        csf,
        tile,
        factors_by_slot,
        ws,
        out,
        None,
    )
}

/// [`execute_forest_tile_into`] with a cancellation/deadline guard (see
/// [`execute_forest_into_guarded`] for the checkpoint cadence).
#[allow(clippy::too_many_arguments)]
pub fn execute_forest_tile_into_guarded(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
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
    execute_slots(
        kernel,
        path,
        forest,
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

/// Validate an output target against a kernel: dense/sparse kind, the
/// dense dimensions, or the sparse value count (`leaf_len` nonzeros —
/// the whole tensor for a full execution, one tile's leaves for a tiled
/// one). Allocation-free on the success path; shared by the serial core
/// and the parallel executor so the two cannot drift.
pub(crate) fn validate_output(kernel: &Kernel, out: &OutputMut<'_>, leaf_len: usize) -> Result<()> {
    match out {
        OutputMut::Dense(d) => {
            if kernel.output_sparse {
                return Err(SpttnError::Execution(
                    "kernel output shares the sparse pattern; pass OutputMut::Sparse".into(),
                ));
            }
            let oinds = &kernel.output.indices;
            if d.order() != oinds.len()
                || oinds
                    .iter()
                    .enumerate()
                    .any(|(pos, &i)| d.dims()[pos] != kernel.dim(i))
            {
                return Err(SpttnError::Shape(format!(
                    "output has dims {:?}, kernel expects {:?}",
                    d.dims(),
                    kernel.ref_dims(&kernel.output)
                )));
            }
        }
        OutputMut::Sparse(v) => {
            if !kernel.output_sparse {
                return Err(SpttnError::Execution(
                    "kernel output is dense; pass OutputMut::Dense".into(),
                ));
            }
            if v.len() != leaf_len {
                return Err(SpttnError::Shape(format!(
                    "sparse output has {} values, the executed range has {} nonzeros",
                    v.len(),
                    leaf_len
                )));
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_slots(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    root_range: std::ops::Range<usize>,
    leaf_lo: usize,
    leaf_len: usize,
    slots: Slots<'_>,
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    validate_slots(kernel, csf, slots)?;
    validate_output(kernel, &out, leaf_len)?;
    if ws.buffers.len() != path.len()
        || ws.coords.len() != kernel.num_indices()
        || ws.forest_stamp != forest_stamp(forest)
    {
        return Err(SpttnError::Execution(
            "workspace does not match the plan (build it from the same kernel/path/forest)".into(),
        ));
    }
    ws.stats = ExecStats::default();
    let Workspace {
        buffers,
        buffer_inds,
        coords,
        nodes,
        scratch_dense,
        stats,
        ..
    } = ws;
    let (out_dense, out_sparse): (&mut DenseTensor, &mut [f64]) = match out {
        OutputMut::Dense(d) => (d, &mut []),
        OutputMut::Sparse(v) => (scratch_dense, v),
    };
    let mut exec = Exec {
        kernel,
        path,
        forest,
        csf,
        root_range,
        leaf_lo,
        factors: slots,
        buffers,
        buffer_inds,
        coords,
        nodes,
        out_dense,
        out_sparse,
        stats,
        node_searches: std::cell::Cell::new(0),
        search_probes: std::cell::Cell::new(0),
        // A no-op guard costs a branch per root iteration; skip it.
        guard: guard.filter(|g| !g.is_noop()),
    };
    let res = exec.run();
    exec.stats.node_searches += exec.node_searches.get();
    exec.stats.search_probes += exec.search_probes.get();
    if res.is_ok() {
        // Feed the global compat shim exactly once per execution — the
        // hot loops above touched no atomics.
        stats::fold(&ws.stats());
    }
    res
}

/// Execute a fused loop forest, allocating a fresh workspace and output.
///
/// `dense_factors` holds one tensor per *non-sparse* kernel input, in
/// input order (the sparse slot is skipped); `csf` is the sparse input,
/// stored in the mode order the kernel's written index order declares.
/// This is the one-shot convenience path; reuse-heavy callers should
/// hold a [`Workspace`] and call [`execute_forest_into`] instead.
pub fn execute_forest(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    dense_factors: &[&DenseTensor],
) -> Result<ContractionOutput> {
    validate_operands(kernel, csf, dense_factors)?;
    // Slot-ordered *references* — no tensor data is copied.
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
    if kernel.output_sparse {
        let mut vals = vec![0.0; csf.nnz()];
        execute_slots(
            kernel,
            path,
            forest,
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
        execute_slots(
            kernel,
            path,
            forest,
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

/// Offset of the current coordinates within a tensor addressed by
/// `inds` (one index id per tensor mode, matching `strides`).
fn offset_in(inds: &[IndexId], strides: &[usize], coords: &[usize]) -> usize {
    inds.iter().zip(strides).map(|(&i, &s)| coords[i] * s).sum()
}

/// Which backing store a strided source lives in.
#[derive(Debug, Clone, Copy)]
enum BufSel {
    /// Dense factor input (kernel input slot).
    Factor(usize),
    /// Intermediate buffer of a term.
    Inter(usize),
}

/// Source operand metadata for microkernel dispatch, relative to one or
/// two candidate loop indices.
#[derive(Debug, Clone, Copy)]
enum SrcMeta {
    /// Constant under both loops (includes the sparse leaf value).
    Const(f64),
    /// Strided access: `data[base + i*s1 + j*s2]`.
    Var {
        buf: BufSel,
        base: usize,
        s1: usize,
        has1: bool,
        s2: usize,
        has2: bool,
    },
}

/// Target metadata for microkernel dispatch.
#[derive(Debug, Clone, Copy)]
enum TgtMeta {
    /// Scalar accumulation cell (loop indices contracted away).
    Cell,
    /// Strided target in the dense output or a term buffer.
    Var {
        out: bool,
        base: usize,
        s1: usize,
        has1: bool,
        s2: usize,
        has2: bool,
    },
}

struct Exec<'a> {
    kernel: &'a Kernel,
    path: &'a ContractionPath,
    forest: &'a LoopForest,
    csf: &'a Csf,
    /// Root fibers this execution covers (the whole tree for the serial
    /// path, one tile's subrange under parallel execution).
    root_range: std::ops::Range<usize>,
    /// First leaf of the covered root subtrees; sparse-output writes are
    /// offset by this so a tile writes its disjoint slice.
    leaf_lo: usize,
    /// Per kernel-input slot; the sparse slot holds an unread placeholder.
    factors: Slots<'a>,
    /// Per term; placeholder scalar for the final term.
    buffers: &'a mut [DenseTensor],
    /// Stored index ids of each term's buffer (producer loop order).
    buffer_inds: &'a [Vec<IndexId>],
    /// Current coordinate per kernel index.
    coords: &'a mut [usize],
    /// Current CSF node per tree level (set by enclosing sparse loops).
    nodes: &'a mut [Option<usize>],
    /// Dense output target (workspace scratch when the output is sparse).
    out_dense: &'a mut DenseTensor,
    /// Sparse output values (empty when the output is dense), covering
    /// leaves `leaf_lo..leaf_lo + out_sparse.len()`.
    out_sparse: &'a mut [f64],
    /// Per-execution microkernel dispatch counters (workspace-owned).
    stats: &'a mut ExecStats,
    /// Search counters, in `Cell`s because [`Exec::resolve_node`] runs
    /// under shared borrows; folded into `stats` after the run.
    node_searches: std::cell::Cell<u64>,
    search_probes: std::cell::Cell<u64>,
    /// Cancellation/deadline checkpoints, consulted at root-loop
    /// iterations only (`None` disables checking entirely).
    guard: Option<&'a RunGuard>,
}

/// Binary search for `target` in a sorted, duplicate-free slice,
/// counting the coordinate comparisons performed (the interpreter's
/// per-visit search depth, reported as [`ExecStats::search_probes`]).
fn binary_search_counting(idx: &[usize], target: usize, probes: &mut u64) -> Option<usize> {
    let (mut lo, mut hi) = (0usize, idx.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *probes += 1;
        match idx[mid].cmp(&target) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(mid),
        }
    }
    None
}

impl<'a> Exec<'a> {
    fn run(&mut self) -> Result<()> {
        if let Some(g) = self.guard {
            g.check("interp")?;
        }
        let roots = &self.forest.roots;
        self.exec_siblings(roots, self.path.len(), true)
    }

    /// Term range covered by a node.
    fn node_range(n: &LoopNode) -> (usize, usize) {
        match n {
            LoopNode::Leaf(t) => (*t, *t + 1),
            LoopNode::Loop(v) => (v.term_lo, v.term_hi),
        }
    }

    /// Execute a sibling list whose parent covers terms ending at
    /// `parent_hi`, zeroing each buffer at its split point: a buffer
    /// splits here when its producer is inside a child and its consumer
    /// is a later sibling (Eq. 5's common-ancestor rule).
    fn exec_siblings(&mut self, nodes: &[LoopNode], parent_hi: usize, at_root: bool) -> Result<()> {
        for n in nodes {
            let (lo, hi) = Self::node_range(n);
            for t in lo..hi {
                if let Some(c) = self.path.terms[t].consumer {
                    if c >= hi && c < parent_hi {
                        self.buffers[t].fill_zero();
                    }
                }
            }
            self.exec_node(n, at_root)?;
        }
        Ok(())
    }

    fn exec_node(&mut self, n: &LoopNode, at_root: bool) -> Result<()> {
        match n {
            LoopNode::Leaf(t) => {
                let term = &self.path.terms[*t];
                let l = self.read_operand(term.left);
                let r = self.read_operand(term.right);
                self.accumulate_cell(*t, l * r);
                Ok(())
            }
            LoopNode::Loop(v) => self.exec_loop(v, at_root),
        }
    }

    fn exec_loop(&mut self, v: &LoopVertex, at_root: bool) -> Result<()> {
        if self.try_blas(v)? {
            return Ok(());
        }
        match v.kind {
            VertexKind::Dense => {
                for x in 0..self.kernel.dim(v.index) {
                    // Root-loop iteration = the cancellation checkpoint:
                    // once per root subtree, never on inner loops.
                    if at_root {
                        if let Some(g) = self.guard {
                            g.check("interp")?;
                        }
                    }
                    self.coords[v.index] = x;
                    self.exec_siblings(&v.children, v.term_hi, false)?;
                }
            }
            VertexKind::Sparse { level } => {
                let Some(range) = self.level_range(level) else {
                    // Coordinate prefix absent from the pattern: every
                    // covered term is prunable, contributions vanish.
                    return Ok(());
                };
                for node in range {
                    if at_root {
                        if let Some(g) = self.guard {
                            g.check("interp")?;
                        }
                    }
                    self.coords[v.index] = self.csf.node_coord(level, node);
                    self.nodes[level] = Some(node);
                    self.exec_siblings(&v.children, v.term_hi, false)?;
                }
                self.nodes[level] = None;
            }
        }
        Ok(())
    }

    /// Node range a sparse loop at `level` iterates, under the current
    /// descent; `None` when the enclosing coordinates are off-pattern.
    /// Level 0 is confined to the executed root range, so a tiled run
    /// sees only its own subtrees.
    fn level_range(&self, level: usize) -> Option<std::ops::Range<usize>> {
        if level == 0 {
            Some(self.root_range.clone())
        } else {
            let parent = self.resolve_node(level - 1)?;
            Some(self.csf.children(level - 1, parent))
        }
    }

    /// CSF node at `level` for the current coordinates: tracked nodes
    /// where an enclosing sparse loop set them, binary search where a
    /// sparse mode was iterated densely (confined to the executed root
    /// range at level 0 — roots outside the tile contribute zero here,
    /// and exactly once in the tile that owns them).
    fn resolve_node(&self, level: usize) -> Option<usize> {
        let mut node: Option<usize> = None;
        for l in 0..=level {
            if let Some(n) = self.nodes[l] {
                node = Some(n);
                continue;
            }
            let range = if l == 0 {
                self.root_range.clone()
            } else {
                self.csf.children(l - 1, node?)
            };
            let target = self.coords[self.kernel.index_at_level(l)];
            let idx = &self.csf.level(l).idx[range.clone()];
            self.node_searches.set(self.node_searches.get() + 1);
            let mut probes = self.search_probes.get();
            let found = binary_search_counting(idx, target, &mut probes);
            self.search_probes.set(probes);
            match found {
                Some(pos) => node = Some(range.start + pos),
                None => return None,
            }
        }
        node
    }

    /// Read an operand's value at the current coordinates.
    fn read_operand(&self, op: Operand) -> f64 {
        match op {
            Operand::Input(i) if i == self.kernel.sparse_input => self
                .resolve_node(self.csf.order() - 1)
                .map_or(0.0, |n| self.csf.leaf_val(n)),
            Operand::Input(i) => {
                let f = self.factors.get(i);
                let off = offset_in(&self.kernel.inputs[i].indices, f.strides(), self.coords);
                f.as_slice()[off]
            }
            Operand::Inter(u) => {
                let b = &self.buffers[u];
                let off = offset_in(&self.buffer_inds[u], b.strides(), self.coords);
                b.as_slice()[off]
            }
        }
    }

    /// Accumulate a term's contribution at the current coordinates.
    fn accumulate_cell(&mut self, t: usize, v: f64) {
        if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                match self.resolve_node(self.csf.order() - 1) {
                    Some(n) => self.out_sparse[n - self.leaf_lo] += v,
                    // Off-pattern cell of a pattern-sharing output: the
                    // contribution is exactly zero by lineage pruning.
                    None => debug_assert_eq!(v, 0.0),
                }
            } else {
                let off = offset_in(
                    &self.kernel.output.indices,
                    self.out_dense.strides(),
                    self.coords,
                );
                self.out_dense.as_mut_slice()[off] += v;
            }
        } else {
            let off = offset_in(&self.buffer_inds[t], self.buffers[t].strides(), self.coords);
            self.buffers[t].as_mut_slice()[off] += v;
        }
    }

    // ----- BLAS microkernel dispatch ---------------------------------

    /// Dispatch an innermost dense loop (or dense loop pair) covering a
    /// single term to a BLAS microkernel. Returns `false` when the shape
    /// does not match a kernel; the generic interpreter then handles it
    /// (and inner vertices get their own dispatch chance).
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

    /// Source metadata w.r.t. loop indices `q1` (and optionally `q2`).
    fn src_meta(&self, op: Operand, q1: IndexId, q2: Option<IndexId>) -> SrcMeta {
        let (buf, inds, strides): (BufSel, &[IndexId], &[usize]) = match op {
            Operand::Input(i) if i == self.kernel.sparse_input => {
                return SrcMeta::Const(self.read_operand(op));
            }
            Operand::Input(i) => {
                let f = self.factors.get(i);
                (
                    BufSel::Factor(i),
                    &self.kernel.inputs[i].indices,
                    f.strides(),
                )
            }
            Operand::Inter(u) => (
                BufSel::Inter(u),
                &self.buffer_inds[u],
                self.buffers[u].strides(),
            ),
        };
        let mut base = 0usize;
        let (mut s1, mut has1, mut s2, mut has2) = (0usize, false, 0usize, false);
        for (pos, &ind) in inds.iter().enumerate() {
            if ind == q1 {
                s1 = strides[pos];
                has1 = true;
            } else if Some(ind) == q2 {
                s2 = strides[pos];
                has2 = true;
            } else {
                base += self.coords[ind] * strides[pos];
            }
        }
        if !has1 && !has2 {
            SrcMeta::Const(self.read_operand(op))
        } else {
            SrcMeta::Var {
                buf,
                base,
                s1,
                has1,
                s2,
                has2,
            }
        }
    }

    /// Target metadata; `None` means dispatch is unsupported (sparse
    /// pattern-sharing output indexed by a loop index).
    fn tgt_meta(&self, t: usize, q1: IndexId, q2: Option<IndexId>) -> Option<TgtMeta> {
        let (out, inds, strides): (bool, &[IndexId], &[usize]) = if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                let oi = self.path.terms[t].out_inds;
                if oi.contains(q1) || q2.is_some_and(|q| oi.contains(q)) {
                    return None;
                }
                return Some(TgtMeta::Cell);
            }
            (true, &self.kernel.output.indices, self.out_dense.strides())
        } else {
            (false, &self.buffer_inds[t], self.buffers[t].strides())
        };
        let mut base = 0usize;
        let (mut s1, mut has1, mut s2, mut has2) = (0usize, false, 0usize, false);
        for (pos, &ind) in inds.iter().enumerate() {
            if ind == q1 {
                s1 = strides[pos];
                has1 = true;
            } else if Some(ind) == q2 {
                s2 = strides[pos];
                has2 = true;
            } else {
                base += self.coords[ind] * strides[pos];
            }
        }
        if has1 || has2 {
            Some(TgtMeta::Var {
                out,
                base,
                s1,
                has1,
                s2,
                has2,
            })
        } else {
            Some(TgtMeta::Cell)
        }
    }

    /// One dense loop over `q`, single term `t`: AXPY / elementwise /
    /// DOT dispatch.
    fn blas1(&mut self, q: IndexId, t: usize) -> Result<bool> {
        let n = self.kernel.dim(q);
        let term = &self.path.terms[t];
        let lm = self.src_meta(term.left, q, None);
        let rm = self.src_meta(term.right, q, None);
        let Some(tm) = self.tgt_meta(t, q, None) else {
            return Ok(false);
        };
        match tm {
            TgtMeta::Cell => {
                // Σ_q l[q]·r[q] into a scalar cell: DOT.
                if let (
                    SrcMeta::Var {
                        buf: lb,
                        base: lbase,
                        s1: ls,
                        ..
                    },
                    SrcMeta::Var {
                        buf: rb,
                        base: rbase,
                        s1: rs,
                        ..
                    },
                ) = (lm, rm)
                {
                    let v = {
                        let (reads, _) = self.buffers.split_at(t);
                        let x = slice_of(self.factors, reads, lb, lbase);
                        let y = slice_of(self.factors, reads, rb, rbase);
                        blas::dot(n, x, ls, y, rs)
                    };
                    self.stats.dot += 1;
                    self.stats.dot_elems += n as u64;
                    self.accumulate_cell(t, v);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            TgtMeta::Var {
                out,
                base: tbase,
                s1: ts,
                ..
            } => {
                let factors = self.factors;
                let Exec {
                    buffers,
                    out_dense,
                    stats: run_stats,
                    ..
                } = self;
                let (reads, tail) = buffers.split_at_mut(t);
                let tgt: &mut [f64] = if out {
                    &mut out_dense.as_mut_slice()[tbase..]
                } else {
                    &mut tail[0].as_mut_slice()[tbase..]
                };
                match (lm, rm) {
                    (SrcMeta::Var { buf, base, s1, .. }, SrcMeta::Const(c))
                    | (SrcMeta::Const(c), SrcMeta::Var { buf, base, s1, .. }) => {
                        let x = slice_of(factors, reads, buf, base);
                        blas::axpy(n, c, x, s1, tgt, ts);
                        run_stats.axpy += 1;
                        run_stats.axpy_elems += n as u64;
                        Ok(true)
                    }
                    (
                        SrcMeta::Var {
                            buf: lb,
                            base: lbase,
                            s1: ls,
                            ..
                        },
                        SrcMeta::Var {
                            buf: rb,
                            base: rbase,
                            s1: rs,
                            ..
                        },
                    ) => {
                        let x = slice_of(factors, reads, lb, lbase);
                        let z = slice_of(factors, reads, rb, rbase);
                        blas::xmul(n, 1.0, x, ls, z, rs, tgt, ts);
                        run_stats.xmul += 1;
                        run_stats.xmul_elems += n as u64;
                        Ok(true)
                    }
                    (SrcMeta::Const(_), SrcMeta::Const(_)) => Ok(false),
                }
            }
        }
    }

    /// Two nested dense loops `(q1, q2)` over a single term: GER / GEMV
    /// dispatch.
    fn blas2(&mut self, q1: IndexId, q2: IndexId, t: usize) -> Result<bool> {
        let (m, n) = (self.kernel.dim(q1), self.kernel.dim(q2));
        let term = &self.path.terms[t];
        let lm = self.src_meta(term.left, q1, Some(q2));
        let rm = self.src_meta(term.right, q1, Some(q2));
        let Some(TgtMeta::Var {
            out,
            base: tbase,
            s1: t1,
            has1: th1,
            s2: t2,
            has2: th2,
        }) = self.tgt_meta(t, q1, Some(q2))
        else {
            return Ok(false);
        };
        let (SrcMeta::Var { .. }, SrcMeta::Var { .. }) = (lm, rm) else {
            return Ok(false);
        };
        // Destructure both Vars.
        let (lb, lbase, l1, lh1, l2, lh2) = match lm {
            SrcMeta::Var {
                buf,
                base,
                s1,
                has1,
                s2,
                has2,
            } => (buf, base, s1, has1, s2, has2),
            SrcMeta::Const(_) => unreachable!(),
        };
        let (rb, rbase, r1, rh1, r2, rh2) = match rm {
            SrcMeta::Var {
                buf,
                base,
                s1,
                has1,
                s2,
                has2,
            } => (buf, base, s1, has1, s2, has2),
            SrcMeta::Const(_) => unreachable!(),
        };

        let factors = self.factors;
        let Exec {
            buffers,
            out_dense,
            stats: run_stats,
            ..
        } = self;
        let (reads, tail) = buffers.split_at_mut(t);
        let tgt: &mut [f64] = if out {
            &mut out_dense.as_mut_slice()[tbase..]
        } else {
            &mut tail[0].as_mut_slice()[tbase..]
        };

        if th1 && th2 {
            // Rank-1 update: x carries q1, y carries q2.
            if lh1 && !lh2 && !rh1 && rh2 {
                let x = slice_of(factors, reads, lb, lbase);
                let y = slice_of(factors, reads, rb, rbase);
                blas::ger(m, n, 1.0, x, l1, y, r2, tgt, t1, t2);
                run_stats.ger += 1;
                run_stats.ger_elems += (m * n) as u64;
                return Ok(true);
            }
            if !lh1 && lh2 && rh1 && !rh2 {
                let x = slice_of(factors, reads, rb, rbase);
                let y = slice_of(factors, reads, lb, lbase);
                blas::ger(m, n, 1.0, x, r1, y, l2, tgt, t1, t2);
                run_stats.ger += 1;
                run_stats.ger_elems += (m * n) as u64;
                return Ok(true);
            }
            return Ok(false);
        }
        if th1 && !th2 {
            // y[q1] += Σ_q2 A[q1,q2] · x[q2].
            if lh1 && lh2 && !rh1 && rh2 {
                let a = slice_of(factors, reads, lb, lbase);
                let x = slice_of(factors, reads, rb, rbase);
                blas::gemv(m, n, 1.0, a, l1, l2, x, r2, tgt, t1);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return Ok(true);
            }
            if rh1 && rh2 && !lh1 && lh2 {
                let a = slice_of(factors, reads, rb, rbase);
                let x = slice_of(factors, reads, lb, lbase);
                blas::gemv(m, n, 1.0, a, r1, r2, x, l2, tgt, t1);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return Ok(true);
            }
            return Ok(false);
        }
        if !th1 && th2 {
            // y[q2] += Σ_q1 A[q2,q1] · x[q1].
            if lh1 && lh2 && rh1 && !rh2 {
                let a = slice_of(factors, reads, lb, lbase);
                let x = slice_of(factors, reads, rb, rbase);
                blas::gemv(n, m, 1.0, a, l2, l1, x, r1, tgt, t2);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return Ok(true);
            }
            if rh1 && rh2 && lh1 && !lh2 {
                let a = slice_of(factors, reads, rb, rbase);
                let x = slice_of(factors, reads, lb, lbase);
                blas::gemv(n, m, 1.0, a, r2, r1, x, l1, tgt, t2);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return Ok(true);
            }
            return Ok(false);
        }
        Ok(false)
    }
}

/// Borrow the backing slice of a source, offset by `base`.
fn slice_of<'b>(
    factors: Slots<'b>,
    read_buffers: &'b [DenseTensor],
    sel: BufSel,
    base: usize,
) -> &'b [f64] {
    match sel {
        BufSel::Factor(i) => &factors.get(i).as_slice()[base..],
        BufSel::Inter(u) => &read_buffers[u].as_slice()[base..],
    }
}
