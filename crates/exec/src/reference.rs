//! Reference evaluators: the correctness oracles the runtime is tested
//! against. Nothing on the runtime path calls into this module.
//!
//! - [`naive_einsum`] evaluates a [`Kernel`] by brute force over the
//!   full cartesian index space — `O(Π dims)` time, no sparsity, no
//!   fusion.
//! - [`interpret`] runs a planned fused loop nest ([`LoopForest`]) over
//!   one [`CsfTile`] by recursive interpretation: every vertex visit
//!   re-derives its decisions from the forest, independently of the
//!   compiled tape in [`crate::tape`]. It mirrors the tape's loop
//!   structure, BLAS dispatch and floating-point operation order, so a
//!   scalar tape ([`crate::Microkernels::Scalar`]) must reproduce it bit
//!   for bit and dispatch the same number of microkernels.
//!   [`interpret_tiles`] replays it over a tiling and combines the
//!   partials with [`tree_reduce_partials`], exactly as the parallel
//!   executor does.
//!
//! The interpreter realizes the paper's execution model directly:
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
//!   dense buffer described by its [`BufferSpec`]; the buffer is zeroed
//!   exactly at its split vertex — once per iteration of the deepest
//!   loop shared by producer and consumer — and indexed by the stored
//!   (non-ancestor) coordinates only.

use crate::blas;
use crate::parallel::tree_reduce_partials;
use crate::runtime::{slot_refs, term_buffers, validate_operands, ContractionOutput, ExecStats};
use spttn_core::{Result, SpttnError};
use spttn_ir::{
    BufferSpec, ContractionPath, IndexId, Kernel, LoopForest, LoopNode, LoopVertex, Operand,
    VertexKind,
};
use spttn_tensor::{Csf, CsfTile, DenseTensor};

/// Evaluate the kernel densely. `inputs` holds one dense tensor per
/// kernel input, in input order — densify the sparse operand with
/// [`spttn_tensor::CooTensor::to_dense`] first.
pub fn naive_einsum(kernel: &Kernel, inputs: &[&DenseTensor]) -> Result<DenseTensor> {
    if inputs.len() != kernel.inputs.len() {
        return Err(SpttnError::Execution(format!(
            "naive_einsum needs {} inputs, got {}",
            kernel.inputs.len(),
            inputs.len()
        )));
    }
    for (r, t) in kernel.inputs.iter().zip(inputs) {
        let want = kernel.ref_dims(r);
        if t.dims() != want.as_slice() {
            return Err(SpttnError::Shape(format!(
                "input '{}' has dims {:?}, expected {:?}",
                r.name,
                t.dims(),
                want
            )));
        }
    }
    let m = kernel.num_indices();
    let dims: Vec<usize> = (0..m).map(|i| kernel.dim(i)).collect();
    let mut out = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
    // An empty index space has no points: the sum over it is zero.
    if dims.contains(&0) {
        return Ok(out);
    }
    let mut coord = vec![0usize; m];
    let mut opc: Vec<usize> = Vec::new();
    loop {
        let mut prod = 1.0;
        for (r, t) in kernel.inputs.iter().zip(inputs) {
            opc.clear();
            opc.extend(r.indices.iter().map(|&i| coord[i]));
            prod *= t.get(&opc);
        }
        opc.clear();
        opc.extend(kernel.output.indices.iter().map(|&i| coord[i]));
        out.add(&opc, prod);
        // Advance the odometer over all kernel indices.
        let mut k = m;
        loop {
            if k == 0 {
                return Ok(out);
            }
            k -= 1;
            coord[k] += 1;
            if coord[k] < dims[k] {
                break;
            }
            coord[k] = 0;
        }
    }
}

/// Interpret a planned nest over one tile of the sparse tensor,
/// allocating fresh buffers and output.
///
/// `specs` are the Eq.-5 buffer specs of `forest` (a plan's
/// [`buffers`](spttn_ir::buffers_for_forest)); `dense_factors` holds
/// one tensor per *non-sparse* kernel input, in input order. The result
/// is the tile's additive contribution: a dense partial, or — for a
/// pattern-sharing output — the whole tensor's pattern with values set
/// on the tile's leaves only. Pass `&csf.partition(1)[0]` to cover the
/// whole tensor.
pub fn interpret(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    specs: &[BufferSpec],
    csf: &Csf,
    tile: &CsfTile,
    dense_factors: &[&DenseTensor],
) -> Result<(ContractionOutput, ExecStats)> {
    validate_operands(kernel, csf, dense_factors)?;
    if tile.depth() != csf.order().max(1) {
        return Err(SpttnError::Execution(format!(
            "tile spans {} levels but the CSF has {} (tile built for a different tensor?)",
            tile.depth(),
            csf.order()
        )));
    }
    let placeholder = DenseTensor::zeros(&[]);
    let mut buffer_inds: Vec<Vec<IndexId>> = vec![Vec::new(); path.len()];
    for spec in specs {
        buffer_inds[spec.producer] = spec.inds.clone();
    }
    let mut exec = Exec {
        kernel,
        path,
        csf,
        root_range: tile.root_range(),
        factors: slot_refs(kernel, dense_factors, &placeholder),
        buffers: term_buffers(path, specs),
        buffer_inds,
        coords: vec![0; kernel.num_indices()],
        nodes: vec![None; kernel.csf_index_order().len()],
        out_dense: if kernel.output_sparse {
            DenseTensor::zeros(&[])
        } else {
            DenseTensor::zeros(&kernel.ref_dims(&kernel.output))
        },
        out_sparse: if kernel.output_sparse {
            vec![0.0; csf.nnz()]
        } else {
            Vec::new()
        },
        stats: ExecStats::default(),
        node_searches: std::cell::Cell::new(0),
        search_probes: std::cell::Cell::new(0),
    };
    exec.exec_siblings(&forest.roots, path.len());
    let mut stats = exec.stats;
    stats.node_searches += exec.node_searches.get();
    stats.search_probes += exec.search_probes.get();
    let out = if kernel.output_sparse {
        ContractionOutput::Sparse(csf.to_coo().with_vals(exec.out_sparse))
    } else {
        ContractionOutput::Dense(exec.out_dense)
    };
    Ok((out, stats))
}

/// [`interpret`] every tile in order and combine the partials as the
/// parallel executor does: dense partials through
/// [`tree_reduce_partials`], pattern-sharing outputs by their disjoint
/// leaf ranges. Stats are merged across tiles.
pub fn interpret_tiles(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    specs: &[BufferSpec],
    csf: &Csf,
    tiles: &[CsfTile],
    dense_factors: &[&DenseTensor],
) -> Result<(ContractionOutput, ExecStats)> {
    let mut stats = ExecStats::default();
    let mut partials: Vec<DenseTensor> = Vec::with_capacity(tiles.len());
    let mut vals = vec![0.0; if kernel.output_sparse { csf.nnz() } else { 0 }];
    for tile in tiles {
        let (out, s) = interpret(kernel, path, forest, specs, csf, tile, dense_factors)?;
        stats.merge(&s);
        match out {
            ContractionOutput::Dense(d) => partials.push(d),
            ContractionOutput::Sparse(c) => {
                let leaves = tile.leaf_range();
                vals[leaves.clone()].copy_from_slice(&c.vals()[leaves]);
            }
        }
    }
    let out = if kernel.output_sparse {
        ContractionOutput::Sparse(csf.to_coo().with_vals(vals))
    } else {
        tree_reduce_partials(&mut partials);
        let reduced = partials.into_iter().next().ok_or_else(|| {
            SpttnError::Execution("interpret_tiles needs at least one tile".into())
        })?;
        ContractionOutput::Dense(reduced)
    };
    Ok((out, stats))
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
    csf: &'a Csf,
    /// Root fibers of the interpreted tile.
    root_range: std::ops::Range<usize>,
    /// Per kernel-input slot; the sparse slot holds an unread placeholder.
    factors: Vec<&'a DenseTensor>,
    /// Per term; placeholder scalar for the final term.
    buffers: Vec<DenseTensor>,
    /// Stored index ids of each term's buffer (producer loop order).
    buffer_inds: Vec<Vec<IndexId>>,
    /// Current coordinate per kernel index.
    coords: Vec<usize>,
    /// Current CSF node per tree level (set by enclosing sparse loops).
    nodes: Vec<Option<usize>>,
    /// Dense output (a scalar placeholder when the output is sparse).
    out_dense: DenseTensor,
    /// Sparse output values, one per CSF leaf (empty when dense).
    out_sparse: Vec<f64>,
    /// Microkernel dispatch counters.
    stats: ExecStats,
    /// Search counters, in `Cell`s because [`Exec::resolve_node`] runs
    /// under shared borrows; folded into `stats` after the run.
    node_searches: std::cell::Cell<u64>,
    search_probes: std::cell::Cell<u64>,
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
    fn exec_siblings(&mut self, nodes: &[LoopNode], parent_hi: usize) {
        for n in nodes {
            let (lo, hi) = Self::node_range(n);
            for t in lo..hi {
                if let Some(c) = self.path.terms[t].consumer {
                    if c >= hi && c < parent_hi {
                        self.buffers[t].fill_zero();
                    }
                }
            }
            self.exec_node(n);
        }
    }

    fn exec_node(&mut self, n: &LoopNode) {
        match n {
            LoopNode::Leaf(t) => {
                let term = &self.path.terms[*t];
                let l = self.read_operand(term.left);
                let r = self.read_operand(term.right);
                self.accumulate_cell(*t, l * r);
            }
            LoopNode::Loop(v) => self.exec_loop(v),
        }
    }

    fn exec_loop(&mut self, v: &LoopVertex) {
        if self.try_blas(v) {
            return;
        }
        match v.kind {
            VertexKind::Dense => {
                for x in 0..self.kernel.dim(v.index) {
                    self.coords[v.index] = x;
                    self.exec_siblings(&v.children, v.term_hi);
                }
            }
            VertexKind::Sparse { level } => {
                let Some(range) = self.level_range(level) else {
                    // Coordinate prefix absent from the pattern: every
                    // covered term is prunable, contributions vanish.
                    return;
                };
                for node in range {
                    self.coords[v.index] = self.csf.node_coord(level, node);
                    self.nodes[level] = Some(node);
                    self.exec_siblings(&v.children, v.term_hi);
                }
                self.nodes[level] = None;
            }
        }
    }

    /// Node range a sparse loop at `level` iterates, under the current
    /// descent; `None` when the enclosing coordinates are off-pattern.
    /// Level 0 is confined to the tile's root range.
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
                let f = self.factors[i];
                let off = offset_in(&self.kernel.inputs[i].indices, f.strides(), &self.coords);
                f.as_slice()[off]
            }
            Operand::Inter(u) => {
                let b = &self.buffers[u];
                let off = offset_in(&self.buffer_inds[u], b.strides(), &self.coords);
                b.as_slice()[off]
            }
        }
    }

    /// Accumulate a term's contribution at the current coordinates.
    fn accumulate_cell(&mut self, t: usize, v: f64) {
        if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                match self.resolve_node(self.csf.order() - 1) {
                    Some(n) => self.out_sparse[n] += v,
                    // Off-pattern cell of a pattern-sharing output: the
                    // contribution is exactly zero by lineage pruning.
                    None => debug_assert_eq!(v, 0.0),
                }
            } else {
                let off = offset_in(
                    &self.kernel.output.indices,
                    self.out_dense.strides(),
                    &self.coords,
                );
                self.out_dense.as_mut_slice()[off] += v;
            }
        } else {
            let off = offset_in(
                &self.buffer_inds[t],
                self.buffers[t].strides(),
                &self.coords,
            );
            self.buffers[t].as_mut_slice()[off] += v;
        }
    }

    // ----- BLAS microkernel dispatch ---------------------------------

    /// Dispatch an innermost dense loop (or dense loop pair) covering a
    /// single term to a BLAS microkernel. Returns `false` when the shape
    /// does not match a kernel; the generic interpreter then handles it
    /// (and inner vertices get their own dispatch chance).
    fn try_blas(&mut self, v: &LoopVertex) -> bool {
        if v.kind != VertexKind::Dense || v.term_hi - v.term_lo != 1 {
            return false;
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
            _ => false,
        }
    }

    /// Source metadata w.r.t. loop indices `q1` (and optionally `q2`).
    fn src_meta(&self, op: Operand, q1: IndexId, q2: Option<IndexId>) -> SrcMeta {
        let (buf, inds, strides): (BufSel, &[IndexId], &[usize]) = match op {
            Operand::Input(i) if i == self.kernel.sparse_input => {
                return SrcMeta::Const(self.read_operand(op));
            }
            Operand::Input(i) => {
                let f = self.factors[i];
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
    fn blas1(&mut self, q: IndexId, t: usize) -> bool {
        let n = self.kernel.dim(q);
        let term = &self.path.terms[t];
        let lm = self.src_meta(term.left, q, None);
        let rm = self.src_meta(term.right, q, None);
        let Some(tm) = self.tgt_meta(t, q, None) else {
            return false;
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
                        let x = slice_of(&self.factors, reads, lb, lbase);
                        let y = slice_of(&self.factors, reads, rb, rbase);
                        blas::dot(n, x, ls, y, rs)
                    };
                    self.stats.dot += 1;
                    self.stats.dot_elems += n as u64;
                    self.accumulate_cell(t, v);
                    true
                } else {
                    false
                }
            }
            TgtMeta::Var {
                out,
                base: tbase,
                s1: ts,
                ..
            } => {
                let Exec {
                    factors,
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
                        true
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
                        true
                    }
                    (SrcMeta::Const(_), SrcMeta::Const(_)) => false,
                }
            }
        }
    }

    /// Two nested dense loops `(q1, q2)` over a single term: GER / GEMV
    /// dispatch.
    fn blas2(&mut self, q1: IndexId, q2: IndexId, t: usize) -> bool {
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
            return false;
        };
        let (SrcMeta::Var { .. }, SrcMeta::Var { .. }) = (lm, rm) else {
            return false;
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

        let Exec {
            factors,
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
                return true;
            }
            if !lh1 && lh2 && rh1 && !rh2 {
                let x = slice_of(factors, reads, rb, rbase);
                let y = slice_of(factors, reads, lb, lbase);
                blas::ger(m, n, 1.0, x, r1, y, l2, tgt, t1, t2);
                run_stats.ger += 1;
                run_stats.ger_elems += (m * n) as u64;
                return true;
            }
            return false;
        }
        if th1 && !th2 {
            // y[q1] += Σ_q2 A[q1,q2] · x[q2].
            if lh1 && lh2 && !rh1 && rh2 {
                let a = slice_of(factors, reads, lb, lbase);
                let x = slice_of(factors, reads, rb, rbase);
                blas::gemv(m, n, 1.0, a, l1, l2, x, r2, tgt, t1);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            if rh1 && rh2 && !lh1 && lh2 {
                let a = slice_of(factors, reads, rb, rbase);
                let x = slice_of(factors, reads, lb, lbase);
                blas::gemv(m, n, 1.0, a, r1, r2, x, l2, tgt, t1);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            return false;
        }
        if !th1 && th2 {
            // y[q2] += Σ_q1 A[q2,q1] · x[q1].
            if lh1 && lh2 && rh1 && !rh2 {
                let a = slice_of(factors, reads, lb, lbase);
                let x = slice_of(factors, reads, rb, rbase);
                blas::gemv(n, m, 1.0, a, l2, l1, x, r1, tgt, t2);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            if rh1 && rh2 && lh1 && !lh2 {
                let a = slice_of(factors, reads, rb, rbase);
                let x = slice_of(factors, reads, lb, lbase);
                blas::gemv(n, m, 1.0, a, r2, r1, x, l1, tgt, t2);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            return false;
        }
        false
    }
}

/// Borrow the backing slice of a source, offset by `base`.
fn slice_of<'b>(
    factors: &'b [&DenseTensor],
    read_buffers: &'b [DenseTensor],
    sel: BufSel,
    base: usize,
) -> &'b [f64] {
    match sel {
        BufSel::Factor(i) => &factors[i].as_slice()[base..],
        BufSel::Inter(u) => &read_buffers[u].as_slice()[base..],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spttn_ir::parse_kernel;

    #[test]
    fn matrix_multiply_matches_manual() {
        let k = parse_kernel("C(i,j) = A(i,l) * B(l,j)", &[("i", 2), ("j", 2), ("l", 2)]).unwrap();
        let a = DenseTensor::from_data(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseTensor::from_data(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = naive_einsum(&k, &[&a, &b]).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let k = parse_kernel("C(i) = A(i,l) * B(l)", &[("i", 2), ("l", 3)]).unwrap();
        let a = DenseTensor::zeros(&[2, 3]);
        let b_bad = DenseTensor::zeros(&[2]);
        assert!(matches!(
            naive_einsum(&k, &[&a, &b_bad]),
            Err(SpttnError::Shape(_))
        ));
        assert!(matches!(
            naive_einsum(&k, &[&a]),
            Err(SpttnError::Execution(_))
        ));
    }

    #[test]
    fn empty_index_space_yields_zeros() {
        // A zero-length free index empties the output.
        let k = parse_kernel("A(i,a) = T(i,j) * B(j,a)", &[("i", 3), ("j", 3), ("a", 0)]).unwrap();
        let t = DenseTensor::from_data(&[3, 3], vec![1.0; 9]).unwrap();
        let a = naive_einsum(&k, &[&t, &DenseTensor::zeros(&[3, 0])]).unwrap();
        assert_eq!(a.dims(), &[3, 0]);
        assert!(a.as_slice().is_empty());
        // A zero-length contracted index sums over nothing: zeros, not
        // one phantom point.
        let k = parse_kernel("y(i) = M(i,j) * x(j)", &[("i", 2), ("j", 0)]).unwrap();
        let m = DenseTensor::zeros(&[2, 0]);
        let y = naive_einsum(&k, &[&m, &DenseTensor::zeros(&[0])]).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0]);
    }
}
