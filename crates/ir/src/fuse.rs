//! Fully-fused loop-nest forests via peeling (paper Defs. 4.1–4.3).
//!
//! Given a contraction path and a loop order per term, the fused forest
//! is built by iterated *peeling*: the maximal run of leading terms whose
//! orders share the same first index becomes one loop vertex containing
//! the (recursively fused) remainders; terms whose order is exhausted
//! become leaves (the innermost scalar contraction).
//!
//! Each vertex is classified ([`VertexKind`]): a loop over a sparse mode
//! iterates CSF fibers when the descent is contiguous from the root mode
//! *and* every covered term is prunable at that index (its contributions
//! outside the sparse pattern vanish); otherwise the loop runs densely.
//! A dense loop over a sparse mode is invalid for the term holding the
//! sparse tensor itself — its CSF descent would break — and such
//! combinations are rejected, mirroring the paper's restriction to
//! CSF-consistent iteration.

use crate::index::{IdxSet, IndexId};
use crate::kernel::Kernel;
use crate::order::{order_is_valid, NestSpec};
use crate::path::ContractionPath;
use spttn_tensor::SparsityProfile;

/// How a loop vertex iterates its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexKind {
    /// Iterate the children of the current CSF node at this level.
    Sparse {
        /// CSF tree level of the index.
        level: usize,
    },
    /// Iterate the full dimension `0..dim`.
    Dense,
}

impl VertexKind {
    /// Modeled iterations of a loop of this kind over `index` per entry,
    /// under `profile`: the full dimension for dense loops, the mean CSF
    /// branching factor `nnz(ℓ+1) / nnz(ℓ)` for sparse loops at level ℓ.
    pub fn trips(self, kernel: &Kernel, index: IndexId, profile: &SparsityProfile) -> f64 {
        match self {
            VertexKind::Dense => kernel.dim(index) as f64,
            VertexKind::Sparse { level } => {
                let up = profile.prefix_nnz(level + 1) as f64;
                let down = profile.prefix_nnz(level).max(1) as f64;
                up / down
            }
        }
    }
}

/// Errors when building or validating a fused forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseError {
    /// Term `term`'s order is not a valid permutation respecting the
    /// CSF-order restriction.
    BadOrder {
        /// Offending term position.
        term: usize,
    },
    /// A loop over sparse index `index` would cover the sparse tensor's
    /// own term while iterating densely (CSF descent broken).
    BrokenDescent {
        /// Offending index.
        index: IndexId,
    },
    /// Spec has the wrong number of orders for the path.
    WrongArity,
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::BadOrder { term } => write!(f, "invalid loop order for term {term}"),
            FuseError::BrokenDescent { index } => write!(
                f,
                "sparse index {index} fused densely over the sparse tensor's term"
            ),
            FuseError::WrongArity => write!(f, "spec arity does not match path"),
        }
    }
}

impl std::error::Error for FuseError {}

/// A node of the fused forest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LoopNode {
    /// A loop vertex.
    Loop(LoopVertex),
    /// A term's innermost contraction.
    Leaf(usize),
}

/// A loop vertex of the fused forest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopVertex {
    /// Index iterated by this loop.
    pub index: IndexId,
    /// Sparse (CSF) or dense iteration.
    pub kind: VertexKind,
    /// Covered terms: path positions `[term_lo, term_hi)`.
    pub term_lo: usize,
    /// Exclusive end of the covered term range.
    pub term_hi: usize,
    /// Ordered children (loops and leaves).
    pub children: Vec<LoopNode>,
}

/// A fully-fused loop-nest forest for one (path, spec) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopForest {
    /// Top-level nodes in execution order.
    pub roots: Vec<LoopNode>,
}

/// Classify the loop vertex for index `q` covering path terms
/// `[lo, hi)` with ancestor indices `removed`.
///
/// Returns an error when the vertex must be dense but covers the sparse
/// tensor's own term. This predicate is shared verbatim by the
/// Algorithm-1 dynamic program so that search and execution agree.
pub fn vertex_kind(
    kernel: &Kernel,
    path: &ContractionPath,
    lo: usize,
    hi: usize,
    removed: IdxSet,
    q: IndexId,
) -> Result<VertexKind, FuseError> {
    let level = match kernel.sparse_level(q) {
        None => return Ok(VertexKind::Dense),
        Some(l) => l,
    };
    // Descent continuity: all shallower CSF modes already iterated.
    let continuous = (0..level).all(|l| removed.contains(kernel.index_at_level(l)));
    // Prunability: every covered term's contributions at coordinates
    // outside the sparse pattern must vanish. A term qualifies if its
    // operands carry lineage at q, or its consumer chain (within the
    // covered range) reaches a term that does.
    let prunable_all = {
        let mut prunable = vec![false; hi - lo];
        for t in (lo..hi).rev() {
            let term = &path.terms[t];
            let own = term.lineage().contains(q);
            let via_chain = match term.consumer {
                Some(c) if c >= lo && c < hi => prunable[c - lo],
                _ => false,
            };
            prunable[t - lo] = own || via_chain;
        }
        prunable.iter().all(|&p| p)
    };
    if continuous && prunable_all {
        Ok(VertexKind::Sparse { level })
    } else if (lo..hi).contains(&path.sparse_term) {
        Err(FuseError::BrokenDescent { index: q })
    } else {
        Ok(VertexKind::Dense)
    }
}

/// Build the fused forest for `(path, spec)`, validating orders and
/// vertex kinds.
pub fn build_forest(
    kernel: &Kernel,
    path: &ContractionPath,
    spec: &NestSpec,
) -> Result<LoopForest, FuseError> {
    if spec.orders.len() != path.len() {
        return Err(FuseError::WrongArity);
    }
    for t in 0..path.len() {
        if !order_is_valid(kernel, path, t, &spec.orders[t]) {
            return Err(FuseError::BadOrder { term: t });
        }
    }
    let items: Vec<(usize, usize)> = (0..path.len()).map(|t| (t, 0usize)).collect();
    let roots = peel(kernel, path, spec, &items, IdxSet::EMPTY)?;
    Ok(LoopForest { roots })
}

/// Recursive peeling: `items` is a list of (term, depth-into-order).
fn peel(
    kernel: &Kernel,
    path: &ContractionPath,
    spec: &NestSpec,
    items: &[(usize, usize)],
    removed: IdxSet,
) -> Result<Vec<LoopNode>, FuseError> {
    let mut nodes = Vec::new();
    let mut pos = 0usize;
    while pos < items.len() {
        let (term, depth) = items[pos];
        let order = &spec.orders[term];
        if depth == order.len() {
            nodes.push(LoopNode::Leaf(term));
            pos += 1;
            continue;
        }
        let q = order[depth];
        // Maximal run of consecutive items whose next index is q.
        let mut end = pos;
        while end < items.len() {
            let (t2, d2) = items[end];
            let o2 = &spec.orders[t2];
            if d2 < o2.len() && o2[d2] == q {
                end += 1;
            } else {
                break;
            }
        }
        let lo = items[pos].0;
        let hi = items[end - 1].0 + 1;
        let kind = vertex_kind(kernel, path, lo, hi, removed, q)?;
        let inner: Vec<(usize, usize)> = items[pos..end].iter().map(|&(t, d)| (t, d + 1)).collect();
        let children = peel(kernel, path, spec, &inner, removed.insert(q))?;
        nodes.push(LoopNode::Loop(LoopVertex {
            index: q,
            kind,
            term_lo: lo,
            term_hi: hi,
            children,
        }));
        pos = end;
    }
    Ok(nodes)
}

impl LoopForest {
    /// Maximum loop depth (longest root-to-leaf vertex chain).
    pub fn max_depth(&self) -> usize {
        fn depth(n: &LoopNode) -> usize {
            match n {
                LoopNode::Leaf(_) => 0,
                LoopNode::Loop(v) => 1 + v.children.iter().map(depth).max().unwrap_or(0),
            }
        }
        self.roots.iter().map(depth).max().unwrap_or(0)
    }

    /// Ancestor index lists per term (root-to-leaf vertex indices) —
    /// equals the term's loop order by construction.
    pub fn ancestors(&self, nterms: usize) -> Vec<Vec<IndexId>> {
        let mut out = vec![Vec::new(); nterms];
        fn walk(n: &LoopNode, trail: &mut Vec<IndexId>, out: &mut Vec<Vec<IndexId>>) {
            match n {
                LoopNode::Leaf(t) => out[*t] = trail.clone(),
                LoopNode::Loop(v) => {
                    trail.push(v.index);
                    for c in &v.children {
                        walk(c, trail, out);
                    }
                    trail.pop();
                }
            }
        }
        let mut trail = Vec::new();
        for r in &self.roots {
            walk(r, &mut trail, &mut out);
        }
        out
    }

    /// Modeled executions of each term's leaf under `profile`: the
    /// product of its enclosing loops' [`VertexKind::trips`].
    pub fn leaf_trips(
        &self,
        kernel: &Kernel,
        profile: &SparsityProfile,
        nterms: usize,
    ) -> Vec<f64> {
        fn walk(
            n: &LoopNode,
            trips: f64,
            kernel: &Kernel,
            profile: &SparsityProfile,
            out: &mut Vec<f64>,
        ) {
            match n {
                LoopNode::Leaf(t) => out[*t] = trips,
                LoopNode::Loop(v) => {
                    let inner = trips * v.kind.trips(kernel, v.index, profile);
                    for c in &v.children {
                        walk(c, inner, kernel, profile, out);
                    }
                }
            }
        }
        let mut out = vec![0.0; nterms];
        for r in &self.roots {
            walk(r, 1.0, kernel, profile, &mut out);
        }
        out
    }

    /// Vertex ancestor *identities* per term as (index, position-path)
    /// pairs; used to find common ancestors (Eq. 5): two terms share an
    /// ancestor vertex only when it is the same tree vertex, not merely
    /// the same index.
    pub fn common_ancestor_sets(&self, nterms: usize) -> Vec<Vec<IdxSet>> {
        // For every pair (producer, consumer) we need the shared vertex
        // prefix. Record each term's root-path as vertex ids.
        let mut paths: Vec<Vec<usize>> = vec![Vec::new(); nterms];
        let mut inds: Vec<IndexId> = Vec::new();
        let mut counter = 0usize;
        fn walk(
            n: &LoopNode,
            trail: &mut Vec<usize>,
            inds: &mut Vec<IndexId>,
            counter: &mut usize,
            paths: &mut Vec<Vec<usize>>,
        ) {
            match n {
                LoopNode::Leaf(t) => paths[*t] = trail.clone(),
                LoopNode::Loop(v) => {
                    let id = *counter;
                    *counter += 1;
                    inds.push(v.index);
                    trail.push(id);
                    for c in &v.children {
                        walk(c, trail, inds, counter, paths);
                    }
                    trail.pop();
                }
            }
        }
        let mut trail = Vec::new();
        for r in &self.roots {
            walk(r, &mut trail, &mut inds, &mut counter, &mut paths);
        }
        // common[a][b] as sets of indices shared on the vertex-path prefix.
        let mut out = vec![vec![IdxSet::EMPTY; nterms]; nterms];
        for a in 0..nterms {
            for b in 0..nterms {
                let mut s = IdxSet::EMPTY;
                for (x, y) in paths[a].iter().zip(paths[b].iter()) {
                    if x == y {
                        s = s.insert(inds[*x]);
                    } else {
                        break;
                    }
                }
                out[a][b] = s;
            }
        }
        out
    }

    /// Pretty-print the forest as pseudocode resembling the paper's
    /// listings.
    pub fn render(&self, kernel: &Kernel, path: &ContractionPath) -> String {
        let mut s = String::new();
        fn emit(
            n: &LoopNode,
            depth: usize,
            kernel: &Kernel,
            path: &ContractionPath,
            s: &mut String,
        ) {
            let pad = "  ".repeat(depth);
            match n {
                LoopNode::Leaf(t) => {
                    let term = &path.terms[*t];
                    let fmt = |op: crate::path::Operand| match op {
                        crate::path::Operand::Input(i) => kernel.inputs[i].name.clone(),
                        crate::path::Operand::Inter(x) => format!("X{x}"),
                    };
                    let out = if *t + 1 == path.terms.len() {
                        kernel.output.name.clone()
                    } else {
                        format!("X{t}")
                    };
                    s.push_str(&format!(
                        "{pad}{out} += {} * {}\n",
                        fmt(term.left),
                        fmt(term.right)
                    ));
                }
                LoopNode::Loop(v) => {
                    let name = kernel.index_name(v.index);
                    match v.kind {
                        VertexKind::Sparse { level } => {
                            s.push_str(&format!("{pad}for ({name}, node) in csf_level_{level}:\n"))
                        }
                        VertexKind::Dense => {
                            s.push_str(&format!("{pad}for {name} in 0..{}:\n", kernel.dim(v.index)))
                        }
                    }
                    for c in &v.children {
                        emit(c, depth + 1, kernel, path, s);
                    }
                }
            }
        }
        for r in &self.roots {
            emit(r, 0, kernel, path, &mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kernel;
    use crate::path::path_from_picks;

    fn ttmc3() -> (Kernel, ContractionPath) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 10), ("k", 10), ("r", 4), ("s", 4)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        (k, p)
    }

    /// Listing 3: orders (i,j,k,s) and (i,j,s,r) fuse on (i,j).
    #[test]
    fn listing3_structure() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.roots.len(), 1);
        let LoopNode::Loop(i) = &f.roots[0] else {
            panic!()
        };
        assert_eq!(i.index, 0);
        assert_eq!(i.kind, VertexKind::Sparse { level: 0 });
        assert_eq!((i.term_lo, i.term_hi), (0, 2));
        let LoopNode::Loop(j) = &i.children[0] else {
            panic!()
        };
        assert_eq!(j.index, 1);
        assert_eq!(j.children.len(), 2); // k-subtree and s-subtree
        let LoopNode::Loop(kv) = &j.children[0] else {
            panic!()
        };
        assert_eq!(kv.index, 2);
        assert_eq!(kv.kind, VertexKind::Sparse { level: 2 });
        assert_eq!((kv.term_lo, kv.term_hi), (0, 1));
        let LoopNode::Loop(sv) = &j.children[1] else {
            panic!()
        };
        assert_eq!(sv.index, 4);
        assert_eq!(sv.kind, VertexKind::Dense);
        assert_eq!(f.max_depth(), 4);
    }

    /// Listing 4: orders (i,j,s,k) and (i,j,s,r) fuse on (i,j,s).
    #[test]
    fn listing4_structure() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let LoopNode::Loop(i) = &f.roots[0] else {
            panic!()
        };
        let LoopNode::Loop(j) = &i.children[0] else {
            panic!()
        };
        let LoopNode::Loop(s) = &j.children[0] else {
            panic!()
        };
        assert_eq!(s.index, 4);
        assert_eq!(s.children.len(), 2);
        // Sparse loop k nested inside the dense s loop is valid.
        let LoopNode::Loop(kv) = &s.children[0] else {
            panic!()
        };
        assert_eq!(kv.kind, VertexKind::Sparse { level: 2 });
    }

    /// Fig 1a (unfused): different first indices give sibling subtrees,
    /// and the consumer re-descends the CSF on its own.
    #[test]
    fn unfused_pairwise_structure() {
        let (k, p) = ttmc3();
        // Make term 2 start at s so no fusion happens.
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.roots.len(), 2);
        let LoopNode::Loop(s) = &f.roots[1] else {
            panic!()
        };
        assert_eq!(s.index, 4);
        assert_eq!(s.kind, VertexKind::Dense);
        // Inside s, term 2 descends i sparsely (lineage pruning).
        let LoopNode::Loop(iv) = &s.children[0] else {
            panic!()
        };
        assert_eq!(iv.kind, VertexKind::Sparse { level: 0 });
    }

    /// Fig 1d: dense-first path; U*V cannot fuse with the sparse term.
    #[test]
    fn dense_first_path_forest() {
        let (k, _) = ttmc3();
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        // Term 0 = U(j,r)*V(k,s) over {j,k,r,s}; term 1 over all 5.
        let spec = NestSpec {
            orders: vec![vec![1, 3, 2, 4], vec![0, 1, 2, 3, 4]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.roots.len(), 2);
        let LoopNode::Loop(j0) = &f.roots[0] else {
            panic!()
        };
        assert_eq!(j0.kind, VertexKind::Dense); // pre-sparse j: dense
        let LoopNode::Loop(i1) = &f.roots[1] else {
            panic!()
        };
        assert_eq!(i1.kind, VertexKind::Sparse { level: 0 });
        assert_eq!(f.max_depth(), 5);
    }

    /// Fusing the sparse term under a dense j (broken descent) errors.
    #[test]
    fn broken_descent_rejected() {
        let (k, _) = ttmc3();
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        // Both terms start with j: j would cover the sparse term densely.
        let spec = NestSpec {
            orders: vec![vec![1, 3, 2, 4], vec![1, 0, 2, 3, 4]],
        };
        // Term 1's order violates CSF order (j before i) — rejected as
        // BadOrder before vertex analysis.
        assert!(matches!(
            build_forest(&k, &p, &spec),
            Err(FuseError::BadOrder { term: 1 })
        ));
    }

    /// TTTP: pre-sparse dense-dense term fuses under the sparse descent.
    #[test]
    fn tttp_pre_sparse_fusion() {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 8), ("j", 8), ("k", 8), ("r", 3)],
        )
        .unwrap();
        // Path: (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k); (T*X1)->S.
        // Index ids: i=0, j=1, k=2, r=3 (r appears first in U).
        let p = path_from_picks(&k, &[(1, 2), (1, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![
                vec![0, 1, 3],    // i,j,r
                vec![0, 1, 2, 3], // i,j,k,r
                vec![0, 1, 2],    // i,j,k
            ],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let LoopNode::Loop(iv) = &f.roots[0] else {
            panic!()
        };
        // The U*V term is prunable through its consumer chain: sparse.
        assert_eq!(iv.kind, VertexKind::Sparse { level: 0 });
        assert_eq!((iv.term_lo, iv.term_hi), (0, 3));
    }

    /// A pre-sparse term whose chain exits the fused range stays dense.
    #[test]
    fn non_prunable_stays_dense() {
        let (k, p) = ttmc3();
        // vertex_kind directly: range covering only the dense-first term
        // of the U*V path, probing sparse index j.
        let p2 = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let kind = vertex_kind(&k, &p2, 0, 1, IdxSet::EMPTY, 1).unwrap();
        assert_eq!(kind, VertexKind::Dense);
        // And for the fused TTMc path term 0 alone, i is prunable.
        let kind = vertex_kind(&k, &p, 0, 1, IdxSet::EMPTY, 0).unwrap();
        assert_eq!(kind, VertexKind::Sparse { level: 0 });
        // k without i,j removed: discontinuous descent, but term 0 covers
        // the sparse term, so it cannot run densely either.
        assert!(vertex_kind(&k, &p, 0, 1, IdxSet::EMPTY, 2).is_err());
    }

    #[test]
    fn render_mentions_loops() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let txt = f.render(&k, &p);
        assert!(txt.contains("for (i, node) in csf_level_0"), "{txt}");
        assert!(txt.contains("for s in 0..4"), "{txt}");
        assert!(txt.contains("S += U * X0"), "{txt}");
    }

    #[test]
    fn common_ancestors_listing3_vs_listing4() {
        let (k, p) = ttmc3();
        let spec3 = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f3 = build_forest(&k, &p, &spec3).unwrap();
        let ca3 = f3.common_ancestor_sets(2);
        assert_eq!(ca3[0][1].to_vec(), vec![0, 1]); // {i,j}

        let spec4 = NestSpec {
            orders: vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        };
        let f4 = build_forest(&k, &p, &spec4).unwrap();
        let ca4 = f4.common_ancestor_sets(2);
        assert_eq!(ca4[0][1].to_vec(), vec![0, 1, 4]); // {i,j,s}
    }

    #[test]
    fn ancestors_equal_loop_orders() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.ancestors(2), spec.orders);
    }
}
