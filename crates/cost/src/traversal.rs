//! Sparse-traversal volume: the work the paper's op count leaves out.
//!
//! The leading-order op count ([`spttn_ir::ContractionPath::flops`])
//! charges only the multiply-adds of each term. It does not see how
//! often the nest walks the CSF tree: a dense loop hoisted above the
//! sparse descent re-walks every fiber beneath it once per iteration,
//! at the same op count. [`Traversal`] counts that walk, plus the Eq.-5
//! buffer zeroing the nest performs:
//!
//! - every iteration of a sparse loop visits one CSF node, and that
//!   visit repeats for every iteration of the loops enclosing it;
//! - every buffer that splits at a vertex is zeroed (all of its stored
//!   elements) once per iteration of the loops enclosing the vertex.
//!
//! Both are counted per element in multiply-add units: a node visit or
//! a zeroed element costs about one multiply-add. The planner's modeled
//! work of a nest is therefore `flops + 2·traversal`.
//!
//! The term is tree-separable (`φ(x) = I(r)·(visit + x) + zeroed`,
//! `⊕ = +`, the same shape as [`crate::CacheMiss`]), so
//! [`crate::eval_forest`] evaluates it on any fused forest.

use crate::tree_cost::{TreeCost, VertexCtx};
use spttn_ir::VertexKind;

/// Modeled sparse node visits plus buffer zeroing volume of a nest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traversal;

impl TreeCost for Traversal {
    type Value = f64;

    fn empty(&self) -> f64 {
        0.0
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn apply(&self, ctx: &VertexCtx<'_>, inner: &f64) -> f64 {
        let visit = match ctx.kind {
            VertexKind::Sparse { .. } => 1.0,
            VertexKind::Dense => 0.0,
        };
        let zeroed: f64 = ctx
            .splitting_buffers()
            .map(|s| s.iter().map(|i| ctx.kernel.dim(i) as f64).product::<f64>())
            .sum();
        ctx.iterations() * (visit + inner) + zeroed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_forest;
    use spttn_ir::{build_forest, parse_kernel, path_from_picks, NestSpec};
    use spttn_tensor::SparsityProfile;

    /// TTMc `S(i,r,s) = T(i,j,k)·U(j,r)·V(k,s)` on the path
    /// `T·V → X0(i,j,s); U·X0 → S`; ids i=0 j=1 k=2 r=3 s=4.
    #[test]
    fn listing3_vs_s_outermost_hand_counts() {
        let s_dim = 5.0;
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 200).unwrap();
        let (n1, n2, n3) = (
            prof.prefix_nnz(1) as f64,
            prof.prefix_nnz(2) as f64,
            prof.prefix_nnz(3) as f64,
        );
        let traversal = |orders: Vec<Vec<usize>>| {
            let f = build_forest(&k, &p, &NestSpec { orders }).unwrap();
            eval_forest(&k, &p, &prof, &f, &Traversal)
        };

        // Listing 3: each CSF node is visited once; X0 keeps {s} and is
        // zeroed (S elements) once per (i,j) fiber.
        let listing3 = traversal(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]);
        let want3 = n1 + n2 + n3 + s_dim * n2;
        assert!((listing3 - want3).abs() < 1e-6, "{listing3} vs {want3}");

        // s outermost: the whole tree, k-level fibers included, is
        // walked S times; X0 shrinks to a scalar zeroed per (s,i,j).
        let s_outer = traversal(vec![vec![4, 0, 1, 2], vec![4, 0, 1, 3]]);
        let want_s = s_dim * (n1 + n2 + n3) + s_dim * n2;
        assert!((s_outer - want_s).abs() < 1e-6, "{s_outer} vs {want_s}");
        assert!(listing3 < s_outer);
    }

    /// Unfused Listing 2: the producer walks the tree once, the full
    /// `(i,j,s)` buffer is zeroed once, and the consumer walks the
    /// `(i,j)` pattern its buffer inherits once per `s`.
    #[test]
    fn listing2_counts_consumer_rewalk_and_full_zeroing() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 200).unwrap();
        let f = build_forest(
            &k,
            &p,
            &NestSpec {
                orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
            },
        )
        .unwrap();
        let got = eval_forest(&k, &p, &prof, &f, &Traversal);
        let n = |l| prof.prefix_nnz(l) as f64;
        let want = (n(1) + n(2) + n(3)) + 10.0 * 11.0 * 5.0 + 5.0 * (n(1) + n(2));
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }
}
