//! The SpTTN-Cyclops planning pipeline (paper Sec. 5), extended with
//! a traversal-aware selection rule.
//!
//! 1. Enumerate contraction paths and rank them by leading-order op
//!    count (asymptotic complexity on the kernel's sparsity profile).
//!    Paths with exactly equal op counts form a *tier*; tier 0 holds
//!    the cheapest.
//! 2. Per path, run the Algorithm-1 DP under the configured
//!    tree-separable cost; its winner is the path's nest. Infeasible
//!    winners (e.g. over the buffer-dimension bound) are dropped.
//! 3. Score every surviving nest by modeled *work*:
//!    `flops + 2·traversal`, where [`Traversal`] counts the sparse node
//!    visits and buffer zeroing the op count leaves out. Keep the nest
//!    with the smallest `(work, cost value, flops)`.
//!
//! The paper takes the first tier that has a feasible nest. That rule
//! cannot see that a nest hoisting a dense loop above the CSF descent
//! walks the tensor once per iteration: on MTTKRP the tier-0 nest with
//! a 2-D buffer re-walks the tree `R` times, while the factorized
//! tier-1 nest walks it once at ~1.15× the op count. Scanning across
//! tiers by work picks the latter. The scan is bounded: tiers come in
//! increasing op count and `work ≥ flops`, so once a tier leader's op
//! count exceeds the best work found, no later nest can win, and the
//! scan stops there. The result equals an unbounded scan over every
//! path.

use crate::dp::optimal_order;
use crate::eval::eval_forest;
use crate::traversal::Traversal;
use crate::tree_cost::TreeCost;
use spttn_ir::{build_forest, enumerate_paths, ContractionPath, Kernel, NestSpec};
use spttn_tensor::SparsityProfile;

/// Planner options.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Maximum number of paths to run the DP on per cost tier.
    pub max_paths_per_tier: usize,
    /// Maximum number of tiers to explore before giving up.
    pub max_tiers: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            max_paths_per_tier: 64,
            max_tiers: 16,
        }
    }
}

/// A planned loop nest: path, loop orders, and costs.
#[derive(Debug, Clone)]
pub struct PlannedNest<V> {
    /// Chosen contraction path.
    pub path: ContractionPath,
    /// Chosen loop orders.
    pub spec: NestSpec,
    /// Tree-separable cost value of the nest.
    pub value: V,
    /// Leading-order scalar op count of the path.
    pub flops: u128,
    /// Modeled sparse node visits plus buffer zeroing volume of the
    /// nest ([`Traversal`], rounded), in multiply-add units.
    pub traversal: u128,
    /// Modeled work `flops + 2·traversal` — the selection key.
    pub work: u128,
    /// Which tier (0 = lowest op count) the path came from.
    pub tier: usize,
}

impl<V: PartialOrd> PlannedNest<V> {
    /// Strictly better under the selection key `(work, value, flops)`.
    pub(crate) fn beats(&self, other: &PlannedNest<V>) -> bool {
        self.work < other.work
            || (self.work == other.work
                && (self.value < other.value
                    || (self.value == other.value && self.flops < other.flops)))
    }
}

/// The DP winner of one path, scored by modeled work; `None` when the
/// DP finds no nest or the cost model rejects it.
fn plan_path<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    flops: u128,
    tier: usize,
    profile: &SparsityProfile,
    cost: &C,
) -> Option<PlannedNest<C::Value>> {
    let r = optimal_order(kernel, path, profile, cost)?;
    if !cost.is_feasible(&r.value) {
        return None;
    }
    let forest = build_forest(kernel, path, &r.spec).ok()?;
    let traversal = eval_forest(kernel, path, profile, &forest, &Traversal).round() as u128;
    Some(PlannedNest {
        path: path.clone(),
        spec: r.spec,
        value: r.value,
        flops,
        traversal,
        work: flops.saturating_add(traversal.saturating_mul(2)),
        tier,
    })
}

/// Plan a kernel: choose the contraction path and loop orders with the
/// least modeled work among the cost model's feasible per-path winners
/// (see the module docs for the bounded cross-tier scan).
pub fn plan<C: TreeCost>(
    kernel: &Kernel,
    profile: &SparsityProfile,
    cost: &C,
    opts: &PlanOptions,
) -> Option<PlannedNest<C::Value>> {
    let mut paths: Vec<(u128, ContractionPath)> = enumerate_paths(kernel)
        .into_iter()
        .map(|p| (p.flops(kernel, profile), p))
        .collect();
    paths.sort_by_key(|(f, _)| *f);

    let mut best: Option<PlannedNest<C::Value>> = None;
    let mut tier_start = 0usize;
    for tier in 0..opts.max_tiers {
        let Some(&(leader, _)) = paths.get(tier_start) else {
            break;
        };
        if best.as_ref().is_some_and(|b| leader > b.work) {
            break;
        }
        let tier_len = paths[tier_start..]
            .iter()
            .take_while(|(f, _)| *f == leader)
            .count();
        for (flops, path) in paths[tier_start..tier_start + tier_len]
            .iter()
            .take(opts.max_paths_per_tier)
        {
            let Some(nest) = plan_path(kernel, path, *flops, tier, profile, cost) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| nest.beats(b)) {
                best = Some(nest);
            }
        }
        tier_start += tier_len;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{BlasAware, BlasValue};
    use crate::tree_cost::{MaxBufferDim, MaxBufferSize};
    use spttn_ir::parse_kernel;

    fn profile(dims: &[usize], nnz: u64) -> SparsityProfile {
        let order: Vec<usize> = (0..dims.len()).collect();
        SparsityProfile::uniform(dims, &order, nnz).unwrap()
    }

    #[test]
    fn ttmc_planner_picks_sparse_first_path() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 64), ("j", 64), ("k", 64), ("r", 16), ("s", 16)],
        )
        .unwrap();
        let prof = profile(&[64, 64, 64], 4000);
        let plan = plan(&k, &prof, &MaxBufferDim, &PlanOptions::default()).unwrap();
        assert_eq!(plan.tier, 0);
        // The asymptotically optimal path contracts T first.
        assert_eq!(plan.path.sparse_term, 0);
        assert_eq!(plan.value, 0); // scalar buffer achievable
    }

    #[test]
    fn mttkrp_planner_factorizes() {
        // The planner must discover the factorize-and-fuse schedule that
        // beats the unfactorized op count (paper Sec. 2.4.2).
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 40), ("j", 40), ("k", 40), ("a", 16)],
        )
        .unwrap();
        let prof = profile(&[40, 40, 40], 4000);
        let plan = plan(&k, &prof, &MaxBufferSize, &PlanOptions::default()).unwrap();
        let nnz = prof.prefix_nnz(3) as u128;
        let nnz_ij = prof.prefix_nnz(2) as u128;
        assert_eq!(plan.flops, 2 * nnz * 16 + 2 * nnz_ij * 16);
        // Buffer for the factorized fused nest is one factor row.
        assert!(plan.value <= 16);
    }

    #[test]
    fn blas_metric_feasible_plan() {
        let k = parse_kernel(
            "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)",
            &[
                ("i", 16),
                ("j", 16),
                ("k", 16),
                ("l", 16),
                ("r", 8),
                ("s", 8),
                ("t", 8),
            ],
        )
        .unwrap();
        let prof = profile(&[16; 4], 1000);
        let cost = BlasAware {
            buffer_dim_bound: 2,
        };
        let plan = plan(&k, &prof, &cost, &PlanOptions::default()).unwrap();
        let BlasValue::Feasible { blas, .. } = plan.value else {
            panic!("expected feasible plan");
        };
        // Fig. 6's nest offers 6 BLAS loops; the planner must find at
        // least that many.
        assert!(blas >= 6, "blas = {blas}");
    }

    #[test]
    fn infeasible_bound_falls_back_or_fails_cleanly() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 16), ("j", 16), ("k", 16), ("r", 4), ("s", 4)],
        )
        .unwrap();
        let prof = profile(&[16; 3], 300);
        // Bound 0 forces scalar buffers; TTMc admits one (Listing 4), so
        // the plan stays in tier 0.
        let cost = BlasAware {
            buffer_dim_bound: 0,
        };
        let plan0 = plan(&k, &prof, &cost, &PlanOptions::default()).unwrap();
        assert!(cost.is_feasible(&plan0.value));
    }

    /// The unbounded reference: every path's DP winner, best by the
    /// same `(work, value, flops)` key, tiers numbered by distinct op
    /// count.
    fn plan_unbounded<C: TreeCost>(
        k: &Kernel,
        prof: &SparsityProfile,
        cost: &C,
    ) -> Option<PlannedNest<C::Value>> {
        let mut paths: Vec<(u128, ContractionPath)> = enumerate_paths(k)
            .into_iter()
            .map(|p| (p.flops(k, prof), p))
            .collect();
        paths.sort_by_key(|(f, _)| *f);
        let mut best: Option<PlannedNest<C::Value>> = None;
        let mut tier = 0usize;
        for (n, (flops, path)) in paths.iter().enumerate() {
            if n > 0 && paths[n - 1].0 != *flops {
                tier += 1;
            }
            if let Some(nest) = plan_path(k, path, *flops, tier, prof, cost) {
                if best.as_ref().is_none_or(|b| nest.beats(b)) {
                    best = Some(nest);
                }
            }
        }
        best
    }

    fn assert_same_nest<C: TreeCost>(name: &str, k: &Kernel, prof: &SparsityProfile, cost: &C) {
        let opts = PlanOptions {
            max_paths_per_tier: usize::MAX,
            max_tiers: usize::MAX,
        };
        let want = plan_unbounded(k, prof, cost).expect(name);
        for opts in [opts, PlanOptions::default()] {
            let got = plan(k, prof, cost, &opts).expect(name);
            assert_eq!(got.path, want.path, "{name}");
            assert_eq!(got.spec, want.spec, "{name}");
            assert_eq!((got.work, got.tier), (want.work, want.tier), "{name}");
            assert!(got.work >= got.flops, "{name}: work below flops");
        }
    }

    #[test]
    fn bounded_scan_matches_unbounded_scan_on_every_stdkernel() {
        use spttn_ir::stdkernels;
        let spmv = parse_kernel("y(i) = A(i,j) * x(j)", &[("i", 300), ("j", 200)]).unwrap();
        let cases: Vec<(&str, Kernel, Vec<usize>, u64)> = vec![
            (
                "mttkrp",
                stdkernels::mttkrp(&[64, 24, 24], 16),
                vec![64, 24, 24],
                4000,
            ),
            (
                "ttmc",
                stdkernels::ttmc(&[48, 16, 16], &[8, 8]),
                vec![48, 16, 16],
                2000,
            ),
            (
                "ttmc4",
                stdkernels::ttmc(&[12; 4], &[4, 4, 4]),
                vec![12; 4],
                1500,
            ),
            (
                "all-mode-ttmc",
                stdkernels::all_mode_ttmc(&[24, 16, 16], &[4, 4, 4]),
                vec![24, 16, 16],
                1200,
            ),
            (
                "tttp",
                stdkernels::tttp(&[32, 24, 24], 8),
                vec![32, 24, 24],
                2500,
            ),
            (
                "tttc",
                stdkernels::tttc(&[16, 12, 12], 4),
                vec![16, 12, 12],
                900,
            ),
            ("spmv", spmv, vec![300, 200], 3000),
        ];
        for (name, k, dims, nnz) in &cases {
            let prof = profile(dims, *nnz);
            assert_same_nest(name, k, &prof, &MaxBufferDim);
            assert_same_nest(name, k, &prof, &MaxBufferSize);
            assert_same_nest(name, k, &prof, &crate::cache::CacheMiss { d: 1 });
            assert_same_nest(name, k, &prof, &BlasAware::default());
        }
    }

    #[test]
    fn work_prefers_one_csf_walk_over_the_lowest_op_count() {
        // CP-ALS mode 0 at the benchmark shape: tier 0 (`B·C → X0[j,k,a]`)
        // fits the 2-D bound only with `a` hoisted over the CSF root,
        // re-walking the tree R times; the factorized tier-1 nest walks
        // it once and wins on work despite more flops.
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 512), ("j", 96), ("k", 96), ("a", 32)],
        )
        .unwrap();
        let prof = profile(&[512, 96, 96], 250_000);
        let p = plan(&k, &prof, &BlasAware::default(), &PlanOptions::default()).unwrap();
        assert_eq!(p.tier, 1);
        let nnz = prof.prefix_nnz(3) as u128;
        let nnz_ij = prof.prefix_nnz(2) as u128;
        assert_eq!(p.flops, 2 * nnz * 32 + 2 * nnz_ij * 32);
        assert_eq!(p.work, p.flops + 2 * p.traversal);
        // One walk (i, ij and ijk nodes) plus X0[a] zeroed per (i,j).
        let walk = prof.prefix_nnz(1) as u128 + nnz_ij + nnz;
        assert!(
            p.traversal.abs_diff(walk + 32 * nnz_ij) <= 1,
            "{}",
            p.traversal
        );
    }

    #[test]
    fn tttp_plan_exists_and_prunes() {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 32), ("j", 32), ("k", 32), ("r", 8)],
        )
        .unwrap();
        let prof = profile(&[32; 3], 2000);
        let plan = plan(&k, &prof, &MaxBufferSize, &PlanOptions::default()).unwrap();
        let nnz = prof.prefix_nnz(3) as u128;
        // All terms should run under the sparse descent: op count is
        // O(nnz * R), nowhere near the dense I*J*R.
        assert!(plan.flops <= 8 * nnz * 8, "flops = {}", plan.flops);
    }
}
