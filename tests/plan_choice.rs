//! Default plans at the benchmark shapes (uniform sparsity model): the
//! traversal-aware selection must walk the CSF once on every CP-ALS
//! MTTKRP, keep the TTMc and krp-chain spine nests, and lay each
//! buffer out for its hotter side.

use spttn::ir::{LoopNode, VertexKind};
use spttn::{Contraction, ModeOrderPolicy, Plan, PlanOptions, Shapes};
use spttn_net::{NetOptions, Network};

const ALS: [&str; 3] = [
    "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]",
    "T[i,j,k]*A[i,a]*C[k,a]->B[j,a]",
    "T[i,j,k]*A[i,a]*B[j,a]->C[k,a]",
];

fn als_shapes() -> Shapes {
    Shapes::new()
        .with_dims(&[("i", 512), ("j", 96), ("k", 96), ("a", 32)])
        .with_nnz(250_000)
}

fn plan(expr: &str, shapes: &Shapes, opts: &PlanOptions) -> Plan {
    Contraction::parse(expr)
        .unwrap()
        .plan(shapes, opts)
        .unwrap()
}

/// True when some dense loop encloses a sparse (CSF) loop — a nest that
/// re-walks the sparse tree once per dense iteration.
fn dense_encloses_sparse(nodes: &[LoopNode], under_dense: bool) -> bool {
    nodes.iter().any(|n| match n {
        LoopNode::Leaf(_) => false,
        LoopNode::Loop(v) => match v.kind {
            VertexKind::Sparse { .. } if under_dense => true,
            VertexKind::Sparse { .. } => dense_encloses_sparse(&v.children, false),
            VertexKind::Dense => dense_encloses_sparse(&v.children, true),
        },
    })
}

fn buffer_names(plan: &Plan) -> Vec<Vec<String>> {
    let k = plan.kernel();
    plan.buffers()
        .iter()
        .map(|b| {
            b.inds
                .iter()
                .map(|&i| k.index_name(i).to_string())
                .collect()
        })
        .collect()
}

fn orders(plan: &Plan) -> String {
    plan.spec().describe(plan.kernel())
}

#[test]
fn every_als_mttkrp_walks_the_csf_once() {
    for expr in ALS {
        let p = plan(expr, &als_shapes(), &PlanOptions::default());
        assert!(
            !dense_encloses_sparse(&p.forest().roots, false),
            "{expr}: dense loop over the CSF walk\n{}",
            p.describe()
        );
        // The factorized nest sits one op-count tier up and wins on work.
        assert_eq!(p.tier, 1, "{expr}");
        assert_eq!(p.work, p.flops + 2 * p.traversal, "{expr}");
        assert!(p.work >= p.flops);
    }
}

#[test]
fn ttmc_keeps_its_sparse_first_nest() {
    let shapes = Shapes::new()
        .with_dims(&[("i", 384), ("j", 64), ("k", 64), ("r", 32), ("s", 32)])
        .with_nnz(120_000);
    let p = plan(
        "T[i,j,k]*U[j,r]*V[k,s]->Y[i,r,s]",
        &shapes,
        &PlanOptions::default(),
    );
    assert_eq!(orders(&p), "(i,j,k,s),(i,j,r,s)");
    assert_eq!(buffer_names(&p), vec![vec!["s"]]);
    assert_eq!(p.tier, 0);
}

#[test]
fn krp_chain_spine_keeps_its_nest() {
    let shapes = Shapes::new()
        .with_dims(&[("i", 256), ("j", 96), ("k", 96), ("r", 32), ("s", 32)])
        .with_nnz(100_000);
    let net = Network::parse("T[i,j,k]*A[j,r]*B[k,r]*C[r,s]->O[i,s]")
        .unwrap()
        .plan(&shapes, &NetOptions::default())
        .unwrap();
    let p = net.kernel_plan();
    assert_eq!(
        p.path().describe(p.kernel()),
        "B(k,r)*_net0(j,r,s) -> X0(j,k,s) ; T(i,j,k)*X0(j,k,s) -> O(i,s)"
    );
    assert_eq!(orders(p), "(s,j,k,r),(s,i,j,k)");
    assert_eq!(buffer_names(p), vec![vec!["j", "k"]]);
}

#[test]
fn als_mode2_buffer_is_laid_out_for_its_consumer() {
    // Producer `A·B → X0` runs (i,a,j) once per root fiber; the consumer
    // runs (i,j,k,a) once per nonzero — far hotter — so X0 stores
    // (j,a) with the consumer's innermost `a` contiguous, not the
    // producer's (a,j).
    let p = plan(ALS[2], &als_shapes(), &PlanOptions::default());
    assert_eq!(orders(&p), "(i,a,j),(i,j,k,a)");
    assert_eq!(buffer_names(&p), vec![vec!["j", "a"]]);
    assert_eq!(p.buffers()[0].rank_hint(), Some(32));
}

#[test]
fn oneshot_krp_buffer_is_laid_out_for_its_consumer() {
    // CSF order (j,k,i): the KRP `B·C → X0` runs (j,a,k) per root fiber
    // while the consumer runs (j,k,i,a) per nonzero, so X0 stores (k,a).
    let p = plan(
        ALS[0],
        &als_shapes(),
        &PlanOptions::default().with_mode_order(ModeOrderPolicy::Fixed(vec![1, 2, 0])),
    );
    assert_eq!(orders(&p), "(j,a,k),(j,k,i,a)");
    assert_eq!(buffer_names(&p), vec![vec!["k", "a"]]);
    assert_eq!(p.buffers()[0].rank_hint(), Some(32));
}

#[test]
fn auto_order_search_ranks_by_work() {
    let p = plan(
        ALS[0],
        &als_shapes(),
        &PlanOptions::default().with_mode_order(ModeOrderPolicy::Auto),
    );
    let chosen = p
        .order_costs()
        .iter()
        .find(|oc| oc.order == p.mode_order())
        .unwrap();
    assert_eq!(chosen.work, Some(p.work));
    assert_eq!(chosen.traversal, Some(p.traversal));
    let min = p.order_costs().iter().filter_map(|oc| oc.work).min();
    assert_eq!(min, Some(p.work));
}
