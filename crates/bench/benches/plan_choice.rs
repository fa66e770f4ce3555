//! Is the default plan the fast plan? Each row plans one kernel at the
//! benchmark shapes under the default options and under each of the
//! four cost models, binds every distinct nest once, and times
//! `execute_into` at 1 thread. The summary reports the default plan's
//! median against the fastest nest any model produced.
//!
//! Run with `cargo bench -p spttn-bench --bench plan_choice`; set
//! `SPTTN_BENCH_JSON=<absolute path>` to append the group to the JSON
//! artifact. The target is `default / fastest ≤ 1.15` on every row;
//! rows above it print as `GAP`.

use rand::prelude::*;
use spttn::ir::{BufferSpec, ContractionPath, NestSpec};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::{Contraction, CostModel, Plan, PlanOptions, Shapes};
use spttn_bench::{black_box, Harness};

const GAP: f64 = 1.15;

/// One kernel at one shape: expression, every index's dimension, the
/// sparse input's written-order dims, and its nonzero count.
struct Row {
    name: &'static str,
    expr: &'static str,
    dims: &'static [(&'static str, usize)],
    sparse: &'static [usize],
    nnz: usize,
}

const MTTKRP_DIMS: &[(&str, usize)] = &[("i", 512), ("j", 96), ("k", 96), ("a", 32)];
const TTMC_DIMS: &[(&str, usize)] = &[("i", 384), ("j", 64), ("k", 64), ("r", 32), ("s", 32)];

const ROWS: &[Row] = &[
    Row {
        name: "mttkrp-m0",
        expr: "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]",
        dims: MTTKRP_DIMS,
        sparse: &[512, 96, 96],
        nnz: 250_000,
    },
    Row {
        name: "mttkrp-m1",
        expr: "T[i,j,k]*A[i,a]*C[k,a]->B[j,a]",
        dims: MTTKRP_DIMS,
        sparse: &[512, 96, 96],
        nnz: 250_000,
    },
    Row {
        name: "mttkrp-m2",
        expr: "T[i,j,k]*A[i,a]*B[j,a]->C[k,a]",
        dims: MTTKRP_DIMS,
        sparse: &[512, 96, 96],
        nnz: 250_000,
    },
    Row {
        name: "ttmc",
        expr: "T[i,j,k]*U[j,r]*V[k,s]->Y[i,r,s]",
        dims: TTMC_DIMS,
        sparse: &[384, 64, 64],
        nnz: 120_000,
    },
    Row {
        name: "tttp",
        expr: "T[i,j,k]*U[i,a]*V[j,a]*W[k,a]->S[i,j,k]",
        dims: MTTKRP_DIMS,
        sparse: &[512, 96, 96],
        nnz: 250_000,
    },
    Row {
        name: "all-mode-ttmc",
        expr: "T[i,j,k]*U[i,r]*V[j,s]*W[k,t]->S[r,s,t]",
        dims: &[
            ("i", 384),
            ("j", 64),
            ("k", 64),
            ("r", 8),
            ("s", 8),
            ("t", 8),
        ],
        sparse: &[384, 64, 64],
        nnz: 120_000,
    },
    Row {
        name: "ttmc-order4",
        expr: "T[i,j,k,l]*U[j,r]*V[k,s]*W[l,t]->S[i,r,s,t]",
        dims: &[
            ("i", 128),
            ("j", 32),
            ("k", 32),
            ("l", 32),
            ("r", 8),
            ("s", 8),
            ("t", 8),
        ],
        sparse: &[128, 32, 32, 32],
        nnz: 120_000,
    },
    Row {
        name: "spmv",
        expr: "A[i,j]*x[j]->y[i]",
        dims: &[("i", 20_000), ("j", 20_000)],
        sparse: &[20_000, 20_000],
        nnz: 400_000,
    },
];

const MODELS: [(&str, CostModel); 4] = [
    (
        "blas-aware:2",
        CostModel::BlasAware {
            buffer_dim_bound: 2,
        },
    ),
    ("max-buffer-dim", CostModel::MaxBufferDim),
    ("max-buffer-size", CostModel::MaxBufferSize),
    ("cache-miss:1", CostModel::CacheMiss { d: 1 }),
];

type NestKey = (ContractionPath, NestSpec, Vec<BufferSpec>);

fn nest_key(plan: &Plan) -> NestKey {
    (
        plan.path().clone(),
        plan.spec().clone(),
        plan.buffers().to_vec(),
    )
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s[s.len() / 2]
}

fn main() {
    let mut h =
        Harness::new("plan_choice: default plan vs fastest cost-model plan").with_runs(1, 7);
    // Per row: (default bench id, [(model label, bench id)]).
    let mut index: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for row in ROWS {
        let mut rng = StdRng::seed_from_u64(17);
        let coo = random_coo(row.sparse, row.nnz, &mut rng).unwrap();
        let natural: Vec<usize> = (0..row.sparse.len()).collect();
        let csf = Csf::from_coo(&coo, &natural).unwrap();
        let shapes = Shapes::new()
            .with_dims(row.dims)
            .with_profile(SparsityProfile::from_csf(&csf));

        let mut plans: Vec<(String, Plan)> = vec![(
            "default".to_string(),
            Contraction::parse(row.expr)
                .and_then(|c| c.plan(&shapes, &PlanOptions::default()))
                .expect("default plan"),
        )];
        for (label, model) in MODELS {
            let plan = Contraction::parse(row.expr)
                .and_then(|c| c.plan(&shapes, &PlanOptions::with_cost_model(model)))
                .expect("model plan");
            plans.push((label.to_string(), plan));
        }

        let kernel = plans[0].1.kernel().clone();
        let factors: Vec<(String, DenseTensor)> = kernel
            .inputs
            .iter()
            .enumerate()
            .filter(|(slot, _)| *slot != kernel.sparse_input)
            .map(|(_, r)| (r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)))
            .collect();
        let refs: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();

        // Time each distinct nest once; models that pick the same nest
        // share its row.
        let mut timed: Vec<(NestKey, String)> = Vec::new();
        let mut entry = (String::new(), Vec::new());
        for (label, plan) in &plans {
            let key = nest_key(plan);
            let id = match timed.iter().find(|(k, _)| *k == key) {
                Some((_, id)) => id.clone(),
                None => {
                    let id = format!("{} {label}", row.name);
                    let mut exec = plan.bind(csf.clone(), &refs).expect("bind");
                    let mut out = exec.output_template();
                    h.bench_function(&id, || {
                        exec.execute_into(&mut out).expect("execute");
                        black_box(&out);
                    });
                    h.note(
                        &id,
                        format!(
                            "{{\"tier\": {}, \"flops\": {}, \"traversal\": {}, \"work\": {}, \
                             \"counted_flops\": {}}}",
                            plan.tier,
                            plan.flops,
                            plan.traversal,
                            plan.work,
                            exec.last_stats().flops()
                        ),
                    );
                    timed.push((key, id.clone()));
                    id
                }
            };
            if label == "default" {
                entry.0 = id;
            } else {
                entry.1.push((label.clone(), id));
            }
        }
        index.push(entry);
    }
    let results = h.finish();
    let time_of = |id: &str| {
        results
            .iter()
            .find(|(r, _)| r == id)
            .map(|(_, s)| median(s))
            .expect("timed row")
    };

    println!("\ndefault vs fastest cost-model plan (median, 1 thread):");
    for (row, (default_id, models)) in ROWS.iter().zip(&index) {
        let default = time_of(default_id);
        let (best_label, best) = models
            .iter()
            .map(|(label, id)| (label.as_str(), time_of(id)))
            .fold(("", f64::INFINITY), |a, b| if b.1 < a.1 { b } else { a });
        let ratio = default / best;
        println!(
            "{:<14} default {:>9.3} ms | fastest {:>9.3} ms ({best_label}) | {ratio:>5.2}x{}",
            row.name,
            default,
            best,
            if ratio > GAP { "  GAP" } else { "" }
        );
    }
}
