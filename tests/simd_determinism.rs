//! Determinism contract of the SIMD microkernel layer, end to end
//! through the facade:
//!
//! - the default (`Microkernels::Auto`) tape agrees with the reference
//!   interpreter to ≤1e-9 on rank-specialization-friendly
//!   kernels (rank ∈ {8, 16, 32} hits the fixed-trip microkernels);
//! - a parallel SIMD tape is bitwise run-to-run deterministic at a
//!   fixed thread count, both across repeat executions of one bind and
//!   across independent binds of the same plan;
//! - `Microkernels::Scalar` reproduces the reference interpreter
//!   bitwise at 1 and 4 threads — the opt-out knob really does restore
//!   the pre-SIMD operation order.
//!
//! Every assertion here also holds when `SPTTN_MICROKERNELS=scalar`
//! forces the whole suite scalar (the CI leg): Auto then resolves to
//! the scalar kernels, and scalar-vs-oracle / determinism claims are
//! only easier.

mod support;

use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::{
    Contraction, ContractionOutput, CostModel, Executor, Microkernels, PlanOptions, Shapes, Threads,
};
use support::reference;

const TOL: f64 = 1e-9;

fn operands(kernel: &Kernel, nnz: usize, seed: u64) -> (Csf, Vec<(String, DenseTensor)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = kernel.ref_dims(kernel.sparse_ref());
    let coo = random_coo(&dims, nnz, &mut rng).unwrap();
    let order: Vec<usize> = (0..dims.len()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        if factors.iter().any(|(n, _)| *n == r.name) {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }
    (csf, factors)
}

fn bind(
    kernel: &Kernel,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    micro: Microkernels,
    threads: usize,
) -> Executor {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_profile(SparsityProfile::from_csf(csf)),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_threads(Threads::N(threads))
            .with_microkernels(micro),
        )
        .expect("planning succeeds");
    plan.verify_tape().expect("SIMD tape verifies clean");
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    plan.bind(csf.clone(), &refs).expect("bind succeeds")
}

fn bits(out: &ContractionOutput) -> Vec<u64> {
    out.to_dense()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Kernels whose dense ranks hit the R8/R16/R32 specializations.
fn specialization_kernels() -> Vec<(Kernel, usize, u64)> {
    vec![
        (stdkernels::mttkrp(&[48, 36, 40], 32), 1200, 71),
        (stdkernels::ttmc(&[36, 30, 28], &[16, 8]), 900, 72),
    ]
}

#[test]
fn simd_tape_matches_interp_oracle() {
    for (kernel, nnz, seed) in specialization_kernels() {
        let (csf, factors) = operands(&kernel, nnz, seed);
        for threads in [1usize, 4] {
            let mut exec = bind(&kernel, &csf, &factors, Microkernels::Auto, threads);
            // The reference is always scalar; the knob only moves the tape.
            let (oracle, _) = reference(&exec);
            let simd = exec.execute().unwrap();
            assert!(
                oracle.to_dense().approx_eq(&simd.to_dense(), TOL),
                "SIMD tape diverged from the reference: {} at {threads} threads",
                kernel.to_einsum()
            );
        }
    }
}

#[test]
fn parallel_simd_tape_is_run_to_run_bitwise_deterministic() {
    for (kernel, nnz, seed) in specialization_kernels() {
        let (csf, factors) = operands(&kernel, nnz, seed);
        let refs: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let plan = Contraction::from_kernel(kernel.clone())
            .plan(
                &Shapes::new().with_profile(SparsityProfile::from_csf(&csf)),
                &PlanOptions::with_cost_model(CostModel::BlasAware {
                    buffer_dim_bound: 2,
                })
                .with_threads(Threads::N(4))
                .with_microkernels(Microkernels::Auto),
            )
            .unwrap();
        // Repeat executions of one bind: identical bits.
        let mut exec = plan.bind(csf.clone(), &refs).unwrap();
        let first = exec.execute().unwrap();
        for _ in 0..2 {
            let again = exec.execute().unwrap();
            assert_eq!(
                bits(&first),
                bits(&again),
                "parallel SIMD tape not bitwise stable across executes: {}",
                kernel.to_einsum()
            );
        }
        // A fresh bind of the same plan: still identical bits (the
        // kernel selection is recorded in the tape at bind time, not
        // re-drawn per run).
        let refreshed = plan.bind(csf.clone(), &refs).unwrap().execute().unwrap();
        assert_eq!(
            bits(&first),
            bits(&refreshed),
            "parallel SIMD tape not bitwise stable across binds: {}",
            kernel.to_einsum()
        );
    }
}

#[test]
fn scalar_forced_tape_reproduces_interp_bitwise() {
    for (kernel, nnz, seed) in specialization_kernels() {
        let (csf, factors) = operands(&kernel, nnz, seed);
        for threads in [1usize, 4] {
            let mut exec = bind(&kernel, &csf, &factors, Microkernels::Scalar, threads);
            let (interp, _) = reference(&exec);
            let scalar_tape = exec.execute().unwrap();
            // The scalar-forced tape runs the same generic loops in the
            // same order as the interpreter (and reduces the same tile
            // partials) — bit-for-bit, not just ≤1e-9.
            assert_eq!(
                bits(&interp),
                bits(&scalar_tape),
                "Microkernels::Scalar must restore the pre-SIMD operation order: {} at {threads} threads",
                kernel.to_einsum()
            );
        }
    }
}
