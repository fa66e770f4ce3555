//! Reader fixtures: the checked-in `tests/data/small.tns` and
//! `tests/data/small.mtx` must ingest to known tensors, and the `.tns`
//! fixture must drive the full pipeline (the same file the CI smoke job
//! feeds to `spttn run`).

use rand::prelude::*;
use spttn::tensor::{load_coo, max_abs_diff, random_dense, Csf, DenseTensor};
use spttn::{Contraction, ContractionOutput, ModeOrderPolicy, PlanOptions, Shapes, Threads};
use spttn_exec::naive_einsum;

fn fixture(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn tns_fixture_ingests() {
    let coo = load_coo(fixture("small.tns")).unwrap();
    assert_eq!(coo.dims(), &[6, 5, 4]);
    // 19 lines, one duplicate pair merged.
    assert_eq!(coo.nnz(), 18);
    let dense = coo.to_dense();
    assert_eq!(dense.get(&[0, 0, 0]), 1.0); // 0.25 + 0.75 summed
    assert_eq!(dense.get(&[1, 2, 3]), 1.25); // 1-based "2 3 4" entry
    assert_eq!(dense.get(&[5, 4, 0]), 2.125);
}

#[test]
fn mtx_fixture_ingests() {
    let coo = load_coo(fixture("small.mtx")).unwrap();
    assert_eq!(coo.dims(), &[5, 4]);
    assert_eq!(coo.nnz(), 7);
    let dense = coo.to_dense();
    assert_eq!(dense.get(&[0, 0]), 2.0);
    assert_eq!(dense.get(&[4, 3]), 0.25);
}

#[test]
fn tns_fixture_runs_mttkrp_end_to_end() {
    // The exact scenario the CI smoke job drives through `spttn run`,
    // in-process: ingest the fixture, auto-order plan, execute at 1 and
    // 4 threads, diff against the naive oracle.
    let coo = load_coo(fixture("small.tns")).unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 6), ("j", 5), ("k", 4), ("a", 8)])
        .with_pattern(coo.clone());
    let mut rng = StdRng::seed_from_u64(7);
    let b = random_dense(&[5, 8], &mut rng);
    let c = random_dense(&[4, 8], &mut rng);

    for threads in [1usize, 4] {
        let plan = Contraction::parse("A(i,a) = T(i,j,k) * B(j,a) * C(k,a)")
            .unwrap()
            .plan(
                &shapes,
                &PlanOptions::default()
                    .with_mode_order(ModeOrderPolicy::Auto)
                    .with_threads(Threads::N(threads)),
            )
            .unwrap();
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        let mut exec = plan.bind(csf, &[("B", &b), ("C", &c)]).unwrap();
        let ContractionOutput::Dense(got) = exec.execute().unwrap() else {
            panic!("MTTKRP output is dense");
        };

        let kernel = plan.natural_kernel();
        let sparse_dense = coo.to_dense();
        let slots: Vec<&DenseTensor> = vec![&sparse_dense, &b, &c];
        let want = naive_einsum(&kernel, &slots).unwrap();
        let diff = max_abs_diff(got.as_slice(), want.as_slice());
        assert!(diff <= 1e-9, "threads {threads}: diff {diff}");
    }
}
