//! Exec-level parallel golden tests: the persistent [`ParallelExecutor`]
//! must match the serial reference interpreter on dense- and
//! sparse-output nests, at every thread count, bitwise-deterministically.

use rand::prelude::*;
use spttn_exec::reference::interpret;
use spttn_exec::{
    execute_tape_into, execute_tape_tile_into, CompiledTape, ContractionOutput, OutputMut,
    ParallelExecutor, Workspace,
};
use spttn_ir::{buffers_for_forest, build_forest, parse_kernel, path_from_picks, NestSpec};
use spttn_tensor::{random_coo, random_dense, Csf, DenseTensor};
use std::sync::Arc;

const TOL: f64 = 1e-9;

struct Fixture {
    kernel: spttn_ir::Kernel,
    path: spttn_ir::ContractionPath,
    forest: spttn_ir::LoopForest,
    csf: Csf,
    factors: Vec<DenseTensor>,
}

/// TTMc (Listing 3 orders): dense output, AXPY-heavy.
fn ttmc_fixture(seed: u64) -> Fixture {
    let kernel = parse_kernel(
        "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
        &[("i", 20), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
    )
    .unwrap();
    let path = path_from_picks(&kernel, &[(0, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
    };
    let forest = build_forest(&kernel, &path, &spec).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(&[20, 9, 10], 300, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = vec![
        random_dense(&[9, 4], &mut rng),
        random_dense(&[10, 5], &mut rng),
    ];
    Fixture {
        kernel,
        path,
        forest,
        csf,
        factors,
    }
}

/// TTTP-like: output shares the sparse pattern (disjoint-range path).
fn tttp_fixture(seed: u64) -> Fixture {
    let kernel = parse_kernel(
        "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
        &[("i", 18), ("j", 8), ("k", 9), ("r", 4)],
    )
    .unwrap();
    // Path: (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k,r); (T*X1)->S.
    let path = path_from_picks(&kernel, &[(1, 2), (1, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 3], vec![0, 1, 2, 3], vec![0, 1, 2]],
    };
    let forest = build_forest(&kernel, &path, &spec).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(&[18, 8, 9], 220, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = vec![
        random_dense(&[18, 4], &mut rng),
        random_dense(&[8, 4], &mut rng),
        random_dense(&[9, 4], &mut rng),
    ];
    Fixture {
        kernel,
        path,
        forest,
        csf,
        factors,
    }
}

/// The serial reference interpreter over the whole tensor.
fn serial(f: &Fixture) -> ContractionOutput {
    let refs: Vec<&DenseTensor> = f.factors.iter().collect();
    let specs = buffers_for_forest(&f.kernel, &f.path, &f.forest, None);
    let tile = &f.csf.partition(1)[0];
    interpret(&f.kernel, &f.path, &f.forest, &specs, &f.csf, tile, &refs)
        .unwrap()
        .0
}

/// Slot-ordered factors (placeholder in the sparse slot), as the
/// persistent executor consumes them.
fn slotted(f: &Fixture) -> Vec<DenseTensor> {
    let mut slots = vec![DenseTensor::zeros(&[])];
    slots.extend(f.factors.iter().cloned());
    slots
}

/// A scalar tape for the fixture's nest, shareable across workers.
fn tape(f: &Fixture) -> Arc<CompiledTape> {
    Arc::new(CompiledTape::from_forest(&f.kernel, &f.path, &f.forest).unwrap())
}

fn parallel(f: &Fixture, threads: usize) -> ParallelExecutor {
    let specs = buffers_for_forest(&f.kernel, &f.path, &f.forest, None);
    ParallelExecutor::new(
        tape(f),
        &f.kernel,
        &f.path,
        &f.forest,
        &specs,
        &f.csf,
        threads,
    )
}

#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn parallel_matches_serial_at_every_thread_count() {
    for fixture in [ttmc_fixture(11), tttp_fixture(12)] {
        let want = serial(&fixture).to_dense();
        let slots = slotted(&fixture);
        for threads in [1, 2, 3, 4, 7, 64] {
            let mut par = parallel(&fixture, threads);
            let got = if fixture.kernel.output_sparse {
                let mut vals = vec![0.0; fixture.csf.nnz()];
                par.execute_into(
                    &fixture.kernel,
                    &fixture.csf,
                    &slots,
                    OutputMut::Sparse(&mut vals),
                )
                .unwrap();
                fixture.csf.to_coo().with_vals(vals).to_dense()
            } else {
                let mut out = DenseTensor::zeros(&fixture.kernel.ref_dims(&fixture.kernel.output));
                par.execute_into(
                    &fixture.kernel,
                    &fixture.csf,
                    &slots,
                    OutputMut::Dense(&mut out),
                )
                .unwrap();
                out
            };
            assert!(
                got.approx_eq(&want, TOL),
                "threads = {threads} diverged from serial"
            );
        }
    }
}

#[test]
fn parallel_executor_matches_serial_and_is_deterministic() {
    let fixture = ttmc_fixture(21);
    let want = serial(&fixture).to_dense();
    let slots = slotted(&fixture);
    for threads in [2, 4, 7] {
        let mut par = parallel(&fixture, threads);
        let mut run = || {
            let mut out = DenseTensor::zeros(&[20, 4, 5]);
            par.execute_into(
                &fixture.kernel,
                &fixture.csf,
                &slots,
                OutputMut::Dense(&mut out),
            )
            .unwrap();
            out
        };
        let first = run();
        assert!(first.approx_eq(&want, TOL), "threads = {threads}");
        // Bitwise determinism across repeated executions.
        let second = run();
        assert_eq!(first.as_slice(), second.as_slice());
    }
}

#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn parallel_executor_sparse_output_disjoint_ranges() {
    let fixture = tttp_fixture(22);
    let want = serial(&fixture).to_dense();
    let slots = slotted(&fixture);
    let mut par = parallel(&fixture, 4);
    let mut vals = vec![0.0; fixture.csf.nnz()];
    par.execute_into(
        &fixture.kernel,
        &fixture.csf,
        &slots,
        OutputMut::Sparse(&mut vals),
    )
    .unwrap();
    let got = fixture.csf.to_coo().with_vals(vals.clone()).to_dense();
    assert!(got.approx_eq(&want, TOL));
    // Exact equality with the serial path: every leaf is written by
    // exactly one tile, with the same per-leaf accumulation order.
    let ContractionOutput::Sparse(serial_coo) = serial(&fixture) else {
        panic!("TTTP output must be sparse");
    };
    assert_eq!(vals, serial_coo.vals());
    // Stats aggregate across tiles to the serial counts.
    let mut ws = Workspace::new(&fixture.kernel, &fixture.path, &fixture.forest);
    let mut serial_vals = vec![0.0; fixture.csf.nnz()];
    execute_tape_into(
        &tape(&fixture),
        &fixture.kernel,
        &fixture.csf,
        &slots,
        &mut ws,
        OutputMut::Sparse(&mut serial_vals),
    )
    .unwrap();
    assert_eq!(par.stats(), ws.stats());
}

/// A tiling is valid only for the structure it was computed from: a
/// same-nnz tensor with a different pattern must be rejected, not
/// silently half-executed.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn parallel_executor_rejects_different_structure() {
    let fixture = ttmc_fixture(31);
    let slots = slotted(&fixture);
    let mut par = parallel(&fixture, 4);
    // Same dims and nnz, different pattern (different seed).
    let mut rng = StdRng::seed_from_u64(99);
    let other = Csf::from_coo(
        &random_coo(&[20, 9, 10], 300, &mut rng).unwrap(),
        &[0, 1, 2],
    )
    .unwrap();
    assert_eq!(other.nnz(), fixture.csf.nnz());
    let mut out = DenseTensor::zeros(&[20, 4, 5]);
    let err = par
        .execute_into(&fixture.kernel, &other, &slots, OutputMut::Dense(&mut out))
        .unwrap_err();
    assert!(
        format!("{err}").contains("different structure"),
        "unexpected error: {err}"
    );
    // Same-pattern value updates still execute fine.
    let mut same = fixture.csf.clone();
    same.vals_mut().iter_mut().for_each(|v| *v *= 2.0);
    par.execute_into(&fixture.kernel, &same, &slots, OutputMut::Dense(&mut out))
        .unwrap();
}

#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn tile_partials_sum_to_full_output() {
    let fixture = ttmc_fixture(23);
    let want = serial(&fixture).to_dense();
    let slots = slotted(&fixture);
    let tiles = fixture.csf.partition(3);
    let tape = tape(&fixture);
    let mut acc = DenseTensor::zeros(&[20, 4, 5]);
    for tile in &tiles {
        let mut ws = Workspace::new(&fixture.kernel, &fixture.path, &fixture.forest);
        let mut partial = DenseTensor::zeros(&[20, 4, 5]);
        execute_tape_tile_into(
            &tape,
            &fixture.kernel,
            &fixture.csf,
            tile,
            &slots,
            &mut ws,
            OutputMut::Dense(&mut partial),
        )
        .unwrap();
        for (a, p) in acc.as_mut_slice().iter_mut().zip(partial.as_slice()) {
            *a += p;
        }
    }
    assert!(acc.approx_eq(&want, TOL));
}
