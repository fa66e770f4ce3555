//! `spttn run --check` must fail on a NaN-poisoned result: a NaN in
//! the input reaches both the output and the oracle, and a NaN-blind
//! diff would report `max |Δ| = 0` and pass. It must also agree with
//! the oracle on empty (zero-length) indices, and refuse an oracle too
//! large to densify with a typed error.

use std::path::PathBuf;
use std::process::Command;

const MTTKRP: &str = "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)";

/// Write a `.tns` file with the given body.
fn write_body(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spttn-check-nan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

/// Write a 3×3×3 `.tns` file whose second value is `poison`.
fn write_tns(name: &str, poison: &str) -> PathBuf {
    write_body(name, &format!("1 1 1 0.5\n2 2 2 {poison}\n3 3 1 -1.25\n"))
}

fn run_check(tns: &PathBuf) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_spttn"))
        .args(["run", MTTKRP, "--tns"])
        .arg(tns)
        .args(["--rank", "4", "--check"])
        .output()
        .unwrap();
    std::fs::remove_file(tns).unwrap();
    out
}

#[test]
fn check_passes_on_finite_input() {
    let out = run_check(&write_tns("finite.tns", "2.0"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn check_fails_on_nan_poisoned_output() {
    let out = run_check(&write_tns("nan.tns", "nan"));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max |Δ| vs naive oracle = inf"), "{stdout}");
}

/// A zero-length index (`--rank 0`) empties the output and the oracle's
/// index space alike: the check must agree, not report phantom data.
#[test]
fn check_passes_with_zero_rank() {
    for threads in ["1", "2"] {
        let tns = write_body(&format!("rank0-{threads}.tns"), "1 1 1 0.5\n2 3 1 0.75\n");
        let out = Command::new(env!("CARGO_BIN_EXE_spttn"))
            .args(["run", MTTKRP, "--tns"])
            .arg(&tns)
            .args(["--rank", "0", "--threads", threads, "--check"])
            .output()
            .unwrap();
        std::fs::remove_file(&tns).unwrap();
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("max |Δ| vs naive oracle = 0.000e0"),
            "{stdout}"
        );
    }
}

/// `--check` on an input whose dense index space the oracle cannot
/// hold fails with one typed error line (exit 1), on both `run` and
/// `net`, instead of aborting on the allocation.
#[test]
fn check_rejects_oversized_oracle() {
    for cmd in ["run", "net"] {
        let tns = write_body(&format!("huge-{cmd}.tns"), "1000000 1000000 1000000 1.0\n");
        let out = Command::new(env!("CARGO_BIN_EXE_spttn"))
            .args([cmd, MTTKRP, "--tns"])
            .arg(&tns)
            .args(["--rank", "4", "--check"])
            .output()
            .unwrap();
        std::fs::remove_file(&tns).unwrap();
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.contains("4000000000000000000 dense points") && stderr.contains("2^32"),
            "{stderr}"
        );
    }
}
