//! `spttn run --check` must fail on a NaN-poisoned result: a NaN in
//! the input reaches both the output and the oracle, and a NaN-blind
//! diff would report `max |Δ| = 0` and pass.

use std::path::PathBuf;
use std::process::Command;

const MTTKRP: &str = "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)";

/// Write a 3×3×3 `.tns` file whose second value is `poison`.
fn write_tns(name: &str, poison: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spttn-check-nan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let body = format!("1 1 1 0.5\n2 2 2 {poison}\n3 3 1 -1.25\n");
    std::fs::write(&path, body).unwrap();
    path
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
