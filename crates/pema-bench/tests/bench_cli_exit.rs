//! Exit-code contract of the `bench` driver binary.
//!
//! CI's smoke step relies on `bench` exiting non-zero whenever any
//! scenario reports `Outcome::Failed` — a suite that prints FAILED but
//! exits 0 would silently green-light broken experiments. These tests
//! run the real binary.

use std::path::PathBuf;
use std::process::Command;

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_bench")
}

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pema-bench-exit-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::remove_file(&d);
    d
}

#[test]
fn failing_scenario_exits_nonzero() {
    // Point the results dir *under a regular file*: `create_dir_all`
    // fails, the scenario reports `Outcome::Failed`, and the driver
    // must exit 1.
    let blocker = tmp("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out = Command::new(bench_bin())
        .args(["run", "fig06", "--smoke", "--force"])
        .env("PEMA_RESULTS_DIR", blocker.join("nested"))
        .output()
        .expect("bench binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn successful_scenario_exits_zero() {
    let dir = tmp("ok");
    let out = Command::new(bench_bin())
        .args(["run", "fig06", "--smoke", "--force"])
        .env("PEMA_RESULTS_DIR", &dir)
        .output()
        .expect("bench binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("fig06.csv").exists());
}

#[test]
fn list_exits_zero_and_names_every_scenario() {
    // `bench list` doubles as CI's registry sanity gate: exit 0 with
    // every id listed (it exits 1 on duplicate ids/outputs, which a
    // healthy registry can't exhibit — the registry_suite test pins
    // uniqueness at the library level).
    let out = Command::new(bench_bin())
        .arg("list")
        .output()
        .expect("bench binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for s in pema_bench::registry() {
        assert!(stdout.contains(s.id()), "missing {} in:\n{stdout}", s.id());
    }
}

#[test]
fn unknown_scenario_is_a_usage_error() {
    // An unknown scenario id and an unknown command (`perf` was one
    // once) both exit 2 and name the offending word on stderr.
    for args in [&["run", "--smoke", "no-such-scenario"][..], &["perf"]] {
        let out = Command::new(bench_bin())
            .args(args)
            .output()
            .expect("bench binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let word = args.last().unwrap();
        assert!(stderr.contains(&format!("'{word}'")), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_backend_is_a_usage_error() {
    let out = Command::new(bench_bin())
        .args(["run", "fig06", "--backend", "quantum"])
        .output()
        .expect("bench binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quantum"), "stderr: {stderr}");
}
