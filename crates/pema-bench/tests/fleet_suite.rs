//! Fleet scenario pinning: the summary and per-interval CSVs of smoke
//! `fleet_scale` and `fleet_contention` runs are compared
//! byte-for-byte against committed goldens (`tests/goldens/fleet/`),
//! so neither the fleet scheduler, the arbitration barrier, the fluid
//! backend, nor the scenarios' own aggregation can drift silently.
//! Scheduling-order invariance is proven at the `Fleet` level by the
//! property tests in `pema-control`; `--jobs` invariance of these CSVs
//! is pinned by `registry_suite.rs`; and `--fleet-threads` invariance
//! (sharded scheduler, same bytes — with and without an arbitration
//! budget) is pinned here against the single-threaded run.

use pema_bench::{run_suite, Outcome, SuiteConfig};
use std::path::{Path, PathBuf};

const FLEET_SCENARIOS: [&str; 2] = ["fleet_scale", "fleet_contention"];
const FLEET_CSVS: [&str; 4] = [
    "fleet_scale.csv",
    "fleet_scale_apps.csv",
    "fleet_contention.csv",
    "fleet_contention_rounds.csv",
];

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pema-fleet-suite-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run_fleet_scenarios_threaded(dir: &Path, fleet_threads: usize) {
    let cfg = SuiteConfig {
        only: Some(FLEET_SCENARIOS.iter().map(|s| s.to_string()).collect()),
        smoke: true,
        force: true,
        results_dir: Some(dir.to_path_buf()),
        fleet_threads,
        ..SuiteConfig::default()
    };
    let reports = run_suite(&cfg).expect("suite runs");
    for report in &reports {
        assert!(matches!(report.outcome, Outcome::Completed), "{reports:?}");
    }
}

fn run_fleet_scenarios(dir: &Path) {
    run_fleet_scenarios_threaded(dir, 1);
}

#[test]
fn fleet_csvs_match_committed_goldens() {
    let dir = tmp_dir("golden");
    run_fleet_scenarios(&dir);
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("fleet");
    let mut compared = 0usize;
    for entry in std::fs::read_dir(&goldens).expect("fleet goldens exist") {
        let golden_path = entry.unwrap().path();
        if golden_path.extension().is_none_or(|x| x != "csv") {
            continue;
        }
        let name = golden_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let golden = std::fs::read(&golden_path).unwrap();
        let fresh = std::fs::read(dir.join(&name))
            .unwrap_or_else(|e| panic!("fleet scenarios did not produce {name}: {e}"));
        assert_eq!(
            golden, fresh,
            "{name} diverged from the committed golden — the fleet scheduler, \
             arbitration barrier, or fluid backend changed behavior (run \
             `pema-cli run fleet_scale fleet_contention --smoke --force` and \
             diff against tests/goldens/fleet/)"
        );
        compared += 1;
    }
    assert_eq!(
        compared,
        FLEET_CSVS.len(),
        "expected the fleet_scale summary + per-interval goldens and the \
         fleet_contention summary + per-round goldens"
    );
}

#[test]
fn fleet_csvs_are_invariant_to_fleet_threads() {
    // The scenario-level face of the sharding guarantee: the exact
    // bytes the suite writes — including the per-interval rows the
    // observers emit from shard worker threads, and the arbitrated
    // grants negotiated at the contention barrier — match the
    // single-threaded (and hence golden) output at 2, 7, and auto
    // worker threads.
    let base = tmp_dir("threads-1");
    run_fleet_scenarios_threaded(&base, 1);
    for threads in [2usize, 7, 0] {
        let dir = tmp_dir(&format!("threads-{threads}"));
        run_fleet_scenarios_threaded(&dir, threads);
        for name in FLEET_CSVS {
            let a = std::fs::read(base.join(name)).unwrap();
            let b = std::fs::read(dir.join(name)).unwrap();
            assert_eq!(
                a, b,
                "{name} differs between --fleet-threads 1 and {threads}"
            );
        }
    }
}

#[test]
fn fleet_csvs_are_run_to_run_deterministic() {
    let d1 = tmp_dir("det-a");
    let d2 = tmp_dir("det-b");
    run_fleet_scenarios(&d1);
    run_fleet_scenarios(&d2);
    for name in FLEET_CSVS {
        let a = std::fs::read(d1.join(name)).unwrap();
        let b = std::fs::read(d2.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between two identical runs");
    }
}
