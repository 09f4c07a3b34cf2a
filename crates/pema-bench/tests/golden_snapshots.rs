//! Golden-snapshot tests pinning simulator behavior byte-for-byte.
//!
//! The engine optimization work (calendar event queue, visit slot
//! pooling, precomputed samplers) is required to be *behavior
//! preserving*: the committed CSVs under `tests/goldens/` were
//! generated before the optimization and every run since must
//! reproduce them exactly. Three representative scenarios are run here
//! — one figure (`fig06`), one ablation (`ablation_ma`), and `table1`
//! — sequentially and in parallel; `registry_suite.rs` compares the
//! whole suite's smoke outputs against the same directory.

use pema_bench::{run_suite, SuiteConfig};
use std::path::{Path, PathBuf};

const TRIO: [&str; 3] = ["fig06", "ablation_ma", "table1"];

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pema-golden-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run_trio(dir: &Path, jobs: usize) {
    let cfg = SuiteConfig {
        jobs,
        only: Some(TRIO.iter().map(|s| s.to_string()).collect()),
        smoke: true,
        force: true,
        results_dir: Some(dir.to_path_buf()),
        ..SuiteConfig::default()
    };
    let reports = run_suite(&cfg).expect("suite runs");
    assert!(reports.iter().all(|r| r.ok()), "{reports:?}");
}

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

/// Every CSV the trio writes, compared byte-for-byte against the
/// committed pre-optimization goldens.
#[test]
fn scenario_csvs_match_committed_goldens() {
    let dir = tmp_dir("trio");
    run_trio(&dir, 1);
    let mut compared = 0usize;
    for entry in std::fs::read_dir(&dir).expect("the trio wrote its results") {
        let fresh_path = entry.unwrap().path();
        let name = fresh_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let fresh = std::fs::read(&fresh_path).unwrap();
        let golden = std::fs::read(goldens_dir().join(&name))
            .unwrap_or_else(|e| panic!("no committed golden for {name}: {e}"));
        assert_eq!(
            golden, fresh,
            "{name} diverged from the committed golden — the engine \
             changed behavior (run `pema-cli run fig06 ablation_ma table1 \
             --smoke --force` and diff against tests/goldens/)"
        );
        compared += 1;
    }
    assert_eq!(compared, 4, "the trio writes four CSVs");
}

/// `--jobs` invariance still holds for the pinned trio: a parallel run
/// produces the same bytes as the sequential one.
#[test]
fn golden_trio_is_jobs_invariant() {
    let d1 = tmp_dir("jobs1");
    let d4 = tmp_dir("jobs4");
    run_trio(&d1, 1);
    run_trio(&d4, 4);
    for entry in std::fs::read_dir(&d1).unwrap() {
        let p1 = entry.unwrap().path();
        if p1.extension().is_none_or(|x| x != "csv") {
            continue;
        }
        let name = p1.file_name().unwrap().to_string_lossy().into_owned();
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(d4.join(&name))
            .unwrap_or_else(|e| panic!("--jobs 4 run missing {name}: {e}"));
        assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 4");
    }
}
