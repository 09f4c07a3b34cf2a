//! Integration tests on the scenario registry and the parallel
//! executor: unique ids, a full `--smoke` pass of every registered
//! scenario compared byte-for-byte against the committed goldens, and
//! byte-identical CSVs across `--jobs` values.

use pema_bench::{registry, run_suite, Outcome, SuiteConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pema-bench-it-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn smoke_cfg(dir: &Path, jobs: usize, only: Option<&[&str]>) -> SuiteConfig {
    SuiteConfig {
        jobs,
        only: only.map(|ids| ids.iter().map(|s| s.to_string()).collect()),
        smoke: true,
        force: true,
        results_dir: Some(dir.to_path_buf()),
        ..SuiteConfig::default()
    }
}

/// Sorted `(file name, bytes)` of every file (no directories) under
/// `dir`.
fn file_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.path().is_file())
        .map(|entry| {
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn registry_ids_and_outputs_are_unique() {
    let mut ids = HashMap::new();
    let mut outputs = HashMap::new();
    for s in registry() {
        assert!(
            ids.insert(s.id, ()).is_none(),
            "duplicate scenario id {}",
            s.id
        );
        assert!(!s.about.is_empty(), "{} needs a description", s.id);
        assert!(!s.outputs.is_empty(), "{} declares no outputs", s.id);
        for o in s.outputs {
            assert!(
                outputs.insert(*o, s.id).is_none(),
                "output {o} claimed by both {} and {}",
                outputs[o],
                s.id
            );
        }
    }
    assert_eq!(
        registry().len(),
        25,
        "expected the 20 paper scenarios + tail_knee + cluster_scale + trace_replay \
         + fleet_scale + fleet_contention"
    );
}

/// Pins exactly which scenarios `--backend` reaches (the row's flag is
/// the switch: a context is built on the DES unless it says `true`).
/// Every registered scenario must appear in one of the two lists, so a
/// new scenario cannot silently opt out — adding one forces an explicit
/// decision (and a diff here) either way.
#[test]
fn backend_matrix_participation_is_pinned() {
    let participants: Vec<&str> = registry()
        .iter()
        .filter(|s| s.backend_matrix)
        .map(|s| s.id)
        .collect();
    assert_eq!(
        participants,
        [
            // One-shot windows through ctx.measure, which reads the
            // selection (fluid model under `--backend fluid`)…
            "fig05", "fig06", "fig07",
            // …and the closed-loop paper scenarios, through
            // ctx.closed_loop.
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig20",
        ],
        "the scenarios that measure through ctx.measure / ctx.closed_loop"
    );
    let opted_out: Vec<&str> = registry()
        .iter()
        .filter(|s| !s.backend_matrix)
        .map(|s| s.id)
        .collect();
    assert_eq!(
        opted_out,
        [
            // Sweeps that drive `ClusterSim` / the classifier's dataset
            // generator directly…
            "fig08",
            "table1",
            // …ablations defined against the DES engine…
            "ablation_ma",
            "ablation_explore",
            "ablation_thresholds",
            "ablation_fluid",
            "ablation_early",
            // …and scenarios whose backend IS the experiment.
            "tail_knee",
            "cluster_scale",
            "trace_replay",
            "fleet_scale",
            "fleet_contention",
        ],
        "an opted-out scenario must be a deliberate entry in this list"
    );
}

#[test]
fn every_scenario_completes_a_smoke_run() {
    let dir = tmp_dir("smoke-all");
    let reports = run_suite(&smoke_cfg(&dir, 4, None)).expect("suite config valid");
    assert_eq!(reports.len(), registry().len());
    for r in &reports {
        match &r.outcome {
            Outcome::Completed => {}
            other => panic!("{} did not complete: {other:?}", r.id),
        }
    }
    // Every declared output CSV must exist and be non-empty.
    for s in registry() {
        for o in s.outputs {
            let p = dir.join(format!("{o}.csv"));
            let meta = std::fs::metadata(&p)
                .unwrap_or_else(|e| panic!("{} missing output {}: {e}", s.id, p.display()));
            assert!(meta.len() > 0, "{} wrote an empty {}", s.id, p.display());
        }
    }
    // And the whole results directory — 29 CSVs and the recorded tape —
    // is, byte for byte, the committed goldens (written by the binary
    // of the commit before the suite's plumbing was replaced; the fleet
    // CSVs keep their own directory).
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let mut golden = file_bytes(&goldens);
    golden.extend(file_bytes(&goldens.join("fleet")));
    golden.sort();
    let fresh = file_bytes(&dir);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&fresh), names(&golden), "smoke outputs vs goldens");
    for ((name, fresh), (_, golden)) in fresh.iter().zip(&golden) {
        assert!(
            fresh == golden,
            "{name} diverged from tests/goldens (`pema-cli all --smoke --force` rewrites it)"
        );
    }
}

#[test]
fn jobs1_and_jobs4_produce_identical_csv_bytes() {
    // A representative subset keeps the double run fast while covering
    // the shared-OPTM-cache path (fig05), a plain controller run
    // (fig11), the workload-aware manager (fig13), the classifier
    // (table1), the record→replay stack (trace_replay — an
    // acceptance criterion pins its CSV as jobs-invariant), and the
    // concurrent fleet (fleet_scale — likewise pinned jobs-invariant).
    let subset = [
        "fig05",
        "fig11",
        "fig13",
        "table1",
        "trace_replay",
        "fleet_scale",
    ];
    let serial_dir = tmp_dir("det-serial");
    let parallel_dir = tmp_dir("det-parallel");
    let serial = run_suite(&smoke_cfg(&serial_dir, 1, Some(&subset))).unwrap();
    let parallel = run_suite(&smoke_cfg(&parallel_dir, 4, Some(&subset))).unwrap();
    assert!(serial.iter().all(|r| r.ok()), "{serial:?}");
    assert!(parallel.iter().all(|r| r.ok()), "{parallel:?}");

    let a = file_bytes(&serial_dir);
    let b = file_bytes(&parallel_dir);
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "file sets differ"
    );
    for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(
            bytes_a, bytes_b,
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }
}
