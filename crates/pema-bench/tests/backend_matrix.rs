//! The backend-parameterized scenario matrix: `--backend fluid` (and
//! `trace:<path>`) swap the execution environment under participating
//! scenarios while `--backend sim` stays byte-identical to the
//! historical default (DES goldens remain authoritative).

use pema_bench::{registry, run_suite, BackendSel, Outcome, SuiteConfig};
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pema-backend-matrix-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg(dir: &Path, backend: BackendSel, only: &[&str]) -> SuiteConfig {
    SuiteConfig {
        only: Some(only.iter().map(|s| s.to_string()).collect()),
        smoke: true,
        force: true,
        results_dir: Some(dir.to_path_buf()),
        backend,
        ..SuiteConfig::default()
    }
}

#[test]
fn backend_sel_parses_the_cli_grammar() {
    assert_eq!(BackendSel::parse("sim").unwrap(), BackendSel::Sim);
    assert_eq!(BackendSel::parse("fluid").unwrap(), BackendSel::Fluid);
    assert_eq!(
        BackendSel::parse("trace:runs/a.jsonl").unwrap(),
        BackendSel::Trace(PathBuf::from("runs/a.jsonl"))
    );
    assert!(BackendSel::parse("trace:").is_err());
    assert!(BackendSel::parse("k8s").is_err());
    assert_eq!(BackendSel::parse("fluid").unwrap().label(), "fluid");
}

#[test]
fn fluid_backend_runs_participating_scenarios_instantly() {
    let dir = tmp_dir("fluid");
    let participants: Vec<&str> = registry()
        .iter()
        .filter(|s| s.backend_matrix)
        .map(|s| s.id)
        .collect();
    let fluid = run_suite(&cfg(&dir, BackendSel::Fluid, &participants)).unwrap();
    for report in &fluid {
        assert!(matches!(report.outcome, Outcome::Completed), "{fluid:?}");
    }

    // Every CSV a participant writes is pinned under `--backend fluid`
    // too (`goldens/fluid/`, written by the same parent binary as the
    // DES goldens beside it) and differs from its DES golden: the
    // fluid model is approximate by design — same schema, different
    // numbers — so equality would mean the selection was ignored.
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    for s in registry().iter().filter(|s| s.backend_matrix) {
        for output in s.outputs {
            let name = format!("{output}.csv");
            let fresh = std::fs::read_to_string(dir.join(&name)).unwrap();
            let fluid_golden = std::fs::read_to_string(goldens.join("fluid").join(&name))
                .unwrap_or_else(|e| panic!("no fluid golden for {name}: {e}"));
            let sim_golden = std::fs::read_to_string(goldens.join(&name)).unwrap();
            assert!(fresh == fluid_golden, "{name} diverged from goldens/fluid");
            assert_eq!(
                fresh.lines().next(),
                sim_golden.lines().next(),
                "{name}: CSV schema must not depend on the backend"
            );
            assert_ne!(fresh, sim_golden, "{name}: fluid backend silently ignored");
        }
    }
}

#[test]
fn trace_backend_rejects_an_app_mismatch() {
    // Record a toy-chain trace, then ask a SockShop scenario (fig11)
    // to replay it: the mismatch must fail the scenario with a message
    // naming both apps, not silently replay alien telemetry.
    use pema::prelude::*;
    let app = pema_apps::toy_chain();
    let cfg_h = HarnessConfig {
        interval_s: 5.0,
        warmup_s: 1.0,
        seed: 3,
    };
    let recorder = TraceRecorder::new(&app, "hold", 0, &cfg_h);
    let handle = recorder.handle();
    Experiment::builder()
        .app(&app)
        .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
        .config(cfg_h)
        .rps(100.0)
        .iters(2)
        .observer(recorder)
        .run();
    let dir = tmp_dir("mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let tape = dir.join("toy.jsonl");
    handle.take().write_file(&tape).unwrap();

    let reports = run_suite(&cfg(&dir, BackendSel::Trace(tape), &["fig11"])).unwrap();
    match &reports[0].outcome {
        Outcome::Failed(e) => {
            assert!(
                e.contains("toy-chain") && e.contains("sockshop"),
                "error should name both apps: {e}"
            );
        }
        other => panic!("app-mismatched trace must fail the scenario, got {other:?}"),
    }
}
