//! The tape's bytes, pinned against a file an earlier writer produced.
//!
//! `trace_roundtrip.rs` shows that what this build writes this build
//! reads back; it cannot show that the *format* is the one older files
//! are in. `fixtures/tape_v1.jsonl` was written by the commit before
//! the reader and the writer were rebuilt (typed single-pass decode,
//! `format!`-free encode), from exactly the run below, and both
//! directions are held to it.

use pema_control::{Experiment, HarnessConfig, UseFluid};
use pema_core::{PemaController, PemaParams};
use pema_trace::{ReadMode, Trace, TraceRecorder};

/// Eight fluid intervals of the toy chain under PEMA with §6 early
/// checks, starting under-provisioned and stepped by hand through a
/// load that jumps: two windows saturate (`"inf"` latencies, aborted
/// at the first check, `early-rollback`), the rest run full length.
/// One service name needs every kind of escape, the loads are not
/// integers, and both seeds lie above 2^53.
fn recorded_run() -> Trace {
    let mut app = pema_apps::toy_chain();
    app.services[1].name = "lo\"gic\\\n\u{1}é".into();
    app.generous_alloc = vec![0.4, 0.5, 0.3];
    let slo_ms = 90.0;
    let cfg = HarnessConfig {
        interval_s: 8.0,
        warmup_s: 1.0,
        seed: u64::MAX - 12_345,
    };
    let mut params = PemaParams::defaults(slo_ms);
    params.seed = (1 << 53) + 0xEC1;
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg)
        .with_slo_ms(slo_ms)
        .with_early_check(2.0);
    let handle = recorder.handle();
    let mut run = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .backend(UseFluid)
        .config(cfg)
        .early_check(2.0)
        .observer(recorder)
        .build();
    for rps in [212.5, 212.5, 90.25, 141.0, 333.125, 60.5, 60.5, 250.0] {
        run.step_once(rps);
    }
    handle.take()
}

#[test]
fn tape_matches_the_fixture_written_before_the_format_code_changed() {
    let fixture = include_str!("fixtures/tape_v1.jsonl");
    let trace = recorded_run();

    // The run still has what the fixture was chosen for.
    assert_eq!(trace.records.len(), 8);
    assert!(trace.records[0].stats.p95_ms.is_infinite());
    assert!(trace.records[0].action.starts_with("early-"));
    assert!(trace.records.iter().any(|r| r.rps.fract() != 0.0));
    assert!(trace.meta.backend_seed > 1 << 53 && trace.meta.policy_seed > 1 << 53);

    assert!(
        trace.to_jsonl() == fixture,
        "the tape is no longer byte-identical to the fixture"
    );
    assert_eq!(
        Trace::parse_jsonl(fixture, ReadMode::Strict).expect("the fixture reads strictly"),
        trace
    );
}
