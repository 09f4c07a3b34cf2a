//! Replay determinism and counterfactual-evaluation behaviour.
//!
//! The headline guarantee (an acceptance criterion of the trace
//! subsystem): replaying a trace recorded from a [`SimBackend`] run
//! under the *identical* policy reproduces the recorded per-interval
//! decision sequence bit-identically — through a full disk round trip
//! — and reports zero divergence. Different policies produce honest
//! divergence metrics instead.

use pema_control::{Experiment, HarnessConfig, HoldPolicy, RulePolicy};
use pema_core::{PemaController, PemaParams};
use pema_trace::{replay, ReadMode, Trace, TraceRecorder};

fn record_pema_run(iters: usize) -> (Trace, Vec<(String, Vec<f64>, f64)>) {
    let app = pema_apps::toy_chain();
    let cfg = HarnessConfig {
        interval_s: 6.0,
        warmup_s: 1.0,
        seed: 42,
    };
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0x7ACE;
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
    let handle = recorder.handle();
    let result = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .config(cfg)
        .rps(130.0)
        .iters(iters)
        .observer(recorder)
        .run();
    let recorded: Vec<(String, Vec<f64>, f64)> = result
        .log
        .iter()
        .map(|l| (l.action.clone(), l.alloc.clone(), l.p95_ms))
        .collect();
    (handle.take(), recorded)
}

fn same_policy(trace: &Trace) -> PemaController {
    let mut params = PemaParams::defaults(trace.meta.slo_ms);
    params.seed = trace.meta.policy_seed;
    PemaController::new(params, trace.meta.initial_alloc.clone())
}

#[test]
fn same_policy_replay_reproduces_decisions_bit_identically() {
    let (trace, recorded) = record_pema_run(12);
    assert_eq!(trace.records.len(), 12);

    // Full disk round trip: the replay reads what the recorder wrote.
    let dir = std::env::temp_dir().join("pema-trace-determinism");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    trace.write_file(&path).unwrap();
    let from_disk = Trace::read_file(&path, ReadMode::Strict).unwrap();

    let rerun = replay(&from_disk, same_policy(&from_disk));
    assert_eq!(rerun.result.log.len(), recorded.len());
    for (i, ((action, alloc, p95), replayed)) in recorded.iter().zip(&rerun.result.log).enumerate()
    {
        assert_eq!(action, &replayed.action, "action diverged at interval {i}");
        assert_eq!(
            alloc.len(),
            replayed.alloc.len(),
            "alloc arity diverged at interval {i}"
        );
        for (a, b) in alloc.iter().zip(&replayed.alloc) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "allocation diverged at interval {i}: {a} vs {b}"
            );
        }
        assert_eq!(
            p95.to_bits(),
            replayed.p95_ms.to_bits(),
            "replayed p95 diverged at interval {i}"
        );
    }

    // Zero divergence, by construction.
    assert!(
        rerun.summary.is_zero(),
        "same-policy replay must not diverge: {:?}",
        rerun.summary
    );
    assert!(rerun.divergence.iter().all(|d| d.l1_delta == 0.0));
}

#[test]
fn replayed_timeline_matches_the_recording() {
    let (trace, _) = record_pema_run(6);
    let rerun = replay(&trace, same_policy(&trace));
    for (r, l) in trace.records.iter().zip(&rerun.result.log) {
        assert_eq!(
            r.time_s.to_bits(),
            l.time_s.to_bits(),
            "reconstructed now_s diverged at interval {}",
            r.iter
        );
        assert_eq!(r.stats.duration_s, l.interval_s);
    }
}

#[test]
fn early_check_and_slo_override_runs_replay_exactly() {
    // A run whose policy targets an SLO other than the app's, tight
    // enough to trigger §6 early aborts: the recorder mirrors both
    // knobs into the header, and the replay must reproduce the
    // `early-…` action tags and the shortened intervals exactly.
    let app = pema_apps::toy_chain();
    // An SLO the toy chain cannot meet even at the generous
    // allocation, so early checks fire from the first interval.
    let slo_override = 6.0;
    let cfg = HarnessConfig {
        interval_s: 8.0,
        warmup_s: 1.0,
        seed: 5,
    };
    let mut params = PemaParams::defaults(slo_override);
    params.seed = 0xEC;
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg)
        .with_slo_ms(slo_override)
        .with_early_check(2.0);
    let handle = recorder.handle();
    let recorded = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(
            params.clone(),
            app.generous_alloc.clone(),
        ))
        .config(cfg)
        .early_check(2.0)
        .rps(170.0)
        .iters(10)
        .observer(recorder)
        .run();
    let trace = handle.take();
    assert_eq!(trace.meta.slo_ms, slo_override);
    assert_eq!(trace.meta.early_check_s, Some(2.0));
    assert!(
        recorded.log.iter().any(|l| l.action.starts_with("early-")),
        "the recording should contain early-aborted intervals for this test to bite"
    );

    // Through the disk, like a real workflow.
    let from_disk = Trace::parse_jsonl(&trace.to_jsonl(), ReadMode::Strict).unwrap();
    let rerun = replay(
        &from_disk,
        PemaController::new(params, from_disk.meta.initial_alloc.clone()),
    );
    assert!(
        rerun.summary.is_zero(),
        "same-policy replay must not diverge: {:?}",
        rerun.summary
    );
    for (r, l) in recorded.log.iter().zip(&rerun.result.log) {
        assert_eq!(r.action, l.action, "action diverged at interval {}", r.iter);
        assert_eq!(
            r.interval_s.to_bits(),
            l.interval_s.to_bits(),
            "shortened interval diverged at interval {}",
            r.iter
        );
    }
}

#[test]
fn counterfactual_hold_policy_reports_divergence() {
    let (trace, _) = record_pema_run(10);
    let n = trace.n_services();
    // Hold a deliberately starved allocation: every window diverges
    // and the work-conservation check flags would-have-violated.
    let floor = vec![0.05; n];
    let rerun = replay(&trace, HoldPolicy::new(floor, trace.meta.slo_ms));
    assert_eq!(rerun.summary.intervals, 10);
    assert_eq!(
        rerun.summary.diverged_intervals, 10,
        "starved hold must diverge every interval: {:?}",
        rerun.summary
    );
    assert!(!rerun.summary.is_zero());
    assert_eq!(
        rerun.summary.would_violations, 10,
        "starved hold must flag would-have-violated everywhere"
    );
    assert!(
        rerun.summary.mean_total_delta < 0.0,
        "floor is cheaper than the tape"
    );

    // A generous hold (the recorded starting allocation) may coincide
    // with the tape's first window but must not *violate* more than
    // the recording did.
    let generous = replay(
        &trace,
        HoldPolicy::new(trace.meta.initial_alloc.clone(), trace.meta.slo_ms),
    );
    assert!(generous.summary.would_violations <= generous.summary.recorded_violations + 1);
}

#[test]
fn rule_policy_replays_through_the_same_loop() {
    let (trace, _) = record_pema_run(8);
    let app = pema_apps::toy_chain();
    let rerun = replay(&trace, RulePolicy::new(&app));
    assert_eq!(rerun.result.log.len(), 8);
    assert!(rerun.result.log.iter().all(|l| l.action == "rule"));
    // The rule baseline allocates differently from PEMA somewhere.
    assert!(rerun.summary.diverged_intervals > 0);
}

#[test]
fn experiment_facade_accepts_a_trace_backend() {
    use pema_trace::TraceBackend;
    let (trace, _) = record_pema_run(5);
    let app = pema_apps::toy_chain();
    let result = Experiment::builder()
        .app(&app)
        .policy(RulePolicy::new(&app))
        .backend(TraceBackend::new(trace.clone()))
        .config(HarnessConfig {
            interval_s: trace.meta.interval_s,
            warmup_s: trace.meta.warmup_s,
            seed: trace.meta.backend_seed,
        })
        .rps(130.0)
        .iters(5)
        .run();
    assert_eq!(result.log.len(), 5);
}

#[test]
fn cycling_replay_outlives_the_tape_with_monotone_time() {
    use pema_control::ClusterBackend;
    use pema_trace::TraceBackend;
    let (trace, _) = record_pema_run(3);
    let mut b = TraceBackend::cycling(trace);
    let mut prev = b.now_s();
    for _ in 0..10 {
        let stats = b.measure_window(130.0, 1.0, 6.0);
        assert!(stats.duration_s > 0.0);
        let now = b.now_s();
        assert!(now > prev, "time went {prev} -> {now}");
        prev = now;
    }
}

#[test]
#[should_panic(expected = "trace exhausted")]
fn strict_replay_panics_past_the_end() {
    use pema_control::ClusterBackend;
    use pema_trace::TraceBackend;
    let (trace, _) = record_pema_run(2);
    let mut b = TraceBackend::new(trace);
    for _ in 0..3 {
        b.measure_window(130.0, 1.0, 6.0);
    }
}

#[test]
fn counterfactual_latency_estimate_tracks_allocation_tightness() {
    use pema_sim::Allocation;
    use pema_trace::rebase_stats;

    let (trace, _) = record_pema_run(6);
    // A window with real demand and finite latency.
    let recorded = &trace.records[2].stats;
    assert!(recorded.p95_ms.is_finite() && recorded.p95_ms > 0.0);
    let dur = recorded.duration_s;
    let demand: Vec<f64> = recorded
        .per_service
        .iter()
        .map(|s| s.cpu_used_s / dur)
        .collect();

    // Identical allocation: verbatim pass-through, no estimation.
    let same = Allocation::new(recorded.per_service.iter().map(|s| s.alloc_cores).collect());
    let verbatim = rebase_stats(recorded, &same);
    assert_eq!(verbatim.p95_ms.to_bits(), recorded.p95_ms.to_bits());

    // Tighter-but-feasible: quota at demand/0.93 puts the bottleneck
    // at ρ ≈ 0.93 — the estimate must rise above the recording
    // (congestion ratio > 1) yet stay finite (no saturation).
    let tight = Allocation::new(demand.iter().map(|d| (d / 0.93).max(1e-6)).collect());
    let squeezed = rebase_stats(recorded, &tight);
    assert!(
        squeezed.p95_ms.is_finite(),
        "feasible quota must not saturate: {}",
        squeezed.p95_ms
    );
    assert!(
        squeezed.p95_ms > recorded.p95_ms,
        "tightening must raise the p95 estimate: {} vs recorded {}",
        squeezed.p95_ms,
        recorded.p95_ms
    );
    assert!(squeezed.mean_ms > recorded.mean_ms);

    // A *looser* allocation than the tape held must not raise latency.
    let loose = Allocation::new(
        recorded
            .per_service
            .iter()
            .map(|s| s.alloc_cores * 3.0)
            .collect(),
    );
    let relaxed = rebase_stats(recorded, &loose);
    assert!(
        relaxed.p95_ms <= recorded.p95_ms,
        "relaxing must not raise the p95 estimate: {} vs recorded {}",
        relaxed.p95_ms,
        recorded.p95_ms
    );

    // Infeasible quota: the work-conservation check still wins.
    let starved = Allocation::new(demand.iter().map(|d| d * 0.5).collect());
    let sat = rebase_stats(recorded, &starved);
    assert!(sat.p95_ms.is_infinite());
    assert_eq!(sat.completed, 0);
}

#[test]
fn divergence_summary_aggregates_latency_estimates() {
    let (trace, _) = record_pema_run(10);
    let n = trace.n_services();

    // Starved hold: every window saturates, and the summary counts
    // them as saturated rather than folding ∞ into the mean delta.
    let floor = vec![0.05; n];
    let starved = replay(&trace, HoldPolicy::new(floor, trace.meta.slo_ms));
    assert_eq!(starved.summary.saturated_intervals, 10);
    assert!(starved.summary.mean_p95_delta_ms.is_finite());
    for d in &starved.divergence {
        assert!(d.recorded_p95_ms.is_finite());
        assert!(d.estimated_p95_ms.is_infinite());
    }

    // A uniformly tighter-but-feasible hold at 80% of the recorded
    // peak demand headroom: diverged windows carry finite estimates
    // and the mean signed p95 delta is positive (tighter ⇒ slower).
    let dur = trace.records[0].stats.duration_s;
    let mut peak_demand = vec![0.0f64; n];
    for r in &trace.records {
        for (i, s) in r.stats.per_service.iter().enumerate() {
            peak_demand[i] = peak_demand[i].max(s.cpu_used_s / r.stats.duration_s.max(dur * 0.1));
        }
    }
    let snug: Vec<f64> = peak_demand.iter().map(|d| (d / 0.9).max(0.05)).collect();
    let snug_run = replay(&trace, HoldPolicy::new(snug, trace.meta.slo_ms));
    if snug_run.summary.diverged_intervals > snug_run.summary.saturated_intervals {
        assert!(
            snug_run.summary.mean_p95_delta_ms.is_finite(),
            "finite estimates must aggregate finitely: {:?}",
            snug_run.summary
        );
    }

    // Same-policy replay: estimates equal recordings everywhere.
    let same = replay(&trace, same_policy(&trace));
    for d in &same.divergence {
        assert_eq!(d.recorded_p95_ms.to_bits(), d.estimated_p95_ms.to_bits());
    }
    assert_eq!(same.summary.mean_p95_delta_ms, 0.0);
    assert_eq!(same.summary.max_p95_delta_ms, 0.0);
    assert_eq!(same.summary.saturated_intervals, 0);
}
