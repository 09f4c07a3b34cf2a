//! Integration tests: [`LiveBackend`] against [`FakeCluster`] — the
//! full production wire path (HTTP over loopback), no cluster needed.
//!
//! Covers the happy path, actuation (PATCH recording, bearer auth),
//! every injected fault kind (drop, delay, 500, garbage body), retry
//! exhaustion degrading to typed errors instead of panics, §6 early
//! aborts, wall-clock pacing, and the tentpole record→replay loop:
//! a dry-run tape replays through `TraceBackend` with zero divergence.

use pema_control::{
    Clock, ClusterBackend, ControlLoop, Fleet, HarnessConfig, HoldPolicy, MemberSpec,
};
use pema_core::{PemaController, PemaParams};
use pema_live::{
    live_over_fake, live_over_fake_with, Endpoint, FakeCluster, Fault, HttpClient, KubeClient,
    KubeConfigLite, KubeError, LiveBackend, LiveConfig, LiveError, PromClient, PromError,
    WallClock,
};
use pema_sim::{Allocation, AppSpec, Evaluator as _, FluidEvaluator, MIN_ALLOC};
use pema_trace::{replay, TraceRecorder};
use std::time::{Duration, Instant};

fn app() -> AppSpec {
    pema_apps::toy_chain()
}

const RPS: f64 = 120.0;

#[test]
fn happy_window_matches_the_fluid_model() {
    let mut live = live_over_fake(&app(), RPS);
    let stats = live.measure_window(RPS, 1.0, 8.0);
    // Window timing is exact: start after warmup, clock at the end.
    assert_eq!(stats.start_s.to_bits(), 1.0f64.to_bits());
    assert_eq!(stats.duration_s.to_bits(), 8.0f64.to_bits());
    assert_eq!(live.now_s().to_bits(), 9.0f64.to_bits());
    // Allocation read-back is bit-exact against the shadow.
    let alloc = live.allocation();
    for (i, s) in stats.per_service.iter().enumerate() {
        assert_eq!(s.alloc_cores.to_bits(), alloc.get(i).to_bits());
    }
    // Latency numbers agree with a direct fluid evaluation up to the
    // seconds↔milliseconds round trip on the wire.
    let mut eval = FluidEvaluator::new(&app());
    eval.window_s = 8.0;
    let want = eval.evaluate(&alloc, RPS);
    assert!((stats.p95_ms - want.p95_ms).abs() < 1e-9 * want.p95_ms.max(1.0));
    assert!((stats.offered_rps - RPS).abs() < 1e-12);
    assert!(live.backend.errors().is_empty());
}

#[test]
fn apply_patches_only_changed_services_bit_exactly() {
    let mut live = live_over_fake(&app(), RPS);
    let n = live.allocation().len();
    let mut next = live.allocation();
    next.set(0, 1.35);
    live.apply(&next.clone());
    // Only the changed service was PATCHed, with the exact quantity.
    let patches = live.cluster.patches();
    assert_eq!(patches.len(), 1);
    assert_eq!(patches[0].service, app().services[0].name);
    assert_eq!(patches[0].cores.to_bits(), 1.35f64.to_bits());
    // And the fake cluster's allocation now matches the shadow.
    let cluster_alloc = live.cluster.allocation();
    for i in 0..n {
        assert_eq!(cluster_alloc.get(i).to_bits(), next.get(i).to_bits());
    }
}

#[test]
fn bearer_auth_rejection_is_a_typed_error_not_a_panic() {
    let mut live = live_over_fake(&app(), RPS);
    live.cluster.set_token("right-token");
    // The backend was wired without a token: the PATCH gets a 401.
    let mut next = live.allocation();
    next.set(0, 0.9);
    live.apply(&next.clone());
    let errors = live.backend.take_errors();
    assert_eq!(errors.len(), 1);
    match &errors[0] {
        LiveError::Patch {
            service,
            error: KubeError::Status { code, .. },
        } => {
            assert_eq!(service, &app().services[0].name);
            assert_eq!(*code, 401);
        }
        other => panic!("expected a 401 Patch error, got {other:?}"),
    }
    // The cluster kept its old limit — and so did the shadow: a failed
    // PATCH must not rebase future windows onto an allocation that is
    // not actually in force (the tape would misrepresent them).
    assert_ne!(live.cluster.allocation().get(0), 0.9);
    assert_ne!(live.allocation().get(0), 0.9);
    assert_eq!(
        live.allocation().get(0).to_bits(),
        live.cluster.allocation().get(0).to_bits()
    );
    // Measurement still works.
    let stats = live.measure_window(RPS, 0.5, 4.0);
    assert!(stats.p95_ms.is_finite());
}

#[test]
fn a_garbage_answer_to_a_patch_is_an_error_and_the_shadow_keeps_its_value() {
    // The cluster answers 200 without applying the PATCH; only the body
    // shows that. Trusting the status code left the shadow at the
    // decided value while the cluster stayed at the old one.
    let mut live = live_over_fake(&app(), RPS);
    let before = live.allocation().get(0);
    let mut next = live.allocation();
    next.set(0, before / 2.0);
    live.cluster.inject_fault(Fault::GarbageBody);
    live.apply(&next);
    let errors = live.backend.take_errors();
    assert!(
        matches!(
            errors.as_slice(),
            [LiveError::Patch {
                error: KubeError::Malformed(_),
                ..
            }]
        ),
        "want one malformed-PATCH error, got {errors:?}"
    );
    assert!(live.cluster.patches().is_empty());
    assert_eq!(live.allocation().get(0).to_bits(), before.to_bits());
    assert_eq!(live.cluster.allocation().get(0).to_bits(), before.to_bits());
    // The next apply of the same decision lands.
    live.apply(&next);
    assert!(live.backend.errors().is_empty());
    assert_eq!(live.cluster.allocation(), next);
    assert_eq!(live.allocation(), next);
}

#[test]
fn each_single_fault_is_absorbed_by_one_retry() {
    for fault in [Fault::DropConnection, Fault::Http500, Fault::GarbageBody] {
        let mut live = live_over_fake(&app(), RPS);
        live.cluster.inject_fault(fault.clone());
        let stats = live.measure_window(RPS, 1.0, 8.0);
        assert!(
            live.backend.errors().is_empty(),
            "fault {fault:?} should be absorbed by the retry"
        );
        assert!(
            stats.p95_ms.is_finite(),
            "fault {fault:?} degraded the window"
        );
        // 6 queries + 1 retried attempt.
        assert_eq!(live.cluster.requests_served(), 7, "fault {fault:?}");
    }
}

#[test]
fn delay_fault_times_out_and_the_retry_succeeds() {
    // Manual wiring: a 100 ms read timeout against a 150 ms stall.
    let app = app();
    let cluster = FakeCluster::start(&app, RPS);
    let http = HttpClient {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_millis(100),
    };
    let clock = pema_live::FakeClock::new();
    let mut backend = LiveBackend::new(
        &app,
        PromClient {
            endpoint: cluster.endpoint(),
            http: http.clone(),
        },
        KubeClient {
            config: KubeConfigLite {
                server: cluster.endpoint(),
                token: None,
                namespace: "pema".into(),
            },
            http,
        },
        Box::new(clock),
        LiveConfig {
            retry: pema_live::RetryPolicy {
                max_attempts: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    cluster.inject_fault(Fault::Delay(Duration::from_millis(150)));
    let stats = backend.measure_window(RPS, 1.0, 8.0);
    assert!(stats.p95_ms.is_finite());
    assert!(backend.errors().is_empty());
}

#[test]
fn retry_exhaustion_degrades_the_window_with_typed_errors() {
    let mut live = live_over_fake(&app(), RPS);
    // Default policy makes 3 attempts; sink the first query entirely.
    for _ in 0..3 {
        live.cluster.inject_fault(Fault::Http500);
    }
    let before = live.now_s();
    let stats = live.measure_window(RPS, 1.0, 8.0);
    // Typed error, degraded stats, no panic.
    let errors = live.backend.take_errors();
    assert!(
        errors.iter().any(|e| matches!(
            e,
            LiveError::Scrape {
                attempts: 3,
                last: PromError::Status(500),
                ..
            }
        )),
        "want an exhausted-scrape error, got {errors:?}"
    );
    // Degradation is per-query: the exhausted p95 reads back NaN while
    // the five queries that answered keep their data.
    assert!(stats.p95_ms.is_nan());
    assert!(stats.offered_rps.is_finite());
    // The allocation fields still reflect the shadow (the tape stays
    // consistent even through degraded windows).
    let alloc = live.allocation();
    for (i, s) in stats.per_service.iter().enumerate() {
        assert_eq!(s.alloc_cores.to_bits(), alloc.get(i).to_bits());
    }
    // Time stays monotone and the next window is healthy again.
    assert!(live.now_s() > before);
    let healthy = live.measure_window(RPS, 1.0, 8.0);
    assert!(healthy.p95_ms.is_finite());
    assert!(live.backend.errors().is_empty());
}

#[test]
fn early_check_aborts_a_starved_window_at_the_first_boundary() {
    let mut live = live_over_fake(&app(), RPS);
    let n = live.allocation().len();
    let slo = app().slo_ms;
    live.apply(&Allocation::new(vec![MIN_ALLOC; n]));
    let (stats, aborted) = live.measure_window_abortable(RPS, 1.0, 8.0, 2.0, slo);
    assert!(aborted);
    assert_eq!(stats.duration_s.to_bits(), 2.0f64.to_bits());
    assert!(stats.violates(slo));
    // The clock stopped at the abort boundary, not the full window.
    assert_eq!(live.now_s().to_bits(), 3.0f64.to_bits());
}

#[test]
fn wall_clock_queries_carry_unix_timestamps_on_the_wire() {
    // Real Prometheus interprets query_range start/end as unix time; a
    // clock anchored at construction would query the 1970 epoch and
    // every window would degrade to NaN. Pin the absolute timestamps
    // the production clock puts on the wire. 1.6e9 s ≈ 2020-09.
    let app = app();
    let cluster = FakeCluster::start(&app, RPS);
    let http = HttpClient::default();
    let mut backend = LiveBackend::new(
        &app,
        PromClient {
            endpoint: cluster.endpoint(),
            http: http.clone(),
        },
        KubeClient {
            config: KubeConfigLite {
                server: cluster.endpoint(),
                token: None,
                namespace: "pema".into(),
            },
            http,
        },
        Box::new(WallClock::new()),
        LiveConfig::default(),
    );
    let stats = backend.measure_window(RPS, 0.01, 0.05);
    assert!(stats.p95_ms.is_finite());
    let ranges = cluster.scrape_ranges();
    assert_eq!(ranges.len(), 6, "one window scrape is six range queries");
    for (start, end) in ranges {
        assert!(
            start > 1.6e9 && end > start,
            "query_range carried non-unix bounds [{start}, {end}]"
        );
    }
}

#[test]
fn wall_clock_paces_measurement_in_real_time() {
    let app = app();
    let cluster = FakeCluster::start(&app, RPS);
    let http = HttpClient::default();
    let mut backend = LiveBackend::new(
        &app,
        PromClient {
            endpoint: cluster.endpoint(),
            http: http.clone(),
        },
        KubeClient {
            config: KubeConfigLite {
                server: Endpoint::parse(&format!("127.0.0.1:{}", cluster.endpoint().port)).unwrap(),
                token: None,
                namespace: "pema".into(),
            },
            http,
        },
        Box::new(WallClock::new()),
        LiveConfig::default(),
    );
    let t0 = Instant::now();
    let stats = backend.measure_window(RPS, 0.05, 0.2);
    let elapsed = t0.elapsed();
    assert!(stats.p95_ms.is_finite());
    assert!(
        elapsed >= Duration::from_millis(240),
        "wall window finished in {elapsed:?}, before real time elapsed"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "wall window took {elapsed:?}; pacing is stuck"
    );
}

#[test]
fn fleet_wall_pace_drives_a_live_member_in_real_time() {
    // The acceptance shape: a fleet hosting a LiveBackend (WallClock)
    // over a FakeCluster, paced by Clock::Wall, runs three intervals in
    // real time — and the poll count shows the shard slept to each
    // window boundary instead of busy-spinning.
    let app = app();
    let cluster = FakeCluster::start(&app, RPS);
    let http = HttpClient::default();
    let backend = LiveBackend::new(
        &app,
        PromClient {
            endpoint: cluster.endpoint(),
            http: http.clone(),
        },
        KubeClient {
            config: KubeConfigLite {
                server: cluster.endpoint(),
                token: None,
                namespace: "pema".into(),
            },
            http,
        },
        Box::new(WallClock::new()),
        LiveConfig::default(),
    );
    let cfg = HarnessConfig {
        interval_s: 0.1,
        warmup_s: 0.05,
        seed: 3,
    };
    let t0 = Instant::now();
    let result = Fleet::new()
        .pace(Clock::Wall)
        .member(
            MemberSpec::new()
                .name("live-0")
                .app(&app)
                .config(cfg)
                .rps(RPS)
                .iters(3)
                .backend(backend)
                .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms)),
        )
        .run();
    let elapsed = t0.elapsed();
    assert_eq!(result.runs.len(), 1);
    assert_eq!(result.runs[0].result.log.len(), 3);
    assert!(
        elapsed >= Duration::from_millis(400),
        "3 × 0.15 s intervals finished in {elapsed:?} — wall pacing did not pace"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "3 × 0.15 s intervals took {elapsed:?} — pacing is stuck"
    );
    assert!(
        result.polls < 60,
        "{} polls for three short windows — the shard is spinning, not sleeping",
        result.polls
    );
}

#[test]
fn retry_telemetry_matches_fakecluster_ground_truth() {
    // The self-telemetry counters are asserted against the cluster's
    // own fault accounting — not against expectations about the retry
    // policy — so the two books must balance exactly.
    let hub = pema_telemetry::Telemetry::new();
    let mut live = live_over_fake(&app(), RPS);
    live.backend.set_telemetry(&hub);
    for fault in [Fault::DropConnection, Fault::Http500, Fault::GarbageBody] {
        live.cluster.inject_fault(fault);
        let stats = live.measure_window(RPS, 1.0, 8.0);
        assert!(stats.p95_ms.is_finite(), "a single fault must be absorbed");
    }
    assert!(live.backend.errors().is_empty());

    let truth = live.cluster.fault_stats();
    assert_eq!(truth.total_faults(), 3);
    assert_eq!(
        (truth.dropped, truth.http500, truth.garbage, truth.delayed),
        (1, 1, 1, 0)
    );
    let counter = |name: &str, labels: &[(&str, &str)]| hub.counter(name, "", labels).value();
    // One backoff retry per fault the cluster fired.
    assert_eq!(
        counter("pema_live_retries_total", &[("target", "prom")]) as u64,
        truth.total_faults()
    );
    // Every HTTP request the cluster served was one query attempt (no
    // PATCHes were issued in this test).
    assert_eq!(
        counter("pema_live_queries_total", &[("target", "prom")]) as u64,
        truth.requests
    );
    // Absorbed faults are not errors.
    assert_eq!(
        counter("pema_live_errors_total", &[("kind", "scrape")]),
        0.0
    );
    assert_eq!(counter("pema_live_errors_total", &[("kind", "patch")]), 0.0);

    // Actuation telemetry: one PATCH round-trip per changed service,
    // matching the cluster's own patch log.
    let mut next = live.allocation();
    next.set(0, 1.4);
    live.apply(&next.clone());
    assert_eq!(
        counter("pema_live_patches_total", &[("target", "kube")]) as usize,
        live.cluster.patches().len()
    );
    let report = pema_telemetry::lint(&hub.render(), None);
    assert!(report.is_clean(), "scrape lint: {:?}", report.violations);
}

#[test]
fn dry_run_records_a_tape_that_replays_with_zero_divergence() {
    let app = app();
    let cfg = HarnessConfig {
        interval_s: 8.0,
        warmup_s: 1.0,
        seed: 7,
    };
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 21;

    let live = live_over_fake_with(
        &app,
        RPS,
        LiveConfig {
            dry_run: true,
            ..Default::default()
        },
    );
    let cluster = live.cluster.clone();
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
    let handle = recorder.handle();
    let controller = PemaController::new(params.clone(), app.generous_alloc.clone());
    let mut control = ControlLoop::new(live, controller, cfg).observe(recorder);
    for _ in 0..6 {
        control.step_once(RPS);
    }
    // Dry run: the cluster was never actuated.
    assert!(cluster.patches().is_empty());
    let generous = Allocation::new(app.generous_alloc.clone());
    assert_eq!(cluster.allocation(), generous);
    // But the controller did decide to move away from generous (the
    // tape is a real controller trajectory, not a flat line).
    assert_ne!(control.backend.allocation(), generous);

    // The tape round-trips through the on-disk format and replays
    // under the identical policy with zero divergence.
    let trace = handle.take();
    let text = trace.to_jsonl();
    let back = pema_trace::Trace::parse_jsonl(&text, pema_trace::ReadMode::Strict).unwrap();
    let rerun = replay(
        &back,
        PemaController::new(params, back.meta.initial_alloc.clone()),
    );
    assert!(
        rerun.summary.is_zero(),
        "dry-run tape diverged on replay: {:?}",
        rerun.summary
    );
    for (recorded, replayed) in back.records.iter().zip(&rerun.result.log) {
        assert_eq!(recorded.action, replayed.action);
    }
}
