//! Telemetry bit-invisibility — the determinism wall around the
//! self-instrumentation layer (`pema_control::telemetry`):
//!
//! * attaching a [`Telemetry`] hub and an [`EventSink`] to an
//!   [`Experiment`] or a [`Fleet`] (at any thread count, with or
//!   without arbitration) changes **nothing** about the run output —
//!   every logged float is bit-identical to the bare run;
//! * on a virtual-clock backend the phase spans are *deterministic
//!   values*, not just stable: a fluid member's measure span is exactly
//!   `warmup_s + interval_s` and its decide/commit spans are exactly
//!   zero, so the histogram sums are pinned to exact bit patterns;
//! * the JSONL event stream is byte-identical across identical runs;
//! * every scrape rendered along the way passes the exposition-format
//!   lint.

use pema_control::{
    Experiment, Fleet, HarnessConfig, HoldPolicy, MemberSpec, RulePolicy, RunResult, UseFluid,
    WeightedFairShare,
};
use pema_core::{PemaController, PemaParams};
use pema_sim::AppSpec;
use pema_telemetry::{lint, EventSink, Telemetry, DEFAULT_SECONDS_BUCKETS};

/// Bit-faithful rendering (see `fleet_behaviour.rs`): f64 `Debug` is
/// shortest-roundtrip, so equal strings ⇔ bit-equal runs.
fn render(r: &RunResult) -> String {
    let final_bits: Vec<u64> = r.final_alloc.0.iter().map(|x| x.to_bits()).collect();
    format!("{:?} | final={final_bits:?}", r.log)
}

/// Whole-fleet rendering including arbitration telemetry and the poll
/// count, so a string comparison pins the scheduler's behaviour too.
fn render_fleet(result: &pema_control::FleetResult) -> String {
    use std::fmt::Write as _;
    let mut s = format!("polls={} arb={:?}\n", result.polls, result.arbitration);
    for run in &result.runs {
        let _ = writeln!(
            s,
            "{} end={:?} :: {}",
            run.name,
            run.end_s.to_bits(),
            render(&run.result)
        );
    }
    s
}

fn cfg(seed: u64) -> HarnessConfig {
    HarnessConfig {
        interval_s: 6.0,
        warmup_s: 1.0,
        seed,
    }
}

/// Re-resolves a counter the instrumentation registered (registration
/// is idempotent per label set; the help text is fixed by the first
/// registration, so an empty one here reads the existing series).
fn counter_value(hub: &Telemetry, name: &str, labels: &[(&str, &str)]) -> f64 {
    hub.counter(name, "", labels).value()
}

#[test]
fn experiment_output_is_bit_identical_with_telemetry_attached() {
    let app = pema_apps::toy_chain();
    let build = || {
        let mut params = PemaParams::defaults(app.slo_ms);
        params.seed = 0xBEEF;
        Experiment::builder()
            .app(&app)
            .policy(PemaController::new(params, app.generous_alloc.clone()))
            .config(cfg(21))
            .early_check(2.0)
            .rps(150.0)
            .iters(6)
    };
    let bare = build().run();

    let hub = Telemetry::new();
    let (sink, buf) = EventSink::memory();
    let observed = build().telemetry(&hub).events(sink).run();

    assert_eq!(
        render(&bare),
        render(&observed),
        "attaching telemetry changed the run output"
    );

    // The side channel actually recorded the run.
    let labels = &[("member", "toy-chain")];
    assert_eq!(
        counter_value(&hub, "pema_ctrl_intervals_total", labels),
        6.0,
        "one intervals tick per committed interval"
    );
    let violations = counter_value(&hub, "pema_ctrl_slo_violations_total", labels);
    assert_eq!(
        violations as usize,
        bare.violations(),
        "violation counter must agree with the run log"
    );
    let events = buf.lock().unwrap();
    let lines = std::str::from_utf8(&events).unwrap();
    assert_eq!(
        lines.lines().count(),
        6,
        "one JSONL event per committed interval"
    );
    assert!(lines
        .lines()
        .all(|l| l.starts_with("{\"event\":\"interval\"")));

    // And the scrape is well-formed.
    let report = lint(&hub.render(), None);
    assert!(report.is_clean(), "scrape lint: {:?}", report.violations);
}

/// The three-member mixed fleet used for the fleet-level invariance
/// checks: a DES member with early checks, plus two fluid members of
/// different lengths — the same shape `fleet_arbitration.rs` uses.
fn mixed_fleet(app: &AppSpec) -> Fleet {
    let mut pema = PemaParams::defaults(app.slo_ms);
    pema.seed = 0xA1;
    Fleet::new()
        .member(
            MemberSpec::new()
                .name("des-pema")
                .app(app)
                .config(cfg(11))
                .policy(PemaController::new(pema, app.generous_alloc.clone()))
                .early_check(2.0)
                .rps(140.0)
                .iters(4),
        )
        .member(
            MemberSpec::new()
                .name("fluid-rule")
                .app(app)
                .config(cfg(12))
                .policy(RulePolicy::new(app))
                .backend(UseFluid)
                .rps(120.0)
                .iters(3),
        )
        .member(
            MemberSpec::new()
                .name("fluid-hold")
                .app(app)
                .config(cfg(13))
                .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                .backend(UseFluid)
                .rps(100.0)
                .iters(5),
        )
}

#[test]
fn fleet_output_is_bit_identical_with_telemetry_at_any_thread_count() {
    let app = pema_apps::toy_chain();
    let bare = render_fleet(&mixed_fleet(&app).run());
    for threads in [1usize, 3, 0] {
        let hub = Telemetry::new();
        let (sink, _buf) = EventSink::memory();
        let observed = mixed_fleet(&app)
            .telemetry(&hub)
            .events(sink)
            .threads(threads)
            .run();
        assert_eq!(
            bare,
            render_fleet(&observed),
            "telemetry changed the fleet output at threads={threads}"
        );
        // Shard poll counters must account for every poll the
        // scheduler reports, whatever the member→shard partition.
        let polled: f64 = (0..3)
            .map(|s| counter_value(&hub, "pema_fleet_polls_total", &[("shard", &s.to_string())]))
            .sum();
        assert_eq!(
            polled as u64, observed.polls as u64,
            "shard poll counters must sum to the scheduler's poll count (threads={threads})"
        );
        let report = lint(&hub.render(), None);
        assert!(report.is_clean(), "scrape lint: {:?}", report.violations);
    }
}

#[test]
fn arbitrated_fleet_is_bit_identical_with_telemetry() {
    // Arbitration exercises the barrier rendezvous and the
    // arbitrate-wait span path; a tight 2-core budget over ~4.5
    // proposed cores guarantees contended rounds.
    let app = pema_apps::toy_chain();
    let arbitrated = |f: Fleet| f.arbitration(2.0, WeightedFairShare::new());
    let bare = render_fleet(&arbitrated(mixed_fleet(&app)).run());
    for threads in [1usize, 3] {
        let hub = Telemetry::new();
        let observed = arbitrated(mixed_fleet(&app).telemetry(&hub).threads(threads)).run();
        assert_eq!(
            bare,
            render_fleet(&observed),
            "telemetry changed the arbitrated fleet output at threads={threads}"
        );
        // The rendezvous instrumentation saw every round on some shard.
        let rounds: f64 = (0..3)
            .map(|s| {
                counter_value(
                    &hub,
                    "pema_fleet_arb_rounds_total",
                    &[("shard", &s.to_string())],
                )
            })
            .sum();
        assert!(
            rounds > 0.0,
            "arbitration rounds must be counted (threads={threads})"
        );
    }
}

#[test]
fn virtual_clock_phase_spans_are_exact() {
    // On the fluid backend the window evaluation advances the virtual
    // clock by exactly warmup_s + window_s and nothing else ticks it,
    // so the phase spans are pinned values, not approximations:
    // measure = 44.0 per interval, decide = commit = 0.0.
    let app = pema_apps::toy_chain();
    let hub = Telemetry::new();
    let iters = 5usize;
    Experiment::builder()
        .app(&app)
        .policy(RulePolicy::new(&app))
        .backend(UseFluid)
        .config(HarnessConfig {
            interval_s: 40.0,
            warmup_s: 4.0,
            seed: 1,
        })
        .rps(130.0)
        .iters(iters)
        .telemetry(&hub)
        .run();

    let phase = |p: &str| {
        hub.histogram(
            "pema_ctrl_phase_seconds",
            "",
            &[("phase", p)],
            DEFAULT_SECONDS_BUCKETS,
        )
    };
    let measure = phase("measure");
    assert_eq!(measure.count(), iters as u64);
    assert_eq!(
        measure.sum().to_bits(),
        (iters as f64 * 44.0).to_bits(),
        "measure spans must be exactly warmup + interval per interval, got {}",
        measure.sum()
    );
    for p in ["decide", "commit"] {
        let h = phase(p);
        assert_eq!(h.count(), iters as u64, "{p} span count");
        assert_eq!(
            h.sum().to_bits(),
            0.0f64.to_bits(),
            "{p} spans must be 0 on a virtual clock"
        );
    }
    // No arbitration → no arbitrate-wait observations.
    assert_eq!(phase("arbitrate_wait").count(), 0);
}

#[test]
fn event_stream_is_byte_identical_across_identical_runs() {
    let app = pema_apps::toy_chain();
    let run = || {
        let hub = Telemetry::new();
        let (sink, buf) = EventSink::memory();
        let mut params = PemaParams::defaults(app.slo_ms);
        params.seed = 7;
        Experiment::builder()
            .app(&app)
            .policy(PemaController::new(params, app.generous_alloc.clone()))
            .config(cfg(33))
            .rps(140.0)
            .iters(5)
            .telemetry(&hub)
            .events(sink)
            .run();
        let bytes = buf.lock().unwrap().clone();
        bytes
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "the event stream must not be empty");
    assert_eq!(a, b, "identical runs must emit identical JSONL bytes");
}

/// Run-to-run identity (above) holds across a change of the line
/// format; this pins the format itself. The fixture was written by the
/// commit *before* the event path was rebuilt (borrowed fields, reused
/// line buffer, integer-fast number kernels), from exactly this fleet:
/// the three `fleet_mix` applications on the fluid backend under
/// PEMA/RULE/HOLD, one thread, `WeightedFairShare` over 45 cores for
/// the ≈ 50 they propose each round, four intervals each. One member
/// name needs every kind of escape, one load is not an integer.
#[test]
fn event_log_matches_the_fixture_written_before_the_encoder_changed() {
    let mix = pema_apps::fleet_mix();
    let names = [
        "sockshop-0",
        "train\"ticket\\1\n\u{1}é",
        "hotelreservation-2",
    ];
    let loads = [560.0, 212.5, 480.0];
    let mut fleet = Fleet::new().threads(1);
    for (i, ((app, _), name)) in mix.iter().zip(names).enumerate() {
        let spec = MemberSpec::new()
            .name(name)
            .app(app)
            .config(HarnessConfig {
                interval_s: 40.0,
                warmup_s: 4.0,
                seed: 7 + i as u64,
            })
            .backend(UseFluid)
            .rps(loads[i])
            .iters(4);
        fleet = match i {
            0 => {
                let mut params = PemaParams::defaults(app.slo_ms);
                params.seed = 7;
                fleet.member(spec.policy(PemaController::new(params, app.generous_alloc.clone())))
            }
            1 => fleet.member(spec.policy(RulePolicy::new(app))),
            _ => fleet.member(spec.policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))),
        };
    }
    let hub = Telemetry::new();
    let (sink, buf) = EventSink::memory();
    let result = fleet
        .arbitration(45.0, WeightedFairShare::new())
        .telemetry(&hub)
        .events(sink.clone())
        .run();
    sink.flush();
    let arb = result.arbitration.expect("the fleet ran arbitrated");
    assert!(arb.total_cuts() > 0, "the budget must bind");
    let log = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    assert_eq!(log.lines().count(), 12);
    assert_eq!(
        log,
        include_str!("fixtures/interval_events.jsonl"),
        "the event log is no longer byte-identical to the fixture"
    );
}
