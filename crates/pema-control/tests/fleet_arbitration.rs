//! Behaviour tests for fleet-wide resource arbitration — the
//! determinism wall around [`Fleet::arbitration`]:
//!
//! * **Slack side**: under [`Unlimited`], or any budget the fleet never
//!   reaches, every member's output is bit-identical to its solo
//!   [`Experiment::run`] and to the unarbitrated fleet — arbitration
//!   with headroom is invisible.
//! * **Contention side**: under a tight budget the grants respect the
//!   invariants (floors never violated, granted sum ≤ budget, grant ≤
//!   proposal) and the entire output — member logs, telemetry, and
//!   per-round events — is invariant to thread count and tie-break
//!   permutation.
//!
//! Shared-state policies (AIMD's scale) are covered too: round k is
//! every member's k-th interval regardless of which shard reaches the
//! barrier last, so the scale trajectory is schedule-independent.

use std::sync::{Arc, Mutex};

use pema_control::{
    AimdBackoff, ArbitrationEvent, Clock, Experiment, Fleet, FleetPolicy, FleetResult,
    HarnessConfig, HoldPolicy, IterationLog, MemberSpec, Observer, RulePolicy, RunResult,
    Unlimited, UseFluid, WeightedFairShare,
};
use pema_core::{PemaController, PemaParams};
use pema_sim::WindowStats;

/// Bit-faithful rendering (see `fleet_behaviour.rs`): f64 `Debug` is
/// shortest-roundtrip, so equal strings ⇔ bit-equal runs.
fn render(r: &RunResult) -> String {
    let final_bits: Vec<u64> = r.final_alloc.0.iter().map(|x| x.to_bits()).collect();
    format!("{:?} | final={final_bits:?}", r.log)
}

/// Whole-fleet rendering including the arbitration telemetry, so a
/// string comparison pins grants and cut counts too.
fn render_fleet(result: &FleetResult) -> String {
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

/// Observer that captures every arbitration event a member sees.
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<ArbitrationEvent>>>);

impl Capture {
    fn new() -> (Self, Arc<Mutex<Vec<ArbitrationEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (Self(Arc::clone(&events)), events)
    }
}

impl Observer for Capture {
    fn on_interval(&mut self, _log: &IterationLog, _stats: &WindowStats) {}
    fn on_arbitration(&mut self, event: &ArbitrationEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

fn cfg(seed: u64) -> HarnessConfig {
    HarnessConfig {
        interval_s: 6.0,
        warmup_s: 1.0,
        seed,
    }
}

/// A small mixed fleet: DES + fluid, multi-poll (early check) and
/// one-poll members, unequal iteration counts.
fn mixed_fleet() -> Fleet {
    let app = pema_apps::toy_chain();
    let mut pema = PemaParams::defaults(app.slo_ms);
    pema.seed = 0xA1;
    Fleet::new()
        .member(
            MemberSpec::new()
                .name("des-pema")
                .app(&app)
                .config(cfg(11))
                .policy(PemaController::new(pema, app.generous_alloc.clone()))
                .early_check(2.0)
                .rps(140.0)
                .iters(4),
        )
        .member(
            MemberSpec::new()
                .name("fluid-rule")
                .app(&app)
                .config(cfg(12))
                .policy(RulePolicy::new(&app))
                .backend(UseFluid)
                .rps(120.0)
                .iters(3),
        )
        .member(
            MemberSpec::new()
                .name("fluid-hold")
                .app(&app)
                .config(cfg(13))
                .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                .backend(UseFluid)
                .rps(100.0)
                .iters(5),
        )
}

/// Renders each member of `mixed_fleet` run solo, in insertion order.
fn mixed_solo() -> Vec<String> {
    let app = pema_apps::toy_chain();
    let mut pema = PemaParams::defaults(app.slo_ms);
    pema.seed = 0xA1;
    vec![
        render(
            &Experiment::builder()
                .app(&app)
                .config(cfg(11))
                .policy(PemaController::new(pema, app.generous_alloc.clone()))
                .early_check(2.0)
                .rps(140.0)
                .iters(4)
                .run(),
        ),
        render(
            &Experiment::builder()
                .app(&app)
                .config(cfg(12))
                .policy(RulePolicy::new(&app))
                .backend(UseFluid)
                .rps(120.0)
                .iters(3)
                .run(),
        ),
        render(
            &Experiment::builder()
                .app(&app)
                .config(cfg(13))
                .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                .backend(UseFluid)
                .rps(100.0)
                .iters(5)
                .run(),
        ),
    ]
}

/// Runs `mixed_fleet` under the given arbitration policy and asserts
/// every member is bit-identical to its solo run — the slack-budget
/// identity each shipped policy promises.
fn assert_slack_identity(policy: impl FleetPolicy + 'static, budget: f64) {
    let tag = policy.name();
    let result = mixed_fleet().arbitration(budget, policy).run();
    let solo = mixed_solo();
    assert_eq!(result.runs.len(), solo.len());
    for (i, run) in result.runs.iter().enumerate() {
        assert_eq!(
            render(&run.result),
            solo[i],
            "member {i} diverged from its solo run under slack {tag} arbitration"
        );
    }
    let arb = result.arbitration.expect("telemetry present");
    assert_eq!(arb.policy, tag);
    assert_eq!(arb.contended_rounds, 0, "slack budget must never contend");
    assert_eq!(arb.total_cuts(), 0);
    assert_eq!(arb.grant_ratio(), 1.0);
    // Round count: 5 rounds (the longest member's interval count),
    // member rounds = its own interval count.
    assert_eq!(arb.rounds, 5);
    assert_eq!(
        arb.members.iter().map(|m| m.rounds).collect::<Vec<_>>(),
        vec![4, 3, 5]
    );
}

#[test]
fn unlimited_arbitration_is_invisible() {
    assert_slack_identity(Unlimited, f64::INFINITY);
}

#[test]
fn slack_fair_share_is_invisible() {
    assert_slack_identity(WeightedFairShare::new(), 1e6);
}

#[test]
fn slack_aimd_is_invisible() {
    assert_slack_identity(AimdBackoff::new(), 1e6);
}

#[test]
fn unlimited_fleet_matches_unarbitrated_fleet_bitwise() {
    let plain = mixed_fleet().run();
    let arbitrated = mixed_fleet().arbitration(f64::INFINITY, Unlimited).run();
    // Same polls, same per-member output; only the telemetry differs.
    assert_eq!(plain.polls, arbitrated.polls);
    assert!(plain.arbitration.is_none());
    for (p, a) in plain.runs.iter().zip(&arbitrated.runs) {
        assert_eq!(p.name, a.name);
        assert_eq!(p.end_s.to_bits(), a.end_s.to_bits());
        assert_eq!(render(&p.result), render(&a.result));
    }
}

/// A contended fleet: four PEMA-driven fluid members squeezed under a
/// deliberately tight budget, with floors and mixed weights/priorities.
/// Captures land in `events[i]` per member (insertion order).
fn contended_fleet(
    budget: f64,
    policy: impl FleetPolicy + 'static,
    threads: usize,
) -> (FleetResult, Vec<Arc<Mutex<Vec<ArbitrationEvent>>>>) {
    let app = pema_apps::toy_chain();
    let mut fleet = Fleet::new().threads(threads);
    let mut captures = Vec::new();
    for i in 0..4usize {
        let mut pema = PemaParams::defaults(app.slo_ms);
        pema.seed = 0xB0 + i as u64;
        let (obs, events) = Capture::new();
        captures.push(events);
        fleet = fleet.member(
            MemberSpec::new()
                .name(format!("m{i}"))
                .priority((i % 2) as i32)
                .weight(1.0 + i as f64)
                .floor(0.2)
                .app(&app)
                .config(cfg(20 + i as u64))
                .policy(PemaController::new(pema, app.generous_alloc.clone()))
                .backend(UseFluid)
                .rps(130.0 + 15.0 * i as f64)
                .iters(4)
                .observer(obs),
        );
    }
    (fleet.arbitration(budget, policy).run(), captures)
}

/// The invariants every contended round must satisfy, checked from the
/// events each member observed.
fn assert_grant_invariants(
    budget: f64,
    captures: &[Arc<Mutex<Vec<ArbitrationEvent>>>],
    floor: f64,
) {
    for (i, events) in captures.iter().enumerate() {
        let events = events.lock().unwrap();
        assert!(!events.is_empty(), "member {i} saw no arbitration events");
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(
                ev.round, k,
                "member {i} round indices must be its intervals"
            );
            assert!(
                ev.granted <= ev.proposed + 1e-9,
                "member {i} round {k}: granted {} above proposal {}",
                ev.granted,
                ev.proposed
            );
            assert!(
                ev.granted >= floor.min(ev.proposed) - 1e-9,
                "member {i} round {k}: granted {} violates floor {floor}",
                ev.granted
            );
            assert!(
                ev.fleet_granted <= budget + 1e-9,
                "member {i} round {k}: fleet granted {} breaches budget {budget}",
                ev.fleet_granted
            );
        }
    }
}

#[test]
fn tight_fair_share_respects_floors_and_budget() {
    let budget = 2.0;
    let (result, captures) = contended_fleet(budget, WeightedFairShare::new(), 1);
    assert_grant_invariants(budget, &captures, 0.2);
    let arb = result.arbitration.expect("telemetry present");
    assert!(
        arb.contended_rounds > 0,
        "a 2-core budget over four members must contend"
    );
    assert!(arb.total_cuts() > 0);
    assert!(arb.grant_ratio() < 1.0);
    assert_eq!(arb.budget, budget);
    assert_eq!(arb.policy, "fair");
    // Telemetry sums must agree with the events the members saw.
    for (m, events) in arb.members.iter().zip(&captures) {
        let events = events.lock().unwrap();
        assert_eq!(m.rounds, events.len());
        assert_eq!(m.cuts, events.iter().filter(|e| e.cut()).count());
        let proposed: f64 = events.iter().map(|e| e.proposed).sum();
        let granted: f64 = events.iter().map(|e| e.granted).sum();
        assert_eq!(m.proposed_sum.to_bits(), proposed.to_bits());
        assert_eq!(m.granted_sum.to_bits(), granted.to_bits());
    }
}

#[test]
fn tight_aimd_respects_floors_and_budget() {
    let budget = 2.0;
    let (result, captures) = contended_fleet(budget, AimdBackoff::new(), 1);
    assert_grant_invariants(budget, &captures, 0.2);
    let arb = result.arbitration.expect("telemetry present");
    assert!(arb.contended_rounds > 0);
    assert_eq!(arb.policy, "aimd");
}

#[test]
fn contended_output_is_invariant_to_thread_count() {
    for policy in ["fair", "aimd"] {
        let run = |threads: usize| {
            let (result, _) = match policy {
                "fair" => contended_fleet(2.0, WeightedFairShare::new(), threads),
                _ => contended_fleet(2.0, AimdBackoff::new(), threads),
            };
            render_fleet(&result)
        };
        let single = run(1);
        for threads in [2usize, 3, 0] {
            assert_eq!(
                run(threads),
                single,
                "{policy}: contended fleet output diverged at threads={threads}"
            );
        }
    }
}

#[test]
fn contended_output_is_invariant_to_tie_breaks() {
    let run = |ranks: Vec<usize>| {
        let app = pema_apps::toy_chain();
        let mut fleet = Fleet::new().threads(2).tie_break(ranks);
        for i in 0..4usize {
            let mut pema = PemaParams::defaults(app.slo_ms);
            pema.seed = 0xB0 + i as u64;
            fleet = fleet.member(
                MemberSpec::new()
                    .floor(0.2)
                    .app(&app)
                    .config(cfg(20 + i as u64))
                    .policy(PemaController::new(pema, app.generous_alloc.clone()))
                    .backend(UseFluid)
                    .rps(130.0 + 15.0 * i as f64)
                    .iters(4),
            );
        }
        render_fleet(&fleet.arbitration(2.0, WeightedFairShare::new()).run())
    };
    let a = run(vec![0, 1, 2, 3]);
    let b = run(vec![900, 3, 77, 0]);
    assert_eq!(a, b, "tie-break permutation changed arbitrated output");
}

/// Two HoldPolicy members with constant proposals: the high-priority
/// member's class fits the budget, so fair share never cuts it; the
/// low-priority member absorbs the entire squeeze.
#[test]
fn priority_classes_shield_high_priority_members() {
    let app = pema_apps::toy_chain();
    let hold_total: f64 = app.generous_alloc.iter().sum();
    // Enough for the high-priority member plus the other's floor plus
    // a sliver — but nowhere near both proposals.
    let floor = 0.2;
    let budget = hold_total + floor + 0.1;
    let (hi_obs, hi_events) = Capture::new();
    let (lo_obs, lo_events) = Capture::new();
    let member = |prio: i32, obs: Capture, seed: u64| {
        MemberSpec::new()
            .priority(prio)
            .floor(floor)
            .app(&app)
            .config(cfg(seed))
            .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
            .backend(UseFluid)
            .rps(110.0)
            .iters(3)
            .observer(obs)
    };
    let result = Fleet::new()
        .member(member(1, hi_obs, 31))
        .member(member(0, lo_obs, 32))
        .arbitration(budget, WeightedFairShare::new())
        .run();
    let arb = result.arbitration.expect("telemetry present");
    assert_eq!(arb.contended_rounds, arb.rounds, "every round contends");
    for ev in hi_events.lock().unwrap().iter() {
        assert!(!ev.cut(), "high-priority member was cut: {ev:?}");
    }
    for ev in lo_events.lock().unwrap().iter() {
        assert!(ev.cut(), "low-priority member escaped the squeeze: {ev:?}");
        assert!(ev.granted >= floor - 1e-9);
    }
}

/// The AIMD scale trajectory is driven purely by the round sequence,
/// so its cuts show up in telemetry and eventually relax: with a
/// persistent breach the grant ratio sits below fair share's floor-only
/// reservation would allow, and no round ever exceeds the budget.
#[test]
fn aimd_scale_evolution_is_deterministic() {
    let run = || {
        let (result, captures) = contended_fleet(2.0, AimdBackoff::new(), 2);
        let events: Vec<Vec<ArbitrationEvent>> =
            captures.iter().map(|c| c.lock().unwrap().clone()).collect();
        (render_fleet(&result), events)
    };
    let (a, ev_a) = run();
    let (b, ev_b) = run();
    assert_eq!(a, b);
    assert_eq!(ev_a, ev_b, "per-round AIMD events must be reproducible");
}

#[test]
fn trace_recorder_captures_arbitration_events() {
    use pema_trace::TraceRecorder;
    let app = pema_apps::toy_chain();
    let recorder = TraceRecorder::new(&app, "rule", 0, &cfg(41));
    let handle = recorder.handle();
    let member = |seed: u64| {
        MemberSpec::new()
            .app(&app)
            .config(cfg(seed))
            .policy(RulePolicy::new(&app))
            .backend(UseFluid)
            .rps(150.0)
            .iters(3)
    };
    let result = Fleet::new()
        .member(member(41).observer(recorder))
        .member(member(42))
        .arbitration(1.0, WeightedFairShare::new())
        .run();
    let events = handle.arbitration();
    assert_eq!(events.len(), 3, "one event per recorded interval");
    for (k, ev) in events.iter().enumerate() {
        assert_eq!(ev.round, k);
        assert!(ev.fleet_granted <= 1.0 + 1e-9);
    }
    assert!(result.arbitration.unwrap().contended_rounds > 0);
}

/// Wall pacing only ever *waits* — it cannot change what virtual-time
/// members compute, because they are never behind their ready-at. A
/// fluid fleet under `Clock::Wall` must therefore be byte-identical to
/// the `Clock::Virtual` default (and finish promptly: no sleeps fire).
#[test]
fn fleet_wall_pace_matches_virtual() {
    let app = pema_apps::toy_chain();
    let builder = |seed: u64| {
        Experiment::builder()
            .app(&app)
            .config(cfg(seed))
            .policy(RulePolicy::new(&app))
            .backend(UseFluid)
            .rps(125.0)
            .iters(3)
    };
    let build = |pace: Clock| {
        Fleet::new()
            .member(builder(51))
            .member(MemberSpec::from(builder(52)).name("second"))
            .pace(pace)
            .run()
    };
    let start = std::time::Instant::now();
    let wall = build(Clock::Wall);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "wall pace slept on virtual members"
    );
    assert_eq!(render_fleet(&wall), render_fleet(&build(Clock::Virtual)));
}

#[test]
#[should_panic(expected = "unsatisfiable")]
fn infeasible_floors_panic_up_front() {
    let app = pema_apps::toy_chain();
    let member = |seed: u64| {
        MemberSpec::new()
            .floor(2.0)
            .app(&app)
            .config(cfg(seed))
            .policy(RulePolicy::new(&app))
            .backend(UseFluid)
            .rps(100.0)
            .iters(2)
    };
    Fleet::new()
        .member(member(61))
        .member(member(62))
        .arbitration(3.0, WeightedFairShare::new())
        .run();
}
