//! Fleet behaviour: the headline guarantee — a [`Fleet`] of one is
//! **bit-identical** to the plain [`Experiment::run`] path — plus the
//! mixed-fleet semantics the scheduler promises (insertion-order
//! results, virtual-span accounting, mid-window teardown).

use pema_control::{
    ClusterBackend, ControlLoop, Experiment, ExperimentBuilder, Fleet, HarnessConfig, HoldPolicy,
    LoopPoll, MemberSpec, RulePolicy, RunResult, SimBackend, UseFluid, UseSim,
};
use pema_core::{PemaController, PemaParams};
use pema_sim::{AppSpec, StepPattern};

/// Bit-faithful rendering of a run: f64 `Debug` is shortest-roundtrip,
/// so two runs render identically iff every logged float is
/// bit-identical (modulo sign of zero, which the loop never produces).
fn render(r: &RunResult) -> String {
    let final_bits: Vec<u64> = r.final_alloc.0.iter().map(|x| x.to_bits()).collect();
    format!(
        "{:?} | final={final_bits:?} | slo={}",
        r.log,
        r.slo_ms.to_bits()
    )
}

fn pema_exp(app: &AppSpec, early: bool) -> ExperimentBuilder<PemaController, UseSim> {
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0xAB;
    let mut b = Experiment::builder()
        .app(app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .config(HarnessConfig {
            interval_s: 8.0,
            warmup_s: 1.0,
            seed: 7,
        })
        .rps(150.0)
        .iters(8);
    if early {
        b = b.early_check(2.0);
    }
    b
}

#[test]
fn fleet_of_one_is_bit_identical_to_experiment_run() {
    let app = pema_apps::toy_chain();
    for early in [false, true] {
        let solo = pema_exp(&app, early).run();
        let fleet = Fleet::new().member(pema_exp(&app, early)).run();
        assert_eq!(fleet.runs.len(), 1);
        assert_eq!(
            render(&solo),
            render(&fleet.runs[0].result),
            "fleet-of-one diverged from the single-loop path (early_check={early})"
        );
    }
}

#[test]
fn fleet_of_one_samples_a_time_varying_load_like_a_plain_run() {
    // Time-varying load: a polled member must sample the workload at
    // each interval start (backend virtual time) exactly like a run
    // driven to completion does, with and without early checks (an
    // abort moves the next interval's start).
    let app = pema_apps::toy_chain();
    let pattern = || StepPattern::new(vec![(0.0, 120.0), (20.0, 180.0), (40.0, 90.0)]);
    for early in [false, true] {
        let build = || {
            let mut params = PemaParams::defaults(app.slo_ms);
            params.seed = 0xCD;
            let b = Experiment::builder()
                .app(&app)
                .policy(PemaController::new(params, app.generous_alloc.clone()))
                .config(HarnessConfig {
                    interval_s: 6.0,
                    warmup_s: 1.0,
                    seed: 11,
                })
                .workload(pattern())
                .iters(6);
            if early {
                b.early_check(2.0)
            } else {
                b
            }
        };
        let solo = build().run();
        let fleet = Fleet::new().member(build()).run();
        assert_eq!(
            render(&solo),
            render(&fleet.runs[0].result),
            "early_check={early}"
        );
        // The pattern actually exercised more than one level.
        let mut loads: Vec<u64> = solo.log.iter().map(|l| l.rps.to_bits()).collect();
        loads.dedup();
        assert!(loads.len() > 1, "step pattern never changed the load");
    }
}

#[test]
fn a_run_reserves_its_log_once_for_exactly_its_intervals() {
    // The log is sized where the run is built, through either door: a
    // log regrowing 4 → 8 → 16 → 32 on fleet worker threads is what
    // peak RSS used to hang on (docs/fleet.md, "Memory per member").
    let app = pema_apps::toy_chain();
    let member = |iters: usize| {
        MemberSpec::new()
            .app(&app)
            .policy(RulePolicy::new(&app))
            .backend(UseFluid)
            .rps(140.0)
            .iters(iters)
    };
    assert_eq!(member(20).run().log.capacity(), 20);
    let fleet = Fleet::new()
        .threads(2)
        .member(member(20))
        .member(member(3))
        .member(member(33))
        .run();
    for r in &fleet.runs {
        assert_eq!(r.result.log.capacity(), r.result.log.len(), "{}", r.name);
    }
}

/// A run description complete but for what the caller leaves out.
fn undescribed(load: bool, iters: bool) -> MemberSpec<RulePolicy, UseFluid> {
    let app = pema_apps::toy_chain();
    let mut b = MemberSpec::new()
        .app(&app)
        .policy(RulePolicy::new(&app))
        .backend(UseFluid);
    if load {
        b = b.rps(140.0);
    }
    if iters {
        b = b.iters(3);
    }
    b
}

#[test]
#[should_panic(expected = ".iters(..)")]
fn run_without_iters_panics() {
    undescribed(true, false).run();
}

#[test]
#[should_panic(expected = ".rps(..) or .workload(..)")]
fn run_without_a_load_panics() {
    undescribed(false, true).run();
}

#[test]
#[should_panic(expected = ".iters(..)")]
fn fleet_member_without_iters_panics() {
    let _ = Fleet::new().member(undescribed(true, false));
}

#[test]
#[should_panic(expected = ".rps(..) or .workload(..)")]
fn fleet_member_without_a_load_panics() {
    let _ = Fleet::new().member(undescribed(false, true));
}

#[test]
fn mixed_fleet_reports_members_in_insertion_order() {
    let app = pema_apps::toy_chain();
    let fleet = Fleet::new()
        .member(MemberSpec::from(pema_exp(&app, true)).name("des-pema")) // DES, early checks on
        .member(
            MemberSpec::new()
                .name("fluid-rule")
                .app(&app)
                .policy(RulePolicy::new(&app))
                .backend(UseFluid)
                .config(HarnessConfig::with_seed(3))
                .rps(140.0)
                .iters(12),
        )
        .member(
            MemberSpec::new()
                .name("fluid-hold")
                .app(&app)
                .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                .backend(UseFluid)
                .config(HarnessConfig::with_seed(4))
                .rps(100.0)
                .iters(3),
        )
        .run();
    let names: Vec<&str> = fleet.runs.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["des-pema", "fluid-rule", "fluid-hold"]);
    assert_eq!(fleet.runs[0].result.log.len(), 8);
    assert_eq!(fleet.runs[1].result.log.len(), 12);
    assert_eq!(fleet.runs[2].result.log.len(), 3);
    assert_eq!(fleet.total_intervals(), 23);
    assert!(fleet.polls >= 23, "each interval needs at least one poll");
    let span = fleet.span_s();
    for r in &fleet.runs {
        assert!(
            r.end_s > 0.0 && r.end_s <= span,
            "span must cover {}",
            r.name
        );
    }
}

#[test]
fn cancel_interval_mid_window_leaves_the_loop_reusable() {
    // Tear a loop down mid-window (fleet cancellation) and keep using
    // its backend: completed intervals stay logged, the clock stays
    // monotone, and the next interval measures cleanly.
    let app = pema_apps::toy_chain();
    let mut control = ControlLoop::new(
        SimBackend::new(&app, 5),
        HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms),
        HarnessConfig {
            interval_s: 8.0,
            warmup_s: 1.0,
            seed: 5,
        },
    )
    .with_early_check(2.0);
    control.step_once(120.0);
    let t_logged = control.backend.now_s();

    // Start the next interval but abandon it mid-window.
    assert!(matches!(control.poll_step(120.0), LoopPoll::Pending { .. }));
    control.cancel_interval();
    let t_cancelled = control.backend.now_s();
    assert!(t_cancelled >= t_logged, "cancellation must not rewind time");

    // The loop keeps working after the cancellation.
    control.step_once(120.0);
    assert_eq!(control.log().len(), 2, "cancelled interval must not log");
    assert!(control.backend.now_s() > t_cancelled);
}

#[test]
fn sharded_fleet_matches_single_threaded_run() {
    // The deterministic (non-proptest) face of the thread-invariance
    // wall: a mixed fleet — DES with early checks, fluid RULE/HOLD,
    // unequal iteration counts — rendered bit-for-bit identical when
    // sharded across 3 workers, when over-sharded (more threads than
    // members), and under auto thread count.
    let app = pema_apps::toy_chain();
    let build = || {
        Fleet::new()
            .member(MemberSpec::from(pema_exp(&app, true)).name("des-pema"))
            .member(
                MemberSpec::new()
                    .name("fluid-rule")
                    .app(&app)
                    .policy(RulePolicy::new(&app))
                    .backend(UseFluid)
                    .config(HarnessConfig::with_seed(3))
                    .rps(140.0)
                    .iters(12),
            )
            .member(
                MemberSpec::new()
                    .name("fluid-hold")
                    .app(&app)
                    .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                    .backend(UseFluid)
                    .config(HarnessConfig::with_seed(4))
                    .rps(100.0)
                    .iters(3),
            )
    };
    let single = build().threads(1).run();
    for threads in [3usize, 16, 0] {
        let sharded = build().threads(threads).run();
        assert_eq!(sharded.polls, single.polls, "polls diverged at {threads}");
        assert_eq!(sharded.runs.len(), single.runs.len());
        for (s, o) in sharded.runs.iter().zip(&single.runs) {
            assert_eq!(s.name, o.name, "order diverged at threads={threads}");
            assert_eq!(s.end_s.to_bits(), o.end_s.to_bits());
            assert_eq!(
                render(&s.result),
                render(&o.result),
                "member {} diverged at threads={threads}",
                s.name
            );
        }
    }
}

#[test]
fn empty_fleet_completes_trivially() {
    let fleet = Fleet::new().run();
    assert!(fleet.runs.is_empty());
    assert_eq!(fleet.polls, 0);
    assert_eq!(fleet.total_intervals(), 0);
    assert_eq!(fleet.span_s(), 0.0);
}
