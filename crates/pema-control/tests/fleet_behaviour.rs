//! Fleet behaviour: the headline guarantee — a [`Fleet`] of one is
//! **bit-identical** to the plain [`Experiment::run`] path — plus the
//! mixed-fleet semantics the scheduler promises (insertion-order
//! results, virtual-span accounting, mid-window teardown), including
//! the schedule itself: a ready member is served until it waits.

use pema_control::{
    ClusterBackend, ControlLoop, Experiment, ExperimentBuilder, Fleet, FluidBackend, HarnessConfig,
    HoldPolicy, IterationLog, LoopPoll, MemberSpec, RulePolicy, RunResult, SimBackend, UseFluid,
    UseSim, WindowPoll, WindowRequest,
};
use pema_core::{PemaController, PemaParams};
use pema_sim::{Allocation, AppSpec, StepPattern, WindowStats};
use std::sync::{Arc, Mutex};

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

/// Records which member committed each interval, in commit order,
/// with the interval's start time.
type CommitLog = Arc<Mutex<Vec<(usize, f64)>>>;

fn recorded(
    spec: MemberSpec<RulePolicy, UseFluid>,
    id: usize,
    log: &CommitLog,
) -> MemberSpec<RulePolicy, UseFluid> {
    let log = Arc::clone(log);
    spec.observer(move |l: &IterationLog, _: &WindowStats| log.lock().unwrap().push((id, l.time_s)))
}

#[test]
fn a_ready_member_is_served_until_it_finishes() {
    // Fluid windows are ready in one poll, so nothing makes a member
    // wait: each shard serves its members one after another, in rank
    // order, each through all of its intervals.
    let app = pema_apps::toy_chain();
    let iters = 5;
    let ranks = vec![3, 1, 5, 0, 4, 2];
    for threads in [1usize, 2] {
        let log = CommitLog::default();
        let mut fleet = Fleet::new().threads(threads).tie_break(ranks.clone());
        for id in 0..ranks.len() {
            let spec = MemberSpec::new()
                .app(&app)
                .policy(RulePolicy::new(&app))
                .backend(UseFluid)
                .config(HarnessConfig::with_seed(id as u64))
                .rps(100.0 + 10.0 * id as f64)
                .iters(iters);
            fleet = fleet.member(recorded(spec, id, &log));
        }
        fleet.run();
        let order: Vec<usize> = log.lock().unwrap().iter().map(|&(id, _)| id).collect();
        for shard in 0..threads {
            let mut members: Vec<usize> =
                (0..ranks.len()).filter(|i| i % threads == shard).collect();
            members.sort_by_key(|&i| ranks[i]);
            let expected: Vec<usize> = members
                .iter()
                .flat_map(|&i| std::iter::repeat_n(i, iters))
                .collect();
            let served: Vec<usize> = order
                .iter()
                .copied()
                .filter(|i| i % threads == shard)
                .collect();
            assert_eq!(served, expected, "shard {shard} of {threads}");
        }
    }
}

#[test]
fn a_member_whose_window_is_pending_yields_in_virtual_time_order() {
    // Early checks split a DES window into one poll per check period,
    // each answering `Pending`: the member waits, so two members with
    // the same timing take turns, interval by interval, in rank order.
    let app = pema_apps::toy_chain();
    let log = CommitLog::default();
    let mut fleet = Fleet::new();
    for id in 0..2 {
        let log = Arc::clone(&log);
        fleet = fleet.member(
            MemberSpec::new()
                .app(&app)
                .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                .config(HarnessConfig {
                    interval_s: 8.0,
                    warmup_s: 1.0,
                    seed: 5 + id as u64,
                })
                .early_check(2.0)
                .rps(120.0)
                .iters(3)
                .observer(move |l: &IterationLog, _: &WindowStats| {
                    log.lock().unwrap().push((id, l.time_s))
                }),
        );
    }
    let fleet = fleet.run();
    assert!(fleet.polls > 6, "early checks must split the windows");
    let log = log.lock().unwrap();
    let order: Vec<usize> = log.iter().map(|&(id, _)| id).collect();
    assert_eq!(order, [0, 1, 0, 1, 0, 1]);
    assert!(
        log.windows(2).all(|w| w[0].1 <= w[1].1),
        "commits out of virtual-time order: {log:?}"
    );
}

/// A fluid backend whose clock turns NaN once its first window closes.
struct NanAfterFirstWindow {
    inner: FluidBackend,
    windows: usize,
}

impl ClusterBackend for NanAfterFirstWindow {
    fn apply(&mut self, alloc: &Allocation) {
        self.inner.apply(alloc)
    }

    fn allocation(&self) -> Allocation {
        self.inner.allocation()
    }

    fn now_s(&self) -> f64 {
        if self.windows > 0 {
            f64::NAN
        } else {
            self.inner.now_s()
        }
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        let poll = self.inner.poll_window(req);
        if matches!(poll, WindowPoll::Ready { .. }) {
            self.windows += 1;
        }
        poll
    }
}

#[test]
#[should_panic(expected = "non-finite time")]
fn a_member_whose_clock_turns_non_finite_mid_run_panics() {
    // The first interval logs and the member has more to go, so the
    // shard checks its clock before serving it again.
    let app = pema_apps::toy_chain();
    Fleet::new()
        .member(
            MemberSpec::new()
                .app(&app)
                .policy(RulePolicy::new(&app))
                .backend(NanAfterFirstWindow {
                    inner: FluidBackend::new(&app),
                    windows: 0,
                })
                .rps(120.0)
                .iters(3),
        )
        .run();
}
