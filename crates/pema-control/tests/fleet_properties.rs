//! Property tests for the fleet scheduler — the fleet analogue of the
//! suite-level `--jobs` invariance guarantee: for arbitrary member
//! counts, harness timings, loads, and ready-order (tie-break)
//! permutations, every member's [`RunResult`] is bit-identical to its
//! solo [`Experiment::run`], and therefore identical across any two
//! schedules.
//!
//! Members deliberately mix backends (DES and fluid), policies (PEMA /
//! RULE / HOLD), and early-check modes, so the interleaving covers
//! multi-poll windows (DES early checks), one-poll windows (default
//! seam), and mid-schedule member completion (unequal `iters`).
//!
//! A second property pins the sharded executor: the entire rendered
//! fleet output is byte-identical at `threads` ∈ {1, 2, 7, auto},
//! under adversarial tie-break permutations.

use pema_control::{
    Experiment, ExperimentBuilder, Fleet, HarnessConfig, HoldPolicy, IntoBackend, Policy,
    RulePolicy, RunResult, Unlimited, WeightedFairShare,
};
use pema_core::{PemaController, PemaParams};
use pema_sim::AppSpec;
use proptest::prelude::*;

/// Bit-faithful rendering (see `fleet_behaviour.rs`): f64 `Debug` is
/// shortest-roundtrip, so equal strings ⇔ bit-equal runs.
fn render(r: &RunResult) -> String {
    let final_bits: Vec<u64> = r.final_alloc.0.iter().map(|x| x.to_bits()).collect();
    format!("{:?} | final={final_bits:?}", r.log)
}

/// One generated member: everything needed to build the same
/// experiment any number of times.
#[derive(Debug, Clone, Copy)]
struct MemberSpec {
    kind: usize,
    interval_s: f64,
    rps: f64,
    iters: usize,
    early: bool,
}

impl MemberSpec {
    /// Builds the member's experiment description. `i` salts the seeds
    /// so no two members share an RNG stream.
    fn build(&self, app: &AppSpec, i: usize) -> FleetPiece {
        let cfg = HarnessConfig {
            interval_s: self.interval_s,
            warmup_s: 1.0,
            seed: 0x5EED + i as u64,
        };
        let base = |b: ExperimentBuilder<pema_control::Unset, pema_control::UseSim>| {
            let b = b.app(app).config(cfg).rps(self.rps).iters(self.iters);
            if self.early {
                b.early_check(2.0)
            } else {
                b
            }
        };
        match self.kind % 5 {
            // DES members (the multi-poll path when early checks are on).
            0 => {
                let mut p = PemaParams::defaults(app.slo_ms);
                p.seed = 0xF0 + i as u64;
                FleetPiece::SimPema(
                    base(Experiment::builder())
                        .policy(PemaController::new(p, app.generous_alloc.clone())),
                )
            }
            1 => FleetPiece::SimRule(base(Experiment::builder()).policy(RulePolicy::new(app))),
            // Fluid members (the default one-poll seam).
            2 => {
                let mut p = PemaParams::defaults(app.slo_ms);
                p.seed = 0xF0 + i as u64;
                FleetPiece::FluidPema(
                    base(Experiment::builder())
                        .policy(PemaController::new(p, app.generous_alloc.clone()))
                        .backend(pema_control::UseFluid),
                )
            }
            3 => FleetPiece::FluidRule(
                base(Experiment::builder())
                    .policy(RulePolicy::new(app))
                    .backend(pema_control::UseFluid),
            ),
            _ => FleetPiece::FluidHold(
                base(Experiment::builder())
                    .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
                    .backend(pema_control::UseFluid),
            ),
        }
    }
}

/// A fully-typed experiment description (the builder is generic, so
/// each policy/backend combination is its own type).
enum FleetPiece {
    SimPema(ExperimentBuilder<PemaController, pema_control::UseSim>),
    SimRule(ExperimentBuilder<RulePolicy, pema_control::UseSim>),
    FluidPema(ExperimentBuilder<PemaController, pema_control::UseFluid>),
    FluidRule(ExperimentBuilder<RulePolicy, pema_control::UseFluid>),
    FluidHold(ExperimentBuilder<HoldPolicy, pema_control::UseFluid>),
}

impl FleetPiece {
    fn solo(self) -> RunResult {
        fn go<P: Policy, B: IntoBackend>(b: ExperimentBuilder<P, B>) -> RunResult {
            b.run()
        }
        match self {
            FleetPiece::SimPema(b) => go(b),
            FleetPiece::SimRule(b) => go(b),
            FleetPiece::FluidPema(b) => go(b),
            FleetPiece::FluidRule(b) => go(b),
            FleetPiece::FluidHold(b) => go(b),
        }
    }

    fn add_to(self, fleet: Fleet) -> Fleet {
        match self {
            FleetPiece::SimPema(b) => fleet.member(b),
            FleetPiece::SimRule(b) => fleet.member(b),
            FleetPiece::FluidPema(b) => fleet.member(b),
            FleetPiece::FluidRule(b) => fleet.member(b),
            FleetPiece::FluidHold(b) => fleet.member(b),
        }
    }
}

/// Bit-faithful rendering of a whole fleet result: member names and
/// runs in report order plus the poll count — everything scheduling
/// could conceivably leak into.
fn render_fleet(result: &pema_control::FleetResult) -> String {
    use std::fmt::Write as _;
    let mut s = format!("polls={}\n", result.polls);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn fleet_results_are_invariant_to_member_count_timing_and_schedule(
        n in 1usize..6,
        kinds in proptest::collection::vec(0usize..5, 6),
        intervals in proptest::collection::vec(4.0f64..9.0, 6),
        rates in proptest::collection::vec(90.0f64..180.0, 6),
        iter_counts in proptest::collection::vec(1usize..5, 6),
        earlies in proptest::collection::vec(0usize..2, 6),
        ranks_a in proptest::collection::vec(0usize..1000, 6),
        ranks_b in proptest::collection::vec(0usize..1000, 6),
    ) {
        let app = pema_apps::toy_chain();
        let specs: Vec<MemberSpec> = (0..n)
            .map(|i| MemberSpec {
                kind: kinds[i],
                interval_s: intervals[i],
                rps: rates[i],
                iters: iter_counts[i],
                early: earlies[i] == 1,
            })
            .collect();

        // Ground truth: each member run solo through Experiment::run.
        let solo: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| render(&s.build(&app, i).solo()))
            .collect();

        // The same members fleet-scheduled under two arbitrary
        // tie-break permutations.
        for ranks in [&ranks_a, &ranks_b] {
            let mut fleet = Fleet::new();
            for (i, s) in specs.iter().enumerate() {
                fleet = s.build(&app, i).add_to(fleet);
            }
            let result = fleet.tie_break(ranks[..n].to_vec()).run();
            prop_assert_eq!(result.runs.len(), n);
            for (i, run) in result.runs.iter().enumerate() {
                let rendered = render(&run.result);
                prop_assert!(
                    rendered == solo[i],
                    "member {} diverged from its solo run under schedule {:?}",
                    i,
                    &ranks[..n]
                );
            }
        }
    }

    /// The sharding analogue: the *entire* rendered fleet output —
    /// member names, per-member logs, end times, and the poll count —
    /// is byte-identical at every thread count (1, 2, 7, and
    /// 0 = one-per-core auto), including under an adversarial
    /// tie-break permutation. 7 exceeds the member cap, so the
    /// shards-capped-at-member-count path is exercised too.
    #[test]
    fn fleet_output_is_invariant_to_thread_count(
        n in 1usize..6,
        kinds in proptest::collection::vec(0usize..5, 6),
        intervals in proptest::collection::vec(4.0f64..9.0, 6),
        rates in proptest::collection::vec(90.0f64..180.0, 6),
        iter_counts in proptest::collection::vec(1usize..5, 6),
        earlies in proptest::collection::vec(0usize..2, 6),
        ranks in proptest::collection::vec(0usize..1000, 6),
    ) {
        let app = pema_apps::toy_chain();
        let specs: Vec<MemberSpec> = (0..n)
            .map(|i| MemberSpec {
                kind: kinds[i],
                interval_s: intervals[i],
                rps: rates[i],
                iters: iter_counts[i],
                early: earlies[i] == 1,
            })
            .collect();

        let run_at = |threads: usize| {
            let mut fleet = Fleet::new().threads(threads);
            for (i, s) in specs.iter().enumerate() {
                fleet = s.build(&app, i).add_to(fleet);
            }
            render_fleet(&fleet.tie_break(ranks[..n].to_vec()).run())
        };

        let single = run_at(1);
        for threads in [2usize, 7, 0] {
            let sharded = run_at(threads);
            prop_assert!(
                sharded == single,
                "fleet output diverged at threads={} (n={})",
                threads,
                n
            );
        }
    }

    /// The arbitration analogue of solo bit-identity: a fleet under
    /// [`Unlimited`] or a slack [`WeightedFairShare`] budget is
    /// byte-identical to the same fleet with no arbitration at all, at
    /// threads ∈ {1, 2, 7, auto} — the barrier rendezvous changes the
    /// execution schedule but may not change a single bit of output.
    #[test]
    fn slack_arbitration_is_bit_invisible(
        n in 1usize..6,
        kinds in proptest::collection::vec(0usize..5, 6),
        intervals in proptest::collection::vec(4.0f64..9.0, 6),
        rates in proptest::collection::vec(90.0f64..180.0, 6),
        iter_counts in proptest::collection::vec(1usize..5, 6),
        earlies in proptest::collection::vec(0usize..2, 6),
        ranks in proptest::collection::vec(0usize..1000, 6),
        unlimited_sel in 0usize..2,
    ) {
        let unlimited = unlimited_sel == 1;
        let app = pema_apps::toy_chain();
        let specs: Vec<MemberSpec> = (0..n)
            .map(|i| MemberSpec {
                kind: kinds[i],
                interval_s: intervals[i],
                rps: rates[i],
                iters: iter_counts[i],
                early: earlies[i] == 1,
            })
            .collect();

        let build = |threads: usize| {
            let mut fleet = Fleet::new().threads(threads);
            for (i, s) in specs.iter().enumerate() {
                fleet = s.build(&app, i).add_to(fleet);
            }
            fleet.tie_break(ranks[..n].to_vec())
        };

        let plain = render_fleet(&build(1).run());
        for threads in [1usize, 2, 7, 0] {
            let fleet = build(threads);
            let arbitrated = if unlimited {
                fleet.arbitration(f64::INFINITY, Unlimited)
            } else {
                // A budget no toy-chain fleet of ≤5 members can reach.
                fleet.arbitration(1e9, WeightedFairShare::new())
            };
            let result = arbitrated.run();
            let arb = result.arbitration.clone().unwrap();
            prop_assert_eq!(arb.contended_rounds, 0);
            prop_assert_eq!(
                arb.members.iter().map(|m| m.rounds).sum::<usize>(),
                specs.iter().map(|s| s.iters).sum::<usize>()
            );
            let rendered = render_fleet(&result);
            prop_assert!(
                rendered == plain,
                "slack arbitration changed output (threads={}, unlimited={})",
                threads,
                unlimited
            );
        }
    }

    /// Contention invariants for arbitrary fleets under a deliberately
    /// tight budget: floors are never violated, the fleet-wide grant
    /// never exceeds the budget, no member is granted above its own
    /// proposal, and the whole arbitrated output is thread-count
    /// invariant.
    #[test]
    fn tight_budget_grants_respect_floors_budget_and_threads(
        n in 2usize..6,
        kinds in proptest::collection::vec(0usize..5, 6),
        intervals in proptest::collection::vec(4.0f64..9.0, 6),
        rates in proptest::collection::vec(90.0f64..180.0, 6),
        iter_counts in proptest::collection::vec(1usize..5, 6),
        ranks in proptest::collection::vec(0usize..1000, 6),
        budget in 0.8f64..3.0,
        floor in 0.0f64..0.15,
    ) {
        use std::sync::{Arc, Mutex};
        use pema_control::{ArbitrationEvent, IterationLog, Observer, RulePolicy};
        use pema_sim::WindowStats;

        #[derive(Clone)]
        struct Capture(Arc<Mutex<Vec<ArbitrationEvent>>>);
        impl Observer for Capture {
            fn on_interval(&mut self, _: &IterationLog, _: &WindowStats) {}
            fn on_arbitration(&mut self, event: &ArbitrationEvent) {
                self.0.lock().unwrap().push(*event);
            }
        }

        let app = pema_apps::toy_chain();
        let specs: Vec<MemberSpec> = (0..n)
            .map(|i| MemberSpec {
                kind: kinds[i],
                interval_s: intervals[i],
                rps: rates[i],
                iters: iter_counts[i],
                early: false,
            })
            .collect();

        let run_at = |threads: usize| {
            let mut fleet = Fleet::new().threads(threads);
            let mut captures = Vec::new();
            for (i, s) in specs.iter().enumerate() {
                let events = Arc::new(Mutex::new(Vec::new()));
                captures.push(Arc::clone(&events));
                let spec = pema_control::MemberSpec::from(
                    Experiment::builder()
                        .app(&app)
                        .config(HarnessConfig {
                            interval_s: s.interval_s,
                            warmup_s: 1.0,
                            seed: 0x5EED + i as u64,
                        })
                        .policy(RulePolicy::new(&app))
                        .backend(pema_control::UseFluid)
                        .rps(s.rps)
                        .iters(s.iters)
                        .observer(Capture(events)),
                )
                .floor(floor)
                .weight(1.0 + (i % 3) as f64)
                .priority((i % 2) as i32);
                fleet = fleet.member(spec);
            }
            let result = fleet
                .tie_break(ranks[..n].to_vec())
                .arbitration(budget, WeightedFairShare::new())
                .run();
            (render_fleet(&result), captures)
        };

        let (single, captures) = run_at(1);
        for events in &captures {
            for ev in events.lock().unwrap().iter() {
                prop_assert!(ev.granted <= ev.proposed + 1e-9);
                prop_assert!(ev.granted >= floor.min(ev.proposed) - 1e-9);
                prop_assert!(ev.fleet_granted <= budget + 1e-9);
            }
        }
        for threads in [2usize, 7, 0] {
            let (sharded, _) = run_at(threads);
            prop_assert!(
                sharded == single,
                "arbitrated fleet output diverged at threads={}",
                threads
            );
        }
    }
}
