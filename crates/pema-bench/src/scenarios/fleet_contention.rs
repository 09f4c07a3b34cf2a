//! Fleet arbitration under contention — the cluster-wide resource
//! story the single-app paper loop cannot tell.
//!
//! Three stress cases share one CPU budget through the
//! [`Fleet::arbitration`] barrier:
//!
//! * **overcommit** — every member wants more than the cluster has
//!   (budget pinned well below aggregate demand); [`AimdBackoff`]
//!   multiplicatively cuts the fleet and additively recovers, so the
//!   grant ratio traces the classic sawtooth.
//! * **noisy_neighbor** — one member is driven far above its nominal
//!   load next to steady neighbors; [`WeightedFairShare`] with higher
//!   weights on the steady members contains the noisy one instead of
//!   letting it starve the fleet.
//! * **priority_flash** — a correlated flash crowd (the same
//!   [`StepPattern`] surge hits every member at once) under two
//!   priority classes; the high class rides through while the low
//!   class absorbs the squeeze down to its floor.
//!
//! Every case runs on the fluid backend so the CSVs are
//! golden-pinnable, and every round is checked in-scenario against the
//! arbitration invariants (floor never violated, fleet grant ≤ budget,
//! grant ≤ proposal) — the scenario is its own gate, the goldens pin
//! the exact bytes, and `fleet_suite.rs` re-runs it at several thread
//! counts to pin schedule-invariance.
//!
//! Outputs:
//! * `fleet_contention.csv` — one row per member per case (insertion
//!   order): grant/deny totals and violation counts;
//! * `fleet_contention_rounds.csv` — one row per member per
//!   arbitration round: proposed vs granted, fleet demand vs grant.
//!
//! `--backend` never reaches it (registry row `backend_matrix:
//! false`): the arbitrated fleet is the experiment.

use crate::fleet::member_load;
use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

/// Observer capturing every arbitration event one member sees.
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<ArbitrationEvent>>>);

impl Observer for Capture {
    fn on_interval(&mut self, _log: &IterationLog, _stats: &WindowStats) {}
    fn on_arbitration(&mut self, event: &ArbitrationEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

/// Static description of one member, shared by all three cases.
#[derive(Clone)]
struct MemberPlan {
    app: AppSpec,
    name: String,
    priority: i32,
    weight: f64,
    floor: f64,
    rps: f64,
}

/// One case's fleet run plus everything the CSVs need.
struct CaseRun {
    case: &'static str,
    budget: f64,
    plans: Vec<MemberPlan>,
    result: FleetResult,
    captures: Vec<Arc<Mutex<Vec<ArbitrationEvent>>>>,
}

/// Measures the fleet's round-0 demand: the same members run for one
/// interval under [`Unlimited`] arbitration, and the first round's
/// `fleet_demand` comes back. Round-0 proposals depend only on each
/// member's own first window (no grant feedback yet), so this equals
/// the real run's round-0 demand bit-for-bit — budgets derived from it
/// are self-calibrating across smoke and full modes.
fn round0_demand(
    ctx: &ExperimentCtx,
    plans: &[MemberPlan],
    surge: Option<(f64, f64)>,
    seed_base: u64,
) -> f64 {
    let probe = run_case(
        ctx,
        "probe",
        f64::INFINITY,
        plans.to_vec(),
        Unlimited,
        1,
        surge,
        seed_base,
    );
    let events = probe.captures[0].lock().unwrap();
    events[0].fleet_demand
}

/// Builds and runs one case: every member is a fluid RULE loop (the
/// reactive scaler makes demand track load, so surges become proposal
/// surges), optionally riding a shared workload pattern instead of its
/// constant rate.
#[allow(clippy::too_many_arguments)]
fn run_case(
    ctx: &ExperimentCtx,
    case: &'static str,
    budget: f64,
    plans: Vec<MemberPlan>,
    policy: impl FleetPolicy + 'static,
    iters: usize,
    surge: Option<(f64, f64)>, // (surge_multiplier, surge_at_s)
    seed_base: u64,
) -> CaseRun {
    let mut fleet = Fleet::new().threads(ctx.fleet_threads());
    let mut captures = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        let events = Arc::new(Mutex::new(Vec::new()));
        captures.push(Arc::clone(&events));
        let spec = MemberSpec::new()
            .name(p.name.clone())
            .priority(p.priority)
            .weight(p.weight)
            .floor(p.floor)
            .app(&p.app)
            .backend(UseFluid)
            .policy(RulePolicy::new(&p.app))
            .config(ctx.harness_cfg(seed_base + i as u64))
            .iters(iters)
            .observer(Capture(events));
        let spec = match surge {
            // The correlated flash crowd: everyone steps up together.
            Some((mult, at_s)) => {
                spec.workload(StepPattern::new(vec![(0.0, p.rps), (at_s, p.rps * mult)]))
            }
            None => spec.rps(p.rps),
        };
        fleet = fleet.member(spec);
    }
    let result = fleet.arbitration(budget, policy).run();
    CaseRun {
        case,
        budget,
        plans,
        result,
        captures,
    }
}

/// The in-scenario invariant gate: every round every member saw must
/// satisfy the arbitration contract, and the run must actually have
/// contended (a slack case would pin nothing).
fn check_invariants(run: &CaseRun) {
    let arb = run
        .result
        .arbitration
        .as_ref()
        .expect("arbitrated fleet carries telemetry");
    assert!(
        arb.contended_rounds > 0,
        "{}: the budget ({} cores) never contended — the case is miscalibrated",
        run.case,
        run.budget
    );
    for (i, (plan, events)) in run.plans.iter().zip(&run.captures).enumerate() {
        let events = events.lock().unwrap();
        assert_eq!(
            events.len(),
            arb.members[i].rounds,
            "{}: member {i} event count disagrees with telemetry",
            run.case
        );
        for ev in events.iter() {
            assert!(
                ev.granted <= ev.proposed + 1e-9,
                "{}: member {i} granted above its proposal: {ev:?}",
                run.case
            );
            assert!(
                ev.granted >= plan.floor.min(ev.proposed) - 1e-9,
                "{}: member {i} floor violated: {ev:?}",
                run.case
            );
            assert!(
                ev.fleet_granted <= run.budget + 1e-9,
                "{}: round {} breached the budget: {ev:?}",
                run.case,
                ev.round
            );
        }
    }
}

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let iters = ctx.iters(24);
    let templates = pema_apps::fleet_mix();
    let plan = |i: usize, name: String, priority: i32, weight: f64, floor: f64, rps_scale: f64| {
        let (app, rps) = member_load(&templates, i);
        MemberPlan {
            app: app.clone(),
            name,
            priority,
            weight,
            floor,
            rps: rps * rps_scale,
        }
    };

    // Case 1 — overcommit: every member at nominal load under a budget
    // pinned well below the fleet's own round-0 demand, so aggregate
    // demand always exceeds it; AIMD sawtooths the whole fleet.
    let n_over = if ctx.smoke() { 4 } else { 12 };
    let over_plans: Vec<MemberPlan> = (0..n_over)
        .map(|i| plan(i, format!("over-{i}"), 0, 1.0, 0.3, 1.0))
        .collect();
    let over_budget =
        (round0_demand(ctx, &over_plans, None, 0x0C01_1700) * 0.6).max(n_over as f64 * 0.3 + 0.5);
    let overcommit = run_case(
        ctx,
        "overcommit",
        over_budget,
        over_plans,
        AimdBackoff::new(),
        iters,
        None,
        0x0C01_1700,
    );

    // Case 2 — noisy neighbor: member 0 driven at 3× its nominal load
    // next to steady members; fair share weights the steady members 3:1
    // so the noisy one is contained, not the neighborhood.
    let n_noisy = if ctx.smoke() { 4 } else { 6 };
    let noisy_plans: Vec<MemberPlan> = (0..n_noisy)
        .map(|i| {
            if i == 0 {
                plan(i, "noisy-0".into(), 0, 1.0, 0.3, 3.0)
            } else {
                plan(i, format!("steady-{i}"), 0, 3.0, 0.3, 1.0)
            }
        })
        .collect();
    let noisy_budget =
        (round0_demand(ctx, &noisy_plans, None, 0x0C01_1740) * 0.8).max(n_noisy as f64 * 0.3 + 0.5);
    let noisy = run_case(
        ctx,
        "noisy_neighbor",
        noisy_budget,
        noisy_plans,
        WeightedFairShare::new(),
        iters,
        None,
        0x0C01_1740,
    );

    // Case 3 — priority flash crowd: the same step surge hits every
    // member at once; the high class (first half) rides through while
    // the low class absorbs the squeeze down to its floor.
    let n_flash = if ctx.smoke() { 4 } else { 8 };
    let flash_plans: Vec<MemberPlan> = (0..n_flash)
        .map(|i| {
            let hi = i < n_flash / 2;
            plan(
                i,
                format!("{}-{i}", if hi { "hi" } else { "lo" }),
                i32::from(hi),
                1.0,
                0.3,
                1.0,
            )
        })
        .collect();
    // Pre-surge the budget is slack (1.4× round-0 demand); the 2.5×
    // correlated surge then pushes demand through it, and the squeeze
    // lands on the low class only.
    let surge_at = ctx.harness_cfg(0).interval_s * (iters as f64 / 2.0).floor();
    let surge = Some((2.5, surge_at));
    let flash_budget = (round0_demand(ctx, &flash_plans, surge, 0x0C01_1780) * 1.4)
        .max(n_flash as f64 * 0.3 + 0.5);
    let flash = run_case(
        ctx,
        "priority_flash",
        flash_budget,
        flash_plans,
        WeightedFairShare::new(),
        iters,
        surge,
        0x0C01_1780,
    );

    let mut summary_rows = Vec::new();
    let mut round_rows = Vec::new();
    let mut tbl = Vec::new();
    for case_run in [&overcommit, &noisy, &flash] {
        check_invariants(case_run);
        let arb = case_run.result.arbitration.as_ref().unwrap();
        ctx_summary(case_run, arb, &mut summary_rows, &mut round_rows);
        tbl.push(vec![
            case_run.case.to_string(),
            arb.policy.clone(),
            format!("{:.1}", case_run.budget),
            format!("{}/{}", arb.contended_rounds, arb.rounds),
            format!("{}", arb.total_cuts()),
            format!("{:.3}", arb.grant_ratio()),
        ]);
    }
    ctx.print_table(
        "fleet-contention: one budget, three stress cases",
        &[
            "case",
            "policy",
            "budget",
            "contended",
            "cuts",
            "grantRatio",
        ],
        &tbl,
    );
    ctx.say(format!(
        "arbitration gates held: floors respected, grants within budget, \
         {} member-rounds checked across 3 cases",
        round_rows.len(),
    ));

    ctx.write_csv(
        "fleet_contention",
        "case,member_idx,member,app,policy,priority,weight,floor,rps,intervals,cuts,\
         proposed_sum,granted_sum,grant_ratio,violations",
        &summary_rows,
    )?;
    ctx.write_csv(
        "fleet_contention_rounds",
        "case,member_idx,member,round,proposed,granted,cut,fleet_demand,fleet_granted,budget",
        &round_rows,
    )
}

/// Emits one case's summary + per-round CSV rows (insertion order —
/// scheduling must not leak into the bytes).
fn ctx_summary(
    run: &CaseRun,
    arb: &FleetArbitration,
    summary_rows: &mut Vec<String>,
    round_rows: &mut Vec<String>,
) {
    for (i, plan) in run.plans.iter().enumerate() {
        let m = &arb.members[i];
        let member_run = &run.result.runs[i];
        let ratio = if m.proposed_sum > 0.0 {
            m.granted_sum / m.proposed_sum
        } else {
            1.0
        };
        summary_rows.push(format!(
            "{},{i},{},{},{},{},{},{:.2},{:.0},{},{},{:.3},{:.3},{:.4},{}",
            run.case,
            plan.name,
            plan.app.name,
            arb.policy,
            plan.priority,
            plan.weight,
            plan.floor,
            plan.rps,
            m.rounds,
            m.cuts,
            m.proposed_sum,
            m.granted_sum,
            ratio,
            member_run.result.violations(),
        ));
        for ev in run.captures[i].lock().unwrap().iter() {
            round_rows.push(format!(
                "{},{i},{},{},{:.3},{:.3},{},{:.3},{:.3},{:.1}",
                run.case,
                plan.name,
                ev.round,
                ev.proposed,
                ev.granted,
                ev.cut() as u8,
                ev.fleet_demand,
                ev.fleet_granted,
                run.budget,
            ));
        }
    }
}
