//! `des_closed_loop` — the paper's experiment on the discrete-event
//! simulator: PEMA and RULE on the three paper applications at their
//! nominal loads, plus the 120-service `cluster_scale(24)` topology
//! held at its generous allocation. One thread, default
//! `HarnessConfig` (40 s window, 4 s warm-up).
//!
//! Why it exists: `sim.engine` does nearly all the work here and every
//! other layer almost none, so a DES optimisation shows here and a
//! controller or fleet optimisation must not; and it yields the
//! paper's headline quality numbers from the full-fidelity backend.

use super::{
    derive_seed, leg, repeat_setup, LayerInputs, LayerMetrics, Leg, LegOut, PolicyKind, Rep,
    Workload,
};
use crate::adapters::{
    BackendLayer, TimedBackend, TimedPolicy, DECIDE_HOLD, DECIDE_PEMA, DECIDE_RULE, LOOP_STEP,
    SIM_ENGINE,
};
use crate::digest::Digest;
use crate::host;
use crate::spans::Tracer;
use pema_control::{ControlLoop, HarnessConfig, HoldPolicy, Policy, RulePolicy, SimBackend};
use pema_core::{PemaController, PemaParams};
use pema_metrics::LatencyHistogram;
use pema_sim::AppSpec;
use std::sync::Arc;
use std::time::Instant;

/// Control intervals per leg. PEMA needs some 45 intervals to walk down
/// from the generous allocation, and what it reaches by interval 48
/// still varies between seeds three times as much as by interval 60;
/// RULE is within a few percent of its settled allocation after two.
const PEMA_ITERS: usize = 60;
const RULE_ITERS: usize = 7;
const HOLD_ITERS: usize = 3;
/// Intervals of the first leg re-run after the body to check that the
/// simulator is deterministic.
const RERUN_ITERS: usize = 3;

/// The 120-service leg's spans, kept apart so its cost per event can
/// be read on its own.
const SIM_ENGINE_120: BackendLayer = BackendLayer {
    begin: "sim.engine.120svc.begin_window",
    poll: "sim.engine.120svc.poll_window",
    apply: "sim.engine.120svc.apply",
};

/// One leg of the experiment: an application at a load under a
/// policy for a number of intervals. `member` numbers the legs (seeds,
/// span ids).
#[derive(Clone, Copy)]
struct LegSpec<'a> {
    app: &'a AppSpec,
    rps: f64,
    kind: PolicyKind,
    iters: usize,
    member: usize,
}

pub struct DesClosedLoop {
    seed: u64,
    /// The three paper applications with their nominal loads.
    apps: Vec<(AppSpec, f64)>,
    /// `cluster_scale(24)`: 120 services, driven at 40 rps per replica.
    big: (AppSpec, f64),
    /// Digest of the first `RERUN_ITERS` intervals of the first leg.
    first_leg_prefix: u64,
}

impl DesClosedLoop {
    pub fn prepare(seed: u64) -> Self {
        DesClosedLoop {
            seed,
            apps: vec![
                (pema_apps::trainticket(), 250.0),
                (pema_apps::sockshop(), 700.0),
                (pema_apps::hotelreservation(), 600.0),
            ],
            big: (pema_apps::cluster_scale(24), 960.0),
            first_leg_prefix: 0,
        }
    }

    fn wire<P: Policy + 'static>(
        &self,
        policy: P,
        decide: &'static str,
        layer: &BackendLayer,
        spec: &LegSpec,
        tracer: Option<&Arc<Tracer>>,
    ) -> Leg {
        let LegSpec {
            app,
            rps,
            iters,
            member,
            ..
        } = *spec;
        let cfg = HarnessConfig::with_seed(derive_seed(self.seed, member as u64));
        let backend = SimBackend::new(app, cfg.seed);
        match tracer {
            None => leg(
                ControlLoop::new(backend, policy, cfg),
                rps,
                iters,
                |b: &SimBackend| b.sim.events_processed(),
                None,
                member,
            ),
            Some(t) => leg(
                ControlLoop::new(
                    TimedBackend::new(backend, layer, LOOP_STEP, member, t),
                    TimedPolicy::new(policy, decide, LOOP_STEP, member, t),
                    cfg,
                ),
                rps,
                iters,
                |b: &TimedBackend<SimBackend>| b.inner.sim.events_processed(),
                Some(Arc::clone(t)),
                member,
            ),
        }
    }

    fn build_leg(&self, spec: &LegSpec, tracer: Option<&Arc<Tracer>>) -> Leg {
        let app = spec.app;
        match spec.kind {
            PolicyKind::Pema => {
                let mut params = PemaParams::defaults(app.slo_ms);
                params.seed = derive_seed(self.seed, 100 + spec.member as u64);
                let policy = PemaController::new(params, app.generous_alloc.clone());
                self.wire(policy, DECIDE_PEMA, &SIM_ENGINE, spec, tracer)
            }
            PolicyKind::Rule => {
                self.wire(RulePolicy::new(app), DECIDE_RULE, &SIM_ENGINE, spec, tracer)
            }
            PolicyKind::Hold => {
                let policy = HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms);
                self.wire(policy, DECIDE_HOLD, &SIM_ENGINE_120, spec, tracer)
            }
        }
    }
}

impl DesClosedLoop {
    /// Every leg's description with its application index, in run order.
    fn leg_specs(&self) -> Vec<(LegSpec<'_>, usize)> {
        let mut specs = Vec::new();
        for (a, (app, rps)) in self.apps.iter().enumerate() {
            for (kind, iters) in [
                (PolicyKind::Pema, PEMA_ITERS),
                (PolicyKind::Rule, RULE_ITERS),
            ] {
                let member = specs.len();
                specs.push((
                    LegSpec {
                        app,
                        rps: *rps,
                        kind,
                        iters,
                        member,
                    },
                    a,
                ));
            }
        }
        let (app, rps) = &self.big;
        specs.push((
            LegSpec {
                app,
                rps: *rps,
                kind: PolicyKind::Hold,
                iters: HOLD_ITERS,
                member: specs.len(),
            },
            self.apps.len(),
        ));
        specs
    }

    /// Every leg as (loop, policy, application index), in run order.
    fn build_legs(&self, tracer: Option<&Arc<Tracer>>) -> Vec<(Leg, PolicyKind, usize)> {
        self.leg_specs()
            .iter()
            .map(|(spec, a)| (self.build_leg(spec, tracer), spec.kind, *a))
            .collect()
    }
}

impl Workload for DesClosedLoop {
    fn warmup_reps(&self) -> usize {
        0
    }

    fn min_reps(&self) -> usize {
        1
    }

    fn rep(&mut self, tracer: Option<&Arc<Tracer>>) -> Rep {
        let mut rep = Rep::default();
        // This workload has one repetition, so the loops are wired
        // over and over for set-up time to have samples to choose from.
        let (legs, build_s) = repeat_setup(|| self.build_legs(tracer));
        rep.build_s = build_s;

        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let mut done: Vec<(LegOut, PolicyKind, usize)> = Vec::with_capacity(legs.len());
        for (leg, kind, app) in legs {
            done.push((leg(), kind, app));
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cpu_s = host::cpu_seconds() - cpu0;

        let mut digest = Digest::default();
        let mut events = 0;
        for (i, (out, kind, app)) in done.iter().enumerate() {
            rep.absorb(&mut digest, *kind, *app, &out.run);
            events += out.count;
            if i == 0 {
                let mut prefix = Digest::default();
                out.run.log[..RERUN_ITERS]
                    .iter()
                    .for_each(|l| prefix.log(l));
                self.first_leg_prefix = prefix.value();
            }
            if *kind == PolicyKind::Hold {
                rep.scalars.insert("events_120svc", out.count as f64);
            }
        }
        rep.digest = digest.value();
        rep.scalars.insert("events", events as f64);
        rep
    }

    fn final_checks(&mut self) -> Vec<String> {
        // A whole second repetition would double the run; the DES is
        // one engine, so re-running the head of the first leg checks
        // the same property.
        let first = LegSpec {
            iters: RERUN_ITERS,
            ..self.leg_specs()[0].0
        };
        let out = self.build_leg(&first, None)();
        let mut prefix = Digest::default();
        out.run.log.iter().for_each(|l| prefix.log(l));
        if prefix.value() == self.first_leg_prefix {
            Vec::new()
        } else {
            vec![format!(
                "re-running the first {RERUN_ITERS} intervals of the first leg gave different outputs"
            )]
        }
    }

    fn layers(&mut self, inputs: &LayerInputs) -> LayerMetrics {
        let t = inputs.tracer;
        let sum = |name: &str| -> f64 { inputs.traced.iter().map(|r| r.scalar(name)).sum() };
        let wall_s: f64 = inputs.traced.iter().map(|r| r.wall_s).sum();
        let busy_ns = t.sum_ns_prefixed("sim.engine.") as f64;
        let busy_120_ns = t.sum_ns_prefixed("sim.engine.120svc.") as f64;

        let mut hist = LatencyHistogram::new();
        const RECORDS: u64 = 4_000_000;
        let t0 = Instant::now();
        for i in 0..RECORDS {
            // Latencies spread over three decades, as the simulator's are.
            hist.record(std::hint::black_box(1e-4 * (1 + i % 1000) as f64));
        }
        let record_ns = t0.elapsed().as_nanos() as f64 / RECORDS as f64;
        std::hint::black_box(hist.count());

        vec![
            ("sim.engine.busy_s", busy_ns / 1e9),
            ("sim.engine.busy_share_pct", 100.0 * busy_ns / 1e9 / wall_s),
            ("sim.engine.events", sum("events")),
            ("sim.engine.ns_per_event", busy_ns / sum("events")),
            (
                "sim.engine.ns_per_event_120svc",
                busy_120_ns / sum("events_120svc"),
            ),
            ("metrics.histogram.record_ns", record_ns),
        ]
    }
}
