//! The three fleet workloads. All drive fluid-backed members — the
//! three paper applications cycled, PEMA/RULE/HOLD cycled against
//! them, loads spread ±20 % by `fleet_rps`, per-member seeds — through
//! `Fleet::run`; only `run()` is timed, construction is set-up.
//!
//! * `fleet_fluid_10k` — 10 000 members × 40 intervals on two threads,
//!   free-running. Why: `control.fleet`, `sim.fluid` and the policies
//!   split the work and the DES does none; this is the scale point
//!   whose throughput drop and per-member memory the ROADMAP wants
//!   explained.
//! * `fleet_arbitrated` — 1 024 members × 100 intervals on two threads
//!   under `WeightedFairShare` with a budget of 0.85 × the members'
//!   generous allocations. Why: the same executor used differently —
//!   every interval crosses the collect/grant barrier — so a gain for
//!   the free-running path that costs the barrier path (or the
//!   reverse) shows as a split between this workload and the one above.
//! * `fleet_observed` — 256 members × 800 intervals on one thread with
//!   a telemetry hub, a JSONL event log and a `/metrics` server scraped
//!   on a fixed 20 ms schedule (an open loop at 50 Hz). Why: the only
//!   workload where `telemetry.*` is a visible share, and it keeps the
//!   one-thread fleet path measured beside the sharded one.

use super::{derive_seed, LayerInputs, LayerMetrics, PolicyKind, Rep, Twin, Workload};
use crate::adapters::{
    TimedBackend, TimedFleetPolicy, TimedPolicy, DECIDE_HOLD, DECIDE_PEMA, DECIDE_RULE, FLEET_RUN,
    SIM_FLUID,
};
use crate::digest::Digest;
use crate::host;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use pema_control::{
    Fleet, FluidBackend, HarnessConfig, HoldPolicy, MemberSpec, Policy, RulePolicy,
    WeightedFairShare,
};
use pema_core::{PemaController, PemaParams};
use pema_live::{Endpoint, HttpClient};
use pema_sim::{Allocation, AppSpec, Evaluator as _, FluidEvaluator};
use pema_telemetry::{lint, EventField, EventSink, MetricsServer, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The size and mode of one fleet workload.
pub struct Shape {
    members: usize,
    iters: usize,
    threads: usize,
    warmup_reps: usize,
    min_reps: usize,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    FreeRunning,
    Arbitrated,
    Observed,
}

pub const FLUID_10K: Shape = Shape {
    members: 10_000,
    iters: 20,
    threads: 2,
    warmup_reps: 1,
    min_reps: 3,
    mode: Mode::FreeRunning,
};
pub const ARBITRATED: Shape = Shape {
    members: 1024,
    iters: 100,
    threads: 2,
    warmup_reps: 2,
    min_reps: 5,
    mode: Mode::Arbitrated,
};
pub const OBSERVED: Shape = Shape {
    members: 256,
    iters: 200,
    threads: 1,
    warmup_reps: 1,
    min_reps: 3,
    mode: Mode::Observed,
};

/// Share of the members' generous allocations the arbitrated fleet may
/// hand out: tight enough that rounds are contended while PEMA members
/// are still near their starting allocation.
const BUDGET_SHARE: f64 = 0.5;
/// The scraper's schedule.
const SCRAPE_PERIOD: Duration = Duration::from_millis(20);

/// How one repetition differs from the workload's own configuration
/// (the twins differ in exactly one field).
#[derive(Clone, Copy)]
struct Variant {
    threads: usize,
    arbitrated: bool,
    observed: bool,
}

pub struct FleetWorkload {
    shape: Shape,
    seed: u64,
    templates: Vec<(AppSpec, f64)>,
    scratch: PathBuf,
}

/// What the scraper thread saw during one `Fleet::run`.
#[derive(Default)]
struct Scrapes {
    /// Milliseconds from each scrape's due time to its last byte.
    latency_ms: Vec<f64>,
    /// Milliseconds the scraper woke after each due time.
    late_ms: Vec<f64>,
    bodies: Vec<String>,
    failed: u64,
}

fn scrape_until(stop: &AtomicBool, endpoint: &Endpoint) -> Scrapes {
    let http = HttpClient::default();
    let mut out = Scrapes::default();
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + SCRAPE_PERIOD * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match http.request(endpoint, "GET", "/metrics", &[], None) {
            Ok(resp) if resp.is_success() => {
                out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                out.bodies.push(resp.body);
            }
            _ => out.failed += 1,
        }
    }
    out
}

impl FleetWorkload {
    pub fn prepare(shape: Shape, seed: u64, scratch: &Path) -> Self {
        FleetWorkload {
            shape,
            seed,
            templates: pema_apps::fleet_mix(),
            scratch: scratch.to_path_buf(),
        }
    }

    fn own_variant(&self) -> Variant {
        Variant {
            threads: self.shape.threads,
            arbitrated: self.shape.mode == Mode::Arbitrated,
            observed: self.shape.mode == Mode::Observed,
        }
    }

    /// Member `i`'s application index and policy. The policy advances
    /// once per pass over the applications, so every application runs
    /// under every policy.
    fn cell(&self, i: usize) -> (usize, PolicyKind) {
        let n = self.templates.len();
        (i % n, PolicyKind::CYCLE[(i / n) % PolicyKind::CYCLE.len()])
    }

    fn add_member(&self, fleet: Fleet, i: usize, tracer: Option<&Arc<Tracer>>) -> Fleet {
        let (a, kind) = self.cell(i);
        let (app, nominal) = &self.templates[a];
        let spec = MemberSpec::new()
            .app(app)
            .config(HarnessConfig::with_seed(derive_seed(self.seed, i as u64)))
            .rps(pema_apps::fleet_rps(*nominal, i, self.templates.len()))
            .iters(self.shape.iters);
        match kind {
            PolicyKind::Pema => {
                let mut params = PemaParams::defaults(app.slo_ms);
                params.seed = derive_seed(self.seed, (1 << 32) + i as u64);
                let policy = PemaController::new(params, app.generous_alloc.clone());
                install(fleet, spec, policy, DECIDE_PEMA, app, i, tracer)
            }
            PolicyKind::Rule => install(
                fleet,
                spec,
                RulePolicy::new(app),
                DECIDE_RULE,
                app,
                i,
                tracer,
            ),
            PolicyKind::Hold => {
                let policy = HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms);
                install(fleet, spec, policy, DECIDE_HOLD, app, i, tracer)
            }
        }
    }

    fn budget(&self) -> f64 {
        let generous: f64 = (0..self.shape.members)
            .map(|i| {
                Allocation::new(self.templates[self.cell(i).0].0.generous_alloc.clone()).total()
            })
            .sum();
        BUDGET_SHARE * generous
    }

    fn run(&self, v: Variant, tracer: Option<&Arc<Tracer>>) -> Rep {
        let mut rep = Rep::default();
        let rss_before_kb = host::rss_kb();
        let t0 = Instant::now();
        let mut fleet = Fleet::new().threads(v.threads);
        for i in 0..self.shape.members {
            fleet = self.add_member(fleet, i, tracer);
        }
        if v.arbitrated {
            fleet = match tracer {
                None => fleet.arbitration(self.budget(), WeightedFairShare::new()),
                Some(t) => fleet.arbitration(
                    self.budget(),
                    TimedFleetPolicy::new(WeightedFairShare::new(), t),
                ),
            };
        }
        let events_path = self.scratch.join("events.jsonl");
        let observed = v.observed.then(|| {
            let hub = Telemetry::new();
            let sink = EventSink::to_file(events_path.to_str().expect("UTF-8 scratch path"))
                .expect("create the event log");
            let server = MetricsServer::serve("127.0.0.1:0", hub.clone()).expect("bind /metrics");
            (hub, sink, server)
        });
        if let Some((hub, sink, _)) = &observed {
            fleet = fleet.telemetry(hub).events(sink.clone());
        }
        rep.build_s.push(t0.elapsed().as_secs_f64());

        let endpoint = observed.as_ref().map(|(_, _, server)| Endpoint {
            host: "127.0.0.1".into(),
            port: server.local_addr().port(),
        });
        let stop = AtomicBool::new(false);
        let (result, scrapes) = std::thread::scope(|s| {
            let scraper = endpoint
                .as_ref()
                .map(|endpoint| s.spawn(|| scrape_until(&stop, endpoint)));
            let root = tracer.map(|t| t.root_scope(FLEET_RUN));
            let cpu0 = host::cpu_seconds();
            let t0 = Instant::now();
            let result = fleet.run();
            rep.wall_s = t0.elapsed().as_secs_f64();
            rep.cpu_s = host::cpu_seconds() - cpu0;
            drop(root);
            stop.store(true, Ordering::SeqCst);
            let scrapes = scraper.map(|s| s.join().expect("scraper thread panicked"));
            (result, scrapes)
        });
        rep.scalars
            .insert("rss_delta_kb", host::rss_kb() - rss_before_kb);

        let mut digest = Digest::default();
        for (i, run) in result.runs.iter().enumerate() {
            let (a, kind) = self.cell(i);
            rep.absorb(&mut digest, kind, a, &run.result);
        }
        rep.digest = digest.value();
        if rep.intervals != (self.shape.members * self.shape.iters) as u64 {
            rep.fail(
                1,
                format!(
                    "the fleet logged {} intervals, not members × iterations",
                    rep.intervals
                ),
            );
        }
        if let Some(arb) = &result.arbitration {
            let (ratio, cuts) = (arb.grant_ratio(), arb.total_cuts());
            rep.scalars.insert("arb_rounds", arb.rounds as f64);
            rep.scalars.insert("arb_cuts", cuts as f64);
            rep.scalars.insert("arb_grant_ratio", ratio);
            // A budget that never binds, or one that starves the fleet,
            // would leave the barrier path unmeasured in any useful sense.
            if !(0.3..1.0).contains(&ratio) || cuts == 0 {
                rep.fail(
                    1,
                    format!("degenerate budget regime: grant ratio {ratio}, {cuts} cuts"),
                );
            }
        }
        if let (Some((hub, sink, _)), Some(scrapes)) = (&observed, scrapes) {
            self.check_observed(&mut rep, hub, sink, scrapes, &events_path, tracer.is_some());
        }
        rep
    }

    /// The telemetry side's output checks, and its per-layer samples.
    fn check_observed(
        &self,
        rep: &mut Rep,
        hub: &Telemetry,
        sink: &EventSink,
        scrapes: Scrapes,
        events_path: &Path,
        probe: bool,
    ) {
        sink.flush();
        let log = std::fs::read_to_string(events_path).unwrap_or_default();
        let interval_lines = log
            .lines()
            .filter(|l| l.starts_with("{\"event\":\"interval\""))
            .count() as u64;
        if interval_lines != rep.intervals {
            rep.fail(
                1,
                format!(
                    "the event log has {interval_lines} interval lines for {} intervals",
                    rep.intervals
                ),
            );
        }
        rep.scalars.insert(
            "event_bytes_per_interval",
            log.len() as f64 / rep.intervals as f64,
        );
        let _ = std::fs::remove_file(events_path);

        if scrapes.failed > 0 {
            rep.fail(scrapes.failed, format!("{} scrapes failed", scrapes.failed));
        }
        // `Telemetry::render` reads a histogram's buckets twice, once
        // for the `le` lines and once for `_count`, so a scrape taken
        // while the fleet runs can show a `_count` one observation
        // ahead of its `+Inf` bucket. That torn read depends on thread
        // timing, so it is counted (`telemetry.lint.torn_scrapes`) and
        // not failed; every other violation fails the scrape.
        let torn = |v: &String| v.contains("_count") && v.contains("!= +Inf bucket");
        let mut lint_ms = Vec::with_capacity(scrapes.bodies.len());
        let (mut dirty, mut torn_scrapes) = (0, 0);
        let mut previous: Option<&str> = None;
        for body in &scrapes.bodies {
            let t0 = Instant::now();
            let report = lint(body, previous);
            lint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            dirty += report.violations.iter().any(|v| !torn(v)) as u64;
            torn_scrapes += report.violations.iter().any(torn) as u64;
            previous = Some(body);
        }
        // With the fleet at rest nothing can tear: one more scrape,
        // straight off the registry, must be clean outright.
        if !lint(&hub.render(), previous).is_clean() {
            dirty += 1;
        }
        if dirty > 0 {
            rep.fail(dirty, format!("{dirty} scrapes did not pass lint"));
        }
        rep.scalars.insert("torn_scrapes", torn_scrapes as f64);
        rep.scalars.insert("scrapes", scrapes.bodies.len() as f64);
        rep.series.insert("scrape_ms", scrapes.latency_ms);
        rep.series.insert("scraper_late_ms", scrapes.late_ms);
        rep.series.insert("lint_ms", lint_ms);

        if probe {
            let mut render_ms = Vec::new();
            let mut bytes = 0;
            for _ in 0..9 {
                let t0 = Instant::now();
                let text = std::hint::black_box(hub.render());
                render_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                bytes = text.len();
            }
            rep.scalars.insert("render_ms", median(&render_ms));
            rep.scalars.insert("exposition_bytes", bytes as f64);
        }
    }
}

/// Adds one member, through the timing adapters when tracing.
fn install<P: Policy + Send + 'static>(
    fleet: Fleet,
    spec: MemberSpec,
    policy: P,
    decide: &'static str,
    app: &AppSpec,
    member: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Fleet {
    let backend = FluidBackend::new(app);
    match tracer {
        None => fleet.member(spec.policy(policy).backend(backend)),
        Some(t) => fleet.member(
            spec.policy(TimedPolicy::new(policy, decide, FLEET_RUN, member, t))
                .backend(TimedBackend::new(backend, &SIM_FLUID, FLEET_RUN, member, t)),
        ),
    }
}

/// ns per `FluidEvaluator::evaluate`, over the three applications at
/// their generous allocations and nominal loads.
fn probe_fluid_evaluate(templates: &[(AppSpec, f64)]) -> f64 {
    const CALLS: usize = 60_000;
    let mut evals: Vec<(FluidEvaluator, Allocation, f64)> = templates
        .iter()
        .map(|(app, rps)| {
            (
                FluidEvaluator::new(app),
                Allocation::new(app.generous_alloc.clone()),
                *rps,
            )
        })
        .collect();
    let t0 = Instant::now();
    for i in 0..CALLS {
        let (eval, alloc, rps) = &mut evals[i % templates.len()];
        std::hint::black_box(eval.evaluate(alloc, std::hint::black_box(*rps)));
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

/// ns per `EventSink::emit` of an interval-sized event into a file.
fn probe_event_emit(scratch: &Path) -> f64 {
    const EVENTS: u64 = 200_000;
    let path = scratch.join("emit_probe.jsonl");
    let sink = EventSink::to_file(path.to_str().expect("UTF-8 scratch path"))
        .expect("create the probe log");
    let t0 = Instant::now();
    for i in 0..EVENTS {
        sink.emit(
            "interval",
            i as f64 * 44.0,
            &[
                ("member", EventField::Str("app17".into())),
                ("iter", EventField::U64(i)),
                ("total_cpu", EventField::F64(17.25 + i as f64)),
                ("p95_ms", EventField::F64(212.5)),
                ("violated", EventField::U64(0)),
                ("action", EventField::Str("reduce(2)".into())),
            ],
        );
    }
    sink.flush();
    let ns = t0.elapsed().as_nanos() as f64 / EVENTS as f64;
    let _ = std::fs::remove_file(path);
    ns
}

impl Workload for FleetWorkload {
    fn warmup_reps(&self) -> usize {
        self.shape.warmup_reps
    }

    fn min_reps(&self) -> usize {
        self.shape.min_reps
    }

    fn rep(&mut self, tracer: Option<&Arc<Tracer>>) -> Rep {
        self.run(self.own_variant(), tracer)
    }

    fn twin(&mut self) -> Option<Twin> {
        let own = self.own_variant();
        let (variant, same_outputs) = match self.shape.mode {
            Mode::FreeRunning => (Variant { threads: 1, ..own }, true),
            Mode::Arbitrated => (
                Variant {
                    arbitrated: false,
                    ..own
                },
                false,
            ),
            Mode::Observed => (
                Variant {
                    observed: false,
                    ..own
                },
                true,
            ),
        };
        Some(Twin {
            rep: self.run(variant, None),
            same_outputs,
        })
    }

    fn layers(&mut self, inputs: &LayerInputs) -> LayerMetrics {
        let t = inputs.tracer;
        let first_twin = inputs
            .twins
            .first()
            .expect("every fleet workload has a twin");
        // Best decile against best decile, as for the end-to-end rate.
        let best_per_s = |reps: &[Rep]| -> f64 {
            percentile(
                &reps.iter().map(Rep::intervals_per_s).collect::<Vec<_>>(),
                90.0,
            )
        };
        let (own_per_s, twin_per_s) = (best_per_s(inputs.untraced), best_per_s(inputs.twins));
        let members = self.shape.members as f64;
        let traced_intervals: f64 = inputs.traced.iter().map(|r| r.intervals as f64).sum();
        let last = inputs.traced.last().expect("one traced repetition");

        // Worker time not spent inside a member's backend or policy (or
        // the arbiter): heaps, dispatch, barrier waits, result scatter.
        let capacity_ns = t.agg(FLEET_RUN).sum_ns as f64 * self.shape.threads as f64;
        let children_ns = (t.agg(FLEET_RUN).sum_ns - t.self_ns(FLEET_RUN)) as f64;
        let windows = t.agg(SIM_FLUID.poll).count as f64;
        let window_ns = (t.agg(SIM_FLUID.begin).sum_ns + t.agg(SIM_FLUID.poll).sum_ns) as f64;
        let mut out = vec![
            ("sim.fluid.window_ns", window_ns / windows),
            (
                "sim.fluid.evaluate_ns",
                probe_fluid_evaluate(&self.templates),
            ),
            (
                "control.fleet.self_ns_per_interval",
                (capacity_ns - children_ns) / traced_intervals,
            ),
            (
                "control.fleet.setup_us_per_member",
                median(
                    &inputs
                        .untraced
                        .iter()
                        .flat_map(|r| r.build_s.iter().copied())
                        .collect::<Vec<_>>(),
                ) / members
                    * 1e6,
            ),
            // The first fleet this process built and ran: later ones
            // reuse memory the allocator already holds.
            (
                "control.fleet.rss_kb_per_member",
                first_twin.scalar("rss_delta_kb") / members,
            ),
        ];
        match self.shape.mode {
            Mode::FreeRunning => out.push(("control.fleet.thread_speedup", own_per_s / twin_per_s)),
            Mode::Arbitrated => out.extend([
                (
                    "control.arbitration.arbitrate_us_per_round",
                    t.agg(crate::adapters::ARBITRATE).mean_ns() / 1e3,
                ),
                ("control.arbitration.rounds", last.scalar("arb_rounds")),
                ("control.arbitration.cuts", last.scalar("arb_cuts")),
                (
                    "control.arbitration.grant_ratio",
                    last.scalar("arb_grant_ratio"),
                ),
                (
                    "control.arbitration.barrier_overhead_pct",
                    100.0 * (1.0 - own_per_s / twin_per_s),
                ),
            ]),
            Mode::Observed => {
                let series = |name: &str| -> Vec<f64> {
                    inputs
                        .untraced
                        .iter()
                        .flat_map(|r| r.series.get(name).cloned().unwrap_or_default())
                        .collect()
                };
                out.extend([
                    (
                        "telemetry.hub.overhead_pct",
                        100.0 * (1.0 - own_per_s / twin_per_s),
                    ),
                    ("telemetry.registry.render_ms", last.scalar("render_ms")),
                    (
                        "telemetry.registry.exposition_bytes",
                        last.scalar("exposition_bytes"),
                    ),
                    ("telemetry.events.emit_ns", probe_event_emit(&self.scratch)),
                    (
                        "telemetry.events.bytes_per_interval",
                        last.scalar("event_bytes_per_interval"),
                    ),
                    ("telemetry.server.scrapes", series("scrape_ms").len() as f64),
                    (
                        "telemetry.server.scrape_ms_p50",
                        median(&series("scrape_ms")),
                    ),
                    (
                        "telemetry.server.scrape_ms_p95",
                        percentile(&series("scrape_ms"), 95.0),
                    ),
                    ("telemetry.lint.lint_ms", median(&series("lint_ms"))),
                    (
                        "telemetry.lint.torn_scrapes",
                        inputs
                            .untraced
                            .iter()
                            .map(|r| r.scalar("torn_scrapes"))
                            .sum(),
                    ),
                    (
                        "bench.scraper_late_ms_p95",
                        percentile(&series("scraper_late_ms"), 95.0),
                    ),
                ]);
            }
        }
        out
    }
}
