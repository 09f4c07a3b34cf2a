//! `live_wire` — the production wire path: `LiveBackend` over in-process
//! `FakeCluster`s on loopback, timed by a `FakeClock` (windows and
//! retry back-off jump, nothing sleeps). A repetition is six episodes
//! of 25 intervals — the three paper applications under PEMA and under
//! RULE — each starting from a fresh controller and an `apply` of the
//! generous allocation. 5 % of intervals carry one seeded one-shot
//! fault (`DropConnection`, `Http500`, `GarbageBody` in turn; never
//! `Delay`, which is a real sleep), injected just before the step so
//! that it hits the step's first scrape and is absorbed by one retry.
//!
//! A closed loop with one client: the control loop waits for every
//! reply, as in production. Each interval costs six `query_range` GETs
//! plus one PATCH per changed service, one TCP connection each.
//!
//! The loop is paced at one interval per [`PERIOD`]. Unpaced it opens
//! some 15 000 connections a second, each leaving a `TIME_WAIT` socket
//! for 60 s; the kernel keeps at most 65 536 of those and a cluster's
//! ephemeral port range holds 28 000, so within seconds the run would
//! measure the kernel's port search and overflow handling, in a state
//! left by whatever ran in the last minute (the same binary measured
//! 770 or 1 900 intervals/s depending on its predecessor). Throughput
//! counts the time the loop was busy, not the pauses.
//!
//! Client and fake servers are pinned to one core. A request is then
//! two context switches; across cores it is two wake-ups of a halted
//! virtual CPU, whose cost depends on where the scheduler last left the
//! threads (after a two-thread workload the same binary ran at 560
//! intervals/s, after itself at 1 200).
//!
//! Why it exists: the only workload where `live.*` and the small-body
//! side of `telemetry.json` do the work and the simulators do none, so
//! connection reuse, a merged HTTP stack or a faster JSON reader show
//! here and nowhere else; the median interval carries the happy path
//! and the 95th percentile the retry path.

use super::{derive_seed, LayerInputs, LayerMetrics, PolicyKind, Rep, SplitMix, Workload};
use crate::adapters::{
    TimedBackend, TimedPolicy, DECIDE_PEMA, DECIDE_RULE, LIVE_BACKEND, LOOP_STEP,
};
use crate::digest::Digest;
use crate::host;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use pema_control::{ClusterBackend, ControlLoop, HarnessConfig, Policy, RulePolicy, RunResult};
use pema_core::{PemaController, PemaParams};
use pema_live::http::Response;
use pema_live::prom::parse_matrix;
use pema_live::{
    FakeClock, FakeCluster, Fault, HttpClient, KubeClient, KubeConfigLite, LiveBackend, LiveConfig,
    PromClient,
};
use pema_sim::{Allocation, AppSpec};
use pema_telemetry::{json, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EPISODE_ITERS: usize = 25;
const FAULT_SHARE: f64 = 0.05;
/// One control interval per period: ≈ 500 connections a second, which
/// keeps the `TIME_WAIT` table at most half full.
const PERIOD: Duration = Duration::from_millis(15);
const POLICIES: [PolicyKind; 2] = [PolicyKind::Pema, PolicyKind::Rule];

struct Site {
    app: AppSpec,
    rps: f64,
    cluster: FakeCluster,
}

pub struct LiveWire {
    seed: u64,
    sites: Vec<Site>,
}

fn http() -> HttpClient {
    HttpClient {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(2),
    }
}

fn prom_client(cluster: &FakeCluster) -> PromClient {
    PromClient {
        endpoint: cluster.endpoint(),
        http: http(),
    }
}

fn kube_client(cluster: &FakeCluster) -> KubeClient {
    KubeClient {
        config: KubeConfigLite {
            server: cluster.endpoint(),
            token: None,
            namespace: "pema".into(),
        },
        http: http(),
    }
}

/// What the harness needs from a backend slot besides driving it: the
/// `LiveBackend` inside, with or without the timing adapter around it.
trait LiveSlot: ClusterBackend {
    fn live(&mut self) -> &mut LiveBackend;
}

impl LiveSlot for LiveBackend {
    fn live(&mut self) -> &mut LiveBackend {
        self
    }
}

impl LiveSlot for TimedBackend<LiveBackend> {
    fn live(&mut self) -> &mut LiveBackend {
        &mut self.inner
    }
}

/// One fault in `FAULT_SHARE` of the intervals, kinds in turn.
struct FaultSchedule {
    rng: SplitMix,
    injected: u64,
}

impl FaultSchedule {
    fn before_step(&mut self, cluster: &FakeCluster) {
        if self.rng.next_f64() < FAULT_SHARE {
            cluster.inject_fault(match self.injected % 3 {
                0 => Fault::DropConnection,
                1 => Fault::Http500,
                _ => Fault::GarbageBody,
            });
            self.injected += 1;
        }
    }
}

/// Starts control intervals on a fixed schedule, or at once when the
/// previous one overran.
struct Pace {
    next: Instant,
}

impl Pace {
    fn wait(&mut self) {
        if let Some(wait) = self.next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        self.next = Instant::now().max(self.next) + PERIOD;
    }
}

struct EpisodeOut<B> {
    backend: B,
    run: RunResult,
    step_ms: Vec<f64>,
}

/// Where and how one episode runs.
struct Episode<'a> {
    site: &'a Site,
    faults: &'a mut FaultSchedule,
    pace: &'a mut Pace,
    /// Numbers the episodes of a repetition (seeds, span ids).
    member: usize,
    tracer: Option<&'a Arc<Tracer>>,
}

/// Runs one episode on a wired loop and hands the backend back.
fn episode<P: Policy, B: LiveSlot>(mut control: ControlLoop<P, B>, ep: Episode) -> EpisodeOut<B> {
    let mut step_ms = Vec::with_capacity(EPISODE_ITERS);
    for k in 0..EPISODE_ITERS {
        ep.pace.wait();
        ep.faults.before_step(&ep.site.cluster);
        let _step = ep
            .tracer
            .map(|t| t.scope(LOOP_STEP, "", (ep.member as u64) << 32 | k as u64));
        let t0 = Instant::now();
        control.step_once(ep.site.rps);
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let log = control.log().to_vec();
    let slo_ms = control.policy.slo_ms();
    let backend = control.backend;
    EpisodeOut {
        run: RunResult {
            log,
            final_alloc: backend.allocation(),
            slo_ms,
        },
        backend,
        step_ms,
    }
}

/// Wires `policy` to `backend` — through the timing adapter when the
/// episode is traced — and runs the episode.
fn drive<P: Policy, B: LiveSlot>(
    backend: B,
    policy: P,
    decide: &'static str,
    ep: Episode,
) -> EpisodeOut<B> {
    let cfg = HarnessConfig::default();
    match ep.tracer {
        None => episode(ControlLoop::new(backend, policy, cfg), ep),
        Some(t) => episode(
            ControlLoop::new(
                backend,
                TimedPolicy::new(policy, decide, LOOP_STEP, ep.member, t),
                cfg,
            ),
            ep,
        ),
    }
}

impl LiveWire {
    pub fn prepare(seed: u64) -> Self {
        // Before the clusters start, so that their threads inherit it.
        host::pin_to_one_core();
        let sites = pema_apps::fleet_mix()
            .into_iter()
            .map(|(app, rps)| Site {
                cluster: FakeCluster::start(&app, rps),
                app,
                rps,
            })
            .collect();
        LiveWire { seed, sites }
    }

    fn fresh_backend(&self, s: usize, hub: &Telemetry) -> LiveBackend {
        let site = &self.sites[s];
        let cfg = LiveConfig {
            jitter_seed: derive_seed(self.seed, 50 + s as u64),
            ..LiveConfig::default()
        };
        let mut backend = LiveBackend::new(
            &site.app,
            prom_client(&site.cluster),
            kube_client(&site.cluster),
            Box::new(FakeClock::new()),
            cfg,
        );
        backend.set_telemetry(hub);
        backend
    }

    /// Requests the clusters have served and faults they have fired
    /// since they started.
    fn ledger(&self) -> (u64, u64) {
        let sum = |of: fn(&FakeCluster) -> u64| self.sites.iter().map(|s| of(&s.cluster)).sum();
        (
            sum(|c| c.requests_served()),
            sum(|c| c.fault_stats().total_faults()),
        )
    }

    fn run<B: LiveSlot>(
        &self,
        wrap: impl Fn(LiveBackend, usize) -> B,
        tracer: Option<&Arc<Tracer>>,
    ) -> Rep {
        let mut rep = Rep::default();
        let (served_before, fired_before) = self.ledger();
        // The product's own counters; they are how the client side of
        // the request ledger is read.
        let hub = Telemetry::new();
        let mut faults = FaultSchedule {
            rng: SplitMix(derive_seed(self.seed, 7)),
            injected: 0,
        };
        let mut digest = Digest::default();
        let mut step_ms = Vec::new();
        let mut errors = 0;
        let mut pace = Pace {
            next: Instant::now(),
        };
        let mut apply_s = 0.0;
        let cpu0 = host::cpu_seconds();
        let mut member = 0;
        let mut build_s = 0.0;
        for (s, site) in self.sites.iter().enumerate() {
            let t0 = Instant::now();
            let mut backend = wrap(self.fresh_backend(s, &hub), s);
            build_s += t0.elapsed().as_secs_f64();
            let generous = Allocation::new(site.app.generous_alloc.clone());
            for kind in POLICIES {
                // Straight on the backend, not through the adapter: the
                // reset belongs to no control interval's spans.
                let t0 = Instant::now();
                backend.live().apply(&generous);
                apply_s += t0.elapsed().as_secs_f64();
                let ep = Episode {
                    site,
                    faults: &mut faults,
                    pace: &mut pace,
                    member,
                    tracer,
                };
                let out = match kind {
                    PolicyKind::Pema => {
                        let mut params = PemaParams::defaults(site.app.slo_ms);
                        params.seed = derive_seed(self.seed, 100 + member as u64);
                        let policy = PemaController::new(params, site.app.generous_alloc.clone());
                        drive(backend, policy, DECIDE_PEMA, ep)
                    }
                    _ => drive(backend, RulePolicy::new(&site.app), DECIDE_RULE, ep),
                };
                backend = out.backend;
                rep.absorb(&mut digest, kind, s, &out.run);
                step_ms.extend(out.step_ms);
                member += 1;
            }
            // Leave the cluster as the next repetition's fresh backend
            // will assume it: at the generous allocation.
            backend.live().apply(&generous);
            errors += backend.live().take_errors().len();
            let (shadow, actual) = (backend.allocation(), site.cluster.allocation());
            let bits = |a: &Allocation| a.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&shadow) != bits(&actual) {
                rep.fail(
                    1,
                    format!(
                        "{}: the shadow allocation is not the cluster's",
                        site.app.name
                    ),
                );
            }
        }
        // The time the loop was busy: the pauses between intervals are
        // the schedule's, not the product's.
        rep.build_s.push(build_s);
        rep.wall_s = apply_s + step_ms.iter().sum::<f64>() / 1e3;
        rep.cpu_s = host::cpu_seconds() - cpu0;
        rep.digest = digest.value();

        if errors > 0 {
            rep.fail(
                errors as u64,
                format!("{errors} degraded windows or failed PATCHes (LiveBackend::errors)"),
            );
        }
        let counter = |name: &str, labels: &[(&str, &str)]| hub.counter(name, "", labels).value();
        let queries = counter("pema_live_queries_total", &[("target", "prom")]);
        let patches = counter("pema_live_patches_total", &[("target", "kube")]);
        let retries = counter("pema_live_retries_total", &[("target", "prom")]);
        let (served, fired) = self.ledger();
        let (served, fired) = (served - served_before, fired - fired_before);
        if (queries + patches) as u64 != served {
            rep.fail(
                1,
                format!(
                    "the client sent {} requests, the clusters served {served}",
                    queries + patches
                ),
            );
        }
        if retries as u64 != fired || fired != faults.injected {
            rep.fail(
                1,
                format!(
                    "{} faults injected, {fired} fired, {retries} retries",
                    faults.injected
                ),
            );
        }
        rep.scalars.insert("requests", queries + patches);
        rep.scalars.insert("patches", patches);
        rep.scalars.insert("retries", retries);
        rep.scalars.insert("degraded", errors as f64);
        rep.series.insert("step_ms", step_ms);
        rep
    }
}

/// µs per call, median of `calls`.
fn median_us(calls: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            call();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

impl Workload for LiveWire {
    fn warmup_reps(&self) -> usize {
        0
    }

    fn min_reps(&self) -> usize {
        3
    }

    fn rep(&mut self, tracer: Option<&Arc<Tracer>>) -> Rep {
        match tracer {
            None => self.run(|backend, _| backend, None),
            Some(t) => self.run(
                |backend, s| TimedBackend::new(backend, &LIVE_BACKEND, LOOP_STEP, s, t),
                tracer,
            ),
        }
    }

    fn layers(&mut self, inputs: &LayerInputs) -> LayerMetrics {
        let t = inputs.tracer;
        let last = inputs.traced.last().expect("one traced repetition");
        let step_ms: Vec<f64> = inputs
            .untraced
            .iter()
            .flat_map(|r| r.series["step_ms"].iter().copied())
            .collect();
        let windows = t.agg(LIVE_BACKEND.poll).count as f64;
        let measure_ns =
            (t.agg(LIVE_BACKEND.begin).sum_ns + t.agg(LIVE_BACKEND.poll).sum_ns) as f64;

        // Direct probes against the first site's running cluster.
        let site = &self.sites[0];
        let (prom, kube) = (prom_client(&site.cluster), kube_client(&site.cluster));
        let path = PromClient::range_path(
            &pema_trace::prom::cpu_usage_query("pema", 40.0),
            4.0,
            44.0,
            40.0,
        );
        let get = || -> Response {
            prom.http
                .request(&prom.endpoint, "GET", &path, &[], None)
                .expect("probe GET")
        };
        let request_us = median_us(300, || {
            std::hint::black_box(get());
        });
        let resp = get();
        let parse_matrix_us = median_us(2000, || {
            std::hint::black_box(parse_matrix(&resp).expect("probe matrix"));
        });
        let service = site.app.services[0].name.clone();
        let cores = site.cluster.allocation().get(0);
        let patch_us = median_us(300, || {
            kube.patch_cpu_limit(&service, cores).expect("probe PATCH");
        });
        const PARSES: usize = 4000;
        let t0 = Instant::now();
        for _ in 0..PARSES {
            std::hint::black_box(
                json::parse(std::hint::black_box(&resp.body)).expect("probe JSON"),
            );
        }
        let parse_mb_per_s = (PARSES * resp.body.len()) as f64 / 1e6 / t0.elapsed().as_secs_f64();

        vec![
            ("live.backend.measure_ms", measure_ns / windows / 1e6),
            (
                "live.backend.apply_ms",
                t.agg(LIVE_BACKEND.apply).mean_ns() / 1e6,
            ),
            ("live.http.requests", last.scalar("requests")),
            ("live.kube.patches", last.scalar("patches")),
            ("live.backend.retries", last.scalar("retries")),
            ("live.backend.degraded_windows", last.scalar("degraded")),
            ("live.http.request_us", request_us),
            ("live.prom.parse_matrix_us", parse_matrix_us),
            ("live.kube.patch_us", patch_us),
            ("live.interval_samples", step_ms.len() as f64),
            ("live.interval_ms_p50", median(&step_ms)),
            ("live.interval_ms_p95", percentile(&step_ms, 95.0)),
            ("telemetry.json.parse_mb_per_s", parse_mb_per_s),
        ]
    }
}
