//! `bench perf` — the repo's performance harness.
//!
//! Runs calibrated micro benches (simulator event throughput, histogram
//! insert, MMPP stepping — timed through the vendored criterion shim's
//! [`criterion::time_per_iter`]) and macro benches (full simulated
//! windows on the three paper applications, concurrent-fleet
//! throughput in app-intervals/sec, plus three representative
//! scenarios end-to-end), then writes a machine-readable
//! `BENCH_<label>.json` capturing events/sec, wall-ms per scenario and
//! peak RSS. Every PR appends its own `BENCH_*.json` so the repo keeps
//! a performance trajectory, and CI compares each run against the
//! committed baseline (`benchmarks/BENCH_baseline.json`) to gate >25%
//! macro regressions.
//!
//! `--only a,b` restricts a run to the named macro entries for fast
//! targeted captures (micro benches are skipped and the baseline
//! check covers only the selected names). The telemetry overhead pair
//! (`fleet_fluid_64x40` vs `fleet_fluid_64x40_telemetry`) is gated by
//! [`TELEMETRY_OVERHEAD_TOLERANCE`] whenever both entries ran.
//!
//! The JSON schema (`pema-perf/1`):
//!
//! ```json
//! {
//!   "schema": "pema-perf/1",
//!   "label": "pr2",
//!   "smoke": false,
//!   "toolchain": "rustc 1.95.0 (…)",
//!   "peak_rss_bytes": 123456789,
//!   "micro": [ {"name": "…", "ns_per_op": 12.3, "ops_per_sec": 8.1e7} ],
//!   "macro": [ {"name": "sim_sockshop", "wall_ms": 810.0,
//!               "events": 1234567, "events_per_sec": 1.5e6} ],
//!   "baseline": {
//!     "source": "benchmarks/BENCH_baseline.json",
//!     "entries": [ {"name": "sim_sockshop", "baseline_events_per_sec": 7.0e5,
//!                   "current_events_per_sec": 1.5e6, "ratio": 2.14} ],
//!     "events_per_sec_speedup_geomean": 2.1
//!   }
//! }
//! ```
//!
//! Scenario macro entries have `events: 0` (the executor does not
//! observe engine internals); their gate metric is `wall_ms`. Sim
//! macro entries gate on `events_per_sec`.

use crate::exec::{run_suite, SuiteConfig};
use pema::pema_telemetry::json;
use pema_metrics::LatencyHistogram;
use pema_sim::{ClusterSim, SimTime};
use pema_workload::{MmppWorkload, Workload};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Relative slowdown tolerated before the baseline check fails (25%).
pub const REGRESSION_TOLERANCE: f64 = 1.25;

/// Tolerance for sim (events/sec) entries when the *current* run is
/// smoke scale but the baseline was captured at full scale: the 6×
/// shorter windows amortize fixed setup cost worse, so the tight gate
/// would misfire on structural bias rather than real regressions.
pub const REGRESSION_TOLERANCE_SMOKE: f64 = 1.5;

/// The three scenarios the macro suite runs end-to-end (one figure,
/// one ablation, the table) — the same trio the golden-snapshot test
/// pins byte-for-byte.
pub const MACRO_SCENARIOS: [&str; 3] = ["fig06", "ablation_ma", "table1"];

/// Telemetry-overhead gate: the instrumented twin of
/// `fleet_fluid_64x40` (registry hub attached) must stay within 5% of
/// the bare fleet's best-of-reps wall time. The fluid fleet is the
/// worst case for instrumentation — window evaluation is microseconds,
/// so per-interval bookkeeping is the whole bill and any telemetry
/// cost lands straight on the metric. Only the always-on registry path
/// (counters, gauges, phase histograms) is gated; the optional JSONL
/// event log formats a line per interval and is priced separately by
/// the ungated `fleet_fluid_64x40_events` entry.
pub const TELEMETRY_OVERHEAD_TOLERANCE: f64 = 1.05;

/// Relaxed telemetry gate under smoke: best-of-2 wall times on a
/// shared CI runner carry scheduling noise comparable to the 5% bar,
/// so the smoke gate only catches order-of-magnitude mistakes (a lock
/// on the hot path, an fsync per event), not single-percent drift.
pub const TELEMETRY_OVERHEAD_TOLERANCE_SMOKE: f64 = 1.15;

/// Configuration for one `bench perf` run.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Shrinks simulated windows and repetitions to CI scale.
    pub smoke: bool,
    /// Label embedded in the report and the default output name
    /// (`benchmarks/BENCH_<label>.json`). Defaults to `local`; PR
    /// perf captures use `--label prN`.
    pub label: String,
    /// Output path override.
    pub out: Option<PathBuf>,
    /// Baseline JSON to compare against; regressions beyond
    /// [`REGRESSION_TOLERANCE`] make the run fail.
    pub check: Option<PathBuf>,
    /// Restrict the run to the named macro entries (`--only a,b`).
    /// Micro benches are skipped entirely when set, and the baseline
    /// missing-entry check only covers the selected names — the point
    /// is a fast targeted capture (CI scrapes one fleet entry, a perf
    /// investigation re-runs one regressed bench), not a full report.
    pub only: Option<Vec<String>>,
}

impl Default for PerfConfig {
    fn default() -> Self {
        Self {
            smoke: false,
            // Neutral default: committed PR captures pass an explicit
            // `--label prN` so ad-hoc local runs never clobber them.
            label: "local".to_string(),
            out: None,
            check: None,
            only: None,
        }
    }
}

/// One calibrated micro-bench result.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Bench name (stable across PRs; the JSON join key).
    pub name: String,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second (1e9 / ns_per_op).
    pub ops_per_sec: f64,
}

/// One macro-bench result (a full simulated window or a scenario run).
#[derive(Debug, Clone)]
pub struct MacroResult {
    /// Bench name (stable across PRs; the JSON join key).
    pub name: String,
    /// Best-of-reps wall time, milliseconds.
    pub wall_ms: f64,
    /// Scheduled events resolved ([`ClusterSim::events_processed`]:
    /// dispatched plus deadlines superseded in place — identical
    /// across engine generations for the same workload). 0 for
    /// scenario runs, which only observe wall time.
    pub events: u64,
    /// Events per wall second (0 when `events` is 0).
    pub events_per_sec: f64,
    /// Peak process RSS (VmHWM) sampled right after the bench, bytes.
    /// Tracked for the fleet entries, whose memory footprint is part
    /// of the scaling story; 0 when not tracked. VmHWM is process-wide
    /// and monotone, so this is an upper bound including everything
    /// the harness ran before this entry.
    pub rss_bytes: u64,
}

/// Everything one `bench perf` run measured.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Label this report was captured under (e.g. `pr2`).
    pub label: String,
    /// Whether the run used smoke-scale windows.
    pub smoke: bool,
    /// `rustc --version` of the building toolchain, when known.
    pub toolchain: String,
    /// Logical cores available to the capturing host (0 when unknown).
    /// Thread-scaling entries (`fleet_threads_scaling_t*`) are only
    /// meaningful relative to this.
    pub cores: usize,
    /// Peak resident set size of the harness process, bytes (0 when
    /// the platform does not expose it).
    pub peak_rss_bytes: u64,
    /// Machine-speed calibration: xoshiro256++ steps per second on one
    /// core (pure integer work — toolchain- and libm-independent).
    /// The baseline check scales its expectations by the calibration
    /// ratio so the gate compares engines, not host machines.
    pub calibration_ops_per_sec: f64,
    /// Micro-bench results.
    pub micro: Vec<MicroResult>,
    /// Macro-bench results.
    pub macro_: Vec<MacroResult>,
    /// Comparison against the committed baseline, when one was given.
    pub baseline: Option<BaselineComparison>,
}

/// Result of joining a run against a committed baseline JSON.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Path the baseline was read from.
    pub source: String,
    /// Per-entry `(name, baseline metric, current metric, ratio)`;
    /// ratio > 1 means the current run is faster.
    pub entries: Vec<(String, f64, f64, f64)>,
    /// Geometric mean of the events/sec ratios over sim macro entries.
    pub events_per_sec_speedup_geomean: f64,
    /// Macro entries that regressed beyond [`REGRESSION_TOLERANCE`].
    pub regressions: Vec<String>,
}

/// Runs the full perf suite, writes `BENCH_<label>.json`, and — when a
/// baseline was given — fails with a descriptive error if any macro
/// bench regressed more than 25%.
pub fn run_perf(cfg: &PerfConfig) -> io::Result<PerfReport> {
    let only = cfg.only.as_deref();
    let calibration = calibration_ops_per_sec();
    println!("perf: machine calibration {calibration:.3e} xoshiro steps/sec");
    let micro = if only.is_some() {
        println!("perf: micro benches skipped (--only selects macro entries)");
        Vec::new()
    } else {
        println!("perf: micro benches (calibrated via criterion shim)");
        run_micro(cfg.smoke)
    };
    println!("perf: macro benches (paper apps, full windows)");
    let mut macro_ = run_macro_sims(cfg.smoke, only);
    println!("perf: macro benches (concurrent fleet throughput)");
    macro_.extend(run_macro_fleet(cfg.smoke, only));
    println!("perf: macro benches (scenario suite end-to-end, smoke scale)");
    macro_.extend(run_macro_scenarios(only)?);

    let baseline = match &cfg.check {
        Some(path) => Some(compare_against(
            path,
            &macro_,
            cfg.smoke,
            calibration,
            only,
        )?),
        None => None,
    };

    let report = PerfReport {
        label: cfg.label.clone(),
        smoke: cfg.smoke,
        toolchain: toolchain_version(),
        cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        peak_rss_bytes: peak_rss_bytes(),
        calibration_ops_per_sec: calibration,
        micro,
        macro_,
        baseline,
    };

    // Reports live next to the committed baseline by default so the
    // perf trajectory accumulates in one place.
    let out = cfg
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("benchmarks/BENCH_{}.json", report.label)));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| io::Error::new(e.kind(), format!("create {}: {e}", parent.display())))?;
    }
    std::fs::write(&out, report.to_json())
        .map_err(|e| io::Error::new(e.kind(), format!("write {}: {e}", out.display())))?;
    println!("perf: wrote {}", out.display());

    check_telemetry_overhead(&report.macro_, report.smoke)?;

    if let Some(b) = &report.baseline {
        for (name, base, cur, ratio) in &b.entries {
            println!("perf: {name}: baseline {base:.1}, current {cur:.1} (ratio {ratio:.2}x)");
        }
        if b.events_per_sec_speedup_geomean > 0.0 {
            println!(
                "perf: events/sec speedup vs baseline (geomean): {:.2}x",
                b.events_per_sec_speedup_geomean
            );
        }
        if !b.regressions.is_empty() {
            return Err(io::Error::other(format!(
                "perf regression >{:.0}% vs {}: {}",
                (REGRESSION_TOLERANCE - 1.0) * 100.0,
                b.source,
                b.regressions.join("; ")
            )));
        }
    }
    Ok(report)
}

// ---- micro benches ----

fn run_micro(smoke: bool) -> Vec<MicroResult> {
    let samples = if smoke { 10 } else { 30 };
    let mut out = Vec::new();

    // Engine event throughput on the smallest app: isolates per-event
    // cost (queue ops, advance/deadline integration) from app size.
    {
        let app = pema_apps::toy_chain();
        let window_s = if smoke { 2.0 } else { 10.0 };
        let (events, wall_s) = sim_once_best(&app, 200.0, window_s, if smoke { 2 } else { 3 });
        let ns = wall_s * 1e9 / events.max(1) as f64;
        out.push(micro("engine_event_toy_chain", ns));
    }

    // Histogram insert: one record per completed simulated request.
    {
        let mut h = LatencyHistogram::new();
        let mut x = 0.001f64;
        let d = criterion::time_per_iter(samples, || {
            x = (x * 1.37).rem_euclid(1.0).max(1e-5);
            h.record(x);
        });
        out.push(micro("histogram_record", d.as_nanos() as f64));
        criterion::black_box(h.count());
    }

    // MMPP stepping: workload evaluation on the arrival path of every
    // time-varying experiment.
    {
        let w = MmppWorkload::calm_burst(500.0, 1500.0, 120.0, 20.0, 3600.0, 7);
        let mut t = 0.0f64;
        let mut acc = 0.0f64;
        let d = criterion::time_per_iter(samples, || {
            t = (t + 0.97) % 3600.0;
            acc += w.rps_at(t);
        });
        criterion::black_box(acc);
        out.push(micro("mmpp_step", d.as_nanos() as f64));
    }

    out
}

fn micro(name: &str, ns_per_op: f64) -> MicroResult {
    let ns = ns_per_op.max(1e-3);
    MicroResult {
        name: name.to_string(),
        ns_per_op: ns,
        ops_per_sec: 1e9 / ns,
    }
}

// ---- macro benches ----

/// Runs one full measured window and returns `(events, best wall s)`
/// over `reps` repetitions (deterministic: every rep dispatches the
/// same event count, so only the wall time varies).
fn sim_once_best(app: &pema_sim::AppSpec, rps: f64, window_s: f64, reps: usize) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut sim = ClusterSim::new(app, 1);
        sim.run_window(rps, 1.0, window_s);
        sim.run_until(SimTime::from_secs(sim.now().as_secs() + 0.5));
        let wall = t0.elapsed().as_secs_f64();
        events = sim.events_processed();
        best = best.min(wall);
    }
    (events, best)
}

fn run_macro_sims(smoke: bool, only: Option<&[String]>) -> Vec<MacroResult> {
    let selected = |name: &str| only.is_none_or(|o| o.iter().any(|n| n == name));
    let window_s = if smoke { 5.0 } else { 30.0 };
    // Best-of-reps wall time: simulation runs are deterministic, so
    // repetitions only shake off host scheduling noise (the CI runner
    // and the capture box are both shared machines).
    let reps = if smoke { 3 } else { 5 };
    // The paper apps at their mid and peak workloads, plus the
    // cluster-scale synthetic app (120 services / 8 nodes) pointing at
    // the ROADMAP's production-scale direction. Names embed the offered
    // load: they are the join keys against the committed baseline.
    [
        ("sim_sockshop_550", pema_apps::sockshop(), 550.0),
        ("sim_sockshop_950", pema_apps::sockshop(), 950.0),
        (
            "sim_hotelreservation_500",
            pema_apps::hotelreservation(),
            500.0,
        ),
        (
            "sim_hotelreservation_700",
            pema_apps::hotelreservation(),
            700.0,
        ),
        ("sim_trainticket_225", pema_apps::trainticket(), 225.0),
        ("sim_trainticket_300", pema_apps::trainticket(), 300.0),
        ("sim_cluster_scale_480", pema_apps::cluster_scale(24), 480.0),
        ("sim_cluster_scale_960", pema_apps::cluster_scale(24), 960.0),
    ]
    .into_iter()
    .filter(|(name, _, _)| selected(name))
    .map(|(name, app, rps)| {
        let (events, wall_s) = sim_once_best(&app, rps, window_s, reps);
        let r = MacroResult {
            name: name.to_string(),
            wall_ms: wall_s * 1e3,
            events,
            events_per_sec: events as f64 / wall_s.max(1e-9),
            rss_bytes: 0,
        };
        println!(
            "perf: {name}: {} events in {:.1} ms ({:.0} events/sec)",
            r.events, r.wall_ms, r.events_per_sec
        );
        r
    })
    .collect()
}

/// Builds the standard mixed fluid fleet the macro benches drive:
/// the three paper apps cycled, PEMA/RULE/HOLD policies cycled,
/// sharded across `threads` workers (0 = auto).
fn build_fluid_fleet(apps: usize, iters: usize, threads: usize) -> pema::prelude::Fleet {
    use pema::prelude::*;
    let templates = pema_apps::fleet_mix();
    let mut fleet = Fleet::new().threads(threads);
    for i in 0..apps {
        let (app, rps) = &templates[i % templates.len()];
        let builder = Experiment::builder()
            .app(app)
            .backend(UseFluid)
            .config(HarnessConfig::with_seed(0xF1E + i as u64))
            .rps(*rps)
            .iters(iters);
        fleet = match i % 3 {
            0 => {
                let mut p = PemaParams::defaults(app.slo_ms);
                p.seed = i as u64;
                fleet.member(builder.policy(Pema(p)))
            }
            1 => fleet.member(builder.policy(Rule)),
            _ => fleet
                .member(builder.policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))),
        };
    }
    fleet
}

/// Fleet-throughput macro benches: one process multiplexing many
/// control loops through `pema_control::Fleet` (the non-blocking
/// backend seam). Best-of-reps like the sim benches:
///
/// * `fleet_fluid_64x40` — 64 mixed-policy fluid-backed apps × 40
///   intervals: pure scheduler + control-plane cost (the fluid window
///   evaluation is microseconds, so heap churn, poll dispatch, and
///   per-interval bookkeeping dominate). The metric is app-intervals
///   per second, reported through `events`/`events_per_sec`. Timed
///   including fleet construction (the historical definition — this
///   name is a baseline join key).
/// * `fleet_fluid_64x40_telemetry` — the same fleet with a
///   [`pema_telemetry`] registry hub attached: the always-on
///   self-observation bill on the control plane's worst case. Gated
///   against the bare twin by [`TELEMETRY_OVERHEAD_TOLERANCE`].
/// * `fleet_fluid_64x40_events` — hub *plus* the optional JSONL event
///   sink: adds one formatted line per committed interval, so its
///   delta vs the telemetry twin is the per-event logging cost.
///   Reported for the trajectory but not gated — event logging is
///   opt-in precisely because formatting cannot be free.
/// * `fleet_arbitration_64x40` — the same fleet under a tight
///   fair-share CPU budget: every window rendezvouses at the
///   arbitration barrier, so the delta vs `fleet_fluid_64x40` is the
///   collect/grant overhead.
/// * `fleet_sim_8x4` — 8 DES-backed toy-chain apps × 4 intervals with
///   2 s early checks: the multi-poll interleaving path, where windows
///   advance one check slice per poll. Also construction-inclusive.
/// * `fleet_fluid_10k` — the ROADMAP scale point: 10,000 fluid-backed
///   apps × 10 intervals in one process, sharded across all cores
///   (`threads = auto`). Times `Fleet::run` only (construction
///   excluded), and records peak RSS so the per-app memory footprint
///   is tracked alongside throughput.
/// * `fleet_threads_scaling_t{1,2,4,8}` — a fixed 2048-app × 10-interval
///   fleet at pinned thread counts: the sharding speedup curve.
///   App-intervals/sec at t8 vs t1 is the headline scaling number
///   (meaningful only on multi-core hosts; single-core machines
///   record a flat curve, which is itself the honest datum).
fn run_macro_fleet(smoke: bool, only: Option<&[String]>) -> Vec<MacroResult> {
    use pema::prelude::*;

    let selected = |name: &str| only.is_none_or(|o| o.iter().any(|n| n == name));
    let reps = if smoke { 2 } else { 5 };
    let mut out = Vec::new();

    // Construction-inclusive timing: the historical definition for the
    // baseline-joined entries.
    let fluid = |apps: usize, iters: usize| -> (u64, f64) {
        let mut best = f64::INFINITY;
        let mut intervals = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let result = build_fluid_fleet(apps, iters, 1).run();
            let wall = t0.elapsed().as_secs_f64();
            intervals = result.total_intervals() as u64;
            best = best.min(wall);
        }
        (intervals, best)
    };

    // Run-only timing for the scaling entries: construction is
    // single-threaded by design, so including it would understate the
    // scheduler speedup being measured.
    let fluid_run_only = |apps: usize, iters: usize, threads: usize, reps: usize| -> (u64, f64) {
        let mut best = f64::INFINITY;
        let mut intervals = 0u64;
        for _ in 0..reps {
            let fleet = build_fluid_fleet(apps, iters, threads);
            let t0 = Instant::now();
            let result = fleet.run();
            let wall = t0.elapsed().as_secs_f64();
            intervals = result.total_intervals() as u64;
            best = best.min(wall);
        }
        (intervals, best)
    };

    let sim = |apps: usize, iters: usize| -> (u64, f64) {
        let app = pema_apps::toy_chain();
        let mut best = f64::INFINITY;
        let mut intervals = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut fleet = Fleet::new();
            for i in 0..apps {
                let mut p = PemaParams::defaults(app.slo_ms);
                p.seed = i as u64;
                fleet = fleet.member(
                    Experiment::builder()
                        .app(&app)
                        .policy(Pema(p))
                        .config(HarnessConfig {
                            interval_s: 8.0,
                            warmup_s: 1.0,
                            seed: 0x51 + i as u64,
                        })
                        .early_check(2.0)
                        .rps(150.0)
                        .iters(iters),
                );
            }
            let result = fleet.run();
            let wall = t0.elapsed().as_secs_f64();
            intervals = result.total_intervals() as u64;
            best = best.min(wall);
        }
        (intervals, best)
    };

    // RSS is sampled immediately after each bench completes, so an
    // entry's footprint reflects the fleets run up to and including it
    // (VmHWM is monotone — later entries can only read equal or
    // higher).
    let mut push = |name: String, (intervals, wall_s): (u64, f64)| {
        let r = MacroResult {
            name,
            wall_ms: wall_s * 1e3,
            events: intervals,
            events_per_sec: intervals as f64 / wall_s.max(1e-9),
            rss_bytes: peak_rss_bytes(),
        };
        println!(
            "perf: {}: {} app-intervals in {:.1} ms ({:.0} intervals/sec, peak rss {:.0} MiB)",
            r.name,
            r.events,
            r.wall_ms,
            r.events_per_sec,
            r.rss_bytes as f64 / (1024.0 * 1024.0)
        );
        out.push(r);
    };

    // The instrumented twins: the identical fleet with a telemetry hub
    // attached (and optionally the JSONL event sink on top). Hub/sink
    // construction stays outside the timer (not per-interval cost);
    // the fleet build stays inside, matching the bare entry's
    // historical definition so the walls are comparable.
    let fluid_telemetry = |apps: usize, iters: usize, with_events: bool| -> (u64, f64) {
        let mut best = f64::INFINITY;
        let mut intervals = 0u64;
        for _ in 0..reps {
            let hub = Telemetry::new();
            let (sink, _buf) = EventSink::memory();
            let t0 = Instant::now();
            let mut fleet = build_fluid_fleet(apps, iters, 1).telemetry(&hub);
            if with_events {
                fleet = fleet.events(sink);
            }
            let result = fleet.run();
            let wall = t0.elapsed().as_secs_f64();
            intervals = result.total_intervals() as u64;
            best = best.min(wall);
        }
        (intervals, best)
    };

    // Same workloads in smoke and full mode (both finish quickly) —
    // the names encode the parameters and are the baseline join keys,
    // so the measured workload must never depend on the mode; only
    // `reps` shrinks under smoke.
    //
    // The bare 64x40 entry also runs whenever only its telemetry twin
    // was selected: the overhead gate needs both sides of the pair.
    if selected("fleet_fluid_64x40") || selected("fleet_fluid_64x40_telemetry") {
        push("fleet_fluid_64x40".to_string(), fluid(64, 40));
    }
    if selected("fleet_fluid_64x40_telemetry") {
        push(
            "fleet_fluid_64x40_telemetry".to_string(),
            fluid_telemetry(64, 40, false),
        );
    }
    if selected("fleet_fluid_64x40_events") {
        push(
            "fleet_fluid_64x40_events".to_string(),
            fluid_telemetry(64, 40, true),
        );
    }

    // The arbitrated twin of fleet_fluid_64x40: the same fleet under a
    // deliberately tight fair-share budget, so every window crosses
    // the two-phase collect/grant barrier and most rounds squeeze.
    // The delta against fleet_fluid_64x40 is the arbitration cost.
    let fluid_arbitrated = |apps: usize, iters: usize| -> (u64, f64) {
        let mut best = f64::INFINITY;
        let mut intervals = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let result = build_fluid_fleet(apps, iters, 1)
                .arbitration(apps as f64 * 5.0, WeightedFairShare::new())
                .run();
            let wall = t0.elapsed().as_secs_f64();
            intervals = result.total_intervals() as u64;
            best = best.min(wall);
        }
        (intervals, best)
    };
    if selected("fleet_arbitration_64x40") {
        push(
            "fleet_arbitration_64x40".to_string(),
            fluid_arbitrated(64, 40),
        );
    }
    if selected("fleet_sim_8x4") {
        push("fleet_sim_8x4".to_string(), sim(8, 4));
    }

    // The sharding axes: bigger fleets, fewer reps. fleet_fluid_10k
    // runs before the scaling curve so its RSS sample is the clean
    // 10k-app footprint.
    let scale_reps = if smoke { 1 } else { 2 };
    if selected("fleet_fluid_10k") {
        push(
            "fleet_fluid_10k".to_string(),
            fluid_run_only(10_000, 10, 0, scale_reps),
        );
    }
    for threads in [1usize, 2, 4, 8] {
        let name = format!("fleet_threads_scaling_t{threads}");
        if selected(&name) {
            push(name, fluid_run_only(2048, 10, threads, scale_reps));
        }
    }
    out
}

/// Enforces [`TELEMETRY_OVERHEAD_TOLERANCE`] over the
/// `fleet_fluid_64x40` / `fleet_fluid_64x40_telemetry` pair. A no-op
/// when either entry is absent (e.g. filtered out by `--only`).
fn check_telemetry_overhead(macro_: &[MacroResult], smoke: bool) -> io::Result<()> {
    let find = |n: &str| macro_.iter().find(|m| m.name == n);
    let (Some(bare), Some(twin)) = (
        find("fleet_fluid_64x40"),
        find("fleet_fluid_64x40_telemetry"),
    ) else {
        return Ok(());
    };
    let tolerance = if smoke {
        TELEMETRY_OVERHEAD_TOLERANCE_SMOKE
    } else {
        TELEMETRY_OVERHEAD_TOLERANCE
    };
    let ratio = twin.wall_ms / bare.wall_ms.max(1e-9);
    println!(
        "perf: telemetry overhead on fleet_fluid_64x40: {:+.1}% (gate +{:.0}%)",
        (ratio - 1.0) * 100.0,
        (tolerance - 1.0) * 100.0
    );
    if ratio > tolerance {
        return Err(io::Error::other(format!(
            "telemetry overhead gate: instrumented fleet_fluid_64x40 took {:.1} ms vs {:.1} ms bare \
             ({:.1}% > {:.0}% tolerance)",
            twin.wall_ms,
            bare.wall_ms,
            (ratio - 1.0) * 100.0,
            (tolerance - 1.0) * 100.0
        )));
    }
    Ok(())
}

/// Runs the three representative scenarios end-to-end through the real
/// executor (always smoke scale — the point is harness + engine + IO
/// cost per scenario, comparable across PRs and CI machines).
fn run_macro_scenarios(only: Option<&[String]>) -> io::Result<Vec<MacroResult>> {
    // `--only` names the report entries (`scenario_<id>`), so strip the
    // prefix back to scenario ids before handing the list to the
    // executor. No selected scenarios → skip the executor entirely.
    let wanted: Vec<String> = MACRO_SCENARIOS
        .iter()
        .filter(|s| only.is_none_or(|o| o.iter().any(|n| n == &format!("scenario_{s}"))))
        .map(|s| s.to_string())
        .collect();
    if wanted.is_empty() {
        return Ok(Vec::new());
    }
    let results_dir = crate::ctx::default_results_dir().join("perf-scenarios");
    let cfg = SuiteConfig {
        jobs: 1,
        only: Some(wanted),
        smoke: true,
        force: true,
        results_dir: Some(results_dir),
        ..SuiteConfig::default()
    };
    let reports = run_suite(&cfg)?;
    let mut out = Vec::new();
    for r in &reports {
        if !r.ok() {
            return Err(io::Error::other(format!(
                "macro scenario {} failed: {:?}",
                r.id, r.outcome
            )));
        }
        out.push(MacroResult {
            name: format!("scenario_{}", r.id),
            wall_ms: r.wall.as_secs_f64() * 1e3,
            events: 0,
            events_per_sec: 0.0,
            rss_bytes: 0,
        });
    }
    Ok(out)
}

// ---- baseline comparison ----

fn compare_against(
    path: &Path,
    current: &[MacroResult],
    smoke: bool,
    calibration: f64,
    only: Option<&[String]>,
) -> io::Result<BaselineComparison> {
    // Under `--only`, unselected baseline entries were deliberately not
    // run — skipping them is the contract, not a regression.
    let selected = |name: &str| only.is_none_or(|o| o.iter().any(|n| n == name));
    // Smoke runs use 5 s windows against a 30 s-window baseline, so
    // fixed setup cost (app construction, warmup) weighs several times
    // more per event than in the baseline capture. Widen the sim-entry
    // tolerance accordingly — scenario wall entries are always smoke
    // scale on both sides and keep the tight gate.
    let sim_tolerance = if smoke {
        REGRESSION_TOLERANCE_SMOKE
    } else {
        REGRESSION_TOLERANCE
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("read baseline {}: {e}", path.display())))?;
    let json = json::parse(&text)
        .map_err(|e| io::Error::other(format!("parse baseline {}: {e}", path.display())))?;
    let entries = json
        .get("macro")
        .and_then(|m| m.as_array())
        .ok_or_else(|| {
            io::Error::other(format!("baseline {} has no macro array", path.display()))
        })?;

    // Machine normalization: when the baseline recorded its own
    // calibration score, scale expectations by the host-speed ratio so
    // a slower CI runner is not mistaken for an engine regression (and
    // a faster one cannot hide a real regression). Clamped so a
    // nonsense calibration cannot neuter the gate.
    let base_cal = json
        .get("calibration_ops_per_sec")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let speed_ratio = if base_cal > 0.0 && calibration > 0.0 {
        (calibration / base_cal).clamp(0.25, 4.0)
    } else {
        1.0
    };

    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    let mut log_sum = 0.0f64;
    let mut log_n = 0usize;
    for e in entries {
        let name = e.get("name").and_then(|v| v.as_str()).unwrap_or_default();
        if !selected(name) {
            continue;
        }
        let Some(cur) = current.iter().find(|c| c.name == name) else {
            regressions.push(format!("{name}: missing from current run"));
            continue;
        };
        let base_eps = e
            .get("events_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let base_wall = e.get("wall_ms").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if base_eps > 0.0 {
            // Throughput entry: regression = events/sec dropped beyond
            // tolerance, after host-speed normalization.
            let ratio = cur.events_per_sec / base_eps;
            rows.push((name.to_string(), base_eps, cur.events_per_sec, ratio));
            log_sum += ratio.max(1e-12).ln();
            log_n += 1;
            if ratio / speed_ratio < 1.0 / sim_tolerance {
                regressions.push(format!(
                    "{name}: {:.0} events/sec vs baseline {:.0} ({:.2}x, host speed {:.2}x)",
                    cur.events_per_sec, base_eps, ratio, speed_ratio
                ));
            }
        } else if base_wall > 0.0 {
            // Wall-time entry: regression = wall time grew beyond
            // tolerance, after host-speed normalization.
            let ratio = base_wall / cur.wall_ms.max(1e-9);
            rows.push((name.to_string(), base_wall, cur.wall_ms, ratio));
            if cur.wall_ms * speed_ratio > base_wall * REGRESSION_TOLERANCE {
                regressions.push(format!(
                    "{name}: {:.1} ms vs baseline {:.1} ms (host speed {:.2}x)",
                    cur.wall_ms, base_wall, speed_ratio
                ));
            }
        }
    }
    Ok(BaselineComparison {
        source: path.display().to_string(),
        entries: rows,
        events_per_sec_speedup_geomean: if log_n > 0 {
            (log_sum / log_n as f64).exp()
        } else {
            0.0
        },
        regressions,
    })
}

// ---- environment probes ----

/// Single-core machine-speed score: xoshiro256++ steps per second.
/// Pure integer work — independent of libm, FP hardware, and the
/// allocator — so it tracks the host's general single-thread speed
/// without tracking anything this repo optimizes.
pub fn calibration_ops_per_sec() -> f64 {
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    const STEPS: u64 = 40_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut rng = SmallRng::seed_from_u64(0xCA1);
        let mut acc = 0u64;
        let t0 = Instant::now();
        for _ in 0..STEPS {
            acc = acc.wrapping_add(rng.next_u64());
        }
        let dt = t0.elapsed().as_secs_f64();
        criterion::black_box(acc);
        best = best.min(dt);
    }
    STEPS as f64 / best.max(1e-9)
}

fn toolchain_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak RSS (VmHWM) of this process in bytes, read from
/// `/proc/self/status`. Linux-only — procfs exists nowhere else.
#[cfg(target_os = "linux")]
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0, |kb| kb * 1024)
}

/// Non-Linux fallback: there is no `/proc/self/status`, so peak RSS is
/// reported as 0 — the documented "not tracked" sentinel. Downstream
/// consumers already treat 0 this way: the JSON emitter omits zero
/// `rss_bytes` fields and the baseline gate never compares RSS.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_bytes() -> u64 {
    0
}

/// Extracts the `VmHWM:` (peak resident set) value, in kB, from a
/// `/proc/self/status` dump. Split out of [`peak_rss_bytes`] so the
/// parsing is unit-testable on every platform, including the ones
/// where the procfs read itself is compiled out.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

// ---- JSON emission ----

impl PerfReport {
    /// Serializes the report to the `pema-perf/1` JSON schema.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"pema-perf/1\",");
        let _ = writeln!(s, "  \"label\": {},", json::quote(&self.label));
        let _ = writeln!(s, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(s, "  \"toolchain\": {},", json::quote(&self.toolchain));
        let _ = writeln!(s, "  \"cores\": {},", self.cores);
        let _ = writeln!(s, "  \"peak_rss_bytes\": {},", self.peak_rss_bytes);
        let _ = writeln!(
            s,
            "  \"calibration_ops_per_sec\": {:.1},",
            self.calibration_ops_per_sec
        );
        s.push_str("  \"micro\": [\n");
        for (i, m) in self.micro.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"ns_per_op\": {:.3}, \"ops_per_sec\": {:.1}}}{}",
                json::quote(&m.name),
                m.ns_per_op,
                m.ops_per_sec,
                if i + 1 < self.micro.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"macro\": [\n");
        for (i, m) in self.macro_.iter().enumerate() {
            // rss_bytes is additive (absent ⇔ 0) so older readers and
            // baselines parse entries with or without it.
            let rss = if m.rss_bytes > 0 {
                format!(", \"rss_bytes\": {}", m.rss_bytes)
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}{rss}}}{}",
                json::quote(&m.name),
                m.wall_ms,
                m.events,
                m.events_per_sec,
                if i + 1 < self.macro_.len() { "," } else { "" }
            );
        }
        if let Some(b) = &self.baseline {
            s.push_str("  ],\n");
            s.push_str("  \"baseline\": {\n");
            let _ = writeln!(s, "    \"source\": {},", json::quote(&b.source));
            s.push_str("    \"entries\": [\n");
            for (i, (name, base, cur, ratio)) in b.entries.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "      {{\"name\": {}, \"baseline\": {:.1}, \"current\": {:.1}, \"ratio\": {:.3}}}{}",
                    json::quote(name),
                    base,
                    cur,
                    ratio,
                    if i + 1 < b.entries.len() { "," } else { "" }
                );
            }
            s.push_str("    ],\n");
            let _ = writeln!(
                s,
                "    \"events_per_sec_speedup_geomean\": {:.3}",
                b.events_per_sec_speedup_geomean
            );
            s.push_str("  }\n");
        } else {
            s.push_str("  ]\n");
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_of_emitted_report() {
        let report = PerfReport {
            label: "unit".to_string(),
            smoke: true,
            toolchain: "rustc x".to_string(),
            cores: 4,
            peak_rss_bytes: 42,
            calibration_ops_per_sec: 1e9,
            micro: vec![MicroResult {
                name: "m".to_string(),
                ns_per_op: 12.5,
                ops_per_sec: 8e7,
            }],
            macro_: vec![MacroResult {
                name: "sim_x".to_string(),
                wall_ms: 100.0,
                events: 5000,
                events_per_sec: 50_000.0,
                rss_bytes: 7_000_000,
            }],
            baseline: None,
        };
        let parsed = json::parse(&report.to_json()).expect("emitted JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("pema-perf/1")
        );
        let m = parsed.get("macro").and_then(|v| v.as_array()).unwrap();
        assert_eq!(m[0].get("events").and_then(|v| v.as_f64()), Some(5000.0));
    }

    #[test]
    fn baseline_check_flags_regressions() {
        let dir = std::env::temp_dir().join("pema-perf-baseline-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("base.json");
        std::fs::write(
            &path,
            r#"{"macro": [
                {"name": "sim_x", "wall_ms": 100.0, "events": 10, "events_per_sec": 1000.0},
                {"name": "scenario_y", "wall_ms": 50.0, "events": 0, "events_per_sec": 0.0}
            ]}"#,
        )
        .unwrap();
        let current = vec![
            MacroResult {
                name: "sim_x".to_string(),
                wall_ms: 100.0,
                events: 10,
                events_per_sec: 500.0, // halved throughput → regression
                rss_bytes: 0,
            },
            MacroResult {
                name: "scenario_y".to_string(),
                wall_ms: 40.0, // faster → fine
                events: 0,
                events_per_sec: 0.0,
                rss_bytes: 0,
            },
        ];
        let cmp = compare_against(&path, &current, false, 0.0, None).unwrap();
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("sim_x"));

        let improved = vec![
            MacroResult {
                name: "sim_x".to_string(),
                wall_ms: 50.0,
                events: 10,
                events_per_sec: 2000.0,
                rss_bytes: 0,
            },
            MacroResult {
                name: "scenario_y".to_string(),
                wall_ms: 49.0,
                events: 0,
                events_per_sec: 0.0,
                rss_bytes: 0,
            },
        ];
        let cmp = compare_against(&path, &improved, false, 0.0, None).unwrap();
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert!((cmp.events_per_sec_speedup_geomean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn missing_macro_entry_is_a_regression() {
        let dir = std::env::temp_dir().join("pema-perf-baseline-missing");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("base.json");
        std::fs::write(
            &path,
            r#"{"macro": [{"name": "sim_gone", "wall_ms": 1.0, "events": 1, "events_per_sec": 10.0}]}"#,
        )
        .unwrap();
        let cmp = compare_against(&path, &[], false, 0.0, None).unwrap();
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("sim_gone"));
    }

    #[test]
    fn only_filter_restricts_baseline_to_selected_entries() {
        // Baseline knows two entries; the current run selected one via
        // --only and deliberately skipped the other. The skipped entry
        // must be neither a "missing" regression nor a comparison row.
        let dir = std::env::temp_dir().join("pema-perf-baseline-only");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("base.json");
        std::fs::write(
            &path,
            r#"{"macro": [
                {"name": "sim_kept", "wall_ms": 10.0, "events": 10, "events_per_sec": 1000.0},
                {"name": "sim_skipped", "wall_ms": 10.0, "events": 10, "events_per_sec": 1000.0}
            ]}"#,
        )
        .unwrap();
        let current = vec![MacroResult {
            name: "sim_kept".to_string(),
            wall_ms: 10.0,
            events: 10,
            events_per_sec: 1000.0,
            rss_bytes: 0,
        }];
        let only = vec!["sim_kept".to_string()];
        let cmp = compare_against(&path, &current, false, 0.0, Some(&only)).unwrap();
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert_eq!(cmp.entries.len(), 1);
        assert_eq!(cmp.entries[0].0, "sim_kept");

        // Without the filter the skipped entry is a hard regression —
        // the only-filter is the sole thing relaxing the check.
        let cmp = compare_against(&path, &current, false, 0.0, None).unwrap();
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("sim_skipped"));
    }

    #[test]
    fn telemetry_overhead_gate_trips_beyond_tolerance() {
        let entry = |name: &str, wall_ms: f64| MacroResult {
            name: name.to_string(),
            wall_ms,
            events: 2560,
            events_per_sec: 2560.0 / wall_ms * 1e3,
            rss_bytes: 0,
        };
        // Within 5%: passes.
        let ok = vec![
            entry("fleet_fluid_64x40", 100.0),
            entry("fleet_fluid_64x40_telemetry", 104.0),
        ];
        assert!(check_telemetry_overhead(&ok, false).is_ok());
        // 10% over: trips the full gate but clears the smoke gate.
        let slow = vec![
            entry("fleet_fluid_64x40", 100.0),
            entry("fleet_fluid_64x40_telemetry", 110.0),
        ];
        assert!(check_telemetry_overhead(&slow, false).is_err());
        assert!(check_telemetry_overhead(&slow, true).is_ok());
        // Pair incomplete (e.g. --only filtered one side): no gate.
        assert!(check_telemetry_overhead(&slow[..1], false).is_ok());
    }

    #[test]
    fn vm_hwm_parses_from_a_proc_status_dump() {
        let status = "Name:\tbench\nVmPeak:\t  200104 kB\nVmHWM:\t   5124 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5124));
        // No VmHWM line (the documented non-procfs shape) and a
        // malformed value both degrade to "not tracked".
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\nVmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
