//! The parallel deterministic executor.
//!
//! Scenarios are independent by construction — every side effect flows
//! through their [`ExperimentCtx`] (own RNG streams, own CSV files,
//! shared-but-keyed OPTM cache) — so the executor is a plain work
//! queue over `std::thread::scope` workers. Determinism holds by
//! design: a scenario's outputs depend only on its id and the mode,
//! never on worker count or scheduling, so `--jobs 1` and `--jobs N`
//! produce byte-identical CSVs.
//!
//! Each scenario's human-readable output is buffered in its context
//! and printed as one block on completion, so parallel runs never
//! interleave lines.

use crate::ctx::{default_results_dir, ExperimentCtx};
use crate::optm::OptmCache;
use crate::registry::{registry, Scenario};
use pema::prelude::*;
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which [`ClusterBackend`] closed-loop
/// scenario runs are driven against (the `--backend` flag). The DES
/// default is authoritative — goldens and paper numbers come from it;
/// the alternatives exist for instant suite iteration (`fluid`) and
/// for replaying recorded history (`trace:<path>`).
///
/// The selection reaches the scenarios whose registry row says
/// `backend_matrix: true`; the context of any other row (e.g.
/// `cluster_scale`'s explicit fluid sweep, `trace_replay`'s DES
/// recording) is built on the DES whatever the flag says.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendSel {
    /// The discrete-event simulator (default, full fidelity).
    #[default]
    Sim,
    /// The analytic fluid model — orders of magnitude faster,
    /// approximate numbers.
    Fluid,
    /// Replay a recorded trace (cycling when the scenario outruns it).
    /// The trace's app must match the scenario's.
    Trace(PathBuf),
}

impl BackendSel {
    /// Parses a `--backend` argument: `sim`, `fluid`, or
    /// `trace:<path>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sim" => Ok(Self::Sim),
            "fluid" => Ok(Self::Fluid),
            _ => match s.strip_prefix("trace:") {
                Some(path) if !path.is_empty() => Ok(Self::Trace(PathBuf::from(path))),
                _ => Err(format!(
                    "unknown backend '{s}' (expected sim, fluid, or trace:<path>)"
                )),
            },
        }
    }

    /// Short label for log lines.
    pub fn label(&self) -> String {
        match self {
            Self::Sim => "sim".to_string(),
            Self::Fluid => "fluid".to_string(),
            Self::Trace(p) => format!("trace:{}", p.display()),
        }
    }

    /// Builds the selected backend for a closed-loop run of `app` —
    /// the one place a selection becomes a backend. The DES is seeded
    /// as [`UseSim`] seeds it ([`SimBackend::new`] with the harness
    /// seed), so `sim` is byte-identical to leaving the builder's
    /// backend slot alone. A `trace:<path>` tape is read leniently
    /// into `tape` on first use (a caller that builds several backends
    /// keeps the slot and reads the file once), replays cycling (runs
    /// often outlast it), and must have been recorded from `app`.
    pub fn backend(
        &self,
        app: &AppSpec,
        seed: u64,
        tape: &mut Option<Trace>,
    ) -> io::Result<Box<dyn ClusterBackend + Send>> {
        let path = match self {
            Self::Sim => return Ok(Box::new(SimBackend::new(app, seed))),
            Self::Fluid => return Ok(Box::new(FluidBackend::new(app))),
            Self::Trace(path) => path,
        };
        let trace = match tape {
            Some(trace) => trace,
            None => tape.insert(Trace::read_file(path, ReadMode::Lenient)?),
        };
        if trace.meta.app != app.name || trace.n_services() != app.n_services() {
            return Err(io::Error::other(format!(
                "trace {} was recorded from '{}' ({} services), scenario needs '{}' ({})",
                path.display(),
                trace.meta.app,
                trace.n_services(),
                app.name,
                app.n_services()
            )));
        }
        Ok(Box::new(TraceBackend::cycling(trace.clone())))
    }

    /// The one-shot counterpart of [`backend`](Self::backend): what
    /// measures a single fresh window of an arbitrary allocation. The
    /// fluid model under `fluid`, a single-replication DES window
    /// otherwise (a tape cannot answer for an allocation it never saw).
    pub(crate) fn evaluator(
        &self,
        app: &AppSpec,
        seed: u64,
        warmup_s: f64,
        window_s: f64,
    ) -> Box<dyn Evaluator> {
        match self {
            Self::Fluid => {
                let mut eval = FluidEvaluator::new(app);
                eval.window_s = window_s;
                Box::new(eval)
            }
            _ => Box::new(SimEvaluator::new(app, seed).with_window(warmup_s, window_s)),
        }
    }
}

/// Suite-run configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Worker threads (0 → one per available core).
    pub jobs: usize,
    /// Subset of scenario ids to run (None → the full registry).
    pub only: Option<Vec<String>>,
    /// Tiny-duration sanity mode.
    pub smoke: bool,
    /// Re-run scenarios whose output CSVs already exist.
    pub force: bool,
    /// Results directory (None → `$PEMA_RESULTS_DIR` or `./results`).
    pub results_dir: Option<PathBuf>,
    /// Backend the participating scenarios drive closed-loop runs
    /// against (DES by default).
    pub backend: BackendSel,
    /// Worker threads fleet scenarios shard their members across
    /// (`--fleet-threads`; 0 → one per core). Output is byte-identical
    /// for every value.
    pub fleet_threads: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            jobs: 1,
            only: None,
            smoke: false,
            force: false,
            results_dir: None,
            backend: BackendSel::default(),
            fleet_threads: 1,
        }
    }
}

/// How one scenario ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Ran to completion.
    Completed,
    /// All output CSVs already existed (run without `--force`).
    Skipped,
    /// Returned an error or panicked.
    Failed(String),
}

/// Per-scenario executor report.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's id.
    pub id: &'static str,
    /// How it ended.
    pub outcome: Outcome,
    /// Wall time spent (zero for skips).
    pub wall: Duration,
}

impl ScenarioReport {
    /// True unless the scenario failed.
    pub fn ok(&self) -> bool {
        !matches!(self.outcome, Outcome::Failed(_))
    }
}

/// Resolves `cfg.only` against the registry, preserving suite order.
/// Unknown ids are an error (listing the known ones).
fn resolve(cfg: &SuiteConfig) -> io::Result<Vec<&'static Scenario>> {
    let all = registry();
    let Some(only) = &cfg.only else {
        return Ok(all.iter().collect());
    };
    for id in only {
        if !all.iter().any(|s| s.id == id) {
            return Err(io::Error::other(format!(
                "unknown scenario '{id}' (known: {})",
                all.iter().map(|s| s.id).collect::<Vec<_>>().join(", ")
            )));
        }
    }
    Ok(all
        .iter()
        .filter(|s| only.iter().any(|id| id == s.id))
        .collect())
}

/// Runs the selected scenarios across `cfg.jobs` workers and returns
/// one report per scenario (suite order). Scenario failures land in
/// the reports; only configuration errors (unknown ids) are `Err`.
pub fn run_suite(cfg: &SuiteConfig) -> io::Result<Vec<ScenarioReport>> {
    let selected = resolve(cfg)?;
    let results_dir = cfg.results_dir.clone().unwrap_or_else(default_results_dir);
    let optm = Arc::new(OptmCache::new(results_dir.clone(), cfg.smoke));
    let jobs = resolve_threads(cfg.jobs).min(selected.len().max(1));

    let queue: Mutex<VecDeque<&'static Scenario>> = Mutex::new(selected.iter().copied().collect());
    let reports: Mutex<Vec<ScenarioReport>> = Mutex::new(Vec::with_capacity(selected.len()));
    let stdout = Mutex::new(());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let Some(scenario) = queue.lock().expect("executor lock poisoned").pop_front()
                else {
                    return;
                };
                let report = run_one(scenario, cfg, &results_dir, &optm, &stdout);
                reports.lock().expect("executor lock poisoned").push(report);
            });
        }
    });

    // Workers finish out of order; restore suite order for reporting.
    let mut reports = reports.into_inner().expect("executor lock poisoned");
    reports.sort_by_key(|r| selected.iter().position(|s| s.id == r.id));
    Ok(reports)
}

fn run_one(
    scenario: &'static Scenario,
    cfg: &SuiteConfig,
    results_dir: &std::path::Path,
    optm: &Arc<OptmCache>,
    stdout: &Mutex<()>,
) -> ScenarioReport {
    let id = scenario.id;
    if !cfg.force
        && scenario
            .outputs
            .iter()
            .all(|name| results_dir.join(format!("{name}.csv")).exists())
    {
        let _guard = stdout.lock().expect("executor lock poisoned");
        println!("=== {id}: results exist, skipping (use --force) ===");
        return ScenarioReport {
            id,
            outcome: Outcome::Skipped,
            wall: Duration::ZERO,
        };
    }

    let mut ctx = ExperimentCtx::new(
        scenario,
        cfg.smoke,
        results_dir.to_path_buf(),
        Arc::clone(optm),
        cfg.backend.clone(),
        cfg.fleet_threads,
    );
    let t0 = Instant::now();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (scenario.run)(&mut ctx)));
    let wall = t0.elapsed();
    let outcome = match result {
        Ok(Ok(())) => Outcome::Completed,
        Ok(Err(e)) => Outcome::Failed(e.to_string()),
        Err(panic) => Outcome::Failed(panic_message(panic)),
    };

    let output = ctx.take_output();
    {
        let _guard = stdout.lock().expect("executor lock poisoned");
        match &outcome {
            Outcome::Completed => println!("=== {id} done in {wall:.2?} ==="),
            Outcome::Failed(e) => println!("=== {id} FAILED after {wall:.2?}: {e} ==="),
            Outcome::Skipped => unreachable!(),
        }
        if !output.is_empty() {
            print!("{output}");
        }
    }
    ScenarioReport { id, outcome, wall }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn unknown_id_is_a_config_error() {
        let cfg = SuiteConfig {
            only: Some(vec!["not-a-scenario".into()]),
            ..SuiteConfig::default()
        };
        let err = run_suite(&cfg).unwrap_err();
        assert!(err.to_string().contains("not-a-scenario"));
        assert!(err.to_string().contains("fig05"));
    }

    #[test]
    fn completed_scenarios_skip_without_force() {
        let dir = tmp("pema-exec-skip");
        let cfg = SuiteConfig {
            only: Some(vec!["fig06".into()]),
            smoke: true,
            force: true,
            results_dir: Some(dir.clone()),
            ..SuiteConfig::default()
        };
        let first = run_suite(&cfg).unwrap();
        assert!(matches!(first[0].outcome, Outcome::Completed), "{first:?}");
        let rerun = run_suite(&SuiteConfig {
            force: false,
            ..cfg
        })
        .unwrap();
        assert!(matches!(rerun[0].outcome, Outcome::Skipped), "{rerun:?}");
    }
}
