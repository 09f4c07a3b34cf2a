//! [`ExperimentCtx`] — everything a scenario needs to run, in one
//! place: buffered human output, CSV emission, the shared OPTM cache,
//! harness timing, a per-scenario deterministic RNG, and the three
//! pieces of the evaluation protocol every figure shares — a closed
//! loop on the selected backend ([`closed_loop`]), a one-shot window
//! measurement ([`measure`]) and the seed-replicated run fold
//! (`replicate`).
//!
//! [`closed_loop`]: ExperimentCtx::closed_loop
//! [`measure`]: ExperimentCtx::measure
//!
//! Scenarios never print or touch the filesystem directly; routing all
//! side effects through the context is what makes the parallel
//! executor deterministic (per-scenario seeds, no interleaved stdout)
//! and lets a `--smoke` run shrink every knob in one place.

use crate::exec::BackendSel;
use crate::optm::{CachedOptimum, OptmCache};
use crate::registry::Scenario;
use pema::pema_control::Unset;
use pema::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default results directory: `$PEMA_RESULTS_DIR` or `./results`.
/// Nothing is created until a scenario writes.
pub fn default_results_dir() -> PathBuf {
    std::env::var("PEMA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Stable 64-bit FNV-1a hash of a scenario id — the root of the
/// scenario's RNG stream. Depends only on the id, never on
/// registration order or executor scheduling.
pub(crate) fn seed_for(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Per-scenario execution context handed to [`Scenario::run`].
pub struct ExperimentCtx {
    id: &'static str,
    seed: u64,
    smoke: bool,
    results_dir: PathBuf,
    out: String,
    optm: Arc<OptmCache>,
    backend: BackendSel,
    fleet_threads: usize,
    /// Parsed once per context for `BackendSel::Trace` — scenarios
    /// build several backends per run and must not re-read the file
    /// each time.
    trace: RefCell<Option<Trace>>,
}

impl ExperimentCtx {
    /// The context of one registry row. `backend` is the suite's
    /// `--backend`; it reaches the scenario only if the row's
    /// `backend_matrix` says so — any other row runs on the DES.
    pub(crate) fn new(
        scenario: &Scenario,
        smoke: bool,
        results_dir: PathBuf,
        optm: Arc<OptmCache>,
        backend: BackendSel,
        fleet_threads: usize,
    ) -> Self {
        Self {
            id: scenario.id,
            seed: seed_for(scenario.id),
            smoke,
            results_dir,
            out: String::new(),
            optm,
            backend: if scenario.backend_matrix {
                backend
            } else {
                BackendSel::Sim
            },
            fleet_threads,
            trace: RefCell::new(None),
        }
    }

    /// The id of the scenario this context belongs to.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// True in `--smoke` mode: every duration/trial knob shrinks to a
    /// seconds-scale sanity run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The directory this scenario's CSVs land in.
    pub fn results_dir(&self) -> &Path {
        &self.results_dir
    }

    /// Worker threads fleet scenarios shard their members across
    /// (`--fleet-threads`; 0 = one per core, default 1). Output is
    /// byte-identical for every value — the knob exists so CI can prove
    /// it by diffing sharded runs against the single-threaded goldens.
    pub fn fleet_threads(&self) -> usize {
        self.fleet_threads
    }

    // ---- human output (buffered; the executor prints it whole) ----

    /// Appends one line to the scenario's buffered output.
    pub fn say(&mut self, line: impl AsRef<str>) {
        self.out.push_str(line.as_ref());
        self.out.push('\n');
    }

    /// Pretty-prints a fixed-width table into the buffered output.
    pub fn print_table(&mut self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for r in rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let _ = writeln!(self.out, "\n== {title} ==");
        let mut line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths.get(i).copied().unwrap_or(8));
            }
            let _ = writeln!(self.out, "{s}");
        };
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
        for r in rows {
            line(r);
        }
    }

    /// Takes the buffered output (executor-side).
    pub(crate) fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    // ---- CSV output ----

    /// Writes (and logs) `<results_dir>/<name>.csv`. Directory creation
    /// is race-safe (`create_dir_all`) so parallel scenarios can share
    /// a fresh results dir; failures name the offending path instead of
    /// panicking mid-suite.
    pub fn write_csv(&mut self, name: &str, header: &str, rows: &[String]) -> io::Result<()> {
        std::fs::create_dir_all(&self.results_dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("create results dir {}: {e}", self.results_dir.display()),
            )
        })?;
        let path = self.results_dir.join(format!("{name}.csv"));
        let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
        let _ = writeln!(out, "{header}");
        for r in rows {
            let _ = writeln!(out, "{r}");
        }
        std::fs::write(&path, &out)
            .map_err(|e| io::Error::new(e.kind(), format!("write {}: {e}", path.display())))?;
        self.say(format!("→ wrote {}", path.display()));
        Ok(())
    }

    // ---- deterministic randomness ----

    /// A deterministic RNG stream for this scenario. Streams depend
    /// only on `(scenario id, salt)` — never on scheduling — so
    /// `--jobs 1` and `--jobs N` runs produce identical CSVs.
    pub fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ salt.rotate_left(17))
    }

    // ---- experiment plumbing ----

    /// The standard harness configuration, shrunk in smoke mode.
    pub fn harness_cfg(&self, seed: u64) -> HarnessConfig {
        let mut cfg = HarnessConfig::with_seed(seed);
        if self.smoke {
            cfg.interval_s = 6.0;
            cfg.warmup_s = 1.0;
        }
        cfg
    }

    /// A closed-loop run of `app`, described up to its policy and
    /// load: the builder carries the app, [`harness_cfg`]`(cfg_seed)`
    /// and the context's backend (see [`BackendSel::backend`]; the DES
    /// is seeded with `cfg_seed`, as the builder's own default is).
    ///
    /// [`harness_cfg`]: Self::harness_cfg
    pub fn closed_loop(
        &self,
        app: &AppSpec,
        cfg_seed: u64,
    ) -> io::Result<ExperimentBuilder<Unset, Box<dyn ClusterBackend + Send>>> {
        let backend = self
            .backend
            .backend(app, cfg_seed, &mut self.trace.borrow_mut())?;
        Ok(Experiment::builder()
            .app(app)
            .config(self.harness_cfg(cfg_seed))
            .backend(backend))
    }

    /// Folds `reps` seed-replicated runs (shrunk in smoke mode) into
    /// their [`Replicates`]; `run(rep)` is replicate `rep`'s completed
    /// run and `settle` the tail length its settled total averages.
    pub(crate) fn replicate(
        &self,
        reps: usize,
        settle: usize,
        mut run: impl FnMut(u64) -> io::Result<RunResult>,
    ) -> io::Result<Replicates> {
        let mut folded = Replicates::default();
        for rep in 0..self.iters(reps) as u64 {
            folded.push(&run(rep)?, settle);
        }
        Ok(folded)
    }

    /// Scales an iteration/trial count for smoke mode (full count
    /// otherwise).
    pub fn iters(&self, full: usize) -> usize {
        if self.smoke {
            full.min(2)
        } else {
            full
        }
    }

    /// Scales a `(warmup_s, window_s)` pair for smoke mode.
    pub fn window(&self, warmup_s: f64, window_s: f64) -> (f64, f64) {
        if self.smoke {
            (warmup_s.min(1.0), window_s.min(5.0))
        } else {
            (warmup_s, window_s)
        }
    }

    /// Measures one fresh-cluster window of `alloc` at `rps` (fixed
    /// seed, common random numbers across calls): a [`SimEvaluator`]
    /// window on the DES — no request timeout, an infinitely patient
    /// load generator — or, under `--backend fluid`, the analytic
    /// model's (instant, approximate). A `trace:` selection keeps the
    /// DES here: an arbitrary one-shot allocation probe has no
    /// counterpart on a recorded tape.
    pub fn measure(&self, app: &AppSpec, alloc: &Allocation, rps: f64, seed: u64) -> WindowStats {
        let (warmup, window) = self.window(4.0, 20.0);
        self.backend
            .evaluator(app, seed, warmup, window)
            .evaluate(alloc, rps)
    }

    /// Returns the OPTM allocation for `(app, rps)` on the context's
    /// model, computing and caching it on first use. The cache is
    /// shared across concurrently running scenarios (one computation
    /// per key). A DES optimum is persisted to
    /// `<results_dir>/optm_cache.csv`; smoke mode and `--backend fluid`
    /// use a fast fluid-model search and never touch the disk cache.
    pub fn optimum_cached(&mut self, app: &AppSpec, rps: f64) -> io::Result<CachedOptimum> {
        let cache = Arc::clone(&self.optm);
        cache.optimum(app, rps, &self.backend, &mut self.out)
    }
}

/// The fold of a scenario's seed-replicated runs — the paper's "we
/// run PEMA several times … and show the average" (§5), said once.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Replicates {
    /// Runs folded in.
    pub runs: usize,
    /// Sum of the runs' settled totals, cores.
    pub total_sum: f64,
    /// Largest settled total of any run, cores.
    pub worst_total: f64,
    /// SLO-violating intervals across all runs.
    pub violations: usize,
    /// Intervals across all runs.
    pub intervals: usize,
    /// Time spent in violating intervals across all runs, seconds.
    pub violating_s: f64,
}

impl Replicates {
    /// Folds one completed run in, settled over its last `settle`
    /// intervals.
    fn push(&mut self, run: &RunResult, settle: usize) {
        let total = run.settled_total(settle);
        self.runs += 1;
        self.total_sum += total;
        self.worst_total = self.worst_total.max(total);
        self.violations += run.violations();
        self.intervals += run.log.len();
        self.violating_s += run.violating_time_s();
    }

    /// Mean settled total over the runs, cores.
    pub fn mean_total(&self) -> f64 {
        self.total_sum / self.runs as f64
    }

    /// Share of all intervals that violated the SLO, percent.
    pub fn violation_pct(&self) -> f64 {
        self.violations as f64 / self.intervals as f64 * 100.0
    }
}

/// `(app, Fig. 5 workloads, Fig. 15 workloads)` for the three paper
/// applications.
pub fn paper_apps() -> Vec<(AppSpec, [f64; 3], [f64; 3])> {
    vec![
        (
            pema_apps::trainticket(),
            pema_apps::trainticket::PAPER_WORKLOADS,
            pema_apps::trainticket::FIG15_WORKLOADS,
        ),
        (
            pema_apps::sockshop(),
            pema_apps::sockshop::PAPER_WORKLOADS,
            pema_apps::sockshop::FIG15_WORKLOADS,
        ),
        (
            pema_apps::hotelreservation(),
            pema_apps::hotelreservation::PAPER_WORKLOADS,
            pema_apps::hotelreservation::FIG15_WORKLOADS,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke context of an ad-hoc registry row, under `backend`.
    fn row_ctx(dir: &Path, backend_matrix: bool, backend: BackendSel) -> ExperimentCtx {
        let row = Scenario {
            id: "unit",
            about: "",
            outputs: &["unit"],
            backend_matrix,
            run: |_| Ok(()),
        };
        let optm = Arc::new(OptmCache::new(dir.to_path_buf(), true));
        ExperimentCtx::new(&row, true, dir.to_path_buf(), optm, backend, 1)
    }

    fn test_ctx(dir: &Path) -> ExperimentCtx {
        row_ctx(dir, false, BackendSel::default())
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-csv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = test_ctx(&dir);
        ctx.write_csv("unit", "a,b", &["1,2".to_string()]).unwrap();
        let content = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        assert!(ctx.take_output().contains("unit.csv"));
    }

    #[test]
    fn csv_failure_names_path() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-failpath");
        let _ = std::fs::remove_dir_all(&dir);
        // A *file* where the results dir should be makes create_dir_all
        // fail deterministically.
        std::fs::write(&dir, b"not a dir").unwrap();
        let mut ctx = test_ctx(&dir);
        let err = ctx.write_csv("x", "a", &[]).unwrap_err();
        assert!(
            err.to_string().contains("pema-bench-ctx-failpath"),
            "error should name the path: {err}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn rng_streams_depend_on_id_and_salt_only() {
        use rand::Rng;
        let dir = std::env::temp_dir().join("pema-bench-ctx-rng");
        let a = test_ctx(&dir);
        let b = test_ctx(&dir);
        let mut r1 = a.rng(42);
        let mut r2 = b.rng(42);
        assert_eq!(r1.gen::<f64>().to_bits(), r2.gen::<f64>().to_bits());
        let mut r3 = a.rng(43);
        assert_ne!(r1.gen::<f64>().to_bits(), r3.gen::<f64>().to_bits());
    }

    /// The row's flag is the switch: `--backend fluid` reaches a
    /// `true` row's loops and windows and never a `false` row's.
    #[test]
    fn backend_matrix_flag_decides_what_the_selection_reaches() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-switch");
        let app = pema_apps::toy_chain();
        let alloc = Allocation::new(app.generous_alloc.clone());
        let numbers = |ctx: &ExperimentCtx| {
            let hold = HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms);
            let run = ctx.closed_loop(&app, 7).unwrap().policy(hold);
            let looped: Vec<u64> = run
                .rps(150.0)
                .iters(2)
                .run()
                .log
                .iter()
                .map(|l| l.p95_ms.to_bits())
                .collect();
            (looped, ctx.measure(&app, &alloc, 150.0, 7).p95_ms.to_bits())
        };
        let des = numbers(&row_ctx(&dir, true, BackendSel::Sim));
        assert_eq!(numbers(&row_ctx(&dir, false, BackendSel::Fluid)), des);
        let fluid = numbers(&row_ctx(&dir, true, BackendSel::Fluid));
        assert_ne!(fluid.0, des.0, "closed_loop ignored the selection");
        assert_ne!(fluid.1, des.1, "measure ignored the selection");
        // And the DES a `false` row gets is the builder's own default.
        let default = Experiment::builder()
            .app(&app)
            .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
            .config(row_ctx(&dir, false, BackendSel::Sim).harness_cfg(7))
            .rps(150.0)
            .iters(2)
            .run();
        let default: Vec<u64> = default.log.iter().map(|l| l.p95_ms.to_bits()).collect();
        assert_eq!(des.0, default);
    }

    /// `Replicates` against a hand fold of two synthetic runs, one of
    /// them empty.
    #[test]
    fn replicates_fold_matches_a_hand_fold() {
        let interval = |total_cpu: f64, violated: bool, interval_s: f64| IterationLog {
            iter: 0,
            time_s: 0.0,
            rps: 100.0,
            total_cpu,
            p95_ms: 10.0,
            mean_ms: 5.0,
            violated,
            action: "hold".into(),
            alloc: vec![total_cpu],
            pema_id: 0,
            interval_s,
        };
        let run = |log: Vec<IterationLog>| RunResult {
            log,
            final_alloc: Allocation::new(vec![1.0]),
            slo_ms: 50.0,
        };
        let full = run(vec![
            interval(8.0, false, 40.0),
            interval(6.0, true, 12.5),
            interval(4.0, false, 40.0),
            interval(3.0, true, 40.0),
        ]);
        let mut folded = Replicates::default();
        folded.push(&full, 2);
        folded.push(&run(Vec::new()), 2);
        // Settled totals: (4 + 3) / 2 = 3.5, and 0 for the empty run.
        assert_eq!(
            folded,
            Replicates {
                runs: 2,
                total_sum: 3.5,
                worst_total: 3.5,
                violations: 2,
                intervals: 4,
                violating_s: 52.5,
            }
        );
        assert_eq!(folded.mean_total(), 1.75);
        assert_eq!(folded.violation_pct(), 50.0);

        // `replicate` is that fold over `iters(reps)` runs (2 in smoke).
        let ctx = test_ctx(&std::env::temp_dir().join("pema-bench-ctx-reps"));
        let mut seen = Vec::new();
        let via_ctx = ctx.replicate(5, 2, |rep| {
            seen.push(rep);
            Ok(if rep == 0 {
                full.clone()
            } else {
                run(Vec::new())
            })
        });
        assert_eq!(seen, [0, 1]);
        assert_eq!(via_ctx.unwrap(), folded);
    }

    #[test]
    fn smoke_shrinks_knobs() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-smoke");
        let ctx = test_ctx(&dir);
        assert_eq!(ctx.iters(70), 2);
        assert!(ctx.harness_cfg(1).interval_s < 10.0);
        assert!(ctx.window(4.0, 25.0).1 <= 5.0);
    }
}
