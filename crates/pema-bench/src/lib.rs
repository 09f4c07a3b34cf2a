//! # pema-bench — the experiment harness, and the `pema-cli` executable
//!
//! Every table and figure of the paper's evaluation (plus five
//! ablations and the beyond-paper fleet and scale studies) is a
//! registered [`Scenario`]: a row of the registry table pointing at a
//! module's `run(ctx)` function (median module: 76 lines, docs
//! included), and [`run_suite`] is the one way to run any subset of
//! them, in parallel. `pema-cli` (`src/bin/pema-cli.rs`, the
//! workspace's only executable — it lives here because this crate is
//! the one that links both the product and the registry) calls it
//! in-process:
//!
//! ```text
//! pema-cli list                       show every scenario
//! pema-cli all  [--jobs N] [--smoke] [--force]
//! pema-cli run  fig05 fig11 [--jobs N] [--smoke] [--force]
//! ```
//!
//! Runs are **deterministic regardless of parallelism**: each scenario
//! derives its RNG streams from its id, buffers its human output, and
//! shares the OPTM result cache through per-key locks with canonical
//! (round-tripped) values — so `--jobs 1` and `--jobs N` produce
//! byte-identical CSVs under `$PEMA_RESULTS_DIR` (default `results/`).
//!
//! | module | contents |
//! |---|---|
//! | [`registry`](mod@registry), [`scenarios`] | the scenario table and one module per figure, table or study |
//! | [`exec`], [`ctx`] | the parallel executor and everything a scenario needs to run |
//! | [`optm`] | the OPTM result cache the scenarios share: one search per `(app, rps)` |
//! | [`fleet`] | the fleet `pema-cli fleet`, `fleet_scale` and `fleet_contention` run, described once |
//! | [`dataset`], [`features`], [`logistic`], [`eval`] | Table 1's offline study: starve a service, harvest its five candidate signals, and score each subset by cross-validated logistic regression. It is calibration evidence for PEMA's choice of utilization + throttling, not part of the controller |
//!
//! Performance is not measured here: the repo's perf ledger is
//! `BENCHMARK.json` and the standalone harness under `benchmarks/e2e`.

pub mod ctx;
pub mod dataset;
pub mod eval;
pub mod exec;
pub mod features;
pub mod fleet;
pub mod logistic;
pub mod optm;
pub mod registry;
pub mod scenarios;

pub use ctx::{default_results_dir, paper_apps, ExperimentCtx};
pub use exec::{run_suite, BackendSel, Outcome, ScenarioReport, SuiteConfig};
pub use fleet::fleet_member;
pub use optm::{CachedOptimum, OptmCache};
pub use registry::{registry, Scenario};
