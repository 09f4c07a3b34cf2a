//! The six workloads and what one repetition of any of them reports.
//!
//! A workload is prepared once (`prepare`: apps, tapes, clusters — the
//! inputs, made from the seed), then repeated. A repetition first
//! builds what the product consumes by running it (loops, fleets,
//! backends: `build_s`), then runs the timed body (`wall_s`, `cpu_s`),
//! then digests and checks the outputs outside the timed region.

pub mod des_closed_loop;
pub mod fleet;
pub mod live_wire;
pub mod trace_replay;

use crate::digest::Digest;
use crate::spans::Tracer;
use pema_control::{ClusterBackend, ControlLoop, Policy, RunResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 6] = [
    "des_closed_loop",
    "fleet_fluid_10k",
    "fleet_arbitrated",
    "live_wire",
    "trace_replay",
    "fleet_observed",
];

/// Which policy a loop runs; fleets and episodes cycle through these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    Pema,
    Rule,
    Hold,
}

impl PolicyKind {
    pub const CYCLE: [PolicyKind; 3] = [PolicyKind::Pema, PolicyKind::Rule, PolicyKind::Hold];
}

/// SplitMix64: the one generator every seeded input is drawn from.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of stream `stream` under run seed `seed` (member seeds,
/// policy seeds, fault schedules: one stream each).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// The controller-quality tally of one repetition: what PEMA's cheapest
/// SLO-holding allocation costs against RULE's settled one, and how
/// often PEMA held the SLO. Totals are averaged per application first,
/// so an uneven policy split across applications cannot tilt the ratio.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    pema_intervals: u64,
    pema_violations: u64,
    /// Per application, under PEMA: Σ best feasible total, Σ settled
    /// total, runs.
    pema: BTreeMap<usize, (f64, f64, u64)>,
    /// Per application, under RULE: Σ settled total, runs.
    rule: BTreeMap<usize, (f64, u64)>,
}

/// Intervals at the end of a run whose mean allocation counts as the
/// policy's settled allocation.
const SETTLED_TAIL: usize = 5;

impl Quality {
    pub fn add(&mut self, kind: PolicyKind, app: usize, run: &RunResult) {
        let settled = run.settled_total(SETTLED_TAIL);
        match kind {
            PolicyKind::Pema => {
                self.pema_intervals += run.log.len() as u64;
                self.pema_violations += run.violations() as u64;
                let cell = self.pema.entry(app).or_default();
                // A run that never held the SLO found nothing cheaper
                // than what it started from.
                cell.0 += run.best_feasible_total().unwrap_or(run.log[0].total_cpu);
                cell.1 += settled;
                cell.2 += 1;
            }
            PolicyKind::Rule => {
                let cell = self.rule.entry(app).or_default();
                cell.0 += settled;
                cell.1 += 1;
            }
            PolicyKind::Hold => {}
        }
    }

    fn rule_settled(&self) -> f64 {
        self.rule.values().map(|(sum, n)| sum / *n as f64).sum()
    }

    /// 100 × Σ PEMA best feasible total ÷ Σ RULE settled total, each
    /// sum over the per-application means: the cheapest allocation PEMA
    /// found that held the SLO, against what RULE settles at. PEMA's
    /// allocation at the moment a run ends is a poor estimate of what
    /// it achieves — an exploration step may be in flight — and varies
    /// between seeds several times more than this does.
    pub fn pema_best_cpu_vs_rule_pct(&self) -> f64 {
        let best: f64 = self.pema.values().map(|(b, _, n)| b / *n as f64).sum();
        100.0 * best / self.rule_settled()
    }

    /// 100 × (1 − Σ PEMA settled ÷ Σ RULE settled): the saving as the
    /// paper states it, from the allocations in force when the runs end.
    pub fn cpu_saved_vs_rule_pct(&self) -> f64 {
        let settled: f64 = self.pema.values().map(|(_, s, n)| s / *n as f64).sum();
        100.0 * (1.0 - settled / self.rule_settled())
    }

    /// Share of PEMA intervals that met the SLO, %.
    pub fn slo_met_pct(&self) -> f64 {
        100.0 * (1.0 - self.pema_violations as f64 / self.pema_intervals as f64)
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Building what the body runs (loops, fleets, backends), seconds.
    /// A workload with a single repetition builds several times over
    /// and reports every sample.
    pub build_s: Vec<f64>,
    /// The timed body, wall seconds.
    pub wall_s: f64,
    /// CPU seconds (all threads) the process used during the body.
    pub cpu_s: f64,
    /// Control intervals the body completed.
    pub intervals: u64,
    /// Digest of every logged interval.
    pub digest: u64,
    pub quality: Quality,
    /// Operations that failed (non-numeric stats, degraded windows,
    /// failed PATCHes or scrapes; a failed output check counts as
    /// one), and what they were.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Workload-specific scalars and sample series, by name.
    pub scalars: BTreeMap<&'static str, f64>,
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

impl Rep {
    pub fn intervals_per_s(&self) -> f64 {
        self.intervals as f64 / self.wall_s
    }

    pub fn fail(&mut self, count: u64, what: String) {
        self.failed += count;
        self.failures.push(what);
    }

    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Digests a finished run, tallies its quality, and counts every
    /// interval whose statistics are not numbers as a failed operation.
    pub fn absorb(&mut self, digest: &mut Digest, kind: PolicyKind, app: usize, run: &RunResult) {
        digest.run(run);
        self.quality.add(kind, app, run);
        self.intervals += run.log.len() as u64;
        let bad = run
            .log
            .iter()
            .filter(|l| l.p95_ms.is_nan() || l.mean_ms.is_nan() || !l.total_cpu.is_finite())
            .count();
        if bad > 0 {
            self.fail(
                bad as u64,
                format!("{bad} control intervals logged non-numeric statistics"),
            );
        }
    }
}

/// Runs a set-up step over and over — at least five times, then until
/// `SETUP_BUDGET_S` has gone by or a hundred runs are done — and
/// returns the last result with every run's duration. A set-up step
/// that takes microseconds needs the many samples to read steadily; one
/// that takes a tenth of a second gets its five. At most one result is
/// alive at a time (clusters hold ports, tapes hold memory).
pub fn repeat_setup<T>(mut step: impl FnMut() -> T) -> (T, Vec<f64>) {
    const SETUP_BUDGET_S: f64 = 0.05;
    let mut samples = Vec::new();
    let mut last = None;
    let t00 = Instant::now();
    while samples.len() < 5 || (samples.len() < 100 && t00.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(step());
        samples.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("five runs at least"), samples)
}

/// What one single-loop leg produced: its run and a count read off its
/// backend when it finished (simulator events, replayed windows).
pub struct LegOut {
    pub run: RunResult,
    pub count: u64,
}

/// A wired control loop, ready to run.
pub type Leg = Box<dyn FnOnce() -> LegOut>;

/// Wraps a wired loop as a closure that steps it `iters` times at
/// constant load, so that legs of different policy and backend types
/// can be built first and run later as one list. With a tracer, every
/// step runs inside a [`LOOP_STEP`](crate::adapters::LOOP_STEP) span.
pub fn leg<P: Policy + 'static, B: ClusterBackend + 'static>(
    mut control: ControlLoop<P, B>,
    rps: f64,
    iters: usize,
    count_of: fn(&B) -> u64,
    tracer: Option<Arc<Tracer>>,
    member: usize,
) -> Leg {
    Box::new(move || {
        for k in 0..iters {
            let _step = tracer.as_ref().map(|t| {
                t.scope(
                    crate::adapters::LOOP_STEP,
                    "",
                    (member as u64) << 32 | k as u64,
                )
            });
            control.step_once(rps);
        }
        let count = count_of(&control.backend);
        LegOut {
            run: control.into_result(),
            count,
        }
    })
}

/// A repetition of a workload's twin configuration (one thread instead
/// of two, no telemetry, no arbitration), run once before the timed
/// repetitions; it doubles as a warm-up.
pub struct Twin {
    pub rep: Rep,
    /// The twin must produce the workload's exact outputs.
    pub same_outputs: bool,
}

/// Everything the traced run hands a workload to compute its layers'
/// metrics from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Arc<Tracer>,
    pub untraced: &'a [Rep],
    pub traced: &'a [Rep],
    /// Repetitions of the twin configuration, the first of them the
    /// first thing this process ran; empty when there is no twin.
    pub twins: &'a [Rep],
}

pub type LayerMetrics = Vec<(&'static str, f64)>;

pub trait Workload {
    /// Untimed repetitions before the timed ones.
    fn warmup_reps(&self) -> usize;

    /// Timed repetitions a run needs at least, whatever its length.
    fn min_reps(&self) -> usize;

    /// One repetition; with a tracer, through the timing adapters.
    fn rep(&mut self, tracer: Option<&Arc<Tracer>>) -> Rep;

    fn twin(&mut self) -> Option<Twin> {
        None
    }

    /// Output checks made once, after the last repetition.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// This workload's per-layer metrics (traced run only).
    fn layers(&mut self, inputs: &LayerInputs) -> LayerMetrics;
}

/// Prepares the named workload from the seed. `scratch` is a directory
/// of the run's own for files the workload writes.
pub fn prepare(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "des_closed_loop" => Box::new(des_closed_loop::DesClosedLoop::prepare(seed)),
        "fleet_fluid_10k" => Box::new(fleet::FleetWorkload::prepare(
            fleet::FLUID_10K,
            seed,
            scratch,
        )),
        "fleet_arbitrated" => Box::new(fleet::FleetWorkload::prepare(
            fleet::ARBITRATED,
            seed,
            scratch,
        )),
        "fleet_observed" => Box::new(fleet::FleetWorkload::prepare(
            fleet::OBSERVED,
            seed,
            scratch,
        )),
        "live_wire" => Box::new(live_wire::LiveWire::prepare(seed)),
        "trace_replay" => Box::new(trace_replay::TraceReplay::prepare(seed)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pema_control::IterationLog;
    use pema_sim::Allocation;

    fn run(totals: &[f64], violated: &[bool]) -> RunResult {
        let log = totals
            .iter()
            .zip(violated)
            .enumerate()
            .map(|(iter, (total, violated))| IterationLog {
                iter,
                time_s: 0.0,
                rps: 1.0,
                total_cpu: *total,
                p95_ms: 1.0,
                mean_ms: 1.0,
                violated: *violated,
                action: String::new(),
                alloc: vec![*total],
                pema_id: 0,
                interval_s: 1.0,
            })
            .collect();
        RunResult {
            log,
            final_alloc: Allocation::new(vec![1.0]),
            slo_ms: 1.0,
        }
    }

    #[test]
    fn quality_averages_per_application_before_summing() {
        let mut q = Quality::default();
        // App 0: two PEMA runs, best feasible 4 and 6 (mean 5), ending
        // at 8 and 6 (mean 7); RULE settles at 10.
        q.add(
            PolicyKind::Pema,
            0,
            &run(&[4.0, 3.0, 8.0], &[false, true, false]),
        );
        q.add(PolicyKind::Pema, 0, &run(&[6.0], &[false]));
        q.add(PolicyKind::Rule, 0, &run(&[10.0], &[true]));
        // App 1: PEMA never holds the SLO, so its best is its start.
        q.add(PolicyKind::Pema, 1, &run(&[10.0, 9.0], &[true, true]));
        q.add(PolicyKind::Rule, 1, &run(&[10.0], &[false]));
        q.add(PolicyKind::Hold, 1, &run(&[99.0], &[true]));
        assert_eq!(q.pema_best_cpu_vs_rule_pct(), 100.0 * 15.0 / 20.0);
        let settled = (4.0 + 3.0 + 8.0) / 3.0 / 2.0 + 6.0 / 2.0 + 9.5;
        assert_eq!(q.cpu_saved_vs_rule_pct(), 100.0 * (1.0 - settled / 20.0));
        // Three of six PEMA intervals violated; RULE's do not count.
        assert_eq!(q.slo_met_pct(), 50.0);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_by_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        let mut rng = SplitMix(derive_seed(1, 0));
        let u = rng.next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
