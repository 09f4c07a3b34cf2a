//! The measure → observe → act → apply loop, generic over both the
//! [`Policy`] *and* the [`ClusterBackend`] it drives.
//!
//! This is the paper's Fig. 9 cycle implemented once: each control
//! interval the loop measures one monitoring window on the backend
//! (Prometheus role), converts it into the policy's view, lets the
//! policy act, and applies the returned allocation (Kubernetes role).

use crate::arbitration::ArbitrationEvent;
use crate::backend::{ClusterBackend, SimBackend, WindowPoll, WindowRequest};
use crate::policy::{Decision, Policy};
use crate::telemetry::{IntervalSpans, LoopTelemetry};
use pema_sim::{Allocation, WindowStats, Workload};
use std::fmt::Write as _;

/// Harness timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Measured monitoring window per control interval, virtual
    /// seconds. The paper uses two minutes; the simulator's statistics
    /// stabilize faster, so the default is 40 s (configurable back to
    /// 120 for fidelity runs).
    pub interval_s: f64,
    /// Settling time after an allocation change before measurement.
    pub warmup_s: f64,
    /// Backend seed (the simulator seed for [`SimBackend`]).
    pub seed: u64,
}

impl HarnessConfig {
    /// The standard experiment configuration (40 s interval, 4 s
    /// warmup) with the given backend seed — the single source of
    /// truth for the timing every scenario in `pema-bench` uses.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            interval_s: 40.0,
            warmup_s: 4.0,
            seed: 0xFEED,
        }
    }
}

/// One logged control interval.
#[derive(Debug, Clone)]
pub struct IterationLog {
    /// Interval index (0-based).
    pub iter: usize,
    /// Virtual time at the start of the interval, seconds.
    pub time_s: f64,
    /// Offered load during the interval.
    pub rps: f64,
    /// Total cores allocated *during* the interval.
    pub total_cpu: f64,
    /// p95 response over the interval, ms.
    pub p95_ms: f64,
    /// Mean response over the interval, ms.
    pub mean_ms: f64,
    /// Whether the interval violated the SLO.
    pub violated: bool,
    /// Policy decision taken at the end of the interval: its
    /// [`Action`](pema_core::Action) label, prefixed `early-` when an
    /// early check aborted the window (`docs/trace-format.md` lists
    /// the labels).
    pub action: String,
    /// Allocation applied for the *next* interval.
    pub alloc: Vec<f64>,
    /// Range / process id for workload-aware runs (0 otherwise).
    pub pema_id: usize,
    /// Actual measured length of this interval, seconds (shorter than
    /// the configured interval when an early check aborted it).
    pub interval_s: f64,
}

/// A completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-interval log.
    pub log: Vec<IterationLog>,
    /// Allocation in force at the end.
    pub final_alloc: Allocation,
    /// The SLO used, ms.
    pub slo_ms: f64,
}

impl RunResult {
    /// Number of SLO-violating intervals.
    pub fn violations(&self) -> usize {
        self.log.iter().filter(|l| l.violated).count()
    }

    /// Fraction of intervals that violated the SLO.
    pub fn violation_rate(&self) -> f64 {
        if self.log.is_empty() {
            0.0
        } else {
            self.violations() as f64 / self.log.len() as f64
        }
    }

    /// Mean total allocation over the last `k` intervals — the
    /// "settled" efficiency of the policy.
    pub fn settled_total(&self, k: usize) -> f64 {
        let n = self.log.len();
        if n == 0 {
            return 0.0;
        }
        let k = k.min(n).max(1);
        self.log[n - k..].iter().map(|l| l.total_cpu).sum::<f64>() / k as f64
    }

    /// Total wall time spent in SLO-violating intervals, seconds — the
    /// quantity the §6 early-reaction extension shrinks.
    pub fn violating_time_s(&self) -> f64 {
        self.log
            .iter()
            .filter(|l| l.violated)
            .map(|l| l.interval_s)
            .sum::<f64>()
            .max(0.0)
    }

    /// Smallest total allocation among non-violating intervals.
    pub fn best_feasible_total(&self) -> Option<f64> {
        self.log
            .iter()
            .filter(|l| !l.violated)
            .map(|l| l.total_cpu)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

/// Per-interval hook — the pluggable replacement for ad-hoc CSV / print
/// plumbing around stepping loops.
///
/// Observers receive both the compact [`IterationLog`] entry and the
/// full [`WindowStats`] it was derived from (per-service utilizations,
/// throttle times, …), so CSV emitters need no side channel into the
/// backend. Any `FnMut(&IterationLog, &WindowStats)` closure is an
/// observer; share state with the caller through `Arc<Mutex<…>>` when
/// the run is built through the [`Experiment`](crate::Experiment)
/// facade (`Send` so fleet members can run on worker threads).
pub trait Observer {
    /// Called once per control interval, after the decision was applied
    /// and the interval logged.
    fn on_interval(&mut self, log: &IterationLog, stats: &WindowStats);

    /// Called when a fleet arbitration round granted (or cut) this
    /// loop's proposed allocation, just before the
    /// [`on_interval`](Self::on_interval) call for the same interval.
    /// Default no-op, so plain (non-arbitrated) runs and existing
    /// observers are unaffected.
    fn on_arbitration(&mut self, event: &ArbitrationEvent) {
        let _ = event;
    }
}

impl<F: FnMut(&IterationLog, &WindowStats)> Observer for F {
    fn on_interval(&mut self, log: &IterationLog, stats: &WindowStats) {
        self(log, stats)
    }
}

/// The measure → observe → act → apply loop, generic over the policy
/// and the cluster backend.
///
/// Built by [`ControlLoop::new`] from a backend and a policy, or by
/// [`Experiment::builder`](crate::Experiment::builder), which also
/// derives the backend from an app and attaches observers and
/// telemetry. Its policy and backend stay public for stepping runs
/// that script either mid-flight (SLO changes, clock changes, …).
pub struct ControlLoop<P: Policy, B: ClusterBackend = SimBackend> {
    /// The cluster under control (public for scenario scripting: speed
    /// changes, trace sampling, etc.).
    pub backend: B,
    /// The policy under test.
    pub policy: P,
    cfg: HarnessConfig,
    /// When set, the monitoring window is checked every this many
    /// seconds and aborted on an SLO breach (§6's high-resolution
    /// monitoring extension) so rollback happens within seconds instead
    /// of a full interval.
    early_check_s: Option<f64>,
    iter: usize,
    log: Vec<IterationLog>,
    observers: Vec<Box<dyn Observer + Send>>,
    /// The interval currently being measured through the non-blocking
    /// seam, if any (see [`poll_step`](Self::poll_step)).
    pending: Option<PendingInterval>,
    /// When true (fleet arbitration), [`poll_step`](Self::poll_step)
    /// stages the decision instead of applying it and returns
    /// [`LoopPoll::Proposed`]; the fleet commits it via
    /// [`commit_granted`](Self::commit_granted) once the arbitration
    /// round resolves.
    propose_mode: bool,
    /// The decided-but-not-yet-applied interval awaiting its grant.
    staged: Option<StagedInterval>,
    /// Granted/proposed ratio of the most recent arbitration round;
    /// exactly 1.0 when nothing was ever cut, in which case no
    /// allocation is ever rescaled (slack budgets stay bit-identical).
    grant_scale: f64,
    /// Scratch for the allocation handed to the backend (the decided
    /// vector, floored), so applying one costs no allocation.
    applied: Allocation,
    /// Self-instrumentation, when attached: per-interval counters and
    /// phase-span histograms. A pure side channel — nothing it records
    /// flows back into decisions or logs (see [`crate::telemetry`]).
    telemetry: Option<LoopTelemetry>,
}

/// Progress state of one interval between [`ControlLoop::poll_step`]
/// calls: everything `step_once` captured before measuring.
struct PendingInterval {
    time_s: f64,
    total_cpu: f64,
    slo_ms: f64,
    req: WindowRequest,
    /// Backend time when the window began — the measure span's start.
    /// Only read under telemetry (0.0 otherwise).
    begin_s: f64,
}

/// A measured interval whose decision is staged for arbitration:
/// everything needed to apply/log it once the grant arrives.
struct StagedInterval {
    time_s: f64,
    total_cpu: f64,
    slo_ms: f64,
    rps: f64,
    stats: WindowStats,
    aborted: bool,
    decision: Decision,
    /// Telemetry phase spans captured so far (backend-clock seconds;
    /// all 0.0 when no telemetry is attached).
    measure_s: f64,
    decide_s: f64,
    /// Backend time when the decision was staged — the arbitrate-wait
    /// span's start.
    staged_at_s: f64,
}

/// What one [`ControlLoop::poll_step`] call did.
#[derive(Debug, Clone, Copy)]
pub enum LoopPoll {
    /// The interval's window is still measuring; poll again when the
    /// backend's virtual clock reaches `resume_at_s`. The loop waits: a
    /// fleet shard serves it until it answers this, then serves
    /// whichever waiting loop is furthest behind in virtual time.
    Pending {
        /// Backend virtual time to re-poll at, seconds.
        resume_at_s: f64,
    },
    /// One full control interval completed and was logged.
    Logged,
    /// (Fleet arbitration only.) The interval's window finished and the
    /// policy decided, but the allocation is *staged*, not applied: the
    /// loop is parked at the arbitration barrier until the fleet
    /// commits a grant. Never returned outside a fleet running under
    /// [`Fleet::arbitration`](crate::Fleet::arbitration).
    Proposed,
}

impl<P: Policy, B: ClusterBackend> ControlLoop<P, B> {
    /// Wires a policy to a backend. The backend arrives fully
    /// configured; `cfg` only carries the loop timing.
    pub fn new(backend: B, policy: P, cfg: HarnessConfig) -> Self {
        Self {
            backend,
            policy,
            cfg,
            early_check_s: None,
            iter: 0,
            log: Vec::new(),
            observers: Vec::new(),
            pending: None,
            propose_mode: false,
            staged: None,
            grant_scale: 1.0,
            applied: Allocation(Vec::new()),
            telemetry: None,
        }
    }

    /// Attaches self-instrumentation: per-interval counters and phase
    /// histograms recorded into the handle's registry (and its event
    /// sink, when one is attached). Recording never changes run output
    /// — telemetry is a pure side channel.
    pub fn set_telemetry(&mut self, telemetry: LoopTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Enables early violation detection: the window aborts (and the
    /// policy rolls back) as soon as the running p95 exceeds the SLO,
    /// checked every `check_s` seconds.
    pub fn with_early_check(mut self, check_s: f64) -> Self {
        assert!(check_s > 0.0, "check interval must be positive");
        self.early_check_s = Some(check_s);
        self
    }

    /// Registers a per-interval observer (`Send`, so the loop can run
    /// as a fleet member on a worker thread).
    pub fn observe(mut self, obs: impl Observer + Send + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    pub(crate) fn push_observer(&mut self, obs: Box<dyn Observer + Send>) {
        self.observers.push(obs);
    }

    /// The per-interval log so far.
    pub fn log(&self) -> &[IterationLog] {
        &self.log
    }

    /// Runs one control interval at offered load `rps` and logs it.
    ///
    /// Implemented as [`poll_step`](Self::poll_step) driven to
    /// completion, so the blocking and non-blocking stepping paths are
    /// the same code — a [`Fleet`](crate::Fleet) of one is byte-identical
    /// to a plain run by construction.
    pub fn step_once(&mut self, rps: f64) -> &IterationLog {
        while !matches!(self.poll_step(rps), LoopPoll::Logged) {}
        self.log.last().unwrap()
    }

    /// Advances one control interval without blocking for its whole
    /// monitoring window — the fleet-scheduling entry point.
    ///
    /// The first call of an interval does everything `step_once` did
    /// before measuring (pre-interval allocation switch, capturing the
    /// allocation in force, starting the window); each call then polls
    /// the backend's in-progress window and, once it is ready, runs the
    /// decision/apply/log tail. `rps` is captured when the interval
    /// starts; later polls of the same interval ignore it.
    pub fn poll_step(&mut self, rps: f64) -> LoopPoll {
        self.poll_load(&Load::Const(rps))
    }

    /// [`poll_step`](Self::poll_step) with the offered load sampled
    /// from `load` when an interval starts, at the backend time the
    /// interval is logged under.
    fn poll_load(&mut self, load: &Load) -> LoopPoll {
        if self.pending.is_none() {
            let time_s = self.backend.now_s();
            let rps = match load {
                Load::Const(rps) => *rps,
                Load::Pattern(w) => w.rps_at(time_s),
            };
            if let Some(pre) = self.policy.pre_interval(rps) {
                // Under an arbitration cut, the grant stays in force
                // until the next round — a pre-interval reapply must
                // not quietly overshoot it. grant_scale is exactly 1.0
                // unless a round actually cut this member, so the
                // rescale branch never runs on slack budgets.
                if self.grant_scale < 1.0 {
                    self.applied.0.clear();
                    self.applied
                        .0
                        .extend(pre.0.iter().map(|a| a * self.grant_scale));
                    self.applied.clamp_floor();
                    self.backend.apply(&self.applied);
                } else {
                    self.backend.apply(&pre);
                }
            }
            let total_cpu = self.backend.allocation().total();
            let slo_ms = self.policy.slo_ms();
            let mut req = WindowRequest::new(rps, self.cfg.warmup_s, self.cfg.interval_s);
            if let Some(check_s) = self.early_check_s {
                req = req.with_early_check(check_s, slo_ms);
            }
            self.backend.begin_window(&req);
            // Re-read the clock only under telemetry: begin_window is
            // free on virtual backends but a live backend may have
            // spent wall time in the pre-interval apply above.
            let begin_s = if self.telemetry.is_some() {
                self.backend.now_s()
            } else {
                0.0
            };
            self.pending = Some(PendingInterval {
                time_s,
                total_cpu,
                slo_ms,
                req,
                begin_s,
            });
        }
        let req = self.pending.as_ref().unwrap().req;
        match self.backend.poll_window(&req) {
            WindowPoll::Pending { resume_at_s } => LoopPoll::Pending { resume_at_s },
            WindowPoll::Ready { stats, aborted } => {
                let p = self.pending.take().unwrap();
                let decided_from = self.telemetry.as_ref().map(|_| self.backend.now_s());
                let decision = self.policy.decide(&stats);
                let (measure_s, decide_s, staged_at_s) = match decided_from {
                    Some(t0) => {
                        let now = self.backend.now_s();
                        (t0 - p.begin_s, now - t0, now)
                    }
                    None => (0.0, 0.0, 0.0),
                };
                let staged = StagedInterval {
                    time_s: p.time_s,
                    total_cpu: p.total_cpu,
                    slo_ms: p.slo_ms,
                    rps: p.req.rps,
                    stats,
                    aborted,
                    decision,
                    measure_s,
                    decide_s,
                    staged_at_s,
                };
                if self.propose_mode {
                    self.staged = Some(staged);
                    LoopPoll::Proposed
                } else {
                    self.commit(staged, None);
                    LoopPoll::Logged
                }
            }
        }
    }

    /// Puts the loop in fleet-arbitration mode: `poll_step` stages
    /// decisions ([`LoopPoll::Proposed`]) instead of applying them.
    pub(crate) fn set_propose_mode(&mut self) {
        self.propose_mode = true;
    }

    /// Total cores of the staged (proposed) allocation, if an interval
    /// is parked at the arbitration barrier.
    pub(crate) fn staged_proposed_total(&self) -> Option<f64> {
        self.staged.as_ref().map(|s| s.decision.alloc.iter().sum())
    }

    /// Commits the staged interval under an arbitration grant: applies
    /// the (possibly scaled-down) allocation, fires observers, and
    /// logs. Must follow a [`LoopPoll::Proposed`].
    pub(crate) fn commit_granted(&mut self, granted: f64, event: &ArbitrationEvent) {
        let staged = self
            .staged
            .take()
            .expect("commit_granted follows LoopPoll::Proposed");
        self.commit(staged, Some((granted, event)));
    }

    /// The one decision-application path, shared by plain stepping
    /// (`grant` = `None`: apply the decided allocation verbatim — the
    /// pre-arbitration behaviour, bit for bit) and arbitrated fleets
    /// (scale the allocation down when the grant is below the
    /// proposal).
    fn commit(&mut self, staged: StagedInterval, grant: Option<(f64, &ArbitrationEvent)>) {
        let StagedInterval {
            time_s,
            total_cpu,
            slo_ms,
            rps,
            stats,
            aborted,
            decision: d,
            measure_s,
            decide_s,
            staged_at_s,
        } = staged;
        // Commit entry time doubles as the arbitrate-wait span's end:
        // under arbitration the loop was parked from staging until the
        // fleet called commit_granted. (On a virtual backend the clock
        // does not tick while parked, so the span is 0 by construction
        // — the real wall park time is ShardTelemetry's barrier-wait
        // histogram.)
        let commit_from = self.telemetry.as_ref().map(|_| self.backend.now_s());
        let mut alloc = d.alloc;
        if let Some((granted, _)) = grant {
            let proposed: f64 = alloc.iter().sum();
            if granted < proposed && proposed > 0.0 {
                self.grant_scale = granted / proposed;
                for a in alloc.iter_mut() {
                    *a *= self.grant_scale;
                }
            } else {
                self.grant_scale = 1.0;
            }
        }
        // The log keeps the vector as decided; the backend gets it
        // floored.
        self.applied.0.clone_from(&alloc);
        self.applied.clamp_floor();
        self.backend.apply(&self.applied);
        // The one place a decision becomes its label, in one allocation
        // with room for the longest ("early-reduce(NNN)").
        let mut action = String::with_capacity(24);
        if aborted {
            action.push_str("early-");
        }
        let _ = write!(action, "{}", d.action);
        let entry = IterationLog {
            iter: self.iter,
            time_s,
            rps,
            total_cpu,
            p95_ms: stats.p95_ms,
            mean_ms: stats.mean_ms,
            violated: stats.violates(slo_ms),
            action,
            alloc,
            pema_id: d.pema_id,
            interval_s: stats.duration_s,
        };
        if let Some((_, event)) = grant {
            for obs in &mut self.observers {
                obs.on_arbitration(event);
            }
        }
        for obs in &mut self.observers {
            obs.on_interval(&entry, &stats);
        }
        if let (Some(tel), Some(t0)) = (&self.telemetry, commit_from) {
            tel.record_interval(
                &entry,
                aborted,
                &IntervalSpans {
                    measure_s,
                    decide_s,
                    arb_wait_s: grant.map(|_| t0 - staged_at_s),
                    commit_s: self.backend.now_s() - t0,
                },
            );
        }
        self.log.push(entry);
        self.iter += 1;
    }

    /// Abandons the interval currently in flight, if any (fleet
    /// cancellation: tearing a loop down mid-window must leave the
    /// backend reusable). Completed intervals stay logged.
    pub fn cancel_interval(&mut self) {
        if self.pending.take().is_some() {
            self.backend.cancel_window();
        }
        // A decision staged for arbitration is dropped unapplied: the
        // window already closed, so the backend needs no cancel.
        self.staged = None;
    }

    /// Finalizes into a [`RunResult`].
    pub fn into_result(self) -> RunResult {
        RunResult {
            final_alloc: self.backend.allocation(),
            slo_ms: self.policy.slo_ms(),
            log: self.log,
        }
    }
}

/// The load a [`Run`] is offered.
pub(crate) enum Load {
    /// The same rate every interval.
    Const(f64),
    /// Sampled at each interval start (backend virtual time).
    Pattern(Box<dyn Workload + Send>),
}

/// A run: the loop, the load it is offered and how many intervals it
/// lasts. [`Experiment::run`](crate::ExperimentBuilder::run) drives one
/// to completion on the calling thread; a [`Fleet`](crate::Fleet)
/// polls many, each until it waits.
pub(crate) struct Run<P: Policy, B: ClusterBackend> {
    pub(crate) control: ControlLoop<P, B>,
    load: Load,
    iters: usize,
}

impl<P: Policy, B: ClusterBackend> Run<P, B> {
    /// # Panics
    /// Panics unless the description carried a load and a positive
    /// interval count.
    pub(crate) fn new(mut control: ControlLoop<P, B>, load: Option<Load>, iters: usize) -> Self {
        assert!(
            iters > 0,
            "a run needs .iters(..) before .run() / Fleet::member"
        );
        let load =
            load.expect("a run needs .rps(..) or .workload(..) before .run() / Fleet::member");
        // The one growth of the log, made where the run is built: a
        // fleet member's log regrowing 4 → 8 → 16 → 32 on a worker
        // thread is what made peak RSS swing by a fifth with the size
        // of this struct (docs/fleet.md, "Memory per member").
        control.log.reserve_exact(iters);
        Self {
            control,
            load,
            iters,
        }
    }

    /// True once every interval is logged.
    pub(crate) fn done(&self) -> bool {
        self.control.iter >= self.iters
    }

    /// Services the run once. Must not be called once [`done`](Self::done).
    pub(crate) fn poll(&mut self) -> LoopPoll {
        self.control.poll_load(&self.load)
    }

    /// Polls to completion.
    pub(crate) fn drive(mut self) -> RunResult {
        while !self.done() {
            self.poll();
        }
        self.control.into_result()
    }
}
