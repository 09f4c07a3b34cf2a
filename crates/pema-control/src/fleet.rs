//! [`Fleet`] — a sharded scheduler that drives many control loops
//! from one process, optionally arbitrating a shared CPU budget
//! across them.
//!
//! The paper's Fig. 9 loop controls a single application, and a call
//! that blocks for a whole monitoring window means one thread can
//! drive one loop. Production controllers are deployed fleet-wide:
//! one process watching thousands of applications, each with its own
//! monitoring windows, policy state, and virtual clock. This module is
//! that multiplexer, built on the non-blocking
//! [`begin_window`](ClusterBackend::begin_window) /
//! [`poll_window`](ClusterBackend::poll_window) seam.
//!
//! ## Design: sharded poll executors, no tokio
//!
//! The offline vendor set has no async runtime, and none is needed:
//! every shipped backend runs on *virtual* time, so "concurrency" means
//! interleaving loops along the reconstructed shared clock, not real
//! I/O parallelism. Instead of futures + waker plumbing, each member is
//! a plain state machine: the same `Run` (loop, load, interval budget)
//! that [`Experiment::run`](crate::ExperimentBuilder::run) drives to
//! completion in one call, here polled one step at a time. A poll
//! reports when the member next wants service (`ready-at`, in its
//! backend's virtual seconds), and [`Fleet::run`] partitions members
//! **by member id** (`id % threads`) into shards, each shard a
//! `pollster`-style block-on: a min-heap over `(ready_at, tie_rank)`
//! that services whichever of its loops is furthest behind in virtual
//! time until every loop completes. One core caps a single cooperative
//! scheduler at a few hundred thousand app-intervals/sec; with
//! [`threads`](Fleet::threads) the shards run on `std::thread::scope`
//! workers and the ceiling scales with cores.
//!
//! ## Pacing: virtual by default, wall-clock on request
//!
//! Under the default [`Clock::Virtual`] pace the executor never
//! sleeps: it services whichever loop is furthest behind and lets
//! virtual time run as fast as the backends can measure — the byte-
//! identical mode every simulation scenario uses. A live backend
//! (`pema-live`) reports *wall* timestamps from `now_s`, and replaying
//! its ready-at schedule at full speed would busy-poll windows that
//! take real seconds to fill. [`Fleet::pace`]`(`[`Clock::Wall`]`)`
//! makes each shard sleep until a popped member's ready-at before
//! polling it, so a fleet of live loops wakes exactly at window
//! boundaries instead of spinning; virtual-time members under wall
//! pace are always already past their ready-at and run unchanged (the
//! equivalence is pinned by `fleet_wall_pace_matches_virtual`).
//!
//! ## Determinism
//!
//! Fleet members share nothing — each owns its backend, policy, RNG
//! stream, and observers — so per-member results are independent of
//! scheduling by construction: any poll order yields bit-identical
//! [`RunResult`]s per member, and a fleet of one is byte-identical to
//! the plain [`Experiment::run`](crate::Experiment) path (both are
//! pinned by tests: property tests permute the tie-break order *and*
//! the thread count, and a golden test byte-compares the single-app
//! fleet against the facade). Sharding inherits the guarantee: the
//! partition depends only on member ids and the resolved thread count,
//! each shard is itself a deterministic cooperative scheduler, and
//! [`FleetResult::runs`] reports members in insertion order (never
//! completion order), merged across shards, so downstream CSVs are
//! byte-identical for **any** `threads` value. [`FleetResult::polls`]
//! is the sum of per-member poll counts, which scheduling cannot
//! change either.
//!
//! ## Arbitration: one CPU budget across the fleet
//!
//! [`Fleet::arbitration`] deliberately breaks member independence: a
//! real cluster has a finite CPU pool, and co-located applications
//! contend for it. The mechanism is a deterministic **two-phase
//! collect/grant barrier** at window boundaries:
//!
//! 1. **collect** — each member's loop runs in *propose* mode: when its
//!    window closes and its policy decides, the allocation is staged
//!    (not applied) and the member parks. A shard drives its heap until
//!    every member is parked or finished, then rendezvouses with the
//!    other shards; the last shard to arrive assembles every parked
//!    member's [`ArbitrationRequest`] **in fleet insertion order** and
//!    invokes the [`FleetPolicy`] once;
//! 2. **grant** — every shard wakes, reads its members' grants, commits
//!    them (an under-grant scales the member's per-service allocation
//!    proportionally), and resumes polling.
//!
//! Arbitration round `k` therefore sees exactly the `k`-th proposal of
//! every member that still has intervals left — a pure function of the
//! fleet description. Which shard happens to *run* the policy is
//! scheduling-dependent, but the `(round, requests)` sequence it
//! observes is not, so stateful policies (AIMD) evolve identically at
//! every thread count and tie-break permutation. With a slack budget
//! every shipped policy passes proposals through verbatim, grants never
//! rescale anything, and the run is bit-identical to an unarbitrated
//! fleet — the degenerate case the property tests pin.
//!
//! Per-member metadata for the arbiter (priority class, weight, floor)
//! rides on [`MemberSpec`]; grant/deny telemetry comes back on
//! [`FleetResult::arbitration`] and through the
//! [`Observer::on_arbitration`](crate::Observer::on_arbitration) hook.
//!
//! ## Cancellation
//!
//! Two levels, both poll-boundary, neither spinning:
//!
//! * **early-check** — a window begun with an [`EarlyCheck`] aborts at
//!   the first poll whose running p95 breaches the SLO (§6 semantics).
//!   Per-shard heaps preserve this:
//!   the abort decision is a function of the member's own window state
//!   alone, so it fires at the same virtual poll boundary no matter
//!   which shard (or how many) the member runs in;
//! * **loop teardown** —
//!   [`ControlLoop::cancel_interval`](crate::ControlLoop::cancel_interval)
//!   abandons an in-flight window via
//!   [`ClusterBackend::cancel_window`], leaving the backend reusable
//!   and completed intervals logged.
//!
//! ## Example
//!
//! ```
//! use pema_control::{Fleet, HarnessConfig, MemberSpec, UseFluid, WeightedFairShare};
//! use pema_core::{PemaController, PemaParams};
//!
//! let app = pema_apps::toy_chain();
//! let member = |seed: u64| {
//!     let params = PemaParams::defaults(app.slo_ms);
//!     MemberSpec::new()
//!         .app(&app)
//!         .policy(PemaController::new(params, app.generous_alloc.clone()))
//!         .backend(UseFluid)
//!         .config(HarnessConfig::with_seed(seed))
//!         .rps(150.0)
//!         .iters(4)
//! };
//! // threads(0) = one shard per available core; output is
//! // byte-identical for any thread count. Members share a 3-core
//! // budget; the high-priority member is served first under
//! // contention.
//! let fleet = Fleet::new()
//!     .threads(0)
//!     .member(member(1).priority(1).floor(0.5))
//!     .member(member(2).weight(2.0))
//!     .arbitration(3.0, WeightedFairShare::new())
//!     .run();
//! assert_eq!(fleet.runs.len(), 2);
//! assert!(fleet.runs.iter().all(|r| r.result.log.len() == 4));
//! let arb = fleet.arbitration.expect("budget was set");
//! assert_eq!(arb.rounds, 4);
//! ```
//!
//! [`EarlyCheck`]: crate::EarlyCheck

use crate::arbitration::{
    ArbitrationEvent, ArbitrationRequest, FleetArbitration, FleetPolicy, MemberArbitration,
};
use crate::backend::ClusterBackend;
use crate::control::{LoopPoll, Run, RunResult};
use crate::experiment::{ExperimentBuilder, IntoBackend, Unset, UseSim};
use crate::policy::Policy;
use crate::telemetry::{LoopTelemetry, ShardTelemetry};
use pema_telemetry::{EventSink, Telemetry};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Resolves a worker-thread knob: `0` means "one per available core"
/// (falling back to 1 when parallelism cannot be queried), any other
/// value is taken literally.
///
/// The single source of truth for every `--jobs` / `--threads` flag in
/// the workspace (the scenario executor, [`Fleet::threads`], and the
/// CLI all call this), so the `0 → auto` convention cannot drift
/// between surfaces.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Object-safe view of one member's [`Run`]: the type-erased form of
/// `Run<P, B>`, so one heap can hold members of any policy and
/// backend. `Send` so shards can run on scoped worker threads.
trait FleetDriver: Send {
    /// Services the run once ([`Run::poll`]).
    fn poll(&mut self) -> LoopPoll;

    /// True once every interval is logged ([`Run::done`]).
    fn done(&self) -> bool;

    /// The loop's backend virtual time, seconds.
    fn now_s(&self) -> f64;

    /// Switches the loop into propose mode (fleet arbitration): polls
    /// park at window close instead of applying the decision. Must be
    /// called before the first poll.
    fn set_propose_mode(&mut self);

    /// Total cores of the staged proposal. Only valid while parked
    /// (after a [`LoopPoll::Proposed`], before the commit).
    fn proposed_total(&self) -> f64;

    /// Applies an arbitration grant to the staged interval and logs
    /// it.
    fn commit_granted(&mut self, granted: f64, event: &ArbitrationEvent);

    /// Attaches self-instrumentation to the member's loop (see
    /// [`Fleet::telemetry`]). Called before the first poll.
    fn set_telemetry(&mut self, telemetry: LoopTelemetry);

    /// Finalizes into the run result.
    fn finish(self: Box<Self>) -> RunResult;
}

impl<P: Policy + Send, B: ClusterBackend + Send> FleetDriver for Run<P, B> {
    fn poll(&mut self) -> LoopPoll {
        Run::poll(self)
    }

    fn done(&self) -> bool {
        Run::done(self)
    }

    fn now_s(&self) -> f64 {
        self.control.backend.now_s()
    }

    fn set_propose_mode(&mut self) {
        self.control.set_propose_mode();
    }

    fn proposed_total(&self) -> f64 {
        self.control
            .staged_proposed_total()
            .expect("proposed_total: member is parked with a staged decision")
    }

    fn commit_granted(&mut self, granted: f64, event: &ArbitrationEvent) {
        self.control.commit_granted(granted, event);
    }

    fn set_telemetry(&mut self, telemetry: LoopTelemetry) {
        self.control.set_telemetry(telemetry);
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.control.into_result()
    }
}

/// One member's completed run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The member's name (auto-assigned `app<i>` unless
    /// [`MemberSpec::name`](ExperimentBuilder::name) gave one).
    pub name: String,
    /// The member's run, logged like any single-loop run.
    pub result: RunResult,
    /// The member's backend virtual time when it finished, seconds.
    pub end_s: f64,
}

/// Everything a [`Fleet::run`] produced, members in insertion order
/// (never completion order — downstream output must not depend on
/// scheduling or the thread count).
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-member runs, in the order the members were added.
    pub runs: Vec<FleetRun>,
    /// Scheduler services performed (one per poll of any member;
    /// arbitration commits are not polls). A per-member quantity
    /// summed across shards, so it is identical for every thread
    /// count.
    pub polls: u64,
    /// Grant/deny telemetry when the fleet ran under
    /// [`Fleet::arbitration`]; `None` for independent-member fleets.
    pub arbitration: Option<FleetArbitration>,
}

impl FleetResult {
    /// Total control intervals across the fleet.
    pub fn total_intervals(&self) -> usize {
        self.runs.iter().map(|r| r.result.log.len()).sum()
    }

    /// The furthest any member's virtual clock advanced, seconds.
    pub fn span_s(&self) -> f64 {
        self.runs.iter().fold(0.0, |m, r| m.max(r.end_s))
    }
}

/// A heap slot: the next service time of one member. Min-ordered by
/// `(ready_at, rank)` — `rank` is the tie-break priority among members
/// ready at the same virtual instant.
struct Slot {
    ready_at: f64,
    rank: usize,
    idx: usize,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Slot {}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (ready_at, rank, idx) on top. The final idx key keeps the
        // schedule fully deterministic even under duplicate ranks.
        other
            .ready_at
            .total_cmp(&self.ready_at)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// One member handed to a shard: the driver plus everything needed to
/// report it back under its original insertion index.
struct Member {
    /// Insertion index in the fleet (the member id the partition and
    /// the result merge key on).
    idx: usize,
    /// Tie-break rank among same-instant members of the same shard.
    rank: usize,
    name: String,
    driver: Box<dyn FleetDriver>,
}

/// Arbitration metadata of one member, captured from its
/// [`MemberSpec`] at insertion.
#[derive(Clone, Copy)]
pub(crate) struct ArbMeta {
    pub(crate) priority: i32,
    pub(crate) weight: f64,
    pub(crate) floor: f64,
}

/// One fleet member under construction. A member *is* a run
/// description, so this is [`ExperimentBuilder`] under the name the
/// fleet API uses for it: the same grammar as
/// [`Experiment::builder`](crate::Experiment::builder), including the
/// fleet-level [`name`](ExperimentBuilder::name) and the arbitration
/// attributes ([`priority`](ExperimentBuilder::priority) class,
/// fair-share [`weight`](ExperimentBuilder::weight), guaranteed
/// [`floor`](ExperimentBuilder::floor)). Hand it to [`Fleet::member`].
pub type MemberSpec<P = Unset, B = UseSim> = ExperimentBuilder<P, B>;

/// How a fleet shard treats a member's ready-at time (see the module
/// docs, "Pacing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Clock {
    /// Never sleep: service loops as fast as their backends measure.
    /// The deterministic default — output is byte-identical to every
    /// prior fleet behavior.
    #[default]
    Virtual,
    /// Sleep until a popped member's ready-at before polling it: for
    /// fleets of live (wall-clock) backends, whose windows fill in
    /// real time. Members already past their ready-at (every
    /// virtual-time backend) are polled without sleeping.
    Wall,
}

/// The fleet under construction — see the module docs. Add fully
/// described members (policy, backend, load, and iteration count all
/// set), optionally an [`arbitration`](Self::arbitration) budget, then
/// [`run`](Self::run).
#[derive(Default)]
pub struct Fleet {
    members: Vec<(String, Box<dyn FleetDriver>)>,
    meta: Vec<ArbMeta>,
    tie_break: Option<Vec<usize>>,
    /// Worker threads for [`run`](Self::run); 0 = one per core.
    /// Defaults to 1 (the PR 5 single-threaded cooperative scheduler).
    threads: usize,
    arbitration: Option<(f64, Box<dyn FleetPolicy>)>,
    pace: Clock,
    telemetry: Option<Telemetry>,
    events: Option<EventSink>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self {
            members: Vec::new(),
            meta: Vec::new(),
            tie_break: None,
            threads: 1,
            arbitration: None,
            pace: Clock::Virtual,
            telemetry: None,
            events: None,
        }
    }

    /// Attaches fleet-wide self-instrumentation: every member's loop
    /// records interval counters and phase histograms (labelled by its
    /// member name) into `hub`, and each executor shard records its
    /// scheduler metrics (polls, heap depth, barrier wait). A pure side
    /// channel — the run's output is byte-identical with or without it,
    /// at any thread count.
    pub fn telemetry(mut self, hub: &Telemetry) -> Self {
        self.telemetry = Some(hub.clone());
        self
    }

    /// Additionally streams one JSONL event per committed interval
    /// (fleet-wide, any-member order under threading) to `sink`. Only
    /// meaningful together with [`telemetry`](Self::telemetry).
    pub fn events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Sets the pacing clock (default [`Clock::Virtual`]). Use
    /// [`Clock::Wall`] for fleets of live backends — shards then sleep
    /// to each member's ready-at instead of busy-polling real-time
    /// windows. Virtual members are unaffected (they are never behind
    /// their ready-at), so mixed fleets work and `Clock::Virtual`
    /// output stays byte-identical.
    pub fn pace(mut self, pace: Clock) -> Self {
        self.pace = pace;
        self
    }

    /// Adds a member: a [`MemberSpec`], i.e. any [`ExperimentBuilder`];
    /// unnamed members are auto-named `app<i>`.
    /// Members must be `Send` — every shipped policy and backend is,
    /// and observers/workloads share state through `Arc<Mutex<…>>` —
    /// so shards can run on worker threads.
    ///
    /// # Panics
    /// Panics unless the spec carries a load (`.rps(..)` /
    /// `.workload(..)`) and a positive `.iters(..)` — the fleet needs
    /// the complete run description up front.
    pub fn member<P, B>(mut self, mut spec: MemberSpec<P, B>) -> Self
    where
        P: Policy + Send + 'static,
        B: IntoBackend,
        B::Backend: Send + 'static,
    {
        let name = spec.run.name.take();
        let name = name.unwrap_or_else(|| format!("app{}", self.members.len()));
        self.meta.push(spec.run.arb);
        self.members.push((name, Box::new(spec.into_run())));
        self
    }

    /// Shares one CPU budget (total cores) across all members,
    /// arbitrated by `policy` at every window-boundary round — see the
    /// module docs for barrier semantics and the determinism argument.
    /// Shipped policies: [`Unlimited`](crate::Unlimited) (pass-through),
    /// [`WeightedFairShare`](crate::WeightedFairShare), and
    /// [`AimdBackoff`](crate::AimdBackoff). Use `f64::INFINITY` for an
    /// explicitly slack budget.
    pub fn arbitration(mut self, budget: f64, policy: impl FleetPolicy + 'static) -> Self {
        self.arbitration = Some((budget, Box::new(policy)));
        self
    }

    /// Overrides the tie-break priority used when several members of
    /// the same shard are ready at the same virtual instant: `order[i]`
    /// is member `i`'s rank, lower ranks first (default: insertion
    /// order). Per-member results are scheduling-invariant — this knob
    /// exists so the property tests can *prove* it, and so experiments
    /// can study scheduling artifacts if any ever appear.
    pub fn tie_break(mut self, order: Vec<usize>) -> Self {
        self.tie_break = Some(order);
        self
    }

    /// Sets the worker-thread count [`run`](Self::run) shards members
    /// across: members are partitioned by member id (`id % threads`),
    /// each shard runs its own ready-at min-heap, and the merged
    /// output is byte-identical for every value of this knob. `0`
    /// means one thread per available core ([`resolve_threads`]);
    /// the default is 1 (fully cooperative, no threads spawned).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of members added so far.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members were added.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Drives every member to completion, interleaved along the shared
    /// virtual clock (reconstructed from each member's `now_s`): within
    /// each shard the member furthest behind in virtual time is
    /// serviced first, ties broken by rank. With
    /// [`threads`](Self::threads) > 1 the shards run concurrently on
    /// `std::thread::scope` workers; results are merged back in
    /// insertion order, so the output is identical for any thread
    /// count. Under [`arbitration`](Self::arbitration), shards
    /// additionally rendezvous at every window-boundary round (module
    /// docs).
    ///
    /// # Panics
    /// Panics if a [`tie_break`](Self::tie_break) order was given with
    /// the wrong length, if a backend reports a non-finite time, or if
    /// an arbitration budget is non-positive, smaller than the sum of
    /// member floors (the invariants would be unsatisfiable), or a
    /// [`FleetPolicy`] returns invalid grants.
    pub fn run(self) -> FleetResult {
        let n = self.members.len();
        let ranks = match self.tie_break {
            Some(order) => {
                assert_eq!(
                    order.len(),
                    n,
                    "Fleet::tie_break: order must rank every member"
                );
                order
            }
            None => (0..n).collect(),
        };
        let shards_n = resolve_threads(self.threads).min(n.max(1));

        let meta = self.meta;
        let arb = self.arbitration.map(|(budget, policy)| {
            assert!(budget > 0.0, "Fleet::arbitration: budget must be positive");
            let floors: f64 = meta.iter().map(|m| m.floor).sum();
            assert!(
                floors <= budget,
                "Fleet::arbitration: member floors sum to {floors} cores, exceeding the \
                 {budget}-core budget — the floor and budget invariants would be unsatisfiable"
            );
            ArbShared {
                budget,
                meta,
                state: Mutex::new(ArbState {
                    telemetry: FleetArbitration {
                        policy: policy.name().to_string(),
                        budget,
                        rounds: 0,
                        contended_rounds: 0,
                        members: vec![MemberArbitration::default(); n],
                    },
                    policy,
                    live_shards: shards_n,
                    waiting: 0,
                    generation: 0,
                    round: 0,
                    proposals: vec![None; n],
                    events: vec![None; n],
                }),
                cv: Condvar::new(),
            }
        });

        // Partition by member id: shard k owns members i ≡ k (mod
        // shards_n). The partition depends only on ids and the resolved
        // thread count — never on timing — and per-member results are
        // schedule-invariant, so any partition yields the same output.
        // Telemetry injection happens here, single-threaded and in
        // insertion order, so registration order (and thus any
        // registration panic) is deterministic too.
        let hub = self.telemetry;
        let events = self.events;
        let mut shards: Vec<Vec<Member>> = (0..shards_n).map(|_| Vec::new()).collect();
        for (idx, (name, mut driver)) in self.members.into_iter().enumerate() {
            if arb.is_some() {
                driver.set_propose_mode();
            }
            if let Some(hub) = &hub {
                let mut tel = LoopTelemetry::new(hub, &name);
                if let Some(sink) = &events {
                    tel = tel.with_events(sink.clone());
                }
                driver.set_telemetry(tel);
            }
            shards[idx % shards_n].push(Member {
                idx,
                rank: ranks[idx],
                name,
                driver,
            });
        }
        let shard_tel: Vec<Option<ShardTelemetry>> = (0..shards_n)
            .map(|s| hub.as_ref().map(|h| ShardTelemetry::new(h, s)))
            .collect();

        let mut results: Vec<Option<FleetRun>> = (0..n).map(|_| None).collect();
        let mut polls = 0u64;
        let arb_ref = arb.as_ref();
        let pace = self.pace;
        let shards = shards.into_iter().zip(shard_tel);
        let outcomes: Vec<_> = if shards_n <= 1 {
            // Single-threaded: run the one shard inline (the barrier
            // degenerates to "every arrival is the leader").
            shards
                .map(|(shard, tel)| run_shard(shard, arb_ref, pace, tel))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .map(|(shard, tel)| scope.spawn(move || run_shard(shard, arb_ref, pace, tel)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet shard worker panicked"))
                    .collect()
            })
        };
        for (runs, shard_polls) in outcomes {
            polls += shard_polls;
            for (idx, run) in runs {
                results[idx] = Some(run);
            }
        }

        FleetResult {
            runs: results
                .into_iter()
                .map(|r| r.expect("every member completes"))
                .collect(),
            polls,
            arbitration: arb.map(|shared| {
                shared
                    .state
                    .into_inner()
                    .expect("arbitration state poisoned")
                    .telemetry
            }),
        }
    }
}

/// Everything the arbitration barrier shares across shards. Borrowed
/// (not `Arc`ed) into the scoped workers.
struct ArbShared {
    budget: f64,
    /// Per-member arbitration metadata, fleet insertion order.
    meta: Vec<ArbMeta>,
    state: Mutex<ArbState>,
    cv: Condvar,
}

/// The mutable barrier state, guarded by [`ArbShared::state`].
struct ArbState {
    policy: Box<dyn FleetPolicy>,
    /// Shards still participating (a shard deregisters when all its
    /// members finished).
    live_shards: usize,
    /// Shards that have arrived at the current round's barrier.
    waiting: usize,
    /// Bumped once per completed round; sleeping shards wake on it.
    generation: u64,
    /// Next round index.
    round: usize,
    /// This round's proposed totals, fleet-idx indexed (`None` =
    /// member finished, not proposing).
    proposals: Vec<Option<f64>>,
    /// This round's grants, fleet-idx indexed; each shard `take`s its
    /// own members' events under the lock before resuming.
    events: Vec<Option<ArbitrationEvent>>,
    telemetry: FleetArbitration,
}

/// Round-leader duty, run by whichever shard finds that every live
/// shard has arrived (the last to [`rendezvous`], or one that
/// [`deregister`]s while the rest wait): resolves the round and wakes
/// the waiters. Returns whether it led. Caller holds the state lock.
fn lead_if_all_arrived(shared: &ArbShared, state: &mut ArbState) -> bool {
    let all_arrived = state.waiting > 0 && state.waiting == state.live_shards;
    if all_arrived {
        run_round(state, shared.budget, &shared.meta);
        state.waiting = 0;
        state.generation += 1;
        shared.cv.notify_all();
    }
    all_arrived
}

/// Assembles this round's requests in pinned fleet order, runs the
/// policy, validates and records the grants.
fn run_round(state: &mut ArbState, budget: f64, meta: &[ArbMeta]) {
    let requests: Vec<ArbitrationRequest> = state
        .proposals
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            p.map(|proposed| ArbitrationRequest {
                member: i,
                priority: meta[i].priority,
                weight: meta[i].weight,
                floor: meta[i].floor,
                proposed,
            })
        })
        .collect();
    let mut grants = state.policy.arbitrate(budget, &requests);
    assert_eq!(
        grants.len(),
        requests.len(),
        "FleetPolicy `{}`: must return one grant per request",
        state.policy.name()
    );
    let fleet_demand: f64 = requests.iter().map(|r| r.proposed).sum();
    for (g, r) in grants.iter_mut().zip(&requests) {
        assert!(
            g.is_finite(),
            "FleetPolicy `{}`: non-finite grant for member {}",
            state.policy.name(),
            r.member
        );
        // Granting more than proposed is meaningless; clamp rather
        // than burden every policy with the check.
        *g = g.min(r.proposed);
        assert!(
            *g >= r.effective_floor() - 1e-9,
            "FleetPolicy `{}`: member {} granted {} below its effective floor {}",
            state.policy.name(),
            r.member,
            g,
            r.effective_floor()
        );
    }
    let fleet_granted: f64 = grants.iter().sum();
    if state.policy.enforces_budget() {
        assert!(
            fleet_granted <= budget + 1e-9,
            "FleetPolicy `{}`: granted {fleet_granted} cores exceeds the {budget}-core budget",
            state.policy.name()
        );
    }
    let mut contended = false;
    for (g, r) in grants.iter().zip(&requests) {
        let ev = ArbitrationEvent {
            round: state.round,
            budget,
            proposed: r.proposed,
            granted: *g,
            fleet_demand,
            fleet_granted,
        };
        contended |= ev.cut();
        let m = &mut state.telemetry.members[r.member];
        m.rounds += 1;
        m.cuts += ev.cut() as usize;
        m.proposed_sum += r.proposed;
        m.granted_sum += *g;
        state.events[r.member] = Some(ev);
    }
    state.telemetry.rounds += 1;
    state.telemetry.contended_rounds += contended as usize;
    state.round += 1;
    for p in state.proposals.iter_mut() {
        *p = None;
    }
}

/// Two-phase collect/grant rendezvous: deposits this shard's proposals
/// (`(fleet_idx, proposed_total)` pairs), blocks until the round
/// resolves (the last shard to arrive is the leader and runs
/// [`run_round`]), and returns this shard's grants in proposal order.
fn rendezvous(shared: &ArbShared, proposals: &[(usize, f64)]) -> Vec<ArbitrationEvent> {
    let mut state = shared.state.lock().expect("arbitration state poisoned");
    for &(idx, p) in proposals {
        state.proposals[idx] = Some(p);
    }
    state.waiting += 1;
    if !lead_if_all_arrived(shared, &mut state) {
        let gen = state.generation;
        while state.generation == gen {
            state = shared.cv.wait(state).expect("arbitration state poisoned");
        }
    }
    // Read own grants under the same lock acquisition that observed
    // the new generation — no shard can start (and overwrite) the next
    // round before every waiter has collected its events, because the
    // next leader needs `waiting == live_shards` again.
    proposals
        .iter()
        .map(|&(idx, _)| {
            state.events[idx]
                .take()
                .expect("arbitration round granted every proposer")
        })
        .collect()
}

/// Removes a finished shard from the barrier. If the remaining shards
/// are all already waiting, the departing shard runs the round on
/// their behalf (they can no longer be joined by anyone else).
fn deregister(shared: &ArbShared) {
    let mut state = shared.state.lock().expect("arbitration state poisoned");
    state.live_shards -= 1;
    lead_if_all_arrived(shared, &mut state);
}

/// One shard's scheduler state. Local indices are positions in
/// `members`; a retired member leaves `None` behind so they stay
/// stable.
struct Shard {
    members: Vec<Option<Member>>,
    heap: BinaryHeap<Slot>,
    /// Finished runs, keyed by fleet-wide insertion index.
    out: Vec<(usize, FleetRun)>,
}

impl Shard {
    fn member(&mut self, local: usize) -> &mut Member {
        self.members[local]
            .as_mut()
            .expect("retired members leave the heap")
    }

    /// Queues member `local` for service at `ready_at`.
    fn requeue(&mut self, local: usize, ready_at: f64) {
        let m = self.member(local);
        assert!(
            ready_at.is_finite(),
            "member {} reports non-finite time",
            m.idx
        );
        let rank = m.rank;
        self.heap.push(Slot {
            ready_at,
            rank,
            idx: local,
        });
    }

    /// Member `local` is between intervals: retires it if its run is
    /// complete, else queues it at its own clock.
    fn settle(&mut self, local: usize) {
        let driver = &self.member(local).driver;
        let now_s = driver.now_s();
        if !driver.done() {
            return self.requeue(local, now_s);
        }
        let m = self.members[local]
            .take()
            .expect("retired members leave the heap");
        self.out.push((
            m.idx,
            FleetRun {
                name: m.name,
                result: m.driver.finish(),
                end_s: now_s,
            },
        ));
    }
}

/// Drives one shard's members to completion over its own ready-at
/// min-heap; under arbitration (`arb` set) the shard parks proposing
/// members and rendezvouses with the other shards at every round.
/// Under [`Clock::Wall`] the shard sleeps each popped member's
/// ready-at gap away before polling it. Returns each member's run
/// keyed by its fleet-wide insertion index, plus the shard's poll
/// count.
fn run_shard(
    members: Vec<Member>,
    arb: Option<&ArbShared>,
    pace: Clock,
    tel: Option<ShardTelemetry>,
) -> (Vec<(usize, FleetRun)>, u64) {
    let n = members.len();
    let mut shard = Shard {
        members: members.into_iter().map(Some).collect(),
        heap: BinaryHeap::with_capacity(n),
        out: Vec::with_capacity(n),
    };
    for local in 0..n {
        shard.settle(local);
    }

    let mut polls = 0u64;
    // Members parked at the barrier (local indices), in park order.
    let mut parked: Vec<usize> = Vec::new();
    loop {
        while let Some(slot) = shard.heap.pop() {
            if let Some(t) = &tel {
                // The popped slot still counts as live in the heap.
                t.heap_depth.set(shard.heap.len() as f64 + 1.0);
                t.polls.inc();
            }
            let local = slot.idx;
            let driver = &mut shard.member(local).driver;
            if pace == Clock::Wall {
                // Live backends report wall timestamps: sleep the gap
                // to this member's ready-at away instead of having its
                // poll_window spin it down in bounded waits. Virtual
                // members are never behind their ready-at, so this
                // branch never sleeps for them.
                let gap_s = slot.ready_at - driver.now_s();
                if gap_s > 1e-4 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(gap_s));
                }
            }
            polls += 1;
            match driver.poll() {
                LoopPoll::Pending { resume_at_s } => shard.requeue(local, resume_at_s),
                LoopPoll::Logged => shard.settle(local),
                LoopPoll::Proposed => {
                    assert!(arb.is_some(), "member proposed without arbitration");
                    parked.push(local);
                }
            }
        }
        // Heap drained: every member is parked or finished.
        let Some(shared) = arb else { break };
        if parked.is_empty() {
            deregister(shared);
            break;
        }
        let proposals: Vec<(usize, f64)> = parked
            .iter()
            .map(|&local| {
                let m = shard.member(local);
                (m.idx, m.driver.proposed_total())
            })
            .collect();
        // Barrier park time is honest wall time (std::time::Instant):
        // it diagnoses shard imbalance on the host, so the modelled
        // clock is the wrong ruler. Side channel only — never fed back.
        let parked_at = tel.as_ref().map(|_| Instant::now());
        let events = rendezvous(shared, &proposals);
        if let (Some(t), Some(at)) = (&tel, parked_at) {
            t.barrier_wait.observe(at.elapsed().as_secs_f64());
            t.rounds.inc();
        }
        for (&local, ev) in parked.iter().zip(&events) {
            shard.member(local).driver.commit_granted(ev.granted, ev);
            shard.settle(local);
        }
        parked.clear();
    }
    (shard.out, polls)
}

#[cfg(test)]
mod tests {
    use super::resolve_threads;

    #[test]
    fn explicit_thread_counts_pass_through() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert_eq!(resolve_threads(64), 64);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let auto = resolve_threads(0);
        assert!(auto >= 1);
        let expected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto, expected);
    }
}
