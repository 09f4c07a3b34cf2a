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
//! ordering loops along the reconstructed shared clock, not real I/O
//! parallelism. Instead of futures + waker plumbing, each member is a
//! plain state machine: the same `Run` (loop, load, interval budget)
//! that [`Experiment::run`](crate::ExperimentBuilder::run) drives to
//! completion in one call, here polled one step at a time. A poll
//! either logs an interval or reports when the member next wants
//! service (`ready-at`, in its backend's virtual seconds), and
//! [`Fleet::run`] partitions members **by member id** (`id % threads`)
//! into shards, each shard a `pollster`-style block-on: a min-heap over
//! `(ready_at, tie_rank)` of the members that wait. The shard pops
//! whichever waiting member is furthest behind in virtual time and
//! serves it **until it waits again**: a member whose interval logged
//! is polled again at once, while its state is still in cache, and
//! leaves only when a window answers `Pending` (back into the heap at
//! its resume time), when it proposes under arbitration (parked for the
//! barrier), or when its last interval logs (retired, its backend,
//! policy and RHDb freed). Fluid, trace and DES members without early
//! checks never wait, so within a shard they complete one after
//! another, in rank order — which is what `/metrics` and the event log
//! of a simulated fleet show. One core caps a single cooperative
//! scheduler at a few hundred thousand app-intervals/sec; with
//! [`threads`](Fleet::threads) the shards run on `std::thread::scope`
//! workers and the ceiling scales with cores.
//!
//! ## Pacing is the backend's
//!
//! The executor never sleeps: it serves a member until it waits and
//! lets virtual time run as fast as the backends measure.
//! A live backend (`pema-live`) does its own waiting inside
//! [`poll_window`](ClusterBackend::poll_window), a bounded sleep toward
//! its window boundary per call, so a fleet of live loops needs no
//! clock of its own.
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
//!    other shards, bringing its parked members' proposals — none once
//!    its members have all finished; the last shard to arrive
//!    assembles every parked member's [`ArbitrationRequest`] **in fleet
//!    insertion order** and invokes the [`FleetPolicy`] once;
//! 2. **grant** — every shard wakes, reads its members' grants, commits
//!    them (an under-grant scales the member's per-service allocation
//!    proportionally), and resumes polling.
//!
//! Every shard meets every round, so the barrier always waits for all
//! of them. A round in which no shard proposes means every member has
//! finished: its leader runs no policy and counts no round, and every
//! shard leaves. That empty round is the barrier's only exit.
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

/// A member's run with its policy and backend boxed: one concrete type
/// whatever the member runs, so one heap holds every member. Both
/// boxes are `Send`, so shards can run on scoped worker threads.
type MemberRun = Run<Box<dyn Policy + Send>, Box<dyn ClusterBackend + Send>>;

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

/// One fleet member: its boxed run plus everything needed to schedule
/// it and report it back under its insertion index.
struct Member {
    /// Insertion index in the fleet (the member id the partition and
    /// the result merge key on).
    idx: usize,
    /// Tie-break rank among same-instant members of the same shard
    /// (the insertion index unless [`Fleet::tie_break`] sets it).
    rank: usize,
    name: String,
    arb: ArbMeta,
    /// One heap block per member, so the member tables stay
    /// pointer-sized.
    run: Box<MemberRun>,
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

/// The fleet under construction — see the module docs. Add fully
/// described members (policy, backend, load, and iteration count all
/// set), optionally an [`arbitration`](Self::arbitration) budget, then
/// [`run`](Self::run).
#[derive(Default)]
pub struct Fleet {
    members: Vec<Member>,
    tie_break: Option<Vec<usize>>,
    /// Worker threads for [`run`](Self::run); 0 = one per core.
    /// Defaults to 1 (the PR 5 single-threaded cooperative scheduler).
    threads: usize,
    arbitration: Option<(f64, Box<dyn FleetPolicy>)>,
    telemetry: Option<Telemetry>,
    events: Option<EventSink>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self {
            members: Vec::new(),
            tie_break: None,
            threads: 1,
            arbitration: None,
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

    /// Additionally streams one JSONL event per committed interval to
    /// `sink`. Only meaningful together with
    /// [`telemetry`](Self::telemetry). A shard writes a member's
    /// intervals in one run until the member waits, so a simulated
    /// member's lines are contiguous per shard; across shards the
    /// lines interleave in any order.
    pub fn events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Adds a member: a [`MemberSpec`], i.e. any [`ExperimentBuilder`];
    /// unnamed members are auto-named `app<i>`. Its policy and backend
    /// are boxed, so members of any types share one heap. Members must
    /// be `Send` — every shipped policy and backend is, and
    /// observers/workloads share state through `Arc<Mutex<…>>` — so
    /// shards can run on worker threads.
    ///
    /// # Panics
    /// Panics unless the spec carries an app, a load (`.rps(..)` /
    /// `.workload(..)`) and a positive `.iters(..)` — the fleet needs
    /// the complete run description up front.
    pub fn member<P, B>(mut self, spec: MemberSpec<P, B>) -> Self
    where
        P: Policy + Send + 'static,
        B: IntoBackend,
        B::Backend: Send + 'static,
    {
        let ExperimentBuilder {
            policy,
            backend,
            run: mut desc,
        } = spec;
        let app = desc
            .app
            .as_ref()
            .expect("Experiment::builder(): call .app(..) before .build()/.run()");
        let backend: Box<dyn ClusterBackend + Send> =
            Box::new(backend.into_backend(app, &desc.cfg));
        let policy: Box<dyn Policy + Send> = Box::new(policy);
        let idx = self.members.len();
        let name = desc.name.take().unwrap_or_else(|| format!("app{idx}"));
        let arb = desc.arb;
        let run = ExperimentBuilder {
            policy,
            backend,
            run: desc,
        }
        .into_run();
        self.members.push(Member {
            idx,
            rank: idx,
            name,
            arb,
            run: Box::new(run),
        });
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

    /// Overrides the tie-break priority used when several waiting
    /// members of the same shard are ready at the same virtual instant:
    /// `order[i]` is member `i`'s rank, lower ranks first (default:
    /// insertion order). Members that never wait start in this order
    /// and each runs to completion before the next. Per-member results
    /// are scheduling-invariant — this knob exists so the property
    /// tests can *prove* it, and so experiments can study scheduling
    /// artifacts if any ever appear.
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

    /// Drives every member to completion. Members wait along the
    /// shared virtual clock (reconstructed from each member's `now_s`):
    /// within each shard the waiting member furthest behind in virtual
    /// time is served first, ties broken by rank, and a member is
    /// served until it waits again, proposes, or finishes. With
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
        let mut members = self.members;
        let n = members.len();
        if let Some(order) = self.tie_break {
            assert_eq!(
                order.len(),
                n,
                "Fleet::tie_break: order must rank every member"
            );
            for (m, rank) in members.iter_mut().zip(order) {
                m.rank = rank;
            }
        }
        let shards_n = resolve_threads(self.threads).min(n.max(1));

        let arb = self.arbitration.map(|(budget, policy)| {
            assert!(budget > 0.0, "Fleet::arbitration: budget must be positive");
            let meta: Vec<ArbMeta> = members.iter().map(|m| m.arb).collect();
            let floors: f64 = meta.iter().map(|m| m.floor).sum();
            assert!(
                floors <= budget,
                "Fleet::arbitration: member floors sum to {floors} cores, exceeding the \
                 {budget}-core budget — the floor and budget invariants would be unsatisfiable"
            );
            ArbShared {
                budget,
                meta,
                shards: shards_n,
                state: Mutex::new(ArbState {
                    telemetry: FleetArbitration {
                        policy: policy.name().to_string(),
                        budget,
                        rounds: 0,
                        contended_rounds: 0,
                        members: vec![MemberArbitration::default(); n],
                    },
                    policy,
                    waiting: 0,
                    generation: 0,
                    done: false,
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
        for mut m in members {
            let control = &mut m.run.control;
            if arb.is_some() {
                control.set_propose_mode();
            }
            if let Some(hub) = &hub {
                let mut tel = LoopTelemetry::new(hub, &m.name);
                if let Some(sink) = &events {
                    tel = tel.with_events(sink.clone());
                }
                control.set_telemetry(tel);
            }
            shards[m.idx % shards_n].push(m);
        }
        let shard_tel: Vec<Option<ShardTelemetry>> = (0..shards_n)
            .map(|s| hub.as_ref().map(|h| ShardTelemetry::new(h, s)))
            .collect();

        let mut results: Vec<Option<FleetRun>> = (0..n).map(|_| None).collect();
        let mut polls = 0u64;
        let arb_ref = arb.as_ref();
        let shards = shards.into_iter().zip(shard_tel);
        let outcomes: Vec<_> = if shards_n <= 1 {
            // Single-threaded: run the one shard inline (the barrier
            // degenerates to "every arrival is the leader").
            shards
                .map(|(shard, tel)| run_shard(shard, arb_ref, tel))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .map(|(shard, tel)| scope.spawn(move || run_shard(shard, arb_ref, tel)))
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
    /// Shards meeting at every round: all of them.
    shards: usize,
    state: Mutex<ArbState>,
    cv: Condvar,
}

/// The mutable barrier state, guarded by [`ArbShared::state`].
struct ArbState {
    policy: Box<dyn FleetPolicy>,
    /// Shards that have arrived at the current round's barrier.
    waiting: usize,
    /// Bumped once per resolved round; sleeping shards wake on it.
    generation: u64,
    /// Set by the round in which no shard proposed: the fleet is done.
    done: bool,
    /// This round's proposed totals, fleet-idx indexed (`None` =
    /// member finished, not proposing).
    proposals: Vec<Option<f64>>,
    /// This round's grants, fleet-idx indexed; each shard `take`s its
    /// own members' events under the lock before resuming.
    events: Vec<Option<ArbitrationEvent>>,
    telemetry: FleetArbitration,
}

/// Assembles this round's requests in pinned fleet order (taking the
/// proposals), runs the policy, validates and records the grants.
/// Returns `false`, having run no policy and counted no round, when no
/// member proposed.
fn run_round(state: &mut ArbState, budget: f64, meta: &[ArbMeta]) -> bool {
    let requests: Vec<ArbitrationRequest> = state
        .proposals
        .iter_mut()
        .enumerate()
        .filter_map(|(i, p)| {
            p.take().map(|proposed| ArbitrationRequest {
                member: i,
                priority: meta[i].priority,
                weight: meta[i].weight,
                floor: meta[i].floor,
                proposed,
            })
        })
        .collect();
    if requests.is_empty() {
        return false;
    }
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
            round: state.telemetry.rounds,
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
    true
}

/// Two-phase collect/grant rendezvous, entered by every shard every
/// round: deposits this shard's proposals (`(fleet_idx,
/// proposed_total)` pairs, possibly none) and blocks until every shard
/// has arrived. The last to arrive leads: it runs [`run_round`] and
/// wakes the others. Returns this shard's grants in proposal order, or
/// `None` once a round brought no proposals at all — the fleet is done.
fn rendezvous(shared: &ArbShared, proposals: &[(usize, f64)]) -> Option<Vec<ArbitrationEvent>> {
    let mut state = shared.state.lock().expect("arbitration state poisoned");
    for &(idx, p) in proposals {
        state.proposals[idx] = Some(p);
    }
    state.waiting += 1;
    if state.waiting == shared.shards {
        let proposed = run_round(&mut state, shared.budget, &shared.meta);
        state.done = !proposed;
        state.waiting = 0;
        state.generation += 1;
        shared.cv.notify_all();
    } else {
        let gen = state.generation;
        while state.generation == gen {
            state = shared.cv.wait(state).expect("arbitration state poisoned");
        }
    }
    if state.done {
        return None;
    }
    // Read own grants under the same lock acquisition that observed
    // the new generation — no shard can start (and overwrite) the next
    // round before every waiter has collected its events, because the
    // next leader needs every shard to arrive again.
    Some(
        proposals
            .iter()
            .map(|&(idx, _)| {
                state.events[idx]
                    .take()
                    .expect("arbitration round granted every proposer")
            })
            .collect(),
    )
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

    /// Panics unless `t`, a time member `local` reported, is finite.
    fn check_time(&mut self, local: usize, t: f64) {
        assert!(
            t.is_finite(),
            "member {} reports non-finite time",
            self.member(local).idx
        );
    }

    /// Queues member `local` for service at `ready_at`.
    fn requeue(&mut self, local: usize, ready_at: f64) {
        self.check_time(local, ready_at);
        let rank = self.member(local).rank;
        self.heap.push(Slot {
            ready_at,
            rank,
            idx: local,
        });
    }

    /// Member `local` is between intervals. Returns its clock if it
    /// has intervals left; else retires it, freeing its backend,
    /// policy and RHDb and keeping only its log, and returns `None`.
    fn settle(&mut self, local: usize) -> Option<f64> {
        let run = &self.member(local).run;
        let now_s = run.control.backend.now_s();
        if !run.done() {
            return Some(now_s);
        }
        let m = self.members[local]
            .take()
            .expect("retired members leave the heap");
        self.out.push((
            m.idx,
            FleetRun {
                name: m.name,
                result: m.run.control.into_result(),
                end_s: now_s,
            },
        ));
        None
    }

    /// Settles member `local` and queues it at its own clock unless it
    /// was retired.
    fn settle_and_queue(&mut self, local: usize) {
        if let Some(now_s) = self.settle(local) {
            self.requeue(local, now_s);
        }
    }
}

/// Drives one shard's members to completion over its own ready-at
/// min-heap, serving each popped member until it waits; under
/// arbitration (`arb` set) the shard parks proposing
/// members and rendezvouses with the other shards every round, until a
/// round in which no shard proposes. Returns each member's run keyed by
/// its fleet-wide insertion index, plus the shard's poll count.
fn run_shard(
    members: Vec<Member>,
    arb: Option<&ArbShared>,
    tel: Option<ShardTelemetry>,
) -> (Vec<(usize, FleetRun)>, u64) {
    let n = members.len();
    let mut shard = Shard {
        members: members.into_iter().map(Some).collect(),
        heap: BinaryHeap::with_capacity(n),
        out: Vec::with_capacity(n),
    };
    for local in 0..n {
        shard.settle_and_queue(local);
    }

    let mut polls = 0u64;
    // Members parked at the barrier (local indices), in park order.
    let mut parked: Vec<usize> = Vec::new();
    loop {
        while let Some(slot) = shard.heap.pop() {
            let local = slot.idx;
            if let Some(t) = &tel {
                t.heap_depth.set(shard.heap.len() as f64);
            }
            // Serve the member until it waits: members share nothing,
            // so one whose interval logged is polled again at once,
            // while its state is still in cache. It leaves on
            // `Pending` (requeued at its resume time), on `Proposed`
            // (parked for the barrier) or when its last interval logs.
            loop {
                if let Some(t) = &tel {
                    t.polls.inc();
                }
                polls += 1;
                match shard.member(local).run.poll() {
                    LoopPoll::Pending { resume_at_s } => {
                        shard.requeue(local, resume_at_s);
                        break;
                    }
                    LoopPoll::Logged => match shard.settle(local) {
                        Some(now_s) => shard.check_time(local, now_s),
                        None => break,
                    },
                    LoopPoll::Proposed => {
                        assert!(arb.is_some(), "member proposed without arbitration");
                        parked.push(local);
                        break;
                    }
                }
            }
        }
        if let Some(t) = &tel {
            t.heap_depth.set(shard.heap.len() as f64);
        }
        // Heap drained: every member is parked or finished.
        let Some(shared) = arb else { break };
        let proposals: Vec<(usize, f64)> = parked
            .iter()
            .map(|&local| {
                let m = shard.member(local);
                let proposed = m
                    .run
                    .control
                    .staged_proposed_total()
                    .expect("a parked member has a staged decision");
                (m.idx, proposed)
            })
            .collect();
        // Barrier park time is honest wall time (std::time::Instant):
        // it diagnoses shard imbalance on the host, so the modelled
        // clock is the wrong ruler. Side channel only — never fed back,
        // and kept only for rounds this shard brought proposals to.
        let parked_at = tel
            .as_ref()
            .filter(|_| !parked.is_empty())
            .map(|t| (t, Instant::now()));
        let Some(events) = rendezvous(shared, &proposals) else {
            break;
        };
        if let Some((t, at)) = parked_at {
            t.barrier_wait.observe(at.elapsed().as_secs_f64());
            t.rounds.inc();
        }
        for (&local, ev) in parked.iter().zip(&events) {
            shard
                .member(local)
                .run
                .control
                .commit_granted(ev.granted, ev);
            shard.settle_and_queue(local);
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
