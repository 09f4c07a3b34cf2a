//! Self-instrumentation of the control plane: where the controller's
//! *own* behavior — phase timings, interval counts, scheduler activity
//! — is measured and handed to a [`pema_telemetry::Telemetry`]
//! registry.
//!
//! Two instruments live here:
//!
//! * [`LoopTelemetry`] — per-member counters plus phase-span histograms
//!   for one [`ControlLoop`](crate::ControlLoop): how long each control
//!   interval spent measuring, deciding, parked at the arbitration
//!   barrier, and committing. Attached via
//!   [`ControlLoop::set_telemetry`](crate::ControlLoop::set_telemetry),
//!   [`ExperimentBuilder::telemetry`](crate::ExperimentBuilder::telemetry),
//!   or fleet-wide via [`Fleet::telemetry`](crate::Fleet::telemetry).
//! * `ShardTelemetry` (crate-private, attached by the executor) —
//!   per-shard metrics for
//!   [`Fleet`](crate::Fleet) workers: polls serviced, ready-heap depth,
//!   arbitration rounds, and *wall-clock* barrier park time.
//!
//! ## Determinism contract
//!
//! Telemetry is a pure side channel: nothing read from the registry
//! ever flows back into a decision, a CSV, or a trace, so a run with
//! telemetry attached is byte-identical to one without (pinned by
//! `tests/telemetry_invariance.rs`). Phase spans are measured on the
//! *backend's* clock ([`ClusterBackend::now_s`](crate::ClusterBackend::now_s)) — virtual seconds for
//! the DES/fluid backends, the live `TimeSource` for a real cluster —
//! so a deterministic run reports deterministic span values (a measure
//! span is exactly `warmup_s + interval_s` on a virtual backend). The
//! one exception is `ShardTelemetry`'s barrier park time, which is
//! honest wall time from [`std::time::Instant`]: it describes the host,
//! not the modelled cluster, and exists to diagnose shard imbalance.
//!
//! ## Cardinality
//!
//! Counters are labelled by member name (one series per application
//! under control); phase histograms are labelled by phase *only* — a
//! 10 000-member fleet produces four histogram series, not 40 000.

use crate::control::IterationLog;
use pema_telemetry::{
    Counter, EventField, EventSink, Gauge, Histogram, Telemetry, DEFAULT_SECONDS_BUCKETS,
};

/// Per-loop instrument: interval/violation counters (labelled by
/// member) and phase-span histograms (labelled by phase), with an
/// optional JSONL [`EventSink`] receiving one `interval` event per
/// committed control interval.
pub struct LoopTelemetry {
    member: String,
    intervals: Counter,
    violations: Counter,
    early_aborts: Counter,
    measure: Histogram,
    decide: Histogram,
    arb_wait: Histogram,
    commit: Histogram,
    events: Option<EventSink>,
}

impl LoopTelemetry {
    /// Registers this member's instruments on `hub`. Metrics:
    /// `pema_ctrl_intervals_total`, `pema_ctrl_slo_violations_total`,
    /// `pema_ctrl_early_aborts_total` (all `{member=…}`) and
    /// `pema_ctrl_phase_seconds{phase=…}` histograms shared across
    /// members.
    pub fn new(hub: &Telemetry, member: &str) -> Self {
        let phase = |p: &str| {
            hub.histogram(
                "pema_ctrl_phase_seconds",
                "Control-interval phase durations on the backend clock, by phase.",
                &[("phase", p)],
                DEFAULT_SECONDS_BUCKETS,
            )
        };
        Self {
            member: member.to_string(),
            intervals: hub.counter(
                "pema_ctrl_intervals_total",
                "Control intervals committed (decision applied and logged).",
                &[("member", member)],
            ),
            violations: hub.counter(
                "pema_ctrl_slo_violations_total",
                "Committed control intervals that violated the SLO.",
                &[("member", member)],
            ),
            early_aborts: hub.counter(
                "pema_ctrl_early_aborts_total",
                "Monitoring windows cancelled by a §6 early check.",
                &[("member", member)],
            ),
            measure: phase("measure"),
            decide: phase("decide"),
            arb_wait: phase("arbitrate_wait"),
            commit: phase("commit"),
            events: None,
        }
    }

    /// Additionally emits one `interval` JSONL event per committed
    /// interval to `sink`.
    pub fn with_events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Records one committed interval: counters, the four phase spans,
    /// and (when a sink is attached) the `interval` event. Called from
    /// the loop's commit path only.
    pub(crate) fn record_interval(
        &self,
        entry: &IterationLog,
        aborted: bool,
        spans: &IntervalSpans,
    ) {
        self.intervals.inc();
        if entry.violated {
            self.violations.inc();
        }
        if aborted {
            self.early_aborts.inc();
        }
        self.measure.observe(spans.measure_s);
        self.decide.observe(spans.decide_s);
        if let Some(w) = spans.arb_wait_s {
            self.arb_wait.observe(w);
        }
        self.commit.observe(spans.commit_s);
        if let Some(sink) = &self.events {
            sink.emit(
                "interval",
                entry.time_s,
                &[
                    ("member", EventField::Str(&self.member)),
                    ("iter", EventField::U64(entry.iter as u64)),
                    ("rps", EventField::F64(entry.rps)),
                    ("p95_ms", EventField::F64(entry.p95_ms)),
                    ("violated", EventField::U64(entry.violated as u64)),
                    ("action", EventField::Str(&entry.action)),
                    ("measure_s", EventField::F64(spans.measure_s)),
                    ("decide_s", EventField::F64(spans.decide_s)),
                    (
                        "arb_wait_s",
                        EventField::F64(spans.arb_wait_s.unwrap_or(0.0)),
                    ),
                    ("commit_s", EventField::F64(spans.commit_s)),
                ],
            );
        }
    }
}

/// The four phase spans of one committed interval, backend-clock
/// seconds. `arb_wait_s` is `None` outside fleet arbitration.
pub(crate) struct IntervalSpans {
    pub measure_s: f64,
    pub decide_s: f64,
    pub arb_wait_s: Option<f64>,
    pub commit_s: f64,
}

/// Per-shard instrument for the fleet executor: polls serviced, heap
/// depth, arbitration rounds, and wall-clock barrier park time (the
/// one deliberately non-deterministic metric — see the module docs).
pub(crate) struct ShardTelemetry {
    pub polls: Counter,
    pub rounds: Counter,
    pub barrier_wait: Histogram,
    pub heap_depth: Gauge,
}

impl ShardTelemetry {
    pub(crate) fn new(hub: &Telemetry, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard)];
        Self {
            polls: hub.counter(
                "pema_fleet_polls_total",
                "Member services performed by this fleet shard.",
                labels,
            ),
            rounds: hub.counter(
                "pema_fleet_arb_rounds_total",
                "Arbitration rounds this shard participated in.",
                labels,
            ),
            barrier_wait: hub.histogram(
                "pema_fleet_barrier_wait_seconds",
                "Wall-clock time this shard spent parked at the arbitration \
                 rendezvous (host diagnostics; not on the modelled clock).",
                labels,
                DEFAULT_SECONDS_BUCKETS,
            ),
            heap_depth: hub.gauge(
                "pema_fleet_heap_depth",
                "Live members in this shard's ready-at heap.",
                labels,
            ),
        }
    }
}
