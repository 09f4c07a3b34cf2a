//! Self-telemetry for the PEMA control plane.
//!
//! The paper's controller is built *on* observability — Prometheus
//! scrape, decide, PATCH — yet until this crate the controller itself
//! was a black box. `pema-telemetry` turns the same machinery inward:
//!
//! * [`Telemetry`] — a `Send + Sync` shared registry of counters,
//!   gauges, and histograms, generalizing the handle-based design of
//!   `pema-metrics::registry` with labels, HELP/TYPE metadata, and a
//!   lock-free (atomic) hot path. Handles are self-contained: an
//!   instrumented component holds a [`Counter`]/[`Gauge`]/[`Histogram`]
//!   and never touches the registry again.
//! * [`render`](Telemetry::render) — Prometheus text exposition format
//!   0.0.4 with deterministic series ordering and label escaping.
//! * [`http`] — the workspace's one hand-rolled `std::net` HTTP/1.1
//!   stack (no tokio): the blocking client `pema-live` scrapes and
//!   PATCHes with, and the small threaded server that both
//!   [`MetricsServer`] (`GET /metrics`) and `pema-live`'s `FakeCluster`
//!   are handlers on.
//! * [`lint()`](lint::lint) — a hand-rolled exposition-format lint (HELP/TYPE
//!   presence, label escaping, counter monotonicity across scrapes,
//!   histogram bucket cumulativity) used by tests and CI smoke.
//! * [`EventSink`] — an optional structured JSONL event log built on
//!   the same hand-rolled JSON writer the trace subsystem uses
//!   ([`json`] lives here now; `pema-trace` re-exports it).
//!
//! **Determinism contract.** Telemetry is a pure side channel: nothing
//! read from the registry may flow back into control decisions, CSVs,
//! or traces. Components record durations using the clock they already
//! run on (virtual sim/fluid time, or the live `TimeSource` seam), so
//! deterministic runs produce deterministic span values — and enabling
//! telemetry leaves every golden byte-identical.

pub mod events;
pub mod http;
pub mod json;
pub mod lint;
pub mod registry;
mod ryu;
pub mod server;

pub use events::{EventField, EventSink};
pub use lint::{lint, LintReport};
pub use registry::{Counter, Gauge, Histogram, MetricKind, Telemetry};
pub use server::MetricsServer;
