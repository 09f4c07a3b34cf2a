//! The benchmark's metrics by name: what `BENCHMARK.json` declares and
//! what every run must print. `check` fails when the two differ.

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports all of them
/// from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("control_intervals_per_s", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("pema_best_cpu_vs_rule_pct", "%", Lower),
    m("slo_met_pct", "%", Higher),
];

/// Single layers' metrics, from the traced run. A workload reports 0
/// for a layer it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.engine.busy_s", "s", Lower),
    m("sim.engine.busy_share_pct", "%", Higher),
    m("sim.engine.events", "count", Lower),
    m("sim.engine.ns_per_event", "ns", Lower),
    m("sim.engine.ns_per_event_120svc", "ns", Lower),
    m("metrics.histogram.record_ns", "ns", Lower),
    m("sim.fluid.window_ns", "ns", Lower),
    m("sim.fluid.evaluate_ns", "ns", Lower),
    m("core.controller.decide_ns", "ns", Lower),
    m("baselines.rule.decide_ns", "ns", Lower),
    m("control.loop.self_ns_per_interval", "ns", Lower),
    m("control.fleet.self_ns_per_interval", "ns", Lower),
    m("control.fleet.setup_us_per_member", "us", Lower),
    m("control.fleet.rss_kb_per_member", "KB", Lower),
    m("control.fleet.thread_speedup", "ratio", Higher),
    m("control.arbitration.arbitrate_us_per_round", "us", Lower),
    m("control.arbitration.rounds", "count", Lower),
    m("control.arbitration.cuts", "count", Lower),
    m("control.arbitration.grant_ratio", "ratio", Higher),
    m("control.arbitration.barrier_overhead_pct", "%", Lower),
    m("live.backend.measure_ms", "ms", Lower),
    m("live.backend.apply_ms", "ms", Lower),
    m("live.http.requests", "count", Lower),
    m("live.kube.patches", "count", Lower),
    m("live.backend.retries", "count", Lower),
    m("live.backend.degraded_windows", "count", Lower),
    m("live.http.request_us", "us", Lower),
    m("live.prom.parse_matrix_us", "us", Lower),
    m("live.kube.patch_us", "us", Lower),
    m("live.interval_samples", "count", Higher),
    m("live.interval_ms_p50", "ms", Lower),
    m("live.interval_ms_p95", "ms", Lower),
    m("trace.format.encode_mb_per_s", "MB/s", Higher),
    m("trace.format.decode_mb_per_s", "MB/s", Higher),
    m("trace.format.encode_ns_per_record", "ns", Lower),
    m("trace.format.decode_ns_per_record", "ns", Lower),
    m("trace.format.bytes_per_record", "bytes", Lower),
    m("trace.backend.window_ns", "ns", Lower),
    m("trace.backend.replay_intervals_per_s", "1/s", Higher),
    m("trace.recorder.observe_ns", "ns", Lower),
    m("telemetry.json.parse_mb_per_s", "MB/s", Higher),
    m("telemetry.hub.overhead_pct", "%", Lower),
    m("telemetry.registry.render_ms", "ms", Lower),
    m("telemetry.registry.exposition_bytes", "bytes", Lower),
    m("telemetry.events.emit_ns", "ns", Lower),
    m("telemetry.events.bytes_per_interval", "bytes", Lower),
    m("telemetry.server.scrapes", "count", Higher),
    m("telemetry.server.scrape_ms_p50", "ms", Lower),
    m("telemetry.server.scrape_ms_p95", "ms", Lower),
    m("telemetry.lint.lint_ms", "ms", Lower),
    m("telemetry.lint.torn_scrapes", "count", Lower),
    m("bench.scraper_late_ms_p95", "ms", Lower),
    m("bench.cpu_us_per_interval", "us", Lower),
    m("bench.trace_overhead_pct", "%", Lower),
];
