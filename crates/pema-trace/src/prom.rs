//! The Prometheus metric names and query shapes the live backend
//! (`pema-live`) scrapes.
//!
//! The paper's controller (Fig. 9) consumes three per-container CPU
//! series plus application-level latency/throughput. The scraper and
//! the `FakeCluster` that answers it in tests must agree on the series
//! names and the query shapes. This module is the single source of
//! truth: `pema_live::LiveBackend` builds its `query_range`
//! expressions with the `*_query` constructors below, and `FakeCluster`
//! routes on the `METRIC_*` names.

/// Per-container CPU limit, cores — the actuator read-back
/// (`kubectl get`-equivalent) series.
pub const METRIC_CPU_LIMIT: &str = "kube_pod_container_resource_limits";

/// Per-container cumulative CPU usage counter, seconds.
pub const METRIC_CPU_USAGE: &str = "container_cpu_usage_seconds_total";

/// Per-container cumulative CFS-throttle counter, seconds.
pub const METRIC_CPU_THROTTLED: &str = "container_cpu_cfs_throttled_seconds_total";

/// Application request-latency histogram (seconds, bucketed).
pub const METRIC_LATENCY_BUCKET: &str = "pema_request_duration_seconds_bucket";

/// Application request-latency histogram sum (seconds).
pub const METRIC_LATENCY_SUM: &str = "pema_request_duration_seconds_sum";

/// Application request-latency histogram count.
const METRIC_LATENCY_COUNT: &str = "pema_request_duration_seconds_count";

/// Application request counter.
pub const METRIC_REQUESTS: &str = "pema_requests_total";

/// Formats a range-vector selector length. Rust's shortest-round-trip
/// `Display` keeps whole-second windows in PromQL's integer form
/// (`8s`, not `8.0s`); fractional windows (only the test harness uses
/// them) carry the fraction verbatim.
fn range(range_s: f64) -> String {
    format!("{range_s}s")
}

/// Per-service CPU limits, cores: one series per `container` label.
pub fn cpu_limit_query(namespace: &str) -> String {
    format!("{METRIC_CPU_LIMIT}{{namespace=\"{namespace}\",resource=\"cpu\"}}")
}

/// Per-service CPU usage rate over the window, cores: one series per
/// `container` label. Multiplied by the window length this is the
/// window's `cpu_used_s`.
pub fn cpu_usage_query(namespace: &str, range_s: f64) -> String {
    format!(
        "rate({METRIC_CPU_USAGE}{{namespace=\"{namespace}\"}}[{}])",
        range(range_s)
    )
}

/// Per-service throttled seconds accumulated over the window: the
/// window's `throttled_s`, directly.
pub fn cpu_throttled_query(namespace: &str, range_s: f64) -> String {
    format!(
        "increase({METRIC_CPU_THROTTLED}{{namespace=\"{namespace}\"}}[{}])",
        range(range_s)
    )
}

/// Application p95 latency over the window, seconds.
pub fn p95_query(namespace: &str, range_s: f64) -> String {
    format!(
        "histogram_quantile(0.95, sum by (le) (rate({METRIC_LATENCY_BUCKET}{{namespace=\"{namespace}\"}}[{}])))",
        range(range_s)
    )
}

/// Application mean latency over the window, seconds.
pub fn mean_latency_query(namespace: &str, range_s: f64) -> String {
    let r = range(range_s);
    format!(
        "sum(rate({METRIC_LATENCY_SUM}{{namespace=\"{namespace}\"}}[{r}])) / sum(rate({METRIC_LATENCY_COUNT}{{namespace=\"{namespace}\"}}[{r}]))"
    )
}

/// Offered request rate over the window, requests/second: the
/// window's `offered_rps`.
pub fn request_rate_query(namespace: &str, range_s: f64) -> String {
    format!(
        "sum(rate({METRIC_REQUESTS}{{namespace=\"{namespace}\"}}[{}]))",
        range(range_s)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_embed_the_importer_series_names() {
        assert!(cpu_limit_query("pema").contains(METRIC_CPU_LIMIT));
        assert!(cpu_usage_query("pema", 8.0).starts_with(&format!("rate({METRIC_CPU_USAGE}")));
        assert!(cpu_throttled_query("pema", 8.0)
            .starts_with(&format!("increase({METRIC_CPU_THROTTLED}")));
        assert!(p95_query("pema", 8.0).starts_with("histogram_quantile(0.95"));
        assert!(request_rate_query("pema", 8.0).contains(METRIC_REQUESTS));
    }

    #[test]
    fn whole_second_ranges_stay_integral() {
        assert!(cpu_usage_query("pema", 8.0).contains("[8s]"));
        assert!(cpu_usage_query("pema", 2.5).contains("[2.5s]"));
    }
}
