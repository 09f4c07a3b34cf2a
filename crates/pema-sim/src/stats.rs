//! Measurement-window statistics — the observables PEMA consumes.
//!
//! One [`WindowStats`] corresponds to one scrape interval of the paper's
//! monitoring stack: end-to-end latency percentiles (Linkerd), and
//! per-service CPU usage / CFS throttling (Prometheus + cAdvisor).

/// Aggregated observations from one measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// Virtual time at window start, seconds.
    pub start_s: f64,
    /// Window length, seconds.
    pub duration_s: f64,
    /// Offered load (requests per second) during the window.
    pub offered_rps: f64,
    /// Completed requests per second (completions / duration).
    pub achieved_rps: f64,
    /// Number of completed requests recorded.
    pub completed: u64,
    /// Number of requests that arrived during the window.
    pub arrivals: u64,
    /// Mean end-to-end response time, milliseconds.
    pub mean_ms: f64,
    /// Median end-to-end response time, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile end-to-end response time, milliseconds — the
    /// paper's headline performance metric. `INFINITY` when the window
    /// saw arrivals but zero completions (deep saturation).
    pub p95_ms: f64,
    /// 99th-percentile end-to-end response time, milliseconds.
    pub p99_ms: f64,
    /// Maximum observed response time, milliseconds.
    pub max_ms: f64,
    /// Per-service observations, indexed like the allocation vector.
    pub per_service: Vec<ServiceWindowStats>,
}

impl WindowStats {
    /// Total CPU cores allocated during this window.
    pub fn total_alloc(&self) -> f64 {
        self.per_service.iter().map(|s| s.alloc_cores).sum()
    }

    /// True if the window's p95 violated the given SLO (milliseconds).
    pub fn violates(&self, slo_ms: f64) -> bool {
        self.p95_ms > slo_ms
    }
}

/// Per-service observations for one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceWindowStats {
    /// CPU cores allocated to the service during the window.
    pub alloc_cores: f64,
    /// Mean CPU utilization over the window, percent of allocation
    /// (Prometheus `rate(cpu_usage_seconds_total) / limit`).
    pub util_pct: f64,
    /// Total CPU seconds consumed.
    pub cpu_used_s: f64,
    /// Total CFS throttle stall time, seconds
    /// (`increase(cpu_cfs_throttled_seconds_total)`).
    pub throttled_s: f64,
    /// 90th percentile of per-second CPU usage samples within the
    /// window, in cores. This is what rule-based allocators (Kubernetes
    /// VPA-style) act on.
    pub usage_p90_cores: f64,
    /// Peak per-second CPU usage, cores.
    pub usage_peak_cores: f64,
    /// Time-averaged memory footprint, bytes.
    pub mem_bytes: f64,
    /// Completed service visits in the window.
    pub visits: u64,
    /// Mean CPU self-time per visit, milliseconds (Jaeger `self_time`).
    pub mean_self_ms: f64,
    /// Mean wall-clock duration per visit, milliseconds (Jaeger
    /// `duration`).
    pub mean_visit_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(alloc: f64) -> ServiceWindowStats {
        ServiceWindowStats {
            alloc_cores: alloc,
            util_pct: 10.0,
            cpu_used_s: 1.0,
            throttled_s: 0.0,
            usage_p90_cores: 0.2,
            usage_peak_cores: 0.5,
            mem_bytes: 1e6,
            visits: 100,
            mean_self_ms: 1.0,
            mean_visit_ms: 2.0,
        }
    }

    fn window(p95: f64) -> WindowStats {
        WindowStats {
            start_s: 0.0,
            duration_s: 30.0,
            offered_rps: 100.0,
            achieved_rps: 99.0,
            completed: 2970,
            arrivals: 3000,
            mean_ms: p95 / 3.0,
            p50_ms: p95 / 4.0,
            p95_ms: p95,
            p99_ms: p95 * 1.5,
            max_ms: p95 * 2.0,
            per_service: vec![svc(1.0), svc(2.5)],
        }
    }

    #[test]
    fn total_alloc_sums_services() {
        assert_eq!(window(100.0).total_alloc(), 3.5);
    }

    #[test]
    fn violation_check() {
        assert!(window(300.0).violates(250.0));
        assert!(!window(200.0).violates(250.0));
        assert!(window(f64::INFINITY).violates(250.0));
    }
}
