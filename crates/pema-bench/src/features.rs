//! Feature definitions for bottleneck detection.
//!
//! The paper collects five candidate metrics per microservice —
//! `cpu_usage_seconds_total` (utilization), `memory_usage_bytes`,
//! `cpu_cfs_throttled_seconds_total`, and the Jaeger tracing
//! `self_time` and `duration` — then selects by classification
//! accuracy which subset best detects bottleneck services. Table 1
//! reports the winner: **utilization + throttling**.

use pema_sim::ServiceWindowStats;

/// Candidate per-service features (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Mean CPU utilization over the window, % of allocation.
    Utilization,
    /// CFS throttled seconds over the window.
    Throttling,
    /// Mean memory footprint, bytes.
    Memory,
    /// Mean per-visit CPU self-time, ms (Jaeger `self_time`).
    SelfTime,
    /// Mean per-visit wall duration, ms (Jaeger `duration`).
    Duration,
}

impl Feature {
    /// All five candidate features, in the paper's order.
    pub const ALL: [Feature; 5] = [
        Feature::Utilization,
        Feature::Throttling,
        Feature::Memory,
        Feature::SelfTime,
        Feature::Duration,
    ];

    /// The paper's selected pair.
    pub const PAPER_PAIR: [Feature; 2] = [Feature::Utilization, Feature::Throttling];

    /// Extracts this feature's value from a service's window stats.
    pub fn extract(&self, s: &ServiceWindowStats) -> f64 {
        match self {
            Feature::Utilization => s.util_pct,
            Feature::Throttling => s.throttled_s,
            Feature::Memory => s.mem_bytes,
            Feature::SelfTime => s.mean_self_ms,
            Feature::Duration => s.mean_visit_ms,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Feature::Utilization => "util",
            Feature::Throttling => "throttle",
            Feature::Memory => "memory",
            Feature::SelfTime => "self_time",
            Feature::Duration => "duration",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ServiceWindowStats {
        ServiceWindowStats {
            alloc_cores: 1.0,
            util_pct: 37.5,
            cpu_used_s: 10.0,
            throttled_s: 2.25,
            usage_p90_cores: 0.5,
            usage_peak_cores: 0.9,
            mem_bytes: 4.2e8,
            visits: 1000,
            mean_self_ms: 1.25,
            mean_visit_ms: 3.75,
        }
    }

    #[test]
    fn extraction_maps_fields() {
        let s = stats();
        assert_eq!(Feature::Utilization.extract(&s), 37.5);
        assert_eq!(Feature::Throttling.extract(&s), 2.25);
        assert_eq!(Feature::Memory.extract(&s), 4.2e8);
        assert_eq!(Feature::SelfTime.extract(&s), 1.25);
        assert_eq!(Feature::Duration.extract(&s), 3.75);
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Feature::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
