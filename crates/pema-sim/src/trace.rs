//! Request tracing — the simulator's Jaeger.
//!
//! The paper's monitoring stack includes Jaeger, "which provides
//! detailed tracing of each request showing its service path through
//! different microservices" (§2.2); its `self_time` and `duration`
//! metrics are two of the candidate features in the Table 1 study.
//! PEMA itself deliberately does *not* use traces — but the analysis
//! around it does, so the simulator can record them: enable sampling
//! with [`crate::ClusterSim::set_trace_sampling`] and drain completed
//! traces with [`crate::ClusterSim::take_traces`].
//!
//! A [`RequestTrace`] is a tree of [`TraceSpan`]s (one per service
//! visit). This module also provides the analyses a practitioner runs
//! on such traces: critical-path extraction, per-service self-time
//! attribution on the tail, and `pema-cli trace`'s ranking.

/// One service visit inside a request trace.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Service index of the visit.
    pub service: u32,
    /// Endpoint (call-tree node) index.
    pub endpoint: u32,
    /// Parent span index within the trace, or `u32::MAX` for the root.
    pub parent: u32,
    /// Visit start (arrival at the service), seconds of virtual time.
    pub start_s: f64,
    /// Visit end (reply sent), seconds of virtual time.
    pub end_s: f64,
    /// CPU self-time consumed by the visit, seconds.
    pub self_cpu_s: f64,
}

impl TraceSpan {
    /// Wall-clock duration of the span (Jaeger `duration`).
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// A completed end-to-end request trace.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Request class index.
    pub class: u32,
    /// Spans in creation order; index 0 is the root.
    pub spans: Vec<TraceSpan>,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Root arrival time, virtual seconds.
    pub start_s: f64,
}

impl RequestTrace {
    /// Child span indices of span `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == i as u32)
            .map(|(j, _)| j)
            .collect()
    }

    /// The critical path: starting from the root, repeatedly descend
    /// into the child whose span ends last (the one the parent actually
    /// waited for). Returns span indices from root to leaf.
    ///
    /// This is the standard "which call chain determined the latency"
    /// analysis for synchronous fan-out RPC trees.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut path = vec![0usize];
        let mut cur = 0usize;
        loop {
            let kids = self.children(cur);
            let Some(&next) = kids.iter().max_by(|&&a, &&b| {
                self.spans[a]
                    .end_s
                    .partial_cmp(&self.spans[b].end_s)
                    .unwrap()
            }) else {
                break;
            };
            path.push(next);
            cur = next;
        }
        path
    }
}

/// Aggregated per-service attribution over a set of traces.
#[derive(Debug, Clone, Default)]
pub struct ServiceAttribution {
    /// Times the service appeared on a critical path.
    pub on_critical_path: u64,
    /// Total visits across all traces.
    pub visits: u64,
    /// Σ self CPU time, seconds.
    pub self_cpu_s: f64,
    /// Σ span durations, seconds.
    pub duration_s: f64,
    /// Σ *exclusive* durations, seconds: span duration minus the time
    /// covered by its child spans — queueing, throttling stalls, and
    /// own execution, but not downstream work. The standard
    /// trace-analysis culprit metric.
    pub exclusive_s: f64,
}

/// Attributes tail latency to services: for every trace, counts which
/// services sat on the critical path and accumulates self-times and
/// durations. `n_services` sizes the output.
pub fn attribute(traces: &[RequestTrace], n_services: usize) -> Vec<ServiceAttribution> {
    let mut out = vec![ServiceAttribution::default(); n_services];
    for t in traces {
        for (i, s) in t.spans.iter().enumerate() {
            let a = &mut out[s.service as usize];
            a.visits += 1;
            a.self_cpu_s += s.self_cpu_s;
            a.duration_s += s.duration_s();
            a.exclusive_s += (s.duration_s() - covered_by_children(t, i)).max(0.0);
        }
        for i in t.critical_path() {
            out[t.spans[i].service as usize].on_critical_path += 1;
        }
    }
    out
}

/// The time span `i` of `t` spends waiting on at least one child: the
/// length of the union of its children's intervals, each clipped to
/// span `i`. Parallel calls overlap, so their durations do not add.
fn covered_by_children(t: &RequestTrace, i: usize) -> f64 {
    let (lo, hi) = (t.spans[i].start_s, t.spans[i].end_s);
    let mut kids: Vec<(f64, f64)> = t
        .children(i)
        .into_iter()
        .map(|c| (t.spans[c].start_s.max(lo), t.spans[c].end_s.min(hi)))
        .filter(|(start, end)| end > start)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Picks the traces whose latency is at or above the `q`-quantile —
/// "show me the slow requests".
pub fn tail_traces(traces: &[RequestTrace], q: f64) -> Vec<&RequestTrace> {
    if traces.is_empty() {
        return Vec::new();
    }
    let mut lat: Vec<f64> = traces.iter().map(|t| t.latency_s).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let thresh = pema_metrics::percentile_sorted(&lat, q.clamp(0.0, 1.0));
    traces.iter().filter(|t| t.latency_s >= thresh).collect()
}

/// Tail forensics: services by mean exclusive time per visit, ms, in
/// the slowest 5 % of `traces`, highest first, with the count of
/// callees. Entry services come after the callees: a root span opens
/// when its request arrives, and an entry service's worker threads stay
/// held while downstream calls run, so its figure also holds the
/// back-pressure of whichever callee is starved.
pub fn tail_exclusive_ranking(
    traces: &[RequestTrace],
    n_services: usize,
) -> (Vec<(usize, f64)>, usize) {
    let tail: Vec<RequestTrace> = tail_traces(traces, 0.95).into_iter().cloned().collect();
    let mut rows: Vec<(usize, f64)> = attribute(&tail, n_services)
        .iter()
        .enumerate()
        .filter(|(_, a)| a.visits > 0)
        .map(|(i, a)| (i, a.exclusive_s / a.visits as f64 * 1e3))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let entry: Vec<usize> = tail.iter().map(|t| t.spans[0].service as usize).collect();
    // A stable sort: callees, then entries, each still highest first.
    rows.sort_by_key(|(i, _)| entry.contains(i));
    let callees = rows.partition_point(|(i, _)| !entry.contains(i));
    (rows, callees)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root(svc 0) -> [a(svc 1), b(svc 2)]; b ends later; b -> c(svc 3).
    fn sample_trace() -> RequestTrace {
        RequestTrace {
            class: 0,
            spans: vec![
                TraceSpan {
                    service: 0,
                    endpoint: 0,
                    parent: u32::MAX,
                    start_s: 0.0,
                    end_s: 0.100,
                    self_cpu_s: 0.004,
                },
                TraceSpan {
                    service: 1,
                    endpoint: 1,
                    parent: 0,
                    start_s: 0.010,
                    end_s: 0.030,
                    self_cpu_s: 0.002,
                },
                TraceSpan {
                    service: 2,
                    endpoint: 2,
                    parent: 0,
                    start_s: 0.010,
                    end_s: 0.090,
                    self_cpu_s: 0.001,
                },
                TraceSpan {
                    service: 3,
                    endpoint: 3,
                    parent: 2,
                    start_s: 0.020,
                    end_s: 0.080,
                    self_cpu_s: 0.050,
                },
            ],
            latency_s: 0.100,
            start_s: 0.0,
        }
    }

    #[test]
    fn children_found() {
        let t = sample_trace();
        assert_eq!(t.children(0), vec![1, 2]);
        assert_eq!(t.children(2), vec![3]);
        assert!(t.children(1).is_empty());
    }

    #[test]
    fn critical_path_follows_latest_child() {
        let t = sample_trace();
        assert_eq!(t.critical_path(), vec![0, 2, 3]);
    }

    #[test]
    fn attribution_counts() {
        let t = sample_trace();
        let attr = attribute(&[t.clone(), t], 4);
        assert_eq!(attr[0].visits, 2);
        assert_eq!(attr[0].on_critical_path, 2);
        assert_eq!(attr[1].on_critical_path, 0);
        assert_eq!(attr[3].on_critical_path, 2);
        assert!((attr[3].self_cpu_s - 0.100).abs() < 1e-12);
        // Exclusive time of the root: 100 ms total, its parallel
        // children cover 10–30 ms and 10–90 ms, 80 ms together → 20 ms
        // exclusive per trace; span 2's exclusive = 80 − 60 = 20 ms.
        assert!((attr[0].exclusive_s - 0.040).abs() < 1e-12);
        assert!((attr[2].exclusive_s - 0.040).abs() < 1e-12);
    }

    #[test]
    fn exclusive_time_subtracts_the_union_of_overlapping_children() {
        let span = |service: u32, parent: u32, start_s: f64, end_s: f64| TraceSpan {
            service,
            endpoint: service,
            parent,
            start_s,
            end_s,
            self_cpu_s: 0.0,
        };
        // Root 0–100 ms. Its children: 10–40, 20–30 (nested in the
        // first), 35–60 (overlapping it), 90–120 (clipped to 90–100)
        // and −5–5 (clipped to 0–5). They cover 0–5, 10–60 and 90–100:
        // 65 ms, where their durations sum to 105 ms.
        let t = RequestTrace {
            class: 0,
            spans: vec![
                span(0, u32::MAX, 0.0, 0.100),
                span(1, 0, 0.010, 0.040),
                span(2, 0, 0.020, 0.030),
                span(3, 0, 0.035, 0.060),
                span(4, 0, 0.090, 0.120),
                span(5, 0, -0.005, 0.005),
                // A child of span 2, outside span 2 and outside every
                // child of the root: only a span's own children cover
                // it.
                span(6, 2, 0.060, 0.080),
            ],
            latency_s: 0.100,
            start_s: 0.0,
        };
        let attr = attribute(&[t], 7);
        assert!((attr[0].exclusive_s - 0.035).abs() < 1e-12);
        // Span 2 (10 ms) has a child wholly outside it: nothing of the
        // child is clipped in, so all 10 ms are its own.
        assert!((attr[2].exclusive_s - 0.010).abs() < 1e-12);
        // Leaves keep their whole duration.
        assert!((attr[1].exclusive_s - 0.030).abs() < 1e-12);
        assert!((attr[4].exclusive_s - 0.030).abs() < 1e-12);
    }

    #[test]
    fn span_duration() {
        let t = sample_trace();
        assert!((t.spans[3].duration_s() - 0.060).abs() < 1e-12);
    }

    #[test]
    fn tail_selection() {
        let mk = |lat: f64| RequestTrace {
            class: 0,
            spans: vec![],
            latency_s: lat,
            start_s: 0.0,
        };
        let traces: Vec<RequestTrace> = (1..=100).map(|i| mk(i as f64 * 1e-3)).collect();
        let tail = tail_traces(&traces, 0.95);
        assert!(tail.len() >= 5 && tail.len() <= 7, "picked {}", tail.len());
        assert!(tail.iter().all(|t| t.latency_s >= 0.095));
        assert!(tail_traces(&[], 0.95).is_empty());
    }
}
