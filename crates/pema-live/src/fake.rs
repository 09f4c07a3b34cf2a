//! An in-process fake of the Prometheus + Kubernetes pair, for testing
//! [`LiveBackend`] without a cluster.
//!
//! `FakeCluster` is a handler on the shared [`http::Server`](Server):
//! a real listening socket on a loopback port speaking actual HTTP/1.1,
//! so the backend under test exercises its production wire path byte
//! for byte. Behind the socket sits the
//! analytic [`FluidEvaluator`]: every `query_range` evaluates the
//! current allocation under the configured constant workload and
//! serializes the matching Prometheus matrix, and every deployments
//! PATCH updates that allocation (and is recorded for assertions). The
//! fluid model is deterministic, so a FakeCluster-driven run is exactly
//! reproducible — which is what lets the record→replay loop assert
//! *zero* divergence.
//!
//! Fault injection is a FIFO of [`Fault`]s consumed one per incoming
//! request, whichever connection it arrives on: drop the connection,
//! delay past the client's timeout, answer 500, or answer garbage. A
//! single injected fault maps to exactly one failed request. Every fault
//! is answered *after* the request was read in full, so the client sees
//! the injected failure itself and never a TCP reset racing it. The
//! client keeps its connection alive between requests, so a drop or a
//! client timeout also costs that connection, and the next request
//! opens another; a 500 or a garbage body leaves it open. The server's
//! accept count is on the ledger ([`FaultStats::connections`]).

use crate::backend::{LiveBackend, LiveConfig};
use crate::clock::FakeClock;
use crate::http::{urldecode, Endpoint, HttpClient, Reply, Request, Server};
use crate::kube::{KubeClient, KubeConfigLite};
use crate::prom::PromClient;
use pema_control::{ClusterBackend, WindowPoll, WindowRequest};
use pema_sim::{Allocation, AppSpec, Evaluator as _, FluidEvaluator, WindowStats};
use pema_telemetry::json;
use pema_trace::prom;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One injected failure, consumed by the next incoming request.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Read the request, then close its connection without responding.
    DropConnection,
    /// Stall before handling the request (drive client timeouts).
    Delay(Duration),
    /// Answer `500 Internal Server Error`.
    Http500,
    /// Answer `200 OK` with a body that is not JSON.
    GarbageBody,
}

/// A recorded deployments PATCH.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchEvent {
    /// Deployment/container name.
    pub service: String,
    /// The CPU limit set, cores.
    pub cores: f64,
}

/// Ground truth of the server's fault injection, for asserting client
/// retry behavior (and the live backend's retry *telemetry*) against
/// what the cluster actually did: requests served, faults fired by
/// kind, and connections accepted. Queryable via
/// [`FakeCluster::fault_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests served, faulted ones included.
    pub requests: u64,
    /// [`Fault::DropConnection`]s fired.
    pub dropped: u64,
    /// [`Fault::Delay`]s fired.
    pub delayed: u64,
    /// [`Fault::Http500`]s fired.
    pub http500: u64,
    /// [`Fault::GarbageBody`]s fired.
    pub garbage: u64,
    /// TCP connections the cluster accepted.
    pub connections: u64,
}

impl FaultStats {
    /// Faults fired across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.delayed + self.http500 + self.garbage
    }
}

struct State {
    app: AppSpec,
    eval: FluidEvaluator,
    alloc: Allocation,
    rps: f64,
    token: Option<String>,
    patches: Vec<PatchEvent>,
    scrapes: Vec<(f64, f64)>,
    faults: VecDeque<Fault>,
    stats: FaultStats,
}

/// Handle to a running fake cluster. Clones share the server; the
/// server stops when the last handle drops.
#[derive(Clone)]
pub struct FakeCluster {
    state: Arc<Mutex<State>>,
    server: Server,
}

impl FakeCluster {
    /// Boots the server for `app` under a constant `rps` workload.
    pub fn start(app: &AppSpec, rps: f64) -> FakeCluster {
        let state = Arc::new(Mutex::new(State {
            app: app.clone(),
            eval: FluidEvaluator::new(app),
            alloc: Allocation::new(app.generous_alloc.clone()),
            rps,
            token: None,
            patches: Vec::new(),
            scrapes: Vec::new(),
            faults: VecDeque::new(),
            stats: FaultStats::default(),
        }));
        let served = Arc::clone(&state);
        let server = Server::serve("127.0.0.1:0", "fake-cluster", move |req| {
            handle(&served, req)
        })
        .expect("serve on loopback");
        FakeCluster { state, server }
    }

    /// The server's HTTP endpoint.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint {
            host: "127.0.0.1".into(),
            port: self.server.local_addr().port(),
        }
    }

    /// Requires `Bearer token` on PATCHes (scrapes stay open, matching
    /// a Prometheus without auth in front of it).
    pub fn set_token(&self, token: &str) {
        self.lock().token = Some(token.to_string());
    }

    /// Queues a fault for the next incoming request.
    pub fn inject_fault(&self, fault: Fault) {
        self.lock().faults.push_back(fault);
    }

    /// PATCHes received so far.
    pub fn patches(&self) -> Vec<PatchEvent> {
        self.lock().patches.clone()
    }

    /// `(start, end)` of every `query_range` served so far — lets tests
    /// pin the absolute timestamps the client put on the wire (real
    /// Prometheus interprets them as unix time).
    pub fn scrape_ranges(&self) -> Vec<(f64, f64)> {
        self.lock().scrapes.clone()
    }

    /// The allocation currently in force on the fake cluster.
    pub fn allocation(&self) -> Allocation {
        self.lock().alloc.clone()
    }

    /// Requests served (faulted ones included).
    pub fn requests_served(&self) -> u64 {
        self.lock().stats.requests
    }

    /// Requests served, faults fired by kind and connections accepted
    /// so far — the ground truth retry counters are asserted against.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            connections: self.server.connections(),
            ..self.lock().stats.clone()
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("fake cluster poisoned")
    }
}

/// Serves one request: the next queued fault if there is one, the
/// routed answer otherwise (and after a [`Fault::Delay`]).
fn handle(state: &Mutex<State>, req: &Request) -> Option<Reply> {
    let fault = {
        let mut st = state.lock().expect("fake cluster poisoned");
        st.stats.requests += 1;
        let fault = st.faults.pop_front();
        match &fault {
            Some(Fault::DropConnection) => st.stats.dropped += 1,
            Some(Fault::Delay(_)) => st.stats.delayed += 1,
            Some(Fault::Http500) => st.stats.http500 += 1,
            Some(Fault::GarbageBody) => st.stats.garbage += 1,
            None => {}
        }
        fault
    };
    match fault {
        Some(Fault::DropConnection) => return None,
        // Slept with the state unlocked: the test thread may inspect
        // the cluster meanwhile.
        Some(Fault::Delay(d)) => std::thread::sleep(d),
        Some(Fault::Http500) => return Some(Reply::text(500, "injected failure")),
        Some(Fault::GarbageBody) => return Some(Reply::text(200, "}{ this is not json")),
        None => {}
    }
    let (status, body) = route(&mut state.lock().expect("fake cluster poisoned"), req);
    Some(Reply::text(status, body))
}

fn route(st: &mut State, req: &Request) -> (u16, String) {
    if req.method == "GET" {
        if let Some(qs) = req.path.strip_prefix("/api/v1/query_range?") {
            return query_range(st, qs);
        }
    }
    if req.method == "PATCH" {
        if let Some(rest) = req.path.strip_prefix("/apis/apps/v1/namespaces/") {
            if let Some((_ns, name)) = rest.split_once("/deployments/") {
                return patch_deployment(st, name, req);
            }
        }
    }
    (404, format!("no route for {} {}", req.method, req.path))
}

fn query_range(st: &mut State, query_string: &str) -> (u16, String) {
    let mut query = None;
    let mut start = None;
    let mut end = None;
    let mut step = None;
    for pair in query_string.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        let v = urldecode(v);
        match k {
            "query" => query = Some(v),
            "start" => start = v.parse::<f64>().ok(),
            "end" => end = v.parse::<f64>().ok(),
            "step" => step = v.parse::<f64>().ok(),
            _ => {}
        }
    }
    let (Some(query), Some(start), Some(end), Some(step)) = (query, start, end, step) else {
        return (400, "missing query/start/end/step".into());
    };
    if end <= start || step <= 0.0 {
        return (400, "bad range".into());
    }
    st.scrapes.push((start, end));
    // Evaluate the current allocation under the constant workload over
    // the requested window — the fluid model is the "cluster".
    st.eval.window_s = end - start;
    let rps = st.rps;
    let alloc = st.alloc.clone();
    let stats = st.eval.evaluate(&alloc, rps);
    let series = match classify(&query) {
        Some(QueryKind::P95) => vec![(String::new(), stats.p95_ms / 1e3)],
        Some(QueryKind::MeanLatency) => vec![(String::new(), stats.mean_ms / 1e3)],
        Some(QueryKind::RequestRate) => vec![(String::new(), stats.offered_rps)],
        Some(QueryKind::CpuLimit) => per_service(st, &stats, |_, alloc| alloc),
        Some(QueryKind::CpuUsageRate) => {
            per_service(st, &stats, |s, _| s.cpu_used_s / (end - start))
        }
        Some(QueryKind::CpuThrottled) => per_service(st, &stats, |s, _| s.throttled_s),
        None => return (400, format!("unrecognized query: {query}")),
    };
    (200, matrix_json(&series, start, end, step))
}

enum QueryKind {
    P95,
    MeanLatency,
    RequestRate,
    CpuLimit,
    CpuUsageRate,
    CpuThrottled,
}

/// Dispatches a PromQL expression by the metric it wraps — the same
/// names [`pema_trace::prom`] builds queries from.
fn classify(query: &str) -> Option<QueryKind> {
    if query.contains(prom::METRIC_LATENCY_BUCKET) {
        Some(QueryKind::P95)
    } else if query.contains(prom::METRIC_LATENCY_SUM) {
        Some(QueryKind::MeanLatency)
    } else if query.contains(prom::METRIC_REQUESTS) {
        Some(QueryKind::RequestRate)
    } else if query.contains(prom::METRIC_CPU_LIMIT) {
        Some(QueryKind::CpuLimit)
    } else if query.contains(prom::METRIC_CPU_THROTTLED) {
        Some(QueryKind::CpuThrottled)
    } else if query.contains(prom::METRIC_CPU_USAGE) {
        Some(QueryKind::CpuUsageRate)
    } else {
        None
    }
}

fn per_service(
    st: &State,
    stats: &WindowStats,
    value: impl Fn(&pema_sim::ServiceWindowStats, f64) -> f64,
) -> Vec<(String, f64)> {
    st.app
        .services
        .iter()
        .zip(&stats.per_service)
        .enumerate()
        .map(|(i, (svc, s))| (svc.name.clone(), value(s, st.alloc.get(i))))
        .collect()
}

/// Serializes series as a Prometheus matrix: one sample per `step`
/// from `start` to `end`, constant value (the fluid window has no
/// intra-window dynamics). Non-finite values use Prometheus' spellings
/// (`+Inf`, `-Inf`, `NaN`); finite ones use Rust's shortest
/// round-trip formatting so the client reads back the exact f64.
fn matrix_json(series: &[(String, f64)], start: f64, end: f64, step: f64) -> String {
    let mut out = String::from(r#"{"status":"success","data":{"resultType":"matrix","result":["#);
    for (i, (container, value)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"metric":{"#);
        if !container.is_empty() {
            out.push_str(&format!(r#""container":{}"#, json::quote(container)));
        }
        out.push_str(r#"},"values":["#);
        let mut t = start;
        let mut first = true;
        while t <= end {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{t},\"{}\"]", sample_value(*value)));
            t += step;
        }
        out.push_str("]}");
    }
    out.push_str("]}}");
    out
}

fn sample_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn patch_deployment(st: &mut State, name: &str, req: &Request) -> (u16, String) {
    if let Some(token) = &st.token {
        let want = format!("Bearer {token}");
        if req.authorization.as_deref() != Some(want.as_str()) {
            return (401, r#"{"kind":"Status","reason":"Unauthorized"}"#.into());
        }
    }
    let Some(i) = st.app.services.iter().position(|s| s.name == name) else {
        return (404, format!("no deployment {name}"));
    };
    let cores = match parse_patch_cores(&req.body, name) {
        Ok(c) => c,
        Err(e) => return (400, e),
    };
    st.alloc.set(i, cores);
    st.patches.push(PatchEvent {
        service: name.to_string(),
        cores,
    });
    (200, r#"{"kind":"Deployment"}"#.into())
}

/// Extracts `spec.template.spec.containers[name].resources.limits.cpu`
/// from a strategic-merge-patch body.
fn parse_patch_cores(body: &str, name: &str) -> Result<f64, String> {
    fn descend<'a>(mut v: &'a json::Value, keys: &[&str]) -> Result<&'a json::Value, String> {
        for key in keys {
            v = v.get(key).ok_or_else(|| format!("missing \"{key}\""))?;
        }
        Ok(v)
    }
    let root = json::parse(body)?;
    let container = descend(&root, &["spec", "template", "spec", "containers"])?
        .as_array()
        .ok_or("containers is not an array")?
        .iter()
        .find(|c| c.get("name").and_then(json::Value::as_str) == Some(name))
        .ok_or_else(|| format!("no container named \"{name}\" in patch"))?;
    let cpu = descend(container, &["resources", "limits", "cpu"])?
        .as_str()
        .ok_or("cpu quantity is not a string")?;
    cpu.parse()
        .map_err(|_| format!("bad cpu quantity \"{cpu}\""))
}

/// A [`LiveBackend`] wired to a [`FakeCluster`], as one value: the
/// backend, the cluster handle (for fault injection and patch
/// assertions), and the shared virtual clock. Implements
/// [`ClusterBackend`] by delegation so the conformance suite can box
/// it while the cluster stays alive.
pub struct FakeLive {
    /// The cluster handle.
    pub cluster: FakeCluster,
    /// The shared virtual clock (cloned into the backend).
    pub clock: FakeClock,
    /// The backend under test.
    pub backend: LiveBackend,
}

/// Boots a [`FakeCluster`] for `app` at constant `rps` and wires a
/// [`LiveBackend`] to it over a [`FakeClock`], with near-zero retry
/// backoff (tests replay the retry schedule instantly anyway).
pub fn live_over_fake(app: &AppSpec, rps: f64) -> FakeLive {
    live_over_fake_with(app, rps, LiveConfig::default())
}

/// [`live_over_fake`] with explicit [`LiveConfig`] (dry-run, retry
/// schedule, …).
pub fn live_over_fake_with(app: &AppSpec, rps: f64, cfg: LiveConfig) -> FakeLive {
    let cluster = FakeCluster::start(app, rps);
    let clock = FakeClock::new();
    let http = HttpClient {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(2),
    };
    let prom = PromClient {
        endpoint: cluster.endpoint(),
        http: http.clone(),
    };
    let kube = KubeClient {
        config: KubeConfigLite {
            server: cluster.endpoint(),
            token: None,
            namespace: "pema".into(),
        },
        http,
    };
    let backend = LiveBackend::new(app, prom, kube, Box::new(clock.clone()), cfg);
    FakeLive {
        cluster,
        clock,
        backend,
    }
}

impl ClusterBackend for FakeLive {
    fn apply(&mut self, alloc: &Allocation) {
        self.backend.apply(alloc)
    }

    fn allocation(&self) -> Allocation {
        self.backend.allocation()
    }

    fn now_s(&self) -> f64 {
        self.backend.now_s()
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        self.backend.begin_window(req)
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        self.backend.poll_window(req)
    }

    fn cancel_window(&mut self) {
        self.backend.cancel_window()
    }
}
