//! Application topology: services, call graphs, request classes.
//!
//! An [`AppSpec`] is the static description of a microservice
//! application, mirroring what the paper deploys on Kubernetes:
//!
//! * a list of [`ServiceSpec`]s — one per container — with CPU demand,
//!   demand burstiness, thread-pool size, and node placement;
//! * a set of [`RequestClass`]es, each a tree of [`EndpointNode`]s
//!   describing which services a request of that class visits, in what
//!   order, and with what fan-out (sequential groups of parallel calls,
//!   possibly probabilistic);
//! * the SLO (p95 end-to-end response time) the operator has promised.
//!
//! The concrete SockShop / TrainTicket / HotelReservation topologies
//! live in the `pema-apps` crate; this module only defines the model and
//! its validation rules.

/// Index of a service within an [`AppSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub usize);

/// Static description of one microservice (container).
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Human-readable service name (e.g. `"carts"`).
    pub name: String,
    /// Mean CPU work per visit, in CPU-seconds at reference speed.
    /// Per-class multipliers scale this (see [`EndpointNode::work_scale`]).
    pub demand_s: f64,
    /// Coefficient of variation of the per-visit CPU work (log-normal).
    /// Higher values model burstier services (JIT pauses, GC, cache
    /// misses) and drive CFS throttling at the tail.
    pub demand_cv: f64,
    /// Worker threads available to execute requests concurrently.
    /// `None` models goroutine-style effectively-unbounded concurrency.
    pub threads: Option<u32>,
    /// Index of the cluster node hosting this service.
    pub node: usize,
    /// Resident memory floor in bytes (for the `memory_usage_bytes` gauge).
    pub mem_base_bytes: f64,
    /// Additional bytes per in-flight request.
    pub mem_per_job_bytes: f64,
    /// Fraction of a visit's CPU work executed before issuing downstream
    /// calls; the remainder runs after all children reply.
    pub pre_fraction: f64,
}

impl ServiceSpec {
    /// Convenience constructor with sensible defaults
    /// (CV 1.0, 16 threads, node 0, 64 MiB + 256 KiB/job, pre 0.6).
    pub fn new(name: &str, demand_s: f64) -> Self {
        Self {
            name: name.to_string(),
            demand_s,
            demand_cv: 1.0,
            threads: Some(16),
            node: 0,
            mem_base_bytes: 64.0 * 1024.0 * 1024.0,
            mem_per_job_bytes: 256.0 * 1024.0,
            pre_fraction: 0.6,
        }
    }

    /// Sets the demand coefficient of variation.
    pub fn cv(mut self, cv: f64) -> Self {
        self.demand_cv = cv;
        self
    }

    /// Sets the thread-pool size (`None` = unbounded).
    pub fn threads(mut self, t: Option<u32>) -> Self {
        self.threads = t;
        self
    }

    /// Sets node placement.
    pub fn on_node(mut self, node: usize) -> Self {
        self.node = node;
        self
    }

    /// Sets the pre-call work fraction.
    pub fn pre(mut self, f: f64) -> Self {
        self.pre_fraction = f.clamp(0.0, 1.0);
        self
    }
}

/// One visit in a request-class call tree.
#[derive(Debug, Clone)]
pub struct EndpointNode {
    /// The service executing this visit.
    pub service: ServiceId,
    /// Multiplier applied to the service's mean demand for this class
    /// (a checkout hits `orders` harder than a browse does).
    pub work_scale: f64,
    /// Downstream call groups, executed **in sequence**; the calls
    /// inside one group are issued **in parallel**.
    pub groups: Vec<CallGroup>,
}

/// A group of parallel downstream calls.
#[derive(Debug, Clone, Default)]
pub struct CallGroup {
    /// `(child endpoint index, probability the call is made)`.
    pub calls: Vec<(usize, f64)>,
}

/// A class of user requests (e.g. "search", "checkout") with an arrival
/// mix weight and the call tree its requests traverse.
#[derive(Debug, Clone)]
pub struct RequestClass {
    /// Class name for reporting.
    pub name: String,
    /// Relative arrival weight within the application's traffic mix.
    pub weight: f64,
    /// Index into [`AppSpec::endpoints`] of the tree root (the visit at
    /// the application's entry service).
    pub root: usize,
}

/// A cluster node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Physical cores available on the node.
    pub cores: f64,
}

/// Full static description of an application and its cluster placement.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name (e.g. `"sockshop"`).
    pub name: String,
    /// Services, indexed by [`ServiceId`].
    pub services: Vec<ServiceSpec>,
    /// Flattened endpoint arena; request-class trees index into it.
    pub endpoints: Vec<EndpointNode>,
    /// Request classes with their traffic mix.
    pub classes: Vec<RequestClass>,
    /// Cluster nodes.
    pub nodes: Vec<NodeSpec>,
    /// Mean one-way network delay per RPC hop, seconds.
    pub net_delay_s: f64,
    /// SLO on the p95 end-to-end response time, milliseconds.
    pub slo_ms: f64,
    /// A comfortably SLO-safe starting allocation (cores per service),
    /// playing the role of the paper's "ample initial resources".
    pub generous_alloc: Vec<f64>,
}

/// Errors produced by [`AppSpec::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// No services defined.
    NoServices,
    /// No request classes defined.
    NoClasses,
    /// An endpoint references a service index out of range.
    BadServiceRef { endpoint: usize, service: usize },
    /// A call group references an endpoint index out of range.
    BadEndpointRef { endpoint: usize, child: usize },
    /// A class root is out of range.
    BadClassRoot { class: usize, root: usize },
    /// A service's node index is out of range.
    BadNodeRef { service: usize, node: usize },
    /// The endpoint graph contains a cycle (call trees must be DAG-free
    /// when flattened; recursion would hang requests).
    Cycle { endpoint: usize },
    /// A numeric field is out of its valid domain.
    BadNumber { what: String },
    /// The generous allocation length does not match the service count.
    AllocLenMismatch,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoServices => write!(f, "no services defined"),
            TopologyError::NoClasses => write!(f, "no request classes defined"),
            TopologyError::BadServiceRef { endpoint, service } => {
                write!(
                    f,
                    "endpoint {endpoint} references unknown service {service}"
                )
            }
            TopologyError::BadEndpointRef { endpoint, child } => {
                write!(
                    f,
                    "endpoint {endpoint} references unknown child endpoint {child}"
                )
            }
            TopologyError::BadClassRoot { class, root } => {
                write!(f, "class {class} has out-of-range root endpoint {root}")
            }
            TopologyError::BadNodeRef { service, node } => {
                write!(f, "service {service} placed on unknown node {node}")
            }
            TopologyError::Cycle { endpoint } => {
                write!(
                    f,
                    "endpoint call graph has a cycle through endpoint {endpoint}"
                )
            }
            TopologyError::BadNumber { what } => write!(f, "invalid numeric field: {what}"),
            TopologyError::AllocLenMismatch => {
                write!(f, "generous_alloc length != number of services")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Every call group of every endpoint as spans into one contiguous
/// `(child endpoint, probability)` table, in spec order:
/// `ep_group_start[ep]..ep_group_start[ep + 1]` indexes `group_spans`,
/// and each span `[lo, hi)` indexes `flat_calls`. Both evaluators walk
/// this instead of the nested `AppSpec` vectors — the DES on its
/// per-visit fan-out path, the fluid model once per endpoint per
/// evaluation.
#[derive(Debug, Clone)]
pub(crate) struct CallTable {
    pub(crate) ep_group_start: Vec<u32>,
    pub(crate) group_spans: Vec<(u32, u32)>,
    pub(crate) flat_calls: Vec<(u32, f64)>,
}

impl AppSpec {
    /// Flattens the endpoints' call groups (see [`CallTable`]).
    pub(crate) fn call_table(&self) -> CallTable {
        let mut ep_group_start = Vec::with_capacity(self.endpoints.len() + 1);
        let mut group_spans = Vec::new();
        let mut flat_calls = Vec::new();
        for e in &self.endpoints {
            ep_group_start.push(group_spans.len() as u32);
            for g in &e.groups {
                let lo = flat_calls.len() as u32;
                flat_calls.extend(g.calls.iter().map(|&(ep, p)| (ep as u32, p)));
                group_spans.push((lo, flat_calls.len() as u32));
            }
        }
        ep_group_start.push(group_spans.len() as u32);
        CallTable {
            ep_group_start,
            group_spans,
            flat_calls,
        }
    }

    /// Number of services.
    pub fn n_services(&self) -> usize {
        self.services.len()
    }

    /// Looks a service up by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(ServiceId)
    }

    /// Service names in index order.
    pub fn service_names(&self) -> Vec<&str> {
        self.services.iter().map(|s| s.name.as_str()).collect()
    }

    /// Validates internal consistency. Call once after construction;
    /// the simulator assumes a validated spec.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.services.is_empty() {
            return Err(TopologyError::NoServices);
        }
        if self.classes.is_empty() {
            return Err(TopologyError::NoClasses);
        }
        if self.generous_alloc.len() != self.services.len() {
            return Err(TopologyError::AllocLenMismatch);
        }
        for (i, s) in self.services.iter().enumerate() {
            if s.node >= self.nodes.len() {
                return Err(TopologyError::BadNodeRef {
                    service: i,
                    node: s.node,
                });
            }
            if s.demand_s <= 0.0 || !s.demand_s.is_finite() {
                return Err(TopologyError::BadNumber {
                    what: format!("service {} demand_s", s.name),
                });
            }
            if s.demand_cv < 0.0 || !s.demand_cv.is_finite() {
                return Err(TopologyError::BadNumber {
                    what: format!("service {} demand_cv", s.name),
                });
            }
            if !(0.0..=1.0).contains(&s.pre_fraction) {
                return Err(TopologyError::BadNumber {
                    what: format!("service {} pre_fraction", s.name),
                });
            }
        }
        for (ei, e) in self.endpoints.iter().enumerate() {
            if e.service.0 >= self.services.len() {
                return Err(TopologyError::BadServiceRef {
                    endpoint: ei,
                    service: e.service.0,
                });
            }
            if e.work_scale < 0.0 || !e.work_scale.is_finite() {
                return Err(TopologyError::BadNumber {
                    what: format!("endpoint {ei} work_scale"),
                });
            }
            for g in &e.groups {
                for &(child, p) in &g.calls {
                    if child >= self.endpoints.len() {
                        return Err(TopologyError::BadEndpointRef {
                            endpoint: ei,
                            child,
                        });
                    }
                    if !(0.0..=1.0).contains(&p) {
                        return Err(TopologyError::BadNumber {
                            what: format!("endpoint {ei} call probability"),
                        });
                    }
                }
            }
        }
        for (ci, c) in self.classes.iter().enumerate() {
            if c.root >= self.endpoints.len() {
                return Err(TopologyError::BadClassRoot {
                    class: ci,
                    root: c.root,
                });
            }
            if c.weight <= 0.0 || !c.weight.is_finite() {
                return Err(TopologyError::BadNumber {
                    what: format!("class {} weight", c.name),
                });
            }
        }
        if self.slo_ms <= 0.0 || self.slo_ms.is_nan() {
            return Err(TopologyError::BadNumber {
                what: "slo_ms".into(),
            });
        }
        if self.net_delay_s < 0.0 {
            return Err(TopologyError::BadNumber {
                what: "net_delay_s".into(),
            });
        }
        self.check_acyclic()?;
        Ok(())
    }

    fn check_acyclic(&self) -> Result<(), TopologyError> {
        // Colors: 0 = unvisited, 1 = in-stack, 2 = done.
        let mut color = vec![0u8; self.endpoints.len()];
        fn dfs(e: usize, eps: &[EndpointNode], color: &mut [u8]) -> Result<(), TopologyError> {
            if color[e] == 1 {
                return Err(TopologyError::Cycle { endpoint: e });
            }
            if color[e] == 2 {
                return Ok(());
            }
            color[e] = 1;
            for g in &eps[e].groups {
                for &(child, _) in &g.calls {
                    dfs(child, eps, color)?;
                }
            }
            color[e] = 2;
            Ok(())
        }
        for c in &self.classes {
            dfs(c.root, &self.endpoints, &mut color)?;
        }
        Ok(())
    }

    /// Expected number of visits per user request for each service,
    /// computed over the class mix (probability-weighted). Used by the
    /// fluid model and by workload calibration.
    pub fn expected_visits(&self) -> Vec<f64> {
        let mut visits = vec![0.0; self.services.len()];
        let total_w: f64 = self.classes.iter().map(|c| c.weight).sum();
        if total_w <= 0.0 {
            return visits;
        }
        for c in &self.classes {
            let share = c.weight / total_w;
            self.accumulate_visits(c.root, share, &mut visits);
        }
        visits
    }

    fn accumulate_visits(&self, e: usize, mult: f64, out: &mut [f64]) {
        let ep = &self.endpoints[e];
        out[ep.service.0] += mult;
        for g in &ep.groups {
            for &(child, p) in &g.calls {
                self.accumulate_visits(child, mult * p, out);
            }
        }
    }

    /// Expected CPU-seconds demanded of each service per user request
    /// (visit-weighted `demand_s × work_scale`).
    pub fn expected_demand(&self) -> Vec<f64> {
        let mut demand = vec![0.0; self.services.len()];
        let total_w: f64 = self.classes.iter().map(|c| c.weight).sum();
        if total_w <= 0.0 {
            return demand;
        }
        for c in &self.classes {
            let share = c.weight / total_w;
            self.accumulate_demand(c.root, share, &mut demand);
        }
        demand
    }

    fn accumulate_demand(&self, e: usize, mult: f64, out: &mut [f64]) {
        let ep = &self.endpoints[e];
        out[ep.service.0] += mult * self.services[ep.service.0].demand_s * ep.work_scale;
        for g in &ep.groups {
            for &(child, p) in &g.calls {
                self.accumulate_demand(child, mult * p, out);
            }
        }
    }
}

/// A CPU allocation vector (cores per service), the decision variable
/// x^t of the paper's ORA problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation(pub Vec<f64>);

/// Smallest allocation the cluster will accept for any service
/// (Kubernetes-style 50 millicore floor).
pub const MIN_ALLOC: f64 = 0.05;

impl Allocation {
    /// Builds an allocation, clamping every entry to at least
    /// [`MIN_ALLOC`].
    pub fn new(v: Vec<f64>) -> Self {
        let mut a = Allocation(v);
        a.clamp_floor();
        a
    }

    /// Uniform allocation of `cores` per service.
    pub fn uniform(n: usize, cores: f64) -> Self {
        Allocation::new(vec![cores; n])
    }

    /// Total allocated cores (the paper's Σ x_i objective).
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Per-service access.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Sets one entry (clamped to the floor).
    pub fn set(&mut self, i: usize, v: f64) {
        self.0[i] = v.max(MIN_ALLOC);
    }

    /// Multiplies one entry by `factor` (clamped to the floor).
    pub fn scale_service(&mut self, i: usize, factor: f64) {
        self.0[i] = (self.0[i] * factor).max(MIN_ALLOC);
    }

    /// Re-applies the allocation floor to every entry.
    pub fn clamp_floor(&mut self) {
        for v in &mut self.0 {
            if !v.is_finite() || *v < MIN_ALLOC {
                *v = MIN_ALLOC;
            }
        }
    }

    /// True if every entry of `self` is ≤ the corresponding entry of
    /// `other` (the partial order under which reductions are monotonic).
    pub fn dominated_by(&self, other: &Allocation) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

impl From<Vec<f64>> for Allocation {
    fn from(v: Vec<f64>) -> Self {
        Allocation::new(v)
    }
}

impl std::ops::Index<usize> for Allocation {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal two-service app: frontend -> backend.
    fn tiny_app() -> AppSpec {
        AppSpec {
            name: "tiny".into(),
            services: vec![
                ServiceSpec::new("frontend", 0.002),
                ServiceSpec::new("backend", 0.004),
            ],
            endpoints: vec![
                EndpointNode {
                    service: ServiceId(0),
                    work_scale: 1.0,
                    groups: vec![CallGroup {
                        calls: vec![(1, 1.0)],
                    }],
                },
                EndpointNode {
                    service: ServiceId(1),
                    work_scale: 1.0,
                    groups: vec![],
                },
            ],
            classes: vec![RequestClass {
                name: "get".into(),
                weight: 1.0,
                root: 0,
            }],
            nodes: vec![NodeSpec { cores: 20.0 }],
            net_delay_s: 0.0005,
            slo_ms: 100.0,
            generous_alloc: vec![2.0, 2.0],
        }
    }

    #[test]
    fn tiny_app_validates() {
        tiny_app().validate().unwrap();
    }

    #[test]
    fn detects_bad_service_ref() {
        let mut app = tiny_app();
        app.endpoints[1].service = ServiceId(9);
        assert!(matches!(
            app.validate(),
            Err(TopologyError::BadServiceRef { .. })
        ));
    }

    #[test]
    fn detects_bad_child_ref() {
        let mut app = tiny_app();
        app.endpoints[0].groups[0].calls[0].0 = 42;
        assert!(matches!(
            app.validate(),
            Err(TopologyError::BadEndpointRef { .. })
        ));
    }

    #[test]
    fn detects_cycle() {
        let mut app = tiny_app();
        app.endpoints[1].groups.push(CallGroup {
            calls: vec![(0, 1.0)],
        });
        assert!(matches!(app.validate(), Err(TopologyError::Cycle { .. })));
    }

    #[test]
    fn detects_bad_probability() {
        let mut app = tiny_app();
        app.endpoints[0].groups[0].calls[0].1 = 1.5;
        assert!(matches!(
            app.validate(),
            Err(TopologyError::BadNumber { .. })
        ));
    }

    #[test]
    fn detects_alloc_mismatch() {
        let mut app = tiny_app();
        app.generous_alloc = vec![1.0];
        assert_eq!(app.validate(), Err(TopologyError::AllocLenMismatch));
    }

    #[test]
    fn detects_bad_node() {
        let mut app = tiny_app();
        app.services[0].node = 3;
        assert!(matches!(
            app.validate(),
            Err(TopologyError::BadNodeRef { .. })
        ));
    }

    #[test]
    fn expected_visits_follow_probabilities() {
        let mut app = tiny_app();
        app.endpoints[0].groups[0].calls[0].1 = 0.5;
        let v = app.expected_visits();
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 0.5);
    }

    #[test]
    fn expected_demand_scales_with_work() {
        let mut app = tiny_app();
        app.endpoints[1].work_scale = 2.0;
        let d = app.expected_demand();
        assert!((d[0] - 0.002).abs() < 1e-12);
        assert!((d[1] - 0.008).abs() < 1e-12);
    }

    #[test]
    fn service_lookup_by_name() {
        let app = tiny_app();
        assert_eq!(app.service_by_name("backend"), Some(ServiceId(1)));
        assert_eq!(app.service_by_name("nope"), None);
    }

    #[test]
    fn allocation_clamps_floor() {
        let a = Allocation::new(vec![0.0, -1.0, 1.0]);
        assert_eq!(a.get(0), MIN_ALLOC);
        assert_eq!(a.get(1), MIN_ALLOC);
        assert_eq!(a.get(2), 1.0);
    }

    #[test]
    fn allocation_total_and_scale() {
        let mut a = Allocation::uniform(4, 1.0);
        assert_eq!(a.total(), 4.0);
        a.scale_service(0, 0.5);
        assert_eq!(a.total(), 3.5);
        a.scale_service(1, 0.0);
        assert_eq!(a.get(1), MIN_ALLOC);
    }

    #[test]
    fn allocation_domination() {
        let a = Allocation::new(vec![1.0, 1.0]);
        let b = Allocation::new(vec![1.0, 2.0]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(a.dominated_by(&a));
    }
}
