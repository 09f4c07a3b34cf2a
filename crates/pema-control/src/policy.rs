//! [`Policy`] — the decision-making third of the control loop, plus the
//! bundled policies of the paper's evaluation.
//!
//! A policy consumes one measured window and returns the allocation to
//! apply for the next interval. Everything else — window measurement,
//! early-abort checks, logging, allocation application — lives once in
//! [`ControlLoop`](crate::ControlLoop), and the cluster itself hides
//! behind [`ClusterBackend`](crate::ClusterBackend); the policy sees
//! neither. Where the policy is a run-time choice (`pema-cli run`,
//! `live`, `replay`, `fleet`), [`policy_by_name`] is the one place its
//! name becomes a value.

use crate::rule::RulePolicy;
use pema_core::{Action, Observation, PemaController, PemaParams, ServiceObs, WorkloadAwarePema};
use pema_sim::{Allocation, WindowStats};
use std::cell::RefCell;

/// Converts a measured window into the controller's observation — the
/// single place the telemetry vocabulary ([`WindowStats`]) is mapped
/// onto the controller vocabulary ([`Observation`]).
pub fn stats_to_obs(stats: &WindowStats) -> Observation {
    observe_into(stats, Vec::new())
}

/// [`stats_to_obs`] into a recycled service vector.
fn observe_into(stats: &WindowStats, mut services: Vec<ServiceObs>) -> Observation {
    services.clear();
    services.extend(stats.per_service.iter().map(|s| ServiceObs {
        util_pct: s.util_pct,
        throttle_s: s.throttled_s,
    }));
    Observation {
        p95_ms: stats.p95_ms,
        rps: stats.offered_rps,
        services,
    }
}

thread_local! {
    /// The service vector of the last observation the bundled PEMA
    /// policies built on this thread. A controller only reads its
    /// observation during the step, so a fleet worker's members take
    /// turns with one buffer instead of allocating one per interval.
    static OBS_SERVICES: RefCell<Vec<ServiceObs>> = const { RefCell::new(Vec::new()) };
}

/// Runs `step` on the observation of `stats`, built in this thread's
/// recycled buffer.
fn with_observation<R>(stats: &WindowStats, step: impl FnOnce(&Observation) -> R) -> R {
    let obs = observe_into(stats, OBS_SERVICES.take());
    let out = step(&obs);
    OBS_SERVICES.set(obs.services);
    out
}

/// What a policy decided at the end of one control interval.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Allocation to apply for the next interval.
    pub alloc: Vec<f64>,
    /// Human-readable action label for the log / CSVs.
    pub action: String,
    /// PEMA process id (workload-aware runs; 0 otherwise).
    pub pema_id: usize,
}

/// The policy-specific third of the control loop.
pub trait Policy {
    /// Called at the interval boundary *before* measuring; returning an
    /// allocation applies it for the coming interval (the manager's
    /// pre-emptive range switch, Fig. 18).
    fn pre_interval(&mut self, _rps: f64) -> Option<Allocation> {
        None
    }

    /// Consumes the measured window and decides the next allocation.
    fn decide(&mut self, stats: &WindowStats) -> Decision;

    /// The SLO currently in force, ms (may change mid-run, Fig. 20).
    fn slo_ms(&self) -> f64;
}

/// Boxed policies (including `Box<dyn Policy + Send>` chosen at run
/// time by [`policy_by_name`]) drive the loop directly, as boxed
/// backends do.
impl<P: Policy + ?Sized> Policy for Box<P> {
    fn pre_interval(&mut self, rps: f64) -> Option<Allocation> {
        (**self).pre_interval(rps)
    }

    fn decide(&mut self, stats: &WindowStats) -> Decision {
        (**self).decide(stats)
    }

    fn slo_ms(&self) -> f64 {
        (**self).slo_ms()
    }
}

/// Builds a bundled policy from the name every surface knows it by —
/// the one place a name becomes a policy. A policy needs the SLO it is
/// judged against and the allocation the run starts from (an app's
/// generous allocation, or a tape header's `initial_alloc`): `"pema"`
/// ([`PemaController`] with [`PemaParams::defaults`] and `seed`) starts
/// at `start`, `"rule"` ([`RulePolicy`]; takes no seed) caps at it and
/// `"hold"` ([`HoldPolicy`]) holds it. `None` for any other name.
pub fn policy_by_name(
    name: &str,
    slo_ms: f64,
    start: &[f64],
    seed: u64,
) -> Option<Box<dyn Policy + Send>> {
    Some(match name {
        "pema" => {
            let mut params = PemaParams::defaults(slo_ms);
            params.seed = seed;
            Box::new(PemaController::new(params, start.to_vec()))
        }
        "rule" => Box::new(RulePolicy::capped_at(start.to_vec(), slo_ms)),
        "hold" => Box::new(HoldPolicy::new(start.to_vec(), slo_ms)),
        _ => return None,
    })
}

impl Policy for PemaController {
    fn decide(&mut self, stats: &WindowStats) -> Decision {
        let out = with_observation(stats, |obs| self.step(obs));
        Decision {
            action: action_name(&out.action),
            alloc: out.alloc,
            pema_id: 0,
        }
    }

    fn slo_ms(&self) -> f64 {
        self.params().slo_ms
    }
}

impl Policy for WorkloadAwarePema {
    fn pre_interval(&mut self, rps: f64) -> Option<Allocation> {
        Some(Allocation::new(self.allocation_for(rps).to_vec()))
    }

    fn decide(&mut self, stats: &WindowStats) -> Decision {
        let out = with_observation(stats, |obs| self.step(obs));
        Decision {
            action: out
                .action
                .as_ref()
                .map(action_name)
                .unwrap_or_else(|| "learn-m".to_string()),
            alloc: out.alloc,
            pema_id: out.pema_id,
        }
    }

    fn slo_ms(&self) -> f64 {
        // The inherent accessor (disambiguated from this trait method).
        WorkloadAwarePema::slo_ms(self)
    }
}

/// A policy that never changes the allocation — open-loop measurement
/// through the same code path as closed-loop runs. The allocation is
/// applied *before* the first measurement (via
/// [`pre_interval`](Policy::pre_interval)), so a one-interval run is
/// exactly "set allocation, measure one window".
pub struct HoldPolicy {
    alloc: Vec<f64>,
    slo_ms: f64,
}

impl HoldPolicy {
    /// Holds `alloc` forever, marking violations against `slo_ms`.
    pub fn new(alloc: Vec<f64>, slo_ms: f64) -> Self {
        Self { alloc, slo_ms }
    }
}

impl Policy for HoldPolicy {
    fn pre_interval(&mut self, _rps: f64) -> Option<Allocation> {
        Some(Allocation::new(self.alloc.clone()))
    }

    fn decide(&mut self, _stats: &WindowStats) -> Decision {
        Decision {
            alloc: self.alloc.clone(),
            action: "hold".to_string(),
            pema_id: 0,
        }
    }

    fn slo_ms(&self) -> f64 {
        self.slo_ms
    }
}

pub(crate) fn action_name(a: &Action) -> String {
    match a {
        Action::RolledBack { .. } => "rollback".to_string(),
        Action::Explored { .. } => "explore".to_string(),
        Action::Reduced { services, .. } => format!("reduce({})", services.len()),
        Action::Held => "hold".to_string(),
    }
}
