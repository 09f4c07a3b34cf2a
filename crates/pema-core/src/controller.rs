//! The PEMA controller — Algorithm 1 of the paper.
//!
//! Per control interval the controller:
//!
//! 1. logs the previous interval into the RHDb;
//! 2. on an (instantaneous) SLO violation, rolls back to the cheapest
//!    feasible allocation in the RHDb (line 4);
//! 3. filters services whose CFS throttling exceeds their learned
//!    threshold out of the reduction candidates (line 8), then
//!    opportunistically raises the per-service utilization/throttling
//!    thresholds (Eqns. 6/7);
//! 4. with probability p_e (Eqn. 8) explores: jumps to a random
//!    feasible allocation from the RHDb;
//! 5. otherwise reduces: picks `n_t` services (Eqn. 3/10) weighted
//!    against high-utilization services (Eqn. 5) and shrinks each by
//!    `Δ_t` percent (Eqn. 4/11).
//!
//! ### A first deviation: filter before learning
//!
//! The paper updates thresholds (line 5) *before* filtering on them
//! (line 8) with the same interval's metrics, which makes the throttle
//! filter vacuous (`h ≤ max(H, h)` always holds). We filter against the
//! thresholds learned through the *previous* interval and then fold the
//! current metrics in — this preserves the opportunistic threshold
//! learning of Eqns. 6/7 while letting a throttling jump actually
//! exclude a service, which is the design intent of §3.2/Fig. 8.
//!
//! ### A second deviation: the 0/0 limit of Eqn. 5
//!
//! Eqn. 5 gives candidate `i` the inclusion probability
//! `1 − (u*_i − u*_min)/(1 − u*_min)` with `u*_i = U_i/U_th,i`, and a
//! service at its threshold (`u* = 1`) gets 0. When *every* candidate
//! sits at its threshold the formula is 0/0, and the paper does not
//! say what it means. On a repeatable signal this is the normal case:
//! utilization at a fixed allocation is constant, Eqn. 6 folds each
//! window into `U_th` before Eqn. 5 reads it, and after a cut the new
//! utilization is always the new maximum. Reading 0/0 as 0 stops PEMA
//! for good once every service crosses the initial 15 % threshold
//! (SockShop @ 560 rps on the fluid model holds at 15.12 cores from
//! interval 7 on, against RULE's 5.80). We read it as "no utilization
//! evidence to rank by": each candidate gets p = 1 and line 10's `n_t`
//! trim draws uniformly among them. That is the §3.2 design (reduce
//! `n_t` services by `Δ_t`, both sized by SLO headroom) without the
//! preference Eqn. 5 cannot express here. A service at its threshold
//! while another candidate is below its own keeps p = 0, as printed.
//! Cores after 60 fluid intervals (`pema-cli run --backend fluid
//! --iters 60`, seed 7), with 0 violations in every run:
//!
//! | app @ rps | RULE settled | PEMA, 0/0 as 0 | PEMA, 0/0 as uniform |
//! |---|---|---|---|
//! | sockshop @ 560 | 5.80 | 15.12 | 4.56 |
//! | trainticket @ 200 | 14.43 | 36.07 | 14.25 |
//! | hotelreservation @ 480 | 4.41 | 11.91 | 3.39 |
//!
//! Another rule — learning `U_th` only from windows with SLO margin,
//! or giving `U_th` a growth band like the throttle filter's — should
//! replace this one only with the same table.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::PemaParams;
use crate::rhdb::{Rhdb, RhdbRecord};
use pema_metrics::MovingAvg;
use pema_sim::{WindowStats, MIN_ALLOC};

/// Seed of every service's learned utilization threshold `U_th`, %.
const INIT_UTIL_THRESHOLD: f64 = 15.0;
/// Seed of every service's learned throttling threshold `H_th`, seconds.
const INIT_THROTTLE_THRESHOLD: f64 = 0.0;

/// What a policy did at the end of one control interval: one of
/// Algorithm 1's four outcomes, the workload-aware manager's learning
/// phase, or RULE. [`Display`](fmt::Display) prints the label the log,
/// the CSVs and the tapes carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// SLO violated: rolled back to the cheapest feasible allocation.
    RolledBack,
    /// Exploration fired: jumped to a random feasible allocation.
    Explored,
    /// Monotonic reduction of `n` services.
    Reduced {
        /// Number of services reduced.
        n: usize,
        /// Fractional reduction applied to each (e.g. 0.12 = −12%).
        delta: f64,
    },
    /// No change this interval: there is no SLO headroom (so `n_t` or
    /// `Δ_t` is zero), every service is throttle-excluded, or Eqn. 5's
    /// draw picked no candidate.
    Held,
    /// The workload-aware manager is still learning its slope `m`, with
    /// the allocation held.
    LearnM,
    /// RULE's usage-sized allocation.
    Rule,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::RolledBack => f.write_str("rollback"),
            Action::Explored => f.write_str("explore"),
            Action::Reduced { n, .. } => write!(f, "reduce({n})"),
            Action::Held => f.write_str("hold"),
            Action::LearnM => f.write_str("learn-m"),
            Action::Rule => f.write_str("rule"),
        }
    }
}

/// What a policy decided at the end of one control interval.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Allocation to apply for the next interval.
    pub alloc: Vec<f64>,
    /// The action that produced it.
    pub action: Action,
    /// PEMA process id (workload-aware runs; 0 otherwise).
    pub pema_id: usize,
}

/// The PEMA controller for one application (or one workload range).
#[derive(Debug, Clone)]
pub struct PemaController {
    params: PemaParams,
    alloc: Vec<f64>,
    /// Learned per-service utilization thresholds `U_th`, %.
    util_th: Vec<f64>,
    /// Learned per-service throttling thresholds `H_th`, seconds.
    throttle_th: Vec<f64>,
    rhdb: Rhdb,
    ma: MovingAvg,
    rng: SmallRng,
    t: u64,
    /// Response-time target `R` for Eqns. 3/4/8; defaults to the SLO
    /// and is overridden per-step by the workload-aware manager
    /// (Eqn. 9).
    pub(crate) target_ms: f64,
    /// Scratch reused across steps: the reduction candidates `I_t`,
    /// their normalized utilizations, and the services drawn from them
    /// (unordered).
    candidates: Vec<usize>,
    u_star: Vec<f64>,
    chosen: Vec<usize>,
}

impl PemaController {
    /// Creates a controller starting from an (ample) initial
    /// allocation.
    ///
    /// # Panics
    /// Panics on invalid parameters or an empty allocation.
    pub fn new(params: PemaParams, initial_alloc: Vec<f64>) -> Self {
        params.validate().expect("invalid PemaParams");
        assert!(!initial_alloc.is_empty(), "empty initial allocation");
        let n = initial_alloc.len();
        let seed = params.seed;
        let target = params.slo_ms;
        Self {
            util_th: vec![INIT_UTIL_THRESHOLD; n],
            throttle_th: vec![INIT_THROTTLE_THRESHOLD; n],
            rhdb: Rhdb::new(100_000),
            ma: MovingAvg::new(params.ma_window),
            rng: SmallRng::seed_from_u64(seed),
            t: 0,
            alloc: initial_alloc,
            target_ms: target,
            params,
            candidates: Vec::with_capacity(n),
            u_star: Vec::with_capacity(n),
            chosen: Vec::with_capacity(n),
        }
    }

    /// Current allocation (what the controller believes is deployed).
    pub fn allocation(&self) -> &[f64] {
        &self.alloc
    }

    /// Total cores of the current allocation.
    pub fn total_alloc(&self) -> f64 {
        self.alloc.iter().sum()
    }

    /// Controller step count.
    pub fn iteration(&self) -> u64 {
        self.t
    }

    /// The parameters in force.
    pub fn params(&self) -> &PemaParams {
        &self.params
    }

    /// Read access to the history database.
    pub fn rhdb(&self) -> &Rhdb {
        &self.rhdb
    }

    /// Learned utilization thresholds (`U_th`), %.
    pub fn util_thresholds(&self) -> &[f64] {
        &self.util_th
    }

    /// Learned throttling thresholds (`H_th`), seconds.
    pub fn throttle_thresholds(&self) -> &[f64] {
        &self.throttle_th
    }

    /// Overrides the response-time target `R` used in Eqns. 3/4/8
    /// (the workload-aware manager sets `R(λ)` here each step). The
    /// SLO used for violation detection is unchanged.
    pub fn set_target_ms(&mut self, target_ms: f64) {
        self.target_ms = target_ms.clamp(1e-3, self.params.slo_ms);
    }

    /// Replaces the controller's SLO (Fig. 20's dynamic-SLO scenario).
    /// Also resets the target to the new SLO.
    pub fn set_slo_ms(&mut self, slo_ms: f64) {
        assert!(slo_ms > 0.0, "SLO must be positive");
        self.params.slo_ms = slo_ms;
        self.target_ms = slo_ms;
    }

    /// Replaces the current allocation (used when an external actor —
    /// e.g. the range manager on a workload switch — moves the system).
    pub fn set_allocation(&mut self, alloc: Vec<f64>) {
        assert_eq!(alloc.len(), self.alloc.len(), "allocation length");
        self.alloc = alloc;
    }

    /// Normalized SLO headroom `min((R − r)/(αR), 1)` clamped at 0
    /// (Eqns. 3/4/8 share this term).
    fn headroom(&self, r_ms: f64) -> f64 {
        let r_target = self.target_ms * self.params.response_buffer;
        if !r_ms.is_finite() {
            return 0.0;
        }
        ((r_target - r_ms) / (self.params.alpha * r_target)).clamp(0.0, 1.0)
    }

    /// The decision to deploy the current allocation after `action`.
    fn decision(&self, action: Action) -> Decision {
        Decision {
            alloc: self.alloc.clone(),
            action,
            pema_id: 0,
        }
    }

    /// Runs one control interval given the previous interval's
    /// measured window, returning the allocation for the next interval
    /// and the action that chose it.
    ///
    /// Reads four signals and nothing else: `p95_ms`, `offered_rps`,
    /// and each service's `util_pct` and `throttled_s`.
    ///
    /// # Panics
    /// Panics if the window's service count does not match.
    pub fn step(&mut self, stats: &WindowStats) -> Decision {
        assert_eq!(
            stats.per_service.len(),
            self.alloc.len(),
            "window/allocation service count mismatch"
        );
        self.t += 1;
        let r_inst = stats.p95_ms;
        let violated = r_inst > self.params.slo_ms;

        // Line 3: log the interval we just observed. A window without
        // a p95 (NaN: a degraded live scrape) proves nothing, so it is
        // logged as not feasible; it does not trigger a rollback.
        self.rhdb.insert(RhdbRecord {
            t: self.t - 1,
            alloc: self.alloc.clone(),
            response_ms: r_inst,
            violated: violated || r_inst.is_nan(),
            rps: stats.offered_rps,
        });

        // The moving average tracks every observation, including
        // violating ones (they happened); rollback below acts on the
        // *instantaneous* value per §3.5.
        let r_ma = self.ma.push(if r_inst.is_finite() {
            r_inst
        } else {
            // Saturation: fold in a pessimistic-but-finite stand-in so
            // the average recovers once the system does.
            self.params.slo_ms * 10.0
        });

        // Line 4: QoS assurance — roll back on instantaneous violation.
        // The rollback target is the cheapest record with *margin*
        // (response within the buffered target), so we do not bounce
        // between a borderline allocation and violation.
        if violated {
            // Monotonicity (§3.2): allocations dominated by the one
            // that just violated cannot be feasible either.
            self.rhdb.invalidate_dominated(&self.alloc);
            let cap = self.params.slo_ms * self.params.response_buffer;
            let cur_total = self.total_alloc();
            // 1. Prefer evidence gathered at (or above) the current
            //    load — under a rising workload, feasibility records
            //    from lower loads are stale (§3.4's workload-awareness
            //    applied to rollback).
            if let Some(r) = self.rhdb.best_proven_at_load(cap, stats.offered_rps * 0.98) {
                self.alloc.clone_from(&r.alloc);
            } else {
                // 2. No evidence at this load. A record from a lower
                //    load only helps if it is meaningfully *larger*
                //    than what just failed; otherwise escalate
                //    multiplicatively — the §6 "degree of violation"
                //    improvement: when history offers nothing safe,
                //    grow instead of thrashing sideways.
                let fallback = self
                    .rhdb
                    .best_with_margin(cap)
                    .filter(|r| r.total() > cur_total * 1.05);
                match fallback {
                    Some(r) => self.alloc.clone_from(&r.alloc),
                    None => {
                        for x in &mut self.alloc {
                            *x *= 1.25;
                        }
                    }
                }
            }
            // With no feasible history we keep the current allocation;
            // the caller started us from an ample configuration, so
            // this only happens when the SLO itself is unattainable.
            return self.decision(Action::RolledBack);
        }

        // Line 8 (moved before line 5 — see module docs): candidate set
        // I_t = services whose throttling has not *jumped* past the
        // threshold learned so far. A growth band distinguishes the
        // gradual throttling increase of healthy operation (absorbed
        // into the threshold per Eqn. 7) from the sharp jump at a
        // bottleneck (Fig. 8b), which excludes the service and is NOT
        // learned — otherwise a bottleneck signature would be folded
        // into the threshold after a single interval and the filter
        // could never fire again.
        let band = |th: f64| (0.5 * th).max(0.05);
        self.candidates.clear();
        self.candidates.extend((0..self.alloc.len()).filter(|&i| {
            stats.per_service[i].throttled_s <= self.throttle_th[i] + band(self.throttle_th[i])
        }));

        // Lines 5: opportunistically raise thresholds (Eqns. 6/7),
        // unless frozen for the threshold-learning ablation.
        if !self.params.freeze_thresholds {
            for (i, s) in stats.per_service.iter().enumerate() {
                if s.util_pct.is_finite() {
                    self.util_th[i] = self.util_th[i].max(s.util_pct);
                }
                if s.throttled_s.is_finite()
                    && s.throttled_s <= self.throttle_th[i] + band(self.throttle_th[i])
                {
                    self.throttle_th[i] = self.throttle_th[i].max(s.throttled_s);
                }
            }
        }

        // Line 6: exploration (Eqn. 8) — probability shrinks as the
        // response approaches the target.
        let p_e = self.params.explore_a * self.headroom(r_ma) + self.params.explore_b;
        if self.rng.gen::<f64>() < p_e {
            if let Some(r) = self.rhdb.random_feasible(&mut self.rng) {
                self.alloc.clone_from(&r.alloc);
                return self.decision(Action::Explored);
            }
        }

        // Line 7: reduction sizing from the *smoothed* response
        // (Eqns. 10/11).
        let h = self.headroom(r_ma);
        let n_t = ((self.alloc.len() as f64) * h).floor() as usize;
        let delta = self.params.beta * h;
        if n_t == 0 || delta <= 1e-6 || self.candidates.is_empty() {
            return self.decision(Action::Held);
        }

        // Line 9: inclusion probabilities (Eqn. 5) over normalized
        // utilization — low-utilization services are preferred targets.
        self.u_star.clear();
        self.u_star.extend(self.candidates.iter().map(|&i| {
            let th = self.util_th[i].max(1e-9);
            stats.per_service[i].util_pct / th
        }));
        let u_min = self.u_star.iter().copied().fold(f64::INFINITY, f64::min);
        // Every candidate sits at its threshold: Eqn. 5 is 0/0 and
        // ranks nothing, so each is drawn and line 10 trims uniformly
        // (second deviation, module docs).
        let all_at_threshold = self.u_star.iter().all(|&u| (u - 1.0).abs() < 1e-12);
        let chosen = &mut self.chosen;
        chosen.clear();
        for (&i, &u) in self.candidates.iter().zip(&self.u_star) {
            let p = if all_at_threshold {
                1.0
            } else if u >= 1.0 {
                0.0
            } else {
                (1.0 - (u - u_min) / (1.0 - u_min)).clamp(0.0, 1.0)
            };
            if self.rng.gen::<f64>() < p {
                chosen.push(i);
            }
        }

        // Line 10: trim to n_t uniformly at random if oversubscribed.
        if chosen.len() > n_t {
            // Partial Fisher–Yates: pick n_t distinct entries.
            for k in 0..n_t {
                let j = self.rng.gen_range(k..chosen.len());
                chosen.swap(k, j);
            }
            chosen.truncate(n_t);
        }
        if chosen.is_empty() {
            return self.decision(Action::Held);
        }

        for &i in chosen.iter() {
            self.alloc[i] = (self.alloc[i] * (1.0 - delta)).max(MIN_ALLOC);
        }
        let n = chosen.len();
        self.decision(Action::Reduced { n, delta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pema_sim::ServiceWindowStats;

    fn svc(util_pct: f64, throttled_s: f64) -> ServiceWindowStats {
        ServiceWindowStats {
            util_pct,
            throttled_s,
            ..Default::default()
        }
    }

    fn window(p95: f64, services: Vec<ServiceWindowStats>) -> WindowStats {
        WindowStats {
            p95_ms: p95,
            offered_rps: 100.0,
            per_service: services,
            ..Default::default()
        }
    }

    fn obs(p95: f64, n: usize) -> WindowStats {
        window(p95, vec![svc(10.0, 0.0); n])
    }

    fn controller(n: usize) -> PemaController {
        let mut p = PemaParams::defaults(250.0);
        // Exploration off for deterministic reduction tests.
        p.explore_a = 0.0;
        p.explore_b = 0.0;
        PemaController::new(p, vec![2.0; n])
    }

    #[test]
    fn reduces_when_headroom_is_large() {
        let mut c = controller(8);
        let before = c.total_alloc();
        let out = c.step(&obs(50.0, 8));
        match out.action {
            Action::Reduced { n, delta } => {
                assert!(n > 0);
                assert!(delta > 0.0 && delta <= 0.3 + 1e-12);
            }
            a => panic!("expected reduction, got {a:?}"),
        }
        assert!(c.total_alloc() < before);
    }

    #[test]
    fn reduction_is_monotonic() {
        let mut c = controller(8);
        let before = c.allocation().to_vec();
        c.step(&obs(50.0, 8));
        let after = c.allocation();
        for (a, b) in after.iter().zip(&before) {
            assert!(a <= b, "no service may grow in a reduction step");
        }
    }

    #[test]
    fn holds_when_at_target() {
        let mut c = controller(8);
        // Response exactly at buffered target → zero headroom.
        let out = c.step(&obs(250.0 * 0.95, 8));
        assert_eq!(out.action, Action::Held);
    }

    #[test]
    fn rolls_back_on_violation() {
        let mut c = controller(4);
        // Build history: a feasible step at total 8.0.
        c.step(&obs(100.0, 4));
        let feasible_total = c.total_alloc();
        // Now violate.
        let out = c.step(&obs(400.0, 4));
        assert_eq!(out.action, Action::RolledBack, "expected rollback");
        // Rolls back to the cheapest feasible record, which is the
        // allocation in force during the feasible step (i.e. the
        // *initial* allocation, totalling 8).
        let to_total = c.total_alloc();
        assert!(to_total >= feasible_total || (to_total - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rollback_prefers_cheapest_feasible() {
        let mut c = controller(4);
        // Several reduction steps build cheaper feasible records.
        for _ in 0..5 {
            c.step(&obs(50.0, 4));
        }
        let cheapest = c.total_alloc();
        let out = c.step(&obs(1000.0, 4));
        assert_eq!(out.action, Action::RolledBack, "expected rollback");
        // The last allocation (cheapest) was logged *violating*, so the
        // rollback target is the cheapest non-violating one: the
        // allocation before the final reduction.
        let to_total = c.total_alloc();
        assert!(to_total >= cheapest);
        assert!(to_total <= 8.0 + 1e-9);
    }

    #[test]
    fn saturated_observation_rolls_back() {
        let mut c = controller(4);
        c.step(&obs(50.0, 4));
        let out = c.step(&obs(f64::INFINITY, 4));
        assert_eq!(out.action, Action::RolledBack);
    }

    #[test]
    fn throttling_service_excluded_from_reduction() {
        let mut c = controller(2);
        // Service 1 throttles hard; thresholds start at 0 so it is
        // filtered from candidates this step.
        let o = window(50.0, vec![svc(10.0, 0.0), svc(10.0, 5.0)]);
        for _ in 0..20 {
            c.step(&o);
            assert_eq!(c.allocation()[1], 2.0, "throttling service reduced");
        }
    }

    #[test]
    fn thresholds_learn_opportunistically() {
        let mut c = controller(2);
        let mk = |throttle: f64| window(50.0, vec![svc(42.0, throttle), svc(8.0, 0.0)]);
        // Gradual throttle growth (within the band) is learned.
        c.step(&mk(0.04));
        assert_eq!(c.util_thresholds()[0], 42.0);
        assert_eq!(c.throttle_thresholds()[0], 0.04);
        c.step(&mk(0.06));
        assert_eq!(c.throttle_thresholds()[0], 0.06);
        // A sharp jump is NOT absorbed into the threshold.
        c.step(&mk(3.0));
        assert_eq!(c.throttle_thresholds()[0], 0.06);
        // Thresholds never decrease.
        c.step(&obs(50.0, 2));
        assert_eq!(c.util_thresholds()[0], 42.0);
        assert_eq!(c.throttle_thresholds()[0], 0.06);
    }

    #[test]
    fn at_threshold_utilization_never_reduced() {
        let mut c = controller(2);
        // Step 1 raises service 0's threshold to 40%.
        let mut o = obs(50.0, 2);
        o.per_service[0].util_pct = 40.0;
        c.step(&o);
        let at_threshold = c.allocation()[0];
        // Now service 0 runs at exactly its threshold → p = 0.
        let mut o2 = obs(50.0, 2);
        o2.per_service[0].util_pct = 40.0;
        o2.per_service[1].util_pct = 5.0;
        for _ in 0..20 {
            c.step(&o2);
            assert_eq!(
                c.allocation()[0],
                at_threshold,
                "at-threshold service reduced"
            );
        }
    }

    #[test]
    fn nan_windows_are_not_feasible_evidence() {
        let mut c = controller(3);
        for _ in 0..5 {
            let out = c.step(&obs(f64::NAN, 3));
            assert_ne!(out.action, Action::RolledBack);
        }
        assert_eq!(c.rhdb().len(), 5);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(c.rhdb().random_feasible(&mut rng).is_none());
        assert!(c.rhdb().best_feasible().is_none());
    }

    #[test]
    fn allocation_respects_floor() {
        let mut c = controller(2);
        for _ in 0..200 {
            c.step(&obs(10.0, 2));
        }
        for &a in c.allocation() {
            assert!(a >= MIN_ALLOC - 1e-12);
        }
    }

    #[test]
    fn exploration_jumps_to_feasible_history() {
        let mut p = PemaParams::defaults(250.0);
        p.explore_a = 1.0;
        p.explore_b = 0.0;
        p.beta = 0.3;
        let mut c = PemaController::new(p, vec![2.0; 4]);
        // First step always acts on an empty-ish history; build some.
        let mut explored = false;
        for _ in 0..30 {
            let out = c.step(&obs(50.0, 4));
            if out.action == Action::Explored {
                explored = true;
                break;
            }
        }
        assert!(explored, "with A=1 exploration must fire");
    }

    #[test]
    fn exploration_can_increase_allocation() {
        let mut p = PemaParams::defaults(250.0);
        p.explore_a = 0.5;
        p.explore_b = 0.1;
        let mut c = PemaController::new(p, vec![2.0; 4]);
        let mut increased = false;
        let mut prev = c.total_alloc();
        for _ in 0..100 {
            let out = c.step(&obs(50.0, 4));
            if out.action == Action::Explored && c.total_alloc() > prev + 1e-9 {
                increased = true;
                break;
            }
            prev = c.total_alloc();
        }
        assert!(increased, "exploration should sometimes walk back up");
    }

    #[test]
    fn dynamic_target_slows_reduction() {
        let mut a = controller(8);
        let mut b = controller(8);
        b.set_target_ms(120.0); // tighter target than the 250 ms SLO
        let oa = a.step(&obs(100.0, 8));
        let ob = b.step(&obs(100.0, 8));
        let da = match oa.action {
            Action::Reduced { delta, .. } => delta,
            _ => 0.0,
        };
        let db = match ob.action {
            Action::Reduced { delta, .. } => delta,
            _ => 0.0,
        };
        assert!(
            da > db,
            "tighter target must reduce less (da={da}, db={db})"
        );
    }

    #[test]
    fn set_slo_resets_target() {
        let mut c = controller(2);
        c.set_target_ms(100.0);
        c.set_slo_ms(300.0);
        c.step(&obs(50.0, 2));
        assert_eq!(c.target_ms, 300.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut p = PemaParams::defaults(250.0);
            p.seed = 42;
            PemaController::new(p, vec![2.0; 6])
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..30 {
            let oa = a.step(&obs(60.0, 6));
            let ob = b.step(&obs(60.0, 6));
            assert_eq!(oa.alloc, ob.alloc);
        }
    }

    #[test]
    fn every_action_renders_its_log_label() {
        let cases = [
            (Action::RolledBack, "rollback"),
            (Action::Explored, "explore"),
            (Action::Reduced { n: 1, delta: 0.3 }, "reduce(1)"),
            (Action::Reduced { n: 13, delta: 1e-3 }, "reduce(13)"),
            (Action::Held, "hold"),
            (Action::LearnM, "learn-m"),
            (Action::Rule, "rule"),
        ];
        for (action, label) in cases {
            assert_eq!(action.to_string(), label, "{action:?}");
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_observation_panics() {
        let mut c = controller(3);
        c.step(&obs(50.0, 2));
    }
}
