//! Fast analytic ("fluid") approximation of the cluster.
//!
//! Each service is treated as an M/G/1 processor-sharing station with
//! capacity equal to its CPU allocation, plus a CFS burst-throttling
//! penalty estimated from the Poisson arrival count per 100 ms period.
//! End-to-end latency combines per-visit sojourn times over the call
//! tree (sequential groups add, parallel calls take the max).
//!
//! The fluid model is three to four orders of magnitude faster than the
//! DES and is *shape-faithful* — monotone in every allocation entry,
//! diverging at saturation, throttling kicking in sharply near the
//! bottleneck allocation — but its absolute numbers are approximate.
//! It backs property tests and the `ablation_fluid` bench; headline
//! results always come from the DES.
//!
//! ## The evaluation plan
//!
//! [`FluidEvaluator::new`] compiles the [`AppSpec`] once into a flat
//! plan and keeps no copy of the spec, so a fleet member's model is a
//! handful of contiguous arrays instead of a few hundred small heap
//! blocks:
//!
//! * `services` — per service, side by side: expected visits and CPU
//!   demand per user request, and the memory floor;
//! * `order` — the endpoints reachable from a class root, children
//!   before parents (the spec is validated acyclic), each with its
//!   service index, its `work_scale.max(0.0)` and its span of call
//!   groups. An endpoint no root reaches is not in the plan;
//! * `calls` — the spec's `CallTable` (see `topology.rs`), the same
//!   flattened `(child, probability)` table the DES fans out from;
//! * `classes` — `(weight, root)` pairs and the weight total;
//! * `sojourn`, `ep_latency` — scratch reused across evaluations.
//!
//! One evaluation is two loops and no recursion: a pass over
//! `services` computes each per-visit demand once and one
//! `normal_tail` (an `exp`), shared by the sojourn and the throttle
//! fraction; a pass over `order` computes each endpoint's latency
//! exactly once, however many parents call it. Because the plan is
//! compiled at construction, later edits to the `AppSpec` do not reach
//! an evaluator built from it; the model's knobs (`speed`, `window_s`,
//! `burst_p90`, `peak_factor`, `tail`) are fields of the evaluator and
//! are read at evaluation time.
//!
//! ## Why the operand order is frozen
//!
//! Goldens, the backend conformance suite and the benchmark's digests
//! pin this model's output bit for bit, and floating-point arithmetic
//! is not associative. Every expression below therefore keeps the
//! operands and the order the recursive evaluator used —
//! `demand / visits / speed`, `p * (child + 2.0 * net_delay_s)`,
//! `weight / total * latency`, `f64::max` dropping the NaN that
//! `0 × ∞` makes of a never-taken call to a saturated child — and
//! `tests/fluid_oracle.rs` holds that evaluator and compares the two
//! `to_bits()` for `to_bits()`. Memoising a shared child is exact: its
//! latency is a pure function of the sojourns.

use crate::evaluator::Evaluator;
use crate::runtime::CFS_PERIOD_S;
use crate::stats::{ServiceWindowStats, WindowStats};
use crate::topology::{Allocation, AppSpec, CallTable};

/// The historical constant multiplier from mean end-to-end latency to
/// estimated p95 (the pre-calibration model: `p95 = 2.6 × mean`,
/// `p99 = 1.4 × p95`, `max = 2 × p95`, independent of load). Kept
/// public as the baseline the calibrated [`TailModel`] is measured
/// against — see [`TailModel::constant`] and the knee drift test in
/// `pema-bench`.
pub const LEGACY_P95_FACTOR: f64 = 2.6;

// Fitted coefficients of [`TailModel::calibrated`] — pinned from the
// `tail_knee` probe (see its scenario output and `docs/fluid-tail.md`;
// the probe re-fits on every run and the drift test keeps these within
// the DES-plausible band). Each quantile is
// `base + slope·ρ + gain·ρ^sharp`: a negative slope cancels the fluid
// mean's premature mid-load congestion, and the `ρ^sharp` knee term
// restores the sharp near-saturation rise the DES measures.
const TAIL_P95_BASE: f64 = 2.16;
const TAIL_P95_SLOPE: f64 = -1.70;
const TAIL_P95_GAIN: f64 = 1.55;
const TAIL_P95_SHARP: f64 = 13.1;
const TAIL_P99_BASE: f64 = 2.98;
const TAIL_P99_SLOPE: f64 = -2.00;
const TAIL_P99_GAIN: f64 = 1.80;
const TAIL_P99_SHARP: f64 = 10.5;
const TAIL_MAX_BASE: f64 = 4.60;
const TAIL_MAX_SLOPE: f64 = -3.50;
const TAIL_MAX_GAIN: f64 = 8.10;
const TAIL_MAX_SHARP: f64 = 1.0;

/// Default synthetic peak factor: the reported per-second usage *peak*
/// as a multiple of the mean usage rate. Historically this floor was
/// fused into the p90 expression (`burst_p90.max(2.5)`), which silently
/// pinned the reported peak at 2.5× mean regardless of the calibrated
/// burstiness knob; it is now its own knob
/// ([`FluidEvaluator::peak_factor`]), with the reported peak clamped to
/// never sit below the reported p90.
pub const PEAK_FACTOR_DEFAULT: f64 = 2.5;

/// One load-dependent tail multiplier:
/// `factor(ρ) = base + slope·ρ + gain·ρ^sharp`, where ρ is the
/// bottleneck utilization of the evaluated allocation.
///
/// The form captures the two systematic errors the DES knee sweeps
/// expose in the constant-factor model:
///
/// * **Mid-load overshoot** (the `slope` term, fitted negative): the
///   fluid mean's M/G/1-PS `1/(1−ρ)` congestion rises much earlier
///   than the DES's measured latency, whose multi-job processor
///   sharing smooths mid-load queueing — so the mean→quantile
///   multiplier must *shrink* as ρ grows to keep the modelled knee
///   flat where the DES's is flat.
/// * **Near-saturation sharpening** (the `gain·ρ^sharp` term, fitted
///   with a large exponent): past ρ ≈ 0.9 the DES tail explodes
///   faster than `1/(1−ρ)` — CFS throttling stalls pile onto
///   queueing — so the multiplier turns back up sharply as ρ → 1.
///
/// Together they bend the flat-factor model's smeared knee into the
/// DES's: flat longer, then steeper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailCurve {
    /// Factor at ρ = 0 (tail of the no-queueing service-time mix).
    pub base: f64,
    /// Linear mid-load correction (negative: the fluid mean
    /// over-congests relative to the DES as ρ grows).
    pub slope: f64,
    /// Knee term amplitude — the factor regained as ρ → 1.
    pub gain: f64,
    /// Knee term exponent (higher = the rise happens later and
    /// sharper).
    pub sharp: f64,
}

impl TailCurve {
    /// A curve with the given coefficients.
    pub const fn new(base: f64, slope: f64, gain: f64, sharp: f64) -> Self {
        Self {
            base,
            slope,
            gain,
            sharp,
        }
    }

    /// A load-independent factor (the legacy behavior).
    pub const fn flat(factor: f64) -> Self {
        Self {
            base: factor,
            slope: 0.0,
            gain: 0.0,
            sharp: 1.0,
        }
    }

    /// The multiplier at bottleneck utilization `rho` (clamped to
    /// [0, 1]; beyond 1 the mean itself is already infinite). Floored
    /// at 0.05 so no coefficient choice can report a non-positive
    /// quantile.
    pub fn factor(&self, rho: f64) -> f64 {
        let r = if rho.is_finite() {
            rho.clamp(0.0, 1.0)
        } else {
            1.0
        };
        (self.base + self.slope * r + self.gain * r.powf(self.sharp)).max(0.05)
    }
}

/// The fluid model's mean-to-quantile map: one [`TailCurve`] per
/// reported quantile, each a multiplier on the mean end-to-end latency
/// evaluated at the bottleneck utilization ρ.
///
/// The default ([`TailModel::calibrated`]) is fitted against DES knee
/// sweeps (see the `tail_knee` scenario in `pema-bench` and
/// `docs/fluid-tail.md`); [`TailModel::constant`] reproduces the
/// pre-calibration flat-factor behavior for comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailModel {
    /// Mean → p95 multiplier.
    pub p95: TailCurve,
    /// Mean → p99 multiplier.
    pub p99: TailCurve,
    /// Mean → max multiplier.
    pub max: TailCurve,
}

impl TailModel {
    /// The DES-calibrated tail model (fitted on the `tail_knee` probe:
    /// allocation sweeps of the three paper apps at their Fig. 6
    /// workloads, one 15 s DES window per point; coefficients minimize
    /// log-RMS p95 error — see `docs/fluid-tail.md` for the probe
    /// setup, the fit, and the residual table). A drift test in
    /// `pema-bench` re-runs the probe and fails if this model leaves
    /// the DES-plausible band or stops halving the constant-factor
    /// baseline's error.
    pub const fn calibrated() -> Self {
        Self {
            p95: TailCurve::new(TAIL_P95_BASE, TAIL_P95_SLOPE, TAIL_P95_GAIN, TAIL_P95_SHARP),
            p99: TailCurve::new(TAIL_P99_BASE, TAIL_P99_SLOPE, TAIL_P99_GAIN, TAIL_P99_SHARP),
            max: TailCurve::new(TAIL_MAX_BASE, TAIL_MAX_SLOPE, TAIL_MAX_GAIN, TAIL_MAX_SHARP),
        }
    }

    /// The legacy constant-factor model: `p95 = factor × mean`,
    /// `p99 = 1.4 × p95`, `max = 2 × p95` at every load. Pass
    /// [`LEGACY_P95_FACTOR`] to reproduce the pre-calibration fluid
    /// backend exactly.
    pub const fn constant(p95_factor: f64) -> Self {
        Self {
            p95: TailCurve::flat(p95_factor),
            p99: TailCurve::flat(p95_factor * 1.4),
            max: TailCurve::flat(p95_factor * 2.0),
        }
    }
}

impl Default for TailModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Default synthetic burstiness: the reported p90 of per-second CPU
/// usage as a multiple of the mean usage rate. Calibrated against a
/// DES window set (SockShop @ 550 rps, generous allocation, 20 s
/// windows, seeds 7/42), where the per-service median of
/// `usage_p90_cores / mean usage` is ≈ 1.15; the same probe puts the
/// three paper apps between 1.06 and 1.31 overall. The historical
/// hard-coded 1.6 overstated DES burstiness by ~40%, which made
/// fluid-backed RULE baselines over-allocate (see README,
/// "Fluid-model fidelity"). Override per run with
/// [`FluidEvaluator::burst_p90`].
pub const BURST_P90_DEFAULT: f64 = 1.15;

/// One service's constants: expected visits and CPU-seconds per user
/// request over the class mix, and the resident memory floor.
struct ServicePlan {
    visits: f64,
    demand: f64,
    mem_base_bytes: f64,
}

/// One reachable endpoint, in bottom-up order.
struct EndpointPlan {
    /// Index into the spec's endpoint arena (and `ep_latency`).
    ep: u32,
    service: u32,
    /// `work_scale.max(0.0)`.
    work_scale: f64,
    /// This endpoint's range of [`CallTable::group_spans`].
    groups: (u32, u32),
}

/// Analytic evaluator implementing the same [`Evaluator`] interface as
/// the DES-backed one. Compiles the spec at construction (see the
/// module docs): change the model through the public fields here, not
/// through the `AppSpec` it was built from.
pub struct FluidEvaluator {
    services: Vec<ServicePlan>,
    order: Vec<EndpointPlan>,
    calls: CallTable,
    /// `(weight, root endpoint)` per request class.
    classes: Vec<(f64, u32)>,
    class_weight_total: f64,
    net_delay_s: f64,
    slo_ms: f64,
    /// Scratch: mean sojourn per visit, by service.
    sojourn: Vec<f64>,
    /// Scratch: mean latency by endpoint (unreachable entries stay 0
    /// and are never read).
    ep_latency: Vec<f64>,
    /// CPU speed factor, mirroring [`crate::ClusterSim::set_speed`].
    pub speed: f64,
    /// Pretend window length used for reporting counters, seconds.
    pub window_s: f64,
    /// Synthetic burstiness: reported per-second usage p90 as a
    /// multiple of the mean usage rate (what rule-based allocators act
    /// on). Defaults to [`BURST_P90_DEFAULT`], calibrated against DES
    /// windows.
    pub burst_p90: f64,
    /// Synthetic peak: reported per-second usage peak as a multiple of
    /// the mean usage rate. Defaults to [`PEAK_FACTOR_DEFAULT`]; the
    /// reported peak never sits below the reported p90 however the two
    /// knobs are set.
    pub peak_factor: f64,
    /// Mean-to-quantile tail map evaluated at the bottleneck
    /// utilization. Defaults to [`TailModel::calibrated`]; use
    /// [`TailModel::constant`] for the legacy flat-factor behavior.
    pub tail: TailModel,
}

/// The endpoints reachable from the class roots, every child before
/// any of its parents.
fn bottom_up_order(app: &AppSpec, calls: &CallTable) -> Vec<EndpointPlan> {
    let groups_of = |ep: usize| (calls.ep_group_start[ep], calls.ep_group_start[ep + 1]);
    let children_of = |ep: usize| {
        let (lo, hi) = groups_of(ep);
        calls.group_spans[lo as usize..hi as usize]
            .iter()
            .flat_map(|&(lo, hi)| &calls.flat_calls[lo as usize..hi as usize])
            .map(|&(child, _)| child as usize)
    };
    let mut order = Vec::new();
    let mut seen = vec![false; app.endpoints.len()];
    // Depth-first with an explicit stack: an endpoint is emitted when
    // it is popped the second time, after everything below it.
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for c in &app.classes {
        stack.push((c.root, false));
        while let Some((ep, expanded)) = stack.pop() {
            if expanded {
                let e = &app.endpoints[ep];
                order.push(EndpointPlan {
                    ep: ep as u32,
                    service: e.service.0 as u32,
                    work_scale: e.work_scale.max(0.0),
                    groups: groups_of(ep),
                });
            } else if !seen[ep] {
                seen[ep] = true;
                stack.push((ep, true));
                stack.extend(children_of(ep).filter(|&c| !seen[c]).map(|c| (c, false)));
            }
        }
    }
    order
}

impl FluidEvaluator {
    /// Builds the fluid model for an application.
    pub fn new(app: &AppSpec) -> Self {
        app.validate().expect("invalid AppSpec");
        let services = app
            .expected_visits()
            .into_iter()
            .zip(app.expected_demand())
            .zip(&app.services)
            .map(|((visits, demand), s)| ServicePlan {
                visits,
                demand,
                mem_base_bytes: s.mem_base_bytes,
            })
            .collect();
        let calls = app.call_table();
        Self {
            services,
            order: bottom_up_order(app, &calls),
            calls,
            classes: app
                .classes
                .iter()
                .map(|c| (c.weight, c.root as u32))
                .collect(),
            class_weight_total: app.classes.iter().map(|c| c.weight).sum(),
            net_delay_s: app.net_delay_s,
            slo_ms: app.slo_ms,
            sojourn: vec![0.0; app.services.len()],
            ep_latency: vec![0.0; app.endpoints.len()],
            speed: 1.0,
            window_s: 20.0,
            burst_p90: BURST_P90_DEFAULT,
            peak_factor: PEAK_FACTOR_DEFAULT,
            tail: TailModel::calibrated(),
        }
    }

    /// Per-visit service demand (seconds of CPU) of `s`, or 0 when the
    /// service is never visited.
    fn visit_demand(&self, s: &ServicePlan) -> f64 {
        if s.visits > 0.0 {
            s.demand / s.visits / self.speed
        } else {
            0.0
        }
    }

    /// Bottleneck utilization of the app under `alloc` at `rps` — the
    /// ρ the [`TailModel`] is evaluated at. ≥ 1 means some service
    /// cannot carry its offered work (the mean is infinite there).
    pub fn bottleneck_rho(&self, alloc: &Allocation, rps: f64) -> f64 {
        self.services
            .iter()
            .enumerate()
            .map(|(i, s)| rps * s.visits * self.visit_demand(s) / alloc.get(i))
            .fold(0.0, f64::max)
    }
}

/// Standard normal upper-tail probability Φ̄(z) via the Abramowitz &
/// Stegun erfc approximation (max abs error ~1.5e-7).
fn normal_tail(z: f64) -> f64 {
    if z >= 8.0 {
        return 0.0;
    }
    if z <= -8.0 {
        return 1.0;
    }
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

impl Evaluator for FluidEvaluator {
    fn n_services(&self) -> usize {
        self.services.len()
    }

    fn slo_ms(&self) -> f64 {
        self.slo_ms
    }

    fn evaluate(&mut self, alloc: &Allocation, rps: f64) -> WindowStats {
        assert_eq!(alloc.len(), self.services.len());
        let peak_factor = self.peak_factor.max(self.burst_p90);
        let mut per_service = Vec::with_capacity(self.services.len());
        let mut rho_max: f64 = 0.0;
        for (i, s) in self.services.iter().enumerate() {
            let a = alloc.get(i);
            let lambda_i = rps * s.visits;
            let d_visit = self.visit_demand(s);
            // Utilization ρ of the service as an M/G/1-PS station.
            let rho = lambda_i * d_visit / a;
            rho_max = rho_max.max(rho);
            // Mean sojourn of one visit, and the fraction of wall time
            // the service spends throttled.
            let (sojourn, thr_frac) = if d_visit == 0.0 {
                (0.0, 0.0)
            } else if rho >= 1.0 {
                (f64::INFINITY, 1.0)
            } else {
                // Burst throttling: the probability that the CPU work
                // arriving within one CFS period exceeds the quota.
                let quota = a * CFS_PERIOD_S;
                let nu = lambda_i * CFS_PERIOD_S; // arrivals per period
                let p_throttle = if nu <= 0.0 || d_visit <= 0.0 {
                    0.0
                } else {
                    let thresh = quota / d_visit; // #jobs that exhaust quota
                    normal_tail((thresh - nu) / nu.sqrt().max(1e-9))
                };
                // The sojourn's stall term has always been guarded by
                // the positive form of that test; the two disagree
                // only when `nu` or `d_visit` is NaN.
                let stall = if nu > 0.0 && d_visit > 0.0 {
                    p_throttle
                } else {
                    0.0
                };
                // M/G/1-PS sojourn, plus the mean residual stall of
                // half a period when throttled.
                let base = d_visit / (1.0 - rho);
                (base + stall * CFS_PERIOD_S * 0.5, p_throttle)
            };
            self.sojourn[i] = sojourn;
            let cpu_rate = (rps * s.demand / self.speed).min(a);
            per_service.push(ServiceWindowStats {
                alloc_cores: a,
                util_pct: cpu_rate / a * 100.0,
                cpu_used_s: cpu_rate * self.window_s,
                throttled_s: thr_frac * self.window_s,
                usage_p90_cores: cpu_rate * self.burst_p90,
                // Peak can never sit below the p90, however the two
                // knobs are set.
                usage_peak_cores: cpu_rate * peak_factor,
                mem_bytes: s.mem_base_bytes,
                // The DES counts actual events; round the expected
                // count instead of flooring it.
                visits: (lambda_i * self.window_s).round() as u64,
                mean_self_ms: d_visit * 1e3,
                mean_visit_ms: sojourn * 1e3,
            });
        }
        // Endpoint latencies, children first.
        let hop_s = 2.0 * self.net_delay_s;
        for e in &self.order {
            let mut total = self.sojourn[e.service as usize] * e.work_scale;
            for &(lo, hi) in &self.calls.group_spans[e.groups.0 as usize..e.groups.1 as usize] {
                // Parallel calls: expected makespan ≈ max of expected child
                // latencies (slightly optimistic; acceptable for a fluid
                // model), weighted by call probability.
                let mut group_latency: f64 = 0.0;
                for &(child, p) in &self.calls.flat_calls[lo as usize..hi as usize] {
                    let l = p * (self.ep_latency[child as usize] + hop_s);
                    group_latency = group_latency.max(l);
                }
                total += group_latency;
            }
            self.ep_latency[e.ep as usize] = total;
        }
        let mut mean_s = 0.0;
        for &(weight, root) in &self.classes {
            mean_s += weight / self.class_weight_total * self.ep_latency[root as usize];
        }
        let p95 = mean_s * self.tail.p95.factor(rho_max);
        let p99 = mean_s * self.tail.p99.factor(rho_max);
        let max = mean_s * self.tail.max.factor(rho_max);
        let completed = (rps * self.window_s).round() as u64;
        WindowStats {
            start_s: 0.0,
            duration_s: self.window_s,
            offered_rps: rps,
            achieved_rps: if mean_s.is_finite() { rps } else { 0.0 },
            completed: if mean_s.is_finite() { completed } else { 0 },
            arrivals: completed,
            mean_ms: mean_s * 1e3,
            p50_ms: mean_s * 0.8 * 1e3,
            p95_ms: p95 * 1e3,
            p99_ms: p99 * 1e3,
            max_ms: max * 1e3,
            per_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{
        CallGroup, EndpointNode, NodeSpec, RequestClass, ServiceId, ServiceSpec,
    };

    fn app() -> AppSpec {
        AppSpec {
            name: "pair".into(),
            services: vec![ServiceSpec::new("a", 0.002), ServiceSpec::new("b", 0.003)],
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
                name: "r".into(),
                weight: 1.0,
                root: 0,
            }],
            nodes: vec![NodeSpec { cores: 32.0 }],
            net_delay_s: 0.0002,
            slo_ms: 100.0,
            generous_alloc: vec![1.5, 1.5],
        }
    }

    #[test]
    fn latency_monotone_in_allocation() {
        let mut f = FluidEvaluator::new(&app());
        let hi = f.evaluate(&Allocation::new(vec![1.0, 1.0]), 100.0);
        let lo = f.evaluate(&Allocation::new(vec![1.0, 0.5]), 100.0);
        assert!(lo.p95_ms > hi.p95_ms);
    }

    #[test]
    fn saturation_is_infinite() {
        let mut f = FluidEvaluator::new(&app());
        // b needs 0.3 cores at 100 rps; give it 0.2.
        let s = f.evaluate(&Allocation::new(vec![1.0, 0.2]), 100.0);
        assert!(s.p95_ms.is_infinite());
    }

    #[test]
    fn latency_monotone_in_load() {
        let mut f = FluidEvaluator::new(&app());
        let a = Allocation::new(vec![1.0, 1.0]);
        let lo = f.evaluate(&a, 50.0);
        let hi = f.evaluate(&a, 200.0);
        assert!(hi.p95_ms > lo.p95_ms);
    }

    #[test]
    fn utilization_reported() {
        let mut f = FluidEvaluator::new(&app());
        let s = f.evaluate(&Allocation::new(vec![1.0, 1.0]), 100.0);
        // b: 100 rps × 3 ms = 0.3 cores on 1 → 30%.
        assert!((s.per_service[1].util_pct - 30.0).abs() < 1.0);
    }

    #[test]
    fn throttle_rises_near_bottleneck() {
        let mut f = FluidEvaluator::new(&app());
        let far = f.evaluate(&Allocation::new(vec![1.0, 1.5]), 100.0);
        let near = f.evaluate(&Allocation::new(vec![1.0, 0.35]), 100.0);
        assert!(near.per_service[1].throttled_s > far.per_service[1].throttled_s);
    }

    #[test]
    fn normal_tail_sane() {
        assert!((normal_tail(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_tail(3.0) < 0.002);
        assert!(normal_tail(-3.0) > 0.998);
        assert_eq!(normal_tail(10.0), 0.0);
        assert_eq!(normal_tail(-10.0), 1.0);
    }

    #[test]
    fn burstiness_knob_scales_reported_p90() {
        let mut f = FluidEvaluator::new(&app());
        let a = Allocation::new(vec![1.0, 1.0]);
        let base = f.evaluate(&a, 100.0);
        f.burst_p90 = 2.0 * BURST_P90_DEFAULT;
        let bursty = f.evaluate(&a, 100.0);
        for (b, s) in base.per_service.iter().zip(&bursty.per_service) {
            assert!(
                (s.usage_p90_cores - 2.0 * b.usage_p90_cores).abs() < 1e-12,
                "p90 must scale with the knob: {} vs {}",
                b.usage_p90_cores,
                s.usage_p90_cores
            );
        }
        // Latency is untouched by the burstiness knob.
        assert_eq!(base.p95_ms, bursty.p95_ms);
        // An extreme knob keeps the telemetry physically consistent.
        f.burst_p90 = 4.0;
        let spiky = f.evaluate(&a, 100.0);
        for s in &spiky.per_service {
            assert!(s.usage_peak_cores >= s.usage_p90_cores);
        }
    }

    #[test]
    fn default_burstiness_matches_des_calibration_band() {
        // Re-derive the calibration on the cheap two-service pair: one
        // DES window at the generous allocation, per-service p90/mean
        // usage ratio. Deterministic (fixed seed), so this pins that
        // BURST_P90_DEFAULT stays in the DES-plausible band if either
        // side changes.
        use crate::ClusterSim;
        let app = app();
        let mut sim = ClusterSim::new(&app, 42);
        sim.set_allocation(&Allocation::new(app.generous_alloc.clone()));
        let stats = sim.run_window(120.0, 4.0, 20.0);
        let mut ratios: Vec<f64> = stats
            .per_service
            .iter()
            .filter(|s| s.cpu_used_s / stats.duration_s > 0.02)
            .map(|s| s.usage_p90_cores / (s.cpu_used_s / stats.duration_s))
            .collect();
        assert!(!ratios.is_empty());
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(
            (BURST_P90_DEFAULT - median).abs() < 0.25,
            "calibrated default {BURST_P90_DEFAULT} drifted from the DES ratio {median:.3}"
        );
    }

    #[test]
    fn peak_factor_is_its_own_knob() {
        let mut f = FluidEvaluator::new(&app());
        let a = Allocation::new(vec![1.0, 1.0]);
        let base = f.evaluate(&a, 100.0);
        for s in &base.per_service {
            let mean_rate = s.cpu_used_s / base.duration_s;
            assert!(
                (s.usage_peak_cores - mean_rate * PEAK_FACTOR_DEFAULT).abs() < 1e-12,
                "default peak must be PEAK_FACTOR_DEFAULT × mean"
            );
        }
        // Raising the peak knob moves the peak without touching the p90
        // — the old fused `burst_p90.max(2.5)` could not do this.
        f.peak_factor = 5.0;
        let spiky = f.evaluate(&a, 100.0);
        for (b, s) in base.per_service.iter().zip(&spiky.per_service) {
            assert_eq!(s.usage_p90_cores, b.usage_p90_cores);
            assert!((s.usage_peak_cores - 2.0 * b.usage_peak_cores).abs() < 1e-12);
        }
        // A p90 knob above the peak knob drags the peak up with it
        // (peak ≥ p90 invariant), instead of being silently floored.
        f.peak_factor = PEAK_FACTOR_DEFAULT;
        f.burst_p90 = 4.0;
        let bursty = f.evaluate(&a, 100.0);
        for s in &bursty.per_service {
            assert!(s.usage_peak_cores >= s.usage_p90_cores);
            let mean_rate = s.cpu_used_s / bursty.duration_s;
            assert!(
                (s.usage_peak_cores - mean_rate * 4.0).abs() < 1e-12,
                "peak must follow the p90 above PEAK_FACTOR_DEFAULT"
            );
        }
    }

    #[test]
    fn counters_round_instead_of_flooring() {
        let mut f = FluidEvaluator::new(&app());
        // 100.3 rps × 20 s = 2006.000…1-ish arrivals; pick a rate whose
        // product lands just below an integer so flooring would lose 1.
        f.window_s = 20.0;
        let s = f.evaluate(&Allocation::new(vec![1.0, 1.0]), 99.999);
        // 99.999 × 20 = 1999.98 → floors to 1999, rounds to 2000 (the
        // DES counts actual events, which average the expectation).
        assert_eq!(s.completed, 2000);
        assert_eq!(s.arrivals, 2000);
        for svc in &s.per_service {
            assert_eq!(svc.visits, 2000);
        }
    }

    #[test]
    fn tail_factor_sharpens_toward_saturation() {
        let m = TailModel::calibrated();
        // The calibrated shape: the factor *shrinks* through mid load
        // (cancelling the fluid mean's premature 1/(1−ρ) rise — that is
        // what kept the modelled knee smeared) and turns sharply back
        // up as ρ → 1 (the knee term).
        assert!(
            m.p95.factor(0.7) < m.p95.factor(0.1),
            "mid-load correction must shrink the factor"
        );
        assert!(
            m.p95.factor(1.0) > m.p95.factor(0.85),
            "the knee term must turn the factor back up near saturation"
        );
        // Sharpening: the rise over the last stretch dwarfs any rise
        // over the mid stretch.
        let late = m.p95.factor(1.0) - m.p95.factor(0.85);
        let mid = m.p95.factor(0.7) - m.p95.factor(0.4);
        assert!(
            late > mid + 0.1,
            "the factor must sharpen as ρ→1 ({mid:.3} mid vs {late:.3} late)"
        );
        // Quantile ordering holds across the whole load range.
        for i in 0..=20 {
            let rho = i as f64 / 20.0;
            assert!(m.p95.factor(rho) < m.p99.factor(rho));
            assert!(m.p99.factor(rho) < m.max.factor(rho));
        }
        // Saturated input degrades gracefully.
        assert_eq!(m.p95.factor(f64::INFINITY), m.p95.factor(1.0));
        assert_eq!(m.p95.factor(f64::NAN), m.p95.factor(1.0));
    }

    #[test]
    fn constant_tail_model_reproduces_legacy_ratios() {
        let mut f = FluidEvaluator::new(&app());
        f.tail = TailModel::constant(LEGACY_P95_FACTOR);
        let a = Allocation::new(vec![1.0, 1.0]);
        for rps in [20.0, 100.0, 250.0] {
            let s = f.evaluate(&a, rps);
            assert!((s.p95_ms / s.mean_ms - LEGACY_P95_FACTOR).abs() < 1e-9);
            assert!((s.p99_ms / s.p95_ms - 1.4).abs() < 1e-9);
            assert!((s.max_ms / s.p95_ms - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn calibrated_knee_is_sharper_than_constant() {
        // The whole point of the calibration: concentrate the
        // p95-vs-allocation rise at the knee the way the DES measures
        // it — flat longer through mid load, then steeper near
        // saturation. Knee sharpness index = (rise over the last
        // stretch of ρ) relative to (rise over the mid stretch). Under
        // the flat factor the index is whatever the fluid *mean* gives;
        // the calibrated tail must beat it by suppressing the mid-load
        // rise and amplifying the late one.
        let mut flat = FluidEvaluator::new(&app());
        flat.tail = TailModel::constant(LEGACY_P95_FACTOR);
        let mut cal = FluidEvaluator::new(&app());
        let rps = 120.0; // b demands 0.36 cores
                         // Allocations putting b's ρ at 0.3 / 0.8 / 0.95.
        let light = Allocation::new(vec![1.2, 1.2]);
        let mid = Allocation::new(vec![1.0, 0.45]);
        let tight = Allocation::new(vec![1.0, 0.379]);
        let index = |f: &mut FluidEvaluator| {
            let l = f.evaluate(&light, rps).p95_ms;
            let m = f.evaluate(&mid, rps).p95_ms;
            let t = f.evaluate(&tight, rps).p95_ms;
            (t / m) / (m / l)
        };
        let flat_idx = index(&mut flat);
        let cal_idx = index(&mut cal);
        assert!(
            cal_idx > flat_idx * 1.5,
            "calibrated knee index {cal_idx:.2} must out-steepen the flat model's {flat_idx:.2}"
        );
    }

    #[test]
    fn bottleneck_rho_identifies_the_tight_service() {
        let f = FluidEvaluator::new(&app());
        // b demands 0.3 cores at 100 rps; at 0.5 cores ρ_b = 0.6 and
        // a (0.2 demanded on 1.0) sits at 0.2.
        let rho = f.bottleneck_rho(&Allocation::new(vec![1.0, 0.5]), 100.0);
        assert!((rho - 0.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid AppSpec")]
    fn cyclic_endpoint_graph_is_rejected_not_recursed() {
        // The bottom-up plan only exists for an acyclic call graph: a
        // cyclic spec must be rejected by `AppSpec::validate` at
        // construction (clean panic here).
        let mut spec = app();
        spec.endpoints[1].groups = vec![CallGroup {
            calls: vec![(0, 1.0)],
        }];
        let _ = FluidEvaluator::new(&spec);
    }

    #[test]
    fn speed_scales_sojourn() {
        let mut f = FluidEvaluator::new(&app());
        let base = f.evaluate(&Allocation::new(vec![1.0, 1.0]), 100.0);
        f.speed = 2.0;
        let fast = f.evaluate(&Allocation::new(vec![1.0, 1.0]), 100.0);
        assert!(fast.p95_ms < base.p95_ms);
    }
}
