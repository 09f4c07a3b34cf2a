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
//! [`FluidEvaluator::new`] compiles the [`AppSpec`] into a flat,
//! immutable plan and keeps no copy of the spec, so a model is a
//! handful of contiguous arrays instead of a few hundred small heap
//! blocks:
//!
//! * `services` — per service, side by side: expected visits and CPU
//!   demand per user request, the demand per visit, and the memory
//!   floor;
//! * `order` — the endpoints reachable from a class root, children
//!   before parents (the spec is validated acyclic), each with its
//!   service index, its `work_scale.max(0.0)` and its span of call
//!   groups. An endpoint no root reaches is not in the plan;
//! * `calls` — the spec's `CallTable` (see `topology.rs`), the same
//!   flattened `(child, probability)` table the DES fans out from;
//! * `classes` — `(weight / total weight, root)` pairs;
//! * the network delay and the SLO.
//!
//! Evaluators built from equal specs share one plan behind an `Arc`,
//! so a fleet of 10 000 members of three apps holds three plans. The
//! key is every spec field the compile reads — per service `demand_s`
//! and `mem_base_bytes`; per endpoint its service, `work_scale` and
//! `(child, p)` calls group by group; per class `weight` and `root`;
//! `net_delay_s` and `slo_ms` — with every `f64` compared by its bits,
//! so `-0.0` and `0.0` get two plans and a NaN matches itself. A
//! process-wide table of `Weak`s finds the plan; a hit allocates
//! nothing, and a plan is freed with its last evaluator.
//!
//! What stays per evaluator is the knobs (`speed`, `window_s`,
//! `tail`), which are read at evaluation time, the endpoint latencies
//! (`ep_latency`, scratch), and what the last window left for reuse
//! (see "Reuse across windows"): one solve per service (`solved`), the
//! mean latency and the quantile factors. The first evaluation
//! allocates the solves, in a block of one size for every app up to
//! `SOLVE_BLOCK_SERVICES` services, so an evaluator that has not run
//! yet holds one heap block of its own, `ep_latency`.
//!
//! One evaluation is three loops and no recursion: a pass over
//! `services` solves each service whose allocation moved — one
//! `normal_tail` (an `exp`), shared by the sojourn and the throttle
//! fraction; a pass builds every service's row; a pass over `order`
//! computes each endpoint's latency exactly once, however many parents
//! call it. Because the plan is compiled (or found) at construction, a
//! later edit to the `AppSpec` does not reach an evaluator built from
//! it; building again from the edited spec compiles a new plan. The
//! reported usage p90 and peak are fixed multiples of the mean usage
//! rate (`BURST_P90`, `PEAK_FACTOR`).
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
//! latency is a pure function of the sojourns. So is evaluating the
//! left end of an expression once: the plan stores `demand / visits`
//! and `weight / total`, and the division by `speed` and the product
//! with the latency follow, in the same order. A count is rounded
//! without a call into libm (`round_to_count`), to the same value.
//!
//! ## Reuse across windows
//!
//! A control loop evaluates one allocation after another, and most
//! windows re-solve the stations of the window before: PEMA cuts a few
//! services per interval and then holds, RULE and HOLD hold. So each
//! service keeps its last solve — ρ, the sojourn, the throttle
//! fraction, the per-visit demand and the CPU rate the load offers —
//! and the key it was solved at:
//!
//! * the bits of `rps` and `speed`, shared by every service. When
//!   either moves, every service is solved again; the per-visit demand
//!   alone is kept while `speed` holds;
//! * the bits of the service's allocation. A service whose allocation
//!   kept its bits is not solved again; its row is rebuilt from the
//!   solve and the current `window_s`, by the same expressions as a
//!   fresh solve's row.
//!
//! None of the solved values depends on `window_s`, so a change of
//! window length (`FluidBackend`'s early-check abort evaluates one
//! allocation at two lengths) reuses every service. When no service
//! was solved again, the sojourns are the last window's, so the mean
//! latency is too and the endpoint pass is skipped; and ρ_max is too,
//! so while the tail keeps its bits the three quantile factors (three
//! `powf`) are reused.
//!
//! Reuse is exact because every reused value is a pure function of its
//! key, compared by bits: the same operands in the same order give the
//! same bits. Bits are stricter than `==`, as they must be: `-0.0` and
//! `0.0` allocations report different rows, and a NaN allocation is
//! equal to itself, so it is reused like any other.
//! `tests/fluid_oracle.rs` drives one evaluator through long runs of
//! repeated, cut, restored and poisoned allocations and moved knobs
//! and compares it bit for bit, after every step, with the recursive
//! evaluator and with an evaluator built for that step alone.

use crate::evaluator::Evaluator;
use crate::runtime::CFS_PERIOD_S;
use crate::stats::{ServiceWindowStats, WindowStats};
use crate::topology::{Allocation, AppSpec, CallTable};
use std::sync::{Arc, Mutex, PoisonError, Weak};

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

/// Synthetic peak: the reported per-second usage *peak* as a multiple
/// of the mean usage rate.
const PEAK_FACTOR: f64 = 2.5;

// The reported peak never sits below the reported p90.
const _: () = assert!(PEAK_FACTOR >= BURST_P90);

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

/// Synthetic burstiness: the reported p90 of per-second CPU usage as a
/// multiple of the mean usage rate (what rule-based allocators act
/// on). Calibrated against a DES window set (SockShop @ 550 rps,
/// generous allocation, 20 s windows, seeds 7/42), where the
/// per-service median of `usage_p90_cores / mean usage` is ≈ 1.15; the
/// same probe puts the three paper apps between 1.06 and 1.31 overall.
/// The historical hard-coded 1.6 overstated DES burstiness by ~40%,
/// which made fluid-backed RULE baselines over-allocate (see README,
/// "Fluid-model fidelity").
const BURST_P90: f64 = 1.15;

/// One service's constants: expected visits and CPU-seconds per user
/// request over the class mix, the CPU-seconds per visit, and the
/// resident memory floor.
struct ServicePlan {
    visits: f64,
    demand: f64,
    /// `demand / visits`; read only when `visits > 0`.
    per_visit: f64,
    mem_base_bytes: f64,
}

impl ServicePlan {
    /// Per-visit service demand (seconds of CPU) at `speed`, or 0 when
    /// the service is never visited. Equal to `demand / visits / speed`,
    /// which divides left to right.
    fn visit_demand(&self, speed: f64) -> f64 {
        if self.visits > 0.0 {
            self.per_visit / speed
        } else {
            0.0
        }
    }
}

/// The fewest services an evaluator's block of solves is sized for. A
/// fleet worker serves members of several apps one after another, each
/// to its end; with one block size, each member reuses the block the
/// one before it freed. Sized to each app, the blocks fragmented the
/// worker's heap: `fleet_fluid_10k` peaked 22 MB higher, against none
/// this way (`docs/fleet.md`, "Memory per member").
const SOLVE_BLOCK_SERVICES: usize = 64;

/// One service's last solve. Each value is kept while what it depends
/// on keeps its bits: the per-visit demand depends on the speed, the
/// offered CPU rate on the load and the speed, and the rest on those
/// and the allocation. None depends on the window length.
#[derive(Clone, Copy, Default)]
struct ServiceSolve {
    /// Per-visit demand, seconds of CPU.
    d_visit: f64,
    /// `rps * demand / speed`: the CPU rate the load asks for, cores.
    offered: f64,
    /// The allocation the values below were solved for.
    alloc_bits: u64,
    /// Utilization ρ of the service as an M/G/1-PS station.
    rho: f64,
    /// Mean sojourn of one visit, seconds.
    sojourn: f64,
    /// Fraction of wall time the service spends throttled.
    thr_frac: f64,
}

impl ServiceSolve {
    /// Solves the service at allocation `a`, `lambda_i` visits per
    /// second, per-visit demand `d_visit` and offered rate `offered`.
    fn new(a: f64, lambda_i: f64, d_visit: f64, offered: f64) -> Self {
        let rho = lambda_i * d_visit / a;
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
            // The sojourn's stall term has always been guarded by the
            // positive form of that test; the two disagree only when
            // `nu` or `d_visit` is NaN.
            let stall = if nu > 0.0 && d_visit > 0.0 {
                p_throttle
            } else {
                0.0
            };
            // M/G/1-PS sojourn, plus the mean residual stall of half a
            // period when throttled.
            let base = d_visit / (1.0 - rho);
            (base + stall * CFS_PERIOD_S * 0.5, p_throttle)
        };
        Self {
            d_visit,
            offered,
            alloc_bits: a.to_bits(),
            rho,
            sojourn,
            thr_frac,
        }
    }

    /// The service's row of a `window_s`-second window.
    fn row(&self, s: &ServicePlan, lambda_i: f64, window_s: f64) -> ServiceWindowStats {
        let a = f64::from_bits(self.alloc_bits);
        let cpu_rate = self.offered.min(a);
        ServiceWindowStats {
            alloc_cores: a,
            util_pct: cpu_rate / a * 100.0,
            cpu_used_s: cpu_rate * window_s,
            throttled_s: self.thr_frac * window_s,
            usage_p90_cores: cpu_rate * BURST_P90,
            usage_peak_cores: cpu_rate * PEAK_FACTOR,
            mem_bytes: s.mem_base_bytes,
            // The DES counts actual events; round the expected count
            // instead of flooring it.
            visits: round_to_count(lambda_i * window_s),
            mean_self_ms: self.d_visit * 1e3,
            mean_visit_ms: self.sojourn * 1e3,
        }
    }
}

/// `x.round() as u64` without a call into libm: truncate, then add one
/// when the dropped fraction is at least a half. Equal for every `x`,
/// NaN and the infinities included (`fluid_oracle.rs` holds the libm
/// form): below 2⁵² the subtraction is exact, and from there on every
/// `f64` is a whole number.
fn round_to_count(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// Every coefficient of `tail`, as bits.
fn tail_bits(tail: &TailModel) -> [[u64; 4]; 3] {
    [tail.p95, tail.p99, tail.max].map(|c| [c.base, c.slope, c.gain, c.sharp].map(f64::to_bits))
}

/// Whether `tail`'s coefficients have the bits `bits`. The words'
/// differences are or-ed together rather than compared one by one,
/// which would cost a call to `bcmp`.
fn has_bits(tail: &TailModel, bits: &[[u64; 4]; 3]) -> bool {
    let now = tail_bits(tail);
    let diff = now
        .iter()
        .flatten()
        .zip(bits.iter().flatten())
        .fold(0, |d, (a, b)| d | (a ^ b));
    diff == 0
}

/// The p95, p99 and max multipliers of `tail` at bottleneck
/// utilization `rho`.
fn quantile_factors(tail: &TailModel, rho: f64) -> [f64; 3] {
    [
        tail.p95.factor(rho),
        tail.p99.factor(rho),
        tail.max.factor(rho),
    ]
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

/// The compiled, immutable half of an evaluator, shared by every
/// evaluator built from a spec with the same [`spec_words`].
struct Plan {
    /// The [`spec_words`] of the spec this plan was compiled from.
    key: Vec<u64>,
    services: Vec<ServicePlan>,
    order: Vec<EndpointPlan>,
    calls: CallTable,
    /// `(weight / total weight, root endpoint)` per request class.
    classes: Vec<(f64, u32)>,
    net_delay_s: f64,
    slo_ms: f64,
}

/// Every plan in use, with the hash of its key. Only `Weak`s: a plan
/// is freed with its last evaluator, and its entry is pruned on a
/// later insert.
static PLANS: Mutex<Vec<(u64, Weak<Plan>)>> = Mutex::new(Vec::new());

/// Emits everything of `app` that compiling a [`Plan`] reads, as
/// words: each `f64` as its bits, each list after its length. Equal
/// words compile to equal plans, and bits are stricter than `==`: a
/// `-0.0` memory floor reports as `-0.0`, and a NaN equals itself.
fn spec_words(app: &AppSpec, mut emit: impl FnMut(u64)) {
    emit(app.services.len() as u64);
    for s in &app.services {
        emit(s.demand_s.to_bits());
        emit(s.mem_base_bytes.to_bits());
    }
    emit(app.endpoints.len() as u64);
    for e in &app.endpoints {
        emit(e.service.0 as u64);
        emit(e.work_scale.to_bits());
        emit(e.groups.len() as u64);
        for g in &e.groups {
            emit(g.calls.len() as u64);
            for &(child, p) in &g.calls {
                emit(child as u64);
                emit(p.to_bits());
            }
        }
    }
    emit(app.classes.len() as u64);
    for c in &app.classes {
        emit(c.weight.to_bits());
        emit(c.root as u64);
    }
    emit(app.net_delay_s.to_bits());
    emit(app.slo_ms.to_bits());
}

/// Analytic evaluator implementing the same [`Evaluator`] interface as
/// the DES-backed one. Compiles the spec at construction, or shares the
/// plan of an equal spec (see the module docs): change the model
/// through the public fields here, not through the `AppSpec` it was
/// built from.
pub struct FluidEvaluator {
    plan: Arc<Plan>,
    /// Per service, its last solve; empty until the first evaluation.
    solved: Vec<ServiceSolve>,
    /// The `(rps, speed)` bits every entry of `solved` was solved at;
    /// `None` until the first evaluation.
    solved_at: Option<(u64, u64)>,
    /// Scratch: mean latency by endpoint (unreachable entries stay 0
    /// and are never read).
    ep_latency: Vec<f64>,
    /// The last window's mean end-to-end latency, seconds: a function
    /// of the sojourns in `solved` alone.
    mean_s: f64,
    /// Kept p95, p99 and max multipliers: a function of ρ_max, which is
    /// one of `solved`, and of the tail.
    factors: [f64; 3],
    /// The tail's bits when `factors` were kept; `None` once an entry
    /// of `solved` changed since.
    factors_tail: Option<[[u64; 4]; 3]>,
    /// CPU speed factor, mirroring [`crate::ClusterSim::set_speed`].
    pub speed: f64,
    /// Pretend window length used for reporting counters, seconds.
    pub window_s: f64,
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

impl Plan {
    /// The plan for a validated `app`: one already in use for an equal
    /// spec, or a new one.
    fn shared(app: &AppSpec) -> Arc<Self> {
        // FxHash's step: the hash only narrows the search, and
        // `compiled_from` decides.
        let mut hash = 0u64;
        spec_words(app, |w| {
            hash = (hash.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        });
        // The table holds only `Weak`s, so a panic that poisoned the
        // lock cannot have left it inconsistent.
        let mut plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = plans
            .iter()
            .filter(|(h, _)| *h == hash)
            .filter_map(|(_, plan)| plan.upgrade())
            .find(|plan| plan.compiled_from(app));
        if let Some(plan) = hit {
            return plan;
        }
        let plan = Arc::new(Self::compile(app));
        plans.retain(|(_, plan)| plan.strong_count() > 0);
        plans.push((hash, Arc::downgrade(&plan)));
        plan
    }

    fn compiled_from(&self, app: &AppSpec) -> bool {
        let mut key = self.key.iter();
        let mut same = true;
        spec_words(app, |w| same &= key.next() == Some(&w));
        same && key.next().is_none()
    }

    fn compile(app: &AppSpec) -> Self {
        let mut key = Vec::new();
        spec_words(app, |w| key.push(w));
        let services = app
            .expected_visits()
            .into_iter()
            .zip(app.expected_demand())
            .zip(&app.services)
            .map(|((visits, demand), s)| ServicePlan {
                visits,
                demand,
                per_visit: demand / visits,
                mem_base_bytes: s.mem_base_bytes,
            })
            .collect();
        let calls = app.call_table();
        let total_weight: f64 = app.classes.iter().map(|c| c.weight).sum();
        Self {
            key,
            services,
            order: bottom_up_order(app, &calls),
            calls,
            classes: app
                .classes
                .iter()
                .map(|c| (c.weight / total_weight, c.root as u32))
                .collect(),
            net_delay_s: app.net_delay_s,
            slo_ms: app.slo_ms,
        }
    }
}

impl FluidEvaluator {
    /// Builds the fluid model for an application.
    pub fn new(app: &AppSpec) -> Self {
        app.validate().expect("invalid AppSpec");
        Self {
            plan: Plan::shared(app),
            solved: Vec::new(),
            solved_at: None,
            ep_latency: vec![0.0; app.endpoints.len()],
            mean_s: 0.0,
            factors: [0.0; 3],
            factors_tail: None,
            speed: 1.0,
            window_s: 20.0,
            tail: TailModel::calibrated(),
        }
    }

    /// Bottleneck utilization of the app under `alloc` at `rps` — the
    /// ρ the [`TailModel`] is evaluated at. ≥ 1 means some service
    /// cannot carry its offered work (the mean is infinite there).
    pub fn bottleneck_rho(&self, alloc: &Allocation, rps: f64) -> f64 {
        self.plan
            .services
            .iter()
            .enumerate()
            .map(|(i, s)| rps * s.visits * s.visit_demand(self.speed) / alloc.get(i))
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
        self.plan.services.len()
    }

    fn slo_ms(&self) -> f64 {
        self.plan.slo_ms
    }

    fn evaluate(&mut self, alloc: &Allocation, rps: f64) -> WindowStats {
        let plan = &*self.plan;
        let n = plan.services.len();
        assert_eq!(alloc.len(), n);
        // A solve holds for its allocation at one load and speed: when
        // either moves (or on the first window), every service misses.
        // A service whose allocation kept its bits is not solved again;
        // its row is rebuilt from the solve at this window's length.
        let at = (rps.to_bits(), self.speed.to_bits());
        let (primed, same_speed) = match self.solved_at {
            Some(last) => (last == at, last.1 == at.1),
            None => {
                self.solved.reserve_exact(SOLVE_BLOCK_SERVICES.max(n));
                self.solved.resize(n, ServiceSolve::default());
                (false, false)
            }
        };
        self.solved_at = Some(at);
        let mut changed = !primed;
        for ((s, &a), solve) in plan.services.iter().zip(&alloc.0).zip(&mut self.solved) {
            if primed && solve.alloc_bits == a.to_bits() {
                continue;
            }
            let d_visit = if same_speed {
                solve.d_visit
            } else {
                s.visit_demand(self.speed)
            };
            let offered = if primed {
                solve.offered
            } else {
                rps * s.demand / self.speed
            };
            *solve = ServiceSolve::new(a, rps * s.visits, d_visit, offered);
            changed = true;
        }
        let mut per_service = Vec::with_capacity(n);
        let mut rho_max: f64 = 0.0;
        for (s, solve) in plan.services.iter().zip(&self.solved) {
            rho_max = rho_max.max(solve.rho);
            per_service.push(solve.row(s, rps * s.visits, self.window_s));
        }
        if changed {
            // Endpoint latencies, children first.
            let hop_s = 2.0 * plan.net_delay_s;
            for e in &plan.order {
                let mut total = self.solved[e.service as usize].sojourn * e.work_scale;
                for &(lo, hi) in &plan.calls.group_spans[e.groups.0 as usize..e.groups.1 as usize] {
                    // Parallel calls: expected makespan ≈ max of expected
                    // child latencies (slightly optimistic; acceptable for
                    // a fluid model), weighted by call probability.
                    let mut group_latency: f64 = 0.0;
                    for &(child, p) in &plan.calls.flat_calls[lo as usize..hi as usize] {
                        let l = p * (self.ep_latency[child as usize] + hop_s);
                        group_latency = group_latency.max(l);
                    }
                    total += group_latency;
                }
                self.ep_latency[e.ep as usize] = total;
            }
            let mut mean_s = 0.0;
            for &(share, root) in &plan.classes {
                mean_s += share * self.ep_latency[root as usize];
            }
            self.mean_s = mean_s;
        }
        let factors = if changed {
            self.factors_tail = None;
            quantile_factors(&self.tail, rho_max)
        } else {
            // Nothing changed, so neither did ρ_max: the factors hold
            // for as long as the tail keeps its bits. They are kept
            // from the first such window on; keeping them on every
            // changing window too measured slower on windows that all
            // miss.
            if self
                .factors_tail
                .is_none_or(|bits| !has_bits(&self.tail, &bits))
            {
                self.factors = quantile_factors(&self.tail, rho_max);
                self.factors_tail = Some(tail_bits(&self.tail));
            }
            self.factors
        };
        let mean_s = self.mean_s;
        let [p95, p99, max] = factors.map(|f| mean_s * f);
        let completed = round_to_count(rps * self.window_s);
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
        for rps in [50.0, 100.0] {
            let s = f.evaluate(&a, rps);
            for svc in &s.per_service {
                let mean_rate = svc.cpu_used_s / s.duration_s;
                assert!(
                    (svc.usage_p90_cores - mean_rate * BURST_P90).abs() < 1e-12,
                    "p90 must be BURST_P90 × mean: {} vs {}",
                    svc.usage_p90_cores,
                    mean_rate
                );
            }
        }
    }

    #[test]
    fn default_burstiness_matches_des_calibration_band() {
        // Re-derive the calibration on the cheap two-service pair: one
        // DES window at the generous allocation, per-service p90/mean
        // usage ratio. Deterministic (fixed seed), so this pins that
        // BURST_P90 stays in the DES-plausible band if either
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
            (BURST_P90 - median).abs() < 0.25,
            "calibrated default {BURST_P90} drifted from the DES ratio {median:.3}"
        );
    }

    #[test]
    fn peak_factor_is_its_own_knob() {
        let mut f = FluidEvaluator::new(&app());
        let s = f.evaluate(&Allocation::new(vec![1.0, 1.0]), 100.0);
        for svc in &s.per_service {
            let mean_rate = svc.cpu_used_s / s.duration_s;
            assert!(mean_rate > 0.0);
            assert!(
                (svc.usage_peak_cores - mean_rate * PEAK_FACTOR).abs() < 1e-12,
                "peak must be PEAK_FACTOR × mean"
            );
            // The peak is not the p90 floored or fused: both are their
            // own multiple of the mean, and the peak sits above.
            assert!(svc.usage_peak_cores > svc.usage_p90_cores);
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
    fn round_to_count_is_round_as_u64() {
        let two52 = 4_503_599_627_370_496.0f64;
        let mut xs = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            -0.5,
            -1.5,
            0.499_999_999_999_999_94,
            f64::MIN_POSITIVE,
            two52 - 0.5,
            two52 + 1.0,
            two52 * 2.0 + 2.0,
            (1u64 << 63) as f64,
            u64::MAX as f64,
            u64::MAX as f64 * 2.0,
            f64::MAX,
        ];
        // Every bit pattern class, and counts in the range windows use.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            xs.push(f64::from_bits(state));
            xs.push((state >> 11) as f64 / (1u64 << 53) as f64 * 1e7);
            xs.push(((state >> 40) as f64 + 0.5) * if state & 1 == 0 { 1.0 } else { -1.0 });
        }
        for x in xs {
            assert_eq!(
                round_to_count(x),
                x.round() as u64,
                "{x:e} ({:#x})",
                x.to_bits()
            );
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

    /// A spec with every keyed shape the pair lacks: two call groups'
    /// worth of calls, a shared leaf, a second class and an endpoint no
    /// root reaches.
    fn keyed_app() -> AppSpec {
        let mut spec = app();
        spec.services.push(ServiceSpec::new("c", 0.001));
        spec.generous_alloc.push(1.5);
        spec.endpoints[0].groups[0].calls.push((2, 0.5));
        spec.endpoints.extend([
            EndpointNode {
                service: ServiceId(2),
                work_scale: 1.0,
                groups: vec![],
            },
            EndpointNode {
                service: ServiceId(1),
                work_scale: 0.5,
                groups: vec![CallGroup {
                    calls: vec![(2, 1.0)],
                }],
            },
            EndpointNode {
                service: ServiceId(0),
                work_scale: 1.0,
                groups: vec![],
            },
        ]);
        spec.classes.push(RequestClass {
            name: "s".into(),
            weight: 2.0,
            root: 3,
        });
        spec
    }

    /// Every `f64` and count of a window, as bits.
    fn window_bits(w: &WindowStats) -> Vec<u64> {
        let mut out: Vec<u64> = [
            w.start_s,
            w.duration_s,
            w.offered_rps,
            w.achieved_rps,
            w.mean_ms,
            w.p50_ms,
            w.p95_ms,
            w.p99_ms,
            w.max_ms,
        ]
        .map(f64::to_bits)
        .to_vec();
        out.extend([w.completed, w.arrivals]);
        for s in &w.per_service {
            out.extend(
                [
                    s.alloc_cores,
                    s.util_pct,
                    s.cpu_used_s,
                    s.throttled_s,
                    s.usage_p90_cores,
                    s.usage_peak_cores,
                    s.mem_bytes,
                    s.mean_self_ms,
                    s.mean_visit_ms,
                ]
                .map(f64::to_bits),
            );
            out.push(s.visits);
        }
        out
    }

    #[test]
    fn equal_specs_share_one_plan() {
        let spec = keyed_app();
        let a = FluidEvaluator::new(&spec);
        let b = FluidEvaluator::new(&spec.clone());
        assert!(Arc::ptr_eq(&a.plan, &b.plan));
        // Fields the compile does not read are not part of the key.
        let mut unread = spec.clone();
        unread.name = "renamed".into();
        unread.services[0].demand_cv = 2.0;
        unread.services[0].mem_per_job_bytes = 1.0;
        unread.nodes.push(NodeSpec { cores: 8.0 });
        unread.generous_alloc[0] = 3.0;
        let c = FluidEvaluator::new(&unread);
        assert!(Arc::ptr_eq(&a.plan, &c.plan));
    }

    #[test]
    fn every_keyed_field_separates_plans() {
        type Edit = fn(&mut AppSpec);
        let edits: [(&str, Edit); 15] = [
            ("service count", |s| {
                s.services.push(ServiceSpec::new("d", 0.001));
                s.generous_alloc.push(1.0);
            }),
            ("demand_s", |s| s.services[1].demand_s = 0.004),
            ("mem_base_bytes", |s| s.services[1].mem_base_bytes *= 2.0),
            ("endpoint count", |s| {
                s.endpoints.push(EndpointNode {
                    service: ServiceId(2),
                    work_scale: 1.0,
                    groups: vec![],
                })
            }),
            ("endpoint service", |s| {
                s.endpoints[1].service = ServiceId(2)
            }),
            ("work_scale", |s| s.endpoints[0].work_scale = 2.0),
            ("group split", |s| {
                let last = s.endpoints[0].groups[0].calls.pop().unwrap();
                s.endpoints[0].groups.push(CallGroup { calls: vec![last] });
            }),
            ("call count", |s| {
                s.endpoints[0].groups[0].calls.pop();
            }),
            ("call child", |s| s.endpoints[3].groups[0].calls[0].0 = 1),
            ("call p", |s| s.endpoints[0].groups[0].calls[1].1 = 0.25),
            ("class count", |s| {
                s.classes.pop();
            }),
            ("class weight", |s| s.classes[1].weight = 3.0),
            ("class root", |s| s.classes[1].root = 1),
            ("net_delay_s", |s| s.net_delay_s = 0.0003),
            ("slo_ms", |s| s.slo_ms = 120.0),
        ];
        let base = FluidEvaluator::new(&keyed_app());
        for (field, edit) in edits {
            let mut spec = keyed_app();
            edit(&mut spec);
            let edited = FluidEvaluator::new(&spec);
            assert!(
                !Arc::ptr_eq(&base.plan, &edited.plan),
                "editing {field} reused the plan"
            );
        }
    }

    #[test]
    fn the_key_compares_bits_not_values() {
        let with_mem = |mem: f64| {
            let mut spec = app();
            spec.services[1].mem_base_bytes = mem;
            spec
        };
        let alloc = Allocation::new(vec![1.0, 1.0]);
        let mut pos = FluidEvaluator::new(&with_mem(0.0));
        let mut neg = FluidEvaluator::new(&with_mem(-0.0));
        assert!(!Arc::ptr_eq(&pos.plan, &neg.plan));
        let (p, n) = (pos.evaluate(&alloc, 100.0), neg.evaluate(&alloc, 100.0));
        assert_eq!(p.per_service[1].mem_bytes.to_bits(), 0.0f64.to_bits());
        assert_eq!(n.per_service[1].mem_bytes.to_bits(), (-0.0f64).to_bits());

        let nan = || {
            let mut spec = with_mem(f64::NAN);
            spec.net_delay_s = f64::NAN;
            spec
        };
        let mut a = FluidEvaluator::new(&nan());
        let mut b = FluidEvaluator::new(&nan());
        assert!(Arc::ptr_eq(&a.plan, &b.plan));
        let (wa, wb) = (a.evaluate(&alloc, 100.0), b.evaluate(&alloc, 100.0));
        assert!(wa.per_service[1].mem_bytes.is_nan());
        assert_eq!(window_bits(&wa), window_bits(&wb));
    }

    #[test]
    fn a_plan_dies_with_its_last_evaluator() {
        // An SLO no other test uses, so no other test holds this plan.
        let mut spec = app();
        spec.slo_ms = 123.25;
        let a = FluidEvaluator::new(&spec);
        let b = FluidEvaluator::new(&spec);
        let plan = Arc::downgrade(&a.plan);
        drop(a);
        assert!(plan.upgrade().is_some(), "b still holds the plan");
        drop(b);
        assert!(plan.upgrade().is_none());
    }

    /// The paper apps as this crate's `AppSpec`: `pema_apps` returns
    /// the library build's type, which is not the test build's.
    fn paper_apps() -> Vec<AppSpec> {
        [
            pema_apps::sockshop(),
            pema_apps::trainticket(),
            pema_apps::hotelreservation(),
        ]
        .into_iter()
        .map(|a| AppSpec {
            name: a.name,
            services: a
                .services
                .into_iter()
                .map(|s| ServiceSpec {
                    name: s.name,
                    demand_s: s.demand_s,
                    demand_cv: s.demand_cv,
                    threads: s.threads,
                    node: s.node,
                    mem_base_bytes: s.mem_base_bytes,
                    mem_per_job_bytes: s.mem_per_job_bytes,
                    pre_fraction: s.pre_fraction,
                })
                .collect(),
            endpoints: a
                .endpoints
                .into_iter()
                .map(|e| EndpointNode {
                    service: ServiceId(e.service.0),
                    work_scale: e.work_scale,
                    groups: e
                        .groups
                        .into_iter()
                        .map(|g| CallGroup { calls: g.calls })
                        .collect(),
                })
                .collect(),
            classes: a
                .classes
                .into_iter()
                .map(|c| RequestClass {
                    name: c.name,
                    weight: c.weight,
                    root: c.root,
                })
                .collect(),
            nodes: a
                .nodes
                .into_iter()
                .map(|n| NodeSpec { cores: n.cores })
                .collect(),
            net_delay_s: a.net_delay_s,
            slo_ms: a.slo_ms,
            generous_alloc: a.generous_alloc,
        })
        .collect()
    }

    #[test]
    fn threads_building_at_once_share_the_plans() {
        let apps = paper_apps();
        let held: Vec<FluidEvaluator> = apps.iter().map(FluidEvaluator::new).collect();
        // A spec no thread finds built: the four race to compile it.
        let mut fresh = app();
        fresh.slo_ms = 321.5;
        let start = std::sync::Barrier::new(4);
        let built: Vec<(Vec<FluidEvaluator>, FluidEvaluator)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let paper = apps.iter().map(FluidEvaluator::new).collect();
                        (paper, FluidEvaluator::new(&fresh))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (paper, raced) in &built {
            for (mine, theirs) in held.iter().zip(paper) {
                assert!(Arc::ptr_eq(&mine.plan, &theirs.plan));
            }
            assert!(Arc::ptr_eq(&built[0].1.plan, &raced.plan));
        }
    }
}
