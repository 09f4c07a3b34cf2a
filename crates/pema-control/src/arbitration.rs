//! [`FleetPolicy`] — cluster-wide resource arbitration across fleet
//! members.
//!
//! Every scenario up to now scaled each application against an
//! implicitly infinite CPU pool: fleet members were fully independent,
//! and the paper's loop (Fig. 9) never asks where the cores come from.
//! A real cluster arbitrates a **finite** budget across co-located
//! applications. This module is that missing layer: a fleet configured
//! with [`Fleet::arbitration`](crate::Fleet::arbitration) synchronizes
//! its members at a deterministic window-boundary barrier, collects
//! every member's *proposed* allocation (the total cores its policy
//! just decided on) together with per-member metadata (priority class,
//! weight, floor — see [`MemberSpec`](crate::MemberSpec)), and lets a
//! [`FleetPolicy`] return the *granted* totals under the shared budget.
//! Grants below the proposal scale the member's per-service allocation
//! proportionally before it is applied.
//!
//! ## The barrier and its determinism story
//!
//! Members own unrelated virtual clocks (different interval lengths,
//! different backends), so "the same instant" is not well defined
//! across a fleet. The deterministic synchronization point is the
//! **round**: arbitration round `k` fires when every member that still
//! has intervals left has finished measuring its `k`-th window and
//! staged its proposal. Requests are assembled in **pinned member
//! order** (fleet insertion order, never completion or scheduling
//! order), the policy runs once per round, and shards rendezvous at the
//! barrier in a two-phase collect/grant step — so the sequence of
//! `(round, requests)` the policy observes is a pure function of the
//! fleet description, independent of thread count and tie-break
//! permutations. With a slack budget every shipped policy returns the
//! proposals verbatim and the run is bit-identical to an unarbitrated
//! fleet (pinned by the property tests in `fleet_properties.rs`).
//!
//! ## Invariants
//!
//! For every round, each grant must satisfy
//! `min(floor, proposed) <= granted <= proposed` — floors are hard
//! guarantees and granting more than the member asked for is
//! meaningless (the fleet clamps the upper bound and panics on a floor
//! violation). Budget-enforcing policies additionally keep
//! `sum(granted) <= budget`; [`Unlimited`] is the deliberate
//! pass-through exception. `Fleet::run` checks up front that the
//! member floors fit inside the budget, so both invariants are always
//! simultaneously satisfiable.

/// One member's request at an arbitration round: its proposed total
/// plus the arbitration metadata from its
/// [`MemberSpec`](crate::MemberSpec).
#[derive(Debug, Clone, Copy)]
pub struct ArbitrationRequest {
    /// Fleet insertion index of the member (requests arrive sorted by
    /// this, and it never changes across rounds).
    pub member: usize,
    /// Priority class (higher is more important; default 0).
    pub priority: i32,
    /// Weighted-fair-share weight (default 1.0).
    pub weight: f64,
    /// Guaranteed minimum total cores (default 0.0). Effective floor is
    /// `min(floor, proposed)` — a floor never forces a member *above*
    /// its own proposal.
    pub floor: f64,
    /// Total cores the member's policy proposed for its next interval.
    pub proposed: f64,
}

impl ArbitrationRequest {
    /// The effective floor of this request: `min(floor, proposed)`.
    pub fn effective_floor(&self) -> f64 {
        self.floor.min(self.proposed)
    }
}

/// One member's view of one arbitration round — delivered to
/// [`Observer::on_arbitration`](crate::Observer::on_arbitration) just
/// before the interval it applies to is logged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationEvent {
    /// Arbitration round index (0-based; equals the member's interval
    /// index, since every interval proposes exactly once).
    pub round: usize,
    /// The shared CPU budget in force (`f64::INFINITY` when slack by
    /// construction).
    pub budget: f64,
    /// This member's proposed total, cores.
    pub proposed: f64,
    /// This member's granted total, cores.
    pub granted: f64,
    /// Sum of every member's proposal this round.
    pub fleet_demand: f64,
    /// Sum of every member's grant this round.
    pub fleet_granted: f64,
}

impl ArbitrationEvent {
    /// True when the arbiter cut this member below its proposal.
    pub fn cut(&self) -> bool {
        self.granted < self.proposed
    }
}

/// The fleet-level arbitration policy: sees every member's proposal
/// (pinned insertion order) and returns the granted totals.
///
/// Object-safe and `Send` (the barrier leader may run on any shard
/// worker; calls are serialized and round-ordered, so `&mut self` state
/// like AIMD's scale evolves deterministically).
pub trait FleetPolicy: Send {
    /// Short policy tag for telemetry/CSVs (e.g. `"fair"`).
    fn name(&self) -> &'static str;

    /// Arbitrates one round: returns one granted total per request, in
    /// request order. See the module docs for the invariants grants
    /// must satisfy.
    fn arbitrate(&mut self, budget: f64, requests: &[ArbitrationRequest]) -> Vec<f64>;

    /// Whether this policy promises `sum(granted) <= budget`.
    /// [`Unlimited`] — the explicit pass-through — is the one shipped
    /// policy that does not.
    fn enforces_budget(&self) -> bool {
        true
    }
}

/// Pass-through arbitration: every member is granted exactly what it
/// proposed, regardless of the budget. The explicit "off" policy — a
/// fleet under `Unlimited` is bit-identical to an unarbitrated fleet
/// (and to per-member solo runs), which is the degenerate case the
/// property tests pin.
#[derive(Debug, Default, Clone, Copy)]
pub struct Unlimited;

impl FleetPolicy for Unlimited {
    fn name(&self) -> &'static str {
        "unlimited"
    }

    fn arbitrate(&mut self, _budget: f64, requests: &[ArbitrationRequest]) -> Vec<f64> {
        requests.iter().map(|r| r.proposed).collect()
    }

    fn enforces_budget(&self) -> bool {
        false
    }
}

/// Priority-then-weight fair sharing under contention.
///
/// When aggregate demand fits the budget, every proposal is granted
/// verbatim (so slack budgets are exact pass-throughs). Under
/// contention, every member first receives its effective floor; the
/// remaining budget is then handed out by **descending priority
/// class**: a class whose above-floor demand fits is granted fully, and
/// the first class that does not fit is squeezed by weighted fair share
/// (proportional to weight, iteratively capped at each member's own
/// proposal); lower classes get floors only. Pure arithmetic over the
/// pinned request order — no tie-breaking, no randomness.
#[derive(Debug, Default, Clone, Copy)]
pub struct WeightedFairShare;

impl WeightedFairShare {
    /// The standard fair-share arbiter.
    pub fn new() -> Self {
        Self
    }
}

impl FleetPolicy for WeightedFairShare {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn arbitrate(&mut self, budget: f64, requests: &[ArbitrationRequest]) -> Vec<f64> {
        let demand: f64 = requests.iter().map(|r| r.proposed).sum();
        if demand <= budget {
            return requests.iter().map(|r| r.proposed).collect();
        }
        let mut grants: Vec<f64> = requests.iter().map(|r| r.effective_floor()).collect();
        let mut remaining = budget - grants.iter().sum::<f64>();

        // Distinct priority classes, highest first (sorted copy — the
        // request order itself stays pinned).
        let mut classes: Vec<i32> = requests.iter().map(|r| r.priority).collect();
        classes.sort_unstable_by(|a, b| b.cmp(a));
        classes.dedup();

        for class in classes {
            if remaining <= 0.0 {
                break;
            }
            let idxs: Vec<usize> = (0..requests.len())
                .filter(|&i| requests[i].priority == class)
                .collect();
            let class_demand: f64 = idxs.iter().map(|&i| requests[i].proposed - grants[i]).sum();
            if class_demand <= remaining {
                for &i in &idxs {
                    remaining -= requests[i].proposed - grants[i];
                    grants[i] = requests[i].proposed;
                }
                continue;
            }
            // The contended class: weighted fair share of `remaining`
            // above floors, waterfilling so nobody is pushed past its
            // own proposal while others still have headroom.
            let mut open: Vec<usize> = idxs.clone();
            while remaining > 1e-12 && !open.is_empty() {
                let wsum: f64 = open.iter().map(|&i| requests[i].weight).sum();
                if wsum <= 0.0 {
                    break;
                }
                let mut next_open = Vec::with_capacity(open.len());
                let mut handed = 0.0;
                for &i in &open {
                    let share = remaining * requests[i].weight / wsum;
                    let headroom = requests[i].proposed - grants[i];
                    if share >= headroom {
                        grants[i] = requests[i].proposed;
                        handed += headroom;
                    } else {
                        grants[i] += share;
                        handed += share;
                        next_open.push(i);
                    }
                }
                remaining -= handed;
                if next_open.len() == open.len() {
                    // Nobody capped: the proportional split consumed the
                    // remainder exactly.
                    break;
                }
                open = next_open;
            }
            remaining = 0.0;
        }
        squeeze_to_budget(&mut grants, requests, budget);
        grants
    }
}

/// AIMD backoff: a single multiplicative scale applied to every
/// proposal, cut on budget breach, recovered additively.
///
/// Each round the arbiter asks for `max(floor, proposed * scale)` per
/// member. If that total breaches the budget, the round is squeezed to
/// fit (floors respected) **and** the scale takes a multiplicative cut
/// for subsequent rounds; breach-free rounds recover the scale
/// additively toward 1.0. At `scale == 1.0` with a slack budget the
/// policy is an exact pass-through, so it degenerates to solo-run
/// bit-identity like the others.
#[derive(Debug, Clone, Copy)]
pub struct AimdBackoff {
    scale: f64,
}

/// Multiplicative cut applied to the scale on a budget breach.
const AIMD_CUT: f64 = 0.5;
/// Additive recovery per breach-free round.
const AIMD_RECOVER: f64 = 0.05;
/// Lower bound on the scale.
const AIMD_MIN_SCALE: f64 = 0.05;

impl Default for AimdBackoff {
    fn default() -> Self {
        Self::new()
    }
}

impl AimdBackoff {
    /// The AIMD arbiter (cut ×0.5 on breach, recover +0.05 per clean
    /// round, scale floor 0.05), starting at full scale.
    pub fn new() -> Self {
        Self { scale: 1.0 }
    }

    /// The current multiplicative scale (1.0 = no backoff).
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl FleetPolicy for AimdBackoff {
    fn name(&self) -> &'static str {
        "aimd"
    }

    fn arbitrate(&mut self, budget: f64, requests: &[ArbitrationRequest]) -> Vec<f64> {
        let mut grants: Vec<f64> = requests
            .iter()
            .map(|r| {
                if self.scale >= 1.0 {
                    // Exact pass-through at full scale: `p * 1.0` is
                    // bitwise `p`, but skipping the multiply keeps the
                    // slack-budget identity self-evident.
                    r.proposed
                } else {
                    (r.proposed * self.scale).max(r.effective_floor())
                }
            })
            .collect();
        if grants.iter().sum::<f64>() > budget {
            self.scale = (self.scale * AIMD_CUT).max(AIMD_MIN_SCALE);
            squeeze_to_budget(&mut grants, requests, budget);
        } else {
            self.scale = (self.scale + AIMD_RECOVER).min(1.0);
        }
        grants
    }
}

/// Squeezes `grants` to fit `budget` by scaling the above-floor portion
/// of every grant uniformly, leaving effective floors untouched. A
/// no-op when the grants already fit. Shared by the shipped policies as
/// the final budget-enforcement step; custom [`FleetPolicy`]s are
/// welcome to reuse it.
pub fn squeeze_to_budget(grants: &mut [f64], requests: &[ArbitrationRequest], budget: f64) {
    debug_assert_eq!(grants.len(), requests.len());
    let total: f64 = grants.iter().sum();
    if total <= budget || !budget.is_finite() {
        return;
    }
    let floor_sum: f64 = requests.iter().map(|r| r.effective_floor()).sum();
    let above = total - floor_sum;
    if above <= 0.0 {
        return;
    }
    // Shrink the above-floor portion; one extra epsilon of shrink
    // guards the invariant against the rounding of the re-sum.
    let ratio = ((budget - floor_sum) / above).max(0.0) * (1.0 - 1e-12);
    for (g, r) in grants.iter_mut().zip(requests) {
        let f = r.effective_floor();
        *g = f + (*g - f) * ratio;
    }
}

/// Per-member grant/deny totals over a whole run (insertion order in
/// [`FleetArbitration::members`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemberArbitration {
    /// Rounds this member participated in (== its interval count).
    pub rounds: usize,
    /// Rounds where the grant was strictly below the proposal.
    pub cuts: usize,
    /// Sum of proposed totals across rounds, core·intervals.
    pub proposed_sum: f64,
    /// Sum of granted totals across rounds, core·intervals.
    pub granted_sum: f64,
}

/// Whole-run arbitration telemetry, carried on
/// [`FleetResult`](crate::FleetResult) when the fleet ran under a
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArbitration {
    /// The arbitration policy's tag ([`FleetPolicy::name`]).
    pub policy: String,
    /// The shared CPU budget, cores.
    pub budget: f64,
    /// Total arbitration rounds run.
    pub rounds: usize,
    /// Rounds where at least one member was cut.
    pub contended_rounds: usize,
    /// Per-member totals, fleet insertion order.
    pub members: Vec<MemberArbitration>,
}

impl FleetArbitration {
    /// Total cuts across all members and rounds.
    pub fn total_cuts(&self) -> usize {
        self.members.iter().map(|m| m.cuts).sum()
    }

    /// Fleet-wide granted/proposed ratio (1.0 = nothing was ever cut).
    pub fn grant_ratio(&self) -> f64 {
        let p: f64 = self.members.iter().map(|m| m.proposed_sum).sum();
        let g: f64 = self.members.iter().map(|m| m.granted_sum).sum();
        if p > 0.0 {
            g / p
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(member: usize, proposed: f64) -> ArbitrationRequest {
        ArbitrationRequest {
            member,
            priority: 0,
            weight: 1.0,
            floor: 0.0,
            proposed,
        }
    }

    #[test]
    fn unlimited_passes_through_even_over_budget() {
        let reqs = [req(0, 8.0), req(1, 4.0)];
        let grants = Unlimited.arbitrate(5.0, &reqs);
        assert_eq!(grants, vec![8.0, 4.0]);
    }

    #[test]
    fn fair_share_is_pass_through_under_slack() {
        let reqs = [req(0, 8.0), req(1, 4.0)];
        let grants = WeightedFairShare::new().arbitrate(100.0, &reqs);
        assert_eq!(grants, vec![8.0, 4.0]);
    }

    #[test]
    fn fair_share_scales_down_proportionally_to_weight() {
        let mut a = req(0, 10.0);
        a.weight = 3.0;
        let b = req(1, 10.0);
        let grants = WeightedFairShare::new().arbitrate(12.0, &[a, b]);
        assert!(grants.iter().sum::<f64>() <= 12.0 + 1e-9);
        assert!(
            grants[0] > grants[1],
            "heavier member gets more: {grants:?}"
        );
        assert!((grants[0] - 9.0).abs() < 1e-6, "{grants:?}");
        assert!((grants[1] - 3.0).abs() < 1e-6, "{grants:?}");
    }

    #[test]
    fn fair_share_respects_floors_under_contention() {
        let mut a = req(0, 10.0);
        a.floor = 4.0;
        let b = req(1, 10.0);
        let grants = WeightedFairShare::new().arbitrate(6.0, &[a, b]);
        assert!(grants[0] >= 4.0 - 1e-9, "{grants:?}");
        assert!(grants.iter().sum::<f64>() <= 6.0 + 1e-9, "{grants:?}");
    }

    #[test]
    fn fair_share_waterfills_past_small_proposals() {
        // One tiny proposal caps out; the leftover flows to the big one
        // instead of being discarded.
        let grants = WeightedFairShare::new().arbitrate(10.0, &[req(0, 2.0), req(1, 20.0)]);
        assert!((grants[0] - 2.0).abs() < 1e-9, "{grants:?}");
        assert!((grants[1] - 8.0).abs() < 1e-6, "{grants:?}");
    }

    #[test]
    fn fair_share_serves_high_priority_first() {
        let mut hi = req(0, 6.0);
        hi.priority = 1;
        let lo = req(1, 6.0);
        let grants = WeightedFairShare::new().arbitrate(8.0, &[hi, lo]);
        assert!((grants[0] - 6.0).abs() < 1e-9, "high class fully served");
        assert!(grants[1] <= 2.0 + 1e-9, "low class squeezed: {grants:?}");
    }

    #[test]
    fn aimd_cuts_multiplicatively_and_recovers_additively() {
        let mut aimd = AimdBackoff::new();
        let reqs = [req(0, 10.0), req(1, 10.0)];
        // Breach: demand 20 over budget 10 → squeeze + scale cut.
        let g = aimd.arbitrate(10.0, &reqs);
        assert!(g.iter().sum::<f64>() <= 10.0 + 1e-9);
        assert!((aimd.scale() - 0.5).abs() < 1e-12);
        // Clean rounds recover the scale toward 1.0.
        let slack = [req(0, 1.0), req(1, 1.0)];
        aimd.arbitrate(10.0, &slack);
        assert!((aimd.scale() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn aimd_at_full_scale_is_verbatim_pass_through() {
        let reqs = [req(0, 3.5), req(1, 1.25)];
        let g = AimdBackoff::new().arbitrate(100.0, &reqs);
        assert_eq!(g[0].to_bits(), 3.5f64.to_bits());
        assert_eq!(g[1].to_bits(), 1.25f64.to_bits());
    }

    #[test]
    fn squeeze_keeps_floors_and_fits_budget() {
        let mut a = req(0, 10.0);
        a.floor = 3.0;
        let mut b = req(1, 8.0);
        b.floor = 2.0;
        let mut grants = vec![10.0, 8.0];
        squeeze_to_budget(&mut grants, &[a, b], 9.0);
        assert!(grants.iter().sum::<f64>() <= 9.0);
        assert!(grants[0] >= 3.0 && grants[1] >= 2.0, "{grants:?}");
    }
}
