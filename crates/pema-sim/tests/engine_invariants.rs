//! Crate-level invariant tests for the DES engine: conservation laws
//! and contention behaviours that every experiment silently relies on.

use pema_sim::topology::{
    AppSpec, CallGroup, EndpointNode, NodeSpec, RequestClass, ServiceId, ServiceSpec,
};
use pema_sim::{Allocation, ClusterSim};
use proptest::prelude::*;

/// Two services on one node with configurable cores.
fn two_svc_app(node_cores: f64) -> AppSpec {
    AppSpec {
        name: "pair".into(),
        services: vec![
            ServiceSpec::new("a", 0.003).cv(0.8).threads(Some(32)),
            ServiceSpec::new("b", 0.003).cv(0.8).threads(Some(32)),
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
            name: "r".into(),
            weight: 1.0,
            root: 0,
        }],
        nodes: vec![NodeSpec { cores: node_cores }],
        net_delay_s: 0.0001,
        slo_ms: 200.0,
        generous_alloc: vec![4.0, 4.0],
    }
}

#[test]
fn cpu_usage_never_exceeds_allocation_budget() {
    let app = two_svc_app(32.0);
    let mut sim = ClusterSim::new(&app, 1);
    let stats = sim.run_window(200.0, 2.0, 20.0);
    for (i, s) in stats.per_service.iter().enumerate() {
        let budget = s.alloc_cores * stats.duration_s;
        assert!(
            s.cpu_used_s <= budget * 1.01 + 0.01,
            "service {i} used {:.3} CPU-s over budget {:.3}",
            s.cpu_used_s,
            budget
        );
    }
}

#[test]
fn node_contention_slows_everything() {
    // Same offered load; a 1.5-core node must serve what a 32-core node
    // serves — latency has to be higher under contention.
    let roomy = {
        let mut sim = ClusterSim::new(&two_svc_app(32.0), 5);
        sim.run_window(300.0, 2.0, 15.0)
    };
    let cramped = {
        let mut sim = ClusterSim::new(&two_svc_app(1.5), 5);
        sim.run_window(300.0, 2.0, 15.0)
    };
    assert!(
        cramped.mean_ms > roomy.mean_ms * 1.3,
        "contention should slow requests: {} vs {}",
        cramped.mean_ms,
        roomy.mean_ms
    );
}

#[test]
fn throttle_time_bounded_by_wall_time() {
    let app = two_svc_app(32.0);
    let mut sim = ClusterSim::new(&app, 9);
    sim.set_allocation(&Allocation::new(vec![0.4, 0.4]));
    let stats = sim.run_window(200.0, 2.0, 20.0);
    for s in &stats.per_service {
        assert!(s.throttled_s >= 0.0);
        assert!(
            s.throttled_s <= stats.duration_s + 0.2,
            "throttle {} exceeds window {}",
            s.throttled_s,
            stats.duration_s
        );
    }
}

#[test]
fn completions_never_exceed_arrivals_cumulatively() {
    let app = two_svc_app(32.0);
    let mut sim = ClusterSim::new(&app, 11);
    let mut total_arrivals = 0u64;
    let mut total_completed = 0u64;
    for _ in 0..5 {
        let s = sim.run_window(150.0, 0.0, 8.0);
        total_arrivals += s.arrivals;
        total_completed += s.completed;
    }
    // A small carry-over between windows is possible, hence cumulative.
    assert!(
        total_completed <= total_arrivals + 50,
        "completed {total_completed} > arrived {total_arrivals}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Visit accounting: after draining, no live visits and no scheduled
    /// events remain for any (rate, allocation) combination that
    /// terminates.
    #[test]
    fn drain_leaves_no_live_visits(rps in 50.0f64..300.0, alloc in 0.8f64..4.0) {
        let app = two_svc_app(32.0);
        let mut sim = ClusterSim::new(&app, 13);
        sim.set_allocation(&Allocation::new(vec![alloc, alloc]));
        sim.run_window(rps, 1.0, 6.0);
        sim.set_arrival_rate(0.0);
        sim.run_until(sim.now().plus_secs(30.0));
        prop_assert_eq!(sim.live_visits(), 0);
        prop_assert_eq!(sim.pending_events(), 0);
    }

    /// The same seed and schedule always produce identical statistics,
    /// regardless of the allocation applied.
    #[test]
    fn determinism_under_arbitrary_allocations(a0 in 0.3f64..4.0, a1 in 0.3f64..4.0) {
        let app = two_svc_app(32.0);
        let run = || {
            let mut sim = ClusterSim::new(&app, 17);
            sim.set_allocation(&Allocation::new(vec![a0, a1]));
            let s = sim.run_window(120.0, 1.0, 6.0);
            (s.completed, s.mean_ms, s.per_service[0].cpu_used_s)
        };
        prop_assert_eq!(run(), run());
    }
}
