//! # pema-apps — the paper's three benchmark applications, as models
//!
//! Calibrated [`pema_sim::AppSpec`]s for the microservice prototypes the
//! paper evaluates (§2.1):
//!
//! | app | services | SLO (p95) | source |
//! |---|---|---|---|
//! | [`sockshop()`](sockshop()) | 13 | 250 ms | Weaveworks SockShop demo |
//! | [`trainticket()`](trainticket()) | 41 | 900 ms | FudanSELab TrainTicket |
//! | [`hotelreservation()`](hotelreservation()) | 18 |  50 ms | DeathStarBench |
//!
//! Topologies follow the paper's architecture figures (Figs. 2–4);
//! service demands, burstiness (demand CV) and thread pools are
//! calibrated so the simulated optimum allocations land in the ranges
//! the paper reports, and so the bottleneck services used in its
//! analyses (`seat`/`basic`/`ticketinfo` for TrainTicket, `carts` and
//! `orders` for SockShop, `front-end`/`search` for HotelReservation)
//! show the same throttling-vs-utilization signatures.
//!
//! [`toy_chain`] is a deliberately small three-service app for fast
//! tests and documentation examples.

mod builder;
pub mod hotelreservation;
pub mod sockshop;
pub mod trainticket;

pub use builder::AppBuilder;
pub use hotelreservation::hotelreservation;
pub use sockshop::sockshop;
pub use trainticket::trainticket;

use pema_sim::topology::AppSpec;
use pema_sim::ServiceSpec;

/// A cluster-scale synthetic application: `replicas` independent
/// five-service product lines (frontend → {auth, cart} → order → db)
/// bin-packed 16 containers per node — the shape of a production
/// cluster rather than a single demo app.
///
/// This is the ROADMAP's "production-scale" direction made concrete
/// and is the workload the repo benchmark uses to measure how engine
/// cost scales with topology size (`sim.engine.ns_per_event_120svc`
/// on `des_closed_loop`): per simulated request the engine must handle
/// deep fan-out across many co-located services, dense per-node
/// contention bookkeeping, and hundreds of armed timers. Drive it at
/// roughly `40 × replicas` rps.
pub fn cluster_scale(replicas: usize) -> AppSpec {
    assert!(replicas >= 1, "need at least one replica");
    let services = replicas * 5;
    let nodes = services.div_ceil(16);
    let mut b = AppBuilder::new("cluster-scale", 250.0, 0.0002).nodes(nodes, 32.0);
    for r in 0..replicas {
        // Block-pack services onto nodes in declaration order: 16
        // consecutive containers per node, so each node hosts ~3
        // complete replica chains plus a fragment of the next — calls
        // mostly stay node-local, as with a locality-aware scheduler.
        let node_of = |svc_idx: usize| svc_idx / 16 % nodes;
        let base = r * 5;
        let fe = b.service(
            ServiceSpec::new(&format!("fe-{r}"), 0.0015)
                .cv(1.0)
                .threads(Some(24))
                .on_node(node_of(base)),
            1.5,
        );
        let auth = b.service(
            ServiceSpec::new(&format!("auth-{r}"), 0.0010)
                .cv(0.8)
                .threads(Some(16))
                .on_node(node_of(base + 1)),
            1.0,
        );
        let cart = b.service(
            ServiceSpec::new(&format!("cart-{r}"), 0.0022)
                .cv(1.3)
                .threads(Some(16))
                .on_node(node_of(base + 2)),
            1.5,
        );
        let order = b.service(
            ServiceSpec::new(&format!("order-{r}"), 0.0028)
                .cv(1.2)
                .threads(Some(16))
                .on_node(node_of(base + 3)),
            1.5,
        );
        let db = b.service(
            ServiceSpec::new(&format!("db-{r}"), 0.0014)
                .cv(0.7)
                .threads(Some(12))
                .on_node(node_of(base + 4)),
            1.0,
        );
        let ep_db = b.leaf(db, 1.0);
        let ep_order = b.ep(order, 1.0, vec![vec![(ep_db, 1.0)]]);
        let ep_auth = b.leaf(auth, 1.0);
        let ep_cart = b.ep(cart, 1.0, vec![vec![(ep_db, 0.6)]]);
        let ep_fe = b.ep(
            fe,
            1.0,
            vec![vec![(ep_auth, 1.0), (ep_cart, 0.9)], vec![(ep_order, 0.55)]],
        );
        b.class(&format!("browse-{r}"), 1.0, ep_fe);
    }
    b.build()
}

/// A three-service chain (gateway → logic → db) for tests and examples.
/// SLO 100 ms; sensible at 50–400 rps.
pub fn toy_chain() -> AppSpec {
    let mut b = AppBuilder::new("toy-chain", 100.0, 0.0003).nodes(1, 16.0);
    let gw = b.service(
        ServiceSpec::new("gateway", 0.0012)
            .cv(1.0)
            .threads(Some(16)),
        1.5,
    );
    let logic = b.service(
        ServiceSpec::new("logic", 0.0025).cv(1.4).threads(Some(16)),
        2.0,
    );
    let db = b.service(
        ServiceSpec::new("db", 0.0012).cv(0.8).threads(Some(12)),
        1.5,
    );
    let ep_db = b.leaf(db, 1.0);
    let ep_logic = b.ep(logic, 1.0, vec![vec![(ep_db, 1.0)]]);
    let ep_gw = b.ep(gw, 1.0, vec![vec![(ep_logic, 1.0)]]);
    b.class("request", 1.0, ep_gw);
    b.build()
}

/// All three paper applications, in the order they appear in the paper.
pub fn all_apps() -> Vec<AppSpec> {
    vec![trainticket(), sockshop(), hotelreservation()]
}

/// The `(app, nominal rps)` mix every fleet surface cycles through —
/// the `fleet_scale` scenario, `pema-cli fleet --app mixed`, and the
/// repo benchmark's fleet workloads all share this one list so a
/// retuned nominal load cannot leave them measuring different
/// workloads.
pub fn fleet_mix() -> Vec<(AppSpec, f64)> {
    vec![
        (sockshop(), 700.0),
        (trainticket(), 250.0),
        (hotelreservation(), 600.0),
    ]
}

/// Deterministic per-member load spread for fleet surfaces: ±20%
/// around `nominal`, keyed only by the member index (`member`) and the
/// number of app templates being cycled (`n_templates`) — never by
/// scheduling.
pub fn fleet_rps(nominal: f64, member: usize, n_templates: usize) -> f64 {
    nominal * (0.80 + 0.05 * ((member / n_templates.max(1)) % 9) as f64)
}

/// Looks an application model up by name
/// (`"trainticket"` / `"sockshop"` / `"hotelreservation"` / `"toy-chain"`).
pub fn by_name(name: &str) -> Option<AppSpec> {
    match name {
        "trainticket" => Some(trainticket()),
        "sockshop" => Some(sockshop()),
        "hotelreservation" => Some(hotelreservation()),
        "toy-chain" => Some(toy_chain()),
        "cluster-scale" => Some(cluster_scale(24)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_counts_match_paper() {
        assert_eq!(trainticket().n_services(), 41);
        assert_eq!(sockshop().n_services(), 13);
        assert_eq!(hotelreservation().n_services(), 18);
    }

    #[test]
    fn slos_match_paper() {
        assert_eq!(trainticket().slo_ms, 900.0);
        assert_eq!(sockshop().slo_ms, 250.0);
        assert_eq!(hotelreservation().slo_ms, 50.0);
    }

    #[test]
    fn cluster_scale_packs_and_validates() {
        for replicas in [1, 4, 24] {
            let app = cluster_scale(replicas);
            assert_eq!(app.services.len(), replicas * 5);
            assert_eq!(app.classes.len(), replicas);
            assert_eq!(app.nodes.len(), (replicas * 5).div_ceil(16));
            // Round-robin packing never exceeds 16 containers/node.
            let mut per_node = vec![0usize; app.nodes.len()];
            for s in &app.services {
                per_node[s.node] += 1;
            }
            assert!(per_node.iter().all(|&n| n <= 16), "{per_node:?}");
            app.validate().unwrap();
        }
    }

    #[test]
    fn cluster_scale_serves_light_load() {
        let app = cluster_scale(4);
        let mut sim = pema_sim::ClusterSim::new(&app, 3);
        let stats = sim.run_window(160.0, 1.0, 10.0);
        assert!(stats.completed > 1000, "completed={}", stats.completed);
        assert!(
            stats.p95_ms < app.slo_ms,
            "p95={} vs SLO {}",
            stats.p95_ms,
            app.slo_ms
        );
    }

    #[test]
    fn by_name_roundtrip() {
        for app in all_apps() {
            let again = by_name(&app.name).unwrap();
            assert_eq!(again.n_services(), app.n_services());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn toy_chain_validates() {
        toy_chain().validate().unwrap();
        assert_eq!(toy_chain().n_services(), 3);
    }

    #[test]
    fn all_apps_validate() {
        for app in all_apps() {
            app.validate().unwrap();
        }
    }
}
