//! Bring your own application: define a custom microservice topology
//! with the `AppBuilder`, then autoscale it with PEMA.
//!
//! The model below is a small media-streaming backend — an API gateway
//! fanning out to a catalog (cache-fronted), a recommender, and a
//! playback-session service backed by a database — with two request
//! classes (browse and play).
//!
//! ```sh
//! cargo run --release --example custom_app
//! ```

use pema::pema_apps::AppBuilder;
use pema::prelude::*;
use pema_sim::ServiceSpec;

fn build_streaming_app() -> AppSpec {
    let mut b = AppBuilder::new(
        "streamix", /*slo_ms=*/ 120.0, /*net_delay_s=*/ 0.0003,
    )
    .nodes(2, 16.0);

    // Services: name, mean CPU per visit (seconds); tune burstiness and
    // thread pools per runtime.
    let gateway = b.service(
        ServiceSpec::new("gateway", 0.0010)
            .cv(1.0)
            .threads(Some(32)),
        2.0,
    );
    let catalog = b.service(
        ServiceSpec::new("catalog", 0.0015).cv(1.2).threads(None),
        1.5,
    );
    let cache = b.service(
        ServiceSpec::new("catalog-cache", 0.0002)
            .cv(0.5)
            .threads(Some(8)),
        0.6,
    );
    let recommender = b.service(
        ServiceSpec::new("recommender", 0.0030)
            .cv(1.6)
            .threads(Some(16)),
        2.0,
    );
    let sessions = b.service(
        ServiceSpec::new("sessions", 0.0020)
            .cv(1.4)
            .threads(Some(24)),
        1.5,
    );
    let db = b.service(
        ServiceSpec::new("media-db", 0.0012)
            .cv(0.8)
            .threads(Some(12)),
        1.2,
    );

    // Call trees (children declared before parents).
    let ep_db = b.leaf(db, 1.0);
    let ep_cache = b.leaf(cache, 1.0);
    let ep_catalog = b.ep(
        catalog,
        1.0,
        vec![vec![(ep_cache, 1.0)], vec![(ep_db, 0.25)]],
    );
    let ep_recommender = b.ep(recommender, 1.0, vec![vec![(ep_db, 1.0)]]);
    let ep_sessions = b.ep(sessions, 1.0, vec![vec![(ep_db, 1.0)]]);
    let ep_browse = b.ep(
        gateway,
        1.0,
        vec![vec![(ep_catalog, 1.0), (ep_recommender, 0.8)]],
    );
    let ep_play = b.ep(
        gateway,
        0.8,
        vec![vec![(ep_sessions, 1.0), (ep_catalog, 0.3)]],
    );

    b.class("browse", 0.7, ep_browse);
    b.class("play", 0.3, ep_play);
    b.build()
}

fn main() {
    let app = build_streaming_app();
    println!(
        "custom app '{}': {} services, SLO {} ms",
        app.name,
        app.n_services(),
        app.slo_ms
    );

    let result = Experiment::builder()
        .app(&app)
        .policy(PemaController::new(
            PemaParams::defaults(app.slo_ms),
            app.generous_alloc.clone(),
        ))
        .config(HarnessConfig {
            interval_s: 30.0,
            warmup_s: 3.0,
            seed: 99,
        })
        .rps(250.0)
        .iters(25)
        .run();

    println!("\n{:>4}  {:>9}  {:>9}", "iter", "totalCPU", "p95(ms)");
    for l in result.log.iter().step_by(4) {
        println!("{:>4}  {:>9.2}  {:>9.1}", l.iter, l.total_cpu, l.p95_ms);
    }
    println!(
        "\nsettled at {:.2} cores (from {:.2}), {} violations in {} intervals",
        result.settled_total(5),
        app.generous_alloc.iter().sum::<f64>(),
        result.violations(),
        result.log.len()
    );
    println!("final allocation:");
    for (name, cores) in app.service_names().iter().zip(result.final_alloc.0.iter()) {
        println!("  {name:>15}  {cores:.2}");
    }
}
