//! Tail-latency forensics with the built-in request tracing.
//!
//! The paper's monitoring stack includes Jaeger; PEMA pointedly does
//! not use it (two Prometheus metrics suffice), but *operators* do.
//! This example starves one SockShop service slightly, samples request
//! traces, and shows how critical-path analysis pinpoints the culprit —
//! the ground truth PEMA's util+throttle heuristic is benchmarked
//! against in Table 1.
//!
//! ```sh
//! cargo run --release --example trace_analysis
//! ```

use pema::prelude::*;
use pema_sim::trace::{attribute, tail_exclusive_ranking, tail_traces};

fn main() {
    let app = pema_apps::sockshop();
    let mut sim = ClusterSim::new(&app, 404);

    // Starve `carts` to ~70% of its knee: healthy on average, ugly in
    // the tail.
    let carts = app.service_by_name("carts").unwrap().0;
    let mut alloc = Allocation::new(app.generous_alloc.clone());
    alloc.set(carts, 0.45);
    sim.set_allocation(&alloc);
    sim.set_trace_sampling(0.25);

    let stats = sim.run_window(550.0, 4.0, 30.0);
    let traces = sim.take_traces();
    println!(
        "window: p95 = {:.0} ms (SLO {} ms), {} traces sampled",
        stats.p95_ms,
        app.slo_ms,
        traces.len()
    );

    // Which services dominate the critical paths of the slowest 5%?
    let tail: Vec<_> = tail_traces(&traces, 0.95).into_iter().cloned().collect();
    println!("\nslowest 5% of requests ({} traces):", tail.len());
    let attr = attribute(&tail, app.n_services());
    let names = app.service_names();
    let mut rows: Vec<(usize, &pema_sim::ServiceAttribution)> = attr
        .iter()
        .enumerate()
        .filter(|(_, a)| a.visits > 0)
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.on_critical_path));
    println!(
        "{:>14} {:>10} {:>9} {:>12} {:>14}",
        "service", "crit.path", "visits", "Σself(ms)", "Σexclusive(ms)"
    );
    for (i, a) in rows.iter().take(6) {
        println!(
            "{:>14} {:>10} {:>9} {:>12.1} {:>14.1}",
            names[*i],
            a.on_critical_path,
            a.visits,
            a.self_cpu_s * 1e3,
            a.exclusive_s * 1e3
        );
    }

    // The starved service should top the *exclusive*-time ranking
    // (span duration not explained by downstream calls = queueing +
    // throttle stalls at that service) of the services a caller waited
    // on; the ranking sets the entry service apart.
    let top = tail_exclusive_ranking(&traces, app.n_services()).0[0];
    println!(
        "\nhighest mean exclusive time in the tail, entry service aside: {} — the starved \
         service was '{}'",
        names[top.0], names[carts]
    );
    assert_eq!(top.0, carts, "trace analysis should identify the culprit");
}
