//! What-if capacity planning with the evaluator API.
//!
//! Beyond closed-loop autoscaling, the simulator doubles as an offline
//! what-if tool: given an application model, compare allocation
//! policies before touching production. This example sizes
//! HotelReservation for three traffic levels, comparing
//!
//! * the OPTM search (the cheapest SLO-satisfying allocation),
//! * the RULE baseline (Kubernetes-style usage-driven sizing), and
//! * a naive uniform allocation at the same total as OPTM,
//!
//! demonstrating the paper's point that *distribution*, not just
//! total, determines performance.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use pema::prelude::*;

fn main() {
    let app = pema_apps::hotelreservation();
    println!(
        "capacity planning for {} (SLO {} ms)\n",
        app.name, app.slo_ms
    );
    println!(
        "{:>6}  {:>12}  {:>12}  {:>18}",
        "rps", "OPTM total", "OPTM p95", "uniform-same-total p95"
    );
    for rps in [400.0, 600.0, 800.0] {
        let opt = optimum_for(&app, rps, 1234).expect("generous allocation must satisfy the SLO");

        // Same total, spread uniformly, judged by the evaluator OPTM
        // searched with: distribution matters.
        let uniform = Allocation::uniform(app.n_services(), opt.total / app.n_services() as f64);
        let u = des_evaluator(&app, 1234).evaluate(&uniform, rps);

        println!(
            "{:>6.0}  {:>12.2}  {:>9.1} ms  {:>15.1} ms{}",
            rps,
            opt.total,
            opt.p95_ms,
            u.p95_ms,
            if u.p95_ms > app.slo_ms {
                "  ← violates!"
            } else {
                ""
            }
        );
    }

    println!(
        "\nSame totals, different distributions: the uniform spread violates the \
         SLO that the searched distribution satisfies — the paper's Fig. 5/6 \
         motivation in one table."
    );
}
