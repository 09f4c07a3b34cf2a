//! Table 1 — bottleneck classification accuracy with CPU utilization
//! and CPU throttling time as features.
//!
//! Reproduces the paper's six rows (TrainTicket seat / seat+ticketinfo,
//! SockShop carts / carts+orders, HotelReservation front-end /
//! front-end+search) with 5-fold cross-validated logistic regression,
//! plus the per-feature study that justifies the util+throttle choice.

use crate::dataset::{generate_dataset, DatasetConfig};
use crate::eval::{cross_validate, feature_study};
use crate::features::Feature;
use crate::ExperimentCtx;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let rows_spec: Vec<(&str, f64, Vec<&str>)> = vec![
        ("trainticket", 225.0, vec!["seat"]),
        ("trainticket", 225.0, vec!["seat", "ticketinfo"]),
        ("sockshop", 550.0, vec!["carts"]),
        ("sockshop", 550.0, vec!["carts", "orders"]),
        ("hotelreservation", 500.0, vec!["front-end"]),
        ("hotelreservation", 500.0, vec!["front-end", "search"]),
    ];

    let mut tbl = Vec::new();
    let mut csv = Vec::new();
    let mut study_csv = Vec::new();
    for (app_name, rps, services) in rows_spec {
        let app = pema::pema_apps::by_name(app_name).unwrap();
        let (warmup_s, window_s) = ctx.window(3.0, 12.0);
        let cfg = DatasetConfig {
            rps,
            levels: if ctx.smoke() { 3 } else { 9 },
            repeats: if ctx.smoke() { 1 } else { 4 },
            window_s,
            warmup_s,
            ..Default::default()
        };
        let ds = generate_dataset(&app, &services, &cfg);
        let acc = cross_validate(&ds, &Feature::PAPER_PAIR, 5, 1).unwrap_or(f64::NAN);
        tbl.push(vec![
            app_name.to_string(),
            services.join(", "),
            format!("{}", ds.len()),
            format!("{:.1}", acc * 100.0),
        ]);
        csv.push(format!(
            "{app_name},\"{}\",{},{:.2}",
            services.join("+"),
            ds.len(),
            acc * 100.0
        ));
        // Feature study on the single-service dataset rows only (the
        // first row per app) to keep runtime bounded.
        if services.len() == 1 {
            for (fname, facc) in feature_study(&ds, 5, 1) {
                study_csv.push(format!("{app_name},{fname},{:.2}", facc * 100.0));
            }
        }
    }
    ctx.print_table(
        "Table 1: bottleneck classification accuracy (util + throttling)",
        &["app", "bottleneck services", "samples", "accuracy %"],
        &tbl,
    );
    ctx.write_csv(
        "table1",
        "app,bottleneck_services,samples,accuracy_pct",
        &csv,
    )?;
    ctx.write_csv(
        "table1_feature_study",
        "app,feature_set,accuracy_pct",
        &study_csv,
    )
}
