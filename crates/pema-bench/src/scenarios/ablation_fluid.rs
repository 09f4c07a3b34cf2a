//! Ablation — DES vs fluid (analytic) evaluator.
//!
//! The fluid model is orders of magnitude faster; this experiment
//! quantifies how faithfully it tracks the DES on the latency-vs-
//! allocation curve (shape agreement measured by Spearman rank
//! correlation over a uniform allocation sweep) and how far apart the
//! two models place the OPTM total.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let n = xs.len() as f64;
    let d2: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - b) * (a - b)).sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let mut tbl = Vec::new();
    let mut rows = Vec::new();
    let full_scales = [1.0, 0.8, 0.65, 0.55, 0.48, 0.42, 0.37, 0.33];
    let scales: &[f64] = if ctx.smoke() {
        &full_scales[..3]
    } else {
        &full_scales
    };
    let (warmup_s, window_s) = ctx.window(3.0, 15.0);
    for (app, rps) in [
        (pema_apps::sockshop(), 700.0),
        (pema_apps::hotelreservation(), 500.0),
        (pema_apps::trainticket(), 225.0),
    ] {
        let mut des = SimEvaluator::new(&app, 0xF1D).with_window(warmup_s, window_s);
        let mut fluid = FluidEvaluator::new(&app);
        let mut des_p95 = Vec::new();
        let mut fluid_p95 = Vec::new();
        let t_des = std::time::Instant::now();
        for &s in scales {
            let alloc = Allocation::new(app.generous_alloc.iter().map(|x| x * s).collect());
            des_p95.push(des.evaluate(&alloc, rps).p95_ms.min(1e6));
        }
        let t_des = t_des.elapsed();
        let t_fluid = std::time::Instant::now();
        for &s in scales {
            let alloc = Allocation::new(app.generous_alloc.iter().map(|x| x * s).collect());
            fluid_p95.push(fluid.evaluate(&alloc, rps).p95_ms.min(1e6));
        }
        let t_fluid = t_fluid.elapsed();
        let rho = spearman(&des_p95, &fluid_p95);
        let speedup = t_des.as_secs_f64() / t_fluid.as_secs_f64().max(1e-9);
        for (i, &s) in scales.iter().enumerate() {
            rows.push(format!(
                "{},{s},{:.2},{:.2}",
                app.name, des_p95[i], fluid_p95[i]
            ));
        }
        tbl.push(vec![
            app.name.clone(),
            format!("{rho:.3}"),
            format!("{speedup:.0}×"),
        ]);
    }
    ctx.print_table(
        "Ablation: fluid vs DES (p95 over uniform allocation sweep)",
        &["app", "Spearman ρ", "fluid speedup"],
        &tbl,
    );
    ctx.write_csv("ablation_fluid", "app,scale,des_p95_ms,fluid_p95_ms", &rows)
}
