//! Knee probe — the fluid tail model's calibration fixture.
//!
//! Sweeps uniformly scaled allocations of the three paper apps at
//! their Fig. 6 workloads, measuring one seeded DES window per point,
//! and records the p95-vs-allocation *knee* next to the fluid model's
//! bottleneck utilization ρ and mean latency at the same point. The
//! CSV doubles as the calibration fixture for
//! [`TailModel::calibrated`]: the committed copies under
//! `tests/fixtures/` (smoke and full sweeps) are what the tail-model
//! drift test asserts against.
//!
//! The scenario also re-fits the
//! `factor(ρ) = base + slope·ρ + gain·ρ^sharp` curves on its own probe
//! data (coarse-to-fine grid search minimizing log-RMS error) and
//! prints them beside the pinned coefficients, so a full run always
//! shows how far the pinned model has drifted from a fresh fit —
//! regeneration instructions live in `docs/fluid-tail.md`.

use crate::ExperimentCtx;
use pema::prelude::*;
use pema_sim::LEGACY_P95_FACTOR;
use std::io;

/// Allocation scales swept per app (multiples of the generous
/// allocation), spanning light load down to just above saturation.
const FULL_SCALES: [f64; 12] = [
    1.2, 1.0, 0.85, 0.72, 0.62, 0.54, 0.48, 0.43, 0.39, 0.36, 0.33, 0.31,
];

/// The smoke sweep keeps the knee's anchor points per app so the drift
/// test still sees both the flat region and the rise. Public: the
/// tail-model drift test replays exactly this sweep.
pub const SMOKE_SCALES: [f64; 5] = [1.0, 0.72, 0.54, 0.43, 0.36];

/// CSV header shared by the scenario output, the committed calibration
/// fixture, and the drift test's golden.
pub const CSV_HEADER: &str = "app,scale,rps,rho,des_p95_ms,des_p99_ms,des_max_ms,des_mean_ms,\
                              fluid_mean_ms,fluid_p95_ms,baseline_p95_ms";

/// `(app, Fig. 6 rps)` — the same operating points `ablation_fluid`
/// compares shape on.
fn probe_apps() -> Vec<(AppSpec, f64)> {
    vec![
        (pema_apps::sockshop(), 700.0),
        (pema_apps::hotelreservation(), 500.0),
        (pema_apps::trainticket(), 225.0),
    ]
}

/// One probe point: fluid-side ρ and mean beside the DES quantiles.
pub struct KneePoint {
    /// Fluid bottleneck utilization at the point's allocation.
    pub rho: f64,
    /// Fluid mean end-to-end latency, ms.
    pub fluid_mean_ms: f64,
    /// DES p95 / p99 / max, ms.
    pub des_p95_ms: f64,
    /// DES p99, ms.
    pub des_p99_ms: f64,
    /// DES max, ms.
    pub des_max_ms: f64,
}

impl KneePoint {
    /// Whether the point participates in fitting: both models finite
    /// and the fluid side below saturation.
    fn fittable(&self) -> bool {
        self.rho < 0.995
            && self.fluid_mean_ms.is_finite()
            && self.fluid_mean_ms > 0.0
            && self.des_p95_ms.is_finite()
            && self.des_p95_ms > 0.0
    }
}

/// Log-RMS error of `model(ρ)·fluid_mean` against the DES quantile
/// picked by `des` over the fittable points. This is the "RMS p95
/// error" the calibration is judged by (log-space, so the flat region
/// and the knee weigh equally instead of the near-saturation points
/// dominating).
pub fn curve_rms(points: &[KneePoint], curve: &TailCurve, des: impl Fn(&KneePoint) -> f64) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for p in points.iter().filter(|p| p.fittable()) {
        let predicted = p.fluid_mean_ms * curve.factor(p.rho);
        let e = (predicted / des(p)).ln();
        sum += e * e;
        n += 1;
    }
    (sum / n.max(1) as f64).sqrt()
}

/// Coarse-to-fine grid search for the best
/// `base + slope·ρ + gain·ρ^sharp` fit of `des(point) / fluid_mean`
/// over the fittable points. The `ρ^sharp` terms are hoisted out of
/// the (base, slope, gain) grid, so the inner loops are pure
/// multiply-adds and the whole fit stays fast even in debug builds.
pub fn fit_curve(points: &[KneePoint], des: impl Fn(&KneePoint) -> f64 + Copy) -> TailCurve {
    // Per-point (ρ, target factor) pairs.
    let data: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.fittable())
        .map(|p| (p.rho.clamp(0.0, 1.0), des(p) / p.fluid_mean_ms))
        .collect();
    if data.is_empty() {
        return TailCurve::flat(LEGACY_P95_FACTOR);
    }
    let search = |sharps: &[f64], bases: &[f64], slopes: &[f64], gains: &[f64]| -> TailCurve {
        let mut best = TailCurve::flat(LEGACY_P95_FACTOR);
        let mut best_rms = f64::INFINITY;
        for &sharp in sharps {
            let powed: Vec<(f64, f64, f64)> =
                data.iter().map(|&(r, t)| (r, r.powf(sharp), t)).collect();
            for &base in bases {
                for &slope in slopes {
                    for &gain in gains {
                        let mut sum = 0.0;
                        for &(r, rp, t) in &powed {
                            let f = (base + slope * r + gain * rp).max(0.05);
                            let e = (f / t).ln();
                            sum += e * e;
                        }
                        let rms = (sum / powed.len() as f64).sqrt();
                        if rms < best_rms {
                            best_rms = rms;
                            best = TailCurve::new(base, slope, gain, sharp);
                        }
                    }
                }
            }
        }
        best
    };
    let steps = |lo: f64, hi: f64, step: f64| -> Vec<f64> {
        let n = ((hi - lo) / step).round() as usize;
        (0..=n).map(|i| lo + i as f64 * step).collect()
    };
    let coarse = search(
        &steps(1.0, 14.0, 1.0),
        &steps(0.5, 4.5, 0.1),
        &steps(-4.0, 0.5, 0.25),
        &steps(0.0, 8.0, 0.25),
    );
    search(
        &steps((coarse.sharp - 0.5).max(0.5), coarse.sharp + 0.5, 0.1),
        &steps((coarse.base - 0.1).max(0.1), coarse.base + 0.1, 0.02),
        &steps(coarse.slope - 0.25, coarse.slope + 0.25, 0.05),
        &steps((coarse.gain - 0.25).max(0.0), coarse.gain + 0.25, 0.05),
    )
}

/// Compact human-readable rendering of a curve's coefficients.
fn curve_desc(c: &TailCurve) -> String {
    format!(
        "{:.2}{:+.2}ρ{:+.2}ρ^{:.1}",
        c.base, c.slope, c.gain, c.sharp
    )
}

/// Runs the DES/fluid sweep and returns `(csv rows, probe points)`.
/// Deterministic: fixed DES seed, and the window is part of the
/// signature so the drift test reproduces the smoke sweep exactly.
pub fn probe(scales: &[f64], warmup_s: f64, window_s: f64) -> (Vec<String>, Vec<KneePoint>) {
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (app, rps) in probe_apps() {
        let mut des = SimEvaluator::new(&app, 0x7A11).with_window(warmup_s, window_s);
        let mut fluid = FluidEvaluator::new(&app);
        for &s in scales {
            let alloc = Allocation::new(app.generous_alloc.iter().map(|x| x * s).collect());
            let d = des.evaluate(&alloc, rps);
            let f = fluid.evaluate(&alloc, rps);
            let rho = fluid.bottleneck_rho(&alloc, rps);
            let cap = |v: f64| v.min(1e6);
            rows.push(format!(
                "{},{s},{rps},{rho:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                app.name,
                cap(d.p95_ms),
                cap(d.p99_ms),
                cap(d.max_ms),
                cap(d.mean_ms),
                cap(f.mean_ms),
                cap(f.p95_ms),
                cap(f.mean_ms * LEGACY_P95_FACTOR),
            ));
            points.push(KneePoint {
                rho,
                fluid_mean_ms: f.mean_ms,
                des_p95_ms: d.p95_ms,
                des_p99_ms: d.p99_ms,
                des_max_ms: d.max_ms,
            });
        }
    }
    (rows, points)
}

/// Reads one DES latency quantile (p95, p99 or max) off a probe point.
type DesQuantile = fn(&KneePoint) -> f64;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let scales: &[f64] = if ctx.smoke() {
        &SMOKE_SCALES
    } else {
        &FULL_SCALES
    };
    let (warmup_s, window_s) = ctx.window(4.0, 20.0);
    let (rows, points) = probe(scales, warmup_s, window_s);

    // Re-fit on the fresh probe and show it beside the pinned model.
    // The grid search is meaningful on the full sweep only (and slow
    // enough to skip in smoke suite runs — the drift test in
    // `tests/tail_model_drift.rs` covers the smoke sweep).
    if ctx.smoke() {
        return ctx.write_csv("tail_knee", CSV_HEADER, &rows);
    }
    let pinned = TailModel::calibrated();
    let baseline = TailModel::constant(LEGACY_P95_FACTOR);
    let mut tbl = Vec::new();
    let quantiles: [(&str, DesQuantile, TailCurve, TailCurve); 3] = [
        ("p95", |p| p.des_p95_ms, pinned.p95, baseline.p95),
        ("p99", |p| p.des_p99_ms, pinned.p99, baseline.p99),
        ("max", |p| p.des_max_ms, pinned.max, baseline.max),
    ];
    for (name, des, pin, base) in quantiles {
        let fitted = fit_curve(&points, des);
        tbl.push(vec![
            name.into(),
            curve_desc(&fitted),
            curve_desc(&pin),
            format!("{:.3}", curve_rms(&points, &fitted, des)),
            format!("{:.3}", curve_rms(&points, &pin, des)),
            format!("{:.3}", curve_rms(&points, &base, des)),
        ]);
    }
    ctx.print_table(
        "Tail-model knee probe (log-RMS vs DES over the sweep)",
        &[
            "quantile",
            "fresh fit",
            "pinned",
            "fit RMS",
            "pinned RMS",
            "flat-2.6 RMS",
        ],
        &tbl,
    );
    ctx.write_csv("tail_knee", CSV_HEADER, &rows)
}
