//! Beyond-the-paper counterfactual evaluation — record a DES PEMA run,
//! then replay the recording under PEMA, RULE, and HOLD.
//!
//! This is the trace subsystem's end-to-end exercise, and the workflow
//! the paper's evaluation methodology implies but cannot give you on a
//! live cluster: compare policies against the *same* operating
//! history without re-running (or risking) anything. Three replays of
//! one recorded SockShop run:
//!
//! * **pema** — the identical policy (same params, same seed). This
//!   must reproduce the recorded decision sequence exactly and report
//!   zero divergence; the scenario *fails* otherwise, making every
//!   suite run a determinism check of the whole record→replay stack.
//! * **rule** — the k8s-style baseline acting on the recorded
//!   telemetry: the counterfactual "what would RULE have allocated
//!   through this exact history".
//! * **hold** — the recorded starting (generous) allocation held
//!   forever: the do-nothing baseline.
//!
//! The CSV has one row per (policy, interval) with recorded vs replay
//! allocation totals, the L1 allocation delta, the recorded /
//! would-have-violated flags, and the recorded vs estimated
//! counterfactual p95 (the recorded/fluid hybrid — see
//! `pema_trace::rebase_stats_with`; `inf` marks a window the
//! work-conservation check saturated). The recorded trace itself lands
//! next to the CSV as `trace_replay.jsonl` (CI uploads it as an
//! artifact).
//!
//! Always records from the DES: its registry row is
//! `backend_matrix: false`, so `--backend` never reaches it — the
//! recording *is* the scenario's subject, and DES goldens stay
//! authoritative.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let iters = ctx.iters(30);
    let cfg = ctx.harness_cfg(0x7ACE);
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0x7A5E;

    // Record.
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
    let handle = recorder.handle();
    let t0 = std::time::Instant::now();
    let policy = PemaController::new(params.clone(), app.generous_alloc.clone());
    ctx.closed_loop(&app, cfg.seed)?
        .policy(policy)
        .rps(rps)
        .iters(iters)
        .observer(recorder)
        .run();
    let trace = handle.take();
    ctx.say(format!(
        "recorded {} DES intervals of {} @ {rps} rps in {:.2?}",
        trace.records.len(),
        app.name,
        t0.elapsed()
    ));

    // Persist the tape next to the CSV (CI uploads it as an artifact).
    std::fs::create_dir_all(ctx.results_dir())?;
    let tape = ctx.results_dir().join("trace_replay.jsonl");
    trace.write_file(&tape)?;
    ctx.say(format!("→ wrote {}", tape.display()));

    // Replay under the three policies.
    let same = PemaController::new(params, trace.meta.initial_alloc.clone());
    let runs: [(&str, ReplayRun); 3] = [
        ("pema", replay(&trace, same)),
        ("rule", replay(&trace, RulePolicy::new(&app))),
        (
            "hold",
            replay(
                &trace,
                HoldPolicy::new(trace.meta.initial_alloc.clone(), trace.meta.slo_ms),
            ),
        ),
    ];

    let mut rows = Vec::new();
    let mut tbl = Vec::new();
    for (label, rerun) in &runs {
        for (d, l) in rerun.divergence.iter().zip(&rerun.result.log) {
            // `inf` (stable across platforms via the explicit literal)
            // marks a saturated counterfactual window.
            let ms = |v: f64| {
                if v.is_finite() {
                    format!("{v:.3}")
                } else {
                    "inf".into()
                }
            };
            rows.push(format!(
                "{label},{},{:.3},{:.3},{:.3},{},{},{},{},{}",
                d.iter,
                d.recorded_total,
                d.replay_total,
                d.l1_delta,
                d.recorded_violated as u8,
                d.would_violate as u8,
                ms(d.recorded_p95_ms),
                ms(d.estimated_p95_ms),
                l.action
            ));
        }
        let s = &rerun.summary;
        tbl.push(vec![
            label.to_string(),
            format!("{}", s.diverged_intervals),
            format!("{:.2}", s.mean_total_delta),
            format!("{:.2}", s.max_l1),
            format!("{}", s.recorded_violations),
            format!("{}", s.would_violations),
            format!("{:+.1}", s.mean_p95_delta_ms),
            format!("{}", s.saturated_intervals),
        ]);
    }

    // The determinism gate: the identical policy must track the tape
    // exactly. A red run here means the record→replay stack broke.
    let pema_summary = &runs[0].1.summary;
    if !pema_summary.is_zero() {
        return Err(io::Error::other(format!(
            "same-policy replay diverged: {pema_summary:?}"
        )));
    }

    ctx.print_table(
        "trace_replay: counterfactual policies over one recorded run",
        &[
            "policy",
            "divergedIts",
            "meanΔcpu",
            "maxL1",
            "recViol",
            "wouldViol",
            "meanΔp95ms",
            "satIts",
        ],
        &tbl,
    );
    ctx.write_csv(
        "trace_replay",
        "policy,iter,recorded_cpu,replay_cpu,l1_delta,recorded_violated,would_violate,\
         recorded_p95_ms,estimated_p95_ms,action",
        &rows,
    )
}
