//! Fig. 19 — adaptability to CPU-speed changes (SockShop @ 700 rps).
//!
//! The paper changes the servers' clock from 1.8 GHz to 1.6 GHz and
//! then 2.0 GHz mid-run; PEMA re-navigates to the new efficient
//! allocation each time (rollback absorbs the slowdown, reduction
//! exploits the speedup). Speed factors here: 1.0 → 0.89 → 1.11
//! (= 1.6/1.8 and 2.0/1.8).
//!
//! Participates in the backend matrix via `ctx.closed_loop`; the
//! mid-run clock changes go through the trait-level
//! `ClusterBackend::set_speed`, which the DES and fluid backends model
//! and a trace replay ignores (a tape cannot re-run the past on
//! different silicon).

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 0xF119;
    let policy = PemaController::new(params, app.generous_alloc.clone());
    let mut runner = ctx.closed_loop(&app, 0x19)?.policy(policy).build();

    // Phase boundaries: clock change at s1 and s2 of n intervals.
    let (n, s1, s2) = if ctx.smoke() { (6, 2, 4) } else { (76, 32, 54) };
    let mut rows = Vec::new();
    for i in 0..n {
        if i == s1 {
            runner.backend.set_speed(1.6 / 1.8);
            ctx.say(format!(
                "-- iter {s1}: clock 1.8 GHz → 1.6 GHz (speed ×{:.2})",
                1.6 / 1.8
            ));
        } else if i == s2 {
            runner.backend.set_speed(2.0 / 1.8);
            ctx.say(format!(
                "-- iter {s2}: clock 1.6 GHz → 2.0 GHz (speed ×{:.2})",
                2.0 / 1.8
            ));
        }
        let log = runner.step_once(rps).clone();
        let ghz = if i < s1 {
            1.8
        } else if i < s2 {
            1.6
        } else {
            2.0
        };
        rows.push(format!(
            "{},{ghz},{:.3},{:.2},{}",
            log.iter, log.total_cpu, log.p95_ms, log.action
        ));
        if i % 4 == 0 {
            ctx.say(format!(
                "it {:3}: {:3.1} GHz totalCPU={:6.2} p95={:6.1} ms {}",
                log.iter, ghz, log.total_cpu, log.p95_ms, log.action
            ));
        }
    }
    let result = runner.into_result();
    let phase = |lo: usize, hi: usize| {
        let slice = &result.log[lo..hi];
        let k = slice.len().min(5);
        slice.iter().rev().take(k).map(|l| l.total_cpu).sum::<f64>() / k as f64
    };
    ctx.say(format!(
        "settled CPU by phase: 1.8 GHz {:.2} | 1.6 GHz {:.2} | 2.0 GHz {:.2}",
        phase(0, s1),
        phase(s1, s2),
        phase(s2, n)
    ));
    ctx.write_csv("fig19", "iter,clock_ghz,total_cpu,p95_ms,action", &rows)
}
