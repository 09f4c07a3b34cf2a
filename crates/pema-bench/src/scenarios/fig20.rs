//! Fig. 20 — adaptability to dynamic SLO changes.
//!
//! The paper moves SockShop's SLO 250 → 200 → 300 ms. In the simulator
//! SockShop's latency knee is nearly vertical (p95 jumps from ~50 ms to
//! seconds within a ~5% allocation band), so a ±20% SLO change maps to
//! an allocation difference below run noise. TrainTicket's knee is
//! wide, so the same experiment runs there with proportionally larger
//! swings: 250 ms → 120 ms → 400 ms. The claim under test is the
//! paper's: PEMA re-navigates after an SLO change without retraining —
//! tighter SLO ⇒ more resources, looser ⇒ fewer. Participates in the
//! backend matrix via `ctx.closed_loop`.

use crate::ExperimentCtx;
use pema::prelude::*;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let mut params = PemaParams::defaults(250.0);
    params.seed = 0xF121;
    let policy = PemaController::new(params, app.generous_alloc.clone());
    let mut runner = ctx.closed_loop(&app, 0x20)?.policy(policy).build();

    // Phase boundaries: SLO change at s1 and s2 of n intervals.
    let (n, s1, s2) = if ctx.smoke() {
        (6, 2, 4)
    } else {
        (105, 55, 80)
    };
    let mut rows = Vec::new();
    for i in 0..n {
        if i == s1 {
            runner.policy.set_slo_ms(120.0);
            ctx.say(format!("-- iter {s1}: SLO 250 ms → 120 ms"));
        } else if i == s2 {
            runner.policy.set_slo_ms(400.0);
            ctx.say(format!("-- iter {s2}: SLO 120 ms → 400 ms"));
        }
        let slo = runner.policy.params().slo_ms;
        let log = runner.step_once(rps).clone();
        rows.push(format!(
            "{},{slo},{:.3},{:.2},{}",
            log.iter, log.total_cpu, log.p95_ms, log.action
        ));
        if i % 4 == 0 {
            ctx.say(format!(
                "it {:3}: SLO={slo:3.0} totalCPU={:6.2} p95={:6.1} ms {}",
                log.iter, log.total_cpu, log.p95_ms, log.action
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
        "settled CPU by phase: SLO250 {:.2} | SLO120 {:.2} | SLO400 {:.2}",
        phase(0, s1),
        phase(s1, s2),
        phase(s2, n)
    ));
    ctx.write_csv("fig20", "iter,slo_ms,total_cpu,p95_ms,action", &rows)
}
