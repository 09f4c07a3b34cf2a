//! Fig. 17 — sensitivity to β (maximum per-step reduction), at α = 0.5.
//!
//! Large β ⇒ big per-step cuts ⇒ overshoot, violations, and rollbacks
//! to inefficient allocations; small β ⇒ slow but safe descent.
//! Participates in the backend matrix via `ctx.closed_loop`.

use crate::ExperimentCtx;
use std::io;

pub(crate) fn run(ctx: &mut ExperimentCtx) -> io::Result<()> {
    let title = "Fig. 17: β sensitivity (α = 0.5)";
    super::fig16::sweep(ctx, "fig17", 0x17, "beta", title, |params, beta| {
        params.alpha = 0.5;
        params.beta = beta;
    })
}
