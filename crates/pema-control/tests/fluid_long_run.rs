//! A long fluid run, pinned bit for bit. The goldens and the CI fleets
//! run 5–60 intervals; a policy settles and then holds well after
//! that, so most windows of a long run re-evaluate the allocation of
//! the window before. This test runs the three paper apps under PEMA,
//! RULE and HOLD for 200 fluid intervals each, once at constant load
//! and once under a stepped load with early checks (the checks abort
//! violating windows, so a window is evaluated at two lengths), and
//! folds every field an observer sees — the interval log and every
//! bit of the window's stats — into one digest.

use pema_control::{policy_by_name, Experiment, HarnessConfig, IterationLog, UseFluid};
use pema_sim::{StepPattern, WindowStats};
use std::sync::{Arc, Mutex};

const ITERS: usize = 200;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn log(&mut self, l: &IterationLog) {
        self.word(l.iter as u64);
        for x in [l.time_s, l.rps, l.total_cpu, l.p95_ms, l.mean_ms] {
            self.f64(x);
        }
        self.word(l.violated as u64);
        self.word(l.action.len() as u64);
        for &b in l.action.as_bytes() {
            self.word(b as u64);
        }
        self.word(l.alloc.len() as u64);
        for &a in &l.alloc {
            self.f64(a);
        }
        self.word(l.pema_id as u64);
        self.f64(l.interval_s);
    }

    fn window(&mut self, w: &WindowStats) {
        for x in [w.start_s, w.duration_s, w.offered_rps, w.achieved_rps] {
            self.f64(x);
        }
        self.word(w.completed);
        self.word(w.arrivals);
        for x in [w.mean_ms, w.p50_ms, w.p95_ms, w.p99_ms, w.max_ms] {
            self.f64(x);
        }
        self.word(w.per_service.len() as u64);
        for s in &w.per_service {
            for x in [
                s.alloc_cores,
                s.util_pct,
                s.cpu_used_s,
                s.throttled_s,
                s.usage_p90_cores,
                s.usage_peak_cores,
                s.mem_bytes,
            ] {
                self.f64(x);
            }
            self.word(s.visits);
            self.f64(s.mean_self_ms);
            self.f64(s.mean_visit_ms);
        }
    }
}

/// Runs every app × policy × load cell and returns the digest of all
/// of them, with the number of intervals seen and of early aborts.
fn digest() -> (u64, usize, usize) {
    let hash = Arc::new(Mutex::new((Fnv(0xcbf2_9ce4_8422_2325), 0usize, 0usize)));
    for (app, nominal) in pema_apps::fleet_mix() {
        for policy in ["pema", "rule", "hold"] {
            for stepped in [false, true] {
                let seen = Arc::clone(&hash);
                let policy = policy_by_name(policy, app.slo_ms, &app.generous_alloc, 7)
                    .expect("a bundled policy");
                let run = Experiment::builder()
                    .app(&app)
                    .backend(UseFluid)
                    .policy(policy)
                    .config(HarnessConfig::with_seed(7))
                    .iters(ITERS)
                    .observer(move |log: &IterationLog, stats: &WindowStats| {
                        let mut seen = seen.lock().unwrap();
                        seen.0.log(log);
                        seen.0.window(stats);
                        seen.1 += 1;
                        seen.2 += log.action.starts_with("early-") as usize;
                    });
                let run = if stepped {
                    run.workload(StepPattern::new(vec![
                        (0.0, nominal),
                        (2_000.0, nominal * 1.3),
                        (4_500.0, nominal * 0.6),
                        (6_000.0, nominal * 1.1),
                    ]))
                    .early_check(5.0)
                } else {
                    run.rps(nominal)
                };
                assert_eq!(run.run().log.len(), ITERS);
            }
        }
    }
    let (fnv, intervals, aborts) = &*hash.lock().unwrap();
    (fnv.0, *intervals, *aborts)
}

#[test]
fn a_long_fluid_run_is_pinned_bit_for_bit() {
    let (digest, intervals, aborts) = digest();
    assert_eq!(intervals, 3 * 3 * 2 * ITERS);
    // The stepped runs must reach the early-abort path, or half of
    // this test pins nothing the constant runs do not.
    assert!(aborts > 0, "no window was aborted early");
    // Captured from the evaluator that re-solved every service of
    // every window; reusing work across windows must not move a bit.
    assert_eq!(
        digest, 0x2754_79cf_bd9d_9a9b,
        "digest {digest:#018x} ({aborts} early aborts)"
    );
}
