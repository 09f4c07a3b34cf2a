//! Heap allocations of a warmed-up discrete-event simulation, counted
//! rather than timed: the count is exact and repeats on any host. Once
//! the visit arena, the visit-event heap and the scratch buffers have
//! reached their working size, advancing the simulator allocates
//! (next to) nothing, at generous allocation and well below it.
//!
//! Its own test binary, with a single test: a `#[global_allocator]` is
//! per binary, and a second test running beside this one would be
//! counted with it.

use pema_sim::{Allocation, AppSpec, ClusterSim, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Simulated seconds left out of the count: first-use growth of the
/// arena, the heap and every scratch buffer.
const WARMUP_S: f64 = 20.0;
/// Simulated seconds counted after the warm-up.
const COUNTED_S: f64 = 20.0;
/// Allocations allowed over the counted stretch of one case. The four
/// cases count 1, 8, 1 and 2 in that order; the calendar queue
/// this engine used before, whose bucket vectors kept reallocating,
/// counted 120–341.
const BUDGET: u64 = 16;

/// Allocations made by `run_until` over [`COUNTED_S`] after
/// [`WARMUP_S`] of warm-up, at `scale` × generous allocation, with the
/// 8×SLO request timeout the control loop's simulator backend sets.
fn allocations(app: &AppSpec, rps: f64, scale: f64) -> u64 {
    let mut sim = ClusterSim::new(app, 7);
    sim.set_request_timeout(Some(app.slo_ms / 1e3 * 8.0));
    let alloc = app.generous_alloc.iter().map(|c| c * scale).collect();
    sim.set_allocation(&Allocation::new(alloc));
    sim.set_arrival_rate(rps);
    sim.run_until(SimTime::from_secs(WARMUP_S));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(SimTime::from_secs(WARMUP_S + COUNTED_S));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_up_simulation_stays_within_its_allocation_budget() {
    let cases = [
        (pema_apps::trainticket(), 225.0),
        (pema_apps::hotelreservation(), 500.0),
    ];
    let mut counts = Vec::new();
    for (app, rps) in &cases {
        for scale in [1.0, 0.3] {
            let n = allocations(app, *rps, scale);
            println!(
                "{} @ {rps} rps, {scale}× generous: {n} allocations",
                app.name
            );
            counts.push((&app.name, rps, scale, n));
        }
    }
    for (name, rps, scale, n) in counts {
        assert!(
            n <= BUDGET,
            "{name} @ {rps} rps, {scale}× generous: {n} allocations over {COUNTED_S} s \
             of warmed-up simulation (budget {BUDGET})"
        );
    }
}
