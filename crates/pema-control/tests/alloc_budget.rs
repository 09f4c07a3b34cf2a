//! Heap allocations per steady-state control interval of a fluid-backed
//! member, counted rather than timed: the count is exact and repeats on
//! any host, so it guards the allocation-lean interval (flat fluid
//! plan, ring-buffered RULE history, scratch reuse in the controller,
//! the backend and the loop) where a timer would need a quiet machine.
//! The same loops are then run observed, with a telemetry hub and an
//! event sink attached, which must not allocate anything more. Last,
//! building a fluid member again while one of an equal spec is alive
//! must share the compiled plan rather than compile a second one.
//!
//! Its own test binary, with a single test: a `#[global_allocator]` is
//! per binary, and a second test running beside this one would be
//! counted with it.

use pema_control::{
    ControlLoop, FluidBackend, HarnessConfig, HoldPolicy, LoopTelemetry, Policy, RulePolicy,
};
use pema_core::{PemaController, PemaParams};
use pema_telemetry::{EventSink, Telemetry};
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

const INTERVALS: usize = 200;
/// Intervals left out of the count: first-use growth of every scratch
/// buffer, and the rule's history filling up.
const SETTLE: usize = 40;

/// Allocations per interval over the last `INTERVALS - SETTLE` of a
/// 200-interval run, and how many of those intervals cut. The interval
/// log and PEMA's history double their capacity a few times in that
/// stretch; that is part of the steady state and is counted.
/// `observed` attaches a hub and an event sink over an in-memory log
/// with room for the whole run.
fn per_interval<P: Policy>(policy: P, rps: f64, observed: bool) -> (f64, usize) {
    let app = pema_apps::sockshop();
    let mut lp = ControlLoop::new(FluidBackend::new(&app), policy, HarnessConfig::with_seed(7));
    let log = observed.then(|| {
        let (sink, log) = EventSink::memory();
        log.lock().unwrap().reserve(256 * INTERVALS);
        lp.set_telemetry(LoopTelemetry::new(&Telemetry::new(), &app.name).with_events(sink));
        log
    });
    for _ in 0..SETTLE {
        lp.step_once(rps);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in SETTLE..INTERVALS {
        lp.step_once(rps);
    }
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(lp.log().len(), INTERVALS);
    if let Some(log) = log {
        let log = log.lock().unwrap();
        assert_eq!(log.iter().filter(|&&b| b == b'\n').count(), INTERVALS);
    }
    let cuts = lp.log()[SETTLE..]
        .iter()
        .filter(|l| l.action.starts_with("reduce("))
        .count();
    (counted as f64 / (INTERVALS - SETTLE) as f64, cuts)
}

#[test]
fn steady_state_interval_stays_within_its_allocation_budget() {
    let app = pema_apps::sockshop();
    let rps = 700.0;
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 11;
    let pema = || PemaController::new(params.clone(), app.generous_alloc.clone());
    let run = |observed: bool| {
        [
            per_interval(RulePolicy::new(&app), rps, observed),
            per_interval(
                HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms),
                rps,
                observed,
            ),
            per_interval(pema(), rps, observed),
            // Far below the knee PEMA cuts every interval.
            per_interval(pema(), 150.0, observed),
        ]
    };
    let counted = run(false);
    let [rule, hold, pema, cutting] = counted.map(|(allocs, _)| allocs);
    let cuts = counted[3].1;
    println!(
        "allocations per interval: RULE {rule:.3}, HOLD {hold:.3}, PEMA {pema:.3}, \
         cutting PEMA {cutting:.3} ({cuts} cuts)"
    );
    assert!(
        cuts * 10 >= (INTERVALS - SETTLE) * 9,
        "the cutting PEMA cut on only {cuts} intervals"
    );

    // What an interval still has to allocate:
    //   all   the window's `per_service`, `ClusterBackend::allocation()`
    //         (it returns an owned vector), the decision's vector (it
    //         ends up in the log) and its action label — 4;
    //   HOLD  `pre_interval`'s owned allocation — 5;
    //   PEMA  the RHDb record's vector — 5, whether it cuts or not;
    // plus the log and the RHDb doubling their capacity now and then.
    // The first three runs measured 7.01, 9.01 and 13.39 before the
    // flat plan and the scratch reuse; the cutting one 5.99 while a cut
    // returned its list of reduced services and the label was formatted
    // outside the loop.
    assert!(rule <= 4.1, "RULE allocates {rule:.3} times per interval");
    assert!(hold <= 5.1, "HOLD allocates {hold:.3} times per interval");
    assert!(pema <= 5.1, "PEMA allocates {pema:.3} times per interval");
    assert!(
        cutting <= 5.1,
        "a cutting PEMA allocates {cutting:.3} times per interval"
    );

    // Observing an interval allocates nothing: the counters and
    // histograms are atomics, the event's fields are borrowed and its
    // line is built in a buffer that grew during the settling
    // intervals. (Two clones and a fresh line made this +3.)
    let observed = run(true).map(|(allocs, _)| allocs);
    println!("with hub and event sink: {observed:.3?}");
    for (name, bare, seen) in [
        ("RULE", rule, observed[0]),
        ("HOLD", hold, observed[1]),
        ("PEMA", pema, observed[2]),
        ("cutting PEMA", cutting, observed[3]),
    ] {
        assert!(
            seen <= bare + 0.05,
            "{name} allocates {seen:.3} times per observed interval, {bare:.3} bare"
        );
    }

    // A second member of a spec already in use shares its plan. What a
    // build still allocates: `validate`'s visit marks, the two scratch
    // arrays and the starting allocation — 4. Compiling the plan
    // again made it 23, 28 and 24.
    for app in [
        pema_apps::sockshop(),
        pema_apps::trainticket(),
        pema_apps::hotelreservation(),
    ] {
        let _held = FluidBackend::new(&app);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let again = FluidBackend::new(&app);
        let built = ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(again);
        println!("a second {} member: {built} allocations", app.name);
        assert!(
            built <= 4,
            "a second {} member allocates {built} times",
            app.name
        );
    }
}
