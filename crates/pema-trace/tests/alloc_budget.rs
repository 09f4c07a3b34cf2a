//! Heap allocations of the trace format's two directions, counted
//! rather than timed: the count is exact (up to the few a thread's
//! waits add) and repeats on any host with as many CPUs, so it guards
//! the mechanism — records filled straight from the line with no tree
//! in between, keys pushed as literals into an output sized up front,
//! a fixed cost per encode thread — where a timer would need a quiet
//! machine.
//!
//! The tape is the repo benchmark's `trace_replay` one: 2 000 fluid
//! intervals of TrainTicket (41 services) under PEMA, 12.8 KB a record;
//! encoding is counted on twice that run too.
//! The tree reader (a `String` per key and per number token, a `Vec`
//! per object, a deep clone of every service object) made **2 239**
//! allocations per decoded record, and the `format!`-per-key writer,
//! growing its output by doubling, **840** per encoded record.
//!
//! A steady-state replay over the tape is counted too.
//!
//! Its own test binary, with a single test: a `#[global_allocator]` is
//! per binary, and a second test running beside this one would be
//! counted with it.

use pema_control::{ControlLoop, Experiment, HarnessConfig, RulePolicy, UseFluid};
use pema_core::{PemaController, PemaParams};
use pema_trace::{ReadMode, Trace, TraceBackend, TraceRecorder};
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

const RECORDS: usize = 2000;

/// Allocations each encode thread beyond the caller adds, at most: the
/// thread, its two bounded queues, the block buffers it cycles through,
/// the scope and the worker list (13 on a 2-core host), plus up to six
/// more that depend on which side first waits for the other (a waiting
/// thread's first wait context and its queue's wait list). Measured
/// 13–17 on a 2-core host, the same spread at 2 000 and 4 000 records.
const PER_ENCODE_THREAD: u64 = 19;

/// Replayed RULE intervals counted, after as many to warm up.
const REPLAYED: usize = 1000;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn encode_and_decode_stay_within_their_allocation_budgets() {
    let app = pema_apps::trainticket();
    let cfg = HarnessConfig::with_seed(7);
    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = 11;
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
    let handle = recorder.handle();
    Experiment::builder()
        .app(&app)
        .policy(PemaController::new(params, app.generous_alloc.clone()))
        .backend(UseFluid)
        .config(cfg)
        .rps(250.0)
        .iters(2 * RECORDS)
        .observer(recorder)
        .run();
    let long = handle.take();
    let mut tape = long.clone();
    tape.records.truncate(RECORDS);
    assert_eq!((tape.n_services(), tape.records.len()), (41, RECORDS));

    // Both tapes are tens of MB, so they are coded on every CPU there
    // is, up to one per MB; finding out how many costs allocations of
    // its own.
    let (threads, probe) = counted(|| pema_control::resolve_threads(0));
    let workers = threads.min(24) as u64 - 1;
    let (text, encode) = counted(|| tape.to_jsonl());
    let (long_text, long_encode) = counted(|| long.to_jsonl());
    drop(long_text);
    let (back, decode) = counted(|| Trace::parse_jsonl(&text, ReadMode::Strict));
    assert!(back.expect("the tape reads back strictly") == tape);
    let per_record = decode as f64 / RECORDS as f64;
    println!(
        "{} bytes on {threads} threads: {encode} allocations to encode ({long_encode} at \
         {} records, {probe} to count the CPUs), {decode} to decode ({per_record:.3} per record)",
        text.len(),
        2 * RECORDS,
    );

    // Encoding allocates the output twice — room for the header and a
    // first record, then the whole tape sized from that record — and
    // nothing per key, per number or per record: a fixed number per
    // extra thread, the same for a tape twice as long.
    let ceiling = 2 + probe + PER_ENCODE_THREAD * workers;
    for (records, n) in [(RECORDS, encode), (2 * RECORDS, long_encode)] {
        assert!(
            n <= ceiling,
            "to_jsonl allocated {n} times for {records} records (ceiling {ceiling})"
        );
    }
    assert!(
        text.capacity() < text.len() + text.len() / 2,
        "a {} byte tape sits in a {} byte buffer",
        text.len(),
        text.capacity()
    );

    // A decoded record owns three things: its `action`, its `alloc` and
    // its `per_service`, the two vectors reserved from the header's
    // service count. On top of that the header's strings and the
    // record vector's doublings come to a few dozen for the file.
    assert!(
        per_record <= 4.0,
        "parse_jsonl allocated {per_record:.3} times per record"
    );

    // A steady-state RULE replay: the window re-based onto the
    // allocation in force, the decision and the interval's log entry.
    let mut replay = ControlLoop::new(
        TraceBackend::cycling(tape),
        RulePolicy::new(&app),
        HarnessConfig::with_seed(7),
    );
    for _ in 0..REPLAYED {
        replay.step_once(250.0);
    }
    let ((), replayed) = counted(|| {
        for _ in 0..REPLAYED {
            replay.step_once(250.0);
        }
    });
    let per_interval = replayed as f64 / REPLAYED as f64;
    println!(
        "{replayed} allocations in {REPLAYED} replayed intervals ({per_interval:.3} per interval)"
    );
    // Five a window (`TraceBackend::apply` clones the allocation; its
    // comment says why), plus one doubling each of the log and the
    // divergence list in the counted stretch.
    assert!(
        replayed <= 5 * REPLAYED as u64 + 2,
        "a RULE replay allocated {per_interval:.3} times per interval"
    );
}
