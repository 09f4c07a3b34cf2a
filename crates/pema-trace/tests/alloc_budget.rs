//! Heap allocations of the trace format's two directions, counted
//! rather than timed: the count is exact and repeats on any host, so it
//! guards the mechanism — records filled straight from the line with no
//! tree in between, keys pushed as literals into an output sized up
//! front — where a timer would need a quiet machine.
//!
//! The tape is the repo benchmark's `trace_replay` one: 2 000 fluid
//! intervals of TrainTicket (41 services) under PEMA, 12.8 KB a record.
//! The tree reader (a `String` per key and per number token, a `Vec`
//! per object, a deep clone of every service object) made **2 239**
//! allocations per decoded record, and the `format!`-per-key writer,
//! growing its output by doubling, **840** per encoded record.
//!
//! Its own test binary, with a single test: a `#[global_allocator]` is
//! per binary, and a second test running beside this one would be
//! counted with it.

use pema_control::{Experiment, HarnessConfig, UseFluid};
use pema_core::{PemaController, PemaParams};
use pema_trace::{ReadMode, Trace, TraceRecorder};
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
        .iters(RECORDS)
        .observer(recorder)
        .run();
    let tape = handle.take();
    assert_eq!((tape.n_services(), tape.records.len()), (41, RECORDS));

    let (text, encode) = counted(|| tape.to_jsonl());
    let (back, decode) = counted(|| Trace::parse_jsonl(&text, ReadMode::Strict));
    assert!(back.expect("the tape reads back strictly") == tape);
    let per_record = decode as f64 / RECORDS as f64;
    println!(
        "{} bytes: {encode} allocations to encode, {decode} to decode ({per_record:.3} per record)",
        text.len()
    );

    // Encoding allocates the output twice — room for the header and a
    // first record, then the whole tape sized from that record — and
    // nothing per key, per number or per record.
    assert!(encode <= 8, "to_jsonl allocated {encode} times");
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
}
