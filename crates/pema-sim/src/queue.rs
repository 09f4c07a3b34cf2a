//! Index-based calendar (bucket) event queue for the simulator.
//!
//! The engine's event pattern is the classic discrete-event one: every
//! dispatched event schedules a small number of near-future events
//! (timers one work-completion away, arrivals one inter-arrival gap
//! away, RPC hops a fraction of a millisecond away), and virtual time
//! only moves forward. A binary heap pays `O(log n)` pointer-chasing
//! per operation for that pattern; a calendar queue pays amortized
//! `O(1)`: events hash by time into a ring of buckets ("days"), the
//! cursor walks the ring, and within a bucket only a handful of events
//! compete.
//!
//! Layout: bucket width is `2^SHIFT` ns (131 µs — comfortably below
//! the CFS period and typical work completions, above the per-event
//! spacing of heavy windows), and an event at time `t` lives in slot
//! `(t >> SHIFT) & mask` while its *virtual bucket* `t >> SHIFT` falls
//! inside the ring's current window. Events beyond the window (e.g.
//! idle-period arrivals seconds away, or the engine's saturating
//! "never" timers) overflow into a small binary heap and migrate into
//! the ring as the cursor approaches them.
//!
//! Ordering is total and identical to the `BinaryHeap<(t, seq)>` the
//! engine used before: ties in `t` break by push order (`seq`), so
//! replacing the heap with this queue is behavior-preserving — the
//! golden-snapshot tests in `pema-bench` pin that byte-for-byte.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds (2^17 ns = 131.072 µs).
const SHIFT: u32 = 17;
/// Initial ring size (power of two). 1024 buckets cover a 134 ms
/// window — wider than the CFS period, so steady-state simulations
/// rarely touch the overflow heap.
const INIT_BUCKETS: usize = 1024;
/// Ring growth cap; beyond this, buckets just get denser.
const MAX_BUCKETS: usize = 1 << 16;
/// Average events per bucket that trigger a ring resize.
const GROW_AT_LOAD: usize = 8;

/// Overflow-heap entry ordered by `(t, seq)` (payload ignored).
struct FarEntry<T> {
    t: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

/// A monotone priority queue over `(SimTime, seq, payload)` ordered by
/// `(t, seq)`, tuned for discrete-event simulation (pushes are never
/// earlier than the last pop).
///
/// The caller supplies the tie-breaking `seq` explicitly: the engine
/// owns one sequence counter shared between this queue and its
/// index-based timer/arrival slots, so events from all three sources
/// interleave in exact global push order.
pub struct CalendarQueue<T> {
    /// Ring of buckets; entry = `(t_ns, seq, payload)`.
    slots: Vec<Vec<(u64, u64, T)>>,
    /// `slots.len() - 1` (ring size is a power of two).
    mask: u64,
    /// Scan cursor: the virtual bucket (`t >> SHIFT`) being drained.
    /// Lower bound for every event in the ring.
    cur_vb: u64,
    /// Events currently in the ring.
    wheel_len: usize,
    /// Events beyond the ring window, ordered by `(t, seq)`.
    far: BinaryHeap<Reverse<FarEntry<T>>>,
    /// Position of the entry [`Self::peek_min`] found, consumed by
    /// [`Self::pop_cached`]; invalidated by any push.
    cached: Option<(usize, usize)>,
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            slots: std::iter::repeat_with(Vec::new)
                .take(INIT_BUCKETS)
                .collect(),
            mask: (INIT_BUCKETS - 1) as u64,
            cur_vb: 0,
            wheel_len: 0,
            far: BinaryHeap::new(),
            cached: None,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues an event at time `t` with tie-breaker `seq` (must be
    /// unique and increasing across pushes). Events at equal times pop
    /// in `seq` order.
    #[inline]
    pub fn push(&mut self, t: SimTime, seq: u64, payload: T) {
        self.cached = None;
        let t = t.0;
        let vb = t >> SHIFT;
        if vb < self.cur_vb {
            // Defensive: a push earlier than the cursor (the engine
            // never does this) just pulls the cursor back; the scan
            // re-walks a few empty slots.
            self.cur_vb = vb;
        }
        if vb - self.cur_vb < self.slots.len() as u64 {
            self.slots[(vb & self.mask) as usize].push((t, seq, payload));
            self.wheel_len += 1;
            if self.wheel_len > self.slots.len() * GROW_AT_LOAD && self.slots.len() < MAX_BUCKETS {
                self.grow();
            }
        } else {
            self.far.push(Reverse(FarEntry { t, seq, payload }));
        }
    }

    /// Locates the earliest event with `t <= t_end` (ties by `seq`)
    /// and returns its `(t, seq)` key without removing it; call
    /// [`Self::pop_cached`] to take it. Returns `None` when every
    /// queued event is later. The cursor parks where the scan stopped,
    /// so repeated calls never re-walk empty buckets, and the found
    /// position is cached — a `peek_min` with no intervening push is
    /// O(1).
    #[inline]
    pub fn peek_min(&mut self, t_end: SimTime) -> Option<(SimTime, u64)> {
        if let Some((slot, idx)) = self.cached {
            let e = &self.slots[slot][idx];
            return if e.0 <= t_end.0 {
                Some((SimTime(e.0), e.1))
            } else {
                None
            };
        }
        'outer: loop {
            if self.wheel_len == 0 {
                // Ring empty: jump the cursor straight to the earliest
                // overflow event instead of walking empty slots.
                let Reverse(top) = self.far.peek()?;
                if top.t > t_end.0 {
                    return None;
                }
                self.cur_vb = top.t >> SHIFT;
                self.drain_far();
                debug_assert!(self.wheel_len > 0);
            }
            let nb = self.slots.len() as u64;
            let end_vb = t_end.0 >> SHIFT;
            let mut scanned: u64 = 0;
            loop {
                let vb = self.cur_vb;
                if vb > end_vb {
                    // Every remaining event is after t_end.
                    return None;
                }
                self.drain_far();
                let slot_idx = (vb & self.mask) as usize;
                let slot = &self.slots[slot_idx];
                if !slot.is_empty() {
                    // Min (t, seq) among entries of this virtual
                    // bucket; the slot may also hold a later lap.
                    let mut best = usize::MAX;
                    let mut best_key = (u64::MAX, u64::MAX);
                    for (i, e) in slot.iter().enumerate() {
                        if e.0 >> SHIFT == vb && (e.0, e.1) < best_key {
                            best_key = (e.0, e.1);
                            best = i;
                        }
                    }
                    if best != usize::MAX {
                        if best_key.0 > t_end.0 {
                            return None;
                        }
                        self.cached = Some((slot_idx, best));
                        return Some((SimTime(best_key.0), best_key.1));
                    }
                }
                self.cur_vb += 1;
                scanned += 1;
                if scanned >= nb {
                    // Safety net (reachable only via past-cursor
                    // pushes): re-derive the cursor from the ring.
                    self.rebuild_cursor();
                    continue 'outer;
                }
            }
        }
    }

    /// Removes and returns the event the last [`Self::peek_min`]
    /// found.
    ///
    /// # Panics
    /// Panics if no peeked position is cached (no `peek_min` since the
    /// last push or pop).
    #[inline]
    pub fn pop_cached(&mut self) -> (SimTime, T) {
        let (slot, idx) = self.cached.take().expect("pop_cached without peek_min");
        let (t, _, payload) = self.slots[slot].swap_remove(idx);
        self.wheel_len -= 1;
        (SimTime(t), payload)
    }

    /// Moves overflow events whose virtual bucket entered the ring
    /// window onto the ring. The overflow heap is empty in steady
    /// state (only far-future events land there), so the common path
    /// is a single length check.
    #[inline]
    fn drain_far(&mut self) {
        if self.far.is_empty() {
            return;
        }
        self.drain_far_cold();
    }

    #[cold]
    fn drain_far_cold(&mut self) {
        let nb = self.slots.len() as u64;
        while let Some(Reverse(top)) = self.far.peek() {
            if (top.t >> SHIFT) - self.cur_vb >= nb {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked entry");
            self.slots[((e.t >> SHIFT) & self.mask) as usize].push((e.t, e.seq, e.payload));
            self.wheel_len += 1;
        }
    }

    /// Doubles the ring, redistributing resident events.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            std::iter::repeat_with(Vec::new).take(new_len).collect(),
        );
        self.mask = (new_len - 1) as u64;
        for mut slot in old {
            for e in slot.drain(..) {
                self.slots[((e.0 >> SHIFT) & self.mask) as usize].push(e);
            }
        }
        // A wider window may cover overflow events now.
        self.drain_far();
    }

    /// Re-derives the cursor as the minimum virtual bucket in the ring.
    fn rebuild_cursor(&mut self) {
        let mut min_vb = u64::MAX;
        for slot in &self.slots {
            for e in slot {
                min_vb = min_vb.min(e.0 >> SHIFT);
            }
        }
        if min_vb != u64::MAX {
            self.cur_vb = min_vb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    impl<T: Copy> CalendarQueue<T> {
        /// Removes and returns the earliest event with `t <= t_end`
        /// (ties by `seq`), or `None` when every queued event is later:
        /// the engine's `peek_min` then `pop_cached`.
        fn pop_before(&mut self, t_end: SimTime) -> Option<(SimTime, T)> {
            self.peek_min(t_end)?;
            Some(self.pop_cached())
        }
    }

    #[test]
    fn empty_queue_pops_nothing() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
    }

    #[test]
    fn orders_by_time_then_push_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(50), 1, 'b');
        q.push(SimTime(10), 2, 'a');
        q.push(SimTime(50), 3, 'c');
        assert_eq!(q.pop_before(SimTime(u64::MAX)), Some((SimTime(10), 'a')));
        assert_eq!(q.pop_before(SimTime(u64::MAX)), Some((SimTime(50), 'b')));
        assert_eq!(q.pop_before(SimTime(u64::MAX)), Some((SimTime(50), 'c')));
        assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
    }

    #[test]
    fn pop_before_respects_bound_inclusively() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(100), 1, 1);
        q.push(SimTime(200), 2, 2);
        assert_eq!(q.pop_before(SimTime(99)), None);
        assert_eq!(q.pop_before(SimTime(100)), Some((SimTime(100), 1)));
        assert_eq!(q.pop_before(SimTime(100)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime(200)), Some((SimTime(200), 2)));
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        // Ten seconds ahead — far beyond the ring window.
        q.push(SimTime(10_000_000_000), 1, 9);
        q.push(SimTime(5), 2, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_before(SimTime(u64::MAX)), Some((SimTime(5), 1)));
        assert_eq!(q.pop_before(SimTime(1_000_000)), None);
        assert_eq!(
            q.pop_before(SimTime(u64::MAX)),
            Some((SimTime(10_000_000_000), 9))
        );
    }

    #[test]
    fn saturated_never_timer_is_representable() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(u64::MAX), 1, 0);
        q.push(SimTime(1), 2, 1);
        assert_eq!(q.pop_before(SimTime(2)), Some((SimTime(1), 1)));
        assert_eq!(q.pop_before(SimTime(1_000_000_000)), None);
        assert_eq!(
            q.pop_before(SimTime(u64::MAX)),
            Some((SimTime(u64::MAX), 0))
        );
    }

    /// Model test: random monotone workload against a reference
    /// binary heap, including bursts dense enough to force ring
    /// growth and gaps long enough to exercise the overflow heap.
    #[test]
    fn matches_binary_heap_model() {
        let mut rng = SmallRng::seed_from_u64(0xCA1E);
        let mut q = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut next_id = 0u32;
        for round in 0..2000 {
            // Push a burst of events at `now + jitter`.
            let burst = if round % 7 == 0 {
                40
            } else {
                rng.gen_range(0..6)
            };
            for _ in 0..burst {
                let dt = match rng.gen_range(0..10) {
                    0 => 0,                                // same instant
                    1..=6 => rng.gen_range(0..300_000),    // sub-bucket..few buckets
                    7 | 8 => rng.gen_range(0..50_000_000), // tens of ms
                    _ => rng.gen_range(0..30_000_000_000), // tens of seconds (overflow)
                };
                let t = now + dt;
                seq += 1;
                q.push(SimTime(t), seq, next_id);
                model.push(Reverse((t, seq, next_id)));
                next_id += 1;
            }
            // Pop everything up to a random horizon.
            let horizon = now + rng.gen_range(0..2_000_000);
            loop {
                let got = q.pop_before(SimTime(horizon));
                let want = match model.peek() {
                    Some(Reverse((t, _, _))) if *t <= horizon => {
                        let Reverse((t, _, id)) = model.pop().unwrap();
                        Some((SimTime(t), id))
                    }
                    _ => None,
                };
                assert_eq!(got, want, "round {round}");
                match got {
                    Some((t, _)) => now = now.max(t.0),
                    None => break,
                }
            }
            now = horizon;
            assert_eq!(q.len(), model.len(), "round {round}");
        }
        // Drain fully.
        while let Some(got) = q.pop_before(SimTime(u64::MAX)) {
            let Reverse((t, _, id)) = model.pop().unwrap();
            assert_eq!(got, (SimTime(t), id));
        }
        assert!(model.is_empty());
    }

    #[test]
    fn growth_preserves_order() {
        let mut q = CalendarQueue::new();
        // 10k events inside one window → multiple grows.
        let n = 10_000u64;
        for i in 0..n {
            q.push(SimTime((i * 7919) % 100_000_000), i + 1, i);
        }
        let mut last: Option<(u64, u64)> = None;
        let mut count = 0;
        while let Some((t, i)) = q.pop_before(SimTime(u64::MAX)) {
            if let Some((lt, li)) = last {
                assert!(t.0 >= lt, "time went backwards");
                if t.0 == lt {
                    // FIFO among equal times: ids pushed in order.
                    assert!(i > li, "tie order violated at t={}", t.0);
                }
            }
            last = Some((t.0, i));
            count += 1;
        }
        assert_eq!(count, n);
    }
}
