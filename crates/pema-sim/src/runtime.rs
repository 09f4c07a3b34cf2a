//! Runtime state of services and in-flight requests.
//!
//! The dynamics between any two events are piecewise linear: every
//! non-stalled running job on a node progresses at the node's processor-
//! sharing rate, and each service's CFS quota drains at (rate × running
//! jobs). [`ServiceRt::advance`] integrates this exactly from the last
//! update to "now"; `ServiceRt::next_deadline` computes the earliest
//! future state change (job completion, quota exhaustion, or CFS period
//! boundary). The engine owns scheduling.

use crate::time::SimTime;

/// Linux CFS bandwidth-control period (100 ms), the granularity at which
/// container CPU quotas are enforced and replenished.
pub const CFS_PERIOD_S: f64 = 0.1;

/// [`CFS_PERIOD_S`] in integer nanoseconds — the form the engine's
/// period-rolling arithmetic uses (precomputed once; `(CFS_PERIOD_S *
/// 1e9) as u64` is exactly this value).
pub const CFS_PERIOD_NS: u64 = 100_000_000;

/// Work-remaining epsilon (CPU-seconds) below which an execution phase
/// is considered complete. Covers nanosecond event rounding.
pub const WORK_EPS: f64 = 5e-9;

/// Quota epsilon (CPU-seconds).
pub const QUOTA_EPS: f64 = 5e-9;

/// Execution stage of a visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Executing CPU work that precedes downstream calls.
    ExecPre,
    /// Waiting for the replies of child-call group `g`.
    Children(u16),
    /// Executing CPU work after all downstream calls returned.
    ExecPost,
}

/// Sentinel parent index for root visits.
pub const NO_PARENT: u32 = u32::MAX;

/// One service visit (an RPC executing at one service on behalf of a
/// request). Visits form a tree rooted at the application entry.
#[derive(Debug, Clone)]
pub struct Visit {
    /// Owning service index.
    pub service: u32,
    /// Endpoint (call-tree node) index.
    pub endpoint: u32,
    /// Parent visit arena index, or [`NO_PARENT`].
    pub parent: u32,
    /// Parent slot generation (stale-reference guard).
    pub parent_gen: u32,
    /// Current stage.
    pub stage: Stage,
    /// CPU-seconds remaining in the current execution stage.
    pub remaining: f64,
    /// CPU-seconds reserved for the post-children stage.
    pub post_work: f64,
    /// Outstanding child calls in the current group.
    pub pending: u16,
    /// True for the root visit of a user request.
    pub is_root: bool,
    /// Arrival time of this visit at its service.
    pub start: SimTime,
    /// Arrival time of the root request (latency reference).
    pub root_start: SimTime,
    /// Accumulated CPU self-time, seconds (Jaeger `self_time`).
    pub exec_self: f64,
    /// Trace builder index when this request is sampled for tracing,
    /// or `u32::MAX`.
    pub trace: u32,
    /// Span index within the trace builder.
    pub span: u32,
}

/// Arena slot with generation counter for safe reuse.
#[derive(Debug, Clone)]
pub struct VisitSlot {
    /// Bumped on each reuse; events referencing an old generation are
    /// stale and ignored.
    pub gen: u32,
    /// True while the slot holds a live visit.
    pub live: bool,
    /// The visit payload.
    pub v: Visit,
}

/// One visit currently executing CPU work, stored *inline* in its
/// service's running list.
///
/// `remaining` and `exec_self` live here (not in the arena slot) while
/// the visit executes: the per-event integration in
/// [`ServiceRt::advance`] and the min-scan in
/// `ServiceRt::next_deadline` then walk a small contiguous array
/// instead of chasing scattered arena slots — the single largest cache
/// win in the engine's hot path. The authoritative values are written
/// back to the [`Visit`] when the job leaves the running list.
#[derive(Debug, Clone, Copy)]
pub struct RunningJob {
    /// Arena index of the visit.
    pub vi: usize,
    /// CPU-seconds remaining in the current execution stage.
    pub remaining: f64,
    /// Accumulated CPU self-time, seconds.
    pub exec_self: f64,
}

/// Mutable runtime state of one service.
#[derive(Debug, Clone)]
pub struct ServiceRt {
    /// Node hosting this service.
    pub node: usize,
    /// Thread-pool size (`None` = unbounded).
    pub threads: Option<u32>,
    /// Allocated cores.
    pub alloc: f64,
    /// CFS quota per period = alloc × period, CPU-seconds.
    pub quota: f64,
    /// Quota remaining in the current period.
    pub quota_left: f64,
    /// End of the current CFS period.
    pub period_end: SimTime,
    /// True while throttled (quota exhausted, waiting for period end).
    pub stalled: bool,
    /// Visits currently executing CPU work, with their integration
    /// state inline (see [`RunningJob`]).
    pub running: Vec<RunningJob>,
    /// This service's last-reported contribution to its node's
    /// active-job count — the engine's incremental PS-rate
    /// bookkeeping (avoids re-summing the node on every event).
    pub active_contrib: usize,
    /// Visits waiting for a worker thread.
    pub thread_queue: std::collections::VecDeque<usize>,
    /// Worker threads currently held by visits.
    pub threads_busy: u32,
    /// Last time `advance` integrated to.
    pub last_update: SimTime,
    /// Cached node processor-sharing rate (cores per running job).
    pub rate: f64,
    /// Minimum `remaining` over the running list — maintained by
    /// [`Self::advance`] (full recompute during the decrement pass)
    /// and [`Self::push_job`] (monotone update); invalidated by
    /// [`Self::remove_job`]. Valid ⇒ exactly the value a fresh scan
    /// would produce.
    pub min_remaining: f64,
    /// Whether `min_remaining` reflects the current running list.
    pub min_valid: bool,
    /// Completed-job count as of the last integrating advance (jobs
    /// with `remaining <= WORK_EPS`).
    pub done_count: u32,
    /// Position of the first completed job, `u32::MAX` when none.
    pub first_done: u32,
    /// Whether `done_count`/`first_done` reflect the current list
    /// (cleared by [`Self::remove_job`]).
    pub done_valid: bool,

    // ---- window-relative metrics ----
    /// CPU-seconds consumed since window start.
    pub cpu_used_s: f64,
    /// CFS stall seconds since window start.
    pub throttled_s: f64,
    /// Completed visits since window start.
    pub visits_done: u64,
    /// Σ CPU self-time of completed visits.
    pub self_time_s: f64,
    /// Σ wall duration of completed visits.
    pub visit_time_s: f64,
    /// Open visits (arrived, not yet finished) — includes queued and
    /// children-waiting visits.
    pub open_visits: u32,
    /// ∫ open_visits dt for the memory gauge.
    pub occupancy_integral: f64,
    /// Per-second CPU usage buckets within the window (cores × seconds
    /// consumed in each wall second).
    pub usage_buckets: Vec<f32>,
    /// Window start (bucket origin).
    pub window_start: SimTime,
    /// Bucket the last integrated instant fell in (end-inclusive, the
    /// same convention the distribution arithmetic uses).
    cur_bucket: usize,
    /// End of `cur_bucket` in absolute virtual time — the single
    /// integer compare the batched fast path of [`Self::advance`]
    /// needs instead of two float floors per event.
    cur_bucket_end: SimTime,
}

impl ServiceRt {
    /// Fresh runtime state for a service with the given placement,
    /// thread limit and initial allocation.
    pub fn new(node: usize, threads: Option<u32>, alloc: f64) -> Self {
        ServiceRt {
            node,
            threads,
            alloc,
            quota: alloc * CFS_PERIOD_S,
            quota_left: alloc * CFS_PERIOD_S,
            period_end: SimTime::from_secs(CFS_PERIOD_S),
            stalled: false,
            running: Vec::new(),
            active_contrib: 0,
            thread_queue: std::collections::VecDeque::new(),
            threads_busy: 0,
            last_update: SimTime::ZERO,
            rate: 1.0,
            min_remaining: f64::INFINITY,
            min_valid: true,
            done_count: 0,
            first_done: u32::MAX,
            done_valid: true,
            cpu_used_s: 0.0,
            throttled_s: 0.0,
            visits_done: 0,
            self_time_s: 0.0,
            visit_time_s: 0.0,
            open_visits: 0,
            occupancy_integral: 0.0,
            usage_buckets: Vec::new(),
            window_start: SimTime::ZERO,
            cur_bucket: 0,
            cur_bucket_end: SimTime::ZERO,
        }
    }

    /// Adds a job to the running list, maintaining the min-remaining
    /// cache. Callers guarantee `remaining > WORK_EPS` (zero-work
    /// stages complete inline), so the completion caches stay valid.
    #[inline]
    pub fn push_job(&mut self, job: RunningJob) {
        debug_assert!(job.remaining > WORK_EPS);
        if job.remaining < self.min_remaining {
            self.min_remaining = job.remaining;
        }
        self.running.push(job);
    }

    /// Removes and returns the job at `pos` (swap-remove), clearing
    /// the min/completion caches it may have anchored.
    #[inline]
    pub fn remove_job(&mut self, pos: usize) -> RunningJob {
        self.min_valid = false;
        self.done_valid = false;
        self.running.swap_remove(pos)
    }

    /// True when a new visit can immediately take a worker thread.
    pub fn thread_available(&self) -> bool {
        match self.threads {
            None => true,
            Some(t) => self.threads_busy < t,
        }
    }

    /// Contribution of this service to its node's active-job count
    /// (stalled services consume no CPU).
    pub fn node_active_jobs(&self) -> usize {
        if self.stalled {
            0
        } else {
            self.running.len()
        }
    }

    /// Integrates the piecewise-linear dynamics from `last_update` to
    /// `now`, updating job progress, quota, and metrics. Job state
    /// lives inline in the running list, so this touches only
    /// contiguous memory.
    pub fn advance(&mut self, now: SimTime) {
        // Integer guard first: same-instant re-advances (common when
        // several events share a nanosecond) skip the ns→seconds
        // division entirely. `dt <= 0` below is exactly `now.0 <=
        // last_update.0` because secs_since saturates.
        if now.0 <= self.last_update.0 {
            self.last_update = now;
            return;
        }
        let dt = now.secs_since(self.last_update);
        self.occupancy_integral += self.open_visits as f64 * dt;
        if self.stalled {
            self.throttled_s += dt;
        } else if !self.running.is_empty() {
            let per_job = dt * self.rate;
            // One pass updates progress AND refreshes the min /
            // completion caches the deadline computation and the
            // timer handler would otherwise re-scan for.
            let mut min_rem = f64::INFINITY;
            let mut done_count = 0u32;
            let mut first_done = u32::MAX;
            for (i, job) in self.running.iter_mut().enumerate() {
                job.remaining -= per_job;
                job.exec_self += per_job;
                if job.remaining < min_rem {
                    min_rem = job.remaining;
                }
                if job.remaining <= WORK_EPS {
                    done_count += 1;
                    if first_done == u32::MAX {
                        first_done = i as u32;
                    }
                }
            }
            self.min_remaining = min_rem;
            self.min_valid = true;
            self.done_count = done_count;
            self.first_done = first_done;
            self.done_valid = true;
            let drain = per_job * self.running.len() as f64;
            self.quota_left -= drain;
            if self.quota_left < 0.0 {
                self.quota_left = 0.0;
            }
            self.cpu_used_s += drain;
            self.add_usage(self.last_update, now, drain);
        }
        self.last_update = now;
    }

    /// Distributes `cpu` seconds of usage across the 1-second usage
    /// buckets spanned by `[t0, t1)`.
    ///
    /// Integration is batched: `advance` runs on every event touching
    /// the service, but almost every interval ends inside the bucket
    /// the previous one left off in, so the common case is one integer
    /// compare and one add. Only bucket crossings pay the float
    /// floor/divide distribution arithmetic (which is unchanged from
    /// the original per-call implementation — the fast path is exactly
    /// its `first == last` branch with the floors cached).
    #[inline]
    fn add_usage(&mut self, t0: SimTime, t1: SimTime, cpu: f64) {
        if self.usage_buckets.is_empty() {
            return;
        }
        if t1 <= self.cur_bucket_end {
            if self.cur_bucket < self.usage_buckets.len() {
                self.usage_buckets[self.cur_bucket] += cpu as f32;
            }
            return;
        }
        self.add_usage_crossing(t0, t1, cpu);
    }

    /// Bucket-crossing path of [`Self::add_usage`]; re-caches the
    /// current bucket afterwards.
    fn add_usage_crossing(&mut self, t0: SimTime, t1: SimTime, cpu: f64) {
        let rel0 = t0.secs_since(self.window_start);
        let rel1 = t1.secs_since(self.window_start);
        if rel1 <= rel0 {
            return;
        }
        let span = rel1 - rel0;
        let first = rel0.floor() as usize;
        let last = (rel1 - 1e-12).floor() as usize;
        let n = self.usage_buckets.len();
        if first == last {
            if first < n {
                self.usage_buckets[first] += cpu as f32;
            }
        } else {
            for b in first..=last {
                if b >= n {
                    break;
                }
                let lo = (b as f64).max(rel0);
                let hi = ((b + 1) as f64).min(rel1);
                self.usage_buckets[b] += (cpu * (hi - lo) / span) as f32;
            }
        }
        self.set_cur_bucket(last);
    }

    /// Caches `bucket` as the bucket in progress.
    fn set_cur_bucket(&mut self, bucket: usize) {
        self.cur_bucket = bucket;
        self.cur_bucket_end = SimTime(
            self.window_start
                .0
                .saturating_add((bucket as u64 + 1).saturating_mul(1_000_000_000)),
        );
    }

    /// Resets window-relative metrics, sizing usage buckets for a
    /// window of `window_s` seconds starting at `now`. The bucket
    /// vector's allocation is reused across windows.
    pub fn begin_window(&mut self, now: SimTime, window_s: f64) {
        self.cpu_used_s = 0.0;
        self.throttled_s = 0.0;
        self.visits_done = 0;
        self.self_time_s = 0.0;
        self.visit_time_s = 0.0;
        self.occupancy_integral = 0.0;
        self.usage_buckets.clear();
        self.usage_buckets.resize(window_s.ceil() as usize + 2, 0.0);
        self.window_start = now;
        self.set_cur_bucket(0);
    }

    /// Applies a new CPU allocation. Extra quota from an increase is
    /// granted immediately; a decrease caps the remaining quota.
    pub fn set_alloc(&mut self, alloc: f64) {
        let new_quota = alloc * CFS_PERIOD_S;
        let delta = new_quota - self.quota;
        self.alloc = alloc;
        self.quota = new_quota;
        self.quota_left = (self.quota_left + delta.max(0.0)).min(new_quota).max(0.0);
    }

    /// Starts the CFS period that contains `now` (which must be at or
    /// past the current period's end): the quota refills and a
    /// throttled service resumes.
    pub(crate) fn roll_period(&mut self, now: SimTime) {
        let k = (now.0 - self.period_end.0) / CFS_PERIOD_NS + 1;
        self.period_end = SimTime(self.period_end.0 + k * CFS_PERIOD_NS);
        self.quota_left = self.quota;
        self.stalled = false;
    }

    /// Earliest future state change, given current rates — the CFS
    /// period boundary, quota exhaustion, or the earliest running job
    /// finishing its stage — or `None` when idle. Returned times are
    /// strictly after `now`.
    #[inline]
    pub(crate) fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        if self.stalled {
            return Some(self.period_end.max(SimTime(now.0 + 1)));
        }
        if self.running.is_empty() {
            return None;
        }
        let n = self.running.len() as f64;
        let rate = self.rate.max(1e-12);

        // `x / 1.0 == x` bit-for-bit, so the uncontended-node common
        // case (PS rate exactly 1) skips the divisions.
        let uncontended = rate == 1.0;
        let dt_quota = if uncontended {
            (self.quota_left / n).max(0.0)
        } else {
            (self.quota_left / (rate * n)).max(0.0)
        };

        let min_rem = if self.min_valid {
            self.min_remaining
        } else {
            let mut m = f64::INFINITY;
            for job in &self.running {
                if job.remaining < m {
                    m = job.remaining;
                }
            }
            m
        };
        let dt_work = if uncontended {
            min_rem.max(0.0)
        } else {
            (min_rem / rate).max(0.0)
        };
        let best_t = self
            .period_end
            .min(ceil_at(now, dt_quota))
            .min(ceil_at(now, dt_work));
        Some(
            best_t
                .max(SimTime(now.0 + 1))
                .min(SimTime(now.0).plus_secs(3600.0)),
        )
    }
}

/// `now + dt` rounded *up* to the next nanosecond so that when the timer
/// fires, at least the intended amount of progress has occurred.
///
/// The ceiling is computed with integer arithmetic (truncate, then bump
/// when a fraction was lost) — exactly `(dt * 1e9).ceil().max(1.0)` for
/// every representable input, without the libm `ceil` call this sits on
/// the per-event path for.
#[inline]
fn ceil_at(now: SimTime, dt: f64) -> SimTime {
    if !dt.is_finite() {
        return SimTime(u64::MAX);
    }
    let x = dt * 1e9;
    if x >= u64::MAX as f64 {
        return SimTime(u64::MAX);
    }
    // x < 2^64: `as u64` truncates exactly; values above 2^53 are
    // already integral in f64, so the fractional bump never applies
    // where the conversion could round.
    let t = x as u64;
    let ns = (t + u64::from((t as f64) < x)).max(1);
    if ns as f64 >= (u64::MAX - now.0) as f64 {
        return SimTime(u64::MAX);
    }
    SimTime(now.0 + ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(remaining: f64) -> RunningJob {
        RunningJob {
            vi: 0,
            remaining,
            exec_self: 0.0,
        }
    }

    #[test]
    fn advance_progresses_work_and_quota() {
        let mut s = ServiceRt::new(0, Some(4), 1.0);
        s.push_job(job(0.010));
        s.begin_window(SimTime::ZERO, 10.0);
        s.advance(SimTime::from_secs(0.004));
        assert!((s.running[0].remaining - 0.006).abs() < 1e-12);
        assert!((s.running[0].exec_self - 0.004).abs() < 1e-12);
        assert!((s.quota_left - (0.1 - 0.004)).abs() < 1e-12);
        assert!((s.cpu_used_s - 0.004).abs() < 1e-12);
    }

    #[test]
    fn advance_when_stalled_accrues_throttle_only() {
        let mut s = ServiceRt::new(0, Some(4), 1.0);
        s.push_job(job(0.010));
        s.stalled = true;
        s.advance(SimTime::from_secs(0.05));
        assert_eq!(s.running[0].remaining, 0.010);
        assert!((s.throttled_s - 0.05).abs() < 1e-12);
        assert_eq!(s.cpu_used_s, 0.0);
    }

    #[test]
    fn deadline_work_before_quota_when_fast() {
        let mut s = ServiceRt::new(0, Some(4), 1.0);
        s.push_job(job(0.001));
        let t = s.next_deadline(SimTime::ZERO).unwrap();
        assert!((t.as_secs() - 0.001).abs() < 1e-6);
    }

    #[test]
    fn deadline_quota_when_many_jobs() {
        // 4 jobs at rate 1 drain 0.1 CPU-s of quota in 0.025 s; each job
        // has 0.05s of work left, so quota exhausts first.
        let mut s = ServiceRt::new(0, Some(8), 1.0);
        for _ in 0..4 {
            s.push_job(job(0.05));
        }
        let t = s.next_deadline(SimTime::ZERO).unwrap();
        assert!((t.as_secs() - 0.025).abs() < 1e-6);
    }

    #[test]
    fn deadline_period_when_stalled() {
        let mut s = ServiceRt::new(0, Some(4), 1.0);
        s.push_job(job(0.05));
        s.stalled = true;
        let t = s.next_deadline(SimTime::from_secs(0.02)).unwrap();
        assert_eq!(t, SimTime::from_secs(0.1));
    }

    #[test]
    fn idle_service_has_no_deadline() {
        let s = ServiceRt::new(0, Some(4), 1.0);
        assert!(s.next_deadline(SimTime::ZERO).is_none());
    }

    #[test]
    fn set_alloc_grants_increase_immediately() {
        let mut s = ServiceRt::new(0, None, 1.0);
        s.quota_left = 0.02;
        s.set_alloc(2.0);
        assert!((s.quota - 0.2).abs() < 1e-12);
        assert!((s.quota_left - 0.12).abs() < 1e-12);
    }

    #[test]
    fn set_alloc_caps_on_decrease() {
        let mut s = ServiceRt::new(0, None, 2.0);
        s.quota_left = 0.2;
        s.set_alloc(0.5);
        assert!((s.quota_left - 0.05).abs() < 1e-12);
    }

    #[test]
    fn usage_buckets_distribute_across_seconds() {
        let mut s = ServiceRt::new(0, None, 4.0);
        s.push_job(job(10.0));
        s.begin_window(SimTime::ZERO, 5.0);
        // 1 job at rate 1 for 2.5 s: 2.5 CPU-s spread over buckets 0..2.
        s.advance(SimTime::from_secs(2.5));
        assert!((s.usage_buckets[0] - 1.0).abs() < 1e-4);
        assert!((s.usage_buckets[1] - 1.0).abs() < 1e-4);
        assert!((s.usage_buckets[2] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn thread_availability() {
        let mut s = ServiceRt::new(0, Some(2), 1.0);
        assert!(s.thread_available());
        s.threads_busy = 2;
        assert!(!s.thread_available());
        let unbounded = ServiceRt::new(0, None, 1.0);
        assert!(unbounded.thread_available());
    }
}
