//! RHDb — the resource-allocation history database (paper §3.3).
//!
//! PEMA logs every (allocation, response) pair it observes. The history
//! serves two purposes:
//!
//! * **rollback** — on an SLO violation, jump back to the cheapest
//!   allocation known to satisfy the SLO (Algorithm 1, line 4);
//! * **exploration** — with probability p_e, jump to a *uniformly
//!   random* feasible allocation to escape sub-optimal descent paths
//!   (Eqn. 8).
//!
//! The paper stresses RHDb's lightweight single-table design; this is a
//! bounded ring of records beside one index of its feasible records,
//! the only records any query reads: their sequence numbers and totals,
//! oldest first, in one compact array.
//!
//! * An exploration draw is one `gen_range` over the index and one
//!   lookup, and picks the record a k-th-feasible scan of the ring
//!   picks from the same draw.
//! * A rollback query scans the index's totals newest first and reads
//!   a record only when its total could be the cheapest so far. PEMA
//!   cuts as it goes, so the cheapest records are the recent ones and
//!   few older ones are read.
//! * A dominance check reads only the records whose total could be
//!   dominated.
//!
//! Each record's total is summed once, at insert.

use rand::Rng;
use std::collections::VecDeque;

/// One logged control interval.
#[derive(Debug, Clone)]
pub struct RhdbRecord {
    /// Controller step index.
    pub t: u64,
    /// Allocation in force during the interval (cores per service).
    pub alloc: Vec<f64>,
    /// Observed p95 response, ms.
    pub response_ms: f64,
    /// Whether the interval is not evidence of feasibility: it violated
    /// the SLO, was invalidated by a dominating violation, or had no
    /// p95 to judge.
    pub violated: bool,
    /// Offered load during the interval.
    pub rps: f64,
}

impl RhdbRecord {
    /// Total cores of this record's allocation.
    pub fn total(&self) -> f64 {
        self.alloc.iter().sum()
    }
}

/// Bounded history of control intervals.
#[derive(Debug, Clone)]
pub struct Rhdb {
    records: VecDeque<RhdbRecord>,
    /// Sequence number of `records[0]`; record `s` sits at `s − head`.
    head: u64,
    /// The feasible records' sequence numbers and
    /// [`RhdbRecord::total`]s, oldest first.
    feasible: VecDeque<(u64, f64)>,
    capacity: usize,
}

impl Rhdb {
    /// Creates a history retaining at most `capacity` records (oldest
    /// evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RHDb capacity must be positive");
        Self {
            records: VecDeque::new(),
            head: 0,
            feasible: VecDeque::new(),
            capacity,
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record, evicting the oldest when full.
    pub fn insert(&mut self, rec: RhdbRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            if self
                .feasible
                .front()
                .is_some_and(|&(seq, _)| seq == self.head)
            {
                self.feasible.pop_front();
            }
            self.head += 1;
        }
        if !rec.violated {
            let seq = self.head + self.records.len() as u64;
            self.feasible.push_back((seq, rec.total()));
        }
        self.records.push_back(rec);
    }

    /// The record with sequence number `seq`.
    fn get(&self, seq: u64) -> &RhdbRecord {
        &self.records[(seq - self.head) as usize]
    }

    /// The cheapest feasible record passing `keep` — the oldest such
    /// record on a tie. Newest first, a record is read only when its
    /// total is at most the best so far.
    fn cheapest(&self, keep: impl Fn(&RhdbRecord) -> bool) -> Option<&RhdbRecord> {
        let (mut best, mut best_total) = (None, f64::INFINITY);
        for &(seq, total) in self.feasible.iter().rev() {
            if total <= best_total && keep(self.get(seq)) {
                (best, best_total) = (Some(seq), total);
            }
        }
        best.map(|seq| self.get(seq))
    }

    /// The feasible (non-violating) record with the smallest total
    /// allocation — the rollback target of Algorithm 1 line 4.
    pub fn best_feasible(&self) -> Option<&RhdbRecord> {
        self.cheapest(|_| true)
    }

    /// The cheapest feasible record whose response stayed at or below
    /// `response_cap_ms`. Rolling back to a record with *margin* (cap
    /// below the SLO) avoids bouncing between a borderline allocation
    /// and violation — the failure mode §6 of the paper discusses.
    /// Falls back to [`Self::best_feasible`] when nothing has margin.
    pub fn best_with_margin(&self, response_cap_ms: f64) -> Option<&RhdbRecord> {
        self.cheapest(|r| r.response_ms <= response_cap_ms)
            .or_else(|| self.best_feasible())
    }

    /// A uniformly random feasible record — the exploration target of
    /// Eqn. 8. Draws nothing when there is none.
    pub fn random_feasible<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&RhdbRecord> {
        if self.feasible.is_empty() {
            return None;
        }
        let (seq, _) = self.feasible[rng.gen_range(0..self.feasible.len())];
        Some(self.get(seq))
    }

    /// The cheapest record with margin that was observed at a workload
    /// of at least `min_rps`, `None` when there is none. A record
    /// proving an allocation feasible at 400 rps says nothing about
    /// 460 rps — so when the load is rising, rollback should prefer
    /// evidence gathered at or above the current load, and fall back
    /// to [`Self::best_with_margin`] only without it.
    pub fn best_proven_at_load(&self, response_cap_ms: f64, min_rps: f64) -> Option<&RhdbRecord> {
        self.cheapest(|r| r.response_ms <= response_cap_ms && r.rps >= min_rps)
    }

    /// Marks every feasible record whose allocation is component-wise
    /// ≤ `alloc` (within 1e-12 per component) as violated.
    ///
    /// Justification: the paper's monotonicity observation (§3.2) —
    /// monotonic resource reduction monotonically increases response
    /// time. If `alloc` just violated the SLO, any logged allocation it
    /// dominates would violate too, even if a lucky measurement window
    /// once recorded it as feasible. Without this, rollback bounces
    /// between a borderline allocation and violation (the §6 failure
    /// mode). Returns the number of records invalidated.
    ///
    /// A dominated allocation has a total at most `alloc`'s plus
    /// n·1e-12. Allocations are core counts (non-negative), so each
    /// stored sum is within n·ε/2 of its exact value, relative; a
    /// record whose total exceeds `alloc`'s by more than
    /// n·(1e-12 + 2ε·total) cannot be dominated and is not read.
    pub fn invalidate_dominated(&mut self, alloc: &[f64]) -> usize {
        let total: f64 = alloc.iter().sum();
        let n = alloc.len() as f64;
        let bound = total + n * (1e-12 + 2.0 * f64::EPSILON * total.abs());
        let (records, head) = (&mut self.records, self.head);
        let before = self.feasible.len();
        self.feasible.retain(|&(seq, t)| {
            if t > bound {
                return true;
            }
            let r = &mut records[(seq - head) as usize];
            let dominated = r.alloc.len() == alloc.len()
                && r.alloc.iter().zip(alloc).all(|(a, b)| *a <= *b + 1e-12);
            if dominated {
                r.violated = true;
            }
            !dominated
        });
        before - self.feasible.len()
    }

    /// Iterates over records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RhdbRecord> {
        self.records.iter()
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&RhdbRecord> {
        self.records.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rec(t: u64, total: f64, violated: bool) -> RhdbRecord {
        RhdbRecord {
            t,
            alloc: vec![total / 2.0; 2],
            response_ms: if violated { 300.0 } else { 200.0 },
            violated,
            rps: 100.0,
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        Rhdb::new(0);
    }

    #[test]
    fn best_feasible_ignores_violations() {
        let mut db = Rhdb::new(10);
        db.insert(rec(0, 10.0, false));
        db.insert(rec(1, 4.0, true)); // cheapest but violating
        db.insert(rec(2, 6.0, false));
        let best = db.best_feasible().unwrap();
        assert_eq!(best.t, 2);
        assert_eq!(best.total(), 6.0);
    }

    #[test]
    fn best_feasible_empty_cases() {
        let db = Rhdb::new(4);
        assert!(db.best_feasible().is_none());
        let mut db = Rhdb::new(4);
        db.insert(rec(0, 5.0, true));
        assert!(db.best_feasible().is_none());
    }

    #[test]
    fn random_feasible_never_returns_violation() {
        let mut db = Rhdb::new(10);
        db.insert(rec(0, 10.0, false));
        db.insert(rec(1, 4.0, true));
        db.insert(rec(2, 6.0, false));
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let r = db.random_feasible(&mut rng).unwrap();
            assert!(!r.violated);
        }
    }

    #[test]
    fn random_feasible_covers_all_feasible() {
        let mut db = Rhdb::new(10);
        for t in 0..4 {
            db.insert(rec(t, t as f64 + 1.0, false));
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(db.random_feasible(&mut rng).unwrap().t);
        }
        assert_eq!(seen.len(), 4, "uniform sampling should hit all records");
    }

    #[test]
    fn margin_at_load_prefers_high_load_evidence() {
        let mut db = Rhdb::new(10);
        let mut rec_at = |t: u64, total: f64, rps: f64, resp: f64| {
            db.insert(RhdbRecord {
                t,
                alloc: vec![total / 2.0; 2],
                response_ms: resp,
                violated: false,
                rps,
            });
        };
        rec_at(0, 4.0, 300.0, 150.0); // cheap but low-load evidence
        rec_at(1, 6.0, 500.0, 180.0); // pricier, proven at high load
        let r = db.best_proven_at_load(200.0, 450.0).unwrap();
        assert_eq!(r.t, 1, "should prefer the record proven at >= 450 rps");
        // No high-load record with margin: the caller falls back to any
        // margin.
        assert!(db.best_proven_at_load(200.0, 900.0).is_none());
        let r = db.best_with_margin(200.0).unwrap();
        assert_eq!(r.t, 0, "fallback picks the cheapest with margin");
    }

    #[test]
    fn invalidate_dominated_marks_cheaper_records() {
        let mut db = Rhdb::new(10);
        db.insert(rec(0, 8.0, false));
        db.insert(rec(1, 4.0, false));
        let n = db.invalidate_dominated(&[3.0, 3.0]); // dominates t=1 only
        assert_eq!(n, 1);
        assert_eq!(db.best_feasible().unwrap().t, 0);
    }

    /// Brute force over a plain oldest-first list: re-sums every
    /// allocation and keeps the first minimum.
    fn brute_cheapest(records: &[RhdbRecord], keep: impl Fn(&RhdbRecord) -> bool) -> Option<u64> {
        let mut best: Option<&RhdbRecord> = None;
        for r in records.iter().filter(|r| keep(r)) {
            if best.is_none_or(|b| r.total() < b.total()) {
                best = Some(r);
            }
        }
        best.map(|r| r.t)
    }

    #[test]
    fn ring_at_capacity_agrees_with_brute_force() {
        // Capacity 4, six inserts: the two oldest go, oldest first.
        let mut db = Rhdb::new(4);
        for t in 0..6 {
            db.insert(rec(t, 10.0 + t as f64, false));
            let kept: Vec<u64> = db.iter().map(|r| r.t).collect();
            let oldest = (t + 1).saturating_sub(4);
            assert_eq!(kept, (oldest..=t).collect::<Vec<_>>());
            assert_eq!(db.last().unwrap().t, t);
        }

        // A seeded random history pushed through a small ring, every
        // query checked against the mirror after every insert. Totals
        // come from a coarse grid so ties are common.
        let mut rng = SmallRng::seed_from_u64(0xA110C);
        let mut db = Rhdb::new(16);
        let mut mirror: Vec<RhdbRecord> = Vec::new();
        for t in 0..400 {
            let alloc: Vec<f64> = (0..3).map(|_| rng.gen_range(1..5) as f64 * 0.5).collect();
            let r = RhdbRecord {
                t,
                alloc,
                response_ms: rng.gen_range(100.0..320.0),
                violated: rng.gen::<f64>() < 0.3,
                rps: rng.gen_range(1..4) as f64 * 100.0,
            };
            db.insert(r.clone());
            mirror.push(r);
            if mirror.len() > 16 {
                mirror.remove(0);
            }
            if t % 7 == 3 {
                let at: Vec<f64> = (0..3).map(|_| rng.gen_range(1..5) as f64 * 0.5).collect();
                let mut n = 0;
                for m in &mut mirror {
                    if !m.violated && m.alloc.iter().zip(&at).all(|(a, b)| *a <= *b + 1e-12) {
                        m.violated = true;
                        n += 1;
                    }
                }
                assert_eq!(db.invalidate_dominated(&at), n);
            }
            let flags = |db: &Rhdb| db.iter().map(|r| (r.t, r.violated)).collect::<Vec<_>>();
            assert_eq!(
                flags(&db),
                mirror.iter().map(|r| (r.t, r.violated)).collect::<Vec<_>>()
            );
            let cap = 100.0 + (t % 5) as f64 * 50.0;
            let min_rps = (t % 4) as f64 * 100.0;
            let feasible = brute_cheapest(&mirror, |r| !r.violated);
            let margin = brute_cheapest(&mirror, |r| !r.violated && r.response_ms <= cap);
            let proven = brute_cheapest(&mirror, |r| {
                !r.violated && r.response_ms <= cap && r.rps >= min_rps
            });
            assert_eq!(db.best_feasible().map(|r| r.t), feasible);
            assert_eq!(db.best_with_margin(cap).map(|r| r.t), margin.or(feasible));
            assert_eq!(db.best_proven_at_load(cap, min_rps).map(|r| r.t), proven);
        }
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut db = Rhdb::new(3);
        for t in 0..5 {
            db.insert(rec(t, 10.0 - t as f64, false));
        }
        assert_eq!(db.len(), 3);
        assert_eq!(db.iter().next().unwrap().t, 2);
        assert_eq!(db.last().unwrap().t, 4);
    }
}
