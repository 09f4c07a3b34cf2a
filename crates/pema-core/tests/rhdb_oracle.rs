//! The RHDb against a linear-scan oracle: random sequences of inserts,
//! dominance invalidations, exploration draws and rollback queries,
//! run through [`Rhdb`] and through a plain oldest-first list that
//! re-scans every record on every call and shares no code with the
//! RHDb's feasible index. Allocations are small integers over three
//! services, so dominance and ties are common, and capacities of 1–8
//! make eviction happen in most cases.

use pema_core::{Rhdb, RhdbRecord};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One operation on the history.
#[derive(Debug, Clone)]
enum Op {
    /// Log a record (feasible or violating).
    Insert(RhdbRecord),
    /// A violation at this allocation.
    Invalidate(Vec<f64>),
    /// An exploration draw.
    Draw,
    /// The three rollback queries at this response cap and load.
    Query { cap_ms: f64, min_rps: f64 },
}

fn arb_alloc() -> impl Strategy<Value = Vec<f64>> {
    (1u32..5, 1u32..5, 1u32..5).prop_map(|(a, b, c)| vec![a as f64, b as f64, c as f64])
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..10, arb_alloc(), 0u32..5, 1u32..4).prop_map(|(kind, alloc, resp, load)| {
        let response_ms = 100.0 + resp as f64 * 50.0;
        let rps = load as f64 * 100.0;
        match kind {
            0..=3 => Op::Insert(RhdbRecord {
                t: 0,
                alloc,
                response_ms,
                violated: false,
                rps,
            }),
            4 => Op::Insert(RhdbRecord {
                t: 0,
                alloc,
                response_ms,
                violated: true,
                rps,
            }),
            5 | 6 => Op::Invalidate(alloc),
            7 => Op::Draw,
            _ => Op::Query {
                cap_ms: response_ms,
                min_rps: rps,
            },
        }
    })
}

/// The oracle: every query is a full pass over an oldest-first list.
struct Linear {
    records: Vec<RhdbRecord>,
    capacity: usize,
}

impl Linear {
    fn insert(&mut self, rec: RhdbRecord) {
        if self.records.len() == self.capacity {
            self.records.remove(0);
        }
        self.records.push(rec);
    }

    fn sum(alloc: &[f64]) -> f64 {
        let mut s = 0.0;
        for x in alloc {
            s += x;
        }
        s
    }

    /// First record with the smallest total among those passing `keep`.
    fn cheapest(&self, keep: impl Fn(&RhdbRecord) -> bool) -> Option<u64> {
        let mut best: Option<&RhdbRecord> = None;
        for r in &self.records {
            if keep(r) && best.is_none_or(|b| Self::sum(&r.alloc) < Self::sum(&b.alloc)) {
                best = Some(r);
            }
        }
        best.map(|r| r.t)
    }

    fn random_feasible(&self, rng: &mut SmallRng) -> Option<u64> {
        let n = self.records.iter().filter(|r| !r.violated).count();
        if n == 0 {
            return None;
        }
        let k = rng.gen_range(0..n);
        self.records
            .iter()
            .filter(|r| !r.violated)
            .nth(k)
            .map(|r| r.t)
    }

    fn invalidate_dominated(&mut self, alloc: &[f64]) -> usize {
        let mut n = 0;
        for r in &mut self.records {
            let dominated = r.alloc.len() == alloc.len()
                && r.alloc.iter().zip(alloc).all(|(a, b)| *a <= *b + 1e-12);
            if !r.violated && dominated {
                r.violated = true;
                n += 1;
            }
        }
        n
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every query answers as the linear scans do, step by step, and
    /// the same RNG draw picks the same exploration target.
    #[test]
    fn rhdb_agrees_with_linear_scans(
        capacity in 1usize..9,
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(arb_op(), 0..160)
    ) {
        let mut db = Rhdb::new(capacity);
        let mut oracle = Linear { records: Vec::new(), capacity };
        let mut rng_db = SmallRng::seed_from_u64(seed);
        let mut rng_oracle = SmallRng::seed_from_u64(seed);
        for (t, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(mut rec) => {
                    rec.t = t as u64;
                    db.insert(rec.clone());
                    oracle.insert(rec);
                }
                Op::Invalidate(alloc) => {
                    prop_assert_eq!(
                        db.invalidate_dominated(&alloc),
                        oracle.invalidate_dominated(&alloc)
                    );
                }
                Op::Draw => {
                    prop_assert_eq!(
                        db.random_feasible(&mut rng_db).map(|r| r.t),
                        oracle.random_feasible(&mut rng_oracle)
                    );
                }
                Op::Query { cap_ms, min_rps } => {
                    let feasible = oracle.cheapest(|r| !r.violated);
                    let margin = oracle.cheapest(|r| !r.violated && r.response_ms <= cap_ms);
                    let proven = oracle.cheapest(|r| {
                        !r.violated && r.response_ms <= cap_ms && r.rps >= min_rps
                    });
                    prop_assert_eq!(db.best_feasible().map(|r| r.t), feasible);
                    prop_assert_eq!(db.best_with_margin(cap_ms).map(|r| r.t), margin.or(feasible));
                    prop_assert_eq!(db.best_proven_at_load(cap_ms, min_rps).map(|r| r.t), proven);
                }
            }
            let flags: Vec<(u64, bool)> = db.iter().map(|r| (r.t, r.violated)).collect();
            let want: Vec<(u64, bool)> = oracle.records.iter().map(|r| (r.t, r.violated)).collect();
            prop_assert_eq!(flags, want);
        }
        // Both RNGs drew the same number of times.
        prop_assert_eq!(rng_db.gen::<u64>(), rng_oracle.gen::<u64>());
    }
}
