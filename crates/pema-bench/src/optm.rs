//! The shared OPTM result cache.
//!
//! OPTM searches are the expensive part of the experiment suite and
//! several scenarios need the same `(app, rps)` optimum
//! (fig05/fig07/fig11/fig15/…). The cache guarantees:
//!
//! * **one computation per key**, even with scenarios running
//!   concurrently (per-key locks; unrelated keys never block),
//! * **canonical values**: results are rounded before first use so a
//!   value computed in-process is byte-identical to the same value
//!   re-loaded from disk in a later run — which is what makes repeated
//!   suite runs (and `--jobs 1` vs `--jobs N`) produce identical CSVs,
//! * **durable reuse** across suite runs via
//!   `<results_dir>/optm_cache.csv` (full-fidelity mode only; smoke
//!   mode computes cheap fluid-model optima and stays off disk).

use pema::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A cached OPTM optimum.
#[derive(Debug, Clone)]
pub struct CachedOptimum {
    /// The locally optimal allocation.
    pub alloc: Allocation,
    /// Total cores.
    pub total: f64,
    /// p95 at the optimum, ms.
    pub p95_ms: f64,
}

impl CachedOptimum {
    /// Rounds to the cache-file precision (4 decimals for cores, 3 for
    /// p95) so in-memory and reloaded values agree bit-for-bit.
    fn canonical(alloc: &Allocation, p95_ms: f64) -> Self {
        let alloc = Allocation::new(
            alloc
                .0
                .iter()
                .map(|v| (v * 1e4).round() / 1e4)
                .collect::<Vec<_>>(),
        );
        let total = (alloc.0.iter().sum::<f64>() * 1e4).round() / 1e4;
        Self {
            alloc,
            total,
            p95_ms: (p95_ms * 1e3).round() / 1e3,
        }
    }
}

type Key = (String, u64);

fn key(app: &str, rps: f64) -> Key {
    (app.to_string(), rps.to_bits())
}

/// Shared, thread-safe OPTM cache (see module docs).
pub struct OptmCache {
    dir: PathBuf,
    smoke: bool,
    /// Per-key slots. The outer lock is held only for slot lookup; the
    /// per-key lock is held across the (expensive) computation so
    /// concurrent requests for the same key wait instead of duplicating
    /// work.
    slots: Mutex<HashMap<Key, Arc<Mutex<Option<CachedOptimum>>>>>,
    /// Serializes appends to the cache file.
    file: Mutex<()>,
    /// Whether the on-disk cache has been folded in yet.
    disk_loaded: Mutex<bool>,
}

impl OptmCache {
    /// Creates a cache persisting under `dir` (ignored in smoke mode).
    pub fn new(dir: PathBuf, smoke: bool) -> Self {
        Self {
            dir,
            smoke,
            slots: Mutex::new(HashMap::new()),
            file: Mutex::new(()),
            disk_loaded: Mutex::new(false),
        }
    }

    fn cache_path(&self) -> PathBuf {
        self.dir.join("optm_cache.csv")
    }

    /// Folds `optm_cache.csv` into the slot map (first full-mode access
    /// only).
    fn load_disk(&self) {
        let mut loaded = self.disk_loaded.lock().expect("optm cache lock poisoned");
        if *loaded || self.smoke {
            return;
        }
        *loaded = true;
        let Ok(content) = std::fs::read_to_string(self.cache_path()) else {
            return;
        };
        let mut slots = self.slots.lock().expect("optm cache lock poisoned");
        for line in content.lines() {
            let mut it = line.split(',');
            let (Some(app), Some(rps), Some(_total), Some(p95), Some(alloc)) =
                (it.next(), it.next(), it.next(), it.next(), it.next())
            else {
                continue;
            };
            let (Ok(rps), Ok(p95)) = (rps.parse::<f64>(), p95.parse::<f64>()) else {
                continue;
            };
            let alloc: Vec<f64> = alloc.split(';').filter_map(|v| v.parse().ok()).collect();
            if alloc.is_empty() {
                continue;
            }
            let value = CachedOptimum::canonical(&Allocation::new(alloc), p95);
            slots
                .entry(key(app, rps))
                .or_insert_with(|| Arc::new(Mutex::new(None)))
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(value);
        }
    }

    /// Appends one computed optimum to the cache file.
    fn persist(&self, app: &str, rps: f64, c: &CachedOptimum) -> io::Result<()> {
        if self.smoke {
            return Ok(());
        }
        let _guard = self.file.lock().expect("optm cache lock poisoned");
        std::fs::create_dir_all(&self.dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("create results dir {}: {e}", self.dir.display()),
            )
        })?;
        let path = self.cache_path();
        let alloc_s: Vec<String> = c.alloc.0.iter().map(|v| format!("{v:.4}")).collect();
        let line = format!(
            "{app},{rps},{:.4},{:.3},{}\n",
            c.total,
            c.p95_ms,
            alloc_s.join(";")
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut file| file.write_all(line.as_bytes()))
            .map_err(|e| io::Error::new(e.kind(), format!("append to {}: {e}", path.display())))
    }

    /// Returns the optimum for `(app, rps)`, computing it at most once
    /// per process. Progress lines go to `log` (the calling scenario's
    /// buffered output).
    pub fn optimum(&self, app: &AppSpec, rps: f64, log: &mut String) -> io::Result<CachedOptimum> {
        self.load_disk();
        let slot = {
            let mut slots = self.slots.lock().expect("optm cache lock poisoned");
            Arc::clone(
                slots
                    .entry(key(&app.name, rps))
                    .or_insert_with(|| Arc::new(Mutex::new(None))),
            )
        };
        // The per-key lock is held across compute(), which runs
        // scenario-adjacent simulation code that may panic; the
        // executor catches that panic, so recover the (still-`None`)
        // slot from poisoning instead of cascading the failure into
        // every other scenario sharing this key.
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = slot.as_ref() {
            return Ok(c.clone());
        }
        let computed = self.compute(app, rps, log)?;
        self.persist(&app.name, rps, &computed)?;
        *slot = Some(computed.clone());
        Ok(computed)
    }

    fn compute(&self, app: &AppSpec, rps: f64, log: &mut String) -> io::Result<CachedOptimum> {
        let t0 = std::time::Instant::now();
        if self.smoke {
            // Fluid-model search: orders of magnitude cheaper than the
            // DES and fully deterministic — exactly what a sanity pass
            // needs.
            let mut eval = FluidEvaluator::new(app);
            let start = Allocation::new(app.generous_alloc.clone());
            let cfg = OptmConfig {
                max_sweeps: 6,
                ..OptmConfig::default()
            };
            return Ok(match find_optimum(&mut eval, &start, rps, &cfg) {
                Ok(r) => CachedOptimum::canonical(&r.alloc, r.p95_ms),
                // Infeasible even at the generous allocation: fall back
                // to the generous allocation itself so smoke runs never
                // abort on search feasibility.
                Err(_) => {
                    let p95 = eval.evaluate(&start, rps).p95_ms;
                    CachedOptimum::canonical(&start, p95)
                }
            });
        }
        let _ = writeln!(
            log,
            "  [optm] computing optimum for {} @ {rps} rps…",
            app.name
        );
        let window_s = if app.n_services() > 30 { 15.0 } else { 20.0 };
        let mut eval = SimEvaluator::new(app, 0xA11C)
            .with_window(4.0, window_s)
            .with_robustness(2);
        let start = Allocation::new(app.generous_alloc.clone());
        let r = find_optimum(&mut eval, &start, rps, &OptmConfig::default()).map_err(|e| {
            io::Error::other(format!("OPTM failed for {} @ {rps} rps: {e}", app.name))
        })?;
        let _ = writeln!(
            log,
            "  [optm] {} @ {rps}: total={:.2} p95={:.0} ms ({} evals, {:.1?})",
            app.name,
            r.total,
            r.p95_ms,
            r.evaluations,
            t0.elapsed()
        );
        Ok(CachedOptimum::canonical(&r.alloc, r.p95_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn smoke_optimum_is_deterministic_and_memoized() {
        let cache = OptmCache::new(toy_dir("pema-optm-smoke"), true);
        let app = pema_apps::toy_chain();
        let mut log = String::new();
        let a = cache.optimum(&app, 150.0, &mut log).unwrap();
        let b = cache.optimum(&app, 150.0, &mut log).unwrap();
        assert_eq!(a.alloc, b.alloc);
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        // Smoke mode must not touch the disk.
        assert!(!cache.cache_path().exists());
    }

    #[test]
    fn full_mode_roundtrips_through_disk() {
        let dir = toy_dir("pema-optm-disk");
        let app = pema_apps::toy_chain();
        // Seed the disk cache with two canonical-format entries: each
        // persist appends its one line and leaves the other alone.
        {
            let cache = OptmCache::new(dir.clone(), false);
            let value = CachedOptimum::canonical(&Allocation::new(vec![1.23456, 2.0]), 42.1234);
            cache.persist("toy-chain", 150.0, &value).unwrap();
            let value = CachedOptimum::canonical(&Allocation::new(vec![0.5, 0.75]), 17.0);
            cache.persist("toy-chain", 90.0, &value).unwrap();
            let file = std::fs::read_to_string(cache.cache_path()).unwrap();
            assert_eq!(
                file,
                "toy-chain,150,3.2346,42.123,1.2346;2.0000\n\
                 toy-chain,90,1.2500,17.000,0.5000;0.7500\n"
            );
        }
        // A fresh cache must serve both without computing.
        let cache = OptmCache::new(dir, false);
        let mut log = String::new();
        let got = cache.optimum(&app, 150.0, &mut log).unwrap();
        assert_eq!(got.alloc.0, vec![1.2346, 2.0]);
        assert_eq!(got.p95_ms, 42.123);
        let got = cache.optimum(&app, 90.0, &mut log).unwrap();
        assert_eq!(got.alloc.0, vec![0.5, 0.75]);
        assert!(
            !log.contains("computing"),
            "disk hit must not recompute: {log}"
        );
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let c = CachedOptimum::canonical(&Allocation::new(vec![1.000049, 0.5]), 10.0005);
        let c2 = CachedOptimum::canonical(&c.alloc, c.p95_ms);
        assert_eq!(c.alloc, c2.alloc);
        assert_eq!(c.total.to_bits(), c2.total.to_bits());
        assert_eq!(c.p95_ms.to_bits(), c2.p95_ms.to_bits());
    }

    #[test]
    fn concurrent_requests_share_one_computation() {
        let cache = Arc::new(OptmCache::new(toy_dir("pema-optm-conc"), true));
        let app = pema_apps::toy_chain();
        let results: Vec<CachedOptimum> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let app = app.clone();
                    s.spawn(move || {
                        let mut log = String::new();
                        cache.optimum(&app, 150.0, &mut log).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in &results[1..] {
            assert_eq!(r.alloc, results[0].alloc);
        }
    }
}
