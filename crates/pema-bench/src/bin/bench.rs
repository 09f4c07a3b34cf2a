//! `bench` — the experiment-suite driver.
//!
//! ```text
//! bench list                              show every registered scenario
//! bench all  [--jobs N] [--smoke] [--force]
//! bench run  [--only a,b | id id …] [--jobs N] [--smoke] [--force]
//! ```
//!
//! Scenarios run concurrently across `--jobs` worker threads and are
//! deterministic regardless of parallelism: a `--jobs 4` run produces
//! byte-identical CSVs to a `--jobs 1` run. Results land under
//! `$PEMA_RESULTS_DIR` (default `results/`); already-written scenarios
//! are skipped unless `--force` is given.

use pema_bench::{registry, run_suite, BackendSel, Outcome, SuiteConfig};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("all") => cmd_run(&args[1..], true),
        Some("run") => cmd_run(&args[1..], false),
        Some("help") | Some("--help") | Some("-h") | None => usage(None),
        Some(other) => usage(Some(other)),
    }
}

fn usage(unknown: Option<&str>) -> ! {
    if let Some(cmd) = unknown {
        eprintln!("unknown command '{cmd}'\n");
    }
    eprintln!(
        "bench — PEMA experiment suite (scenario registry + parallel executor)\n\
         \n\
         commands:\n\
         \x20 list                                  list registered scenarios\n\
         \x20 all  [--jobs N] [--smoke] [--force] [--backend B]\n\
         \x20                                       run the whole suite\n\
         \x20 run  [--only a,b | ids…] [--jobs N] [--smoke] [--force] [--backend B]\n\
         \x20                                       run a subset\n\
         \x20      --backend sim|fluid|trace:<path> backend for participating\n\
         \x20                                       closed-loop scenarios (default sim;\n\
         \x20                                       DES goldens stay authoritative)\n\
         \x20      --fleet-threads N                shard fleet scenarios across N\n\
         \x20                                       workers (0 = auto; CSVs identical\n\
         \x20                                       for every value)\n\
         \n\
         CSVs land under $PEMA_RESULTS_DIR (default ./results); existing\n\
         results are skipped unless --force is given. Output is identical\n\
         for any --jobs value."
    );
    exit(if unknown.is_some() { 2 } else { 0 });
}

/// Lists the registry and exits non-zero if any scenario id or output
/// CSV name is claimed twice — `bench list` doubles as the registry
/// sanity gate CI runs.
fn cmd_list() {
    let mut ids = std::collections::HashSet::new();
    let mut outputs = std::collections::HashSet::new();
    let mut duplicates = Vec::new();
    println!("{:<22} outputs", "scenario");
    for s in registry() {
        println!("{:<22} {}", s.id(), s.outputs().join(", "));
        println!("{:<22}   {}", "", s.about());
        if !ids.insert(s.id()) {
            duplicates.push(format!("duplicate scenario id '{}'", s.id()));
        }
        for o in s.outputs() {
            if !outputs.insert(*o) {
                duplicates.push(format!("output '{o}' claimed twice (by '{}')", s.id()));
            }
        }
    }
    if !duplicates.is_empty() {
        for d in &duplicates {
            eprintln!("error: {d}");
        }
        exit(1);
    }
}

fn cmd_run(args: &[String], all: bool) {
    let mut cfg = SuiteConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--jobs needs a value");
                    exit(2);
                });
                cfg.jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs must be a number, got '{v}'");
                    exit(2);
                });
            }
            "--only" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--only needs a comma-separated id list");
                    exit(2);
                });
                ids.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--smoke" => cfg.smoke = true,
            "--force" => cfg.force = true,
            "--fleet-threads" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--fleet-threads needs a value (0 = auto)");
                    exit(2);
                });
                cfg.fleet_threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("--fleet-threads must be a number, got '{v}'");
                    exit(2);
                });
            }
            "--backend" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--backend needs a value (sim, fluid, or trace:<path>)");
                    exit(2);
                });
                cfg.backend = BackendSel::parse(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2);
                });
            }
            other if !other.starts_with("--") && !all => ids.push(other.to_string()),
            other => {
                eprintln!("unexpected argument '{other}'");
                exit(2);
            }
        }
    }
    if !all {
        if ids.is_empty() {
            eprintln!("bench run: name at least one scenario (see `bench list`)");
            exit(2);
        }
        cfg.only = Some(ids);
    } else if !ids.is_empty() {
        eprintln!("bench all runs everything; use `bench run` to select scenarios");
        exit(2);
    }

    let t0 = std::time::Instant::now();
    let reports = run_suite(&cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    println!(
        "\nsuite done in {:.2?} ({} jobs)",
        t0.elapsed(),
        cfg.jobs.max(1)
    );
    let mut failed = 0usize;
    for r in &reports {
        let status = match &r.outcome {
            Outcome::Completed => format!("ok    {:>8.2?}", r.wall),
            Outcome::Skipped => "skipped (results exist)".to_string(),
            Outcome::Failed(e) => {
                failed += 1;
                format!("FAILED: {e}")
            }
        };
        println!("  {:<22} {status}", r.id);
    }
    if failed > 0 {
        eprintln!("\n{failed} scenario(s) failed");
        exit(1);
    }
}
