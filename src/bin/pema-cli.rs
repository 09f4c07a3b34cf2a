//! `pema-cli` — command-line front end to the PEMA reproduction.
//!
//! ```text
//! pema-cli apps                              list bundled application models
//! pema-cli run      --app sockshop --rps 700 [--iters 40] [--seed 7]
//!                   [--interval 40] [--early-check 10] [--alpha a] [--beta b]
//! pema-cli rule     --app sockshop --rps 700 [--iters 12]
//! pema-cli optimum  --app sockshop --rps 700
//! pema-cli classify --app sockshop --service carts --rps 550
//! pema-cli trace    --app sockshop --rps 550 --starve carts=0.45
//!
//! pema-cli record   --app sockshop --rps 700 --out run.jsonl [--iters N]
//! pema-cli replay   --trace run.jsonl [--policy pema|rule|hold]
//!                   [--lenient] [--assert-zero-divergence]
//! pema-cli fleet    --count 16 [--app sockshop|mixed] [--rps R] [--iters N]
//!                   [--backend sim|fluid] [--policy pema|rule|hold|mixed]
//!                   [--interval S] [--seed K] [--threads T] [--pace virtual|wall]
//!                   [--budget C] [--arbitration fair|aimd|off] [--priority 2,1,0]
//! pema-cli live     --app toy-chain --rps 120 --fake [--dry-run] [--out F.jsonl]
//!                   [--iters N] [--interval S] [--warmup S] [--seed K]
//! pema-cli live     --app A --rps R --prometheus http://H:9090 --kube http://H:8443
//!                   [--token T] [--namespace NS] [--dry-run] [--out F.jsonl]
//!
//! pema-cli metrics  --addr HOST:PORT [--out scrape.txt] [--print]
//!   (run, fleet, and live additionally accept --metrics-addr HOST:PORT
//!    to serve /metrics while running, and --events-out F.jsonl for the
//!    JSONL event log — see docs/telemetry.md)
//!
//! pema-cli list                              list experiment scenarios
//! pema-cli all  [--jobs N] [--smoke] [--force]    run the whole suite
//! pema-cli run  fig05 fig11 … [--jobs N] [--smoke] [--force]
//!               [--backend sim|fluid|trace:F.jsonl]
//! ```
//!
//! Everything is deterministic given `--seed`; the experiment suite is
//! deterministic for any `--jobs` value.
//!
//! The scenario subcommands (`list`, `all`, and `run` with scenario
//! ids) surface `pema-bench`'s registry. Because `pema-bench` sits
//! *above* this crate in the dependency graph, they delegate to the
//! sibling `bench` binary. Build it with
//! `cargo build --release -p pema-bench`.

use pema::prelude::*;
use std::collections::HashMap;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    match cmd.as_str() {
        "apps" => cmd_apps(),
        // `run` is overloaded: scenario ids → suite subset; `--app` →
        // the classic single-controller run.
        "run" if scenario_invocation(&args[1..]) => delegate_bench("run", &args[1..]),
        "run" => cmd_run(&parse_flags("run", RUN_FLAGS, &args[1..])),
        "rule" => cmd_rule(&parse_flags("rule", RULE_FLAGS, &args[1..])),
        "optimum" => cmd_optimum(&parse_flags("optimum", OPTIMUM_FLAGS, &args[1..])),
        "classify" => cmd_classify(&parse_flags("classify", CLASSIFY_FLAGS, &args[1..])),
        "trace" => cmd_trace(&parse_flags("trace", TRACE_FLAGS, &args[1..])),
        "record" => cmd_record(&parse_flags("record", RECORD_FLAGS, &args[1..])),
        "replay" => cmd_replay(&parse_flags("replay", REPLAY_FLAGS, &args[1..])),
        "fleet" => cmd_fleet(&parse_flags("fleet", FLEET_FLAGS, &args[1..])),
        "live" => cmd_live(&parse_flags("live", LIVE_FLAGS, &args[1..])),
        "metrics" => cmd_metrics(&parse_flags("metrics", METRICS_FLAGS, &args[1..])),
        "list" => delegate_bench("list", &args[1..]),
        "all" => delegate_bench("all", &args[1..]),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command '{other}'");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "pema-cli — PEMA microservice autoscaling (HPDC '22 reproduction)\n\
         \n\
         controller commands:\n\
         \x20 apps                               list application models\n\
         \x20 run      --app A --rps R [--iters N --interval S --seed K\n\
         \x20          --alpha a --beta b --early-check S]   run PEMA\n\
         \x20 rule     --app A --rps R [--iters N]           run the k8s-style baseline\n\
         \x20 optimum  --app A --rps R                       OPTM search\n\
         \x20 classify --app A --service S --rps R           bottleneck classifier study\n\
         \x20 trace    --app A --rps R --starve S=frac       tail-latency trace analysis\n\
         \n\
         trace record/replay (counterfactual policy evaluation):\n\
         \x20 record   --app A --rps R --out F.jsonl [--iters N --seed K --interval S\n\
         \x20          --warmup S --early-check S --policy pema|rule]  record a DES run\n\
         \x20 replay   --trace F.jsonl [--policy pema|rule|hold] [--lenient]\n\
         \x20          [--assert-zero-divergence]     replay it under another policy\n\
         \n\
         concurrent fleet (many apps, one process):\n\
         \x20 fleet    --count N [--app A|mixed] [--rps R] [--iters N] [--seed K]\n\
         \x20          [--backend sim|fluid] [--policy pema|rule|hold|mixed]\n\
         \x20          [--interval S] [--threads T]   drive N control loops concurrently\n\
         \x20                                         (T shard workers, 0 = auto; output\n\
         \x20                                         identical for every T)\n\
         \x20          [--budget C] [--arbitration fair|aimd|off] [--priority P1,P2,…]\n\
         \x20                                         share a C-core budget across members:\n\
         \x20                                         fair = priority/weighted fair share,\n\
         \x20                                         aimd = multiplicative backoff; the\n\
         \x20                                         --priority list cycles over members\n\
         \x20          [--pace virtual|wall]          wall sleeps until each window's\n\
         \x20                                         ready-at (virtual = as fast as possible)\n\
         \n\
         live cluster adapter (Prometheus scrape + Kubernetes CPU-limit PATCH):\n\
         \x20 live     --app A --rps R [--iters N --interval S --warmup S --seed K]\n\
         \x20          [--dry-run]                    record decisions, never PATCH\n\
         \x20          [--out F.jsonl]                write the run as a replayable trace\n\
         \x20          --fake                         in-process FakeCluster, virtual time\n\
         \x20          --prometheus http://HOST:9090 --kube http://HOST:PORT\n\
         \x20          [--token T] [--namespace NS]   real endpoints, wall-clock paced\n\
         \n\
         self-telemetry (accepted by run, fleet, and live):\n\
         \x20 --metrics-addr H:P                 serve controller self-metrics on\n\
         \x20                                    http://H:P/metrics (Prometheus text\n\
         \x20                                    format; 0 picks a free port)\n\
         \x20 --events-out F.jsonl               append one structured JSONL event per\n\
         \x20                                    committed control interval\n\
         \x20 metrics --addr H:P [--out F]       scrape a /metrics endpoint once and\n\
         \x20                                    lint the exposition format (exit 1 on\n\
         \x20                                    violations)\n\
         \n\
         experiment-suite commands (scenario registry; delegate to `bench`):\n\
         \x20 list                                 list registered scenarios\n\
         \x20 all  [--jobs N] [--smoke] [--force] [--backend B]  run the whole suite\n\
         \x20 run  <id>… [--jobs N] [--smoke] [--force] [--backend sim|fluid|trace:F]\n\
         \x20                                      run selected scenarios"
    );
}

/// `run fig05 …` (scenario ids) vs `run --app …` (controller run).
fn scenario_invocation(args: &[String]) -> bool {
    args.first().is_some_and(|a| !a.starts_with("--"))
}

/// Runs the sibling `bench` executable (`<this dir>/bench`) with the
/// given subcommand, forwarding arguments and the exit status.
fn delegate_bench(sub: &str, args: &[String]) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate current executable: {e}");
        exit(2);
    });
    let bench = exe.with_file_name(if cfg!(windows) { "bench.exe" } else { "bench" });
    if !bench.exists() {
        eprintln!(
            "{} not found — build the experiment suite first:\n  cargo build --release -p pema-bench",
            bench.display()
        );
        exit(2);
    }
    let status = std::process::Command::new(&bench)
        .arg(sub)
        .args(args)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("failed to spawn {}: {e}", bench.display());
            exit(2);
        });
    exit(status.code().unwrap_or(1));
}

/// Parses `--name [value]` pairs, accepting only the flags `cmd` reads
/// (its `*_FLAGS` list) so a misspelled flag is an error and not a
/// silently applied default.
fn parse_flags(cmd: &str, accepted: &[&str], args: &[String]) -> HashMap<String, String> {
    let mut m = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.contains(&name) {
                eprintln!("unknown flag '{a}' for '{cmd}' (see `pema-cli help`)");
                exit(2);
            }
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                m.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                m.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            eprintln!("unexpected argument '{a}'");
            exit(2);
        }
    }
    m
}

/// The optional self-telemetry surfaces shared by `run`, `fleet`, and
/// `live`: a metric registry (served on `--metrics-addr` when given)
/// and a JSONL event sink (`--events-out`). The `/metrics` listener
/// lives exactly as long as this value, so callers keep it in scope
/// for the duration of the run.
struct TelemetryWires {
    hub: Option<Telemetry>,
    events: Option<EventSink>,
    _server: Option<MetricsServer>,
}

fn telemetry_wires(flags: &HashMap<String, String>) -> TelemetryWires {
    // Events ride on the per-loop instrumentation, so a sink implies a
    // registry even when nothing scrapes it.
    let want = flags.contains_key("metrics-addr") || flags.contains_key("events-out");
    let hub = want.then(Telemetry::new);
    let server = flags.get("metrics-addr").map(|addr| {
        let server = MetricsServer::serve(addr, hub.clone().unwrap()).unwrap_or_else(|e| {
            eprintln!("cannot serve metrics on '{addr}': {e}");
            exit(2);
        });
        println!("metrics: http://{}/metrics", server.local_addr());
        server
    });
    let events = flags.get("events-out").map(|path| {
        EventSink::to_file(path).unwrap_or_else(|e| {
            eprintln!("cannot open --events-out '{path}': {e}");
            exit(2);
        })
    });
    TelemetryWires {
        hub,
        events,
        _server: server,
    }
}

const METRICS_FLAGS: &[&str] = &["addr", "out", "print"];

/// Scrapes `http://ADDR/metrics` once and lints the exposition format
/// (`pema-cli metrics --addr H:P`). With `--out F` the raw scrape is
/// also written to `F`. Exits 1 when the lint finds violations — CI
/// pipes a mid-run scrape through this.
fn cmd_metrics(flags: &HashMap<String, String>) {
    use pema::pema_telemetry::http::{Endpoint, HttpClient};
    let addr = flags.get("addr").unwrap_or_else(|| {
        eprintln!("--addr is required (host:port of a running --metrics-addr listener)");
        exit(2);
    });
    let endpoint = Endpoint::parse(addr).unwrap_or_else(|e| {
        eprintln!("bad --addr: {e}");
        exit(2);
    });
    let resp = HttpClient::default()
        .request(&endpoint, "GET", "/metrics", &[], None)
        .unwrap_or_else(|e| {
            eprintln!("scrape of {addr} failed: {e}");
            exit(1);
        });
    if resp.status != 200 {
        eprintln!("scrape failed: HTTP {}", resp.status);
        exit(1);
    }
    let body = resp.body.as_str();
    if let Some(out) = flags.get("out") {
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("cannot write --out '{out}': {e}");
            exit(1);
        }
    }
    let series = body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    let report = pema::pema_telemetry::lint(body, None);
    if report.is_clean() {
        println!("scraped {addr}: {series} series, exposition format clean");
        if !flags.contains_key("out") && flags.contains_key("print") {
            print!("{body}");
        }
    } else {
        eprintln!(
            "scraped {addr}: {series} series, {} lint violations:",
            report.violations.len()
        );
        for v in &report.violations {
            eprintln!("  {v}");
        }
        exit(1);
    }
}

fn get_app(flags: &HashMap<String, String>) -> AppSpec {
    let name = flags.get("app").unwrap_or_else(|| {
        eprintln!("--app is required (try `pema-cli apps`)");
        exit(2);
    });
    pema::pema_apps::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown app '{name}' (try `pema-cli apps`)");
        exit(2);
    })
}

/// Reads `--key` as a `T`, or `default` when absent; a value that does
/// not parse is a usage error saying `what` was expected.
fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    what: &str,
    default: T,
) -> T {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} must be {what}, got '{v}'");
                exit(2);
            })
        })
        .unwrap_or(default)
}

fn get_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> f64 {
    get_parsed(flags, key, "a number", default)
}

/// An integer flag (`--seed`, `--iters`, `--count`, `--threads`), parsed
/// as the integer it is: no detour through `f64`, which rounds above
/// 2^53 and accepts fractions and negatives.
fn get_uint<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    get_parsed(flags, key, "a non-negative integer", default)
}

fn require_f64(flags: &HashMap<String, String>, key: &str) -> f64 {
    if !flags.contains_key(key) {
        eprintln!("--{key} is required");
        exit(2);
    }
    get_f64(flags, key, 0.0)
}

fn cmd_apps() {
    println!(
        "{:<18} {:>9} {:>9}  workload band",
        "app", "services", "SLO(ms)"
    );
    for app in pema::pema_apps::all_apps() {
        println!(
            "{:<18} {:>9} {:>9}  see DESIGN.md",
            app.name,
            app.n_services(),
            app.slo_ms
        );
    }
    println!(
        "{:<18} {:>9} {:>9}  toy model for experiments",
        "toy-chain", 3, 100
    );
}

const RUN_FLAGS: &[&str] = &[
    "app",
    "rps",
    "iters",
    "seed",
    "interval",
    "early-check",
    "alpha",
    "beta",
    "metrics-addr",
    "events-out",
];

fn cmd_run(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let iters: usize = get_uint(flags, "iters", 40);
    let mut params = PemaParams::defaults(app.slo_ms);
    params.alpha = get_f64(flags, "alpha", params.alpha);
    params.beta = get_f64(flags, "beta", params.beta);
    params.seed = get_uint(flags, "seed", 7);
    let seed = params.seed ^ 0x5EED;
    let mut builder = Experiment::builder()
        .app(&app)
        .policy(Pema(params))
        .config(HarnessConfig {
            interval_s: get_f64(flags, "interval", 40.0),
            warmup_s: 4.0,
            seed,
        });
    if let Some(s) = flags.get("early-check") {
        builder = builder.early_check(s.parse().unwrap_or(10.0));
    }
    let wires = telemetry_wires(flags);
    if let Some(hub) = &wires.hub {
        builder = builder.telemetry(hub);
    }
    if let Some(sink) = &wires.events {
        builder = builder.events(sink.clone());
    }
    let mut runner = builder.build();
    println!(
        "PEMA on {} @ {rps} rps, {iters} intervals (start {:.1} cores)",
        app.name,
        app.generous_alloc.iter().sum::<f64>()
    );
    println!(
        "{:>4} {:>9} {:>9} {:>12}",
        "iter", "totalCPU", "p95(ms)", "action"
    );
    for _ in 0..iters {
        let l = runner.step_once(rps).clone();
        println!(
            "{:>4} {:>9.2} {:>9.1} {:>12}",
            l.iter, l.total_cpu, l.p95_ms, l.action
        );
    }
    let r = runner.into_result();
    println!(
        "\nsettled: {:.2} cores | violations: {} ({:.1}%) | time in violation: {:.0}s",
        r.settled_total(8),
        r.violations(),
        r.violation_rate() * 100.0,
        r.violating_time_s()
    );
    if let Some(sink) = &wires.events {
        sink.flush();
    }
}

const RULE_FLAGS: &[&str] = &["app", "rps", "iters", "interval", "seed"];

fn cmd_rule(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let iters: usize = get_uint(flags, "iters", 12);
    let r = Experiment::builder()
        .app(&app)
        .policy(Rule)
        .config(HarnessConfig {
            interval_s: get_f64(flags, "interval", 40.0),
            warmup_s: 4.0,
            seed: get_uint(flags, "seed", 7),
        })
        .rps(rps)
        .iters(iters)
        .run();
    for l in &r.log {
        println!("{:>4} {:>9.2} {:>9.1}", l.iter, l.total_cpu, l.p95_ms);
    }
    println!(
        "\nRULE settled: {:.2} cores | violations {:.1}%",
        r.settled_total(4),
        r.violation_rate() * 100.0
    );
}

const OPTIMUM_FLAGS: &[&str] = &["app", "rps", "seed"];

fn cmd_optimum(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let seed: u64 = get_uint(flags, "seed", 7);
    println!("searching OPTM for {} @ {rps} rps…", app.name);
    match optimum_for(&app, rps, seed) {
        Ok(opt) => {
            println!(
                "optimum total = {:.2} cores (p95 {:.1} ms, {} evaluations)",
                opt.total, opt.p95_ms, opt.evaluations
            );
            for (name, cores) in app.service_names().iter().zip(opt.alloc.0.iter()) {
                println!("  {name:>18}  {cores:.2}");
            }
        }
        Err(e) => {
            eprintln!("search failed: {e}");
            exit(1);
        }
    }
}

const CLASSIFY_FLAGS: &[&str] = &["app", "service", "rps"];

fn cmd_classify(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let service = flags.get("service").unwrap_or_else(|| {
        eprintln!("--service is required");
        exit(2);
    });
    let cfg = pema::pema_classifier::DatasetConfig {
        rps,
        ..Default::default()
    };
    let ds = pema::pema_classifier::generate_dataset(&app, &[service], &cfg);
    println!(
        "dataset: {} samples ({} positives)",
        ds.len(),
        ds.positives()
    );
    for (fset, acc) in pema::pema_classifier::feature_study(&ds, 5, 1) {
        println!("  {fset:<16} {:.1}%", acc * 100.0);
    }
}

const RECORD_FLAGS: &[&str] = &[
    "app",
    "rps",
    "out",
    "iters",
    "policy",
    "interval",
    "warmup",
    "seed",
    "early-check",
];

/// Records a DES run into a trace file (`pema-cli record`). The trace
/// carries everything `replay` needs: app identity, harness timing,
/// seeds, and the full per-interval telemetry.
fn cmd_record(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let out = flags.get("out").cloned().unwrap_or_else(|| {
        eprintln!("--out is required (path the .jsonl trace is written to)");
        exit(2);
    });
    let iters: usize = get_uint(flags, "iters", 20);
    let policy_name = flags.get("policy").map(String::as_str).unwrap_or("pema");
    let cfg = HarnessConfig {
        interval_s: get_f64(flags, "interval", 40.0),
        warmup_s: get_f64(flags, "warmup", 4.0),
        seed: get_uint(flags, "seed", 7),
    };
    let early_check = flags.get("early-check").map(|s| s.parse().unwrap_or(10.0));

    let mut builder = Experiment::builder()
        .app(&app)
        .config(cfg)
        .rps(rps)
        .iters(iters);
    if let Some(s) = early_check {
        builder = builder.early_check(s);
    }
    let make_recorder = |tag: &str, seed: u64| {
        let recorder = TraceRecorder::new(&app, tag, seed, &cfg);
        match early_check {
            Some(s) => recorder.with_early_check(s),
            None => recorder,
        }
    };
    let (result, handle) = match policy_name {
        "pema" => {
            let mut params = PemaParams::defaults(app.slo_ms);
            params.seed = cfg.seed;
            let recorder = make_recorder("pema", params.seed);
            let handle = recorder.handle();
            (
                builder.policy(Pema(params)).observer(recorder).run(),
                handle,
            )
        }
        "rule" => {
            let recorder = make_recorder("rule", 0);
            let handle = recorder.handle();
            (builder.policy(Rule).observer(recorder).run(), handle)
        }
        other => {
            eprintln!("unknown --policy '{other}' (record supports pema, rule)");
            exit(2);
        }
    };

    let trace = handle.take();
    if let Err(e) = trace.write_file(&out) {
        eprintln!("{e}");
        exit(1);
    }
    println!(
        "recorded {} intervals of {policy_name} on {} @ {rps} rps → {out}\n\
         settled: {:.2} cores | violations: {} ({:.1}%)",
        trace.records.len(),
        app.name,
        result.settled_total(8),
        result.violations(),
        result.violation_rate() * 100.0,
    );
}

const REPLAY_FLAGS: &[&str] = &["trace", "lenient", "policy", "assert-zero-divergence"];

/// Replays a recorded trace under a (possibly different) policy and
/// prints the counterfactual comparison (`pema-cli replay`).
fn cmd_replay(flags: &HashMap<String, String>) {
    let path = flags.get("trace").unwrap_or_else(|| {
        eprintln!("--trace is required (a .jsonl file written by `record`)");
        exit(2);
    });
    let mode = if flags.contains_key("lenient") {
        ReadMode::Lenient
    } else {
        ReadMode::Strict
    };
    let trace = Trace::read_file(path, mode).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    let policy_name = flags
        .get("policy")
        .cloned()
        .unwrap_or_else(|| trace.meta.policy.clone());

    let rerun = match policy_name.as_str() {
        "pema" => {
            let mut params = PemaParams::defaults(trace.meta.slo_ms);
            params.seed = trace.meta.policy_seed;
            replay(
                &trace,
                PemaController::new(params, trace.meta.initial_alloc.clone()),
            )
        }
        "rule" => {
            let app = pema::pema_apps::by_name(&trace.meta.app).unwrap_or_else(|| {
                eprintln!(
                    "trace app '{}' is not a bundled app; the rule baseline needs its spec",
                    trace.meta.app
                );
                exit(2);
            });
            replay(&trace, RulePolicy::new(&app).with_slo_ms(trace.meta.slo_ms))
        }
        "hold" => replay(
            &trace,
            HoldPolicy::new(trace.meta.initial_alloc.clone(), trace.meta.slo_ms),
        ),
        other => {
            eprintln!("unknown --policy '{other}' (replay supports pema, rule, hold)");
            exit(2);
        }
    };

    println!(
        "replayed {} recorded intervals ({} on {}) under {policy_name}",
        trace.records.len(),
        trace.meta.policy,
        trace.meta.app
    );
    println!(
        "{:>4} {:>10} {:>10} {:>8} {:>9} {:>9} {:>8} {:>12}",
        "iter", "recCPU", "replayCPU", "L1Δ", "recP95", "estP95", "wouldVio", "action"
    );
    let fmt_ms = |v: f64| {
        if v.is_finite() {
            format!("{v:.1}")
        } else {
            "sat".into()
        }
    };
    for (d, l) in rerun.divergence.iter().zip(&rerun.result.log) {
        println!(
            "{:>4} {:>10.2} {:>10.2} {:>8.2} {:>9} {:>9} {:>8} {:>12}",
            d.iter,
            d.recorded_total,
            d.replay_total,
            d.l1_delta,
            fmt_ms(d.recorded_p95_ms),
            fmt_ms(d.estimated_p95_ms),
            if d.would_violate { "yes" } else { "-" },
            l.action
        );
    }
    let s = &rerun.summary;
    println!(
        "\ndiverged {}/{} intervals | mean Δtotal {:+.2} cores | max L1 {:.2} | \
         violations recorded {} vs counterfactual {}",
        s.diverged_intervals,
        s.intervals,
        s.mean_total_delta,
        s.max_l1,
        s.recorded_violations,
        s.would_violations
    );
    if s.diverged_intervals > 0 {
        println!(
            "counterfactual p95 estimate: mean Δ {:+.2} ms vs tape | max |Δ| {:.2} ms | \
             {} window(s) saturated",
            s.mean_p95_delta_ms, s.max_p95_delta_ms, s.saturated_intervals
        );
    }
    if flags.contains_key("assert-zero-divergence") {
        if s.is_zero() {
            println!("zero divergence: replay tracked the recording exactly");
        } else {
            eprintln!("ASSERTION FAILED: replay diverged from the recording");
            exit(1);
        }
    }
}

const FLEET_FLAGS: &[&str] = &[
    "count",
    "iters",
    "interval",
    "seed",
    "app",
    "policy",
    "backend",
    "threads",
    "pace",
    "rps",
    "budget",
    "arbitration",
    "priority",
    "metrics-addr",
    "events-out",
];

/// Drives `--count` control loops concurrently from this one process
/// (`pema-cli fleet`): the CLI face of `pema_control::Fleet`. Apps,
/// policies, and loads cycle deterministically when `mixed`.
fn cmd_fleet(flags: &HashMap<String, String>) {
    let count: usize = get_uint(flags, "count", 8);
    if count == 0 {
        eprintln!("--count must be at least 1");
        exit(2);
    }
    let iters: usize = get_uint(flags, "iters", 10);
    if iters == 0 {
        eprintln!("--iters must be at least 1");
        exit(2);
    }
    let interval_s = get_f64(flags, "interval", 40.0);
    let seed0: u64 = get_uint(flags, "seed", 7);
    let app_sel = flags.get("app").map(String::as_str).unwrap_or("mixed");
    let policy_sel = flags.get("policy").map(String::as_str).unwrap_or("mixed");
    let backend_sel = flags.get("backend").map(String::as_str).unwrap_or("fluid");
    if !matches!(backend_sel, "sim" | "fluid") {
        eprintln!("--backend must be sim or fluid, got '{backend_sel}'");
        exit(2);
    }
    // 0 = one shard per core; output is byte-identical for any value.
    let threads: usize = get_uint(flags, "threads", 1);
    let pace = match flags.get("pace").map(String::as_str).unwrap_or("virtual") {
        "virtual" => Clock::Virtual,
        "wall" => Clock::Wall,
        other => {
            eprintln!("--pace must be virtual or wall, got '{other}'");
            exit(2);
        }
    };

    // (app, nominal rps) templates the members cycle through.
    let templates: Vec<(AppSpec, f64)> = match app_sel {
        "mixed" => pema::pema_apps::fleet_mix(),
        name => {
            let app = pema::pema_apps::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown app '{name}' (try `pema-cli apps`, or 'mixed')");
                exit(2);
            });
            let rps = get_f64(flags, "rps", 0.0);
            if rps <= 0.0 {
                eprintln!("--rps is required with a single --app");
                exit(2);
            }
            vec![(app, rps)]
        }
    };
    let rps_override = flags.get("rps").map(|_| get_f64(flags, "rps", 0.0));
    let policies = ["pema", "rule", "hold"];

    // Arbitration: --budget enables it (default fair); --arbitration
    // fair|aimd|off picks the policy; --priority P1,P2,… cycles
    // priority classes across the members.
    let budget = flags.get("budget").map(|_| get_f64(flags, "budget", 0.0));
    let arb_sel = flags
        .get("arbitration")
        .map(String::as_str)
        .unwrap_or(if budget.is_some() { "fair" } else { "off" });
    if !matches!(arb_sel, "fair" | "aimd" | "off") {
        eprintln!("--arbitration must be fair, aimd, or off, got '{arb_sel}'");
        exit(2);
    }
    if arb_sel != "off" && budget.is_none() {
        eprintln!("--arbitration {arb_sel} requires --budget <cores>");
        exit(2);
    }
    if let Some(b) = budget {
        if b <= 0.0 {
            eprintln!("--budget must be positive, got {b}");
            exit(2);
        }
    }
    let priorities: Vec<i32> = flags
        .get("priority")
        .map(|s| {
            s.split(',')
                .map(|t| {
                    t.trim().parse().unwrap_or_else(|_| {
                        eprintln!("--priority expects integers, e.g. 2,1,0 (got '{t}')");
                        exit(2)
                    })
                })
                .collect()
        })
        .unwrap_or_default();

    let wires = telemetry_wires(flags);
    let mut fleet = Fleet::new().threads(threads).pace(pace);
    if let Some(hub) = &wires.hub {
        fleet = fleet.telemetry(hub);
    }
    if let Some(sink) = &wires.events {
        fleet = fleet.events(sink.clone());
    }
    let mut labels = Vec::new();
    for i in 0..count {
        let (app, nominal) = &templates[i % templates.len()];
        let rps = rps_override
            .unwrap_or_else(|| pema::pema_apps::fleet_rps(*nominal, i, templates.len()));
        let policy = match policy_sel {
            "mixed" => policies[i % policies.len()],
            p if policies.contains(&p) => p,
            other => {
                eprintln!("unknown --policy '{other}' (pema, rule, hold, mixed)");
                exit(2);
            }
        };
        let cfg = HarnessConfig {
            interval_s,
            warmup_s: 4.0,
            seed: seed0.wrapping_add(i as u64),
        };
        let prio = if priorities.is_empty() {
            0
        } else {
            priorities[i % priorities.len()]
        };
        let spec = MemberSpec::new()
            .name(format!("{}-{i}", app.name))
            .priority(prio)
            .app(app)
            .config(cfg)
            .rps(rps)
            .iters(iters);
        // The backend × policy grid, spelled out: the spec is generic
        // over both slots, so each combination is its own type.
        fleet = match (backend_sel, policy) {
            ("fluid", "pema") => {
                let mut p = PemaParams::defaults(app.slo_ms);
                p.seed = seed0 ^ i as u64;
                fleet.member(spec.backend(UseFluid).policy(Pema(p)))
            }
            ("fluid", "rule") => fleet.member(spec.backend(UseFluid).policy(Rule)),
            ("fluid", _) => fleet.member(
                spec.backend(UseFluid)
                    .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms)),
            ),
            (_, "pema") => {
                let mut p = PemaParams::defaults(app.slo_ms);
                p.seed = seed0 ^ i as u64;
                fleet.member(spec.policy(Pema(p)))
            }
            (_, "rule") => fleet.member(spec.policy(Rule)),
            _ => fleet.member(spec.policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))),
        };
        labels.push((policy, rps));
    }
    if let Some(b) = budget {
        fleet = match arb_sel {
            "fair" => fleet.arbitration(b, WeightedFairShare::new()),
            "aimd" => fleet.arbitration(b, AimdBackoff::new()),
            _ => {
                println!("note: --budget {b} ignored (--arbitration off)");
                fleet
            }
        };
    }

    println!(
        "fleet: {count} loops × {iters} intervals on one process \
         ({backend_sel} backend, {policy_sel} policies, {} worker thread(s){})",
        resolve_threads(threads).min(count),
        match (arb_sel, budget) {
            ("off", _) | (_, None) => String::new(),
            (p, Some(b)) => format!(", {p} arbitration over {b} cores"),
        }
    );
    let t0 = std::time::Instant::now();
    let result = fleet.run();
    let wall = t0.elapsed();
    if let Some(sink) = &wires.events {
        sink.flush();
    }
    println!(
        "{:<22} {:>6} {:>7} {:>10} {:>6} {:>9}",
        "member", "policy", "rps", "settledCPU", "viol", "end(s)"
    );
    for (run, (policy, rps)) in result.runs.iter().zip(&labels) {
        println!(
            "{:<22} {:>6} {:>7.0} {:>10.2} {:>6} {:>9.0}",
            run.name,
            policy,
            rps,
            run.result.settled_total(8),
            run.result.violations(),
            run.end_s
        );
    }
    println!(
        "\nfleet done in {wall:.2?}: {} app-intervals ({:.0}/sec), {} scheduler polls, virtual span {:.0} s",
        result.total_intervals(),
        result.total_intervals() as f64 / wall.as_secs_f64().max(1e-9),
        result.polls,
        result.span_s()
    );
    if let Some(arb) = &result.arbitration {
        println!(
            "arbitration [{}]: budget {:.1} cores, {} rounds ({} contended), \
             fleet grant ratio {:.3}",
            arb.policy,
            arb.budget,
            arb.rounds,
            arb.contended_rounds,
            arb.grant_ratio()
        );
        for (run, m) in result.runs.iter().zip(&arb.members) {
            if m.cuts > 0 {
                println!(
                    "  {}: cut in {} of {} rounds (granted {:.1} of {:.1} core-intervals)",
                    run.name, m.cuts, m.rounds, m.granted_sum, m.proposed_sum
                );
            }
        }
    }
}

const LIVE_FLAGS: &[&str] = &[
    "app",
    "rps",
    "iters",
    "interval",
    "warmup",
    "seed",
    "fake",
    "dry-run",
    "prometheus",
    "kube",
    "token",
    "namespace",
    "out",
    "metrics-addr",
    "events-out",
];

/// Drives the PEMA controller against the live-cluster adapter
/// (`pema-cli live`): Prometheus range queries for measurement and
/// Kubernetes CPU-limit PATCHes for actuation — or, with `--fake`, an
/// in-process `FakeCluster` over real loopback HTTP (virtual time, no
/// cluster required). `--dry-run` records decisions without patching;
/// `--out` writes the run as a trace replayable by `pema-cli replay`.
fn cmd_live(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let iters: usize = get_uint(flags, "iters", 6);
    let cfg = HarnessConfig {
        interval_s: get_f64(flags, "interval", 8.0),
        warmup_s: get_f64(flags, "warmup", 1.0),
        seed: get_uint(flags, "seed", 7),
    };
    let fake = flags.contains_key("fake");
    let live_cfg = LiveConfig {
        dry_run: flags.contains_key("dry-run"),
        ..Default::default()
    };

    let wires = telemetry_wires(flags);
    let backend: Box<dyn ClusterBackend> = if fake {
        let mut fl = pema::pema_live::live_over_fake_with(&app, rps, live_cfg.clone());
        if let Some(hub) = &wires.hub {
            fl.backend.set_telemetry(hub);
        }
        Box::new(fl)
    } else {
        let prom_url = flags.get("prometheus").unwrap_or_else(|| {
            eprintln!("--prometheus is required without --fake (e.g. http://localhost:9090)");
            exit(2);
        });
        let kube_url = flags.get("kube").unwrap_or_else(|| {
            eprintln!("--kube is required without --fake (e.g. http://localhost:8443)");
            exit(2);
        });
        let parse_ep = |url: &str, what: &str| {
            pema::pema_live::Endpoint::parse(url).unwrap_or_else(|e| {
                eprintln!("bad --{what} '{url}': {e}");
                exit(2);
            })
        };
        let http = pema::pema_live::HttpClient::default();
        let prom = pema::pema_live::PromClient {
            endpoint: parse_ep(prom_url, "prometheus"),
            http: http.clone(),
        };
        let kube = pema::pema_live::KubeClient {
            config: KubeConfigLite {
                server: parse_ep(kube_url, "kube"),
                token: flags.get("token").cloned(),
                namespace: flags
                    .get("namespace")
                    .cloned()
                    .unwrap_or_else(|| "default".into()),
            },
            http,
        };
        let mut lb = LiveBackend::new(
            &app,
            prom,
            kube,
            Box::new(WallClock::new()),
            live_cfg.clone(),
        );
        if let Some(hub) = &wires.hub {
            lb.set_telemetry(hub);
        }
        Box::new(lb)
    };

    let mut params = PemaParams::defaults(app.slo_ms);
    params.seed = cfg.seed;
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
    let handle = recorder.handle();
    let mut control = ControlLoop::new(
        backend,
        PemaController::new(params, app.generous_alloc.clone()),
        cfg,
    )
    .observe(recorder);
    if let Some(hub) = &wires.hub {
        let mut tel = LoopTelemetry::new(hub, &app.name);
        if let Some(sink) = &wires.events {
            tel = tel.with_events(sink.clone());
        }
        control.set_telemetry(tel);
    }

    println!(
        "live PEMA on {} @ {rps} rps, {iters} intervals{}{}",
        app.name,
        if live_cfg.dry_run {
            " (dry run: no PATCHes)"
        } else {
            ""
        },
        if fake { " [FakeCluster]" } else { "" },
    );
    println!(
        "{:>4} {:>9} {:>9} {:>12}",
        "iter", "totalCPU", "p95(ms)", "action"
    );
    for _ in 0..iters {
        let l = control.step_once(rps).clone();
        println!(
            "{:>4} {:>9.2} {:>9.1} {:>12}",
            l.iter, l.total_cpu, l.p95_ms, l.action
        );
    }
    let r = control.into_result();
    if let Some(sink) = &wires.events {
        sink.flush();
    }
    println!(
        "\nsettled: {:.2} cores | violations: {} ({:.1}%)",
        r.settled_total(8),
        r.violations(),
        r.violation_rate() * 100.0
    );
    if let Some(out) = flags.get("out") {
        let trace = handle.take();
        if let Err(e) = trace.write_file(out) {
            eprintln!("{e}");
            exit(1);
        }
        println!("trace written → {out} (replay with `pema-cli replay --trace {out}`)");
    }
}

const TRACE_FLAGS: &[&str] = &["app", "rps", "seed", "starve"];

fn cmd_trace(flags: &HashMap<String, String>) {
    let app = get_app(flags);
    let rps = require_f64(flags, "rps");
    let mut sim = ClusterSim::new(&app, get_uint(flags, "seed", 7));
    let mut alloc = Allocation::new(app.generous_alloc.clone());
    if let Some(spec) = flags.get("starve") {
        let (name, frac) = spec.split_once('=').unwrap_or_else(|| {
            eprintln!("--starve expects service=fraction, e.g. carts=0.45");
            exit(2);
        });
        let sid = app.service_by_name(name).unwrap_or_else(|| {
            eprintln!("unknown service '{name}'");
            exit(2);
        });
        let f: f64 = frac.parse().unwrap_or(0.5);
        alloc.scale_service(sid.0, f);
        println!("starving {name} to {f}× its generous allocation");
    }
    sim.set_allocation(&alloc);
    sim.set_trace_sampling(0.25);
    let stats = sim.run_window(rps, 4.0, 30.0);
    let traces = sim.take_traces();
    println!(
        "p95 = {:.1} ms (SLO {} ms), {} traces",
        stats.p95_ms,
        app.slo_ms,
        traces.len()
    );
    let tail: Vec<_> = pema::pema_sim::tail_traces(&traces, 0.95)
        .into_iter()
        .cloned()
        .collect();
    let attr = pema::pema_sim::attribute(&tail, app.n_services());
    let names = app.service_names();
    let mut rows: Vec<(usize, f64)> = attr
        .iter()
        .enumerate()
        .filter(|(_, a)| a.visits > 0)
        .map(|(i, a)| (i, a.exclusive_s / a.visits as f64 * 1e3))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("mean exclusive time in the slowest 5% of requests:");
    for (i, ms) in rows.iter().take(8) {
        println!("  {:>18}  {ms:.2} ms", names[*i]);
    }
}
