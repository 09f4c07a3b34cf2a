//! `pema-cli` — the one executable of the PEMA reproduction: one
//! control loop (`run`: a policy by name on a backend by name,
//! optionally taped; `live`: the same loop on the live adapter), the
//! fleet, trace replay and the experiment suite (`list`, `all`,
//! `run <id>…`).
//!
//! Run `pema-cli help` for the commands and `pema-cli <command> --help`
//! for a command's flags. Both texts, the argument parser and every
//! usage error are generated from [`COMMANDS`]; nothing else in this
//! file names a flag except the accessor call that reads it.
//!
//! Everything is deterministic given `--seed`; the experiment suite is
//! deterministic for any `--jobs` value. Exit codes: 0 ok, 1 the run
//! failed (a scenario `FAILED`, a lint violation, an I/O error), 2
//! usage error.

use pema::prelude::*;
use pema_bench::{fleet_member, paper_apps, registry, run_suite, BackendSel, Outcome, SuiteConfig};
use std::fmt::{Display, Write as _};
use std::process::exit;

// ---- the command table ----

/// What a flag's value is. Valued kinds carry the metavar the help
/// text shows.
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// A non-negative integer.
    Uint(&'static str),
    /// A finite number.
    Num(&'static str),
    /// Any text.
    Text(&'static str),
    /// A comma-separated list of integers.
    Ints(&'static str),
    /// `name=number`.
    KeyNum(&'static str),
}

/// Whether a command runs without the flag.
enum Need {
    Req,
    /// Absent means this value, parsed like a given one.
    Def(&'static str),
    Opt,
}

struct Flag {
    name: &'static str,
    kind: Kind,
    need: Need,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, need: Need, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        need,
        help,
    }
}

struct Cmd {
    name: &'static str,
    /// Metavar of the bare words the command takes (`run <id>…`);
    /// `None` for a command that takes flags only.
    words: Option<&'static str>,
    run: fn(&Args),
    about: &'static str,
    flags: &'static [Flag],
}

const fn cmd(
    name: &'static str,
    words: Option<&'static str>,
    run: fn(&Args),
    about: &'static str,
    flags: &'static [Flag],
) -> Cmd {
    Cmd {
        name,
        words,
        run,
        about,
        flags,
    }
}

use Kind::{Ints, KeyNum, Num, Switch, Text, Uint};
use Need::{Def, Opt, Req};

/// Flags several commands share, and the suite's set.
#[rustfmt::skip]
mod shared {
    use super::*;
    pub const APP: Flag = flag("app", Text("NAME"), Req, "application model (see `pema-cli apps`)");
    pub const RPS: Flag = flag("rps", Num("R"), Req, "offered load, requests/s");
    pub const SEED: Flag = flag("seed", Uint("K"), Def("7"), "RNG seed");
    pub const INTERVAL: Flag = flag("interval", Num("S"), Def("40"), "monitoring window, seconds");
    pub const POLICY: Flag =
        flag("policy", Text("pema|rule|hold"), Def("pema"), "policy driving the loop");
    pub const OUT: Flag =
        flag("out", Text("FILE"), Opt, "write the run as a replayable .jsonl trace");
    pub const METRICS_ADDR: Flag = flag(
        "metrics-addr", Text("HOST:PORT"), Opt,
        "serve self-metrics on http://HOST:PORT/metrics (port 0 = any free)",
    );
    pub const EVENTS_OUT: Flag =
        flag("events-out", Text("FILE"), Opt, "append one JSONL event per interval");
    pub const SUITE: &[Flag] = &[
        flag("jobs", Uint("N"), Def("1"), "scenario worker threads (0 = per core)"),
        flag("smoke", Switch, Opt, "seconds-scale sanity mode (fluid OPTM, tiny windows)"),
        flag("force", Switch, Opt, "re-run scenarios whose CSVs exist in $PEMA_RESULTS_DIR"),
        flag("backend", Text("sim|fluid|trace:FILE"), Def("sim"), "backend of matrix scenarios"),
        flag("fleet-threads", Uint("N"), Def("1"), "fleet-scenario shard workers (0 = per core)"),
    ];
}
use shared::*;

/// Every command, in help order. `run` is two rows: bare words first
/// select the suite subset, flags first the controller run.
#[rustfmt::skip]
const COMMANDS: &[Cmd] = &[
    cmd("apps", None, cmd_apps, "list the bundled application models", &[]),
    cmd("run", None, cmd_run, "run one control loop: a policy on a backend, a row per interval", &[
        APP, RPS,
        flag("iters", Uint("N"), Def("40"), "control intervals to run"),
        POLICY,
        flag("backend", Text("sim|fluid|trace:FILE"), Def("sim"), "what the loop runs on"),
        SEED, INTERVAL,
        flag("warmup", Num("S"), Def("4"), "settling time before each window, seconds"),
        flag("early-check", Num("S"), Opt, "§6 early violation check every S seconds"),
        flag("alpha", Num("A"), Opt, "override PEMA's alpha (default: the paper's)"),
        flag("beta", Num("B"), Opt, "override PEMA's beta (default: the paper's)"),
        OUT, METRICS_ADDR, EVENTS_OUT,
    ]),
    cmd("optimum", None, cmd_optimum, "search the OPTM allocation for one application and load", &[
        APP, RPS, SEED,
    ]),
    cmd("classify", None, cmd_classify, "bottleneck-classifier feature study (paper Table 1)", &[
        APP, RPS,
        flag("service", Text("NAME"), Req, "service to starve"),
    ]),
    cmd("trace", None, cmd_trace, "attribute tail latency to services from sampled traces", &[
        APP, RPS, SEED,
        flag("starve", KeyNum("SERVICE=FRACTION"), Opt, "scale one service's generous allocation"),
    ]),
    cmd("replay", None, cmd_replay, "replay a recorded trace under a policy; report divergence", &[
        flag("trace", Text("FILE"), Req, "a .jsonl file written by `run --out` or `live --out`"),
        flag("policy", Text("pema|rule|hold"), Opt, "counterfactual policy (default: the tape's)"),
        flag("lenient", Switch, Opt, "skip malformed records instead of failing"),
        flag("assert-zero-divergence", Switch, Opt, "exit 1 unless the replay tracked the tape"),
    ]),
    cmd("fleet", None, cmd_fleet, "drive many control loops concurrently from this one process", &[
        flag("count", Uint("N"), Def("8"), "members"),
        flag("iters", Uint("N"), Def("10"), "control intervals per member"),
        INTERVAL, SEED,
        flag("app", Text("NAME|mixed"), Def("mixed"), "one model, or the three paper apps cycled"),
        flag("policy", Text("pema|rule|hold|mixed"), Def("mixed"), "one, or all three cycled"),
        flag("backend", Text("sim|fluid"), Def("fluid"), "what every member runs on"),
        flag("threads", Uint("T"), Def("1"), "shard workers (0 = one per core; output identical)"),
        flag("rps", Num("R"), Opt, "load of every member (required with a single --app)"),
        flag("budget", Num("CORES"), Opt, "share a CPU budget across the members"),
        flag("arbitration", Text("fair|aimd"), Opt, "budget policy (fair if --budget is set)"),
        flag("priority", Ints("P1,P2,…"), Opt, "priority classes, cycled over the members"),
        METRICS_ADDR, EVENTS_OUT,
    ]),
    cmd("live", None, cmd_live, "`run` against Prometheus + Kubernetes, or a FakeCluster", &[
        APP, RPS,
        flag("iters", Uint("N"), Def("6"), "control intervals to run"),
        POLICY,
        flag("interval", Num("S"), Def("8"), "monitoring window, seconds"),
        flag("warmup", Num("S"), Def("1"), "settling time before each window, seconds"),
        SEED,
        flag("fake", Switch, Opt, "in-process FakeCluster over loopback HTTP, virtual time"),
        flag("dry-run", Switch, Opt, "record decisions, never PATCH"),
        flag("prometheus", Text("URL"), Opt, "Prometheus endpoint, e.g. http://localhost:9090"),
        flag("kube", Text("URL"), Opt, "Kubernetes API endpoint, e.g. http://localhost:8443"),
        flag("token", Text("T"), Opt, "bearer token for the Kubernetes API"),
        flag("namespace", Text("NS"), Def("default"), "namespace of the deployments"),
        OUT, METRICS_ADDR, EVENTS_OUT,
    ]),
    cmd("metrics", None, cmd_metrics, "scrape a /metrics endpoint once and lint the exposition", &[
        flag("addr", Text("HOST:PORT"), Req, "a running --metrics-addr listener"),
        flag("out", Text("FILE"), Opt, "also write the raw scrape to FILE"),
        flag("print", Switch, Opt, "print a clean scrape (ignored with --out)"),
    ]),
    cmd("list", None, cmd_list, "list the registered experiment scenarios", &[]),
    cmd("all", None, cmd_suite, "run the whole experiment suite", SUITE),
    cmd("run", Some("<id>…"), cmd_suite, "run the named scenarios (see `pema-cli list`)", SUITE),
];

// ---- parser, accessors and help, all read off the table ----

enum Value {
    On,
    Uint(u64),
    Num(f64),
    Text(String),
    Ints(Vec<i32>),
    KeyNum(String, f64),
}

/// A usage or configuration error: say it and exit 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// The run itself failed: say it and exit 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    exit(1);
}

impl Flag {
    fn metavar(&self) -> Option<&'static str> {
        match self.kind {
            Switch => None,
            Uint(m) | Num(m) | Text(m) | Ints(m) | KeyNum(m) => Some(m),
        }
    }

    /// Parses a value of this flag's kind; the error names the flag,
    /// what it takes and what it got.
    fn parse(&self, raw: &str) -> Result<Value, String> {
        let num = |s: &str| s.parse::<f64>().ok().filter(|v| v.is_finite());
        let (value, what) = match self.kind {
            Switch => (Some(Value::On), ""),
            Uint(_) => (raw.parse().ok().map(Value::Uint), "a non-negative integer"),
            Num(_) => (num(raw).map(Value::Num), "a number"),
            Text(_) => (Some(Value::Text(raw.to_string())), ""),
            Ints(_) => (
                raw.split(',')
                    .map(|t| t.trim().parse().ok())
                    .collect::<Option<_>>()
                    .map(Value::Ints),
                "comma-separated integers, e.g. 2,1,0",
            ),
            KeyNum(_) => (
                raw.split_once('=')
                    .and_then(|(k, v)| Some(Value::KeyNum(k.to_string(), num(v)?))),
                "name=number, e.g. carts=0.45",
            ),
        };
        value.ok_or_else(|| format!("--{} must be {what}, got '{raw}'", self.name))
    }
}

/// A command line parsed against its [`Cmd`] row: one slot per
/// declared flag, defaults filled in, every value already of its kind.
struct Args {
    cmd: &'static Cmd,
    values: Vec<Option<Value>>,
    words: Vec<String>,
}

impl Args {
    /// Parses `--name [value]` pairs (and bare words, for a command
    /// that takes them). Anything the row does not declare, a value
    /// that is missing, surplus or not of the flag's kind, and an
    /// absent required flag are usage errors.
    fn parse(cmd: &'static Cmd, argv: &[String]) -> Self {
        let mut values: Vec<Option<Value>> = cmd.flags.iter().map(|_| None).collect();
        let mut words = Vec::new();
        let mut after_switch = None;
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if cmd.words.is_none() {
                    match after_switch {
                        Some(s) => usage_error(format!("--{s} takes no value, got '{arg}'")),
                        None => usage_error(format!("unexpected argument '{arg}'")),
                    }
                }
                words.push(arg.clone());
                continue;
            };
            let Some(i) = cmd.flags.iter().position(|f| f.name == name) else {
                let c = cmd.name;
                usage_error(format!(
                    "unknown flag '{arg}' for '{c}' (see `pema-cli {c} --help`)"
                ));
            };
            let flag = &cmd.flags[i];
            after_switch = None;
            values[i] = Some(match flag.metavar() {
                None => {
                    after_switch = Some(name);
                    Value::On
                }
                Some(metavar) => match it.next_if(|v| !v.starts_with("--")) {
                    Some(raw) => flag.parse(raw).unwrap_or_else(|e| usage_error(e)),
                    None => usage_error(format!("--{name} needs a value ({metavar})")),
                },
            });
        }
        for (flag, slot) in cmd.flags.iter().zip(&mut values) {
            match flag.need {
                Def(d) if slot.is_none() => {
                    *slot = Some(flag.parse(d).expect("table default parses"));
                }
                Req if slot.is_none() => {
                    usage_error(format!("--{} is required: {}", flag.name, flag.help))
                }
                _ => {}
            }
        }
        Self { cmd, values, words }
    }

    fn value(&self, name: &str) -> Option<&Value> {
        let i = self.cmd.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("'{}' does not declare --{name}", self.cmd.name));
        self.values[i].as_ref()
    }

    /// Whether the flag was given — all there is to a switch.
    fn on(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The flag's value, or `None` for an optional flag left out.
    fn opt<'a, T: FromValue<'a>>(&'a self, name: &str) -> Option<T> {
        let read = |v| T::from_value(v).unwrap_or_else(|| panic!("--{name} is not of that kind"));
        self.value(name).map(read)
    }

    /// The value of a flag that always has one (required or defaulted).
    fn get<'a, T: FromValue<'a>>(&'a self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("--{name} is optional: read it with opt()"))
    }
}

/// The Rust type a flag of each valued [`Kind`] is read as.
trait FromValue<'a>: Sized {
    fn from_value(v: &'a Value) -> Option<Self>;
}

macro_rules! read_as {
    ($ty:ty, $pat:pat => $out:expr) => {
        impl<'a> FromValue<'a> for $ty {
            fn from_value(v: &'a Value) -> Option<Self> {
                match v {
                    $pat => Some($out),
                    _ => None,
                }
            }
        }
    };
}
read_as!(u64, Value::Uint(n) => *n);
read_as!(usize, Value::Uint(n) => usize::try_from(*n).unwrap_or(usize::MAX));
read_as!(f64, Value::Num(x) => *x);
read_as!(&'a str, Value::Text(s) => s);
read_as!(&'a [i32], Value::Ints(l) => l);
read_as!((&'a str, f64), Value::KeyNum(k, x) => (k.as_str(), *x));

/// `pema-cli help`: every command and its one-line purpose.
fn help() -> String {
    let mut out = String::from(
        "pema-cli — PEMA microservice autoscaling (HPDC '22 reproduction)\n\n\
         usage: pema-cli <command> [--flag [value]]…\n\
         \x20      pema-cli help <command>    a command's flags (or: pema-cli <command> --help)\n\n\
         commands:\n",
    );
    for c in COMMANDS {
        let left = format!("{} {}", c.name, c.words.unwrap_or(""));
        let _ = writeln!(out, "  {left:<12} {}", c.about);
    }
    out.push_str("\nexit codes: 0 ok, 1 the run failed, 2 usage error\n");
    out
}

/// `pema-cli <command> --help`: one row's flags.
fn command_help(c: &Cmd) -> String {
    let words = c.words.map(|w| format!(" {w}")).unwrap_or_default();
    let mut out = format!("pema-cli {}{words} — {}\n", c.name, c.about);
    for f in c.flags {
        let left = format!("--{} {}", f.name, f.metavar().unwrap_or(""));
        let note = match f.need {
            Req => " (required)".to_string(),
            Def(d) => format!(" (default {d})"),
            Opt => String::new(),
        };
        let _ = writeln!(out, "  {left:<31} {}{note}", f.help);
    }
    let _ = writeln!(out, "  {:<31} print this text", "--help");
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        usage_error(help());
    };
    // `help [command]`, or `--help` anywhere after a command.
    let (topic, helping) = match name.as_str() {
        "help" | "--help" | "-h" => (rest.first(), true),
        _ => (Some(name), rest.iter().any(|a| a == "--help")),
    };
    let Some(name) = topic else {
        return print!("{}", help());
    };
    let rows: Vec<&Cmd> = COMMANDS.iter().filter(|c| c.name == *name).collect();
    let Some(first) = rows.first() else {
        usage_error(format!("unknown command '{name}' (see `pema-cli help`)"));
    };
    if helping {
        return rows.iter().for_each(|c| print!("{}", command_help(c)));
    }
    // `run` is two rows: bare words first pick the one that takes them.
    let wordy = rest.first().is_some_and(|a| !a.starts_with("--"));
    let cmd = rows.iter().find(|c| c.words.is_some() == wordy);
    let cmd = cmd.unwrap_or(first);
    (cmd.run)(&Args::parse(cmd, rest));
}

// ---- the commands ----

fn get_app(args: &Args) -> AppSpec {
    let name: &str = args.get("app");
    pema_apps::by_name(name)
        .unwrap_or_else(|| usage_error(format!("unknown app '{name}' (try `pema-cli apps`)")))
}

/// `--policy` (or a tape's), wherever it appears: the one place this
/// file turns a name into a policy.
fn named_policy(name: &str, slo_ms: f64, start: &[f64], seed: u64) -> Box<dyn Policy + Send> {
    policy_by_name(name, slo_ms, start, seed)
        .unwrap_or_else(|| usage_error(format!("unknown --policy '{name}' (pema, rule, hold)")))
}

/// `--backend`, wherever it appears.
fn backend_sel(args: &Args) -> BackendSel {
    BackendSel::parse(args.get("backend")).unwrap_or_else(|e| usage_error(e))
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

impl TelemetryWires {
    fn new(args: &Args) -> Self {
        let addr: Option<&str> = args.opt("metrics-addr");
        let path: Option<&str> = args.opt("events-out");
        // Events ride on the per-loop instrumentation, so a sink implies
        // a registry even when nothing scrapes it.
        let hub = (addr.is_some() || path.is_some()).then(Telemetry::new);
        let server = addr.map(|addr| {
            let hub = hub.clone().expect("an address implies a hub");
            let server = MetricsServer::serve(addr, hub).unwrap_or_else(|e| {
                usage_error(format!("cannot serve metrics on '{addr}': {e}"));
            });
            println!("metrics: http://{}/metrics", server.local_addr());
            server
        });
        let events = path.map(|path| {
            EventSink::to_file(path).unwrap_or_else(|e| {
                usage_error(format!("cannot open --events-out '{path}': {e}"));
            })
        });
        Self {
            hub,
            events,
            _server: server,
        }
    }

    fn flush(&self) {
        if let Some(sink) = &self.events {
            sink.flush();
        }
    }
}

/// The one loop of `run` and `live` — Fig. 9 with its three parts
/// chosen by name: `--policy` decides, `backend` (`on` says what it is)
/// measures and actuates, and `--out` tapes the run. One row per
/// interval. `tuned` is `run`'s `--alpha/--beta` PEMA, `early_check_s`
/// its `--early-check`; the policy and the backend share `--seed`.
fn control_loop(
    args: &Args,
    app: &AppSpec,
    wires: &TelemetryWires,
    backend: Box<dyn ClusterBackend>,
    on: &str,
    tuned: Option<PemaParams>,
    early_check_s: Option<f64>,
) {
    let rps: f64 = args.get("rps");
    let iters: usize = args.get("iters");
    let cfg = HarnessConfig {
        interval_s: args.get("interval"),
        warmup_s: args.get("warmup"),
        seed: args.get("seed"),
    };
    let name: &str = args.get("policy");
    let start = &app.generous_alloc;
    let policy = match tuned {
        Some(_) if name != "pema" => usage_error(format!(
            "--alpha and --beta tune pema, not --policy '{name}'"
        )),
        Some(params) => Box::new(PemaController::new(params, start.clone())),
        None => named_policy(name, app.slo_ms, start, cfg.seed),
    };
    // RULE and HOLD take no seed, and their tapes say 0.
    let policy_seed = if name == "pema" { cfg.seed } else { 0 };
    let mut recorder = TraceRecorder::new(app, name, policy_seed, &cfg);
    let mut builder = Experiment::builder()
        .app(app)
        .policy(policy)
        .backend(backend)
        .config(cfg);
    if let Some(s) = early_check_s {
        builder = builder.early_check(s);
        recorder = recorder.with_early_check(s);
    }
    let tape = recorder.handle();
    let out: Option<&str> = args.opt("out");
    if out.is_some() {
        builder = builder.observer(recorder);
    }
    if let Some(hub) = &wires.hub {
        builder = builder.telemetry(hub);
    }
    if let Some(sink) = &wires.events {
        builder = builder.events(sink.clone());
    }
    let mut control = builder.build();

    println!(
        "{name} on {} @ {rps} rps, {iters} intervals on {on} (start {:.1} cores)",
        app.name,
        start.iter().sum::<f64>()
    );
    println!(
        "{:>4} {:>9} {:>9} {:>12}",
        "iter", "totalCPU", "p95(ms)", "action"
    );
    for _ in 0..iters {
        let l = control.step_once(rps);
        println!(
            "{:>4} {:>9.2} {:>9.1} {:>12}",
            l.iter, l.total_cpu, l.p95_ms, l.action
        );
    }
    let r = control.into_result();
    wires.flush();
    println!(
        "\nsettled: {:.2} cores | violations: {} ({:.1}%) | time in violation: {:.0}s",
        r.settled_total(8),
        r.violations(),
        r.violation_rate() * 100.0,
        r.violating_time_s()
    );
    if let Some(out) = out {
        if let Err(e) = tape.take().write_file(out) {
            fail(e);
        }
        println!("trace written → {out} (replay with `pema-cli replay --trace {out}`)");
    }
}

fn cmd_apps(_: &Args) {
    println!(
        "{:<18} {:>9} {:>9}  paper workloads (rps)",
        "app", "services", "SLO(ms)"
    );
    let row = |app: &AppSpec, band: String| {
        let (n, slo) = (app.n_services(), app.slo_ms);
        println!("{:<18} {n:>9} {slo:>9}  {band}", app.name);
    };
    for (app, [low, mid, high], _) in paper_apps() {
        row(&app, format!("{low} / {mid} / {high}"));
    }
    row(&pema_apps::toy_chain(), "- (test model)".to_string());
}

fn cmd_run(args: &Args) {
    let app = get_app(args);
    let seed: u64 = args.get("seed");
    let sel = backend_sel(args);
    let backend = sel.backend(&app, seed, &mut None);
    let backend = backend.unwrap_or_else(|e| usage_error(e));
    let (alpha, beta) = (args.opt("alpha"), args.opt("beta"));
    let tuned = (alpha.is_some() || beta.is_some()).then(|| {
        let mut params = PemaParams::defaults(app.slo_ms);
        params.alpha = alpha.unwrap_or(params.alpha);
        params.beta = beta.unwrap_or(params.beta);
        params.seed = seed;
        params
    });
    let wires = TelemetryWires::new(args);
    let early_check_s = args.opt("early-check");
    control_loop(
        args,
        &app,
        &wires,
        backend,
        &sel.label(),
        tuned,
        early_check_s,
    );
}

fn cmd_optimum(args: &Args) {
    let app = get_app(args);
    let rps: f64 = args.get("rps");
    println!("searching OPTM for {} @ {rps} rps…", app.name);
    let opt = optimum_for(&app, rps, args.get("seed"))
        .unwrap_or_else(|e| fail(format!("search failed: {e}")));
    println!(
        "optimum total = {:.2} cores (p95 {:.1} ms, {} evaluations)",
        opt.total, opt.p95_ms, opt.evaluations
    );
    for (name, cores) in app.service_names().iter().zip(opt.alloc.0.iter()) {
        println!("  {name:>18}  {cores:.2}");
    }
}

fn cmd_classify(args: &Args) {
    use pema::pema_classifier::{feature_study, generate_dataset, DatasetConfig};
    let app = get_app(args);
    let cfg = DatasetConfig {
        rps: args.get("rps"),
        ..Default::default()
    };
    let ds = generate_dataset(&app, &[args.get("service")], &cfg);
    println!(
        "dataset: {} samples ({} positives)",
        ds.len(),
        ds.positives()
    );
    for (fset, acc) in feature_study(&ds, 5, 1) {
        println!("  {fset:<16} {:.1}%", acc * 100.0);
    }
}

/// Replays a recorded trace under a (possibly different) policy and
/// prints the counterfactual comparison (`pema-cli replay`).
fn cmd_replay(args: &Args) {
    let mode = if args.on("lenient") {
        ReadMode::Lenient
    } else {
        ReadMode::Strict
    };
    let trace = Trace::read_file(args.get::<&str>("trace"), mode).unwrap_or_else(|e| fail(e));
    let meta = &trace.meta;
    // Built from the tape's header, so any policy replays any tape.
    let policy_name = args.opt("policy").unwrap_or(meta.policy.as_str());
    let policy = named_policy(
        policy_name,
        meta.slo_ms,
        &meta.initial_alloc,
        meta.policy_seed,
    );
    let rerun = replay(&trace, policy);

    println!(
        "replayed {} recorded intervals ({} on {}) under {policy_name}",
        trace.records.len(),
        meta.policy,
        meta.app
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
    if args.on("assert-zero-divergence") {
        if s.is_zero() {
            println!("zero divergence: replay tracked the recording exactly");
        } else {
            fail("ASSERTION FAILED: replay diverged from the recording");
        }
    }
}

/// Drives `--count` control loops concurrently from this one process
/// (`pema-cli fleet`): the CLI face of `pema_control::Fleet`. Apps,
/// policies, and loads cycle deterministically when `mixed`.
fn cmd_fleet(args: &Args) {
    let count: usize = args.get("count");
    let iters: usize = args.get("iters");
    if count == 0 || iters == 0 {
        usage_error("--count and --iters must be at least 1");
    }
    let interval_s: f64 = args.get("interval");
    let seed0: u64 = args.get("seed");
    let policy_sel: &str = args.get("policy");
    let backend = backend_sel(args);
    if let BackendSel::Trace(_) = backend {
        usage_error(format!(
            "--backend {} is not for 'fleet': its members run on sim or fluid",
            backend.label()
        ));
    }
    // 0 = one shard per core; output is byte-identical for any value.
    let threads: usize = args.get("threads");

    // (app, nominal rps) templates the members cycle through.
    let rps_override: Option<f64> = args.opt("rps");
    let templates: Vec<(AppSpec, f64)> = match args.get("app") {
        "mixed" => pema_apps::fleet_mix(),
        name => {
            let app = pema_apps::by_name(name).unwrap_or_else(|| {
                usage_error(format!(
                    "unknown app '{name}' (try `pema-cli apps`, or 'mixed')"
                ));
            });
            let rps = rps_override
                .unwrap_or_else(|| usage_error("--rps is required with a single --app"));
            vec![(app, rps)]
        }
    };

    let priorities: &[i32] = args.opt("priority").unwrap_or_default();

    // Arbitration: --budget enables it, --arbitration fair|aimd picks
    // the policy (default fair).
    let budget: Option<f64> = args.opt("budget");
    if budget.is_some_and(|b| b <= 0.0) {
        usage_error("--budget must be positive");
    }
    let arbitration: Option<&str> = args.opt("arbitration").or(budget.map(|_| "fair"));
    let mut fleet = Fleet::new().threads(threads);
    fleet = match (arbitration, budget) {
        (None, _) => fleet,
        (Some(a), None) => usage_error(format!("--arbitration {a} requires --budget <cores>")),
        (Some("fair"), Some(b)) => fleet.arbitration(b, WeightedFairShare::new()),
        (Some("aimd"), Some(b)) => fleet.arbitration(b, AimdBackoff::new()),
        (Some(a), _) => usage_error(format!("--arbitration must be fair or aimd, got '{a}'")),
    };
    let wires = TelemetryWires::new(args);
    if let Some(hub) = &wires.hub {
        fleet = fleet.telemetry(hub);
    }
    if let Some(sink) = &wires.events {
        fleet = fleet.events(sink.clone());
    }
    let mut labels = Vec::new();
    for i in 0..count {
        let on = |app: &AppSpec, seed| {
            let built = backend.backend(app, seed, &mut None);
            built.expect("sim and fluid read no tape")
        };
        let member = fleet_member(&templates, i, policy_sel, seed0, on);
        let (policy_name, rps, spec) = member.unwrap_or_else(|| {
            usage_error(format!(
                "unknown --policy '{policy_sel}' (pema, rule, hold, mixed)"
            ));
        });
        let rps = rps_override.unwrap_or(rps);
        let spec = spec
            .priority(*priorities.get(i % priorities.len().max(1)).unwrap_or(&0))
            .interval_s(interval_s)
            .warmup_s(4.0)
            .rps(rps)
            .iters(iters);
        fleet = fleet.member(spec);
        labels.push((policy_name, rps));
    }

    println!(
        "fleet: {count} loops × {iters} intervals on one process \
         ({} backend, {policy_sel} policies, {} worker thread(s){})",
        backend.label(),
        resolve_threads(threads).min(count),
        arbitration
            .zip(budget)
            .map(|(p, b)| format!(", {p} arbitration over {b} cores"))
            .unwrap_or_default()
    );
    let t0 = std::time::Instant::now();
    let result = fleet.run();
    let wall = t0.elapsed();
    wires.flush();
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

/// `run`'s loop against the live-cluster adapter (`pema-cli live`):
/// Prometheus range queries for measurement and Kubernetes CPU-limit
/// PATCHes for actuation — or, with `--fake`, an in-process
/// `FakeCluster` over real loopback HTTP (virtual time, no cluster
/// required). `--dry-run` records decisions without patching.
fn cmd_live(args: &Args) {
    use pema::pema_live::{live_over_fake_with, Endpoint, HttpClient, KubeClient, PromClient};
    let app = get_app(args);
    let fake = args.on("fake");
    let live_cfg = LiveConfig {
        dry_run: args.on("dry-run"),
        ..Default::default()
    };

    let wires = TelemetryWires::new(args);
    let backend: Box<dyn ClusterBackend> = if fake {
        let mut fl = live_over_fake_with(&app, args.get("rps"), live_cfg.clone());
        if let Some(hub) = &wires.hub {
            fl.backend.set_telemetry(hub);
        }
        Box::new(fl)
    } else {
        let endpoint = |what: &str| {
            let url: &str = args.opt(what).unwrap_or_else(|| {
                usage_error(format!("--{what} is required without --fake"));
            });
            Endpoint::parse(url)
                .unwrap_or_else(|e| usage_error(format!("bad --{what} '{url}': {e}")))
        };
        let http = HttpClient::default();
        let prom = PromClient {
            endpoint: endpoint("prometheus"),
            http: http.clone(),
        };
        let kube = KubeClient {
            config: KubeConfigLite {
                server: endpoint("kube"),
                token: args.opt::<&str>("token").map(str::to_string),
                namespace: args.get::<&str>("namespace").to_string(),
            },
            http,
        };
        let clock = Box::new(WallClock::new());
        let mut lb = LiveBackend::new(&app, prom, kube, clock, live_cfg.clone());
        if let Some(hub) = &wires.hub {
            lb.set_telemetry(hub);
        }
        Box::new(lb)
    };

    let cluster = if fake { "a FakeCluster" } else { "the cluster" };
    let patches = if live_cfg.dry_run { " (dry run)" } else { "" };
    let on = format!("{cluster}{patches}");
    control_loop(args, &app, &wires, backend, &on, None, None);
}

/// Scrapes `http://ADDR/metrics` once and lints the exposition format
/// (`pema-cli metrics --addr H:P`). With `--out F` the raw scrape is
/// also written to `F`. Exits 1 when the lint finds violations — CI
/// pipes a mid-run scrape through this.
fn cmd_metrics(args: &Args) {
    use pema::pema_telemetry::http::{Endpoint, HttpClient};
    let addr: &str = args.get("addr");
    let out: Option<&str> = args.opt("out");
    let endpoint =
        Endpoint::parse(addr).unwrap_or_else(|e| usage_error(format!("bad --addr: {e}")));
    let resp = HttpClient::default()
        .request(&endpoint, "GET", "/metrics", &[], None)
        .unwrap_or_else(|e| fail(format!("scrape of {addr} failed: {e}")));
    if resp.status != 200 {
        fail(format!("scrape failed: HTTP {}", resp.status));
    }
    let body = resp.body.as_str();
    if let Some(out) = out {
        if let Err(e) = std::fs::write(out, body) {
            fail(format!("cannot write --out '{out}': {e}"));
        }
    }
    let series = body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    let report = pema::pema_telemetry::lint(body, None);
    if !report.is_clean() {
        eprintln!(
            "scraped {addr}: {series} series, {} lint violations:",
            report.violations.len()
        );
        for v in &report.violations {
            eprintln!("  {v}");
        }
        exit(1);
    }
    println!("scraped {addr}: {series} series, exposition format clean");
    if out.is_none() && args.on("print") {
        print!("{body}");
    }
}

fn cmd_trace(args: &Args) {
    let app = get_app(args);
    let mut sim = ClusterSim::new(&app, args.get("seed"));
    let mut alloc = Allocation::new(app.generous_alloc.clone());
    if let Some((name, f)) = args.opt::<(&str, f64)>("starve") {
        let sid = app
            .service_by_name(name)
            .unwrap_or_else(|| usage_error(format!("unknown service '{name}'")));
        alloc.scale_service(sid.0, f);
        println!("starving {name} to {f}× its generous allocation");
    }
    sim.set_allocation(&alloc);
    sim.set_trace_sampling(0.25);
    let stats = sim.run_window(args.get("rps"), 4.0, 30.0);
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

/// Lists the registry (`registry_suite.rs` is what keeps its ids and
/// output names unique).
fn cmd_list(_: &Args) {
    println!("{:<22} outputs", "scenario");
    for s in registry() {
        println!("{:<22} {}", s.id, s.outputs.join(", "));
        println!("{:<22}   {}", "", s.about);
    }
}

/// `all` and `run <id>…`: scenarios run concurrently across `--jobs`
/// workers and are deterministic regardless of parallelism. Exits 1
/// when any scenario reports `FAILED` — CI's smoke step relies on it.
fn cmd_suite(args: &Args) {
    let cfg = SuiteConfig {
        jobs: args.get("jobs"),
        only: (!args.words.is_empty()).then(|| args.words.clone()),
        smoke: args.on("smoke"),
        force: args.on("force"),
        results_dir: None,
        backend: backend_sel(args),
        fleet_threads: args.get("fleet-threads"),
    };
    let t0 = std::time::Instant::now();
    let reports = run_suite(&cfg).unwrap_or_else(|e| usage_error(e));
    println!(
        "\nsuite done in {:.2?} ({} jobs)",
        t0.elapsed(),
        resolve_threads(cfg.jobs)
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
        fail(format!("\n{failed} scenario(s) failed"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What no run of a single command would notice about the table.
    #[test]
    fn every_row_is_well_formed() {
        for c in COMMANDS {
            for (i, f) in c.flags.iter().enumerate() {
                let twice = c.flags[..i].iter().any(|g| g.name == f.name);
                assert!(!twice, "'{}' declares --{} twice", c.name, f.name);
                if let Def(d) = f.need {
                    assert!(
                        f.parse(d).is_ok(),
                        "'{}': --{} default '{d}'",
                        c.name,
                        f.name
                    );
                }
                let switch = f.metavar().is_none();
                assert!(
                    !switch || matches!(f.need, Opt),
                    "--{}: a switch is optional",
                    f.name
                );
            }
            // A name is shared only by one row that takes bare words and
            // one that does not (what `main` chooses between).
            let same = COMMANDS.iter().filter(|d| d.name == c.name);
            let wordy = same.clone().filter(|d| d.words.is_some()).count();
            assert!(
                wordy <= 1 && same.count() - wordy == 1,
                "rows named '{}'",
                c.name
            );
        }
    }
}
