//! The repo benchmark: six workloads over the PEMA control plane, each
//! measured end to end (`--trace 0`) and layer by layer (`--trace 1`).
//! See `README.md` beside this package and `BENCHMARK.json` at the
//! root of the repository.

mod adapters;
mod catalog;
mod check;
mod digest;
mod host;
mod spans;
mod stats;
mod workloads;

use catalog::{MetricDef, END_TO_END, PER_LAYER};
use pema_telemetry::json::quote;
use spans::Tracer;
use stats::{median, percentile, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{repeat_setup, LayerInputs, Rep, Workload, NAMES};

const USAGE: &str = "\
usage: pema-e2e-bench [run|trace] --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
       pema-e2e-bench all [--seed <n>] [--seconds <s>]
       pema-e2e-bench check

  run    (default) end-to-end metrics, no adapters installed
  trace  per-layer metrics through the timing adapters; same as --trace 1
  all    every workload both ways, one process each
  check  [profile.release] parity with the repository, BENCHMARK.json against the harness

workloads: des_closed_loop fleet_fluid_10k fleet_arbitrated live_wire trace_replay fleet_observed";

/// `--seconds` when the flag is absent; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cmd {
    One(Opts),
    All { seed: u64, seconds: f64 },
    Check,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (verb, flags) = match args.first().map(String::as_str) {
        Some(v @ ("run" | "trace" | "all" | "check")) => (v, &args[1..]),
        _ => ("run", args),
    };
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: verb == "trace",
    };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let value = flags
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match verb {
        "check" => Ok(Cmd::Check),
        "all" => Ok(Cmd::All {
            seed: opts.seed,
            seconds: opts.seconds,
        }),
        _ if NAMES.contains(&opts.workload.as_str()) => Ok(Cmd::One(opts)),
        _ => Err(format!("unknown or missing workload \"{}\"", opts.workload)),
    }
}

/// This package's directory: where `out/` lives and where `check`
/// finds the manifests.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// One reported metric: its value and the per-repetition values it was
/// taken from.
struct Measured {
    def: &'static MetricDef,
    value: f64,
    raw: Vec<f64>,
}

#[derive(Default)]
struct Repetitions {
    prepare: usize,
    twin: usize,
    warmup: usize,
    timed: usize,
    traced: usize,
}

struct Outcome {
    metrics: Vec<Measured>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    repetitions: Repetitions,
    /// Medians of the workload's own per-repetition scalars, printed
    /// for orientation beside the metrics.
    notes: BTreeMap<&'static str, f64>,
}

/// Median over the repetitions of every scalar they carry.
fn notes(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (name, value) in &rep.scalars {
            by_name.entry(name).or_default().push(*value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// Repeats `rep` until `seconds` have gone by — stopping at the
/// repetition boundary nearest to it — and at least `min_reps` times.
fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let mut reps = Vec::new();
    let t0 = Instant::now();
    loop {
        reps.push(rep());
        let elapsed = t0.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / reps.len() as f64 / 2.0;
        if reps.len() >= min_reps && next_ends >= seconds {
            return reps;
        }
    }
}

/// The runs before the measured ones, and what they and the measured
/// ones must agree on.
struct Lead {
    workload: Box<dyn Workload>,
    prepare_s: Vec<f64>,
    twin: Option<workloads::Twin>,
    warmup: Vec<Rep>,
}

fn lead(opts: &Opts, scratch: &Path, time_setup: bool) -> Lead {
    let prepare = || {
        workloads::prepare(&opts.workload, opts.seed, scratch)
            .expect("the workload name was checked")
    };
    let (mut workload, prepare_s) = if time_setup {
        repeat_setup(prepare)
    } else {
        (prepare(), Vec::new())
    };
    let twin = workload.twin();
    let warmup = (0..workload.warmup_reps())
        .map(|_| workload.rep(None))
        .collect();
    Lead {
        workload,
        prepare_s,
        twin,
        warmup,
    }
}

/// Counts operations and collects failures over every repetition run,
/// and checks that repetitions with one seed agree bit for bit.
fn audit(lead: &mut Lead, measured: &[&Rep], outcome: &mut Outcome) {
    let twin = lead.twin.as_ref();
    let all: Vec<&Rep> = twin
        .map(|t| &t.rep)
        .into_iter()
        .chain(&lead.warmup)
        .chain(measured.iter().copied())
        .collect();
    for rep in &all {
        outcome.attempted += rep.intervals;
        outcome.failed += rep.failed;
        for failure in &rep.failures {
            // Repetitions repeat their failures; name each once.
            if !outcome.failures.contains(failure) {
                outcome.failures.push(failure.clone());
            }
        }
    }
    let own = measured[0].digest;
    let same = lead.warmup.iter().chain(measured.iter().copied());
    if same.clone().any(|r| r.digest != own) {
        outcome.failed += 1;
        outcome
            .failures
            .push("repetitions with one seed produced different outputs".into());
    }
    if twin.is_some_and(|t| t.same_outputs && t.rep.digest != own) {
        outcome.failed += 1;
        outcome
            .failures
            .push("the twin configuration produced different outputs".into());
    }
    let late = lead.workload.final_checks();
    outcome.failed += late.len() as u64;
    outcome.failures.extend(late);
}

fn per_s(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(Rep::intervals_per_s).collect()
}

/// CPU µs per control interval, one value per stretch of consecutive
/// repetitions that together used `CPU_STRETCH_S` of CPU: the kernel
/// accounts CPU time in 10 ms ticks, too coarse for one short
/// repetition.
fn cpu_us_per_interval(reps: &[Rep]) -> Vec<f64> {
    const CPU_STRETCH_S: f64 = 0.5;
    let mut out = Vec::new();
    let (mut cpu_s, mut intervals) = (0.0, 0u64);
    for rep in reps {
        cpu_s += rep.cpu_s;
        intervals += rep.intervals;
        if cpu_s >= CPU_STRETCH_S {
            out.push(cpu_s * 1e6 / intervals as f64);
            (cpu_s, intervals) = (0.0, 0);
        }
    }
    // A short tail would be the coarsest value of all; a run too
    // short for even one stretch is one stretch.
    if out.is_empty() {
        out.push(cpu_s * 1e6 / intervals as f64);
    }
    out
}

fn untraced_run(opts: &Opts, scratch: &Path) -> Outcome {
    let mut lead = lead(opts, scratch, true);
    let min_reps = lead.workload.min_reps();
    let workload = &mut lead.workload;
    let reps = repeat_for(opts.seconds, min_reps, || workload.rep(None));

    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        repetitions: Repetitions {
            prepare: lead.prepare_s.len(),
            twin: lead.twin.is_some() as usize,
            warmup: lead.warmup.len(),
            timed: reps.len(),
            traced: 0,
        },
        notes: notes(&reps),
    };
    outcome.notes.insert(
        "cpu_saved_vs_rule_pct_settled",
        reps.last()
            .expect("one repetition")
            .quality
            .cpu_saved_vs_rule_pct(),
    );
    audit(&mut lead, &reps.iter().collect::<Vec<_>>(), &mut outcome);

    let build_s: Vec<f64> = lead
        .warmup
        .iter()
        .chain(&reps)
        .flat_map(|r| r.build_s.iter().copied())
        .collect();
    let (prepare_s, build_s) = (
        percentile(&lead.prepare_s, 10.0),
        percentile(&build_s, 10.0),
    );
    outcome.notes.insert("setup_prepare_s", prepare_s);
    outcome.notes.insert("setup_build_s", build_s);
    let quality = &reps.last().expect("one repetition").quality;
    // Interference on a shared host only ever slows a repetition down,
    // and comes in stretches of seconds, so a median over the
    // repetitions still moves with it. The best decile does not: it
    // reads the speed the code reaches when the host leaves it alone.
    let values: [(f64, Vec<f64>); 5] = [
        (prepare_s + build_s, Vec::new()),
        (percentile(&per_s(&reps), 90.0), per_s(&reps)),
        (host::peak_rss_mb(), Vec::new()),
        (quality.pema_best_cpu_vs_rule_pct(), Vec::new()),
        (quality.slo_met_pct(), Vec::new()),
    ];
    outcome.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, raw))| Measured { def, value, raw })
        .collect();
    outcome
}

fn traced_run(opts: &Opts, scratch: &Path, out_dir: &Path) -> Outcome {
    let mut lead = lead(opts, scratch, false);
    let min_reps = lead.workload.min_reps().min(2);
    let workload = &mut lead.workload;
    // The untraced repetitions are the base of the tracing overhead and
    // of the twins' ratios; the traced ones feed the spans.
    let untraced = repeat_for(opts.seconds * 0.3, min_reps, || workload.rep(None));
    let tracer = Tracer::new();
    let traced = repeat_for(opts.seconds * 0.3, 1, || workload.rep(Some(&tracer)));
    // A twin's ratio against the workload needs more than the one twin
    // repetition the lead-in ran.
    let mut twins: Vec<Rep> = lead.twin.iter().map(|t| t.rep.clone()).collect();
    if !twins.is_empty() {
        twins.extend(repeat_for(opts.seconds * 0.2, 1, || {
            workload.twin().expect("a workload keeps its twin").rep
        }));
    }

    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        repetitions: Repetitions {
            prepare: 0,
            twin: lead.twin.is_some() as usize,
            warmup: lead.warmup.len(),
            timed: untraced.len(),
            traced: traced.len(),
        },
        notes: notes(&untraced),
    };
    let measured: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    audit(&mut lead, &measured, &mut outcome);

    let mut layers: BTreeMap<&'static str, f64> = lead
        .workload
        .layers(&LayerInputs {
            tracer: &tracer,
            untraced: &untraced,
            traced: &traced,
            twins: &twins,
        })
        .into_iter()
        .collect();
    // Layers every workload drives: the policies, and the loop itself
    // wherever the harness steps one.
    let step = tracer.agg(adapters::LOOP_STEP);
    layers.extend([
        (
            "core.controller.decide_ns",
            tracer.agg(adapters::DECIDE_PEMA).mean_ns(),
        ),
        (
            "baselines.rule.decide_ns",
            tracer.agg(adapters::DECIDE_RULE).mean_ns(),
        ),
        (
            "control.loop.self_ns_per_interval",
            if step.count == 0 {
                0.0
            } else {
                tracer.self_ns(adapters::LOOP_STEP) as f64 / step.count as f64
            },
        ),
        (
            "bench.cpu_us_per_interval",
            percentile(&cpu_us_per_interval(&untraced), 10.0),
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * (1.0 - percentile(&per_s(&traced), 90.0) / percentile(&per_s(&untraced), 90.0)),
        ),
    ]);
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is not in the catalog"
        );
    }
    outcome.metrics = PER_LAYER
        .iter()
        .map(|def| Measured {
            def,
            // A layer this workload does not exercise did no work.
            value: layers.get(def.name).copied().unwrap_or(0.0),
            raw: Vec::new(),
        })
        .collect();

    let path = out_dir.join(format!("trace_{}.json", opts.workload));
    if let Err(e) = std::fs::write(&path, tracer.to_json(&opts.workload, opts.seed)) {
        outcome.failed += 1;
        outcome
            .failures
            .push(format!("cannot write {}: {e}", path.display()));
    }
    outcome
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric exactly `value` and `unit`.
fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            quote(m.def.name),
            m.value,
            quote(m.def.unit)
        );
    }
    out.push_str("}}");
    out
}

/// The full record of a run: the host, the seed, how often each phase
/// ran, and every metric with the raw values behind it.
fn result_record(opts: &Opts, outcome: &Outcome) -> String {
    let r = &outcome.repetitions;
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"nproc\":{},\"rustc\":{}}},\
         \"repetitions\":{{\"prepare\":{},\"twin\":{},\"warmup\":{},\"timed\":{},\"traced\":{}}},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{",
        quote(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        host::nproc(),
        quote(host::rustc_version()),
        r.prepare,
        r.twin,
        r.warmup,
        r.timed,
        r.traced,
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome
            .failures
            .iter()
            .map(|f| quote(f))
            .collect::<Vec<_>>()
            .join(","),
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{}:{{\"value\":{},\"unit\":{},\"better\":\"{}\"",
            if i > 0 { "," } else { "" },
            quote(m.def.name),
            m.value,
            quote(m.def.unit),
            m.def.better.as_str()
        );
        if m.raw.len() >= 2 {
            let (q1, q3) = quartiles(&m.raw);
            let raw: Vec<String> = m.raw.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                ",\"median\":{},\"q1\":{q1},\"q3\":{q3},\"raw\":[{}]",
                median(&m.raw),
                raw.join(",")
            );
        }
        out.push('}');
    }
    out.push_str("\n}}\n");
    out
}

fn print_report(opts: &Opts, outcome: &Outcome) {
    let r = &outcome.repetitions;
    println!(
        "# {} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    println!(
        "# host: nproc={} rustc=\"{}\"",
        host::nproc(),
        host::rustc_version()
    );
    println!(
        "# repetitions: prepare={} twin={} warmup={} timed={} traced={}",
        r.prepare, r.twin, r.warmup, r.timed, r.traced
    );
    for m in &outcome.metrics {
        print!("{:<46} {:>16.6} {:<6}", m.def.name, m.value, m.def.unit);
        if m.raw.len() >= 2 {
            let (q1, q3) = quartiles(&m.raw);
            print!(
                " n={} median={:.6} q1={q1:.6} q3={q3:.6}",
                m.raw.len(),
                median(&m.raw)
            );
        }
        println!();
    }
    for (name, value) in &outcome.notes {
        println!("# note: {name}={value}");
    }
    println!(
        "# operations: attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
}

fn run_one(opts: &Opts) -> ExitCode {
    let out_dir = manifest_dir().join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut outcome = if opts.trace {
        traced_run(opts, &scratch, &out_dir)
    } else {
        untraced_run(opts, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("{} is not a number ({})", m.def.name, m.value));
            m.value = 0.0;
        }
    }
    print_report(opts, &outcome);
    let record = out_dir.join(format!(
        "result_{}_{}.json",
        opts.workload,
        if opts.trace { "trace" } else { "run" }
    ));
    if let Err(e) = std::fs::write(&record, result_record(opts, &outcome)) {
        eprintln!("cannot write {}: {e}", record.display());
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload both ways, each in a process of its own so that peak
/// memory is the workload's and not its predecessors'.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for name in NAMES {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                failed.push(format!("{name} --trace {trace}"));
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cmd::One(opts)) => run_one(&opts),
        Ok(Cmd::All { seed, seconds }) => run_all(seed, seconds),
        Ok(Cmd::Check) => {
            let problems = check::run(&manifest_dir());
            for p in &problems {
                println!("check: {p}");
            }
            if problems.is_empty() {
                println!("check: ok");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_form_parses_without_a_verb() {
        let Ok(Cmd::One(o)) = parse(&args("--workload live_wire --seed 9 --seconds 3 --trace 1"))
        else {
            panic!("not a single run");
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("live_wire", 9, 3.0, true)
        );
        let Ok(Cmd::One(o)) = parse(&args("trace --workload trace_replay")) else {
            panic!("not a single run");
        };
        assert_eq!((o.seed, o.seconds, o.trace), (1, DEFAULT_SECONDS, true));
        assert!(matches!(parse(&args("check")), Ok(Cmd::Check)));
        assert!(matches!(
            parse(&args("all --seed 4")),
            Ok(Cmd::All { seed: 4, .. })
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload live_wire --trace 2",
            "--workload live_wire --seconds 0",
            "--workload live_wire --seed",
            "--workload live_wire --frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![Measured {
                def: &END_TO_END[0],
                value: 0.5,
                raw: vec![0.4, 0.6],
            }],
            attempted: 12,
            failed: 0,
            failures: Vec::new(),
            repetitions: Repetitions::default(),
            notes: BTreeMap::new(),
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let opts = Opts {
            workload: "live_wire".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        assert!(pema_telemetry::json::parse(&result_record(&opts, &outcome)).is_ok());
    }
}
