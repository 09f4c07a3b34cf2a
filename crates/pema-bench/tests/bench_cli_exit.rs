//! The contract of `pema-cli`, this crate's one executable, checked on
//! the real binary: exit codes (0 ok, 1 the run failed, 2 usage
//! error), the messages that name what was wrong, and the help texts
//! the documentation is held to.
//!
//! CI's smoke step relies on `pema-cli all` exiting non-zero whenever
//! any scenario reports `Outcome::Failed` — a suite that prints FAILED
//! but exits 0 would silently green-light broken experiments.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pema-cli"))
        .args(line.split_whitespace())
        .output()
        .expect("pema-cli runs")
}

/// Stdout of an invocation that must exit 0.
fn ok(line: &str) -> String {
    let out = cli(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "`pema-cli {line}`: {stderr}");
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pema-bench-exit-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::remove_file(&d);
    d
}

#[test]
fn failing_scenario_exits_nonzero() {
    // Point the results dir *under a regular file*: `create_dir_all`
    // fails, the scenario reports `Outcome::Failed`, and the driver
    // must exit 1.
    let blocker = tmp("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pema-cli"))
        .args(["run", "fig06", "--smoke", "--force"])
        .env("PEMA_RESULTS_DIR", blocker.join("nested"))
        .output()
        .expect("pema-cli runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn successful_scenario_exits_zero() {
    let dir = tmp("ok");
    // `--jobs 0` is one worker per core, and the report says how many
    // that was (it used to say 1).
    let out = Command::new(env!("CARGO_BIN_EXE_pema-cli"))
        .args(["run", "fig06", "--smoke", "--force", "--jobs", "0"])
        .env("PEMA_RESULTS_DIR", &dir)
        .output()
        .expect("pema-cli runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("fig06.csv").exists());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("({cores} jobs)")), "{stdout}");
}

#[test]
fn list_exits_zero_and_names_every_scenario() {
    // `pema-cli list` only lists: exit 0 with every id named (the
    // registry_suite test is what pins unique ids and outputs).
    let out = cli("list");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for s in pema_bench::registry() {
        assert!(stdout.contains(s.id), "missing {} in:\n{stdout}", s.id);
    }
}

#[test]
fn unknown_scenario_is_a_usage_error() {
    // An unknown scenario id and an unknown command (`perf` was one
    // once) both exit 2 and name the offending word on stderr.
    for (line, word) in [
        ("run no-such-scenario --smoke", "no-such-scenario"),
        ("perf", "perf"),
    ] {
        let out = cli(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(stderr.contains(&format!("'{word}'")), "`{line}`: {stderr}");
    }
}

#[test]
fn unknown_backend_is_a_usage_error() {
    let out = cli("run fig06 --backend quantum");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quantum"), "stderr: {stderr}");
}

/// `pema-cli` rejects what it does not understand: a misspelled flag,
/// a value that is missing, surplus or not of the flag's kind, a
/// command that no longer exists. Each used to run with a silently
/// applied default.
#[test]
fn rejected_invocations_exit_2_and_name_the_offender() {
    // (command line, what stderr must say)
    let cases = [
        (
            "run --app sockshop --rps 700 --iter 2",
            "unknown flag '--iter' for 'run'",
        ),
        (
            "fleet --count 2.7 --iters 1 --backend fluid",
            "--count must be a non-negative integer, got '2.7'",
        ),
        (
            "fleet --count 2 --iters 1 --backend fluid --seed -1",
            "--seed must be a non-negative integer, got '-1'",
        ),
        ("perf", "unknown command 'perf'"),
        (
            "run --app toy-chain --rps 120 --early-check abc",
            "--early-check must be a number, got 'abc'",
        ),
        // Used to write the trace to a file called `true`.
        ("run --app toy-chain --rps 120 --out", "--out needs a value"),
        (
            "trace --app sockshop --rps 300 --starve carts=abc",
            "--starve must be name=number, e.g. carts=0.45, got 'carts=abc'",
        ),
        // Used to swallow the word and stay on.
        (
            "live --app toy-chain --rps 120 --fake false",
            "--fake takes no value, got 'false'",
        ),
        (
            "fleet --count 2 --backend trace:x.jsonl",
            "--backend trace:x.jsonl is not for 'fleet'",
        ),
        ("fleet --count 2 --backend quantum", "quantum"),
        ("run --rps 100", "--app is required"),
        // `run --policy rule` and `run --out` replaced these two.
        ("rule --app toy-chain --rps 100", "unknown command 'rule'"),
        (
            "record --app toy-chain --rps 100 --out t.jsonl",
            "unknown command 'record'",
        ),
        // Both values were the same program.
        (
            "fleet --count 2 --pace wall",
            "unknown flag '--pace' for 'fleet'",
        ),
        (
            "fleet --count 2 --budget 4 --arbitration off",
            "--arbitration must be fair or aimd, got 'off'",
        ),
        (
            "run --app toy-chain --rps 100 --policy rule --alpha 0.4",
            "--alpha and --beta tune pema, not --policy 'rule'",
        ),
        // Its tape said `pema` and replayed the paper's α/β.
        (
            "run --app toy-chain --rps 100 --alpha 0.1 --beta 0.9 --out t.jsonl",
            "--alpha and --beta cannot go with --out",
        ),
        (
            "run --app toy-chain --rps 100 --policy managed",
            "unknown --policy 'managed'",
        ),
    ];
    for (line, complaint) in cases {
        let out = cli(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(stderr.contains(complaint), "`{line}`: {stderr}");
    }
    assert!(!Path::new("true").exists(), "`run --out` wrote ./true");
}

/// `run --out` is what `record` was: the tapes the parent's `record`
/// wrote with these flags (`tests/fixtures/record_*.jsonl`), byte for
/// byte — one seeding (policy seed = backend seed = `--seed`), the
/// early-check mirrored into the header, RULE's seed written as 0.
#[test]
fn run_out_writes_the_tapes_record_wrote() {
    let flags = "run --app sockshop --rps 700 --iters 3 --interval 6 --warmup 1";
    for (extra, fixture) in [
        ("", "record_pema.jsonl"),
        ("--policy rule --early-check 2", "record_rule.jsonl"),
    ] {
        let tape = tmp(fixture);
        ok(&format!("{flags} {extra} --out {}", tape.display()));
        let want = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        assert!(
            std::fs::read(&tape).unwrap() == std::fs::read(want.join(fixture)).unwrap(),
            "`{flags} {extra}` differs from tests/fixtures/{fixture}"
        );
    }
}

/// The matrix `run` spans: every policy on the DES and on the fluid
/// model prints one row per interval, and the tape of each run replays
/// under its own policy (no `--policy`: `hold` included) without
/// divergence.
#[test]
fn run_is_every_policy_on_every_backend() {
    for policy in ["pema", "rule", "hold"] {
        for backend in ["sim", "fluid"] {
            let tape = tmp(&format!("{policy}-{backend}.jsonl"));
            let tape = tape.display();
            let stdout = ok(&format!(
                "run --app toy-chain --rps 150 --iters 4 --interval 6 --warmup 1 \
                 --policy {policy} --backend {backend} --out {tape}"
            ));
            // Header and column line, four rows, then the summary.
            let rows = stdout.lines().skip(2).take_while(|l| !l.is_empty());
            assert_eq!(rows.count(), 4, "{policy} on {backend}:\n{stdout}");
            let replayed = ok(&format!("replay --trace {tape} --assert-zero-divergence"));
            assert!(replayed.contains(&format!("under {policy}")), "{replayed}");
        }
    }
}

/// `optimum` prints the OPTM search's result for one load, byte for
/// byte: the total, the p95 it reaches, the evaluations it spent and
/// each service's cores.
#[test]
fn optimum_prints_the_search_result() {
    assert_eq!(
        ok("optimum --app toy-chain --rps 100 --seed 1"),
        "searching OPTM for toy-chain @ 100 rps…\n\
         optimum total = 0.73 cores (p95 51.7 ms, 27 evaluations)\n\
         \x20            gateway  0.18\n\
         \x20              logic  0.37\n\
         \x20                 db  0.18\n"
    );
}

/// Without `--seed`, `optimum` searches at the suite's reference seed:
/// it prints the optimum the experiment suite divides by.
#[test]
fn optimum_defaults_to_the_suites_reference_seed() {
    assert_eq!(
        ok("optimum --app toy-chain --rps 100"),
        "searching OPTM for toy-chain @ 100 rps…\n\
         optimum total = 0.73 cores (p95 95.2 ms, 27 evaluations)\n\
         \x20            gateway  0.25\n\
         \x20              logic  0.33\n\
         \x20                 db  0.15\n"
    );
}

/// `classify` prints the Table 1 study on one starved service, byte for
/// byte: the dataset's size and one accuracy row per feature set.
#[test]
fn classify_prints_the_feature_study() {
    assert_eq!(
        ok("classify --app toy-chain --rps 100 --service logic"),
        "dataset: 18 samples (9 positives)\n\
         \x20 util             100.0%\n\
         \x20 throttle         100.0%\n\
         \x20 memory           38.9%\n\
         \x20 self_time        88.9%\n\
         \x20 duration         33.3%\n\
         \x20 util+throttle    100.0%\n\
         \x20 all five         88.9%\n"
    );
}

/// `trace` ranks the services a caller waited on by their mean
/// exclusive time in the slowest 5% of requests, and lists the entry
/// service after the ranking: its figure also holds the wait for a
/// worker thread. With `carts` starved past the SLO, the README's
/// command names `carts` first and `front-end` last.
#[test]
fn trace_names_the_starved_service_first() {
    let line = "trace --app sockshop --rps 550 --starve carts=0.2";
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md reads");
    assert!(
        readme.contains(&format!("pema-cli {line}\n")),
        "README shows `{line}`"
    );
    let out = ok(line);
    let listed: Vec<&str> = out
        .lines()
        .skip_while(|l| !l.starts_with("mean exclusive time"))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed.first(), Some(&"carts"), "{out}");
    assert_eq!(listed.last(), Some(&"front-end"), "{out}");
}

#[test]
fn a_seed_above_2_pow_53_is_accepted() {
    ok("fleet --count 2 --iters 1 --backend fluid --seed 9007199254740993");
}

/// `replay --lenient` forgives schema drift, not damage: a record with
/// a key this build does not know fails a strict read, naming the key,
/// and replays leniently; a truncated record line fails either way.
#[test]
fn replay_lenient_forgives_schema_drift_not_damage() {
    let tape = tmp("lenient.jsonl");
    ok(&format!(
        "run --app toy-chain --rps 120 --iters 3 --interval 6 --warmup 1 --out {}",
        tape.display()
    ));
    let text = std::fs::read_to_string(&tape).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "a header and three records:\n{text}");
    // The tape with its header and first record replaced.
    let replay = |header: &str, record: &str, flags: &str| {
        let body = format!("{header}\n{record}\n{}\n", lines[2..].join("\n"));
        std::fs::write(&tape, body).unwrap();
        cli(&format!("replay --trace {} {flags}", tape.display()))
    };
    let unknown = format!("{{\"added_later\":1,{}", &lines[1][1..]);
    let older = lines[0].replacen("\"version\":1,", "\"version\":0,", 1);
    assert_ne!(older, lines[0]);
    for (header, record, complaint) in [
        (lines[0], unknown.as_str(), "unknown key"),
        (older.as_str(), lines[1], "strict mode; use lenient"),
    ] {
        let strict = replay(header, record, "");
        let stderr = String::from_utf8_lossy(&strict.stderr);
        assert_eq!(strict.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(complaint), "{stderr}");
        let lenient = replay(header, record, "--lenient");
        let stderr = String::from_utf8_lossy(&lenient.stderr);
        assert_eq!(lenient.status.code(), Some(0), "{stderr}");
    }
    let truncated = &lines[1][..lines[1].len() / 2];
    for flags in ["", "--lenient"] {
        let out = replay(lines[0], truncated, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`replay {flags}`: {stderr}");
    }
}

/// The `--flag` words of a text: `--`, a lowercase letter, then
/// letters and inner dashes.
fn flags_in(text: &str) -> BTreeSet<String> {
    text.match_indices("--")
        .filter_map(|(at, _)| {
            let word: String = text[at + 2..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            let word = word.trim_end_matches('-');
            let starts = word.starts_with(|c: char| c.is_ascii_lowercase());
            (starts && !text[..at].ends_with('-')).then(|| format!("--{word}"))
        })
        .collect()
}

/// The commands `pema-cli help` lists: twelve rows, `run` on two.
fn commands() -> BTreeSet<String> {
    let overview = ok("help");
    let rows: Vec<String> = overview
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    let listed: BTreeSet<String> = rows.iter().cloned().collect();
    assert_eq!((rows.len(), listed.len()), (12, 11), "{overview}");
    listed
}

/// The flags `pema-cli <cmd> --help` lists: one at the head of each
/// indented line.
fn listed_flags(cmd: &str) -> BTreeSet<String> {
    ok(&format!("{cmd} --help"))
        .lines()
        .filter(|l| l.starts_with("  --"))
        .flat_map(|l| flags_in(l.split_whitespace().next().unwrap()))
        .collect()
}

#[test]
fn help_is_answered_for_every_command() {
    for cmd in commands() {
        let by_flag = ok(&format!("{cmd} --help"));
        assert!(by_flag.starts_with(&format!("pema-cli {cmd}")), "{by_flag}");
        assert_eq!(by_flag, ok(&format!("help {cmd}")));
        assert!(listed_flags(&cmd).contains("--help"), "{by_flag}");
    }
    // `--help` wins wherever it stands, and selects nothing else.
    ok("fleet --count 0 --help");
}

/// The drift guard: every `pema-cli <command> --flag …` the docs, the
/// CI workflow and the verify skill show is one `<command> --help`
/// lists, so none of them can name a flag the parser rejects.
#[test]
fn documented_invocations_use_only_flags_the_help_lists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = vec![
        root.join("README.md"),
        root.join(".github/workflows/ci.yml"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    let listed: BTreeMap<String, BTreeSet<String>> = commands()
        .into_iter()
        .map(|cmd| (cmd.clone(), listed_flags(&cmd)))
        .collect();
    let mut invocations = 0;
    for file in files {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()))
            .replace("\\\n", " ");
        for line in text.lines() {
            for (at, _) in line.match_indices("pema-cli ") {
                // The invocation runs to the end of its code span or
                // shell command.
                let rest = &line[at + "pema-cli ".len()..];
                let rest = rest.split(['`', '|', '&', ';']).next().unwrap();
                let cmd = rest.split_whitespace().next().unwrap_or_default();
                let used = flags_in(rest);
                let Some(listed) = listed.get(cmd) else {
                    // Prose or a `<placeholder>`, unless a bare word
                    // passes flags: then a command that is gone
                    // (`rule` and `record` were two).
                    let word = cmd.chars().all(|c| c.is_ascii_lowercase());
                    assert!(
                        used.is_empty() || !word,
                        "{}: `pema-cli {rest}` is not a command",
                        file.display()
                    );
                    continue;
                };
                let unknown: Vec<_> = used.difference(listed).collect();
                assert!(
                    unknown.is_empty(),
                    "{}: `pema-cli {rest}` uses {unknown:?}, which `pema-cli {cmd} --help` \
                     does not list",
                    file.display()
                );
                invocations += usize::from(!used.is_empty());
            }
        }
    }
    assert!(
        invocations >= 20,
        "only {invocations} flagged invocations found"
    );
}
