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
        (
            "record --app toy-chain --rps 120 --out",
            "--out needs a value",
        ),
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
        ("rule --rps 100", "--app is required"),
    ];
    for (line, complaint) in cases {
        let out = cli(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(stderr.contains(complaint), "`{line}`: {stderr}");
    }
    assert!(!Path::new("true").exists(), "`record --out` wrote ./true");
}

#[test]
fn a_seed_above_2_pow_53_is_accepted() {
    let out = cli("fleet --count 2 --iters 1 --backend fluid --seed 9007199254740993");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// Stdout of a help invocation, which must exit 0.
fn help_text(line: &str) -> String {
    let out = cli(line);
    assert_eq!(out.status.code(), Some(0), "`pema-cli {line}`");
    String::from_utf8(out.stdout).expect("help is UTF-8")
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

/// The commands `pema-cli help` lists.
fn commands() -> BTreeSet<String> {
    let overview = help_text("help");
    let listed: BTreeSet<String> = overview
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    assert!(listed.len() >= 13, "commands of:\n{overview}");
    listed
}

/// The flags `pema-cli <cmd> --help` lists: one at the head of each
/// indented line.
fn listed_flags(cmd: &str) -> BTreeSet<String> {
    help_text(&format!("{cmd} --help"))
        .lines()
        .filter(|l| l.starts_with("  --"))
        .flat_map(|l| flags_in(l.split_whitespace().next().unwrap()))
        .collect()
}

#[test]
fn help_is_answered_for_every_command() {
    for cmd in commands() {
        let by_flag = help_text(&format!("{cmd} --help"));
        assert!(by_flag.starts_with(&format!("pema-cli {cmd}")), "{by_flag}");
        assert_eq!(by_flag, help_text(&format!("help {cmd}")));
        assert!(listed_flags(&cmd).contains("--help"), "{by_flag}");
    }
    // `--help` wins wherever it stands, and selects nothing else.
    help_text("fleet --count 0 --help");
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
                let Some(listed) = listed.get(cmd) else {
                    continue;
                };
                let used = flags_in(rest);
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
