//! `pema-cli` rejects what it does not understand: a misspelled flag,
//! a non-integer where an integer is read, a command that no longer
//! exists. Each used to run with a silently applied default.

use std::process::{Command, Output};

fn cli(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pema-cli"))
        .args(line.split_whitespace())
        .output()
        .expect("pema-cli runs")
}

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
    ];
    for (line, complaint) in cases {
        let out = cli(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(stderr.contains(complaint), "`{line}`: {stderr}");
    }
}

#[test]
fn a_seed_above_2_pow_53_is_accepted() {
    let out = cli("fleet --count 2 --iters 1 --backend fluid --seed 9007199254740993");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
