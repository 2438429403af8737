//! `ddsim` rejects bad input itself: exit 2 naming the bad flag, never a
//! panic (exit 101) inside the scenario constructors.

use std::process::{Command, Output};

fn ddsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ddsim"))
        .args(args)
        .output()
        .expect("run ddsim")
}

/// Runs ddsim, asserts its exit code, and returns its stderr.
fn expect_exit(args: &[&str], code: i32) -> String {
    let out = ddsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_ne!(out.status.code(), Some(101), "ddsim {args:?} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(code), "ddsim {args:?}: {stderr}");
    stderr
}

#[test]
fn bad_numbers_exit_2_naming_the_flag() {
    assert!(expect_exit(&["--cores", "0"], 2).contains("--cores"));
    for ns in ["0", "3"] {
        assert!(expect_exit(&["--namespaces", ns], 2).contains("--namespaces"));
    }
    assert!(expect_exit(&["--l", "abc"], 2).contains("--l value \"abc\""));
    assert!(expect_exit(&["--seed", "-1"], 2).contains("--seed"));
    assert!(expect_exit(&["--t"], 2).contains("--t needs a value"));
}

#[test]
fn unknown_names_exit_2() {
    assert!(expect_exit(&["--stack", "nope"], 2).contains("unknown stack"));
    assert!(expect_exit(&["--machine", "nope"], 2).contains("unknown machine"));
    assert!(expect_exit(&["--nope"], 2).contains("unknown argument"));
}

#[test]
fn help_exits_0() {
    expect_exit(&["--help"], 0);
    let out = ddsim(&["-h"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: ddsim"));
}

#[test]
fn every_listed_stack_runs() {
    let out = ddsim(&["--list-stacks"]);
    assert_eq!(out.status.code(), Some(0));
    let list = String::from_utf8(out.stdout).expect("utf-8 stack list");
    assert!(list.lines().count() > 1);
    for stack in list.lines() {
        let args = ["--stack", stack, "--l", "1", "--t", "1", "--warmup-ms", "1", "--measure-ms", "2"];
        expect_exit(&args, 0);
    }
    let args = ["--namespaces", "4", "--warmup-ms", "1", "--measure-ms", "2"];
    expect_exit(&args, 0);
}
