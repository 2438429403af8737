//! `ddsim` rejects bad input itself: exit 2 naming the bad flag, never a
//! panic (exit 101) inside the scenario constructors.

use std::io::Read;
use std::process::{Command, Output, Stdio};

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
    assert_ne!(
        out.status.code(),
        Some(101),
        "ddsim {args:?} panicked: {stderr}"
    );
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
        let args = [
            "--stack",
            stack,
            "--l",
            "1",
            "--t",
            "1",
            "--warmup-ms",
            "1",
            "--measure-ms",
            "2",
        ];
        let out = ddsim(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "ddsim {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The headline names the stack as `--stack` did (an elevator run
        // is `mq-deadline`, not `vanilla`).
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        assert!(
            stdout.starts_with(&format!("{stack}:")),
            "ddsim {args:?} headline: {stdout}"
        );
    }
    let args = ["--namespaces", "4", "--warmup-ms", "1", "--measure-ms", "2"];
    expect_exit(&args, 0);
}

/// `ddsim | head -1` with the reader gone before the report: the write
/// fails with a broken pipe, which ends the run with exit 0 instead of a
/// panic. ddsim writes its whole report at once after the run, so the
/// read end is dropped before the first line rather than after it.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ddsim"))
        .args([
            "--machine",
            "small",
            "--l",
            "1",
            "--t",
            "2",
            "--measure-ms",
            "20",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run ddsim");
    drop(child.stdout.take());
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    let status = child.wait().expect("wait for ddsim");
    assert_ne!(status.code(), Some(101), "ddsim panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
