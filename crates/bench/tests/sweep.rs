//! Determinism regression tests for the parallel sweep executor.
//!
//! The contract gated here (and by `scripts/verify.sh` at the binary
//! level): running a sweep on N workers produces *byte-identical* rendered
//! tables and CSV to running it serially, because each cell is a pure,
//! seed-isolated simulation and results are collected by original cell
//! position, not completion order.

use bench::figures::fig12::app_scenario;
use bench::{latency_row, Opts, Sweep, SweepResults, LATENCY_HEADER};
use dd_metrics::Table;
use dd_workload::mailserver::MailConfig;
use simkit::SimDuration;
use testbed::scenario::{AppKind, MachinePreset, Scenario, StackSpec};

fn opts() -> Opts {
    Opts::new(true, false, 1)
}

/// A miniature Fig. 6-shaped sweep: 2 T-pressure stages × 3 stacks.
fn build_sweep() -> Sweep {
    let mut sweep = Sweep::new();
    for nr_t in [2u16, 8] {
        for stack in [
            StackSpec::vanilla(),
            StackSpec::blk_switch(),
            StackSpec::daredevil(),
        ] {
            sweep.add(
                format!("T={nr_t}"),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
        }
    }
    sweep
}

/// Renders the whole result set the way the figure modules do (table +
/// CSV), so the comparison covers every formatted digit.
fn render(results: &mut SweepResults) -> String {
    let mut table = Table::new("determinism probe", &LATENCY_HEADER);
    while results.remaining() > 0 {
        let (label, out) = results.next_labelled();
        table.row(&latency_row(label, &out));
    }
    format!("{}{}", table.render(), table.to_csv())
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let o = opts();
    let mut serial = build_sweep().run_with_jobs(&o, 1);
    let mut par = build_sweep().run_with_jobs(&o, 4);
    assert_eq!(serial.stats().jobs, 1);
    // On a multi-core host 6 cells keep all 4 workers; a single-core host
    // degrades to the pool-free inline loop (the point of the clamp).
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let expect_jobs = if cores <= 1 { 1 } else { 4 };
    assert_eq!(par.stats().jobs, expect_jobs, "worker clamp mismatch");
    let serial = render(&mut serial);
    let par = render(&mut par);
    assert_eq!(serial, par, "jobs=4 output diverged from jobs=1");
}

/// The inline serial loop recycles one `RunArena` across cells; its output
/// must be byte-identical to running every cell on a fresh machine (the
/// pre-arena behaviour). This is the executor-level gate on the arena's
/// "recycled == fresh" contract.
#[test]
fn arena_recycled_serial_loop_matches_fresh_runs() {
    let o = opts();
    let recycled = render(&mut build_sweep().run_with_jobs(&o, 1));
    // Fresh path: same cells, each through `testbed::run` (fresh arena per
    // run), rendered identically.
    let mut table = Table::new("determinism probe", &LATENCY_HEADER);
    for nr_t in [2u16, 8] {
        for stack in [
            StackSpec::vanilla(),
            StackSpec::blk_switch(),
            StackSpec::daredevil(),
        ] {
            let s = bench::scaled(&o, Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM));
            let out = testbed::run(s);
            table.row(&latency_row(format!("T={nr_t}"), &out));
        }
    }
    let fresh = format!("{}{}", table.render(), table.to_csv());
    assert_eq!(recycled, fresh, "arena recycling changed sweep output");
}

#[test]
fn rerun_on_same_worker_count_is_reproducible() {
    // Guards against per-run state leaking across cells (a pure-function
    // regression would show up here even before the parallel diff).
    let o = opts();
    let a = render(&mut build_sweep().run_with_jobs(&o, 2));
    let b = render(&mut build_sweep().run_with_jobs(&o, 2));
    assert_eq!(a, b);
}

#[test]
fn results_come_back_in_cell_order() {
    let o = opts();
    let mut results = build_sweep().run_with_jobs(&o, 3);
    let mut labels = Vec::new();
    while results.remaining() > 0 {
        labels.push(results.next_labelled().0);
    }
    assert_eq!(labels, ["T=2", "T=2", "T=2", "T=8", "T=8", "T=8"]);
}

#[test]
fn stats_account_for_every_cell() {
    let o = opts();
    let results = build_sweep().run_with_jobs(&o, 4);
    let stats = results.stats();
    assert_eq!(stats.runs, 6);
    assert!(stats.events > 0, "runs must process simulation events");
    assert!(stats.wall_s >= 0.0);
}

#[test]
fn worker_count_is_clamped_to_cells() {
    let o = opts();
    let mut sweep = Sweep::new();
    sweep.add(
        "only",
        Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 2, MachinePreset::SvM),
    );
    let results = sweep.run_with_jobs(&o, 64);
    assert_eq!(results.stats().jobs, 1, "1 cell never spawns 64 workers");
    assert_eq!(results.stats().runs, 1);
}

#[test]
#[should_panic(expected = "sweep exhausted")]
fn over_consuming_results_fails_loudly() {
    let o = opts();
    let mut sweep = Sweep::new();
    sweep.add(
        "only",
        Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 2, MachinePreset::SvM),
    );
    let mut results = sweep.run_with_jobs(&o, 1);
    let _ = results.next_output();
    let _ = results.next_output(); // one past the end
}

/// A Mailserver cell run to completion under a 1 ms ceiling: far too
/// short for its 1 000 ops.
fn cut_off_app_cell() -> Scenario {
    let app = AppKind::Mailserver {
        config: MailConfig::default(),
        ops: 1_000,
    };
    let mut s = app_scenario(StackSpec::daredevil(), app, "mailserver");
    s.knobs.measure = SimDuration::from_millis(1);
    s
}

#[test]
#[should_panic(expected = "daredevil-mailserver: 1 app(s) unfinished")]
fn sweep_fails_loudly_when_a_ceiling_cuts_an_app_off() {
    let mut sweep = Sweep::new();
    sweep.add("cut", cut_off_app_cell());
    let _ = sweep.run_with_jobs(&opts(), 2);
}
