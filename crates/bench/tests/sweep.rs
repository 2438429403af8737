//! Determinism regression tests for the parallel sweep executor.
//!
//! The contract gated here (and by `scripts/verify.sh` at the binary
//! level): running a sweep on N workers produces *byte-identical* rendered
//! tables and CSV to running it serially, because each cell is a pure,
//! seed-isolated simulation and results come back paired with their keys,
//! in add order, not completion order.

use bench::figures::fig12::app_scenario;
use bench::figures::paper_stacks;
use bench::{latency_row, Opts, Sweep, LATENCY_HEADER};
use dd_metrics::Table;
use dd_workload::mailserver::MailConfig;
use simkit::SimDuration;
use testbed::scenario::{AppKind, MachinePreset, Scenario, StackSpec};
use testbed::RunOutput;

fn opts(jobs: usize) -> Opts {
    Opts::new(true, false, jobs)
}

/// A miniature Fig. 6-shaped sweep: 2 T-pressure stages × 3 stacks, each
/// cell keyed by its (T-tenants, stack name).
fn build_sweep() -> Sweep<(u16, &'static str)> {
    let mut sweep = Sweep::new();
    for nr_t in [2u16, 8] {
        for stack in paper_stacks() {
            sweep.add(
                (nr_t, stack.name()),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
        }
    }
    sweep
}

/// Renders the whole result set the way the figure modules do (table +
/// CSV), so the comparison covers every formatted digit.
fn render(results: &[((u16, &str), RunOutput)]) -> String {
    let mut table = Table::new("determinism probe", &LATENCY_HEADER);
    for ((nr_t, _), out) in results {
        table.row(&latency_row(format!("T={nr_t}"), out));
    }
    format!("{}{}", table.render(), table.to_csv())
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let serial = render(&build_sweep().run(&opts(1)));
    let par = render(&build_sweep().run(&opts(4)));
    assert_eq!(serial, par, "jobs=4 output diverged from jobs=1");
}

/// Each worker recycles one `RunArena` across the cells it claims; with
/// one worker that is every cell. The output must be byte-identical to
/// running every cell on a fresh machine (the pre-arena behaviour). This
/// is the executor-level gate on the arena's "recycled == fresh" contract.
#[test]
fn arena_recycled_serial_loop_matches_fresh_runs() {
    let o = opts(1);
    let recycled = render(&build_sweep().run(&o));
    // Fresh path: same cells, each through `testbed::run` (fresh arena per
    // run), rendered identically.
    let mut table = Table::new("determinism probe", &LATENCY_HEADER);
    for nr_t in [2u16, 8] {
        for stack in paper_stacks() {
            let s = bench::scaled(
                &o,
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
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
    let a = render(&build_sweep().run(&opts(2)));
    let b = render(&build_sweep().run(&opts(2)));
    assert_eq!(a, b);
}

/// Keys come back in add order at any worker count, each paired with its
/// own cell's output.
#[test]
fn results_come_back_in_cell_order() {
    let expected: Vec<(u16, &str)> = [2u16, 8]
        .into_iter()
        .flat_map(|nr_t| paper_stacks().map(|s| (nr_t, s.name())))
        .collect();
    for jobs in [1, 3, 4] {
        let results = build_sweep().run(&opts(jobs));
        let keys: Vec<(u16, &str)> = results.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, expected, "jobs={jobs}");
        for ((nr_t, stack), out) in &results {
            assert_eq!(out.summary.stack, *stack, "jobs={jobs}");
            let t_tenants = out.tenants().filter(|t| t.class() == "T").count();
            assert_eq!(t_tenants, *nr_t as usize, "jobs={jobs}");
        }
    }
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
    sweep.add((), cut_off_app_cell());
    let _ = sweep.run(&opts(2));
}
