//! `ddsim` — run custom multi-tenant scenarios from the command line.
//!
//! ```sh
//! cargo run --release --bin ddsim -- --stack daredevil --l 4 --t 16 --cores 4
//! cargo run --release --bin ddsim -- --stack vanilla --machine ws-m --measure-ms 500
//! cargo run --release --bin ddsim -- --stack blk-switch --namespaces 8
//! cargo run --release --bin ddsim -- --list-stacks
//! ```

use std::io::{self, Write};

use bench::cli::write_stdout;
use daredevil_repro::blkstack::iosched::SchedKind;
use daredevil_repro::metrics::table::fmt_ms;
use daredevil_repro::metrics::SpanTable;
use daredevil_repro::prelude::*;
use daredevil_repro::simkit::{Phase, SimTime, TraceSpec, MASK_ALL};

/// Builds one stack's spec.
type StackCtor = fn() -> StackSpec;

/// Every stack ddsim can run, by its `--stack` name.
const STACKS: &[(&str, StackCtor)] = &[
    ("vanilla", StackSpec::vanilla),
    ("vanilla-partitioned", || StackSpec::vanilla_partitioned(4)),
    ("mq-deadline", || {
        StackSpec::vanilla_sched(SchedKind::MqDeadline)
    }),
    ("kyber", || StackSpec::vanilla_sched(SchedKind::Kyber)),
    ("blk-switch", StackSpec::blk_switch),
    ("overprov", StackSpec::overprov),
    ("dare-base", StackSpec::dare_base),
    ("dare-sched", StackSpec::dare_sched),
    ("daredevil", StackSpec::daredevil),
    ("virtio-naive", || {
        StackSpec::virtio(StackSpec::daredevil(), false)
    }),
    ("virtio-sla", || {
        StackSpec::virtio(StackSpec::daredevil(), true)
    }),
];

fn stack_names() -> String {
    STACKS
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(", ")
}

struct Args {
    /// The `--stack` entry of [`STACKS`].
    stack: (&'static str, fn() -> StackSpec),
    machine: MachinePreset,
    nr_l: u16,
    nr_t: u16,
    cores: u16,
    namespaces: Option<u32>,
    warmup_ms: u64,
    measure_ms: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            stack: ("daredevil", StackSpec::daredevil),
            machine: MachinePreset::SvM,
            nr_l: 4,
            nr_t: 8,
            cores: 4,
            namespaces: None,
            warmup_ms: 50,
            measure_ms: 800,
            seed: 42,
        }
    }
}

const USAGE: &str = "usage: ddsim [--stack NAME] [--machine sv-m|ws-m|small] [--l N] [--t N]\n\
  \x20            [--cores N] [--namespaces N] [--warmup-ms N] [--measure-ms N]\n\
  \x20            [--seed N] [--list-stacks]";

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = format!("{USAGE}\nstacks: {}", stack_names());
    let mut cli = bench::cli::Args::new(&argv, &usage);
    while let Some(flag) = cli.next_arg() {
        match flag {
            "--stack" => {
                let v = cli.value(flag);
                args.stack = *STACKS
                    .iter()
                    .find(|(name, _)| *name == v)
                    .unwrap_or_else(|| cli.fail(format!("unknown stack {v:?}")));
            }
            "--machine" => {
                args.machine = match cli.value(flag) {
                    "sv-m" => MachinePreset::SvM,
                    "ws-m" => MachinePreset::WsM,
                    "small" => MachinePreset::Small,
                    other => cli.fail(format!("unknown machine {other:?}")),
                }
            }
            "--l" => args.nr_l = cli.int(flag, 0),
            "--t" => args.nr_t = cli.int(flag, 0),
            // The scenario constructors assume these bounds (the L:T
            // namespace ratio is 1:3); reject here rather than panic there.
            "--cores" => args.cores = cli.int(flag, 1),
            "--namespaces" => args.namespaces = Some(cli.int(flag, 4)),
            "--warmup-ms" => args.warmup_ms = cli.int(flag, 0),
            "--measure-ms" => args.measure_ms = cli.int(flag, 0),
            "--seed" => args.seed = cli.int(flag, 0),
            "--list-stacks" => {
                write_stdout(|out| {
                    STACKS
                        .iter()
                        .try_for_each(|(name, _)| writeln!(out, "{name}"))
                });
                std::process::exit(0);
            }
            "--help" | "-h" => {
                write_stdout(|out| writeln!(out, "{usage}"));
                std::process::exit(0);
            }
            other => cli.fail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let (stack_name, stack) = args.stack;
    let stack = stack();
    let mut scenario = match args.namespaces {
        Some(ns) => Scenario::multi_namespace(stack, ns, args.cores, args.machine),
        None => Scenario::multi_tenant_fio(stack, args.nr_l, args.nr_t, args.cores, args.machine),
    };
    scenario.knobs.seed = args.seed;
    scenario.knobs.warmup = SimDuration::from_millis(args.warmup_ms);
    scenario.knobs.measure = SimDuration::from_millis(args.measure_ms);
    if let Err(e) = scenario.validate() {
        eprintln!("invalid scenario: {e}");
        std::process::exit(2);
    }
    scenario.name = format!("ddsim-{stack_name}");
    // Trace the four phase-breakdown anchors so the report below can
    // stitch per-request spans (SpanTable) into the latency phase table.
    let breakdown_mask = Phase::Submit.bit()
        | Phase::DeviceFetch.bit()
        | Phase::FlashDone.bit()
        | Phase::Complete.bit();
    scenario.knobs.trace = Some(TraceSpec {
        cap: 1 << 20,
        mask: breakdown_mask & MASK_ALL,
    });

    let out = daredevil_repro::testbed::run(scenario);
    write_stdout(|w| report(w, &out, args.warmup_ms));
}

/// Prints the run's per-class latencies, phase split and counters.
fn report(w: &mut impl Write, out: &RunOutput, warmup_ms: u64) -> io::Result<()> {
    writeln!(w, "{}", out.summary.headline())?;
    writeln!(w)?;
    for class in out.summary.classes() {
        let c = out.summary.class(&class);
        writeln!(
            w,
            "{:>4}: n={:<8} p50={:>10}  p99={:>10}  p99.9={:>10}  {:.0} IOPS  {:.1} MB/s",
            class,
            c.ios_completed,
            fmt_ms(c.latency.p50()),
            fmt_ms(c.latency.p99()),
            fmt_ms(c.latency.p999()),
            c.iops(out.summary.window_secs()),
            c.throughput_mbps(out.summary.window_secs()),
        )?;
    }
    writeln!(
        w,
        "\nlatency phases (avg ms: in-NSQ wait / device service / delivery):"
    )?;
    let spans = SpanTable::build(&out.trace);
    let window_start = SimTime::from_millis(warmup_ms);
    for class in out.summary.classes() {
        let in_class = |s: &daredevil_repro::metrics::Span| {
            s.sla.name() == class && s.completed_at().is_some_and(|t| t >= window_start)
        };
        let wait = spans.segment_stats(Phase::Submit, Phase::DeviceFetch, in_class);
        if wait.count == 0 {
            continue;
        }
        writeln!(
            w,
            "{:>4}: {:.3} / {:.3} / {:.3}",
            class,
            wait.avg_ms(),
            spans
                .segment_stats(Phase::DeviceFetch, Phase::FlashDone, in_class)
                .avg_ms(),
            spans
                .segment_stats(Phase::FlashDone, Phase::Complete, in_class)
                .avg_ms(),
        )?;
    }
    if out.trace_dropped > 0 {
        writeln!(
            w,
            "(trace ring wrapped: {} events evicted; phase averages are partial)",
            out.trace_dropped
        )?;
    }
    let st = &out.stack_stats;
    writeln!(
        w,
        "\nstack: {} submitted, {} completed ({} remote), {} requeues, {} steering actions",
        st.submitted_rqs, st.completed_rqs, st.remote_completions, st.requeues, st.steering_actions
    )?;
    writeln!(
        w,
        "device: flash queue delay {}, events {}, T fairness (Jain) {:.3}",
        out.flash_queue_delay,
        out.summary.events_processed,
        out.summary.jain_fairness("T"),
    )
}
