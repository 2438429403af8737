//! `ddsim` — run custom multi-tenant scenarios from the command line.
//!
//! ```sh
//! cargo run --release --bin ddsim -- --stack daredevil --l 4 --t 16 --cores 4
//! cargo run --release --bin ddsim -- --stack vanilla --machine ws-m --measure-ms 500
//! cargo run --release --bin ddsim -- --stack blk-switch --namespaces 8
//! cargo run --release --bin ddsim -- --list-stacks
//! ```

use daredevil_repro::blkstack::iosched::SchedKind;
use daredevil_repro::metrics::table::fmt_ms;
use daredevil_repro::metrics::SpanTable;
use daredevil_repro::prelude::*;
use daredevil_repro::simkit::{Phase, SimTime, TraceSpec, MASK_ALL};

/// Every stack ddsim can run, by its `--stack` name.
const STACKS: &[(&str, fn() -> StackSpec)] = &[
    ("vanilla", StackSpec::vanilla),
    ("vanilla-partitioned", || StackSpec::vanilla_partitioned(4)),
    ("mq-deadline", || StackSpec::vanilla_sched(SchedKind::MqDeadline)),
    ("kyber", || StackSpec::vanilla_sched(SchedKind::Kyber)),
    ("blk-switch", StackSpec::blk_switch),
    ("overprov", StackSpec::overprov),
    ("dare-base", StackSpec::dare_base),
    ("dare-sched", StackSpec::dare_sched),
    ("daredevil", StackSpec::daredevil),
    ("virtio-naive", || StackSpec::virtio(StackSpec::daredevil(), false)),
    ("virtio-sla", || StackSpec::virtio(StackSpec::daredevil(), true)),
];

fn stack_names() -> String {
    STACKS.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(", ")
}

struct Args {
    stack: String,
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
            stack: "daredevil".into(),
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

/// Rejects bad input: prints `msg` and the usage, exits 2.
fn bad(msg: String) -> ! {
    eprintln!("ddsim: {msg}\n{USAGE}\nstacks: {}", stack_names());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> String {
            i += 1;
            argv.get(i)
                .cloned()
                .unwrap_or_else(|| bad(format!("{flag} needs a value")))
        };
        match flag {
            "--stack" => args.stack = value(),
            "--machine" => {
                args.machine = match value().as_str() {
                    "sv-m" => MachinePreset::SvM,
                    "ws-m" => MachinePreset::WsM,
                    "small" => MachinePreset::Small,
                    other => bad(format!("unknown machine {other:?}")),
                }
            }
            "--l" => args.nr_l = number(flag, &value()),
            "--t" => args.nr_t = number(flag, &value()),
            "--cores" => args.cores = number(flag, &value()),
            "--namespaces" => args.namespaces = Some(number(flag, &value())),
            "--warmup-ms" => args.warmup_ms = number(flag, &value()),
            "--measure-ms" => args.measure_ms = number(flag, &value()),
            "--seed" => args.seed = number(flag, &value()),
            "--list-stacks" => {
                for (name, _) in STACKS {
                    println!("{name}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{USAGE}\nstacks: {}", stack_names());
                std::process::exit(0);
            }
            other => bad(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    // The scenario constructors assume these; reject here rather than
    // panic inside them.
    if args.cores == 0 {
        bad("--cores must be at least 1".to_string());
    }
    if args.namespaces.is_some_and(|ns| ns < 4) {
        bad("--namespaces must be at least 4 (the L:T namespace ratio is 1:3)".to_string());
    }
    args
}

/// Parses `flag`'s value as a non-negative integer.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| bad(format!("invalid {flag} value {v:?} (want a non-negative integer)")))
}

fn main() {
    let args = parse_args();
    let Some(&(_, stack)) = STACKS.iter().find(|(name, _)| *name == args.stack) else {
        bad(format!("unknown stack {:?}", args.stack));
    };
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
    scenario.name = format!("ddsim-{}", args.stack);
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
    println!("{}", out.summary.headline());
    println!();
    for class in out.summary.classes() {
        let c = out.summary.class(&class);
        println!(
            "{:>4}: n={:<8} p50={:>10}  p99={:>10}  p99.9={:>10}  {:.0} IOPS  {:.1} MB/s",
            class,
            c.ios_completed,
            fmt_ms(c.latency.p50()),
            fmt_ms(c.latency.p99()),
            fmt_ms(c.latency.p999()),
            c.iops(out.summary.window_secs()),
            c.throughput_mbps(out.summary.window_secs()),
        );
    }
    println!("\nlatency phases (avg ms: in-NSQ wait / device service / delivery):");
    let spans = SpanTable::build(&out.trace);
    let window_start = SimTime::from_millis(args.warmup_ms);
    for class in out.summary.classes() {
        let in_class = |s: &daredevil_repro::metrics::Span| {
            s.sla.name() == class && s.completed_at().is_some_and(|t| t >= window_start)
        };
        let wait = spans.segment_stats(Phase::Submit, Phase::DeviceFetch, in_class);
        if wait.count == 0 {
            continue;
        }
        println!(
            "{:>4}: {:.3} / {:.3} / {:.3}",
            class,
            wait.avg_ms(),
            spans
                .segment_stats(Phase::DeviceFetch, Phase::FlashDone, in_class)
                .avg_ms(),
            spans
                .segment_stats(Phase::FlashDone, Phase::Complete, in_class)
                .avg_ms(),
        );
    }
    if out.trace_dropped > 0 {
        println!(
            "(trace ring wrapped: {} events evicted; phase averages are partial)",
            out.trace_dropped
        );
    }
    let st = &out.stack_stats;
    println!(
        "\nstack: {} submitted, {} completed ({} remote), {} requeues, {} steering actions",
        st.submitted_rqs, st.completed_rqs, st.remote_completions, st.requeues, st.steering_actions
    );
    println!(
        "device: flash queue delay {}, events {}, T fairness (Jain) {:.3}",
        out.flash_queue_delay,
        out.events_processed,
        out.summary.jain_fairness("T"),
    );
}
