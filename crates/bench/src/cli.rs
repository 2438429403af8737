//! The command line of the `figures` binary.
//!
//! `figures [NAME...] [FLAGS]` runs the named entries of
//! [`crate::figures::FIGURES`] (or the default sweep when no name is
//! given), and [`Opts::from_args`] parses it: the same flags mean the
//! same thing for every figure, and *unknown flags or figure names exit
//! 2 with usage*. Its flag lexer, [`Args`], is shared with the `ddsim`
//! binary.
//!
//! ```text
//! --quick            reduced durations (CI/smoke scale)
//! --csv              also print CSV after each table
//! --jobs N           sweep worker threads
//! --seed N           override every scenario's RNG seed
//! --trace [PHASES]   record a per-request span trace (all phases, or a
//!                    comma-separated subset: submit,routed,nsq_enqueue,
//!                    doorbell,device_fetch,flash_done,cqe_posted,
//!                    irq_fire,complete)
//! --trace-out PATH   trace CSV destination (default trace.csv)
//! --trace-cap N      trace ring capacity in events (default 1048576)
//! --faults SPEC      inject device faults into every scenario; SPEC is a
//!                    comma-separated subset of: spikes (die latency
//!                    spikes), irqloss (lost IRQ raises), stalls (NSQ
//!                    fetch stalls), or all / none
//! --fault-seed N     fault-schedule seed (default 221; independent of
//!                    the workload seed so the same schedule can replay
//!                    against different traffic)
//! --policy NAME      Daredevil scheduling policy for every scenario:
//!                    default (Algorithm 1/2), deadline, sizeclass, or
//!                    fairshare; no-op for non-Daredevil stacks
//! ```
//!
//! # Trace CSV
//!
//! When `--trace` is given, every executed sweep cell appends its
//! harvested [`simkit::TraceEvent`]s to one CSV:
//!
//! ```text
//! cell,rq,tenant,sla,phase,outlier,core,nsq,t_ns
//! 0:vanilla-L4T8,42,3,L,submit,,0,,5003200
//! 0:vanilla-L4T8,42,3,L,routed,0,0,2,5003200
//! ```
//!
//! `cell` is `<ordinal>:<scenario name>` in cell-definition order, and
//! events are dumped *after* a sweep completes, in original cell order —
//! never in (timing-dependent) completion order — so the file is
//! byte-identical for `--jobs 1` and `--jobs N` (gated by
//! `scripts/verify.sh`). A cell whose ring wrapped reports the eviction
//! count on stderr; the CSV itself only ever contains real events.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dd_metrics::Table;
use simkit::{Phase, SimDuration, TraceEvent, MASK_ALL, PHASE_NAMES};
use testbed::RunOutput;

use crate::figures::{self, Figure};

const USAGE: &str = "usage: figures [NAME...] [--quick] [--csv] [--jobs N] [--seed N]\n\
  \x20              [--trace [PHASES]] [--trace-out PATH] [--trace-cap N]\n\
  \x20              [--faults SPEC] [--fault-seed N] [--policy NAME]\n\
  NAME             a figure to run (default: the paper sweep, table1 through\n\
  \x20                ext_breakdown); unknown names list the known ones\n\
  --quick          reduced durations (CI/smoke scale)\n\
  --csv            also print CSV after each table\n\
  --jobs N         sweep worker threads (default: available parallelism,\n\
  \x20                or the DD_JOBS environment variable)\n\
  --seed N         override every scenario's RNG seed\n\
  --trace [PHASES] record a per-request span trace; PHASES is a comma-\n\
  \x20                separated subset of: submit,routed,nsq_enqueue,doorbell,\n\
  \x20                device_fetch,flash_done,cqe_posted,irq_fire,complete\n\
  \x20                (default: all)\n\
  --trace-out PATH trace CSV destination (default: trace.csv)\n\
  --trace-cap N    trace ring capacity in events (default: 1048576)\n\
  --faults SPEC    inject device faults into every scenario; SPEC is a\n\
  \x20                comma-separated subset of: spikes,irqloss,stalls, or\n\
  \x20                all / none\n\
  --fault-seed N   fault-schedule seed (default: 221)\n\
  --policy NAME    Daredevil scheduling policy applied to every scenario:\n\
  \x20                default, deadline, sizeclass, or fairshare (no-op for\n\
  \x20                stacks without a policy layer)";

/// Default trace ring capacity in events (per run).
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// Command-line options shared by every figure.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Figures named on the command line, in order; empty means the
    /// default sweep.
    pub figures: Vec<&'static Figure>,
    /// Run a reduced-scale version (CI/smoke).
    pub quick: bool,
    /// Also print CSV after each table.
    pub csv: bool,
    /// Worker threads for [`crate::Sweep`] execution (≥ 1).
    pub jobs: usize,
    /// Seed override applied to every scenario (`--seed`).
    pub seed: Option<u64>,
    /// Phase mask to trace (`--trace`); `None` leaves each scenario's own
    /// trace configuration (usually off) in effect.
    pub trace: Option<u16>,
    /// Destination of the trace CSV (`--trace-out`).
    pub trace_out: String,
    /// Trace ring capacity in events (`--trace-cap`).
    pub trace_cap: usize,
    /// Fault classes to inject into every scenario (`--faults`); `None`
    /// (and the explicit `none` spec) keeps fault injection off.
    pub faults: Option<simkit::FaultClasses>,
    /// Fault-schedule seed (`--fault-seed`), independent of `--seed`.
    pub fault_seed: Option<u64>,
    /// Daredevil policy override applied to every scenario (`--policy`);
    /// `None` keeps each scenario's configured policy (the default one).
    pub policy: Option<daredevil::PolicySpec>,
}

/// Default fault-schedule seed (`0xDD` — arbitrary but fixed, so fault
/// runs are reproducible without passing `--fault-seed`).
pub const DEFAULT_FAULT_SEED: u64 = 0xDD;

impl Opts {
    /// Options for embedded use (bench harnesses, tests): no tracing, no
    /// seed override.
    pub fn new(quick: bool, csv: bool, jobs: usize) -> Self {
        Opts {
            figures: Vec::new(),
            quick,
            csv,
            jobs,
            seed: None,
            trace: None,
            trace_out: "trace.csv".to_string(),
            trace_cap: DEFAULT_TRACE_CAP,
            faults: None,
            fault_seed: None,
            policy: None,
        }
    }

    /// The fault-injection request implied by `--faults`/`--fault-seed`:
    /// `Some` only when at least one fault class was enabled (an explicit
    /// `--faults none` stays off, keeping fault-free runs byte-identical).
    pub fn fault_spec(&self) -> Option<simkit::FaultSpec> {
        let classes = self.faults.filter(|c| c.any())?;
        Some(simkit::FaultSpec::new(
            classes,
            self.fault_seed.unwrap_or(DEFAULT_FAULT_SEED),
        ))
    }

    /// The default worker count: `DD_JOBS` if set and valid, otherwise the
    /// host's available parallelism.
    pub fn default_jobs() -> usize {
        if let Ok(v) = std::env::var("DD_JOBS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => {
                    eprintln!("invalid DD_JOBS={v:?} (want a positive integer)");
                    std::process::exit(2);
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Parses options from the process arguments. Unknown flags and
    /// figure names are an error (exit 2), not a warning.
    pub fn from_args() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv)
    }

    fn parse(argv: &[String]) -> Self {
        let mut opts = Opts::new(false, false, 0);
        let mut jobs: Option<usize> = None;
        let mut args = Args::new(argv, USAGE);
        while let Some(flag) = args.next_arg() {
            match flag {
                "--quick" => opts.quick = true,
                "--csv" => opts.csv = true,
                "--jobs" => jobs = Some(args.int(flag, 1)),
                "--seed" => opts.seed = Some(args.int(flag, 0)),
                "--trace" => {
                    // The phase list is optional: a following argument that
                    // is itself a flag or a figure means "trace everything".
                    let spec = args.optional_value(|next| {
                        !next.starts_with('-') && figures::find(next).is_none()
                    });
                    opts.trace = Some(match spec {
                        None | Some("") | Some("all") => MASK_ALL,
                        Some(list) => parse_phases(list).unwrap_or_else(|name| {
                            args.fail(format!(
                                "unknown phase {name:?} in --trace (known: {})",
                                PHASE_NAMES.join(",")
                            ))
                        }),
                    });
                }
                "--faults" => {
                    let v = args.value(flag);
                    opts.faults = Some(
                        simkit::FaultClasses::from_list(v)
                            .unwrap_or_else(|e| args.fail(format!("invalid --faults value: {e}"))),
                    );
                }
                "--fault-seed" => opts.fault_seed = Some(args.int(flag, 0)),
                "--policy" => {
                    let v = args.value(flag);
                    opts.policy =
                        Some(daredevil::PolicySpec::parse(v.trim()).unwrap_or_else(|| {
                            args.fail(format!(
                                "unknown --policy {v:?} (known: {})",
                                daredevil::PolicySpec::ALL.map(|p| p.name()).join(", ")
                            ))
                        }));
                }
                "--trace-out" => opts.trace_out = args.value(flag).to_string(),
                "--trace-cap" => opts.trace_cap = args.int(flag, 1),
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                name if !name.starts_with('-') => match figures::find(name) {
                    Some(f) => opts.figures.push(f),
                    None => args.fail(format!(
                        "unknown figure {name:?} (known: {})",
                        figures::names()
                    )),
                },
                other => args.fail(format!("unknown argument {other:?}")),
            }
        }
        opts.jobs = jobs.unwrap_or_else(Self::default_jobs);
        opts
    }

    /// Warm-up duration for this scale.
    pub fn warmup(&self) -> SimDuration {
        if self.quick {
            SimDuration::from_millis(5)
        } else {
            SimDuration::from_millis(50)
        }
    }

    /// Measurement window for this scale.
    ///
    /// The paper runs 10 wall-clock minutes per stage; queueing systems at
    /// these arrival rates reach steady state within tens of milliseconds of
    /// simulated time, so 800 ms measured per stage preserves the shape
    /// (EXPERIMENTS.md records this scale substitution).
    pub fn measure(&self) -> SimDuration {
        if self.quick {
            SimDuration::from_millis(40)
        } else {
            SimDuration::from_millis(800)
        }
    }

    /// The §7.1 T-pressure stages.
    pub fn t_stages(&self) -> Vec<u16> {
        if self.quick {
            vec![2, 8]
        } else {
            vec![0, 2, 4, 8, 16, 32]
        }
    }

    /// Emits a finished table (and CSV when requested).
    pub fn emit(&self, table: &Table) {
        write_stdout(|out| {
            write!(out, "{}", table.render())?;
            if self.csv {
                writeln!(out, "--- csv ---")?;
                write!(out, "{}", table.to_csv())?;
                writeln!(out, "-----------")?;
            }
            writeln!(out)
        });
    }
}

/// Writes to stdout through one locked handle, shared by `figures` and
/// `ddsim`. A reader that closed the pipe early (`figures fig6 | head -1`)
/// ends the process quietly with exit 0; any other write error panics.
pub fn write_stdout(f: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>) {
    let mut out = io::stdout().lock();
    match f(&mut out).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed writing to stdout: {e}"),
    }
}

/// A cursor over a command line, shared by `figures` and `ddsim`: a flag
/// takes its value as `--flag value` or `--flag=value`, and every error
/// prints its message and the usage text to stderr and exits 2.
pub struct Args<'a> {
    argv: &'a [String],
    at: usize,
    /// The `=value` of the flag last returned by [`Args::next_arg`].
    inline: Option<&'a str>,
    usage: &'a str,
}

impl<'a> Args<'a> {
    /// A cursor at the first of `argv` (the arguments after the program
    /// name).
    pub fn new(argv: &'a [String], usage: &'a str) -> Self {
        Args {
            argv,
            at: 0,
            inline: None,
            usage,
        }
    }

    /// The next argument; a flag's `=value` is split off and kept for
    /// [`Args::value`].
    pub fn next_arg(&mut self) -> Option<&'a str> {
        let arg = self.argv.get(self.at)?;
        self.at += 1;
        self.inline = None;
        match arg.split_once('=') {
            Some((flag, v)) if flag.starts_with('-') => {
                self.inline = Some(v);
                Some(flag)
            }
            _ => Some(arg),
        }
    }

    /// The current flag's value: its `=value`, or else the next argument.
    pub fn value(&mut self, flag: &str) -> &'a str {
        if let Some(v) = self.inline.take() {
            return v;
        }
        let Some(v) = self.argv.get(self.at) else {
            self.fail(format!("{flag} needs a value"))
        };
        self.at += 1;
        v
    }

    /// The current flag's optional value: its `=value`, or the next
    /// argument when `takes` accepts it.
    pub fn optional_value(&mut self, takes: impl Fn(&str) -> bool) -> Option<&'a str> {
        if let Some(v) = self.inline.take() {
            return Some(v);
        }
        let v = self.argv.get(self.at).filter(|v| takes(v))?;
        self.at += 1;
        Some(v)
    }

    /// The current flag's value as an integer no smaller than `min`.
    pub fn int<T: FromStr + PartialOrd + Display>(&mut self, flag: &str, min: T) -> T {
        let v = self.value(flag);
        match v.trim().parse::<T>() {
            Ok(n) if n >= min => n,
            _ => self.fail(format!(
                "invalid {flag} value {v:?} (want an integer >= {min})"
            )),
        }
    }

    /// Prints `msg` and the usage text to stderr and exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// Parses a comma-separated phase list into a mask; `Err` carries the
/// first unknown name.
fn parse_phases(list: &str) -> Result<u16, String> {
    let mut mask = 0u16;
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match Phase::bit_from_name(name) {
            Some(bit) => mask |= bit,
            None => return Err(name.to_string()),
        }
    }
    if mask == 0 {
        Ok(MASK_ALL)
    } else {
        Ok(mask)
    }
}

/// Ordinal of the next dumped cell (process-wide: the `figures` binary runs
/// its sweeps sequentially, so ordinals are deterministic).
static CELL_SEQ: AtomicU64 = AtomicU64::new(0);
/// The process-wide trace CSV writer, opened on first dump.
static WRITER: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Appends one cell's harvested trace to the CSV at `opts.trace_out`.
///
/// No-op unless `--trace` was given. Called by the sweep executor in add
/// order after the sweep completes, so dump order is
/// execution-binding-independent.
pub(crate) fn dump_cell_trace(opts: &Opts, cell_name: &str, out: &RunOutput) {
    if opts.trace.is_none() {
        return;
    }
    let cell = format!("{}:{}", CELL_SEQ.fetch_add(1, Ordering::Relaxed), cell_name);
    if out.trace_dropped > 0 {
        eprintln!(
            "trace: cell {cell}: ring wrapped, {} oldest events evicted \
             (raise --trace-cap for complete spans)",
            out.trace_dropped
        );
    }
    let mut guard = WRITER.lock().expect("trace writer lock");
    let w = guard.get_or_insert_with(|| {
        let f = File::create(&opts.trace_out).unwrap_or_else(|e| {
            eprintln!("trace: cannot create {}: {e}", opts.trace_out);
            std::process::exit(1);
        });
        let mut w = BufWriter::new(f);
        writeln!(w, "cell,rq,tenant,sla,phase,outlier,core,nsq,t_ns").expect("trace header write");
        w
    });
    for ev in &out.trace {
        write_event(w, &cell, ev).expect("trace event write");
    }
    w.flush().expect("trace flush");
}

fn write_event(w: &mut impl std::io::Write, cell: &str, ev: &TraceEvent) -> std::io::Result<()> {
    let outlier = match ev.phase {
        Phase::Routed { outlier } => {
            if outlier {
                "1"
            } else {
                "0"
            }
        }
        _ => "",
    };
    write!(
        w,
        "{cell},{},{},{},{},{outlier},{},",
        ev.rq,
        ev.tenant,
        ev.sla.name(),
        ev.phase.name(),
        ev.core
    )?;
    if let Some(q) = ev.nsq {
        write!(w, "{q}")?;
    }
    writeln!(w, ",{}", ev.t.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{SimTime, Sla};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_trace_flags() {
        let o = Opts::parse(&args(&[
            "--quick",
            "--trace",
            "submit,complete",
            "--trace-out",
            "/tmp/t.csv",
            "--trace-cap",
            "4096",
            "--seed",
            "7",
            "--jobs",
            "2",
        ]));
        assert!(o.quick);
        assert_eq!(o.trace, Some(Phase::Submit.bit() | Phase::Complete.bit()));
        assert_eq!(o.trace_out, "/tmp/t.csv");
        assert_eq!(o.trace_cap, 4096);
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.jobs, 2);
    }

    #[test]
    fn bare_trace_means_all_phases() {
        let o = Opts::parse(&args(&["--trace", "--jobs", "1"]));
        assert_eq!(o.trace, Some(MASK_ALL));
        let o = Opts::parse(&args(&["--jobs", "1", "--trace"]));
        assert_eq!(o.trace, Some(MASK_ALL));
        let o = Opts::parse(&args(&["--trace=all", "--jobs", "1"]));
        assert_eq!(o.trace, Some(MASK_ALL));
    }

    #[test]
    fn parses_fault_flags() {
        let o = Opts::parse(&args(&[
            "--faults",
            "spikes,stalls",
            "--fault-seed",
            "9",
            "--jobs",
            "1",
        ]));
        let classes = o.faults.unwrap();
        assert!(classes.die_spikes && classes.nsq_stalls && !classes.irq_loss);
        assert_eq!(o.fault_seed, Some(9));
        let spec = o.fault_spec().unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.classes, classes);
        let o = Opts::parse(&args(&["--faults=all", "--jobs", "1"]));
        assert_eq!(o.faults, Some(simkit::FaultClasses::ALL));
        assert_eq!(o.fault_spec().unwrap().seed, DEFAULT_FAULT_SEED);
        // `none` parses but arms nothing: fault-free runs stay identical.
        let o = Opts::parse(&args(&["--faults", "none", "--jobs", "1"]));
        assert_eq!(o.faults, Some(simkit::FaultClasses::NONE));
        assert!(o.fault_spec().is_none());
        // No flag at all: off.
        assert!(Opts::parse(&args(&["--jobs", "1"])).fault_spec().is_none());
    }

    #[test]
    fn parses_policy_flag() {
        let o = Opts::parse(&args(&["--policy", "deadline", "--jobs", "1"]));
        assert_eq!(o.policy, Some(daredevil::PolicySpec::Deadline));
        let o = Opts::parse(&args(&["--policy=fairshare", "--jobs", "1"]));
        assert_eq!(o.policy, Some(daredevil::PolicySpec::FairShare));
        assert_eq!(Opts::parse(&args(&["--jobs", "1"])).policy, None);
    }

    #[test]
    fn positional_names_select_figures() {
        let o = Opts::parse(&args(&["fig6", "--quick", "ext_fleet", "--jobs", "1"]));
        let names: Vec<_> = o.figures.iter().map(|f| f.name).collect();
        assert_eq!(names, ["fig6", "ext_fleet"]);
        assert!(o.quick);
        assert!(Opts::parse(&args(&["--jobs", "1"])).figures.is_empty());
        // A bare `--trace` does not swallow a following figure name.
        let o = Opts::parse(&args(&["--trace", "fig2", "--jobs", "1"]));
        assert_eq!(o.trace, Some(MASK_ALL));
        assert_eq!(o.figures[0].name, "fig2");
    }

    #[test]
    fn equals_form_accepted() {
        let o = Opts::parse(&args(&["--jobs=3", "--trace=irq_fire", "--seed=9"]));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.trace, Some(Phase::IrqFire.bit()));
        assert_eq!(o.seed, Some(9));
    }

    #[test]
    fn event_rows_are_stable() {
        let mut buf = Vec::new();
        let ev = TraceEvent {
            t: SimTime::from_nanos(12345),
            rq: 7,
            tenant: 3,
            sla: Sla::L,
            phase: Phase::Routed { outlier: true },
            core: 2,
            nsq: Some(5),
        };
        write_event(&mut buf, "0:cell", &ev).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "0:cell,7,3,L,routed,1,2,5,12345\n"
        );
    }
}
