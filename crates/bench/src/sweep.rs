//! Deterministic parallel sweep executor.
//!
//! Every figure of the paper's evaluation is an embarrassingly parallel
//! sweep: `testbed::run(Scenario) -> RunOutput` is a *pure* function (each
//! run builds its own machine, device, and per-run RNG from the scenario
//! seed — no shared mutable state), yet the seed harness executed the
//! cells of each sweep in nested serial loops, paying wall-clock =
//! Σ(all runs) on any host. [`Sweep`] decouples the *sweep definition*
//! (the ordered cell list a figure declares) from its *execution binding*
//! (which worker runs which cell when) — the harness-level mirror of
//! Daredevil's thesis that work should not be statically bound to a serial
//! resource.
//!
//! # Determinism argument
//!
//! Parallel execution is observationally identical to serial execution
//! because:
//!
//! 1. **per-run isolation** — a run's RNG is seeded from its own
//!    `Scenario::seed`; machines share nothing (no globals, no
//!    thread-locals, no wall-clock reads inside the simulation);
//! 2. **ordered collection** — workers claim cells through an atomic
//!    work-stealing index but deposit results into the slot of the cell's
//!    *original* position; consumers read the slots in order;
//! 3. **format-after-run** — the figure modules build all cells first,
//!    execute once, and only then render tables, so interleaved printing
//!    cannot reorder output.
//!
//! Hence `--jobs N` output is byte-identical to `--jobs 1` for every
//! figure (regression-tested in `crates/bench/tests/sweep.rs` and gated by
//! `scripts/verify.sh`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use testbed::{RunOutput, Scenario};

use crate::Opts;

/// An ordered collection of labelled sweep cells, executed together.
///
/// Build cells first (in the figure's natural nested-loop order), call
/// [`Sweep::run`] once, then format from the returned [`SweepResults`] —
/// which yields outputs in exactly the order the cells were added,
/// regardless of how many worker threads ran them.
#[derive(Default)]
pub struct Sweep {
    cells: Vec<(String, Scenario)>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep { cells: Vec::new() }
    }

    /// Adds one cell. The label is carried through to [`SweepResults`] for
    /// diagnostics; results come back in `add` order.
    pub fn add(&mut self, label: impl Into<String>, scenario: Scenario) {
        self.cells.push((label.into(), scenario));
    }

    /// Number of cells collected.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells were added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Executes every cell (scaled to the options by [`crate::scaled`]) on
    /// `opts.jobs` workers and returns the outputs in
    /// original cell order.
    pub fn run(self, opts: &Opts) -> SweepResults {
        self.run_with_jobs(opts, opts.jobs)
    }

    /// [`Sweep::run`] with an explicit worker count (the determinism
    /// regression test compares `jobs = 1` against `jobs ≥ 4` directly).
    pub fn run_with_jobs(self, opts: &Opts, jobs: usize) -> SweepResults {
        let started = Instant::now();
        let mut names: Vec<(String, bool)> = Vec::with_capacity(self.cells.len());
        let cells: Vec<(usize, String, Scenario)> = self
            .cells
            .into_iter()
            .enumerate()
            .map(|(i, (label, s))| {
                let s = crate::scaled(opts, s);
                names.push((s.name.clone(), s.stop_when_apps_done));
                (i, label, s)
            })
            .collect();
        let n = cells.len();
        // A worker pool on a single-core host only adds contention and
        // scheduling noise — degrade to the inline loop, which is also
        // byte-identical (every consumer reads slots in cell order).
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let jobs = if cores <= 1 {
            1
        } else {
            jobs.max(1).min(n.max(1))
        };
        let mut slots: Vec<Option<(String, RunOutput)>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        if jobs <= 1 {
            // Serial fast path: no pool, no locks, and one `RunArena`
            // threaded through every cell — each machine after the first
            // adopts the previous cell's allocations instead of rebuilding
            // them (`testbed::run_in` parks them again at teardown).
            let mut arena = testbed::RunArena::new();
            for (i, label, scenario) in cells {
                let out = testbed::run_in(scenario, &mut arena);
                slots[i] = Some((label, out));
            }
        } else {
            // Work-stealing by atomic index: workers grab the next undone
            // cell; results land in the cell's original slot, so the
            // completion *order* (which is timing-dependent) never leaks
            // into the output. Each worker owns one arena for its whole
            // claim stream — cell-to-cell machine recycling without any
            // cross-thread sharing (arenas are deliberately not `Send`-
            // bounded content-wise; they never leave their worker).
            let next = AtomicUsize::new(0);
            let cells = Mutex::new(cells.into_iter().map(Some).collect::<Vec<_>>());
            let done = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| {
                        let mut arena = testbed::RunArena::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (idx, label, scenario) = {
                                let mut cells = cells.lock().expect("cell list lock");
                                cells[i].take().expect("each cell claimed once")
                            };
                            let out = testbed::run_in(scenario, &mut arena);
                            let mut done = done.lock().expect("result slot lock");
                            done[idx] = Some((label, out));
                        }
                    });
                }
            });
        }
        let outputs: Vec<(String, RunOutput)> = slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        // Checks and trace dumping happen here — post-collection, in
        // original cell order — so the first failure and the CSV are the
        // same for any worker count.
        for ((name, to_completion), (_, out)) in names.iter().zip(&outputs) {
            assert_apps_done(name, *to_completion, out);
            crate::cli::dump_cell_trace(opts, name, out);
        }
        let events = outputs.iter().map(|(_, o)| o.events_processed).sum();
        SweepResults {
            stats: SweepStats {
                runs: outputs.len() as u64,
                events,
                jobs,
                wall_s: started.elapsed().as_secs_f64(),
            },
            taken: 0,
            outputs: outputs.into_iter(),
        }
    }
}

/// Panics, naming the cell, when a run-to-completion cell ended with apps
/// still running: its ceiling cut them off, so its numbers describe a
/// truncated run.
fn assert_apps_done(name: &str, to_completion: bool, out: &RunOutput) {
    assert!(
        !to_completion || out.apps_unfinished == 0,
        "cell {name}: {} app(s) unfinished when the run ended; raise its ceiling \
         (knobs.measure) or cut its ops",
        out.apps_unfinished
    );
}

/// Wall-clock accounting of one executed sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepStats {
    /// Cells executed.
    pub runs: u64,
    /// Simulation events processed across all cells.
    pub events: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
}

/// Results of a sweep, consumed in original cell order.
pub struct SweepResults {
    outputs: std::vec::IntoIter<(String, RunOutput)>,
    taken: usize,
    stats: SweepStats,
}

impl SweepResults {
    /// Takes the next output in cell order.
    ///
    /// # Panics
    ///
    /// Panics when the sweep is exhausted — the figure modules consume
    /// results with the same loop structure that built the cells, so
    /// exhaustion is a harness bug and must fail loudly.
    pub fn next_output(&mut self) -> RunOutput {
        let (_, out) = self.next_labelled();
        out
    }

    /// Takes the next `(label, output)` pair in cell order.
    ///
    /// # Panics
    ///
    /// Panics when the sweep is exhausted (see [`Self::next_output`]).
    pub fn next_labelled(&mut self) -> (String, RunOutput) {
        self.taken += 1;
        self.outputs.next().unwrap_or_else(|| {
            panic!(
                "sweep exhausted: {} cells, asked for #{}",
                self.stats.runs, self.taken
            )
        })
    }

    /// Takes the next `n` outputs in cell order.
    pub fn take(&mut self, n: usize) -> Vec<RunOutput> {
        (0..n).map(|_| self.next_output()).collect()
    }

    /// Outputs not yet consumed.
    pub fn remaining(&self) -> usize {
        self.outputs.len()
    }

    /// The sweep's wall-clock accounting.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}
