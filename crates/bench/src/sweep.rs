//! Deterministic parallel sweep executor.
//!
//! Every figure of the paper's evaluation is an embarrassingly parallel
//! sweep: `testbed::run(Scenario) -> RunOutput` is a *pure* function (each
//! run builds its own machine, device, and per-run RNG from the scenario
//! seed — no shared mutable state). [`Sweep`] decouples the *sweep
//! definition* (the keyed cell list a figure declares once) from its
//! *execution binding* (which worker runs which cell when) — the
//! harness-level mirror of Daredevil's thesis that work should not be
//! statically bound to a serial resource.
//!
//! # Determinism argument
//!
//! Parallel execution is observationally identical to serial execution
//! because:
//!
//! 1. **per-run isolation** — a run's RNG is seeded from its own
//!    `Scenario::seed`; machines share nothing (no globals, no
//!    thread-locals, no wall-clock reads inside the simulation);
//! 2. **keyed collection** — workers claim cells in add order from one
//!    queue and put each output in its cell's slot; results come back
//!    paired with their keys, in add order;
//! 3. **format-after-run** — the figure modules build all cells first,
//!    execute once, and only then render tables from the pairs, so
//!    interleaved printing cannot reorder output.
//!
//! Hence `--jobs N` output is byte-identical to `--jobs 1` for every
//! figure (regression-tested in `crates/bench/tests/sweep.rs` and gated by
//! `scripts/verify.sh`).

use std::sync::Mutex;

use testbed::{RunOutput, Scenario};

use crate::Opts;

/// An ordered list of keyed sweep cells, executed together.
///
/// A figure adds each cell once, keyed by whatever its tables need (the
/// axis values of the cell), calls [`Sweep::run`] once, and formats from
/// the returned `(key, output)` pairs — in `add` order, however many
/// worker threads ran them.
pub struct Sweep<K> {
    cells: Vec<(K, Scenario)>,
}

impl<K> Default for Sweep<K> {
    fn default() -> Self {
        Sweep { cells: Vec::new() }
    }
}

impl<K> Sweep<K> {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one cell; its output comes back paired with `key`.
    pub fn add(&mut self, key: K, scenario: Scenario) {
        self.cells.push((key, scenario));
    }

    /// Executes every cell (scaled to the options by [`crate::scaled`]) on
    /// up to `opts.jobs` workers and returns each cell's key with its
    /// output, in add order.
    ///
    /// # Panics
    ///
    /// Panics, naming the cell, when a run-to-completion cell ended with
    /// apps unfinished.
    pub fn run(self, opts: &Opts) -> Vec<(K, RunOutput)> {
        let (keys, scenarios): (Vec<K>, Vec<Scenario>) = self
            .cells
            .into_iter()
            .map(|(key, s)| (key, crate::scaled(opts, s)))
            .unzip();
        let checks: Vec<(String, bool)> = scenarios
            .iter()
            .map(|s| (s.name.clone(), s.stop_when_apps_done))
            .collect();
        let n = scenarios.len();
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Workers claim cells in add order; each output lands in its cell's
        // slot, so the (timing-dependent) completion order never leaks into
        // the result. Each worker owns one arena for its whole claim
        // stream: a machine adopts the previous cell's allocations, and
        // arenas never cross threads.
        let queue = Mutex::new(scenarios.into_iter().enumerate());
        let slots: Mutex<Vec<Option<RunOutput>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers(opts.jobs, n, cores) {
                scope.spawn(|| {
                    let mut arena = testbed::RunArena::new();
                    loop {
                        let next = queue.lock().expect("cell queue lock").next();
                        let Some((i, scenario)) = next else { break };
                        let out = testbed::run_in(scenario, &mut arena);
                        slots.lock().expect("result slot lock")[i] = Some(out);
                    }
                });
            }
        });
        let outputs = slots.into_inner().expect("result slots");
        // Checks and trace dumping happen here — post-collection, in add
        // order — so the first failure and the CSV are the same for any
        // worker count.
        keys.into_iter()
            .zip(checks)
            .zip(outputs)
            .map(|((key, (name, to_completion)), out)| {
                let out = out.expect("every cell ran");
                assert_apps_done(&name, to_completion, &out);
                crate::cli::dump_cell_trace(opts, &name, &out);
                (key, out)
            })
            .collect()
    }
}

/// Worker threads for a sweep of `cells` cells: `jobs`, clamped to the
/// cell count, and 1 on a single-core host, where a pool only adds
/// contention.
fn workers(jobs: usize, cells: usize, cores: usize) -> usize {
    if cores <= 1 {
        1
    } else {
        jobs.clamp(1, cells.max(1))
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

#[cfg(test)]
mod tests {
    use super::workers;

    #[test]
    fn worker_count_is_clamped_to_cells() {
        assert_eq!(workers(64, 1, 8), 1, "1 cell never spawns 64 workers");
        assert_eq!(workers(4, 6, 8), 4);
        assert_eq!(workers(8, 6, 8), 6);
        assert_eq!(workers(0, 6, 8), 1);
        assert_eq!(workers(4, 0, 8), 1);
    }

    #[test]
    fn a_single_core_host_uses_one_worker() {
        assert_eq!(workers(4, 6, 1), 1);
        assert_eq!(workers(64, 64, 1), 1);
    }
}
