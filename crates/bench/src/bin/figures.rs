//! `figures [NAME...] [FLAGS]` — regenerates the named tables and figures
//! of the paper (see `bench::figures::FIGURES`), or with no name the
//! default sweep, table1 through ext_breakdown. Flags: `bench::cli`.
//!
//! Tables go to stdout, byte-identical across `--jobs` values. The
//! simulator's own speed is measured elsewhere: ddbench (`ddbench/`) for
//! wall time with spreads, and the release-only hot-path gate in
//! `crates/bench/tests/perf_gate.rs` for the hot path.

use bench::figures::{Figure, FIGURES};

fn main() {
    let opts = bench::Opts::from_args();
    let figures: Vec<&Figure> = if opts.figures.is_empty() {
        FIGURES.iter().filter(|f| f.in_sweep).collect()
    } else {
        opts.figures.clone()
    };
    for fig in figures {
        (fig.run)(&opts);
    }
}
