//! One module per regenerated artifact of the paper's evaluation.
//!
//! Each module exposes `run_figure(&Opts)`, printing the paper-style
//! rows. [`FIGURES`] is the one list of them: the `figures` binary runs
//! entries by name (`figures fig6 --quick`), or the default sweep when no
//! name is given. DESIGN.md §3 maps artifacts to modules.

use testbed::scenario::StackSpec;

use crate::Opts;

pub mod ext_baselines;
pub mod ext_breakdown;
pub mod ext_fleet;
pub mod ext_hostile;
pub mod ext_policy;
pub mod ext_virtio;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig6;
pub mod fig6_gc;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

/// The three stacks the paper's figures compare, in column order.
pub fn paper_stacks() -> [StackSpec; 3] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::daredevil(),
    ]
}

/// [`paper_stacks`] plus static NQ overprovision, the field of the fleet
/// and hostile-device extensions.
pub fn extension_stacks() -> [StackSpec; 4] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::overprov(),
        StackSpec::daredevil(),
    ]
}

/// One regenerable artifact.
#[derive(Debug)]
pub struct Figure {
    /// Command-line name (the module name).
    pub name: &'static str,
    /// Prints the artifact's tables to stdout.
    pub run: fn(&Opts),
    /// Whether `figures` with no name runs it (the paper sweep whose
    /// stdout is `tests/golden/all_figures_quick.csv`).
    pub in_sweep: bool,
}

const fn fig(name: &'static str, run: fn(&Opts), in_sweep: bool) -> Figure {
    Figure {
        name,
        run,
        in_sweep,
    }
}

/// Every figure, the default sweep first and in sweep order.
pub static FIGURES: [Figure; 18] = [
    fig("table1", table1::run_figure, true),
    fig("fig2", fig2::run_figure, true),
    fig("fig6", fig6::run_figure, true),
    fig("fig7", fig7::run_figure, true),
    fig("fig8", fig8::run_figure, true),
    fig("fig9", fig9::run_figure, true),
    fig("fig10", fig10::run_figure, true),
    fig("fig11", fig11::run_figure, true),
    fig("fig12", fig12::run_figure, true),
    fig("fig13", fig13::run_figure, true),
    fig("fig14", fig14::run_figure, true),
    fig("ext_baselines", ext_baselines::run_figure, true),
    fig("ext_virtio", ext_virtio::run_figure, true),
    fig("ext_breakdown", ext_breakdown::run_figure, true),
    fig("ext_fleet", ext_fleet::run_figure, false),
    fig("ext_hostile", ext_hostile::run_figure, false),
    fig("ext_policy", ext_policy::run_figure, false),
    fig("fig6_gc", fig6_gc::run_figure, false),
];

/// The figure called `name`, if any.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The names of every figure, comma-separated (for error messages).
pub fn names() -> String {
    FIGURES
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(", ")
}
