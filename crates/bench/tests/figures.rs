//! The figure table is the one list of figures: every module under
//! `src/figures/` appears in it exactly once, the default sweep keeps the
//! order of the committed `all_figures_quick.csv` golden, and the
//! `figures` binary rejects names the table does not hold.

use std::process::Command;

use bench::figures::{find, FIGURES};

#[test]
fn names_are_unique() {
    for (i, f) in FIGURES.iter().enumerate() {
        assert!(
            FIGURES[..i].iter().all(|g| g.name != f.name),
            "{} is listed twice",
            f.name
        );
        assert_eq!(find(f.name).map(|g| g.name), Some(f.name));
    }
}

#[test]
fn every_figure_module_is_listed_once() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/figures");
    let mut modules: Vec<String> = std::fs::read_dir(&dir)
        .expect("read src/figures")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter_map(|n| n.strip_suffix(".rs").map(str::to_string))
        .filter(|n| n != "mod")
        .collect();
    modules.sort();
    let mut listed: Vec<String> = FIGURES.iter().map(|f| f.name.to_string()).collect();
    listed.sort();
    assert_eq!(modules, listed);
}

#[test]
fn default_sweep_keeps_the_golden_order() {
    let sweep: Vec<&str> = FIGURES.iter().filter(|f| f.in_sweep).map(|f| f.name).collect();
    assert_eq!(
        sweep,
        [
            "table1",
            "fig2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "ext_baselines",
            "ext_virtio",
            "ext_breakdown",
        ]
    );
}

#[test]
fn unknown_figure_exits_2_and_lists_the_known_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("bogus")
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown figure \"bogus\""), "{stderr}");
    for f in &FIGURES {
        assert!(stderr.contains(f.name), "{} missing from: {stderr}", f.name);
    }
}
