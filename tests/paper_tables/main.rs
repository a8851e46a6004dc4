//! The paper's worked examples and figures (EXPERIMENTS.md E1–E19) as
//! golden tests: each module beside this file regenerates one
//! experiment's tables into a `String`, and the test compares it byte for
//! byte with `tests/paper_tables/<E-id>.expected`.  A change in
//! `footprint`, `partition`, `lattice` or `machine` that moves a number
//! EXPERIMENTS.md quotes fails here, naming the experiment and line.
//!
//! E6 walks a 64³ space seven times on the simulator; it is `#[ignore]`d
//! and run in release:
//! `cargo test --release --test paper_tables -- --ignored`.

use alp::machine::HomeMap;
use alp::prelude::*;
use std::fmt::Display;

#[path = "../common/mod.rs"]
mod common;
pub use common::{grid_plan, slab_plan, tile_points};

/// `println!` into an experiment's output.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// An experiment header.
pub fn header(out: &mut String, id: &str, title: &str) {
    outln!(out, "=== {id}: {title} ===");
}

/// A fixed-width table: right-aligned columns, two spaces apart.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table: the column headers and a rule under them.
    pub fn new(out: &mut String, cols: &[(&str, usize)]) -> Self {
        let mut line = String::new();
        for (name, w) in cols {
            line.push_str(&format!("{:>width$}  ", name, width = w));
        }
        outln!(out, "{}", line.trim_end());
        outln!(out, "{}", "-".repeat(line.trim_end().len()));
        Table {
            widths: cols.iter().map(|&(_, w)| w).collect(),
        }
    }

    /// One row.
    pub fn row(&self, out: &mut String, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.widths.len(), "cell count mismatch");
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{:>width$}  ", cell.to_string(), width = w));
        }
        outln!(out, "{}", line.trim_end());
    }
}

/// Simulate `plan` as a saved plan file runs: it must read back from its
/// JSON as itself and lower to a native executor first.
pub fn simulate(plan: &PartitionPlan, config: MachineConfig, home: &dyn HomeMap) -> TrafficReport {
    let saved = PartitionPlan::from_json_str(&plan.to_json_string()).unwrap();
    assert_eq!(&saved, plan, "a plan reads back from its JSON");
    Executor::from_plan(&saved).unwrap();
    run_plan(&saved, config, home).unwrap()
}

/// A ratio as a percentage.
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Relative error of an estimate against an exact value.
pub fn rel_err(estimate: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        0.0
    } else {
        (estimate - exact).abs() / exact
    }
}

/// Where experiment `id`'s `actual` output first leaves its pinned
/// `expected` text, or `None` when the two are byte-identical.
fn first_difference(id: &str, expected: &str, actual: &str) -> Option<String> {
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => {
                return Some(format!(
                    "{id}: line {line} differs from tests/paper_tables/{id}.expected\n  \
                     expected: {}\n  actual:   {}",
                    w.unwrap_or("<end of table>"),
                    g.unwrap_or("<end of table>"),
                ))
            }
        }
    }
    (expected != actual).then(|| format!("{id}: line endings differ from {id}.expected"))
}

mod alignment;
mod cache_blocking;
mod comm_free;
mod cumulative;
mod directory;
mod example10;
mod example2;
mod example8;
mod example9;
mod footprint_geometry;
mod lattice;
mod line_size;
mod load_balance;
mod matmul;
mod model_accuracy;
mod parallelogram;
mod program;
mod reference_model;

/// One `#[test]` per experiment: `test: "E-id" => module;`.
macro_rules! golden {
    ($($(#[$attr:meta])* $test:ident: $id:literal => $module:ident;)*) => {$(
        #[test]
        $(#[$attr])*
        fn $test() {
            let expected = include_str!(concat!($id, ".expected"));
            if let Some(diff) = first_difference($id, expected, &$module::run()) {
                panic!("{diff}");
            }
        }
    )*};
}

golden! {
    e1_e14_reference_model: "E1_E14" => reference_model;
    e2_example2: "E2" => example2;
    e3_parallelogram: "E3" => parallelogram;
    e4_footprint_geometry: "E4" => footprint_geometry;
    e5_cumulative: "E5" => cumulative;
    #[ignore = "20 s in debug; CI runs it in release"]
    e6_example8: "E6" => example8;
    e7_example9: "E7" => example9;
    e8_example10: "E8" => example10;
    e9_lattice: "E9" => lattice;
    e10_comm_free: "E10" => comm_free;
    e11_matmul: "E11" => matmul;
    e12_alignment: "E12" => alignment;
    e13_model_accuracy: "E13" => model_accuracy;
    e15_line_size: "E15" => line_size;
    e16_directory: "E16" => directory;
    e17_program: "E17" => program;
    e18_load_balance: "E18" => load_balance;
    e19_cache_blocking: "E19" => cache_blocking;
}

#[test]
fn a_changed_digit_is_reported_with_its_experiment_and_line() {
    let table = include_str!("E7.expected");
    let mut lines: Vec<String> = table.lines().map(String::from).collect();
    let n = (lines.iter().skip(1))
        .position(|l| l.contains(|c: char| c.is_ascii_digit()))
        .expect("E7 prints numbers")
        + 1;
    let at = lines[n].find(|c: char| c.is_ascii_digit()).unwrap();
    let moved = if &lines[n][at..=at] == "9" { "0" } else { "9" };
    lines[n].replace_range(at..=at, moved);
    let altered = lines.join("\n") + "\n";

    let diff = first_difference("E7", &altered, table).expect("a digit moved");
    assert!(
        diff.starts_with(&format!("E7: line {} differs", n + 1)),
        "{diff}"
    );
    assert!(diff.contains(&lines[n]), "{diff}");
    assert_eq!(first_difference("E7", table, table), None);
}

#[test]
fn pct_and_rel_err() {
    assert_eq!(pct(1, 4), "25.0%");
    assert_eq!(pct(1, 0), "n/a");
    assert!((rel_err(110.0, 100.0) - 0.1).abs() < 1e-12);
    assert_eq!(rel_err(5.0, 0.0), 0.0);
}
