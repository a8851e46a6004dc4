//! Shared harness utilities for the `exp_*` experiment binaries.
//!
//! Each binary regenerates one figure or worked example of the paper
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record).  The utilities here keep the output format
//! uniform: fixed-width tables with a title line, so EXPERIMENTS.md can
//! quote them directly.

use std::fmt::Display;

/// Print an experiment header.
pub fn header(id: &str, title: &str) {
    println!("=== {id}: {title} ===");
}

/// A fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table; prints the column headers.
    pub fn new(cols: &[(&str, usize)]) -> Self {
        let mut line = String::new();
        for (name, w) in cols {
            line.push_str(&format!("{:>width$}  ", name, width = w));
        }
        println!("{}", line.trim_end());
        println!("{}", "-".repeat(line.trim_end().len()));
        Table {
            widths: cols.iter().map(|&(_, w)| w).collect(),
        }
    }

    /// Print one row.
    pub fn row(&self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.widths.len(), "cell count mismatch");
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{:>width$}  ", cell.to_string(), width = w));
        }
        println!("{}", line.trim_end());
    }
}

/// Format a ratio as a percentage string.
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Relative error of an estimate vs an exact value.
pub fn rel_err(estimate: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        0.0
    } else {
        (estimate - exact).abs() / exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(1, 0), "n/a");
    }

    #[test]
    fn rel_err_basics() {
        assert!((rel_err(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(5.0, 0.0), 0.0);
    }
}
