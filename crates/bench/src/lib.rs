//! # qrs-bench
//!
//! Experiment harness regenerating every figure of the paper's §6 evaluation
//! (there are no tables in §6 — the evaluation is Figures 6–17, plus the
//! Theorem 1 lower bound which we make executable). Binary:
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- [--scale quick|paper] <ids…|all>
//! ```
//!
//! The ids are the rows of [`experiments::EXPERIMENTS`]. Output is CSV-ish
//! series per figure on standard output; nothing is written to disk.

pub mod experiments;
pub mod runner;
pub mod scale;

pub use runner::{md_cost_curve, md_top_h_cost, one_d_cost_curve, one_d_top_h_cost};
pub use scale::Scale;

/// One plotted series: a label and (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Print a figure: header + one CSV row per x with a column per series.
pub fn print_figure(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n# {title}");
    print!("{xlabel}");
    for s in series {
        print!(", {}", s.label);
    }
    println!();
    let xs: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("{x}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!(", {y:.2}"),
                None => print!(", -"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("algo");
        s.push(1.0, 2.0);
        s.push(2.0, 3.0);
        assert_eq!(s.points, vec![(1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(s.label, "algo");
    }
}
