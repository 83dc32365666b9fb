//! # qrs-bench
//!
//! Experiment harness regenerating the paper's §6 evaluation (there are no
//! tables in §6 — the evaluation is Figures 6–17, plus the Theorem 1 lower
//! bound which we make executable). Fig 9 is not regenerated: it sweeps the
//! parameters of §3.2.2's dense-region index, which is not built (README,
//! "Named deviations"). Binary:
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- [--scale quick|paper] <ids…|all>
//! ```
//!
//! The ids are the rows of [`experiments::EXPERIMENTS`]. Output is CSV-ish
//! series per figure on standard output; nothing is written to disk.
//!
//! The figures and the ablations measure every user query through one
//! runner, [`runner::measure`], which builds an `Algorithm`, pulls it one
//! Get-Next at a time and checks the stream against a brute-force ranking
//! before its cost is reported. Theorem 1's adversary run and Ablation 4's
//! page-down rows (approximate by design) are the two unchecked runs.

pub mod experiments;
pub mod runner;
pub mod scale;

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
    let first = series.first().map_or(&[][..], |s| &s.points[..]);
    for (i, (x, _)) in first.iter().enumerate() {
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
