//! `BENCHMARK.json` is the single source of metric names, units, directions
//! and bounds: the result line is rendered from it, `compare` judges by it,
//! and a run that computes a metric the file does not declare — or misses
//! one it does — fails instead of printing.

use crate::stats;
use qrs_edge::{parse, Json};
use std::collections::BTreeMap;

/// Metric values by name, as a run computes them.
pub type Values = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The `BENCHMARK.json` this binary was built beside.
    pub fn load() -> Spec {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or_default();
        let text = |v: &Json, key: &str| {
            let s = v.get(key).and_then(Json::as_str);
            s.unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_u64).unwrap_or(30),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// The result object: exactly the declared metrics, each with its unit.
pub fn result_json(
    declared: &[Metric],
    values: &Values,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Json {
    for name in values.keys() {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    let metrics = declared
        .iter()
        .map(|m| {
            let value = values
                .get(m.name.as_str())
                .unwrap_or_else(|| panic!("declared metric {} was not measured", m.name));
            let entry = Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::str(&*m.unit)),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One side of a comparison: per workload, the untraced runs' results.
struct Side {
    runs: BTreeMap<String, Vec<Json>>,
}

impl Side {
    fn load(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("smoke") == Some(&Json::Bool(true)) {
            println!("note: {path} holds smoke runs, which are not comparable");
        }
        let mut runs: BTreeMap<String, Vec<Json>> = BTreeMap::new();
        for run in doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{path}: no runs"))?
        {
            let field = |key: &str| run.get(key).ok_or(format!("{path}: run without {key}"));
            if field("trace")?.as_u64() == Some(0) {
                let workload = field("workload")?.as_str().unwrap_or_default().to_string();
                runs.entry(workload)
                    .or_default()
                    .push(field("result")?.clone());
            }
        }
        Ok(Side { runs })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        let runs = self.runs.get(workload).map_or(&[][..], Vec::as_slice);
        runs.iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_share(&self) -> f64 {
        let sum = |key: &str| -> f64 {
            let all = self.runs.values().flatten();
            all.filter_map(|r| r.get(key)?.as_f64()).sum()
        };
        sum("failed") / sum("attempted").max(1.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

/// Judge one (workload, metric) pairing: `base` and `change` are the
/// metric's values over each side's runs.
pub fn judge(m: &Metric, base: &[f64], change: &[f64]) -> (Verdict, f64, f64) {
    if base.len() < 2 || change.len() < 2 {
        return (Verdict::Unresolved, f64::NAN, f64::NAN);
    }
    let (mb, mc) = (stats::median(base), stats::median(change));
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mc - mb) / mb;
    let spread = stats::spread(base).max(stats::spread(change));
    let better = |c: f64, b: f64| sign * (c - b) < 0.0;
    let verdict = if spread <= m.bound {
        if worse_by > m.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if change.iter().all(|&c| base.iter().all(|&b| better(c, b))) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    };
    (verdict, worse_by, spread)
}

/// `compare a.json b.json`: apply the bounds per (workload, metric).
/// Returns whether `b` is acceptable: no regression, no higher failed share.
pub fn compare(spec: &Spec, base_path: &str, change_path: &str) -> Result<bool, String> {
    let (base, change) = (Side::load(base_path)?, Side::load(change_path)?);
    let mut acceptable = true;
    println!("workload        metric               base        change      worse_by  spread  bound  verdict");
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (b, c) = (
                base.values(workload, &m.name),
                change.values(workload, &m.name),
            );
            let (verdict, worse_by, spread) = judge(m, &b, &c);
            acceptable &= verdict != Verdict::Regressed;
            let mid = |v: &[f64]| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    stats::median(v)
                }
            };
            println!(
                "{workload:<15} {:<20} {:<11.5} {:<11.5} {:>+8.4} {spread:>7.4} {:>6.2}  {}",
                m.name,
                mid(&b),
                mid(&c),
                worse_by,
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    let (fb, fc) = (base.failed_share(), change.failed_share());
    println!("failed share: base {fb:.6} change {fc:.6}");
    Ok(acceptable && fc <= fb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        let lower = metric(false, 0.1);
        assert_eq!(
            judge(&lower, &steady, &[10.5, 10.6, 10.4, 10.5]).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &steady, &[11.5, 11.6, 11.4, 11.5]).0,
            Verdict::Regressed
        );
        let higher = metric(true, 0.1);
        assert_eq!(
            judge(&higher, &steady, &[11.5, 11.6, 11.4, 11.5]).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&higher, &steady, &[8.5, 8.6, 8.4, 8.5]).0,
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved, unless every run of the
        // change reads better than every run of the base.
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&lower, &noisy, &[9.0, 12.5, 10.0, 11.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&lower, &noisy, &[7.0, 7.5, 6.0, 7.9]).0, Verdict::Ok);
        assert_eq!(judge(&lower, &steady, &[10.0]).0, Verdict::Unresolved);
    }

    #[test]
    fn the_result_carries_exactly_the_declared_metrics() {
        let declared = [metric(false, 0.1)];
        let values = Values::from([("m", 1.5)]);
        let json = result_json(&declared, &values, 10, 1, false);
        assert_eq!(
            json.encode(),
            r#"{"attempted":10,"correct":false,"failed":1,"metrics":{"m":{"unit":"u","value":1.5}}}"#
        );
        let undeclared = Values::from([("m", 1.5), ("x", 2.0)]);
        assert!(
            std::panic::catch_unwind(|| result_json(&declared, &undeclared, 1, 0, true)).is_err()
        );
        assert!(
            std::panic::catch_unwind(|| result_json(&declared, &Values::new(), 1, 0, true))
                .is_err()
        );
    }

    #[test]
    fn the_spec_declares_the_contract() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
    }
}
