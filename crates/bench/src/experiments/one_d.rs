//! Figures 6–10: the 1D offline experiments over the DOT stand-in (§6.2.1).

use crate::runner::{one_d_cost_curve, one_d_top_h_cost};
use crate::{print_figure, Scale, Series};
use qrs_core::{OneDStrategy, RerankParams, SharedState};
use qrs_datagen::flights::attr;
use qrs_datagen::{flights, one_d_workload, OneDUserQuery, WorkloadConfig};
use qrs_server::{SimServer, SystemRank};

/// SR1 = 0.3·AIR-TIME + TAXI-IN (positively correlated with typical user
/// preferences).
pub fn sr1() -> SystemRank {
    SystemRank::linear("SR1", vec![(attr::AIR_TIME, 0.3), (attr::TAXI_IN, 1.0)])
}

/// SR2 = −0.1·DISTANCE − DEP-DELAY (negatively correlated).
pub fn sr2() -> SystemRank {
    SystemRank::linear("SR2", vec![(attr::DISTANCE, -0.1), (attr::DEP_DELAY, -1.0)])
}

fn workload_cfg(scale: Scale, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        num_queries: scale.one_d_queries(),
        no_filter_fraction: 0.25,
        seed,
        ..WorkloadConfig::default()
    }
}

/// Shared body of Figs 6/7: avg top-1 query cost vs database size.
fn n_sweep(scale: Scale, sys: &dyn Fn() -> SystemRank) -> Vec<Series> {
    let k = 10;
    let mut series: Vec<Series> = OneDStrategy::ALL
        .iter()
        .map(|s| Series::new(s.label()))
        .collect();
    for &n in &scale.n_sweep() {
        let mut sums = [0.0f64; 3];
        let mut counts = [0usize; 3];
        for sample in 0..scale.samples() {
            let data = flights(n, 1_000 + sample as u64);
            let workload = one_d_workload(&data, &workload_cfg(scale, 42 + sample as u64));
            for (si, &strategy) in OneDStrategy::ALL.iter().enumerate() {
                let server = SimServer::new(data.clone(), sys(), k);
                let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
                for uq in &workload {
                    sums[si] += one_d_top_h_cost(&server, &mut st, uq, strategy, 1)
                        .expect("offline sim server does not fail")
                        as f64;
                    counts[si] += 1;
                }
            }
        }
        for (si, s) in series.iter_mut().enumerate() {
            s.push(n as f64, sums[si] / counts[si] as f64);
        }
    }
    series
}

/// Fig. 6 — 1D, impact of n under SR1.
pub fn fig6(scale: Scale) -> Vec<Series> {
    let s = n_sweep(scale, &sr1);
    print_figure("Fig 6 - 1D query cost vs n (SR1, top-1, k=10)", "n", &s);
    s
}

/// Fig. 7 — 1D, impact of n under SR2.
pub fn fig7(scale: Scale) -> Vec<Series> {
    let s = n_sweep(scale, &sr2);
    print_figure("Fig 7 - 1D query cost vs n (SR2, top-1, k=10)", "n", &s);
    s
}

/// Fig. 8 — 1D-RERANK, cumulative cost of top-1..10 for system-k ∈ {1,4,7,10}.
pub fn fig8(scale: Scale) -> Vec<Series> {
    let n = scale.fixed_n();
    let data = flights(n, 2_000);
    let workload = one_d_workload(&data, &workload_cfg(scale, 77));
    let mut series = Vec::new();
    for &k in &[1usize, 4, 7, 10] {
        let server = SimServer::new(data.clone(), sr1(), k);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
        let mut acc = [0.0f64; 10];
        for uq in &workload {
            let curve = one_d_cost_curve(&server, &mut st, uq, OneDStrategy::Rerank, 10)
                .expect("offline sim server does not fail");
            for (i, a) in acc.iter_mut().enumerate() {
                *a += curve.get(i).or(curve.last()).copied().unwrap_or(0) as f64;
            }
        }
        let mut s = Series::new(format!("system-k={k}"));
        for (i, a) in acc.iter().enumerate() {
            s.push((i + 1) as f64, a / workload.len() as f64);
        }
        series.push(s);
    }
    print_figure(
        "Fig 8 - 1D cumulative query cost for top-1..10 vs system-k (SR1)",
        "top-h",
        &series,
    );
    series
}

/// Fig. 9 — impact of the dense-index parameters s and c.
pub fn fig9(scale: Scale) -> Vec<Series> {
    let n = scale.fixed_n();
    let k = 10usize;
    let data = flights(n, 3_000);
    let workload = one_d_workload(&data, &workload_cfg(scale, 99));
    let nf = n as f64;
    let klog = k as f64 * nf.log2();
    let xs: Vec<(&str, f64)> = vec![
        ("10", 10.0),
        ("klog(n)", klog),
        ("klog^2(n)", k as f64 * nf.log2().powi(2)),
        ("klog^3(n)", k as f64 * nf.log2().powi(3)),
        ("n", nf),
        ("n^2", nf * nf),
    ];
    let run = |s: f64, c: f64| -> f64 {
        let server = SimServer::new(data.clone(), sr1(), k);
        let mut st = SharedState::new(data.schema(), RerankParams::with_sc(n, s, c));
        let mut total = 0.0;
        for uq in &workload {
            total += one_d_top_h_cost(&server, &mut st, uq, OneDStrategy::Rerank, 1)
                .expect("offline sim server does not fail") as f64;
        }
        total / workload.len() as f64
    };
    let mut vary_c = Series::new("varying c (s=n)");
    let mut vary_s = Series::new("varying s (c=k*log n)");
    println!(
        "\n# Fig 9 x-axis labels: {:?}",
        xs.iter().map(|p| p.0).collect::<Vec<_>>()
    );
    for (i, &(_, v)) in xs.iter().enumerate() {
        vary_c.push(i as f64, run(nf, v));
        vary_s.push(i as f64, run(v, klog));
    }
    let series = vec![vary_c, vary_s];
    print_figure(
        "Fig 9 - 1D-RERANK query cost vs dense-index parameters (top-1, SR1)",
        "x-index (see labels above)",
        &series,
    );
    series
}

/// Fig. 10 — impact of the order in which user queries arrive on 1D-RERANK.
pub fn fig10(scale: Scale) -> Vec<Series> {
    let k = 10;
    let orders: [&str; 3] = ["general to special", "random", "special to general"];
    let mut series: Vec<Series> = orders.iter().map(|o| Series::new(*o)).collect();
    for &n in &scale.n_sweep() {
        let data = flights(n, 4_000);
        let base = one_d_workload(&data, &workload_cfg(scale, 123));
        // Selectivity = |R(q)|; "general" = many matching tuples.
        let mut by_sel: Vec<(usize, OneDUserQuery)> = base
            .iter()
            .map(|uq| (data.count_matching(&uq.query), uq.clone()))
            .collect();
        by_sel.sort_by_key(|(c, _)| *c);
        let special_first: Vec<OneDUserQuery> = by_sel.iter().map(|(_, q)| q.clone()).collect();
        let general_first: Vec<OneDUserQuery> =
            by_sel.iter().rev().map(|(_, q)| q.clone()).collect();
        let runs: [&[OneDUserQuery]; 3] = [&general_first, &base, &special_first];
        for (si, workload) in runs.iter().enumerate() {
            let server = SimServer::new(data.clone(), sr1(), k);
            let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
            let mut total = 0.0;
            for uq in workload.iter() {
                total += one_d_top_h_cost(&server, &mut st, uq, OneDStrategy::Rerank, 1)
                    .expect("offline sim server does not fail") as f64;
            }
            series[si].push(n as f64, total / workload.len() as f64);
        }
    }
    print_figure(
        "Fig 10 - 1D-RERANK query cost vs user-query issue order (SR1, top-1)",
        "n",
        &series,
    );
    series
}
