//! Figures 6–10 and 13–15: the offline experiments over the DOT stand-in,
//! 1-D (§6.2.1) and MD (§6.3.1).

use super::{draw, fresh, mean_curve, Row, MD, MD_RERANK, ONE_D, ONE_D_RERANK};
use crate::runner::{measure, UserQuery};
use crate::{print_figure, Scale, Series};
use qrs_core::{RerankParams, SharedState};
use qrs_datagen::flights;
use qrs_datagen::flights::attr;
use qrs_server::{Capabilities, SimServer, SystemRank};
use qrs_service::Algorithm;
use qrs_types::Dataset;

/// SR1 = 0.3·AIR-TIME + TAXI-IN (positively correlated with typical user
/// preferences).
pub fn sr1() -> SystemRank {
    SystemRank::linear("SR1", vec![(attr::AIR_TIME, 0.3), (attr::TAXI_IN, 1.0)])
}

/// SR2 = −0.1·DISTANCE − DEP-DELAY (negatively correlated).
pub fn sr2() -> SystemRank {
    SystemRank::linear("SR2", vec![(attr::DISTANCE, -0.1), (attr::DEP_DELAY, -1.0)])
}

/// The offline workload over `data`, 25 % unfiltered: 1-D requests, or
/// with `md` requests ranking by 2–3 attributes.
fn workload(data: &Dataset, scale: Scale, md: bool, seed: u64) -> Vec<UserQuery> {
    let num_queries = if md {
        scale.md_queries()
    } else {
        scale.one_d_queries()
    };
    draw(data, md, num_queries, 0.25, seed)
}

/// Shared body of Figs 6/7 (1-D) and 13/14 (MD): print `title`, the
/// average top-1 query cost vs database size, a series per algorithm of
/// `algos`, each sample's data and [`workload`] seeded by the two seeds
/// plus the sample number.
fn n_sweep(
    scale: Scale,
    title: &str,
    sys: fn() -> SystemRank,
    md: bool,
    (data_seed, workload_seed): (u64, u64),
    algos: &[Row],
) {
    let k = 10;
    let mut series: Vec<Series> = algos.iter().map(|&(l, _)| Series::new(l)).collect();
    for &n in &scale.n_sweep() {
        let mut sums = vec![0.0f64; algos.len()];
        let mut users = 0;
        for sample in 0..scale.samples() as u64 {
            let data = flights(n, data_seed + sample);
            let workload = workload(&data, scale, md, workload_seed + sample);
            for (sum, &(_, algorithm)) in sums.iter_mut().zip(algos) {
                let (server, mut st) = fresh(&data, sys(), k, Capabilities::none());
                for uq in &workload {
                    st.forget_complete_regions();
                    *sum += measure(&server, &mut st, uq, algorithm, 1).cost() as f64;
                }
            }
            users += workload.len();
        }
        for (s, sum) in series.iter_mut().zip(sums) {
            s.push(n as f64, sum / users as f64);
        }
    }
    print_figure(title, "n", &series);
}

/// Shared body of Figs 8 (1-D) and 15 (MD): print `title`, `algorithm`'s
/// cumulative cost of top-1..10 over `workload` under SR1, a series per
/// system-k ∈ {1, 4, 7, 10}.
fn system_k_sweep(title: &str, data: &Dataset, workload: &[UserQuery], algorithm: Algorithm) {
    let top: Vec<usize> = (1..=10).collect();
    let series: Vec<Series> = ([1usize, 4, 7, 10].into_iter())
        .map(|k| {
            let (server, mut st) = fresh(data, sr1(), k, Capabilities::none());
            Series {
                label: format!("system-k={k}"),
                points: mean_curve(&server, &mut st, workload, algorithm, &top),
            }
        })
        .collect();
    print_figure(title, "top-h", &series);
}

/// Fig. 6 — 1D, impact of n under SR1.
pub fn fig6(scale: Scale) {
    let title = "Fig 6 - 1D query cost vs n (SR1, top-1, k=10)";
    n_sweep(scale, title, sr1, false, (1_000, 42), &ONE_D);
}

/// Fig. 7 — 1D, impact of n under SR2.
pub fn fig7(scale: Scale) {
    let title = "Fig 7 - 1D query cost vs n (SR2, top-1, k=10)";
    n_sweep(scale, title, sr2, false, (1_000, 42), &ONE_D);
}

/// Fig. 8 — 1D-RERANK, cumulative cost of top-1..10 for system-k ∈ {1,4,7,10}.
pub fn fig8(scale: Scale) {
    let title = "Fig 8 - 1D cumulative query cost for top-1..10 vs system-k (SR1)";
    let data = flights(scale.fixed_n(), 2_000);
    system_k_sweep(
        title,
        &data,
        &workload(&data, scale, false, 77),
        ONE_D_RERANK,
    );
}

/// Fig. 9 — impact of the dense-index parameters s and c.
pub fn fig9(scale: Scale) {
    let n = scale.fixed_n();
    let k = 10usize;
    let data = flights(n, 3_000);
    let workload = workload(&data, scale, false, 99);
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
        mean_curve(&server, &mut st, &workload, ONE_D_RERANK, &[1])[0].1
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
    print_figure(
        "Fig 9 - 1D-RERANK query cost vs dense-index parameters (top-1, SR1)",
        "x-index (see labels above)",
        &[vary_c, vary_s],
    );
}

/// Fig. 10 — impact of the order in which user queries arrive on 1D-RERANK.
pub fn fig10(scale: Scale) {
    let k = 10;
    let orders: [&str; 3] = ["general to special", "random", "special to general"];
    let mut series: Vec<Series> = orders.iter().map(|o| Series::new(*o)).collect();
    for &n in &scale.n_sweep() {
        let data = flights(n, 4_000);
        let random = workload(&data, scale, false, 123);
        // Selectivity = |R(q)|; "general" = many matching tuples.
        let mut special_first = random.clone();
        special_first.sort_by_cached_key(|uq| data.count_matching(&uq.sel));
        let general_first: Vec<UserQuery> = special_first.iter().rev().cloned().collect();
        for (s, workload) in series
            .iter_mut()
            .zip([&general_first, &random, &special_first])
        {
            let (server, mut st) = fresh(&data, sr1(), k, Capabilities::none());
            let points = mean_curve(&server, &mut st, workload, ONE_D_RERANK, &[1]);
            s.push(n as f64, points[0].1);
        }
    }
    print_figure(
        "Fig 10 - 1D-RERANK query cost vs user-query issue order (SR1, top-1)",
        "n",
        &series,
    );
}

/// Fig. 13 — MD, impact of n under SR1.
pub fn fig13(scale: Scale) {
    let title = "Fig 13 - MD query cost vs n (SR1, top-1, k=10)";
    n_sweep(scale, title, sr1, true, (5_000, 200), &MD);
}

/// Fig. 14 — MD, impact of n under SR2 (anti-correlated).
pub fn fig14(scale: Scale) {
    let title = "Fig 14 - MD query cost vs n (SR2, top-1, k=10)";
    n_sweep(scale, title, sr2, true, (5_000, 200), &MD);
}

/// Fig. 15 — MD-RERANK, cumulative cost of top-1..10 vs system-k.
pub fn fig15(scale: Scale) {
    let title = "Fig 15 - MD-RERANK cumulative query cost for top-1..10 vs system-k (SR1)";
    let data = flights(scale.fixed_n(), 6_000);
    system_k_sweep(title, &data, &workload(&data, scale, true, 300), MD_RERANK);
}
