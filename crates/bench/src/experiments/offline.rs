//! Figures 6–8, 10 and 13–15: the offline experiments over the DOT
//! stand-in, 1-D (§6.2.1) and MD (§6.3.1). Fig 9 sweeps the parameters of
//! §3.2.2's dense-region index, which is not built (README, "Named
//! deviations").

use super::{draw, fresh, mean_curve, Row, MD, MD_RERANK, ONE_D, ONE_D_RERANK};
use crate::runner::{measure, UserQuery};
use crate::{print_figure, Scale, Series};
use qrs_datagen::flights;
use qrs_datagen::flights::attr;
use qrs_server::{Capabilities, SystemRank};
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

/// Shared body of Figs 6/7 (1-D) and 13/14 (MD): print and return
/// `title`'s average top-1 query cost vs database size, a series per
/// algorithm of `algos`, each sample's data and [`workload`] seeded by the
/// two seeds plus the sample number.
fn n_sweep(
    scale: Scale,
    title: &str,
    sys: fn() -> SystemRank,
    md: bool,
    (data_seed, workload_seed): (u64, u64),
    algos: &[Row],
) -> Vec<Series> {
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
    series
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

/// Assert that the series `cheaper` spends no more than `dearer` on any
/// row of an n-sweep.
fn assert_at_most(cheaper: &Series, dearer: &Series) {
    for (&(n, cost), &(_, base)) in cheaper.points.iter().zip(&dearer.points) {
        assert!(
            cost <= base,
            "{} spent {cost:.2} queries a top-1 at n = {n}, over {}'s {base:.2}",
            cheaper.label,
            dearer.label
        );
    }
}

/// Figs 6/7's sweep, asserting §3.2's 1-D claim in-run: 1D-RERANK spends
/// no more than 1D-BASELINE at any `n`.
fn one_d_sweep(scale: Scale, title: &str, sys: fn() -> SystemRank) {
    let series = n_sweep(scale, title, sys, false, (1_000, 42), &ONE_D);
    let [baseline, rerank] = &series[..] else {
        unreachable!("Figs 6/7 run the two rows of ONE_D")
    };
    assert_at_most(rerank, baseline);
}

/// Fig. 6 — 1D, impact of n under SR1.
pub fn fig6(scale: Scale) {
    one_d_sweep(scale, "Fig 6 - 1D query cost vs n (SR1, top-1, k=10)", sr1);
}

/// Fig. 7 — 1D, impact of n under SR2.
pub fn fig7(scale: Scale) {
    one_d_sweep(scale, "Fig 7 - 1D query cost vs n (SR2, top-1, k=10)", sr2);
}

/// Fig. 8 — 1D-RERANK, cumulative cost of top-1..10 for system-k ∈ {1,4,7,10}.
pub fn fig8(scale: Scale) {
    let title = "Fig 8 - 1D-RERANK cumulative query cost for top-1..10 vs system-k (SR1)";
    let data = flights(scale.fixed_n(), 2_000);
    system_k_sweep(
        title,
        &data,
        &workload(&data, scale, false, 77),
        ONE_D_RERANK,
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

/// Fig. 14 — MD, impact of n under SR2 (anti-correlated). At paper scale
/// it asserts §4.3's claim: MD-RERANK spends no more than MD-BASELINE at
/// any `n`.
pub fn fig14(scale: Scale) {
    let title = "Fig 14 - MD query cost vs n (SR2, top-1, k=10)";
    let series = n_sweep(scale, title, sr2, true, (5_000, 200), &MD);
    if scale == Scale::Paper {
        let [_, baseline, rerank] = &series[..] else {
            unreachable!("Fig 14 runs the three rows of MD")
        };
        assert_at_most(rerank, baseline);
    }
}

/// Fig. 15 — MD-RERANK, cumulative cost of top-1..10 vs system-k.
pub fn fig15(scale: Scale) {
    let title = "Fig 15 - MD-RERANK cumulative query cost for top-1..10 vs system-k (SR1)";
    let data = flights(scale.fixed_n(), 6_000);
    system_k_sweep(title, &data, &workload(&data, scale, true, 300), MD_RERANK);
}
