//! Ablations of the design choices the algorithms rest on:
//!
//! 1. MD-RERANK's two ideas (§4.3.2): virtual-tuple pruning and direct
//!    domination detection, toggled independently on anti-correlated data,
//! 2. the 1D dense index (§3.2.2) on clustered (dense-region) data,
//! 3. history/amortization: cold vs warm service on the same workload,
//! 4. the §1 baselines: crawl-then-rank cost and page-down recall.
//!
//! Every exact stream here goes through the one runner, [`measure`],
//! which checks it; crawl-then-rank's ranking is checked the same way
//! unless the crawl was truncated. The page-down rows are approximate by
//! design and report their recall.

use super::{fresh, MD_RERANK};
use crate::runner::{assert_exact, measure, UserQuery};
use crate::{print_figure, Scale, Series};
use qrs_core::baselines::{crawl_then_rank, page_down_rerank, recall_at_h};
use qrs_core::{MdOptions, OneDStrategy, RerankParams, SharedState};
use qrs_datagen::synthetic::{correlated, dense_floor};
use qrs_datagen::{md_workload, WorkloadConfig};
use qrs_ranking::LinearRank;
use qrs_server::{Capabilities, SearchInterface, SimServer, SystemRank};
use qrs_service::Algorithm;
use qrs_types::{AttrId, Direction, Interval, Query};
use std::sync::Arc;

pub fn run(scale: Scale) {
    md_flags(scale);
    dense_1d(scale);
    amortization(scale);
    baselines(scale);
}

/// The system ranking adversarial to [`sum`]: both attributes descending.
fn anti() -> SystemRank {
    SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)])
}

/// The unfiltered request ranking by the sum of both attributes.
fn sum() -> UserQuery {
    UserQuery {
        sel: Query::all(),
        rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])),
    }
}

/// Ablation 1: MD strategy flags on anti-correlated 2D data with an
/// adversarial system ranking (the regime §4.3 motivates).
fn md_flags(scale: Scale) {
    let n = scale.pick(2_000, 20_000);
    let data = correlated(n, -0.85, 21_000);
    let variants = [
        ("MD-RERANK (all on)", true, true),
        // Domination needs the virtual tuple.
        ("no virtual tuples", false, false),
        ("no domination detection", true, false),
        ("MD-BASELINE (all off)", false, false),
    ];
    let mut series = Vec::new();
    for (label, virtual_tuples, domination) in variants {
        let (server, mut st) = fresh(&data, anti(), 10, Capabilities::none());
        let opts = MdOptions {
            virtual_tuples,
            domination,
        };
        let run = measure(&server, &mut st, &sum(), Algorithm::Md(opts), 10);
        let mut s = Series::new(label);
        for (h, &spent) in (1..).zip(&run.curve) {
            s.push(h as f64, spent as f64);
        }
        series.push(s);
    }
    print_figure(
        &format!("Ablation 1 - MD flag toggles, cumulative cost (anti-correlated, n={n})"),
        "top-h",
        &series,
    );
}

/// Ablation 2: dense index on/off over clustered 1D data — the workload that
/// motivates on-the-fly indexing (§3.2.2).
fn dense_1d(scale: Scale) {
    let n = scale.pick(5_000, 50_000);
    // A tight cluster at the low end of the ranked attribute: every top-h
    // request dives into the same dense region.
    let data = dense_floor(n, 0.3, 0.0005, 22_000);
    let sys = SystemRank::by_attr_desc(AttrId(0)); // adversarial for Asc
    let mut series = Vec::new();
    for (label, strategy) in [
        ("1D-BINARY (no index)", OneDStrategy::Binary),
        ("1D-RERANK (index)", OneDStrategy::Rerank),
    ] {
        let server = SimServer::new(data.clone(), sys.clone(), 10);
        // Dense-index parameters chosen so the clusters actually qualify as
        // dense regions (the paper's default c = n keeps the threshold far
        // below this dataset's cluster spacing; Fig 9 sweeps this knob).
        let mut st = SharedState::new(data.schema(), RerankParams::with_sc(n, 150.0, 100.0));
        let mut s = Series::new(label);
        // 20 successive user requests for the top-5 on the same attribute,
        // each with a *different* range filter: the complete-region cache
        // cannot subsume them, but the selection-free dense index can serve
        // the same dense cluster to every one of them.
        let mut total = 0u64;
        for req in 1..=20usize {
            let frac = req as f64 / 21.0;
            let uq = UserQuery {
                sel: Query::all()
                    .and_range(AttrId(1), Interval::closed(0.25 * frac, 0.5 + 0.5 * frac)),
                rank: Arc::new(LinearRank::single(AttrId(0), Direction::Asc)),
            };
            total += measure(&server, &mut st, &uq, Algorithm::OneD(strategy), 5).cost();
            s.push(req as f64, total as f64);
        }
        series.push(s);
    }
    print_figure(
        &format!(
            "Ablation 2 - dense index on clustered data, cumulative cost over 20 requests (n={n})"
        ),
        "request #",
        &series,
    );
}

/// Ablation 3: shared-state amortization — the same MD workload served cold
/// then warm.
fn amortization(scale: Scale) {
    let n = scale.pick(2_000, 20_000);
    let data = correlated(n, 0.0, 23_000);
    let cfg = WorkloadConfig {
        num_queries: 8,
        rank_attrs: 2..=2,
        seed: 9_090,
        ..WorkloadConfig::default()
    };
    let workload: Vec<UserQuery> = md_workload(&data, &cfg)
        .iter()
        .map(UserQuery::from)
        .collect();
    // Unlike the figures, keep *all* knowledge across requests — this
    // ablation measures exactly that amortization.
    let sys = SystemRank::pseudo_random(3);
    let (server, mut st) = fresh(&data, sys, 10, Capabilities::none());
    let passes = ["cold pass", "warm pass (same state)"].map(|label| {
        let mut s = Series::new(label);
        for (i, uq) in (1..).zip(&workload) {
            let spent = measure(&server, &mut st, uq, MD_RERANK, 5).cost();
            s.push(i as f64, spent as f64);
        }
        s
    });
    print_figure(
        &format!("Ablation 3 - per-request cost, cold vs warm shared state (n={n}, top-5)"),
        "request #",
        &passes,
    );
}

/// Ablation 4: the §1 baselines — exact crawl cost, and page-down recall.
fn baselines(scale: Scale) {
    let n = scale.pick(2_000, 10_000);
    let data = correlated(n, -0.5, 24_000);
    let uq = sum();
    let truth = data.rank_by(&uq.sel, |t| uq.rank.score(t));
    let paging = Capabilities::none().with_paging();

    // Exact MD-RERANK for the top-10.
    let (server, mut st) = fresh(&data, anti(), 10, paging.clone());
    let md = measure(&server, &mut st, &uq, MD_RERANK, 10);
    println!("\n# Ablation 4 - baselines vs MD-RERANK (n={n}, top-10, anti-correlated system)");
    println!("method, queries, recall@10, exact");
    let recall = recall_at_h(&md.tuples, &truth, 10);
    println!("MD-RERANK, {}, {recall:.2}, true", md.cost());

    // Crawl-then-rank.
    let (server, mut st) = fresh(&data, anti(), 10, Capabilities::none());
    let r = crawl_then_rank(&server, &mut st, &uq.sel, |t| uq.rank.score(t))
        .expect("offline sim server does not fail");
    if !r.truncated {
        assert_exact(
            &server,
            &uq.sel,
            &*uq.rank,
            &r.tuples,
            10,
            "crawl-then-rank",
        );
    }
    println!(
        "crawl-then-rank, {}, {:.2}, {}",
        server.queries_issued(),
        recall_at_h(&r.tuples, &truth, 10),
        !r.truncated
    );

    // Page-down with various page budgets.
    for pages in [1usize, 5, 20, 100] {
        let (server, mut st) = fresh(&data, anti(), 10, paging.clone());
        let p = page_down_rerank(&server, &mut st, &uq.sel, Arc::clone(&uq.rank), pages)
            .expect("offline sim server does not fail");
        println!(
            "page-down({pages} pages), {}, {:.2}, {}",
            server.queries_issued(),
            recall_at_h(&p.tuples, &truth, 10),
            p.exact
        );
    }
}
