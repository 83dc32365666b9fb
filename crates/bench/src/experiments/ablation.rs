//! Ablations of the design choices the algorithms rest on:
//!
//! * Ablation 1: MD-RERANK's two ideas (§4.3.2), virtual-tuple pruning and
//!   direct domination detection, toggled independently on
//!   anti-correlated data,
//! * Ablation 3: history/amortization, cold vs warm service on the same
//!   workload,
//! * Ablation 4: the §1 baselines, crawl-then-rank cost and page-down
//!   recall.
//!
//! Ablation 2 measured §3.2.2's 1-D dense-region index, which is not built;
//! its last rows are README's "Named deviations" table, and
//! `one_d::cursor`'s tests keep what it showed without the index: history
//! alone amortizes requests with different filters.
//!
//! Every exact stream here goes through the one runner, [`measure`],
//! which checks it; crawl-then-rank's ranking is checked the same way
//! unless the crawl was truncated. The page-down rows are approximate by
//! design and report their recall.

use super::{fresh, MD_RERANK};
use crate::runner::{assert_exact, measure, UserQuery};
use crate::{print_figure, Scale, Series};
use qrs_core::baselines::{crawl_then_rank, page_down_rerank, recall_at_h};
use qrs_core::MdOptions;
use qrs_datagen::synthetic::correlated;
use qrs_datagen::{md_workload, WorkloadConfig};
use qrs_ranking::LinearRank;
use qrs_server::{Capabilities, SearchInterface, SystemRank};
use qrs_service::Algorithm;
use qrs_types::{AttrId, Query};
use std::sync::Arc;

pub fn run(scale: Scale) {
    md_flags(scale);
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
        // Domination probes the virtual tuple's box, so "no virtual
        // tuples" is MD-BASELINE and has no column of its own.
        ("MD-RERANK (all on)", true, true),
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
            &server.dataset(),
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
