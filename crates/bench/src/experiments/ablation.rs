//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. MD-RERANK's two ideas (§4.3.2): virtual-tuple pruning and direct
//!    domination detection, toggled independently on anti-correlated data,
//! 2. the 1D dense index (§3.2.2) on clustered (dense-region) data,
//! 3. history/amortization: cold vs warm service on the same workload,
//! 4. the §1 baselines: crawl-then-rank cost and page-down recall.

use crate::{print_figure, Scale, Series};
use qrs_core::baselines::{crawl_then_rank, page_down_rerank, recall_at_h};
use qrs_core::{MdCursor, MdOptions, RerankParams, SharedState};
use qrs_datagen::synthetic::correlated;
use qrs_datagen::{md_workload, WorkloadConfig};
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{Capabilities, SearchInterface, SimServer, SystemRank};
use qrs_types::{AttrId, Query};
use std::sync::Arc;

pub fn run(scale: Scale) {
    md_flags(scale);
    dense_1d(scale);
    amortization(scale);
    baselines(scale);
}

/// Ablation 1: MD strategy flags on anti-correlated 2D data with an
/// adversarial system ranking (the regime §4.3 motivates).
fn md_flags(scale: Scale) {
    let n = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let data = correlated(n, -0.85, 21_000);
    let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
    let variants: [(&str, MdOptions); 4] = [
        ("MD-RERANK (all on)", MdOptions::rerank()),
        (
            "no virtual tuples",
            MdOptions {
                virtual_tuples: false,
                domination: false, // domination needs the virtual tuple
            },
        ),
        (
            "no domination detection",
            MdOptions {
                virtual_tuples: true,
                domination: false,
            },
        ),
        ("MD-BASELINE (all off)", MdOptions::baseline()),
    ];
    let mut series = Vec::new();
    for (label, opts) in variants {
        let server = SimServer::new(data.clone(), sys.clone(), 10);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
        let mut cur = MdCursor::new(
            Arc::new(rank.clone()) as Arc<dyn RankFn>,
            Query::all(),
            opts,
            server.schema(),
        );
        let mut s = Series::new(label);
        for h in 1..=10usize {
            let t = cur
                .next(&server, &mut st)
                .expect("offline sim server does not fail");
            s.push(h as f64, server.queries_issued() as f64);
            if t.is_none() {
                break;
            }
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
    use qrs_core::{OneDCursor, OneDStrategy};
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Paper => 50_000,
    };
    // A tight cluster at the low end of the ranked attribute: every top-h
    // request dives into the same dense region.
    let data = qrs_datagen::synthetic::dense_floor(n, 0.3, 0.0005, 22_000);
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
            let before = server.queries_issued();
            let frac = req as f64 / 21.0;
            let sel = Query::all().and_range(
                AttrId(1),
                qrs_types::Interval::closed(0.25 * frac, 0.5 + 0.5 * frac),
            );
            let mut cur = OneDCursor::over(AttrId(0), qrs_types::Direction::Asc, sel, strategy);
            for _ in 0..5 {
                if cur
                    .next(&server, &mut st)
                    .expect("offline sim server does not fail")
                    .is_none()
                {
                    break;
                }
            }
            total += server.queries_issued() - before;
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
    let n = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let data = correlated(n, 0.0, 23_000);
    let cfg = WorkloadConfig {
        num_queries: 8,
        rank_attrs: 2..=2,
        seed: 9_090,
        ..WorkloadConfig::default()
    };
    let workload = md_workload(&data, &cfg);
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(3), 10);
    // Unlike the figure runners, keep *all* knowledge across requests —
    // this ablation measures exactly that amortization.
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
    let mut run = |uq: &qrs_datagen::MdUserQuery| -> u64 {
        let before = server.queries_issued();
        let mut cur = MdCursor::new(
            Arc::new(uq.rank.clone()) as Arc<dyn RankFn>,
            uq.query.clone(),
            MdOptions::rerank(),
            server.schema(),
        );
        for _ in 0..5 {
            if cur
                .next(&server, &mut st)
                .expect("offline sim server does not fail")
                .is_none()
            {
                break;
            }
        }
        server.queries_issued() - before
    };
    let mut cold = Series::new("cold pass");
    let mut warm = Series::new("warm pass (same state)");
    for (i, uq) in workload.iter().enumerate() {
        cold.push((i + 1) as f64, run(uq) as f64);
    }
    for (i, uq) in workload.iter().enumerate() {
        warm.push((i + 1) as f64, run(uq) as f64);
    }
    print_figure(
        &format!("Ablation 3 - per-request cost, cold vs warm shared state (n={n}, top-5)"),
        "request #",
        &[cold, warm],
    );
}

/// Ablation 4: the §1 baselines — exact crawl cost, and page-down recall.
fn baselines(scale: Scale) {
    let n = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 10_000,
    };
    let data = correlated(n, -0.5, 24_000);
    let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
    let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    let truth = data.rank_by(&Query::all(), |t| rank.score(t));

    // Exact MD-RERANK for the top-10.
    let server = SimServer::new(data.clone(), sys.clone(), 10)
        .with_capabilities(Capabilities::none().with_paging());
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
    let mut cur = MdCursor::new(
        Arc::new(rank.clone()) as Arc<dyn RankFn>,
        Query::all(),
        MdOptions::rerank(),
        server.schema(),
    );
    let mut got = Vec::new();
    for _ in 0..10 {
        match cur
            .next(&server, &mut st)
            .expect("offline sim server does not fail")
        {
            Some(t) => got.push(t),
            None => break,
        }
    }
    let md_cost = server.queries_issued();
    println!("\n# Ablation 4 - baselines vs MD-RERANK (n={n}, top-10, anti-correlated system)");
    println!("method, queries, recall@10, exact");
    println!(
        "MD-RERANK, {md_cost}, {:.2}, true",
        recall_at_h(&got, &truth, 10)
    );

    // Crawl-then-rank.
    let server2 = SimServer::new(data.clone(), sys.clone(), 10);
    let mut st2 = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
    let r = crawl_then_rank(&server2, &mut st2, &Query::all(), |t| rank.score(t))
        .expect("offline sim server does not fail");
    println!(
        "crawl-then-rank, {}, {:.2}, {}",
        server2.queries_issued(),
        recall_at_h(&r.tuples, &truth, 10),
        !r.truncated
    );

    // Page-down with various page budgets.
    for pages in [1usize, 5, 20, 100] {
        let server3 = SimServer::new(data.clone(), sys.clone(), 10)
            .with_capabilities(Capabilities::none().with_paging());
        let mut st3 = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
        let p = page_down_rerank(&server3, &mut st3, &Query::all(), |t| rank.score(t), pages)
            .expect("offline sim server does not fail");
        println!(
            "page-down({pages} pages), {}, {:.2}, {}",
            server3.queries_issued(),
            recall_at_h(&p.tuples, &truth, 10),
            p.exact
        );
    }
}
