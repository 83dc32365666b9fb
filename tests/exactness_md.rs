//! Cross-crate exactness tests for the MD algorithms and TA: every §4
//! algorithm must reproduce the brute-force ranking for linear, Lp,
//! Chebyshev and ratio ranking functions, mixed directions, filters, and
//! adversarial system rankings.

use query_reranking::core::md::ta::{SortedAccess, TaCursor};
use query_reranking::core::strategy::pull;
use query_reranking::core::{MdCursor, MdOptions, RerankParams, SharedState};
use query_reranking::datagen::synthetic::{correlated, discrete_grid, uniform};
use query_reranking::ranking::{ChebyshevRank, LinearRank, LpRank, RankFn, RatioRank};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{AttrId, CatId, CatPredicate, Dataset, Direction, Query};
use std::sync::Arc;

/// Compare emitted scores to ground-truth scores; tie order by id is
/// unspecified, so within equal-score runs only the id *sets* must match.
fn check_scores(got: &[(f64, u32)], want: &[(f64, u32)], label: &str) {
    assert_eq!(
        got.iter().map(|p| p.0).collect::<Vec<_>>(),
        want.iter().map(|p| p.0).collect::<Vec<_>>(),
        "{label}: score sequence"
    );
    let mut i = 0;
    while i < got.len() {
        let mut j = i;
        while j < got.len() && got[j].0 == got[i].0 {
            j += 1;
        }
        let mut g: Vec<u32> = got[i..j].iter().map(|p| p.1).collect();
        g.sort_unstable();
        if j < got.len() {
            let mut w: Vec<u32> = want[i..j].iter().map(|p| p.1).collect();
            w.sort_unstable();
            assert_eq!(g, w, "{label}: tie group {i}..{j}");
        }
        i = j;
    }
}

fn run_cursor(
    data: &Dataset,
    sys: &SystemRank,
    k: usize,
    rank: Arc<dyn RankFn>,
    sel: &Query,
    opts: MdOptions,
    take: usize,
) -> Vec<(f64, u32)> {
    let server = SimServer::new(data.clone(), sys.clone(), k);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
    let mut cur = MdCursor::new(Arc::clone(&rank), sel.clone(), opts, server.schema());
    let mut got = Vec::new();
    for _ in 0..take {
        match cur.next(&server, &mut st).unwrap() {
            Some(t) => got.push((rank.score(&t), t.id.0)),
            None => break,
        }
    }
    got
}

fn truth(data: &Dataset, rank: &dyn RankFn, sel: &Query, take: usize) -> Vec<(f64, u32)> {
    let mut v: Vec<(f64, u32)> = data
        .tuples()
        .iter()
        .filter(|t| sel.matches(t))
        .map(|t| (rank.score(t), t.id.0))
        .collect();
    v.sort_by(|a, b| cmp_f64(a.0, b.0).then(a.1.cmp(&b.1)));
    v.truncate(take);
    v
}

fn check_all_algos(
    data: &Dataset,
    sys: SystemRank,
    k: usize,
    rank: Arc<dyn RankFn>,
    sel: Query,
    take: usize,
) {
    let want = truth(data, rank.as_ref(), &sel, take);
    for (label, opts) in [
        ("MD-BASELINE", MdOptions::baseline()),
        ("MD-RERANK", MdOptions::rerank()),
    ] {
        let got = run_cursor(data, &sys, k, Arc::clone(&rank), &sel, opts, take);
        assert_eq!(got.len(), want.len(), "{label}: length");
        check_scores(&got, &want, label);
    }
    // TA.
    let server = SimServer::new(data.clone(), sys, k);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
    let mut ta = TaCursor::new(
        Arc::clone(&rank),
        sel,
        SortedAccess::OneD,
        server.schema(),
        &Capabilities::none(),
    );
    let mut got = Vec::new();
    for _ in 0..take {
        match ta.next(&server, &mut st).unwrap() {
            Some(t) => got.push((rank.score(&t), t.id.0)),
            None => break,
        }
    }
    assert_eq!(got.len(), want.len(), "TA: length");
    check_scores(&got, &want, "TA");
}

#[test]
fn linear_2d_uniform() {
    let data = uniform(300, 2, 1, 2001);
    check_all_algos(
        &data,
        SystemRank::pseudo_random(1),
        5,
        Arc::new(LinearRank::asc(vec![(AttrId(0), 0.8), (AttrId(1), 0.4)])),
        Query::all(),
        12,
    );
}

#[test]
fn linear_3d_anticorrelated_adversarial_system() {
    let data = uniform(350, 3, 1, 2003);
    let sys = SystemRank::linear(
        "anti",
        vec![(AttrId(0), -1.0), (AttrId(1), -1.0), (AttrId(2), -1.0)],
    );
    check_all_algos(
        &data,
        sys,
        5,
        Arc::new(LinearRank::asc(vec![
            (AttrId(0), 0.7),
            (AttrId(1), 0.2),
            (AttrId(2), 1.0),
        ])),
        Query::all(),
        8,
    );
}

#[test]
fn mixed_directions_with_filter() {
    let data = uniform(300, 3, 1, 2005);
    let rank = LinearRank::new(vec![
        (AttrId(0), Direction::Asc, 1.0),
        (AttrId(2), Direction::Desc, 2.0),
    ]);
    let sel = Query::all().and_cat(CatPredicate::eq(CatId(0), 1));
    check_all_algos(
        &data,
        SystemRank::by_attr_asc(AttrId(1)),
        4,
        Arc::new(rank),
        sel,
        10,
    );
}

#[test]
fn ratio_rank_price_per_quality() {
    // Ratio functions exercise the generic (bisection) contour solvers.
    let data = uniform(250, 2, 1, 2007);
    // Shift attr0 to be a "price" in [1, 2] and attr1 a "quality" in (0,1]:
    // RatioRank requires num >= 0, den > 0; uniform data is in [0,1], so use
    // attr0 as numerator directly and guard the denominator via a filter.
    let sel = Query::all().and_range(
        AttrId(1),
        query_reranking::types::Interval::closed(0.05, 1.0),
    );
    check_all_algos(
        &data,
        SystemRank::pseudo_random(3),
        5,
        Arc::new(RatioRank::minimize(AttrId(0), AttrId(1))),
        sel,
        10,
    );
}

#[test]
fn lp_and_chebyshev_nonlinear() {
    let data = correlated(250, -0.6, 2009);
    check_all_algos(
        &data,
        SystemRank::pseudo_random(4),
        5,
        Arc::new(LpRank::l2(vec![AttrId(0), AttrId(1)], vec![0.0, 0.0])),
        Query::all(),
        8,
    );
    check_all_algos(
        &data,
        SystemRank::pseudo_random(5),
        5,
        Arc::new(ChebyshevRank::uniform(
            vec![AttrId(0), AttrId(1)],
            vec![0.0, 0.0],
        )),
        Query::all(),
        8,
    );
}

#[test]
fn heavy_ties_grid_md() {
    let data = discrete_grid(350, 3, 4, 2011);
    check_all_algos(
        &data,
        SystemRank::pseudo_random(6),
        7,
        Arc::new(LinearRank::asc(vec![
            (AttrId(0), 1.0),
            (AttrId(1), 1.0),
            (AttrId(2), 1.0),
        ])),
        Query::all(),
        30,
    );
}

#[test]
fn selection_on_ranking_attribute() {
    // Sel(q) constrains a ranking attribute: the initial box must absorb it.
    let data = uniform(300, 2, 1, 2013);
    let sel = Query::all().and_range(
        AttrId(0),
        query_reranking::types::Interval::closed(0.3, 0.7),
    );
    check_all_algos(
        &data,
        SystemRank::by_attr_desc(AttrId(0)),
        5,
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])),
        sel,
        10,
    );
}

/// The MD cursor splits an emission's host on the axis its tuple climbs
/// most: the top-25 of a ranking whose lowest-numbered attribute weighs
/// least costs 68 queries here, and 113 with every host split on its first
/// free axis. A fixed draw, so the bound does not move with the seed.
#[test]
fn md_split_on_the_largest_climb_pays_less() {
    let data = uniform(2000, 3, 1, 401);
    let rank = LinearRank::asc(vec![(AttrId(0), 0.05), (AttrId(1), 0.5), (AttrId(2), 0.9)]);
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(19), 10);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(2000, 10));
    let mut cur = MdCursor::new(
        Arc::new(rank.clone()),
        Query::all(),
        MdOptions::rerank(),
        server.schema(),
    );
    let got = pull(&mut cur, &server, &mut st, 25).unwrap();
    let truth = data.rank_by(&Query::all(), |t| rank.score(t));
    assert!(got
        .iter()
        .map(|t| t.id)
        .eq(truth.iter().take(25).map(|t| t.id)));
    let paid = server.queries_issued();
    assert!(paid <= 90, "{paid} queries for the top-25");
}

/// The MD cursor resolves a subspace only where history cannot prove it
/// holds nothing below the best known top: a fresh top-100 costs 189
/// queries here, and 211 with every new subspace resolved in the call after
/// it appears. A fixed draw, so the bound does not move with the seed.
#[test]
fn md_lazy_resolution_pays_less_for_a_long_stream() {
    let data = uniform(2000, 3, 1, 7);
    let rank = LinearRank::asc(vec![(AttrId(0), 0.3), (AttrId(1), 0.3), (AttrId(2), 0.4)]);
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(19), 10);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(2000, 10));
    let mut cur = MdCursor::new(
        Arc::new(rank.clone()),
        Query::all(),
        MdOptions::rerank(),
        server.schema(),
    );
    let got = pull(&mut cur, &server, &mut st, 100).unwrap();
    let truth = data.rank_by(&Query::all(), |t| rank.score(t));
    assert!(got
        .iter()
        .map(|t| t.id)
        .eq(truth.iter().take(100).map(|t| t.id)));
    let paid = server.queries_issued();
    assert!(paid <= 200, "{paid} queries for the top-100");
}
