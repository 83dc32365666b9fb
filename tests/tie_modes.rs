//! Tie handling: the MD cursor's tie slabs make it exact on tied and
//! untied data alike. The 1-D cursor's exactness on heavy ties is pinned
//! by `one_d::cursor`'s `streams_with_heavy_ties_exactly` and
//! `tests/exactness_1d.rs::grid_of_ties_and_overflowing_slabs`.

use query_reranking::core::strategy::pull;
use query_reranking::core::{MdCursor, MdOptions, RerankParams, SharedState};
use query_reranking::datagen::synthetic::{discrete_grid, uniform};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::types::{AttrId, Query};
use std::sync::Arc;

#[test]
fn md_stream_equals_brute_force_on_distinct_data() {
    let data = uniform(300, 2, 1, 5001);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7)]));
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(31), 5);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(300, 5));
    let mut cur = MdCursor::new(
        Arc::clone(&rank),
        Query::all(),
        MdOptions::rerank(),
        server.schema(),
    );
    let got = pull(&mut cur, &server, &mut st, 20).unwrap();
    let truth = data.rank_by(&Query::all(), |t| rank.score(t));
    let got: Vec<_> = got.iter().map(|t| t.id).collect();
    let want: Vec<_> = truth[..20].iter().map(|t| t.id).collect();
    assert_eq!(got, want);
}

#[test]
fn md_emits_every_tuple_on_a_coarse_grid() {
    // Every tuple shares its ranking values with others: an emission's tie
    // slab must hand back each of them.
    let data = discrete_grid(150, 2, 3, 5003);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let total = data.len();
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(33), 40);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(150, 40));
    let mut cur = MdCursor::new(
        Arc::clone(&rank),
        Query::all(),
        MdOptions::rerank(),
        server.schema(),
    );
    let mut scores = Vec::new();
    while let Some(t) = cur.next(&server, &mut st).unwrap() {
        scores.push(rank.score(&t));
        assert!(scores.len() <= total, "emitted more tuples than exist");
    }
    assert_eq!(scores.len(), total);
    assert!(scores.windows(2).all(|w| w[0] <= w[1]), "out of order");
}
