//! Cross-crate exactness tests for the 1D algorithms: every §3 strategy must
//! reproduce the brute-force ranking on every dataset family, direction, and
//! filter — the paper's "no loss of accuracy" requirement.

use query_reranking::core::{OneDCursor, OneDSpec, OneDStrategy, RerankParams, SharedState};
use query_reranking::datagen::synthetic::{clustered, discrete_grid, uniform};
use query_reranking::datagen::{flights, one_d_workload, WorkloadConfig};
use query_reranking::server::{SimServer, SystemRank};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{AttrId, Dataset, Direction, Query};

fn truth(data: &Dataset, sel: &Query, attr: AttrId, dir: Direction) -> Vec<(f64, u32)> {
    let mut v: Vec<(f64, u32)> = data
        .tuples()
        .iter()
        .filter(|t| sel.matches(t))
        .map(|t| (dir.normalize(t.ord(attr)), t.id.0))
        .collect();
    v.sort_by(|a, b| cmp_f64(a.0, b.0).then(a.1.cmp(&b.1)));
    v
}

fn check_stream(
    data: &Dataset,
    sys: SystemRank,
    k: usize,
    sel: Query,
    attr: AttrId,
    dir: Direction,
    take: usize,
) {
    let want: Vec<(f64, u32)> = truth(data, &sel, attr, dir)
        .into_iter()
        .take(take)
        .collect();
    for strategy in OneDStrategy::ALL {
        let server = SimServer::new(data.clone(), sys.clone(), k);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
        let mut cur = OneDCursor::new(OneDSpec::new(attr, dir, sel.clone()), strategy);
        let mut got = Vec::new();
        for _ in 0..take {
            match cur.next(&server, &mut st).unwrap() {
                Some(t) => got.push((dir.normalize(t.ord(attr)), t.id.0)),
                None => break,
            }
        }
        assert_eq!(got, want, "{} {attr} {dir:?}", strategy.label());
    }
}

#[test]
fn uniform_all_directions() {
    let data = uniform(400, 2, 1, 1001);
    for dir in [Direction::Asc, Direction::Desc] {
        check_stream(
            &data,
            SystemRank::by_attr_desc(AttrId(0)),
            5,
            Query::all(),
            AttrId(0),
            dir,
            30,
        );
    }
}

#[test]
fn clustered_dense_regions() {
    // Sharp clusters + adversarial system ranking: dense regions, where
    // bisection narrows deepest.
    let data = clustered(1_000, 1, 3, 0.003, 1003);
    check_stream(
        &data,
        SystemRank::by_attr_desc(AttrId(0)),
        5,
        Query::all(),
        AttrId(0),
        Direction::Asc,
        40,
    );
}

#[test]
fn grid_of_ties_and_overflowing_slabs() {
    let data = discrete_grid(500, 2, 4, 1005);
    // Tuples identical on every ordinal and categorical attribute are
    // indistinguishable through the interface; exact enumeration needs
    // k at least the largest such group.
    let mut groups: std::collections::HashMap<(u64, u64, u32), usize> =
        std::collections::HashMap::new();
    for t in data.tuples() {
        *groups
            .entry((
                t.ord(AttrId(0)).to_bits(),
                t.ord(AttrId(1)).to_bits(),
                t.cat(query_reranking::types::CatId(0)),
            ))
            .or_default() += 1;
    }
    let k = groups.values().copied().max().unwrap();
    check_stream(
        &data,
        SystemRank::pseudo_random(5),
        k,
        Query::all(),
        AttrId(0),
        Direction::Asc,
        60,
    );
}

#[test]
fn flights_workload_spot_checks() {
    let data = flights(3_000, 1007);
    let cfg = WorkloadConfig {
        num_queries: 6,
        seed: 11,
        ..WorkloadConfig::default()
    };
    for uq in one_d_workload(&data, &cfg) {
        check_stream(
            &data,
            SystemRank::linear(
                "SR2",
                vec![
                    (query_reranking::datagen::flights::attr::DISTANCE, -0.1),
                    (query_reranking::datagen::flights::attr::DEP_DELAY, -1.0),
                ],
            ),
            10,
            uq.query,
            uq.attr,
            uq.dir,
            10,
        );
    }
}

#[test]
fn tiny_k_equals_one() {
    // k = 1 is the worst interface; §3's lower-bound regime.
    let data = uniform(150, 2, 1, 1009);
    check_stream(
        &data,
        SystemRank::by_attr_desc(AttrId(0)),
        1,
        Query::all(),
        AttrId(0),
        Direction::Asc,
        150,
    );
}

#[test]
fn shared_state_across_user_queries_stays_exact() {
    // One SharedState serving several different user queries in sequence —
    // history and complete-region reuse must never corrupt answers.
    let data = clustered(800, 2, 2, 0.004, 1011);
    let server = SimServer::new(data.clone(), SystemRank::by_attr_desc(AttrId(0)), 5);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(800, 5));
    let cfg = WorkloadConfig {
        num_queries: 8,
        seed: 13,
        ..WorkloadConfig::default()
    };
    for uq in one_d_workload(&data, &cfg) {
        let want: Vec<(f64, u32)> = truth(&data, &uq.query, uq.attr, uq.dir)
            .into_iter()
            .take(5)
            .collect();
        let mut cur = OneDCursor::new(
            OneDSpec::new(uq.attr, uq.dir, uq.query.clone()),
            OneDStrategy::Rerank,
        );
        let mut got = Vec::new();
        for _ in 0..5 {
            match cur.next(&server, &mut st).unwrap() {
                Some(t) => got.push((uq.dir.normalize(t.ord(uq.attr)), t.id.0)),
                None => break,
            }
        }
        assert_eq!(got, want, "query {}", uq.query);
    }
}
