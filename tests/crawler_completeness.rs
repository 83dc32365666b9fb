//! The region crawler ([15]-style) must enumerate `R(q)` exactly — it backs
//! the crawl-then-rank baseline and tie slabs, so its completeness is a
//! correctness dependency of everything else.

use query_reranking::core::crawl::crawl_region;
use query_reranking::core::{RerankParams, SharedState};
use query_reranking::datagen::synthetic::{clustered, discrete_grid, uniform};
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::types::{
    AttrId, CatAttr, CatId, CatPredicate, Dataset, Interval, OrdinalAttr, Query, Schema, Tuple,
    TupleId,
};

fn check_complete(data: &Dataset, k: usize, q: &Query) {
    let want: Vec<u32> = {
        let mut v: Vec<u32> = data
            .tuples()
            .iter()
            .filter(|t| q.matches(t))
            .map(|t| t.id.0)
            .collect();
        v.sort_unstable();
        v
    };
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(9), k);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
    let r = crawl_region(&server, &mut st, q).unwrap();
    assert!(!r.truncated, "unexpected truncation");
    let got: Vec<u32> = r.tuples.iter().map(|t| t.id.0).collect();
    assert_eq!(got, want);
}

#[test]
fn continuous_data_various_filters() {
    let data = uniform(500, 3, 2, 4001);
    check_complete(&data, 5, &Query::all());
    check_complete(
        &data,
        5,
        &Query::all().and_range(AttrId(1), Interval::open(0.2, 0.8)),
    );
    check_complete(
        &data,
        5,
        &Query::all()
            .and_cat(CatPredicate::eq(CatId(0), 2))
            .and_range(AttrId(0), Interval::at_least(0.5)),
    );
}

#[test]
fn clustered_data_small_k() {
    let data = clustered(600, 2, 2, 0.01, 4003);
    check_complete(&data, 2, &Query::all());
}

#[test]
fn grid_data_with_categorical_separation() {
    // 3-level grid in 2D: cells hold many tuples identical on ordinals but
    // differing in the categorical attribute — the crawler must separate
    // them by enumerating categories. Tuples identical on ordinals *and*
    // category are indistinguishable, so k must be at least the largest
    // such group for a complete crawl.
    let data = discrete_grid(300, 2, 3, 4005);
    let mut groups: std::collections::HashMap<(u64, u64, u32), usize> =
        std::collections::HashMap::new();
    for t in data.tuples() {
        *groups
            .entry((
                t.ord(AttrId(0)).to_bits(),
                t.ord(AttrId(1)).to_bits(),
                t.cat(CatId(0)),
            ))
            .or_default() += 1;
    }
    let max_group = groups.values().copied().max().unwrap();
    check_complete(&data, max_group, &Query::all());
    // With k below the largest group, the crawler must *report* truncation
    // rather than silently missing tuples.
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(9), max_group - 1);
    let mut st = SharedState::new(
        data.schema(),
        RerankParams::paper_defaults(data.len(), max_group - 1),
    );
    let r = crawl_region(&server, &mut st, &Query::all()).unwrap();
    assert!(r.truncated);
}

#[test]
fn point_only_attribute_enumeration() {
    let schema = Schema::new(
        vec![
            OrdinalAttr::point_only("grade", vec![1.0, 2.0, 3.0, 4.0]),
            OrdinalAttr::new("x", 0.0, 1.0),
        ],
        vec![CatAttr::new("c", 2)],
    );
    let tuples: Vec<Tuple> = (0..60)
        .map(|i| {
            Tuple::new(
                TupleId(i),
                vec![f64::from(i % 4 + 1), f64::from(i) / 60.0],
                vec![i % 2],
            )
        })
        .collect();
    let data = Dataset::new(schema, tuples).unwrap();
    check_complete(&data, 3, &Query::all());
    check_complete(
        &data,
        3,
        &Query::all().and_range(AttrId(0), Interval::point(2.0)),
    );
}

#[test]
fn truncation_reported_for_indistinguishable_duplicates() {
    // 12 tuples, all identical on the single ordinal and the single
    // categorical attribute, k = 4: only 4 are reachable.
    let schema = Schema::new(
        vec![OrdinalAttr::new("x", 0.0, 1.0)],
        vec![CatAttr::new("c", 1)],
    );
    let tuples: Vec<Tuple> = (0..12)
        .map(|i| Tuple::new(TupleId(i), vec![0.5], vec![0]))
        .collect();
    let data = Dataset::new(schema, tuples).unwrap();
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(1), 4);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(12, 4));
    let r = crawl_region(&server, &mut st, &Query::all()).unwrap();
    assert!(r.truncated, "silent truncation");
    assert_eq!(r.tuples.len(), 4);
}

#[test]
fn crawl_cost_scales_with_result_size_not_database_size() {
    // A narrow region in a big database: cost ∝ |R(q)|/k, not n.
    let data = uniform(5_000, 2, 1, 4007);
    let q = Query::all().and_range(AttrId(0), Interval::open(0.4, 0.42));
    let expect = data.count_matching(&q);
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(2), 10);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(5_000, 10));
    let r = crawl_region(&server, &mut st, &q).unwrap();
    assert_eq!(r.tuples.len(), expect);
    assert!(
        server.queries_issued() <= (4 * expect / 10 + 10) as u64,
        "crawl cost {} for |R(q)| = {expect}",
        server.queries_issued()
    );
}
