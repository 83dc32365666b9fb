//! Mutation feed + incremental top-k maintenance (tentpole suite).
//!
//! Races seeded mutation schedules against live [`MaintainedSession`]s and
//! checks, after **every** batch, that the delta-repaired top-`h` is
//! byte-identical (ids *and* score bit patterns) to a full re-drive oracle
//! run by a fresh service against the same post-mutation server. Also the
//! regression the tentpole exists for: a sealed knowledge-plane result
//! stream must never replay across a mutation watermark.
//!
//! Schedules derive from `QRS_TEST_SEED`, so CI proves the equivalence
//! under several seeds.

use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, OrderedPage, SearchInterface, SimServer, SystemRank};
use query_reranking::service::{Algorithm, KnowledgePlane, RerankService};
use query_reranking::types::{
    AttrId, Capability, Dataset, Direction, Interval, OrdinalAttr, Query, QueryResponse,
    RerankError, Schema, ServerError, Tuple, TupleId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Mix the CI-provided seed (if any) into a property's base seed.
fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn schema(m: usize) -> Schema {
    Schema::new(
        (0..m)
            .map(|i| OrdinalAttr::new(format!("a{i}"), 0.0, 9.0))
            .collect(),
        vec![],
    )
}

/// Attr 0 lives on a coarse 0..=9 grid so rankings over it tie heavily;
/// the remaining attrs are continuous so a >k point-tie slab can always
/// be sub-crawled by the cursor (a one-attribute all-ties slab would be
/// unresolvable through any top-k interface, ours included).
fn random_tuple(rng: &mut StdRng, id: u32, m: usize) -> Tuple {
    Tuple::new(
        TupleId(id),
        (0..m)
            .map(|i| {
                if i == 0 {
                    f64::from(rng.random_range(0..10u32))
                } else {
                    rng.random::<f64>() * 9.0
                }
            })
            .collect(),
        vec![],
    )
}

fn dataset(rng: &mut StdRng, n: usize, m: usize) -> Dataset {
    let tuples = (0..n)
        .map(|i| random_tuple(rng, i as u32, m))
        .collect::<Vec<_>>();
    Dataset::new(schema(m), tuples).unwrap()
}

/// The comparable byte-level shape of a ranked stream.
fn fingerprint(hits: &[query_reranking::service::RankedTuple]) -> Vec<(u32, u64)> {
    hits.iter()
        .map(|r| (r.tuple.id.0, r.score.to_bits()))
        .collect()
}

/// One random mutation against `server`, keeping ids unique. Returns a
/// human label for assertion messages.
fn mutate_once(rng: &mut StdRng, server: &SimServer, next_id: &mut u32, m: usize) -> String {
    let live = server.dataset();
    let n = live.len();
    match rng.random_range(0..3u32) {
        0 => {
            let t = random_tuple(rng, *next_id, m);
            *next_id += 1;
            let label = format!("insert {:?}", t);
            server.insert(t).expect("fresh id cannot collide");
            label
        }
        1 if n > 1 => {
            let victim = live.tuples()[rng.random_range(0..n)].id;
            server.delete(victim).expect("picked a live id");
            format!("delete {victim}")
        }
        _ if n > 0 => {
            let target = live.tuples()[rng.random_range(0..n)].id;
            let mut t = random_tuple(rng, target.0, m);
            t.id = target;
            let label = format!("update {:?}", t);
            server.update(t).expect("picked a live id");
            label
        }
        _ => "noop".to_string(),
    }
}

/// Full re-drive oracle: a fresh plane-less service answering the same
/// request against the same (already mutated) server. Returns the stream
/// fingerprint and what the re-drive cost in queries.
fn oracle(
    server: &Arc<SimServer>,
    sel: &Query,
    rank: &Arc<dyn RankFn>,
    h: usize,
) -> (Vec<(u32, u64)>, u64) {
    let n = server.dataset().len().max(1);
    let svc = RerankService::new(Arc::clone(server) as Arc<dyn SearchInterface>, n);
    let mut s = svc
        .session(sel.clone(), Arc::clone(rank))
        .open()
        .expect("oracle open");
    let hits = s.try_top(h).expect("oracle drive");
    (fingerprint(&hits), s.queries_spent())
}

/// The core property: after every seeded mutation batch, the delta-repaired
/// materialization is byte-identical to the full re-drive oracle — and the
/// repairs, in aggregate, cost strictly fewer queries than the oracles.
#[test]
fn delta_repair_is_byte_identical_to_full_redrive() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC0));
    let mut repair_cost = 0u64;
    let mut oracle_cost = 0u64;
    for case in 0..10 {
        // Schema is always 2-wide (see `random_tuple`); the *ranking*
        // alternates between one attr (the 1D cursor) and both (MD).
        let ranked = if case % 2 == 0 { 2 } else { 1 };
        let n = rng.random_range(20..80usize);
        let server = Arc::new(SimServer::new(
            dataset(&mut rng, n, 2),
            SystemRank::pseudo_random(3 + case),
            4,
        ));
        let mut next_id = n as u32;
        let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(
            (0..ranked).map(|i| (AttrId(i), 1.0 + i as f64)).collect(),
        ));
        let sel = if case % 3 == 0 {
            Query::all().and_range(AttrId(0), Interval::closed(1.0, 8.0))
        } else {
            Query::all()
        };
        let h = rng.random_range(3..9usize);
        // Pin a cursor (non-positional) algorithm so the no-redrive
        // assertion below is a property of the repair, not of what the
        // planner happened to pick.
        let algo = if ranked == 1 {
            Algorithm::OneD(query_reranking::core::OneDStrategy::Rerank)
        } else {
            Algorithm::Md(query_reranking::core::MdOptions::rerank())
        };
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
        let mut maintained = svc
            .session(sel.clone(), Arc::clone(&rank))
            .algorithm(algo)
            .open_maintained(h)
            .expect("open_maintained");
        let (truth, _) = oracle(&server, &sel, &rank, h);
        assert_eq!(
            fingerprint(&maintained.top()),
            truth,
            "cold drive, case {case}"
        );
        let mut labels = Vec::new();
        for batch in 0..4 {
            let width = rng.random_range(1..5usize);
            labels.push(format!("-- batch {batch} --"));
            for _ in 0..width {
                labels.push(mutate_once(&mut rng, &server, &mut next_id, 2));
            }
            let outcome = maintained.refresh().expect("refresh");
            assert_eq!(outcome.applied, width, "case {case} batch {batch}");
            assert!(!outcome.redrove, "cursor strategies delta-repair");
            repair_cost += outcome.queries_spent;
            let (truth, full) = oracle(&server, &sel, &rank, h);
            oracle_cost += full;
            assert_eq!(
                fingerprint(&maintained.top()),
                truth,
                "case {case} batch {batch} ({labels:?}) diverged from the oracle"
            );
        }
    }
    assert!(
        repair_cost < oracle_cost,
        "delta repair must beat re-driving: {repair_cost} vs {oracle_cost} queries"
    );
}

/// Maintenance over a knowledge-plane-backed service: the gate's watermark
/// sync must keep repairs exact too (the shard epoch moves under it).
#[test]
fn maintenance_stays_exact_over_a_knowledge_plane() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC1));
    let n = 60usize;
    let server = Arc::new(SimServer::new(
        dataset(&mut rng, n, 2),
        SystemRank::pseudo_random(11),
        4,
    ));
    let mut next_id = n as u32;
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 2.0)]));
    let plane = Arc::new(KnowledgePlane::new());
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n)
        .with_knowledge(Arc::clone(&plane), "dealer");
    let mut maintained = svc
        .session(Query::all(), Arc::clone(&rank))
        .open_maintained(5)
        .expect("open_maintained");
    for _ in 0..6 {
        mutate_once(&mut rng, &server, &mut next_id, 2);
        maintained.refresh().expect("refresh");
        let (truth, _) = oracle(&server, &Query::all(), &rank, 5);
        assert_eq!(fingerprint(&maintained.top()), truth);
    }
}

/// The stale-replay regression the tentpole fixes: a sealed result stream
/// replays byte-identically while the data stands still, and is *refused*
/// — re-paid against the new snapshot — the moment the feed moves.
#[test]
fn sealed_stream_never_replays_across_a_mutation_watermark() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC2));
    let n = 50usize;
    let server = Arc::new(SimServer::new(
        dataset(&mut rng, n, 2),
        SystemRank::pseudo_random(7),
        4,
    ));
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let plane = Arc::new(KnowledgePlane::new());
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n)
        .with_knowledge(Arc::clone(&plane), "dealer");
    // Seal the stream: drive to exhaustion.
    let mut cold = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let cold_hits = cold.try_top(n + 5).expect("cold drive");
    assert_eq!(cold_hits.len(), n);
    drop(cold);
    // Control: with the data unchanged, the replay is free and identical.
    let paid_before = svc.queries_issued();
    let mut warm = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let warm_hits = warm.try_top(n + 5).expect("warm replay");
    assert_eq!(fingerprint(&warm_hits), fingerprint(&cold_hits));
    assert_eq!(svc.queries_issued(), paid_before, "sealed replay is free");
    drop(warm);
    // Mutation: delete the best-ranked tuple. The sealed stream still
    // byte-matches the old answer, so replaying it would be silently wrong.
    let victim = cold_hits[0].tuple.id;
    server.delete(victim).expect("victim is live");
    let paid_before = svc.queries_issued();
    let mut fresh = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let fresh_hits = fresh.try_top(n + 5).expect("post-mutation drive");
    assert_eq!(fresh_hits.len(), n - 1);
    assert!(
        fresh_hits.iter().all(|r| r.tuple.id != victim),
        "replayed a sealed stream across a mutation watermark"
    );
    assert!(
        svc.queries_issued() > paid_before,
        "the post-mutation answer must be re-earned, not replayed"
    );
    // And the re-earned stream seals again: one more session is free.
    let paid_before = svc.queries_issued();
    let mut resealed = svc.session(Query::all(), rank).open().unwrap();
    let resealed_hits = resealed.try_top(n + 5).expect("resealed replay");
    assert_eq!(fingerprint(&resealed_hits), fingerprint(&fresh_hits));
    assert_eq!(svc.queries_issued(), paid_before);
}

/// Inserts that land outside the horizon are absorbed with zero server
/// traffic; deletes above it pull replacements far cheaper than a re-drive.
#[test]
fn repair_costs_are_proportional_to_the_change() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC3));
    let n = 60usize;
    let server = Arc::new(SimServer::new(
        dataset(&mut rng, n, 2),
        SystemRank::pseudo_random(5),
        4,
    ));
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
    let mut maintained = svc
        .session(Query::all(), Arc::clone(&rank))
        .open_maintained(4)
        .expect("open_maintained");
    // Worst-possible insert: score 18 ranks dead last under this ranking.
    server
        .insert(Tuple::new(TupleId(n as u32), vec![9.0, 9.0], vec![]))
        .unwrap();
    let outcome = maintained.refresh().expect("refresh");
    assert_eq!((outcome.applied, outcome.redrove), (1, false));
    assert_eq!(
        outcome.queries_spent, 0,
        "an insert outside the horizon is rank-tested locally, free"
    );
    // Delete the current best: exactly one frontier replacement needed.
    let victim = maintained.top()[0].tuple.id;
    server.delete(victim).unwrap();
    let outcome = maintained.refresh().expect("refresh");
    assert!(!outcome.redrove);
    let (truth, full_cost) = oracle(&server, &Query::all(), &rank, 4);
    assert_eq!(fingerprint(&maintained.top()), truth);
    assert!(
        outcome.queries_spent < full_cost,
        "one-tuple repair ({} queries) must be cheaper than a full \
         re-drive ({full_cost} queries)",
        outcome.queries_spent
    );
    // The repair is chosen by what runs at the *maintained* horizon, not by
    // what a plan at the builder's horizon hint would have run. On a paging
    // site the hint flips the cost ranking: the 1D cursor is cheapest for 4
    // tuples (and delta-repairs a delete with a probe or two), the drain is
    // cheapest for 30 (and is positional, so it must re-drive).
    let rank1: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));
    // A fixed world (no seed): distinct ranking values, so the cursor's
    // next tuple after a delete is one probe away whatever CI's seed.
    let spread = (0..40u32)
        .map(|i| {
            Tuple::new(
                TupleId(i),
                vec![f64::from(i) * 0.2, f64::from(i % 7)],
                vec![],
            )
        })
        .collect();
    let paged = Dataset::new(schema(2), spread).unwrap();
    for (hint, h, redrives) in [(30, 4, false), (4, 30, true)] {
        let server = Arc::new(
            SimServer::new(paged.clone(), SystemRank::pseudo_random(5), 4)
                .with_capabilities(Capabilities::none().with_paging()),
        );
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, 40);
        let mut maintained = svc
            .session(Query::all(), Arc::clone(&rank1))
            .horizon(hint)
            .open_maintained(h)
            .expect("open_maintained");
        server.delete(maintained.top()[0].tuple.id).unwrap();
        let outcome = maintained.refresh().expect("refresh");
        assert_eq!(outcome.redrove, redrives, "hint {hint}, maintained {h}");
        assert!(
            redrives || outcome.queries_spent <= 2,
            "a one-tuple delete under the 1D cursor is a probe or two, not \
             {} queries",
            outcome.queries_spent
        );
        let (truth, _) = oracle(&server, &Query::all(), &rank1, h);
        assert_eq!(fingerprint(&maintained.top()), truth);
    }
}

/// A compacted delta log reports a gap, and the gap forces a re-drive that
/// still lands on the oracle answer.
#[test]
fn log_gap_forces_a_redrive_that_stays_exact() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC4));
    let n = 40usize;
    let server = Arc::new(
        SimServer::new(dataset(&mut rng, n, 2), SystemRank::pseudo_random(9), 4)
            .with_mutation_log_cap(1),
    );
    let mut next_id = n as u32;
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
    let mut maintained = svc
        .session(Query::all(), Arc::clone(&rank))
        .open_maintained(5)
        .expect("open_maintained");
    for _ in 0..3 {
        mutate_once(&mut rng, &server, &mut next_id, 2);
    }
    let outcome = maintained.refresh().expect("refresh");
    assert!(outcome.redrove, "a compacted log cannot be delta-replayed");
    assert_eq!(maintained.redrives(), 1);
    let (truth, _) = oracle(&server, &Query::all(), &rank, 5);
    assert_eq!(fingerprint(&maintained.top()), truth);
}

/// Positional strategies (page-down addresses tuples by page slot, TA by
/// sorted-access depth) cannot be overlay-repaired once a delete needs live
/// pulls: the session must re-drive — and the re-drive is exact.
#[test]
fn positional_strategy_redrives_instead_of_trusting_shifted_pages() {
    use query_reranking::core::md::ta::SortedAccess;

    let mut rng = StdRng::seed_from_u64(seeded(0xCDC5));
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let small = |rng: &mut StdRng| {
        SimServer::new(dataset(rng, 40, 2), SystemRank::pseudo_random(13), 4).with_capabilities(
            Capabilities::none()
                .with_paging()
                .with_order_by(vec![AttrId(0), AttrId(1)]),
        )
    };
    let page_down = Algorithm::PageDown {
        max_pages: usize::MAX,
    };
    let inputs = [
        ("page-down", small(&mut rng), page_down),
        (
            "ta-order-by",
            small(&mut rng),
            Algorithm::Ta(SortedAccess::PublicOrderBy),
        ),
    ];
    let h = 4;
    for (label, server, algo) in inputs {
        let server = Arc::new(server);
        let n = server.dataset().len();
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
        let mut maintained = svc
            .session(Query::all(), Arc::clone(&rank))
            .algorithm(algo)
            .open_maintained(h)
            .expect("open_maintained");
        for round in 0..10 {
            // The result is drained client-side (page-down) or far shorter
            // than the relation, so the live stream is never exhausted and
            // deleting inside the horizon always needs live pulls.
            for hit in maintained.top().iter().take(3) {
                server.delete(hit.tuple.id).expect("victim is live");
            }
            let outcome = maintained.refresh().expect("refresh");
            assert!(
                outcome.redrove,
                "{label} round {round}: positional strategies must re-drive"
            );
            let scorer = Arc::clone(&rank);
            let truth: Vec<(u32, u64)> = server
                .dataset()
                .rank_by(&Query::all(), move |t| scorer.score(t))
                .iter()
                .take(h)
                .map(|t| (t.id.0, rank.score(t).to_bits()))
                .collect();
            assert_eq!(
                fingerprint(&maintained.top()),
                truth,
                "{label} round {round} diverged from the dense oracle"
            );
        }
    }
}

/// A server without the feed capability is refused, typed, at open.
#[test]
fn open_maintained_requires_the_mutation_feed_capability() {
    struct NoFeed(Arc<SimServer>);
    impl SearchInterface for NoFeed {
        fn schema(&self) -> &Arc<Schema> {
            self.0.schema()
        }
        fn k(&self) -> usize {
            self.0.k()
        }
        fn capabilities(&self) -> Capabilities {
            let mut caps = self.0.capabilities();
            caps.mutation_feed = false;
            caps
        }
        fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
            self.0.query(q)
        }
        fn queries_issued(&self) -> u64 {
            self.0.queries_issued()
        }
        fn cost_units_issued(&self) -> u64 {
            self.0.cost_units_issued()
        }
        fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
            self.0.query_page(q, page)
        }
        fn query_ordered(
            &self,
            q: &Query,
            attr: AttrId,
            dir: Direction,
            page: usize,
        ) -> Result<OrderedPage, ServerError> {
            self.0.query_ordered(q, attr, dir, page)
        }
        // Deliberately no mutation_seq/mutations_since overrides: the
        // trait defaults model a feed-less site.
    }
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC6));
    let inner = Arc::new(SimServer::new(
        dataset(&mut rng, 20, 2),
        SystemRank::pseudo_random(1),
        4,
    ));
    let svc = RerankService::new(Arc::new(NoFeed(inner)), 20);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let err = svc
        .session(Query::all(), rank)
        .open_maintained(4)
        .unwrap_err();
    assert_eq!(
        err,
        RerankError::UnsupportedCapability(Capability::MutationFeed)
    );
}

/// Custom strategies and non-exact tie policies are refused, typed.
#[test]
fn open_maintained_rejects_custom_strategies_and_inexact_ties() {
    use query_reranking::core::strategy::{
        CostEstimate, PlanContext, RerankStrategy, StrategyIo, StrategyStep,
    };
    use query_reranking::core::TiePolicy;
    struct Noop;
    impl RerankStrategy for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn estimate(&self, _ctx: &PlanContext) -> CostEstimate {
            CostEstimate {
                queries: 0,
                cost_units: 0,
            }
        }
        fn next_step(&mut self, _io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
            Ok(StrategyStep::Exhausted)
        }
    }
    let mut rng = StdRng::seed_from_u64(seeded(0xCDC7));
    let server = Arc::new(SimServer::new(
        dataset(&mut rng, 20, 2),
        SystemRank::pseudo_random(1),
        4,
    ));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, 20);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let err = svc
        .session(Query::all(), Arc::clone(&rank))
        .strategy(Box::new(Noop))
        .open_maintained(4)
        .unwrap_err();
    assert!(
        matches!(err, RerankError::InvalidAlgorithm { ref reason } if reason.contains("custom")),
        "wrong error: {err}"
    );
    let err = svc
        .session(Query::all(), rank)
        .tie_policy(TiePolicy::AssumeDistinct)
        .open_maintained(4)
        .unwrap_err();
    assert!(
        matches!(err, RerankError::InvalidAlgorithm { ref reason } if reason.contains("Exact")),
        "wrong error: {err}"
    );
}

/// Satellite coverage for the compaction boundary itself: `gap` must flip
/// exactly at the cap, not one delta early or late. A cap-0 feed (the
/// "mutations happen but nothing is retained" degenerate) reports a gap
/// for every stale watermark; a cap-`n` feed holding exactly `n` deltas
/// is still fully replayable from zero.
#[test]
fn compaction_cap_boundaries_set_gap_exactly() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCAB0));

    // Cap 0: every delta is discarded the moment it is logged. Any
    // watermark behind `current` is a gap, and the gap comes with zero
    // deltas — the caller has nothing to patch from.
    let server = SimServer::new(dataset(&mut rng, 12, 2), SystemRank::pseudo_random(7), 4)
        .with_mutation_log_cap(0);
    server.delete(TupleId(0)).expect("live id");
    let log = server.mutations_since(0).expect("feed");
    assert!(log.gap, "cap 0 must gap any stale watermark");
    assert!(log.deltas.is_empty(), "cap 0 retains nothing");
    // A caller already at the watermark has missed nothing: no gap.
    let log = server.mutations_since(server.mutation_seq()).expect("feed");
    assert!(!log.gap, "current watermark never gaps");
    assert!(log.deltas.is_empty());

    // Exactly at cap: n mutations against a cap of n — the whole history
    // is retained, so replay from zero is still exact (no gap).
    let cap = 3usize;
    let server = SimServer::new(dataset(&mut rng, 12, 2), SystemRank::pseudo_random(8), 4)
        .with_mutation_log_cap(cap);
    for id in 0..cap {
        server.delete(TupleId(id as u32)).expect("live id");
    }
    let log = server.mutations_since(0).expect("feed");
    assert!(!log.gap, "exactly-at-cap history is fully retained");
    assert_eq!(log.deltas.len(), cap);

    // One past the cap: the oldest delta is compacted away, so a zero
    // watermark gaps while a watermark of 1 (past the discarded delta)
    // does not.
    server.delete(TupleId(cap as u32)).expect("live id");
    let log = server.mutations_since(0).expect("feed");
    assert!(log.gap, "cap+1 mutations compact delta 1 away");
    assert_eq!(log.deltas.len(), cap, "retained window is still the cap");
    let log = server.mutations_since(1).expect("feed");
    assert!(!log.gap, "watermark 1 has seen the compacted delta");
    assert_eq!(log.deltas.len(), cap);
}

/// A gapped feed must force a full re-drive, never a patch: with a cap-0
/// log, every refresh that observes a mutation sees `gap = true`, applies
/// zero deltas, and rebuilds — and the rebuilt materialization matches
/// the full re-drive oracle byte for byte.
#[test]
fn cap_zero_feed_forces_rebuild_not_patch() {
    let mut rng = StdRng::seed_from_u64(seeded(0xCAB1));
    let n = 30usize;
    let server = Arc::new(
        SimServer::new(dataset(&mut rng, n, 2), SystemRank::pseudo_random(9), 4)
            .with_mutation_log_cap(0),
    );
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));
    let sel = Query::all();
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
    let mut maintained = svc
        .session(sel.clone(), Arc::clone(&rank))
        .open_maintained(5)
        .expect("open_maintained");
    let mut next_id = n as u32;
    for round in 0..3 {
        mutate_once(&mut rng, &server, &mut next_id, 2);
        let outcome = maintained.refresh().expect("refresh");
        assert!(
            outcome.redrove,
            "round {round}: a gapped feed cannot be patched"
        );
        assert_eq!(
            outcome.applied, 0,
            "round {round}: nothing to apply across a gap"
        );
        let (truth, _) = oracle(&server, &sel, &rank, 5);
        assert_eq!(
            fingerprint(&maintained.top()),
            truth,
            "round {round}: rebuild diverged from the oracle"
        );
    }
}
