//! Refactor-safety properties for the strategy-object execution layer.
//!
//! PR 5 replaced the session's hard-wired `match` over the `Algorithm`
//! enum with a driven `Box<dyn RerankStrategy>`. These properties prove
//! the refactor is *behavior-preserving*: for all four algorithm families,
//! a session driving the strategy object produces a **byte-identical
//! stream** (same tuples, same order) at a **byte-identical ledger** (same
//! raw query count and weighted cost units after every emission) as the
//! pre-refactor dispatch — reproduced here by hand-driving the underlying
//! cursors exactly the way `Session::step` used to inline them.
//!
//! Beside each session the same object is built by hand, and what it says
//! about itself — name, estimate, request class, positional — is pinned
//! against what `SessionBuilder::plan` reports and against the values the
//! service used to keep in `Algorithm`-keyed tables.
//!
//! Datasets and rankings derive from `QRS_TEST_SEED`, so CI replays the
//! equivalence under multiple seeds.

use query_reranking::core::baselines::PageDownCursor;
use query_reranking::core::md::ta::{SortedAccess, TaCursor};
use query_reranking::core::strategy::{
    MdCursorStrategy, OneDCursorStrategy, PageDownStrategy, PlanContext, RerankStrategy,
    TaCursorStrategy,
};
use query_reranking::core::{
    MdCursor, MdOptions, OneDCursor, OneDSpec, OneDStrategy, RerankParams, SharedState, TiePolicy,
};
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::{Algorithm, RerankService};
use query_reranking::types::{AttrId, CostModel, Query, RequestKind, Tuple};
use std::sync::Arc;

fn seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF)
}

fn rank1() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]))
}

fn rank2() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 2.0)]))
}

/// A non-flat model so ledger equality is checked in *weighted* units too,
/// not just raw counts.
fn metered() -> CostModel {
    CostModel::flat()
        .with_range_cost(1)
        .with_paged_cost(2)
        .with_ordered_cost(3)
}

struct Pair {
    /// Server the legacy (hand-driven cursor) side talks to.
    legacy: SimServer,
    /// Identical twin the strategy-object session talks to.
    session: SimServer,
}

fn twin_servers(n: usize, k: usize, s: u64, configure: impl Fn(SimServer) -> SimServer) -> Pair {
    let data = uniform(n, 2, 1, s);
    let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    Pair {
        legacy: configure(SimServer::new(data.clone(), sys.clone(), k)),
        session: configure(SimServer::new(data, sys, k)),
    }
}

/// Drive the session side and the legacy closure in lock-step, asserting
/// stream and ledger equality after every pull. `object` is the strategy
/// the session runs, built by hand: the plan beside the session must carry
/// its name and estimate, and it must describe itself as `want`.
#[allow(clippy::too_many_arguments)]
fn assert_equivalent(
    pair: Pair,
    n: usize,
    rank: Arc<dyn RankFn>,
    algo: Algorithm,
    object: &dyn RerankStrategy,
    want: (RequestKind, bool),
    mut legacy_next: impl FnMut(&SimServer, &mut SharedState) -> Option<Arc<Tuple>>,
    pulls: usize,
) {
    let legacy_server = pair.legacy;
    let mut st = SharedState::new(
        legacy_server.schema(),
        RerankParams::paper_defaults(n, legacy_server.k()),
    );
    let session_server = Arc::new(pair.session);
    let svc = RerankService::new(Arc::clone(&session_server) as Arc<dyn SearchInterface>, n);
    let plan = svc
        .session(Query::all(), Arc::clone(&rank))
        .algorithm(algo)
        .plan()
        .unwrap();
    let mut sess = svc
        .session(Query::all(), Arc::clone(&rank))
        .algorithm(algo)
        .open()
        .unwrap();
    // One page of answers on the site as advertised: what an explicit
    // choice without a horizon hint is priced in.
    let ctx = PlanContext {
        caps: session_server.capabilities(),
        schema: Arc::clone(session_server.schema()),
        k: session_server.k(),
        n_estimate: n,
        horizon: session_server.k(),
        server_query: Query::all(),
        rank_attrs: rank.attrs().to_vec(),
    };
    assert_eq!(sess.strategy_name(), object.name());
    assert_eq!(plan.candidates[0].name, object.name());
    assert_eq!(plan.algorithm, algo);
    assert_eq!(plan.estimate, object.estimate(&ctx));
    assert_eq!(
        (object.request_kind(), object.positional()),
        (Some(want.0), want.1),
        "{} describes itself differently",
        object.name()
    );
    for i in 0..pulls {
        let want = legacy_next(&legacy_server, &mut st).map(|t| t.id);
        let got = sess.next().unwrap().map(|r| r.tuple.id);
        assert_eq!(want, got, "stream diverged at pull {i}");
        assert_eq!(
            legacy_server.queries_issued(),
            session_server.queries_issued(),
            "raw ledger diverged at pull {i}"
        );
        assert_eq!(
            legacy_server.cost_units_issued(),
            session_server.cost_units_issued(),
            "weighted ledger diverged at pull {i}"
        );
        if want.is_none() {
            break;
        }
    }
    // The session's own attribution reconciles against the backend.
    assert_eq!(sess.queries_spent(), session_server.queries_issued());
    assert_eq!(sess.cost_units_spent(), session_server.cost_units_issued());
}

#[test]
fn one_d_strategy_is_byte_identical_to_the_cursor() {
    for (n, k) in [(60, 3), (150, 5)] {
        let pair = twin_servers(n, k, seed() ^ n as u64, |s| {
            s.with_capabilities(Capabilities::none().with_cost_model(metered()))
        });
        let rank = rank1();
        let spec = OneDSpec::new(rank.attrs()[0], rank.directions()[0], Query::all());
        let mut cursor = OneDCursor::new(spec.clone(), OneDStrategy::Rerank);
        assert_equivalent(
            pair,
            n,
            Arc::clone(&rank),
            Algorithm::OneD(OneDStrategy::Rerank),
            &OneDCursorStrategy::new(spec, OneDStrategy::Rerank, TiePolicy::Exact),
            (RequestKind::TopK, false),
            move |server, st| cursor.next(server, st).unwrap(),
            n + 1,
        );
    }
}

#[test]
fn md_strategy_is_byte_identical_to_the_cursor() {
    for (n, k) in [(60, 3), (150, 5)] {
        let pair = twin_servers(n, k, seed() ^ (n as u64) << 1, |s| {
            s.with_capabilities(Capabilities::none().with_cost_model(metered()))
        });
        let rank = rank2();
        let mut cursor = MdCursor::new(
            Arc::clone(&rank),
            Query::all(),
            MdOptions::rerank(),
            pair.legacy.schema(),
        );
        let object = MdCursorStrategy::new(
            Arc::clone(&rank),
            Query::all(),
            MdOptions::rerank(),
            pair.legacy.schema(),
        );
        assert_equivalent(
            pair,
            n,
            Arc::clone(&rank),
            Algorithm::Md(MdOptions::rerank()),
            &object,
            (RequestKind::TopK, false),
            move |server, st| cursor.next(server, st).unwrap(),
            20,
        );
    }
}

#[test]
fn ta_strategy_is_byte_identical_to_the_cursor() {
    // Public `ORDER BY` sorted access pages ordered views; 1D-RERANK sorted
    // access probes the top-k interface. Both consume streams by depth.
    let accesses = [
        (SortedAccess::PublicOrderBy, RequestKind::Ordered),
        (SortedAccess::OneD, RequestKind::TopK),
    ];
    for (access, kind) in accesses {
        for (n, k) in [(60, 3), (150, 5)] {
            let pair = twin_servers(n, k, seed() ^ (n as u64) << 2, |s| {
                s.with_capabilities(
                    Capabilities::none()
                        .with_order_by(vec![AttrId(0), AttrId(1)])
                        .with_cost_model(metered()),
                )
            });
            let rank = rank2();
            let (schema, caps) = (pair.legacy.schema(), pair.legacy.capabilities());
            let mut cursor = TaCursor::new(Arc::clone(&rank), Query::all(), access, schema, &caps);
            let object =
                TaCursorStrategy::new(Arc::clone(&rank), Query::all(), access, schema, &caps);
            assert_equivalent(
                pair,
                n,
                Arc::clone(&rank),
                Algorithm::Ta(access),
                &object,
                (kind, true),
                move |server, st| cursor.next(server, st).unwrap(),
                20,
            );
        }
    }
}

#[test]
fn page_down_strategy_is_byte_identical_to_the_cursor() {
    for (n, k) in [(60, 3), (150, 5)] {
        let pair = twin_servers(n, k, seed() ^ (n as u64) << 3, |s| {
            s.with_capabilities(
                Capabilities::none()
                    .with_paging()
                    .with_cost_model(metered()),
            )
        });
        let rank = rank2();
        // The pre-refactor dispatch drove the page-down cursor one page
        // per step (budget gates between pages) and emitted only once
        // drained — reproduced exactly.
        let mut cursor = PageDownCursor::new(Query::all(), Arc::clone(&rank), usize::MAX);
        assert_equivalent(
            pair,
            n,
            Arc::clone(&rank),
            Algorithm::PageDown {
                max_pages: usize::MAX,
            },
            &PageDownStrategy::new(Query::all(), Arc::clone(&rank), usize::MAX),
            (RequestKind::Page, true),
            move |server, st| {
                while !cursor.drained() {
                    cursor.fetch_next_page(server, st).unwrap();
                }
                cursor.emit_next()
            },
            n + 1,
        );
    }
}
