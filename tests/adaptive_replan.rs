//! The static planner on a mispriced site: a session runs the strategy it
//! opened with until it ends, whatever the bill says. The drifted site
//! below advertises stale prices that bait the planner onto `ta-order-by`
//! and then bills the inverse. The stream must still be byte-identical to
//! the dense oracle (ids AND score bit patterns), every charge must be
//! filed under the strategy that was planned, and the ledgers must
//! reconcile to the unit with the site and the event stream. The exactness
//! and conservation properties run over three knowledge-plane inputs —
//! none, a cold plane, and a plane already holding an unsealed prefix of
//! the planned strategy's stream (replayed, then re-derived at cold cost:
//! the plane replays streams, not requests). Datasets derive from
//! `QRS_TEST_SEED`, so CI sweeps both seeds.

use query_reranking::core::md::ta::SortedAccess;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::knowledge::{query_key, ResultKey};
use query_reranking::obs::{EventKind, ObsHandle, QueryClass, Recorder};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::{Algorithm, KnowledgePlane, RerankService};
use query_reranking::types::{AttrId, CostModel, Dataset, Query};
use std::sync::Arc;

const N: usize = 300;
const K: usize = 5;
/// Pull well past one page, so the stale prices have rows to mislead on.
const HORIZON: usize = 40;

fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn rank2() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7)]))
}

/// A site whose public price list went stale: ranges are advertised as
/// ruinous (50 units) and `ORDER BY` as free, so the static planner picks
/// `ta-order-by` — but the *billing* model charges 60 per ordered page and
/// 1 per range probe, the exact inverse. No paging, so the only other
/// feasible candidate is the md cursor.
fn drifted_server(data: Dataset, seed: u64) -> SimServer {
    SimServer::new(data, SystemRank::pseudo_random(seed ^ 0x33), K)
        .with_capabilities(
            Capabilities::none()
                .with_order_by(vec![AttrId(0), AttrId(1)])
                .with_cost_model(CostModel::flat().with_ordered_cost(60)),
        )
        .with_advertised_cost(CostModel::flat().with_range_cost(50))
}

/// What the knowledge plane holds when the session under test opens.
#[derive(Debug, Clone, Copy)]
enum PlaneInput {
    /// No plane attached.
    Absent,
    /// A plane that has seen nothing.
    Cold,
    /// A plane on which an earlier session drove the planned
    /// `ta-order-by` strategy for [`PREFIX`] rows and stopped: an unsealed
    /// prefix the session replays before its strategy starts over.
    Prefix,
}

const PLANE_INPUTS: [PlaneInput; 3] = [PlaneInput::Absent, PlaneInput::Cold, PlaneInput::Prefix];
const SOURCE: &str = "drifted";
const PREFIX: usize = 3;

/// A service over its own drifted twin server, hooked to the plane
/// `input` asks for.
fn drifted_service(
    input: PlaneInput,
    data: &Dataset,
    seed: u64,
    obs: ObsHandle,
) -> (RerankService, Arc<SimServer>, Option<Arc<KnowledgePlane>>) {
    let plane = match input {
        PlaneInput::Absent => None,
        PlaneInput::Cold | PlaneInput::Prefix => Some(Arc::new(KnowledgePlane::new())),
    };
    if let (PlaneInput::Prefix, Some(plane)) = (input, &plane) {
        let twin = Arc::new(drifted_server(data.clone(), seed));
        let svc = RerankService::new(twin as Arc<dyn SearchInterface>, N)
            .with_knowledge(Arc::clone(plane), SOURCE);
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        assert_eq!(s.strategy_name(), "ta-order-by");
        assert_eq!(s.try_top(PREFIX).unwrap().len(), PREFIX);
    }
    let server = Arc::new(drifted_server(data.clone(), seed));
    let mut svc =
        RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N).with_observer(obs);
    if let Some(plane) = &plane {
        svc = svc.with_knowledge(Arc::clone(plane), SOURCE);
    }
    (svc, server, plane)
}

/// The result-cache key of the test request's stream under `strategy`.
fn stream_key(strategy: &str) -> ResultKey {
    ResultKey {
        sel: query_key(&Query::all()),
        rank: rank2().fingerprint(),
        strategy: strategy.to_string(),
    }
}

/// Dense oracle: the top-`h` (id, score-bits) stream for `sel` under `rank`.
fn oracle(data: &Dataset, sel: &Query, rank: &Arc<dyn RankFn>, h: usize) -> Vec<(u32, u64)> {
    let scorer = Arc::clone(rank);
    data.rank_by(sel, move |t| scorer.score(t))
        .iter()
        .take(h)
        .map(|t| (t.id.0, rank.score(t).to_bits()))
        .collect()
}

/// The headline property: on the drifted site, an `Auto` session plans
/// `ta-order-by` off the advertised lie, rides it to exhaustion, and
/// streams the dense oracle's rows byte for byte under every plane input.
/// With a plane the stream it ran is recorded and sealed complete. A plane
/// holding a paid-for unsealed prefix saves nothing: the session replays
/// the prefix, then its strategy re-derives it on a fresh service and pays
/// exactly the cold run's bill.
#[test]
fn divergence_switch_is_byte_identical_to_oracle_and_priced_like_cold() {
    let seed = seeded(0xADA1) | 1;
    let data = uniform(N, 2, 1, seed);
    let want = oracle(&data, &Query::all(), &rank2(), N);
    let mut bills = Vec::new();
    for input in PLANE_INPUTS {
        let (svc, server, plane) = drifted_service(input, &data, seed, ObsHandle::for_site(SOURCE));
        let plan = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .plan()
            .unwrap();
        assert!(
            matches!(plan.algorithm, Algorithm::Ta(_)),
            "{input:?}: the advertised lie must bait the planner onto TA, got {:?}",
            plan.algorithm
        );
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        let mut got = Vec::new();
        while let Some(hit) = s.next().unwrap() {
            got.push((hit.tuple.id.0, hit.score.to_bits()));
        }
        assert_eq!(
            got, want,
            "{input:?}: stream diverged from the dense oracle"
        );
        assert_eq!(s.strategy_name(), "ta-order-by");
        assert_eq!(s.cost_units_spent(), server.cost_units_issued());
        bills.push((
            s.cost_units_spent(),
            s.cost_units_saved(),
            s.queries_spent(),
            s.queries_saved(),
        ));
        drop(s);

        // The planned strategy's stream is the one recorded, and it is
        // sealed complete: nothing else was ever driven.
        if let Some(plane) = &plane {
            let shard = plane
                .get(SOURCE)
                .expect("the service registered its source");
            let sealed = shard
                .lookup_result(&stream_key("ta-order-by"))
                .expect("ta-order-by recorded its emissions");
            assert!(sealed.exhausted, "{input:?}: drained stream not sealed");
            assert_eq!(sealed.items.len(), N, "{input:?}");
            assert!(shard.lookup_result(&stream_key("md-rerank")).is_none());
        }
        let report = svc.monitor_report();
        assert_eq!(report.rows.len(), 1, "{input:?}: one strategy row");
        assert_eq!(report.rows[0].strategy, "ta-order-by");
    }
    let (_, cold_saved, _, cold_saved_q) = bills[0];
    assert_eq!((cold_saved, cold_saved_q), (0, 0));
    assert_eq!(bills[1], bills[0], "a cold plane changes nothing");
    assert_eq!(
        bills[2], bills[0],
        "an unsealed prefix replays, then the strategy pays the cold bill"
    );
}

/// Ledger conservation: every `RequestCharged` event is filed under the
/// class of the strategy the session opened with (`ORDER BY` pages), and
/// the charges sum to the session's final ledger exactly — no charge is
/// lost or double-counted. With a plane attached the saved column
/// conserves the same way: the `KnowledgeHit` deltas sum to the session's
/// saved ledger, which is zero here — no input replays a sealed stream.
#[test]
fn replanned_event_conserves_the_ledger_across_the_switch() {
    let seed = seeded(0xADA2) | 1;
    let data = uniform(N, 2, 1, seed);
    let want = oracle(&data, &Query::all(), &rank2(), HORIZON);
    for input in PLANE_INPUTS {
        let recorder = Arc::new(Recorder::with_capacity(4096));
        let obs = ObsHandle::builder(SOURCE)
            .subscriber(Arc::clone(&recorder) as _)
            .build();
        let (svc, _server, _plane) = drifted_service(input, &data, seed, obs);
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        let hits: Vec<(u32, u64)> = s
            .try_top(HORIZON)
            .unwrap()
            .iter()
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect();
        assert_eq!(hits, want, "{input:?}");
        let final_spent = (s.queries_spent(), s.cost_units_spent());
        let final_saved = (s.queries_saved(), s.cost_units_saved());
        drop(s);

        let mut charged = (0u64, 0u64);
        let mut saved = (0u64, 0u64);
        let mut plans = Vec::new();
        for e in recorder.events() {
            match &e.kind {
                EventKind::SessionOpen { strategy, .. } => plans.push(strategy.clone()),
                EventKind::RequestCharged {
                    class,
                    queries,
                    cost_units,
                } => {
                    assert_eq!(
                        *class,
                        QueryClass::Ordered,
                        "{input:?}: charge filed under {class:?}"
                    );
                    charged.0 += queries;
                    charged.1 += cost_units;
                }
                EventKind::KnowledgeHit {
                    queries,
                    cost_units,
                } => {
                    saved.0 += queries;
                    saved.1 += cost_units;
                }
                _ => {}
            }
        }
        assert_eq!(plans, ["ta-order-by"], "{input:?}: one plan per session");
        assert_eq!(charged, final_spent, "{input:?}: charges != final ledger");
        assert!(charged.1 > 0, "{input:?}: the session must have paid");
        assert_eq!(saved, final_saved, "{input:?}: hits != final saved ledger");
        assert_eq!(saved, (0, 0), "{input:?}: only a sealed stream saves");
    }
}

/// On an honest site (the advertised model is the billing model) an
/// `Auto` session is exactly the explicit session of the algorithm it
/// planned: the same strategy, the same byte-identical oracle stream and
/// the same ledger, to the unit.
#[test]
fn honest_prices_never_switch() {
    let seed = seeded(0xADA3) | 1;
    let data = uniform(N, 2, 1, seed);
    let want = oracle(&data, &Query::all(), &rank2(), HORIZON);
    let honest = |data: Dataset| {
        SimServer::new(data, SystemRank::pseudo_random(seed ^ 0x33), K).with_capabilities(
            Capabilities::none()
                .with_order_by(vec![AttrId(0), AttrId(1)])
                .with_cost_model(CostModel::flat().with_ordered_cost(2).with_range_cost(2)),
        )
    };
    let run = |algo: Option<Algorithm>| {
        let server = Arc::new(honest(data.clone()));
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
        let mut b = svc.session(Query::all(), rank2()).horizon(HORIZON);
        if let Some(algo) = algo {
            b = b.algorithm(algo);
        }
        let plan = b.plan().unwrap();
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .algorithm(algo.unwrap_or(Algorithm::Auto))
            .open()
            .unwrap();
        let got: Vec<(u32, u64)> = s
            .try_top(HORIZON)
            .unwrap()
            .iter()
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect();
        assert_eq!(s.strategy_name(), plan.candidates[0].name);
        assert_eq!(s.cost_units_spent(), server.cost_units_issued());
        (plan.algorithm, got, s.stats())
    };
    let (planned, auto_stream, auto_stats) = run(None);
    assert_eq!(auto_stream, want, "the planned stream must be exact");
    let (explicit, explicit_stream, explicit_stats) = run(Some(planned));
    assert_eq!(explicit, planned);
    assert_eq!(explicit_stream, auto_stream);
    assert_eq!(explicit_stats, auto_stats, "Auto must bill like its plan");
}

/// A drifted site cannot move a session off its plan: the `Auto` session
/// drives `ta-order-by` at every pull to the horizon and bills exactly
/// what an explicit `Ta(PublicOrderBy)` session bills on a twin site —
/// more than the advertised prices predicted, which the fleet monitor's
/// row shows as actual cost units above predicted ones.
#[test]
fn replanning_can_be_opted_out() {
    let seed = seeded(0xADA4) | 1;
    let data = uniform(N, 2, 1, seed);
    let want = oracle(&data, &Query::all(), &rank2(), HORIZON);
    let run = |algo: Algorithm| {
        let server = Arc::new(drifted_server(data.clone(), seed));
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
            .with_observer(ObsHandle::for_site(SOURCE));
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .algorithm(algo)
            .open()
            .unwrap();
        let mut got = Vec::new();
        while got.len() < HORIZON {
            let hit = s
                .next()
                .unwrap()
                .expect("the relation outlasts the horizon");
            assert_eq!(s.strategy_name(), "ta-order-by", "{algo:?} left its plan");
            got.push((hit.tuple.id.0, hit.score.to_bits()));
        }
        let stats = s.stats();
        drop(s);
        (got, stats, svc.monitor_report())
    };
    let (auto_stream, auto_stats, report) = run(Algorithm::Auto);
    assert_eq!(auto_stream, want);
    let (ta_stream, ta_stats, _) = run(Algorithm::Ta(SortedAccess::PublicOrderBy));
    assert_eq!(ta_stream, auto_stream);
    assert_eq!(ta_stats, auto_stats, "Auto must bill like its plan");
    let row = report.row(SOURCE, "ta-order-by").expect("the planned row");
    assert_eq!(row.actual_cost_units, auto_stats.cost_units_spent);
    assert!(row.predicted_cost_units > 0, "a priced plan");
    let ratio = row.actual_cost_units as f64 / row.predicted_cost_units as f64;
    assert!(ratio > 1.0, "the stale price list under-predicts: {ratio}");
}
