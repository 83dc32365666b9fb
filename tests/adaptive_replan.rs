//! Properties of the closed-loop adaptive planner: a mid-flight strategy
//! switch must be *invisible* in the result stream (byte-identical to the
//! dense oracle — ids AND score bit patterns), *cheaper* than riding the
//! mispriced plan, and *exactly accounted* (the `Replanned` event's spend
//! snapshot plus the post-switch charges reconcile to the session ledger
//! to the last unit). A run whose advertised prices are honest must never
//! switch. Both switch properties run over three knowledge-plane inputs —
//! none, a cold plane, and a plane already holding an unsealed prefix of
//! the planned strategy's stream — because the swallowing of the
//! replacement's re-derived prefix is one mechanism whatever the plane
//! holds. Datasets derive from `QRS_TEST_SEED` and the service layer
//! honors `QRS_EXEC_THREADS`, so CI sweeps both.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::knowledge::{query_key, ResultKey};
use query_reranking::obs::{EventKind, ObsHandle, QueryClass, Recorder};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::{AdaptiveConfig, Algorithm, KnowledgePlane, RerankService};
use query_reranking::types::{AttrId, CostModel, Dataset, Query};
use std::sync::Arc;

const N: usize = 300;
const K: usize = 5;
/// Pull well past one page so the switch happens with rows still owed.
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
/// 1 per range probe, the exact inverse. No paging, so the only feasible
/// alternate is the md cursor.
fn drifted_server(data: Dataset, seed: u64) -> SimServer {
    SimServer::new(data, SystemRank::pseudo_random(seed ^ 0x33), K)
        .with_capabilities(
            Capabilities::none()
                .with_order_by(vec![AttrId(0), AttrId(1)])
                .with_cost_model(CostModel::flat().with_ordered_cost(60)),
        )
        .with_advertised_cost(CostModel::flat().with_range_cost(50))
}

/// What the knowledge plane holds when the adaptive session opens.
#[derive(Debug, Clone, Copy)]
enum PlaneInput {
    /// No plane attached.
    Absent,
    /// A plane that has seen nothing.
    Cold,
    /// A plane on which an earlier (static) session drove the planned
    /// `ta-order-by` strategy for [`PREFIX`] rows and stopped: an unsealed
    /// prefix the adaptive session replays before it ever pays.
    Prefix,
}

const PLANE_INPUTS: [PlaneInput; 3] = [PlaneInput::Absent, PlaneInput::Cold, PlaneInput::Prefix];
const SOURCE: &str = "drifted";
const PREFIX: usize = 3;

/// An adaptive service over its own drifted twin server, hooked to the
/// plane `input` asks for.
fn adaptive_service(
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
    let mut svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
        .with_adaptive(AdaptiveConfig::enabled())
        .with_observer(obs);
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
        tie: 0,
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

/// The headline property: on the drifted site, an adaptive `Auto` session
/// (1) plans `ta-order-by` off the advertised lie, (2) trips the
/// divergence ratio once billing reveals the real prices, (3) switches to
/// the md cursor mid-flight, and the user-visible stream is byte-identical
/// to the dense oracle — while a static twin riding the mispriced plan to
/// the same horizon pays strictly more.
#[test]
fn divergence_switch_is_byte_identical_to_oracle_and_strictly_cheaper() {
    let seed = seeded(0xADA1) | 1;
    let data = uniform(N, 2, 1, seed);
    let want = oracle(&data, &Query::all(), &rank2(), HORIZON);

    // Static twin: same lying site, adaptive off — rides ta-order-by.
    let static_server = Arc::new(drifted_server(data.clone(), seed));
    let static_svc = RerankService::new(Arc::clone(&static_server) as Arc<dyn SearchInterface>, N);
    let mut s = static_svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let static_plan = static_svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .plan()
        .unwrap();
    assert!(
        matches!(static_plan.algorithm, Algorithm::Ta(_)),
        "the advertised lie must bait the static planner onto TA, got {:?}",
        static_plan.algorithm
    );
    let static_stream: Vec<(u32, u64)> = s
        .try_top(HORIZON)
        .unwrap()
        .iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect();
    assert_eq!(static_stream, want, "static twin must still be exact");
    assert_eq!(s.strategy_switches(), 0);
    let static_cost = s.cost_units_spent();
    drop(s);

    for input in PLANE_INPUTS {
        // Adaptive session on an identical twin server.
        let (svc, server, plane) =
            adaptive_service(input, &data, seed, ObsHandle::for_site("drifted"));
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        // Pull to exhaustion (the seal point), checking the headline
        // claims at the horizon on the way.
        let mut got = Vec::new();
        let mut switched_at = None;
        let mut adaptive_cost = 0;
        loop {
            let switches = s.strategy_switches();
            let Some(hit) = s.next().unwrap() else { break };
            if s.strategy_switches() > switches {
                switched_at = Some(got.len());
            }
            got.push((hit.tuple.id.0, hit.score.to_bits()));
            if got.len() == HORIZON {
                assert_eq!(
                    got, want,
                    "{input:?}: switched stream diverged from the dense oracle"
                );
                assert_eq!(s.strategy_switches(), 1, "exactly one mid-flight switch");
                assert_eq!(
                    s.strategy_name(),
                    "md-rerank",
                    "the only feasible alternate is the md cursor"
                );
                adaptive_cost = s.cost_units_spent();
                assert_eq!(s.cost_units_spent(), server.cost_units_issued());
            }
        }
        assert_eq!(
            got,
            oracle(&data, &Query::all(), &rank2(), N),
            "{input:?}: drained stream diverged from the dense oracle"
        );
        assert_eq!(s.cost_units_spent(), server.cost_units_issued());
        let stats = s.stats();
        assert_eq!(stats.strategy_switches, 1);
        drop(s);

        assert!(
            adaptive_cost < static_cost,
            "{input:?}: switching must beat riding the mispriced plan: \
             {adaptive_cost} vs {static_cost}"
        );

        // The abandoned strategy's stream stops growing at the switch and
        // is never sealed — its ledger would be a blend of two strategies —
        // and the replacement's stream is not recorded at all.
        if let Some(plane) = &plane {
            let shard = plane
                .get(SOURCE)
                .expect("the service registered its source");
            let abandoned = shard
                .lookup_result(&stream_key("ta-order-by"))
                .expect("ta-order-by recorded its pre-switch emissions");
            assert!(!abandoned.exhausted, "{input:?}: abandoned key sealed");
            assert_eq!(Some(abandoned.items.len()), switched_at, "{input:?}");
            assert!(shard.lookup_result(&stream_key("md-rerank")).is_none());
        }

        // The switch surfaced everywhere it should: the service ledger and
        // the fleet monitor's per-strategy rows.
        assert_eq!(svc.stats().strategy_switches, 1);
        let report = svc.monitor_report();
        assert_eq!(report.switches_total(), 1);
        let origin = report
            .rows
            .iter()
            .find(|r| r.strategy == "ta-order-by")
            .expect("origin strategy row");
        assert_eq!(origin.switches, 1, "switch counted on the origin row");
        assert!(
            report.rows.iter().any(|r| r.strategy == "md-rerank"),
            "destination row created for post-switch charges"
        );
    }
}

/// Ledger conservation across the switch: the `Replanned` event snapshots
/// the spend at the moment of switching, and that snapshot plus the
/// post-switch `RequestCharged` deltas must equal the session's final
/// ledger exactly — no charge is lost or double-counted by the handover.
/// With a plane attached the saved column must conserve the same way: the
/// `KnowledgeHit` deltas sum to the session's saved ledger.
#[test]
fn replanned_event_conserves_the_ledger_across_the_switch() {
    let seed = seeded(0xADA2) | 1;
    let data = uniform(N, 2, 1, seed);
    for input in PLANE_INPUTS {
        let recorder = Arc::new(Recorder::with_capacity(4096));
        let obs = ObsHandle::builder("drifted")
            .subscriber(Arc::clone(&recorder) as _)
            .build();
        let (svc, _server, _plane) = adaptive_service(input, &data, seed, obs);
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        let hits = s.try_top(HORIZON).unwrap();
        assert_eq!(hits.len(), HORIZON);
        assert_eq!(s.strategy_switches(), 1);
        let final_q = s.queries_spent();
        let final_c = s.cost_units_spent();
        let final_saved = (s.queries_saved(), s.cost_units_saved());
        drop(s);

        // Replay the recorder in emission order: charges before the
        // Replanned event must sum to its snapshot; charges after must make
        // up the rest.
        let mut pre = (0u64, 0u64);
        let mut post = (0u64, 0u64);
        let mut saved = (0u64, 0u64);
        let mut switch: Option<(u64, u64, u64)> = None;
        for e in recorder.events() {
            match &e.kind {
                EventKind::RequestCharged {
                    class,
                    queries,
                    cost_units,
                } => {
                    // Charges are filed under the class the strategy
                    // running at that moment issues: `ORDER BY` pages
                    // until the switch, the md cursor's top-k probes after.
                    let (side, want) = if switch.is_none() {
                        (&mut pre, QueryClass::Ordered)
                    } else {
                        (&mut post, QueryClass::TopK)
                    };
                    assert_eq!(*class, want, "{input:?}: charge filed under {class:?}");
                    side.0 += queries;
                    side.1 += cost_units;
                }
                EventKind::KnowledgeHit {
                    queries,
                    cost_units,
                } => {
                    saved.0 += queries;
                    saved.1 += cost_units;
                }
                EventKind::KnowledgeSeal { .. } => {
                    panic!("{input:?}: a switched session must never seal a result stream")
                }
                EventKind::Replanned {
                    from_strategy,
                    to_strategy,
                    at_emitted,
                    queries_spent,
                    cost_units_spent,
                } => {
                    assert!(switch.is_none(), "at most one switch per session");
                    assert_eq!(from_strategy, "ta-order-by");
                    assert_eq!(to_strategy, "md-rerank");
                    assert!(*at_emitted > 0, "min_spend implies rows were emitted");
                    switch = Some((*at_emitted, *queries_spent, *cost_units_spent));
                }
                _ => {}
            }
        }
        let (_, snap_q, snap_c) = switch.expect("the drifted site must trip a switch");
        assert_eq!(snap_q, pre.0, "snapshot != charges before the switch");
        assert_eq!(snap_c, pre.1);
        assert_eq!(snap_q + post.0, final_q, "pre + post != final raw ledger");
        assert_eq!(snap_c + post.1, final_c, "pre + post != final cost ledger");
        assert!(
            post.1 > 0,
            "the replacement strategy must have paid something"
        );
        assert_eq!(saved, final_saved, "{input:?}: hits != final saved ledger");
        if matches!(input, PlaneInput::Prefix) {
            assert!(saved.0 > 0, "the seeded prefix's probes must replay free");
        }
    }
}

/// An honest site never trips the trigger: with the advertised model equal
/// to the billing model, a calibration-warmed adaptive session runs to the
/// same horizon with zero switches and a stream byte-identical to the
/// static configuration.
#[test]
fn honest_prices_never_switch() {
    let seed = seeded(0xADA3) | 1;
    let data = uniform(N, 2, 1, seed);
    let honest = |data: Dataset| {
        SimServer::new(data, SystemRank::pseudo_random(seed ^ 0x33), K).with_capabilities(
            Capabilities::none()
                .with_order_by(vec![AttrId(0), AttrId(1)])
                .with_cost_model(CostModel::flat().with_ordered_cost(2).with_range_cost(2)),
        )
    };

    let static_server = Arc::new(honest(data.clone()));
    let static_svc = RerankService::new(Arc::clone(&static_server) as Arc<dyn SearchInterface>, N);
    let mut s = static_svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let want: Vec<(u32, u64)> = s
        .try_top(HORIZON)
        .unwrap()
        .iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect();
    drop(s);

    let server = Arc::new(honest(data));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
        .with_adaptive(AdaptiveConfig::enabled());
    // Warm the calibration store: static heuristics may honestly over- or
    // under-shoot a cold estimate, but one observed session teaches the
    // store the real ratio, after which predictions track billing.
    let mut warm = svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let _ = warm.try_top(HORIZON).unwrap();
    drop(warm);

    let mut s = svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let got: Vec<(u32, u64)> = s
        .try_top(HORIZON)
        .unwrap()
        .iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect();
    assert_eq!(s.strategy_switches(), 0, "honest prices must never switch");
    assert_eq!(got, want, "adaptive run diverged from the static stream");
    drop(s);
    assert_eq!(svc.stats().strategy_switches, 0);

    // The store did learn — snapshots expose the trained families.
    assert!(
        !svc.calibration().snapshot().is_empty(),
        "warm-up must train at least one strategy family"
    );
}

/// The off switches hold: `disabled()` (the default) and
/// `without_replan()` both pin the session to its planned strategy on the
/// drifted site — calibration may still learn, but nothing switches.
#[test]
fn replanning_can_be_opted_out() {
    let seed = seeded(0xADA4) | 1;
    let data = uniform(N, 2, 1, seed);
    for cfg in [
        AdaptiveConfig::disabled(),
        AdaptiveConfig::enabled().without_replan(),
    ] {
        let server = Arc::new(drifted_server(data.clone(), seed));
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
            .with_adaptive(cfg);
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        let hits = s.try_top(HORIZON).unwrap();
        assert_eq!(hits.len(), HORIZON);
        assert_eq!(s.strategy_switches(), 0);
        assert_eq!(s.strategy_name(), "ta-order-by");
        drop(s);
        assert_eq!(svc.stats().strategy_switches, 0);
    }
}
