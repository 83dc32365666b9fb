//! The "as a service" layer under concurrent use: multiple user sessions on
//! shared state must stay exact, budgets must bind, per-session attribution
//! must not bleed across sessions, and knowledge must accumulate.

use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SimServer, SystemRank};
use query_reranking::service::{Algorithm, ProfileStore, RerankService};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{AttrId, CatId, CatPredicate, Dataset, Query, RerankError};
use std::sync::Arc;

fn service(data: &Dataset, k: usize) -> RerankService {
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(77), k);
    RerankService::new(Arc::new(server), data.len())
}

#[test]
fn concurrent_sessions_stay_exact() {
    let data = uniform(400, 2, 1, 3001);
    let svc = Arc::new(service(&data, 5));
    let data = Arc::new(data);
    std::thread::scope(|scope| {
        for code in 0..4u32 {
            let svc = Arc::clone(&svc);
            let data = Arc::clone(&data);
            scope.spawn(move || {
                let sel = Query::all().and_cat(CatPredicate::eq(CatId(0), code));
                let rank =
                    LinearRank::asc(vec![(AttrId(0), 1.0 + f64::from(code)), (AttrId(1), 1.0)]);
                let want: Vec<f64> = {
                    let mut v: Vec<f64> = data
                        .tuples()
                        .iter()
                        .filter(|t| sel.matches(t))
                        .map(|t| rank.score(t))
                        .collect();
                    v.sort_by(|a, b| cmp_f64(*a, *b));
                    v.truncate(8);
                    v
                };
                let mut s = svc
                    .session(sel, Arc::new(rank))
                    .algorithm(Algorithm::Md(MdOptions::rerank()))
                    .open()
                    .unwrap();
                let (hits, err) = s.top(8);
                assert!(err.is_none(), "user {code}: {err:?}");
                let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
                assert_eq!(got, want, "user {code}");
            });
        }
    });
    assert_eq!(svc.stats().sessions_started, 4);
    assert!(svc.stats().tuples_emitted >= 16);
}

#[test]
fn per_session_attribution_sums_to_the_global_counter() {
    // Interleave two sessions' Get-Nexts on one service: each session's
    // queries_spent must count only its own cursor calls, and together they
    // must account for every query the service issued.
    let data = uniform(500, 2, 1, 3011);
    let svc = service(&data, 4);
    let rank_a: Arc<dyn RankFn> =
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.3)]));
    let rank_b: Arc<dyn RankFn> =
        Arc::new(LinearRank::asc(vec![(AttrId(0), 0.2), (AttrId(1), 1.0)]));
    let mut a = svc.session(Query::all(), rank_a).open().unwrap();
    let mut b = svc.session(Query::all(), rank_b).open().unwrap();
    for _ in 0..6 {
        a.next().unwrap();
        b.next().unwrap();
    }
    assert!(a.queries_spent() > 0);
    assert!(b.queries_spent() > 0);
    assert_eq!(
        a.queries_spent() + b.queries_spent(),
        svc.queries_issued(),
        "attribution must partition the global counter"
    );
}

#[test]
fn profiles_apply_across_services() {
    let store = ProfileStore::new();
    store.register(
        "balanced",
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])) as Arc<dyn RankFn>,
    );
    let rank = store.get("balanced").unwrap();
    for seed in [3003u64, 3005] {
        let data = uniform(200, 2, 1, seed);
        let svc = service(&data, 5);
        let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
        let (hits, err) = s.top(5);
        assert!(err.is_none());
        let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
        let mut want: Vec<f64> = data.tuples().iter().map(|t| rank.score(t)).collect();
        want.sort_by(|a, b| cmp_f64(*a, *b));
        want.truncate(5);
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn budget_error_is_recoverable_state() {
    let data = uniform(600, 2, 1, 3007);
    let server = SimServer::new(
        data.clone(),
        SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
        3,
    );
    let svc = RerankService::new(Arc::new(server), 600).with_budget(4);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let mut saw_budget_error = false;
    for _ in 0..50 {
        match s.next() {
            Err(RerankError::BudgetExhausted { limit, .. }) => {
                saw_budget_error = true;
                assert_eq!(limit, 4);
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(Some(_)) => {}
            Ok(None) => break,
        }
    }
    assert!(saw_budget_error);
    // The service object is still usable for inspection after the error.
    assert!(svc.queries_issued() >= 4);
    let (hist, _) = svc.knowledge();
    assert!(hist > 0);
}

#[test]
fn warm_service_answers_repeat_queries_free() {
    let data = uniform(300, 2, 1, 3009);
    let svc = service(&data, 5);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let mut s1 = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits1, err) = s1.top(5);
    assert!(err.is_none());
    let first: Vec<f64> = hits1.iter().map(|r| r.score).collect();
    drop(s1);
    let before = svc.queries_issued();
    let mut s2 = svc.session(Query::all(), rank).open().unwrap();
    let (hits2, err) = s2.top(5);
    assert!(err.is_none());
    let second: Vec<f64> = hits2.iter().map(|r| r.score).collect();
    assert_eq!(first, second);
    let spent = svc.queries_issued() - before;
    assert!(
        spent <= before / 2,
        "warm repeat cost {spent} not clearly amortized vs cold {before}"
    );
}
