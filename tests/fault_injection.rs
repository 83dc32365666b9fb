//! End-to-end fault injection against the full service stack: scripted
//! rate-limit storms, mid-page outages, truncated pages, permanent source
//! death — driven on a mock clock, so no test ever sleeps wall-clock time.
//!
//! The invariants under test:
//! * retries **resume** cursors, they never restart them: the faulty run's
//!   backend query count equals the fault-free run's (plus exactly the
//!   queries lost to truncated pages, which the backend charged),
//! * partial results are preserved alongside typed errors,
//! * `retry_after_ms` is honored through the backoff sleep — proven by a
//!   server that *enforces* the window against the shared mock clock,
//! * a federated merge surfaces a dead source's typed error instead of a
//!   silently partial ranking,
//! * fault schedules are seed-deterministic and replayable; the scripted
//!   seeds honor `QRS_TEST_SEED` so CI proves determinism across seeds.

use query_reranking::core::OneDStrategy;
use query_reranking::datagen::synthetic::{discrete_grid, uniform};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Clock, Fault, FaultyServer, MockClock, SearchInterface, SimServer, SystemRank,
};
use query_reranking::service::{Algorithm, FederatedSession, RerankService};
use query_reranking::types::{AttrId, Dataset, Query, RerankError, RetryPolicy};
use std::sync::Arc;

/// Base seed for fault schedules; override with `QRS_TEST_SEED` to prove
/// schedules are a pure function of the seed (CI runs two values).
fn test_seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA01)
}

fn rank2() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]))
}

/// A single-attribute rank drives the 1D cursor, whose resume path re-issues
/// *nothing*: interrupted runs cost exactly the clean run's queries, so the
/// exact-count assertions below hold with equality. (The MD cursor also
/// resumes without restarting, but re-entering a step may legitimately
/// *re-plan* against the richer shared history — its counts can differ a few
/// queries in either direction, so MD coverage asserts exactness and ledger
/// invariants instead.)
fn rank1() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]))
}

/// An anti-correlated system ranking maximizes query spend, so every fault
/// index in a script is actually reached.
fn anti_server(data: &Dataset, k: usize) -> SimServer {
    SimServer::new(
        data.clone(),
        SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
        k,
    )
}

/// Fault-free reference run: top-`h` scores and the query count it cost.
fn clean_run(data: &Dataset, k: usize, h: usize, rank: &Arc<dyn RankFn>) -> (Vec<f64>, u64) {
    let server = Arc::new(anti_server(data, k));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, data.len());
    let mut s = svc.session(Query::all(), Arc::clone(rank)).open().unwrap();
    let (hits, err) = s.top(h);
    assert!(err.is_none(), "clean run must not fail: {err:?}");
    (
        hits.iter().map(|r| r.score).collect(),
        server.queries_issued(),
    )
}

#[test]
fn rate_limit_storm_is_absorbed_without_reissuing_paid_queries() {
    let data = uniform(250, 2, 1, 9001);
    let rank = rank1();
    let (want, clean_cost) = clean_run(&data, 3, 8, &rank);

    // A storm of six consecutive rate limits starting at call 4. Refusals
    // at the gate are never charged, so if retries truly resume (and never
    // restart) the cursor, the backend sees exactly the clean-run queries.
    let inner = Arc::new(anti_server(&data, 3));
    let faulty = Arc::new(
        FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>).with_storm(
            4,
            6,
            Fault::RateLimit {
                retry_after_ms: None,
            },
        ),
    );
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 250)
        .with_retry_policy(RetryPolicy::none().attempts(10).backoff(100, 10_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits, err) = s.top(8);
    assert!(err.is_none(), "storm should be absorbed: {err:?}");
    let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
    assert_eq!(got, want, "faults must not change the exact answer");
    assert_eq!(
        inner.queries_issued(),
        clean_cost,
        "every answered query was reused; none re-issued, none skipped"
    );
    assert_eq!(s.retries_spent(), 6, "one retry per injected rate limit");
    assert!(clock.total_slept_ms() > 0, "backoff happened (virtually)");
    assert_eq!(faulty.faults_injected(), 6);
}

#[test]
fn mid_stream_outages_and_truncated_pages_recover_exactly() {
    let data = uniform(250, 2, 1, 9002);
    let rank = rank1();
    let (want, clean_cost) = clean_run(&data, 3, 8, &rank);

    // Outages at the gate (uncharged) interleaved with truncated pages
    // (charged by the backend, then lost in transit — the retry re-pays).
    let inner = Arc::new(anti_server(&data, 3));
    let faulty = Arc::new(
        FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
            .with_fault_at(2, Fault::Outage)
            .with_fault_at(5, Fault::TruncatedPage)
            .with_fault_at(9, Fault::TruncatedPage)
            .with_fault_at(10, Fault::Outage),
    );
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 250)
        .with_retry_policy(RetryPolicy::none().attempts(10).backoff(50, 5_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits, err) = s.top(8);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
    assert_eq!(got, want);
    // Exact query accounting: the two truncated pages were charged twice
    // (once lost, once re-paid); the two gate refusals cost nothing.
    assert_eq!(inner.queries_issued(), clean_cost + 2);
    assert_eq!(s.retries_spent(), 4);
    // The session's own ledger covers the lost pages too.
    assert_eq!(s.queries_spent(), inner.queries_issued());
}

/// Resume-exactness as a property, on untied and tied data alike: a single
/// rate limit at *any* call of the clean run, retried, leaves the 1-D score
/// stream and the backend's paid count exactly as the clean run had them.
/// A retried step must re-walk only what it already paid for — the search's
/// lower bound, a found value whose slab is not yet gathered, and an
/// interrupted slab crawl's pending sub-queries all survive the refusal.
#[test]
fn one_d_resume_is_exact_under_every_single_refusal() {
    let seed = test_seed();
    let worlds = [
        ("uniform", uniform(250, 2, 1, seed)),
        ("grid6", discrete_grid(250, 2, 6, seed)),
        ("grid40", discrete_grid(250, 2, 40, seed)),
    ];
    let systems = [
        SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
        SystemRank::pseudo_random(seed),
    ];
    let mut schedules = 0;
    for (world, data) in &worlds {
        for k in [3, 5] {
            for sys in &systems {
                for strategy in OneDStrategy::ALL {
                    let run = |fault_at: Option<u64>| {
                        let inner = Arc::new(SimServer::new(data.clone(), sys.clone(), k));
                        let mut faulty =
                            FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>);
                        if let Some(at) = fault_at {
                            let refusal = Fault::RateLimit {
                                retry_after_ms: None,
                            };
                            faulty = faulty.with_fault_at(at, refusal);
                        }
                        let faulty = Arc::new(faulty);
                        let svc = RerankService::new(
                            Arc::clone(&faulty) as Arc<dyn SearchInterface>,
                            data.len(),
                        )
                        .with_retry_policy(RetryPolicy::none().attempts(2))
                        .with_clock(Arc::new(MockClock::new()) as Arc<dyn Clock>);
                        let mut s = svc
                            .session(Query::all(), rank1())
                            .algorithm(Algorithm::OneD(strategy))
                            .open()
                            .unwrap();
                        let (hits, err) = s.top(12);
                        assert!(err.is_none(), "{world} k={k} at {fault_at:?}: {err:?}");
                        let scores: Vec<f64> = hits.iter().map(|r| r.score).collect();
                        (scores, inner.queries_issued(), faulty.calls_seen())
                    };
                    let (want, paid, calls) = run(None);
                    for at in 0..calls {
                        let (got, got_paid, _) = run(Some(at));
                        let case = format!(
                            "{world} k={k} {} {} refused at call {at}",
                            sys.label(),
                            strategy.label()
                        );
                        assert_eq!(got, want, "{case}: the stream changed");
                        assert_eq!(got_paid, paid, "{case}: paid queries changed");
                        schedules += 1;
                    }
                }
            }
        }
    }
    assert!(schedules > 500, "only {schedules} schedules ran");
}

#[test]
fn retry_after_is_honored_against_an_enforcing_server() {
    let data = uniform(250, 2, 1, 9003);
    let rank = rank1();
    let (want, clean_cost) = clean_run(&data, 3, 6, &rank);

    // The server enforces its 900 ms hint on a shared mock clock: an eager
    // retry before the window elapses is refused again (and counted). A
    // correct retry layer recovers in exactly one retry per injected fault.
    let clock = Arc::new(MockClock::new());
    let inner = Arc::new(anti_server(&data, 3));
    let faulty = Arc::new(
        FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
            .with_fault_at(
                3,
                Fault::RateLimit {
                    retry_after_ms: Some(900),
                },
            )
            .with_fault_at(
                8,
                Fault::RateLimit {
                    retry_after_ms: Some(1_700),
                },
            )
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
    );
    let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 250)
        // Computed backoff (10 ms) is far below the hints: only hint
        // dominance makes the retries land after the enforced windows.
        .with_retry_policy(RetryPolicy::none().attempts(5).backoff(10, 50_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits, err) = s.top(6);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
    assert_eq!(got, want);
    assert_eq!(s.retries_spent(), 2, "exactly one retry per rate limit");
    assert_eq!(clock.sleeps(), vec![900, 1_700], "slept the hints exactly");
    assert_eq!(inner.queries_issued(), clean_cost, "no query re-issued");
}

#[test]
fn partial_results_survive_when_the_backend_dies_for_good() {
    let data = uniform(250, 2, 1, 9004);
    let inner = Arc::new(anti_server(&data, 3));
    // Healthy long enough to emit a few tuples, then gone forever.
    let faulty = Arc::new(
        FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
            .with_permanent_outage_from(25),
    );
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 250)
        .with_retry_policy(RetryPolicy::none().attempts(4).backoff(100, 10_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let mut s = svc.session(Query::all(), rank2()).open().unwrap();
    let (hits, err) = s.top(1_000);
    let err = err.expect("the dead backend must eventually surface");
    match err {
        RerankError::RetriesExhausted { attempts, ref last } => {
            assert_eq!(attempts, 4, "the whole policy was consumed");
            assert!(last.is_retryable());
        }
        ref other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert!(!hits.is_empty(), "paid-for tuples must be preserved");
    assert!(hits.windows(2).all(|w| w[0].score <= w[1].score));
    // Failure is still resumable at the session level: stats stay exact.
    let stats = s.stats();
    assert_eq!(stats.retries_spent, 3);
    assert!(stats.attempts_made > stats.retries_spent);
    assert_eq!(stats.queries_spent, inner.queries_issued());
}

#[test]
fn federated_merge_degrades_around_a_dead_source_with_typed_report() {
    // One permanently-failing source: the merge cannot know a global rank
    // without it, so it surfaces the source's typed error instead of a
    // silently partial ranking — and keeps surfacing it.
    let data_a = uniform(120, 2, 1, 9005);
    let data_b = uniform(90, 2, 1, 9006);
    let svc_a = RerankService::new(
        Arc::new(SimServer::new(data_a, SystemRank::pseudo_random(1), 5)),
        120,
    );
    let svc_b = RerankService::new(
        Arc::new(SimServer::new(data_b, SystemRank::pseudo_random(2), 5)),
        90,
    );
    let dead_inner = Arc::new(SimServer::new(
        uniform(70, 2, 1, 9007),
        SystemRank::pseudo_random(3),
        5,
    ));
    let clock = Arc::new(MockClock::new());
    let dead = Arc::new(
        FaultyServer::new(Arc::clone(&dead_inner) as Arc<dyn SearchInterface>)
            .with_permanent_outage_from(0),
    );
    // The dead source retries on the mock clock before giving up, so the
    // error arrives without a single wall-clock sleep.
    let svc_dead = RerankService::new(Arc::clone(&dead) as Arc<dyn SearchInterface>, 70)
        .with_retry_policy(RetryPolicy::none().attempts(3).backoff(200, 5_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let services = [&svc_a, &svc_dead, &svc_b];
    let mut fed =
        FederatedSession::open(&services, Query::all(), rank2(), Algorithm::Auto).unwrap();
    let (got, err) = fed.top(40);
    assert!(
        got.is_empty(),
        "no global rank is known while a source is down"
    );
    assert!(
        matches!(err, Some(RerankError::RetriesExhausted { .. })),
        "{err:?}"
    );
    // The dead source's session burned its whole retry policy (2 virtual
    // backoff sleeps); the outage refused every attempt at the gate.
    assert_eq!(clock.sleeps().len(), 2);
    assert_eq!(dead_inner.queries_issued(), 0);
    // Still dead: asking again errors again, never an empty stream.
    assert!(fed.next().is_err());
}

#[test]
fn two_sessions_interleaved_under_faults_keep_attribution_exact() {
    // Regression for in-lock counting: interleave two retrying sessions on
    // one faulty service; their ledgers must sum to the global counter and
    // each must own its retries.
    let data = uniform(300, 2, 1, 9008);
    let inner = Arc::new(anti_server(&data, 4));
    let faulty = Arc::new(
        FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
            .with_fault_at(3, Fault::TruncatedPage)
            .with_fault_at(6, Fault::Outage)
            .with_fault_at(11, Fault::TruncatedPage),
    );
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 300)
        .with_retry_policy(RetryPolicy::none().attempts(6).backoff(10, 1_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let rank_a: Arc<dyn RankFn> =
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.3)]));
    let rank_b: Arc<dyn RankFn> =
        Arc::new(LinearRank::asc(vec![(AttrId(0), 0.2), (AttrId(1), 1.0)]));
    let mut a = svc.session(Query::all(), rank_a).open().unwrap();
    let mut b = svc.session(Query::all(), rank_b).open().unwrap();
    for _ in 0..5 {
        a.next().unwrap();
        b.next().unwrap();
    }
    assert!(a.queries_spent() > 0 && b.queries_spent() > 0);
    assert_eq!(
        a.queries_spent() + b.queries_spent(),
        svc.queries_issued(),
        "per-session ledgers must sum to the global counter under faults"
    );
    assert_eq!(
        a.retries_spent() + b.retries_spent(),
        svc.stats().retries_spent,
        "per-session retry counts must sum to the service counter"
    );
    assert_eq!(svc.stats().retries_spent, 3, "one retry per injected fault");
}

#[test]
fn fault_schedules_are_seed_deterministic_and_replayable() {
    let seed = test_seed();
    let data = uniform(200, 2, 1, 9009);
    let drive = |seed: u64| {
        let inner = Arc::new(anti_server(&data, 3));
        let faulty = Arc::new(
            FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
                .with_random_faults(seed, 0.10, 0.08, 0.05),
        );
        let clock = Arc::new(MockClock::new());
        let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 200)
            .with_retry_policy(
                RetryPolicy::none()
                    .attempts(50)
                    .backoff(10, 1_000)
                    .jitter(30),
            )
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (hits, err) = s.top(10);
        assert!(err.is_none(), "seed {seed}: {err:?}");
        let scores: Vec<f64> = hits.iter().map(|r| r.score).collect();
        (
            scores,
            faulty.faults_injected(),
            inner.queries_issued(),
            clock.sleeps(),
        )
    };
    let first = drive(seed);
    let second = drive(seed);
    assert_eq!(
        first, second,
        "same seed must replay the same faults, costs and backoff sleeps"
    );
    // And regardless of the schedule, the answer is the exact top-10.
    let (want, _) = clean_run(&data, 3, 10, &rank2());
    assert_eq!(first.0, want, "exactness is fault-oblivious");
    assert!(first.1 > 0, "the random schedule never fired");
}
