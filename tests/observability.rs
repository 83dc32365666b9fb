//! The observability plane end to end: events must *reconcile exactly*
//! with the ledgers they narrate, the shared counters must sum to the same
//! totals the per-session accounting reports under contention, the bounded
//! recorder must drop oldest without tearing, and — critically — a service
//! with no observer attached, or with a full one, must behave
//! byte-identically to one that was never wired for observability at all.
//!
//! Seeds honor `QRS_TEST_SEED`; the batch leg drives `qrs-exec` pools via
//! `Executor::from_env`, so CI's seed × `QRS_EXEC_THREADS` matrix sweeps
//! both the schedule and the workload.

use query_reranking::core::{
    MdCursor, MdOptions, OneDCursor, OneDStrategy, Purpose, RerankParams, SharedState,
};
use query_reranking::datagen::synthetic::{discrete_grid, uniform};
use query_reranking::exec::Executor;
use query_reranking::obs::{EventKind, ObsHandle, Recorder};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Clock, FaultyServer, MockClock, SearchInterface, SimServer, SystemRank,
};
use query_reranking::service::batch::BatchRequest;
use query_reranking::service::{KnowledgePlane, RerankService};
use query_reranking::types::{AttrId, Dataset, Direction, Interval, Query, RetryPolicy};
use std::sync::Arc;

fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn service(data: &Dataset) -> RerankService {
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(17), 6);
    RerankService::new(Arc::new(server), data.len())
}

fn rank() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7)]))
}

/// The acceptance scenario: a warm knowledge run with a `Recorder`
/// attached must yield a `monitor_report()` whose actual spend columns
/// reconcile *exactly* — queries AND cost units — with the per-session and
/// service-wide ledgers, and whose predicted columns match the plan-time
/// estimates.
#[test]
fn monitor_reconciles_exactly_with_ledgers() {
    let data = uniform(300, 2, 1, seeded(0xB01) | 1);
    let plane = Arc::new(KnowledgePlane::new());
    let recorder = Arc::new(Recorder::with_capacity(4096));
    let obs = ObsHandle::builder("site-a")
        .subscriber(Arc::clone(&recorder) as _)
        .build();
    // Two services sharing one knowledge plane AND one observer: the first
    // pass is cold, the second replays from the plane (exercising the
    // KnowledgeHit / saved columns); the shared handle aggregates both
    // into one monitor, as a fleet deployment would.
    let services = [
        service(&data)
            .with_knowledge(Arc::clone(&plane), "site-a")
            .with_observer(obs.clone()),
        service(&data)
            .with_knowledge(Arc::clone(&plane), "site-a")
            .with_observer(obs.clone()),
    ];

    let mut session_totals = (0u64, 0u64, 0u64, 0u64); // spent q/c, saved q/c
    let mut predicted = (0u64, 0u64);
    for (pass, svc) in services.iter().enumerate() {
        let builder = svc.session(Query::all(), rank());
        let plan = builder.plan().unwrap();
        predicted.0 += plan.estimate.queries;
        predicted.1 += plan.estimate.cost_units;
        let mut s = builder.open().unwrap();
        // Drain to exhaustion so the cold pass seals a complete result
        // stream and the warm pass replays it end to end.
        let mut emitted = 0u64;
        while let Some(_hit) = s.next().unwrap() {
            emitted += 1;
        }
        assert!(emitted > 0, "pass {pass} emitted nothing");
        let st = s.stats();
        session_totals.0 += st.queries_spent;
        session_totals.1 += st.cost_units_spent;
        session_totals.2 += st.queries_saved;
        session_totals.3 += st.cost_units_saved;
        if pass == 1 {
            assert!(st.queries_saved > 0, "warm pass must replay knowledge");
        }
        drop(s); // emits SessionClose
    }
    let svc = &services[1];

    let report = svc.monitor_report();
    assert!(!report.rows.is_empty());
    assert!(report.rows.iter().all(|r| r.site == "site-a"));
    assert_eq!(report.rows.iter().map(|r| r.sessions).sum::<u64>(), 2);

    // Actual columns == per-session ledger sums, exactly.
    assert_eq!(report.actual_queries_total(), session_totals.0);
    assert_eq!(report.actual_cost_units_total(), session_totals.1);
    assert_eq!(report.saved_queries_total(), session_totals.2);
    assert_eq!(report.saved_cost_units_total(), session_totals.3);

    // ... and == the service-wide ledgers, exactly (summed over
    // the two services sharing the handle).
    let spent_q: u64 = services.iter().map(|s| s.stats().queries_spent).sum();
    let spent_c: u64 = services.iter().map(|s| s.stats().cost_units_spent).sum();
    let saved_q: u64 = services.iter().map(|s| s.stats().queries_saved).sum();
    let saved_c: u64 = services.iter().map(|s| s.stats().cost_units_saved).sum();
    assert_eq!(report.actual_queries_total(), spent_q);
    assert_eq!(report.actual_cost_units_total(), spent_c);
    assert_eq!(report.saved_queries_total(), saved_q);
    assert_eq!(report.saved_cost_units_total(), saved_c);

    // Predicted columns seeded by the plan-time estimates.
    let pred_q: u64 = report.rows.iter().map(|r| r.predicted_queries).sum();
    let pred_c: u64 = report.rows.iter().map(|r| r.predicted_cost_units).sum();
    assert_eq!(pred_q, predicted.0);
    assert_eq!(pred_c, predicted.1);
    assert!(report
        .rows
        .iter()
        .any(|r| r.query_divergence().ratio().is_some()));

    // The recorder saw the same story: fold its events by hand.
    let (mut rq, mut rc, mut rsq, mut rsc) = (0u64, 0u64, 0u64, 0u64);
    let (mut opens, mut closes) = (0u64, 0u64);
    for e in recorder.events() {
        match e.kind {
            EventKind::SessionOpen { .. } => opens += 1,
            EventKind::SessionClose { .. } => closes += 1,
            EventKind::RequestCharged {
                queries,
                cost_units,
                ..
            } => {
                rq += queries;
                rc += cost_units;
            }
            EventKind::KnowledgeHit {
                queries,
                cost_units,
            } => {
                rsq += queries;
                rsc += cost_units;
            }
            _ => {}
        }
    }
    assert_eq!(recorder.dropped(), 0, "capacity must suffice here");
    assert_eq!((rq, rc, rsq, rsc), session_totals);
    assert_eq!((opens, closes), (2, 2));
}

/// The atomic counters under real contention: many threads, each running
/// whole sessions, must leave `ServiceStats` and the fleet monitor
/// agreeing with the per-session ledger sums to the last unit. The batch
/// leg runs on `Executor::from_env`, so `QRS_EXEC_THREADS={0,1,8}` sweeps
/// inline, single-threaded and wide schedules.
#[test]
fn shared_counters_match_ledger_sums_under_threads() {
    let data = uniform(240, 2, 1, seeded(0xB02) | 1);
    let svc = Arc::new(service(&data).with_observer(ObsHandle::for_site("site-b")));

    let band = |lo: f64, hi: f64| Query::all().and_range(AttrId(0), Interval::closed(lo, hi));
    let sels = [Query::all(), band(0.0, 0.6), band(0.2, 0.8), band(0.1, 0.5)];

    // Leg 1: raw threads hammering sessions concurrently.
    let from_threads: (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8usize)
            .map(|i| {
                let svc = Arc::clone(&svc);
                let sel = sels[i % sels.len()].clone();
                scope.spawn(move || {
                    let mut s = svc.session(sel, rank()).open().unwrap();
                    let (_, err) = s.top(5);
                    assert!(err.is_none(), "{err:?}");
                    let st = s.stats();
                    (st.queries_spent, st.cost_units_spent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });

    // Leg 2: the batch front-end on the env-configured executor.
    let exec = Executor::from_env();
    let reqs: Vec<BatchRequest> = (0..8)
        .map(|i| BatchRequest::new(sels[i % sels.len()].clone(), rank(), 4))
        .collect();
    let outcomes = svc.serve_batch(&exec, reqs);
    let from_batch = outcomes.iter().fold((0u64, 0u64), |a, o| {
        assert!(o.is_ok(), "{:?}", o.error);
        (a.0 + o.stats.queries_spent, a.1 + o.stats.cost_units_spent)
    });

    let want_q = from_threads.0 + from_batch.0;
    let want_c = from_threads.1 + from_batch.1;

    let stats = svc.stats();
    assert_eq!(stats.queries_spent, want_q, "ServiceStats sum-on-read");
    assert_eq!(stats.cost_units_spent, want_c);
    assert_eq!(stats.sessions_started, 16);

    let report = svc.monitor_report();
    assert_eq!(report.actual_queries_total(), want_q);
    assert_eq!(report.actual_cost_units_total(), want_c);
}

/// The event stream carries every count a fold needs, recovery included:
/// sessions on raw threads and one batch absorb a seeded storm of rate
/// limits, outages and truncated pages on a mock clock, and a hand fold of
/// the `Recorder` must equal the service ledger and the clock's own record
/// of what was slept. Whether a session outlives its faults does not
/// matter here — a failed one still opens, retries, sleeps and closes.
#[test]
fn recorded_stream_counts_sessions_retries_and_sleeps_under_a_storm() {
    let data = uniform(240, 2, 1, seeded(0xB04) | 1);
    let inner = SimServer::new(data.clone(), SystemRank::pseudo_random(17), 6);
    let faulty = FaultyServer::new(Arc::new(inner) as Arc<dyn SearchInterface>).with_random_faults(
        seeded(0xB05),
        0.10,
        0.05,
        0.05,
    );
    let clock = Arc::new(MockClock::new());
    let recorder = Arc::new(Recorder::with_capacity(1 << 16));
    let svc = Arc::new(
        RerankService::new(Arc::new(faulty) as Arc<dyn SearchInterface>, data.len())
            .with_retry_policy(RetryPolicy::none().attempts(10).backoff(100, 10_000))
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .with_observer(
                ObsHandle::builder("site-d")
                    .subscriber(Arc::clone(&recorder) as _)
                    .build(),
            ),
    );

    let band = |lo: f64, hi: f64| Query::all().and_range(AttrId(0), Interval::closed(lo, hi));
    let sels = [Query::all(), band(0.0, 0.6), band(0.2, 0.8), band(0.1, 0.5)];
    std::thread::scope(|scope| {
        for i in 0..8usize {
            let svc = Arc::clone(&svc);
            let sel = sels[i % sels.len()].clone();
            scope.spawn(move || {
                let mut s = svc.session(sel, rank()).open().unwrap();
                let _ = s.top(5);
            });
        }
    });
    let reqs: Vec<BatchRequest> = (0..8)
        .map(|i| BatchRequest::new(sels[i % sels.len()].clone(), rank(), 4))
        .collect();
    svc.serve_batch(&Executor::from_env(), reqs);

    let (mut opens, mut closes, mut retries, mut slept, mut batches) = (0u64, 0, 0, 0, 0);
    for e in recorder.events() {
        match e.kind {
            EventKind::SessionOpen { .. } => opens += 1,
            EventKind::SessionClose { .. } => closes += 1,
            EventKind::RetryAttempt { .. } => retries += 1,
            EventKind::BackoffSleep { ms, .. } => slept += ms,
            EventKind::BatchServed { .. } => batches += 1,
            _ => {}
        }
    }
    assert_eq!(recorder.dropped(), 0, "capacity must suffice here");
    let stats = svc.stats();
    assert!(
        stats.retries_spent > 0,
        "the storm must reach the retry engine"
    );
    assert_eq!(stats.sessions_started, 16);
    assert_eq!((opens, closes), (16, 16));
    assert_eq!(retries, stats.retries_spent);
    assert_eq!(slept, clock.total_slept_ms());
    assert!(slept > 0, "retries back off on the mock clock");
    assert_eq!(batches, stats.batches_served);
}

/// The bounded recorder under concurrent emission: oldest events drop,
/// nothing tears, and the accounting (`len + dropped == emitted`) is
/// exact.
#[test]
fn recorder_drops_oldest_without_tearing() {
    let recorder = Arc::new(Recorder::with_capacity(64));
    let obs = ObsHandle::builder("site-c")
        .subscriber(Arc::clone(&recorder) as _)
        .build();
    let obs = Arc::new(obs);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 200;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let obs = Arc::clone(&obs);
            scope.spawn(move || {
                let session = obs.open_session();
                for i in 0..PER_THREAD {
                    obs.emit(
                        t * 1_000_000 + i,
                        session,
                        EventKind::RequestCharged {
                            class: query_reranking::obs::QueryClass::TopK,
                            queries: t * 1_000_000 + i,
                            cost_units: t * 1_000_000 + i,
                        },
                    );
                }
            });
        }
    });
    let events = recorder.events();
    assert_eq!(events.len(), 64, "ring filled to capacity");
    assert_eq!(
        events.len() as u64 + recorder.dropped(),
        THREADS * PER_THREAD,
        "drop accounting is exact"
    );
    for e in &events {
        // No torn writes: the payload fields of one event must agree with
        // each other and with its timestamp.
        match e.kind {
            EventKind::RequestCharged {
                queries,
                cost_units,
                ..
            } => {
                assert_eq!(queries, cost_units, "torn event payload");
                assert_eq!(queries, e.at_ms, "event fields mixed across events");
            }
            _ => panic!("unexpected event kind"),
        }
    }
}

/// An observer narrates, it never changes the answer: a service with
/// `ObsHandle::disabled()` (the default — the no-subscriber hot path adds
/// one branch, nothing else) and one under a full handle (monitor + a
/// `Recorder`) must both produce the same results and the same ledgers as
/// one never configured, and the full handle's monitor must equal that
/// ledger.
#[test]
fn an_observer_never_changes_the_answer() {
    let seed = seeded(0xB03) | 1;
    let data = uniform(260, 2, 1, seed);

    let run = |svc: &RerankService| {
        let mut s = svc.session(Query::all(), rank()).open().unwrap();
        let mut stream = Vec::new();
        while let Ok(Some(hit)) = s.next() {
            stream.push((hit.tuple.id.0, hit.score.to_bits()));
            if stream.len() == 12 {
                break;
            }
        }
        let st = s.stats();
        (
            stream,
            st.queries_spent,
            st.cost_units_spent,
            st.queries_saved,
        )
    };

    let plain = service(&data);
    let wired = service(&data).with_observer(ObsHandle::disabled());
    let recorder = Arc::new(Recorder::with_capacity(1 << 16));
    let observed = service(&data).with_observer(
        ObsHandle::builder("site-c")
            .subscriber(Arc::clone(&recorder) as _)
            .build(),
    );
    let a = run(&plain);
    let b = run(&wired);
    let c = run(&observed);
    assert_eq!(a, b, "disabled observer changed behavior");
    assert_eq!(a, c, "enabled observer changed behavior");
    assert_eq!(plain.queries_issued(), wired.queries_issued());
    assert_eq!(plain.queries_issued(), observed.queries_issued());
    assert!(!wired.observer().enabled());
    assert!(wired.monitor_report().rows.is_empty());
    let (_, queries_spent, ..) = c;
    assert_eq!(
        observed.monitor_report().actual_queries_total(),
        queries_spent
    );
    assert_eq!(recorder.dropped(), 0, "a 64Ki ring cannot overflow here");
}

/// Every paid query is counted under exactly one purpose: the per-purpose
/// counts of the shared state add up to what the site charged, on MD runs
/// (eight rankings over one state, as a service serves them) and on a 1-D
/// run over tied data.
#[test]
fn paid_queries_add_up_over_purposes_to_what_the_site_charged() {
    let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    let params = RerankParams::paper_defaults(1000, 10);
    let paid = |st: &SharedState| Purpose::ALL.map(|p| st.paid(p));

    let data = uniform(1000, 2, 1, seeded(4244));
    let server = SimServer::new(data.clone(), sys.clone(), 10);
    let mut st = SharedState::new(data.schema(), params);
    for w in [0.2, 0.4, 0.7, 1.0, 1.5, 2.5, 4.0, 6.0] {
        let rank = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), w)]));
        let mut md = MdCursor::new(rank, Query::all(), MdOptions::rerank(), server.schema());
        assert_eq!(md.top_h(&server, &mut st, 20).unwrap().len(), 20);
    }
    let md_paid = paid(&st);
    assert_eq!(
        md_paid.iter().sum::<u64>(),
        server.queries_issued(),
        "MD: {md_paid:?}"
    );
    for p in [
        Purpose::MdBox,
        Purpose::MdDominated,
        Purpose::MdMerged,
        Purpose::MdTiePlane,
    ] {
        assert!(st.paid(p) > 0, "vacuous: no {p:?} query in {md_paid:?}");
    }

    let data = discrete_grid(1000, 2, 30, seeded(4244));
    let server = SimServer::new(data.clone(), sys, 10);
    let mut st = SharedState::new(data.schema(), params);
    let mut one_d = OneDCursor::over(
        AttrId(0),
        Direction::Asc,
        Query::all(),
        OneDStrategy::Rerank,
    );
    for _ in 0..30 {
        one_d.next(&server, &mut st).unwrap().expect("1000 tuples");
    }
    let one_d_paid = paid(&st);
    assert_eq!(
        one_d_paid.iter().sum::<u64>(),
        server.queries_issued(),
        "1-D: {one_d_paid:?}"
    );
    for p in [Purpose::OneDSearch, Purpose::OneDSlab] {
        assert!(st.paid(p) > 0, "vacuous: no {p:?} query in {one_d_paid:?}");
    }
}
