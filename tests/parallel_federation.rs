//! Parallel-vs-serial equivalence for the `qrs-exec`-powered service
//! layer, under seeded fault injection.
//!
//! The contract: attaching an executor to a [`FederatedSession`] (or
//! driving a batch through `serve_batch`) changes *when* pulls happen,
//! never *what* they return. These properties pit the serial path against
//! a worker pool and the deterministic immediate mode on identically
//! seeded stacks — same datasets, same `FaultyServer` schedules, same
//! retry jitter — and demand byte-identical streams and identical
//! per-source ledgers. Fault schedules derive from `QRS_TEST_SEED` when
//! set, so CI proves the equivalence holds across seeds (and, via
//! `QRS_EXEC_THREADS`, across pool sizes).

use query_reranking::datagen::synthetic::uniform;
use query_reranking::exec::Executor;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Clock, FaultyServer, MockClock, SearchInterface, SimServer, SystemRank,
};
use query_reranking::service::{
    Algorithm, BatchRequest, FederatedSession, RerankService, SessionStats,
};
use query_reranking::types::{AttrId, CircuitPolicy, Query, RetryPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const CASES: usize = 20;

/// Mix the CI-provided seed (if any) into a property's base seed.
fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One federation stack, a pure function of `seed`: 2–4 sources, each a
/// seeded-faulty sim backend with session retries on a mock clock and
/// occasional zero-fault sources mixed in.
fn build_stack(seed: u64) -> Vec<RerankService> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_sources = rng.random_range(2..5usize);
    (0..n_sources as u64)
        .map(|i| {
            let n = rng.random_range(30..120usize);
            let k = rng.random_range(3..6usize);
            let data = uniform(n, 2, 1, seed.wrapping_mul(31).wrapping_add(i));
            let sim = Arc::new(SimServer::new(
                data,
                SystemRank::pseudo_random(seed.wrapping_mul(17).wrapping_add(i)),
                k,
            ));
            let faulty = Arc::new(
                FaultyServer::new(sim as Arc<dyn SearchInterface>).with_random_faults(
                    seed.wrapping_mul(13).wrapping_add(i),
                    0.06,
                    0.05,
                    0.04,
                ),
            );
            RerankService::new(faulty as Arc<dyn SearchInterface>, n)
                .with_retry_policy(
                    RetryPolicy::none()
                        .attempts(6)
                        .backoff(10, 500)
                        .jitter(5)
                        .seed(seed.wrapping_add(i)),
                )
                .with_clock(Arc::new(MockClock::new()) as Arc<dyn Clock>)
        })
        .collect()
}

fn rank() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]))
}

/// Fingerprint of everything observable about one federated run: the
/// exact stream (source, rank, tuple, score bits), the terminal
/// condition, per-source session ledgers, and per-source circuit
/// post-mortems.
#[derive(Debug, PartialEq)]
struct RunPrint {
    stream: Vec<(usize, usize, u32, u64)>,
    err: Option<String>,
    stats: Vec<SessionStats>,
    circuits: Vec<(bool, u64, u64, u32)>,
}

fn run_federation(services: &[RerankService], executor: Option<Arc<Executor>>) -> RunPrint {
    let refs: Vec<&RerankService> = services.iter().collect();
    let mut fed = FederatedSession::open(&refs, Query::all(), rank(), Algorithm::Auto)
        .expect("preflight cannot fail on the sim stack")
        .with_circuit(CircuitPolicy::trip_after(3));
    if let Some(e) = executor {
        fed = fed.with_executor(e);
    }
    let (hits, err) = fed.top(1_000);
    let ledger: u64 = fed.session_stats().iter().map(|s| s.queries_spent).sum();
    let issued: u64 = services.iter().map(RerankService::queries_issued).sum();
    assert_eq!(
        ledger, issued,
        "per-source spend must partition the backends' global counters"
    );
    RunPrint {
        stream: hits
            .iter()
            .map(|f| {
                (
                    f.source,
                    f.hit.rank,
                    f.hit.tuple.id.0,
                    f.hit.score.to_bits(),
                )
            })
            .collect(),
        err: err.map(|e| e.to_string()),
        stats: fed.session_stats(),
        circuits: fed
            .report()
            .iter()
            .map(|r| {
                (
                    r.tripped,
                    r.trips,
                    r.probes_admitted,
                    r.consecutive_failures,
                )
            })
            .collect(),
    }
}

#[test]
fn parallel_federated_merge_is_byte_identical_to_serial_under_faults() {
    for case in 0..CASES {
        let seed = seeded(0xFED0 + case as u64 * 7919);
        let serial = run_federation(&build_stack(seed), None);
        assert!(
            !serial.stream.is_empty(),
            "case {case}: vacuous (no tuples merged)"
        );
        let pooled = run_federation(&build_stack(seed), Some(Arc::new(Executor::pool(4))));
        assert_eq!(serial, pooled, "case {case}: pool(4) diverged from serial");
        let immediate = run_federation(
            &build_stack(seed),
            Some(Arc::new(Executor::immediate(seed))),
        );
        assert_eq!(
            serial, immediate,
            "case {case}: immediate mode diverged from serial"
        );
        // from_env: whatever CI's QRS_EXEC_THREADS matrix entry says.
        let env_exec = run_federation(&build_stack(seed), Some(Arc::new(Executor::from_env())));
        assert_eq!(
            serial, env_exec,
            "case {case}: QRS_EXEC_THREADS executor diverged from serial"
        );
    }
}

#[test]
fn serve_batch_results_are_identical_across_executor_shapes() {
    /// (error, hits as (tuple, score bits), emitted, queries spent).
    type OutcomePrint = (Option<String>, Vec<(u32, u64)>, u64, u64);
    for case in 0..8u64 {
        let seed = seeded(0xBA7C + case * 104_729);
        let run = |exec: &Executor| -> Vec<OutcomePrint> {
            // One faulty backend, several concurrent users, rebuilt with
            // deep retries: the shared backend deals faults off ONE
            // schedule-dependent RNG, so which session absorbs which fault
            // varies with pool interleaving. Retries make that
            // reassignment invisible in the results; a stingy cap would
            // let one unlucky interleaving exhaust a request
            // (RetriesExhausted truncates its hits) and flake the
            // cross-shape comparison. 0.15^16 ≈ 7e-14: never.
            let svc = &build_stack(seed)
                .swap_remove(0)
                .with_retry_policy(RetryPolicy::none().attempts(16).backoff(5, 100).seed(seed));
            let reqs: Vec<BatchRequest> = (0..5u64)
                .map(|i| {
                    BatchRequest::new(
                        Query::all(),
                        Arc::new(LinearRank::asc(vec![
                            (AttrId(0), 1.0 + i as f64),
                            (AttrId(1), 1.0),
                        ])) as Arc<dyn RankFn>,
                        6,
                    )
                })
                .collect();
            svc.serve_batch(exec, reqs)
                .into_iter()
                .map(|o| {
                    (
                        o.error.map(|e| e.to_string()),
                        o.hits
                            .iter()
                            .map(|h| (h.tuple.id.0, h.score.to_bits()))
                            .collect(),
                        o.stats.emitted as u64,
                        o.stats.queries_spent,
                    )
                })
                .collect()
        };
        // NOTE: on a pool the *interleaving* of sessions on the shared
        // state (and thus per-session spend attribution) legitimately
        // varies — amortization depends on who paid first, and even
        // pool(1) has two lanes because join() steals queued jobs onto
        // the joining thread. The returned *results* must not vary.
        // Immediate mode is the fully deterministic shape: same seed ⇒
        // same complete fingerprint, spend included.
        let imm = run(&Executor::immediate(seed));
        let imm_replay = run(&Executor::immediate(seed));
        assert_eq!(
            imm, imm_replay,
            "case {case}: immediate mode must replay exactly"
        );
        for shape in [Executor::pool(1), Executor::pool(4)] {
            let pooled = run(&shape);
            for (i, (a, b)) in imm.iter().zip(&pooled).enumerate() {
                assert_eq!(
                    (&a.0, &a.1),
                    (&b.0, &b.1),
                    "case {case} request {i}: {shape:?} returned different hits"
                );
            }
        }
    }
}

#[test]
fn half_open_probe_recovers_a_source_in_a_parallel_merge() {
    // The half-open machinery must behave identically under the executor:
    // a storm-bound source trips, cools down, probes, and rejoins — while
    // pulls fan out across the pool.
    let clock = Arc::new(MockClock::new());
    let healthy_data = uniform(50, 2, 1, 41_001);
    let healthy = RerankService::new(
        Arc::new(SimServer::new(
            healthy_data,
            SystemRank::pseudo_random(41_001),
            5,
        )),
        50,
    );
    let flaky_inner = Arc::new(SimServer::new(
        uniform(40, 2, 1, 41_002),
        SystemRank::pseudo_random(41_002),
        5,
    ));
    let flaky = Arc::new(
        FaultyServer::new(flaky_inner as Arc<dyn SearchInterface>).with_storm(
            0,
            2,
            query_reranking::server::Fault::Outage,
        ),
    );
    let flaky_svc = RerankService::new(flaky as Arc<dyn SearchInterface>, 40)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let services = [&healthy, &flaky_svc];
    let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
        .unwrap()
        .with_circuit(CircuitPolicy::trip_after(2).cooldown(500))
        .with_executor(Arc::new(Executor::pool(2)));
    let (first, err) = fed.top(10);
    assert!(err.is_none(), "{err:?}");
    assert!(first.iter().all(|f| f.source == 0), "flaky source is out");
    assert!(fed.report()[1].tripped);
    clock.advance(500);
    let (rest, err) = fed.top(1_000);
    assert!(err.is_none(), "{err:?}");
    assert!(!fed.report()[1].tripped, "probe must close the circuit");
    assert_eq!(fed.report()[1].probes_admitted, 1);
    assert!(rest.iter().any(|f| f.source == 1), "source 1 rejoined");
    // End-to-end conservation: every tuple of both sources appears once.
    assert_eq!(first.len() + rest.len(), 90);
}
