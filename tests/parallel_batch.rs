//! `serve_batch` across executor shapes, under seeded fault injection.
//!
//! The contract: the executor a batch runs on changes *when* its sessions
//! pull, never *what* they return. The property pits the deterministic
//! immediate mode against worker pools on identically seeded stacks — same
//! dataset, same `FaultyServer` schedule, same retry jitter — and demands
//! identical hits for every request. Fault schedules derive from
//! `QRS_TEST_SEED` when set, so CI proves the property across seeds.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::exec::Executor;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Clock, FaultyServer, MockClock, SearchInterface, SimServer, SystemRank,
};
use query_reranking::service::{BatchRequest, RerankService};
use query_reranking::types::{AttrId, Query, RetryPolicy};
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

/// 2–4 services, a pure function of `seed`: each a seeded-faulty sim
/// backend with retries on a mock clock. The batch property serves from
/// the first.
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
