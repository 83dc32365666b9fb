//! The concurrent service front-end: many sessions progressing in
//! parallel.
//!
//! The paper pitches reranking *as a service* — a middleware fronting one
//! hidden database for many users at once. [`RerankService::serve_batch`]
//! is that front door: hand it an executor and a batch of
//! [`BatchRequest`]s, and every request runs as its own session on the
//! pool, all against the shared knowledge, the shared query budget, and
//! the service's one retry policy. Outcomes come back in request order,
//! each carrying its hits, its typed error (if any), and its exact
//! [`SessionStats`] — per-request attribution stays precise because every
//! counter is updated inside the shared-state lock or via atomics
//! ([`crate::ServiceStats`], [`crate::QueryBudget`]).

use crate::service::{Algorithm, RerankService, SessionSpec};
use crate::session::{RankedTuple, SessionStats};
use qrs_exec::{Executor, TaskHandle};
use qrs_ranking::RankFn;
use qrs_types::{Query, RerankError};
use std::sync::Arc;

/// One user request inside a batch: a selection, a ranking function, and
/// how many top answers to fetch, plus optional per-request knobs (the same
/// settings [`crate::SessionBuilder`] takes; unset ones keep its defaults).
pub struct BatchRequest {
    /// The selection query (the `q` of `R(q)`).
    pub sel: Query,
    /// The user's ranking function.
    pub rank: Arc<dyn RankFn>,
    /// How many top tuples to fetch (the `h` of `Session::top`).
    pub top: usize,
    spec: SessionSpec,
}

impl BatchRequest {
    /// A request with defaults: [`Algorithm::Auto`], no per-session caps.
    pub fn new(sel: Query, rank: Arc<dyn RankFn>, top: usize) -> Self {
        BatchRequest {
            sel,
            rank,
            top,
            spec: SessionSpec::default(),
        }
    }

    /// Builder: pick the algorithm (default [`Algorithm::Auto`]: the
    /// planner picks).
    pub fn algorithm(mut self, algo: Algorithm) -> Self {
        self.spec.algo = algo;
        self
    }

    /// Builder: cap this request's query spend (the service-wide budget
    /// still applies).
    pub fn budget(mut self, limit: u64) -> Self {
        self.spec.budget = Some(limit);
        self
    }

    /// Builder: how many answers the planner prices for (else one page).
    pub fn horizon(mut self, h: usize) -> Self {
        self.spec.horizon = Some(h);
        self
    }
}

/// What one [`BatchRequest`] produced. Mirrors `Session::top`'s contract:
/// partial results survive failure.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The hits fetched (possibly fewer than requested on error).
    pub hits: Vec<RankedTuple>,
    /// The typed failure that stopped the request early, if any.
    pub error: Option<RerankError>,
    /// Exact per-session accounting, failed attempts included.
    pub stats: SessionStats,
    /// Wall-clock time this request occupied a worker, in milliseconds —
    /// observational only (latency percentiles in benchmarks), measured on
    /// the service's injectable clock, so batch latency is deterministic
    /// under a `MockClock` and on the same time base as event timestamps.
    pub wall_ms: f64,
}

impl BatchOutcome {
    /// The request ran to completion (full batch or stream exhausted).
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Run one request against one service.
fn run_one(svc: &RerankService, req: BatchRequest) -> BatchOutcome {
    // The injectable clock, not the OS one: deterministic under MockClock,
    // and the same time base as backoff sleeps and event timestamps.
    let t0 = svc.clock().now_ms();
    let wall_ms = |t0: u64| svc.clock().now_ms().saturating_sub(t0) as f64;
    svc.stats_ref().on_request();
    let budget = req.spec.budget;
    let mut sess = match svc.session_with(req.sel, req.rank, req.spec).open() {
        Ok(s) => s,
        // A request that never got a session: nothing fetched, nothing spent.
        Err(e) => {
            return BatchOutcome {
                hits: Vec::new(),
                error: Some(e),
                stats: SessionStats::zero(budget),
                wall_ms: wall_ms(t0),
            }
        }
    };
    let (hits, error) = sess.top(req.top);
    BatchOutcome {
        hits,
        error,
        stats: sess.stats(),
        wall_ms: wall_ms(t0),
    }
}

impl RerankService {
    /// Serve a batch of requests concurrently on `exec`, one session per
    /// request. Outcomes return in request order. All sessions share this
    /// service's knowledge (so concurrent requests amortize each other's
    /// queries), its retry policy, and its service-wide query budget —
    /// enforced atomically, so a storm of sessions cannot overspend the
    /// cap by racing it.
    pub fn serve_batch(&self, exec: &Executor, requests: Vec<BatchRequest>) -> Vec<BatchOutcome> {
        self.stats_ref().on_batch();
        if self.obs().enabled() {
            // Service-level event: session ordinal 0.
            self.obs().emit(
                self.clock().now_ms(),
                0,
                qrs_obs::EventKind::BatchServed {
                    requests: requests.len() as u64,
                },
            );
        }
        exec.scope(|s| {
            let handles: Vec<_> = requests
                .into_iter()
                .map(|req| s.spawn(move || run_one(self, req)))
                .collect();
            handles.into_iter().map(TaskHandle::join).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_datagen::synthetic::uniform;
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;

    fn service(n: usize, seed: u64) -> (RerankService, qrs_types::Dataset) {
        let data = uniform(n, 2, 1, seed);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(seed), 5);
        (RerankService::new(Arc::new(server), n), data)
    }

    fn rank(w0: f64, w1: f64) -> Arc<dyn RankFn> {
        Arc::new(LinearRank::asc(vec![(AttrId(0), w0), (AttrId(1), w1)]))
    }

    fn brute_top(data: &qrs_types::Dataset, r: &Arc<dyn RankFn>, h: usize) -> Vec<f64> {
        let mut v: Vec<f64> = data.tuples().iter().map(|t| r.score(t)).collect();
        v.sort_by(|a, b| cmp_f64(*a, *b));
        v.truncate(h);
        v
    }

    #[test]
    fn batch_outcomes_are_exact_and_in_request_order() {
        let (svc, data) = service(300, 9001);
        let ranks: Vec<Arc<dyn RankFn>> = vec![
            rank(1.0, 1.0),
            rank(2.0, 0.5),
            rank(0.1, 1.0),
            rank(1.0, 0.25),
        ];
        let reqs: Vec<BatchRequest> = ranks
            .iter()
            .map(|r| BatchRequest::new(Query::all(), Arc::clone(r), 8))
            .collect();
        let exec = Executor::pool(4);
        let outcomes = svc.serve_batch(&exec, reqs);
        assert_eq!(outcomes.len(), 4);
        for (i, (out, r)) in outcomes.iter().zip(&ranks).enumerate() {
            assert!(out.is_ok(), "request {i}: {:?}", out.error);
            let got: Vec<f64> = out.hits.iter().map(|h| h.score).collect();
            assert_eq!(
                got,
                brute_top(&data, r, 8),
                "request {i} (order or exactness)"
            );
            assert_eq!(out.stats.emitted, 8);
        }
        let snap = svc.stats();
        assert_eq!(snap.sessions_started, 4);
        assert_eq!(snap.batches_served, 1);
        assert_eq!(snap.requests_served, 4);
        assert_eq!(snap.tuples_emitted, 32);
    }

    #[test]
    fn batch_is_identical_across_pool_widths() {
        let run = |exec: &Executor| -> Vec<Vec<(u32, f64)>> {
            let (svc, _) = service(250, 9007);
            let reqs: Vec<BatchRequest> = (0..6)
                .map(|i| BatchRequest::new(Query::all(), rank(1.0 + f64::from(i), 1.0), 6))
                .collect();
            svc.serve_batch(exec, reqs)
                .into_iter()
                .map(|o| {
                    assert!(o.is_ok(), "{:?}", o.error);
                    o.hits.iter().map(|h| (h.tuple.id.0, h.score)).collect()
                })
                .collect()
        };
        let single = run(&Executor::pool(1));
        let pooled = run(&Executor::pool(4));
        assert_eq!(single, pooled, "pool(4) must match pool(1)");
    }

    #[test]
    fn shared_service_budget_binds_atomically_across_the_batch() {
        // An anti-correlated system ranking forces real spend; the shared
        // cap must stop the whole batch without any session overspending
        // it by more than one in-flight step.
        let data = uniform(400, 2, 1, 9017);
        let server = SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        );
        let svc = RerankService::new(Arc::new(server), 400).with_budget(6);
        let reqs: Vec<BatchRequest> = (0..4)
            .map(|i| BatchRequest::new(Query::all(), rank(1.0, 1.0 + f64::from(i)), 100))
            .collect();
        let exec = Executor::pool(4);
        let outcomes = svc.serve_batch(&exec, reqs);
        let tripped = outcomes
            .iter()
            .filter(|o| matches!(o.error, Some(RerankError::BudgetExhausted { .. })))
            .count();
        assert!(tripped >= 1, "a 6-query cap must trip a 4×top-100 batch");
        // Ledger consistency: per-session spend partitions the global count.
        let spent: u64 = outcomes.iter().map(|o| o.stats.queries_spent).sum();
        assert_eq!(spent, svc.queries_issued());
    }

    /// `max_attempts` is the only bound on recovery: against a dead backend
    /// every request of a batch spends exactly `m - 1` retries, one backoff
    /// sleep each, and surfaces `RetriesExhausted` — never a hang, on any
    /// executor shape.
    #[test]
    fn a_dead_backend_costs_each_request_exactly_its_retry_policy() {
        use qrs_server::{Clock, FaultyServer, MockClock, SearchInterface};
        use qrs_types::RetryPolicy;
        const N: u64 = 6;
        const M: u32 = 4;
        for exec in [Executor::pool(1), Executor::pool(4)] {
            let inner = SimServer::new(uniform(100, 2, 1, 9031), SystemRank::pseudo_random(7), 3);
            let dead = FaultyServer::new(Arc::new(inner) as Arc<dyn SearchInterface>)
                .with_permanent_outage_from(0);
            let clock = Arc::new(MockClock::new());
            let svc = RerankService::new(Arc::new(dead), 100)
                .with_retry_policy(RetryPolicy::none().attempts(M).backoff(10, 1_000))
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
            let reqs: Vec<BatchRequest> = (0..N)
                .map(|i| BatchRequest::new(Query::all(), rank(1.0, 1.0 + i as f64), 5))
                .collect();
            let outcomes = svc.serve_batch(&exec, reqs);
            for (i, out) in outcomes.iter().enumerate() {
                assert!(
                    matches!(
                        out.error,
                        Some(RerankError::RetriesExhausted { attempts: M, .. })
                    ),
                    "{exec:?} request {i}: {:?}",
                    out.error
                );
                assert!(out.hits.is_empty());
                assert_eq!(out.stats.retries_spent, u64::from(M - 1), "{exec:?} {i}");
            }
            let retries = N * u64::from(M - 1);
            assert_eq!(clock.sleeps().len() as u64, retries, "{exec:?}");
            assert_eq!(svc.stats().retries_spent, retries, "{exec:?}");
        }
    }

    #[test]
    fn failed_open_is_an_outcome_not_a_poisoned_batch() {
        let (svc, data) = service(150, 9019);
        let reqs = vec![
            // 1D algorithm with a 2D ranking function: refused at preflight.
            BatchRequest::new(Query::all(), rank(1.0, 1.0), 5)
                .algorithm(Algorithm::OneD(qrs_core::OneDStrategy::Rerank)),
            BatchRequest::new(Query::all(), rank(1.0, 1.0), 5),
        ];
        let exec = Executor::pool(2);
        let outcomes = svc.serve_batch(&exec, reqs);
        assert!(matches!(
            outcomes[0].error,
            Some(RerankError::InvalidAlgorithm { .. })
        ));
        assert!(outcomes[1].is_ok(), "{:?}", outcomes[1].error);
        let got: Vec<f64> = outcomes[1].hits.iter().map(|h| h.score).collect();
        assert_eq!(got, brute_top(&data, &rank(1.0, 1.0), 5));
    }
}
