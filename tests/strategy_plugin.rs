//! End-to-end tests for user-registered [`RerankStrategy`] objects: a toy
//! custom strategy plugged in via [`SessionBuilder::strategy`] runs through
//! the full service machinery — planned (`Algorithm::Custom` with the
//! strategy's own estimate), budget-gated per step, ledger-attributed
//! in-lock, retried on transient failures — and its errors surface as
//! typed [`RerankError`]s, never panics.
//!
//! [`SessionBuilder::strategy`]: query_reranking::service::SessionBuilder::strategy

use query_reranking::core::strategy::{
    CostEstimate, PlanContext, RerankStrategy, StrategyIo, StrategyStep,
};
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Capabilities, Clock, Fault, FaultyServer, MockClock, SearchInterface, SimServer, SystemRank,
};
use query_reranking::service::{Algorithm, RerankService};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{
    AttrId, Capability, Query, RequestKind, RerankError, RetryPolicy, Tuple,
};
use std::collections::VecDeque;
use std::sync::Arc;

fn seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x51AB)
}

fn rank2() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]))
}

/// A deliberately naive custom strategy written purely against the typed
/// [`StrategyIo`] surface: page the system ranking to the end of `R(q)`
/// (one page per step, so the driver's budget gates fire between pages),
/// then emit the locally reranked result. Functionally the page-down
/// fallback, but implemented outside the crate — the point is that a
/// third-party strategy plugs into the exact same driver.
struct NaivePager {
    sel: Query,
    rank: Arc<dyn RankFn>,
    next_page: usize,
    buf: Vec<Arc<Tuple>>,
    emitted: VecDeque<Arc<Tuple>>,
    drained: bool,
}

impl NaivePager {
    fn new(sel: Query, rank: Arc<dyn RankFn>) -> Self {
        NaivePager {
            sel,
            rank,
            next_page: 0,
            buf: Vec::new(),
            emitted: VecDeque::new(),
            drained: false,
        }
    }
}

impl RerankStrategy for NaivePager {
    fn name(&self) -> &str {
        "naive-pager"
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        CostEstimate::priced(
            ctx.drain_pages(),
            &ctx.caps.cost,
            ctx.server_query,
            RequestKind::Page,
        )
    }

    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        if !self.drained {
            let resp = io.page(&self.sel, self.next_page)?;
            self.next_page += 1;
            self.buf.extend(resp.tuples.iter().cloned());
            if !resp.is_overflow() {
                self.drained = true;
                let rank = Arc::clone(&self.rank);
                self.buf
                    .sort_by(|a, b| cmp_f64(rank.score(a), rank.score(b)).then(a.id.cmp(&b.id)));
                self.buf.dedup_by_key(|t| t.id);
                self.emitted = self.buf.drain(..).collect();
            }
            return Ok(StrategyStep::Progress);
        }
        Ok(match self.emitted.pop_front() {
            Some(t) => StrategyStep::Emit(t),
            None => StrategyStep::Exhausted,
        })
    }
}

/// A strategy that always asks for something the server refuses — its
/// failure must surface as the typed capability error, not a panic.
struct OrderByDemander;

impl RerankStrategy for OrderByDemander {
    fn name(&self) -> &str {
        "order-by-demander"
    }
    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        CostEstimate::priced(1, &ctx.caps.cost, ctx.server_query, RequestKind::Ordered)
    }
    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        io.ordered(
            &Query::all(),
            AttrId(0),
            query_reranking::types::Direction::Asc,
            0,
        )?;
        Ok(StrategyStep::Progress)
    }
}

fn service(n: usize, k: usize, s: u64) -> RerankService {
    let data = uniform(n, 2, 1, s);
    let server = SimServer::new(
        data,
        SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
        k,
    )
    .with_capabilities(Capabilities::none().with_paging());
    RerankService::new(Arc::new(server), n)
}

#[test]
fn custom_strategy_runs_end_to_end_and_is_exact() {
    let (n, k, h) = (120, 5, 10);
    let s = seed();
    let data = uniform(n, 2, 1, s);
    let rank = rank2();
    let truth: Vec<u32> = {
        let rank = Arc::clone(&rank);
        data.rank_by(&Query::all(), move |t| rank.score(t))
            .iter()
            .take(h)
            .map(|t| t.id.0)
            .collect()
    };
    let svc = service(n, k, s);
    let builder = svc
        .session(Query::all(), Arc::clone(&rank))
        .strategy(Box::new(NaivePager::new(Query::all(), Arc::clone(&rank))));
    // plan() reports the custom strategy: its name, its own estimate.
    let plan = builder.plan().unwrap();
    assert!(matches!(plan.algorithm, Algorithm::Custom));
    assert_eq!(plan.candidates.len(), 1);
    assert_eq!(plan.candidates[0].name, "naive-pager");
    assert_eq!(plan.estimate.queries, (n as u64).div_ceil(k as u64));
    let mut sess = builder.open().unwrap();
    let (hits, err) = sess.top(h);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<u32> = hits.iter().map(|r| r.tuple.id.0).collect();
    assert_eq!(got, truth, "custom strategy must stream the oracle order");
    // Ledger attribution flows through the same in-lock metering.
    assert_eq!(sess.queries_spent(), (n as u64).div_ceil(k as u64));
    assert_eq!(sess.queries_spent(), svc.queries_issued());
    assert_eq!(sess.stats().cost_units_spent, sess.cost_units_spent());
    assert_eq!(svc.stats().queries_spent, sess.queries_spent());
}

#[test]
fn custom_strategy_is_budget_gated_per_step() {
    let s = seed();
    let svc = service(200, 5, s.wrapping_add(1));
    let rank = rank2();
    let mut sess = svc
        .session(Query::all(), Arc::clone(&rank))
        .strategy(Box::new(NaivePager::new(Query::all(), rank)))
        .budget(7)
        .open()
        .unwrap();
    let err = sess.next().unwrap_err();
    match err {
        RerankError::BudgetExhausted { spent, limit } => {
            assert_eq!(limit, 7);
            assert!(spent >= 7);
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    // The gate fired between steps: exactly the budgeted pages were paid.
    assert_eq!(sess.queries_spent(), 7);
    // The service-wide budget gates custom strategies identically.
    let svc = service(200, 5, s.wrapping_add(2)).with_budget(3);
    let rank = rank2();
    let mut sess = svc
        .session(Query::all(), Arc::clone(&rank))
        .strategy(Box::new(NaivePager::new(Query::all(), rank)))
        .open()
        .unwrap();
    assert!(matches!(
        sess.next().unwrap_err(),
        RerankError::BudgetExhausted { limit: 3, .. }
    ));
}

#[test]
fn custom_strategy_errors_surface_typed() {
    let s = seed();
    // NaivePager against a site with no paging: the very first step's
    // typed refusal comes straight through.
    let data = uniform(60, 2, 1, s.wrapping_add(3));
    let server = SimServer::new(data, SystemRank::pseudo_random(7), 5); // no paging
    let svc = RerankService::new(Arc::new(server), 60);
    let rank = rank2();
    let mut sess = svc
        .session(Query::all(), Arc::clone(&rank))
        .strategy(Box::new(NaivePager::new(Query::all(), Arc::clone(&rank))))
        .open()
        .unwrap();
    assert_eq!(
        sess.next().unwrap_err(),
        RerankError::UnsupportedCapability(Capability::Paging)
    );
    assert_eq!(sess.queries_spent(), 0, "refusals are uncharged");
    // And a strategy demanding an unadvertised ORDER BY: same shape.
    let mut sess = svc
        .session(Query::all(), rank)
        .strategy(Box::new(OrderByDemander))
        .open()
        .unwrap();
    assert_eq!(
        sess.next().unwrap_err(),
        RerankError::UnsupportedCapability(Capability::OrderBy(AttrId(0)))
    );
}

#[test]
fn custom_strategy_transient_failures_are_retried_like_builtins() {
    let s = seed();
    let data = uniform(100, 2, 1, s.wrapping_add(4));
    let inner = Arc::new(
        SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            5,
        )
        .with_capabilities(Capabilities::none().with_paging()),
    );
    let faulty = FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>).with_storm(
        2,
        2,
        Fault::Outage,
    );
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::new(faulty), 100)
        .with_retry_policy(RetryPolicy::none().attempts(5).backoff(50, 5_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let rank = rank2();
    let mut sess = svc
        .session(Query::all(), Arc::clone(&rank))
        .strategy(Box::new(NaivePager::new(Query::all(), rank)))
        .open()
        .unwrap();
    let (hits, err) = sess.top(5);
    assert!(err.is_none(), "the storm must be absorbed: {err:?}");
    assert_eq!(hits.len(), 5);
    assert_eq!(sess.retries_spent(), 2);
    // The backoff slept on the injectable clock, not wall time.
    assert_eq!(clock.sleeps().len(), 2);
}

#[test]
fn explicit_custom_algorithm_without_a_strategy_is_a_typed_misuse() {
    let svc = service(50, 5, seed().wrapping_add(5));
    let err = svc
        .session(Query::all(), rank2())
        .algorithm(Algorithm::Custom)
        .open()
        .unwrap_err();
    assert!(
        matches!(err, RerankError::InvalidAlgorithm { ref reason }
            if reason.contains("strategy")),
        "wrong error: {err}"
    );
    assert_eq!(svc.stats().sessions_started, 0);
}
