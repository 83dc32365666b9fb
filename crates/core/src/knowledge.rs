//! Consult-before-spend: the [`KnowledgeGate`] server decorator.
//!
//! The knowledge plane (`qrs-knowledge`) must intercept **every** request a
//! strategy makes, and the built-in cursors issue theirs through the raw
//! server of [`crate::strategy::StrategyIo::raw`] (their top-k queries by
//! way of [`crate::ctx::SharedState::ask`]) rather than the typed helpers —
//! so the interception point is beneath `StrategyIo`: a [`KnowledgeGate`]
//! wraps the real [`SearchInterface`] and is handed to `StrategyIo` in its
//! place. Order per request, whatever its kind (top-k, page or `ORDER BY`
//! page — one body, `KnowledgeGate::consult`):
//!
//! 1. build the request's canonical [`RequestKey`],
//! 2. consult the source's [`SourceShard`] — an exact replay of a paid
//!    answer is returned **without contacting the server**, charging zero
//!    queries and zero cost units while crediting the gate's
//!    `queries_saved`/`cost_units_saved` ledger with what the site would
//!    have billed,
//! 3. on a miss, pay: forward to the inner server and record the response
//!    (successes only — refused requests teach nothing certain).
//!
//! The gate's `queries_issued`/`cost_units_issued` forward to the inner
//! server, so the session layer's in-lock delta attribution keeps working
//! unchanged: knowledge hits add zero to the paid ledger and show up only
//! in the saved one.

use qrs_knowledge::{RequestKey, SourceShard};
use qrs_server::{Capabilities, OrderedPage, SearchInterface};
use qrs_types::{
    AttrId, CostModel, Direction, MutationLog, Query, QueryResponse, RequestKind, Schema,
    ServerError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`SearchInterface`] decorator that answers from a knowledge shard when
/// it can and pays the wrapped server when it must. See the module docs for
/// the consult-before-spend order.
pub struct KnowledgeGate {
    inner: Arc<dyn SearchInterface>,
    shard: Arc<SourceShard>,
    /// The inner server's cost model, captured once: hit pricing must not
    /// pay a capability round-trip per request.
    cost: CostModel,
    queries_saved: AtomicU64,
    cost_units_saved: AtomicU64,
}

impl KnowledgeGate {
    /// Gate `inner` behind `shard`.
    pub fn new(inner: Arc<dyn SearchInterface>, shard: Arc<SourceShard>) -> Self {
        let cost = inner.capabilities().cost;
        let gate = KnowledgeGate {
            inner,
            shard,
            cost,
            queries_saved: AtomicU64::new(0),
            cost_units_saved: AtomicU64::new(0),
        };
        gate.sync();
        gate
    }

    /// Poll the inner server's mutation sequence number and report it to the
    /// shard (advancing the shard's watermark bumps its epoch, invalidating
    /// at once every entry recorded against the older snapshot). Called at
    /// construction and before every request so a gate can never serve
    /// knowledge recorded before a mutation it has already observed. Servers
    /// without a mutation feed report 0 forever, making this a no-op.
    pub fn sync(&self) {
        let seq = self.inner.mutation_seq();
        if seq > 0 {
            self.shard.observe_watermark(seq);
        }
    }

    /// The shard this gate consults.
    pub fn shard(&self) -> &Arc<SourceShard> {
        &self.shard
    }

    /// The wrapped server.
    pub fn inner(&self) -> &Arc<dyn SearchInterface> {
        &self.inner
    }

    /// Queries answered from knowledge instead of the server, so far.
    /// Monotonic; the session layer reads deltas across a cursor step
    /// under the shared-state lock, mirroring how paid queries are
    /// attributed.
    pub fn queries_saved(&self) -> u64 {
        self.queries_saved.load(Ordering::Relaxed)
    }

    /// Cost units those knowledge hits would have been billed, under the
    /// server's advertised cost model.
    pub fn cost_units_saved(&self) -> u64 {
        self.cost_units_saved.load(Ordering::Relaxed)
    }

    /// The consult-before-spend order of the module docs, for every request
    /// kind: sync, look `key` up and credit a hit; on a miss `pay` the inner
    /// server and record what it said.
    fn consult(
        &self,
        key: RequestKey,
        kind: RequestKind,
        q: &Query,
        pay: impl FnOnce() -> Result<QueryResponse, ServerError>,
    ) -> Result<QueryResponse, ServerError> {
        self.sync();
        if let Some(hit) = self.shard.lookup_response(&key, q, self.k()) {
            self.queries_saved.fetch_add(1, Ordering::Relaxed);
            self.cost_units_saved
                .fetch_add(self.cost.charge(q, kind), Ordering::Relaxed);
            return Ok(hit);
        }
        let resp = pay()?;
        self.shard
            .record_response(key, q, self.k(), &resp.tuples, resp.is_overflow());
        Ok(resp)
    }
}

impl SearchInterface for KnowledgeGate {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        let pay = || self.inner.query(q);
        self.consult(RequestKey::top_k(q), RequestKind::TopK, q, pay)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        let pay = || self.inner.query_page(q, page);
        self.consult(RequestKey::page(q, page), RequestKind::Page, q, pay)
    }

    /// An `ORDER BY` page goes through the same body as a response whose
    /// overflow flag is the page's `has_more`.
    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        let key = RequestKey::ordered(q, attr, dir, page);
        let pay = || {
            let paid = self.inner.query_ordered(q, attr, dir, page)?;
            Ok(QueryResponse::new(paid.tuples, paid.has_more))
        };
        let resp = self.consult(key, RequestKind::Ordered, q, pay)?;
        let has_more = resp.is_overflow();
        Ok(OrderedPage {
            tuples: resp.tuples,
            has_more,
        })
    }

    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.inner.mutations_since(since)
    }
}

impl std::fmt::Debug for KnowledgeGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeGate")
            .field("queries_saved", &self.queries_saved())
            .field("cost_units_saved", &self.cost_units_saved())
            .field("shard", &self.shard.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_datagen::synthetic::uniform;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::Interval;

    fn gate(k: usize) -> (KnowledgeGate, Arc<SourceShard>) {
        let data = uniform(120, 2, 1, 2101);
        let server = Arc::new(SimServer::new(data, SystemRank::pseudo_random(3), k));
        let shard = Arc::new(SourceShard::new());
        (
            KnowledgeGate::new(server as Arc<dyn SearchInterface>, Arc::clone(&shard)),
            shard,
        )
    }

    fn narrow() -> Query {
        Query::all().and_range(AttrId(0), Interval::closed(0.2, 0.6))
    }

    #[test]
    fn second_identical_query_is_free_and_identical() {
        let (g, _) = gate(5);
        let q = narrow();
        let cold = g.query(&q).unwrap();
        let paid = g.queries_issued();
        assert_eq!(g.queries_saved(), 0);
        let warm = g.query(&q).unwrap();
        assert_eq!(g.queries_issued(), paid, "hit must not touch the server");
        assert_eq!(g.queries_saved(), 1);
        assert_eq!(g.cost_units_saved(), 1, "flat model: one unit saved");
        assert_eq!(warm.outcome, cold.outcome);
        let ids = |r: &QueryResponse| r.tuples.iter().map(|t| t.id).collect::<Vec<_>>();
        assert_eq!(ids(&warm), ids(&cold));
    }

    #[test]
    fn invalidation_forces_a_paid_refetch() {
        let (g, shard) = gate(5);
        let q = narrow();
        g.query(&q).unwrap();
        let paid = g.queries_issued();
        shard.invalidate();
        g.query(&q).unwrap();
        assert!(g.queries_issued() > paid, "stale knowledge must be re-paid");
        assert_eq!(g.queries_saved(), 0);
    }

    #[test]
    fn mutations_auto_invalidate_cached_knowledge() {
        let data = uniform(120, 2, 1, 2101);
        let server = Arc::new(SimServer::new(data, SystemRank::pseudo_random(3), 5));
        let shard = Arc::new(SourceShard::new());
        let g = KnowledgeGate::new(
            Arc::clone(&server) as Arc<dyn SearchInterface>,
            Arc::clone(&shard),
        );
        let q = narrow();
        let cold = g.query(&q).unwrap();
        assert_eq!(shard.stats().watermark, 0);
        // Delete a tuple the cached answer contains: the next query through
        // the gate must notice the feed moved and re-pay the server — no
        // manual invalidate() call anywhere.
        let victim = cold.tuples[0].id;
        server.delete(victim).expect("victim is present");
        let paid = g.queries_issued();
        let fresh = g.query(&q).unwrap();
        assert!(g.queries_issued() > paid, "stale replay must be re-paid");
        assert_eq!(g.queries_saved(), 0);
        assert_eq!(shard.stats().watermark, 1);
        assert!(fresh.tuples.iter().all(|t| t.id != victim));
        // And the re-recorded answer replays free at the new watermark.
        let paid = g.queries_issued();
        g.query(&q).unwrap();
        assert_eq!(g.queries_issued(), paid);
        assert_eq!(g.queries_saved(), 1);
    }

    #[test]
    fn saved_cost_units_use_the_advertised_model() {
        let data = uniform(120, 2, 1, 2103);
        let server = SimServer::new(data, SystemRank::pseudo_random(3), 5).with_capabilities(
            Capabilities::none().with_cost_model(CostModel::flat().with_base(3).with_range_cost(2)),
        );
        let shard = Arc::new(SourceShard::new());
        let g = KnowledgeGate::new(Arc::new(server), shard);
        let q = narrow(); // one range predicate: 3 + 2 = 5 units
        g.query(&q).unwrap();
        g.query(&q).unwrap();
        assert_eq!(g.queries_saved(), 1);
        assert_eq!(g.cost_units_saved(), 5);
    }
}
