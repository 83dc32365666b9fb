//! The simulated hidden web database (the paper's §6.1 offline setup).
//!
//! [`SimServer`] owns a [`Dataset`], a proprietary [`SystemRank`] and the
//! interface constant `k`. The answer to a query is its first `k` matches in
//! system-rank order — exactly what a ranked-retrieval backend returns — and
//! the response is flagged *overflow* iff a `(k+1)`-th match exists. Every
//! query bumps an atomic counter; the counter is the experiment metric.
//!
//! How the answer is found depends on how narrow the query is, because the
//! paper's algorithms are built out of narrow ones (1D-BINARY's probes, MD's
//! shrinking boxes, the dense crawls) and its §6.1 sites hold up to 457 013
//! tuples. The store keeps each ordinal attribute's sorted order, so the
//! tuples one range predicate admits are a slice of it, its *span*, found by
//! two binary searches. With `c_i` tuples in the span of each of the
//! query's `m` range predicates, `c_min` the fewest, `n` tuples and `want = k + 1`
//! matches to find, a walk of the system order expects `want / Π (c_i / n)`
//! steps to its last match when the predicates are independent. The server
//! takes the cheaper side: when `c_min · Π (c_i / n) ≤ want` it filters the
//! shortest span by the whole query and keeps its `want` best system ranks;
//! otherwise — a wide query, or one with no range predicate — it walks the
//! system order and stops at the `want`-th match. For one predicate the rule
//! is `c² ≤ want · n`. A box narrow on several axes at once is answered
//! from its span even where each axis alone is wide. The span side checks
//! `c_min ≤ n` tuples, never more than the walk's worst case. Both sides
//! return the same tuples in the same order with the same flag; the rule
//! reads the spans, `want` and `n` and nothing else.
//!
//! Restriction realism: the server holds one [`Capabilities`]
//! ([`SimServer::with_capabilities`]; a bare §2.1 interface by default),
//! advertises it and admits every request by it, so it refuses — uncharged
//! and typed — exactly what it does not advertise.
//!
//! Failure realism lives in [`crate::FaultyServer`], which wraps any site
//! with scripted or seeded refusals (rate limits, outages, truncated
//! pages); the simulated site answers every query it admits.
//!
//! Data-change realism: the inventory is *mutable*. [`SimServer::insert`],
//! [`SimServer::delete`] and [`SimServer::update`] commit sequence-stamped
//! changes (rebuilding the rank indexes under one write lock, so queries
//! always see a consistent snapshot) and the server advertises
//! [`Capability::MutationFeed`]: clients poll
//! [`SearchInterface::mutations_since`] with their last watermark and
//! delta-repair instead of re-driving. A capped log
//! ([`SimServer::with_mutation_log_cap`]) models real feeds that compact —
//! stragglers see [`MutationLog::gap`] and rebuild.

use crate::interface::{Capabilities, OrderedPage, SearchInterface};
use crate::system_rank::SystemRank;
use parking_lot::{Mutex, RwLock};
use qrs_types::value::OrdF64;
use qrs_types::{
    AttrId, Capability, CostModel, Dataset, Direction, Endpoint, FilterSupport, Interval, Mutation,
    MutationKind, MutationLog, Query, QueryResponse, RequestKind, Schema, ServerError, Tuple,
    TupleId, TypeError,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The mutable backing store: tuples plus the derived rank indexes and the
/// retained mutation log, all swapped under one write lock so queries always
/// see a consistent snapshot.
#[derive(Debug)]
struct Store {
    tuples: Vec<Arc<Tuple>>,
    /// Tuple indices sorted by ascending system score (ties by id).
    system_order: Vec<u32>,
    /// The inverse of `system_order`: tuple index → its system rank.
    rank_of: Vec<u32>,
    /// Per-ordinal-attribute index sorted ascending by value (ties by id):
    /// the order `ORDER BY` pages walk and [`Store::span`] searches.
    attr_order: Vec<Vec<u32>>,
    /// Sequence-stamped change log, oldest first, contiguous in `seq`.
    deltas: VecDeque<Mutation>,
}

impl Store {
    /// Derive `system_order`, `rank_of` and `attr_order` from the current
    /// tuple set: m + 1 sorts and one O(n) pass for the inverse. A mutation
    /// rebuilds all of it, exactly as `SimServer::new` does: that is measured
    /// (`server.mutate_us`) but on no request's clock, so nothing patches the
    /// orders in place.
    fn rebuild_orders(&mut self, schema: &Schema, system_rank: &SystemRank) {
        self.system_order = order_by(&self.tuples, |t| system_rank.score(t));
        self.rank_of = vec![0; self.tuples.len()];
        for (rank, &i) in self.system_order.iter().enumerate() {
            self.rank_of[i as usize] = rank as u32;
        }
        self.attr_order = schema
            .attr_ids()
            .map(|attr| order_by(&self.tuples, |t| t.ord(attr)))
            .collect();
    }

    /// The tuples whose `attr` value lies in `iv`, as a slice of that
    /// attribute's order: exactly what the one predicate admits, because
    /// both ends are found with [`Interval::contains`] itself. An empty or
    /// inverted interval gives an empty slice.
    fn span(&self, attr: AttrId, iv: &Interval) -> &[u32] {
        let order = &self.attr_order[attr.0];
        let value = |i: &u32| self.tuples[*i as usize].ord(attr);
        // `iv` one bound at a time: values below `from` come first, then
        // those inside, then those above `upto`.
        let (mut from, mut upto) = (*iv, *iv);
        (from.hi, upto.lo) = (Endpoint::Unbounded, Endpoint::Unbounded);
        let start = order.partition_point(|i| !from.contains(value(i)));
        let end = order.partition_point(|i| upto.contains(value(i)));
        &order[start..end.max(start)]
    }

    /// Matching tuples in system-rank order, lazily.
    fn matches_in_system_order<'a>(
        &'a self,
        q: &'a Query,
    ) -> impl Iterator<Item = &'a Arc<Tuple>> + 'a {
        self.system_order
            .iter()
            .map(move |&i| &self.tuples[i as usize])
            .filter(move |t| q.matches(t))
    }

    /// The matches of `q` at positions `skip..skip + limit` of its answer in
    /// system-rank order, and whether one more follows them.
    ///
    /// With `c_i` tuples in the [`Store::span`] of each of `q`'s `m` range
    /// predicates, `c_min` the fewest, `n` tuples and `want = skip + limit + 1`
    /// matches to find (module docs): when `c_min · Π (c_i / n) ≤ want`,
    /// taken as `c_min · Π c_i ≤ want · n^m`, filter the shortest span and
    /// keep its `want` best system ranks; otherwise walk the system order to
    /// the `want`-th match.
    fn top(&self, q: &Query, skip: usize, limit: usize) -> (Vec<Arc<Tuple>>, bool) {
        let want = skip.saturating_add(limit).saturating_add(1);
        let n = self.tuples.len() as f64;
        // `Π c_i` and `want · n^m`, a factor per predicate.
        let (mut tightest, mut spans, mut walk) = (None::<&[u32]>, 1.0, want as f64);
        for p in q.ranges().iter().filter(|p| !p.interval.is_all()) {
            let span = self.span(p.attr, &p.interval);
            (spans, walk) = (spans * span.len() as f64, walk * n);
            if tightest.is_none_or(|t| span.len() < t.len()) {
                tightest = Some(span);
            }
        }
        match tightest {
            Some(span) if span.len() as f64 * spans <= walk => {
                let mut ranks: Vec<u32> = span
                    .iter()
                    .filter(|&&i| q.matches(&self.tuples[i as usize]))
                    .map(|&i| self.rank_of[i as usize])
                    .collect();
                if ranks.len() > want {
                    ranks.select_nth_unstable(want - 1);
                    ranks.truncate(want);
                }
                ranks.sort_unstable();
                let ranked = ranks
                    .iter()
                    .map(|&r| &self.tuples[self.system_order[r as usize] as usize]);
                window(ranked, skip, limit)
            }
            _ => window(self.matches_in_system_order(q), skip, limit),
        }
    }
}

/// Tuple indices sorted ascending by `key`, ties by id; each key is computed
/// once.
fn order_by(tuples: &[Arc<Tuple>], key: impl Fn(&Tuple) -> f64) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..tuples.len() as u32).collect();
    idx.sort_by_cached_key(|&i| {
        let t = &tuples[i as usize];
        (OrdF64(key(t)), t.id)
    });
    idx
}

/// Cut `skip..skip + limit` out of `matches`, and say whether one more
/// followed.
fn window<'a>(
    matches: impl Iterator<Item = &'a Arc<Tuple>>,
    skip: usize,
    limit: usize,
) -> (Vec<Arc<Tuple>>, bool) {
    let mut out: Vec<_> = matches.skip(skip).take(limit + 1).cloned().collect();
    let more = out.len() > limit;
    out.truncate(limit);
    (out, more)
}

/// Builder-configured simulated server.
#[derive(Debug)]
pub struct SimServer {
    schema: Arc<Schema>,
    store: RwLock<Store>,
    /// Sequence number of the latest committed mutation (0 = pristine).
    /// Mutators serialize on the store's write lock, so the counter is
    /// never contended; it is atomic only so watermark reads are lock-free.
    seq: AtomicU64,
    /// Retain at most this many mutation-log entries (None = unbounded).
    /// Compaction past a client's watermark surfaces as `MutationLog::gap`.
    mutation_log_cap: Option<usize>,
    k: usize,
    counter: AtomicU64,
    /// The site model, advertised and enforced as one value: what
    /// `capabilities()` reports is what `charge` admits, and `site.cost`
    /// is what the weighted ledger bills by.
    site: Capabilities,
    /// What `capabilities()` *advertises* when it differs from what
    /// `site.cost` actually bills (None = honest site). The drift hook
    /// the mispriced-site tests lean on: a stale public price list over
    /// live metered billing.
    advertised_cost: Option<CostModel>,
    /// Weighted cost units charged so far, under `site.cost`.
    cost_counter: AtomicU64,
    system_rank: SystemRank,
    /// Log of issued queries (enabled in tests/debug experiments only).
    log: Option<Mutex<Vec<Query>>>,
}

impl SimServer {
    /// A server answering with at most `k` tuples ranked by `system_rank`.
    pub fn new(dataset: Dataset, system_rank: SystemRank, k: usize) -> Self {
        assert!(k >= 1, "the interface k must be at least 1");
        let schema = Arc::clone(dataset.schema());
        let mut store = Store {
            tuples: dataset.tuples().to_vec(),
            system_order: Vec::new(),
            rank_of: Vec::new(),
            attr_order: Vec::new(),
            deltas: VecDeque::new(),
        };
        store.rebuild_orders(&schema, &system_rank);
        SimServer {
            schema,
            store: RwLock::new(store),
            seq: AtomicU64::new(0),
            mutation_log_cap: None,
            k,
            counter: AtomicU64::new(0),
            site: Capabilities::none(),
            advertised_cost: None,
            cost_counter: AtomicU64::new(0),
            system_rank,
            log: None,
        }
        .with_capabilities(Capabilities::none())
    }

    /// Serve the site model `caps` — paging, `ORDER BY`, depth and arity
    /// caps, filter support, the cost model the ledger bills by — and
    /// refuse, uncharged, whatever [`Capabilities::admit`] and
    /// [`Capabilities::admit_depth`] refuse. Fitted to the schema once,
    /// here: a `point_only` attribute takes at most
    /// [`FilterSupport::Point`] (the §5 contract binds regardless), filters
    /// keep attribute order, and the mutation feed is always on.
    ///
    /// # Panics
    /// If `caps` caps pages or predicates at zero ([`Capabilities::check`]).
    pub fn with_capabilities(mut self, caps: Capabilities) -> Self {
        caps.check().unwrap_or_else(|e| panic!("{e}"));
        let filters = self
            .schema
            .attr_ids()
            .filter_map(|attr| {
                let mut support = caps.filter_support(attr);
                if self.schema.ordinal(attr).point_only {
                    support = support.min(FilterSupport::Point);
                }
                (support != FilterSupport::Range).then_some((attr, support))
            })
            .collect();
        self.site = Capabilities {
            filters,
            mutation_feed: true,
            ..caps
        };
        self
    }

    /// Advertise `model` through [`SearchInterface::capabilities`] while
    /// the cost model of [`SimServer::with_capabilities`] keeps charging
    /// the ledger — a site whose public price list went stale. The
    /// planner prices candidates under the advertised lie; the fleet
    /// monitor's actual cost, settled from charged deltas, shows the gap.
    pub fn with_advertised_cost(mut self, model: CostModel) -> Self {
        self.advertised_cost = Some(model);
        self
    }

    /// Record every issued query (for tests asserting query shapes).
    pub fn with_query_log(mut self) -> Self {
        self.log = Some(Mutex::new(Vec::new()));
        self
    }

    /// Retain at most `n` mutation-log entries. Clients whose watermark
    /// falls behind the compacted prefix get [`MutationLog::gap`] from
    /// [`SearchInterface::mutations_since`] and must rebuild from scratch.
    pub fn with_mutation_log_cap(mut self, n: usize) -> Self {
        self.mutation_log_cap = Some(n);
        self
    }

    /// A snapshot of the backing data as of now (test/experiment ground
    /// truth — a real hidden database would not expose this). Tuples are
    /// `Arc`-shared with the store, so the copy is shallow.
    pub fn dataset(&self) -> Dataset {
        let store = self.store.read();
        Dataset::from_shared(Arc::clone(&self.schema), store.tuples.clone())
    }

    /// Insert a new tuple. Returns the mutation's sequence number, or a
    /// typed error if the tuple fails schema validation or its id is
    /// already present.
    pub fn insert(&self, t: Tuple) -> Result<u64, TypeError> {
        Dataset::validate_tuple(&self.schema, &t)?;
        let mut store = self.store.write();
        if store.tuples.iter().any(|e| e.id == t.id) {
            return Err(TypeError::DuplicateTupleId { id: t.id });
        }
        let t = Arc::new(t);
        store.tuples.push(Arc::clone(&t));
        Ok(self.commit(&mut store, MutationKind::Insert(t)))
    }

    /// Delete the tuple with `id`. Returns the mutation's sequence number,
    /// or `None` (and no mutation) when the id is not present.
    pub fn delete(&self, id: TupleId) -> Option<u64> {
        let mut store = self.store.write();
        let pos = store.tuples.iter().position(|e| e.id == id)?;
        store.tuples.remove(pos);
        Some(self.commit(&mut store, MutationKind::Delete(id)))
    }

    /// Replace the tuple with `t.id` by `t` — delete-then-insert under one
    /// sequence number. Returns the mutation's sequence number, or a typed
    /// error if `t` fails schema validation or its id is not present.
    pub fn update(&self, t: Tuple) -> Result<u64, TypeError> {
        Dataset::validate_tuple(&self.schema, &t)?;
        let mut store = self.store.write();
        let Some(pos) = store.tuples.iter().position(|e| e.id == t.id) else {
            return Err(TypeError::UnknownTupleId { id: t.id });
        };
        let t = Arc::new(t);
        store.tuples[pos] = Arc::clone(&t);
        Ok(self.commit(&mut store, MutationKind::Update(t)))
    }

    /// Finish a mutation while still holding the write lock: rebuild the
    /// rank indexes, stamp the next sequence number, append to the retained
    /// log and compact it to the configured cap.
    fn commit(&self, store: &mut Store, kind: MutationKind) -> u64 {
        store.rebuild_orders(&self.schema, &self.system_rank);
        // Mutators serialize on the write lock, so this cannot race another
        // commit; Release pairs with the Acquire in `mutation_seq`.
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        store.deltas.push_back(Mutation { seq, kind });
        if let Some(cap) = self.mutation_log_cap {
            while store.deltas.len() > cap {
                store.deltas.pop_front();
            }
        }
        seq
    }

    /// The proprietary ranking (exposed for experiment labeling only).
    pub fn system_rank(&self) -> &SystemRank {
        &self.system_rank
    }

    /// Drain the query log (requires [`SimServer::with_query_log`]).
    pub fn take_log(&self) -> Vec<Query> {
        self.log
            .as_ref()
            .map(|l| std::mem::take(&mut *l.lock()))
            .unwrap_or_default()
    }

    /// Admit (and charge) a query, or refuse it. Refused queries are not
    /// charged — to either ledger: the backend rejected them before doing
    /// any work. Admitted ones charge the raw counter by 1 and the
    /// weighted ledger by the cost model's price for `(q, kind)`.
    fn charge(&self, q: &Query, kind: RequestKind) -> Result<(), ServerError> {
        // NaN endpoints and attributes outside the schema violate the
        // interface contract outright (the first matches a surprising set,
        // the second would index past every per-attribute structure below);
        // refuse them uncharged before any site-model negotiation.
        q.validate(&self.schema)?;
        self.site.admit(q)?;
        self.counter.fetch_add(1, Ordering::Relaxed);
        self.cost_counter
            .fetch_add(self.site.cost.charge(q, kind), Ordering::Relaxed);
        if let Some(log) = &self.log {
            log.lock().push(q.clone());
        }
        Ok(())
    }
}

impl SearchInterface for SimServer {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn k(&self) -> usize {
        self.k
    }

    fn capabilities(&self) -> Capabilities {
        let mut site = self.site.clone();
        if let Some(cost) = &self.advertised_cost {
            site.cost = cost.clone();
        }
        site
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        self.charge(q, RequestKind::TopK)?;
        let (tuples, overflow) = self.store.read().top(q, 0, self.k);
        Ok(QueryResponse::new(tuples, overflow))
    }

    fn queries_issued(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    fn cost_units_issued(&self) -> u64 {
        self.cost_counter.load(Ordering::Relaxed)
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        self.site.require(Capability::Paging)?;
        self.site.admit_depth(page.saturating_add(1))?;
        self.charge(q, RequestKind::Page)?;
        let skip = page.saturating_mul(self.k);
        let (tuples, overflow) = self.store.read().top(q, skip, self.k);
        Ok(QueryResponse::new(tuples, overflow))
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        self.site.require(Capability::OrderBy(attr))?;
        self.site.admit_depth(page.saturating_add(1))?;
        self.charge(q, RequestKind::Ordered)?;
        let store = self.store.read();
        // Only what `q` admits on `attr` can match; walk that, either way.
        let span = store.span(attr, &q.interval(attr));
        let matches = (0..span.len())
            .map(|j| match dir {
                Direction::Asc => span[j],
                Direction::Desc => span[span.len() - 1 - j],
            })
            .map(|i| &store.tuples[i as usize])
            .filter(|t| q.matches(t));
        let (tuples, has_more) = window(matches, page.saturating_mul(self.k), self.k);
        Ok(OrderedPage { tuples, has_more })
    }

    fn mutation_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        let store = self.store.read();
        let current = self.seq.load(Ordering::Acquire);
        // The retained log is contiguous; a gap means compaction discarded
        // deltas the caller has not seen, so exact replay is impossible.
        let first_retained = store.deltas.front().map(|m| m.seq).unwrap_or(current + 1);
        let gap = since < current && since + 1 < first_retained;
        let deltas = store
            .deltas
            .iter()
            .filter(|m| m.seq > since)
            .cloned()
            .collect();
        Ok(MutationLog { deltas, gap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{Interval, OrdinalAttr, QueryOutcome, TupleId};

    fn server(k: usize) -> SimServer {
        // 10 tuples with x = 0..9; system rank = descending x (adversarial
        // for an ascending user preference).
        let schema = Schema::new(vec![OrdinalAttr::new("x", 0.0, 9.0)], vec![]);
        let tuples = (0..10)
            .map(|i| Tuple::new(TupleId(i), vec![f64::from(i)], vec![]))
            .collect();
        let ds = Dataset::new(schema, tuples).unwrap();
        SimServer::new(ds, SystemRank::by_attr_desc(AttrId(0)), k)
    }

    /// System-ranking pages plus public `ORDER BY` on `x`.
    fn paged_and_sorted() -> Capabilities {
        Capabilities::none()
            .with_paging()
            .with_order_by(vec![AttrId(0)])
    }

    #[test]
    fn overflow_valid_underflow() {
        let s = server(3);
        let all = s.query(&Query::all()).unwrap();
        assert_eq!(all.outcome, QueryOutcome::Overflow);
        assert_eq!(all.tuples.len(), 3);
        // System rank descending: returns x = 9, 8, 7.
        let xs: Vec<f64> = all.tuples.iter().map(|t| t.ord(AttrId(0))).collect();
        assert_eq!(xs, vec![9.0, 8.0, 7.0]);

        let narrow = Query::all().and_range(AttrId(0), Interval::open(3.5, 6.5));
        let r = s.query(&narrow).unwrap();
        assert_eq!(r.outcome, QueryOutcome::Valid);
        assert_eq!(r.tuples.len(), 3);

        let empty = Query::all().and_range(AttrId(0), Interval::open(100.0, 200.0));
        assert_eq!(s.query(&empty).unwrap().outcome, QueryOutcome::Underflow);
        assert_eq!(s.queries_issued(), 3);
    }

    #[test]
    fn exactly_k_matches_is_valid_not_overflow() {
        let s = server(3);
        let q = Query::all().and_range(AttrId(0), Interval::closed(0.0, 2.0));
        let r = s.query(&q).unwrap();
        assert_eq!(r.outcome, QueryOutcome::Valid);
        assert_eq!(r.tuples.len(), 3);
    }

    #[test]
    fn paging_walks_system_order() {
        let s = server(3).with_capabilities(Capabilities::none().with_paging());
        assert!(s.capabilities().supports(Capability::Paging));
        let p0 = s.query_page(&Query::all(), 0).unwrap();
        let p1 = s.query_page(&Query::all(), 1).unwrap();
        let p3 = s.query_page(&Query::all(), 3).unwrap();
        assert!(p0.is_overflow());
        let x1: Vec<f64> = p1.tuples.iter().map(|t| t.ord(AttrId(0))).collect();
        assert_eq!(x1, vec![6.0, 5.0, 4.0]);
        // Last page: only one tuple left, not an overflow.
        assert_eq!(p3.tuples.len(), 1);
        assert!(p3.is_valid());
        assert_eq!(s.queries_issued(), 3);
    }

    #[test]
    fn paging_refused_without_capability() {
        let s = server(3);
        assert_eq!(
            s.query_page(&Query::all(), 0).unwrap_err(),
            ServerError::Unsupported(Capability::Paging)
        );
        // Refused requests are not charged.
        assert_eq!(s.queries_issued(), 0);
    }

    #[test]
    fn order_by_pages_both_directions() {
        let s = server(4).with_capabilities(paged_and_sorted());
        assert!(s.capabilities().supports(Capability::OrderBy(AttrId(0))));
        let asc = s
            .query_ordered(&Query::all(), AttrId(0), Direction::Asc, 0)
            .unwrap();
        let xs: Vec<f64> = asc.tuples.iter().map(|t| t.ord(AttrId(0))).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 3.0]);
        assert!(asc.has_more);
        let desc = s
            .query_ordered(&Query::all(), AttrId(0), Direction::Desc, 2)
            .unwrap();
        let xs: Vec<f64> = desc.tuples.iter().map(|t| t.ord(AttrId(0))).collect();
        assert_eq!(xs, vec![1.0, 0.0]);
        assert!(!desc.has_more);
    }

    #[test]
    fn order_by_refused_on_unadvertised_attribute() {
        let s = server(4).with_capabilities(paged_and_sorted());
        assert_eq!(
            s.query_ordered(&Query::all(), AttrId(1), Direction::Asc, 0)
                .unwrap_err(),
            ServerError::Unsupported(Capability::OrderBy(AttrId(1)))
        );
    }

    #[test]
    fn point_only_contract_is_a_typed_refusal() {
        let schema = Schema::new(
            vec![OrdinalAttr::point_only(
                "grade",
                vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            )],
            vec![],
        );
        let ds = Dataset::new(schema, vec![Tuple::new(TupleId(0), vec![1.0], vec![])]).unwrap();
        let s = SimServer::new(ds, SystemRank::pseudo_random(1), 2);
        // The same refusal a dropdown attribute configured by hand gives.
        let err = s
            .query(&Query::all().and_range(AttrId(0), Interval::open(0.0, 3.0)))
            .unwrap_err();
        assert_eq!(
            err,
            ServerError::Unsupported(Capability::RangeFilter(AttrId(0)))
        );
        assert_eq!(s.queries_issued(), 0);
    }

    #[test]
    fn predicate_arity_cap_refuses_wide_queries_uncharged() {
        let schema = Schema::new(
            vec![
                OrdinalAttr::new("x", 0.0, 9.0),
                OrdinalAttr::new("y", 0.0, 9.0),
                OrdinalAttr::new("z", 0.0, 9.0),
            ],
            vec![],
        );
        let tuples = (0..5)
            .map(|i| Tuple::new(TupleId(i), vec![f64::from(i); 3], vec![]))
            .collect();
        let ds = Dataset::new(schema, tuples).unwrap();
        let s = SimServer::new(ds, SystemRank::pseudo_random(3), 2)
            .with_capabilities(Capabilities::none().with_max_predicates(2));
        let wide = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 5.0))
            .and_range(AttrId(1), Interval::open(0.0, 5.0))
            .and_range(AttrId(2), Interval::open(0.0, 5.0));
        assert_eq!(
            s.query(&wide).unwrap_err(),
            ServerError::Unsupported(Capability::PredicateArity(3))
        );
        assert_eq!(s.queries_issued(), 0);
        // Two predicates pass.
        let narrow = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 5.0))
            .and_range(AttrId(1), Interval::open(0.0, 5.0));
        assert!(s.query(&narrow).is_ok());
        assert!(!s.capabilities().supports(Capability::PredicateArity(3)));
    }

    #[test]
    fn filter_support_restrictions_refuse_with_the_missing_capability() {
        let dropdown = |support| Capabilities::none().with_filter(AttrId(0), support);
        let s = server(3)
            .with_capabilities(dropdown(FilterSupport::Point))
            .with_query_log();
        // A true range on a point-only filter: refused, names RangeFilter.
        let err = s
            .query(&Query::all().and_range(AttrId(0), Interval::open(1.0, 4.0)))
            .unwrap_err();
        assert_eq!(
            err,
            ServerError::Unsupported(Capability::RangeFilter(AttrId(0)))
        );
        // A point predicate passes.
        assert!(s
            .query(&Query::all().and_range(AttrId(0), Interval::point(4.0)))
            .is_ok());
        // A browse-only attribute refuses even point predicates.
        let s = server(3).with_capabilities(dropdown(FilterSupport::None));
        let err = s
            .query(&Query::all().and_range(AttrId(0), Interval::point(4.0)))
            .unwrap_err();
        assert_eq!(
            err,
            ServerError::Unsupported(Capability::PointFilter(AttrId(0)))
        );
        // The unconstrained query still works — and nothing was charged
        // for the refusals.
        assert!(s.query(&Query::all()).is_ok());
        assert_eq!(s.queries_issued(), 1);
    }

    #[test]
    fn page_depth_cap_refuses_deep_pages_uncharged() {
        let s = server(3).with_capabilities(paged_and_sorted().with_max_pages(2));
        assert!(s.query_page(&Query::all(), 0).is_ok());
        assert!(s.query_page(&Query::all(), 1).is_ok());
        assert_eq!(
            s.query_page(&Query::all(), 2).unwrap_err(),
            ServerError::Unsupported(Capability::PageDepth(3))
        );
        // `ORDER BY` pages hit the same wall.
        assert!(s
            .query_ordered(&Query::all(), AttrId(0), Direction::Asc, 1)
            .is_ok());
        assert_eq!(
            s.query_ordered(&Query::all(), AttrId(0), Direction::Asc, 2)
                .unwrap_err(),
            ServerError::Unsupported(Capability::PageDepth(3))
        );
        assert_eq!(s.queries_issued(), 3);
        let caps = s.capabilities();
        assert!(caps.supports(Capability::PageDepth(2)));
        assert!(!caps.supports(Capability::PageDepth(3)));
    }

    #[test]
    fn capabilities_advertise_the_full_site_model() {
        let schema = Schema::new(
            vec![
                OrdinalAttr::new("price", 0.0, 9.0),
                OrdinalAttr::point_only("grade", vec![1.0, 2.0, 3.0]),
            ],
            vec![],
        );
        let ds =
            Dataset::new(schema, vec![Tuple::new(TupleId(0), vec![1.0, 2.0], vec![])]).unwrap();
        let s = SimServer::new(ds, SystemRank::pseudo_random(1), 4).with_capabilities(
            Capabilities::none()
                .with_paging()
                .with_max_pages(20)
                .with_max_predicates(3),
        );
        let caps = s.capabilities();
        assert_eq!(caps.max_pages, Some(20));
        assert_eq!(caps.max_predicates, Some(3));
        // Schema point_only degrades the advertised filter support.
        assert_eq!(caps.filters, vec![(AttrId(1), FilterSupport::Point)]);
        assert!(caps.supports(Capability::MutationFeed));
    }

    #[test]
    fn advertisement_never_exceeds_enforcement_on_point_only_attrs() {
        // A Range override on a schema point_only attribute must not make
        // capabilities() advertise what the server refuses: the site is
        // clamped to Point when it is set. Overrides outside the schema
        // and explicit Range entries are dropped; the rest keep attribute
        // order.
        let schema = Schema::new(
            vec![
                OrdinalAttr::new("price", 0.0, 9.0),
                OrdinalAttr::point_only("grade", vec![1.0, 2.0, 3.0]),
                OrdinalAttr::new("age", 0.0, 9.0),
            ],
            vec![],
        );
        let ds = Dataset::new(
            schema,
            vec![Tuple::new(TupleId(0), vec![1.0, 2.0, 3.0], vec![])],
        )
        .unwrap();
        let s = SimServer::new(ds, SystemRank::pseudo_random(1), 2).with_capabilities(
            Capabilities::none()
                .with_filter(AttrId(7), FilterSupport::None)
                .with_filter(AttrId(2), FilterSupport::None)
                .with_filter(AttrId(1), FilterSupport::Range)
                .with_filter(AttrId(0), FilterSupport::Range),
        );
        assert_eq!(
            s.capabilities().filters,
            vec![
                (AttrId(1), FilterSupport::Point),
                (AttrId(2), FilterSupport::None)
            ]
        );
        // And the enforcement refuses the range (schema contract).
        assert_eq!(
            s.query(&Query::all().and_range(AttrId(1), Interval::open(0.0, 3.0)))
                .unwrap_err(),
            ServerError::Unsupported(Capability::RangeFilter(AttrId(1)))
        );
        // Point predicates keep working; the configured None binds.
        assert!(s
            .query(&Query::all().and_range(AttrId(1), Interval::point(2.0)))
            .is_ok());
        assert!(s
            .query(&Query::all().and_range(AttrId(2), Interval::point(2.0)))
            .is_err());
    }

    #[test]
    fn cost_model_is_advertised_and_charged_by() {
        let s = server(3).with_capabilities(
            paged_and_sorted().with_cost_model(
                CostModel::flat()
                    .with_range_cost(2)
                    .with_paged_cost(1)
                    .with_ordered_cost(4),
            ),
        );
        assert_eq!(s.capabilities().cost.range_predicate, 2);
        // Plain top-k: base 1.
        s.query(&Query::all()).unwrap();
        assert_eq!(s.cost_units_issued(), 1);
        // Range-filtered: 1 + 2.
        s.query(&Query::all().and_range(AttrId(0), Interval::open(1.0, 5.0)))
            .unwrap();
        assert_eq!(s.cost_units_issued(), 4);
        // Page turn: 1 + 1. Ordered page: 1 + 4.
        s.query_page(&Query::all(), 1).unwrap();
        assert_eq!(s.cost_units_issued(), 6);
        s.query_ordered(&Query::all(), AttrId(0), Direction::Asc, 0)
            .unwrap();
        assert_eq!(s.cost_units_issued(), 11);
        // The raw ledger still counts queries; refusals charge neither.
        assert_eq!(s.queries_issued(), 4);
        assert!(s
            .query_ordered(&Query::all(), AttrId(1), Direction::Asc, 0)
            .is_err());
        assert_eq!(s.cost_units_issued(), 11);
    }

    #[test]
    fn advertised_cost_lies_while_billing_stays_honest() {
        let s = server(3)
            .with_capabilities(
                Capabilities::none().with_cost_model(CostModel::flat().with_range_cost(9)),
            )
            .with_advertised_cost(CostModel::flat());
        // Capabilities carry the stale public price list…
        assert!(s.capabilities().cost.is_flat());
        // …but the ledger bills the true model.
        s.query(&Query::all().and_range(AttrId(0), Interval::open(1.0, 5.0)))
            .unwrap();
        assert_eq!(s.cost_units_issued(), 10);
    }

    #[test]
    fn flat_default_keeps_cost_equal_to_query_count() {
        let s = server(3);
        assert!(s.capabilities().cost.is_flat());
        s.query(&Query::all()).unwrap();
        s.query(&Query::all().and_range(AttrId(0), Interval::open(1.0, 5.0)))
            .unwrap();
        assert_eq!(s.cost_units_issued(), s.queries_issued());
    }

    #[test]
    fn nan_predicates_are_refused_uncharged() {
        let s = server(3);
        let err = s
            .query(&Query::all().and_range(AttrId(0), Interval::at_most(f64::NAN)))
            .unwrap_err();
        assert!(matches!(err, ServerError::InvalidQuery { .. }));
        assert!(err.to_string().contains("NaN"));
        assert_eq!(s.queries_issued(), 0);
        assert_eq!(s.cost_units_issued(), 0);
        // Paged and ordered entry points refuse too.
        let s = s.with_capabilities(paged_and_sorted());
        let bad = Query::all().and_range(AttrId(0), Interval::open(f64::NAN, 1.0));
        assert!(s.query_page(&bad, 0).is_err());
        assert!(s.query_ordered(&bad, AttrId(0), Direction::Asc, 0).is_err());
        assert_eq!(s.queries_issued(), 0);
    }

    /// An attribute index outside the schema would reach `Tuple::ord` /
    /// `Tuple::cat` and `attr_order` as an out-of-bounds panic — the
    /// categorical one *after* the query was charged. All of them are
    /// typed, uncharged refusals on every entry point.
    #[test]
    fn attributes_outside_the_schema_are_refused_uncharged() {
        use qrs_types::{CatId, CatPredicate};
        let s = server(3).with_capabilities(paged_and_sorted());
        for bad in [
            Query::all().and_range(AttrId(9), Interval::open(0.0, 1.0)),
            Query::all().and_range(AttrId(1), Interval::all()),
            Query::all().and_cat(CatPredicate::eq(CatId(9), 1)),
            Query::all().and_cat(CatPredicate::eq(CatId(0), 1)),
        ] {
            let errs = [
                s.query(&bad).unwrap_err(),
                s.query_page(&bad, 1).unwrap_err(),
                s.query_ordered(&bad, AttrId(0), Direction::Desc, 0)
                    .unwrap_err(),
            ];
            for err in errs {
                assert!(matches!(err, ServerError::InvalidQuery { .. }), "{bad}");
                assert!(err.to_string().contains("the schema has"), "{err}");
            }
        }
        assert_eq!((s.queries_issued(), s.cost_units_issued()), (0, 0));
    }

    /// The site against brute force. Every answer — `query`, `query_page`
    /// (pages 0–3 and one far past the end), `query_ordered` (both
    /// directions, two pages) — equals the dataset sorted, filtered, skipped
    /// and cut at `k`, over seeded random queries that land on both sides of
    /// [`Store::top`]'s rule, boxes narrow only jointly among them, before
    /// and after each kind of mutation.
    #[test]
    fn answers_equal_brute_force_on_both_sides_of_the_rule() {
        use qrs_datagen::synthetic::{discrete_grid, uniform};
        use qrs_types::{CatId, CatPredicate};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use std::cmp::Ordering;

        let seed = std::env::var("QRS_TEST_SEED").ok();
        let seed: u64 = seed.and_then(|s| s.parse().ok()).unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE);
        let (mut asked, mut calls) = (0, 0);
        // [span side, walk side] of `Store::top`'s rule over every query
        // drawn; the draws with more than one range predicate, and those of
        // them the single-span rule `c² ≤ (k+1)·n` walked and the joint rule
        // answers from the span.
        let mut sides = [0usize; 2];
        let (mut multi, mut joint) = (0, 0);
        let tied = SystemRank::linear("tied", vec![(AttrId(0), 1.0), (AttrId(1), -0.5)]);
        for (data, rank, k) in [
            (discrete_grid(600, 3, 40, seed ^ 5), tied, 3),
            (
                uniform(900, 3, 1, seed ^ 9),
                SystemRank::pseudo_random(seed),
                5,
            ),
        ] {
            let attrs: Vec<AttrId> = data.schema().attr_ids().collect();
            let s = SimServer::new(data, rank.clone(), k).with_capabilities(
                Capabilities::none()
                    .with_paging()
                    .with_order_by(attrs.clone()),
            );
            for round in 0..4 {
                // Rounds 1–3 follow five inserts, deletes, updates: a stale
                // `rank_of` or `attr_order` answers from the old tuple set.
                for j in 0..5 {
                    let now = s.dataset();
                    let pick = |rng: &mut StdRng| &now.tuples()[rng.random_range(0..now.len())];
                    let (from, victim) = (pick(&mut rng), pick(&mut rng).id);
                    let copy = |id| Tuple::new(id, from.ords().to_vec(), from.cats().to_vec());
                    match round {
                        1 => drop(s.insert(copy(TupleId(10_000 + j))).unwrap()),
                        2 => drop(s.delete(victim).unwrap()),
                        3 => drop(s.update(copy(victim)).unwrap()),
                        _ => {}
                    }
                }
                let data = s.dataset();
                let n = data.len();
                let sorted_by = |key: &dyn Fn(&Tuple) -> f64| {
                    let mut v: Vec<&Arc<Tuple>> = data.tuples().iter().collect();
                    v.sort_by(|a, b| match key(a).total_cmp(&key(b)) {
                        Ordering::Equal => a.id.cmp(&b.id),
                        unequal => unequal,
                    });
                    v
                };
                let by_system = sorted_by(&|t| rank.score(t));
                // What a page of `order`'s matches must be: ids and the flag.
                let page_of = |order: &[&Arc<Tuple>], q: &Query, page: usize| {
                    let hits: Vec<TupleId> = order
                        .iter()
                        .filter(|t| q.matches(t))
                        .map(|t| t.id)
                        .collect();
                    let skip = page.saturating_mul(k).min(hits.len());
                    let cut = (skip + k).min(hits.len());
                    (hits[skip..cut].to_vec(), hits.len() > cut)
                };
                let ids = |ts: &[Arc<Tuple>]| ts.iter().map(|t| t.id).collect::<Vec<_>>();
                for _ in 0..30 {
                    // 0–3 range predicates on distinct attributes, each cut
                    // out of the attribute's sorted values: from one value
                    // to the whole domain, log-uniformly. One draw in three
                    // is a box only its 2–3 ranges together make narrow:
                    // each a slice of `n^0.6` to `n^0.85` values.
                    let mut q = Query::all();
                    let first = rng.random_range(0..attrs.len());
                    let jointly = rng.random::<f64>() < 1.0 / 3.0;
                    for j in 0..rng.random_range(if jointly { 2..=3usize } else { 0..=3 }) {
                        let attr = attrs[(first + j) % attrs.len()];
                        let values = sorted_by(&|t| t.ord(attr));
                        let exponent = rng.random::<f64>();
                        let exponent = if jointly {
                            0.6 + 0.25 * exponent
                        } else {
                            exponent
                        };
                        let len = (n as f64).powf(exponent) as usize;
                        let at = rng.random_range(0..n);
                        let lo = values[at].ord(attr);
                        let hi = values[(at + len).min(n - 1)].ord(attr);
                        q.add_range(
                            attr,
                            match rng.random_range(0..if jointly { 4 } else { 10u32 }) {
                                0 => Interval::open(lo, hi),
                                1 => Interval::closed(lo, hi),
                                2 => Interval::closed_open(lo, hi),
                                3 => Interval::open_closed(lo, hi),
                                4 => Interval::greater_than(hi),
                                5 => Interval::at_most(lo),
                                6 => Interval::point(lo),
                                7 => Interval::open(lo, lo),
                                8 => Interval::closed(hi + 1.0, lo),
                                _ => Interval::all(),
                            },
                        );
                    }
                    if rng.random::<f64>() < 0.4 {
                        let codes = vec![rng.random_range(0..4u32), rng.random_range(0..4u32)];
                        q.add_cat(CatPredicate::one_of(CatId(0), codes));
                    }
                    // Each range predicate's span, then the rule's two
                    // sides: `c_min · Π c_i` against `want · n^m`.
                    let spans: Vec<usize> = (q.ranges().iter())
                        .filter(|p| !p.interval.is_all())
                        .map(|p| data.tuples().iter().filter(|t| p.matches(t)).count())
                        .collect();
                    let (product, walk) = (spans.iter())
                        .fold((1.0, (k + 1) as f64), |(c, w), &s| {
                            (c * s as f64, w * n as f64)
                        });
                    let tightest = spans.iter().min();
                    let span_side = tightest.is_some_and(|&c| c as f64 * product <= walk);
                    sides[usize::from(!span_side)] += 1;
                    if spans.len() > 1 {
                        multi += 1;
                        let walked = tightest.is_some_and(|&c| c * c > (k + 1) * n);
                        joint += usize::from(walked && span_side);
                    }

                    let got = s.query(&q).unwrap();
                    let want = page_of(&by_system, &q, 0);
                    assert_eq!((ids(&got.tuples), got.is_overflow()), want, "{q}");
                    for page in [0, 1, 2, 3, usize::MAX / 2] {
                        let got = s.query_page(&q, page).unwrap();
                        let want = page_of(&by_system, &q, page);
                        assert_eq!(
                            (ids(&got.tuples), got.is_overflow()),
                            want,
                            "{q} page {page}"
                        );
                    }
                    let attr = attrs[rng.random_range(0..attrs.len())];
                    let mut by_value = sorted_by(&|t| t.ord(attr));
                    for dir in [Direction::Asc, Direction::Desc] {
                        for page in [0, 1] {
                            let got = s.query_ordered(&q, attr, dir, page).unwrap();
                            let want = page_of(&by_value, &q, page);
                            assert_eq!(
                                (ids(&got.tuples), got.has_more),
                                want,
                                "{q} by {attr} {dir:?} page {page}"
                            );
                        }
                        by_value.reverse();
                    }
                    asked += 1;
                    calls += 10;
                }
            }
            // Every call was charged, the far page's empty answer included.
            assert_eq!(s.queries_issued(), calls);
            calls = 0;
        }
        assert!(asked >= 200);
        assert!(
            sides.iter().all(|&side| side * 5 >= asked),
            "[span, walk] = {sides:?} of {asked}: retune the generator"
        );
        assert!(
            joint * 10 >= multi,
            "{joint} of {multi} multi-predicate draws on the span side only by \
             the joint rule: retune the generator"
        );
    }

    #[test]
    fn mutations_advance_the_feed_and_the_answers() {
        let s = server(3);
        assert!(s.capabilities().supports(Capability::MutationFeed));
        assert_eq!(s.mutation_seq(), 0);

        // Delete the system-rank leader (x = 9): answers shift immediately.
        assert_eq!(s.delete(TupleId(9)), Some(1));
        let xs: Vec<f64> = s
            .query(&Query::all())
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.ord(AttrId(0)))
            .collect();
        assert_eq!(xs, vec![8.0, 7.0, 6.0]);

        // Insert a new leader; update an existing tuple upward.
        assert_eq!(s.insert(Tuple::new(TupleId(20), vec![12.0], vec![])), Ok(2));
        assert_eq!(s.update(Tuple::new(TupleId(0), vec![8.5], vec![])), Ok(3));
        assert_eq!(s.mutation_seq(), 3);
        let xs: Vec<f64> = s
            .query(&Query::all())
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.ord(AttrId(0)))
            .collect();
        assert_eq!(xs, vec![12.0, 8.5, 8.0]);

        // The feed replays everything after a watermark, oldest first.
        let log = s.mutations_since(0).unwrap();
        assert!(!log.gap);
        assert_eq!(log.deltas.len(), 3);
        assert_eq!(log.deltas[0].kind, MutationKind::Delete(TupleId(9)));
        assert_eq!(log.deltas[0].seq, 1);
        assert_eq!(log.max_seq(), Some(3));
        let log = s.mutations_since(2).unwrap();
        assert_eq!(log.deltas.len(), 1);
        assert!(matches!(log.deltas[0].kind, MutationKind::Update(_)));
        // At or past the head: empty, no gap.
        assert!(s.mutations_since(3).unwrap().deltas.is_empty());
        assert!(!s.mutations_since(3).unwrap().gap);
        assert!(!s.mutations_since(99).unwrap().gap);

        // Deletes never double-fire; bad mutations are typed refusals.
        assert_eq!(s.delete(TupleId(9)), None);
        assert_eq!(
            s.insert(Tuple::new(TupleId(20), vec![1.0], vec![])),
            Err(TypeError::DuplicateTupleId { id: TupleId(20) })
        );
        assert_eq!(
            s.update(Tuple::new(TupleId(99), vec![1.0], vec![])),
            Err(TypeError::UnknownTupleId { id: TupleId(99) })
        );
        assert_eq!(
            s.insert(Tuple::new(TupleId(30), vec![1.0, 2.0], vec![])),
            Err(TypeError::OrdinalArityMismatch {
                expected: 1,
                got: 2
            })
        );
        // Failed mutations advance nothing.
        assert_eq!(s.mutation_seq(), 3);
        // Mutation traffic is metadata: no query charges anywhere above
        // beyond the two searches this test issued.
        assert_eq!(s.queries_issued(), 2);
    }

    #[test]
    fn compacted_log_reports_a_gap() {
        let s = server(3).with_mutation_log_cap(2);
        s.delete(TupleId(0)).unwrap();
        s.delete(TupleId(1)).unwrap();
        s.delete(TupleId(2)).unwrap(); // seq 3; log now retains {2, 3}
        let log = s.mutations_since(0).unwrap();
        assert!(log.gap, "delta 1 was compacted away");
        assert_eq!(log.deltas.len(), 2);
        // A watermark inside the retained window sees no gap.
        let log = s.mutations_since(1).unwrap();
        assert!(!log.gap);
        assert_eq!(log.deltas.len(), 2);
        // The dataset snapshot tracks the mutations.
        assert_eq!(s.dataset().len(), 7);
    }

    #[test]
    fn query_log_captures_queries() {
        let s = server(2).with_query_log();
        s.query(&Query::all()).unwrap();
        s.query(&Query::all().and_range(AttrId(0), Interval::open(1.0, 2.0)))
            .unwrap();
        let log = s.take_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], Query::all());
    }
}
