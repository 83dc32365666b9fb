//! The restricted search interface (§2.1) as a trait.
//!
//! Everything `qrs-core` knows about the remote database goes through
//! [`SearchInterface`]. The trait is object-safe so reranking algorithms are
//! generic over the simulated server, the adversarial server, and any future
//! adapter to a real HTTP endpoint — which is why every query method returns
//! `Result`: a real adapter surfaces rate limits (429s) and transient
//! failures as [`ServerError`] instead of panicking inside the middleware.
//!
//! Optional features — page turns, public `ORDER BY` — are *negotiated*
//! through [`SearchInterface::capabilities`]: callers preflight
//! [`Capabilities::require`] and get a typed [`ServerError::Unsupported`]
//! (never a panic) when a server lacks the feature.

use qrs_types::{
    AttrId, Capability, CostModel, Direction, FilterSupport, MutationLog, Query, QueryResponse,
    Schema, ServerError, Tuple,
};
use std::sync::Arc;

/// One page of an `ORDER BY` query (§5 extension; supported only by servers
/// whose [`Capabilities`] advertise it).
#[derive(Debug, Clone)]
pub struct OrderedPage {
    /// Tuples ranked `[offset, offset + k)` among `R(q)` under the public
    /// ordering.
    pub tuples: Vec<Arc<Tuple>>,
    /// Whether more pages follow.
    pub has_more: bool,
}

/// The site model: what a search interface offers beyond one-shot top-k
/// queries, and where it is *more* restricted than the paper's baseline.
/// Returned by [`SearchInterface::capabilities`]; the single source of
/// truth for capability negotiation and for the `qrs-service` planner,
/// and the whole of [`crate::SimServer`]'s restrictions.
///
/// The default ([`Capabilities::none`]) is the paper's §2.1 interface:
/// no paging, no public `ORDER BY`, range predicates on every attribute,
/// unlimited conjunct arity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// The interface supports page turns on the system ranking.
    pub paging: bool,
    /// Attributes the interface can publicly `ORDER BY` (§5).
    pub order_by: Vec<AttrId>,
    /// Deepest result page served per query (`None` = unlimited, given
    /// [`Capabilities::paging`]). Real sites commonly stop at a fixed
    /// depth — "showing results 1–1000".
    pub max_pages: Option<usize>,
    /// Cap on the number of predicates one conjunctive query may carry
    /// (`None` = unlimited). Flight sites typically allow only a few
    /// simultaneous search criteria.
    pub max_predicates: Option<usize>,
    /// Per-attribute filter-support overrides, sparse: an attribute absent
    /// here accepts full range predicates ([`FilterSupport::Range`]).
    pub filters: Vec<(AttrId, FilterSupport)>,
    /// How the site meters queries: per-query-class unit costs the server
    /// *charges by* and the planner ranks feasible algorithms with. The
    /// default ([`CostModel::flat`]) prices every query at one unit —
    /// weighted cost equals the paper's raw query count.
    pub cost: CostModel,
    /// The interface exposes a mutation (change-data-capture) feed:
    /// [`SearchInterface::mutation_seq`] watermarks plus
    /// [`SearchInterface::mutations_since`] deltas. Off by default — the
    /// paper's baseline site is frozen.
    pub mutation_feed: bool,
}

impl Capabilities {
    /// A bare top-k interface: no paging, no public `ORDER BY`, full range
    /// filtering — the paper's baseline assumption and the trait default.
    pub fn none() -> Self {
        Capabilities::default()
    }

    /// Builder: advertise page-turn support.
    pub fn with_paging(mut self) -> Self {
        self.paging = true;
        self
    }

    /// Builder: advertise public `ORDER BY` on `attrs`.
    pub fn with_order_by(mut self, attrs: Vec<AttrId>) -> Self {
        self.order_by = attrs;
        self
    }

    /// Builder: cap paging at `pages` result pages per query.
    pub fn with_max_pages(mut self, pages: usize) -> Self {
        self.max_pages = Some(pages);
        self
    }

    /// Builder: cap conjunct arity at `n` predicates per query.
    pub fn with_max_predicates(mut self, n: usize) -> Self {
        self.max_predicates = Some(n);
        self
    }

    /// Builder: restrict filter support on one attribute (replacing any
    /// earlier override for the same attribute).
    pub fn with_filter(mut self, attr: AttrId, support: FilterSupport) -> Self {
        self.filters.retain(|(a, _)| *a != attr);
        self.filters.push((attr, support));
        self
    }

    /// Builder: advertise a non-flat query cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Whether a site can serve this model: a depth cap serves at least one
    /// page and an arity cap accepts at least one predicate.
    pub fn check(&self) -> Result<(), String> {
        if self.max_pages == Some(0) {
            return Err("a paging site serves at least one page (max_pages is 0)".to_string());
        }
        if self.max_predicates == Some(0) {
            return Err(
                "a searchable site accepts at least one predicate (max_predicates is 0)"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Filter support advertised for `attr` ([`FilterSupport::Range`] when
    /// no override is present).
    pub fn filter_support(&self, attr: AttrId) -> FilterSupport {
        self.filters
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Does this interface offer `cap`?
    pub fn supports(&self, cap: Capability) -> bool {
        match cap {
            Capability::Paging => self.paging,
            Capability::OrderBy(a) => self.order_by.contains(&a),
            Capability::RangeFilter(a) => self.filter_support(a).allows_range(),
            Capability::PointFilter(a) => self.filter_support(a).allows_point(),
            Capability::PredicateArity(n) => self.max_predicates.is_none_or(|cap| n <= cap),
            Capability::PageDepth(p) => self.paging && self.admit_depth(p).is_ok(),
            Capability::MutationFeed => self.mutation_feed,
        }
    }

    /// Preflight check: `Ok(())` or the typed refusal.
    pub fn require(&self, cap: Capability) -> Result<(), ServerError> {
        if self.supports(cap) {
            Ok(())
        } else {
            Err(ServerError::Unsupported(cap))
        }
    }

    /// Admit one query, or name what it lacks: the conjunct cap
    /// ([`Capability::PredicateArity`]), then [`FilterSupport::admits`] on
    /// each range predicate — [`Capability::RangeFilter`] where the
    /// attribute takes points only, else [`Capability::PointFilter`].
    pub fn admit(&self, q: &Query) -> Result<(), ServerError> {
        self.require(Capability::PredicateArity(q.num_predicates()))?;
        for p in q.ranges() {
            let support = self.filter_support(p.attr);
            if !support.admits(&p.interval) {
                return Err(ServerError::Unsupported(if support.allows_point() {
                    Capability::RangeFilter(p.attr)
                } else {
                    Capability::PointFilter(p.attr)
                }));
            }
        }
        Ok(())
    }

    /// The depth rule: one query's results page `depth` pages deep only
    /// within [`Capabilities::max_pages`]. System-ranking pages also need
    /// [`Capabilities::paging`]; public `ORDER BY` pages do not.
    pub fn admit_depth(&self, depth: usize) -> Result<(), ServerError> {
        match self.max_pages {
            Some(cap) if depth > cap => Err(ServerError::Unsupported(Capability::PageDepth(depth))),
            _ => Ok(()),
        }
    }
}

/// A client-server database's public top-k search interface.
///
/// Every *successful* call to [`SearchInterface::query`],
/// [`SearchInterface::query_page`] or [`SearchInterface::query_ordered`]
/// costs one unit of the paper's query budget and increments
/// [`SearchInterface::queries_issued`]. Failed calls may or may not be
/// charged, at the adapter's discretion — the in-tree simulators do *not*
/// charge refused requests (the backend rejected them before doing any
/// work), while a real HTTP adapter may, since some sites count rejected
/// requests against quotas too.
pub trait SearchInterface: Send + Sync {
    /// Schema of the underlying database (public on real sites via the
    /// search form).
    fn schema(&self) -> &Arc<Schema>;

    /// The interface's `k`: maximum number of tuples per response.
    fn k(&self) -> usize;

    /// The optional features this interface offers. Defaults to
    /// [`Capabilities::none`] — a bare top-k interface.
    fn capabilities(&self) -> Capabilities {
        Capabilities::none()
    }

    /// Issue a conjunctive query; the response holds at most `k` tuples
    /// selected by the proprietary system ranking function.
    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError>;

    /// Total number of queries issued so far — the cost metric of §2.2.
    fn queries_issued(&self) -> u64;

    /// Total weighted cost units charged so far, under the advertised
    /// [`CostModel`] ([`Capabilities::cost`]). Defaults to the raw query
    /// count — exactly right for servers on the flat model; metered
    /// servers (and decorators wrapping them) override to forward their
    /// weighted ledger.
    fn cost_units_issued(&self) -> u64 {
        self.queries_issued()
    }

    /// Page `page` (0-based) of the system-ranked answer to `q`.
    ///
    /// Default: `Err(ServerError::Unsupported(Capability::Paging))`;
    /// preflight with [`SearchInterface::capabilities`].
    fn query_page(&self, _q: &Query, _page: usize) -> Result<QueryResponse, ServerError> {
        Err(ServerError::Unsupported(Capability::Paging))
    }

    /// Page `page` of `R(q)` ordered publicly by `attr` in direction `dir`.
    ///
    /// Default: `Err(ServerError::Unsupported(Capability::OrderBy(attr)))`;
    /// preflight with [`SearchInterface::capabilities`].
    fn query_ordered(
        &self,
        _q: &Query,
        attr: AttrId,
        _dir: Direction,
        _page: usize,
    ) -> Result<OrderedPage, ServerError> {
        Err(ServerError::Unsupported(Capability::OrderBy(attr)))
    }

    /// The sequence number of the latest data change — the watermark
    /// clients cache knowledge under. Defaults to `0`: a frozen interface
    /// never advances, so all knowledge stays fresh forever.
    ///
    /// Watermark reads are metadata, not searches: they are never charged
    /// against the query budget.
    fn mutation_seq(&self) -> u64 {
        0
    }

    /// The data changes after watermark `since`, oldest first.
    ///
    /// Default: `Err(ServerError::Unsupported(Capability::MutationFeed))`;
    /// preflight with [`SearchInterface::capabilities`]. Like
    /// [`SearchInterface::mutation_seq`], feed polls are uncharged.
    fn mutations_since(&self, _since: u64) -> Result<MutationLog, ServerError> {
        Err(ServerError::Unsupported(Capability::MutationFeed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Bare(Arc<Schema>);

    impl SearchInterface for Bare {
        fn schema(&self) -> &Arc<Schema> {
            &self.0
        }
        fn k(&self) -> usize {
            1
        }
        fn query(&self, _q: &Query) -> Result<QueryResponse, ServerError> {
            Ok(QueryResponse::new(vec![], false))
        }
        fn queries_issued(&self) -> u64 {
            0
        }
    }

    #[test]
    fn defaults_refuse_instead_of_panicking() {
        let s = Bare(Arc::new(Schema::new(
            vec![qrs_types::OrdinalAttr::new("x", 0.0, 1.0)],
            vec![],
        )));
        assert_eq!(s.capabilities(), Capabilities::none());
        assert_eq!(
            s.query_page(&Query::all(), 0).unwrap_err(),
            ServerError::Unsupported(Capability::Paging)
        );
        assert_eq!(
            s.query_ordered(&Query::all(), AttrId(0), Direction::Asc, 0)
                .unwrap_err(),
            ServerError::Unsupported(Capability::OrderBy(AttrId(0)))
        );
        // A frozen interface never advances and refuses feed polls.
        assert_eq!(s.mutation_seq(), 0);
        assert_eq!(
            s.mutations_since(0).unwrap_err(),
            ServerError::Unsupported(Capability::MutationFeed)
        );
    }

    #[test]
    fn mutation_feed_negotiates() {
        assert!(!Capabilities::none().supports(Capability::MutationFeed));
        let caps = Capabilities {
            mutation_feed: true,
            ..Capabilities::none()
        };
        assert!(caps.supports(Capability::MutationFeed));
        assert!(caps.require(Capability::MutationFeed).is_ok());
        assert_eq!(
            Capabilities::none()
                .require(Capability::MutationFeed)
                .unwrap_err(),
            ServerError::Unsupported(Capability::MutationFeed)
        );
    }

    #[test]
    fn site_model_restrictions_negotiate() {
        let caps = Capabilities::none()
            .with_paging()
            .with_max_pages(20)
            .with_max_predicates(3)
            .with_filter(AttrId(0), FilterSupport::Point)
            .with_filter(AttrId(1), FilterSupport::None);
        // Filter lattice: overridden attrs degrade, others stay Range.
        assert!(caps.supports(Capability::PointFilter(AttrId(0))));
        assert!(!caps.supports(Capability::RangeFilter(AttrId(0))));
        assert!(!caps.supports(Capability::PointFilter(AttrId(1))));
        assert!(caps.supports(Capability::RangeFilter(AttrId(2))));
        // Arity cap.
        assert!(caps.supports(Capability::PredicateArity(3)));
        assert!(!caps.supports(Capability::PredicateArity(4)));
        // Page depth requires paging AND a deep-enough cap.
        assert!(caps.supports(Capability::PageDepth(20)));
        assert!(!caps.supports(Capability::PageDepth(21)));
        assert!(!Capabilities::none().supports(Capability::PageDepth(1)));
        // Unlimited paging supports any depth.
        assert!(Capabilities::none()
            .with_paging()
            .supports(Capability::PageDepth(1_000_000)));
        // Re-overriding a filter replaces, not appends.
        let caps = caps.with_filter(AttrId(0), FilterSupport::Range);
        assert!(caps.supports(Capability::RangeFilter(AttrId(0))));
        assert_eq!(caps.filters.iter().filter(|(a, _)| a.0 == 0).count(), 1);
    }

    #[test]
    fn admit_applies_the_arity_cap_and_the_filter_rule() {
        use qrs_types::Interval;
        let caps = Capabilities::none()
            .with_max_predicates(2)
            .with_max_pages(3)
            .with_filter(AttrId(0), FilterSupport::Point)
            .with_filter(AttrId(1), FilterSupport::None);
        let unsupported = |q: &Query| match caps.admit(q) {
            Err(ServerError::Unsupported(cap)) => Some(cap),
            Err(other) => panic!("admit refuses only Unsupported, got {other}"),
            Ok(()) => None,
        };
        let point = Query::all().and_range(AttrId(0), Interval::point(1.0));
        assert_eq!(unsupported(&point), None);
        assert_eq!(
            unsupported(&Query::all().and_range(AttrId(1), Interval::all())),
            None
        );
        assert_eq!(
            unsupported(&Query::all().and_range(AttrId(0), Interval::closed(1.0, 2.0))),
            Some(Capability::RangeFilter(AttrId(0)))
        );
        assert_eq!(
            unsupported(&Query::all().and_range(AttrId(1), Interval::point(1.0))),
            Some(Capability::PointFilter(AttrId(1)))
        );
        let wide = point
            .and_range(AttrId(2), Interval::open(0.0, 1.0))
            .and_range(AttrId(3), Interval::open(0.0, 1.0));
        assert_eq!(unsupported(&wide), Some(Capability::PredicateArity(3)));
        // The depth rule caps pages whether or not system paging exists.
        assert!(caps.admit_depth(3).is_ok());
        assert_eq!(
            caps.admit_depth(4),
            Err(ServerError::Unsupported(Capability::PageDepth(4)))
        );
        assert!(!caps.supports(Capability::PageDepth(3)), "no paging");
        assert!(Capabilities::none().admit_depth(usize::MAX).is_ok());
    }

    #[test]
    fn capabilities_negotiation() {
        let caps = Capabilities::none()
            .with_paging()
            .with_order_by(vec![AttrId(1)]);
        assert!(caps.supports(Capability::Paging));
        assert!(caps.supports(Capability::OrderBy(AttrId(1))));
        assert!(!caps.supports(Capability::OrderBy(AttrId(0))));
        assert!(caps.require(Capability::Paging).is_ok());
        assert_eq!(
            caps.require(Capability::OrderBy(AttrId(0))).unwrap_err(),
            ServerError::Unsupported(Capability::OrderBy(AttrId(0)))
        );
    }
}
