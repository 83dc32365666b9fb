//! Named restricted-site profiles — reproducible `SimServer` configurations
//! modeled on the kinds of sites the paper rerank-fronts.
//!
//! The paper's evaluation runs against one idealized interface; real
//! deployments meet a zoo of restrictions (PAPERS.md's hidden-database
//! sampling line works against exactly these): classifieds whose search
//! forms are dropdowns (point predicates only), flight sites capping the
//! number of simultaneous search criteria, storefronts that page but stop
//! at a fixed depth. A [`SiteProfile`] names one such shape and builds a
//! [`SimServer`] enforcing it, so experiments (`qrs-bench`'s
//! `planner_cost`) and tests sweep the same catalog.
//!
//! The catalog ([`SiteProfile::catalog`]) is deliberately diverse: for each
//! profile the `qrs-service` planner should either find a working algorithm
//! or fail fast with `RerankError::Unplannable` naming what is missing.

use crate::interface::Capabilities;
use crate::sim::SimServer;
use crate::system_rank::SystemRank;
use qrs_types::{CostModel, Dataset, FilterSupport};

/// A named, reproducible restricted-site shape.
///
/// Build one with a constructor ([`SiteProfile::open_site`],
/// [`SiteProfile::classifieds`], …), then [`SiteProfile::build`] a
/// [`SimServer`] over any dataset. The profile's restrictions apply to
/// *every* ordinal attribute uniformly (per-attribute mixes are a
/// [`Capabilities`] handed to [`SimServer::with_capabilities`] directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProfile {
    /// Stable identifier, used as the experiment row label.
    pub name: &'static str,
    /// Interface page size `k`.
    pub k: usize,
    /// Whether the site serves page turns on the system ranking.
    pub paging: bool,
    /// Page-depth cap, given `paging` (`None` = unlimited).
    pub max_pages: Option<usize>,
    /// Conjunct arity cap per query (`None` = unlimited).
    pub max_predicates: Option<usize>,
    /// Filter support applied to every ordinal attribute.
    pub filter: FilterSupport,
    /// Whether the site publicly offers `ORDER BY` on every attribute.
    pub order_by_all: bool,
    /// How the site meters queries: advertised through capabilities and
    /// charged by the built server's weighted ledger. Flat for sites that
    /// bill every query the same.
    pub cost: CostModel,
}

impl SiteProfile {
    /// The paper's idealized interface: range filters everywhere, paging,
    /// no caps. Every algorithm plans here — the matrix baseline.
    pub fn open_site(k: usize) -> Self {
        SiteProfile {
            name: "open_site",
            k,
            paging: true,
            max_pages: None,
            max_predicates: None,
            filter: FilterSupport::Range,
            order_by_all: false,
            cost: CostModel::flat(),
        }
    }

    /// A dropdown-only classifieds site: every attribute accepts point
    /// predicates only, but paging is unlimited — so the exact fallback is
    /// paging the whole result down and reranking locally.
    pub fn classifieds(k: usize) -> Self {
        SiteProfile {
            name: "classifieds",
            k,
            paging: true,
            max_pages: None,
            max_predicates: None,
            filter: FilterSupport::Point,
            order_by_all: false,
            cost: CostModel::flat(),
        }
    }

    /// A flight-search site: full range filters but at most three search
    /// criteria per query, and no page turns (each query answers once).
    /// Filtered searches are the metered path: each range criterion adds a
    /// unit on top of the base fare query.
    pub fn flight_site(k: usize) -> Self {
        SiteProfile {
            name: "flight_site",
            k,
            paging: false,
            max_pages: None,
            max_predicates: Some(3),
            filter: FilterSupport::Range,
            order_by_all: false,
            cost: CostModel::flat().with_range_cost(1),
        }
    }

    /// A browse-only storefront: no attribute filters at all, public
    /// `ORDER BY` on every column, paging capped at twenty pages — the
    /// "showing results 1–N" wall. The `ORDER BY` view is the expensive
    /// code path (2 extra units per sorted page), so plain page turns are
    /// the cheap way in when the inventory is shallow enough to drain.
    pub fn storefront(k: usize) -> Self {
        SiteProfile {
            name: "storefront",
            k,
            paging: true,
            max_pages: Some(20),
            max_predicates: None,
            filter: FilterSupport::None,
            order_by_all: true,
            cost: CostModel::flat().with_ordered_cost(2),
        }
    }

    /// A full-featured aggregator: range filters, public `ORDER BY`,
    /// unlimited paging — every algorithm family is *feasible*, so only
    /// the cost model separates them. Deep paging is throttled hard
    /// (3 extra units per page turn): draining the system ranking is the
    /// one thing this site makes expensive.
    pub fn aggregator(k: usize) -> Self {
        SiteProfile {
            name: "aggregator",
            k,
            paging: true,
            max_pages: None,
            max_predicates: None,
            filter: FilterSupport::Range,
            order_by_all: true,
            cost: CostModel::flat().with_paged_cost(3),
        }
    }

    /// The canonical sweep, in increasing order of restriction. Used by
    /// the `planner_cost` experiment and the planning test suite.
    pub fn catalog(k: usize) -> Vec<SiteProfile> {
        vec![
            SiteProfile::open_site(k),
            SiteProfile::aggregator(k),
            SiteProfile::flight_site(k),
            SiteProfile::classifieds(k),
            SiteProfile::storefront(k),
        ]
    }

    /// Materialize the profile over `dataset` with the given proprietary
    /// ranking: a [`SimServer`] serving the profile as its one site model,
    /// so it advertises exactly the restrictions it enforces.
    pub fn build(&self, dataset: Dataset, system_rank: SystemRank) -> SimServer {
        let attrs = || dataset.schema().attr_ids();
        let site = Capabilities {
            paging: self.paging,
            order_by: attrs().filter(|_| self.order_by_all).collect(),
            max_pages: self.max_pages,
            max_predicates: self.max_predicates,
            filters: attrs().map(|a| (a, self.filter)).collect(),
            cost: self.cost.clone(),
            mutation_feed: true,
        };
        SimServer::new(dataset, system_rank, self.k).with_capabilities(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::SearchInterface;
    use qrs_types::{
        AttrId, Capability, Interval, OrdinalAttr, Query, Schema, ServerError, Tuple, TupleId,
    };

    fn dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                OrdinalAttr::new("x", 0.0, 9.0),
                OrdinalAttr::new("y", 0.0, 9.0),
            ],
            vec![],
        );
        let tuples = (0..10)
            .map(|i| Tuple::new(TupleId(i), vec![f64::from(i), f64::from(9 - i)], vec![]))
            .collect();
        Dataset::new(schema, tuples).unwrap()
    }

    #[test]
    fn catalog_is_diverse_and_self_describing() {
        let names: Vec<_> = SiteProfile::catalog(5).iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "open_site",
                "aggregator",
                "flight_site",
                "classifieds",
                "storefront"
            ]
        );
    }

    #[test]
    fn built_servers_charge_by_the_profile_cost_model() {
        let storefront = SiteProfile::storefront(5).build(dataset(), SystemRank::pseudo_random(1));
        assert_eq!(storefront.capabilities().cost.ordered, 2);
        // One ordered page: base 1 + ordered 2.
        storefront
            .query_ordered(&Query::all(), AttrId(0), qrs_types::Direction::Asc, 0)
            .unwrap();
        assert_eq!(storefront.cost_units_issued(), 3);
        assert_eq!(storefront.queries_issued(), 1);

        let aggregator = SiteProfile::aggregator(5).build(dataset(), SystemRank::pseudo_random(1));
        assert!(aggregator.capabilities().supports(Capability::Paging));
        assert!(aggregator
            .capabilities()
            .supports(Capability::OrderBy(AttrId(0))));
        aggregator.query_page(&Query::all(), 0).unwrap();
        assert_eq!(aggregator.cost_units_issued(), 4);
    }

    #[test]
    fn built_servers_enforce_what_they_advertise() {
        let range_q = Query::all().and_range(AttrId(0), Interval::open(1.0, 5.0));

        let open = SiteProfile::open_site(5).build(dataset(), SystemRank::pseudo_random(1));
        assert!(open.query(&range_q).is_ok());
        assert!(open.capabilities().supports(Capability::PageDepth(10_000)));

        let classifieds =
            SiteProfile::classifieds(5).build(dataset(), SystemRank::pseudo_random(1));
        assert_eq!(
            classifieds.query(&range_q).unwrap_err(),
            ServerError::Unsupported(Capability::RangeFilter(AttrId(0)))
        );
        assert!(classifieds
            .query(&Query::all().and_range(AttrId(0), Interval::point(3.0)))
            .is_ok());

        let storefront = SiteProfile::storefront(5).build(dataset(), SystemRank::pseudo_random(1));
        assert_eq!(
            storefront
                .query(&Query::all().and_range(AttrId(0), Interval::point(3.0)))
                .unwrap_err(),
            ServerError::Unsupported(Capability::PointFilter(AttrId(0)))
        );
        assert!(storefront
            .capabilities()
            .supports(Capability::PageDepth(20)));
        assert!(!storefront
            .capabilities()
            .supports(Capability::PageDepth(21)));
        assert!(storefront
            .capabilities()
            .supports(Capability::OrderBy(AttrId(1))));

        let flight = SiteProfile::flight_site(5).build(dataset(), SystemRank::pseudo_random(1));
        assert!(!flight.capabilities().supports(Capability::Paging));
        assert!(!flight
            .capabilities()
            .supports(Capability::PredicateArity(4)));
        assert!(flight.query(&range_q).is_ok());
    }
}
