//! Per-site query cost models — the metered half of the site model.
//!
//! The paper's cost metric counts *queries*; real sites meter them
//! unevenly. A flight aggregator charges more for filtered searches, a
//! storefront's `ORDER BY` view is the expensive code path, deep paging is
//! throttled harder than the first page. [`CostModel`] captures those
//! prices as per-query-class unit costs (plus per-attribute surcharges),
//! and is advertised through the server's capability surface so the
//! `qrs-service` planner can rank *feasible* algorithms by predicted spend
//! instead of a fixed preference order. The server side charges its ledger
//! by the same model, so predicted and actual costs are in the same
//! currency.
//!
//! The default model is [`CostModel::flat`]: every charged query costs one
//! unit, making weighted cost identical to the paper's raw query count.

use crate::interval::Interval;
use crate::query::Query;
use crate::schema::AttrId;
use std::fmt;

/// The shape of one charged request, used to price it under a
/// [`CostModel`]. Which class applies is decided by the *entry point* (a
/// page turn is [`RequestKind::Page`] no matter what predicates it
/// carries), while predicate surcharges stack on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A one-shot top-`k` query (`SearchInterface::query`).
    TopK,
    /// A page turn on the system ranking (`SearchInterface::query_page`).
    Page,
    /// A page of a public `ORDER BY` view
    /// (`SearchInterface::query_ordered`).
    Ordered,
}

/// Per-query-class unit costs a site advertises and charges by.
///
/// The cost of one charged request is compositional:
///
/// ```text
/// cost = base
///      + point_predicate · #(point predicates, categorical included)
///      + range_predicate · #(non-degenerate range predicates)
///      + Σ attr_surcharge(attr) over predicated ordinal attributes
///      + paged    (if the request is a page turn)
///      + ordered  (if the request is an ORDER BY page)
/// ```
///
/// Unbounded (`Ai ∈ (-∞, ∞)`) predicates are free: the site never sees
/// them. All prices are integer units so ledgers stay exact under
/// concurrency.
///
/// ```
/// use qrs_types::{AttrId, CostModel, Interval, Query, RequestKind};
///
/// // A site that meters range filters at 2 units, surcharges its
/// // expensive "price" column, and triples ORDER-BY pages.
/// let model = CostModel::flat()
///     .with_range_cost(2)
///     .with_attr_surcharge(AttrId(0), 1)
///     .with_ordered_cost(2);
///
/// let q = Query::all().and_range(AttrId(0), Interval::open(10.0, 99.0));
/// // base 1 + range 2 + surcharge 1:
/// assert_eq!(model.charge(&q, RequestKind::TopK), 4);
/// // the same predicates through the ORDER BY view cost 2 more:
/// assert_eq!(model.charge(&q, RequestKind::Ordered), 6);
/// // the flat default prices every request at exactly one unit:
/// assert_eq!(CostModel::flat().charge(&q, RequestKind::Ordered), 1);
/// assert!(CostModel::flat().is_flat());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Cost of any charged request, before class and predicate charges.
    pub base: u64,
    /// Surcharge per point predicate (`Ai = v`; categorical membership
    /// predicates are priced as points too — they are dropdowns).
    pub point_predicate: u64,
    /// Surcharge per non-degenerate range predicate (`Ai ∈ (v, v')`).
    pub range_predicate: u64,
    /// Surcharge for requests through the public `ORDER BY` view.
    pub ordered: u64,
    /// Surcharge for page turns on the system ranking.
    pub paged: u64,
    /// Extra units per predicate on specific ordinal attributes (sparse;
    /// attributes absent here cost nothing extra).
    pub attr_surcharge: Vec<(AttrId, u64)>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::flat()
    }
}

impl CostModel {
    /// Every charged request costs one unit: weighted cost ≡ raw query
    /// count, the paper's metric and the default advertisement.
    pub fn flat() -> Self {
        CostModel {
            base: 1,
            point_predicate: 0,
            range_predicate: 0,
            ordered: 0,
            paged: 0,
            attr_surcharge: Vec::new(),
        }
    }

    /// Builder: the per-request base cost.
    pub fn with_base(mut self, units: u64) -> Self {
        self.base = units;
        self
    }

    /// Builder: surcharge per point predicate.
    pub fn with_point_cost(mut self, units: u64) -> Self {
        self.point_predicate = units;
        self
    }

    /// Builder: surcharge per non-degenerate range predicate.
    pub fn with_range_cost(mut self, units: u64) -> Self {
        self.range_predicate = units;
        self
    }

    /// Builder: surcharge for `ORDER BY` pages.
    pub fn with_ordered_cost(mut self, units: u64) -> Self {
        self.ordered = units;
        self
    }

    /// Builder: surcharge for page turns.
    pub fn with_paged_cost(mut self, units: u64) -> Self {
        self.paged = units;
        self
    }

    /// Builder: extra units per predicate on `attr` (replacing any earlier
    /// surcharge for the same attribute).
    pub fn with_attr_surcharge(mut self, attr: AttrId, units: u64) -> Self {
        self.attr_surcharge.retain(|(a, _)| *a != attr);
        self.attr_surcharge.push((attr, units));
        self
    }

    /// The surcharge configured for `attr` (0 when absent).
    pub fn attr_surcharge(&self, attr: AttrId) -> u64 {
        self.attr_surcharge
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, u)| *u)
            .unwrap_or(0)
    }

    /// Whether this model prices every request at exactly one unit (so
    /// weighted cost equals the raw query count).
    pub fn is_flat(&self) -> bool {
        self.base == 1
            && self.point_predicate == 0
            && self.range_predicate == 0
            && self.ordered == 0
            && self.paged == 0
            && self.attr_surcharge.iter().all(|(_, u)| *u == 0)
    }

    /// Price one charged request: query `q` through the `kind` entry
    /// point. This is the single pricing definition — servers charge their
    /// ledgers by it and planners predict with it, so the two never
    /// disagree on the currency.
    pub fn charge(&self, q: &Query, kind: RequestKind) -> u64 {
        let ranges = q.ranges().iter().map(|p| (p.attr, p.interval));
        self.charge_predicates(ranges, q.cats().len(), kind)
    }

    /// [`CostModel::charge`] over borrowed predicates: a query's range
    /// predicates as `(attribute, interval)` pairs, at most one per
    /// attribute and in any order, and its number of categorical
    /// predicates. A planner prices a query shape it never builds with it.
    pub fn charge_predicates(
        &self,
        ranges: impl IntoIterator<Item = (AttrId, Interval)>,
        cats: usize,
        kind: RequestKind,
    ) -> u64 {
        let mut units = self.base;
        for (attr, interval) in ranges {
            if interval.is_all() {
                continue;
            }
            units = units.saturating_add(if interval.is_point() {
                self.point_predicate
            } else {
                self.range_predicate
            });
            units = units.saturating_add(self.attr_surcharge(attr));
        }
        for _ in 0..cats {
            units = units.saturating_add(self.point_predicate);
        }
        units = units.saturating_add(match kind {
            RequestKind::TopK => 0,
            RequestKind::Page => self.paged,
            RequestKind::Ordered => self.ordered,
        });
        units
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_flat() {
            return write!(f, "flat");
        }
        write!(
            f,
            "base {} +pt {} +rg {} +ord {} +pg {}",
            self.base, self.point_predicate, self.range_predicate, self.ordered, self.paged
        )?;
        for (a, u) in &self.attr_surcharge {
            write!(f, " +{a}:{u}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CatPredicate;
    use crate::schema::CatId;

    #[test]
    fn flat_model_counts_queries() {
        let m = CostModel::flat();
        assert!(m.is_flat());
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 1.0))
            .and_range(AttrId(1), Interval::point(2.0))
            .and_cat(CatPredicate::eq(CatId(0), 1));
        for kind in [RequestKind::TopK, RequestKind::Page, RequestKind::Ordered] {
            assert_eq!(m.charge(&q, kind), 1);
        }
    }

    #[test]
    fn compositional_pricing() {
        let m = CostModel::flat()
            .with_base(2)
            .with_point_cost(1)
            .with_range_cost(3)
            .with_ordered_cost(5)
            .with_paged_cost(4)
            .with_attr_surcharge(AttrId(1), 10);
        assert!(!m.is_flat());
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 1.0)) // +3 range
            .and_range(AttrId(1), Interval::point(2.0)) // +1 point, +10 surcharge
            .and_cat(CatPredicate::eq(CatId(0), 1)); // +1 point
        assert_eq!(m.charge(&q, RequestKind::TopK), 2 + 3 + 1 + 10 + 1);
        assert_eq!(m.charge(&q, RequestKind::Page), 17 + 4);
        assert_eq!(m.charge(&q, RequestKind::Ordered), 17 + 5);
    }

    #[test]
    fn unbounded_predicates_are_free() {
        let m = CostModel::flat().with_range_cost(7);
        let q = Query::all().and_range(AttrId(0), Interval::all());
        assert_eq!(m.charge(&q, RequestKind::TopK), 1);
    }

    #[test]
    fn surcharge_override_replaces() {
        let m = CostModel::flat()
            .with_attr_surcharge(AttrId(0), 5)
            .with_attr_surcharge(AttrId(0), 2);
        assert_eq!(m.attr_surcharge(AttrId(0)), 2);
        assert_eq!(m.attr_surcharge(AttrId(3)), 0);
        assert_eq!(m.attr_surcharge.len(), 1);
    }

    #[test]
    fn display_names_the_prices() {
        assert_eq!(CostModel::flat().to_string(), "flat");
        let m = CostModel::flat().with_ordered_cost(2);
        assert!(m.to_string().contains("+ord 2"));
    }
}
