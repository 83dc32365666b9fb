//! Conjunctive search queries — the only thing the hidden database accepts.
//!
//! §2.1: `SELECT * FROM D WHERE Ai1 ∈ (v,v') AND … AND` categorical
//! predicates. A [`Query`] is a conjunction of at most one [`Interval`] per
//! ordinal attribute (intersected on insertion) plus categorical membership
//! predicates. The reranking algorithms build thousands of these per user
//! request, so construction and `matches` are allocation-light.

use crate::error::ServerError;
use crate::interval::Interval;
use crate::predicate::{CatPredicate, RangePredicate};
#[cfg(test)]
use crate::schema::CatId;
use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use std::fmt;

/// A conjunctive range query (the paper's `q` / `Sel(q)`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    ranges: Vec<RangePredicate>,
    cats: Vec<CatPredicate>,
}

impl Query {
    /// The unrestricted query `SELECT * FROM D`.
    pub fn all() -> Self {
        Query::default()
    }

    /// Add (AND) a range predicate; intersects with any existing predicate on
    /// the same attribute.
    pub fn and_range(mut self, attr: AttrId, interval: Interval) -> Self {
        self.add_range(attr, interval);
        self
    }

    /// In-place version of [`Query::and_range`].
    pub fn add_range(&mut self, attr: AttrId, interval: Interval) {
        if let Some(p) = self.ranges.iter_mut().find(|p| p.attr == attr) {
            p.interval = p.interval.intersect(&interval);
        } else {
            self.ranges.push(RangePredicate::new(attr, interval));
        }
    }

    /// Add (AND) a categorical predicate; intersects code sets per attribute.
    pub fn and_cat(mut self, pred: CatPredicate) -> Self {
        self.add_cat(pred);
        self
    }

    /// In-place version of [`Query::and_cat`].
    pub fn add_cat(&mut self, pred: CatPredicate) {
        if let Some(p) = self.cats.iter_mut().find(|p| p.attr == pred.attr) {
            *p = p.intersect(&pred);
        } else {
            self.cats.push(pred);
        }
    }

    /// Conjunction of two queries.
    pub fn and(mut self, other: &Query) -> Self {
        for p in &other.ranges {
            self.add_range(p.attr, p.interval);
        }
        for p in &other.cats {
            self.add_cat(p.clone());
        }
        self
    }

    /// The interval constraining `attr` (`Interval::all()` if unconstrained).
    pub fn interval(&self, attr: AttrId) -> Interval {
        self.ranges
            .iter()
            .find(|p| p.attr == attr)
            .map(|p| p.interval)
            .unwrap_or_else(Interval::all)
    }

    /// All range predicates.
    #[inline]
    pub fn ranges(&self) -> &[RangePredicate] {
        &self.ranges
    }

    /// All categorical predicates.
    #[inline]
    pub fn cats(&self) -> &[CatPredicate] {
        &self.cats
    }

    /// Strip every range predicate, keeping categorical ones.
    ///
    /// The on-the-fly index deliberately crawls *without* inheriting `Sel(q)`
    /// (§3.2.2) so the index serves future queries too; it still needs the
    /// pure selection part sometimes, hence this helper and its dual
    /// [`Query::only_ranges`].
    pub fn only_cats(&self) -> Query {
        Query {
            ranges: Vec::new(),
            cats: self.cats.clone(),
        }
    }

    /// Strip categorical predicates, keeping ranges.
    pub fn only_ranges(&self) -> Query {
        Query {
            ranges: self.ranges.clone(),
            cats: Vec::new(),
        }
    }

    /// Does the query match a tuple? (Membership in the paper's `R(q)`.)
    pub fn matches(&self, t: &Tuple) -> bool {
        self.ranges.iter().all(|p| p.matches(t)) && self.cats.iter().all(|p| p.matches(t))
    }

    /// Is the query certainly unsatisfiable (some predicate is empty)?
    pub fn is_unsatisfiable(&self) -> bool {
        self.ranges.iter().any(|p| p.interval.is_empty())
            || self.cats.iter().any(|p| p.is_unsatisfiable())
    }

    /// Is every range predicate of `self` contained in the corresponding
    /// predicate of `outer`, and are the categorical predicates at least as
    /// strict? If so every tuple matching `self` matches `outer`.
    pub fn is_subsumed_by(&self, outer: &Query) -> bool {
        for p in &outer.ranges {
            if !self.interval(p.attr).is_subset_of(&p.interval) {
                return false;
            }
        }
        self.cats_within(&outer.cats)
    }

    /// The categorical half of [`Query::is_subsumed_by`]: does `self` carry,
    /// for every predicate in `outer`, one on the same attribute accepting
    /// no code `outer`'s rejects?
    pub(crate) fn cats_within(&self, outer: &[CatPredicate]) -> bool {
        outer.iter().all(|p| {
            self.cats
                .iter()
                .find(|c| c.attr == p.attr)
                .is_some_and(|mine| {
                    let inside = |c| p.codes().binary_search(c).is_ok();
                    mine.codes().iter().all(inside)
                })
        })
    }

    /// Number of predicates (for workload statistics).
    pub fn num_predicates(&self) -> usize {
        self.ranges.len() + self.cats.len()
    }

    /// Reject a query the interface over `schema` cannot mean: a range
    /// predicate with a `NaN` endpoint, or any predicate on an attribute
    /// the schema does not have.
    ///
    /// Interval construction is deliberately infallible (the algorithms
    /// build thousands on hot paths), so the check lives here and runs
    /// wherever a query arrives from outside — the session builder, the
    /// simulator, the edge's decoders. A NaN endpoint sorts after every
    /// real under the workspace total order, matching a surprising set and
    /// corrupting canonical cache-key ordering; an attribute index past the
    /// schema would reach `Tuple::ord` / `Tuple::cat` and every
    /// per-attribute index as an out-of-bounds panic.
    pub fn validate(&self, schema: &Schema) -> Result<(), ServerError> {
        let outside = |kind: &str, index: usize, have: usize| {
            ServerError::invalid_query(format!(
                "predicate on {kind} attribute index {index}, but the schema has {have}"
            ))
        };
        for p in &self.ranges {
            if p.attr.0 >= schema.num_ordinal() {
                return Err(outside("ordinal", p.attr.0, schema.num_ordinal()));
            }
            if p.interval.has_nan() {
                let attr = p.attr;
                let reason = format!("range predicate on {attr} has a NaN endpoint");
                return Err(ServerError::invalid_query(reason));
            }
        }
        let m = schema.num_categorical();
        match self.cats.iter().find(|p| p.attr.0 >= m) {
            Some(p) => Err(outside("categorical", p.attr.0, m)),
            None => Ok(()),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ranges.is_empty() && self.cats.is_empty() {
            return write!(f, "TRUE");
        }
        let mut first = true;
        for p in &self.ranges {
            if !first {
                write!(f, " AND ")?;
            }
            write!(f, "{} in {}", p.attr, p.interval)?;
            first = false;
        }
        for p in &self.cats {
            if !first {
                write!(f, " AND ")?;
            }
            write!(f, "{} in {:?}", p.attr, p.codes())?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;

    fn t(ord: Vec<f64>, cat: Vec<u32>) -> Tuple {
        Tuple::new(TupleId(0), ord, cat)
    }

    #[test]
    fn conjunction_intersects_same_attribute() {
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 10.0))
            .and_range(AttrId(0), Interval::closed(5.0, 20.0));
        assert_eq!(q.ranges().len(), 1);
        assert_eq!(q.interval(AttrId(0)), Interval::closed_open(5.0, 10.0));
    }

    #[test]
    fn matches_conjunction() {
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 10.0))
            .and_cat(CatPredicate::eq(CatId(0), 2));
        assert!(q.matches(&t(vec![5.0], vec![2])));
        assert!(!q.matches(&t(vec![5.0], vec![3])));
        assert!(!q.matches(&t(vec![10.0], vec![2])));
    }

    #[test]
    fn unsatisfiable_detection() {
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 5.0))
            .and_range(AttrId(0), Interval::open(5.0, 10.0));
        assert!(q.is_unsatisfiable());

        let q2 = Query::all()
            .and_cat(CatPredicate::eq(CatId(0), 1))
            .and_cat(CatPredicate::eq(CatId(0), 2));
        assert!(q2.is_unsatisfiable());
    }

    #[test]
    fn subsumption() {
        let outer = Query::all().and_range(AttrId(0), Interval::open(0.0, 10.0));
        let inner = Query::all().and_range(AttrId(0), Interval::closed(2.0, 8.0));
        assert!(inner.is_subsumed_by(&outer));
        assert!(!outer.is_subsumed_by(&inner));
        // Everything is subsumed by TRUE.
        assert!(outer.is_subsumed_by(&Query::all()));
    }

    #[test]
    fn cat_subsumption_requires_predicate() {
        let outer = Query::all().and_cat(CatPredicate::one_of(CatId(0), vec![1, 2]));
        let inner = Query::all().and_cat(CatPredicate::eq(CatId(0), 1));
        assert!(inner.is_subsumed_by(&outer));
        // An unconstrained query is not subsumed by a constrained one.
        assert!(!Query::all().is_subsumed_by(&outer));
    }

    #[test]
    fn validate_rejects_nan_endpoints_and_attributes_outside_the_schema() {
        use crate::schema::{CatAttr, OrdinalAttr};
        let ordinal = |name| OrdinalAttr::new(name, 0.0, 1.0);
        let schema = Schema::new(
            vec![ordinal("x"), ordinal("y")],
            vec![CatAttr::new("kind", 3)],
        );
        assert_eq!(Query::all().validate(&schema), Ok(()));
        let clean = Query::all()
            .and_range(AttrId(1), Interval::open(0.0, 1.0))
            .and_cat(CatPredicate::eq(CatId(0), 2));
        assert_eq!(clean.validate(&schema), Ok(()));
        // Either side trips the NaN test; the offending attribute is named.
        for nan in [Interval::at_most(f64::NAN), Interval::open(f64::NAN, 5.0)] {
            let err = clean.clone().and_range(AttrId(0), nan).validate(&schema);
            let reason = err.unwrap_err().to_string();
            assert!(reason.contains("A1") && reason.contains("NaN"), "{reason}");
        }
        // The first index past each attribute list is already outside.
        let err = clean.clone().and_range(AttrId(2), Interval::all());
        let reason = err.validate(&schema).unwrap_err().to_string();
        assert!(reason.contains("ordinal attribute index 2"), "{reason}");
        let err = clean.and_cat(CatPredicate::eq(CatId(1), 0));
        let reason = err.validate(&schema).unwrap_err().to_string();
        assert!(reason.contains("categorical attribute index 1"), "{reason}");
        assert!(matches!(
            Query::all()
                .and_range(AttrId(usize::MAX), Interval::all())
                .validate(&schema),
            Err(ServerError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn interval_nan_detection() {
        assert!(Interval::open(f64::NAN, 1.0).has_nan());
        assert!(Interval::closed(0.0, f64::NAN).has_nan());
        assert!(Interval::point(f64::NAN).has_nan());
        assert!(!Interval::all().has_nan());
        assert!(!Interval::open(0.0, 1.0).has_nan());
        assert!(!Interval::greater_than(f64::INFINITY).has_nan());
    }

    #[test]
    fn strip_helpers() {
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 1.0))
            .and_cat(CatPredicate::eq(CatId(0), 7));
        assert!(q.only_cats().ranges().is_empty());
        assert_eq!(q.only_cats().cats().len(), 1);
        assert!(q.only_ranges().cats().is_empty());
    }
}
