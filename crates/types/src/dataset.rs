//! In-memory datasets: a schema plus the tuples.
//!
//! The dataset is what the *server substrate* owns. Reranking algorithms
//! never touch it directly — they only see `QueryResponse`s — but tests and
//! experiment harnesses use it to compute ground-truth answers by brute
//! force.

use crate::error::TypeError;
use crate::query::Query;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};
use crate::value::OrdF64;
use std::sync::Arc;

/// A schema plus tuples, shared immutably (`Arc`) between server and tests.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    tuples: Vec<Arc<Tuple>>,
}

impl Dataset {
    /// Validate tuples against the schema and build the dataset.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self, TypeError> {
        let schema = Arc::new(schema);
        let mut out = Vec::with_capacity(tuples.len());
        for t in tuples {
            Dataset::validate_tuple(&schema, &t)?;
            out.push(Arc::new(t));
        }
        Ok(Dataset {
            schema,
            tuples: out,
        })
    }

    /// Check one tuple against a schema — the per-tuple half of
    /// [`Dataset::new`], reused by mutable stores admitting inserts/updates.
    pub fn validate_tuple(schema: &Schema, t: &Tuple) -> Result<(), TypeError> {
        if t.ords().len() != schema.num_ordinal() {
            return Err(TypeError::OrdinalArityMismatch {
                expected: schema.num_ordinal(),
                got: t.ords().len(),
            });
        }
        if t.cats().len() != schema.num_categorical() {
            return Err(TypeError::CategoricalArityMismatch {
                expected: schema.num_categorical(),
                got: t.cats().len(),
            });
        }
        for (i, &code) in t.cats().iter().enumerate() {
            let card = schema.categorical(crate::schema::CatId(i)).cardinality;
            if code >= card {
                return Err(TypeError::CategoricalCodeOutOfRange {
                    attr: i,
                    code,
                    cardinality: card,
                });
            }
        }
        Ok(())
    }

    /// Assemble from already-shared parts without re-validation — the
    /// snapshot constructor mutable stores use to expose their current
    /// contents as an ordinary (immutable) dataset.
    pub fn from_shared(schema: Arc<Schema>, tuples: Vec<Arc<Tuple>>) -> Self {
        Dataset { schema, tuples }
    }

    /// Build without validation (generators that construct values straight
    /// from the schema use this to skip the O(n·m) re-check).
    pub fn new_unchecked(schema: Schema, tuples: Vec<Tuple>) -> Self {
        Dataset {
            schema: Arc::new(schema),
            tuples: tuples.into_iter().map(Arc::new).collect(),
        }
    }

    /// The dataset's schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples (`n` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the dataset holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples, in storage order.
    #[inline]
    pub fn tuples(&self) -> &[Arc<Tuple>] {
        &self.tuples
    }

    /// Look up a tuple by id.
    #[inline]
    pub fn get(&self, id: TupleId) -> Option<&Arc<Tuple>> {
        // TupleIds assigned by generators are positional; fall back to scan
        // for datasets assembled by hand.
        match self.tuples.get(id.0 as usize) {
            Some(t) if t.id == id => Some(t),
            _ => self.tuples.iter().find(|t| t.id == id),
        }
    }

    /// Brute-force evaluation of `R(q)`: every tuple matching the query.
    pub fn matching(&self, q: &Query) -> Vec<Arc<Tuple>> {
        self.tuples
            .iter()
            .filter(|t| q.matches(t))
            .cloned()
            .collect()
    }

    /// `|R(q)|` without materializing the result.
    pub fn count_matching(&self, q: &Query) -> usize {
        self.tuples.iter().filter(|t| q.matches(t)).count()
    }

    /// Ground-truth ranking: all matching tuples sorted ascending by `score`
    /// (IEEE total order, each tuple scored once), ties broken by `TupleId`
    /// for determinism.
    pub fn rank_by(&self, q: &Query, score: impl Fn(&Tuple) -> f64) -> Vec<Arc<Tuple>> {
        let mut v = self.matching(q);
        v.sort_by_cached_key(|t| (OrdF64(score(t)), t.id));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::schema::{AttrId, CatAttr, OrdinalAttr};

    fn mini() -> Dataset {
        let schema = Schema::new(
            vec![OrdinalAttr::new("x", 0.0, 10.0)],
            vec![CatAttr::new("c", 2)],
        );
        let tuples = vec![
            Tuple::new(TupleId(0), vec![1.0], vec![0]),
            Tuple::new(TupleId(1), vec![5.0], vec![1]),
            Tuple::new(TupleId(2), vec![9.0], vec![0]),
        ];
        Dataset::new(schema, tuples).unwrap()
    }

    #[test]
    fn validation_rejects_bad_arity() {
        let schema = Schema::new(vec![OrdinalAttr::new("x", 0.0, 1.0)], vec![]);
        let err =
            Dataset::new(schema, vec![Tuple::new(TupleId(0), vec![0.1, 0.2], vec![])]).unwrap_err();
        assert_eq!(
            err,
            TypeError::OrdinalArityMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn validation_rejects_bad_code() {
        let schema = Schema::new(
            vec![OrdinalAttr::new("x", 0.0, 1.0)],
            vec![CatAttr::new("c", 2)],
        );
        let err =
            Dataset::new(schema, vec![Tuple::new(TupleId(0), vec![0.1], vec![5])]).unwrap_err();
        assert!(matches!(err, TypeError::CategoricalCodeOutOfRange { .. }));
    }

    #[test]
    fn matching_and_counting() {
        let d = mini();
        let q = Query::all().and_range(AttrId(0), Interval::open(0.0, 6.0));
        assert_eq!(d.count_matching(&q), 2);
        assert_eq!(d.matching(&q).len(), 2);
        assert_eq!(d.count_matching(&Query::all()), 3);
    }

    #[test]
    fn rank_by_orders_ascending_with_stable_ties() {
        let d = mini();
        let ranked = d.rank_by(&Query::all(), |t| -t.ord(AttrId(0)));
        let ids: Vec<u32> = ranked.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![2, 1, 0]);
    }

    #[test]
    fn lookup_by_id() {
        let d = mini();
        assert_eq!(d.get(TupleId(1)).unwrap().ord(AttrId(0)), 5.0);
    }
}
