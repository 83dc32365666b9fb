//! Normalized-space geometry shared by the MD algorithms.
//!
//! A [`NormView`] pairs a user ranking function with the normalized bounds of
//! its ranking attributes; a [`NormBox`] is an axis-aligned box in that space
//! (smaller = better on every axis). The MD algorithms reason exclusively in
//! normalized space and call [`NormView::to_query`] to translate a box into
//! the real conjunctive predicates the server understands — including the
//! endpoint flip for descending-preference attributes. A box they only read
//! against history or the complete regions is not built into a query:
//! [`NormView::box_query`] writes the same predicates into a buffer the
//! caller keeps.

use qrs_ranking::{NormBounds, RankFn};
use qrs_types::query::conjoin_range;
use qrs_types::{AttrId, Conjunction, Direction, Interval, Query, RangePredicate, Schema, Tuple};
use std::sync::Arc;

/// A ranking function viewed over a concrete schema.
#[derive(Clone)]
pub struct NormView {
    rank: Arc<dyn RankFn>,
    bounds: NormBounds,
}

impl NormView {
    /// Derive the normalized bounds of the ranking attributes from the
    /// schema's declared domains.
    pub fn new(rank: Arc<dyn RankFn>, schema: &Schema) -> Self {
        let mut lo = Vec::with_capacity(rank.dims());
        let mut hi = Vec::with_capacity(rank.dims());
        for (i, &a) in rank.attrs().iter().enumerate() {
            let o = schema.ordinal(a);
            let d = rank.directions()[i];
            let (x, y) = (d.normalize(o.min), d.normalize(o.max));
            lo.push(x.min(y));
            hi.push(x.max(y));
        }
        let bounds = NormBounds::new(lo, hi);
        NormView { rank, bounds }
    }

    /// The ranking function this view normalizes for.
    #[inline]
    pub fn rank(&self) -> &Arc<dyn RankFn> {
        &self.rank
    }

    /// The per-attribute normalization bounds.
    #[inline]
    pub fn bounds(&self) -> &NormBounds {
        &self.bounds
    }

    /// Number of ranking attributes (the normalized space's dimension).
    #[inline]
    pub fn dims(&self) -> usize {
        self.rank.dims()
    }

    /// The user score of `t` (unnormalized — ranking order is what counts).
    #[inline]
    pub fn score(&self, t: &Tuple) -> f64 {
        self.rank.score(t)
    }

    /// `t`'s coordinates in the normalized `[0,1]^m` space.
    #[inline]
    pub fn norm_coords(&self, t: &Tuple) -> Vec<f64> {
        self.rank.norm_coords(t)
    }

    /// The score of the normalized point `at` with coordinate `j` moved to
    /// `v`; `at` is left as it was.
    #[inline]
    pub(crate) fn score_moved(&self, at: &mut [f64], j: usize, v: f64) -> f64 {
        let kept = std::mem::replace(&mut at[j], v);
        let score = self.rank.score_norm(at);
        at[j] = kept;
        score
    }

    /// Translate a normalized box into server predicates, ANDed onto `sel`.
    /// A query that is only read, not asked, is read in place instead
    /// ([`Self::box_query`]).
    pub fn to_query(&self, b: &NormBox, sel: &Query) -> Query {
        let mut q = sel.clone();
        for (attr, raw) in self.sides(b) {
            q.add_range(attr, raw);
        }
        q
    }

    /// `b`'s sides as raw predicates, one per ranking dimension whose side
    /// is not the whole line.
    fn sides<'a>(&'a self, b: &'a NormBox) -> impl Iterator<Item = (AttrId, Interval)> + 'a {
        let terms = self.rank.attrs().iter().zip(self.rank.directions());
        (terms.zip(&b.dims))
            .filter(|(_, iv)| **iv != Interval::all())
            .map(|((&attr, dir), iv)| {
                let raw = match dir {
                    Direction::Asc => *iv,
                    Direction::Desc => iv.negate(),
                };
                (attr, raw)
            })
    }

    /// `b ∧ sel` without building a query: [`Self::to_query`]'s range
    /// predicates, written over `ranges` (a buffer the caller keeps), and
    /// `sel`'s categorical ones.
    pub fn box_query<'a>(
        &self,
        b: &NormBox,
        sel: &'a Query,
        ranges: &'a mut Vec<RangePredicate>,
    ) -> Conjunction<'a> {
        ranges.clear();
        ranges.extend_from_slice(sel.ranges());
        for (attr, raw) in self.sides(b) {
            conjoin_range(ranges, attr, raw);
        }
        Conjunction::new(ranges, sel.cats())
    }

    /// The initial search box for a user query: the full normalized domain
    /// intersected with `sel`'s predicates on ranking attributes.
    pub fn initial_box(&self, sel: &Query) -> NormBox {
        let mut b = NormBox::full(&self.bounds);
        for (i, &a) in self.rank.attrs().iter().enumerate() {
            let raw = sel.interval(a);
            if raw == Interval::all() {
                continue;
            }
            let norm = match self.rank.directions()[i] {
                Direction::Asc => raw,
                Direction::Desc => raw.negate(),
            };
            b.dims[i] = b.dims[i].intersect(&norm);
        }
        b
    }
}

impl std::fmt::Debug for NormView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormView")
            .field("rank", &self.rank.label())
            .field("bounds", &self.bounds)
            .finish()
    }
}

/// An axis-aligned box in normalized space (one interval per ranking dim).
#[derive(Debug, PartialEq)]
pub struct NormBox {
    /// One normalized interval per ranking dimension.
    pub dims: Vec<Interval>,
}

impl Clone for NormBox {
    fn clone(&self) -> Self {
        NormBox {
            dims: self.dims.clone(),
        }
    }

    /// Copies into the box's own memory: the MD cursor copies boxes into
    /// buffers it keeps (a derived `clone_from` would allocate anew).
    fn clone_from(&mut self, source: &Self) {
        self.dims.clone_from(&source.dims);
    }
}

impl NormBox {
    /// The closed box `[lo, hi]` over the whole normalized domain.
    pub fn full(bounds: &NormBounds) -> Self {
        let mut b = NormBox { dims: Vec::new() };
        b.set_full(bounds);
        b
    }

    /// Make this box [`Self::full`], in place.
    pub(crate) fn set_full(&mut self, bounds: &NormBounds) {
        self.dims.clear();
        let sides = bounds.lo.iter().zip(&bounds.hi);
        self.dims
            .extend(sides.map(|(&l, &h)| Interval::closed(l, h)));
    }

    /// True when any dimension's interval is empty (the box contains no
    /// point).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Interval::is_empty)
    }

    /// Does the box contain a normalized point?
    pub fn contains(&self, u: &[f64]) -> bool {
        debug_assert_eq!(u.len(), self.dims.len());
        self.dims.iter().zip(u).all(|(iv, &v)| iv.contains(v))
    }

    /// Greatest finite lower corner (clamped to the domain bounds) — the
    /// box's *ideal* point, where the score is minimal.
    pub fn lo_corner(&self, bounds: &NormBounds) -> Vec<f64> {
        let mut lo = Vec::new();
        self.lo_corner_into(bounds, &mut lo);
        lo
    }

    /// [`Self::lo_corner`], written over `lo`.
    pub(crate) fn lo_corner_into(&self, bounds: &NormBounds, lo: &mut Vec<f64>) {
        lo.clear();
        lo.extend((self.dims.iter().enumerate()).map(|(i, iv)| {
            let min = bounds.lo[i];
            iv.lo.value().map_or(min, |v| v.max(min))
        }));
    }

    /// Least finite upper corner (clamped to the domain bounds).
    pub fn hi_corner(&self, bounds: &NormBounds) -> Vec<f64> {
        (0..self.dims.len()).map(|i| self.hi(i, bounds)).collect()
    }

    /// [`Self::hi_corner`]'s coordinate on dimension `i`.
    #[inline]
    pub(crate) fn hi(&self, i: usize, bounds: &NormBounds) -> f64 {
        let hi = bounds.hi[i];
        self.dims[i].hi.value().map_or(hi, |v| v.min(hi))
    }

    /// Are all dimensions single points? (An exact-duplicate cell.)
    pub fn is_cell(&self) -> bool {
        self.dims.iter().all(|iv| {
            matches!(
                (iv.lo, iv.hi),
                (qrs_types::Endpoint::Closed(a), qrs_types::Endpoint::Closed(b)) if a == b
            )
        })
    }

    /// Replace dimension `i` with its intersection with `iv`.
    pub fn with_dim(&self, i: usize, iv: Interval) -> NormBox {
        let mut b = self.clone();
        b.dims[i] = b.dims[i].intersect(&iv);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_ranking::LinearRank;
    use qrs_types::{AttrId, OrdinalAttr, TupleId};

    fn schema() -> Schema {
        Schema::new(
            vec![
                OrdinalAttr::new("price", 0.0, 100.0),
                OrdinalAttr::new("year", 2000.0, 2020.0),
            ],
            vec![],
        )
    }

    fn view() -> NormView {
        // Prefer cheap and new: price asc, year desc.
        let rank = LinearRank::new(vec![
            (AttrId(0), Direction::Asc, 1.0),
            (AttrId(1), Direction::Desc, 2.0),
        ]);
        NormView::new(Arc::new(rank), &schema())
    }

    #[test]
    fn bounds_are_normalized() {
        let v = view();
        assert_eq!(v.bounds().lo, vec![0.0, -2020.0]);
        assert_eq!(v.bounds().hi, vec![100.0, -2000.0]);
    }

    #[test]
    fn to_query_flips_desc_dims() {
        let v = view();
        let mut b = NormBox::full(v.bounds());
        // Normalized year in [-2020, -2010) ⇔ raw year in (2010, 2020].
        b.dims[1] = Interval::closed_open(-2020.0, -2010.0);
        let q = v.to_query(&b, &Query::all());
        let raw = q.interval(AttrId(1));
        assert_eq!(raw, Interval::open_closed(2010.0, 2020.0));
        let t_new = Tuple::new(TupleId(0), vec![50.0, 2015.0], vec![]);
        let t_old = Tuple::new(TupleId(1), vec![50.0, 2005.0], vec![]);
        assert!(q.matches(&t_new));
        assert!(!q.matches(&t_old));
    }

    #[test]
    fn initial_box_absorbs_sel_ranges() {
        let v = view();
        let sel = Query::all().and_range(AttrId(1), Interval::at_least(2010.0));
        let b = v.initial_box(&sel);
        // year >= 2010 ⇔ normalized year <= -2010.
        assert!(b.dims[1].contains(-2015.0));
        assert!(!b.dims[1].contains(-2005.0));
    }

    #[test]
    fn corners() {
        let v = view();
        let b = NormBox::full(v.bounds());
        assert_eq!(b.lo_corner(v.bounds()), vec![0.0, -2020.0]);
        assert_eq!(b.hi_corner(v.bounds()), vec![100.0, -2000.0]);
        let half = b.with_dim(0, Interval::closed(0.0, 50.0));
        assert_eq!(half.hi_corner(v.bounds()), vec![50.0, -2000.0]);
    }

    #[test]
    fn cell_detection() {
        let v = view();
        let mut b = NormBox::full(v.bounds());
        assert!(!b.is_cell());
        b.dims[0] = Interval::point(5.0);
        b.dims[1] = Interval::point(-2010.0);
        assert!(b.is_cell());
    }

    #[test]
    fn empty_box_detection() {
        let v = view();
        let b = NormBox::full(v.bounds()).with_dim(0, Interval::open(7.0, 7.0));
        assert!(b.is_empty());
    }

    #[test]
    fn contains_tuple_coords() {
        let v = view();
        let b = NormBox::full(v.bounds());
        let t = Tuple::new(TupleId(0), vec![10.0, 2010.0], vec![]);
        assert!(b.contains(&v.norm_coords(&t)));
    }
}
