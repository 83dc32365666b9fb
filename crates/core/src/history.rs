//! Query-answer history (§3.1.1 "Leveraging History").
//!
//! Every tuple the server ever returns is retained and indexed per attribute;
//! all algorithms consult the history before spending a query, and the
//! sharing happens *across user queries* — the paper's point being that the
//! more the service is used, the cheaper each rerank becomes.
//!
//! Its companion, [`SharedState::complete`](crate::SharedState::complete),
//! remembers queries whose answer was *complete* (valid or underflow
//! responses, and fully crawled regions): if a new query is subsumed by a
//! remembered region, its entire answer is already in history and costs
//! zero server queries. Neither walks what it has learned on the hot path:
//! the regions are a [`RegionIndex`](qrs_types::RegionIndex), and a covered
//! query reaches its tuples through the tightest attribute range it offers
//! ([`History::candidates`]).
//!
//! **Layout.** A tuple is stored once, as a *row*: its `Arc<Tuple>`, its
//! ordinal values row-major, and one [`order_key`] per value. Each ordinal
//! attribute is indexed by `(key, id, row)` entries in `(value, id)` order,
//! cut into sorted runs of at most 1 024 entries, so recording a tuple
//! costs a binary search and a bounded move per attribute however much
//! history holds. A read compiles the query's range predicates once into
//! inclusive key bounds ([`Interval::key_bounds`]), so a row matches by
//! integer compares, and scores a match from its row through
//! [`RankFn::score_norm`], which gives `score`'s bits by `RankFn`'s
//! contract. A read never follows a row's `Arc` except to return it, or to
//! test a categorical predicate. Iteration is deterministic: along an
//! attribute in `(value, id)` order, and over every row in recording order,
//! so two histories recorded alike answer alike, order included.
//!
//! Every read takes its predicates as a [`Conjunction`]: a
//! [`Query`](qrs_types::Query)'s, or the MD search's box ANDed onto its
//! selection, written into a buffer the search keeps
//! ([`NormView::box_query`](crate::norm::NormView::box_query)), so a read
//! of a box builds no query. The MD search's history read,
//! `md::top1::history_best`, asks for the lowest-scoring known tuple in a
//! box, so it walks a ranking axis in score order instead
//! (`History::lowest`): the tightest predicate's
//! attribute when that one ranks, else the ranking attribute along which
//! the score climbs most across the box. Each tuple's coordinate on that
//! axis, with the box's low corner elsewhere, bounds from below the score
//! of every tuple after it, and the walk stops at the first bound
//! *strictly* above the best score: stopping at an equal bound could skip a
//! tie with a smaller id, so the answer stays the exact `(score, id)`
//! minimum. The cost of a read grows with how far the best known tuple
//! sits along the axis, not with how much history holds.

use qrs_ranking::RankFn;
use qrs_types::value::{from_order_key, order_key, OrdF64};
use qrs_types::{
    AttrId, Conjunction, Direction, Interval, QueryResponse, RangePredicate, Tuple, TupleId,
};
use std::collections::hash_map::{Entry as Slot, HashMap};
use std::sync::Arc;

/// The most entries one run of an attribute's index holds: a full run is
/// halved before it takes another.
const RUN: usize = 1024;

/// Range predicates a read compiles to key bounds, and ranking
/// coordinates it scores a row in, without allocating.
const INLINE: usize = 8;

/// One entry of an attribute's index: a row's key on the attribute, its
/// tuple's id (the tie order), and the row.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    id: TupleId,
    row: u32,
}

impl Entry {
    /// The index's order: `(value, id)`.
    #[inline]
    fn at(&self) -> (u64, TupleId) {
        (self.key, self.id)
    }
}

/// All tuples observed so far, one row each, with a per-attribute index
/// of sorted runs (module docs, "Layout").
#[derive(Debug, Default)]
pub struct History {
    /// Ordinal attributes per row.
    width: usize,
    /// Row `r`'s tuple, rows in recording order.
    tuples: Vec<Arc<Tuple>>,
    /// Row `r`'s ordinal values, `vals[r * width..][..width]`.
    vals: Vec<f64>,
    /// Row `r`'s [`order_key`]s, laid out as `vals`.
    keys: Vec<u64>,
    /// Tuple id → row.
    rows: HashMap<TupleId, u32>,
    /// Per ordinal attribute: every row's entry in `(value, id)` order, in
    /// runs of 1 to [`RUN`] entries.
    by_attr: Vec<Vec<Vec<Entry>>>,
}

impl History {
    /// An empty history over a schema with `num_ordinal_attrs` ordinal
    /// attributes.
    pub fn new(num_ordinal_attrs: usize) -> Self {
        History {
            width: num_ordinal_attrs,
            by_attr: vec![Vec::new(); num_ordinal_attrs],
            ..History::default()
        }
    }

    /// Number of distinct tuples observed.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuple has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// True when the tuple with this id has been observed.
    pub fn contains(&self, id: TupleId) -> bool {
        self.rows.contains_key(&id)
    }

    /// Look up an observed tuple by id.
    pub fn get(&self, id: TupleId) -> Option<&Arc<Tuple>> {
        self.rows.get(&id).map(|&r| &self.tuples[r as usize])
    }

    /// Record one tuple. An id is recorded once: within one site epoch it
    /// names one tuple, so a later tuple with a recorded id is ignored.
    pub fn record(&mut self, t: &Arc<Tuple>) {
        // Fits: every row holds a distinct `u32` id, this one new.
        let row = self.tuples.len() as u32;
        let Slot::Vacant(slot) = self.rows.entry(t.id) else {
            return;
        };
        slot.insert(row);
        let vals = &t.ords()[..self.width];
        self.tuples.push(Arc::clone(t));
        self.vals.extend_from_slice(vals);
        let start = self.keys.len();
        self.keys.extend(vals.iter().map(|&v| order_key(v)));
        for (runs, &key) in self.by_attr.iter_mut().zip(&self.keys[start..]) {
            let id = t.id;
            insert(runs, Entry { key, id, row });
        }
    }

    /// Record every tuple of a response.
    pub fn record_response(&mut self, resp: &QueryResponse) {
        for t in &resp.tuples {
            self.record(t);
        }
    }

    /// The entries of `attr`'s index whose value lies in `iv`, in
    /// `(value, id)` order.
    fn span(&self, attr: AttrId, iv: Interval) -> impl DoubleEndedIterator<Item = &Entry> + '_ {
        let runs = &self.by_attr[attr.0];
        let within = iv.key_bounds().map(|(lo, hi)| {
            let first = runs.partition_point(|r| r[r.len() - 1].key < lo);
            let end = runs.partition_point(|r| r[0].key <= hi);
            runs[first..end].iter().flat_map(move |r| {
                &r[r.partition_point(|e| e.key < lo)..r.partition_point(|e| e.key <= hi)]
            })
        });
        within.into_iter().flatten()
    }

    /// `q` compiled against the rows, leaving out its predicate on
    /// `spanned`, whose index range the caller walks; `None` when one of
    /// its ranges admits no value.
    fn compile<'a>(&'a self, q: Conjunction<'a>, spanned: Option<AttrId>) -> Option<Matcher<'a>> {
        let mut m = Matcher {
            history: self,
            q,
            bounds: [(0, 0, 0); INLINE],
            len: 0,
            rest: !q.cats().is_empty(),
        };
        for p in q.ranges().iter().filter(|p| Some(p.attr) != spanned) {
            let (lo, hi) = p.interval.key_bounds()?;
            match p.attr.0 < self.width && m.len < INLINE {
                true => (m.bounds[m.len], m.len) = ((p.attr.0, lo, hi), m.len + 1),
                false => m.rest = true,
            }
        }
        Some(m)
    }

    /// The tuple matching `q` with the least (normalized value, id) along
    /// `attr` in direction `dir` among those whose normalized value lies in
    /// `norm_iv`; `None` for an empty interval.
    pub fn first_norm_in<'q>(
        &self,
        attr: AttrId,
        dir: Direction,
        norm_iv: Interval,
        q: impl Into<Conjunction<'q>>,
    ) -> Option<&Arc<Tuple>> {
        let m = self.compile(q.into(), None)?;
        let found = match dir {
            Direction::Asc => self.span(attr, norm_iv).find(|e| m.matches(e.row)),
            // From the top, ids descend within a value: the answer is the
            // last match before the value changes under the first one.
            Direction::Desc => {
                let mut best: Option<&Entry> = None;
                for e in self.span(attr, norm_iv.negate()).rev() {
                    if best.is_some_and(|b| b.key > e.key) {
                        break;
                    }
                    if m.matches(e.row) {
                        best = Some(e);
                    }
                }
                best
            }
        };
        found.map(|e| &self.tuples[e.row as usize])
    }

    /// The share of `p.attr`'s observed span that `p` admits: 0 for a point
    /// or an empty range, 1 for one wider than everything seen. Where
    /// history holds one value on the attribute, the span is that value and
    /// `p` admits all of it (1) or none of it (0).
    fn share(&self, p: &RangePredicate) -> f64 {
        let runs = &self.by_attr[p.attr.0];
        let (Some(first), Some(last)) = (runs.first(), runs.last()) else {
            return 0.0;
        };
        let (min, max) = (
            from_order_key(first[0].key),
            from_order_key(last[last.len() - 1].key),
        );
        if min == max {
            return if p.interval.contains(min) { 1.0 } else { 0.0 };
        }
        let lo = p.interval.lo.value().map_or(min, |v| v.max(min));
        let hi = p.interval.hi.value().map_or(max, |v| v.min(max));
        ((hi - lo) / (max - min)).max(0.0)
    }

    /// `q`'s tightest range predicate: a point, else the one admitting the
    /// smallest share of its attribute's observed span (the first of equal
    /// shares); `None` when `q` has no range predicate — a
    /// categorical-only query.
    pub(crate) fn tightest<'q>(&self, q: impl Into<Conjunction<'q>>) -> Option<&'q RangePredicate> {
        (q.into().ranges().iter())
            .filter(|p| p.attr.0 < self.width && !p.interval.is_all())
            .min_by_key(|p| OrdF64(self.share(p)))
    }

    /// The observed tuples matching `q`: along its tightest range
    /// predicate's attribute in `(value, id)` order, or every row in
    /// recording order when it has none.
    pub fn candidates<'a>(
        &'a self,
        q: impl Into<Conjunction<'a>>,
    ) -> impl Iterator<Item = &'a Arc<Tuple>> + 'a {
        let q = q.into();
        let spanned = self.tightest(q);
        let matcher = self.compile(q, spanned.map(|p| p.attr));
        matcher.into_iter().flat_map(move |m| {
            let span = spanned.map(|p| self.span(p.attr, p.interval).map(|e| e.row));
            let every = spanned.is_none().then_some(0..self.tuples.len() as u32);
            let rows = span
                .into_iter()
                .flatten()
                .chain(every.into_iter().flatten());
            rows.filter(move |&r| m.matches(r))
                .map(|r| &self.tuples[r as usize])
        })
    }

    /// Whether more than `n` observed tuples match `q` — a query that would
    /// overflow a top-`n` page on what history alone already knows.
    pub fn holds_more_than<'q>(&self, q: impl Into<Conjunction<'q>>, n: usize) -> bool {
        self.candidates(q.into()).nth(n).is_some()
    }

    /// All observed tuples matching `q`, sorted by id — authoritative when a
    /// complete region covers `q`.
    pub fn matching<'q>(&self, q: impl Into<Conjunction<'q>>) -> Vec<Arc<Tuple>> {
        let mut v: Vec<Arc<Tuple>> = self.candidates(q.into()).cloned().collect();
        v.sort_by_key(|t| t.id);
        v
    }

    /// The `(score, id)`-least tuple matching `q` under `rank`, with its
    /// score, by a threshold walk along ranking axis `axis` of `q`'s box,
    /// whose low corner is `at` and whose upper end on that axis is `hi`
    /// (module docs; `md::top1::history_best` picks the axis). The walk
    /// moves `at`'s coordinate on `axis` and leaves it moved.
    ///
    /// Rows come in normalized-ascending order along the axis, and each
    /// bounds every later one from below by the axis bound: `score_norm`
    /// of the low corner with only the walked coordinate replaced by its
    /// own (every tuple lies in the schema's domain). The walk stops at the
    /// first row whose bound *strictly* exceeds the best score: one whose
    /// bound equals it may still tie the best with a smaller id. The cut
    /// coordinate where the bound reaches the best score is recomputed
    /// only when the best improves (one `ell`), so a step below it is one
    /// float compare and a step at or above it one `score_norm`.
    pub(crate) fn lowest(
        &self,
        q: Conjunction<'_>,
        rank: &dyn RankFn,
        axis: usize,
        at: &mut [f64],
        hi: f64,
    ) -> Option<(&Arc<Tuple>, f64)> {
        let (attr, dir) = (rank.attrs()[axis], rank.directions()[axis]);
        let m = self.compile(q, Some(attr))?;
        let span = self.span(attr, q.interval(attr));
        let best = match dir {
            Direction::Asc => m.walk(rank, axis, at, hi, span),
            Direction::Desc => m.walk(rank, axis, at, hi, span.rev()),
        };
        best.map(|(row, s)| (&self.tuples[row as usize], s))
    }
}

/// Put `e` into its attribute's runs, halving a full run first.
fn insert(runs: &mut Vec<Vec<Entry>>, e: Entry) {
    // The last run whose first entry comes before `e`, or the first.
    let mut i = runs
        .partition_point(|r| r[0].at() < e.at())
        .saturating_sub(1);
    if runs.is_empty() {
        runs.push(Vec::new());
    } else if runs[i].len() == RUN {
        let upper = runs[i].split_off(RUN / 2);
        runs.insert(i + 1, upper);
        i += usize::from(runs[i + 1][0].at() < e.at());
    }
    let run = &mut runs[i];
    run.insert(run.partition_point(|x| x.at() < e.at()), e);
}

/// A ranking's attributes and directions, read once per walk.
type Terms<'r> = (&'r [AttrId], &'r [Direction]);

/// A conjunction compiled against a history's rows: inclusive key bounds
/// per range predicate, and whether the tuple must be read for the rest (a
/// categorical predicate, a range on an attribute past the rows, or more
/// than [`INLINE`] ranges).
struct Matcher<'a> {
    history: &'a History,
    q: Conjunction<'a>,
    /// `(attribute, lowest key, highest key)`, the first `len` in use.
    bounds: [(usize, u64, u64); INLINE],
    len: usize,
    rest: bool,
}

impl Matcher<'_> {
    /// Does row `r` match the query?
    #[inline]
    fn matches(&self, r: u32) -> bool {
        let h = self.history;
        let keys = &h.keys[r as usize * h.width..][..h.width];
        // Every bound is tested, without a branch between them: whether a
        // row matches is a coin toss the predictor loses either way.
        let inside = (self.bounds[..self.len].iter()).fold(true, |ok, &(a, lo, hi)| {
            ok & (lo <= keys[a]) & (keys[a] <= hi)
        });
        inside && (!self.rest || self.q.matches(&h.tuples[r as usize]))
    }

    /// Row `r`'s score under `rank`, whose attributes and directions are
    /// `terms`, its normalized coordinates read from the row into `u`.
    #[inline]
    fn score(&self, rank: &dyn RankFn, terms: Terms, r: u32, u: &mut [f64]) -> f64 {
        let h = self.history;
        let vals = &h.vals[r as usize * h.width..][..h.width];
        for ((x, a), d) in u.iter_mut().zip(terms.0).zip(terms.1) {
            *x = d.normalize(vals[a.0]);
        }
        rank.score_norm(u)
    }

    /// [`History::lowest`]'s walk over `entries`, in normalized-ascending
    /// order along `axis`: the best match's row and score.
    fn walk<'e>(
        &self,
        rank: &dyn RankFn,
        axis: usize,
        at: &mut [f64],
        hi: f64,
        entries: impl Iterator<Item = &'e Entry>,
    ) -> Option<(u32, f64)> {
        let terms = (rank.attrs(), rank.directions());
        let (dir, lo) = (terms.1[axis], at[axis]);
        // `ℓ` from the low corner, whatever the walk has moved `at` to.
        let ell = |at: &mut [f64], s: f64| {
            let moved = std::mem::replace(&mut at[axis], lo);
            let cut = rank.ell(axis, s, at, hi).unwrap_or(f64::INFINITY);
            at[axis] = moved;
            cut
        };
        let (mut inline, mut heap) = ([0.0; INLINE], Vec::new());
        let u: &mut [f64] = match at.len() <= INLINE {
            true => &mut inline[..at.len()],
            false => {
                heap.resize(at.len(), 0.0);
                &mut heap
            }
        };
        let (mut best, mut cut): (Option<(&Entry, f64)>, _) = (None, f64::INFINITY);
        for e in entries {
            at[axis] = dir.normalize(from_order_key(e.key));
            if at[axis] >= cut && best.is_none_or(|(_, s)| rank.score_norm(at) > s) {
                break;
            }
            if self.matches(e.row) {
                let s = self.score(rank, terms, e.row, u);
                if best.is_none_or(|(_, bs)| s < bs) {
                    cut = ell(at, s);
                }
                if best.is_none_or(|(b, bs)| s < bs || (s == bs && e.id < b.id)) {
                    best = Some((e, s));
                }
            }
        }
        best.map(|(e, s)| (e.row, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::NormView;
    use qrs_types::{Endpoint, Query, QueryOutcome};
    use std::collections::BTreeMap;

    fn t(id: u32, vals: Vec<f64>) -> Arc<Tuple> {
        Arc::new(Tuple::new(TupleId(id), vals, vec![]))
    }

    fn hist() -> History {
        let mut h = History::new(2);
        for (i, (a, b)) in [(1.0, 9.0), (2.0, 8.0), (2.0, 7.0), (5.0, 1.0)]
            .into_iter()
            .enumerate()
        {
            h.record(&t(i as u32, vec![a, b]));
        }
        h
    }

    #[test]
    fn record_is_idempotent() {
        let mut h = History::new(1);
        let x = t(3, vec![1.0]);
        h.record(&x);
        h.record(&x);
        assert_eq!(h.len(), 1);
        assert!(h.contains(TupleId(3)));
    }

    #[test]
    fn record_response_stores_all() {
        let mut h = History::new(1);
        let resp = QueryResponse {
            tuples: vec![t(0, vec![1.0]), t(1, vec![2.0])],
            outcome: QueryOutcome::Valid,
        };
        h.record_response(&resp);
        assert_eq!(h.len(), 2);
    }

    /// The ids `candidates` hands out for one range predicate on `attr`.
    fn along(h: &History, attr: AttrId, iv: Interval) -> Vec<u32> {
        let q = Query::all().and_range(attr, iv);
        h.candidates(&q).map(|t| t.id.0).collect()
    }

    #[test]
    fn range_respects_open_bounds() {
        // The two x=2 tuples, id order within key.
        assert_eq!(along(&hist(), AttrId(0), Interval::open(1.0, 5.0)), [1, 2]);
    }

    #[test]
    fn first_norm_in_open_intervals_asc_and_desc() {
        let h = hist();
        let q = Query::all();
        // Ascending on attr0 after 1.0 → the smallest id at value 2.0.
        let n = h
            .first_norm_in(AttrId(0), Direction::Asc, Interval::greater_than(1.0), &q)
            .unwrap();
        assert_eq!(n.ord(AttrId(0)), 2.0);
        // Descending on attr0: normalized value = -x; after -5.0 means x < 5.
        let d = h
            .first_norm_in(AttrId(0), Direction::Desc, Interval::greater_than(-5.0), &q)
            .unwrap();
        assert_eq!(d.ord(AttrId(0)), 2.0);
        // From the very start.
        let first = h
            .first_norm_in(AttrId(0), Direction::Asc, Interval::all(), &q)
            .unwrap();
        assert_eq!(first.ord(AttrId(0)), 1.0);
    }

    #[test]
    fn first_norm_in_respects_an_open_upper_end_and_the_filter() {
        let h = hist();
        let q = Query::all().and_range(AttrId(1), Interval::at_most(8.0));
        // after 1, upto 5 (exclusive), filtered to attr1 <= 8 → x = 2 rows.
        let n = h
            .first_norm_in(AttrId(0), Direction::Asc, Interval::open(1.0, 5.0), &q)
            .unwrap();
        assert_eq!(n.ord(AttrId(0)), 2.0);
        // upto 2 (exclusive) excludes them.
        assert!(h
            .first_norm_in(AttrId(0), Direction::Asc, Interval::open(1.0, 2.0), &q)
            .is_none());
    }

    /// Inverted and equal-and-excluded bounds are empty ranges, not panics.
    #[test]
    fn first_norm_in_finds_an_empty_open_interval_empty() {
        let h = hist();
        let q = Query::all();
        for dir in [Direction::Asc, Direction::Desc] {
            for (after, upto) in [(2.0, 2.0), (5.0, 1.0), (-2.0, -2.0), (-1.0, -5.0)] {
                let found = h.first_norm_in(AttrId(0), dir, Interval::open(after, upto), &q);
                assert!(found.is_none(), "{dir:?} ({after}, {upto})");
            }
        }
    }

    /// `first_norm_in` stops at the first match it walks to; its answer must
    /// stay the `(value, id)` minimum — descending, the `(value,
    /// Reverse(id))` maximum — of every match in range, over a history
    /// with many ids per value.
    #[test]
    fn first_norm_in_is_the_extreme_of_all_matches_in_range() {
        use qrs_types::{CatId, CatPredicate};
        use std::cmp::Reverse;
        let seed = std::env::var("QRS_TEST_SEED").ok();
        let seed: u64 = seed.and_then(|s| s.parse().ok()).unwrap_or(0);
        let data = qrs_datagen::synthetic::discrete_grid(300, 2, 8, 23 ^ seed);
        let mut h = History::new(2);
        data.tuples().iter().for_each(|t| h.record(t));
        let attr = AttrId(0);
        let (mut found, mut asked) = (0, 0);
        for codes in [vec![0, 1, 2, 3], vec![2], vec![0, 3]] {
            let q = Query::all()
                .and_cat(CatPredicate::one_of(CatId(0), codes))
                .and_range(AttrId(1), Interval::closed(1.0, 5.0));
            for dir in [Direction::Asc, Direction::Desc] {
                // Normalized values are 0..=7 ascending, -7..=0 descending.
                for a in -9..=8 {
                    let (a, b) = (f64::from(a), f64::from(a + (a & 3)));
                    for norm_iv in [
                        Interval::open(a, b),
                        Interval::closed(a, b),
                        Interval::closed_open(a, b),
                        Interval::open_closed(a, b + 0.5),
                        Interval::greater_than(a),
                        Interval::at_most(b),
                        Interval::all(),
                        Interval::closed(b + 1.0, a),
                    ] {
                        let raw_iv = match dir {
                            Direction::Asc => norm_iv,
                            Direction::Desc => norm_iv.negate(),
                        };
                        let matches = data
                            .tuples()
                            .iter()
                            .filter(|t| raw_iv.contains(t.ord(attr)) && q.matches(t));
                        let want = match dir {
                            Direction::Asc => matches.min_by_key(|t| (OrdF64(t.ord(attr)), t.id)),
                            Direction::Desc => {
                                matches.max_by_key(|t| (OrdF64(t.ord(attr)), Reverse(t.id)))
                            }
                        };
                        let got = h.first_norm_in(attr, dir, norm_iv, &q);
                        assert_eq!(got, want, "{dir:?} {norm_iv} under {q}");
                        found += usize::from(want.is_some());
                        asked += 1;
                    }
                }
            }
        }
        assert!(
            found * 3 >= asked,
            "vacuous: {found} of {asked} found a tuple"
        );
    }

    /// An attribute on which history holds one value spans nothing: a
    /// predicate admitting that value admits every tuple, so it is not the
    /// tightest (it once divided 0 by 0 and won), and one excluding it is.
    #[test]
    fn tightest_skips_a_predicate_that_admits_a_single_valued_attribute() {
        let mut h = History::new(2);
        for i in 0..8 {
            h.record(&t(i, vec![5.0, f64::from(i)]));
        }
        let pick = |q: &Query| h.tightest(q).map(|p| p.attr);
        let admits = Query::all()
            .and_range(AttrId(0), Interval::closed(0.0, 10.0))
            .and_range(AttrId(1), Interval::closed(2.0, 3.0));
        assert_eq!(pick(&admits), Some(AttrId(1)));
        assert_eq!(h.candidates(&admits).count(), 2);
        let point = Query::all()
            .and_range(AttrId(0), Interval::point(5.0))
            .and_range(AttrId(1), Interval::closed(2.0, 3.0));
        assert_eq!(pick(&point), Some(AttrId(1)));
        let excludes = Query::all()
            .and_range(AttrId(0), Interval::open(5.0, 10.0))
            .and_range(AttrId(1), Interval::closed(2.0, 3.0));
        assert_eq!(pick(&excludes), Some(AttrId(0)));
        assert_eq!(h.candidates(&excludes).count(), 0);
    }

    /// `matching` and `history_best` reach tuples through one `by_attr`
    /// range — the tightest predicate's, or a ranking axis's; each must
    /// return what one pass over every tuple returns, in the same order.
    #[test]
    fn by_attr_paths_agree_with_a_pass_over_every_tuple() {
        use crate::ctx::SharedState;
        use crate::md::top1::{history_best, BoxReader};
        use qrs_types::{CatId, CatPredicate};
        let data = qrs_datagen::synthetic::discrete_grid(300, 3, 6, 11);
        let params = crate::params::RerankParams::paper_defaults(300, 5);
        let mut st = SharedState::new(data.schema(), params);
        data.tuples().iter().for_each(|t| st.history.record(t));
        let scan = |q: &Query| {
            let mut all: Vec<_> = st.history.tuples.iter().collect();
            all.sort_by_key(|t| t.id);
            all.retain(|t| q.matches(t));
            all.into_iter().cloned().collect::<Vec<_>>()
        };
        // Descending first ranking dimension: its box side is negated.
        let rank = qrs_ranking::LinearRank::new(vec![
            (AttrId(2), Direction::Desc, 1.0),
            (AttrId(0), Direction::Asc, 0.5),
        ]);
        let view = NormView::new(Arc::new(rank), data.schema());
        let cat = CatPredicate::one_of(CatId(0), vec![1, 3]);
        let several = Query::all()
            .and_range(AttrId(0), Interval::open(0.0, 4.0))
            .and_range(AttrId(1), Interval::at_most(3.0))
            .and_range(AttrId(2), Interval::closed(2.0, 3.0));
        for (name, q) in [
            ("no range predicate", Query::all()),
            ("categorical only", Query::all().and_cat(cat.clone())),
            (
                "one point",
                Query::all().and_range(AttrId(1), Interval::point(2.0)),
            ),
            ("several ranges", several.clone()),
            ("ranges and a category", several.and_cat(cat)),
            (
                "an empty range",
                Query::all().and_range(AttrId(2), Interval::open(1.0, 1.0)),
            ),
        ] {
            let want = scan(&q);
            assert_eq!(st.history.matching(&q), want, "matching: {name}");
            assert!(
                name == "an empty range" || !want.is_empty(),
                "vacuous: {name}"
            );
            let b = view.initial_box(&q);
            let best = scan(&view.to_query(&b, &q))
                .into_iter()
                .map(|t| (view.score(&t), t))
                .min_by_key(|(s, t)| (OrdF64(*s), t.id));
            let got = history_best(&st, &mut BoxReader::new(view.clone(), q.clone()), &b);
            assert_eq!(got.map(|(t, s)| (s, t)), best, "history_best: {name}");
        }
    }

    /// `history_best` walks one ranking axis and stops at the first tuple
    /// whose axis bound exceeds the best score. Its answer must stay the
    /// `(score, id)` minimum over every history tuple matching the box — on
    /// grid data, where tuples tie on the cut, and whichever axis it walks.
    #[test]
    fn history_best_is_the_minimum_over_every_match() {
        use crate::md::top1::{history_best, BoxReader};
        use crate::{ctx::SharedState, norm::NormBox};
        use qrs_datagen::synthetic::{discrete_grid, uniform};
        use qrs_ranking::{LinearRank, RankFn};
        use qrs_types::{CatId, CatPredicate};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let seed = std::env::var("QRS_TEST_SEED").ok();
        let seed: u64 = seed.and_then(|s| s.parse().ok()).unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(29 ^ seed);
        let (mut asked, mut found, mut early, mut steepest) = (0, 0, 0, 0);
        for data in [
            discrete_grid(400, 4, 5, 31 ^ seed),
            uniform(400, 4, 1, 37 ^ seed),
        ] {
            let params = crate::params::RerankParams::paper_defaults(400, 5);
            let mut st = SharedState::new(data.schema(), params);
            for t in data
                .tuples()
                .iter()
                .filter(|_| rng.random_range(0..4u32) > 0)
            {
                st.history.record(t);
            }
            let known: Vec<Arc<Tuple>> = st.history.tuples.to_vec();
            for _ in 0..300 {
                // Two or three of the four attributes, mixed directions;
                // small whole weights tie grid scores across cells.
                let mut free: Vec<usize> = (0..4).collect();
                let m = rng.random_range(2..4usize);
                let terms = (0..m).map(|_| {
                    let a = free.swap_remove(rng.random_range(0..free.len()));
                    let dir = [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
                    let w = [1.0, 2.0, 0.5 + rng.random::<f64>()][rng.random_range(0..3usize)];
                    (AttrId(a), dir, w)
                });
                let rank = LinearRank::new(terms.collect());
                let view = NormView::new(Arc::new(rank.clone()), data.schema());
                let mut b = NormBox::full(view.bounds());
                for (d, side) in b.dims.iter_mut().enumerate() {
                    let (lo, hi) = (view.bounds().lo[d], view.bounds().hi[d]);
                    let mut at = || match rng.random::<bool>() {
                        true => lo + (hi - lo) * f64::from(rng.random_range(0..=4u32)) / 4.0,
                        false => lo + (hi - lo) * rng.random::<f64>(),
                    };
                    let (x, y) = (at(), at());
                    let (x, y) = (x.min(y), x.max(y));
                    *side = match rng.random_range(0..10u32) {
                        0 => Interval::point(x),
                        1 => Interval::open(x, x),
                        2 => Interval::open(x, y),
                        3 => Interval::closed(x, y),
                        4 => Interval::closed_open(x, y),
                        5 => Interval::open_closed(x, y),
                        6 => Interval::greater_than(x),
                        7 => Interval::at_most(y),
                        _ => *side,
                    };
                }
                let mut sel = Query::all();
                if rng.random::<bool>() {
                    let codes = vec![rng.random_range(0..4u32), rng.random_range(0..4u32)];
                    sel.add_cat(CatPredicate::one_of(CatId(0), codes));
                }
                // A non-ranking range narrower than a box side: the walk
                // takes the steepest ranking axis instead.
                if rng.random::<bool>() {
                    let a = AttrId(free[rng.random_range(0..free.len())]);
                    let (lo, hi) = (data.schema().ordinal(a).min, data.schema().ordinal(a).max);
                    let x = lo + (hi - lo) * f64::from(rng.random_range(0..=4u32)) / 4.0;
                    sel.add_range(a, Interval::closed(x, x + (hi - lo) * 0.05));
                }
                // The box of `b ∧ sel`: the domain's, narrowed by `b`.
                let b = view.initial_box(&view.to_query(&b, &sel));
                let q = view.to_query(&b, &sel);
                let want = (known.iter().filter(|t| q.matches(t)))
                    .map(|t| (view.score(t), t.id))
                    .min_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                let rd = &mut BoxReader::new(view.clone(), sel.clone());
                let got = history_best(&st, rd, &b);
                assert_eq!(
                    got.map(|(t, s)| (t.id, s.to_bits())),
                    want.map(|(s, id)| (id, s.to_bits())),
                    "{} under {q}",
                    rank.label()
                );
                asked += 1;
                let Some((best, _)) = want else { continue };
                found += 1;
                let tightest = st.history.tightest(&q);
                steepest += usize::from(tightest.is_some_and(|p| !rank.attrs().contains(&p.attr)));
                // Early: every axis holds a tuple in range whose bound
                // exceeds the answer, so the walk ends before its range does.
                let lo = view.initial_box(&q).lo_corner(view.bounds());
                let stops = |j: usize| {
                    let (a, d) = (rank.attrs()[j], rank.directions()[j]);
                    known.iter().any(|t| {
                        let mut u = lo.clone();
                        u[j] = d.normalize(t.ord(a));
                        q.interval(a).contains(t.ord(a)) && rank.score_norm(&u) > best
                    })
                };
                early += usize::from((0..m).all(stops));
            }
        }
        assert!(
            found * 3 >= asked,
            "vacuous: {found} of {asked} boxes held a match"
        );
        assert!(
            early * 5 >= found,
            "vacuous: {early} of {found} walks stopped early"
        );
        assert!(
            steepest * 10 >= found,
            "vacuous: {steepest} of {found} took the steepest axis"
        );
    }

    /// Two histories recorded alike hand out a categorical-only query's
    /// matches in the same order: recording order, not a hash map's.
    #[test]
    fn a_categorical_only_query_reads_in_recording_order() {
        use qrs_types::{CatId, CatPredicate};
        let tuples: Vec<Arc<Tuple>> = (0..64u32)
            .map(|i| {
                let id = TupleId(i.wrapping_mul(2_654_435_761) >> 8);
                Arc::new(Tuple::new(id, vec![f64::from(i % 5)], vec![i % 3]))
            })
            .collect();
        let recorded = || {
            let mut h = History::new(1);
            tuples.iter().for_each(|t| h.record(t));
            h
        };
        let (a, b) = (recorded(), recorded());
        let q = Query::all().and_cat(CatPredicate::one_of(CatId(0), vec![0, 2]));
        let ids = |h: &History| {
            let matches = h.candidates(&q).filter(|t| q.matches(t));
            matches.map(|t| t.id).collect::<Vec<_>>()
        };
        let want: Vec<TupleId> = (tuples.iter())
            .filter(|t| q.matches(t))
            .map(|t| t.id)
            .collect();
        assert_eq!(ids(&a), want);
        assert_eq!(ids(&b), want);
    }

    /// The index `History` replaced, kept beside it as the reference: per
    /// attribute a `BTreeMap` from `(value, id)` to the tuple, and the
    /// tuples in recording order. Each read below is the one the history
    /// answered before rows and runs, written over this map.
    struct Reference {
        ids: std::collections::HashSet<TupleId>,
        tuples: Vec<Arc<Tuple>>,
        by_attr: Vec<BTreeMap<(OrdF64, TupleId), Arc<Tuple>>>,
    }

    impl Reference {
        fn new(width: usize) -> Self {
            Reference {
                ids: Default::default(),
                tuples: Vec::new(),
                by_attr: vec![BTreeMap::new(); width],
            }
        }

        fn record(&mut self, t: &Arc<Tuple>) {
            if self.ids.insert(t.id) {
                self.tuples.push(Arc::clone(t));
                for (i, idx) in self.by_attr.iter_mut().enumerate() {
                    idx.insert((OrdF64(t.ord(AttrId(i))), t.id), Arc::clone(t));
                }
            }
        }

        fn span(&self, attr: AttrId, iv: Interval) -> Vec<&Arc<Tuple>> {
            use std::ops::Bound;
            if iv.is_empty() {
                return Vec::new(); // `BTreeMap::range` panics on inverted bounds
            }
            let lo = match iv.lo {
                Endpoint::Unbounded => Bound::Unbounded,
                Endpoint::Open(v) => Bound::Excluded((OrdF64(v), TupleId(u32::MAX))),
                Endpoint::Closed(v) => Bound::Included((OrdF64(v), TupleId(0))),
            };
            let hi = match iv.hi {
                Endpoint::Unbounded => Bound::Unbounded,
                Endpoint::Open(v) => Bound::Excluded((OrdF64(v), TupleId(0))),
                Endpoint::Closed(v) => Bound::Included((OrdF64(v), TupleId(u32::MAX))),
            };
            self.by_attr[attr.0]
                .range((lo, hi))
                .map(|(_, t)| t)
                .collect()
        }

        fn first_norm_in(
            &self,
            attr: AttrId,
            dir: Direction,
            norm_iv: Interval,
            q: &Query,
        ) -> Option<&Arc<Tuple>> {
            let range = match dir {
                Direction::Asc => self.span(attr, norm_iv),
                Direction::Desc => self.span(attr, norm_iv.negate()),
            };
            match dir {
                Direction::Asc => range.into_iter().find(|t| q.matches(t)),
                Direction::Desc => {
                    let mut best: Option<&Arc<Tuple>> = None;
                    for t in range.into_iter().rev() {
                        if best.is_some_and(|b| OrdF64(b.ord(attr)) > OrdF64(t.ord(attr))) {
                            break;
                        }
                        if q.matches(t) {
                            best = Some(t);
                        }
                    }
                    best
                }
            }
        }

        fn tightest<'q>(&self, q: &'q Query) -> Option<&'q RangePredicate> {
            let share = |p: &RangePredicate| {
                let idx = &self.by_attr[p.attr.0];
                let (Some((&(OrdF64(min), _), _)), Some((&(OrdF64(max), _), _))) =
                    (idx.first_key_value(), idx.last_key_value())
                else {
                    return 0.0;
                };
                if min == max {
                    return if p.interval.contains(min) { 1.0 } else { 0.0 };
                }
                let lo = p.interval.lo.value().map_or(min, |v| v.max(min));
                let hi = p.interval.hi.value().map_or(max, |v| v.min(max));
                ((hi - lo) / (max - min)).max(0.0)
            };
            (q.ranges().iter())
                .filter(|p| p.attr.0 < self.by_attr.len() && !p.interval.is_all())
                .min_by_key(|p| OrdF64(share(p)))
        }

        /// What `candidates` hands out: the tightest range's matches in
        /// `(value, id)` order, or every match in recording order.
        fn candidates(&self, q: &Query) -> Vec<TupleId> {
            let along = match self.tightest(q) {
                Some(p) => self.span(p.attr, p.interval),
                None => self.tuples.iter().collect(),
            };
            along
                .into_iter()
                .filter(|t| q.matches(t))
                .map(|t| t.id)
                .collect()
        }

        /// `history_best` as it walked the map.
        fn best(&self, view: &NormView, q: &Query) -> Option<(TupleId, u64)> {
            use crate::md::top1::steepest_axis;
            let b = view.initial_box(q);
            if b.is_empty() || q.is_unsatisfiable() {
                return None;
            }
            let rank = view.rank();
            let mut at = b.lo_corner(view.bounds());
            let axis = (self.tightest(q))
                .and_then(|p| rank.attrs().iter().position(|&a| a == p.attr))
                .unwrap_or_else(|| steepest_axis(view, &b, &mut at));
            let (attr, dir) = (rank.attrs()[axis], rank.directions()[axis]);
            let (lo, hi) = (at[axis], b.hi(axis, view.bounds()));
            let mut range = self.span(attr, q.interval(attr));
            if dir == Direction::Desc {
                range.reverse();
            }
            let ell = |at: &mut [f64], s: f64| {
                let moved = std::mem::replace(&mut at[axis], lo);
                let cut = rank.ell(axis, s, at, hi).unwrap_or(f64::INFINITY);
                at[axis] = moved;
                cut
            };
            let (mut best, mut cut): (Option<(&Arc<Tuple>, f64)>, _) = (None, f64::INFINITY);
            for t in range {
                at[axis] = dir.normalize(t.ord(attr));
                if at[axis] >= cut && best.is_none_or(|(_, s)| rank.score_norm(&at) > s) {
                    break;
                }
                if q.matches(t) {
                    let s = view.score(t);
                    if best.is_none_or(|(_, bs)| s < bs) {
                        cut = ell(&mut at, s);
                    }
                    if best.is_none_or(|(b, bs)| s < bs || (s == bs && t.id < b.id)) {
                        best = Some((t, s));
                    }
                }
            }
            best.map(|(t, s)| (t.id, s.to_bits()))
        }
    }

    /// Every history read equals what the `BTreeMap` index it replaced
    /// answered, on random record schedules long enough to cut each
    /// attribute's index into several runs, over values that repeat, both
    /// zeros, both NaN signs, both infinities and subnormals: `candidates`
    /// of one range predicate, `first_norm_in` both ways, `holds_more_than`,
    /// `matching`, `candidates` (matches and order) and `history_best`,
    /// tuple and score bits. `QRS_TEST_SEED` picks the schedules,
    /// `QRS_FUZZ_ITERS` how many.
    #[test]
    fn history_reads_match_the_btreemap_reference() {
        use crate::md::top1::{history_best, BoxReader};
        use crate::{ctx::SharedState, norm::NormBox};
        use qrs_ranking::{ChebyshevRank, LinearRank};
        use qrs_types::{CatId, CatPredicate, OrdinalAttr, Schema};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let env = |name: &str, default: u64| {
            let v = std::env::var(name).ok();
            v.and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        let seed = 0x4157_0E53 ^ env("QRS_TEST_SEED", 0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sub = f64::from_bits(1);
        let specials = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY]
            .into_iter()
            .chain([f64::NEG_INFINITY, sub, -sub, f64::MIN_POSITIVE / 4.0]);
        let specials: Vec<f64> = specials.collect();
        let (mut multi_run, mut found, mut best_found, mut checked) = (0, 0, 0, 0);
        for schedule in 0..env("QRS_FUZZ_ITERS", 12) {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(schedule));
            // Ten attributes compile more ranges, and score more
            // coordinates, than a read holds inline.
            let width = [1, 2, 3, 4, 10][rng.random_range(0..5usize)];
            let ranged = [3, 9][rng.random_range(0..2usize)];
            // How often a value repeats: an eighth-grid, specials, or fresh.
            let grid_share = rng.random_range(0..10u32);
            let value = |rng: &mut StdRng| match rng.random_range(0..10u32) {
                0 => specials[rng.random_range(0..specials.len())],
                g if g <= grid_share => f64::from(rng.random_range(0..9u32)) / 8.0,
                _ => rng.random::<f64>(),
            };
            let endpoint = |rng: &mut StdRng, v: f64| match rng.random_range(0..6u32) {
                0 => Endpoint::Unbounded,
                1 | 2 => Endpoint::Open(v),
                _ => Endpoint::Closed(v),
            };
            let near = |rng: &mut StdRng, v: f64| match rng.random_range(0..4u32) {
                0 => v.next_up(),
                1 => v.next_down(),
                _ => v,
            };
            let interval = |rng: &mut StdRng| {
                let (a, b) = (value(rng), value(rng));
                let (a, b) = (near(rng, a), near(rng, b));
                let (a, b) = match rng.random_range(0..4u32) {
                    0 => (a, b),
                    1 => (a, a),
                    _ if a.total_cmp(&b).is_gt() => (b, a),
                    _ => (a, b),
                };
                Interval {
                    lo: endpoint(rng, a),
                    hi: endpoint(rng, b),
                }
            };
            let query = |rng: &mut StdRng| {
                let mut q = Query::all();
                for a in 0..width {
                    if rng.random_range(0..10u32) < ranged {
                        q.add_range(AttrId(a), interval(rng));
                    }
                }
                if rng.random_range(0..3u32) == 0 {
                    let codes = vec![rng.random_range(0..4u32), rng.random_range(0..4u32)];
                    q.add_cat(CatPredicate::one_of(CatId(0), codes));
                }
                q
            };
            let schema = Schema::new(
                (0..width)
                    .map(|a| OrdinalAttr::new(format!("a{a}"), 0.0, 1.0))
                    .collect(),
                vec![qrs_types::CatAttr::new("c", 4)],
            );
            let params = crate::params::RerankParams::paper_defaults(3000, 5);
            let mut st = SharedState::new(&schema, params);
            let mut reference = Reference::new(width);
            let records = match rng.random_range(0..3u32) {
                0 => rng.random_range(1..300usize),
                _ => rng.random_range(1100..3000usize),
            };
            let mut recorded: Vec<Arc<Tuple>> = Vec::new();
            let checkpoints = [records / 7, records / 2, records];
            let mut next = 0;
            for i in 1..=records {
                let t = match rng.random_range(0..20u32) {
                    0 if !recorded.is_empty() => {
                        Arc::clone(&recorded[rng.random_range(0..recorded.len())])
                    }
                    _ => {
                        let id = TupleId(rng.random_range(0..1u32 << 20));
                        let vals = (0..width).map(|_| value(&mut rng)).collect();
                        let t = Arc::new(Tuple::new(id, vals, vec![rng.random_range(0..4u32)]));
                        match reference.ids.contains(&id) {
                            true => continue, // one id, one tuple
                            false => t,
                        }
                    }
                };
                st.history.record(&t);
                reference.record(&t);
                recorded.push(t);
                if i < checkpoints[next] {
                    continue;
                }
                next += 1;
                let h = &st.history;
                assert_eq!(h.len(), reference.tuples.len());
                let runs = h.by_attr.iter().map(Vec::len).max();
                multi_run += usize::from(i == records && runs > Some(1));
                let log = format!("schedule {schedule} at {i} records");
                for _ in 0..24 {
                    let attr = AttrId(rng.random_range(0..width));
                    let iv = interval(&mut rng);
                    // One range predicate: its span of the index, in
                    // `(value, id)` order (every row, recording order, when
                    // it admits everything).
                    let one = Query::all().and_range(attr, iv);
                    let got: Vec<TupleId> = h.candidates(&one).map(|t| t.id).collect();
                    assert_eq!(got, reference.candidates(&one), "{log}: {iv}");
                    let q = query(&mut rng);
                    for dir in [Direction::Asc, Direction::Desc] {
                        let got = h.first_norm_in(attr, dir, iv, &q).map(|t| t.id);
                        let want = reference.first_norm_in(attr, dir, iv, &q).map(|t| t.id);
                        assert_eq!(got, want, "{log}: {dir:?} {iv} under {q}");
                        found += usize::from(want.is_some());
                    }
                    let want = reference.candidates(&q);
                    let got: Vec<TupleId> = h.candidates(&q).map(|t| t.id).collect();
                    assert_eq!(got, want, "{log}: candidates under {q}");
                    let mut sorted = want.clone();
                    sorted.sort();
                    let matching: Vec<TupleId> = h.matching(&q).iter().map(|t| t.id).collect();
                    assert_eq!(matching, sorted, "{log}: matching under {q}");
                    for n in [0, 1, want.len().saturating_sub(1), want.len()] {
                        assert_eq!(h.holds_more_than(&q, n), want.len() > n, "{log}: {q} {n}");
                    }
                    checked += 1;
                }
                // `history_best` over boxes of the schema's domain, under a
                // linear or a Chebyshev ranking of one to all attributes.
                for _ in 0..12 {
                    let mut free: Vec<usize> = (0..width).collect();
                    let m = rng.random_range(1..=width);
                    let terms: Vec<(AttrId, Direction, f64)> = (0..m)
                        .map(|_| {
                            let a = free.swap_remove(rng.random_range(0..free.len()));
                            let dir =
                                [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
                            (AttrId(a), dir, [1.0, 2.0, 0.5][rng.random_range(0..3usize)])
                        })
                        .collect();
                    let rank: Arc<dyn RankFn> = match rng.random::<bool>() {
                        true => Arc::new(LinearRank::new(terms)),
                        false => {
                            let attrs = terms.iter().map(|t| t.0).collect();
                            let dirs = terms.iter().map(|t| t.1).collect();
                            let weights = terms.iter().map(|t| t.2).collect();
                            Arc::new(ChebyshevRank::new(attrs, dirs, weights, vec![-1.0; m]))
                        }
                    };
                    let view = NormView::new(rank, &schema);
                    let mut b = NormBox::full(view.bounds());
                    for side in b.dims.iter_mut() {
                        let (x, y) = (rng.random::<f64>() - 1.0, rng.random::<f64>());
                        let (x, y) = match rng.random_range(0..3u32) {
                            0 => (f64::from(rng.random_range(0..9u32)) / -8.0, y),
                            _ => (x, y),
                        };
                        *side = match rng.random_range(0..6u32) {
                            0 => Interval::point(x),
                            1 => Interval::open(x, y),
                            2 => Interval::closed(x, y),
                            3 => Interval::closed_open(x, y),
                            4 => Interval::open_closed(x, y),
                            _ => *side,
                        }
                        .intersect(side);
                    }
                    let sel = query(&mut rng);
                    let q = view.to_query(&b, &sel);
                    let want = reference.best(&view, &q);
                    // The box of `b ∧ sel`, whose query is `q` again.
                    let b = view.initial_box(&q);
                    let got = history_best(&st, &mut BoxReader::new(view, sel), &b);
                    let got = got.map(|(t, s)| (t.id, s.to_bits()));
                    assert_eq!(got, want, "{log}: history_best under {q}");
                    best_found += usize::from(want.is_some());
                }
            }
        }
        let schedules = env("QRS_FUZZ_ITERS", 12) as usize;
        assert!(
            multi_run * 3 >= schedules,
            "vacuous: {multi_run} of {schedules} schedules cut an index into runs"
        );
        assert!(
            found * 5 >= checked,
            "vacuous: {found} first_norm_in hits of {checked}"
        );
        assert!(
            best_found * 2 >= schedules,
            "vacuous: {best_found} history_best hits"
        );
    }

    /// The MD cursor reads a box `b` ANDed onto its selection in place
    /// (`NormView::box_query`), never through `view.to_query(b, sel)`. Each
    /// such read is held to the read of that query it replaced, on random
    /// record schedules, rankings, selections and boxes narrowed from the
    /// selection's box as the cursor narrows them (split sides, points,
    /// shrinks at a score, planes): the same range predicates, bit for bit
    /// and in order, the same `candidates` and `holds_more_than`, the same
    /// region slot from `RegionIndex::covering`, and from `history_best`
    /// the same tuple and score bits as the query read (`initial_box`,
    /// `tightest` and the walk over the query). A ranking that names an
    /// attribute twice is read too, for everything but `history_best`.
    /// `QRS_TEST_SEED` picks the schedules, `QRS_FUZZ_ITERS` how many.
    #[test]
    fn history_reads_of_a_box_match_reads_of_its_query() {
        use crate::md::top1::{history_best, shrink, steepest_axis, BoxReader};
        use crate::{ctx::SharedState, norm::NormBox};
        use qrs_ranking::{ChebyshevRank, LinearRank};
        use qrs_types::{CatId, CatPredicate, OrdinalAttr, Schema};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let env = |name: &str, default: u64| {
            let v = std::env::var(name).ok();
            v.and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        let seed = 0xB0C5_0E54 ^ env("QRS_TEST_SEED", 0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // A predicate bit for bit: its attribute, and each endpoint's kind
        // and value bits.
        let bits = |p: RangePredicate| {
            let end = |e: Endpoint| match e {
                Endpoint::Unbounded => (0, 0),
                Endpoint::Open(v) => (1, v.to_bits()),
                Endpoint::Closed(v) => (2, v.to_bits()),
            };
            (p.attr, end(p.interval.lo), end(p.interval.hi))
        };
        // The read the box read replaced: the query turned back into a box.
        let query_read = |st: &SharedState, view: &NormView, q: &Query| {
            let b = view.initial_box(q);
            if b.is_empty() || q.is_unsatisfiable() {
                return None;
            }
            let rank = view.rank();
            let mut lo = b.lo_corner(view.bounds());
            let axis = (st.history.tightest(q))
                .and_then(|p| rank.attrs().iter().position(|&a| a == p.attr))
                .unwrap_or_else(|| steepest_axis(view, &b, &mut lo));
            let hi = b.hi(axis, view.bounds());
            let best = st.history.lowest(q.into(), &**rank, axis, &mut lo, hi);
            best.map(|(t, s)| (t.id, s.to_bits()))
        };
        let (mut reads, mut found, mut probes, mut hits, mut planes) = (0, 0, 0, 0, 0);
        for schedule in 0..env("QRS_FUZZ_ITERS", 12) {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(schedule));
            let width = [1, 2, 3, 4, 6][rng.random_range(0..5usize)];
            let value = |rng: &mut StdRng| match rng.random_range(0..12u32) {
                0 => specials[rng.random_range(0..specials.len())],
                1..=5 => f64::from(rng.random_range(0..9u32)) / 8.0,
                _ => rng.random::<f64>(),
            };
            let interval = |rng: &mut StdRng| {
                let (a, b) = (value(rng), value(rng));
                let (a, b) = if a.total_cmp(&b).is_gt() {
                    (b, a)
                } else {
                    (a, b)
                };
                match rng.random_range(0..6u32) {
                    0 => Interval::point(a),
                    1 => Interval::open(a, b),
                    2 => Interval::closed_open(a, b),
                    3 => Interval::at_least(a),
                    4 => Interval::less_than(b),
                    _ => Interval::closed(a, b),
                }
            };
            let selection = |rng: &mut StdRng| {
                let mut q = Query::all();
                for _ in 0..rng.random_range(0..3u32) {
                    q.add_range(AttrId(rng.random_range(0..width)), interval(rng));
                }
                if rng.random_range(0..3u32) == 0 {
                    let codes = vec![rng.random_range(0..4u32), rng.random_range(0..4u32)];
                    q.add_cat(CatPredicate::one_of(CatId(0), codes));
                }
                q
            };
            let schema = Schema::new(
                (0..width)
                    .map(|a| OrdinalAttr::new(format!("a{a}"), 0.0, 1.0))
                    .collect(),
                vec![qrs_types::CatAttr::new("c", 4)],
            );
            let params = crate::params::RerankParams::paper_defaults(2000, 5);
            let mut st = SharedState::new(&schema, params);
            for i in 0..rng.random_range(1..1200u32) {
                let vals = (0..width).map(|_| value(&mut rng)).collect();
                let cats = vec![rng.random_range(0..4u32)];
                st.history
                    .record(&Arc::new(Tuple::new(TupleId(i), vals, cats)));
            }
            // Regions a fraction of the domain wide on one or two
            // attributes.
            for _ in 0..rng.random_range(0..30u32) {
                let mut region = Query::all();
                for _ in 0..rng.random_range(1..3u32) {
                    let x = rng.random::<f64>();
                    let iv = Interval::closed(x, x + 0.5 * rng.random::<f64>());
                    region.add_range(AttrId(rng.random_range(0..width)), iv);
                }
                st.complete.insert(&region);
            }
            for _ in 0..4 {
                // One to four ranking attributes, mixed directions; one
                // ranking in six names an attribute twice.
                let mut free: Vec<usize> = (0..width).collect();
                let m = rng.random_range(1..=width.min(4));
                let mut terms: Vec<(AttrId, Direction, f64)> = (0..m)
                    .map(|_| {
                        let a = free.swap_remove(rng.random_range(0..free.len()));
                        let dir = [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
                        (AttrId(a), dir, [1.0, 2.0, 0.5][rng.random_range(0..3usize)])
                    })
                    .collect();
                let twice = rng.random_range(0..6u32) == 0;
                if twice {
                    let mut again = terms[rng.random_range(0..m)];
                    again.1 = [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
                    terms.push(again);
                }
                let rank: Arc<dyn RankFn> = match rng.random::<bool>() && !twice {
                    true => Arc::new(LinearRank::new(terms)),
                    false => {
                        let attrs = terms.iter().map(|t| t.0).collect();
                        let dirs = terms.iter().map(|t| t.1).collect();
                        let weights = terms.iter().map(|t| t.2).collect();
                        let ideal = vec![-1.0; terms.len()];
                        Arc::new(ChebyshevRank::new(attrs, dirs, weights, ideal))
                    }
                };
                let view = NormView::new(rank, &schema);
                let (mut pairs, mut buf): (Vec<(NormBox, Query, bool)>, _) =
                    (Vec::new(), Vec::new());
                for _ in 0..24 {
                    let sel = selection(&mut rng);
                    let mut b = view.initial_box(&sel);
                    let bounds = view.bounds();
                    for _ in 0..rng.random_range(1..4u32) {
                        let d = rng.random_range(0..b.dims.len());
                        let v = bounds.lo[d] + (bounds.hi[d] - bounds.lo[d]) * value(&mut rng);
                        let side = match rng.random_range(0..4u32) {
                            0 => Interval::less_than(v),
                            1 => Interval::greater_than(v),
                            2 => Interval::point(v),
                            _ => Interval::closed(v, v + rng.random::<f64>()),
                        };
                        b = b.with_dim(d, side);
                    }
                    if !twice && !b.is_empty() && rng.random::<bool>() {
                        let lo = b.lo_corner(view.bounds());
                        let s = view.rank().score_norm(&lo) + rng.random::<f64>();
                        if !shrink(&view, &mut b, &lo, s) {
                            continue;
                        }
                    }
                    // A plane: the pinned sides alone, no selection.
                    let plane = rng.random_range(0..6u32) == 0;
                    if plane {
                        for iv in b.dims.iter_mut().filter(|iv| !iv.is_point()) {
                            *iv = Interval::all();
                        }
                    }
                    let sel = if plane { Query::all() } else { sel };
                    // Regions that hold some of these boxes: the box itself.
                    if rng.random_range(0..4u32) == 0 {
                        st.complete.insert(&view.to_query(&b, &sel));
                    }
                    pairs.push((b, sel, plane || twice));
                }
                for (b, sel, only_predicates) in &pairs {
                    let (q, bq) = (view.to_query(b, sel), view.box_query(b, sel, &mut buf));
                    let log = format!("schedule {schedule}: {b:?} ∧ {q}");
                    let want = q.ranges().iter().map(|&p| bits(p));
                    assert!(
                        bq.ranges().iter().map(|&p| bits(p)).eq(want),
                        "{log}: ranges"
                    );
                    assert_eq!(bq.cats(), q.cats(), "{log}: cats");
                    let unsat = bq.is_unsatisfiable();
                    assert_eq!(unsat, q.is_unsatisfiable(), "{log}");
                    let ids = |c: &mut dyn Iterator<Item = &Arc<Tuple>>| {
                        c.map(|t| t.id).collect::<Vec<_>>()
                    };
                    let matches = ids(&mut st.history.candidates(&q));
                    assert_eq!(ids(&mut st.history.candidates(bq)), matches, "{log}");
                    for n in [0, 1, 5] {
                        let more = st.history.holds_more_than(bq, n);
                        assert_eq!(more, matches.len() > n, "{log}: more than {n}");
                    }
                    let region = st.complete.covering(bq);
                    assert!(region == st.complete.covering(&q), "{log}: region");
                    probes += usize::from(!unsat);
                    hits += usize::from(!unsat && region.is_some());
                    planes += usize::from(*only_predicates);
                    if !only_predicates {
                        let rd = &mut BoxReader::new(view.clone(), sel.clone());
                        let got = history_best(&st, rd, b).map(|(t, s)| (t.id, s.to_bits()));
                        let want = query_read(&st, &view, &q);
                        assert_eq!(got, want, "{log}: history_best");
                        reads += 1;
                        found += usize::from(want.is_some());
                    }
                }
            }
        }
        assert!(
            found * 4 >= reads,
            "vacuous: {found} of {reads} reads found a tuple"
        );
        assert!(
            hits * 8 >= probes && hits * 20 <= 19 * probes,
            "vacuous: {hits} of {probes} satisfiable probes found a region"
        );
        assert!(
            planes * 20 >= probes,
            "vacuous: {planes} planes of {probes}"
        );
    }

    #[test]
    fn endpoint_bound_translation_includes_closed() {
        let iv = Interval {
            lo: Endpoint::Closed(2.0),
            hi: Endpoint::Closed(5.0),
        };
        assert_eq!(along(&hist(), AttrId(0), iv), [1, 2, 3]);
    }
}
