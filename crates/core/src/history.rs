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
//! query reaches its tuples through the tightest `by_attr` range it offers
//! ([`History::candidates`]).
//!
//! The MD search's history read, `md::top1::history_best`, asks for the
//! lowest-scoring known tuple in a box, so it walks a ranking axis in
//! score order instead: the tightest predicate's attribute when that one
//! ranks, else the ranking attribute along which the score climbs most
//! across the box. Each tuple's coordinate on that axis, with the box's low
//! corner elsewhere, bounds from below the score of every tuple after it,
//! and the walk stops at the first bound *strictly* above the best score:
//! stopping at an equal bound could skip a tie with a smaller id, so the
//! answer stays the exact `(score, id)` minimum. The cost of a read grows
//! with how far the best known tuple sits along the axis, not with how
//! much history holds.

use qrs_types::value::OrdF64;
use qrs_types::{
    AttrId, Direction, Endpoint, Interval, Query, QueryResponse, RangePredicate, Tuple, TupleId,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// All tuples observed so far, with per-attribute sorted indexes.
#[derive(Debug, Default)]
pub struct History {
    tuples: HashMap<TupleId, Arc<Tuple>>,
    /// For each ordinal attribute: (value, id) → tuple, sorted by raw value.
    by_attr: Vec<BTreeMap<(OrdF64, TupleId), Arc<Tuple>>>,
}

impl History {
    /// An empty history over a schema with `num_ordinal_attrs` ordinal
    /// attributes.
    pub fn new(num_ordinal_attrs: usize) -> Self {
        History {
            tuples: HashMap::new(),
            by_attr: (0..num_ordinal_attrs).map(|_| BTreeMap::new()).collect(),
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
        self.tuples.contains_key(&id)
    }

    /// Look up an observed tuple by id.
    pub fn get(&self, id: TupleId) -> Option<&Arc<Tuple>> {
        self.tuples.get(&id)
    }

    /// Record one tuple.
    pub fn record(&mut self, t: &Arc<Tuple>) {
        if self.tuples.insert(t.id, Arc::clone(t)).is_none() {
            for (i, idx) in self.by_attr.iter_mut().enumerate() {
                idx.insert((OrdF64(t.ord(AttrId(i))), t.id), Arc::clone(t));
            }
        }
    }

    /// Record every tuple of a response.
    pub fn record_response(&mut self, resp: &QueryResponse) {
        for t in &resp.tuples {
            self.record(t);
        }
    }

    /// Tuples whose raw `attr` value lies in `iv`, in ascending
    /// `(value, id)` order — from either end.
    pub fn in_range<'a>(
        &'a self,
        attr: AttrId,
        iv: Interval,
    ) -> impl DoubleEndedIterator<Item = &'a Arc<Tuple>> + 'a {
        use std::ops::Bound;
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
        self.by_attr[attr.0].range((lo, hi)).map(|(_, t)| t)
    }

    /// The matching tuple ranked first along `attr` in direction `dir` whose
    /// *normalized* value is strictly greater than `after_norm` (pass
    /// `f64::NEG_INFINITY` for "the minimum"), optionally capped strictly
    /// below `upto_norm`.
    pub fn next_norm_above(
        &self,
        attr: AttrId,
        dir: Direction,
        after_norm: f64,
        upto_norm: Option<f64>,
        q: &Query,
    ) -> Option<&Arc<Tuple>> {
        let norm_iv = Interval {
            lo: if after_norm == f64::NEG_INFINITY {
                Endpoint::Unbounded
            } else {
                Endpoint::Open(after_norm)
            },
            hi: upto_norm.map_or(Endpoint::Unbounded, Endpoint::Open),
        };
        self.first_norm_in(attr, dir, norm_iv, q)
    }

    /// The tuple matching `q` with the least (normalized value, id) along
    /// `attr` in direction `dir` among those whose normalized value lies in
    /// `norm_iv`; `None` for an empty interval.
    pub fn first_norm_in(
        &self,
        attr: AttrId,
        dir: Direction,
        norm_iv: Interval,
        q: &Query,
    ) -> Option<&Arc<Tuple>> {
        if norm_iv.is_empty() {
            return None; // `BTreeMap::range` panics on inverted bounds
        }
        let raw_iv = match dir {
            Direction::Asc => norm_iv,
            Direction::Desc => norm_iv.negate(),
        };
        let mut range = self.in_range(attr, raw_iv);
        match dir {
            Direction::Asc => range.find(|t| q.matches(t)),
            // From the top, ids descend within a value: the answer is the
            // last match before the value changes under the first one.
            Direction::Desc => {
                let mut best: Option<&Arc<Tuple>> = None;
                for t in range.rev() {
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

    /// The share of `p.attr`'s observed span that `p` admits: 0 for a point
    /// or an empty range, 1 for one wider than everything seen. Where
    /// history holds one value on the attribute, the span is that value and
    /// `p` admits all of it (1) or none of it (0).
    fn share(&self, p: &RangePredicate) -> f64 {
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
    }

    /// `q`'s tightest range predicate: a point, else the one admitting the
    /// smallest share of its attribute's observed span; `None` when `q` has
    /// no range predicate — a categorical-only query.
    pub(crate) fn tightest<'q>(&self, q: &'q Query) -> Option<&'q RangePredicate> {
        q.ranges()
            .iter()
            .filter(|p| p.attr.0 < self.by_attr.len() && !p.interval.is_all())
            .min_by_key(|p| OrdF64(self.share(p)))
    }

    /// A superset of the observed tuples matching `q`, in no particular
    /// order: the `by_attr` range of `q`'s tightest range predicate, or
    /// every tuple when it has none.
    pub fn candidates<'a>(&'a self, q: &Query) -> Box<dyn Iterator<Item = &'a Arc<Tuple>> + 'a> {
        match self.tightest(q) {
            Some(p) if p.interval.is_empty() => Box::new(std::iter::empty()),
            Some(p) => Box::new(self.in_range(p.attr, p.interval)),
            None => Box::new(self.tuples.values()),
        }
    }

    /// Whether more than `n` observed tuples match `q` — a query that would
    /// overflow a top-`n` page on what history alone already knows.
    pub fn holds_more_than(&self, q: &Query, n: usize) -> bool {
        self.candidates(q).filter(|t| q.matches(t)).nth(n).is_some()
    }

    /// All observed tuples matching `q`, sorted by id — authoritative when a
    /// complete region covers `q`.
    pub fn matching(&self, q: &Query) -> Vec<Arc<Tuple>> {
        let mut v: Vec<Arc<Tuple>> = self
            .candidates(q)
            .filter(|t| q.matches(t))
            .cloned()
            .collect();
        v.sort_by_key(|t| t.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::QueryOutcome;

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

    #[test]
    fn range_respects_open_bounds() {
        let h = hist();
        let ids: Vec<u32> = h
            .in_range(AttrId(0), Interval::open(1.0, 5.0))
            .map(|t| t.id.0)
            .collect();
        assert_eq!(ids, vec![1, 2]); // the two x=2 tuples, id order within key
    }

    #[test]
    fn next_norm_above_asc_and_desc() {
        let h = hist();
        let q = Query::all();
        // Ascending on attr0 after 1.0 → the smallest id at value 2.0.
        let n = h
            .next_norm_above(AttrId(0), Direction::Asc, 1.0, None, &q)
            .unwrap();
        assert_eq!(n.ord(AttrId(0)), 2.0);
        // Descending on attr0: normalized value = -x; after -5.0 means x < 5.
        let d = h
            .next_norm_above(AttrId(0), Direction::Desc, -5.0, None, &q)
            .unwrap();
        assert_eq!(d.ord(AttrId(0)), 2.0);
        // From the very start.
        let first = h
            .next_norm_above(AttrId(0), Direction::Asc, f64::NEG_INFINITY, None, &q)
            .unwrap();
        assert_eq!(first.ord(AttrId(0)), 1.0);
    }

    #[test]
    fn next_norm_above_respects_upto_and_filter() {
        let h = hist();
        let q = Query::all().and_range(AttrId(1), Interval::at_most(8.0));
        // after 1, upto 5 (exclusive), filtered to attr1 <= 8 → x = 2 rows.
        let n = h
            .next_norm_above(AttrId(0), Direction::Asc, 1.0, Some(5.0), &q)
            .unwrap();
        assert_eq!(n.ord(AttrId(0)), 2.0);
        // upto 2 (exclusive) excludes them.
        assert!(h
            .next_norm_above(AttrId(0), Direction::Asc, 1.0, Some(2.0), &q)
            .is_none());
    }

    /// Inverted and equal-and-excluded bounds are empty ranges, not panics
    /// out of `BTreeMap::range`.
    #[test]
    fn next_norm_above_finds_an_empty_range_empty() {
        let h = hist();
        let q = Query::all();
        for dir in [Direction::Asc, Direction::Desc] {
            for (after, upto) in [(2.0, 2.0), (5.0, 1.0), (-2.0, -2.0), (-1.0, -5.0)] {
                let found = h.next_norm_above(AttrId(0), dir, after, Some(upto), &q);
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
        use crate::{ctx::SharedState, md::top1::history_best, norm::NormView};
        use qrs_types::{CatId, CatPredicate};
        let data = qrs_datagen::synthetic::discrete_grid(300, 3, 6, 11);
        let params = crate::params::RerankParams::paper_defaults(300, 5);
        let mut st = SharedState::new(data.schema(), params);
        data.tuples().iter().for_each(|t| st.history.record(t));
        let scan = |q: &Query| {
            let mut all: Vec<_> = st.history.tuples.values().collect();
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
            let boxed = view.to_query(&view.initial_box(&q), &q);
            let best = scan(&boxed)
                .into_iter()
                .map(|t| (view.score(&t), t))
                .min_by_key(|(s, t)| (OrdF64(*s), t.id));
            let got = history_best(&st, &view, &boxed, f64::INFINITY);
            assert_eq!(got.map(|(t, s)| (s, t)), best, "history_best: {name}");
        }
    }

    /// `history_best` walks one ranking axis and stops at the first tuple
    /// whose axis bound exceeds the best score, or reaches its cap before
    /// any match. Its answer must stay the `(score, id)` minimum over every
    /// history tuple matching the box wherever that scores below the cap —
    /// on grid data, where tuples tie on the cut, and whichever axis it
    /// walks.
    #[test]
    fn history_best_is_the_minimum_over_every_match() {
        use crate::{ctx::SharedState, md::top1::history_best, norm::NormBox, norm::NormView};
        use qrs_datagen::synthetic::{discrete_grid, uniform};
        use qrs_ranking::{LinearRank, RankFn};
        use qrs_types::{CatId, CatPredicate};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let seed = std::env::var("QRS_TEST_SEED").ok();
        let seed: u64 = seed.and_then(|s| s.parse().ok()).unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(29 ^ seed);
        let (mut asked, mut found, mut early, mut steepest, mut capped) = (0, 0, 0, 0, 0);
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
            let known: Vec<Arc<Tuple>> = st.history.tuples.values().cloned().collect();
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
                let q = view.to_query(&b, &sel);
                let want = (known.iter().filter(|t| q.matches(t)))
                    .map(|t| (view.score(t), t.id))
                    .min_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                let got = history_best(&st, &view, &q, f64::INFINITY);
                assert_eq!(
                    got.map(|(t, s)| (t.id, s.to_bits())),
                    want.map(|(s, id)| (id, s.to_bits())),
                    "{} under {q}",
                    rank.label()
                );
                // Under a cap: the same answer where it scores below the
                // cap; otherwise nothing, or still the same answer. A cap at
                // the answer's own score makes the walk meet bounds equal to
                // it.
                let matches: Vec<f64> = (known.iter().filter(|t| q.matches(t)))
                    .map(|t| view.score(t))
                    .collect();
                let least = want.map_or(f64::INFINITY, |(s, _)| s);
                let cap = match rng.random_range(0..3u32) {
                    _ if matches.is_empty() => f64::INFINITY,
                    0 => least,
                    1 => least - 0.1 * rng.random::<f64>(),
                    _ => matches[rng.random_range(0..matches.len())],
                };
                let under = history_best(&st, &view, &q, cap).map(|(t, s)| (t.id, s.to_bits()));
                let exact = want.map(|(s, id)| (id, s.to_bits()));
                match want {
                    Some((s, _)) if s < cap => {
                        assert_eq!(under, exact, "{} under {q}, cap {cap}", rank.label())
                    }
                    _ => assert!(
                        under.is_none() || under == exact,
                        "{} under {q}, cap {cap}: {under:?}",
                        rank.label()
                    ),
                }
                capped += usize::from(want.is_some() && under.is_none());
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
        assert!(
            capped * 10 >= found,
            "vacuous: {capped} of {found} walks were cut short by their cap"
        );
    }

    #[test]
    fn endpoint_bound_translation_includes_closed() {
        let h = hist();
        let ids: Vec<u32> = h
            .in_range(
                AttrId(0),
                Interval {
                    lo: Endpoint::Closed(2.0),
                    hi: Endpoint::Closed(5.0),
                },
            )
            .map(|t| t.id.0)
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
