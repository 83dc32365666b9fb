//! Canonical cache keys.
//!
//! The plane's caches are keyed by *values* — a selection, a ranking
//! fingerprint, a strategy name — so keys must be (a) hashable, (b) injective
//! (two semantically different requests must never collide), and
//! (c) canonical (the same request built in a different predicate order
//! must collide). [`query_key`] renders a [`Query`] into a canonical string
//! using the exact bit pattern of every float endpoint: `1.0` and the next
//! representable double apart stay apart, and predicate order is normalized
//! by sorting on attribute id.

use qrs_types::{Endpoint, Query};

/// Render one interval endpoint with full bit fidelity.
///
/// The one exception to "raw bits": `-0.0` is canonicalized to `0.0`.
/// IEEE equality makes the two interchangeable as predicate bounds (and
/// `Interval::negate`, used by direction normalization, routinely turns a
/// `0.0` endpoint into `-0.0`), but their bit patterns differ — without the
/// fold, semantically identical selections would miss the cache.
fn endpoint_key(e: &Endpoint, out: &mut String) {
    fn bits(v: f64) -> u64 {
        if v == 0.0 { 0.0f64 } else { v }.to_bits()
    }
    match e {
        Endpoint::Unbounded => out.push('u'),
        Endpoint::Open(v) => {
            out.push('o');
            out.push_str(&format!("{:016x}", bits(*v)));
        }
        Endpoint::Closed(v) => {
            out.push('c');
            out.push_str(&format!("{:016x}", bits(*v)));
        }
    }
}

/// Canonical, injective string form of a selection.
///
/// Range predicates are sorted by attribute id (a [`Query`] holds at most
/// one interval per attribute, intersected on insertion, so the sort is a
/// total canonicalization); categorical predicates likewise, with their
/// already-sorted code sets rendered verbatim. Float endpoints are rendered
/// as raw bit patterns, so the mapping is injective.
pub fn query_key(q: &Query) -> String {
    let mut ranges: Vec<_> = q.ranges().iter().collect();
    ranges.sort_by_key(|p| p.attr.0);
    let mut cats: Vec<_> = q.cats().iter().collect();
    cats.sort_by_key(|p| p.attr.0);
    let mut out = String::with_capacity(16 + 40 * (ranges.len() + cats.len()));
    for p in ranges {
        out.push('r');
        out.push_str(&p.attr.0.to_string());
        out.push(':');
        endpoint_key(&p.interval.lo, &mut out);
        endpoint_key(&p.interval.hi, &mut out);
        out.push(';');
    }
    for p in cats {
        out.push('k');
        out.push_str(&p.attr.0.to_string());
        out.push(':');
        for c in p.codes() {
            out.push_str(&c.to_string());
            out.push(',');
        }
        out.push(';');
    }
    out
}

/// A top-`k` request in canonical form — the key of the shard's response
/// map. Kept for the benchmark, which keys the shard with it directly; no
/// production path builds one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestKey {
    sel: String,
}

impl RequestKey {
    /// Key of a top-`k` request for `q`.
    pub fn top_k(q: &Query) -> Self {
        RequestKey { sel: query_key(q) }
    }
}

/// Key of one cached exact result stream: `(selection, ranking, strategy)`
/// — the site is implicit in the shard holding the entry. Exact means the
/// one tie contract (README, "Exactness"): the score sequence is the dense
/// ranking's, and the order among equal scores is the emitting strategy's.
///
/// The strategy name is part of the key on purpose: every built-in
/// algorithm emits the same score sequence for the same `(selection,
/// rank)`, but keying per strategy keeps the invariant local (a cached
/// stream is only ever replayed to a session that would have recomputed it
/// with the very same state machine, ties in the same order) and keeps
/// user-registered strategies — whose exactness is their author's promise,
/// not ours — from poisoning the built-ins' entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Canonical selection ([`query_key`]).
    pub sel: String,
    /// The ranking function's injective fingerprint
    /// (`RankFn::fingerprint` in `qrs-ranking`).
    pub rank: String,
    /// `RerankStrategy::name` of the emitting strategy.
    pub strategy: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, Interval};

    #[test]
    fn query_key_is_canonical_and_injective() {
        let a = Query::all()
            .and_range(AttrId(0), Interval::open(1.0, 5.0))
            .and_range(AttrId(1), Interval::at_most(2.0));
        let b = Query::all()
            .and_range(AttrId(1), Interval::at_most(2.0))
            .and_range(AttrId(0), Interval::open(1.0, 5.0));
        assert_eq!(
            query_key(&a),
            query_key(&b),
            "predicate order canonicalizes"
        );
        let c = Query::all()
            .and_range(AttrId(0), Interval::open(1.0, 5.0 + f64::EPSILON * 8.0))
            .and_range(AttrId(1), Interval::at_most(2.0));
        assert_ne!(query_key(&a), query_key(&c), "nearby floats stay distinct");
        let closed = Query::all().and_range(AttrId(0), Interval::closed(1.0, 5.0));
        let open = Query::all().and_range(AttrId(0), Interval::open(1.0, 5.0));
        assert_ne!(query_key(&closed), query_key(&open), "bound kinds distinct");
        assert_eq!(query_key(&Query::all()), "");
    }

    #[test]
    fn negative_zero_endpoints_share_a_key() {
        // `Interval::negate` (direction normalization) turns 0.0 endpoints
        // into -0.0; the two are IEEE-equal and must not split the cache.
        let neg = Query::all().and_range(AttrId(0), Interval::open(-0.0, 5.0));
        let pos = Query::all().and_range(AttrId(0), Interval::open(0.0, 5.0));
        assert_eq!(query_key(&neg), query_key(&pos));
        let neg = Query::all().and_range(AttrId(0), Interval::at_most(-0.0));
        let pos = Query::all().and_range(AttrId(0), Interval::at_most(0.0));
        assert_eq!(query_key(&neg), query_key(&pos));
        assert_eq!(
            RequestKey::top_k(&Query::all().and_range(AttrId(1), Interval::closed(-0.0, -0.0))),
            RequestKey::top_k(&Query::all().and_range(AttrId(1), Interval::point(0.0))),
        );
        // Canonicalization must not collapse genuinely distinct values.
        let tiny = Query::all().and_range(AttrId(0), Interval::at_most(f64::MIN_POSITIVE));
        let zero = Query::all().and_range(AttrId(0), Interval::at_most(0.0));
        assert_ne!(query_key(&tiny), query_key(&zero));
    }
}
