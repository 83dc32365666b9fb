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

use qrs_types::digits::{push_decimal, push_hex16};
use qrs_types::{Endpoint, Query};
use std::borrow::Borrow;
use std::cell::RefCell;

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
            push_hex16(out, bits(*v));
        }
        Endpoint::Closed(v) => {
            out.push('c');
            push_hex16(out, bits(*v));
        }
    }
}

/// `items` in ascending order of `attr`, which is distinct per item (a
/// [`Query`] holds one predicate per attribute): a selection pass per item,
/// so the handful of predicates a query carries are never collected.
fn by_attr<T>(items: &[T], attr: impl Fn(&T) -> usize) -> impl Iterator<Item = &T> {
    let mut after = None;
    std::iter::from_fn(move || {
        let next = (items.iter())
            .filter(|p| after.is_none_or(|a| attr(p) > a))
            .min_by_key(|p| attr(p))?;
        after = Some(attr(next));
        Some(next)
    })
}

/// Canonical, injective string form of a selection.
///
/// Range predicates are sorted by attribute id (a [`Query`] holds at most
/// one interval per attribute, intersected on insertion, so the sort is a
/// total canonicalization); categorical predicates likewise, with their
/// already-sorted code sets rendered verbatim. Float endpoints are rendered
/// as raw bit patterns, so the mapping is injective. Every digit is written
/// in place, into one `String` sized up front.
pub fn query_key(q: &Query) -> String {
    let codes: usize = q.cats().iter().map(|p| p.codes().len()).sum();
    let mut out = String::with_capacity(40 * q.ranges().len() + 8 * q.cats().len() + 11 * codes);
    push_query_key(&mut out, q);
    out
}

/// Append [`query_key`]'s bytes for `q` to `out`. They never hold a
/// newline.
fn push_query_key(out: &mut String, q: &Query) {
    for p in by_attr(q.ranges(), |p| p.attr.0) {
        out.push('r');
        push_decimal(out, p.attr.0 as u64);
        out.push(':');
        endpoint_key(&p.interval.lo, out);
        endpoint_key(&p.interval.hi, out);
        out.push(';');
    }
    for p in by_attr(q.cats(), |p| p.attr.0) {
        out.push('k');
        push_decimal(out, p.attr.0 as u64);
        out.push(':');
        for &c in p.codes() {
            push_decimal(out, u64::from(c));
            out.push(',');
        }
        out.push(';');
    }
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
///
/// The three parts are one string ([`ResultKey::as_str`]): the selection's
/// [`query_key`], a newline, the strategy name's length in decimal, `:`,
/// the name, then the ranking function's injective fingerprint
/// (`RankFn::fingerprint` in `qrs-ranking`). The selection never holds a
/// newline and the length says where the name ends, so the string is
/// injective too. It hashes as a `str`, so the shard is searched by
/// borrowed bytes: [`crate::SourceShard::lookup_stream`] writes them into
/// a buffer its thread reuses, and builds no key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey(String);

thread_local! {
    /// The buffer [`key_bytes`] writes keys into on this thread: it keeps
    /// the capacity of the longest key written so far, so writing another
    /// allocates nothing.
    static KEY_BYTES: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `read` over the bytes of the key of the stream `strategy` emits for
/// `sel` under the ranking whose fingerprint `rank` writes, written into
/// this thread's key buffer.
pub(crate) fn key_bytes<R>(
    sel: &Query,
    strategy: &str,
    rank: impl FnOnce(&mut String),
    read: impl FnOnce(&str) -> R,
) -> R {
    let write = |out: &mut String| {
        out.clear();
        push_query_key(out, sel);
        out.push('\n');
        push_decimal(out, strategy.len() as u64);
        out.push(':');
        out.push_str(strategy);
        rank(out);
        read(out)
    };
    KEY_BYTES.with(|buf| match buf.try_borrow_mut() {
        Ok(mut buf) => write(&mut buf),
        // Only a fingerprint writer that looks up a stream itself gets here.
        Err(_) => write(&mut String::new()),
    })
}

impl ResultKey {
    /// The key of the stream `strategy` emits for selection `sel` under
    /// the ranking whose fingerprint `rank` appends to the buffer it is
    /// handed (`|out| rank_fn.write_fingerprint(out)`).
    pub fn new(sel: &Query, strategy: &str, rank: impl FnOnce(&mut String)) -> Self {
        key_bytes(sel, strategy, rank, |bytes| ResultKey(bytes.to_owned()))
    }

    /// The key's canonical bytes.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for ResultKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, CatId, CatPredicate, Interval};

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

    /// `query_key` writes the bytes the `format!`-based renderer it
    /// replaced wrote, over 10^5 seeded selections: up to four range
    /// predicates and three categorical ones, on attribute ids small and up
    /// to `usize::MAX`, with endpoints of every kind whose values are drawn
    /// by their bits (both zeros, NaN payloads, infinities, subnormals,
    /// any pattern) and codes up to `u32::MAX`. `QRS_TEST_SEED` picks the
    /// draws.
    #[test]
    fn query_key_is_what_format_wrote() {
        fn reference(q: &Query) -> String {
            fn endpoint(e: &Endpoint, out: &mut String) {
                let bits = |v: f64| if v == 0.0 { 0.0f64 } else { v }.to_bits();
                match e {
                    Endpoint::Unbounded => out.push('u'),
                    Endpoint::Open(v) => out.push_str(&format!("o{:016x}", bits(*v))),
                    Endpoint::Closed(v) => out.push_str(&format!("c{:016x}", bits(*v))),
                }
            }
            let mut ranges: Vec<_> = q.ranges().iter().collect();
            ranges.sort_by_key(|p| p.attr.0);
            let mut cats: Vec<_> = q.cats().iter().collect();
            cats.sort_by_key(|p| p.attr.0);
            let mut out = String::new();
            for p in ranges {
                out.push_str(&format!("r{}:", p.attr.0));
                endpoint(&p.interval.lo, &mut out);
                endpoint(&p.interval.hi, &mut out);
                out.push(';');
            }
            for p in cats {
                out.push_str(&format!("k{}:", p.attr.0));
                for c in p.codes() {
                    out.push_str(&format!("{c},"));
                }
                out.push(';');
            }
            out
        }
        // splitmix64: the crate has no random-number dependency.
        let seed = std::env::var("QRS_TEST_SEED").ok();
        let mut state = seed.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0) ^ 0x9E1A_0E58;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut below = |n: u64| next() % n;
        for _ in 0..100_000 {
            let mut q = Query::all();
            let id = |below: &mut dyn FnMut(u64) -> u64| match below(2) {
                0 => below(12) as usize,
                _ => below(u64::MAX) as usize,
            };
            for _ in 0..below(5) {
                let attr = AttrId(id(&mut below));
                if q.ranges().iter().any(|p| p.attr == attr) {
                    continue;
                }
                let mut end = || {
                    let sign = below(2) << 63;
                    let mantissa = below(1 << 52);
                    let bits = match below(6) {
                        0 => 0,
                        1 => 0x7ff0_0000_0000_0000 | mantissa.max(1),
                        2 => 0x7ff0_0000_0000_0000,
                        3 => mantissa.max(1),
                        _ => below(u64::MAX),
                    };
                    let v = f64::from_bits(sign | bits);
                    match below(3) {
                        0 => Endpoint::Unbounded,
                        1 => Endpoint::Open(v),
                        _ => Endpoint::Closed(v),
                    }
                };
                let (lo, hi) = (end(), end());
                q.add_range(attr, Interval { lo, hi });
            }
            for _ in 0..below(4) {
                let attr = CatId(id(&mut below));
                if q.cats().iter().any(|p| p.attr == attr) {
                    continue;
                }
                let codes = (0..1 + below(4)).map(|_| match below(2) {
                    0 => below(8) as u32,
                    _ => below(u64::from(u32::MAX) + 1) as u32,
                });
                q.add_cat(CatPredicate::one_of(attr, codes.collect()));
            }
            assert_eq!(query_key(&q), reference(&q), "{q:?}");
        }
    }

    /// The key's parts are recoverable from its bytes, so keys of different
    /// parts differ even where the parts' concatenations agree.
    #[test]
    fn result_keys_split_their_parts() {
        let sel = Query::all().and_range(AttrId(0), Interval::open(1.0, 5.0));
        let key = |sel: &Query, strategy: &str, rank: &str| {
            ResultKey::new(sel, strategy, |out| out.push_str(rank))
        };
        let k = key(&sel, "md-rerank", "linear|0a|");
        assert_eq!(
            k.as_str(),
            format!("{}\n9:md-rerank{}", query_key(&sel), "linear|0a|")
        );
        assert_ne!(key(&sel, "ab", "c"), key(&sel, "a", "bc"));
        assert_ne!(key(&sel, "a", "1:b"), key(&sel, "a1:", "b"));
        assert_ne!(key(&Query::all(), "a", ""), key(&sel, "a", ""));
        assert_eq!(key(&sel, "a", "r"), key(&sel, "a", "r"));
        // The buffer is reused, not appended to.
        assert_eq!(key(&Query::all(), "", "").as_str(), "\n0:");
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
