//! Intervals over ordinal attribute domains.
//!
//! §2.1 of the paper: search queries carry range predicates `Ai ∈ (v, v')`.
//! Open endpoints are the primitive the algorithms need (e.g. 1D-BASELINE
//! repeatedly issues `Ai ∈ (th[Ai], a[Ai])` to exclude both known tuples);
//! closed and half-open ranges appear in 1D-BINARY's probe of the upper half
//! (`[mid, hi)`) and when removing the general-positioning assumption
//! (point queries `Ai = v`). [`Interval`] supports all of these exactly —
//! no epsilon hacks.

use crate::value::{cmp_f64, order_key};
use std::cmp::Ordering;
use std::fmt;

/// One end of an [`Interval`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Endpoint {
    /// No constraint on this side.
    Unbounded,
    /// Strict inequality (`< v` or `> v`).
    Open(f64),
    /// Non-strict inequality (`<= v` or `>= v`).
    Closed(f64),
}

impl Endpoint {
    /// The finite value carried by the endpoint, if any.
    #[inline]
    pub fn value(self) -> Option<f64> {
        match self {
            Endpoint::Unbounded => None,
            Endpoint::Open(v) | Endpoint::Closed(v) => Some(v),
        }
    }

    /// Whether the endpoint admits its boundary value.
    #[inline]
    pub fn is_closed(self) -> bool {
        matches!(self, Endpoint::Closed(_))
    }
}

/// A (possibly open, possibly unbounded) interval of attribute values.
///
/// The empty interval is representable (e.g. `(3, 3)`); [`Interval::is_empty`]
/// detects it. Construction never panics on reversed bounds — a reversed
/// interval is simply empty, which is exactly how the reranking algorithms
/// want to treat an exhausted search region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: Endpoint,
    /// Upper endpoint.
    pub hi: Endpoint,
}

impl Interval {
    /// The whole domain `(-∞, +∞)`.
    #[inline]
    pub fn all() -> Self {
        Interval {
            lo: Endpoint::Unbounded,
            hi: Endpoint::Unbounded,
        }
    }

    /// Open interval `(lo, hi)`.
    #[inline]
    pub fn open(lo: f64, hi: f64) -> Self {
        Interval {
            lo: Endpoint::Open(lo),
            hi: Endpoint::Open(hi),
        }
    }

    /// Closed interval `[lo, hi]`.
    #[inline]
    pub fn closed(lo: f64, hi: f64) -> Self {
        Interval {
            lo: Endpoint::Closed(lo),
            hi: Endpoint::Closed(hi),
        }
    }

    /// Half-open `[lo, hi)` — used by 1D-BINARY's second probe.
    #[inline]
    pub fn closed_open(lo: f64, hi: f64) -> Self {
        Interval {
            lo: Endpoint::Closed(lo),
            hi: Endpoint::Open(hi),
        }
    }

    /// Half-open `(lo, hi]`.
    #[inline]
    pub fn open_closed(lo: f64, hi: f64) -> Self {
        Interval {
            lo: Endpoint::Open(lo),
            hi: Endpoint::Closed(hi),
        }
    }

    /// `(lo, +∞)` — "strictly better than what we have seen".
    #[inline]
    pub fn greater_than(lo: f64) -> Self {
        Interval {
            lo: Endpoint::Open(lo),
            hi: Endpoint::Unbounded,
        }
    }

    /// `[lo, +∞)`.
    #[inline]
    pub fn at_least(lo: f64) -> Self {
        Interval {
            lo: Endpoint::Closed(lo),
            hi: Endpoint::Unbounded,
        }
    }

    /// `(-∞, hi)`.
    #[inline]
    pub fn less_than(hi: f64) -> Self {
        Interval {
            lo: Endpoint::Unbounded,
            hi: Endpoint::Open(hi),
        }
    }

    /// `(-∞, hi]`.
    #[inline]
    pub fn at_most(hi: f64) -> Self {
        Interval {
            lo: Endpoint::Unbounded,
            hi: Endpoint::Closed(hi),
        }
    }

    /// The degenerate point interval `[v, v]` (a point predicate, §5).
    #[inline]
    pub fn point(v: f64) -> Self {
        Interval::closed(v, v)
    }

    /// Is this the degenerate point interval `[v, v]` — the only range a
    /// point-predicate-only interface (§5) accepts?
    pub fn is_point(&self) -> bool {
        match (self.lo, self.hi) {
            (Endpoint::Closed(a), Endpoint::Closed(b)) => cmp_f64(a, b) == Ordering::Equal,
            _ => false,
        }
    }

    /// Is this the unconstrained interval `(-∞, ∞)` (no predicate at all)?
    pub fn is_all(&self) -> bool {
        matches!(
            (self.lo, self.hi),
            (Endpoint::Unbounded, Endpoint::Unbounded)
        )
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: f64) -> bool {
        let lo_ok = match self.lo {
            Endpoint::Unbounded => true,
            Endpoint::Open(l) => cmp_f64(v, l) == Ordering::Greater,
            Endpoint::Closed(l) => cmp_f64(v, l) != Ordering::Less,
        };
        if !lo_ok {
            return false;
        }
        match self.hi {
            Endpoint::Unbounded => true,
            Endpoint::Open(h) => cmp_f64(v, h) == Ordering::Less,
            Endpoint::Closed(h) => cmp_f64(v, h) != Ordering::Greater,
        }
    }

    /// The inclusive [`order_key`] range of the values the interval
    /// contains: `v` is in `self` exactly when its key lies in
    /// `lo..=hi`. `None` when no value is, open ends being one key inside
    /// their value's (the bijection leaves no float between two keys).
    pub fn key_bounds(&self) -> Option<(u64, u64)> {
        let lo = match self.lo {
            Endpoint::Unbounded => 0,
            Endpoint::Closed(v) => order_key(v),
            Endpoint::Open(v) => order_key(v).checked_add(1)?,
        };
        let hi = match self.hi {
            Endpoint::Unbounded => u64::MAX,
            Endpoint::Closed(v) => order_key(v),
            Endpoint::Open(v) => order_key(v).checked_sub(1)?,
        };
        (lo <= hi).then_some((lo, hi))
    }

    /// Is the interval certainly empty?
    ///
    /// For continuous domains this is the right notion ("no real number can
    /// satisfy it"); discrete domains may render more intervals effectively
    /// empty, which callers detect via an underflowing query instead.
    pub fn is_empty(&self) -> bool {
        match (self.lo.value(), self.hi.value()) {
            (Some(l), Some(h)) => match cmp_f64(l, h) {
                Ordering::Greater => true,
                Ordering::Equal => !(self.lo.is_closed() && self.hi.is_closed()),
                Ordering::Less => false,
            },
            _ => false,
        }
    }

    /// Intersection of two intervals (conjunction of the two predicates).
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: tighter_lo(self.lo, other.lo),
            hi: tighter_hi(self.hi, other.hi),
        }
    }

    /// Is `self` entirely contained in `outer`?
    pub fn is_subset_of(&self, outer: &Interval) -> bool {
        if self.is_empty() {
            return true;
        }
        let lo_ok = match (outer.lo, self.lo) {
            (Endpoint::Unbounded, _) => true,
            (_, Endpoint::Unbounded) => false,
            (Endpoint::Open(o), Endpoint::Open(s)) => cmp_f64(s, o) != Ordering::Less,
            (Endpoint::Open(o), Endpoint::Closed(s)) => cmp_f64(s, o) == Ordering::Greater,
            (Endpoint::Closed(o), Endpoint::Open(s) | Endpoint::Closed(s)) => {
                cmp_f64(s, o) != Ordering::Less
            }
        };
        if !lo_ok {
            return false;
        }
        match (outer.hi, self.hi) {
            (Endpoint::Unbounded, _) => true,
            (_, Endpoint::Unbounded) => false,
            (Endpoint::Open(o), Endpoint::Open(s)) => cmp_f64(s, o) != Ordering::Greater,
            (Endpoint::Open(o), Endpoint::Closed(s)) => cmp_f64(s, o) == Ordering::Less,
            (Endpoint::Closed(o), Endpoint::Open(s) | Endpoint::Closed(s)) => {
                cmp_f64(s, o) != Ordering::Greater
            }
        }
    }

    /// Does either endpoint carry a `NaN` boundary value?
    ///
    /// NaN sorts *after every real* under the workspace's total order, so a
    /// NaN-bounded predicate silently matches a surprising set and corrupts
    /// canonical cache-key ordering. Construction stays infallible (the
    /// algorithms build intervals on hot paths); instead `Query::validate`
    /// and the session/server boundaries reject NaN with a typed error.
    pub fn has_nan(&self) -> bool {
        self.lo.value().is_some_and(f64::is_nan) || self.hi.value().is_some_and(f64::is_nan)
    }

    /// Mirror the interval through negation: the image of the set under
    /// `v ↦ -v`. Used by the direction-normalization layer to translate
    /// normalized-space predicates on `Desc` attributes back to real ones.
    pub fn negate(&self) -> Interval {
        let flip = |e: Endpoint| match e {
            Endpoint::Unbounded => Endpoint::Unbounded,
            Endpoint::Open(v) => Endpoint::Open(-v),
            Endpoint::Closed(v) => Endpoint::Closed(-v),
        };
        Interval {
            lo: flip(self.hi),
            hi: flip(self.lo),
        }
    }
}

fn tighter_lo(a: Endpoint, b: Endpoint) -> Endpoint {
    match (a, b) {
        (Endpoint::Unbounded, x) | (x, Endpoint::Unbounded) => x,
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            match cmp_f64(av, bv) {
                Ordering::Greater => a,
                Ordering::Less => b,
                // Equal boundary: open (strict) is tighter for a lower bound.
                Ordering::Equal => {
                    if a.is_closed() {
                        b
                    } else {
                        a
                    }
                }
            }
        }
    }
}

fn tighter_hi(a: Endpoint, b: Endpoint) -> Endpoint {
    match (a, b) {
        (Endpoint::Unbounded, x) | (x, Endpoint::Unbounded) => x,
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            match cmp_f64(av, bv) {
                Ordering::Less => a,
                Ordering::Greater => b,
                Ordering::Equal => {
                    if a.is_closed() {
                        b
                    } else {
                        a
                    }
                }
            }
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            Endpoint::Unbounded => write!(f, "(-inf")?,
            Endpoint::Open(v) => write!(f, "({v}")?,
            Endpoint::Closed(v) => write!(f, "[{v}")?,
        }
        write!(f, ", ")?;
        match self.hi {
            Endpoint::Unbounded => write!(f, "+inf)"),
            Endpoint::Open(v) => write!(f, "{v})"),
            Endpoint::Closed(v) => write!(f, "{v}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_respects_openness() {
        let i = Interval::open(1.0, 2.0);
        assert!(!i.contains(1.0));
        assert!(i.contains(1.5));
        assert!(!i.contains(2.0));

        let j = Interval::closed_open(1.0, 2.0);
        assert!(j.contains(1.0));
        assert!(!j.contains(2.0));

        let p = Interval::point(3.0);
        assert!(p.contains(3.0));
        assert!(!p.contains(3.0001));
    }

    #[test]
    fn emptiness() {
        assert!(Interval::open(1.0, 1.0).is_empty());
        assert!(Interval::open(2.0, 1.0).is_empty());
        assert!(Interval::closed_open(1.0, 1.0).is_empty());
        assert!(!Interval::point(1.0).is_empty());
        assert!(!Interval::all().is_empty());
    }

    #[test]
    fn intersect_takes_tighter_bounds() {
        let a = Interval::open(0.0, 10.0);
        let b = Interval::closed(5.0, 20.0);
        let c = a.intersect(&b);
        assert_eq!(c, Interval::closed_open(5.0, 10.0));

        // Equal boundary, open wins.
        let d = Interval::open(5.0, 10.0).intersect(&Interval::closed(5.0, 10.0));
        assert_eq!(d, Interval::open(5.0, 10.0));
    }

    #[test]
    fn intersect_with_unbounded() {
        let a = Interval::greater_than(3.0);
        let b = Interval::less_than(7.0);
        assert_eq!(a.intersect(&b), Interval::open(3.0, 7.0));
        assert_eq!(Interval::all().intersect(&a), a);
    }

    #[test]
    fn subset_relation() {
        assert!(Interval::open(1.0, 2.0).is_subset_of(&Interval::closed(1.0, 2.0)));
        assert!(!Interval::closed(1.0, 2.0).is_subset_of(&Interval::open(1.0, 2.0)));
        assert!(Interval::open(1.0, 2.0).is_subset_of(&Interval::all()));
        assert!(!Interval::all().is_subset_of(&Interval::open(1.0, 2.0)));
        // Empty is a subset of everything.
        assert!(Interval::open(5.0, 5.0).is_subset_of(&Interval::open(1.0, 2.0)));
    }

    /// `key_bounds` admits a value's key exactly where `contains` admits
    /// the value: over every endpoint kind, equal open and closed ends and
    /// empty intervals, at both zeros, both NaN signs, both infinities,
    /// subnormals and one ulp either side of each endpoint.
    #[test]
    fn key_bounds_are_contains() {
        let up = |v: f64| crate::value::from_order_key(order_key(v).saturating_add(1));
        let down = |v: f64| crate::value::from_order_key(order_key(v).saturating_sub(1));
        let sub = f64::from_bits(1);
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            sub,
            -sub,
            f64::MIN_POSITIVE,
            1.5,
            -2.0,
            f64::MAX,
            f64::from_bits(u64::MAX),
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
        ];
        let ends = |v: f64| [Endpoint::Unbounded, Endpoint::Open(v), Endpoint::Closed(v)];
        let (mut admitted, mut empty) = (0, 0);
        for a in specials {
            for b in specials {
                for (lo, hi) in ends(a).into_iter().flat_map(|l| ends(b).map(|h| (l, h))) {
                    let iv = Interval { lo, hi };
                    let keys = iv.key_bounds();
                    empty += usize::from(keys.is_none());
                    for e in [a, b] {
                        for v in [e, up(e), down(e), -e].into_iter().chain(specials) {
                            let k = order_key(v);
                            let by_key = keys.is_some_and(|(l, h)| l <= k && k <= h);
                            assert_eq!(by_key, iv.contains(v), "{v:e} in {iv}: {keys:?}");
                            admitted += usize::from(by_key);
                        }
                    }
                }
            }
        }
        assert!(
            admitted > 1000 && empty > 100,
            "{admitted} admitted, {empty} empty"
        );
    }

    #[test]
    fn negate_flips_open_and_closed_ends() {
        let n = Interval::closed_open(1.0, 2.0).negate();
        assert_eq!(n, Interval::open_closed(-2.0, -1.0));
        assert!(n.contains(-1.0));
        assert!(!n.contains(-2.0));
    }
}
