//! Exact monotone root isolation on `f64`.
//!
//! The contour quantities in §4 of the paper (`ℓ(Ai)` of Eq. 6, `b(Aj)` of
//! Eq. 8) are boundaries of monotone predicates over one attribute. Instead
//! of numeric bisection with an epsilon, we bisect over the *bit
//! representation* of `f64`, which yields the exact smallest float satisfying
//! the predicate in ≤ 64 steps. The reranking algorithms rely on this
//! exactness: regions are pruned only when *provably* scoreless, so a solver
//! that overshoots by one ULP could prune the true top tuple.

/// Map an `f64` to a `u64` such that the `u64` order matches IEEE total
/// order. Standard sign-flip trick.
#[inline]
fn to_ordered_bits(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// Inverse of [`to_ordered_bits`].
#[inline]
fn from_ordered_bits(b: u64) -> f64 {
    if b >> 63 == 1 {
        f64::from_bits(b & 0x7fff_ffff_ffff_ffff)
    } else {
        f64::from_bits(!b)
    }
}

/// Smallest `x` in `[lo, hi]` with `pred(x) == true`, for a monotone
/// predicate (`false…false true…true` along the axis).
///
/// Returns `None` when `pred(hi)` is false (no satisfying value in range).
/// When `pred(lo)` is already true, returns `lo`.
///
/// The result is *exact*: `pred(result)` holds and `pred(prev_float(result))`
/// does not (unless `result == lo`).
pub fn partition_point_f64(lo: f64, hi: f64, mut pred: impl FnMut(f64) -> bool) -> Option<f64> {
    debug_assert!(lo <= hi, "partition_point_f64: lo {lo} > hi {hi}");
    if pred(lo) {
        return Some(lo);
    }
    if !pred(hi) {
        return None;
    }
    let mut lo_b = to_ordered_bits(lo); // pred false here
    let mut hi_b = to_ordered_bits(hi); // pred true here
    while hi_b - lo_b > 1 {
        let mid = lo_b + (hi_b - lo_b) / 2;
        if pred(from_ordered_bits(mid)) {
            hi_b = mid;
        } else {
            lo_b = mid;
        }
    }
    Some(from_ordered_bits(hi_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_bits_roundtrip_and_order() {
        for v in [-1e300, -2.5, -0.0, 0.0, 1e-300, 3.7, f64::MAX] {
            assert_eq!(from_ordered_bits(to_ordered_bits(v)), v);
        }
        assert!(to_ordered_bits(-1.0) < to_ordered_bits(-0.5));
        assert!(to_ordered_bits(-0.5) < to_ordered_bits(0.5));
        assert!(to_ordered_bits(0.5) < to_ordered_bits(1.5));
    }

    #[test]
    fn finds_exact_boundary() {
        // pred: x >= 1/3 — boundary not representable exactly.
        let t = 1.0 / 3.0;
        let r = partition_point_f64(0.0, 1.0, |x| x >= t).unwrap();
        assert_eq!(r, t);
        // One ULP below must fail the predicate.
        let below = f64::from_bits(r.to_bits() - 1);
        assert!(below < t);
    }

    #[test]
    fn boundary_at_endpoints() {
        assert_eq!(partition_point_f64(2.0, 5.0, |x| x >= 0.0), Some(2.0));
        assert_eq!(partition_point_f64(2.0, 5.0, |x| x >= 10.0), None);
        assert_eq!(partition_point_f64(2.0, 5.0, |x| x >= 5.0), Some(5.0));
    }

    #[test]
    fn negative_ranges() {
        let r = partition_point_f64(-10.0, -1.0, |x| x >= -4.5).unwrap();
        assert_eq!(r, -4.5);
        let r2 = partition_point_f64(-10.0, 10.0, |x| x * 3.0 >= 1.0).unwrap();
        assert!(r2 * 3.0 >= 1.0);
        assert!(f64::from_bits(r2.to_bits() - 1) * 3.0 < 1.0);
    }
}
