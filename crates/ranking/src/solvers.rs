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
pub fn partition_point_f64(lo: f64, hi: f64, pred: impl FnMut(f64) -> bool) -> Option<f64> {
    partition_point_near(lo, hi, f64::NAN, pred)
}

/// [`partition_point_f64`] started from `guess`, a value believed near the
/// answer: gallop from it (clamped into `[lo, hi]`) toward the partition
/// point in ordered-bits steps of 1, 2, 4, … ULPs, then bisect the last
/// bracket. The same exact answer — a monotone predicate has one partition
/// point — in `O(log distance)` calls instead of up to 64. A guess that is
/// not finite is ignored: the whole range is bisected.
pub(crate) fn partition_point_near(
    lo: f64,
    hi: f64,
    guess: f64,
    mut pred: impl FnMut(f64) -> bool,
) -> Option<f64> {
    debug_assert!(lo <= hi, "partition point: lo {lo} > hi {hi}");
    if pred(lo) {
        return Some(lo);
    }
    if !pred(hi) {
        return None;
    }
    let (mut f, mut t) = (to_ordered_bits(lo), to_ordered_bits(hi)); // false at f, true at t
    if guess.is_finite() {
        let g = to_ordered_bits(guess.clamp(lo, hi));
        let mut step = 1;
        if g == t || (g > f && pred(from_ordered_bits(g))) {
            t = g;
            while t - f > step && pred(from_ordered_bits(t - step)) {
                (t, step) = (t - step, step.saturating_mul(2));
            }
            f = f.max(t.saturating_sub(step));
        } else {
            f = g;
            while t - f > step && !pred(from_ordered_bits(f + step)) {
                (f, step) = (f + step, step.saturating_mul(2));
            }
            t = t.min(f + step);
        }
    }
    Some(bisect(f, t, pred))
}

/// The partition point between ordered bits `f` (predicate false) and `t`
/// (true), by bisection.
fn bisect(mut f: u64, mut t: u64, mut pred: impl FnMut(f64) -> bool) -> f64 {
    while t - f > 1 {
        let mid = f + (t - f) / 2;
        if pred(from_ordered_bits(mid)) {
            t = mid;
        } else {
            f = mid;
        }
    }
    from_ordered_bits(t)
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
