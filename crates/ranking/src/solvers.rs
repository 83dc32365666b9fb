//! Exact monotone root isolation on `f64`.
//!
//! The contour quantities in §4 of the paper (`ℓ(Ai)` of Eq. 6, `b(Aj)` of
//! Eq. 8) are boundaries of monotone predicates over one attribute. Instead
//! of numeric bisection with an epsilon, we bisect over the *bit
//! representation* of `f64`, which yields the exact smallest float satisfying
//! the predicate in ≤ 64 steps. The reranking algorithms rely on this
//! exactness: regions are pruned only when *provably* scoreless, so a solver
//! that overshoots by one ULP could prune the true top tuple.

use qrs_types::value::{from_order_key, order_key};

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
/// point in [`order_key`] steps of 1, 2, 4, … ULPs, then bisect the last
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
    let (mut f, mut t) = (order_key(lo), order_key(hi)); // false at f, true at t
    if guess.is_finite() {
        let g = order_key(guess.clamp(lo, hi));
        let mut step = 1;
        if g == t || (g > f && pred(from_order_key(g))) {
            t = g;
            while t - f > step && pred(from_order_key(t - step)) {
                (t, step) = (t - step, step.saturating_mul(2));
            }
            f = f.max(t.saturating_sub(step));
        } else {
            f = g;
            while t - f > step && !pred(from_order_key(f + step)) {
                (f, step) = (f + step, step.saturating_mul(2));
            }
            t = t.min(f + step);
        }
    }
    Some(bisect(f, t, pred))
}

/// The partition point between order keys `f` (predicate false) and `t`
/// (true), by bisection.
fn bisect(mut f: u64, mut t: u64, mut pred: impl FnMut(f64) -> bool) -> f64 {
    while t - f > 1 {
        let mid = f + (t - f) / 2;
        if pred(from_order_key(mid)) {
            t = mid;
        } else {
            f = mid;
        }
    }
    from_order_key(t)
}

#[cfg(test)]
mod tests {
    use super::*;

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
