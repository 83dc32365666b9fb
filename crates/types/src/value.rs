//! Total-order helpers for `f64` attribute values.
//!
//! Ordinal attribute values are plain `f64`s. The algorithms in the paper
//! constantly sort, compare and take minima of attribute values, so we need a
//! *total* order (`f64: Ord` does not hold because of NaN). All comparisons in
//! this workspace go through [`cmp_f64`] / [`OrdF64`] so that a stray NaN is
//! ordered deterministically (after `+inf`) instead of poisoning a sort.

use std::cmp::Ordering;

/// Totally ordered comparison of two attribute values (IEEE `totalOrder`).
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// An `f64` wrapper that is `Ord + Eq` under IEEE total order.
///
/// Useful as a key in `BTreeMap`/`BinaryHeap` (e.g. the per-attribute sorted
/// history index keeps `(OrdF64, TupleId)` keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_f64(self.0, other.0)
    }
}

impl From<f64> for OrdF64 {
    #[inline]
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}

impl From<OrdF64> for f64 {
    #[inline]
    fn from(v: OrdF64) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_is_total() {
        assert_eq!(cmp_f64(1.0, 2.0), Ordering::Less);
        assert_eq!(cmp_f64(2.0, 1.0), Ordering::Greater);
        assert_eq!(cmp_f64(1.5, 1.5), Ordering::Equal);
        // NaN sorts after +inf instead of breaking the order.
        assert_eq!(cmp_f64(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(cmp_f64(f64::NEG_INFINITY, -1e308), Ordering::Less);
    }

    #[test]
    fn ordf64_sorts_in_btree() {
        let mut keys: Vec<OrdF64> = [3.0, -1.0, 2.5, -1.0].iter().map(|&v| OrdF64(v)).collect();
        keys.sort();
        let vals: Vec<f64> = keys.into_iter().map(f64::from).collect();
        assert_eq!(vals, vec![-1.0, -1.0, 2.5, 3.0]);
    }
}
