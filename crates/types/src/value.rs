//! Total-order helpers for `f64` attribute values.
//!
//! Ordinal attribute values are plain `f64`s. The algorithms in the paper
//! constantly sort, compare and take minima of attribute values, so we need a
//! *total* order (`f64: Ord` does not hold because of NaN). All comparisons in
//! this workspace go through [`cmp_f64`] / [`OrdF64`] so that a stray NaN is
//! ordered deterministically (after `+inf`) instead of poisoning a sort.
//! Where an index compares many values, [`order_key`] maps each to a `u64`
//! whose integer order is that same total order.

use std::cmp::Ordering;

/// Totally ordered comparison of two attribute values (IEEE `totalOrder`).
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// `v`'s key in IEEE total order: `order_key(a) < order_key(b)` exactly
/// when `a.total_cmp(&b)` is `Less`, and the map is a bijection onto `u64`
/// (`-NaN` with every payload bit set is 0, `+NaN` likewise is
/// `u64::MAX`). The history's per-attribute runs and rows, and the
/// complete-region index's endpoint keys, all compare values through it.
#[inline]
pub fn order_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The value whose [`order_key`] is `k`.
#[inline]
pub fn from_order_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// An `f64` wrapper that is `Ord + Eq` under IEEE total order.
///
/// Useful as a sort or heap key (e.g. the simulator ranks a page by
/// `(OrdF64, TupleId)`).
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

    /// `order_key` sorts like `total_cmp` and round-trips every bit
    /// pattern, NaN payloads and both zeros included.
    #[test]
    fn order_keys_sort_like_total_cmp() {
        let sub = f64::from_bits(1);
        let vals = [
            f64::from_bits(u64::MAX),
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -sub,
            -0.0,
            0.0,
            sub,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
        ];
        for a in vals {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for b in vals {
                assert_eq!(order_key(a).cmp(&order_key(b)), cmp_f64(a, b), "{a} {b}");
            }
        }
        assert_eq!(order_key(f64::from_bits(u64::MAX)), 0);
        assert_eq!(order_key(f64::from_bits(0x7FFF_FFFF_FFFF_FFFF)), u64::MAX);
    }
}
