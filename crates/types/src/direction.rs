//! Per-attribute preference direction.
//!
//! §2.2 of the paper: a monotonic user ranking function fixes, per attribute,
//! an order `≺` with `v1 ≺ v2` meaning `v1` is higher ranked. Different
//! ranking functions may prefer opposite ends of the same attribute (cheaper
//! vs. pricier). We encode the order as a [`Direction`]; all reranking
//! algorithms run in a *normalized* space where smaller is always better, and
//! translate back through the direction when talking to the server.

/// Which end of an ordinal attribute a ranking function prefers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Smaller values rank higher (e.g. price for a buyer).
    #[default]
    Asc,
    /// Larger values rank higher (e.g. model year).
    Desc,
}

impl Direction {
    /// Map a raw attribute value into normalized space where smaller = better.
    ///
    /// Normalization is the affine map `v ↦ v` (Asc) or `v ↦ -v` (Desc); it is
    /// its own inverse, see [`Direction::denormalize`].
    #[inline]
    pub fn normalize(self, v: f64) -> f64 {
        match self {
            Direction::Asc => v,
            Direction::Desc => -v,
        }
    }

    /// Inverse of [`Direction::normalize`].
    #[inline]
    pub fn denormalize(self, v: f64) -> f64 {
        // The map is an involution.
        self.normalize(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_is_involution() {
        for d in [Direction::Asc, Direction::Desc] {
            for v in [-3.5, 0.0, 17.25] {
                assert_eq!(d.denormalize(d.normalize(v)), v);
            }
        }
    }

    #[test]
    fn desc_reverses_order() {
        let d = Direction::Desc;
        assert!(d.normalize(10.0) < d.normalize(5.0));
    }
}
