//! Per-attribute filter support — one axis of the site model.
//!
//! Real restricted top-k interfaces differ not just in *whether* they
//! filter but in *how*: a flight site exposes a full price slider (range
//! predicates), a classifieds site only a dropdown of exact values (point
//! predicates), and a storefront's browse view may offer no attribute
//! filter at all. [`FilterSupport`] names those three levels; the
//! `Capabilities` model in `qrs-server` carries one per ordinal attribute,
//! and the `Planner` in `qrs-service` reads them to decide which reranking
//! algorithm can run at all — or to relax a predicate server-side and
//! re-apply it client-side.

use crate::interval::Interval;
use std::fmt;

/// What kind of predicate a search interface accepts on one ordinal
/// attribute.
///
/// The levels are ordered: [`FilterSupport::Range`] ⊃
/// [`FilterSupport::Point`] ⊃ [`FilterSupport::None`] — an interface that
/// takes ranges also takes the degenerate point range `Ai ∈ [v, v]`.
///
/// ```
/// use qrs_types::{FilterSupport, Interval};
///
/// assert!(FilterSupport::Range.allows_range());
/// assert!(!FilterSupport::None.allows_point());
/// assert!(FilterSupport::Point.admits(&Interval::point(3.0)));
/// assert!(!FilterSupport::Point.admits(&Interval::open(1.0, 4.0)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FilterSupport {
    /// The attribute cannot appear in a predicate at all (browse-only).
    None,
    /// Only point predicates `Ai = v` are accepted (§5's point-predicate
    /// sites — dropdowns, not sliders).
    Point,
    /// Arbitrary range predicates `Ai ∈ (v, v')` are accepted — the
    /// paper's baseline assumption and the default.
    #[default]
    Range,
}

impl FilterSupport {
    /// Whether a point predicate `Ai = v` is accepted.
    pub fn allows_point(self) -> bool {
        self >= FilterSupport::Point
    }

    /// Whether a non-degenerate range predicate is accepted.
    pub fn allows_range(self) -> bool {
        self == FilterSupport::Range
    }

    /// Whether the predicate `Ai ∈ iv` is accepted — the one per-predicate
    /// rule the site model enforces and the planner relaxes by: no
    /// predicate (the whole line) anywhere, a point `[v, v]` from `Point`
    /// up, anything else only at `Range`.
    pub fn admits(self, iv: &Interval) -> bool {
        iv.is_all() || self.allows_range() || (self.allows_point() && iv.is_point())
    }
}

impl fmt::Display for FilterSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterSupport::None => write!(f, "no filter"),
            FilterSupport::Point => write!(f, "point filter"),
            FilterSupport::Range => write!(f, "range filter"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_levels_are_ordered() {
        assert!(FilterSupport::None < FilterSupport::Point);
        assert!(FilterSupport::Point < FilterSupport::Range);
        assert_eq!(FilterSupport::default(), FilterSupport::Range);
    }

    #[test]
    fn allows_helpers_match_the_lattice() {
        assert!(FilterSupport::Range.allows_range());
        assert!(FilterSupport::Range.allows_point());
        assert!(!FilterSupport::Point.allows_range());
        assert!(FilterSupport::Point.allows_point());
        assert!(!FilterSupport::None.allows_range());
        assert!(!FilterSupport::None.allows_point());
    }

    #[test]
    fn admits_is_point_versus_range_versus_none() {
        let (all, point, range) = (
            Interval::all(),
            Interval::point(2.0),
            Interval::closed(1.0, 2.0),
        );
        for support in [
            FilterSupport::None,
            FilterSupport::Point,
            FilterSupport::Range,
        ] {
            assert!(support.admits(&all), "{support}: no predicate at all");
            assert_eq!(support.admits(&point), support.allows_point());
            assert_eq!(support.admits(&range), support.allows_range());
        }
        // Half-open and empty intervals are ranges, not points.
        assert!(!FilterSupport::Point.admits(&Interval::at_most(2.0)));
        assert!(!FilterSupport::Point.admits(&Interval::open(2.0, 2.0)));
    }
}
