//! Ratio ranking functions: `minimize numerator / denominator`.
//!
//! These are the paper's motivating unsupported rankings — *cost per
//! mileage* on flight search sites, *mileage per year* on Yahoo! Autos,
//! *price per carat* on Blue Nile. A ratio prefers a small numerator and a
//! large denominator, i.e. directions `[Asc, Desc]`; in normalized space
//! `u = (num, -den)` the score `u₀ / (-u₁)` is monotone non-decreasing in
//! both coordinates provided the raw domains satisfy `num ≥ 0`, `den > 0`.

use crate::rankfn::{canonical_nan, normalized, RankFn};
use qrs_types::{AttrId, Direction, Tuple};

/// `S(t) = t[num] / t[den]`, minimized. Requires `num ≥ 0` and `den > 0`
/// over the data domain (asserted against the normalized coordinates at
/// scoring time in debug builds).
#[derive(Debug, Clone)]
pub struct RatioRank {
    attrs: [AttrId; 2],
    dirs: [Direction; 2],
}

impl RatioRank {
    /// Minimize `num / den` (e.g. price per carat).
    pub fn minimize(num: AttrId, den: AttrId) -> Self {
        assert_ne!(num, den, "ratio needs two distinct attributes");
        RatioRank {
            attrs: [num, den],
            dirs: [Direction::Asc, Direction::Desc],
        }
    }
}

impl RankFn for RatioRank {
    fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    fn directions(&self) -> &[Direction] {
        &self.dirs
    }

    fn score_norm(&self, u: &[f64]) -> f64 {
        eval(u.iter().copied())
    }

    fn score(&self, t: &Tuple) -> f64 {
        eval(normalized(&self.attrs, &self.dirs, t))
    }

    fn label(&self) -> String {
        format!("{} per {}", self.attrs[0], self.attrs[1])
    }
}

/// `u₀ / (−u₁)` over normalized coordinates, for `score` and `score_norm`
/// alike.
fn eval(mut u: impl Iterator<Item = f64>) -> f64 {
    let mut next = || u.next().expect("a ratio ranks two coordinates");
    let num = next();
    let den = -next(); // denormalize: dir Desc
    debug_assert!(num >= 0.0, "RatioRank numerator must be >= 0, got {num}");
    if den <= 0.0 {
        // Outside the valid domain (can be probed by generic solvers
        // scanning the full normalized box): worst possible score keeps
        // monotonicity — increasing u₁ further keeps it at +inf.
        return f64::INFINITY;
    }
    canonical_nan(num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{Tuple, TupleId};

    fn price_per_carat() -> RatioRank {
        RatioRank::minimize(AttrId(0), AttrId(1))
    }

    #[test]
    fn scores_ratio() {
        let f = price_per_carat();
        let t = Tuple::new(TupleId(0), vec![1000.0, 2.0], vec![]);
        assert_eq!(f.score(&t), 500.0);
    }

    #[test]
    fn monotone_in_normalized_coords() {
        let f = price_per_carat();
        // u = (num, -den). Increasing num increases score.
        assert!(f.score_norm(&[10.0, -2.0]) < f.score_norm(&[20.0, -2.0]));
        // Increasing u1 (shrinking den) increases score.
        assert!(f.score_norm(&[10.0, -2.0]) < f.score_norm(&[10.0, -1.0]));
    }

    #[test]
    fn invalid_denominator_is_worst() {
        let f = price_per_carat();
        assert_eq!(f.score_norm(&[10.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn generic_solvers_apply() {
        let f = price_per_carat();
        // Box in normalized space: num in [0, 100], den in [1, 10] → u1 in
        // [-10, -1]. Contour for target 5.
        let v = f.contour_point(&[0.0, -10.0], &[100.0, -1.0], 5.0).unwrap();
        assert!(f.score_norm(&v) >= 5.0);
        // Corner from a witness scoring >= target.
        let w = [50.0, -5.0]; // score 10
        let b = f.corner(&w, 5.0, &[0.0, -10.0]);
        assert!(f.score_norm(&b) >= 5.0);
        assert!(b[0] <= w[0] && b[1] <= w[1]);
    }
}
