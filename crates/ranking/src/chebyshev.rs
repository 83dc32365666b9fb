//! Weighted Chebyshev (L∞) ranking: `S(u) = max wᵢ·(uᵢ - idealᵢ)`.
//!
//! Monotone *non-decreasing* (weakly: flat in a coordinate while another
//! dominates the max), which §2.2's monotonicity definition permits. Its
//! plateaus make it the adversarial test case for the contour solvers, whose
//! bit-bisection handles non-strict monotonicity exactly.

use crate::rankfn::{normalized, RankFn};
use qrs_types::{AttrId, Direction, Tuple};

/// `S(u) = maxᵢ wᵢ·(uᵢ - idealᵢ)`.
#[derive(Debug, Clone)]
pub struct ChebyshevRank {
    attrs: Vec<AttrId>,
    dirs: Vec<Direction>,
    weights: Vec<f64>,
    ideal: Vec<f64>,
}

impl ChebyshevRank {
    /// # Panics
    /// On arity mismatch or non-positive weights.
    pub fn new(
        attrs: Vec<AttrId>,
        dirs: Vec<Direction>,
        weights: Vec<f64>,
        ideal: Vec<f64>,
    ) -> Self {
        assert!(!attrs.is_empty());
        assert_eq!(attrs.len(), dirs.len());
        assert_eq!(attrs.len(), weights.len());
        assert_eq!(attrs.len(), ideal.len());
        assert!(weights.iter().all(|w| *w > 0.0 && w.is_finite()));
        ChebyshevRank {
            attrs,
            dirs,
            weights,
            ideal,
        }
    }

    /// Unit weights, ascending, ideal at the given minima.
    pub fn uniform(attrs: Vec<AttrId>, ideal: Vec<f64>) -> Self {
        let n = attrs.len();
        ChebyshevRank::new(attrs, vec![Direction::Asc; n], vec![1.0; n], ideal)
    }

    /// `max wᵢ·(uᵢ − idealᵢ)` over normalized coordinates, for `score` and
    /// `score_norm` alike.
    fn eval(&self, u: impl Iterator<Item = f64>) -> f64 {
        u.zip(&self.ideal)
            .zip(&self.weights)
            .map(|((v, &i), &w)| w * (v - i))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl RankFn for ChebyshevRank {
    fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    fn directions(&self) -> &[Direction] {
        &self.dirs
    }

    fn score_norm(&self, u: &[f64]) -> f64 {
        self.eval(u.iter().copied())
    }

    fn score(&self, t: &Tuple) -> f64 {
        self.eval(normalized(&self.attrs, &self.dirs, t))
    }

    fn label(&self) -> String {
        format!("Chebyshev({} attrs)", self.attrs.len())
    }

    /// Full-bit weights and ideal point — the label carries neither.
    fn fingerprint(&self) -> String {
        let params: [&[f64]; 2] = [&self.weights, &self.ideal];
        crate::rankfn::fingerprint_with_params("chebyshev", &self.attrs, &self.dirs, &params)
    }

    fn write_fingerprint(&self, out: &mut String) {
        let params: [&[f64]; 2] = [&self.weights, &self.ideal];
        crate::rankfn::push_fingerprint(out, "chebyshev", &self.attrs, &self.dirs, &params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{Tuple, TupleId};

    fn f() -> ChebyshevRank {
        ChebyshevRank::uniform(vec![AttrId(0), AttrId(1)], vec![0.0, 0.0])
    }

    #[test]
    fn scoring_takes_max() {
        let t = Tuple::new(TupleId(0), vec![3.0, 7.0], vec![]);
        assert_eq!(f().score(&t), 7.0);
    }

    #[test]
    fn ell_on_plateau() {
        // base = (0, 9): S = 9 regardless of dim-0 until it exceeds 9.
        // ell(dim 0, target 9) = 0 because score already >= 9 at base.
        assert_eq!(f().ell(0, 9.0, &[0.0, 9.0], 100.0), Some(0.0));
        // target 12: dim 0 must itself reach 12.
        assert_eq!(f().ell(0, 12.0, &[0.0, 9.0], 100.0), Some(12.0));
    }

    #[test]
    fn corner_on_plateau_is_safe() {
        let fun = f();
        let w = [8.0, 6.0]; // S = 8
        let b = fun.corner(&w, 8.0, &[0.0, 0.0]);
        assert!(fun.score_norm(&b) >= 8.0);
        assert!(b[0] <= 8.0 && b[1] <= 6.0);
        // b0 stays at 8 (lowering it drops the max below 8 once past dim 1's
        // 6); b1 can fall to 0.
        assert_eq!(b[0], 8.0);
        assert_eq!(b[1], 0.0);
    }

    #[test]
    fn contour_point_exists() {
        let fun = f();
        let v = fun.contour_point(&[0.0, 0.0], &[10.0, 10.0], 5.0).unwrap();
        assert!(fun.score_norm(&v) >= 5.0);
    }
}
