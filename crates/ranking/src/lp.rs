//! Weighted p-th-power distance from an ideal point.
//!
//! `S(u) = Σ wᵢ·max(0, uᵢ - idealᵢ)^p` with `p ≥ 1`. With `ideal` at the
//! normalized domain minimum this is monotone non-decreasing in each
//! coordinate, making it a valid user ranking function under §2.2. Exercises
//! the *generic* contour solvers (no closed-form overrides), so it doubles as
//! a stress test that the default bisection machinery is sufficient for
//! non-linear monotone functions.

use crate::rankfn::{canonical_nan, normalized, RankFn};
use qrs_types::{AttrId, Direction, Tuple};

/// `S(u) = Σ wᵢ·max(0, uᵢ - idealᵢ)^p`.
#[derive(Debug, Clone)]
pub struct LpRank {
    attrs: Vec<AttrId>,
    dirs: Vec<Direction>,
    weights: Vec<f64>,
    ideal: Vec<f64>,
    p: f64,
}

impl LpRank {
    /// # Panics
    /// If arities disagree, `p < 1`, or any weight is not strictly positive.
    pub fn new(
        attrs: Vec<AttrId>,
        dirs: Vec<Direction>,
        weights: Vec<f64>,
        ideal: Vec<f64>,
        p: f64,
    ) -> Self {
        assert!(!attrs.is_empty());
        assert_eq!(attrs.len(), dirs.len());
        assert_eq!(attrs.len(), weights.len());
        assert_eq!(attrs.len(), ideal.len());
        assert!(p >= 1.0, "LpRank requires p >= 1, got {p}");
        assert!(weights.iter().all(|w| *w > 0.0 && w.is_finite()));
        LpRank {
            attrs,
            dirs,
            weights,
            ideal,
            p,
        }
    }

    /// Euclidean-style (p = 2) all-ascending constructor with the ideal point
    /// at the given normalized minima.
    pub fn l2(attrs: Vec<AttrId>, ideal: Vec<f64>) -> Self {
        let n = attrs.len();
        LpRank::new(attrs, vec![Direction::Asc; n], vec![1.0; n], ideal, 2.0)
    }

    /// `Σ wᵢ·max(uᵢ − idealᵢ, 0)^p` over normalized coordinates, for
    /// `score` and `score_norm` alike.
    fn eval(&self, u: impl Iterator<Item = f64>) -> f64 {
        let terms = u.zip(&self.ideal).zip(&self.weights);
        canonical_nan(
            terms
                .map(|((v, &i), &w)| w * (v - i).max(0.0).powf(self.p))
                .sum(),
        )
    }
}

impl RankFn for LpRank {
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
        format!("L{}-distance({} attrs)", self.p, self.attrs.len())
    }

    /// Full-bit `p`, weights and ideal point — the label carries only `p`.
    fn fingerprint(&self) -> String {
        let params: [&[f64]; 3] = [&[self.p], &self.weights, &self.ideal];
        crate::rankfn::fingerprint_with_params("lp", &self.attrs, &self.dirs, &params)
    }

    fn write_fingerprint(&self, out: &mut String) {
        let params: [&[f64]; 3] = [&[self.p], &self.weights, &self.ideal];
        crate::rankfn::push_fingerprint(out, "lp", &self.attrs, &self.dirs, &params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{Tuple, TupleId};

    fn f() -> LpRank {
        LpRank::l2(vec![AttrId(0), AttrId(1)], vec![0.0, 0.0])
    }

    #[test]
    fn scoring_is_squared_distance() {
        let t = Tuple::new(TupleId(0), vec![3.0, 4.0], vec![]);
        assert_eq!(f().score(&t), 25.0);
    }

    #[test]
    fn below_ideal_contributes_zero() {
        let g = LpRank::l2(vec![AttrId(0)], vec![5.0]);
        let t = Tuple::new(TupleId(0), vec![2.0], vec![]);
        assert_eq!(g.score(&t), 0.0);
    }

    #[test]
    fn generic_ell_works_nonlinearly() {
        // S = v^2 along dim 0 from base (0,0); ell for target 9 is 3.
        let e = f().ell(0, 9.0, &[0.0, 0.0], 100.0).unwrap();
        assert_eq!(e, 3.0);
    }

    #[test]
    fn generic_corner_invariants() {
        let fun = f();
        let w = [4.0, 4.0]; // S = 32
        let b = fun.corner(&w, 20.0, &[0.0, 0.0]);
        assert!(fun.score_norm(&b) >= 20.0);
        assert!(b[0] <= 4.0 && b[1] <= 4.0);
        // Cumulative: b0^2 + 16 >= 20 → b0 ≈ 2 (exact w.r.t. the computed
        // predicate, a few ULPs off the algebraic root); then b1 stays 4.
        assert!((b[0] - 2.0).abs() < 1e-12, "b0 = {}", b[0]);
        assert!((b[1] - 4.0).abs() < 1e-12, "b1 = {}", b[1]);
    }

    #[test]
    fn generic_contour_point() {
        let fun = f();
        let v = fun.contour_point(&[0.0, 0.0], &[10.0, 10.0], 50.0).unwrap();
        assert!(fun.score_norm(&v) >= 50.0);
        assert!(v.iter().all(|&x| (0.0..=10.0).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn rejects_sub_one_p() {
        LpRank::new(
            vec![AttrId(0)],
            vec![Direction::Asc],
            vec![1.0],
            vec![0.0],
            0.5,
        );
    }
}
