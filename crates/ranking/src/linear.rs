//! Linear ranking functions — the paper's primary family.
//!
//! §6.3: "the ranking functions are constructed by selecting a subset from
//! the set of all ranking attributes and choosing different weights between
//! 0 and 1". [`LinearRank`] is `S(u) = Σ wᵢ·uᵢ` over normalized coordinates
//! with strictly positive weights, which also covers the motivating examples
//! "summation of depth and table percent" (unit weights) and any
//! `maximize`/`minimize` single attribute (one weight).

use crate::rankfn::{snap_to_contour, RankFn};
use qrs_types::{AttrId, Direction};

/// `S(u) = Σ wᵢ·uᵢ` in normalized space, `wᵢ > 0`.
#[derive(Debug, Clone)]
pub struct LinearRank {
    attrs: Vec<AttrId>,
    dirs: Vec<Direction>,
    weights: Vec<f64>,
    label: String,
}

impl LinearRank {
    /// Build from `(attribute, direction, weight)` triples.
    ///
    /// # Panics
    /// If no triples are given, a weight is not strictly positive, or an
    /// attribute repeats.
    pub fn new(terms: Vec<(AttrId, Direction, f64)>) -> Self {
        assert!(!terms.is_empty(), "LinearRank needs at least one term");
        let mut attrs = Vec::with_capacity(terms.len());
        let mut dirs = Vec::with_capacity(terms.len());
        let mut weights = Vec::with_capacity(terms.len());
        for (a, d, w) in terms {
            assert!(
                w > 0.0 && w.is_finite(),
                "LinearRank weights must be finite and > 0, got {w}"
            );
            assert!(!attrs.contains(&a), "duplicate ranking attribute {a}");
            attrs.push(a);
            dirs.push(d);
            weights.push(w);
        }
        let label = attrs
            .iter()
            .zip(&dirs)
            .zip(&weights)
            .map(|((a, d), w)| {
                format!(
                    "{w:.2}*{a}{}",
                    if *d == Direction::Desc { "(desc)" } else { "" }
                )
            })
            .collect::<Vec<_>>()
            .join(" + ");
        LinearRank {
            attrs,
            dirs,
            weights,
            label,
        }
    }

    /// All-ascending convenience constructor.
    pub fn asc(terms: Vec<(AttrId, f64)>) -> Self {
        LinearRank::new(
            terms
                .into_iter()
                .map(|(a, w)| (a, Direction::Asc, w))
                .collect(),
        )
    }

    /// Rank by a single attribute — the 1D case of §3.
    pub fn single(attr: AttrId, dir: Direction) -> Self {
        LinearRank::new(vec![(attr, dir, 1.0)])
    }

    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Max-volume point on the `target` contour within `[lo, hi]` by
    /// water-filling (see [`RankFn::contour_point`] docs): maximize
    /// `Π (vᵢ - loᵢ)` subject to `Σ wᵢ vᵢ = target`, `v ≤ hi`.
    fn waterfill(&self, lo: &[f64], hi: &[f64], target: f64) -> Option<Vec<f64>> {
        let m = self.weights.len();
        let base: f64 = self.weights.iter().zip(lo).map(|(w, l)| w * l).sum();
        let mut budget = target - base; // Σ wᵢ·xᵢ with xᵢ = vᵢ - loᵢ
        if budget <= 0.0 {
            return None; // S(lo) >= target — whole box prunable
        }
        // active[i]: coordinate still unclamped.
        let mut x = vec![0.0_f64; m];
        let mut active: Vec<usize> = (0..m).collect();
        loop {
            if active.is_empty() {
                // Everything clamped yet budget remains: S(hi) < target.
                return None;
            }
            let share = budget / active.len() as f64;
            // Clamp coords whose equal share exceeds their cap.
            let mut clamped_any = false;
            active.retain(|&i| {
                let cap = hi[i] - lo[i];
                if share / self.weights[i] >= cap {
                    x[i] = cap;
                    budget -= self.weights[i] * cap;
                    clamped_any = true;
                    false
                } else {
                    true
                }
            });
            if !clamped_any {
                for &i in &active {
                    x[i] = share / self.weights[i];
                }
                break;
            }
            if budget <= 0.0 {
                // All budget consumed by clamped coordinates; leave the rest
                // at lo. The point may sit slightly above the contour — the
                // snap below corrects it.
                break;
            }
        }
        Some(x.iter().zip(lo).map(|(xi, l)| l + xi).collect())
    }
}

impl RankFn for LinearRank {
    fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    fn directions(&self) -> &[Direction] {
        &self.dirs
    }

    #[inline]
    fn score_norm(&self, u: &[f64]) -> f64 {
        debug_assert_eq!(u.len(), self.weights.len());
        self.weights.iter().zip(u).map(|(w, v)| w * v).sum()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    /// Full-bit weights — the display label rounds to two decimals, which
    /// would alias nearby weight vectors.
    fn fingerprint(&self) -> String {
        crate::rankfn::fingerprint_with_params("linear", &self.attrs, &self.dirs, &self.weights)
    }

    /// Closed-form `ℓ`: `v = (target - Σ_{j≠dim} wⱼ·baseⱼ) / w_dim`, then
    /// exactified by the default bisection (cheap; keeps the ULP guarantee).
    fn ell(&self, dim: usize, target: f64, base: &[f64], hi: f64) -> Option<f64> {
        // The default is already exact and O(64) score evaluations; for the
        // linear case we keep it — closed-form would need the same fix-up.
        let mut buf = base.to_vec();
        crate::solvers::partition_point_f64(base[dim], hi, |v| {
            buf[dim] = v;
            self.score_norm(&buf) >= target
        })
    }

    /// Max-volume virtual tuple via water-filling, snapped exactly onto the
    /// contour; falls back to the diagonal when degenerate.
    fn contour_point(&self, lo: &[f64], hi: &[f64], target: f64) -> Option<Vec<f64>> {
        if self.score_norm(lo) >= target || self.score_norm(hi) < target {
            return None;
        }
        if let Some(p) = self.waterfill(lo, hi, target) {
            if let Some(v) = snap_to_contour(self, lo, &p, target) {
                return Some(v);
            }
        }
        // Degenerate arithmetic: fall back to the exact diagonal point.
        let point_at = |lam: f64| -> Vec<f64> {
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| l + lam * (h - l))
                .collect()
        };
        let lam = crate::solvers::partition_point_f64(0.0, 1.0, |lam| {
            self.score_norm(&point_at(lam)) >= target
        })?;
        Some(point_at(lam))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{Tuple, TupleId};

    fn f2() -> LinearRank {
        LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 2.0)])
    }

    #[test]
    fn scoring() {
        let f = f2();
        let t = Tuple::new(TupleId(0), vec![3.0, 4.0], vec![]);
        assert_eq!(f.score(&t), 11.0);
    }

    #[test]
    #[should_panic(expected = "weights must be finite and > 0")]
    fn rejects_nonpositive_weight() {
        LinearRank::asc(vec![(AttrId(0), 0.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate ranking attribute")]
    fn rejects_duplicate_attr() {
        LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(0), 2.0)]);
    }

    #[test]
    fn waterfill_max_volume_beats_diagonal() {
        // Asymmetric weights: the max-volume point is off-diagonal.
        let f = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 4.0)]);
        let lo = [0.0, 0.0];
        let hi = [100.0, 100.0];
        let target = 40.0;
        let v = f.contour_point(&lo, &hi, target).unwrap();
        assert!(f.score_norm(&v) >= target);
        // Unclamped water-filling: x0 = 20/1, x1 = 20/4 = 5.
        assert!((v[0] - 20.0).abs() < 1e-9, "v0 = {}", v[0]);
        assert!((v[1] - 5.0).abs() < 1e-9, "v1 = {}", v[1]);
        // Volume >= diagonal's volume.
        let lam = 40.0 / 500.0; // diagonal point scale
        let diag_vol = (lam * 100.0) * (lam * 100.0);
        assert!(v[0] * v[1] >= diag_vol);
    }

    #[test]
    fn waterfill_clamps_at_box_edge() {
        let f = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let lo = [0.0, 0.0];
        let hi = [1.0, 100.0];
        let target = 50.0;
        // Unclamped share would be 25 on each, but dim0 caps at 1.
        let v = f.contour_point(&lo, &hi, target).unwrap();
        assert!(f.score_norm(&v) >= target);
        assert!(v[0] <= 1.0 + 1e-12);
        assert!((v[1] - 49.0).abs() < 1e-9, "v1 = {}", v[1]);
    }

    #[test]
    fn contour_point_none_when_contour_outside() {
        let f = f2();
        assert!(f.contour_point(&[0.0, 0.0], &[1.0, 1.0], -5.0).is_none());
        assert!(f.contour_point(&[0.0, 0.0], &[1.0, 1.0], 50.0).is_none());
    }

    #[test]
    fn single_is_one_dimensional() {
        let f = LinearRank::single(AttrId(3), Direction::Desc);
        assert_eq!(f.dims(), 1);
        let t = Tuple::new(TupleId(0), vec![0.0, 0.0, 0.0, 7.0], vec![]);
        assert_eq!(f.score(&t), -7.0);
    }
}
