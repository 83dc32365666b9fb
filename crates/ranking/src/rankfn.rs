//! The [`RankFn`] trait: monotonic user-specified ranking functions.
//!
//! §2.2 of the paper: a ranking function `S(q, t)` is *monotonic* iff there is
//! a per-attribute order `≺` such that no tuple can outrank another that
//! dominates it. We realize the order as a [`Direction`] per attribute and
//! require [`RankFn::score_norm`] to be non-decreasing in every *normalized*
//! coordinate (smaller normalized value = more preferred), and
//! [`RankFn::score`] to give exactly `score_norm`'s bits on a tuple's
//! normalized coordinates (its docs).
//!
//! Besides scoring, a `RankFn` supplies the three geometric primitives the MD
//! algorithms need, each with an exact default implementation via bit-level
//! bisection and overridable with closed forms:
//!
//! * [`RankFn::ell`] — the axis intercept `ℓ(Ai)` of a rank contour (Eq. 6),
//! * [`RankFn::corner`] — a contour corner `b ≤ witness` with
//!   `S(b) ≥ target`, generalizing `b(Aj)` of Eq. 8 (see *Completeness note*
//!   below),
//! * [`RankFn::contour_point`] — a balanced point on the contour inside a
//!   box, the *virtual tuple* `v'` of §4.3.2.
//!
//! ### Completeness note (deviation from the paper's Eq. 9)
//!
//! Eq. 8 defines each `b(Aj)` by replacing a *single* coordinate of the
//! witness. For `m ≥ 3` the resulting partition (Eq. 9 plus the dominating
//! box) does not cover the whole sub-contour region: e.g. with
//! `S = u1+u2+u3`, witness `(10,10,10)` and `S(t) = 25`, the point
//! `(6,6,11)` scores 23 < 25 but falls in no partition query. We therefore
//! compute `b` *cumulatively*: `b_j` is the smallest value `v` with
//! `S(b_1,…,b_{j-1}, v, w_{j+1},…,w_m) ≥ target`. This coincides with the
//! paper's definition for `m ≤ 2`, guarantees `S(b) ≥ target` (so the corner
//! `{u ⪰ b}` is safely prunable), and makes the `m` prefix-split queries a
//! complete cover — the extra "dominating box" query of Eq. 9 becomes
//! unnecessary.

use crate::solvers::{partition_point_f64, partition_point_near};
use qrs_types::digits::{push_decimal, push_hex16};
use qrs_types::{AttrId, Direction, Tuple};

/// Per-dimension bounds of the normalized search space (derived from the
/// schema domains by `qrs-core`). `lo[i] ≤ hi[i]`; `lo` is the *ideal* corner.
#[derive(Debug, Clone, PartialEq)]
pub struct NormBounds {
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
}

impl NormBounds {
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        debug_assert_eq!(lo.len(), hi.len());
        debug_assert!(lo.iter().zip(&hi).all(|(l, h)| l <= h));
        NormBounds { lo, hi }
    }

    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }
}

/// A monotonic user-specified ranking function. Lower score = higher rank.
pub trait RankFn: Send + Sync {
    /// The ordinal attributes the function ranks on, in coordinate order.
    fn attrs(&self) -> &[AttrId];

    /// Preferred direction of each ranking attribute, aligned with
    /// [`RankFn::attrs`].
    fn directions(&self) -> &[Direction];

    /// Score of a point given by its *normalized* coordinates (aligned with
    /// [`RankFn::attrs`]). Must be monotone non-decreasing in every
    /// coordinate.
    fn score_norm(&self, u: &[f64]) -> f64;

    /// Human-readable label for logs and experiment output.
    fn label(&self) -> String {
        "rank".to_owned()
    }

    /// Injective identity of this ranking function, suitable as a cache key
    /// (the knowledge plane keys cached exact result streams by it).
    ///
    /// Two functions with equal fingerprints **must** rank every tuple set
    /// identically; two observably different functions must differ. The
    /// default renders `label + attrs + directions` — enough for parameter
    /// -free functions, but families whose labels round their parameters
    /// (e.g. [`crate::LinearRank`] prints weights at two decimals) override
    /// it with full-bit parameter renderings. Custom implementations with
    /// numeric parameters should do the same via something like
    /// `format!("{:016x}", w.to_bits())`.
    fn fingerprint(&self) -> String {
        let mut out = self.label();
        out.push('|');
        for (a, d) in self.attrs().iter().zip(self.directions()) {
            push_decimal(&mut out, a.0 as u64);
            out.push(match d {
                Direction::Asc => 'a',
                Direction::Desc => 'd',
            });
        }
        out
    }

    /// Append [`RankFn::fingerprint`] to `out`: the same bytes, for a
    /// caller that writes a key of several parts into one buffer. The
    /// default appends the owned fingerprint; the built-in families write
    /// theirs in place and allocate nothing. A family that overrides
    /// `fingerprint` need not override this.
    fn write_fingerprint(&self, out: &mut String) {
        out.push_str(&self.fingerprint());
    }

    /// Number of ranking dimensions `m`.
    fn dims(&self) -> usize {
        self.attrs().len()
    }

    /// Normalized coordinates of a tuple.
    fn norm_coords(&self, t: &Tuple) -> Vec<f64> {
        normalized(self.attrs(), self.directions(), t).collect()
    }

    /// Score of a tuple — the paper's `S(t)`.
    ///
    /// **Contract:** the same bits as `score_norm` of the tuple's normalized
    /// coordinates ([`RankFn::norm_coords`]), NaNs and signed zeros
    /// included. The history scores a stored tuple from its row, through
    /// `score_norm`, and the cursors compare those scores with this one's
    /// for equality, so an override that rounds differently breaks the
    /// exact stream. The default collects the coordinates; the built-in
    /// families score them as they are read, through the evaluator their
    /// `score_norm` uses.
    fn score(&self, t: &Tuple) -> f64 {
        self.score_norm(&self.norm_coords(t))
    }

    /// Axis intercept of the `target` contour along `dim`, relative to the
    /// anchor point `base` (Eq. 6 generalized from the origin to an arbitrary
    /// box corner): the smallest normalized `v ∈ [base[dim], hi]` such that
    /// the point `base[dim ← v]` scores `≥ target`.
    ///
    /// Returns `None` when even `v = hi` stays below `target` (the contour
    /// does not cut this edge of the box — no cap applies). Exact: the
    /// returned value satisfies the predicate and its predecessor float does
    /// not (unless it equals `base[dim]`).
    fn ell(&self, dim: usize, target: f64, base: &[f64], hi: f64) -> Option<f64> {
        let mut buf = base.to_vec();
        partition_point_f64(base[dim], hi, |v| {
            buf[dim] = v;
            self.score_norm(&buf) >= target
        })
    }

    /// Cumulative contour corner: a point `b` with `lo ≤ b ≤ witness`
    /// (component-wise, normalized) and `S(b) ≥ target`, computed by lowering
    /// coordinates left-to-right as far as the contour allows.
    ///
    /// Precondition: `S(witness) ≥ target` and `lo ≤ witness`. The prefix
    /// split of a box around `b` then covers every point scoring `< target`
    /// while pruning the corner `{u ⪰ b}` — see the module docs for why this
    /// is the completeness-correct generalization of Eq. 8.
    fn corner(&self, witness: &[f64], target: f64, lo: &[f64]) -> Vec<f64> {
        debug_assert!(self.score_norm(witness) >= target);
        let mut b = witness.to_vec();
        for j in 0..witness.len() {
            let wj = b[j];
            // Invariant: with coords 0..j set to b[0..j] and j.. at witness,
            // the score is >= target, so the predicate holds at v = wj.
            let found = {
                let buf = &mut b;
                partition_point_f64(lo[j].min(wj), wj, |v| {
                    buf[j] = v;
                    let s = self.score_norm(buf) >= target;
                    buf[j] = wj;
                    s
                })
            };
            b[j] = found.unwrap_or(wj);
        }
        b
    }

    /// A point `v'` inside the box `[lo, hi]` with `S(v') ≥ target`, sitting
    /// (one ULP above) the contour — the *virtual tuple* of §4.3.2.
    ///
    /// Returns `None` when the contour misses the box: either
    /// `S(lo) ≥ target` (the whole box is prunable) or `S(hi) < target`
    /// (every point in the box outranks the threshold).
    ///
    /// The default walks the main diagonal; implementations with more
    /// structure (e.g. [`crate::LinearRank`]) override it with the
    /// max-volume point, which is what makes virtual-tuple pruning
    /// effective.
    fn contour_point(&self, lo: &[f64], hi: &[f64], target: f64) -> Option<Vec<f64>> {
        if self.score_norm(lo) >= target || self.score_norm(hi) < target {
            return None;
        }
        diagonal_point(self, lo, hi, target)
    }
}

/// The first point of the diagonal `lo → hi` that scores `≥ target`, by
/// bisection over one reused buffer: [`RankFn::contour_point`]'s default,
/// and the fallback of the closed forms that override it.
pub(crate) fn diagonal_point(
    f: &(impl RankFn + ?Sized),
    lo: &[f64],
    hi: &[f64],
    target: f64,
) -> Option<Vec<f64>> {
    let mut buf = lo.to_vec();
    let at = |buf: &mut Vec<f64>, lam: f64| {
        for ((b, &l), &h) in buf.iter_mut().zip(lo).zip(hi) {
            *b = l + lam * (h - l);
        }
    };
    let lam = partition_point_f64(0.0, 1.0, |lam| {
        at(&mut buf, lam);
        f.score_norm(&buf) >= target
    })?;
    at(&mut buf, lam);
    Some(buf)
}

/// A tuple's normalized coordinates over `attrs`, read lazily: what
/// [`RankFn::norm_coords`] collects.
pub(crate) fn normalized<'a>(
    attrs: &'a [AttrId],
    dirs: &'a [Direction],
    t: &'a Tuple,
) -> impl Iterator<Item = f64> + 'a {
    attrs.iter().zip(dirs).map(|(&a, &d)| d.normalize(t.ord(a)))
}

/// `s`, or the one quiet NaN [`f64::NAN`] when `s` is a NaN of any sign
/// or payload. Rust leaves the sign of a NaN that arithmetic produces
/// unspecified, so two evaluation orders of one sum can disagree on it (in
/// release builds `score` and `score_norm` did), and `total_cmp` — which
/// the history's keys and the sorts order scores by — puts a negative NaN
/// below every number and a positive one above. The linear, Lp and ratio
/// families end `score` and `score_norm` here, so a NaN score ranks in one
/// place whichever path computed it (a Chebyshev score is never NaN: its
/// `max` skips NaN terms).
#[inline]
pub(crate) fn canonical_nan(s: f64) -> f64 {
    if s.is_nan() {
        f64::NAN
    } else {
        s
    }
}

/// Shared fingerprint renderer for the built-in families: family tag, then
/// per-coordinate `attr`/`direction`, then every numeric parameter as its
/// raw bit pattern (injective where `Display` rounding is not), taken from
/// each slice of `params` in turn. Written by [`push_fingerprint`] into one
/// `String` sized for attribute ids below 1 000.
pub(crate) fn fingerprint_with_params(
    family: &str,
    attrs: &[AttrId],
    dirs: &[Direction],
    params: &[&[f64]],
) -> String {
    let count: usize = params.iter().map(|p| p.len()).sum();
    let mut out = String::with_capacity(family.len() + 2 + 4 * attrs.len() + 17 * count);
    push_fingerprint(&mut out, family, attrs, dirs, params);
    out
}

/// Append the bytes [`fingerprint_with_params`] renders to `out`, every
/// digit written in place.
pub(crate) fn push_fingerprint(
    out: &mut String,
    family: &str,
    attrs: &[AttrId],
    dirs: &[Direction],
    params: &[&[f64]],
) {
    out.push_str(family);
    out.push('|');
    for (a, d) in attrs.iter().zip(dirs) {
        push_decimal(out, a.0 as u64);
        out.push(match d {
            Direction::Asc => 'a',
            Direction::Desc => 'd',
        });
    }
    out.push('|');
    for p in params.iter().flat_map(|p| p.iter()) {
        push_hex16(out, p.to_bits());
        out.push(';');
    }
}

/// Exactify a candidate contour point: pull `p` back toward `lo` along the
/// segment `lo → p` until it sits exactly at the first float position whose
/// score reaches `target`. Helper for closed-form `contour_point` overrides
/// whose arithmetic may land a few ULPs off the contour, so the search
/// gallops down from `p` itself (`λ = 1`) into one reused buffer.
pub(crate) fn snap_to_contour(
    f: &(impl RankFn + ?Sized),
    lo: &[f64],
    p: &[f64],
    target: f64,
) -> Option<Vec<f64>> {
    if f.score_norm(p) < target {
        // p fell short of the contour (rounding); it cannot be snapped along
        // lo → p. The caller falls back to the diagonal.
        return None;
    }
    let mut buf = p.to_vec();
    let at = |buf: &mut Vec<f64>, lam: f64| {
        for ((b, &l), &x) in buf.iter_mut().zip(lo).zip(p) {
            *b = l + lam * (x - l);
        }
    };
    let lam = partition_point_near(0.0, 1.0, 1.0, |lam| {
        at(&mut buf, lam);
        f.score_norm(&buf) >= target
    })?;
    at(&mut buf, lam);
    Some(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal monotone function for exercising the default solvers:
    /// S(u) = u0 + 2·u1 (+ u2 …).
    struct Sum(Vec<AttrId>, Vec<Direction>);

    impl RankFn for Sum {
        fn attrs(&self) -> &[AttrId] {
            &self.0
        }
        fn directions(&self) -> &[Direction] {
            &self.1
        }
        fn score_norm(&self, u: &[f64]) -> f64 {
            u.iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 + 1.0) * v)
                .sum()
        }
    }

    fn sum2() -> Sum {
        Sum(
            vec![AttrId(0), AttrId(1)],
            vec![Direction::Asc, Direction::Asc],
        )
    }

    #[test]
    fn score_uses_normalization() {
        let f = Sum(
            vec![AttrId(0), AttrId(1)],
            vec![Direction::Asc, Direction::Desc],
        );
        let t = Tuple::new(qrs_types::TupleId(0), vec![3.0, 4.0], vec![]);
        // u = (3, -4); S = 3 + 2·(-4) = -5.
        assert_eq!(f.score(&t), -5.0);
    }

    #[test]
    fn ell_exact_boundary() {
        let f = sum2();
        // base = (1, 1): S = 3. Along dim 1: S = 1 + 2v >= 10 ⟺ v >= 4.5.
        let e = f.ell(1, 10.0, &[1.0, 1.0], 100.0).unwrap();
        assert_eq!(e, 4.5);
        // Contour above the edge: no cap.
        assert_eq!(f.ell(1, 1000.0, &[1.0, 1.0], 100.0), None);
        // Already at/above target at base.
        assert_eq!(f.ell(1, 2.0, &[1.0, 1.0], 100.0), Some(1.0));
    }

    #[test]
    fn corner_invariants() {
        let f = Sum(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            vec![Direction::Asc; 3],
        );
        let witness = [10.0, 10.0, 10.0]; // S = 60
        let lo = [0.0, 0.0, 0.0];
        let target = 45.0;
        let b = f.corner(&witness, target, &lo);
        assert!(f.score_norm(&b) >= target);
        for j in 0..3 {
            assert!(b[j] <= witness[j]);
            assert!(b[j] >= lo[j]);
        }
        // Cumulative semantics: b0 = (45 - 20 - 30) / 1 = -5 → clamped to 0,
        // b1 = (45 - 0 - 30)/2 = 7.5, b2 = (45 - 0 - 15)/3 = 10.
        assert_eq!(b[0], 0.0);
        assert!((b[1] - 7.5).abs() < 1e-12);
        assert!((b[2] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn contour_point_in_box_and_on_contour() {
        let f = sum2();
        let lo = [0.0, 0.0];
        let hi = [10.0, 10.0];
        let v = f.contour_point(&lo, &hi, 15.0).unwrap();
        assert!(f.score_norm(&v) >= 15.0);
        // One step back along the diagonal scores below target.
        for (i, x) in v.iter().enumerate() {
            assert!(*x >= lo[i] && *x <= hi[i]);
        }
        // Degenerate cases.
        assert!(f.contour_point(&lo, &hi, -1.0).is_none()); // S(lo)=0 >= -1
        assert!(f.contour_point(&lo, &hi, 100.0).is_none()); // S(hi)=30 < 100
    }

    #[test]
    fn fingerprints_survive_label_rounding() {
        use crate::LinearRank;
        let a = LinearRank::asc(vec![(AttrId(0), 1.001), (AttrId(1), 1.0)]);
        let b = LinearRank::asc(vec![(AttrId(0), 1.002), (AttrId(1), 1.0)]);
        // The display label rounds both to "1.00*..." — it aliases.
        assert_eq!(a.label(), b.label());
        // The fingerprint does not.
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
        // Default fingerprint distinguishes attrs/directions.
        let f = sum2();
        let g = Sum(
            vec![AttrId(0), AttrId(1)],
            vec![Direction::Asc, Direction::Desc],
        );
        assert_ne!(f.fingerprint(), g.fingerprint());
    }

    #[test]
    fn snap_helper() {
        let f = sum2();
        let lo = [0.0, 0.0];
        let p = [10.0, 10.0]; // S = 30
        let v = snap_to_contour(&f, &lo, &p, 15.0).unwrap();
        assert!(f.score_norm(&v) >= 15.0);
        assert!(v[0] <= 10.0 && v[1] <= 10.0);
        assert!(snap_to_contour(&f, &lo, &[1.0, 1.0], 15.0).is_none());
    }
}
