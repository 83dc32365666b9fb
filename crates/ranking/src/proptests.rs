//! Randomized property tests for the contour solvers: the safety conditions
//! the MD pruning proofs rely on, fuzzed over random linear and Lp functions.
//!
//! Written against the local `rand` stand-in (no registry access for
//! `proptest`): each property runs a deterministic seeded sweep.

#![cfg(test)]

use crate::{LinearRank, LpRank, RankFn};
use qrs_types::{AttrId, Direction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: usize = 256;

fn linear(rng: &mut StdRng, m: usize) -> LinearRank {
    LinearRank::new(
        (0..m)
            .map(|i| {
                (
                    AttrId(i),
                    Direction::Asc,
                    f64::from(rng.random_range(1..100u32)) / 10.0,
                )
            })
            .collect(),
    )
}

fn boxed(rng: &mut StdRng, m: usize) -> (Vec<f64>, Vec<f64>) {
    let lo: Vec<f64> = (0..m)
        .map(|_| f64::from(rng.random_range(0..50u32)) / 10.0)
        .collect();
    let hi: Vec<f64> = lo
        .iter()
        .map(|&l| l + f64::from(rng.random_range(1..50u32)) / 10.0)
        .collect();
    (lo, hi)
}

/// ℓ safety: any point with `u_dim ≥ ell` scores at least the target.
#[test]
fn ell_prunes_safely() {
    let mut rng = StdRng::seed_from_u64(0x111);
    for _ in 0..CASES {
        let f = linear(&mut rng, 3);
        let (lo, hi) = boxed(&mut rng, 3);
        let dim = rng.random_range(0..3usize);
        let tfrac: f64 = rng.random();
        let probe: f64 = rng.random();
        let smin = f.score_norm(&lo);
        let smax = f.score_norm(&hi);
        let target = smin + tfrac * (smax - smin);
        if let Some(e) = f.ell(dim, target, &lo, hi[dim]) {
            // Any coordinate at or above e (others at the box floor or
            // anywhere higher) scores >= target.
            let mut p = lo.clone();
            p[dim] = e + probe * (hi[dim] - e).max(0.0);
            assert!(
                f.score_norm(&p) >= target,
                "ell cap unsafe: {f:?} dim {dim}"
            );
        } else {
            // No cap means even the box edge stays under target.
            let mut p = lo.clone();
            p[dim] = hi[dim];
            assert!(
                f.score_norm(&p) < target,
                "missing ell cap: {f:?} dim {dim}"
            );
        }
    }
}

/// Corner safety: `lo ≤ corner ≤ witness` and `S(corner) ≥ target`.
#[test]
fn corner_is_safe_and_dominated() {
    let mut rng = StdRng::seed_from_u64(0x222);
    for _ in 0..CASES {
        let f = linear(&mut rng, 4);
        let (lo, hi) = boxed(&mut rng, 4);
        let w: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| l + rng.random::<f64>() * (h - l))
            .collect();
        let sw = f.score_norm(&w);
        let smin = f.score_norm(&lo);
        let target = smin + rng.random::<f64>() * (sw - smin);
        let b = f.corner(&w, target, &lo);
        assert!(f.score_norm(&b) >= target, "corner under target: {f:?}");
        for j in 0..4 {
            assert!(b[j] <= w[j] + 1e-12, "corner above witness on dim {j}");
            assert!(b[j] >= lo[j] - 1e-12, "corner below floor on dim {j}");
        }
    }
}

/// Virtual tuple: inside the box, scoring ≥ target; and the box floor stays
/// strictly below the target.
#[test]
fn contour_point_is_on_target_side() {
    let mut rng = StdRng::seed_from_u64(0x333);
    for _ in 0..CASES {
        let f = linear(&mut rng, 3);
        let (lo, hi) = boxed(&mut rng, 3);
        let tfrac = 0.01 + 0.98 * rng.random::<f64>();
        let smin = f.score_norm(&lo);
        let smax = f.score_norm(&hi);
        if smax <= smin {
            continue;
        }
        let target = smin + tfrac * (smax - smin);
        if let Some(v) = f.contour_point(&lo, &hi, target) {
            assert!(f.score_norm(&v) >= target, "contour point under target");
            for j in 0..3 {
                assert!(
                    v[j] >= lo[j] - 1e-12 && v[j] <= hi[j] + 1e-12,
                    "contour point outside box on dim {j}"
                );
            }
            // One ULP-ish back along the diagonal toward lo scores < target
            // is NOT guaranteed for the waterfilled point, but lo itself is.
            assert!(f.score_norm(&lo) < target);
        }
    }
}

/// The generic solvers hold for non-linear monotone functions too.
#[test]
fn lp_solvers_safe() {
    let mut rng = StdRng::seed_from_u64(0x444);
    for _ in 0..CASES {
        let (lo, hi) = boxed(&mut rng, 2);
        let tfrac = 0.01 + 0.98 * rng.random::<f64>();
        let dim = rng.random_range(0..2usize);
        let f = LpRank::l2(vec![AttrId(0), AttrId(1)], lo.clone());
        let smin = f.score_norm(&lo);
        let smax = f.score_norm(&hi);
        if smax <= smin {
            continue;
        }
        let target = smin + tfrac * (smax - smin);
        if let Some(e) = f.ell(dim, target, &lo, hi[dim]) {
            let mut p = lo.clone();
            p[dim] = e;
            assert!(f.score_norm(&p) >= target, "Lp ell cap unsafe on dim {dim}");
        }
        if let Some(v) = f.contour_point(&lo, &hi, target) {
            assert!(f.score_norm(&v) >= target, "Lp contour point under target");
        }
    }
}

/// A coordinate anywhere in `[-5, 5]` (negative ones are `Desc`
/// attributes), a tenth of the time on a grid of quarters so that
/// contours pass exactly through representable points.
fn coord(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => f64::from(rng.random_range(0..=40u32)) / 4.0 - 5.0,
        _ => 10.0 * rng.random::<f64>() - 5.0,
    }
}

/// [`coord`], or one time in three a value at an edge of the float line:
/// a zero, a subnormal, an infinity or a NaN, of either sign.
fn odd_coord(rng: &mut StdRng) -> f64 {
    let sub = f64::from_bits(1 + rng.random_range(0..1u64 << 51));
    let edge = [0.0, sub, f64::MIN_POSITIVE, f64::INFINITY, f64::NAN];
    match rng.random_range(0..3u32) {
        0 => edge[rng.random_range(0..edge.len())] * [1.0, -1.0][rng.random_range(0..2usize)],
        _ => coord(rng),
    }
}

/// The closed-form linear `ℓ` returns the bisection's partition point bit
/// for bit: over random weights (zeros included), bases, targets inside and
/// outside the edge's score range, and edges cut short by `hi`.
#[test]
fn linear_ell_is_the_bisection_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x555);
    let (mut capped, mut inside) = (0, 0);
    for _ in 0..20 * CASES {
        let m = rng.random_range(1..5usize);
        let weights: Vec<f64> = (0..m)
            .map(|_| match rng.random_range(0..4u32) {
                0 => 0.0,
                1 => f64::from(rng.random_range(1..20u32)) / 10.0,
                _ => rng.random::<f64>() * 3.0,
            })
            .collect();
        let base: Vec<f64> = (0..m).map(|_| coord(&mut rng)).collect();
        let dim = rng.random_range(0..m);
        let hi = match rng.random_range(0..4u32) {
            0 => base[dim],
            _ => base[dim].max(coord(&mut rng)),
        };
        let at = |v: f64| {
            let mut u = base.clone();
            u[dim] = v;
            crate::linear::dot(&weights, u)
        };
        let target = match rng.random_range(0..4u32) {
            0 => at(base[dim] + (hi - base[dim]) * f64::from(rng.random_range(0..=4u32)) / 4.0),
            1 => at(base[dim]) + (rng.random::<f64>() - 0.5) * 20.0,
            _ => at(base[dim]) + (at(hi) - at(base[dim])) * rng.random::<f64>(),
        };
        let want = crate::solvers::partition_point_f64(base[dim], hi, |v| at(v) >= target);
        let got = crate::linear::ell_linear(&weights, dim, target, &base, hi);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "weights {weights:?} base {base:?} dim {dim} hi {hi} target {target}"
        );
        capped += usize::from(want.is_none());
        inside += usize::from(want.is_some_and(|v| v > base[dim]));
    }
    assert!(
        capped * 10 >= CASES && inside * 2 >= CASES,
        "vacuous: {capped} edges missed the contour, {inside} cut inside"
    );
}

/// The snap onto a linear contour returns the bisection's point bit for
/// bit, from points on, below and above the contour.
#[test]
fn snap_to_contour_is_the_bisection_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x666);
    let mut snapped = 0;
    for _ in 0..4 * CASES {
        let m = rng.random_range(1..5usize);
        let f = linear(&mut rng, m);
        let lo: Vec<f64> = (0..m).map(|_| coord(&mut rng)).collect();
        let p: Vec<f64> = lo.iter().map(|l| l + 5.0 * rng.random::<f64>()).collect();
        let (slo, sp) = (f.score_norm(&lo), f.score_norm(&p));
        let target = match rng.random_range(0..3u32) {
            0 => sp,
            1 => slo + (sp - slo) * rng.random::<f64>(),
            _ => sp + rng.random::<f64>(),
        };
        let point_at = |lam: f64| -> Vec<f64> {
            lo.iter()
                .zip(&p)
                .map(|(&l, &x)| l + lam * (x - l))
                .collect()
        };
        let want = (sp >= target)
            .then(|| {
                crate::solvers::partition_point_f64(0.0, 1.0, |lam| {
                    f.score_norm(&point_at(lam)) >= target
                })
            })
            .flatten()
            .map(point_at);
        let got = crate::rankfn::snap_to_contour(&f, &lo, &p, target);
        let bits =
            |v: Option<Vec<f64>>| v.map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>());
        assert_eq!(
            bits(got),
            bits(want.clone()),
            "{f:?} lo {lo:?} p {p:?} target {target}"
        );
        snapped += usize::from(want.is_some());
    }
    assert!(snapped * 2 >= CASES, "vacuous: {snapped} points snapped");
}

/// `RankFn`'s scoring contract holds for every built-in family (linear,
/// Chebyshev, Lp, ratio): `score(t)` is, bit for bit, `score_norm` of
/// `t`'s normalized coordinates — what the history scores a stored row
/// by — over random weights, ideals, exponents and directions, and
/// coordinates of either sign, zeros, subnormals, infinities and NaNs; and
/// `LinearRank::ell` is the bisection over a copied base, bit for bit.
#[test]
fn score_is_score_norm_of_norm_coords_bit_for_bit() {
    use crate::{ChebyshevRank, RatioRank};
    use qrs_types::{Tuple, TupleId};
    let mut rng = StdRng::seed_from_u64(0x777);
    let mut inside = 0;
    for _ in 0..4 * CASES {
        let m = rng.random_range(1..5usize);
        let attrs: Vec<AttrId> = (0..m).map(AttrId).collect();
        let dirs: Vec<Direction> = (0..m)
            .map(|_| match rng.random::<bool>() {
                true => Direction::Asc,
                false => Direction::Desc,
            })
            .collect();
        let weights: Vec<f64> = (0..m).map(|_| 0.1 + 3.0 * rng.random::<f64>()).collect();
        let ideal: Vec<f64> = (0..m).map(|_| coord(&mut rng)).collect();
        let p = [1.0, 2.0, 2.5, 3.0][rng.random_range(0..4usize)];
        let terms = attrs.iter().zip(&dirs).zip(&weights);
        let linear = LinearRank::new(terms.map(|((&a, &d), &w)| (a, d, w)).collect());
        let families: [&dyn RankFn; 3] = [
            &linear,
            &ChebyshevRank::new(attrs.clone(), dirs.clone(), weights.clone(), ideal.clone()),
            &LpRank::new(attrs.clone(), dirs.clone(), weights.clone(), ideal, p),
        ];
        let t = Tuple::new(
            TupleId(0),
            (0..m).map(|_| coord(&mut rng)).collect(),
            vec![],
        );
        let odd = Tuple::new(
            TupleId(2),
            (0..m).map(|_| odd_coord(&mut rng)).collect(),
            vec![],
        );
        // A ratio's numerator is neither negative nor NaN.
        let ratio = Tuple::new(
            TupleId(1),
            vec![odd_coord(&mut rng).abs(), odd_coord(&mut rng)],
            vec![],
        );
        let ratio_fn = RatioRank::minimize(AttrId(0), AttrId(1));
        let ratio = Some(ratio).filter(|r| !r.ords()[0].is_nan());
        for (f, t) in (families.iter())
            .flat_map(|&f| [(f, &t), (f, &odd)])
            .chain(ratio.iter().map(|r| (&ratio_fn as _, r)))
        {
            assert_eq!(
                f.score(t).to_bits(),
                f.score_norm(&f.norm_coords(t)).to_bits(),
                "{} on {t:?}",
                f.label()
            );
        }

        let base = linear.norm_coords(&t);
        let dim = rng.random_range(0..m);
        let hi = base[dim] + 5.0 * rng.random::<f64>();
        let at = |v: f64| {
            let mut u = base.clone();
            u[dim] = v;
            linear.score_norm(&u)
        };
        let target = at(base[dim]) + (at(hi) - at(base[dim])) * (1.2 * rng.random::<f64>());
        let want = crate::solvers::partition_point_f64(base[dim], hi, |v| at(v) >= target);
        let got = linear.ell(dim, target, &base, hi);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{linear:?} base {base:?} dim {dim} hi {hi} target {target}"
        );
        inside += usize::from(want.is_some_and(|v| v > base[dim]));
    }
    assert!(
        inside * 2 >= CASES,
        "vacuous: {inside} cuts inside the edge"
    );
}

/// A float drawn by its bits, of random sign: one time in six each a zero,
/// a NaN with a random payload, an infinity and a subnormal; otherwise any
/// bit pattern.
fn any_bits(rng: &mut StdRng) -> f64 {
    let sign = rng.random::<u64>() & 1 << 63;
    let mantissa = rng.random::<u64>() & ((1 << 52) - 1);
    let bits = match rng.random_range(0..6u32) {
        0 => 0,
        1 => 0x7ff0_0000_0000_0000 | mantissa.max(1),
        2 => 0x7ff0_0000_0000_0000,
        3 => mantissa.max(1),
        _ => rng.random::<u64>(),
    };
    f64::from_bits(sign | bits)
}

/// A weight the families accept: finite and above zero, subnormals and
/// the largest doubles included (one time in 32: `LinearRank`'s label
/// prints a weight's integer digits, all 309 of the largest).
fn any_weight(rng: &mut StdRng) -> f64 {
    let bits = match rng.random_range(0..32u32) {
        0 => rng.random_range(1..0x7ff0_0000_0000_0000u64),
        _ => rng.random_range(1..0x43f0_0000_0000_0000u64),
    };
    f64::from_bits(bits)
}

/// The built-in fingerprints are the bytes the `format!`-based renderer
/// they replaced wrote, over 10^5 seeded draws of `m` distinct attribute
/// ids (small and up to `usize::MAX`), directions, weights of any finite
/// positive bit pattern, ideal points of any bit pattern (both zeros,
/// NaN payloads, infinities, subnormals) and exponents from 1 to infinity;
/// `write_fingerprint` appends the same bytes to a buffer. `QRS_TEST_SEED`
/// picks the draws.
#[test]
fn fingerprints_are_what_format_wrote() {
    use crate::{ChebyshevRank, RatioRank};
    fn reference(family: &str, attrs: &[AttrId], dirs: &[Direction], params: &[f64]) -> String {
        let mut out = format!("{family}|");
        for (a, d) in attrs.iter().zip(dirs) {
            out.push_str(&a.0.to_string());
            out.push(if *d == Direction::Asc { 'a' } else { 'd' });
        }
        out.push('|');
        for p in params {
            out.push_str(&format!("{:016x};", p.to_bits()));
        }
        out
    }
    let seed = std::env::var("QRS_TEST_SEED").ok();
    let seed = seed.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(0xF1A6 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for _ in 0..100_000 {
        let m = rng.random_range(1..5usize);
        let mut attrs: Vec<AttrId> = Vec::new();
        while attrs.len() < m {
            let a = match rng.random_range(0..2u32) {
                0 => AttrId(rng.random_range(0..12usize)),
                _ => AttrId(rng.random::<u64>() as usize),
            };
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        let dirs: Vec<Direction> = (0..m)
            .map(|_| [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)])
            .collect();
        let weights: Vec<f64> = (0..m).map(|_| any_weight(&mut rng)).collect();
        let ideal: Vec<f64> = (0..m).map(|_| any_bits(&mut rng)).collect();
        let p = match rng.random_range(0..4u32) {
            0 => f64::INFINITY,
            _ => 1.0 + any_weight(&mut rng),
        };
        let terms = attrs.iter().zip(&dirs).zip(&weights);
        let linear = LinearRank::new(terms.map(|((&a, &d), &w)| (a, d, w)).collect());
        assert_eq!(
            linear.fingerprint(),
            reference("linear", &attrs, &dirs, &weights)
        );
        let chebyshev =
            ChebyshevRank::new(attrs.clone(), dirs.clone(), weights.clone(), ideal.clone());
        let params: Vec<f64> = weights.iter().chain(&ideal).copied().collect();
        assert_eq!(
            chebyshev.fingerprint(),
            reference("chebyshev", &attrs, &dirs, &params)
        );
        let lp = LpRank::new(
            attrs.clone(),
            dirs.clone(),
            weights.clone(),
            ideal.clone(),
            p,
        );
        let params: Vec<f64> = std::iter::once(p).chain(params).collect();
        assert_eq!(lp.fingerprint(), reference("lp", &attrs, &dirs, &params));
        // Written into a buffer that already holds a prefix, each appends
        // the bytes it renders.
        let fns: [&dyn RankFn; 3] = [&linear, &chebyshev, &lp];
        for f in fns {
            let mut buf = String::from("prefix|");
            f.write_fingerprint(&mut buf);
            assert_eq!(buf.strip_prefix("prefix|"), Some(f.fingerprint().as_str()));
        }
        if m >= 2 {
            let ratio = RatioRank::minimize(attrs[0], attrs[1]);
            let dirs = [Direction::Asc, Direction::Desc];
            // The default fingerprint: label and coordinates, no parameters.
            let want = reference(&ratio.label(), &attrs[..2], &dirs, &[]);
            assert_eq!(Some(ratio.fingerprint().as_str()), want.strip_suffix('|'));
            let mut buf = String::new();
            ratio.write_fingerprint(&mut buf);
            assert_eq!(buf, ratio.fingerprint());
        }
    }
}
