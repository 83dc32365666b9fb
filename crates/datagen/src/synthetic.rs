//! Parametric synthetic datasets for ablations and property tests.
//!
//! These isolate the phenomena the paper's analysis talks about:
//!
//! * [`uniform`] — the friendly case where 1D-BINARY costs `O(log(|R(q)|/k))`,
//! * [`clustered`] — Gaussian clusters producing *dense regions* (§3.2),
//!   where bisection narrows deepest,
//! * [`correlated`] — tunable pairwise correlation, the knob behind the
//!   SR1-vs-SR2 and Yahoo!-Autos effects,
//! * [`discrete_grid`] — coarse domains with heavy ties, stressing the §5
//!   general-positioning post-processing.

use crate::dist::{std_normal, truncated_normal};
use qrs_types::{CatAttr, Dataset, OrdinalAttr, Schema, Tuple, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn plain_schema(m: usize, cats: usize) -> Schema {
    Schema::new(
        (0..m)
            .map(|i| OrdinalAttr::new(format!("a{i}"), 0.0, 1.0))
            .collect(),
        (0..cats)
            .map(|i| CatAttr::new(format!("c{i}"), 4))
            .collect(),
    )
}

/// `n` tuples uniform on `[0,1]^m`, with `cats` 4-valued filter attributes.
pub fn uniform(n: usize, m: usize, cats: usize, seed: u64) -> Dataset {
    let schema = plain_schema(m, cats);
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(
                TupleId(i as u32),
                (0..m).map(|_| rng.random::<f64>()).collect(),
                (0..cats).map(|_| rng.random_range(0..4)).collect(),
            )
        })
        .collect();
    Dataset::new_unchecked(schema, tuples)
}

/// `n` tuples drawn from `clusters` Gaussian blobs on `[0,1]^m` (σ =
/// `spread`), plus 10% uniform background. Small `spread` ⇒ sharp dense
/// regions.
pub fn clustered(n: usize, m: usize, clusters: usize, spread: f64, seed: u64) -> Dataset {
    assert!(clusters >= 1);
    let schema = plain_schema(m, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..m).map(|_| 0.1 + 0.8 * rng.random::<f64>()).collect())
        .collect();
    let tuples = (0..n)
        .map(|i| {
            let ord: Vec<f64> = if rng.random::<f64>() < 0.1 {
                (0..m).map(|_| rng.random::<f64>()).collect()
            } else {
                let c = &centers[rng.random_range(0..clusters)];
                c.iter()
                    .map(|&mu| truncated_normal(&mut rng, mu, spread, 0.0, 1.0))
                    .collect()
            };
            Tuple::new(TupleId(i as u32), ord, vec![rng.random_range(0..4)])
        })
        .collect();
    Dataset::new_unchecked(schema, tuples)
}

/// `n` 2D tuples with Pearson correlation ≈ `rho` (negative for the
/// anti-correlated regime of Fig. 14/17), mapped onto `[0,1]²`.
pub fn correlated(n: usize, rho: f64, seed: u64) -> Dataset {
    assert!((-1.0..=1.0).contains(&rho));
    let schema = plain_schema(2, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples = (0..n)
        .map(|i| {
            let z1 = std_normal(&mut rng);
            let z2 = std_normal(&mut rng);
            let x = z1;
            let y = rho * z1 + (1.0 - rho * rho).sqrt() * z2;
            // Squash to [0,1] via the logistic of the standardized values.
            let sq = |v: f64| 1.0 / (1.0 + (-v).exp());
            Tuple::new(
                TupleId(i as u32),
                vec![sq(x), sq(y)],
                vec![rng.random_range(0..4)],
            )
        })
        .collect();
    Dataset::new_unchecked(schema, tuples)
}

/// `n` tuples on an integer grid `{0, 1, …, levels-1}^m` (stored as f64) —
/// maximal ties; exercises slab handling and exact-duplicate groups.
pub fn discrete_grid(n: usize, m: usize, levels: u32, seed: u64) -> Dataset {
    assert!(levels >= 2);
    let schema = Schema::new(
        (0..m)
            .map(|i| OrdinalAttr::new(format!("g{i}"), 0.0, f64::from(levels - 1)))
            .collect(),
        vec![CatAttr::new("c0", 4)],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(
                TupleId(i as u32),
                (0..m)
                    .map(|_| f64::from(rng.random_range(0..levels)))
                    .collect(),
                vec![rng.random_range(0..4)],
            )
        })
        .collect();
    Dataset::new_unchecked(schema, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::AttrId;

    #[test]
    fn uniform_covers_space() {
        let d = uniform(2000, 2, 1, 3);
        assert_eq!(d.len(), 2000);
        let vals = d.tuples().iter().map(|t| t.ord(AttrId(0)));
        let (lo, hi) = vals.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
        assert!(lo < 0.05 && hi > 0.95);
    }

    #[test]
    fn clustered_has_dense_regions() {
        let d = clustered(4000, 1, 2, 0.01, 4);
        // Some narrow window should hold far more than the uniform share.
        let mut vals: Vec<f64> = d.tuples().iter().map(|t| t.ord(AttrId(0))).collect();
        vals.sort_by(f64::total_cmp);
        let window = 0.02;
        let mut max_in_window = 0usize;
        let mut j = 0;
        for i in 0..vals.len() {
            while vals[i] - vals[j] > window {
                j += 1;
            }
            max_in_window = max_in_window.max(i - j + 1);
        }
        // Uniform share of a 2% window would be ~80 tuples.
        assert!(max_in_window > 800, "max_in_window = {max_in_window}");
    }

    #[test]
    fn correlated_hits_target_sign() {
        for rho in [-0.9, 0.9] {
            let d = correlated(4000, rho, 5);
            let xs: Vec<f64> = d.tuples().iter().map(|t| t.ord(AttrId(0))).collect();
            let ys: Vec<f64> = d.tuples().iter().map(|t| t.ord(AttrId(1))).collect();
            let n = xs.len() as f64;
            let mx = xs.iter().sum::<f64>() / n;
            let my = ys.iter().sum::<f64>() / n;
            let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
            let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
            let r = cov / (vx.sqrt() * vy.sqrt());
            assert!(
                r.signum() == rho.signum() && r.abs() > 0.6,
                "rho {rho} r {r}"
            );
        }
    }

    #[test]
    fn grid_has_many_ties() {
        let d = discrete_grid(1000, 2, 4, 6);
        let mut distinct = std::collections::BTreeSet::new();
        for t in d.tuples() {
            distinct.insert((t.ord(AttrId(0)).to_bits(), t.ord(AttrId(1)).to_bits()));
        }
        assert!(distinct.len() <= 16);
    }
}
