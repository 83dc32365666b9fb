//! Randomized property tests for the interval algebra — every reranking
//! algorithm's pruning correctness reduces to these identities — and for
//! [`RegionIndex`] against the linear `any(is_subsumed_by)` scan it replaces.
//!
//! Written against the local `rand` stand-in (no registry access for
//! `proptest`): each property is checked over a deterministic seeded sweep,
//! and failures print the offending case.

#![cfg(test)]

use crate::interval::{Endpoint, Interval};
use crate::predicate::CatPredicate;
use crate::query::Query;
use crate::region::RegionIndex;
use crate::schema::{AttrId, CatId};
use crate::tuple::{Tuple, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: usize = 512;

fn endpoint(rng: &mut StdRng) -> Endpoint {
    match rng.random_range(0..3u32) {
        0 => Endpoint::Unbounded,
        1 => Endpoint::Open(f64::from(rng.random_range(0..100u32) as i32 - 50) / 4.0),
        _ => Endpoint::Closed(f64::from(rng.random_range(0..100u32) as i32 - 50) / 4.0),
    }
}

fn interval(rng: &mut StdRng) -> Interval {
    Interval {
        lo: endpoint(rng),
        hi: endpoint(rng),
    }
}

fn value(rng: &mut StdRng) -> f64 {
    f64::from(rng.random_range(0..440u32) as i32 - 220) / 8.0
}

#[test]
fn intersection_is_conjunction() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let (a, b, v) = (interval(&mut rng), interval(&mut rng), value(&mut rng));
        let c = a.intersect(&b);
        assert_eq!(
            c.contains(v),
            a.contains(v) && b.contains(v),
            "{a} ∩ {b} = {c} disagrees at {v}"
        );
    }
}

#[test]
fn empty_intervals_contain_nothing() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..CASES {
        let (a, v) = (interval(&mut rng), value(&mut rng));
        if a.is_empty() {
            assert!(!a.contains(v), "empty {a} contains {v}");
        }
    }
}

#[test]
fn subset_implies_membership() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let (a, b, v) = (interval(&mut rng), interval(&mut rng), value(&mut rng));
        if a.is_subset_of(&b) && a.contains(v) {
            assert!(b.contains(v), "{a} ⊆ {b} but {v} only in the former");
        }
    }
}

#[test]
fn negate_mirrors_membership() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for _ in 0..CASES {
        let (a, v) = (interval(&mut rng), value(&mut rng));
        assert_eq!(a.negate().contains(-v), a.contains(v), "{a} at {v}");
    }
}

#[test]
fn negate_is_involution() {
    let mut rng = StdRng::seed_from_u64(0xE66);
    for _ in 0..CASES {
        let a = interval(&mut rng);
        assert_eq!(a.negate().negate(), a, "double negation changed {a}");
    }
}

#[test]
fn intersection_subset_of_operands() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..CASES {
        let (a, b) = (interval(&mut rng), interval(&mut rng));
        let c = a.intersect(&b);
        assert!(c.is_subset_of(&a), "{a} ∩ {b} = {c} ⊄ {a}");
        assert!(c.is_subset_of(&b), "{a} ∩ {b} = {c} ⊄ {b}");
    }
}

#[test]
fn query_subsumption_implies_match_implication() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..CASES {
        let mut inner = Query::all();
        let mut outer = Query::all();
        let mut coords = Vec::new();
        for i in 0..2 {
            let a = interval(&mut rng);
            let b = interval(&mut rng);
            // inner gets both predicates (so it is at least as strict).
            inner.add_range(AttrId(i), a);
            inner.add_range(AttrId(i), b);
            outer.add_range(AttrId(i), b);
            coords.push(value(&mut rng));
        }
        assert!(inner.is_subsumed_by(&outer));
        let t = Tuple::new(TupleId(0), coords, vec![]);
        if inner.matches(&t) {
            assert!(outer.matches(&t), "inner matches {t:?} but outer does not");
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// An endpoint value from a grid small enough that boxes nest often, with
/// both zeros and both infinities on it.
fn grid(rng: &mut StdRng) -> f64 {
    const GRID: [f64; 9] = [
        f64::NEG_INFINITY,
        -2.0,
        -0.5,
        -0.0,
        0.0,
        0.5,
        1.0,
        3.0,
        f64::INFINITY,
    ];
    GRID[rng.random_range(0..GRID.len())]
}

/// Unbounded / open / closed sides in any combination: reversed and
/// degenerate-open pairs give the empty intervals, equal closed ones points.
fn grid_interval(rng: &mut StdRng) -> Interval {
    let (a, b, shape) = (grid(rng), grid(rng), rng.random_range(0..8u32));
    let mut side = |v: f64| match rng.random_range(0..4u32) {
        0 => Endpoint::Unbounded,
        1 => Endpoint::Open(v),
        _ => Endpoint::Closed(v),
    };
    match shape {
        0 => Interval::point(a),
        1 => Interval {
            lo: side(a),
            hi: side(b),
        },
        _ => Interval {
            lo: side(a.min(b)),
            hi: side(a.max(b)),
        },
    }
}

/// A box over up to `dims` attributes; each is left out with chance
/// `skip`/8, and one in four boxes carries a categorical predicate.
fn grid_box(rng: &mut StdRng, dims: usize, skip: u32) -> Query {
    let mut q = Query::all();
    for a in 0..dims {
        if rng.random_range(0..8u32) >= skip {
            q.add_range(AttrId(a), grid_interval(rng));
        }
    }
    for c in 0..2 {
        if rng.random_range(0..8u32) == 0 {
            let codes = (0..4).filter(|_| rng.random_range(0..2u32) == 0).collect();
            q.add_cat(CatPredicate::one_of(CatId(c), codes));
        }
    }
    q
}

/// `RegionIndex` ≡ the linear scan, after every step of random insert /
/// FIFO-evict / clear schedules. `QRS_TEST_SEED` picks the schedules,
/// `QRS_FUZZ_ITERS` how many; a failure prints its schedule.
#[test]
fn region_index_matches_the_linear_scan() {
    let seed = 0x4E61_0DE5 ^ env_u64("QRS_TEST_SEED", 0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (mut hits, mut misses) = (0u32, 0u32);
    for schedule in 0..env_u64("QRS_FUZZ_ITERS", 48) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(schedule));
        let dims = rng.random_range(1..7usize);
        let cap = [3, 20, 150, usize::MAX][rng.random_range(0..4usize)];
        let mut index = RegionIndex::new(cap);
        // The oracle: live regions oldest-first.
        let mut live: Vec<Query> = Vec::new();
        let mut log = vec![format!("dims {dims} cap {cap}")];
        for _ in 0..400 {
            if rng.random_range(0..100u32) == 0 {
                log.push("clear".into());
                index.clear();
                live.clear();
                continue;
            }
            let region = grid_box(&mut rng, dims, 5);
            log.push(format!("insert {region}"));
            if live.len() == cap {
                live.remove(0);
            }
            index.insert(&region);
            live.push(region);
            assert_eq!(index.len(), live.len(), "{}", log.join("\n"));
            for _ in 0..4 {
                let q = grid_box(&mut rng, dims + 1, 7);
                let want = live.iter().any(|r| q.is_subsumed_by(r));
                assert_eq!(index.covers(&q), want, "probe {q}\n{}", log.join("\n"));
                *(if want { &mut hits } else { &mut misses }) += 1;
            }
        }
    }
    assert!(
        hits > 100 && misses > 100,
        "one-sided sweep: {hits} hits, {misses} misses"
    );
}
