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
use crate::schema::{AttrId, CatId, OrdinalAttr, Schema};
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

/// The declared `[min, max]` domains an index's signatures quantize over:
/// the unit one the benchmark declares, wider, narrower and tiny ones, and
/// the degenerate point, reversed and unbounded ones.
const DOMAINS: [(f64, f64); 7] = [
    (0.0, 1.0),
    (-2.0, 3.0),
    (0.1, 0.7),
    (-1e-3, 1e-3),
    (0.5, 0.5),
    (1.0, 0.0),
    (f64::NEG_INFINITY, f64::INFINITY),
];

/// A schema declaring `domains`, one ordinal attribute each.
fn schema(domains: &[(f64, f64)]) -> Schema {
    let attr = |(a, &(min, max))| OrdinalAttr::new(format!("a{a}"), min, max);
    Schema::new(domains.iter().enumerate().map(attr).collect(), vec![])
}

/// A value on one of the 128 bucket edges of `[min, max]` or one ulp
/// either side of it; one in four (and every edge a degenerate domain
/// makes NaN) is a [`grid`] value instead — outside most domains, a zero
/// or an infinity.
fn edge(rng: &mut StdRng, (min, max): (f64, f64)) -> f64 {
    let i = f64::from(rng.random_range(0..129u32));
    let e = min + (max - min) * i / 128.0;
    if e.is_nan() || rng.random_range(0..4u32) == 0 {
        return grid(rng);
    }
    match rng.random_range(0..3u32) {
        0 => e.next_down(),
        1 => e,
        _ => e.next_up(),
    }
}

/// Unbounded / open / closed sides in any combination: reversed and
/// degenerate-open pairs give the empty intervals, equal closed ones points.
fn grid_interval(rng: &mut StdRng, grid: impl Fn(&mut StdRng) -> f64) -> Interval {
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

/// A box over up to `dims` attributes, attribute `a`'s endpoints drawn by
/// `value(rng, a)`; each is left out with chance `skip`/8, and one in four
/// boxes carries a categorical predicate.
fn grid_box(
    rng: &mut StdRng,
    value: &impl Fn(&mut StdRng, usize) -> f64,
    dims: usize,
    skip: u32,
) -> Query {
    let mut q = Query::all();
    for a in 0..dims {
        if rng.random_range(0..8u32) >= skip {
            q.add_range(AttrId(a), grid_interval(rng, |rng| value(rng, a)));
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

/// `RegionIndex` ≡ the linear scan, and `covering` names a region the scan
/// finds, after every step of random insert / FIFO-evict / clear
/// schedules. Each schedule declares a domain per attribute from
/// [`DOMAINS`] (or fewer attributes than it uses) and draws endpoints on
/// and one ulp either side of that domain's bucket edges, or off the
/// domain; dims 5 and 6 reach past the signature word. `QRS_TEST_SEED`
/// picks the schedules, `QRS_FUZZ_ITERS` how many; a failure prints its
/// schedule.
#[test]
fn region_index_matches_the_linear_scan() {
    let seed = 0x4E61_0DE5 ^ env_u64("QRS_TEST_SEED", 0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (mut hits, mut misses) = (0u32, 0u32);
    for schedule in 0..env_u64("QRS_FUZZ_ITERS", 48) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(schedule));
        let dims = rng.random_range(1..7usize);
        let cap = [3, 20, 150, usize::MAX][rng.random_range(0..4usize)];
        let declared = match rng.random_range(0..4u32) {
            0 => rng.random_range(0..dims),
            _ => dims,
        };
        let domains: Vec<_> = (0..declared)
            .map(|_| DOMAINS[rng.random_range(0..DOMAINS.len())])
            .collect();
        let value = |rng: &mut StdRng, a: usize| match domains.get(a) {
            Some(&d) if rng.random_range(0..2u32) == 0 => edge(rng, d),
            _ => grid(rng),
        };
        let mut index = RegionIndex::new(cap, &schema(&domains));
        // The oracle: live regions oldest-first.
        let mut live: Vec<Query> = Vec::new();
        let mut log = vec![format!("dims {dims} cap {cap} domains {domains:?}")];
        for _ in 0..400 {
            if rng.random_range(0..100u32) == 0 {
                log.push("clear".into());
                index.clear();
                live.clear();
                continue;
            }
            let region = grid_box(&mut rng, &value, dims, 5);
            log.push(format!("insert {region}"));
            if live.len() == cap {
                live.remove(0);
            }
            index.insert(&region);
            live.push(region);
            assert_eq!(index.len(), live.len(), "{}", log.join("\n"));
            for _ in 0..4 {
                let q = grid_box(&mut rng, &value, dims + 1, 7);
                let want = live.iter().any(|r| q.is_subsumed_by(r));
                assert_eq!(index.covers(&q), want, "probe {q}\n{}", log.join("\n"));
                // `covering` names one of those regions, interval for interval.
                if let Some(found) = index.covering(&q) {
                    let same = |r: &Query| {
                        (0..dims + 1).all(|a| found.interval(AttrId(a)) == r.interval(AttrId(a)))
                    };
                    assert!(
                        live.iter().any(|r| q.is_subsumed_by(r) && same(r)),
                        "probe {q}: covering named no subsuming region\n{}",
                        log.join("\n")
                    );
                }
                *(if want { &mut hits } else { &mut misses }) += 1;
            }
        }
    }
    assert!(
        hits > 100 && misses > 100,
        "one-sided sweep: {hits} hits, {misses} misses"
    );
}

/// A value from sixteenths over `[-1/8, 9/8]`, with both zeros and,
/// rarely, both infinities: fine enough that the walk's regions spread
/// over the unit domain, coarse enough that they nest.
fn sixteenths(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..48u32) {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        2 => -0.0,
        k => f64::from((k % 24) as i32 - 5) / 16.0,
    }
}

/// A walk box over `dims` attributes, each left out with chance `skip`/8:
/// mostly ordered sixteenths, one side in six unbounded, one interval in
/// eight a point and one in sixteen reversed (empty); one box in eight
/// carries a categorical predicate.
fn walk_box(rng: &mut StdRng, dims: usize, skip: u32) -> Query {
    let mut q = Query::all();
    for a in 0..dims {
        if rng.random_range(0..8u32) < skip {
            continue;
        }
        let (x, y) = (sixteenths(rng), sixteenths(rng));
        let (mut lo, mut hi) = (x.min(y), x.max(y));
        let shape = rng.random_range(0..16u32);
        if shape == 0 {
            (lo, hi) = (hi, lo);
        }
        let mut side = |v: f64| match rng.random_range(0..12u32) {
            0..2 => Endpoint::Unbounded,
            2..5 => Endpoint::Open(v),
            _ => Endpoint::Closed(v),
        };
        let iv = match shape {
            1 | 2 => Interval::point(lo),
            _ => Interval {
                lo: side(lo),
                hi: side(hi),
            },
        };
        q.add_range(AttrId(a), iv);
    }
    if rng.random_range(0..8u32) == 0 {
        let c = rng.random_range(0..2usize);
        let codes = (0..4).filter(|_| rng.random_range(0..2u32) == 0).collect();
        q.add_cat(CatPredicate::one_of(CatId(c), codes));
    }
    q
}

/// The walk schedules: `(dims, cap, inserts, skip)`, `skip` the regions'
/// [`walk_box`] argument. Each builds a hierarchy (more than 64 regions,
/// several rebuilds); the capped ones reach their cap and evict.
const WALKS: [(usize, usize, usize, u32); 6] = [
    (1, 90, 400, 0),
    (2, usize::MAX, 700, 1),
    (3, 150, 800, 3),
    (4, usize::MAX, 900, 4),
    (5, 300, 900, 4),
    (6, 1000, 1400, 5),
];

/// Run [`WALKS`]: after every insert one probe, written as `miss` or as the
/// constrained intervals of the region `covering` returns (`all` when it
/// has none); one schedule step in 150 is a `clear`.
fn walk_corpus(schema: &Schema) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (n, &(dims, cap, inserts, skip)) in WALKS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x3A1C_0000 + n as u64);
        let mut index = RegionIndex::new(cap, schema);
        let cap = if cap == usize::MAX {
            "none".into()
        } else {
            cap.to_string()
        };
        writeln!(out, "walk {n}: dims {dims} cap {cap}").unwrap();
        for step in 0..inserts {
            if rng.random_range(0..150u32) == 0 {
                index.clear();
                writeln!(out, "{step} clear").unwrap();
                continue;
            }
            // A region constrains some attribute: one that constrains none
            // would cover most probes and hide which region the walk meets.
            let region = loop {
                let r = walk_box(&mut rng, dims, skip);
                if !r.ranges().is_empty() {
                    break r;
                }
            };
            index.insert(&region);
            let q = walk_box(&mut rng, dims + 1, 3);
            write!(out, "{step}").unwrap();
            match index.covering(&q) {
                None => out.push_str(" miss"),
                Some(r) => {
                    let ivs = (0..dims).map(AttrId).map(|a| (a, r.interval(a)));
                    let mut ivs = ivs.filter(|(_, iv)| !iv.is_all()).peekable();
                    if ivs.peek().is_none() {
                        out.push_str(" all");
                    }
                    for (a, iv) in ivs {
                        write!(out, " {a}{iv}").unwrap();
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The region `covering` returns decides `complete_below`'s bound `y`, so
/// the walk must name the same region as it did when
/// `tests/golden/region_walk.txt` was recorded (before signatures), probe
/// for probe, whatever domains the schema declares: the unit one, the
/// walk's own span, one that leaves the word's last two attributes
/// undeclared, and none.
#[test]
fn region_index_walk_matches_the_recorded_corpus() {
    const RECORDED: &str = include_str!("../../../tests/golden/region_walk.txt");
    let schemas = [
        schema(&[(0.0, 1.0); 6]),
        schema(&[(-0.125, 1.125); 6]),
        schema(&[(0.25, 0.5), (-1.0, 0.0)]),
        schema(&[]),
    ];
    for schema in &schemas {
        let fresh = walk_corpus(schema);
        if fresh != RECORDED {
            let at = fresh
                .lines()
                .zip(RECORDED.lines())
                .position(|(a, b)| a != b);
            panic!(
                "under {schema:?} the walk no longer returns the regions \
                 tests/golden/region_walk.txt records (first difference at line {at:?}); \
                 the document it returns now:\n-----BEGIN-----\n{fresh}-----END-----"
            );
        }
    }
    let probes = RECORDED
        .lines()
        .filter(|l| !l.starts_with("walk") && !l.ends_with("clear"));
    let (total, misses) = probes.fold((0, 0), |(t, m), l| {
        (t + 1, m + usize::from(l.ends_with(" miss")))
    });
    assert!(
        total / 10 < misses && misses < total * 9 / 10,
        "one-sided corpus: {misses} misses of {total} probes"
    );
}
