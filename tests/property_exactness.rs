//! Randomized exactness: random datasets × random monotonic ranking
//! functions × random filters — every algorithm must agree with brute force.
//! This is the paper's core claim ("the output query answer must precisely
//! follow the user-specified ranking function") under fuzzing.
//!
//! Written against the local `rand` stand-in (no registry access for
//! `proptest`): each property runs a deterministic seeded sweep. The fault
//! properties derive their schedules from `QRS_TEST_SEED` when set, so CI
//! can prove seed-determinism by running the sweep under several seeds.

use query_reranking::core::md::ta::{SortedAccess, TaCursor};
use query_reranking::core::{
    MdCursor, MdOptions, OneDCursor, OneDSpec, OneDStrategy, RerankParams, SharedState,
};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, FaultyServer, SearchInterface, SimServer, SystemRank};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{
    AttrId, CatAttr, Dataset, Direction, Interval, OrdinalAttr, Query, RerankError, Schema, Tuple,
    TupleId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const CASES: usize = 48;

/// Mix the CI-provided seed (if any) into a property's base seed.
fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A small random dataset: 5–60 tuples over m ordinal attrs, values on a
/// coarse 0..=9 grid (ties guaranteed), one 3-valued categorical attribute.
fn dataset(rng: &mut StdRng, m: usize) -> Dataset {
    let n = rng.random_range(5..60usize);
    let schema = Schema::new(
        (0..m)
            .map(|i| OrdinalAttr::new(format!("a{i}"), 0.0, 9.0))
            .collect(),
        vec![CatAttr::new("c", 3)],
    );
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(
                TupleId(i as u32),
                (0..m)
                    .map(|_| f64::from(rng.random_range(0..10u32)))
                    .collect(),
                vec![rng.random_range(0..3u32)],
            )
        })
        .collect();
    Dataset::new(schema, tuples).unwrap()
}

fn rank(rng: &mut StdRng, m: usize) -> LinearRank {
    LinearRank::new(
        (0..m)
            .map(|i| {
                (
                    AttrId(i),
                    if rng.random::<bool>() {
                        Direction::Desc
                    } else {
                        Direction::Asc
                    },
                    0.1 + 1.9 * rng.random::<f64>(),
                )
            })
            .collect(),
    )
}

fn sel(rng: &mut StdRng) -> Query {
    // Optionally constrain attr 0 to a sub-range.
    if rng.random::<bool>() {
        Query::all()
    } else {
        let lo = 5.0 * rng.random::<f64>();
        let hi = 5.0 + 4.0 * rng.random::<f64>();
        Query::all().and_range(AttrId(0), Interval::closed(lo, hi))
    }
}

/// Tuples matching `sel`, with groups identical on *every* ordinal and
/// categorical attribute clamped to `k` members: such clones are provably
/// indistinguishable through a top-k interface (the crawler reports the
/// truncation), so only `k` of each group is reachable by any algorithm.
fn reachable(data: &Dataset, sel: &Query, k: usize) -> Vec<Arc<Tuple>> {
    use std::collections::HashMap;
    let mut groups: HashMap<(Vec<u64>, Vec<u32>), usize> = HashMap::new();
    let mut out = Vec::new();
    for t in data.tuples() {
        if !sel.matches(t) {
            continue;
        }
        let key = (
            t.ords().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            t.cats().to_vec(),
        );
        let seen = groups.entry(key).or_default();
        if *seen < k {
            *seen += 1;
            out.push(Arc::clone(t));
        }
    }
    out
}

fn ground_truth(data: &Dataset, rank: &dyn RankFn, sel: &Query, k: usize) -> Vec<f64> {
    let mut v: Vec<f64> = reachable(data, sel, k)
        .iter()
        .map(|t| rank.score(t))
        .collect();
    v.sort_by(|a, b| cmp_f64(*a, *b));
    v
}

#[test]
fn one_d_streams_match_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for case in 0..CASES {
        let data = dataset(&mut rng, 2);
        let dir = if rng.random::<bool>() {
            Direction::Desc
        } else {
            Direction::Asc
        };
        let sel = sel(&mut rng);
        let k = rng.random_range(1..6usize);
        let sys_seed = rng.random_range(0..1000u64);
        let want: Vec<f64> = {
            let mut v: Vec<f64> = reachable(&data, &sel, k)
                .iter()
                .map(|t| dir.normalize(t.ord(AttrId(0))))
                .collect();
            v.sort_by(|a, b| cmp_f64(*a, *b));
            v
        };
        for strategy in OneDStrategy::ALL {
            let server = SimServer::new(data.clone(), SystemRank::pseudo_random(sys_seed), k);
            let mut st =
                SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
            let mut cur = OneDCursor::new(OneDSpec::new(AttrId(0), dir, sel.clone()), strategy);
            let mut got = Vec::new();
            while let Some(t) = cur.next(&server, &mut st).unwrap() {
                got.push(dir.normalize(t.ord(AttrId(0))));
                assert!(got.len() <= want.len() + 1, "stream longer than relation");
            }
            assert_eq!(got, want, "case {case}: {}", strategy.label());
        }
    }
}

#[test]
fn md_cursors_match_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for case in 0..CASES {
        let data = dataset(&mut rng, 2);
        let rank: Arc<dyn RankFn> = Arc::new(rank(&mut rng, 2));
        let sel = sel(&mut rng);
        let k = rng.random_range(1..6usize);
        let sys_seed = rng.random_range(0..1000u64);
        let want = ground_truth(&data, rank.as_ref(), &sel, k);
        for opts in [MdOptions::baseline(), MdOptions::rerank()] {
            let server = SimServer::new(data.clone(), SystemRank::pseudo_random(sys_seed), k);
            let mut st =
                SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
            let mut cur = MdCursor::new(Arc::clone(&rank), sel.clone(), opts, server.schema());
            let mut got = Vec::new();
            while let Some(t) = cur.next(&server, &mut st).unwrap() {
                got.push(rank.score(&t));
                assert!(got.len() <= want.len(), "stream longer than relation");
            }
            assert_eq!(got, want, "case {case}");
        }
    }
}

#[test]
fn ta_matches_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    for case in 0..CASES {
        let data = dataset(&mut rng, 3);
        let rank: Arc<dyn RankFn> = Arc::new(rank(&mut rng, 3));
        let k = rng.random_range(1..6usize);
        let sys_seed = rng.random_range(0..1000u64);
        let want = ground_truth(&data, rank.as_ref(), &Query::all(), k);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(sys_seed), k);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
        let mut ta = TaCursor::new(
            Arc::clone(&rank),
            Query::all(),
            SortedAccess::OneD,
            server.schema(),
            &Capabilities::none(),
        );
        let mut got = Vec::new();
        while let Some(t) = ta.next(&server, &mut st).unwrap() {
            got.push(rank.score(&t));
            assert!(got.len() <= want.len(), "stream longer than relation");
        }
        assert_eq!(got, want, "case {case}");
    }
}

/// Drive `step` to completion, resuming (never restarting) across injected
/// transient faults. Bounds total iterations so a retry bug surfaces as a
/// failed assertion instead of a hang.
fn drain_resuming<F>(mut step: F, cap: usize) -> Vec<f64>
where
    F: FnMut() -> Result<Option<f64>, RerankError>,
{
    let mut got = Vec::new();
    for _ in 0..cap {
        match step() {
            Ok(Some(score)) => got.push(score),
            Ok(None) => return got,
            Err(e) => assert!(
                e.is_transient(),
                "injected faults are all transient, got terminal {e}"
            ),
        }
    }
    panic!("stream did not finish within {cap} resumed steps");
}

#[test]
fn exactness_is_fault_oblivious_for_md_cursors() {
    // The paper's core claim must survive a flaky backend: top-k under
    // random transient faults (rate limits, outages, truncated pages)
    // equals top-k of the fault-free run, tuple for tuple.
    let mut rng = StdRng::seed_from_u64(seeded(0xFA_D2));
    for case in 0..CASES {
        let data = dataset(&mut rng, 2);
        let rank: Arc<dyn RankFn> = Arc::new(rank(&mut rng, 2));
        let sel = sel(&mut rng);
        let k = rng.random_range(1..6usize);
        let sys_seed = rng.random_range(0..1000u64);
        let fault_seed = rng.random_range(0..u64::MAX);
        let want = ground_truth(&data, rank.as_ref(), &sel, k);
        let server = Arc::new(SimServer::new(
            data.clone(),
            SystemRank::pseudo_random(sys_seed),
            k,
        )) as Arc<dyn SearchInterface>;
        let faulty = FaultyServer::new(server).with_random_faults(fault_seed, 0.12, 0.08, 0.06);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
        let mut cur = MdCursor::new(
            Arc::clone(&rank),
            sel.clone(),
            MdOptions::rerank(),
            faulty.schema(),
        );
        let got = drain_resuming(
            || Ok(cur.next(&faulty, &mut st)?.map(|t| rank.score(&t))),
            200_000,
        );
        assert_eq!(got, want, "case {case}: faults changed the answer");
    }
}

#[test]
fn exactness_is_fault_oblivious_for_one_d_cursors() {
    let mut rng = StdRng::seed_from_u64(seeded(0xFA_D1));
    for case in 0..CASES {
        let data = dataset(&mut rng, 2);
        let dir = if rng.random::<bool>() {
            Direction::Desc
        } else {
            Direction::Asc
        };
        let sel = sel(&mut rng);
        let k = rng.random_range(1..6usize);
        let sys_seed = rng.random_range(0..1000u64);
        let fault_seed = rng.random_range(0..u64::MAX);
        let want: Vec<f64> = {
            let mut v: Vec<f64> = reachable(&data, &sel, k)
                .iter()
                .map(|t| dir.normalize(t.ord(AttrId(0))))
                .collect();
            v.sort_by(|a, b| cmp_f64(*a, *b));
            v
        };
        let server = Arc::new(SimServer::new(
            data.clone(),
            SystemRank::pseudo_random(sys_seed),
            k,
        )) as Arc<dyn SearchInterface>;
        let faulty = FaultyServer::new(server).with_random_faults(fault_seed, 0.12, 0.08, 0.06);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
        let mut cur = OneDCursor::new(
            OneDSpec::new(AttrId(0), dir, sel.clone()),
            OneDStrategy::Rerank,
        );
        let got = drain_resuming(
            || {
                Ok(cur
                    .next(&faulty, &mut st)?
                    .map(|t| dir.normalize(t.ord(AttrId(0)))))
            },
            200_000,
        );
        assert_eq!(got, want, "case {case}: faults changed the answer");
    }
}

#[test]
fn md_3d_top1_matches_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    for case in 0..CASES {
        let data = dataset(&mut rng, 3);
        let rank: Arc<dyn RankFn> = Arc::new(rank(&mut rng, 3));
        let sys_seed = rng.random_range(0..1000u64);
        let want = ground_truth(&data, rank.as_ref(), &Query::all(), 4);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(sys_seed), 4);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), 4));
        let mut cur = MdCursor::new(
            Arc::clone(&rank),
            Query::all(),
            MdOptions::rerank(),
            server.schema(),
        );
        let got = cur.next(&server, &mut st).unwrap().map(|t| rank.score(&t));
        assert_eq!(got, want.first().copied(), "case {case}");
    }
}
