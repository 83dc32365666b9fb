//! Deterministic fuzz harness for the planner/`StrategyIo` surface.
//!
//! A SplitMix64 stream (derived from `QRS_TEST_SEED`) generates random
//! site models — one `Capabilities` each: paging, order-by subsets,
//! page-depth walls, predicate arity caps, per-attribute filter support,
//! advertised *and* billed cost models — over data whose first attribute
//! is, one world in four, a point-only grid, crossed with random
//! selections, rankings and horizons. Two invariants must
//! hold for every generated world:
//!
//! 1. **Plan or refuse, typed.** `Planner::plan` (and `open()`) either
//!    produces a plan or fails with `RerankError::Unplannable` naming at
//!    least one missing capability — never a panic, never another error
//!    class.
//! 2. **Planned cells drive exactly.** Every session that opens streams
//!    the dense oracle's answer byte-for-byte to its horizon with no
//!    mid-stream error.
//!
//! The default 48 iterations keep the tier-1 run fast; CI's smoke job
//! deepens the sweep via `QRS_FUZZ_ITERS`.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::{Planner, RerankService};
use query_reranking::types::{
    AttrId, CostModel, Dataset, FilterSupport, Interval, OrdinalAttr, Query, RerankError, Schema,
    Tuple,
};
use std::sync::Arc;

fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn iters() -> u64 {
    std::env::var("QRS_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// SplitMix64 — the classic 64-bit mixer; std-only and deterministic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniform float in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One random world: a configured site, a selection, a ranking and the
/// session knobs to drive it with.
struct World {
    server: SimServer,
    sel: Query,
    rank: Arc<dyn RankFn>,
    horizon: usize,
    n: usize,
}

fn random_cost_model(rng: &mut Rng) -> CostModel {
    let mut m = CostModel::flat();
    if rng.chance(50) {
        m = m.with_range_cost(rng.range(1, 30));
    }
    if rng.chance(50) {
        m = m.with_ordered_cost(rng.range(1, 30));
    }
    if rng.chance(50) {
        m = m.with_paged_cost(rng.range(1, 30));
    }
    m
}

/// `data` with attribute 0 snapped to `levels` evenly spaced values on
/// `[0, 1]` and declared point-only over them: a dropdown the rankings can
/// still rank by.
fn on_a_grid(data: &Dataset, levels: usize) -> Dataset {
    let top = (levels - 1) as f64;
    let grid: Vec<f64> = (0..levels).map(|i| i as f64 / top).collect();
    let schema = data.schema();
    let schema = Schema::new(
        vec![
            OrdinalAttr::point_only("grade", grid.clone()),
            schema.ordinal(AttrId(1)).clone(),
        ],
        schema
            .cat_ids()
            .map(|c| schema.categorical(c).clone())
            .collect(),
    );
    let tuples = data
        .tuples()
        .iter()
        .map(|t| {
            let mut ords = t.ords().to_vec();
            ords[0] = grid[(ords[0] * top).round() as usize];
            Tuple::new(t.id, ords, t.cats().to_vec())
        })
        .collect();
    Dataset::new(schema, tuples).unwrap()
}

fn random_world(rng: &mut Rng, case: u64) -> World {
    let n = rng.range(30, 180) as usize;
    let k = rng.range(1, 7) as usize;
    let mut data = uniform(n, 2, 1, seeded(0xF022) ^ case);
    if rng.chance(25) {
        data = on_a_grid(&data, rng.range(2, 12) as usize);
    }
    let mut site = Capabilities::none().with_cost_model(random_cost_model(rng));
    let advertised = rng.chance(40).then(|| random_cost_model(rng));
    if rng.chance(60) {
        site = site.with_paging();
    }
    match rng.below(4) {
        0 => site = site.with_order_by(vec![AttrId(0)]),
        1 => site = site.with_order_by(vec![AttrId(1)]),
        2 => site = site.with_order_by(vec![AttrId(0), AttrId(1)]),
        _ => {}
    }
    if rng.chance(30) {
        site = site.with_max_pages(rng.range(1, 80) as usize);
    }
    if rng.chance(30) {
        site = site.with_max_predicates(rng.range(1, 4) as usize);
    }
    for a in [AttrId(0), AttrId(1)] {
        match rng.below(4) {
            0 => site = site.with_filter(a, FilterSupport::Point),
            1 => site = site.with_filter(a, FilterSupport::None),
            _ => {} // Range (the default) gets half the mass.
        }
    }
    let mut server =
        SimServer::new(data, SystemRank::pseudo_random(case ^ 0x55), k).with_capabilities(site);
    if let Some(cost) = advertised {
        server = server.with_advertised_cost(cost);
    }

    // A selection of 0–2 well-formed range predicates.
    let mut sel = Query::all();
    for a in [AttrId(0), AttrId(1)] {
        if rng.chance(35) {
            let lo = rng.unit() * 0.6;
            let hi = lo + 0.2 + rng.unit() * (1.0 - lo - 0.2);
            sel = sel.and_range(a, Interval::closed(lo, hi));
        }
    }

    let rank: Arc<dyn RankFn> = if rng.chance(40) {
        Arc::new(LinearRank::asc(vec![(AttrId(0), 0.5 + rng.unit())]))
    } else {
        Arc::new(LinearRank::asc(vec![
            (AttrId(0), 0.5 + rng.unit()),
            (AttrId(1), 0.5 + rng.unit()),
        ]))
    };

    World {
        server,
        sel,
        rank,
        horizon: rng.range(1, 25) as usize,
        n,
    }
}

/// Invariant 1 on the pure planning surface, plus plan well-formedness:
/// candidates are ranked by predicted cost, `candidates[0]` is the chosen
/// algorithm, and an `Unplannable` names at least one capability.
#[test]
fn plan_is_total_over_random_site_models() {
    let mut rng = Rng(seeded(0xF0A1));
    for case in 0..iters() {
        let w = random_world(&mut rng, case);
        let planner = Planner::new(
            w.server.capabilities(),
            Arc::clone(w.server.schema()),
            w.server.k(),
            w.n,
        )
        .with_horizon(w.horizon);
        match planner.plan(&w.sel, w.rank.as_ref()) {
            Ok(plan) => {
                assert!(
                    !plan.candidates.is_empty(),
                    "case {case}: a plan must carry its feasible ranking"
                );
                assert_eq!(
                    format!("{:?}", plan.candidates[0].algorithm),
                    format!("{:?}", plan.algorithm),
                    "case {case}: candidates[0] must be the chosen algorithm"
                );
                assert!(
                    plan.candidates
                        .windows(2)
                        .all(|p| p[0].estimate.cost_units <= p[1].estimate.cost_units),
                    "case {case}: candidates must rank cheapest-first"
                );
                assert!(!plan.rationale.is_empty());
            }
            Err(RerankError::Unplannable { missing, reason }) => {
                assert!(
                    !missing.is_empty(),
                    "case {case}: refusal must name capabilities"
                );
                assert!(!reason.is_empty());
            }
            Err(other) => panic!("case {case}: plan may only fail Unplannable, got {other}"),
        }
    }
}

/// Invariant 2 end to end: every session that opens over a random world
/// drives its horizon through `StrategyIo` with no error and emits the
/// dense oracle's stream byte-for-byte.
#[test]
fn planned_sessions_drive_exactly_over_random_worlds() {
    let mut rng = Rng(seeded(0xF0B2));
    let (mut planned, mut refused) = (0u64, 0u64);
    for case in 0..iters() {
        let w = random_world(&mut rng, case);
        let data = w.server.dataset();
        let server = Arc::new(w.server);
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, w.n);
        let builder = svc
            .session(w.sel.clone(), Arc::clone(&w.rank))
            .horizon(w.horizon);
        let mut s = match builder.open() {
            Ok(s) => s,
            Err(RerankError::Unplannable { missing, .. }) => {
                assert!(!missing.is_empty(), "case {case}: unnamed refusal");
                refused += 1;
                continue;
            }
            Err(other) => panic!("case {case}: open may only fail Unplannable, got {other}"),
        };
        let rank = Arc::clone(&w.rank);
        let want: Vec<(u32, u64)> = data
            .rank_by(&w.sel, move |t| rank.score(t))
            .iter()
            .take(w.horizon)
            .map(|t| (t.id.0, w.rank.score(t).to_bits()))
            .collect();
        let mut got = Vec::new();
        loop {
            match s.next() {
                Ok(Some(hit)) => {
                    got.push((hit.tuple.id.0, hit.score.to_bits()));
                    if got.len() == w.horizon {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => panic!("case {case}: planned session failed mid-stream: {e}"),
            }
        }
        assert_eq!(got, want, "case {case}: stream diverged from the oracle");
        // The session's attribution must reconcile with the backend.
        assert_eq!(s.queries_spent(), server.queries_issued());
        assert_eq!(s.cost_units_spent(), server.cost_units_issued());
        planned += 1;
    }
    assert!(planned > 0, "some world must plan");
    // Not asserted > 0: whether any random world refuses is seed-dependent;
    // the counter exists to keep the coverage honest when debugging a
    // shrunk case.
    let _ = refused;
}
