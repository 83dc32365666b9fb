//! The knowledge plane's safety contract: a warm session is *invisible* in
//! its output. Whatever mix of response replay, drained-region synthesis
//! and result-stream replay answers a request, the emitted stream must be
//! byte-identical (tuple ids AND score bit patterns) to a cold session's,
//! and the ledgers must balance exactly:
//!
//! ```text
//! warm.queries_spent + warm.queries_saved == cold.queries_spent
//! warm.cost_units_spent + warm.cost_units_saved == cold.cost_units_spent
//! ```
//!
//! Seeded sweeps (no `proptest` in the offline container): each property
//! mixes `QRS_TEST_SEED` into its base seed, so CI proves the claims under
//! several seeds.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SimServer, SystemRank};
use query_reranking::service::{KnowledgePlane, RerankService, Session};
use query_reranking::types::{AttrId, CostModel, Dataset, Interval, Query};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const CASES: usize = 24;

fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One hidden database: same data + system ranking + k every time, so every
/// service built from it models the same site (the precondition for naming
/// them under one knowledge-plane source).
struct Site {
    data: Dataset,
    sys_seed: u64,
    k: usize,
    cost: Option<CostModel>,
}

impl Site {
    fn random(rng: &mut StdRng) -> Site {
        Site {
            data: uniform(
                rng.random_range(60..220usize),
                2,
                1,
                rng.random_range(1..1_000_000u64),
            ),
            sys_seed: rng.random_range(1..1000u64),
            k: rng.random_range(3..12usize),
            cost: None,
        }
    }

    fn service(&self, plane: Option<&Arc<KnowledgePlane>>) -> RerankService {
        let mut server = SimServer::new(
            self.data.clone(),
            SystemRank::pseudo_random(self.sys_seed),
            self.k,
        );
        if let Some(cost) = &self.cost {
            server = server.with_capabilities(Capabilities::none().with_cost_model(cost.clone()));
        }
        let svc = RerankService::new(Arc::new(server), self.data.len());
        match plane {
            Some(p) => svc.with_knowledge(Arc::clone(p), "site"),
            None => svc,
        }
    }
}

fn random_request(rng: &mut StdRng) -> (Query, Arc<dyn RankFn>) {
    let sel = if rng.random::<bool>() {
        Query::all()
    } else {
        let lo = 0.45 * rng.random::<f64>();
        Query::all().and_range(
            AttrId(0),
            Interval::closed(lo, lo + 0.25 + 0.5 * rng.random::<f64>()),
        )
    };
    let rank: Arc<dyn RankFn> = if rng.random::<bool>() {
        Arc::new(LinearRank::asc(vec![(
            AttrId(0),
            1.0 + rng.random::<f64>(),
        )]))
    } else {
        Arc::new(LinearRank::asc(vec![
            (AttrId(0), 1.0 + rng.random::<f64>()),
            (AttrId(1), 0.5 + rng.random::<f64>()),
        ]))
    };
    (sel, rank)
}

/// Drain up to `h` tuples and print the stream at bit precision.
fn pull(session: &mut Session<'_>, h: usize) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    while out.len() < h {
        match session.next() {
            Ok(Some(hit)) => out.push((hit.tuple.id.0, hit.score.to_bits())),
            Ok(None) => break,
            Err(e) => panic!("unexpected session error: {e}"),
        }
    }
    out
}

#[test]
fn warm_streams_and_ledgers_match_cold_exactly() {
    let mut rng = StdRng::seed_from_u64(seeded(0x6B01));
    for case in 0..=CASES {
        let site = Site::random(&mut rng);
        let (mut sel, rank) = random_request(&mut rng);
        if case == CASES {
            // One more input: a sliver of the domain no tuple falls in, so
            // the sealed stream the second session replays is empty (and
            // the sealing run had to pay to learn that).
            sel = Query::all().and_range(AttrId(0), Interval::closed(0.123456789, 0.123456790));
        }
        let h = site.data.len() + 1; // to exhaustion

        // Cold: no plane at all.
        let cold_svc = site.service(None);
        let mut cold = cold_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let cold_stream = pull(&mut cold, h);
        let cold_spent = (cold.queries_spent(), cold.cost_units_spent());

        // First knowledge session: pays like cold overall, with any
        // intra-session repeats moving from the paid to the saved ledger.
        let plane = Arc::new(KnowledgePlane::new());
        let warm1_svc = site.service(Some(&plane));
        let mut warm1 = warm1_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let warm1_stream = pull(&mut warm1, h);
        assert_eq!(
            warm1_stream, cold_stream,
            "case {case}: first knowledge stream diverged"
        );
        assert_eq!(
            (
                warm1.queries_spent() + warm1.queries_saved(),
                warm1.cost_units_spent() + warm1.cost_units_saved(),
            ),
            cold_spent,
            "case {case}: first knowledge session's ledgers do not balance"
        );

        // Second session, NEW service, same plane + source: the sealed
        // result stream replays end to end — zero server traffic, full
        // cold cost credited to the saved ledger.
        let warm2_svc = site.service(Some(&plane));
        let mut warm2 = warm2_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        // Pull exactly the sealed stream's length — the terminating `None`
        // is still owed. The credit lands with the last replayed tuple (a
        // caller that stops at `top(h)` never sees the `None`), or, for an
        // empty stream, with the first `None`.
        let mut warm2_stream = pull(&mut warm2, cold_stream.len());
        if cold_stream.is_empty() {
            assert!(cold_spent.0 > 0, "proving emptiness costs the sealing run");
            assert!(warm2.next().unwrap().is_none());
        }
        assert_eq!(
            (warm2.queries_saved(), warm2.cost_units_saved()),
            cold_spent,
            "case {case}: the credit must land with the last replayed tuple"
        );
        // ...and exactly once: the `None`s after it add nothing.
        warm2_stream.extend(pull(&mut warm2, h));
        assert!(warm2.next().unwrap().is_none());
        assert_eq!(
            warm2_stream, cold_stream,
            "case {case}: replayed stream diverged"
        );
        assert_eq!(
            warm2.queries_spent(),
            0,
            "case {case}: full replay must not pay"
        );
        assert_eq!(
            warm2_svc.queries_issued(),
            0,
            "case {case}: server was contacted"
        );
        assert_eq!(
            (warm2.queries_saved(), warm2.cost_units_saved()),
            cold_spent,
            "case {case}: full replay must credit the sealing run's whole cost"
        );

        // The saved ledger surfaces through SessionStats and ServiceStats.
        let stats = warm2.stats();
        assert_eq!(stats.queries_saved, warm2.queries_saved());
        assert_eq!(warm2_svc.stats().queries_saved, warm2.queries_saved());
    }
}

#[test]
fn partial_warm_resume_is_byte_identical_and_balanced() {
    let mut rng = StdRng::seed_from_u64(seeded(0x6B02));
    for case in 0..CASES {
        let site = Site::random(&mut rng);
        let (sel, rank) = random_request(&mut rng);
        let h_total = site.data.len() + 1;
        let h_first = rng.random_range(1..8usize);

        // Cold reference pulls everything.
        let cold_svc = site.service(None);
        let mut cold = cold_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let cold_stream = pull(&mut cold, h_total);
        let cold_spent = (cold.queries_spent(), cold.cost_units_spent());

        // Seeding session abandons after a short prefix.
        let plane = Arc::new(KnowledgePlane::new());
        let seed_svc = site.service(Some(&plane));
        let mut seeder = seed_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let prefix = pull(&mut seeder, h_first);
        assert_eq!(
            prefix,
            cold_stream[..prefix.len()],
            "case {case}: prefix diverged"
        );
        drop(seeder);

        // Warm session pulls past the cached prefix: replay, then the
        // strategy resumes against the response cache.
        let warm_svc = site.service(Some(&plane));
        let mut warm = warm_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let warm_stream = pull(&mut warm, h_total);
        assert_eq!(
            warm_stream, cold_stream,
            "case {case}: resumed stream diverged"
        );
        assert_eq!(
            (
                warm.queries_spent() + warm.queries_saved(),
                warm.cost_units_spent() + warm.cost_units_saved(),
            ),
            cold_spent,
            "case {case}: resumed session's ledgers do not balance"
        );
        assert!(
            warm.queries_saved() > 0 || cold_spent.0 == 0,
            "case {case}: resumption should reuse the seeder's paid requests"
        );
    }
}

#[test]
fn invalidation_restores_cold_cost_and_exactness() {
    let mut rng = StdRng::seed_from_u64(seeded(0x6B03));
    for case in 0..8 {
        let site = Site::random(&mut rng);
        let (sel, rank) = random_request(&mut rng);
        let h = site.data.len() + 1;

        let plane = Arc::new(KnowledgePlane::new());
        let svc_a = site.service(Some(&plane));
        let mut a = svc_a
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let stream_a = pull(&mut a, h);
        let cold_cost = a.queries_spent() + a.queries_saved();
        drop(a);

        // The site "changed" (it didn't — data is identical, so exactness
        // is still checkable): one epoch bump, all knowledge stale.
        plane.invalidate("site");

        let svc_b = site.service(Some(&plane));
        let mut b = svc_b
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let stream_b = pull(&mut b, h);
        assert_eq!(
            stream_b, stream_a,
            "case {case}: post-invalidation stream diverged"
        );
        assert_eq!(
            b.queries_saved(),
            0,
            "case {case}: stale knowledge must not be used"
        );
        assert_eq!(
            b.queries_spent(),
            cold_cost,
            "case {case}: re-paying must cost cold price"
        );
        drop(b);

        // The same holds for the service that learned it all: its own
        // history and completeness proofs are part of what went stale.
        plane.invalidate("site");
        let mut a = svc_a
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        assert_eq!(
            pull(&mut a, h),
            stream_a,
            "case {case}: stream diverged on the invalidated service"
        );
        assert_eq!(a.queries_saved(), 0, "case {case}: stale knowledge used");
        assert_eq!(
            a.queries_spent(),
            cold_cost,
            "case {case}: the invalidated service kept its stale history"
        );
    }
}

#[test]
fn opted_out_sessions_pay_cold_and_learn_nothing() {
    let mut rng = StdRng::seed_from_u64(seeded(0x6B04));
    let site = Site::random(&mut rng);
    let (sel, rank) = random_request(&mut rng);
    let h = site.data.len() + 1;

    let cold_svc = site.service(None);
    let mut cold = cold_svc
        .session(sel.clone(), Arc::clone(&rank))
        .open()
        .unwrap();
    let cold_stream = pull(&mut cold, h);
    let cold_spent = cold.queries_spent();

    let plane = Arc::new(KnowledgePlane::new());
    let svc = site.service(Some(&plane));
    let mut out1 = svc
        .session(sel.clone(), Arc::clone(&rank))
        .knowledge(false)
        .open()
        .unwrap();
    assert_eq!(pull(&mut out1, h), cold_stream);
    assert_eq!(out1.queries_spent(), cold_spent);
    assert_eq!(out1.queries_saved(), 0);
    drop(out1);
    // Nothing was recorded: an opted-in session on a FRESH service sharing
    // the plane still pays cold. (A fresh service, not `svc`, because the
    // per-service `SharedState` would amortize in-process regardless of
    // the plane — that is the older §3 mechanism, not the one under test.)
    let svc2 = site.service(Some(&plane));
    let mut out2 = svc2.session(sel, rank).open().unwrap();
    assert_eq!(pull(&mut out2, h), cold_stream);
    assert_eq!(out2.queries_saved(), 0);
    assert_eq!(out2.queries_spent(), cold_spent);
}

#[test]
fn saved_cost_units_honor_a_metered_cost_model() {
    let mut rng = StdRng::seed_from_u64(seeded(0x6B05));
    for case in 0..8 {
        let mut site = Site::random(&mut rng);
        site.cost = Some(
            CostModel::flat()
                .with_base(2)
                .with_range_cost(3)
                .with_paged_cost(1),
        );
        let (sel, rank) = random_request(&mut rng);
        let h = site.data.len() + 1;

        let cold_svc = site.service(None);
        let mut cold = cold_svc
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        let cold_stream = pull(&mut cold, h);
        let cold_units = cold.cost_units_spent();

        let plane = Arc::new(KnowledgePlane::new());
        let svc_a = site.service(Some(&plane));
        let mut a = svc_a
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        pull(&mut a, h);
        drop(a);
        let svc_b = site.service(Some(&plane));
        let mut b = svc_b
            .session(sel.clone(), Arc::clone(&rank))
            .open()
            .unwrap();
        assert_eq!(pull(&mut b, h), cold_stream, "case {case}");
        assert_eq!(b.cost_units_spent(), 0, "case {case}");
        assert_eq!(
            b.cost_units_saved(),
            cold_units,
            "case {case}: metered savings must equal the metered cold bill"
        );
    }
}
