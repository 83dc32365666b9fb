//! The knowledge plane under fire: many concurrent sessions with
//! overlapping selections, across services sharing one plane, with epoch
//! bumps landing mid-flight — every stream must stay byte-identical to a
//! cold single-threaded reference. Invalidation may cost extra queries;
//! it must never cost correctness.
//!
//! Seeds honor `QRS_TEST_SEED` and the batch test drives `qrs-exec` pools
//! via `common::exec_from_env`, so CI's seed × `QRS_EXEC_THREADS` matrix
//! sweeps both the schedule and the workload.

mod common;

use common::exec_from_env;
use query_reranking::datagen::synthetic::{discrete_grid, uniform};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::batch::BatchRequest;
use query_reranking::service::{Algorithm, FederatedSession, KnowledgePlane, RerankService};
use query_reranking::types::{
    AttrId, Dataset, Interval, MutationLog, Query, QueryResponse, Schema, ServerError, TupleId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn site_data(seed: u64) -> Dataset {
    uniform(240, 2, 1, seed)
}

fn service(data: &Dataset, plane: Option<&Arc<KnowledgePlane>>) -> RerankService {
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(17), 6);
    let svc = RerankService::new(Arc::new(server), data.len());
    match plane {
        Some(p) => svc.with_knowledge(Arc::clone(p), "site"),
        None => svc,
    }
}

/// A pool of overlapping requests — nested/intersecting ranges so sessions
/// constantly reuse each other's knowledge.
fn request_pool() -> Vec<(Query, Arc<dyn RankFn>)> {
    let r1: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.3)]));
    let r2: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7)]));
    let band = |lo: f64, hi: f64| Query::all().and_range(AttrId(0), Interval::closed(lo, hi));
    vec![
        (Query::all(), Arc::clone(&r1)),
        (Query::all(), Arc::clone(&r2)),
        (band(0.0, 0.5), Arc::clone(&r1)),
        (band(0.1, 0.4), Arc::clone(&r1)), // nested in the previous
        (band(0.2, 0.7), Arc::clone(&r2)),
        (band(0.3, 0.6), Arc::clone(&r2)), // nested in the previous
    ]
}

/// Cold single-threaded ground truth for every pool request.
fn references(data: &Dataset, pool: &[(Query, Arc<dyn RankFn>)]) -> Vec<Vec<(u32, u64)>> {
    pool.iter()
        .map(|(sel, rank)| {
            let svc = service(data, None);
            let mut s = svc.session(sel.clone(), Arc::clone(rank)).open().unwrap();
            let mut out = Vec::new();
            while let Ok(Some(hit)) = s.next() {
                out.push((hit.tuple.id.0, hit.score.to_bits()));
            }
            out
        })
        .collect()
}

#[test]
fn concurrent_overlapping_sessions_with_epoch_bumps_stay_exact() {
    let data = site_data(seeded(0x9A01) | 1);
    let pool = request_pool();
    let refs = references(&data, &pool);

    let plane = Arc::new(KnowledgePlane::new());
    // Two tenants (separate services, separate SharedStates) publishing to
    // one plane under one source name.
    let tenants = [
        Arc::new(service(&data, Some(&plane))),
        Arc::new(service(&data, Some(&plane))),
    ];
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Chaos: epoch bumps landing while sessions are mid-stream.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                plane.invalidate("site");
                std::thread::yield_now();
            }
        });
        let mut workers = Vec::new();
        for t in 0..8u64 {
            let pool = &pool;
            let refs = &refs;
            let tenants = &tenants;
            workers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seeded(0x9A02 ^ t));
                for _ in 0..6 {
                    let i = rng.random_range(0..pool.len());
                    let (sel, rank) = &pool[i];
                    let svc = &tenants[rng.random_range(0..tenants.len())];
                    let h = rng.random_range(1..=refs[i].len().max(1));
                    let mut s = svc.session(sel.clone(), Arc::clone(rank)).open().unwrap();
                    let mut got = Vec::with_capacity(h);
                    while got.len() < h {
                        match s.next() {
                            Ok(Some(hit)) => got.push((hit.tuple.id.0, hit.score.to_bits())),
                            Ok(None) => break,
                            Err(e) => panic!("session error under stress: {e}"),
                        }
                    }
                    assert_eq!(
                        got,
                        refs[i][..got.len().min(refs[i].len())],
                        "request {i}: stream diverged under concurrency + invalidation"
                    );
                    assert_eq!(got.len(), h.min(refs[i].len()), "request {i}: short stream");
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Sanity on the shared structures after the storm.
    let stats = plane.stats();
    assert_eq!(stats.sources, 1, "one source name ⇒ one shard");
    for svc in &tenants {
        let snap = svc.stats();
        assert!(snap.queries_spent + snap.queries_saved > 0);
    }
}

#[test]
fn serve_batch_over_a_warm_plane_replays_for_free() {
    let data = site_data(seeded(0x9A03) | 1);
    let pool = request_pool();
    let refs = references(&data, &pool);

    let plane = Arc::new(KnowledgePlane::new());
    let svc = service(&data, Some(&plane));
    let exec = exec_from_env();
    let reqs = |top_full: bool| -> Vec<BatchRequest> {
        pool.iter()
            .enumerate()
            .map(|(i, (sel, rank))| {
                let top = if top_full {
                    refs[i].len() + 1
                } else {
                    refs[i].len()
                };
                BatchRequest::new(sel.clone(), Arc::clone(rank), top.max(1))
            })
            .collect()
    };

    // Batch 1 (cold plane): exact streams, concurrent recording.
    for (i, o) in svc.serve_batch(&exec, reqs(true)).into_iter().enumerate() {
        assert!(o.is_ok(), "batch 1 request {i}: {:?}", o.error);
        let got: Vec<_> = o
            .hits
            .iter()
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect();
        assert_eq!(got, refs[i], "batch 1 request {i}: stream diverged");
    }
    // Batch 2 on a FRESH service, same plane: every stream was sealed by
    // batch 1, so the whole batch replays without one server query.
    let svc2 = service(&data, Some(&plane));
    let mut saved_total = 0;
    for (i, o) in svc2.serve_batch(&exec, reqs(true)).into_iter().enumerate() {
        assert!(o.is_ok(), "batch 2 request {i}: {:?}", o.error);
        let got: Vec<_> = o
            .hits
            .iter()
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect();
        assert_eq!(got, refs[i], "batch 2 request {i}: replay diverged");
        assert_eq!(o.stats.queries_spent, 0, "batch 2 request {i}: replay paid");
        saved_total += o.stats.queries_saved;
    }
    assert_eq!(svc2.queries_issued(), 0, "warm batch contacted the server");
    // Per-request credits can legitimately be zero (a batch-1 session whose
    // whole marginal cost was amortized by its siblings' SharedState seals
    // a zero ledger), but the batch as a whole must show real savings.
    assert!(saved_total > 0, "warm batch credited nothing");
}

#[test]
fn federation_shares_one_plane_across_sources() {
    // Two dealers, one plane (one shard per source name). A second
    // federation over fresh services replays both sources' streams for
    // free; invalidating ONE dealer re-bills only that dealer.
    let data_a = site_data(seeded(0x9A05) | 1);
    let data_b = site_data(seeded(0x9A06) | 1);
    let plane = Arc::new(KnowledgePlane::new());
    let build = |plane: &Arc<KnowledgePlane>| {
        [
            service(&data_a, None).with_knowledge(Arc::clone(plane), "dealer-a"),
            service(&data_b, None).with_knowledge(Arc::clone(plane), "dealer-b"),
        ]
    };
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.9)]));
    let run = |svcs: &[RerankService; 2]| {
        let refs: Vec<&RerankService> = svcs.iter().collect();
        let mut fed =
            FederatedSession::open(&refs, Query::all(), Arc::clone(&rank), Algorithm::Auto)
                .unwrap();
        // To exhaustion: sources seal their result streams, so the next
        // federation over this plane replays them credit-bearing.
        let (hits, err) = fed.top(data_a.len() + data_b.len() + 1);
        assert!(err.is_none(), "{err:?}");
        let stream: Vec<_> = hits
            .iter()
            .map(|h| (h.source, h.hit.tuple.id.0, h.hit.score.to_bits()))
            .collect();
        let stats = fed.session_stats();
        (stream, stats)
    };

    let cold_svcs = build(&plane);
    let (cold_stream, cold_stats) = run(&cold_svcs);
    assert!(cold_stats.iter().all(|s| s.queries_saved == 0));

    let warm_svcs = build(&plane);
    let (warm_stream, warm_stats) = run(&warm_svcs);
    assert_eq!(warm_stream, cold_stream, "warm federated merge diverged");
    for (i, s) in warm_stats.iter().enumerate() {
        assert_eq!(s.queries_spent, 0, "source {i} paid on a warm plane");
        assert!(s.queries_saved > 0, "source {i} credited nothing");
    }

    // Dealer A's inventory "changed": bump only its shard.
    plane.invalidate("dealer-a");
    let third_svcs = build(&plane);
    let (third_stream, third_stats) = run(&third_svcs);
    assert_eq!(
        third_stream, cold_stream,
        "post-invalidation merge diverged"
    );
    assert_eq!(
        third_stats[0].queries_saved, 0,
        "dealer-a knowledge was stale"
    );
    assert!(third_stats[0].queries_spent > 0, "dealer-a must be re-paid");
    assert_eq!(
        third_stats[1].queries_spent, 0,
        "dealer-b knowledge survived"
    );
}

#[test]
fn concurrent_invalidation_never_resurrects_sealed_streams_wrongly() {
    // Seal a stream, then race replayers against invalidators: a replayer
    // either sees the sealed entry (free, identical) or a stale one (pays,
    // identical). Both must be byte-exact; spent+saved must cover the pull.
    let data = site_data(seeded(0x9A04) | 1);
    let pool = request_pool();
    let refs = references(&data, &pool);
    let plane = Arc::new(KnowledgePlane::new());

    // Seed the plane to sealed state for request 2.
    let (sel, rank) = &pool[2];
    let seeder = service(&data, Some(&plane));
    let mut s = seeder
        .session(sel.clone(), Arc::clone(rank))
        .open()
        .unwrap();
    while let Ok(Some(_)) = s.next() {}
    drop(s);
    drop(seeder);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let plane = &plane;
            scope.spawn(move || {
                for _ in 0..20 {
                    plane.invalidate("site");
                    std::thread::yield_now();
                }
            });
        }
        for _ in 0..4 {
            let plane = &plane;
            let data = &data;
            let reference = &refs[2];
            scope.spawn(move || {
                for _ in 0..5 {
                    let svc = service(data, Some(plane));
                    let mut s = svc.session(sel.clone(), Arc::clone(rank)).open().unwrap();
                    let mut got = Vec::new();
                    while let Ok(Some(hit)) = s.next() {
                        got.push((hit.tuple.id.0, hit.score.to_bits()));
                    }
                    assert_eq!(&got, reference, "stream diverged under invalidation race");
                    assert!(s.queries_spent() + s.queries_saved() > 0);
                }
            });
        }
    });
}

/// A bare top-k site without a mutation feed: searches are forwarded, but
/// `mutation_seq` keeps the trait default — 0 forever.
struct FeedLess(Arc<SimServer>);

impl SearchInterface for FeedLess {
    fn schema(&self) -> &Arc<Schema> {
        self.0.schema()
    }
    fn k(&self) -> usize {
        self.0.k()
    }
    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        self.0.query(q)
    }
    fn queries_issued(&self) -> u64 {
        self.0.queries_issued()
    }
}

#[test]
fn manual_invalidation_reaches_the_services_own_state_on_a_feedless_site() {
    // The documented discipline for a site without a feed: when it is
    // known to have changed, invalidate its source. The next session on
    // the *same* service must then see the change — not answer from the
    // history it learned before, which still holds the deleted tuple.
    let inner = Arc::new(SimServer::new(
        uniform(300, 2, 1, seeded(3) | 1),
        SystemRank::pseudo_random(3),
        5,
    ));
    let plane = Arc::new(KnowledgePlane::new());
    let svc = RerankService::new(Arc::new(FeedLess(Arc::clone(&inner))), 300)
        .with_knowledge(Arc::clone(&plane), "site");
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));
    let ids = |svc: &RerankService| -> Vec<u32> {
        let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
        let (hits, err) = s.top(5);
        assert!(err.is_none(), "{err:?}");
        hits.iter().map(|h| h.tuple.id.0).collect()
    };
    let before = ids(&svc);
    let top = before[0];
    inner.delete(TupleId(top)).expect("the top tuple is live");
    plane.invalidate("site");

    let after = ids(&svc);
    assert!(
        !after.contains(&top),
        "deleted tuple {top} served after invalidation: {after:?}"
    );
    let scorer = Arc::clone(&rank);
    let truth: Vec<u32> = inner
        .dataset()
        .rank_by(&Query::all(), move |t| scorer.score(t))
        .iter()
        .take(5)
        .map(|t| t.id.0)
        .collect();
    assert_eq!(after, truth, "post-invalidation stream is not the oracle's");
}

/// A site that deletes `victim` right after answering its `after`-th
/// search, and advertises the change on its mutation feed like any
/// [`SimServer`].
struct MutateAfter {
    inner: Arc<SimServer>,
    after: u64,
    victim: TupleId,
}

impl SearchInterface for MutateAfter {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        let resp = self.inner.query(q);
        if self.inner.queries_issued() == self.after {
            self.inner.delete(self.victim);
        }
        resp
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }
    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }
    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.inner.mutations_since(since)
    }
}

#[test]
fn a_session_spanning_a_mutation_never_seeds_the_new_epoch() {
    // Session A learns the true top tuple, the site deletes it mid-pull,
    // and A — which syncs the feed before every request — emits what it
    // learned before the change. Session B, opened on the same service
    // after the change, must rank the site as it now is: never replay A's
    // pre-mutation emission from the new epoch's result stream.
    let ranks: [Arc<dyn RankFn>; 2] = [
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)])),
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.5)])),
    ];
    let mut spanned = 0;
    for world in 0..6u64 {
        let data = uniform(300, 2, 1, seeded(0x9A07 + world) | 1);
        for rank in &ranks {
            let scorer = Arc::clone(rank);
            let victim = data.rank_by(&Query::all(), move |t| scorer.score(t))[0].id;
            for after in 1..40 {
                let inner = Arc::new(SimServer::new(
                    data.clone(),
                    SystemRank::pseudo_random(3),
                    5,
                ));
                let site = MutateAfter {
                    inner: Arc::clone(&inner),
                    after,
                    victim,
                };
                let svc = RerankService::new(Arc::new(site), data.len())
                    .with_knowledge(Arc::new(KnowledgePlane::new()), "site");
                let mut a = svc.session(Query::all(), Arc::clone(rank)).open().unwrap();
                a.next().expect("A pulls one tuple");
                if inner.mutation_seq() == 0 {
                    continue; // the site changed after A, or never
                }
                spanned += 1;
                drop(a);
                let mut b = svc.session(Query::all(), Arc::clone(rank)).open().unwrap();
                let (hits, err) = b.top(3);
                assert!(err.is_none(), "{err:?}");
                let got: Vec<u64> = hits.iter().map(|h| h.score.to_bits()).collect();
                let scorer = Arc::clone(rank);
                let truth: Vec<u64> = inner
                    .dataset()
                    .rank_by(&Query::all(), move |t| scorer.score(t))
                    .iter()
                    .take(3)
                    .map(|t| rank.score(t).to_bits())
                    .collect();
                assert!(
                    hits.iter().all(|h| h.tuple.id != victim) && got == truth,
                    "world {world}, rank {}, mutation after query {after}: \
                     B served {:?} after {victim:?} was deleted",
                    rank.fingerprint(),
                    hits.iter().map(|h| h.tuple.id).collect::<Vec<_>>(),
                );
            }
        }
    }
    assert!(spanned > 20, "only {spanned} schedules mutated during A");
}

/// The top-`h` score bits of `data` under `rank` — the one tie contract's
/// oracle: a stream is exact when its scores match these bit for bit.
fn truth_bits(data: &Dataset, rank: &Arc<dyn RankFn>, h: usize) -> Vec<u64> {
    let scorer = Arc::clone(rank);
    data.rank_by(&Query::all(), move |t| scorer.score(t))
        .iter()
        .take(h)
        .map(|t| rank.score(t).to_bits())
        .collect()
}

#[test]
fn racing_recorders_of_one_stream_never_store_a_tuple_twice() {
    // Two sessions on two services sharing one plane record one result
    // stream, their pulls interleaved on one thread. Service A has first
    // learned the grid under another ranking, so it can order a tie group
    // differently from cold B: A appends `x` at index `p`, B's `y` at `p`
    // is refused — and B's `x` at `p + 1` must be refused too, or every
    // later session replays `x` twice. The first world is pinned: its
    // replay used to read [20, 20, 26, 32, ...]. No stream may repeat an
    // id; scores are checked on worlds whose cold stream is exact (a grid
    // cell holding more than `k` indistinguishable tuples is out of any
    // stream's reach).
    const H: usize = 40;
    let mut rng = StdRng::seed_from_u64(seeded(0x9A08));
    let mut worlds = vec![(4, 2, 1.0)];
    for levels in [4, 6, 8, 12, 16] {
        for _ in 0..3 {
            let weight = [1.0, 2.0][rng.random_range(0..2usize)];
            worlds.push((levels, rng.random_range(1..1000u64), weight));
        }
    }
    let by_a1: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(1), 1.0)]));
    let (mut exact_worlds, mut schedules) = (0, 0);
    for (levels, seed, weight) in worlds {
        let data = discrete_grid(300, 2, levels, seed);
        let site = || {
            let server = SimServer::new(data.clone(), SystemRank::pseudo_random(seed), 5);
            RerankService::new(Arc::new(server), data.len())
        };
        let rank: Arc<dyn RankFn> =
            Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), weight)]));
        let truth = truth_bits(&data, &rank, H);
        let pull = |s: &mut query_reranking::service::Session<'_>, out: &mut Vec<(u32, u64)>| {
            if let Some(hit) = s.next().expect("clean site") {
                out.push((hit.tuple.id.0, hit.score.to_bits()));
            }
        };
        let distinct = |stream: &[(u32, u64)]| {
            let mut ids: Vec<u32> = stream.iter().map(|p| p.0).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() == stream.len()
        };
        let scores_exact = |stream: &[(u32, u64)]| stream.iter().map(|p| p.1).eq(truth.clone());
        let cold = site();
        let mut cold_stream = Vec::new();
        let mut s = cold
            .session(Query::all(), Arc::clone(&rank))
            .open()
            .unwrap();
        for _ in 0..H {
            pull(&mut s, &mut cold_stream);
        }
        let exact_world = scores_exact(&cold_stream);
        exact_worlds += usize::from(exact_world);
        let exact =
            |stream: &[(u32, u64)]| distinct(stream) && (!exact_world || scores_exact(stream));
        for (warm_up, per_round) in [(15, (1, 2)), (15, (2, 1)), (0, (1, 2))] {
            let plane = Arc::new(KnowledgePlane::new());
            let a = site().with_knowledge(Arc::clone(&plane), "site");
            let b = site().with_knowledge(Arc::clone(&plane), "site");
            let mut warm = a
                .session(Query::all(), Arc::clone(&by_a1))
                .knowledge(false)
                .open()
                .unwrap();
            assert_eq!(warm.try_top(warm_up).unwrap().len(), warm_up);
            drop(warm);
            let mut s1 = a.session(Query::all(), Arc::clone(&rank)).open().unwrap();
            let mut s2 = b.session(Query::all(), Arc::clone(&rank)).open().unwrap();
            let (mut got1, mut got2) = (Vec::new(), Vec::new());
            for _ in 0..H {
                for _ in 0..per_round.0 {
                    pull(&mut s1, &mut got1);
                }
                for _ in 0..per_round.1 {
                    pull(&mut s2, &mut got2);
                }
            }
            let where_ = format!("grid {levels}, seed {seed}, w {weight}, {warm_up} warm-up pulls, {per_round:?} per round");
            assert!(
                exact(&got1[..H]) && exact(&got2[..H]),
                "{where_}: a live stream is wrong"
            );
            let c = site().with_knowledge(Arc::clone(&plane), "site");
            let mut replay = Vec::new();
            let mut s3 = c.session(Query::all(), Arc::clone(&rank)).open().unwrap();
            for _ in 0..H {
                pull(&mut s3, &mut replay);
            }
            assert!(
                exact(&replay),
                "{where_}: the replayed stream read {:?}",
                replay.iter().map(|p| p.0).collect::<Vec<_>>()
            );
            schedules += 1;
        }
    }
    assert!(
        exact_worlds >= 8,
        "only {exact_worlds} exact worlds ({schedules} schedules)"
    );
}
