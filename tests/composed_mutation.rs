//! Sessions and data change, composed: a model-based test of the shared
//! state a service keeps while the site's data moves.
//!
//! One service per case, with and without a knowledge plane, answers a
//! stream of requests while a seeded schedule inserts, deletes and updates
//! tuples between them. Every stream is checked against the dense ranking
//! at the current watermark under the one tie contract (scores equal bit
//! for bit, in order) and every hit against the live tuple it names. After
//! every open, where the service patches its shared state from the
//! mutation feed, and again after every stream, the state's invariant is
//! asserted directly: history holds only live tuples, each with the site's
//! current values, and every live tuple that a complete region matches is
//! in history. After an open that followed a data change, history holds
//! what it held before, less what the feed deleted, plus what it inserted
//! or updated: patched, not rebuilt. Where the feed cannot say what
//! changed (a log gap, a failed or unsupported feed read, a manual
//! invalidation), the next open starts the state again, empty, and the
//! streams stay exact.
//!
//! `QRS_TEST_SEED` picks the schedules; `QRS_FUZZ_ITERS` sets how many
//! cases run.

use query_reranking::core::SharedState;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::{KnowledgePlane, RerankService};
use query_reranking::types::{
    AttrId, Capability, CatAttr, CatId, CatPredicate, Dataset, Direction, Interval, MutationLog,
    OrdinalAttr, Query, QueryResponse, Schema, ServerError, Tuple, TupleId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Mix the CI-provided seed (if any) into a property's base seed.
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

/// Three ordinal attributes over `[0, 9]` and one categorical of three
/// codes. Attribute 0 lives on a 0..=9 grid, so rankings over it tie; the
/// others are continuous, so a tie slab can always be told apart.
fn schema() -> Schema {
    Schema::new(
        (0..3)
            .map(|i| OrdinalAttr::new(format!("a{i}"), 0.0, 9.0))
            .collect(),
        vec![CatAttr::new("c", 3)],
    )
}

fn tuple(rng: &mut StdRng, id: TupleId) -> Tuple {
    let grid = f64::from(rng.random_range(0..10u32));
    let vals = vec![grid, rng.random::<f64>() * 9.0, rng.random::<f64>() * 9.0];
    Tuple::new(id, vals, vec![rng.random_range(0..3u32)])
}

fn site(rng: &mut StdRng, n: usize) -> SimServer {
    let tuples = (0..n as u32).map(|i| tuple(rng, TupleId(i))).collect();
    let data = Dataset::new(schema(), tuples).unwrap();
    SimServer::new(data, SystemRank::pseudo_random(rng.random()), 4)
}

/// One request: a selection and a ranking of one or two attributes.
fn request(rng: &mut StdRng) -> (Query, Arc<dyn RankFn>) {
    let sel = match rng.random_range(0..4u32) {
        0 => Query::all(),
        1 => Query::all().and_range(AttrId(1), Interval::closed(1.0, 7.5)),
        2 => Query::all().and_range(AttrId(0), Interval::closed(2.0, 6.0)),
        _ => Query::all().and_cat(CatPredicate::one_of(CatId(0), vec![0, 2])),
    };
    let dir = |rng: &mut StdRng| [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
    let mut terms = vec![(AttrId(rng.random_range(0..3usize)), dir(rng), 1.0)];
    if rng.random::<bool>() {
        let other = AttrId((terms[0].0 .0 + rng.random_range(1..3usize)) % 3);
        terms.push((
            other,
            dir(rng),
            [0.5, 1.0, 2.0][rng.random_range(0..3usize)],
        ));
    }
    (sel, Arc::new(LinearRank::new(terms)))
}

/// The shared state's invariant against the site's data now: history
/// holds only live tuples, each with the site's current values, and every
/// live tuple that a complete region matches (a region covers the point
/// query of the tuple's values) is in history.
fn assert_invariant(st: &SharedState, data: &Dataset, log: &str) {
    let live: HashMap<TupleId, &Arc<Tuple>> = data.tuples().iter().map(|t| (t.id, t)).collect();
    for t in st.history.candidates(&Query::all()) {
        let now = live.get(&t.id);
        assert!(now.is_some(), "{log}: history holds deleted tuple {}", t.id);
        assert_eq!(
            ***now.unwrap(),
            **t,
            "{log}: history holds a stale {}",
            t.id
        );
    }
    for t in data.tuples() {
        let mut point = Query::all();
        for (a, &v) in t.ords().iter().enumerate() {
            point.add_range(AttrId(a), Interval::point(v));
        }
        for (c, &code) in t.cats().iter().enumerate() {
            point.add_cat(CatPredicate::one_of(CatId(c), vec![code]));
        }
        if st.complete.covers(&point) {
            assert!(
                st.history.contains(t.id),
                "{log}: a complete region matches live {} but history lacks it",
                t.id
            );
        }
    }
}

fn history_ids(svc: &RerankService) -> BTreeSet<TupleId> {
    svc.with_state(|st| st.history.candidates(&Query::all()).map(|t| t.id).collect())
}

/// Pull the top `h` of a request on `svc` and check it against the dense
/// ranking of the site's data now: the score sequence bit for bit, and
/// every hit a live tuple, with its current values, that the selection
/// matches.
fn assert_exact(
    svc: &RerankService,
    data: &Dataset,
    sel: &Query,
    rank: &Arc<dyn RankFn>,
    h: usize,
    log: &str,
) {
    let mut session = svc.session(sel.clone(), Arc::clone(rank)).open().unwrap();
    let (hits, err) = session.top(h);
    assert!(err.is_none(), "{log}: {err:?}");
    let truth: Vec<u64> = (data.rank_by(sel, |t| rank.score(t)).iter())
        .take(h)
        .map(|t| rank.score(t).to_bits())
        .collect();
    let got: Vec<u64> = hits.iter().map(|r| r.score.to_bits()).collect();
    assert_eq!(got, truth, "{log}: {sel} under {}", rank.fingerprint());
    let live: HashMap<TupleId, &Arc<Tuple>> = data.tuples().iter().map(|t| (t.id, t)).collect();
    let mut seen = BTreeSet::new();
    for r in &hits {
        assert!(
            seen.insert(r.tuple.id),
            "{log}: {} emitted twice",
            r.tuple.id
        );
        let now = live.get(&r.tuple.id).map(|t| &***t);
        assert_eq!(now, Some(&*r.tuple), "{log}: emitted a dead or stale tuple");
        assert!(sel.matches(&r.tuple), "{log}: {} fails {sel}", r.tuple.id);
    }
}

/// The composed property (module docs): a seeded schedule of requests
/// and data changes on one service, with a plane in every other case.
#[test]
fn the_shared_state_stays_exact_across_a_schedule_of_data_changes() {
    let (mut patched, mut rebuilt, mut kept) = (0, 0, 0usize);
    for case in 0..iters() {
        let mut rng = StdRng::seed_from_u64(seeded(0xC0DE_5700 + case));
        let n = rng.random_range(30..120usize);
        let server = Arc::new(site(&mut rng, n));
        let plane = (case % 2 == 1).then(|| Arc::new(KnowledgePlane::new()));
        let mut svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
        if let Some(plane) = &plane {
            svc = svc.with_knowledge(Arc::clone(plane), "site");
        }
        // A few requests, asked again and again, so the plane replays.
        let requests: Vec<_> = (0..4).map(|_| request(&mut rng)).collect();
        let mut next_id = n as u32;
        for step in 0..16 {
            let log = format!("case {case} step {step}");
            // The state as the last stream left it, then what the data
            // changes between two requests make of it.
            let mut expect = history_ids(&svc);
            let mut changed = false;
            for _ in 0..[0, 0, 1, 3][rng.random_range(0..4usize)] {
                let live = server.dataset();
                let pick = |rng: &mut StdRng| live.tuples()[rng.random_range(0..live.len())].id;
                match rng.random_range(0..3u32) {
                    0 => {
                        let t = tuple(&mut rng, TupleId(next_id));
                        next_id += 1;
                        expect.insert(t.id);
                        server.insert(t).unwrap();
                    }
                    1 if live.len() > 1 => {
                        let id = pick(&mut rng);
                        expect.remove(&id);
                        server.delete(id).unwrap();
                    }
                    _ => {
                        let id = pick(&mut rng);
                        let t = tuple(&mut rng, id);
                        expect.insert(t.id);
                        server.update(t).unwrap();
                    }
                }
                changed = true;
            }
            if let Some(plane) = plane.as_ref().filter(|_| rng.random_range(0..10u32) == 0) {
                // The site changed in a way no feed reports: start again.
                plane.invalidate("site");
                (expect, changed) = (BTreeSet::new(), true);
            }
            let (sel, rank) = &requests[rng.random_range(0..requests.len())];
            let data = server.dataset();
            // Opening syncs the state: check it before the stream adds to it.
            drop(svc.session(sel.clone(), Arc::clone(rank)).open().unwrap());
            svc.with_state(|st| assert_invariant(st, &data, &log));
            if changed {
                let after = history_ids(&svc);
                assert_eq!(after, expect, "{log}: the open did not patch history");
                match expect.is_empty() {
                    true => rebuilt += 1,
                    false => (patched, kept) = (patched + 1, kept + after.len()),
                }
            }
            assert_exact(&svc, &data, sel, rank, rng.random_range(1..12usize), &log);
            svc.with_state(|st| assert_invariant(st, &data, &log));
        }
    }
    assert!(
        patched >= iters() as usize * 4 && kept >= patched * 5,
        "vacuous: {patched} patches kept {kept} tuples; {rebuilt} rebuilds"
    );
}

/// A site whose feed read fails with `error` while it is set.
struct FeedFails {
    inner: Arc<SimServer>,
    error: Mutex<Option<ServerError>>,
}

impl SearchInterface for FeedFails {
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
        self.inner.query(q)
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }
    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        match self.error.lock().unwrap().clone() {
            Some(e) => Err(e),
            None => self.inner.mutations_since(since),
        }
    }
}

/// Where the feed cannot say what changed, the next open empties the
/// service's state, and the stream after it is exact: a log compacted
/// past the state's sequence number (a gap), a feed read that fails, one
/// the site does not support, and a manual invalidation of the source on
/// a site whose feed works. A feed that can say what changed patches the
/// same state instead.
#[test]
fn the_state_starts_again_where_the_feed_cannot_say_what_changed() {
    let unavailable = ServerError::Unavailable {
        reason: "feed down".into(),
    };
    let unsupported = ServerError::Unsupported(Capability::MutationFeed);
    let cases = [
        ("log gap", Some(1), None, false),
        ("failed feed read", None, Some(unavailable), false),
        ("unsupported feed read", None, Some(unsupported), false),
        ("manual invalidation", None, None, true),
        ("readable feed", None, None, false),
    ];
    for (label, cap, error, manual) in cases {
        for with_plane in [false, true] {
            if manual && !with_plane {
                continue; // only a plane can be invalidated by hand
            }
            let log = format!("{label}, plane {with_plane}");
            let mut rng = StdRng::seed_from_u64(seeded(0xC0DE_5757));
            let mut server = site(&mut rng, 80);
            if let Some(cap) = cap {
                server = server.with_mutation_log_cap(cap);
            }
            let inner = Arc::new(server);
            let feed = Arc::new(FeedFails {
                inner: Arc::clone(&inner),
                error: Mutex::new(None),
            });
            let plane = Arc::new(KnowledgePlane::new());
            let mut svc = RerankService::new(feed.clone() as Arc<dyn SearchInterface>, 80);
            if with_plane {
                svc = svc.with_knowledge(Arc::clone(&plane), "site");
            }
            let (sel, rank) = (Query::all(), request(&mut rng).1);
            assert_exact(&svc, &inner.dataset(), &sel, &rank, 6, &log);
            let learned = svc.knowledge();
            assert!(learned > 0, "{log}: the first stream taught nothing");
            for id in [3, 5, 7] {
                inner.delete(TupleId(id)).unwrap();
            }
            *feed.error.lock().unwrap() = error.clone();
            if manual {
                plane.invalidate("site");
            }
            drop(svc.session(sel.clone(), Arc::clone(&rank)).open().unwrap());
            let starts_again = cap.is_some() || error.is_some() || manual;
            match starts_again {
                true => assert_eq!(svc.knowledge(), 0, "{log}: the state was not emptied"),
                false => assert!(
                    svc.knowledge() > 0,
                    "{log}: a readable feed rebuilt the state"
                ),
            }
            let data = inner.dataset();
            svc.with_state(|st| assert_invariant(st, &data, &log));
            assert_exact(&svc, &data, &sel, &rank, 6, &log);
        }
    }
}
