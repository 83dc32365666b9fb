//! Heap allocations on fixed requests, each held to a budget: an MD
//! request computed from the site, and replays of recorded streams.
//!
//! The MD cursor's lookups run thousands of ranking calls and history
//! walks a request; a helper that copies a coordinate vector or boxes an
//! iterator on each of them multiplies the allocator's share of the time
//! several times over without moving a single query. This test pins that
//! share: a counting global allocator tallies what the request allocates,
//! and the count per emitted tuple must stay within the budget below.
//!
//! A replay of a recorded stream asks the site nothing, so what it
//! allocates is most of its cost. Planning it keeps only the decision, its
//! stream is looked up by a key written into a buffer the thread reuses,
//! and the strategy it would hand over to is not built until it does: the
//! second test pins what one replay's `open` and its pull allocate, the
//! third that a replay of a prefix builds its strategy once, at the
//! hand-over, and the fourth that a caller's "everything" sizes nothing.
//!
//! The count is kept in a const-initialised thread-local, so only the
//! thread driving a request is counted, never the test harness's own
//! threads, and the tests may run side by side. The global allocator is
//! per binary, so nothing else runs in this one. Each budget is the count
//! measured in the debug profile (`cargo test -q`, whose debug assertions
//! re-read history) plus 25 %, rounded down; each run prints the measured
//! value. The release profile measures the same counts.

use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SiteProfile, SystemRank};
use query_reranking::service::{Algorithm, KnowledgePlane, RankedTuple, RerankService};
use query_reranking::types::{AttrId, Direction, Interval, Query, TupleId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocations per emitted tuple this request may make: the measured
/// debug-profile value, 17.6 (441 for the 25 tuples), plus 25 %.
const BUDGET_PER_TUPLE: f64 = 22.0;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every block it hands out (a `realloc`
/// included) on the calling thread.
struct Counting;

fn count() {
    // A thread being torn down has no count to keep.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell<u64>` with no destructor, so it neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn an_md_request_allocates_within_its_budget() {
    const N: usize = 2000;
    const TOP: usize = 25;
    let site = SiteProfile::open_site(10).build(uniform(N, 3, 1, 7), SystemRank::pseudo_random(7));
    let service = RerankService::new(Arc::new(site), N);
    let rank = Arc::new(LinearRank::asc(vec![
        (AttrId(0), 0.5),
        (AttrId(1), 0.3),
        (AttrId(2), 0.2),
    ]));

    let before = allocations();
    let mut session = service
        .session(Query::all(), rank)
        .algorithm(Algorithm::Md(MdOptions::rerank()))
        .open()
        .expect("MD-RERANK needs no optional capability");
    let (rows, err) = session.top(TOP);
    let spent = allocations() - before;
    assert!(err.is_none(), "{err:?}");
    assert_eq!(rows.len(), TOP);

    let per_tuple = spent as f64 / TOP as f64;
    println!(
        "{spent} allocations for {TOP} tuples ({per_tuple:.1} a tuple, budget \
         {BUDGET_PER_TUPLE}) over {} queries",
        session.queries_spent()
    );
    assert!(
        per_tuple <= BUDGET_PER_TUPLE,
        "{per_tuple:.1} allocations a tuple, over the budget of {BUDGET_PER_TUPLE}"
    );
}

/// Allocations one replay of a recorded top-25 stream may make, for its
/// `open` and for its pull: the measured debug-profile values (0 and 1)
/// plus 25 %. The pull's one is its output.
const REPLAY_OPEN_BUDGET: u64 = 0;
const REPLAY_PULL_BUDGET: u64 = 1;

/// The site and request every replay test asks: a service over the open
/// site that records into and replays from `plane`, a range selection and
/// a three-attribute ranking.
fn plane_service(plane: &Arc<KnowledgePlane>) -> RerankService {
    const N: usize = 2000;
    let site = SiteProfile::open_site(10).build(uniform(N, 3, 1, 7), SystemRank::pseudo_random(7));
    RerankService::new(Arc::new(site), N).with_knowledge(Arc::clone(plane), "site")
}

fn replay_sel() -> Query {
    Query::all().and_range(AttrId(1), Interval::closed(0.125, 0.875))
}

fn replay_rank() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::new(vec![
        (AttrId(0), Direction::Asc, 0.5),
        (AttrId(1), Direction::Desc, 0.3),
        (AttrId(2), Direction::Asc, 0.2),
    ]))
}

fn ids(rows: &[RankedTuple]) -> Vec<TupleId> {
    rows.iter().map(|r| r.tuple.id).collect()
}

#[test]
fn a_replay_allocates_within_its_budget() {
    const TOP: usize = 25;
    let service = plane_service(&Arc::new(KnowledgePlane::new()));
    let (sel, rank) = (replay_sel(), replay_rank());
    // The first run pays the site and records its 25 tuples in the plane.
    let mut first = service.session(sel.clone(), rank.clone()).open().unwrap();
    let recorded = first.try_top(TOP).expect("the first run is served");
    assert!(first.queries_spent() > 0);
    drop(first);

    let before = allocations();
    let mut session = service.session(sel, rank).open().expect("the replay opens");
    let opened = allocations();
    let rows = session.try_top(TOP).expect("a replay is served");
    let pulled = allocations();
    assert_eq!(ids(&rows), ids(&recorded));
    assert_eq!(session.queries_spent(), 0, "a replay asks the site nothing");
    let (open, pull) = (opened - before, pulled - opened);
    println!(
        "a replay: {open} allocations to open (budget {REPLAY_OPEN_BUDGET}), \
         {pull} to pull {TOP} tuples (budget {REPLAY_PULL_BUDGET})"
    );
    // A budget of 0 cannot be undercut: `<=` is `==`.
    assert_eq!(open, REPLAY_OPEN_BUDGET, "allocations to open");
    assert!(pull <= REPLAY_PULL_BUDGET, "{pull} allocations to pull");
}

/// A recorded top-10 prefix asked for 25, on a second service that shares
/// only the plane: nothing is built at open (it allocates what a replay's
/// `open` does) or while the prefix replays (its pull allocates only the
/// output and asks the site nothing); the strategy is built at the
/// hand-over, once — one built again would start over and emit the prefix
/// a second time — and the 25 are a cold session's, bought for what the
/// cold session paid.
#[test]
fn a_partial_hit_builds_its_strategy_once_at_hand_over() {
    const PREFIX: usize = 10;
    const TOP: usize = 25;
    let plane = Arc::new(KnowledgePlane::new());
    let recorder = plane_service(&plane);
    let mut first = recorder
        .session(replay_sel(), replay_rank())
        .open()
        .unwrap();
    first.try_top(PREFIX).expect("the prefix is served");
    drop(first);
    let cold_service = plane_service(&Arc::new(KnowledgePlane::new()));
    let mut cold = cold_service
        .session(replay_sel(), replay_rank())
        .open()
        .unwrap();
    let want = cold.try_top(TOP).expect("the cold run is served");

    let service = plane_service(&plane);
    let (sel, rank) = (replay_sel(), replay_rank());
    let before = allocations();
    let mut session = service
        .session(sel, rank)
        .open()
        .expect("the partial hit opens");
    let opened = allocations();
    let mut rows = session.try_top(PREFIX).expect("the prefix replays");
    let replayed = allocations();
    assert_eq!(
        session.queries_spent(),
        0,
        "the prefix asks the site nothing"
    );
    rows.extend(
        session
            .try_top(TOP - PREFIX)
            .expect("the strategy takes over"),
    );
    let (open, pull) = (opened - before, replayed - opened);
    println!("a partial hit: {open} allocations to open, {pull} to replay {PREFIX} tuples");
    assert_eq!(open, REPLAY_OPEN_BUDGET, "allocations to open");
    assert!(pull <= REPLAY_PULL_BUDGET, "{pull} allocations to replay");
    assert_eq!(ids(&rows), ids(&want));
    assert_eq!(session.strategy_name(), cold.strategy_name());
    assert_eq!(session.queries_spent(), cold.queries_spent());
    assert_eq!(
        session.queries_saved(),
        0,
        "an unsealed prefix saves nothing"
    );
}

/// `try_top(usize::MAX)` on a sealed stream sizes its output by the
/// stream, not by the request: one allocation, and the whole stream.
#[test]
fn an_unbounded_replay_allocates_its_output_once() {
    let (service, rank) = (
        plane_service(&Arc::new(KnowledgePlane::new())),
        replay_rank(),
    );
    // About 20 tuples: the first run drains the range and seals it.
    let sel = Query::all().and_range(AttrId(0), Interval::closed(0.25, 0.26));
    let mut first = service.session(sel.clone(), rank.clone()).open().unwrap();
    let recorded = first.try_top(usize::MAX).expect("the first run drains");
    assert!(!recorded.is_empty());
    drop(first);

    let mut session = service.session(sel, rank).open().expect("the replay opens");
    let before = allocations();
    let rows = session.try_top(usize::MAX).expect("a replay is served");
    let pull = allocations() - before;
    println!(
        "an unbounded replay: {pull} allocations for {} tuples",
        rows.len()
    );
    assert_eq!(ids(&rows), ids(&recorded));
    assert_eq!(
        session.queries_spent(),
        0,
        "a sealed replay asks the site nothing"
    );
    assert!(session.queries_saved() > 0, "a sealed replay is credited");
    assert_eq!(pull, 1, "{pull} allocations to pull");
}
