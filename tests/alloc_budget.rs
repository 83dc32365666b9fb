//! Heap allocations on two fixed requests, each held to a budget: an MD
//! request computed from the site, and the replay of a recorded stream.
//!
//! The MD cursor's lookups run thousands of ranking calls and history
//! walks a request; a helper that copies a coordinate vector or boxes an
//! iterator on each of them multiplies the allocator's share of the time
//! several times over without moving a single query. This test pins that
//! share: a counting global allocator tallies what the request allocates,
//! and the count per emitted tuple must stay within the budget below.
//!
//! A replay of a recorded stream asks the site nothing, so what it
//! allocates is most of its cost: planning, the stream's key, the lookup,
//! the strategy it would hand over to and the session. The second test
//! pins that count for one replay's `open` and for its pull.
//!
//! The count is kept in a const-initialised thread-local, so only the
//! thread driving a request is counted, never the test harness's own
//! threads, and the two tests may run side by side. The global allocator
//! is per binary, so nothing else runs in this one. Each budget is the
//! count measured in the debug profile (`cargo test -q`, whose debug
//! assertions re-read history) plus 25 %; each run prints the measured
//! value.

use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::LinearRank;
use query_reranking::server::{SiteProfile, SystemRank};
use query_reranking::service::{Algorithm, KnowledgePlane, RankedTuple, RerankService};
use query_reranking::types::{AttrId, Direction, Interval, Query};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocations per emitted tuple this request may make: the measured
/// debug-profile value, 17.8 (445 for the 25 tuples), plus 25 %.
const BUDGET_PER_TUPLE: f64 = 22.3;

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
/// `open` and for its pull: the measured debug-profile values (17 and 4)
/// plus 25 %.
const REPLAY_OPEN_BUDGET: u64 = 21;
const REPLAY_PULL_BUDGET: u64 = 5;

#[test]
fn a_replay_allocates_within_its_budget() {
    const N: usize = 2000;
    const TOP: usize = 25;
    let site = SiteProfile::open_site(10).build(uniform(N, 3, 1, 7), SystemRank::pseudo_random(7));
    let plane = Arc::new(KnowledgePlane::new());
    let service = RerankService::new(Arc::new(site), N).with_knowledge(plane, "site");
    let sel = Query::all().and_range(AttrId(1), Interval::closed(0.125, 0.875));
    let rank = Arc::new(LinearRank::new(vec![
        (AttrId(0), Direction::Asc, 0.5),
        (AttrId(1), Direction::Desc, 0.3),
        (AttrId(2), Direction::Asc, 0.2),
    ]));
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
    let ids = |rows: &[RankedTuple]| rows.iter().map(|r| r.tuple.id).collect::<Vec<_>>();
    assert_eq!(ids(&rows), ids(&recorded));
    assert_eq!(session.queries_spent(), 0, "a replay asks the site nothing");
    let (open, pull) = (opened - before, pulled - opened);
    println!(
        "a replay: {open} allocations to open (budget {REPLAY_OPEN_BUDGET}), \
         {pull} to pull {TOP} tuples (budget {REPLAY_PULL_BUDGET})"
    );
    assert!(open <= REPLAY_OPEN_BUDGET, "{open} allocations to open");
    assert!(pull <= REPLAY_PULL_BUDGET, "{pull} allocations to pull");
}
