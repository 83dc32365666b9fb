//! Heap allocations of the edge codec's per-call bodies, held to budgets.
//!
//! A remote site costs one round trip per query, about thirty a request,
//! and the codec is paid on both ends of each: the client writes the
//! query, the edge reads it, the edge writes the reply, the client reads
//! it. A step that builds a JSON tree, formats a number through a
//! temporary `String`, copies a string that needs no unescaping or grows
//! a tuple's columns one push at a time multiplies the allocator's share
//! of a call. One test pins that share for a fixed query and a 3-tuple
//! reply, with no socket in between; one pins one 25-hit `/v1/rerank`
//! reply, written by the edge and read by the client; and one pins the
//! `/site/seq` exchange a remote site pays once per session open, its reply
//! written by the edge and read by the client as a tree.
//!
//! The count is kept in a const-initialised thread-local, as in
//! `tests/alloc_budget.rs`, so each test counts only its own thread and
//! the tests of this binary (which share its global allocator) may run
//! side by side. A budget is the count measured in the debug profile
//! (`cargo test -q`) plus 25 %; each run prints the measured value.

use query_reranking::edge::{parse, wire, Json};
use query_reranking::service::{BatchOutcome, RankedTuple, SessionStats};
use query_reranking::types::{
    AttrId, CatId, CatPredicate, Interval, Query, QueryResponse, Tuple, TupleId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

/// Allocations one exchange's codec steps may make: the measured
/// debug-profile value, 17, plus 25 %.
const BUDGET: u64 = 21;

/// Allocations writing and reading one 25-hit `/v1/rerank` reply may
/// make: the measured debug-profile value, 56, plus 25 %.
const REPLY_BUDGET: u64 = 70;

/// Allocations writing and reading one `/site/seq` reply may make: the
/// measured debug-profile value, 10, plus 25 %.
const SEQ_BUDGET: u64 = 12;

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
fn a_site_query_exchange_allocates_within_its_budget() {
    let query = Query::all()
        .and_range(AttrId(0), Interval::closed(0.25, 0.75))
        .and_range(AttrId(2), Interval::at_least(-3.5))
        .and_cat(CatPredicate::one_of(CatId(0), vec![1, 4]));
    let tuples = (0..3)
        .map(|i| {
            let ords = vec![0.1 * i as f64, 2.0 / 3.0, 1e-3 + i as f64];
            Arc::new(Tuple::new(TupleId(40 + i), ords, vec![i]))
        })
        .collect();
    let answer = QueryResponse::new(tuples, true);
    let ledger = (1234, 5678);

    let before = allocations();
    // The client writes the query; the edge reads it.
    let request = wire::site_request(&query, None, None);
    let asked = wire::read_site_request(&request).expect("JSON").query;
    let asked = asked.expect("a query");
    // The edge writes the reply; the client reads it.
    let reply = wire::site_response_reply(&answer, ledger);
    let read = wire::read_response_reply(&reply).expect("JSON");
    let spent = allocations() - before;

    assert_eq!(asked, query);
    assert_eq!(read.ledger, Some(ledger));
    let got = black_box(read.body.expect("a response"));
    assert_eq!(
        wire::response_to_json(&got).encode(),
        wire::response_to_json(&answer).encode()
    );
    println!("{spent} allocations for one /site/query exchange (budget {BUDGET})");
    assert!(
        spent <= BUDGET,
        "{spent} allocations for one exchange, over the budget of {BUDGET}"
    );
}

#[test]
fn a_rerank_reply_allocates_within_its_budget() {
    let hits = (0..25)
        .map(|i| {
            let x = f64::from(i);
            let ords = vec![0.013 * x, 1.0 / (x + 3.0), 250.0 + 7.5 * x];
            RankedTuple {
                rank: i as usize + 1,
                score: 0.1 + 0.37 * x,
                tuple: Arc::new(Tuple::new(TupleId(900 + i), ords, vec![i % 4])),
            }
        })
        .collect();
    let stats = SessionStats {
        emitted: 25,
        queries_spent: 31,
        cost_units_spent: 31,
        queries_saved: 0,
        cost_units_saved: 0,
        attempts_made: 31,
        retries_spent: 0,
        budget_limit: None,
    };
    let outcome = BatchOutcome {
        hits,
        error: None,
        stats,
        wall_ms: 0.731,
    };
    let outcomes = [outcome];

    let before = allocations();
    // The edge writes the reply; the client reads it.
    let reply = wire::rerank_reply(&outcomes, (31, 31));
    let read = wire::read_rerank_reply(&reply).expect("JSON");
    let spent = allocations() - before;

    let read = black_box(read.expect("a reply"));
    assert_eq!(read.outcomes[0].hits.len(), 25);
    assert_eq!(read.tenant, (31, 31));
    println!("{spent} allocations for one 25-hit /v1/rerank reply (budget {REPLY_BUDGET})");
    assert!(
        spent <= REPLY_BUDGET,
        "{spent} allocations for one reply, over the budget of {REPLY_BUDGET}"
    );
}

#[test]
fn a_site_seq_exchange_allocates_within_its_budget() {
    let ledger = (1234, 5678);

    let before = allocations();
    // The edge writes the reply; the client reads `seq` and the ledger.
    let reply = wire::seq_reply(987_654, ledger);
    let tree = parse(&reply).expect("JSON");
    let seq = tree.get("seq").and_then(Json::as_u64);
    let read = tree.get("ledger").map(wire::ledger_from_json);
    let spent = allocations() - before;

    assert_eq!(seq, Some(987_654));
    assert_eq!(read, Some(Ok(ledger)));
    println!("{spent} allocations for one /site/seq exchange (budget {SEQ_BUDGET})");
    assert!(
        spent <= SEQ_BUDGET,
        "{spent} allocations for one exchange, over the budget of {SEQ_BUDGET}"
    );
}
