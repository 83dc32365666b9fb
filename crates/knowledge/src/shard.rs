//! One source's shard: everything the service has learned about a site.
//!
//! A [`SourceShard`] holds four stores behind a single reader-writer lock:
//!
//! * a **response cache** — exact request → response replays,
//! * **drained regions** — selections whose full match set (in system
//!   order) is known, from which answers to *subsumed* requests are
//!   synthesized without contacting the site,
//! * **page runs** — partially-drained selections accumulating contiguous
//!   pages until the run completes and is promoted to a drained region,
//! * a **result cache** — exact top-k output streams keyed by
//!   `(selection, rank, strategy)`, replayed to warm sessions.
//!
//! The stores are guarded as one by the shard's **epoch**: they remember the
//! single epoch their contents were recorded under, and every lookup misses
//! while that is older than the current one. [`SourceShard::invalidate`] is
//! therefore a single atomic increment — O(1), no lock, no scanning — and
//! the first write under the new epoch (or [`SourceShard::purge_stale`])
//! clears the dead epoch wholesale, so the shard never holds more than one
//! epoch's worth and the drained regions' [`RegionIndex`] only ever indexes
//! live runs.

use crate::key::{RequestKey, ResultKey};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use qrs_types::{Query, RegionIndex, Tuple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached (or synthesized) answer to one restricted-interface request.
///
/// `more` carries the overflow/`has_more` bit: for top-k and page requests
/// it reconstructs the underflow/valid/overflow trichotomy via
/// `QueryResponse::new(tuples, more)`, for `ORDER BY` pages it is the
/// `has_more` flag verbatim.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// Returned tuples, in the order the site produced (or would produce)
    /// them.
    pub tuples: Vec<Arc<Tuple>>,
    /// Overflow / has-more bit.
    pub more: bool,
    /// `true` when the answer was synthesized from a drained region rather
    /// than replayed from an exact recording.
    pub synthesized: bool,
}

/// One fully-drained selection's complete match set, in system order. Any
/// two runs subsuming a request synthesize the same answer to it.
type DrainedRun = Vec<Arc<Tuple>>;

/// A selection being drained page by page. Pages must arrive contiguously
/// from 0; the run is promoted to a [`DrainedRun`] when a page reports no
/// further matches.
#[derive(Debug, Clone)]
struct PageRun {
    query: Query,
    k: usize,
    tuples: Vec<Arc<Tuple>>,
    pages_seen: usize,
}

/// One cached exact output stream. `items` holds `(tuple, score bits)` in
/// emission order; `exhausted` records that the stream ended after
/// `items.len()` emissions (so a replay can report exhaustion without
/// re-running the strategy).
#[derive(Debug, Clone, Default)]
pub struct ResultEntry {
    /// Emitted tuples with the bit pattern of their score, in order.
    pub items: Vec<(Arc<Tuple>, u64)>,
    /// The stream is known to end after `items.len()` tuples.
    pub exhausted: bool,
    /// Queries the sealing run paid-or-saved end to end — what a session
    /// replaying this exhausted stream avoids spending. Zero until sealed.
    pub queries_full: u64,
    /// Cost units of the same full run, under the site's cost model.
    pub cost_units_full: u64,
}

#[derive(Debug, Default)]
struct ShardInner {
    /// The epoch everything below was recorded under.
    epoch: u64,
    responses: HashMap<RequestKey, CachedResponse>,
    drained: RegionIndex<DrainedRun>,
    /// Canonical selection → its run's handle in `drained`, so draining a
    /// selection again replaces its run.
    drained_ids: HashMap<String, u64>,
    page_runs: HashMap<String, PageRun>,
    results: HashMap<ResultKey, ResultEntry>,
}

impl ShardInner {
    fn drain(&mut self, sel: &str, q: &Query, tuples: DrainedRun) {
        let id = self.drained.insert(q, tuples);
        if let Some(old) = self.drained_ids.insert(sel.to_string(), id) {
            self.drained.remove(old);
        }
    }
}

/// Point-in-time statistics for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Current epoch (number of invalidations so far).
    pub epoch: u64,
    /// Highest source mutation sequence number observed
    /// ([`SourceShard::observe_watermark`]); 0 until a mutation-aware
    /// client reports one.
    pub watermark: u64,
    /// Requests answered from an exact cached response.
    pub hits: u64,
    /// Requests answered by synthesis from a drained region.
    pub synthesized: u64,
    /// Requests the shard could not answer.
    pub misses: u64,
    /// Result-cache lookups that found a live entry.
    pub result_hits: u64,
    /// Live exact-response entries.
    pub responses: u64,
    /// Live drained regions.
    pub drained: u64,
    /// Live cached result streams.
    pub results: u64,
}

/// Everything learned about one source, behind one lock + one epoch.
///
/// The hot path ([`lookup_response`](SourceShard::lookup_response)) takes
/// the lock in read mode only; recordings and result-stream extensions take
/// it in write mode. Invalidation never takes the lock at all.
#[derive(Debug, Default)]
pub struct SourceShard {
    epoch: AtomicU64,
    /// Highest source mutation sequence number any client has reported.
    /// Advancing it bumps the epoch — data change invalidates knowledge
    /// automatically, no manual `invalidate` call required.
    watermark: AtomicU64,
    hits: AtomicU64,
    synthesized: AtomicU64,
    misses: AtomicU64,
    result_hits: AtomicU64,
    inner: RwLock<ShardInner>,
}

impl SourceShard {
    /// A fresh, empty shard at epoch 0.
    pub fn new() -> Self {
        SourceShard::default()
    }

    /// Current epoch. Any knowledge consumer holding derived state should
    /// compare against the epoch it derived under.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bump the epoch, atomically invalidating every entry recorded so far.
    /// O(1): lookups miss from now on, and the next write reclaims the lot.
    pub fn invalidate(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The stores as of the current epoch, or `None` while they still hold
    /// a dead one. The epoch is read under the lock, so it is never older
    /// than the stores'.
    fn live(&self) -> Option<RwLockReadGuard<'_, ShardInner>> {
        let inner = self.inner.read();
        (inner.epoch == self.epoch()).then_some(inner)
    }

    /// The stores for writing under the current epoch, a dead epoch's
    /// contents dropped first.
    fn current(&self) -> RwLockWriteGuard<'_, ShardInner> {
        let mut inner = self.inner.write();
        let now = self.epoch();
        if inner.epoch != now {
            *inner = ShardInner {
                epoch: now,
                ..ShardInner::default()
            };
        }
        inner
    }

    /// The highest source mutation sequence number observed so far.
    #[inline]
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Report the source's current mutation sequence number. If `seq`
    /// advances the recorded watermark, everything in the shard describes
    /// an older snapshot and the epoch is bumped — by exactly one thread,
    /// however many gates race the same advance (the CAS loser observes
    /// the new watermark and does nothing) — and whoever records first
    /// under the new epoch drops the old snapshot's entries. Returns
    /// whether this call advanced it.
    pub fn observe_watermark(&self, seq: u64) -> bool {
        let advanced = self
            .watermark
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (seq > w).then_some(seq)
            })
            .is_ok();
        if advanced {
            self.invalidate();
        }
        advanced
    }

    /// Try to answer a request from knowledge. Returns an exact replay when
    /// one was recorded under the current epoch, else — for top-k and
    /// system-ranking page requests — an answer synthesized from a drained
    /// region that subsumes `q`. `ORDER BY` requests are only ever replayed
    /// exactly (a drained region fixes system order, not attribute order).
    ///
    /// `k` must be the site's advertised page size; synthesis mirrors the
    /// site's own semantics (skip `page·k` matches, return up to `k`, set
    /// the more-bit iff a further match exists).
    pub fn lookup_response(&self, key: &RequestKey, q: &Query, k: usize) -> Option<CachedResponse> {
        let found = self.live().and_then(|inner| {
            if let Some(exact) = inner.responses.get(key) {
                return Some(exact.clone());
            }
            let page = match key {
                RequestKey::TopK { .. } => 0,
                RequestKey::Page { page, .. } => *page,
                RequestKey::Ordered { .. } => return None,
            };
            let run = inner.drained.find(q).filter(|_| k > 0)?;
            let mut matches = run.iter().filter(|t| q.matches(t)).skip(page * k);
            Some(CachedResponse {
                tuples: matches.by_ref().take(k).cloned().collect(),
                more: matches.next().is_some(),
                synthesized: true,
            })
        });
        let counter = match &found {
            Some(r) if r.synthesized => &self.synthesized,
            Some(_) => &self.hits,
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Record the site's answer to one paid request. Caches the exact
    /// response and grows the drained map: a non-overflowing top-k answer
    /// *is* the full match set of its selection, and a contiguous page run
    /// is promoted once its final page arrives.
    pub fn record_response(
        &self,
        key: RequestKey,
        q: &Query,
        k: usize,
        tuples: &[Arc<Tuple>],
        more: bool,
    ) {
        let mut inner = self.current();
        match &key {
            RequestKey::TopK { sel } => {
                if !more {
                    inner.drain(sel, q, tuples.to_vec());
                }
            }
            RequestKey::Page { sel, page } => {
                let fresh = || PageRun {
                    query: q.clone(),
                    k,
                    tuples: Vec::new(),
                    pages_seen: 0,
                };
                let run = inner.page_runs.entry(sel.clone()).or_insert_with(fresh);
                if run.k != k {
                    // Re-keyed run: restart from scratch.
                    *run = fresh();
                }
                if *page == run.pages_seen {
                    run.tuples.extend(tuples.iter().cloned());
                    run.pages_seen += 1;
                    if !more {
                        let done = inner.page_runs.remove(sel).expect("run just touched");
                        inner.drain(sel, &done.query, done.tuples);
                    }
                }
            }
            RequestKey::Ordered { .. } => {}
        }
        inner.responses.insert(
            key,
            CachedResponse {
                tuples: tuples.to_vec(),
                more,
                synthesized: false,
            },
        );
    }

    /// Look up a cached exact result stream recorded under the current
    /// epoch. Returns a clone (tuples are `Arc`-shared, so this is cheap).
    pub fn lookup_result(&self, key: &ResultKey) -> Option<ResultEntry> {
        let inner = self.live()?;
        let e = inner.results.get(key)?;
        if e.items.is_empty() && !e.exhausted {
            return None;
        }
        self.result_hits.fetch_add(1, Ordering::Relaxed);
        Some(e.clone())
    }

    /// Append the `index`-th emission of a result stream. The append is
    /// accepted only when it is contiguous (`index` equals the entry's
    /// current length under the current epoch) — concurrent sessions racing
    /// on the same stream therefore converge on one consistent prefix
    /// instead of interleaving.
    pub fn extend_result(&self, key: &ResultKey, index: usize, tuple: Arc<Tuple>, score_bits: u64) {
        let mut inner = self.current();
        let e = inner.results.entry(key.clone()).or_default();
        if !e.exhausted && e.items.len() == index {
            e.items.push((tuple, score_bits));
        }
    }

    /// Mark a result stream as complete after `len` emissions, recording
    /// what the sealing run cost end to end (`queries_full` /
    /// `cost_units_full`, paid and saved combined) so fully-replayed
    /// sessions can attribute their savings. Ignored unless the entry's
    /// recorded prefix has exactly that length under the current epoch (a
    /// shorter racing prefix must not be sealed early).
    pub fn mark_result_exhausted(
        &self,
        key: &ResultKey,
        len: usize,
        queries_full: u64,
        cost_units_full: u64,
    ) {
        let mut inner = self.current();
        let e = inner.results.entry(key.clone()).or_default();
        if e.items.len() == len {
            e.exhausted = true;
            e.queries_full = queries_full;
            e.cost_units_full = cost_units_full;
        }
    }

    /// Does a live drained region subsume `q` (i.e. could the shard answer
    /// any top-k/page request over `q` without spending)?
    pub fn covers(&self, q: &Query) -> bool {
        self.live()
            .is_some_and(|inner| inner.drained.find(q).is_some())
    }

    /// Reclaim what was recorded under an older epoch now, instead of at
    /// the next write.
    pub fn purge_stale(&self) {
        drop(self.current());
    }

    /// Point-in-time statistics (live-entry counts are read under the read
    /// lock and are 0 while the stores hold a dead epoch; hit/miss counters
    /// are relaxed atomics).
    pub fn stats(&self) -> ShardStats {
        let inner = self.inner.read();
        let now = self.epoch();
        let live = |n: usize| if inner.epoch == now { n as u64 } else { 0 };
        ShardStats {
            epoch: now,
            watermark: self.watermark(),
            hits: self.hits.load(Ordering::Relaxed),
            synthesized: self.synthesized.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            responses: live(inner.responses.len()),
            drained: live(inner.drained.len()),
            results: live(inner.results.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, Interval, TupleId};

    fn t(id: u32, v: f64) -> Arc<Tuple> {
        Arc::new(Tuple::new(TupleId(id), vec![v], vec![]))
    }

    fn sel(lo: f64, hi: f64) -> Query {
        Query::all().and_range(AttrId(0), Interval::closed(lo, hi))
    }

    #[test]
    fn exact_replay_roundtrips() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        let key = RequestKey::top_k(&q);
        let tuples = vec![t(1, 3.0), t(2, 7.0)];
        assert!(s.lookup_response(&key, &q, 2).is_none());
        s.record_response(key.clone(), &q, 2, &tuples, true);
        let hit = s.lookup_response(&key, &q, 2).expect("recorded");
        assert!(!hit.synthesized);
        assert!(hit.more);
        assert_eq!(hit.tuples.len(), 2);
        assert_eq!(hit.tuples[0].id, TupleId(1));
    }

    #[test]
    fn non_overflow_topk_drains_and_synthesizes_subsumed() {
        let s = SourceShard::new();
        let wide = sel(0.0, 10.0);
        // Valid (non-overflow) answer: these three are ALL matches of `wide`.
        let all = vec![t(1, 1.0), t(2, 5.0), t(3, 9.0)];
        s.record_response(RequestKey::top_k(&wide), &wide, 5, &all, false);
        assert!(s.covers(&sel(2.0, 6.0)));
        // Narrower selection, k = 1: first match is t2, one more exists.
        let narrow = sel(2.0, 9.5);
        let r = s
            .lookup_response(&RequestKey::top_k(&narrow), &narrow, 1)
            .expect("synthesized");
        assert!(r.synthesized);
        assert!(r.more);
        assert_eq!(r.tuples.len(), 1);
        assert_eq!(r.tuples[0].id, TupleId(2));
        // Page 1 of the same narrow selection: the second match, no more.
        let r = s
            .lookup_response(&RequestKey::page(&narrow, 1), &narrow, 1)
            .expect("synthesized page");
        assert_eq!(r.tuples[0].id, TupleId(3));
        assert!(!r.more);
        // A selection escaping the drained region is a miss.
        assert!(s
            .lookup_response(&RequestKey::top_k(&sel(2.0, 20.0)), &sel(2.0, 20.0), 1)
            .is_none());
    }

    #[test]
    fn overlapping_drained_runs_synthesize_identically() {
        // Two drained selections in one system order, each subsuming the
        // probes: the index may answer from either, so a shard holding only
        // the first, only the second, or both must give the same bytes.
        let system = [t(4, 6.0), t(1, 2.0), t(3, 9.0), t(2, 5.0), t(5, 3.0)];
        let wides = [sel(0.0, 7.0), sel(1.0, 10.0)];
        let shards = [&wides[..1], &wides[1..], &wides[..]].map(|drained| {
            let s = SourceShard::new();
            for wide in drained {
                let run: Vec<_> = system.iter().filter(|t| wide.matches(t)).cloned().collect();
                s.record_response(RequestKey::top_k(wide), wide, 9, &run, false);
            }
            s
        });
        assert_eq!(shards[2].stats().drained, 2);
        for (narrow, page) in [(sel(1.5, 6.5), 0), (sel(1.5, 6.5), 1), (sel(2.0, 3.0), 0)] {
            let key = RequestKey::page(&narrow, page);
            let [a, b, c] = shards.each_ref().map(|s| {
                let r = s.lookup_response(&key, &narrow, 2).expect("subsumed");
                assert!(r.synthesized);
                (r.tuples.iter().map(|t| t.id).collect::<Vec<_>>(), r.more)
            });
            assert!(a == b && b == c, "{narrow} page {page}: {a:?} {b:?} {c:?}");
        }
    }

    #[test]
    fn first_write_under_a_new_epoch_reclaims_the_dead_one() {
        let s = SourceShard::new();
        for round in 0..5u32 {
            let q = sel(0.0, f64::from(round) + 1.0);
            s.record_response(RequestKey::top_k(&q), &q, 2, &[t(round, 0.5)], false);
            // Draining the same selection again replaces its run.
            s.record_response(RequestKey::top_k(&q), &q, 2, &[t(round, 0.5)], false);
            let st = s.stats();
            assert_eq!((st.responses, st.drained), (1, 1), "round {round}");
            s.invalidate();
            assert_eq!(s.stats().drained, 0);
        }
    }

    #[test]
    fn page_run_promotes_on_final_page() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        s.record_response(
            RequestKey::page(&q, 0),
            &q,
            2,
            &[t(1, 1.0), t(2, 2.0)],
            true,
        );
        assert!(!s.covers(&q));
        s.record_response(RequestKey::page(&q, 1), &q, 2, &[t(3, 3.0)], false);
        assert!(s.covers(&q));
        let narrow = sel(1.5, 10.0);
        let r = s
            .lookup_response(&RequestKey::top_k(&narrow), &narrow, 5)
            .expect("drained via pages");
        assert_eq!(
            r.tuples.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(!r.more);
    }

    #[test]
    fn out_of_order_pages_do_not_poison_the_run() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        // Page 1 before page 0: cached exactly, but no run accumulates.
        s.record_response(RequestKey::page(&q, 1), &q, 2, &[t(3, 3.0)], false);
        assert!(!s.covers(&q));
        s.record_response(
            RequestKey::page(&q, 0),
            &q,
            2,
            &[t(1, 1.0), t(2, 2.0)],
            true,
        );
        assert!(!s.covers(&q));
        // Now the contiguous tail arrives and the run completes.
        s.record_response(RequestKey::page(&q, 1), &q, 2, &[t(3, 3.0)], false);
        assert!(s.covers(&q));
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        let key = RequestKey::top_k(&q);
        s.record_response(key.clone(), &q, 2, &[t(1, 1.0)], false);
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, t(1, 1.0), 0);
        assert!(s.lookup_response(&key, &q, 2).is_some());
        assert!(s.lookup_result(&rk).is_some());
        assert!(s.covers(&q));
        let e = s.invalidate();
        assert_eq!(e, 1);
        assert_eq!(s.epoch(), 1);
        assert!(s.lookup_response(&key, &q, 2).is_none());
        assert!(s.lookup_result(&rk).is_none());
        assert!(!s.covers(&q));
        s.purge_stale();
        let st = s.stats();
        assert_eq!(st.responses, 0);
        assert_eq!(st.drained, 0);
        assert_eq!(st.results, 0);
    }

    #[test]
    fn watermark_advance_bumps_the_epoch_once() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        let key = RequestKey::top_k(&q);
        s.record_response(key.clone(), &q, 2, &[t(1, 1.0)], false);
        // Reporting the current (pristine) watermark changes nothing.
        assert!(!s.observe_watermark(0));
        assert_eq!(s.epoch(), 0);
        assert!(s.lookup_response(&key, &q, 2).is_some());
        // The source mutated: first reporter invalidates, the rest no-op.
        assert!(s.observe_watermark(3));
        assert!(!s.observe_watermark(3));
        assert!(!s.observe_watermark(2), "watermarks never regress");
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.watermark(), 3);
        assert!(s.lookup_response(&key, &q, 2).is_none());
        let st = s.stats();
        assert_eq!(st.watermark, 3);

        // Many threads racing the same advance bump the epoch exactly once.
        let s = std::sync::Arc::new(SourceShard::new());
        let advances: usize = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || s.observe_watermark(7))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(advances, 1);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn result_stream_appends_are_contiguous_only() {
        let s = SourceShard::new();
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, t(1, 1.0), 10);
        s.extend_result(&rk, 2, t(9, 9.0), 90); // gap: dropped
        s.extend_result(&rk, 1, t(2, 2.0), 20);
        let e = s.lookup_result(&rk).expect("live");
        assert_eq!(e.items.len(), 2);
        assert_eq!(e.items[1].0.id, TupleId(2));
        assert!(!e.exhausted);
        s.mark_result_exhausted(&rk, 1, 7, 7); // wrong length: ignored
        assert!(!s.lookup_result(&rk).unwrap().exhausted);
        s.mark_result_exhausted(&rk, 2, 7, 9);
        let sealed = s.lookup_result(&rk).unwrap();
        assert!(sealed.exhausted);
        assert_eq!(sealed.queries_full, 7);
        assert_eq!(sealed.cost_units_full, 9);
        // Sealed streams reject further appends.
        s.extend_result(&rk, 2, t(3, 3.0), 30);
        assert_eq!(s.lookup_result(&rk).unwrap().items.len(), 2);
    }

    #[test]
    fn ordered_requests_replay_exactly_but_never_synthesize() {
        let s = SourceShard::new();
        let wide = sel(0.0, 10.0);
        s.record_response(
            RequestKey::top_k(&wide),
            &wide,
            5,
            &[t(1, 1.0), t(2, 5.0)],
            false,
        );
        let narrow = sel(0.0, 6.0);
        let ok = RequestKey::ordered(&narrow, AttrId(0), qrs_types::Direction::Asc, 0);
        assert!(s.lookup_response(&ok, &narrow, 5).is_none());
        s.record_response(ok.clone(), &narrow, 5, &[t(1, 1.0)], true);
        let r = s.lookup_response(&ok, &narrow, 5).expect("exact ordered");
        assert!(r.more);
        assert_eq!(r.tuples.len(), 1);
    }
}
