//! One source's shard: the exact result streams sessions of any service
//! attached to the source have emitted, replayed to later sessions.
//!
//! A [`SourceShard`] is touched twice per session and never in between:
//! once when the session opens (one [`SourceShard::lookup_result`]), and
//! once per tuple it emits ([`SourceShard::extend_result`]), plus a seal
//! when its stream ends. What a session asks the site on the way is the
//! service's own business — its `SharedState` in `qrs-core` — and never
//! reaches the shard.
//!
//! The result streams are keyed by `(selection, rank, strategy)` and
//! guarded by the shard's **epoch**: they remember the single epoch they
//! were recorded under, and every lookup misses while that is older than
//! the current one. [`SourceShard::invalidate`] is therefore a single
//! atomic increment — O(1), no lock, no scanning — and the first write
//! under the new epoch (or [`SourceShard::purge_stale`]) clears the dead
//! epoch wholesale, so the shard never holds more than one epoch's worth.
//!
//! The shard also keeps a map of exact top-`k` responses
//! ([`SourceShard::record_response`] / [`SourceShard::lookup_response`])
//! under the same epoch. No request path reads or writes it; it is kept
//! for the benchmark, which times the shard on its own.

use crate::key::{RequestKey, ResultKey};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use qrs_types::{Query, QueryResponse, Tuple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Queries the sealing run paid end to end — what a session replaying
    /// this exhausted stream avoids spending. Zero until sealed.
    pub queries_full: u64,
    /// Cost units of the same full run, under the site's cost model.
    pub cost_units_full: u64,
}

#[derive(Debug, Default)]
struct ShardInner {
    /// The epoch everything below was recorded under.
    epoch: u64,
    responses: HashMap<RequestKey, QueryResponse>,
    results: HashMap<ResultKey, ResultEntry>,
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
    /// [`SourceShard::lookup_response`] calls that found an answer (the
    /// benchmark's leg; no production caller).
    pub hits: u64,
    /// [`SourceShard::lookup_response`] calls that found none.
    pub misses: u64,
    /// Result-cache lookups that found a live entry.
    pub result_hits: u64,
    /// Live entries of the benchmark's response map.
    pub responses: u64,
    /// Live cached result streams.
    pub results: u64,
}

/// Every result stream learned about one source, behind one lock + one
/// epoch.
///
/// A lookup takes the lock in read mode only; result-stream extensions
/// take it in write mode. Invalidation never takes the lock at all.
#[derive(Debug, Default)]
pub struct SourceShard {
    epoch: AtomicU64,
    /// Highest source mutation sequence number any client has reported.
    /// Advancing it bumps the epoch — data change invalidates knowledge
    /// automatically, no manual `invalidate` call required.
    watermark: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    result_hits: AtomicU64,
    inner: RwLock<ShardInner>,
}

impl SourceShard {
    /// A fresh, empty shard at epoch 0. Kept for the benchmark, which
    /// times the shard on its own.
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
    /// Kept for the benchmark, which times it.
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

    /// The stores for writing on behalf of a session that opened under
    /// `epoch`, or `None` once the shard has moved past it: what such a
    /// session derives may describe the data before the change.
    fn current_at(&self, epoch: u64) -> Option<RwLockWriteGuard<'_, ShardInner>> {
        let inner = self.current();
        (inner.epoch == epoch).then_some(inner)
    }

    /// The highest source mutation sequence number observed so far.
    #[inline]
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Report the source's current mutation sequence number. If `seq`
    /// advances the recorded watermark, everything in the shard describes
    /// an older snapshot and the epoch is bumped — by exactly one thread,
    /// however many services race the same advance (the CAS loser observes
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

    /// The exact answer recorded for `key` under the current epoch, if any.
    ///
    /// Kept, with this argument list, for the benchmark, which times it
    /// directly; it has no production caller. `_q` and `_k` are unused.
    pub fn lookup_response(
        &self,
        key: &RequestKey,
        _q: &Query,
        _k: usize,
    ) -> Option<QueryResponse> {
        let found = self
            .live()
            .and_then(|inner| inner.responses.get(key).cloned());
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Record the site's answer to one paid top-`k` request; `more` is its
    /// overflow bit.
    ///
    /// Kept, with this argument list, for the benchmark, which times it
    /// directly; it has no production caller. `_q` and `_k` are unused.
    pub fn record_response(
        &self,
        key: RequestKey,
        _q: &Query,
        _k: usize,
        tuples: &[Arc<Tuple>],
        more: bool,
    ) {
        let resp = QueryResponse::new(tuples.to_vec(), more);
        self.current().responses.insert(key, resp);
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

    /// Append the `index`-th emission of a result stream derived by a
    /// session opened under `epoch`. The append is accepted only while
    /// `epoch` is current, the append is contiguous (`index` equals the
    /// entry's length) and the entry does not hold the tuple yet —
    /// concurrent sessions racing on the same stream therefore converge on
    /// one consistent prefix instead of interleaving, and a session that
    /// spans a data change never seeds the new epoch. The last check is
    /// for sessions that order a tie group differently: one appends `x`
    /// at `p`, the other's `y` at `p` is refused, and its `x` at `p + 1`
    /// must be refused too.
    pub fn extend_result(
        &self,
        key: &ResultKey,
        epoch: u64,
        index: usize,
        tuple: Arc<Tuple>,
        score_bits: u64,
    ) {
        let Some(mut inner) = self.current_at(epoch) else {
            return;
        };
        let e = inner.results.entry(key.clone()).or_default();
        let held = e.items.iter().any(|(t, _)| t.id == tuple.id);
        if !e.exhausted && e.items.len() == index && !held {
            e.items.push((tuple, score_bits));
        }
    }

    /// Mark a result stream, derived by a session opened under `epoch`, as
    /// complete after `len` emissions, recording what the sealing run paid
    /// end to end (`queries_full` / `cost_units_full`) so fully-replayed
    /// sessions can attribute their savings.
    /// Ignored unless `epoch` is current and the entry's recorded prefix
    /// has exactly that length (a shorter racing prefix must not be sealed
    /// early).
    pub fn mark_result_exhausted(
        &self,
        key: &ResultKey,
        epoch: u64,
        len: usize,
        queries_full: u64,
        cost_units_full: u64,
    ) {
        let Some(mut inner) = self.current_at(epoch) else {
            return;
        };
        let e = inner.results.entry(key.clone()).or_default();
        if e.items.len() == len {
            e.exhausted = true;
            e.queries_full = queries_full;
            e.cost_units_full = cost_units_full;
        }
    }

    /// Reclaim what was recorded under an older epoch now, instead of at
    /// the next write. Kept for the benchmark, which times it.
    pub fn purge_stale(&self) {
        drop(self.current());
    }

    /// Point-in-time statistics (live-entry counts are read under the read
    /// lock and are 0 while the stores hold a dead epoch; hit counters are
    /// relaxed atomics).
    pub fn stats(&self) -> ShardStats {
        let inner = self.inner.read();
        let now = self.epoch();
        let live = |n: usize| if inner.epoch == now { n as u64 } else { 0 };
        ShardStats {
            epoch: now,
            watermark: self.watermark(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            responses: live(inner.responses.len()),
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
        assert!(hit.is_overflow());
        assert_eq!(hit.tuples.len(), 2);
        assert_eq!(hit.tuples[0].id, TupleId(1));
    }

    #[test]
    fn first_write_under_a_new_epoch_reclaims_the_dead_one() {
        let s = SourceShard::new();
        for round in 0..5u32 {
            let q = sel(0.0, f64::from(round) + 1.0);
            s.record_response(RequestKey::top_k(&q), &q, 2, &[t(round, 0.5)], false);
            // Recording the same request again replaces its answer.
            s.record_response(RequestKey::top_k(&q), &q, 2, &[t(round, 0.5)], false);
            assert_eq!(s.stats().responses, 1, "round {round}");
            s.invalidate();
            assert_eq!(s.stats().responses, 0);
        }
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
        s.extend_result(&rk, 0, 0, t(1, 1.0), 0);
        assert!(s.lookup_response(&key, &q, 2).is_some());
        assert!(s.lookup_result(&rk).is_some());
        let e = s.invalidate();
        assert_eq!(e, 1);
        assert_eq!(s.epoch(), 1);
        assert!(s.lookup_response(&key, &q, 2).is_none());
        assert!(s.lookup_result(&rk).is_none());
        s.purge_stale();
        let st = s.stats();
        assert_eq!(st.responses, 0);
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
    fn result_stream_appends_are_contiguous_and_distinct_only() {
        let s = SourceShard::new();
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, 0, t(1, 1.0), 10);
        s.extend_result(&rk, 0, 2, t(9, 9.0), 90); // gap: dropped
        s.extend_result(&rk, 0, 1, t(1, 1.0), 10); // already held: dropped
        s.extend_result(&rk, 0, 1, t(2, 2.0), 20);
        let e = s.lookup_result(&rk).expect("live");
        assert_eq!(e.items.len(), 2);
        assert_eq!(e.items[1].0.id, TupleId(2));
        assert!(!e.exhausted);
        s.mark_result_exhausted(&rk, 0, 1, 7, 7); // wrong length: ignored
        assert!(!s.lookup_result(&rk).unwrap().exhausted);
        s.mark_result_exhausted(&rk, 0, 2, 7, 9);
        let sealed = s.lookup_result(&rk).unwrap();
        assert!(sealed.exhausted);
        assert_eq!(sealed.queries_full, 7);
        assert_eq!(sealed.cost_units_full, 9);
        // Sealed streams reject further appends.
        s.extend_result(&rk, 0, 2, t(3, 3.0), 30);
        assert_eq!(s.lookup_result(&rk).unwrap().items.len(), 2);
    }

    #[test]
    fn writes_from_a_past_epoch_are_dropped() {
        // A session opened under epoch 0 keeps deriving after the data
        // changed: nothing it records may seed epoch 1.
        let s = SourceShard::new();
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, 0, t(1, 1.0), 10);
        s.invalidate();
        s.extend_result(&rk, 0, 0, t(1, 1.0), 10);
        s.mark_result_exhausted(&rk, 0, 0, 1, 1);
        assert!(s.lookup_result(&rk).is_none());
        s.extend_result(&rk, 1, 0, t(2, 2.0), 20);
        assert_eq!(
            s.lookup_result(&rk).expect("live").items[0].0.id,
            TupleId(2)
        );
    }
}
