//! # qrs-knowledge
//!
//! The cross-session **knowledge plane**: a concurrent, sharded store of
//! the exact result streams the reranking service has already *paid* to
//! derive from each source, so a repeated request stops re-buying them.
//!
//! The paper's premise (§3.1.1) is that third-party queries against a
//! hidden database are the scarce resource; a reranking *service* amortizes
//! them across users by remembering query history. Each service keeps that
//! history itself (`SharedState` in `qrs-core`); this crate shares whole
//! output streams across services and tenants:
//!
//! * [`KnowledgePlane`] — the top-level handle: one lock around a source
//!   name → shard map. A service resolves its shard once, when it is built,
//!   and every session reaches the shard through that `Arc`, so the map
//!   is off the session path.
//! * [`SourceShard`] — per-source knowledge: **learned result streams**
//!   (exact top-k outputs keyed by `(selection, rank, strategy)`), read
//!   when a session opens and extended as it emits.
//! * **Epoch invalidation** — every shard carries a generation counter;
//!   entries are stamped with the epoch they were recorded under and
//!   lookups reject older stamps. Invalidation is one atomic increment:
//!   O(1), no scan, and atomically covers *all* dependent entries.
//!
//! The crate is std-only (the workspace's `parking_lot` is the offline
//! shim over `std::sync`) and depends only on `qrs-types`; `qrs-service`
//! wires it into every session a service opens.

#![deny(missing_docs)]

pub mod key;
pub mod shard;

pub use key::{query_key, RequestKey, ResultKey};
pub use shard::{ResultEntry, ShardStats, SourceShard};

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregated statistics across every shard in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneStats {
    /// Number of source shards.
    pub sources: u64,
    /// [`SourceShard::lookup_response`] hits, summed over shards. Kept for
    /// the benchmark, which reads it; no production path looks a response
    /// up, so outside the benchmark's own shard leg it stays 0.
    pub hits: u64,
    /// Always 0: the plane answers only with what it was given. Kept for
    /// the benchmark, which reads it.
    pub synthesized: u64,
    /// [`SourceShard::lookup_response`] misses, summed over shards. Kept
    /// for the benchmark, like `hits`.
    pub misses: u64,
    /// Result-stream replays served, summed over shards.
    pub result_hits: u64,
}

/// The service-wide knowledge plane: one shard per source.
///
/// Cloneable by `Arc`: `RerankService` instances — a federation's sources
/// among them — share one plane by cloning the same `Arc<KnowledgePlane>`.
#[derive(Debug, Default)]
pub struct KnowledgePlane {
    shards: RwLock<HashMap<String, Arc<SourceShard>>>,
}

impl KnowledgePlane {
    /// An empty plane.
    pub fn new() -> Self {
        KnowledgePlane::default()
    }

    /// The shard for `source`, created empty on first use.
    pub fn shard(&self, source: &str) -> Arc<SourceShard> {
        if let Some(s) = self.get(source) {
            return s;
        }
        let mut w = self.shards.write();
        Arc::clone(w.entry(source.to_string()).or_default())
    }

    /// The shard for `source`, if one exists.
    pub fn get(&self, source: &str) -> Option<Arc<SourceShard>> {
        self.shards.read().get(source).cloned()
    }

    /// Bump `source`'s epoch, invalidating all knowledge recorded about it.
    /// A no-op (returning `None`) when the source has no shard yet.
    pub fn invalidate(&self, source: &str) -> Option<u64> {
        self.get(source).map(|s| s.invalidate())
    }

    /// Aggregated statistics across all shards.
    pub fn stats(&self) -> PlaneStats {
        let mut out = PlaneStats::default();
        for shard in self.shards.read().values() {
            let s = shard.stats();
            out.sources += 1;
            out.hits += s.hits;
            out.misses += s.misses;
            out.result_hits += s.result_hits;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, Interval, Query, Tuple, TupleId};
    use std::thread;

    #[test]
    fn shards_are_per_source_and_stable() {
        let plane = KnowledgePlane::new();
        let a1 = plane.shard("aggregator");
        let a2 = plane.shard("aggregator");
        let b = plane.shard("storefront");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(!Arc::ptr_eq(&a1, &b));
        assert_eq!(plane.stats().sources, 2);
        assert!(plane.get("missing").is_none());
        assert_eq!(plane.invalidate("missing"), None);
        assert_eq!(plane.invalidate("aggregator"), Some(1));
        assert_eq!(a1.epoch(), 1);
        assert_eq!(b.epoch(), 0);
        plane.invalidate("aggregator");
        plane.invalidate("storefront");
        assert_eq!(a1.epoch(), 2);
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    fn concurrent_first_touch_yields_one_shard() {
        let plane = Arc::new(KnowledgePlane::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&plane);
                thread::spawn(move || p.shard("contended"))
            })
            .collect();
        let shards: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for s in &shards[1..] {
            assert!(Arc::ptr_eq(&shards[0], s));
        }
        assert_eq!(plane.stats().sources, 1);
    }

    #[test]
    fn plane_stats_aggregate_over_shards() {
        let plane = KnowledgePlane::new();
        let q = Query::all().and_range(AttrId(0), Interval::closed(0.0, 1.0));
        let key = RequestKey::top_k(&q);
        let s = plane.shard("site");
        assert!(s.lookup_response(&key, &q, 2).is_none()); // miss
        s.record_response(
            key.clone(),
            &q,
            2,
            &[Arc::new(Tuple::new(TupleId(0), vec![0.5], vec![]))],
            false,
        );
        assert!(s.lookup_response(&key, &q, 2).is_some()); // hit
        let ps = plane.stats();
        assert_eq!(ps.sources, 1);
        assert_eq!(ps.hits, 1);
        assert_eq!(ps.misses, 1);
    }
}
