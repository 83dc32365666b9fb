//! Service-level counters: one relaxed atomic per fact. Totals are exact;
//! only a read taken while sessions run is a racy-but-monotonic snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic counter: lock-free and exact under concurrency.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    /// Add `v`.
    #[inline]
    fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add one and return the new total: each caller gets its own value,
    /// however many race.
    #[inline]
    fn incr(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The exact total so far.
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotonic counters describing service activity. All methods are lock-free
/// and safe to call from concurrent sessions.
#[derive(Debug, Default)]
pub struct ServiceStats {
    sessions_started: Counter,
    tuples_emitted: Counter,
    queries_spent: Counter,
    cost_units_spent: Counter,
    queries_saved: Counter,
    cost_units_saved: Counter,
    retries_spent: Counter,
    batches_served: Counter,
    requests_served: Counter,
}

/// Point-in-time snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions opened through `SessionBuilder::open` (refused opens are
    /// not counted).
    pub sessions_started: u64,
    /// Tuples emitted across all sessions.
    pub tuples_emitted: u64,
    /// Queries charged through this service's sessions (failed attempts'
    /// spend included — counted in-lock per cursor step, like the
    /// per-session `SessionStats`).
    pub queries_spent: u64,
    /// Weighted cost units charged through this service's sessions, under
    /// the server's advertised cost model. Equals `queries_spent` on flat
    /// sites; the number that matters on metered ones.
    pub cost_units_spent: u64,
    /// Queries saved by sessions that replayed a sealed result stream from
    /// the knowledge plane — zero unless the service was built
    /// `with_knowledge`.
    pub queries_saved: u64,
    /// Cost units of the same credits.
    pub cost_units_saved: u64,
    /// Retries spent across all sessions (the recovery effort the service
    /// has burned on transient server failures).
    pub retries_spent: u64,
    /// Concurrent batches accepted by `serve_batch`.
    pub batches_served: u64,
    /// Individual batch requests taken off the pool.
    pub requests_served: u64,
}

impl ServiceStats {
    /// Count an opened session and return its 1-based ordinal, which
    /// `SessionBuilder::open` mixes into the session's retry-jitter seed.
    pub(crate) fn on_session(&self) -> u64 {
        self.sessions_started.incr()
    }

    pub(crate) fn on_emit(&self) {
        self.tuples_emitted.incr();
    }

    pub(crate) fn on_spend(&self, queries: u64, cost_units: u64) {
        self.queries_spent.add(queries);
        self.cost_units_spent.add(cost_units);
    }

    pub(crate) fn on_saved(&self, queries: u64, cost_units: u64) {
        self.queries_saved.add(queries);
        self.cost_units_saved.add(cost_units);
    }

    pub(crate) fn on_retry(&self) {
        self.retries_spent.incr();
    }

    pub(crate) fn on_batch(&self) {
        self.batches_served.incr();
    }

    pub(crate) fn on_request(&self) {
        self.requests_served.incr();
    }

    /// Exact point-in-time totals (the read itself is a racy-but-monotonic
    /// snapshot, as with any concurrent counter).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_started: self.sessions_started.get(),
            tuples_emitted: self.tuples_emitted.get(),
            queries_spent: self.queries_spent.get(),
            cost_units_spent: self.cost_units_spent.get(),
            queries_saved: self.queries_saved.get(),
            cost_units_saved: self.cost_units_saved.get(),
            retries_spent: self.retries_spent.get(),
            batches_served: self.batches_served.get(),
            requests_served: self.requests_served.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServiceStats::default();
        s.on_session();
        s.on_emit();
        s.on_emit();
        s.on_spend(4, 9);
        s.on_spend(1, 1);
        s.on_saved(2, 6);
        s.on_retry();
        s.on_retry();
        s.on_retry();
        s.on_batch();
        s.on_request();
        s.on_request();
        let snap = s.snapshot();
        assert_eq!(snap.sessions_started, 1);
        assert_eq!(snap.tuples_emitted, 2);
        assert_eq!(snap.queries_spent, 5);
        assert_eq!(snap.cost_units_spent, 10);
        assert_eq!(snap.queries_saved, 2);
        assert_eq!(snap.cost_units_saved, 6);
        assert_eq!(snap.retries_spent, 3);
        assert_eq!(snap.batches_served, 1);
        assert_eq!(snap.requests_served, 2);
    }

    /// Racing opens each get their own ordinal (and so their own jitter
    /// seed): reading the total back after the increment could hand two
    /// of them the same one.
    #[test]
    fn racing_sessions_get_distinct_ordinals() {
        let s = ServiceStats::default();
        let start = std::sync::Barrier::new(8);
        let mut got: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..500).map(|_| s.on_session()).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        got.sort_unstable();
        assert_eq!(got, (1..=4000).collect::<Vec<u64>>());
        assert_eq!(s.snapshot().sessions_started, 4000);
    }
}
