//! Metrics: monotonic counters plus fixed-bucket log2 histograms, folded
//! from the event stream (and a direct latency hook).
//!
//! Every counter and every histogram bucket is one relaxed atomic
//! ([`Counter`], also the cell behind `qrs_service::ServiceStats`). Totals
//! are exact — every increment lands — so the reconciliation tests can
//! demand equality, not approximation, against the session ledgers; only a
//! *snapshot* taken while writers run is racy-but-monotonic. Nothing is
//! sharded per thread: every event is next folded into the monitor under
//! one mutex, so there is no contention here for sharding to remove.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{Event, EventKind};

/// Buckets per log2 histogram: bucket `i` holds values whose bit length is
/// `i` (bucket 0 = value 0, bucket 1 = value 1, bucket 2 = 2..=3, ...).
/// 32 buckets cover every latency/size this service can produce (2^31 ms
/// is ~24 days).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonic counter: lock-free and exact under concurrency.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The exact total so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram: one [`Counter`] per bucket.
#[derive(Debug, Default)]
struct Histogram([Counter; HISTOGRAM_BUCKETS]);

/// Bucket index for a value: its bit length, clamped to the top bucket.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    #[inline]
    fn record(&self, v: u64) {
        self.0[log2_bucket(v)].incr();
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0[i].get()),
        }
    }
}

/// Point-in-time copy of one histogram's buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per log2 bucket: bucket `i` holds values of bit length `i`
    /// (bucket 0 is exactly the zeros; the top bucket absorbs overflow).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive upper bound of bucket `i`'s value range (`u64::MAX` for
    /// the overflow bucket). Useful when rendering the histogram.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// The metrics plane: monotonic counters and histograms, updated by
/// folding [`Event`]s (plus one direct hook for per-pull latency, which is
/// measured at the `Session::next` wrapper rather than carried in an
/// event). All update paths are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    events: Counter,
    sessions_opened: Counter,
    sessions_closed: Counter,
    pulls: Counter,
    queries_by_class: [Counter; 4],
    cost_units_by_class: [Counter; 4],
    replans: Counter,
    retries: Counter,
    backoff_sleeps: Counter,
    backoff_slept_ms: Counter,
    circuit_trips: Counter,
    circuit_probes: Counter,
    knowledge_hits: Counter,
    knowledge_misses: Counter,
    knowledge_seals: Counter,
    queries_saved: Counter,
    cost_units_saved: Counter,
    mutation_repairs: Counter,
    replacement_pulls: Counter,
    redrives: Counter,
    budget_trips: Counter,
    batches: Counter,
    edge_admitted: Counter,
    edge_rejected: Counter,
    pull_latency_ms: Histogram,
    backoff_ms: Histogram,
}

/// Point-in-time snapshot of every counter and histogram in the registry.
/// Totals are exact (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Events folded into the registry, all kinds.
    pub events: u64,
    /// `SessionOpen` events seen.
    pub sessions_opened: u64,
    /// `SessionClose` events seen.
    pub sessions_closed: u64,
    /// Get-Next pulls timed through the latency hook.
    pub pulls: u64,
    /// Raw queries charged, by [`crate::QueryClass`] index.
    pub queries_by_class: [u64; 4],
    /// Weighted cost units charged, by [`crate::QueryClass`] index.
    pub cost_units_by_class: [u64; 4],
    /// Divergence-triggered mid-flight strategy switches.
    pub replans: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Backoff sleeps taken.
    pub backoff_sleeps: u64,
    /// Total milliseconds slept in backoff (injectable-clock time).
    pub backoff_slept_ms: u64,
    /// Circuit-breaker trips.
    pub circuit_trips: u64,
    /// Half-open circuit probes admitted.
    pub circuit_probes: u64,
    /// Knowledge-plane hits (request-level and full-replay credits).
    pub knowledge_hits: u64,
    /// Knowledge-gated steps that had to pay the server.
    pub knowledge_misses: u64,
    /// Result streams sealed for whole-stream replay.
    pub knowledge_seals: u64,
    /// Queries answered from the knowledge plane instead of the server.
    pub queries_saved: u64,
    /// Cost units those hits would have been billed.
    pub cost_units_saved: u64,
    /// `MaintainedSession::refresh` repairs observed.
    pub mutation_repairs: u64,
    /// Replacement tuples pulled live during repairs.
    pub replacement_pulls: u64,
    /// Repairs that fell back to a full strategy re-drive.
    pub redrives: u64,
    /// Budget refusals (session, service, or retry scope).
    pub budget_trips: u64,
    /// Batches dispatched through `serve_batch`.
    pub batches: u64,
    /// Wire batches admitted past the HTTP edge's admission control.
    pub edge_admitted: u64,
    /// Wire batches refused at the edge gate, uncharged.
    pub edge_rejected: u64,
    /// Per-pull latency distribution (ms, log2 buckets).
    pub pull_latency_ms: HistogramSnapshot,
    /// Backoff sleep distribution (ms, log2 buckets).
    pub backoff_ms: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Raw queries charged, summed over all classes.
    pub fn queries_total(&self) -> u64 {
        self.queries_by_class.iter().sum()
    }

    /// Weighted cost units charged, summed over all classes.
    pub fn cost_units_total(&self) -> u64 {
        self.cost_units_by_class.iter().sum()
    }
}

impl MetricsRegistry {
    /// Fold one event into the counters. Lock-free; called on the emitting
    /// thread before subscriber fan-out.
    pub fn fold(&self, event: &Event) {
        self.events.incr();
        match &event.kind {
            EventKind::SessionOpen { .. } => self.sessions_opened.incr(),
            EventKind::PlanChosen { .. } => {}
            EventKind::Replanned { .. } => self.replans.incr(),
            EventKind::RequestIssued { .. } => {}
            EventKind::RequestCharged {
                class,
                queries,
                cost_units,
            } => {
                self.queries_by_class[class.index()].add(*queries);
                self.cost_units_by_class[class.index()].add(*cost_units);
            }
            EventKind::RetryAttempt { .. } => self.retries.incr(),
            EventKind::BackoffSleep { ms, .. } => {
                self.backoff_sleeps.incr();
                self.backoff_slept_ms.add(*ms);
                self.backoff_ms.record(*ms);
            }
            EventKind::CircuitTrip { .. } => self.circuit_trips.incr(),
            EventKind::CircuitProbe { .. } => self.circuit_probes.incr(),
            EventKind::KnowledgeHit {
                queries,
                cost_units,
            } => {
                self.knowledge_hits.incr();
                self.queries_saved.add(*queries);
                self.cost_units_saved.add(*cost_units);
            }
            EventKind::KnowledgeMiss { .. } => self.knowledge_misses.incr(),
            EventKind::KnowledgeSeal { .. } => self.knowledge_seals.incr(),
            EventKind::MutationRepair {
                replacement_pulls,
                redrove,
                ..
            } => {
                self.mutation_repairs.incr();
                self.replacement_pulls.add(*replacement_pulls);
                if *redrove {
                    self.redrives.incr();
                }
            }
            EventKind::BudgetTrip { .. } => self.budget_trips.incr(),
            EventKind::SessionClose { .. } => self.sessions_closed.incr(),
            EventKind::BatchServed { .. } => self.batches.incr(),
            EventKind::EdgeAdmitted { .. } => self.edge_admitted.incr(),
            EventKind::EdgeRejected { .. } => self.edge_rejected.incr(),
        }
    }

    /// Record one Get-Next pull's wall latency (ms). Separate from the
    /// event fold because latency is measured by the `Session::next`
    /// wrapper around the whole pull, not inside any single event.
    pub fn record_pull(&self, latency_ms: u64) {
        self.pulls.incr();
        self.pull_latency_ms.record(latency_ms);
    }

    /// Exact point-in-time totals (see the module docs for the
    /// racy-but-monotonic caveat on concurrent snapshots).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events: self.events.get(),
            sessions_opened: self.sessions_opened.get(),
            sessions_closed: self.sessions_closed.get(),
            pulls: self.pulls.get(),
            queries_by_class: std::array::from_fn(|i| self.queries_by_class[i].get()),
            cost_units_by_class: std::array::from_fn(|i| self.cost_units_by_class[i].get()),
            replans: self.replans.get(),
            retries: self.retries.get(),
            backoff_sleeps: self.backoff_sleeps.get(),
            backoff_slept_ms: self.backoff_slept_ms.get(),
            circuit_trips: self.circuit_trips.get(),
            circuit_probes: self.circuit_probes.get(),
            knowledge_hits: self.knowledge_hits.get(),
            knowledge_misses: self.knowledge_misses.get(),
            knowledge_seals: self.knowledge_seals.get(),
            queries_saved: self.queries_saved.get(),
            cost_units_saved: self.cost_units_saved.get(),
            mutation_repairs: self.mutation_repairs.get(),
            replacement_pulls: self.replacement_pulls.get(),
            redrives: self.redrives.get(),
            budget_trips: self.budget_trips.get(),
            batches: self.batches.get(),
            edge_admitted: self.edge_admitted.get(),
            edge_rejected: self.edge_rejected.get(),
            pull_latency_ms: self.pull_latency_ms.snapshot(),
            backoff_ms: self.backoff_ms.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryClass;
    use std::sync::Arc;

    #[test]
    fn log2_buckets_partition_the_u64_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(0), 0);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(1), 1);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(10), 1023);
        assert_eq!(
            HistogramSnapshot::bucket_upper_bound(HISTOGRAM_BUCKETS - 1),
            u64::MAX
        );
    }

    #[test]
    fn fold_routes_each_kind_to_its_counter() {
        let m = MetricsRegistry::default();
        let site: Arc<str> = Arc::from("s");
        let ev = |kind| Event {
            at_ms: 0,
            site: Arc::clone(&site),
            session: 1,
            kind,
        };
        m.fold(&ev(EventKind::SessionOpen {
            strategy: "1d-rerank".into(),
        }));
        m.fold(&ev(EventKind::RequestCharged {
            class: QueryClass::TopK,
            queries: 3,
            cost_units: 7,
        }));
        m.fold(&ev(EventKind::RequestCharged {
            class: QueryClass::Ordered,
            queries: 2,
            cost_units: 2,
        }));
        m.fold(&ev(EventKind::Replanned {
            from_strategy: "ta-order-by".into(),
            to_strategy: "md-rerank".into(),
            at_emitted: 2,
            queries_spent: 6,
            cost_units_spent: 18,
        }));
        m.fold(&ev(EventKind::RetryAttempt { retry_index: 1 }));
        m.fold(&ev(EventKind::BackoffSleep {
            ms: 600,
            server_hinted: false,
        }));
        m.fold(&ev(EventKind::KnowledgeHit {
            queries: 5,
            cost_units: 9,
        }));
        m.fold(&ev(EventKind::MutationRepair {
            applied: 4,
            replacement_pulls: 2,
            redrove: true,
            queries_spent: 2,
        }));
        m.fold(&ev(EventKind::BudgetTrip {
            scope: crate::BudgetScope::Session,
            spent: 10,
            limit: 10,
        }));
        m.fold(&ev(EventKind::SessionClose {
            emitted: 5,
            queries_spent: 5,
            cost_units_spent: 9,
            queries_saved: 5,
            cost_units_saved: 9,
        }));
        m.record_pull(3);
        m.record_pull(900);

        let s = m.snapshot();
        assert_eq!(s.events, 10);
        assert_eq!(s.replans, 1);
        assert_eq!(s.sessions_opened, 1);
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.queries_by_class[QueryClass::TopK.index()], 3);
        assert_eq!(s.cost_units_by_class[QueryClass::TopK.index()], 7);
        assert_eq!(s.queries_by_class[QueryClass::Ordered.index()], 2);
        assert_eq!(s.queries_total(), 5);
        assert_eq!(s.cost_units_total(), 9);
        assert_eq!(s.retries, 1);
        assert_eq!(s.backoff_sleeps, 1);
        assert_eq!(s.backoff_slept_ms, 600);
        assert_eq!(s.backoff_ms.count(), 1);
        assert_eq!(s.knowledge_hits, 1);
        assert_eq!(s.queries_saved, 5);
        assert_eq!(s.cost_units_saved, 9);
        assert_eq!(s.mutation_repairs, 1);
        assert_eq!(s.replacement_pulls, 2);
        assert_eq!(s.redrives, 1);
        assert_eq!(s.budget_trips, 1);
        assert_eq!(s.pulls, 2);
        assert_eq!(s.pull_latency_ms.count(), 2);
        assert_eq!(s.pull_latency_ms.buckets[log2_bucket(3)], 1);
        assert_eq!(s.pull_latency_ms.buckets[log2_bucket(900)], 1);
    }

    #[test]
    fn totals_are_exact_across_threads() {
        let m = Arc::new(MetricsRegistry::default());
        let site: Arc<str> = Arc::from("s");
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let m = Arc::clone(&m);
                let site = Arc::clone(&site);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        m.fold(&Event {
                            at_ms: i,
                            site: Arc::clone(&site),
                            session: 1,
                            kind: EventKind::RequestCharged {
                                class: QueryClass::TopK,
                                queries: 1,
                                cost_units: 2,
                            },
                        });
                        m.record_pull(i % 512);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.events, 16_000);
        assert_eq!(s.queries_total(), 16_000);
        assert_eq!(s.cost_units_total(), 32_000);
        assert_eq!(s.pulls, 16_000);
        assert_eq!(s.pull_latency_ms.count(), 16_000);
    }
}
