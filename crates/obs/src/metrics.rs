//! Lock-striped metrics: monotonic counters plus fixed-bucket log2
//! histograms, folded from the event stream (and a direct latency hook).
//!
//! The striping scheme ([`StripedU64`], also the cell behind
//! `qrs_service::ServiceStats`): each logical counter is an array of
//! cache-line-padded atomic cells, every thread picks one cell round-robin
//! at first touch, and reads sum the cells. Workers on different cores
//! therefore stop bouncing one cache line per bookkeeping call — the
//! classic false-sharing fix. Totals are exact — every increment lands in
//! exactly one cell — so the reconciliation tests can demand equality, not
//! approximation, against the session ledgers. Only the *snapshot* is
//! racy-but-monotonic, which a single atomic would be too.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::event::{Event, EventKind};

/// Cells per striped counter; a small power of two (the executor defaults
/// to one worker per core and threads spread round-robin).
const STRIPES: usize = 8;

/// Buckets per log2 histogram: bucket `i` holds values whose bit length is
/// `i` (bucket 0 = value 0, bucket 1 = value 1, bucket 2 = 2..=3, ...).
/// 32 buckets cover every latency/size this service can produce (2^31 ms
/// is ~24 days).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// One cache line worth of counter; the alignment keeps two cells from
/// sharing a line, which is the whole point of striping.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// Round-robin assignment of threads to stripe slots, fixed at a thread's
/// first increment.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// A monotonic counter sharded across padded cells: lock-free, exact under
/// concurrency, contention-free across threads in different slots.
#[derive(Debug, Default)]
pub struct StripedU64 {
    cells: [PaddedCell; STRIPES],
}

impl StripedU64 {
    /// Add `v` to the calling thread's cell.
    #[inline]
    pub fn add(&self, v: u64) {
        STRIPE.with(|s| self.cells[*s].0.fetch_add(v, Ordering::Relaxed));
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The exact total so far: the sum over the cells.
    pub fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A fixed-bucket log2 histogram, striped the same way as the counters:
/// each stripe owns a full row of buckets (padded rows, so two threads in
/// different slots never touch the same line), and a snapshot sums rows
/// bucket-wise.
#[derive(Debug, Default)]
struct StripedHistogram {
    rows: [PaddedRow; STRIPES],
}

/// One stripe's bucket row, padded out to its own cache-line region.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedRow([AtomicU64; HISTOGRAM_BUCKETS]);

impl Default for PaddedRow {
    fn default() -> Self {
        PaddedRow(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// Bucket index for a value: its bit length, clamped to the top bucket.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl StripedHistogram {
    #[inline]
    fn record(&self, v: u64) {
        let b = log2_bucket(v);
        STRIPE.with(|s| self.rows[*s].0[b].fetch_add(1, Ordering::Relaxed));
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for row in &self.rows {
            for (acc, cell) in buckets.iter_mut().zip(row.0.iter()) {
                *acc += cell.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot { buckets }
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

/// The metrics plane: striped monotonic counters and histograms, updated by
/// folding [`Event`]s (plus one direct hook for per-pull latency, which is
/// measured at the `Session::next` wrapper rather than carried in an
/// event). All update paths are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    events: StripedU64,
    sessions_opened: StripedU64,
    sessions_closed: StripedU64,
    pulls: StripedU64,
    queries_by_class: [StripedU64; 4],
    cost_units_by_class: [StripedU64; 4],
    replans: StripedU64,
    retries: StripedU64,
    backoff_sleeps: StripedU64,
    backoff_slept_ms: StripedU64,
    circuit_trips: StripedU64,
    circuit_probes: StripedU64,
    knowledge_hits: StripedU64,
    knowledge_misses: StripedU64,
    knowledge_seals: StripedU64,
    queries_saved: StripedU64,
    cost_units_saved: StripedU64,
    mutation_repairs: StripedU64,
    replacement_pulls: StripedU64,
    redrives: StripedU64,
    budget_trips: StripedU64,
    batches: StripedU64,
    edge_admitted: StripedU64,
    edge_rejected: StripedU64,
    pull_latency_ms: StripedHistogram,
    backoff_ms: StripedHistogram,
}

/// Point-in-time snapshot of every counter and histogram in the registry.
/// Sum-on-read totals are exact (see the module docs).
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
            events: self.events.sum(),
            sessions_opened: self.sessions_opened.sum(),
            sessions_closed: self.sessions_closed.sum(),
            pulls: self.pulls.sum(),
            queries_by_class: std::array::from_fn(|i| self.queries_by_class[i].sum()),
            cost_units_by_class: std::array::from_fn(|i| self.cost_units_by_class[i].sum()),
            replans: self.replans.sum(),
            retries: self.retries.sum(),
            backoff_sleeps: self.backoff_sleeps.sum(),
            backoff_slept_ms: self.backoff_slept_ms.sum(),
            circuit_trips: self.circuit_trips.sum(),
            circuit_probes: self.circuit_probes.sum(),
            knowledge_hits: self.knowledge_hits.sum(),
            knowledge_misses: self.knowledge_misses.sum(),
            knowledge_seals: self.knowledge_seals.sum(),
            queries_saved: self.queries_saved.sum(),
            cost_units_saved: self.cost_units_saved.sum(),
            mutation_repairs: self.mutation_repairs.sum(),
            replacement_pulls: self.replacement_pulls.sum(),
            redrives: self.redrives.sum(),
            budget_trips: self.budget_trips.sum(),
            batches: self.batches.sum(),
            edge_admitted: self.edge_admitted.sum(),
            edge_rejected: self.edge_rejected.sum(),
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
    fn padded_cells_do_not_share_cache_lines() {
        // The de-contention argument rests on cell alignment; pin it.
        assert_eq!(std::mem::align_of::<PaddedCell>(), 64);
        assert!(std::mem::size_of::<StripedU64>() >= STRIPES * 64);
    }

    #[test]
    fn striped_totals_are_exact_across_threads() {
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
