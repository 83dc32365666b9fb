//! The typed event vocabulary: everything the instrumented service layers
//! report, as plain data.
//!
//! Events are *facts*, not log lines: each one carries the exact ledger
//! deltas or state transition it describes, stamped with the emitting
//! service's injectable clock and its site name, so a fold over an event
//! stream (the [`crate::Monitor`], or a test's fold of a
//! [`crate::Recorder`]) reconciles exactly against the session and service
//! ledgers instead of being approximately parsed back out of text.

use std::sync::Arc;

/// The request class a session's strategy issues against the hidden
/// database, carried on every request event. Built-in strategies map 1:1
/// (cursor algorithms issue top-k probes, TA over public `ORDER BY` issues
/// ordered scans, page-down pages); a custom strategy may mix classes,
/// which is its own class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Top-`k` probe queries (the 1D/MD cursor families, TA over 1D).
    TopK,
    /// Page-down requests against the system ranking.
    Page,
    /// `ORDER BY` sorted-access scans (TA over public order).
    Ordered,
    /// A user-registered strategy whose request mix the service cannot
    /// know.
    Mixed,
}

/// Which cap produced a [`EventKind::BudgetTrip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetScope {
    /// The per-session query cap (`SessionBuilder::budget`).
    Session,
    /// The service-wide query cap (`RerankService::with_budget`).
    Service,
}

/// What happened. Every variant carries the exact numbers of the moment it
/// describes; fields named `queries`/`cost_units` are ledger *deltas*, not
/// running totals, so folds sum them without double counting.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A session opened (counted after all preflights passed).
    SessionOpen {
        /// The strategy the session drives, in the shared
        /// `qrs_core::strategy::names` vocabulary.
        strategy: String,
    },
    /// The planner (or the caller's explicit choice) committed to a
    /// strategy, with its plan-time cost estimate — the monitor's
    /// *predicted* column.
    PlanChosen {
        /// The chosen candidate's strategy name.
        strategy: String,
        /// Plan-time estimate of raw queries for the session's horizon.
        predicted_queries: u64,
        /// Plan-time estimate of weighted cost units.
        predicted_cost_units: u64,
    },
    /// A Get-Next pull began (one `Session::next` call).
    RequestIssued {
        /// The request class the session's strategy issues.
        class: QueryClass,
    },
    /// One strategy step charged the session's ledger. Emitted only for
    /// steps that actually spent (`queries > 0 || cost_units > 0`), so
    /// summing these deltas per session reproduces `SessionStats` exactly.
    RequestCharged {
        /// The request class the session's strategy issues.
        class: QueryClass,
        /// Raw queries this step charged.
        queries: u64,
        /// Weighted cost units this step charged.
        cost_units: u64,
    },
    /// A failed step is about to be retried.
    RetryAttempt {
        /// 1-based retry index within the current step.
        retry_index: u32,
    },
    /// The retry engine slept before re-attempting.
    BackoffSleep {
        /// Milliseconds slept (on the service's injectable clock).
        ms: u64,
        /// True when the server's `retry_after_ms` hint dictated the sleep
        /// (it dominates the computed backoff schedule).
        server_hinted: bool,
    },
    /// The knowledge plane answered instead of the server (request-level
    /// hits, or the one-shot full-replay credit of a sealed stream).
    KnowledgeHit {
        /// Queries answered for free.
        queries: u64,
        /// Cost units those queries would have been billed.
        cost_units: u64,
    },
    /// A knowledge-gated step had to pay the server (the plane had no
    /// answer). The deltas duplicate the step's [`EventKind::RequestCharged`]
    /// — this event exists so a subscriber reads a hit/miss ratio off the
    /// knowledge events alone, without joining them to the charges.
    KnowledgeMiss {
        /// Queries paid to the server.
        queries: u64,
        /// Cost units charged for them.
        cost_units: u64,
    },
    /// A session drained its stream and sealed the cached result entry for
    /// future whole-stream replays.
    KnowledgeSeal {
        /// Length of the sealed stream.
        items: u64,
        /// End-to-end query cost the sealing run paid (spent + saved).
        queries_full: u64,
        /// End-to-end weighted cost.
        cost_units_full: u64,
    },
    /// A `MaintainedSession::refresh` repaired (or re-drove) its
    /// materialized top-`h` after data change.
    MutationRepair {
        /// Feed deltas consumed.
        applied: u64,
        /// Replacement tuples pulled live to repair delete evictions.
        replacement_pulls: u64,
        /// True when the repair fell back to a full strategy re-drive.
        redrove: bool,
        /// Server queries the refresh spent.
        queries_spent: u64,
    },
    /// A query budget refused further spend.
    BudgetTrip {
        /// Which cap tripped.
        scope: BudgetScope,
        /// Spend at the moment of refusal.
        spent: u64,
        /// The cap.
        limit: u64,
    },
    /// A session was dropped; the final ledger totals ride along.
    SessionClose {
        /// Tuples emitted over the session's lifetime.
        emitted: u64,
        /// Final raw-query spend.
        queries_spent: u64,
        /// Final weighted cost spend.
        cost_units_spent: u64,
        /// Final knowledge savings (queries).
        queries_saved: u64,
        /// Final knowledge savings (cost units).
        cost_units_saved: u64,
    },
    /// A `serve_batch` call dispatched a batch of requests.
    BatchServed {
        /// Requests in the batch.
        requests: u64,
    },
    /// The HTTP edge admitted a wire batch past admission control.
    EdgeAdmitted {
        /// Requests in the admitted wire batch.
        requests: u64,
    },
    /// The HTTP edge refused a wire batch at the gate — before any query
    /// was issued or charged (capacity or tenant-budget admission).
    EdgeRejected {
        /// Stable refusal class: `"capacity"` or `"tenant_budget"`.
        reason: String,
    },
}

/// One observed fact: when (the emitting service's injectable clock),
/// where (site), who (session ordinal; 0 for service-level events), what
/// ([`EventKind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Clock reading at emission, in ms since the service clock's epoch.
    /// Deterministic under `MockClock`.
    pub at_ms: u64,
    /// The emitting service's site label (shared, cheap to clone).
    pub site: Arc<str>,
    /// Session ordinal within the emitting handle (1-based; 0 means the
    /// event is service-level, e.g. [`EventKind::BatchServed`]).
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
}
