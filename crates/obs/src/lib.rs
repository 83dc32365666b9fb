//! Event tracing for the reranking service.
//!
//! The paper's rerank-as-a-service model only pays off operationally when
//! the service can *see* what each session spends versus what the planner
//! predicted. This crate is that sight: a typed event vocabulary
//! ([`Event`]/[`EventKind`]) covering the whole session lifecycle (plan
//! chosen, requests issued/charged, retries and backoff,
//! knowledge hits/misses/seals, mutation repairs, budget
//! trips, open/close), the [`Subscriber`]s it fans out to, and a fleet
//! [`Monitor`] folding the stream into per-(site, strategy)
//! predicted-vs-actual spend tables with divergence ratios.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds an
//!    [`ObsHandle`]; a disabled handle is a `None`, so every emission site
//!    is one branch that skips even *constructing* the event. The service
//!    crate's tests assert the disabled path leaves query ledgers and
//!    result streams byte-identical.
//! 2. **Exact, not sampled.** Spend-carrying events
//!    ([`EventKind::RequestCharged`], [`EventKind::KnowledgeHit`]) carry
//!    the same in-lock ledger deltas the session/service stats accumulate,
//!    so monitor reports reconcile *exactly* against those ledgers.
//! 3. **Deterministic.** Timestamps come from the emitting service's
//!    injectable clock (passed in by callers — this crate reads no OS
//!    clock), and [`MonitorReport`] rows sort by (site, strategy).
//!
//! One subscriber ships with the crate: a bounded ring-buffer
//! [`Recorder`] (drop-oldest, tear-free) that tests and the benchmark fold
//! by hand.

#![deny(missing_docs)]

mod event;
mod handle;
mod monitor;
mod recorder;

pub use event::{BudgetScope, Event, EventKind, QueryClass};
pub use handle::{ObsBuilder, ObsHandle};
pub use monitor::{Divergence, Monitor, MonitorReport, MonitorRow};
pub use recorder::Recorder;

/// An event sink. Implementations must be cheap and non-blocking-ish:
/// `on_event` runs on the emitting (query-path) thread, after the built-in
/// monitor fold. Implementations must never panic — the observability
/// plane must not fail the query path it observes.
pub trait Subscriber: Send + Sync {
    /// Receive one event. The event is borrowed; clone it to keep it.
    fn on_event(&self, event: &Event);
}
