//! # qrs-service
//!
//! The "as a service" layer (§1, §2.2): a thread-safe facade that fronts one
//! client-server database and serves many users' reranked queries, sharing
//! the query history and the regions known in full across all of them —
//! the amortization that makes the middleware economical.
//!
//! * [`RerankService`] — owns the shared state behind a [`parking_lot`]
//!   mutex and hands out [`session::Session`]s through a preflighted
//!   [`SessionBuilder`]: algorithm/ranking mismatches and missing server
//!   capabilities surface as typed [`qrs_types::RerankError`]s at
//!   [`SessionBuilder::open`], never as panics mid-stream,
//! * [`session::Session`] — one user query + ranking function, consumed
//!   incrementally Get-Next-style; `top` returns partial results alongside
//!   the error when a budget trips or the server fails mid-batch,
//! * [`budget::QueryBudget`] — rate-limit accounting mirroring real sites'
//!   per-user daily query caps (the paper's motivating constraint),
//! * retries — one [`qrs_types::RetryPolicy`] per service
//!   ([`RerankService::with_retry_policy`]): transient server failures are
//!   retried in place with exponential backoff + deterministic jitter,
//!   honoring `retry_after_ms`, up to the policy's `max_attempts` per
//!   Get-Next step, sleeping on an injectable clock so tests never wait
//!   wall-clock time,
//! * [`federation`] — one preference over *multiple* hidden databases with
//!   exact score-merged results: the paper's "personalized ranking across
//!   multiple web databases" application, end to end; an error from any
//!   source propagates and a retry resumes the merge exactly,
//! * [`batch`] — the concurrent front-end: [`RerankService::serve_batch`]
//!   runs many sessions in parallel on a `qrs-exec` pool against the
//!   shared knowledge and budgets, with exact per-request accounting,
//! * [`maintained`] — incremental top-k maintenance under data change: a
//!   [`MaintainedSession`] consumes the server's mutation feed and
//!   delta-repairs an exact materialized top-`h` (paying per *change*),
//!   falling back to a full re-drive only on a compacted delta log or a
//!   positional strategy,
//! * observability — [`RerankService::with_observer`] attaches a
//!   [`qrs_obs::ObsHandle`]: the session lifecycle, every charged request,
//!   retries, knowledge replays and budget trips stream out as
//!   typed events, and [`RerankService::monitor_report`] folds them into
//!   the fleet's predicted-vs-actual spend table. Disabled (the default),
//!   every emission site is a single branch that constructs nothing.

#![deny(missing_docs)]

pub mod batch;
pub mod budget;
pub mod federation;
pub mod maintained;
pub mod planner;
mod retry;
pub mod service;
pub mod session;
pub mod stats;

pub use batch::{BatchOutcome, BatchRequest};
pub use budget::QueryBudget;
pub use federation::{FederatedHit, FederatedSession};
pub use maintained::{MaintainedSession, RefreshOutcome};
pub use planner::{Plan, Planner, RankedCandidate};
pub use service::{Algorithm, RerankService, SessionBuilder};
pub use session::{RankedTuple, Session, SessionStats};
pub use stats::ServiceStats;
// The strategy vocabulary sessions are driven by — re-exported so callers
// registering a custom strategy need only this crate.
pub use qrs_core::strategy::{CostEstimate, PlanContext, RerankStrategy, StrategyIo, StrategyStep};
// The knowledge plane: build one, share it across services (and processes'
// worth of tenants) via `RerankService::with_knowledge`.
pub use qrs_knowledge::{KnowledgePlane, PlaneStats, ShardStats, SourceShard};
// The observability plane: build an `ObsHandle` (optionally with extra
// subscribers), attach via `RerankService::with_observer`, read the fleet
// table via `RerankService::monitor_report`.
pub use qrs_obs::{
    Event, EventKind, Monitor, MonitorReport, MonitorRow, ObsHandle, Recorder, Subscriber,
};
