//! # qrs-server
//!
//! The substrate the paper's middleware runs against: an in-process
//! **client-server (hidden) database** exposing only the restricted search
//! interface of §2.1 — conjunctive range queries answered with at most `k`
//! tuples chosen by a *proprietary system ranking function* the reranker
//! knows nothing about.
//!
//! This replaces the paper's offline "Top-k web search interface constructed
//! over the DOT dataset" (§6.1) and the live Blue Nile / Yahoo! Autos
//! endpoints. It exactly preserves what matters to the algorithms:
//!
//! * the *underflow / valid / overflow* trichotomy,
//! * the opaque, possibly adversarial, system ranking,
//! * the **query counter** — the paper's one and only efficiency metric,
//! * optional extras real sites have — page turns and public `ORDER BY`
//!   ranking options (§5 "Multiple/Known System Ranking Functions") —
//!   advertised through [`Capabilities`] and *negotiated*, never assumed:
//!   a server that lacks a capability refuses with a typed
//!   [`qrs_types::ServerError`] instead of panicking,
//! * failure realism: rate limits and transient errors surface as
//!   `Result`s so real HTTP adapters slot in without panics,
//! * **fault injection**: [`FaultyServer`] wraps any interface and injects
//!   rate limits, outages and truncated pages from a deterministic,
//!   seeded schedule, with `retry_after_ms` windows enforceable against an
//!   injectable [`Clock`] — so retry/backoff machinery is tested end to
//!   end without wall-clock sleeping.
//!
//! [`adversary::AdversaryServer`] implements the query-answering mechanism
//! from the proof of Theorem 1, so the `n/k` lower bound is executable.

#![deny(missing_docs)]

pub mod adversary;
pub mod clock;
pub mod faulty;
pub mod interface;
pub mod profiles;
pub mod sim;
pub mod system_rank;

pub use adversary::AdversaryServer;
pub use clock::{Clock, MockClock, SystemClock};
pub use faulty::{Fault, FaultyServer};
pub use interface::{Capabilities, OrderedPage, SearchInterface};
pub use profiles::SiteProfile;
pub use sim::SimServer;
pub use system_rank::SystemRank;
