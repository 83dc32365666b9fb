//! # qrs-types
//!
//! Shared data model for the *Query Reranking As A Service* reproduction
//! (Asudeh, Zhang, Das — VLDB 2016).
//!
//! The paper's setting is a client-server database `D` with `n` tuples over
//! `m` ordinal attributes `A1..Am` (plus categorical attributes `B1..Bm'`
//! usable only for filtering), exposed through a restricted *top-k* search
//! interface that accepts conjunctive range queries. This crate defines that
//! vocabulary:
//!
//! * [`Schema`], [`Tuple`], [`Dataset`] — the database contents,
//! * [`Interval`], [`Endpoint`] — open/closed/half-open ranges (§2.1 of the
//!   paper discusses why open ranges are the primitive),
//! * [`Query`] — conjunctions of range predicates on ordinal attributes and
//!   membership predicates on categorical attributes,
//! * [`RegionIndex`] — the containment index over selection boxes behind
//!   the core's complete-region registry: "is `q` subsumed by a region
//!   already known in full?",
//! * [`QueryOutcome`], [`QueryResponse`] — the trichotomy *underflow / valid /
//!   overflow* that every reranking algorithm branches on,
//! * [`RerankError`], [`ServerError`], [`Capability`] — the workspace-wide
//!   fallibility vocabulary: rate limits, capability negotiation, budgets,
//! * [`Mutation`], [`MutationKind`], [`MutationLog`] — the change-data-capture
//!   vocabulary a mutable source exposes: sequence-stamped inserts, deletes
//!   and updates that incremental top-k maintenance consumes,
//! * [`RetryPolicy`] — declarative retry/backoff configuration consumed by
//!   the `qrs-service` retry loop,
//! * [`CostModel`] — per-query-class unit costs a metered site advertises
//!   and charges by; the currency of the cost-based planner.
//!
//! Everything downstream (`qrs-server`, `qrs-core`, …) is written against
//! these types.

#![deny(missing_docs)]

pub mod capability;
pub mod cost;
pub mod dataset;
pub mod digits;
pub mod direction;
pub mod error;
pub mod interval;
pub mod mutation;
pub mod predicate;
pub mod query;
pub mod region;
pub mod response;
pub mod retry;
pub mod schema;
pub mod tuple;
pub mod value;

pub use capability::FilterSupport;
pub use cost::{CostModel, RequestKind};
pub use dataset::Dataset;
pub use direction::Direction;
pub use error::{Capability, RerankError, ServerError, TypeError};
pub use interval::{Endpoint, Interval};
pub use mutation::{Mutation, MutationKind, MutationLog};
pub use predicate::{CatPredicate, RangePredicate};
pub use query::{Conjunction, Query};
pub use region::{Region, RegionIndex};
pub use response::{QueryOutcome, QueryResponse};
pub use retry::RetryPolicy;
pub use schema::{AttrId, CatAttr, CatId, OrdinalAttr, Schema};
pub use tuple::{Tuple, TupleId};

#[cfg(test)]
mod proptests;
