//! # query-reranking
//!
//! Umbrella crate for the *Query Reranking As A Service* reproduction
//! (Asudeh, Zhang, Das — VLDB 2016). Re-exports every subsystem crate so
//! examples and downstream users need a single dependency:
//!
//! * [`types`] — tuples, schemas, intervals, conjunctive queries,
//! * [`ranking`] — monotonic user ranking functions and contour solvers,
//! * [`server`] — the simulated hidden-database top-k search interface,
//! * [`datagen`] — synthetic datasets and query workloads,
//! * [`core`] — the reranking algorithms (1D/MD baseline, binary, RERANK),
//! * [`knowledge`] — the sharded cross-session knowledge plane (response
//!   replay, drained-region synthesis, exact result streams) with epoch
//!   invalidation,
//! * [`exec`] — dependency-free structured concurrency (scoped thread
//!   pool, deterministic immediate mode),
//! * [`obs`] — the observability plane: typed events, their subscribers,
//!   and the fleet monitor for predicted-vs-actual spend,
//! * [`service`] — the thread-safe "as a service" facade, with the
//!   concurrent `serve_batch` front-end and the exact federated merge,
//! * [`edge`] — the std-only HTTP/1.1 wire layer: the admission-controlled
//!   server front door and the `SearchInterface` client adapter.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use qrs_core as core;
pub use qrs_datagen as datagen;
pub use qrs_edge as edge;
pub use qrs_exec as exec;
pub use qrs_knowledge as knowledge;
pub use qrs_obs as obs;
pub use qrs_ranking as ranking;
pub use qrs_server as server;
pub use qrs_service as service;
pub use qrs_types as types;
