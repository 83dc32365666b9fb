//! # qrs-edge — the HTTP/1.1 wire layer
//!
//! Every layer below this one runs in-process: the planner, the
//! strategies and the knowledge plane all call the hidden database
//! through a trait object. The paper's setting has a wire in the
//! middle — the reranker is a *service* fronting remote sites for remote
//! users — and this crate is that wire, std-only, both halves:
//!
//! * **Server half** ([`EdgeServer`]): a thin front door that accepts
//!   plain HTTP/1.1 on a loopback socket, serves each persistent
//!   connection on a `qrs-exec` pool worker under whole-request
//!   deadlines, and maps a JSON protocol onto
//!   `RerankService::serve_batch`. Admission control runs
//!   *before* any query is issued: a bounded in-flight gate and per-tenant
//!   query/cost budgets refuse with a typed `429` + `Retry-After`, charging
//!   neither the site ledger nor the tenant ledger. The full `RerankError`
//!   taxonomy maps onto HTTP statuses with typed JSON error bodies, and
//!   `/stats` serves the service, knowledge-plane, and fleet-monitor
//!   counters.
//! * **Client half** ([`HttpSiteAdapter`]): a `SearchInterface`
//!   implementation speaking the same protocol, so a completely ordinary
//!   session can drive a *remote* site. Rate-limit responses become
//!   `retry_after_ms` hints for the existing `RetryPolicy`; capabilities
//!   (cost model included) are fetched once at connect and cached; every
//!   response carries the server's *cumulative* ledgers, which the adapter
//!   mirrors into atomics — so ledger reads stay cheap and reconcile
//!   exactly even across dropped connections. Connections are reused,
//!   requests never re-sent.
//!
//! The JSON is hand-rolled ([`json`]). Every body is written in place
//! ([`wire`]) with no JSON tree on the way, byte for byte what the tree
//! would encode; the per-call bodies, paid once per site query, are read
//! in place too, and the rest is read as a [`Json`] tree.
//!
//! The proof of the layer is the loopback round-trip (see
//! `tests/edge_loopback.rs` at the workspace root): a `SimServer` served
//! over a real socket and consumed through [`HttpSiteAdapter`] produces a
//! byte-identical result stream and exactly reconciled ledgers versus the
//! same session run in-process, under fault injection.

#![deny(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use client::{EdgeClient, EdgeClientError, HttpSiteAdapter};
pub use http::{HttpError, Request, Response};
pub use json::{parse, Json, ParseError};
pub use server::{EdgeConfig, EdgeHandle, EdgeServer};
pub use wire::{WireBatchReply, WireOutcome};
