//! # qrs-exec
//!
//! A small, dependency-free structured-concurrency subsystem for the
//! reranking stack. The middleware fronts slow, rate-limited backends and
//! serves many users at once; both call for bounded worker pools rather
//! than unbounded thread spawning. Everything here is built on `std` only,
//! so it works without a crates.io registry and creates no dependency
//! cycles.
//!
//! * [`Executor`] — the one entry point: a fixed-size thread pool
//!   ([`Executor::pool`]) whose width its caller picks. The crate reads no
//!   environment variable.
//! * [`Executor::scope`] — structured spawn/join in the shape of
//!   `std::thread::scope`: tasks may borrow from the enclosing frame
//!   (including disjoint `&mut`s), and the scope does not return until
//!   every spawned task finished — even when the closure panics.
//!
//! Determinism contract: results never depend on the pool width. Callers
//! that need an order (the service's batch driver) join handles in spawn
//! order, so `pool(1)` and `pool(8)` hand back the same outcomes — the
//! property the equivalence tests in the service layer are built on.

pub mod executor;

pub use executor::{Executor, Scope, TaskHandle};
