//! # qrs-exec
//!
//! A small, dependency-free structured-concurrency subsystem for the
//! reranking stack. The middleware fronts slow, rate-limited backends and
//! serves many users at once; both call for bounded worker pools rather
//! than unbounded thread spawning. Everything here is built on `std` only,
//! so it works without a crates.io registry and creates no dependency
//! cycles.
//!
//! * [`Executor`] — the one entry point. Either a fixed-size thread pool
//!   ([`Executor::pool`]) or a deterministic single-threaded *immediate*
//!   mode ([`Executor::immediate`]) that defers tasks and runs them in a
//!   seed-permuted order, so tests can shake out accidental
//!   order-dependence without real threads. [`Executor::from_env`] reads
//!   `QRS_EXEC_THREADS` (`0` = immediate mode), giving CI a one-knob
//!   scheduling matrix.
//! * [`Executor::scope`] — structured spawn/join in the shape of
//!   `std::thread::scope`: tasks may borrow from the enclosing frame
//!   (including disjoint `&mut`s), and the scope does not return until
//!   every spawned task finished — even when the closure panics.
//!
//! Determinism contract: with the same executor mode, seed, and spawn/join
//! pattern, task execution order is a pure function of the configuration —
//! the property the equivalence tests in the service layer are built on.

pub mod executor;

pub use executor::{Executor, Scope, TaskHandle};
