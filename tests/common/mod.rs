//! Helpers shared by the integration suites (`mod common;` in each).

use query_reranking::exec::Executor;

/// The pool a suite runs its batches and edge handlers on:
/// `QRS_EXEC_THREADS` workers (`0` clamps to one, as in
/// [`Executor::pool`]); unset or unparsable, the machine's available
/// parallelism, capped at 16. CI runs the suites at 1 and at 8, so each
/// seed sweeps a single-worker and a wide schedule over the same test.
pub fn exec_from_env() -> Executor {
    let width = std::env::var("QRS_EXEC_THREADS").ok();
    Executor::pool(
        width
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get().min(16))),
    )
}
