//! # qrs-core
//!
//! The reranking algorithms of *Query Reranking As A Service* (Asudeh,
//! Zhang, Das — VLDB 2016): exact top-k under **any** user-specified
//! monotonic ranking function, through nothing but a hidden database's
//! top-`k` conjunctive search interface, minimizing the number of queries
//! issued.
//!
//! ## Map of the crate
//!
//! | Paper | Here |
//! |---|---|
//! | §3.1 Algorithm 1 (1D-BASELINE) | [`one_d::OneDStrategy::Baseline`] |
//! | §3.2.1 Algorithm 2 (1D-BINARY) | [`one_d::OneDStrategy::Rerank`] |
//! | §3.2.2 Algorithms 3–4 (1D-RERANK's dense index) | not built: 1D-RERANK is §3.2.1's 1D-BINARY over the shared state |
//! | §4.1 TA over 1D-RERANK | [`md::TaCursor`] |
//! | §4.2 MD-BASELINE | [`md::MdOptions::baseline`] |
//! | §4.3 Algorithm 5 (MD-BINARY) | [`md::MdOptions::rerank`] |
//! | §4.4 Algorithm 6 (MD-RERANK) | not built: MD-RERANK is §4.3's MD-BINARY over the shared state |
//! | §5 extensions (ties, ORDER BY, point predicates) | ties under the one contract (README, "Exactness"): [`one_d::OneDCursor`]'s value slabs, [`md::MdCursor`]'s tie slabs; [`md::ta::SortedAccess`], crawler |
//! | §1 baselines (crawl, page-down) | [`baselines`] |
//! | §3.1.1 leveraging history | [`ctx::SharedState::ask`], [`history`] |
//!
//! All algorithms share a [`ctx::SharedState`] — the history of every tuple
//! seen, and the registry of regions known in full (complete regions) —
//! and ask the site through its `ask`, so cost amortizes across user
//! queries, which is the paper's central systems idea.
//!
//! ### Known deviations from the paper
//!
//! README's "Named deviations from the paper" gives the measurements behind
//! the last one; `qrs_ranking::rankfn`'s docs give the counterexample
//! behind the first.
//!
//! * The MD partition uses a *cumulative* contour corner instead of the
//!   per-coordinate `b(Aj)` of Eq. 8, which is incomplete for `m ≥ 3` (see
//!   `qrs_ranking::rankfn` docs for the counterexample).
//! * 1D-BINARY remembers proven-empty half-intervals across iterations
//!   (pure improvement, same asymptotics).
//! * 1D-RERANK is §3.2.1's 1D-BINARY and MD-RERANK is §4.3's MD-BINARY,
//!   each over the shared state: neither §3.2.2's dense-region index nor
//!   the §4.4 box index is built, since on the §6 figures and the
//!   benchmark workloads they saved no query.

#![deny(missing_docs)]

pub mod baselines;
pub mod crawl;
pub mod ctx;
pub mod history;
pub mod md;
pub mod norm;
pub mod one_d;
pub mod params;
pub mod strategy;

pub use ctx::{Purpose, SharedState};
pub use md::{MdCursor, MdOptions, TaCursor};
pub use norm::{NormBox, NormView};
pub use one_d::{OneDCursor, OneDSpec, OneDStrategy, TiePolicy};
pub use params::RerankParams;
pub use strategy::{CostEstimate, PlanContext, RerankStrategy, StrategyIo, StrategyStep};
