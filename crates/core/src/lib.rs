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
//! | §3.2.1 Algorithm 2 (1D-BINARY) | [`one_d::OneDStrategy::Binary`] |
//! | §3.2.2 Algorithm 3+4 (1D-RERANK + oracle) | [`one_d::OneDStrategy::Rerank`], [`index::dense1d`] |
//! | §4.1 TA over 1D-RERANK | [`md::TaCursor`] |
//! | §4.2 MD-BASELINE | [`md::MdOptions::baseline`] |
//! | §4.3 Algorithm 5 (MD-BINARY) | [`md::MdOptions::rerank`] |
//! | §4.4 Algorithm 6 (MD-RERANK) | not built: MD-RERANK is §4.3's MD-BINARY over the shared state |
//! | §5 extensions (ties, ORDER BY, point predicates) | ties under the one contract (README, "Exactness"): [`one_d::OneDCursor`]'s value slabs, [`md::MdCursor`]'s tie slabs; [`md::ta::SortedAccess`], crawler |
//! | §1 baselines (crawl, page-down) | [`baselines`] |
//! | §3.1.1 leveraging history | [`ctx::SharedState::ask`], [`history`] |
//!
//! All algorithms share a [`ctx::SharedState`] — the history of every tuple
//! seen, and two registries of regions known in full (complete regions and
//! the on-the-fly 1D dense index) — and ask the site through its
//! `ask`, so cost amortizes across user queries, which is the paper's
//! central systems idea.
//!
//! ### Known deviations from the paper (documented in DESIGN.md)
//!
//! * The MD partition uses a *cumulative* contour corner instead of the
//!   per-coordinate `b(Aj)` of Eq. 8, which is incomplete for `m ≥ 3` (see
//!   `qrs_ranking::rankfn` docs for the counterexample).
//! * 1D-BINARY remembers proven-empty half-intervals across iterations
//!   (pure improvement, same asymptotics).
//! * MD-RERANK is §4.3's MD-BINARY over the shared state; the §4.4 box
//!   index is removed, since on the tie-slab cursor it never saved a query.

#![deny(missing_docs)]

pub mod baselines;
pub mod crawl;
pub mod ctx;
pub mod history;
pub mod index;
pub mod md;
pub mod norm;
pub mod one_d;
pub mod params;
pub mod strategy;

pub use ctx::{Purpose, SharedState};
pub use md::{MdAlgo, MdCursor, MdOptions, TaCursor};
pub use norm::{NormBox, NormView};
pub use one_d::{OneDCursor, OneDSpec, OneDStrategy, TiePolicy};
pub use params::RerankParams;
pub use strategy::{
    CostEstimate, MdCursorStrategy, OneDCursorStrategy, PageDownStrategy, PlanContext,
    RerankStrategy, StrategyIo, StrategyStep, TaCursorStrategy,
};
