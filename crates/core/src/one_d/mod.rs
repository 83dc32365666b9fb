//! The 1D query reranking algorithms (§3).
//!
//! Given a user query `q`, a ranking attribute `Ai` and a preference
//! direction, find tuples of `R(q)` in `Ai`-order while issuing as few
//! server queries as possible:
//!
//! * [`OneDStrategy::Baseline`] — Algorithm 1 (1D-BASELINE): shrink the
//!   search interval to the best returned value, repeat until underflow,
//! * [`OneDStrategy::Rerank`] — 1D-RERANK: Algorithm 2 (1D-BINARY) over the
//!   shared state, bisecting the search interval instead, confirming it
//!   whole first while the size estimate says it fits one page, until a
//!   confirm cuts less than half of it ([`primitives`]). §3.2.2's
//!   on-the-fly dense-region index (Algorithms 3–4) is not built: it saved
//!   no query on any §6 figure or benchmark workload (README, "Named
//!   deviations"), so 1D-RERANK is to 1D-BINARY what MD-RERANK is to §4.3's
//!   MD-BINARY.
//!
//! [`OneDCursor`] wraps the primitives into the paper's *Get-Next* interface
//! and removes the general-positioning assumption (§5): equal-value *slabs*
//! are collected exactly before moving past their value, and point-only
//! attributes are enumerated value by value.

pub mod cursor;
pub mod primitives;

pub use cursor::{OneDCursor, TiePolicy};
pub use primitives::{next_above, OneDSpec};

/// Which §3 algorithm drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OneDStrategy {
    /// 1D-BASELINE (§3.1): linear frontier advance.
    Baseline,
    /// 1D-RERANK: §3.2.1's binary interval narrowing over the shared state.
    Rerank,
}

impl OneDStrategy {
    /// The two compared 1D algorithms (Figs 6–12).
    pub const ALL: [OneDStrategy; 2] = [OneDStrategy::Baseline, OneDStrategy::Rerank];

    /// Human-readable name used in experiment tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            OneDStrategy::Baseline => "1D-BASELINE",
            OneDStrategy::Rerank => "1D-RERANK",
        }
    }
}
