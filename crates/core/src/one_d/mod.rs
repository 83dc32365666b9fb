//! The 1D query reranking algorithms (§3).
//!
//! Given a user query `q`, a ranking attribute `Ai` and a preference
//! direction, find tuples of `R(q)` in `Ai`-order while issuing as few
//! server queries as possible:
//!
//! * [`OneDStrategy::Baseline`] — Algorithm 1 (1D-BASELINE): shrink the
//!   search interval to the best returned value, repeat until underflow,
//! * [`OneDStrategy::Binary`] — Algorithm 2 (1D-BINARY): bisect the search
//!   interval instead, confirming it whole first while the size estimate
//!   says it fits one page, until a confirm cuts less than half of it
//!   ([`primitives`]),
//! * [`OneDStrategy::Rerank`] — Algorithm 3 (1D-RERANK): bisect until the
//!   interval is narrower than the dense-region threshold, then hand off to
//!   the on-the-fly index oracle (Algorithm 4, [`crate::index::dense1d`]).
//!
//! [`OneDCursor`] wraps the primitives into the paper's *Get-Next* interface
//! and removes the general-positioning assumption (§5): equal-value *slabs*
//! are collected exactly before moving past their value, and point-only
//! attributes are enumerated value by value.

pub mod cursor;
pub mod primitives;

pub use cursor::{OneDCursor, TiePolicy};
pub use primitives::{next_above, NarrowResult, OneDSpec};

/// Which §3 algorithm drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OneDStrategy {
    /// 1D-BASELINE (§3.1): linear frontier advance.
    Baseline,
    /// 1D-BINARY (§3.2.1): binary interval narrowing.
    Binary,
    /// 1D-RERANK (§3.2.2): binary narrowing plus the on-the-fly dense index.
    Rerank,
}

impl OneDStrategy {
    /// The paper's three compared 1D algorithms (Figs 5–12).
    pub const ALL: [OneDStrategy; 3] = [
        OneDStrategy::Baseline,
        OneDStrategy::Binary,
        OneDStrategy::Rerank,
    ];

    /// Human-readable name used in experiment tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            OneDStrategy::Baseline => "1D-BASELINE",
            OneDStrategy::Binary => "1D-BINARY",
            OneDStrategy::Rerank => "1D-RERANK",
        }
    }
}
