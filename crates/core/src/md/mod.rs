//! Multi-dimensional query reranking (§4).
//!
//! * [`top1`] — the shared top-1 search loop; two strategy toggles select
//!   MD-BASELINE (§4.2) or MD-RERANK (§4.3's MD-BINARY: direct domination
//!   detection + virtual-tuple pruning, over the shared state; the §4.4
//!   dense-box oracle is not built),
//! * [`split`] — the prefix-box partition geometry all of them share,
//! * [`cursor`] — the Get-Next driver (top-k via subspace splitting,
//!   §4.2.2), exact under ties via tie-slab subspaces,
//! * [`ta`] — the "TA over 1D-RERANK" comparator (§4.1) with the §5
//!   public-ORDER-BY variant.

pub mod cursor;
pub mod split;
pub mod ta;
pub mod top1;

pub use cursor::MdCursor;
pub use ta::TaCursor;
pub use top1::MdOptions;

/// Preset algorithm selector for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MdAlgo {
    /// Fagin-style TA driven by 1D-RERANK Get-Next streams (§4.1).
    TaOver1D,
    /// TA with sorted access through the server's public `ORDER BY` where
    /// available (§5 "Multiple/Known System Ranking Functions").
    TaPublicOrderBy,
    /// MD-BASELINE (§4.2).
    Baseline,
    /// MD-RERANK (§4.3's MD-BINARY over the shared state).
    Rerank,
}

impl MdAlgo {
    /// The compared algorithms of Figs 13/14 (the paper's MD-BINARY is
    /// MD-RERANK here).
    pub const ALL: [MdAlgo; 3] = [MdAlgo::TaOver1D, MdAlgo::Baseline, MdAlgo::Rerank];

    /// Human-readable name used in experiment tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            MdAlgo::TaOver1D => "TA over 1D-RERANK",
            MdAlgo::TaPublicOrderBy => "TA via public ORDER BY",
            MdAlgo::Baseline => "MD-BASELINE",
            MdAlgo::Rerank => "MD-RERANK",
        }
    }
}
