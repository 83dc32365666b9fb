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
