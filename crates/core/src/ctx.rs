//! Shared middleware state.
//!
//! One [`SharedState`] lives for the lifetime of the reranking service and is
//! threaded through every algorithm invocation: the history and the dense
//! indexes are deliberately *cross-user-query* structures (the amortization
//! arguments of §3.2.2 and §4.4 depend on it).

use crate::history::{CompleteRegions, History};
use crate::index::dense1d::Dense1D;
use crate::index::densemd::DenseMd;
use crate::params::RerankParams;
use qrs_types::{Query, QueryResponse, Schema};

/// History + complete-region registry + dense indexes + parameters.
#[derive(Debug)]
pub struct SharedState {
    /// Every tuple ever observed in a server response, indexed per
    /// ordinal attribute.
    pub history: History,
    /// Regions proven complete (query answered without overflow).
    pub complete: CompleteRegions,
    /// The §3.2.2 on-the-fly dense index (1D).
    pub dense1d: Dense1D,
    /// The §4.4 on-the-fly dense index (MD boxes).
    pub densemd: DenseMd,
    /// The tuning parameters everything above was built with.
    pub params: RerankParams,
}

impl SharedState {
    /// Fresh, empty state for a database with `schema`, tuned by `params`.
    pub fn new(schema: &Schema, params: RerankParams) -> Self {
        SharedState {
            history: History::new(schema.num_ordinal()),
            complete: CompleteRegions::default(),
            dense1d: Dense1D::default(),
            densemd: DenseMd::default(),
            params,
        }
    }

    /// Record a server response: tuples go to history; valid/underflow
    /// responses register the query as a complete region.
    pub fn absorb(&mut self, q: &Query, resp: &QueryResponse) {
        self.history.record_response(resp);
        if !resp.is_overflow() {
            self.complete.register(q);
        }
    }

    /// Drop the complete-region registry (emptiness proofs), keeping tuples
    /// and the dense indexes.
    ///
    /// The paper's "leveraging history" (§3.1.1) carries *tuples* across
    /// user queries; completeness knowledge is exactly what its on-the-fly
    /// indexes add. Persisting the registry is a strict improvement this
    /// library makes by default, but the figure experiments call this
    /// between user queries to reproduce the paper's cost model — see
    /// the `qrs-bench` rustdocs.
    pub fn forget_complete_regions(&mut self) {
        self.complete = CompleteRegions::default();
    }
}
