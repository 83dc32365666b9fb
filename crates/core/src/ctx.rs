//! Shared middleware state.
//!
//! One [`SharedState`] lives for the lifetime of the reranking service and is
//! threaded through every algorithm invocation: the history and the
//! complete regions are deliberately *cross-user-query* structures (the
//! amortization argument of §3.1.1 depends on it). Tuples live in the
//! history and nowhere else, each as one row of its row store (the
//! `history` module docs); the complete regions are the one registry of
//! regions whose tuples are known in full, and [`SharedState::ask`] is
//! where a top-k query is either answered from them — read off the
//! history's rows — or paid for. Every paid query is counted under the
//! [`Purpose`] its caller names.
//!
//! **Data change.** The state outlives a change to the site's data: a
//! service that reads the site's mutation feed patches it with
//! [`SharedState::apply`] instead of starting again. The state's
//! invariant, which every exact answer it gives rests on, is that history
//! holds only live tuples, each with the site's current values, and that
//! every live tuple a complete region matches is in history. The patch
//! keeps it. Before a run of deltas, history holds every live tuple each
//! region matches; the patch removes each deleted tuple, records each
//! inserted one, and removes then records each updated one. So history
//! ends holding the live tuples it held before, at their new values, plus
//! every tuple the feed added. A tuple a region matches afterwards was
//! either live before and untouched (in history before, still there),
//! or touched by the feed (recorded as its last delta left it), so every
//! region is still complete and stays. Deltas are applied in feed order and
//! each leaves the id as that delta says, so a tuple history learned from
//! an answer given between two deltas ends the same. Interrupted crawls
//! are dropped: their pending pieces were planned against the old data.
//! A log with a gap cannot be replayed this way, and a caller rebuilds
//! the state empty instead.

use crate::crawl::PendingCrawls;
use crate::history::History;
use crate::params::RerankParams;
use qrs_server::SearchInterface;
use qrs_types::{
    MutationKind, MutationLog, Query, QueryResponse, RegionIndex, RerankError, Schema,
};

/// Regions [`SharedState::complete`] remembers before it forgets the
/// oldest: dropping one only costs future queries, never correctness.
const COMPLETE_REGIONS_CAP: usize = 4096;

/// Why a built-in algorithm asks the site a query: the one tag each
/// [`SharedState::ask`] call site passes, so the paid queries split by
/// purpose ([`SharedState::paid`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// A box of the MD top-1 search (`md::top1::md_top1`).
    MdBox,
    /// §4.3.2's direct domination probe inside that search.
    MdDominated,
    /// The MD cursor's merged probe over an emission's host, whose valid
    /// answer certifies both side children at once (`md::cursor`).
    MdMerged,
    /// The selection-free plane of an MD tie slab.
    MdTiePlane,
    /// A sub-query of a region crawl: an MD cell, or crawl-then-rank.
    Crawl,
    /// A probe of a 1-D next-value search (`one_d::primitives`).
    OneDSearch,
    /// A 1-D value slab's point query and the crawl beneath it.
    OneDSlab,
}

impl Purpose {
    /// Every purpose, in [`SharedState::paid`]'s order.
    pub const ALL: [Purpose; 7] = [
        Purpose::MdBox,
        Purpose::MdDominated,
        Purpose::MdMerged,
        Purpose::MdTiePlane,
        Purpose::Crawl,
        Purpose::OneDSearch,
        Purpose::OneDSlab,
    ];
}

/// History + complete-region registry + interrupted crawls + parameters.
#[derive(Debug)]
pub struct SharedState {
    /// Every live tuple observed in a server response or reported by the
    /// site's mutation feed, at its current values: one row each, indexed
    /// per ordinal attribute by sorted runs.
    pub history: History,
    /// Regions proven complete (query answered without overflow, or
    /// crawled to the end): every tuple one of them matches is in
    /// `history`. Capped FIFO.
    pub complete: RegionIndex,
    /// Crawls a refusal interrupted, resumed by the next crawl of the same
    /// root ([`crate::crawl::crawl_region`]).
    pub(crate) pending_crawls: PendingCrawls,
    /// The tuning parameters everything above was built with.
    pub params: RerankParams,
    /// Queries the site answered, per [`Purpose`] (in `Purpose::ALL` order).
    paid: [u64; Purpose::ALL.len()],
}

impl SharedState {
    /// Fresh, empty state for a database with `schema`, tuned by `params`.
    pub fn new(schema: &Schema, params: RerankParams) -> Self {
        SharedState {
            history: History::new(schema.num_ordinal()),
            complete: RegionIndex::new(COMPLETE_REGIONS_CAP, schema),
            pending_crawls: PendingCrawls::default(),
            params,
            paid: [0; Purpose::ALL.len()],
        }
    }

    /// Record a server response: tuples go to history; valid/underflow
    /// responses register the query as a complete region.
    pub fn absorb(&mut self, q: &Query, resp: &QueryResponse) {
        self.history.record_response(resp);
        if !resp.is_overflow() {
            self.complete.insert(q);
        }
    }

    /// The one way a built-in algorithm asks the site a top-k query: consult
    /// what is already known in full before paying (§3.1.1). When a complete
    /// region covers `q`, every match is in history and comes back free as a
    /// response that did not overflow — possibly more than `k` tuples, in
    /// [`History::candidates`](crate::history::History::candidates)' order,
    /// not the site's; otherwise the site is paid, the answer counted under
    /// `purpose` and absorbed.
    pub fn ask(
        &mut self,
        server: &dyn SearchInterface,
        q: &Query,
        purpose: Purpose,
    ) -> Result<QueryResponse, RerankError> {
        if self.complete.covers(q) {
            let known = self.history.candidates(q).cloned().collect();
            return Ok(QueryResponse::new(known, false));
        }
        self.pay(server, q, purpose)
    }

    /// [`Self::ask`]'s paid arm, for a caller that has just proved no
    /// complete region covers `q`: the site is paid, the answer counted
    /// under `purpose` and absorbed.
    pub(crate) fn pay(
        &mut self,
        server: &dyn SearchInterface,
        q: &Query,
        purpose: Purpose,
    ) -> Result<QueryResponse, RerankError> {
        let resp = server.query(q)?;
        self.paid[purpose as usize] += 1;
        self.absorb(q, &resp);
        Ok(resp)
    }

    /// Queries the site has answered for `purpose`.
    /// A refused query is not counted; a page the site charged but lost in
    /// transit is not either.
    pub fn paid(&self, purpose: Purpose) -> u64 {
        self.paid[purpose as usize]
    }

    /// Patch the state for the site's data changes in `log`, the feed's
    /// deltas after the sequence number the state is exact as of, with no
    /// gap (module docs, "Data change"): history forgets each deleted
    /// tuple, records each inserted one, and replaces each updated one;
    /// the complete regions stay; interrupted crawls are dropped. Costs a
    /// binary search and a bounded move per attribute per delta.
    pub fn apply(&mut self, log: &MutationLog) {
        assert!(!log.gap, "a log with a gap cannot be replayed");
        for m in &log.deltas {
            match &m.kind {
                MutationKind::Insert(t) => self.history.record(t),
                MutationKind::Delete(id) => drop(self.history.remove(*id)),
                MutationKind::Update(t) => {
                    self.history.remove(t.id);
                    self.history.record(t);
                }
            }
        }
        self.pending_crawls = PendingCrawls::default();
    }

    /// Drop the complete-region registry (emptiness proofs), keeping tuples.
    ///
    /// The paper's "leveraging history" (§3.1.1) carries *tuples* across
    /// user queries; completeness knowledge is what its on-the-fly indexes
    /// (§3.2.2, §4.4) would add, and neither is built. Persisting the
    /// registry is a strict improvement this library makes by default, but
    /// the figure experiments call this between user queries to reproduce
    /// the paper's cost model — see the `qrs-bench` rustdocs.
    pub fn forget_complete_regions(&mut self) {
        self.complete.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::crawl_region;
    use qrs_datagen::synthetic::uniform;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::{AttrId, Interval, TupleId};

    fn setup() -> (SimServer, SharedState) {
        let data = uniform(200, 2, 1, 4242);
        let st = SharedState::new(data.schema(), RerankParams::paper_defaults(200, 5));
        (SimServer::new(data, SystemRank::pseudo_random(9), 5), st)
    }

    fn slice(lo: f64, hi: f64) -> Query {
        Query::all().and_range(AttrId(0), Interval::closed(lo, hi))
    }

    fn ids(resp: &QueryResponse) -> std::collections::BTreeSet<TupleId> {
        resp.tuples.iter().map(|t| t.id).collect()
    }

    #[test]
    fn a_covered_query_is_free_and_answers_like_the_site() {
        let (server, mut st) = setup();
        let wide = slice(0.30, 0.32);
        assert!(
            st.ask(&server, &wide, Purpose::Crawl).unwrap().is_valid(),
            "pick a valid slice"
        );
        let (fresh, _) = setup();
        for q in [wide, slice(0.305, 0.315), slice(0.4, 0.3)] {
            let (known, truth) = (
                st.ask(&server, &q, Purpose::Crawl).unwrap(),
                fresh.query(&q).unwrap(),
            );
            assert_eq!(ids(&known), ids(&truth), "{q}");
            assert_eq!(known.outcome, truth.outcome, "{q}");
        }
        assert_eq!(server.queries_issued(), 1, "covered: nothing more paid");
    }

    #[test]
    fn only_a_region_known_in_full_is_free_however_many_tuples_it_holds() {
        let (server, mut st) = setup();
        let q = slice(0.0, 0.5);
        assert!(st.ask(&server, &q, Purpose::Crawl).unwrap().is_overflow());
        assert!(st.complete.is_empty(), "an overflow registers no region");
        st.ask(&server, &q, Purpose::Crawl).unwrap();
        assert_eq!(server.queries_issued(), 2, "asked again, paid again");
        let crawled = crawl_region(&server, &mut st, &q).unwrap();
        assert!(crawled.tuples.len() > 5 && !crawled.truncated);
        let paid = server.queries_issued();
        let known = st.ask(&server, &q, Purpose::Crawl).unwrap();
        assert_eq!(server.queries_issued(), paid);
        assert!(
            known.is_valid(),
            "every match came back, so not an overflow"
        );
        assert!(ids(&known)
            .into_iter()
            .eq(crawled.tuples.iter().map(|t| t.id)));
    }
}
