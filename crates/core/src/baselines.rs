//! The naive comparators discussed in §1.
//!
//! * *Crawl-then-rank* — enumerate `R(q)` entirely (the \[15\]-style crawler in
//!   [`crate::crawl`]) and rank locally. Exact, but costs at least linear in
//!   `|R(q)|/k` queries.
//! * *Page-down rerank* — fetch `h·k` tuples through the system ranking's
//!   page turns and rerank locally. Cheap, but **approximate with unknown
//!   error** unless paging exhausts `R(q)` — the paper's argument for why
//!   this shortcut is not a reranking service. [`PageDownResult::exact`]
//!   reports whether the answer happens to be provably correct, and the
//!   Fig.-adjacent ablation measures its recall.

use crate::ctx::SharedState;
use qrs_server::SearchInterface;
use qrs_types::value::cmp_f64;
use qrs_types::{Capability, Query, RerankError, Tuple};
use std::sync::Arc;

pub use crate::crawl::{crawl_region, crawl_then_rank, CrawlResult};

/// Outcome of the page-down shortcut.
#[derive(Debug, Clone)]
pub struct PageDownResult {
    /// Locally reranked tuples (best first).
    pub tuples: Vec<Arc<Tuple>>,
    /// True iff paging reached the end of `R(q)`, making the rerank exact.
    pub exact: bool,
    /// Pages fetched.
    pub pages: usize,
}

/// Fetch up to `max_pages` pages of the system ranking for `q` and rerank
/// locally by `score`. Negotiates [`Capability::Paging`] up front and
/// returns [`RerankError::UnsupportedCapability`] when the server lacks it.
pub fn page_down_rerank(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    q: &Query,
    score: impl Fn(&Tuple) -> f64,
    max_pages: usize,
) -> Result<PageDownResult, RerankError> {
    server.capabilities().require(Capability::Paging)?;
    let mut tuples: Vec<Arc<Tuple>> = Vec::new();
    let mut exact = false;
    let mut pages = 0;
    for page in 0..max_pages {
        let resp = server.query_page(q, page)?;
        st.history.record_response(&resp);
        pages += 1;
        tuples.extend(resp.tuples.iter().cloned());
        if !resp.is_overflow() {
            exact = true;
            break;
        }
    }
    tuples.sort_by(|a, b| cmp_f64(score(a), score(b)).then(a.id.cmp(&b.id)));
    tuples.dedup_by_key(|t| t.id);
    Ok(PageDownResult {
        tuples,
        exact,
        pages,
    })
}

/// Incremental, resume-safe page-down: the Get-Next-shaped sibling of
/// [`page_down_rerank`], used when the planner selects paging as the
/// *exact* fallback on sites whose filters are too weak for the cursor
/// algorithms (point-only classifieds, browse-only storefronts).
///
/// The first [`PageDownCursor::next`] pages the system ranking down until
/// the result set drains or `max_pages` is hit, then emits the locally
/// reranked tuples one at a time. Unlike the baseline function, the cursor
/// is **strict**: if paging stops before the result drains, it returns
/// `RerankError::UnsupportedCapability(Capability::PageDepth(..))` instead
/// of silently serving an approximate order — the planner only picks this
/// cursor when the advertised page depth provably covers the relation.
///
/// Resume contract: a transient failure mid-paging keeps every fetched
/// page; retrying `next` re-enters at the page where the failure struck.
pub struct PageDownCursor {
    sel: Query,
    rank: Arc<dyn qrs_ranking::RankFn>,
    max_pages: usize,
    next_page: usize,
    drained: bool,
    sorted: bool,
    buf: Vec<Arc<Tuple>>,
    emitted: usize,
}

impl PageDownCursor {
    /// A cursor paging `sel` down at most `max_pages` pages, reranking by
    /// `rank`. Pass `usize::MAX` when the site advertises unlimited depth.
    pub fn new(sel: Query, rank: Arc<dyn qrs_ranking::RankFn>, max_pages: usize) -> Self {
        PageDownCursor {
            sel,
            rank,
            max_pages,
            next_page: 0,
            drained: false,
            sorted: false,
            buf: Vec::new(),
            emitted: 0,
        }
    }

    /// Whether paging reached the end of `R(q)` (set once the fetch phase
    /// completes; emission is only correct after this turns `true`).
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// Fetch **one** page (one charged query), or nothing if already
    /// drained. Returns whether the result set is now fully drained.
    ///
    /// This is the granular API the service layer drives: one page per
    /// Get-Next step, so query-budget gates fire *between* pages and the
    /// shared-state lock is released between them — a 1 000-page drain can
    /// be budget-capped and interleaves with concurrent sessions instead
    /// of monopolizing the service.
    pub fn fetch_next_page(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<bool, RerankError> {
        if self.drained {
            return Ok(true);
        }
        if self.next_page >= self.max_pages {
            // The site stopped serving pages before the result drained:
            // continuing would silently reorder unseen tuples, so surface
            // the missing depth instead.
            return Err(RerankError::UnsupportedCapability(Capability::PageDepth(
                self.next_page + 1,
            )));
        }
        let resp = server.query_page(&self.sel, self.next_page)?;
        st.history.record_response(&resp);
        self.next_page += 1;
        self.buf.extend(resp.tuples.iter().cloned());
        if !resp.is_overflow() {
            self.drained = true;
        }
        Ok(self.drained)
    }

    /// The next tuple in user-rank order, or `None` when exhausted. Only
    /// meaningful once [`PageDownCursor::drained`] is `true` — before that
    /// the local rerank would be over a prefix of the *system* ranking,
    /// exactly the silent inexactness this cursor exists to refuse.
    pub fn emit_next(&mut self) -> Option<Arc<Tuple>> {
        debug_assert!(self.drained, "emit_next before the result set drained");
        if !self.sorted {
            let rank = &self.rank;
            self.buf
                .sort_by(|a, b| cmp_f64(rank.score(a), rank.score(b)).then(a.id.cmp(&b.id)));
            // Duplicate ids are adjacent after the sort (same tuple ⇒ same
            // score ⇒ tie broken by id).
            self.buf.dedup_by_key(|t| t.id);
            self.sorted = true;
        }
        let t = self.buf.get(self.emitted).cloned();
        if t.is_some() {
            self.emitted += 1;
        }
        t
    }

    /// The next tuple in user-rank order, draining the remaining pages in
    /// one call if needed; `Ok(None)` when exhausted. Convenience for
    /// direct/one-shot use — budget-gated callers (the service session)
    /// drive [`PageDownCursor::fetch_next_page`] page by page instead.
    pub fn next(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Option<Arc<Tuple>>, RerankError> {
        while !self.fetch_next_page(server, st)? {}
        Ok(self.emit_next())
    }
}

impl std::fmt::Debug for PageDownCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageDownCursor")
            .field("max_pages", &self.max_pages)
            .field("next_page", &self.next_page)
            .field("drained", &self.drained)
            .field("buffered", &self.buf.len())
            .field("emitted", &self.emitted)
            .finish()
    }
}

/// Recall of an approximate top-h list against ground truth (by tuple id).
pub fn recall_at_h(approx: &[Arc<Tuple>], truth: &[Arc<Tuple>], h: usize) -> f64 {
    if h == 0 || truth.is_empty() {
        return 1.0;
    }
    let want: std::collections::HashSet<_> = truth.iter().take(h).map(|t| t.id).collect();
    let hit = approx
        .iter()
        .take(h)
        .filter(|t| want.contains(&t.id))
        .count();
    hit as f64 / want.len().min(h) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::uniform;
    use qrs_server::{Capabilities, SimServer, SystemRank};
    use qrs_types::AttrId;

    fn score(t: &Tuple) -> f64 {
        t.ord(AttrId(0)) + t.ord(AttrId(1))
    }

    #[test]
    fn page_down_is_inexact_when_system_disagrees() {
        let data = uniform(300, 2, 1, 401);
        let truth = data.rank_by(&Query::all(), score);
        // System ranks by the *opposite* of the user's preference.
        let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(300, 10));
        let server =
            SimServer::new(data, sys, 10).with_capabilities(Capabilities::none().with_paging());
        let r = page_down_rerank(&server, &mut st, &Query::all(), score, 3).unwrap();
        assert!(!r.exact);
        // With anti-correlated system ranking, 3 pages of 10 should miss
        // most of the true top-10.
        assert!(recall_at_h(&r.tuples, &truth, 10) < 0.5);
    }

    #[test]
    fn page_down_exact_when_it_drains_the_result() {
        let data = uniform(25, 2, 1, 403);
        let truth = data.rank_by(&Query::all(), score);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(25, 10));
        let server = SimServer::new(data, SystemRank::pseudo_random(41), 10)
            .with_capabilities(Capabilities::none().with_paging());
        let r = page_down_rerank(&server, &mut st, &Query::all(), score, 100).unwrap();
        assert!(r.exact);
        assert_eq!(r.pages, 3); // 25 tuples / k=10
        let got: Vec<u32> = r.tuples.iter().map(|t| t.id.0).collect();
        let want: Vec<u32> = truth.iter().map(|t| t.id.0).collect();
        assert_eq!(got, want);
        assert_eq!(recall_at_h(&r.tuples, &truth, 10), 1.0);
    }

    #[test]
    fn page_down_refused_without_paging_capability() {
        let data = uniform(30, 2, 1, 407);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(30, 10));
        let server = SimServer::new(data, SystemRank::pseudo_random(43), 10); // no paging
        let err = page_down_rerank(&server, &mut st, &Query::all(), score, 3).unwrap_err();
        assert_eq!(
            err,
            qrs_types::RerankError::UnsupportedCapability(Capability::Paging)
        );
    }

    #[test]
    fn page_down_cursor_streams_exact_order_and_resumes() {
        use qrs_ranking::LinearRank;
        let data = uniform(25, 2, 1, 409);
        let truth = data.rank_by(&Query::all(), score);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(25, 10));
        let server = SimServer::new(data, SystemRank::pseudo_random(47), 10)
            .with_capabilities(Capabilities::none().with_paging());
        let rank: Arc<dyn qrs_ranking::RankFn> =
            Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
        let mut c = PageDownCursor::new(Query::all(), rank, usize::MAX);
        let mut got = Vec::new();
        while let Some(t) = c.next(&server, &mut st).unwrap() {
            got.push(t.id.0);
        }
        assert!(c.drained());
        let want: Vec<u32> = truth.iter().map(|t| t.id.0).collect();
        assert_eq!(got, want);
        // All pages fetched up front, then emission is free.
        assert_eq!(server.queries_issued(), 3);
    }

    #[test]
    fn page_down_cursor_is_strict_about_depth() {
        use qrs_ranking::LinearRank;
        let data = uniform(50, 2, 1, 411);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(50, 5));
        // 50 tuples at k=5 need 10 pages; the cursor is capped at 3.
        let server = SimServer::new(data, SystemRank::pseudo_random(53), 5)
            .with_capabilities(Capabilities::none().with_paging());
        let rank: Arc<dyn qrs_ranking::RankFn> =
            Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
        let mut c = PageDownCursor::new(Query::all(), rank, 3);
        let err = c.next(&server, &mut st).unwrap_err();
        assert_eq!(
            err,
            RerankError::UnsupportedCapability(Capability::PageDepth(4))
        );
        // The three fetched pages stay paid-for; the error is stable.
        assert_eq!(server.queries_issued(), 3);
        assert!(c.next(&server, &mut st).is_err());
        assert_eq!(server.queries_issued(), 3);
    }

    #[test]
    fn recall_edge_cases() {
        assert_eq!(recall_at_h(&[], &[], 5), 1.0);
        let data = uniform(10, 2, 1, 405);
        let ts: Vec<Arc<Tuple>> = data.tuples().to_vec();
        assert_eq!(recall_at_h(&ts, &ts, 0), 1.0);
        assert_eq!(recall_at_h(&ts[..3], &ts, 3), 1.0);
        assert_eq!(recall_at_h(&ts[5..8], &ts, 3), 0.0);
    }
}
