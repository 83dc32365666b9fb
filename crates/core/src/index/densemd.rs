//! The MD dense-region index (§4.4, Algorithm 6 lines 3–12).
//!
//! When MD search narrows to a box with relative volume below `(s/n)/c`, the
//! box is crawled **completely and selection-free** (the paper strips
//! `Sel(q)` so one crawl serves all future user queries) and stored. Future
//! oracle hits on a contained box answer from the stored tuples at zero
//! query cost; "contained" is asked of a [`RegionIndex`] per ranking frame
//! (the attributes and their directions), over the boxes' raw predicates.
//!
//! Deviation from the paper noted in DESIGN.md: Algorithm 6 crawls in score
//! order and may stop early at the first tuple satisfying `Sel(q)`; we crawl
//! the box to completion instead. The cost is the same order (the box holds
//! `O(s)` tuples by construction), and completeness makes the stored entry
//! reusable by *any* ranking function over the same attributes, not just the
//! one that triggered the crawl.

use crate::crawl::crawl_region;
use crate::ctx::SharedState;
use crate::norm::{NormBox, NormView};
use qrs_server::SearchInterface;
use qrs_types::value::cmp_f64;
use qrs_types::{AttrId, Direction, Query, RegionIndex, RerankError, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// One fully crawled box.
#[derive(Debug)]
pub struct DenseBox {
    tuples: Vec<Arc<Tuple>>,
    /// True when the crawl hit an indistinguishable >k duplicate group.
    pub truncated: bool,
}

/// The attributes a box was crawled along and their directions: a box only
/// answers for boxes cut in the same frame.
type Frame = (Vec<AttrId>, Vec<Direction>);

/// Registry of crawled boxes.
#[derive(Debug, Default)]
pub struct DenseMd {
    boxes: Vec<DenseBox>,
    /// Per frame, each box's raw predicates (`NormView::to_query`: negation
    /// preserves containment side by side) → its place in `boxes`.
    regions: HashMap<Frame, RegionIndex<usize>>,
    /// Crawl queries spent building the index (experiment metric).
    pub build_cost: u64,
}

impl DenseMd {
    /// Crawled boxes registered so far.
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Tuples discovered across all boxes.
    pub fn num_tuples(&self) -> usize {
        self.boxes.iter().map(|b| b.tuples.len()).sum()
    }

    fn frame(view: &NormView) -> Frame {
        let rank = view.rank();
        (rank.attrs().to_vec(), rank.directions().to_vec())
    }

    /// The place in `boxes` of one cut in `frame` whose region contains
    /// `region`.
    fn find(&self, frame: &Frame, region: &Query) -> Option<usize> {
        self.regions.get(frame)?.find(region).copied()
    }
}

/// Resolve "lowest-scoring tuple matching `sel` inside box `b`" through the
/// index, crawling `b` (selection-free) on a miss. A failed crawl registers
/// nothing: the box is re-crawled on the next call (the shared history still
/// holds every tuple seen, so the retry is cheaper).
pub fn md_oracle(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    view: &NormView,
    b: &NormBox,
    sel: &Query,
) -> Result<Option<(Arc<Tuple>, f64)>, RerankError> {
    let (frame, region) = (DenseMd::frame(view), view.to_query(b, &Query::all()));
    let at = if let Some(at) = st.densemd.find(&frame, &region) {
        at
    } else {
        let before = server.queries_issued();
        let r = match crawl_region(server, st, &region) {
            Ok(r) => r,
            Err(e) => {
                st.densemd.build_cost += server.queries_issued() - before;
                return Err(e);
            }
        };
        st.densemd.build_cost += server.queries_issued() - before;
        let dense = &mut st.densemd;
        let at = dense.boxes.len();
        dense.regions.entry(frame).or_default().insert(&region, at);
        dense.boxes.push(DenseBox {
            tuples: r.tuples,
            truncated: r.truncated,
        });
        at
    };
    Ok(st.densemd.boxes[at]
        .tuples
        .iter()
        .filter(|t| sel.matches(t) && b.contains(&view.norm_coords(t)))
        .map(|t| (Arc::clone(t), view.score(t)))
        .min_by(|a, b| cmp_f64(a.1, b.1).then(a.0.id.cmp(&b.0.id))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::uniform;
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::Interval;

    fn setup() -> (SimServer, SharedState, NormView) {
        let data = uniform(400, 2, 1, 77);
        let st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 5));
        let server = SimServer::new(data, SystemRank::pseudo_random(4), 5);
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let view = NormView::new(Arc::new(rank), server.schema());
        (server, st, view)
    }

    #[test]
    fn oracle_crawls_then_reuses() {
        let (server, mut st, view) = setup();
        let mut b = NormBox::full(view.bounds());
        b.dims[0] = Interval::closed(0.0, 0.2);
        b.dims[1] = Interval::closed(0.0, 0.2);
        let sel = Query::all();
        let got = md_oracle(&server, &mut st, &view, &b, &sel)
            .unwrap()
            .unwrap();
        // Ground truth.
        let truth = server
            .dataset()
            .tuples()
            .iter()
            .filter(|t| t.ord(AttrId(0)) <= 0.2 && t.ord(AttrId(1)) <= 0.2)
            .map(|t| view.score(t))
            .min_by(f64::total_cmp)
            .unwrap();
        assert_eq!(got.1, truth);
        assert!(st.densemd.num_boxes() == 1);
        assert!(st.densemd.build_cost > 0);
        // Contained box afterwards: free.
        let cost = server.queries_issued();
        let mut inner = b.clone();
        inner.dims[0] = Interval::closed(0.05, 0.15);
        let _ = md_oracle(&server, &mut st, &view, &inner, &sel).unwrap();
        assert_eq!(server.queries_issued(), cost);
        assert_eq!(st.densemd.num_boxes(), 1, "no duplicate entry");
    }

    #[test]
    fn oracle_applies_selection_after_generic_crawl() {
        let (server, mut st, view) = setup();
        let mut b = NormBox::full(view.bounds());
        b.dims[0] = Interval::closed(0.0, 0.3);
        let sel = Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 1));
        let got = md_oracle(&server, &mut st, &view, &b, &sel).unwrap();
        let truth = server
            .dataset()
            .tuples()
            .iter()
            .filter(|t| sel.matches(t) && t.ord(AttrId(0)) <= 0.3)
            .map(|t| view.score(t))
            .min_by(f64::total_cmp);
        assert_eq!(got.map(|(_, s)| s), truth);
    }

    #[test]
    fn empty_box_returns_none() {
        let (server, mut st, view) = setup();
        let mut b = NormBox::full(view.bounds());
        b.dims[0] = Interval::closed(5.0, 6.0); // outside data
        assert!(md_oracle(&server, &mut st, &view, &b, &Query::all())
            .unwrap()
            .is_none());
    }
}
