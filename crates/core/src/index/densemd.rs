//! The MD dense-region index (§4.4, Algorithm 6 lines 3–12).
//!
//! When MD search narrows to a box with relative volume below `(s/n)/c`, the
//! box is crawled **completely and selection-free** (the paper strips
//! `Sel(q)` so one crawl serves all future user queries) and registered.
//! The index holds regions and nothing else: the crawl's tuples are in the
//! shared [`History`](crate::history::History), so a future oracle hit on a
//! contained box answers from there at zero query cost; "contained" is asked
//! of a [`RegionIndex`] per ranking frame (the attributes and their
//! directions), over the boxes' raw predicates.
//!
//! Deviation from the paper noted in DESIGN.md: Algorithm 6 crawls in score
//! order and may stop early at the first tuple satisfying `Sel(q)`; we crawl
//! the box to completion instead. The cost is the same order (the box holds
//! `O(s)` tuples by construction), and completeness makes the registered box
//! reusable by *any* ranking function over the same attributes, not just the
//! one that triggered the crawl.

use crate::crawl::crawl_region;
use crate::ctx::SharedState;
use crate::md::top1::history_best;
use crate::norm::{NormBox, NormView};
use qrs_server::SearchInterface;
use qrs_types::{AttrId, Direction, Query, RegionIndex, RerankError, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// The attributes a box was crawled along and their directions: a box only
/// answers for boxes cut in the same frame.
type Frame = (Vec<AttrId>, Vec<Direction>);

/// Registry of crawled boxes: per frame, each box's raw predicates
/// (`NormView::to_query`: negation preserves containment side by side).
#[derive(Debug, Default)]
pub struct DenseMd {
    regions: HashMap<Frame, RegionIndex<()>>,
}

impl DenseMd {
    /// Crawled boxes registered so far.
    pub fn num_boxes(&self) -> usize {
        self.regions.values().map(RegionIndex::len).sum()
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
    let rank = view.rank();
    let frame = (rank.attrs().to_vec(), rank.directions().to_vec());
    let region = view.to_query(b, &Query::all());
    let registered = st.densemd.regions.get(&frame);
    if registered.is_none_or(|boxes| boxes.find(&region).is_none()) {
        crawl_region(server, st, &region)?;
        let boxes = st.densemd.regions.entry(frame).or_default();
        boxes.insert(&region, ());
    }
    Ok(history_best(st, view, &view.to_query(b, sel)))
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
        assert!(server.queries_issued() > 0);
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

    /// Seeded data × selections × mixed directions over one shared state:
    /// the oracle is brute force over the dataset by (score, id), and a box
    /// inside one already asked for is free.
    #[test]
    fn oracle_is_brute_force_and_contained_boxes_are_free() {
        use qrs_datagen::workload::{md_workload, DirectionPolicy, WorkloadConfig};
        let seed = std::env::var("QRS_TEST_SEED").ok();
        let seed: u64 = seed.and_then(|s| s.parse().ok()).unwrap_or(0);
        let data = uniform(400, 3, 2, 77 ^ seed);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 5));
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(4), 5);
        let cfg = WorkloadConfig {
            num_queries: 50,
            directions: DirectionPolicy::Random,
            seed,
            ..WorkloadConfig::default()
        };
        let mut found = 0;
        for (i, user) in md_workload(&data, &cfg).into_iter().enumerate() {
            let view = NormView::new(Arc::new(user.rank), server.schema());
            // A box around a tuple — another one, another size, each turn —
            // and one strictly inside it.
            let centre = view.norm_coords(&data.tuples()[i * 7]);
            let [mut outer, mut inner] = [(); 2].map(|()| NormBox::full(view.bounds()));
            for (d, &c) in centre.iter().enumerate() {
                let width = view.bounds().hi[d] - view.bounds().lo[d];
                let half = width * (0.04 + 0.02 * (i % 5) as f64);
                outer.dims[d] = Interval::closed(c - half, c + half);
                inner.dims[d] = Interval::open(c - half / 2.0, c + half / 3.0);
            }
            let mut ask = |b: &NormBox| {
                let got = md_oracle(&server, &mut st, &view, b, &user.query).unwrap();
                let inside = |t: &&Arc<Tuple>| b.contains(&view.norm_coords(t));
                let hits = data.tuples().iter().filter(|t| user.query.matches(t));
                let scored = hits.filter(inside).map(|t| (view.score(t), t.id));
                let truth = scored.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                assert_eq!(got.map(|(t, s)| (s, t.id)), truth, "turn {i}: {b:?}");
                truth.is_some()
            };
            found += usize::from(ask(&outer));
            let paid = server.queries_issued();
            ask(&inner);
            assert_eq!(server.queries_issued(), paid, "turn {i}: contained box");
        }
        assert!(found >= 10, "vacuous: {found} of 50 boxes held a match");
    }
}
