//! The 1D *Get-Next* cursor (§2.2's incremental interface, §5's extensions).
//!
//! A [`OneDCursor`] streams the tuples of `R(q)` in ranking-attribute order,
//! exact under the one tie contract (README, "Exactness"): its value
//! sequence equals the dense ranking's bit for bit. Between values it
//! delegates to the [`super::primitives`] strategies; *at* a value it
//! collects the whole slab `Sel(q) ∧ Ai = v` before moving past `v` (a
//! complete region, one point query, or a crawl on the other attributes
//! rooted at that point query when it overflows), so no tie is skipped.
//! Point-only attributes (§5) are enumerated value by value in preference
//! order.
//!
//! A refused step resumes where it stopped: the cursor keeps the search's
//! progress (`narrow`'s [`Step`]: its lower bound and its confirm flag) and
//! a found value until its slab is gathered, and an interrupted slab crawl
//! keeps its pending sub-queries in [`SharedState`]. So a retry asks
//! exactly the queries the uninterrupted step would have, and none twice.

use crate::crawl::crawl_for;
use crate::ctx::{Purpose, SharedState};
use crate::one_d::primitives::{seek, OneDSpec, Step};
use crate::one_d::OneDStrategy;
use qrs_server::SearchInterface;
use qrs_types::{Interval, RerankError, Tuple};
use std::collections::VecDeque;
use std::sync::Arc;

/// How equal ranking values are treated: one way, exactly (§5 drops §2.1's
/// general-positioning assumption). A stream is exact when its score
/// sequence equals the dense ranking's bit for bit; the order among equal
/// scores is deterministic but unspecified.
///
/// Nothing in the workspace reads this type. It stays, with its one
/// variant, because `qrs_benchmark` passes `TiePolicy::Exact` to
/// [`crate::strategy::OneDCursorStrategy::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TiePolicy {
    /// Collect every tuple of a value slab before moving on.
    Exact,
}

/// Streaming Get-Next over one ranking attribute.
#[derive(Debug)]
pub struct OneDCursor {
    spec: OneDSpec,
    strategy: OneDStrategy,
    /// The search's progress. Its confirm flag lives as long as the cursor;
    /// its lower bound restarts at each value.
    step: Step,
    state: State,
}

#[derive(Debug)]
enum State {
    Start,
    /// Enumerating a point-only attribute: remaining normalized values.
    PointEnum {
        values: VecDeque<f64>,
        queue: VecDeque<Arc<Tuple>>,
    },
    /// Searching for the first value past `after`; no matching tuple lies
    /// in `(after, step.lo)`.
    Seek {
        after: f64,
    },
    /// The next value, found; its slab is still to gather.
    Found(f64),
    Slab {
        nval: f64,
        queue: VecDeque<Arc<Tuple>>,
    },
    Done,
}

impl OneDCursor {
    /// Cursor driving `strategy` over `spec`.
    pub fn new(spec: OneDSpec, strategy: OneDStrategy) -> Self {
        OneDCursor {
            spec,
            strategy,
            step: Step::new(f64::NEG_INFINITY),
            state: State::Start,
        }
    }

    /// The search specification (attribute, direction, selection).
    pub fn spec(&self) -> &OneDSpec {
        &self.spec
    }

    /// The next tuple in ranking order, or `Ok(None)` when `R(q)` is
    /// exhausted. A server failure surfaces as `Err`; the cursor stays
    /// coherent and a later retry resumes where it stopped.
    pub fn next(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Option<Arc<Tuple>>, RerankError> {
        loop {
            match &mut self.state {
                State::Done => return Ok(None),
                State::Slab { queue, nval } => {
                    if let Some(t) = queue.pop_front() {
                        return Ok(Some(t));
                    }
                    self.step.lo = *nval;
                    self.state = State::Seek { after: *nval };
                }
                State::Seek { after } => {
                    let after = *after;
                    let step = &mut self.step;
                    let next = seek(server, st, &self.spec, self.strategy, after, None, step)?;
                    self.state = match next {
                        None => State::Done,
                        Some(t) => State::Found(self.spec.nval(&t)),
                    };
                }
                State::Found(nval) => {
                    let nval = *nval;
                    let queue: VecDeque<Arc<Tuple>> =
                        gather_slab(server, st, &self.spec, nval)?.into();
                    debug_assert!(
                        !queue.is_empty(),
                        "slab at a discovered value can't be empty"
                    );
                    self.state = State::Slab { nval, queue };
                }
                State::PointEnum { values, queue } => {
                    if let Some(t) = queue.pop_front() {
                        return Ok(Some(t));
                    }
                    match values.pop_front() {
                        None => self.state = State::Done,
                        Some(nv) => {
                            let slab = gather_slab(server, st, &self.spec, nv);
                            match slab {
                                Ok(slab) => {
                                    if let State::PointEnum { queue, .. } = &mut self.state {
                                        queue.extend(slab);
                                    }
                                }
                                Err(e) => {
                                    // Re-queue the value so a retry replays it.
                                    if let State::PointEnum { values, .. } = &mut self.state {
                                        values.push_front(nv);
                                    }
                                    return Err(e);
                                }
                            }
                        }
                    }
                }
                State::Start => {
                    let schema = Arc::clone(server.schema());
                    let o = schema.ordinal(self.spec.attr);
                    if o.point_only {
                        let vals = o
                            .values
                            .as_ref()
                            .expect("point-only attribute carries a value list");
                        let mut norm: Vec<f64> =
                            vals.iter().map(|&v| self.spec.dir.normalize(v)).collect();
                        norm.sort_by(f64::total_cmp);
                        self.state = State::PointEnum {
                            values: norm.into_iter().collect(),
                            queue: VecDeque::new(),
                        };
                    } else {
                        self.state = State::Seek {
                            after: f64::NEG_INFINITY,
                        };
                    }
                }
            }
        }
    }
}

/// Collect every tuple with `attr` exactly at normalized value `nval`
/// matching the spec's selection, sorted by id. Exact even when the slab
/// overflows the interface: the point query is the root of a crawl, so
/// more than `k` ties at one value are split by the other attributes
/// without paying the point query twice.
pub(crate) fn gather_slab(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    nval: f64,
) -> Result<Vec<Arc<Tuple>>, RerankError> {
    let raw = spec.dir.denormalize(nval);
    let q = spec.sel.clone().and_range(spec.attr, Interval::point(raw));
    Ok(crawl_for(server, st, &q, Purpose::OneDSlab)?.tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use crate::strategy::pull;
    use qrs_datagen::synthetic::{discrete_grid, uniform};
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::{AttrId, Direction, Query};

    fn truth_order(server: &SimServer, spec: &OneDSpec) -> Vec<(f64, u32)> {
        let mut v: Vec<(f64, u32)> = server
            .dataset()
            .tuples()
            .iter()
            .filter(|t| spec.sel.matches(t))
            .map(|t| (spec.nval(t), t.id.0))
            .collect();
        v.sort_by(|a, b| cmp_f64(a.0, b.0).then(a.1.cmp(&b.1)));
        v
    }

    #[test]
    fn streams_whole_relation_in_order_continuous() {
        let data = uniform(300, 2, 1, 51);
        let st0 = RerankParams::paper_defaults(300, 5);
        for strategy in OneDStrategy::ALL {
            let mut st = SharedState::new(data.schema(), st0);
            let server = SimServer::new(data.clone(), SystemRank::by_attr_desc(AttrId(0)), 5);
            let mut cur = OneDCursor::new(
                OneDSpec::new(AttrId(0), Direction::Asc, Query::all()),
                strategy,
            );
            let got: Vec<(f64, u32)> = pull(&mut cur, &server, &mut st, usize::MAX)
                .unwrap()
                .iter()
                .map(|t| (t.ord(AttrId(0)), t.id.0))
                .collect();
            assert_eq!(
                got,
                truth_order(&server, cur.spec()),
                "{}",
                strategy.label()
            );
        }
    }

    /// The 1-D cursor amortizes across requests through history alone, where
    /// their top values share a dense region: with a third of the tuples
    /// packed into the bottom 0.1 % of the ranked attribute, top-5 requests
    /// with different range filters on the other attribute, served in turn
    /// over one shared state, pay less in total than the same requests on
    /// fresh states, and every stream is exact.
    #[test]
    fn history_alone_amortizes_requests_into_a_dense_region() {
        let (n, k) = (5_000, 10);
        let spread = uniform(n, 2, 1, 22);
        let tuples = (spread.tuples().iter())
            .map(|t| {
                let mut ords = t.ords().to_vec();
                if t.id.0 % 10 < 3 {
                    ords[0] *= 1e-3;
                }
                Arc::new(Tuple::new(t.id, ords, t.cats().to_vec()))
            })
            .collect();
        let data = qrs_types::Dataset::from_shared(Arc::clone(spread.schema()), tuples);
        // Adversarial for an ascending user: the site ranks descending.
        let server = SimServer::new(data.clone(), SystemRank::by_attr_desc(AttrId(0)), k);
        let requests: Vec<OneDSpec> = (1..=20)
            .map(|req| {
                let frac = f64::from(req) / 21.0;
                let filter = Interval::closed(0.25 * frac, 0.5 + 0.5 * frac);
                let sel = Query::all().and_range(AttrId(1), filter);
                OneDSpec::new(AttrId(0), Direction::Asc, sel)
            })
            .collect();
        // The top-5 of one request on `st`, checked; the queries it paid.
        let top5 = |st: &mut SharedState, spec: &OneDSpec| {
            let before = server.queries_issued();
            let mut cur = OneDCursor::new(spec.clone(), OneDStrategy::Rerank);
            let got: Vec<(f64, u32)> = (pull(&mut cur, &server, st, 5).unwrap().iter())
                .map(|t| (spec.nval(t), t.id.0))
                .collect();
            let mut truth = truth_order(&server, spec);
            truth.truncate(5);
            assert_eq!(got, truth, "{}", spec.sel);
            server.queries_issued() - before
        };
        let fresh = || SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
        let mut shared = fresh();
        let warm: u64 = requests.iter().map(|spec| top5(&mut shared, spec)).sum();
        let cold: u64 = requests.iter().map(|spec| top5(&mut fresh(), spec)).sum();
        assert!(
            warm < cold,
            "one shared state paid {warm}, fresh states {cold}"
        );
    }

    #[test]
    fn streams_with_heavy_ties_exactly() {
        // 6-level grid: many duplicates per value, some slabs overflow k.
        let data = discrete_grid(400, 2, 6, 53);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 7));
        let server = SimServer::new(data, SystemRank::pseudo_random(1), 7);
        let mut cur = OneDCursor::new(
            OneDSpec::new(AttrId(0), Direction::Asc, Query::all()),
            OneDStrategy::Rerank,
        );
        let got: Vec<(f64, u32)> = pull(&mut cur, &server, &mut st, usize::MAX)
            .unwrap()
            .iter()
            .map(|t| (t.ord(AttrId(0)), t.id.0))
            .collect();
        assert_eq!(got, truth_order(&server, cur.spec()));
    }

    #[test]
    fn the_last_probe_pays_for_every_slab_on_untied_data() {
        use crate::one_d::primitives::next_above;
        // Untied values: each slab is one tuple, and the bisection's last
        // probe, closed at the value it names, already proved that slab
        // complete.
        let data = uniform(400, 2, 1, 61);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(0.1, 0.9));
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, sel);
        for sys in [
            SystemRank::by_attr_desc(AttrId(0)),
            SystemRank::pseudo_random(5),
        ] {
            let label = sys.label().to_owned();
            let server = SimServer::new(data.clone(), sys, 5);
            let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 5));
            let mut after = f64::NEG_INFINITY;
            for rank in 0..40 {
                let t = next_above(&server, &mut st, &spec, OneDStrategy::Rerank, after, None)
                    .unwrap()
                    .expect("more than 40 matches");
                let paid = server.queries_issued();
                let slab = gather_slab(&server, &mut st, &spec, spec.nval(&t)).unwrap();
                assert_eq!(slab.len(), 1);
                assert_eq!(
                    server.queries_issued(),
                    paid,
                    "{label}: the slab at rank {rank} was paid for"
                );
                after = spec.nval(&t);
            }
        }
    }

    #[test]
    fn a_one_tuple_page_streams_ties_exactly() {
        // At k = 1 the candidate alone fills a page, so the upper probe stays
        // open, and every slab of more than one tuple is crawled. Distinct
        // cells only: tuples equal on every attribute are indistinguishable.
        let grid = discrete_grid(300, 2, 6, 71);
        let mut seen = std::collections::HashSet::new();
        let distinct = (grid.tuples().iter())
            .filter(|t| {
                let bits: Vec<u64> = t.ords().iter().map(|v| v.to_bits()).collect();
                seen.insert((bits, t.cats().to_vec()))
            })
            .cloned()
            .collect();
        let data = qrs_types::Dataset::from_shared(Arc::clone(grid.schema()), distinct);
        for strategy in OneDStrategy::ALL {
            let mut st =
                SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), 1));
            let server = SimServer::new(data.clone(), SystemRank::pseudo_random(3), 1);
            let mut cur = OneDCursor::new(
                OneDSpec::new(AttrId(0), Direction::Desc, Query::all()),
                strategy,
            );
            let got: Vec<(f64, u32)> =
                (pull(&mut cur, &server, &mut st, usize::MAX).unwrap().iter())
                    .map(|t| (cur_nval(&cur, t), t.id.0))
                    .collect();
            assert_eq!(
                got,
                truth_order(&server, cur.spec()),
                "{}",
                strategy.label()
            );
        }
    }

    #[test]
    fn descending_stream_with_filter() {
        let data = uniform(400, 2, 1, 59);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 5));
        let server = SimServer::new(data, SystemRank::by_attr_asc(AttrId(0)), 5);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(0.2, 0.8));
        let mut cur = OneDCursor::new(
            OneDSpec::new(AttrId(0), Direction::Desc, sel),
            OneDStrategy::Rerank,
        );
        let got: Vec<(f64, u32)> = pull(&mut cur, &server, &mut st, usize::MAX)
            .unwrap()
            .iter()
            .map(|t| (cur_nval(&cur, t), t.id.0))
            .collect();
        assert_eq!(got, truth_order(&server, cur.spec()));
    }

    fn cur_nval(c: &OneDCursor, t: &Tuple) -> f64 {
        c.spec().nval(t)
    }

    #[test]
    fn point_only_attribute_enumerates_in_preference_order() {
        use qrs_types::{CatAttr, OrdinalAttr, Schema, Tuple, TupleId};
        let schema = Schema::new(
            vec![
                OrdinalAttr::point_only("grade", vec![1.0, 2.0, 3.0]),
                OrdinalAttr::new("x", 0.0, 1.0),
            ],
            vec![CatAttr::new("c", 2)],
        );
        let tuples = vec![
            Tuple::new(TupleId(0), vec![2.0, 0.1], vec![0]),
            Tuple::new(TupleId(1), vec![1.0, 0.2], vec![0]),
            Tuple::new(TupleId(2), vec![3.0, 0.3], vec![0]),
            Tuple::new(TupleId(3), vec![1.0, 0.4], vec![1]),
        ];
        let data = qrs_types::Dataset::new(schema, tuples).unwrap();
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(4, 2));
        let server = SimServer::new(data, SystemRank::pseudo_random(9), 2);
        let mut cur = OneDCursor::new(
            OneDSpec::new(AttrId(0), Direction::Asc, Query::all()),
            OneDStrategy::Rerank,
        );
        let got: Vec<u32> = pull(&mut cur, &server, &mut st, usize::MAX)
            .unwrap()
            .iter()
            .map(|t| t.id.0)
            .collect();
        assert_eq!(got, vec![1, 3, 0, 2]);
        // Descending preference reverses the value order.
        let mut st2 = SharedState::new(
            server.dataset().schema(),
            RerankParams::paper_defaults(4, 2),
        );
        let mut cur2 = OneDCursor::new(
            OneDSpec::new(AttrId(0), Direction::Desc, Query::all()),
            OneDStrategy::Rerank,
        );
        let got2: Vec<u32> = pull(&mut cur2, &server, &mut st2, usize::MAX)
            .unwrap()
            .iter()
            .map(|t| t.id.0)
            .collect();
        assert_eq!(got2, vec![2, 0, 1, 3]);
    }

    #[test]
    fn empty_result_stream() {
        let data = uniform(100, 2, 1, 67);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(100, 5));
        let server = SimServer::new(data, SystemRank::pseudo_random(2), 5);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(5.0, 6.0));
        let mut cur = OneDCursor::new(
            OneDSpec::new(AttrId(0), Direction::Asc, sel),
            OneDStrategy::Baseline,
        );
        assert!(cur.next(&server, &mut st).unwrap().is_none());
        // Idempotent.
        assert!(cur.next(&server, &mut st).unwrap().is_none());
    }
}
