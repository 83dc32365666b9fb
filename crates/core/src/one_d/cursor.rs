//! The 1D *Get-Next* cursor (§2.2's incremental interface, §5's extensions).
//!
//! A [`OneDCursor`] streams the tuples of `R(q)` in ranking-attribute order,
//! exact under the one tie contract (README, "Exactness"): its value
//! sequence equals the dense ranking's bit for bit. Between values it
//! delegates to the [`super::primitives`] strategies; *at* a value it
//! collects the whole slab `Sel(q) ∧ Ai = v` before moving past `v` (a
//! complete region, one point query, or a sub-crawl on the other attributes
//! when even the point query overflows), so no tie is skipped. Point-only
//! attributes (§5) are enumerated value by value in preference order.

use crate::crawl::crawl_region;
use crate::ctx::SharedState;
use crate::one_d::primitives::{next_above, OneDSpec};
use crate::one_d::OneDStrategy;
use qrs_server::SearchInterface;
use qrs_types::{Direction, Interval, Query, RerankError, Tuple};
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
            state: State::Start,
        }
    }

    /// Convenience constructor.
    pub fn over(
        attr: qrs_types::AttrId,
        dir: Direction,
        sel: Query,
        strategy: OneDStrategy,
    ) -> Self {
        OneDCursor::new(OneDSpec::new(attr, dir, sel), strategy)
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
                    let after = *nval;
                    self.advance(server, st, after)?;
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
                        self.advance(server, st, f64::NEG_INFINITY)?;
                    }
                }
            }
        }
    }

    /// Pull every remaining tuple (careful on large `R(q)` — this crawls).
    pub fn drain(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Vec<Arc<Tuple>>, RerankError> {
        let mut out = Vec::new();
        while let Some(t) = self.next(server, st)? {
            out.push(t);
        }
        Ok(out)
    }

    fn advance(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
        after: f64,
    ) -> Result<(), RerankError> {
        match next_above(server, st, &self.spec, self.strategy, after, None)? {
            None => self.state = State::Done,
            Some(t) => {
                let nv = self.spec.nval(&t);
                let queue: VecDeque<Arc<Tuple>> = gather_slab(server, st, &self.spec, nv)?.into();
                debug_assert!(
                    !queue.is_empty(),
                    "slab at a discovered value can't be empty"
                );
                self.state = State::Slab { nval: nv, queue };
            }
        }
        Ok(())
    }
}

/// Collect every tuple with `attr` exactly at normalized value `nval`
/// matching the spec's selection, sorted by id. Exact even when the slab
/// overflows the interface (sub-crawl on the remaining attributes).
pub(crate) fn gather_slab(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    nval: f64,
) -> Result<Vec<Arc<Tuple>>, RerankError> {
    let raw = spec.dir.denormalize(nval);
    let q = spec.sel.clone().and_range(spec.attr, Interval::point(raw));
    if st.ask(server, &q)?.is_overflow() {
        // More than k ties at one value: crawl the slab by the other
        // attributes.
        let r = crawl_region(server, st, &q)?;
        return Ok(r.tuples);
    }
    Ok(st.history.matching(&q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::{discrete_grid, uniform};
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;

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
            let mut cur = OneDCursor::over(AttrId(0), Direction::Asc, Query::all(), strategy);
            let got: Vec<(f64, u32)> = cur
                .drain(&server, &mut st)
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

    #[test]
    fn streams_with_heavy_ties_exactly() {
        // 6-level grid: many duplicates per value, some slabs overflow k.
        let data = discrete_grid(400, 2, 6, 53);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 7));
        let server = SimServer::new(data, SystemRank::pseudo_random(1), 7);
        let mut cur = OneDCursor::over(
            AttrId(0),
            Direction::Asc,
            Query::all(),
            OneDStrategy::Rerank,
        );
        let got: Vec<(f64, u32)> = cur
            .drain(&server, &mut st)
            .unwrap()
            .iter()
            .map(|t| (t.ord(AttrId(0)), t.id.0))
            .collect();
        assert_eq!(got, truth_order(&server, cur.spec()));
    }

    #[test]
    fn descending_stream_with_filter() {
        let data = uniform(400, 2, 1, 59);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 5));
        let server = SimServer::new(data, SystemRank::by_attr_asc(AttrId(0)), 5);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(0.2, 0.8));
        let mut cur = OneDCursor::over(AttrId(0), Direction::Desc, sel, OneDStrategy::Binary);
        let got: Vec<(f64, u32)> = cur
            .drain(&server, &mut st)
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
        let mut cur = OneDCursor::over(
            AttrId(0),
            Direction::Asc,
            Query::all(),
            OneDStrategy::Rerank,
        );
        let got: Vec<u32> = cur
            .drain(&server, &mut st)
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
        let mut cur2 = OneDCursor::over(
            AttrId(0),
            Direction::Desc,
            Query::all(),
            OneDStrategy::Rerank,
        );
        let got2: Vec<u32> = cur2
            .drain(&server, &mut st2)
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
        let mut cur = OneDCursor::over(AttrId(0), Direction::Asc, sel, OneDStrategy::Baseline);
        assert!(cur.next(&server, &mut st).unwrap().is_none());
        // Idempotent.
        assert!(cur.next(&server, &mut st).unwrap().is_none());
    }
}
