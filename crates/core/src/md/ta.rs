//! "TA over 1D-RERANK" (§4.1) — the threshold algorithm of Fagin et al.
//! driven by Get-Next sorted access.
//!
//! Each ranking attribute gets a sorted-access stream: a 1D-RERANK
//! [`OneDCursor`] ([`SortedAccess::OneD`]), or — when the server publicly
//! offers `ORDER BY` on the attribute (§5 "Multiple/Known System Ranking
//! Functions") — a cheap paged [`SortedAccess::PublicOrderBy`] stream.
//! Random access is free in this setting (the interface returns whole
//! tuples), so TA reduces to: pull streams round-robin, maintain the
//! threshold `τ = S(frontier)`, emit a candidate once its score is at most
//! `τ`.
//!
//! The paper uses this as the comparator that *fails to exploit
//! multi-predicate queries*: its cost explodes when many tuples have extreme
//! values on single attributes (Fig. 1) — reproduced in the Fig. 13/14/16/17
//! experiments.

use crate::ctx::SharedState;
use crate::norm::NormView;
use crate::one_d::{OneDCursor, OneDSpec, OneDStrategy};
use qrs_ranking::RankFn;
use qrs_server::{Capabilities, SearchInterface};
use qrs_types::value::OrdF64;
use qrs_types::{Capability, Query, RerankError, Schema, Tuple, TupleId};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// How sorted access per attribute is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortedAccess {
    /// Get-Next via 1D-RERANK: §4.1's TA over 1D-RERANK.
    OneD,
    /// Page through the server's public `ORDER BY` (§5); falls back to
    /// 1D-RERANK on attributes the server does not offer.
    PublicOrderBy,
}

enum Stream {
    Cursor(OneDCursor),
    Public {
        spec: OneDSpec,
        page: usize,
        buf: VecDeque<Arc<Tuple>>,
        done: bool,
    },
}

impl Stream {
    fn next(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Option<Arc<Tuple>>, RerankError> {
        match self {
            Stream::Cursor(c) => c.next(server, st),
            Stream::Public {
                spec,
                page,
                buf,
                done,
            } => loop {
                if let Some(t) = buf.pop_front() {
                    return Ok(Some(t));
                }
                if *done {
                    return Ok(None);
                }
                let p = server.query_ordered(&spec.sel, spec.attr, spec.dir, *page)?;
                *page += 1;
                *done = !p.has_more;
                for t in &p.tuples {
                    st.history.record(t);
                }
                if p.tuples.is_empty() {
                    *done = true;
                    return Ok(None);
                }
                buf.extend(p.tuples);
            },
        }
    }
}

/// Streaming Get-Next via the threshold algorithm.
pub struct TaCursor {
    view: NormView,
    streams: Vec<Stream>,
    /// Last-seen normalized value per stream (init: domain minimum).
    frontier: Vec<f64>,
    exhausted: Vec<bool>,
    /// Candidates by (score, id); `seen` prevents re-insertion.
    candidates: BTreeMap<(OrdF64, TupleId), Arc<Tuple>>,
    seen: HashSet<TupleId>,
    all_known: bool,
    rr: usize,
    /// The sorted access it was built for: names and prices the cursor as
    /// a strategy.
    pub(crate) access: SortedAccess,
}

impl TaCursor {
    /// Cursor over `rank` restricted to `sel`, negotiating `access` against
    /// the server's advertised [`Capabilities`]: attributes without public
    /// `ORDER BY` fall back to 1D-RERANK sorted access. Callers wanting a
    /// hard error instead of the fallback preflight with
    /// [`Capabilities::require`] (the service layer's session builder
    /// does).
    pub fn new(
        rank: Arc<dyn RankFn>,
        sel: Query,
        access: SortedAccess,
        schema: &Schema,
        caps: &Capabilities,
    ) -> Self {
        let view = NormView::new(Arc::clone(&rank), schema);
        let streams = rank
            .attrs()
            .iter()
            .zip(rank.directions())
            .map(|(&a, &d)| {
                let spec = OneDSpec::new(a, d, sel.clone());
                match access {
                    SortedAccess::PublicOrderBy if caps.supports(Capability::OrderBy(a)) => {
                        Stream::Public {
                            spec,
                            page: 0,
                            buf: VecDeque::new(),
                            done: false,
                        }
                    }
                    _ => Stream::Cursor(OneDCursor::new(spec, OneDStrategy::Rerank)),
                }
            })
            .collect();
        let frontier = view.bounds().lo.clone();
        let m = rank.dims();
        TaCursor {
            view,
            streams,
            frontier,
            exhausted: vec![false; m],
            candidates: BTreeMap::new(),
            seen: HashSet::new(),
            all_known: false,
            rr: 0,
            access,
        }
    }

    /// The normalized view (ranking function + bounds) the cursor searches.
    pub fn view(&self) -> &NormView {
        &self.view
    }

    /// The next tuple in user-ranking order (`Ok(None)` once exhausted).
    /// Candidates and frontiers survive an `Err`, so a retry resumes.
    pub fn next(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Option<Arc<Tuple>>, RerankError> {
        loop {
            let tau = if self.all_known {
                f64::INFINITY
            } else {
                self.view.rank().score_norm(&self.frontier)
            };
            if let Some((&(s, id), _)) = self.candidates.first_key_value() {
                if s.0 <= tau {
                    return Ok(self.candidates.remove(&(s, id)));
                }
            } else if self.all_known {
                return Ok(None);
            }
            self.pull_one(server, st)?;
        }
    }

    fn pull_one(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<(), RerankError> {
        let m = self.streams.len();
        for _ in 0..m {
            let i = self.rr;
            self.rr = (self.rr + 1) % m;
            if self.exhausted[i] {
                continue;
            }
            match self.streams[i].next(server, st)? {
                Some(t) => {
                    self.frontier[i] = self.view.rank().directions()[i]
                        .normalize(t.ord(self.view.rank().attrs()[i]));
                    if self.seen.insert(t.id) {
                        let s = self.view.score(&t);
                        self.candidates.insert((OrdF64(s), t.id), t);
                    }
                    return Ok(());
                }
                None => {
                    // One exhausted stream enumerated all of R(q): complete.
                    self.exhausted[i] = true;
                    self.all_known = true;
                    return Ok(());
                }
            }
        }
        self.all_known = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use crate::strategy::pull;
    use qrs_datagen::synthetic::{correlated, uniform};
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;

    fn truth(data: &qrs_types::Dataset, rank: &LinearRank, sel: &Query, h: usize) -> Vec<f64> {
        let mut v: Vec<f64> = data
            .tuples()
            .iter()
            .filter(|t| sel.matches(t))
            .map(|t| rank.score(t))
            .collect();
        v.sort_by(|a, b| cmp_f64(*a, *b));
        v.truncate(h);
        v
    }

    #[test]
    fn ta_matches_ground_truth() {
        let data = uniform(250, 2, 1, 301);
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.5)]);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(250, 5));
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(23), 5);
        let mut ta = TaCursor::new(
            Arc::new(rank.clone()),
            Query::all(),
            SortedAccess::OneD,
            server.schema(),
            &Capabilities::none(),
        );
        let got: Vec<f64> = pull(&mut ta, &server, &mut st, 15)
            .unwrap()
            .iter()
            .map(|t| rank.score(t))
            .collect();
        assert_eq!(got, truth(&data, &rank, &Query::all(), 15));
    }

    #[test]
    fn ta_with_filter_and_anticorrelation() {
        let data = correlated(300, -0.8, 307);
        let sel = Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 0));
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(300, 5));
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(29), 5);
        let mut ta = TaCursor::new(
            Arc::new(rank.clone()),
            sel.clone(),
            SortedAccess::OneD,
            server.schema(),
            &Capabilities::none(),
        );
        let got: Vec<f64> = pull(&mut ta, &server, &mut st, 10)
            .unwrap()
            .iter()
            .map(|t| rank.score(t))
            .collect();
        assert_eq!(got, truth(&data, &rank, &sel, 10));
    }

    #[test]
    fn ta_public_order_by_variant() {
        let data = uniform(250, 2, 1, 311);
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(250, 5));
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(31), 5)
            .with_capabilities(Capabilities::none().with_order_by(vec![AttrId(0), AttrId(1)]));
        let mut ta = TaCursor::new(
            Arc::new(rank.clone()),
            Query::all(),
            SortedAccess::PublicOrderBy,
            server.schema(),
            &server.capabilities(),
        );
        let got: Vec<f64> = pull(&mut ta, &server, &mut st, 12)
            .unwrap()
            .iter()
            .map(|t| rank.score(t))
            .collect();
        assert_eq!(got, truth(&data, &rank, &Query::all(), 12));
    }

    #[test]
    fn ta_exhausts_relation() {
        let data = uniform(60, 2, 1, 313);
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(60, 5));
        let server = SimServer::new(data, SystemRank::pseudo_random(37), 5);
        let mut ta = TaCursor::new(
            Arc::new(rank),
            Query::all(),
            SortedAccess::OneD,
            server.schema(),
            &Capabilities::none(),
        );
        let got = pull(&mut ta, &server, &mut st, 1000).unwrap();
        assert_eq!(got.len(), 60);
        assert!(ta.next(&server, &mut st).unwrap().is_none());
    }
}
