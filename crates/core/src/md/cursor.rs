//! The MD Get-Next driver (§4.2.2), exact under ties.
//!
//! The paper discovers the No. (h+1) tuple by maintaining subspaces split at
//! previously emitted tuples and taking the best subspace top-1. We split
//! *three ways* per dimension (`< v`, `= v`, `> v`) instead of the paper's
//! two, which removes the general-positioning assumption (§5): tuples
//! sharing attribute values with an emitted tuple live in the `= v` slabs.
//! A fully pinned slab (every ranking dimension a point) is a *cell*; cells
//! track emitted ids explicitly and enumerate exact duplicates through point
//! queries / sub-crawls on the remaining attributes.

use crate::crawl::crawl_region;
use crate::ctx::SharedState;
use crate::md::top1::{md_top1, MdOptions};
use crate::norm::{NormBox, NormView};
use qrs_ranking::RankFn;
use qrs_server::SearchInterface;
use qrs_types::{Interval, Query, RerankError, Schema, Tuple, TupleId};
use std::collections::HashSet;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum TopState {
    Unknown,
    Empty,
    Known(Arc<Tuple>, f64),
}

#[derive(Debug)]
struct Subspace {
    bbox: NormBox,
    top: TopState,
    /// Ids emitted from this subspace — only populated for cells.
    cell_emitted: HashSet<TupleId>,
}

/// How the Get-Next driver treats ranking-attribute ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MdTie {
    /// Three-way splits with point slabs and duplicate cells: exact on any
    /// data (§5's removal of the general positioning assumption).
    #[default]
    Exact,
    /// The paper's §4.2.2 splitting: two subspaces per emission
    /// (`A1 < v`, `A1 > v`). Cheaper; exact only under the general
    /// positioning assumption (tuples sharing a ranking value with an
    /// emitted tuple are skipped, as in the paper's experiments).
    GeneralPositioning,
}

/// Streaming Get-Next over an arbitrary monotonic ranking function.
pub struct MdCursor {
    view: NormView,
    sel: Query,
    opts: MdOptions,
    tie: MdTie,
    subs: Vec<Subspace>,
}

impl MdCursor {
    /// Cursor over `rank` restricted to `sel`, with exact tie handling.
    pub fn new(rank: Arc<dyn RankFn>, sel: Query, opts: MdOptions, schema: &Schema) -> Self {
        Self::with_tie(rank, sel, opts, schema, MdTie::Exact)
    }

    /// Like [`MdCursor::new`] but with an explicit tie-handling policy.
    pub fn with_tie(
        rank: Arc<dyn RankFn>,
        sel: Query,
        opts: MdOptions,
        schema: &Schema,
        tie: MdTie,
    ) -> Self {
        let view = NormView::new(rank, schema);
        let b0 = view.initial_box(&sel);
        MdCursor {
            view,
            sel,
            opts,
            tie,
            subs: vec![Subspace {
                bbox: b0,
                top: TopState::Unknown,
                cell_emitted: HashSet::new(),
            }],
        }
    }

    /// The normalized view (ranking function + bounds) the cursor searches.
    pub fn view(&self) -> &NormView {
        &self.view
    }

    /// The next tuple in user-ranking order (`Ok(None)` once `R(q)` is
    /// exhausted). On `Err` the already-resolved subspace tops are kept, so
    /// a retry resumes with the work already paid for.
    pub fn next(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Option<Arc<Tuple>>, RerankError> {
        // Resolve all unknown subspace tops.
        for sub in &mut self.subs {
            if matches!(sub.top, TopState::Unknown) {
                sub.top = if sub.bbox.is_cell() {
                    cell_top(
                        server,
                        st,
                        &self.view,
                        &sub.bbox,
                        &self.sel,
                        &sub.cell_emitted,
                    )?
                } else {
                    match md_top1(server, st, &self.view, &self.sel, &sub.bbox, self.opts)? {
                        None => TopState::Empty,
                        Some((t, s)) => TopState::Known(t, s),
                    }
                };
            }
        }
        // Best over subspaces (score, then id).
        let Some(best_idx) = self
            .subs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match &s.top {
                TopState::Known(t, sc) => Some((i, t.id, *sc)),
                _ => None,
            })
            .min_by(|a, b| qrs_types::value::cmp_f64(a.2, b.2).then(a.1.cmp(&b.1)))
            .map(|(i, _, _)| i)
        else {
            return Ok(None);
        };

        let TopState::Known(t, _) = self.subs[best_idx].top.clone() else {
            unreachable!()
        };
        if self.subs[best_idx].bbox.is_cell() {
            let sub = &mut self.subs[best_idx];
            sub.cell_emitted.insert(t.id);
            sub.top = TopState::Unknown;
        } else {
            let host = self.subs.swap_remove(best_idx);
            let coords = self.view.norm_coords(&t);
            match self.tie {
                MdTie::Exact => {
                    self.subs.extend(split_at_tuple(&host.bbox, &coords, t.id));
                }
                MdTie::GeneralPositioning => {
                    // §4.2.2: split the host on the first free dimension
                    // only, dropping the boundary slab.
                    let d = (0..coords.len())
                        .find(|&d| {
                            let iv = host.bbox.dims[d];
                            !matches!(
                                (iv.lo, iv.hi),
                                (qrs_types::Endpoint::Closed(a), qrs_types::Endpoint::Closed(b)) if a == b
                            )
                        })
                        .unwrap_or(0);
                    for side in [
                        Interval::less_than(coords[d]),
                        Interval::greater_than(coords[d]),
                    ] {
                        let child = host.bbox.with_dim(d, side);
                        if !child.is_empty() {
                            self.subs.push(Subspace {
                                bbox: child,
                                top: TopState::Unknown,
                                cell_emitted: HashSet::new(),
                            });
                        }
                    }
                }
            }
        }
        Ok(Some(t))
    }

    /// Pull the top `h` tuples (shorter if `R(q)` is exhausted).
    pub fn top_h(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
        h: usize,
    ) -> Result<Vec<Arc<Tuple>>, RerankError> {
        let mut out = Vec::with_capacity(h);
        for _ in 0..h {
            match self.next(server, st)? {
                Some(t) => out.push(t),
                None => break,
            }
        }
        Ok(out)
    }

    /// Number of live subspaces (diagnostics).
    pub fn num_subspaces(&self) -> usize {
        self.subs.len()
    }
}

/// Three-way split of a box at an emitted tuple's coordinates; the all-point
/// residue becomes a cell with the tuple pre-marked emitted.
fn split_at_tuple(b: &NormBox, coords: &[f64], id: TupleId) -> Vec<Subspace> {
    let mut out = Vec::new();
    let mut cur = b.clone();
    for (d, &v) in coords.iter().enumerate() {
        let iv = cur.dims[d];
        let is_point = matches!(
            (iv.lo, iv.hi),
            (qrs_types::Endpoint::Closed(a), qrs_types::Endpoint::Closed(bv)) if a == bv
        );
        if is_point {
            continue;
        }
        for side in [Interval::less_than(v), Interval::greater_than(v)] {
            let child = cur.with_dim(d, side);
            if !child.is_empty() {
                out.push(Subspace {
                    bbox: child,
                    top: TopState::Unknown,
                    cell_emitted: HashSet::new(),
                });
            }
        }
        cur.dims[d] = cur.dims[d].intersect(&Interval::point(v));
    }
    let mut emitted = HashSet::new();
    emitted.insert(id);
    out.push(Subspace {
        bbox: cur,
        top: TopState::Unknown,
        cell_emitted: emitted,
    });
    out
}

/// Top of a cell: the lowest-id unemitted tuple at exactly these ranking
/// coordinates (all share one score).
fn cell_top(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    view: &NormView,
    cell: &NormBox,
    sel: &Query,
    emitted: &HashSet<TupleId>,
) -> Result<TopState, RerankError> {
    let q = view.to_query(cell, sel);
    if q.is_unsatisfiable() {
        return Ok(TopState::Empty);
    }
    if st.ask(server, &q)?.is_overflow() {
        // >k tuples at one ranking-coordinate point: crawl by the
        // remaining (non-ranking / categorical) attributes.
        crawl_region(server, st, &q)?;
    }
    let known = st.history.matching(&q);
    Ok(match known.into_iter().find(|t| !emitted.contains(&t.id)) {
        Some(t) => {
            let s = view.score(&t);
            TopState::Known(t, s)
        }
        None => TopState::Empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::{correlated, discrete_grid, uniform};
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;

    /// Compare an emitted prefix against the *full* ground-truth ranking by
    /// score sequence; id-sets must match per equal-score group, except the
    /// final group which may be cut by the prefix (tie order among equal
    /// scores is unspecified, so any subset of the group is legal there).
    fn assert_stream_matches(
        got: &[Arc<Tuple>],
        full_truth: &[Arc<Tuple>],
        score: impl Fn(&Tuple) -> f64,
    ) {
        assert!(got.len() <= full_truth.len(), "emitted more than exists");
        let gs: Vec<f64> = got.iter().map(|t| score(t)).collect();
        let ts: Vec<f64> = full_truth
            .iter()
            .take(got.len())
            .map(|t| score(t))
            .collect();
        assert_eq!(gs, ts, "score sequences differ");
        let mut i = 0;
        while i < gs.len() {
            let mut j = i;
            while j < gs.len() && gs[j] == gs[i] {
                j += 1;
            }
            let mut g: Vec<u32> = got[i..j].iter().map(|t| t.id.0).collect();
            g.sort_unstable();
            let mut w: Vec<u32> = full_truth
                .iter()
                .filter(|t| score(t) == gs[i])
                .map(|t| t.id.0)
                .collect();
            w.sort_unstable();
            if j < gs.len() || w.len() == g.len() {
                // Interior group (or exactly complete): sets must be equal.
                assert_eq!(g, w, "tie group {i}..{j}");
            } else {
                // Truncated final group: any subset of the right size.
                assert!(
                    g.iter().all(|id| w.binary_search(id).is_ok()),
                    "final group {g:?} not a subset of {w:?}"
                );
            }
            i = j;
        }
    }

    fn run_all(
        data: qrs_types::Dataset,
        rank: LinearRank,
        sel: Query,
        sys: SystemRank,
        k: usize,
        h: usize,
    ) {
        let mut truth: Vec<Arc<Tuple>> = data
            .tuples()
            .iter()
            .filter(|t| sel.matches(t))
            .cloned()
            .collect();
        truth.sort_by(|a, b| cmp_f64(rank.score(a), rank.score(b)).then(a.id.cmp(&b.id)));
        let n = data.len();
        for (name, opts) in [
            ("baseline", MdOptions::baseline()),
            ("binary", MdOptions::binary()),
            ("rerank", MdOptions::rerank()),
        ] {
            let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
            let server = SimServer::new(data.clone(), sys.clone(), k);
            let mut cur = MdCursor::new(Arc::new(rank.clone()), sel.clone(), opts, server.schema());
            let got = cur.top_h(&server, &mut st, h).unwrap();
            assert_eq!(got.len(), h.min(truth.len()), "emitted count");
            assert_stream_matches(&got, &truth, |t| rank.score(t));
            let _ = name;
        }
    }

    #[test]
    fn top_h_uniform_2d() {
        run_all(
            uniform(250, 2, 1, 201),
            LinearRank::asc(vec![(AttrId(0), 0.6), (AttrId(1), 0.4)]),
            Query::all(),
            SystemRank::pseudo_random(11),
            5,
            12,
        );
    }

    #[test]
    fn top_h_anticorrelated_adversarial() {
        run_all(
            correlated(250, -0.85, 203),
            LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]),
            Query::all(),
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            5,
            10,
        );
    }

    #[test]
    fn top_h_with_filter_and_3d() {
        let sel = Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 2));
        run_all(
            uniform(300, 3, 1, 207),
            LinearRank::asc(vec![(AttrId(0), 0.3), (AttrId(1), 0.5), (AttrId(2), 0.9)]),
            sel,
            SystemRank::by_attr_desc(AttrId(0)),
            4,
            8,
        );
    }

    #[test]
    fn top_h_heavy_ties_grid() {
        // 5-level grid: massive ties, slabs and cells everywhere.
        run_all(
            discrete_grid(300, 2, 5, 209),
            LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]),
            Query::all(),
            SystemRank::pseudo_random(13),
            6,
            25,
        );
    }

    #[test]
    fn exhausts_small_relations() {
        let data = uniform(40, 2, 1, 211);
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 2.0)]);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(40, 5));
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(17), 5);
        let mut cur = MdCursor::new(
            Arc::new(rank.clone()),
            Query::all(),
            MdOptions::binary(),
            server.schema(),
        );
        let got = cur.top_h(&server, &mut st, 100).unwrap();
        assert_eq!(got.len(), 40, "must emit the entire relation");
        assert!(cur.next(&server, &mut st).unwrap().is_none());
        // Scores non-decreasing.
        let scores: Vec<f64> = got.iter().map(|t| rank.score(t)).collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]));
    }
}
