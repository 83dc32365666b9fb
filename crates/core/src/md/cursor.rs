//! The MD Get-Next driver (§4.2.2), exact under ties.
//!
//! The paper discovers the No. (h+1) tuple by maintaining subspaces split at
//! previously emitted tuples and taking the best subspace top-1. An emission
//! splits its host on one free dimension into the paper's `< v` and `> v`
//! halves plus a third child, the *tie slab* `= v`, which removes the
//! general-positioning assumption (§5): tuples sharing the emitted tuple's
//! value live there. A tie slab carries the ids already emitted from it;
//! one with every ranking dimension pinned is a *cell*. This is the one tie
//! rule: every emission leaves a tie slab, there is no general-positioning
//! mode, and the cursor is exact on any data.
//!
//! **The split dimension** is the free one along which the emitted tuple
//! climbs most above the host's low corner: the score of that corner with
//! only that coordinate moved to the tuple's, lowest index on ties. In a
//! 2-D linear ranking where the tuple's climb on an axis is a share `a` of
//! the threshold's, the two side children's shrunk boxes cover `a + (1 −
//! a)²` of the host's, least at the largest climb. Where history already
//! holds a second tuple on the selection-free plane pinning that dimension
//! alone at the tuple's value — a tie is known there — the host is split on
//! its first free dimension instead: hosts that are strips along it leave
//! tie slabs that are whole planes, which one query settles, where a slab
//! bounded on several axes turns a crowded plane into a refine chain. The
//! choice reads only history and pays nothing.
//!
//! A slab's top comes from history once a complete region covers it. The
//! first such region is usually its *plane* — the pinned ranking values as
//! point predicates, no selection, nothing else — which one query proves
//! complete (skipped when history already holds more than `k` tuples on
//! it). A plane that overflows refines its slab on the next free dimension
//! at the emitted tuple (same `<` / `>` / `=` shape); an overflowing cell
//! is crawled on the remaining attributes.
//!
//! **One merged probe per emission.** Each side child's top-1 search
//! ([`md_top1`]) first asks its box shrunk at its history best's score,
//! and that answer is usually a nearly empty page. So the host `H` of the
//! last emission is asked once instead: `H ∧ sel` shrunk from `H`'s low
//! corner at `T`, the larger of the two children's history-best scores.
//! By monotonicity that box holds both children's own first queries, so an
//! answer that does not overflow settles both: each child's top is the
//! `(score, id)` minimum of its history best and the answer's tuples in
//! `child ∧ sel` — what its search would return, every query of it now
//! covered. An overflowing answer only adds to history, and the children
//! are then searched as before. Three gates, cheapest first, keep the
//! probe to where it pays:
//!
//! 1. the size estimate says the box fits a page with one Poisson σ to
//!    spare, `e + √e ≤ k` for `e = n · Π` (each ordinal predicate's width
//!    over its domain's width);
//! 2. history does not already hold more than `k` matches of the box;
//! 3. both children have a history best and would *pay* their own first
//!    query (it is not covered) — else merging saves nothing and still
//!    risks an overflow.
//!
//! The gates read only `k`, `n` and history. Where one closes the probe,
//! the children's searches start from the history bests the gates read
//! ([`md_top1`]'s seeded entry): sibling boxes are disjoint, and within one
//! call only this cursor touches the shared state, so no one else can move
//! those bests first.
//!
//! The probe runs at *resolve* time, in the call after the emission, never
//! between taking the host out of the subspace list and putting its
//! children in: a refusal there would drop the host's subspaces from the
//! stream. An emission only notes its host, and a refused probe leaves the
//! note for the retry. A top-`h` request never pays a merge after its last
//! emission.

use crate::crawl::crawl_region;
use crate::ctx::{Purpose, SharedState};
use crate::history::History;
use crate::md::top1::{consider, history_best, md_top1, md_top1_from, shrink, Best, MdOptions};
use crate::norm::{NormBox, NormView};
use qrs_ranking::RankFn;
use qrs_server::SearchInterface;
use qrs_types::value::cmp_f64;
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
    /// Ids emitted from this subspace — non-empty only for a tie slab.
    emitted: HashSet<TupleId>,
}

impl Subspace {
    fn new(bbox: NormBox) -> Self {
        Subspace {
            bbox,
            top: TopState::Unknown,
            emitted: HashSet::new(),
        }
    }

    /// A tie slab — one that has emitted, or a cell — resolves through
    /// [`tie_top`]; any other subspace through [`md_top1`].
    fn is_tie_slab(&self) -> bool {
        !self.emitted.is_empty() || self.bbox.is_cell()
    }
}

/// Streaming Get-Next over an arbitrary monotonic ranking function.
pub struct MdCursor {
    view: NormView,
    sel: Query,
    opts: MdOptions,
    subs: Vec<Subspace>,
    /// The host of the last emission when it split into two side children,
    /// which then sit just before its tie slab at the end of `subs`: the
    /// next call resolves them through one merged probe (module docs).
    /// Cleared once that probe is answered or a gate closes it.
    merge: Option<NormBox>,
}

impl MdCursor {
    /// Cursor over `rank` restricted to `sel`.
    pub fn new(rank: Arc<dyn RankFn>, sel: Query, opts: MdOptions, schema: &Schema) -> Self {
        let view = NormView::new(rank, schema);
        let b0 = view.initial_box(&sel);
        MdCursor {
            view,
            sel,
            opts,
            subs: vec![Subspace::new(b0)],
            merge: None,
        }
    }

    /// The next tuple in user-ranking order (`Ok(None)` once `R(q)` is
    /// exhausted). On `Err` the already-resolved subspace tops are kept, so
    /// a retry resumes with the work already paid for.
    pub fn next(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
    ) -> Result<Option<Arc<Tuple>>, RerankError> {
        // The last emission's side children first: settled by one merged
        // probe, or seeded with the history bests its gates read.
        let mut seeds = match self.merge.take() {
            None => Vec::new(),
            Some(host) => match self.settle_children(server, st, &host) {
                Ok(seeds) => seeds,
                Err(e) => {
                    self.merge = Some(host);
                    return Err(e);
                }
            },
        };
        // Resolve all unknown subspace tops. A refined tie slab stays at
        // `i` as its `= v` part; its other children join this pass.
        let mut i = 0;
        while i < self.subs.len() {
            let sub = &self.subs[i];
            if !matches!(sub.top, TopState::Unknown) {
                i += 1;
                continue;
            }
            let top = if sub.is_tie_slab() {
                match tie_top(server, st, &self.view, &self.sel, &sub.bbox, &sub.emitted)? {
                    TieTop::Known(top) => top,
                    TieTop::Refine(d, v) => {
                        let (sides, slab) = split_at(&sub.bbox, d, v);
                        self.subs[i].bbox = slab;
                        self.subs.extend(sides.into_iter().map(Subspace::new));
                        continue;
                    }
                }
            } else {
                let (view, sel) = (&self.view, &self.sel);
                let found = match seeds.iter().position(|(j, _)| *j == i) {
                    Some(at) => {
                        let seed = seeds.swap_remove(at).1;
                        md_top1_from(server, st, view, sel, &sub.bbox, self.opts, seed)?
                    }
                    None => md_top1(server, st, view, sel, &sub.bbox, self.opts)?,
                };
                found.map_or(TopState::Empty, |(t, s)| TopState::Known(t, s))
            };
            self.subs[i].top = top;
            i += 1;
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
            .min_by(|a, b| cmp_f64(a.2, b.2).then(a.1.cmp(&b.1)))
            .map(|(i, _, _)| i)
        else {
            return Ok(None);
        };

        let TopState::Known(t, _) = self.subs[best_idx].top.clone() else {
            unreachable!()
        };
        let sub = &mut self.subs[best_idx];
        if sub.is_tie_slab() {
            sub.emitted.insert(t.id);
            sub.top = TopState::Unknown;
        } else {
            // §4.2.2: split the host on the dimension `t` climbs most
            // (module docs), keeping the boundary as a tie slab (§5). The
            // choice reads history only: nothing is asked between taking
            // the host out and putting its children in.
            let host = self.subs.swap_remove(best_idx);
            let c = self.view.norm_coords(&t);
            let d = split_axis(&self.view, &st.history, &host.bbox, &c);
            let (sides, slab) = split_at(&host.bbox, d, c[d]);
            let both = sides.len() == 2;
            self.subs.extend(sides.into_iter().map(Subspace::new));
            self.subs.push(Subspace {
                emitted: HashSet::from([t.id]),
                ..Subspace::new(slab)
            });
            self.merge = both.then_some(host.bbox);
        }
        Ok(Some(t))
    }

    /// Resolve the last emission's two side children, the subspaces just
    /// before its tie slab, through one merged probe over their `host`
    /// where the gates allow it (module docs). A valid answer settles both.
    /// Returns the children left for the resolve pass with their seeds:
    /// both, seeded, when a gate closed the probe; none when it was asked —
    /// settled, or with history bests an overflow may have moved.
    fn settle_children(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
        host: &NormBox,
    ) -> Result<Vec<(usize, Best)>, RerankError> {
        let at = self.subs.len() - 3;
        let children = [at, at + 1].map(|i| self.view.to_query(&self.subs[i].bbox, &self.sel));
        let seeds = children.each_ref().map(|q| history_best(st, &self.view, q));
        let Some(merged) = self.merged_probe(server, st, host, &seeds) else {
            return Ok([at, at + 1].into_iter().zip(seeds).collect());
        };
        // Gate 3 found both children's first queries uncovered, so no
        // complete region covers their superset either.
        let resp = st.pay(server, &merged, Purpose::MdMerged)?;
        if !resp.is_overflow() {
            for ((i, q), mut best) in (at..).zip(&children).zip(seeds) {
                for t in resp.tuples.iter().filter(|t| q.matches(t)) {
                    consider(&mut best, t, self.view.score(t));
                }
                self.subs[i].top = best.map_or(TopState::Empty, |(t, s)| TopState::Known(t, s));
            }
        }
        Ok(Vec::new())
    }

    /// The merged probe over `host`, given its two side children's history
    /// bests: `host ∧ sel` shrunk at the larger of the two scores, which
    /// holds both children's own shrunk first queries. `None` when one of
    /// the three gates (module docs) closes it.
    fn merged_probe(
        &self,
        server: &dyn SearchInterface,
        st: &SharedState,
        host: &NormBox,
        seeds: &[Best; 2],
    ) -> Option<Query> {
        let [Some((_, s0)), Some((_, s1))] = seeds else {
            return None;
        };
        let merged = self
            .view
            .to_query(&shrink(&self.view, host, Some(s0.max(*s1)))?, &self.sel);
        let k = server.k() as f64;
        let e = st.params.n * width_share(server.schema(), &merged);
        if merged.is_unsatisfiable() || e + e.sqrt() > k {
            return None; // gate 1: more than a page, give or take one σ
        }
        if st.history.holds_more_than(&merged, server.k()) {
            return None; // gate 2: it would overflow on what history holds
        }
        // Gate 3: merging saves a query only where both children would pay
        // their own first query.
        let paid = |i: usize, s: f64| {
            shrink(&self.view, &self.subs[i].bbox, Some(s)).is_some_and(|b| {
                let q = self.view.to_query(&b, &self.sel);
                !q.is_unsatisfiable() && !st.complete.covers(&q)
            })
        };
        let at = self.subs.len() - 3;
        (paid(at, *s0) && paid(at + 1, *s1)).then_some(merged)
    }

    /// Pull the top `h` tuples (shorter if `R(q)` is exhausted).
    pub fn top_h(
        &mut self,
        server: &dyn SearchInterface,
        st: &mut SharedState,
        h: usize,
    ) -> Result<Vec<Arc<Tuple>>, RerankError> {
        let mut out = Vec::new();
        for _ in 0..h {
            match self.next(server, st)? {
                Some(t) => out.push(t),
                None => break,
            }
        }
        Ok(out)
    }
}

/// The share of the ordinal domain `q`'s range predicates admit: the
/// product over them of each one's width within its attribute's domain
/// over the domain's width. Times `n`, the size estimate of `q`'s answer on
/// uniform data.
fn width_share(schema: &Schema, q: &Query) -> f64 {
    (q.ranges().iter())
        .map(|p| {
            let o = schema.ordinal(p.attr);
            let lo = p.interval.lo.value().map_or(o.min, |v| v.max(o.min));
            let hi = p.interval.hi.value().map_or(o.max, |v| v.min(o.max));
            if o.domain_width() > 0.0 {
                ((hi - lo) / o.domain_width()).clamp(0.0, 1.0)
            } else {
                1.0
            }
        })
        .product()
}

/// The first dimension of `b` that is not pinned to a point (`None` for a
/// cell).
fn first_free(b: &NormBox) -> Option<usize> {
    b.dims.iter().position(|iv| !iv.is_point())
}

/// The dimension an emission at normalized point `c` splits its host `h`
/// on (module docs): the free one along which `c` climbs most above `h`'s
/// low corner, lowest index on ties, or `h`'s first free dimension where
/// history already holds more than one tuple on the plane pinning that
/// dimension alone at `c`.
fn split_axis(view: &NormView, history: &History, h: &NormBox, c: &[f64]) -> usize {
    let first = first_free(h).expect("a box that is not a cell has a free dimension");
    let lo = h.lo_corner(view.bounds());
    let base = view.rank().score_norm(&lo);
    let mut at = lo.clone();
    let (mut d, mut most) = (first, f64::NEG_INFINITY);
    for j in (0..c.len()).filter(|&j| !h.dims[j].is_point()) {
        at[j] = c[j];
        let climb = view.rank().score_norm(&at) - base;
        at[j] = lo[j];
        if climb > most {
            (d, most) = (j, climb);
        }
    }
    let pinned = NormBox::full(view.bounds()).with_dim(d, Interval::point(c[d]));
    if history.holds_more_than(&plane(view, &pinned), 1) {
        first
    } else {
        d
    }
}

/// A slab's *plane*: its pinned ranking values as point predicates, no
/// selection, nothing else.
fn plane(view: &NormView, slab: &NormBox) -> Query {
    let mut plane = slab.clone();
    for iv in plane.dims.iter_mut().filter(|iv| !iv.is_point()) {
        *iv = Interval::all();
    }
    view.to_query(&plane, &Query::all())
}

/// Split `b` on dimension `d` at `v`: the non-empty `< v` and `> v`
/// children, and the `= v` tie slab.
fn split_at(b: &NormBox, d: usize, v: f64) -> (Vec<NormBox>, NormBox) {
    let sides = [Interval::less_than(v), Interval::greater_than(v)]
        .into_iter()
        .map(|side| b.with_dim(d, side))
        .filter(|child| !child.is_empty())
        .collect();
    (sides, b.with_dim(d, Interval::point(v)))
}

/// What resolving a tie slab found.
enum TieTop {
    /// The slab's top, or that it has none left.
    Known(TopState),
    /// The slab's plane overflows: split the slab on dimension `d` at `v`.
    Refine(usize, f64),
}

/// Top of a tie slab: the lowest `(score, id)` tuple of `slab ∧ sel` not
/// yet emitted from it, read from history once a complete region covers
/// the slab. The slab's plane is asked to become that region; where it
/// overflows, a slab whose emitted tuples share a value on its next free
/// dimension is refined there, and anything else — a cell — is crawled.
fn tie_top(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    view: &NormView,
    sel: &Query,
    slab: &NormBox,
    emitted: &HashSet<TupleId>,
) -> Result<TieTop, RerankError> {
    let q = view.to_query(slab, sel);
    if q.is_unsatisfiable() {
        return Ok(TieTop::Known(TopState::Empty));
    }
    if !st.complete.covers(&q) {
        let plane = plane(view, slab);
        // More than `k` known on the plane: asking it would only overflow.
        let crowded = st.history.holds_more_than(&plane, server.k());
        if crowded || st.ask(server, &plane, Purpose::MdTiePlane)?.is_overflow() {
            let refine_at = first_free(slab).and_then(|d| {
                let mut vs = emitted
                    .iter()
                    .map(|id| st.history.get(*id).map(|t| view.norm_coords(t)[d]));
                let v = vs.next().flatten()?;
                vs.all(|w| w == Some(v)).then_some((d, v))
            });
            if let Some((d, v)) = refine_at {
                return Ok(TieTop::Refine(d, v));
            }
            // A cell — more than `k` tuples at one ranking point — told
            // apart by the remaining attributes (or, after lost coverage, a
            // slab whose emitted tuples part on its next free dimension).
            crawl_region(server, st, &q)?;
        }
    }
    let top = (st.history.candidates(&q))
        .filter(|t| q.matches(t) && !emitted.contains(&t.id))
        .map(|t| (view.score(t), t))
        .min_by(|a, b| cmp_f64(a.0, b.0).then(a.1.id.cmp(&b.1.id)));
    Ok(TieTop::Known(top.map_or(TopState::Empty, |(s, t)| {
        TopState::Known(Arc::clone(t), s)
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::{correlated, discrete_grid, uniform};
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::{AttrId, Direction};

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

    /// Weights that put the steepest climb on the last axis, a descending
    /// middle term and a range selection on a ranking attribute: on untied
    /// data most hosts split off axis 0.
    #[test]
    fn top_h_splitting_off_axis_0() {
        let sel = Query::all().and_range(AttrId(0), Interval::closed(0.1, 0.8));
        run_all(
            uniform(400, 3, 1, 213 ^ test_seed()),
            LinearRank::new(vec![
                (AttrId(0), Direction::Asc, 0.05),
                (AttrId(1), Direction::Desc, 0.5),
                (AttrId(2), Direction::Asc, 0.9),
            ]),
            sel,
            SystemRank::pseudo_random(23),
            5,
            20,
        );
    }

    /// The split rule: the free axis `c` climbs most on, unless history
    /// already holds a second tuple on the plane pinning that axis at `c`;
    /// then the host's first free axis.
    #[test]
    fn split_axis_takes_the_largest_climb_unless_history_shows_a_tie() {
        let schema = Schema::new(
            (0..3)
                .map(|i| qrs_types::OrdinalAttr::new(format!("a{i}"), 0.0, 1.0))
                .collect(),
            vec![],
        );
        let rank = LinearRank::new(vec![
            (AttrId(0), Direction::Asc, 0.05),
            (AttrId(1), Direction::Desc, 0.5),
            (AttrId(2), Direction::Asc, 0.9),
        ]);
        let view = NormView::new(Arc::new(rank), &schema);
        let tuple = |id, ords: [f64; 3]| Arc::new(Tuple::new(TupleId(id), ords.to_vec(), vec![]));
        let t = tuple(0, [0.5, 0.2, 0.4]);
        let c = view.norm_coords(&t);
        let full = NormBox::full(view.bounds());
        let mut history = History::new(3);
        history.record(&t);
        // Climbs 0.025, 0.4 and 0.36: axis 1, though axis 2 weighs most.
        assert_eq!(split_axis(&view, &history, &full, &c), 1);
        // With axis 1 pinned, axis 2 climbs most among the free ones.
        let pinned = full.with_dim(1, Interval::point(c[1]));
        assert_eq!(split_axis(&view, &history, &pinned, &c), 2);
        // A tuple off that plane changes nothing.
        history.record(&tuple(1, [0.1, 0.3, 0.9]));
        assert_eq!(split_axis(&view, &history, &full, &c), 1);
        // A second tuple on it: the first free axis.
        history.record(&tuple(2, [0.9, 0.2, 0.9]));
        assert_eq!(split_axis(&view, &history, &full, &c), 0);
        assert_eq!(
            split_axis(&view, &history, &full.with_dim(0, Interval::point(0.5)), &c),
            1
        );
    }

    fn test_seed() -> u64 {
        let seed = std::env::var("QRS_TEST_SEED").ok();
        seed.and_then(|s| s.parse().ok()).unwrap_or(0)
    }

    /// Dense ties through every tie-slab path: a slab emits several tuples
    /// from a complete plane, a crowded plane refines down to a cell, and a
    /// cell holding more than `k` duplicates is crawled on the fourth
    /// (non-ranking) attribute and the category. The grid is deduplicated
    /// so no group is indistinguishable through the interface.
    #[test]
    fn tie_slabs_are_exact_where_ties_are_dense() {
        let seed = test_seed();
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7), (AttrId(2), 0.45)]);
        let sel = Query::all().and_cat(qrs_types::CatPredicate::one_of(
            qrs_types::CatId(0),
            vec![0, 1, 3],
        ));
        for (levels, n) in [(2, 200), (3, 600), (5, 1500)] {
            let grid = discrete_grid(n, 4, levels, 311 ^ seed);
            let mut seen = HashSet::new();
            let distinct = (grid.tuples().iter())
                .filter(|t| {
                    let bits: Vec<u64> = t.ords().iter().map(|v| v.to_bits()).collect();
                    seen.insert((bits, t.cats().to_vec()))
                })
                .cloned()
                .collect();
            let data = qrs_types::Dataset::from_shared(Arc::clone(grid.schema()), distinct);
            let top = data.rank_by(&sel, |t| rank.score(t));
            let top = &top[..top.len().min(60)];
            assert!(
                top.windows(2)
                    .any(|w| w[0].ord(AttrId(0)) == w[1].ord(AttrId(0))),
                "vacuous at {levels} levels: no two answers in a row share a first value"
            );
            let mut per_cell: std::collections::HashMap<Vec<u64>, usize> = Default::default();
            for t in top {
                let cell = t.ords()[..3].iter().map(|v| v.to_bits()).collect();
                *per_cell.entry(cell).or_default() += 1;
            }
            let biggest = per_cell.values().copied().max().unwrap_or(0);
            for k in [1, 2, 5] {
                assert!(
                    biggest > k,
                    "vacuous at {levels} levels, k = {k}: no cell holds more than k answers"
                );
                let sys = SystemRank::pseudo_random(seed.wrapping_add(u64::from(levels)));
                run_all(data.clone(), rank.clone(), sel.clone(), sys, k, 60);
            }
        }
    }

    /// Counts the queries that carry a point predicate.
    struct PointProbes(SimServer, std::sync::atomic::AtomicU64);

    impl SearchInterface for PointProbes {
        fn schema(&self) -> &Arc<Schema> {
            self.0.schema()
        }
        fn k(&self) -> usize {
            self.0.k()
        }
        fn query(&self, q: &Query) -> Result<qrs_types::QueryResponse, qrs_types::ServerError> {
            if q.ranges().iter().any(|p| p.interval.is_point()) {
                self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            self.0.query(q)
        }
        fn queries_issued(&self) -> u64 {
            self.0.queries_issued()
        }
    }

    /// On data without ties an emission's tie slab is settled by one plane
    /// probe, where splitting three ways on every dimension would pay up to
    /// `2m − 1` point-slab queries.
    #[test]
    fn one_tie_probe_per_emission_on_tie_free_data() {
        let data = uniform(2000, 3, 1, 401 ^ test_seed());
        let rank = LinearRank::asc(vec![(AttrId(0), 0.5), (AttrId(1), 0.3), (AttrId(2), 0.2)]);
        let server = PointProbes(
            SimServer::new(data.clone(), SystemRank::pseudo_random(19), 10),
            Default::default(),
        );
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(2000, 10));
        let mut cur = MdCursor::new(
            Arc::new(rank.clone()),
            Query::all(),
            MdOptions::rerank(),
            server.schema(),
        );
        let got = cur.top_h(&server, &mut st, 25).unwrap();
        let truth = data.rank_by(&Query::all(), |t| rank.score(t));
        assert!(got
            .iter()
            .map(|t| t.id)
            .eq(truth.iter().take(25).map(|t| t.id)));
        let probes = server.1.into_inner();
        assert!(
            (1..=25).contains(&probes),
            "{probes} point-predicate queries for 25 emissions"
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
            MdOptions::rerank(),
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
