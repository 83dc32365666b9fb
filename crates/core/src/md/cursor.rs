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
//! (`md_top1`) first asks its box shrunk at its history best's score,
//! and that answer is usually a nearly empty page. So the host `H` of the
//! last emission is asked once instead: `H ∧ sel` shrunk from `H`'s low
//! corner at `T`, the larger of the two children's history-best scores.
//! By monotonicity that box holds both children's own first queries, so an
//! answer that does not overflow is a complete region each child is
//! certified from (below), before the resolve pass. An overflowing answer
//! only adds to history, and the children are then searched as before.
//! Three gates, cheapest first, keep the probe to where it pays:
//!
//! 1. the size estimate says the box fits a page with one Poisson σ to
//!    spare, `e + √e ≤ k` for `e = n · Π` (each ordinal predicate's width
//!    over its domain's width);
//! 2. history does not already hold more than `k` matches of the box;
//! 3. both children have a history best and would *pay* their own first
//!    query (it is not covered) — else merging saves nothing and still
//!    risks an overflow.
//!
//! The gates read only `k`, `n` and history. The probe runs at *resolve*
//! time, in the call after the emission, never between taking the host out
//! of the subspace list and putting its children in: a refusal there would
//! drop the host's subspaces from the stream. An emission only notes its
//! host, and a refused probe leaves the note for the retry.
//!
//! **Lazy resolution.** Only the best subspace top has to be exact when it
//! is emitted, so a subspace is resolved only where history cannot prove
//! that it holds nothing below `F`, the lowest known top. A subspace is
//! *due* when its top is unknown, or known only as `Above(x)` — nothing
//! left in it scores below `x` — with `x < F`. At `x = F` it is not due:
//! order among equal scores is free, and a `≤` rule would never stop. A due
//! subspace `S` whose history best scores `s` (`∞` without one) is
//! certified from a complete region `R` (§3.1.1) that subsumes
//! `shrink(S, min(F, s)) ∧ sel` — for `s < F`, the box `md_top1`'s first
//! query would ask — or, without one, resolved by `md_top1` from that
//! history best. Every tuple of `S ∧ sel` scoring below `y` is in history,
//! for `y` the larger of `min(F, s)` and the least `score_norm(lo(S) with
//! axis j at R's upper end)` over the axes `j` on which `R`'s normalized
//! interval does not contain `S`'s: a tuple of `S` scoring below it sits
//! below `R`'s bound on each such axis (the low corner moved there alone
//! scores no more than the tuple), so inside `R`. So at `s ≤ y` history's
//! best match is `S`'s top — every tuple outside history scores `y` or
//! more, and order among equal scores is free — and otherwise `S` is
//! `Above(y)`, deferred until `F` passes `y`, asking nothing. Taking `y`
//! from the region, not just `F`, keeps a deferred subspace from coming due
//! again at the next emission. The gates, the certificate and `md_top1`
//! share one history read of a subspace per call, taken again only once
//! history has grown. A tie slab emits only through `tie_top`: where
//! history holds a tuple of it below `y` not yet emitted, it is resolved
//! there, or its emitted set could part on its next free dimension and a
//! crowded plane be crawled instead of refined.

use crate::crawl::crawl_region;
use crate::ctx::{Purpose, SharedState};
use crate::history::History;
use crate::md::top1::{history_best, md_top1, shrink, width_share, Best, BoxReader, MdOptions};
use crate::norm::{NormBox, NormView};
use qrs_ranking::RankFn;
use qrs_server::SearchInterface;
use qrs_types::value::cmp_f64;
use qrs_types::{Direction, Interval, Query, RerankError, Schema, Tuple, TupleId};
use std::collections::HashSet;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum TopState {
    Unknown,
    Known(Arc<Tuple>, f64),
    /// No tuple left in the subspace scores below this (module docs, "Lazy
    /// resolution"); `Above(∞)` when it holds none at all.
    Above(f64),
}

impl TopState {
    /// A resolved subspace's top: its best tuple, or `Above(∞)` when it
    /// holds none.
    fn resolved(best: Best) -> Self {
        best.map_or(TopState::Above(f64::INFINITY), |(t, s)| {
            TopState::Known(t, s)
        })
    }
}

#[derive(Debug)]
struct Subspace {
    bbox: NormBox,
    top: TopState,
    /// Ids emitted from this subspace — non-empty only for a tie slab.
    emitted: HashSet<TupleId>,
    /// This call's history best of `bbox ∧ sel`, with the history length
    /// it was read at ([`Subspace::history_best`]).
    read: Option<(usize, Best)>,
}

impl Subspace {
    fn new(bbox: NormBox) -> Self {
        Subspace {
            bbox,
            top: TopState::Unknown,
            emitted: HashSet::new(),
            read: None,
        }
    }

    /// A tie slab — one that has emitted, or a cell — resolves through
    /// [`tie_top`]; any other subspace through `md_top1`.
    fn is_tie_slab(&self) -> bool {
        !self.emitted.is_empty() || self.bbox.is_cell()
    }

    /// Could this subspace hold a tuple below `f`, the lowest known top?
    /// An equal score is not due: order among equal scores is free.
    fn is_due(&self, f: f64) -> bool {
        match self.top {
            TopState::Unknown => true,
            TopState::Above(y) => y < f,
            TopState::Known(..) => false,
        }
    }

    /// The best tuple history holds in `bbox ∧ sel` now. A read is reused
    /// while history holds no tuple it did not hold then, and lives no
    /// longer than its call (`MdCursor::next` drops every read first), in
    /// which history only grows, so its length tells: removals come only
    /// from `SharedState::apply`, between calls. Debug builds check that a
    /// reused read is what history holds.
    fn history_best(&mut self, st: &SharedState, rd: &mut BoxReader) -> Best {
        let key = |b: &Best| b.as_ref().map(|(t, s)| (t.id, s.to_bits()));
        let len = st.history.len();
        if let Some((_, best)) = self.read.as_ref().filter(|(at, _)| *at == len) {
            let mut now = || history_best(st, rd, &self.bbox);
            debug_assert_eq!(key(best), key(&now()), "a stale history read");
            return best.clone();
        }
        let best = history_best(st, rd, &self.bbox);
        self.read = Some((len, best.clone()));
        best
    }
}

/// Streaming Get-Next over an arbitrary monotonic ranking function.
pub struct MdCursor {
    /// The ranking view and selection, with the buffers every box read
    /// reuses.
    rd: BoxReader,
    opts: MdOptions,
    subs: Vec<Subspace>,
    /// The last emission's host when it split into two side children, which
    /// then sit just before its tie slab at the end of `subs`: the next
    /// call's merged probe (module docs) is asked over it, gates permitting.
    merge: Option<NormBox>,
}

impl MdCursor {
    /// Cursor over `rank` restricted to `sel`.
    pub fn new(rank: Arc<dyn RankFn>, sel: Query, opts: MdOptions, schema: &Schema) -> Self {
        let view = NormView::new(rank, schema);
        let b0 = view.initial_box(&sel);
        MdCursor {
            rd: BoxReader::new(view, sel),
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
        // No history read outlives its call: `st` may be another state now.
        for sub in &mut self.subs {
            sub.read = None;
        }
        // The last emission's merged probe, where its gates open. A valid
        // answer is a complete region that holds both side children's tops:
        // each is certified from it before the pass.
        if let Some(host) = self.merge.take() {
            if let Some(merged) = self.merged_probe(server, st, &host) {
                // Gate 3 found both children's first queries uncovered, so
                // no complete region covers their superset either.
                if let Err(e) = st.pay(server, &merged, Purpose::MdMerged) {
                    self.merge = Some(host);
                    return Err(e);
                }
                let (rd, at) = (&mut self.rd, self.subs.len() - 3);
                for sub in &mut self.subs[at..at + 2] {
                    let best = sub.history_best(st, rd);
                    if let Ok(top) = certify(st, rd, &sub.bbox, f64::INFINITY, best) {
                        sub.top = top;
                    }
                }
            }
        }
        // Resolve every subspace that could hold a tuple below the lowest
        // known top, unless history proves it cannot (module docs, "Lazy
        // resolution"). The frontier only falls within a pass, so one
        // subspace found not due stays so. A refined tie slab stays at `i`
        // as its `= v` part; its other children join this pass.
        let mut frontier = (self.subs.iter())
            .filter_map(|sub| match sub.top {
                TopState::Known(_, s) => Some(s),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        let mut i = 0;
        while i < self.subs.len() {
            let (rd, sub) = (&mut self.rd, &mut self.subs[i]);
            if !sub.is_due(frontier) {
                i += 1;
                continue;
            }
            let top = if sub.is_tie_slab() {
                match certify_slab(st, rd, sub, frontier) {
                    Some(top) => top,
                    None => match tie_top(server, st, rd, &sub.bbox, &sub.emitted)? {
                        TieTop::Known(top) => top,
                        TieTop::Refine(d, v) => {
                            let sides = split_at(&mut sub.bbox, d, v);
                            (sub.top, sub.read) = (TopState::Unknown, None);
                            self.subs.extend(sides.into_iter().map(Subspace::new));
                            continue;
                        }
                    },
                }
            } else {
                let best = sub.history_best(st, rd);
                match certify(st, rd, &sub.bbox, frontier, best) {
                    Ok(top) => top,
                    Err((best, why)) => {
                        let uncovered = why == NoBound::Uncovered;
                        let top1 = md_top1(server, st, rd, &sub.bbox, self.opts, best, uncovered);
                        TopState::resolved(top1?)
                    }
                }
            };
            if let TopState::Known(_, s) = top {
                frontier = frontier.min(s);
            }
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
            let c = self.rd.view.norm_coords(&t);
            let d = split_axis(&mut self.rd, &st.history, &host.bbox, &c);
            let (whole, mut slab) = (host.bbox.dims[d], host.bbox);
            let sides = split_at(&mut slab, d, c[d]);
            // Only a host split on both sides outlives the split, as the
            // merged probe's: its box is the slab's off dimension `d`.
            self.merge = (sides.len() == 2).then(|| {
                let mut host = slab.clone();
                host.dims[d] = whole;
                host
            });
            self.subs.extend(sides.into_iter().map(Subspace::new));
            self.subs.push(Subspace {
                emitted: HashSet::from([t.id]),
                ..Subspace::new(slab)
            });
        }
        Ok(Some(t))
    }

    /// The merged probe over `host`, whose two side children sit just before
    /// its tie slab: `host ∧ sel` shrunk at the larger of their history-best
    /// scores, which holds both children's own shrunk first queries. `None`
    /// when one of the three gates (module docs) closes it; the query is
    /// built only once all three open.
    fn merged_probe(
        &mut self,
        server: &dyn SearchInterface,
        st: &SharedState,
        host: &NormBox,
    ) -> Option<Query> {
        let (rd, subs) = (&mut self.rd, &mut self.subs);
        let at = subs.len() - 3;
        let [Some((_, s0)), Some((_, s1))] = [at, at + 1].map(|i| subs[i].history_best(st, rd))
        else {
            return None;
        };
        let BoxReader {
            view,
            sel,
            ranges,
            lo,
            shrunk,
            merged,
        } = rd;
        merged.clone_from(host);
        host.lo_corner_into(view.bounds(), lo);
        if !shrink(view, merged, lo, s0.max(s1)) {
            return None;
        }
        let (merged, q) = (&*merged, view.box_query(merged, sel, ranges));
        let e = st.params.n * width_share(view, server.schema(), sel, merged, None);
        if q.is_unsatisfiable() || e + e.sqrt() > server.k() as f64 {
            return None; // gate 1: more than a page, give or take one σ
        }
        if st.history.holds_more_than(q, server.k()) {
            return None; // gate 2: it would overflow on what history holds
        }
        // Gate 3: merging saves a query only where both children would pay
        // their own first query.
        let mut paid = |b: &NormBox, s: f64| {
            shrunk.clone_from(b);
            b.lo_corner_into(view.bounds(), lo);
            shrink(view, shrunk, lo, s) && {
                let q = view.box_query(shrunk, sel, ranges);
                !q.is_unsatisfiable() && !st.complete.covers(q)
            }
        };
        (paid(&subs[at].bbox, s0) && paid(&subs[at + 1].bbox, s1))
            .then(|| view.to_query(merged, sel))
    }
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
fn split_axis(rd: &mut BoxReader, history: &History, h: &NormBox, c: &[f64]) -> usize {
    let BoxReader {
        view,
        ranges,
        lo,
        shrunk: pinned,
        ..
    } = rd;
    let first = first_free(h).expect("a box that is not a cell has a free dimension");
    h.lo_corner_into(view.bounds(), lo);
    let base = view.rank().score_norm(lo);
    let (mut d, mut most) = (first, f64::NEG_INFINITY);
    for j in (0..c.len()).filter(|&j| !h.dims[j].is_point()) {
        let climb = view.score_moved(lo, j, c[j]) - base;
        if climb > most {
            (d, most) = (j, climb);
        }
    }
    pinned.set_full(view.bounds());
    pinned.dims[d] = pinned.dims[d].intersect(&Interval::point(c[d]));
    to_plane(pinned);
    let all = Query::all();
    if history.holds_more_than(view.box_query(pinned, &all, ranges), 1) {
        first
    } else {
        d
    }
}

/// Turn a slab into its *plane*, in place: its pinned ranking values as
/// point predicates, no selection (read it over `Query::all()`), nothing
/// else.
fn to_plane(slab: &mut NormBox) {
    for iv in slab.dims.iter_mut().filter(|iv| !iv.is_point()) {
        *iv = Interval::all();
    }
}

/// Split `b` on dimension `d` at `v`: the non-empty `< v` and `> v`
/// children, returned, and the `= v` tie slab, which `b` becomes in place
/// (its host is not kept, so the slab takes the host's own box).
fn split_at(b: &mut NormBox, d: usize, v: f64) -> Vec<NormBox> {
    let sides = [Interval::less_than(v), Interval::greater_than(v)]
        .into_iter()
        .map(|side| b.with_dim(d, side))
        .filter(|child| !child.is_empty())
        .collect();
    b.dims[d] = b.dims[d].intersect(&Interval::point(v));
    sides
}

/// The top of `b ∧ sel` from history alone, given `best`, its history best
/// now, scoring `s`, and `f`, the lowest known top (module docs, "Lazy
/// resolution"): `Known`, or `Above(y)` with `y ≥ f`; `Err` with `best`
/// and why where no complete region bounds `b`'s part below `min(f, s)`.
fn certify(
    st: &SharedState,
    rd: &mut BoxReader,
    b: &NormBox,
    f: f64,
    best: Best,
) -> Result<TopState, (Best, NoBound)> {
    let s = best.as_ref().map_or(f64::INFINITY, |(_, s)| *s);
    match complete_below(st, rd, b, f.min(s)) {
        Err(why) => Err((best, why)),
        Ok(y) => Ok(match best {
            Some((t, s)) if s <= y => TopState::Known(t, s),
            _ => TopState::Above(y),
        }),
    }
}

/// [`certify`] for a tie slab: `Above(y)` where history holds every tuple
/// of `sub ∧ sel` below `y` and each is emitted; `None` where it must be
/// resolved by [`tie_top`]. A tie slab emits only through `tie_top`, or its
/// emitted tuples could part on its next free dimension.
fn certify_slab(st: &SharedState, rd: &mut BoxReader, sub: &Subspace, f: f64) -> Option<TopState> {
    let y = complete_below(st, rd, &sub.bbox, f).ok()?;
    let view = &rd.view;
    let q = view.box_query(&sub.bbox, &rd.sel, &mut rd.ranges);
    let pending =
        (st.history.candidates(q)).any(|t| !sub.emitted.contains(&t.id) && view.score(t) < y);
    (!pending).then_some(TopState::Above(y))
}

/// Why [`complete_below`] read no bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NoBound {
    /// The region walk ran over `shrink(b, f) ∧ sel` and no complete region
    /// covers that box, so none covers a box that holds it either: the
    /// first query `md_top1` asks for `b`, shrunk at a score of at least
    /// `f`, is paid for without walking again.
    Uncovered,
    /// The shrunk box is empty, or the region that covers it has no finite
    /// upper end on an axis it does not span.
    Other,
}

/// A score `y ≥ f` below which history holds every tuple of `b ∧ sel`, read
/// from a complete region that covers `b`'s part below `f` (module docs,
/// "Lazy resolution"); `Err` where no region does, or where the one that
/// does bounds nothing.
fn complete_below(
    st: &SharedState,
    rd: &mut BoxReader,
    b: &NormBox,
    f: f64,
) -> Result<f64, NoBound> {
    let BoxReader {
        view,
        sel,
        ranges,
        lo,
        shrunk: below,
        ..
    } = rd;
    let rank = view.rank();
    b.lo_corner_into(view.bounds(), lo);
    let base = rank.score_norm(lo);
    if base >= f {
        return Ok(base); // nothing in `b` scores below its low corner
    }
    below.clone_from(b);
    if f < f64::INFINITY && !shrink(view, below, lo, f) {
        return Err(NoBound::Other);
    }
    let q = view.box_query(below, sel, ranges);
    if q.is_unsatisfiable() {
        return Ok(f);
    }
    // A tuple of `b ∧ sel` scoring below `y` lies in `region`: on an axis
    // the region does not span, it sits below the region's upper end, or
    // the low corner moved there alone would already score `y` or more.
    let region = st.complete.covering(q).ok_or(NoBound::Uncovered)?;
    let mut y = f64::INFINITY;
    for (j, (&attr, dir)) in rank.attrs().iter().zip(rank.directions()).enumerate() {
        let iv = match dir {
            Direction::Asc => region.interval(attr),
            Direction::Desc => region.interval(attr).negate(),
        };
        if !b.dims[j].is_subset_of(&iv) {
            let hi = iv.hi.value().ok_or(NoBound::Other)?;
            y = y.min(view.score_moved(lo, j, hi));
        }
    }
    Ok(y.max(f))
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
    rd: &mut BoxReader,
    slab: &NormBox,
    emitted: &HashSet<TupleId>,
) -> Result<TieTop, RerankError> {
    let BoxReader {
        view,
        sel,
        ranges,
        shrunk: plane,
        ..
    } = rd;
    let mut q = view.box_query(slab, sel, ranges);
    if q.is_unsatisfiable() {
        return Ok(TieTop::Known(TopState::Above(f64::INFINITY)));
    }
    if !st.complete.covers(q) {
        plane.clone_from(slab);
        to_plane(plane);
        let all = Query::all();
        // More than `k` known on the plane: asking it would only overflow.
        let crowded = (st.history).holds_more_than(view.box_query(plane, &all, ranges), server.k());
        if crowded
            || (st.ask(server, &view.to_query(plane, &all), Purpose::MdTiePlane)?).is_overflow()
        {
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
            crawl_region(server, st, &view.to_query(slab, sel))?;
        }
        // The plane's predicates took the buffer.
        q = view.box_query(slab, sel, ranges);
    }
    let top = (st.history.candidates(q))
        .filter(|t| !emitted.contains(&t.id))
        .map(|t| (view.score(t), t))
        .min_by(|a, b| cmp_f64(a.0, b.0).then(a.1.id.cmp(&b.1.id)));
    Ok(TieTop::Known(TopState::resolved(
        top.map(|(s, t)| (Arc::clone(t), s)),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use crate::strategy::pull;
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
            let got = pull(&mut cur, &server, &mut st, h).unwrap();
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
        let rd = &mut BoxReader::new(NormView::new(Arc::new(rank), &schema), Query::all());
        let tuple = |id, ords: [f64; 3]| Arc::new(Tuple::new(TupleId(id), ords.to_vec(), vec![]));
        let t = tuple(0, [0.5, 0.2, 0.4]);
        let c = rd.view.norm_coords(&t);
        let full = NormBox::full(rd.view.bounds());
        let mut history = History::new(3);
        history.record(&t);
        // Climbs 0.025, 0.4 and 0.36: axis 1, though axis 2 weighs most.
        assert_eq!(split_axis(rd, &history, &full, &c), 1);
        // With axis 1 pinned, axis 2 climbs most among the free ones.
        let pinned = full.with_dim(1, Interval::point(c[1]));
        assert_eq!(split_axis(rd, &history, &pinned, &c), 2);
        // A tuple off that plane changes nothing.
        history.record(&tuple(1, [0.1, 0.3, 0.9]));
        assert_eq!(split_axis(rd, &history, &full, &c), 1);
        // A second tuple on it: the first free axis.
        history.record(&tuple(2, [0.9, 0.2, 0.9]));
        assert_eq!(split_axis(rd, &history, &full, &c), 0);
        assert_eq!(
            split_axis(rd, &history, &full.with_dim(0, Interval::point(0.5)), &c),
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

    /// A grid that is not deduplicated, so cells hold several tuples and
    /// some hold exact duplicates: tie slabs defer while history proves
    /// them done below the frontier, and emit once it rises past them. A
    /// group of identical tuples keeps at most two copies, the smallest `k`,
    /// so the interface can still tell every answer apart.
    #[test]
    fn deferred_tie_slabs_emit_exactly_on_grids() {
        let seed = test_seed();
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0), (AttrId(2), 0.5)]);
        for levels in [8, 16] {
            let grid = discrete_grid(1500, 4, levels, 331 ^ seed);
            let mut copies: std::collections::HashMap<_, usize> = Default::default();
            let kept = (grid.tuples().iter())
                .filter(|t| {
                    let bits: Vec<u64> = t.ords().iter().map(|v| v.to_bits()).collect();
                    let n = copies.entry((bits, t.cats().to_vec())).or_default();
                    *n += 1;
                    *n <= 2
                })
                .cloned()
                .collect();
            assert!(
                copies.values().any(|&n| n > 1),
                "vacuous at {levels} levels: no exact duplicates"
            );
            let data = qrs_types::Dataset::from_shared(Arc::clone(grid.schema()), kept);
            for k in [2, 5] {
                let sys = SystemRank::pseudo_random(seed.wrapping_add(u64::from(levels)));
                run_all(data.clone(), rank.clone(), Query::all(), sys, k, 60);
            }
        }
    }

    /// Keeps every tuple a plane (point predicates only) answers with.
    struct PlaneLog(SimServer, std::sync::Mutex<Vec<Arc<Tuple>>>);

    impl SearchInterface for PlaneLog {
        fn schema(&self) -> &Arc<Schema> {
            self.0.schema()
        }
        fn k(&self) -> usize {
            self.0.k()
        }
        fn query(&self, q: &Query) -> Result<qrs_types::QueryResponse, qrs_types::ServerError> {
            let resp = self.0.query(q)?;
            if q.cats().is_empty() && q.ranges().iter().all(|p| p.interval.is_point()) {
                self.1.lock().unwrap().extend(resp.tuples.iter().cloned());
            }
            Ok(resp)
        }
        fn queries_issued(&self) -> u64 {
            self.0.queries_issued()
        }
    }

    /// A tie slab deferred ahead of the last emission's side children comes
    /// due in the call after the emission, and its plane answers with a
    /// tuple inside a child that beats the history best the merged probe's
    /// gates read for it. The child must read history anew, not reuse that
    /// read: `Subspace::history_best` re-reads once history has grown (and
    /// asserts in debug builds that a reused read is what history holds
    /// now). After every call, no subspace's top (or bound) is beaten by a
    /// tuple history holds in it and it has not emitted, and the stream is
    /// exact.
    ///
    /// The draws are fixed, not taken from `QRS_TEST_SEED`: a plane lands
    /// in a side child ahead of the pass in about one top-40 stream in two
    /// hundred on deduplicated 3-D grids (`k = 2`, weights drawn from 0.3,
    /// 0.5, 0.7 and 1.0), and these three are such streams.
    #[test]
    fn a_plane_asked_ahead_of_the_side_children_reaches_them() {
        for (seed, n, w, k) in [
            (48, 412, [0.3, 1.0, 1.0], 2),
            (405, 495, [1.0, 0.5, 0.5], 2),
            (529, 451, [0.5, 0.7, 0.3], 2),
        ] {
            let rank = LinearRank::asc(vec![
                (AttrId(0), w[0]),
                (AttrId(1), w[1]),
                (AttrId(2), w[2]),
            ]);
            let grid = discrete_grid(n, 3, 16, seed);
            let mut seen = HashSet::new();
            let distinct = (grid.tuples().iter())
                .filter(|t| {
                    let bits: Vec<u64> = t.ords().iter().map(|v| v.to_bits()).collect();
                    seen.insert((bits, t.cats().to_vec()))
                })
                .cloned()
                .collect();
            let data = qrs_types::Dataset::from_shared(Arc::clone(grid.schema()), distinct);
            let truth = data.rank_by(&Query::all(), |t| rank.score(t));
            let sys = SystemRank::pseudo_random(seed);
            let server = PlaneLog(SimServer::new(data.clone(), sys, k), Default::default());
            let params = RerankParams::paper_defaults(data.len(), k);
            let mut st = SharedState::new(data.schema(), params);
            let mut cur = MdCursor::new(
                Arc::new(rank.clone()),
                Query::all(),
                MdOptions::rerank(),
                server.schema(),
            );
            let (mut landed, mut got) = (0, Vec::new());
            for _ in 0..40 {
                // The side children whose history bests the gates read,
                // with those bests.
                let children: Vec<(Query, f64)> = match cur.merge {
                    None => Vec::new(),
                    Some(_) => (cur.subs.len() - 3..cur.subs.len() - 1)
                        .map(|i| {
                            let q = cur.rd.view.to_query(&cur.subs[i].bbox, &cur.rd.sel);
                            let best = history_best(&st, &mut cur.rd, &cur.subs[i].bbox);
                            (q, best.map_or(f64::INFINITY, |(_, s)| s))
                        })
                        .collect(),
                };
                server.1.lock().unwrap().clear();
                let Some(t) = cur.next(&server, &mut st).unwrap() else {
                    break;
                };
                got.push(t);
                let planes = server.1.lock().unwrap();
                landed += (children.iter())
                    .filter(|(q, s)| {
                        (planes.iter()).any(|u| q.matches(u) && cur.rd.view.score(u) < *s)
                    })
                    .count();
                for sub in &cur.subs {
                    let bound = match &sub.top {
                        TopState::Unknown => continue,
                        TopState::Known(_, s) | TopState::Above(s) => *s,
                    };
                    let q = cur.rd.view.to_query(&sub.bbox, &cur.rd.sel);
                    let beaten = (st.history.candidates(&q))
                        .find(|u| !sub.emitted.contains(&u.id) && cur.rd.view.score(u) < bound);
                    assert!(beaten.is_none(), "{:?} beats {:?}", beaten, sub.top);
                }
            }
            assert_stream_matches(&got, &truth, |t| rank.score(t));
            assert!(
                landed > 0,
                "vacuous at seed {seed}: no plane reached a side child ahead of the pass"
            );
        }
    }

    /// What `certify` and `certify_slab` read from one complete region and
    /// history, with `f = 0.5` the lowest known top elsewhere.
    #[test]
    fn a_complete_region_certifies_a_bound_or_a_top() {
        let schema = Schema::new(
            (0..2)
                .map(|i| qrs_types::OrdinalAttr::new(format!("a{i}"), 0.0, 1.0))
                .collect(),
            vec![],
        );
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let view = NormView::new(Arc::new(rank.clone()), &schema);
        let params = RerankParams::paper_defaults(100, 5);
        let tuple = |id, a: f64, b: f64| Arc::new(Tuple::new(TupleId(id), vec![a, b], vec![]));
        let full = NormBox::full(view.bounds());
        let f = 0.5;
        let rd = &mut BoxReader::new(view, Query::all());
        let score = |u: [f64; 2]| rank.score_norm(&u);
        // `certify` over the whole box, given its history best now.
        let certified = |st: &SharedState, rd: &mut BoxReader| {
            let best = history_best(st, rd, &full);
            certify(st, rd, &full, f, best)
        };
        let known = |got: Result<TopState, (Best, NoBound)>, id, s: f64| matches!(got, Ok(TopState::Known(t, got)) if t.id == TupleId(id) && got == s);

        // The part below `f` is `a0 < 0.5, a1 < 0.5`; a region holding it
        // that stops at `a0 ≤ 0.8` proves nothing below `y = S(0.8, 0)`.
        let mut st = SharedState::new(&Arc::new(schema.clone()), params);
        st.complete
            .insert(&Query::all().and_range(AttrId(0), Interval::closed(0.0, 0.8)));
        st.history.record(&tuple(0, 0.9, 0.0)); // outside the region, above `y`
        let y = score([0.8, 0.0]);
        assert!(matches!(certified(&st, rd), Ok(TopState::Above(got)) if got == y));
        // A match exactly at `y` is the top: every tuple outside history
        // scores `y` or more, and order among equal scores is free.
        st.history.record(&tuple(5, 0.8, 0.0));
        assert!(known(certified(&st, rd), 5, y));
        // A match in history between `f` and `y` is the subspace's top.
        st.history.record(&tuple(1, 0.3, 0.4));
        assert!(known(certified(&st, rd), 1, score([0.3, 0.4])));
        // One below `f` is the top too: the region holds its part below it.
        st.history.record(&tuple(2, 0.1, 0.1));
        assert!(known(certified(&st, rd), 2, score([0.1, 0.1])));
        // So does a region that holds the part below that best alone, not
        // the part below `f`: no `md_top1` for it.
        let mut st = SharedState::new(&Arc::new(schema.clone()), params);
        st.complete
            .insert(&Query::all().and_range(AttrId(0), Interval::closed(0.0, 0.25)));
        st.history.record(&tuple(2, 0.1, 0.1));
        let missed = Err(NoBound::Uncovered);
        assert_eq!(complete_below(&st, rd, &full, f), missed);
        assert!(known(certified(&st, rd), 2, score([0.1, 0.1])));
        // No region holds it: resolved, from that history best, and the
        // walk's miss is handed on.
        let mut bare = SharedState::new(&Arc::new(schema.clone()), params);
        bare.history.record(&tuple(2, 0.1, 0.1));
        assert!(matches!(
            certified(&bare, rd),
            Err((Some((t, _)), NoBound::Uncovered)) if t.id == TupleId(2)
        ));

        // A tie slab at `a0 = 0.3` under a region stopping at `a1 ≤ 0.4`:
        // `y = S(0.3, 0.4)`. Done below `y` while every tuple there is
        // emitted; a tuple below `y` not yet emitted sends it to `tie_top`.
        let mut st = SharedState::new(&Arc::new(schema), params);
        st.complete
            .insert(&Query::all().and_range(AttrId(1), Interval::closed(0.0, 0.4)));
        st.history.record(&tuple(3, 0.3, 0.1));
        let slab = Subspace {
            emitted: HashSet::from([TupleId(3)]),
            ..Subspace::new(full.with_dim(0, Interval::point(0.3)))
        };
        let y = score([0.3, 0.4]);
        assert!(matches!(
            certify_slab(&st, rd, &slab, f),
            Some(TopState::Above(got)) if got == y
        ));
        st.history.record(&tuple(4, 0.3, 0.3));
        assert!(certify_slab(&st, rd, &slab, f).is_none());
    }

    /// `certify` checked against the whole dataset, not just history, on a
    /// `SharedState` warmed by a few cursor pulls, over random boxes and
    /// frontiers: `Known(t, s)` names a tuple of `b ∧ sel` at `s` and no
    /// tuple of `b ∧ sel` scores below `s`; under `Above(y)` none scores
    /// below `y`; and `Err(best)` hands back a fresh uncapped history read.
    #[test]
    fn certify_holds_against_the_data() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let seed = test_seed();
        let mut rng = StdRng::seed_from_u64(43 ^ seed);
        let key = |b: &Best| b.as_ref().map(|(t, s)| (t.id, s.to_bits()));
        // Known, Known at its bound `y`, Above, Err, Err after a miss.
        let mut seen = [0usize; 5];
        for (data, steps) in [
            (uniform(600, 3, 1, 47 ^ seed), None),
            (discrete_grid(600, 3, 8, 53 ^ seed), Some(7u32)),
        ] {
            let k = 5;
            let server = SimServer::new(data.clone(), SystemRank::pseudo_random(59 ^ seed), k);
            let params = RerankParams::paper_defaults(data.len(), k);
            let mut st = SharedState::new(data.schema(), params);
            let ranks: Vec<LinearRank> = (0..3)
                .map(|_| {
                    LinearRank::new(
                        (0..3)
                            .map(|a| {
                                let dir =
                                    [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
                                (AttrId(a), dir, [1.0, 2.0, 0.5][rng.random_range(0..3usize)])
                            })
                            .collect(),
                    )
                })
                .collect();
            for rank in &ranks {
                let rank = Arc::new(rank.clone());
                let mut cur = MdCursor::new(rank, Query::all(), MdOptions::rerank(), data.schema());
                pull(&mut cur, &server, &mut st, rng.random_range(10..30)).unwrap();
            }
            for _ in 0..600 {
                let rank = &ranks[rng.random_range(0..ranks.len())];
                let view = NormView::new(Arc::new(rank.clone()), data.schema());
                let mut b = NormBox::full(view.bounds());
                for (d, side) in b.dims.iter_mut().enumerate() {
                    let (lo, hi) = (view.bounds().lo[d], view.bounds().hi[d]);
                    let mut at = || match steps {
                        Some(n) => {
                            lo + (hi - lo) * f64::from(rng.random_range(0..=n)) / f64::from(n)
                        }
                        None => lo + (hi - lo) * rng.random::<f64>(),
                    };
                    let (x, y) = (at(), at());
                    let (x, y) = (x.min(y), x.max(y));
                    *side = match rng.random_range(0..6u32) {
                        0 => Interval::point(x),
                        1 => Interval::closed(x, y),
                        2 => Interval::closed_open(x, y),
                        3 => Interval::at_most(y),
                        4 => Interval::greater_than(x),
                        _ => *side,
                    }
                    .intersect(side);
                }
                if b.is_empty() {
                    continue;
                }
                let sel = match rng.random_range(0..3u32) {
                    0 => Query::all().and_cat(qrs_types::CatPredicate::one_of(
                        qrs_types::CatId(0),
                        vec![rng.random_range(0..4), rng.random_range(0..4)],
                    )),
                    _ => Query::all(),
                };
                let q = view.to_query(&b, &sel);
                let scores: Vec<f64> = (data.tuples().iter())
                    .filter(|t| q.matches(t))
                    .map(|t| view.score(t))
                    .collect();
                let least = scores.iter().copied().fold(f64::INFINITY, f64::min);
                let f = match rng.random_range(0..3u32) {
                    0 => f64::INFINITY,
                    1 if !scores.is_empty() => scores[rng.random_range(0..scores.len())],
                    _ => {
                        let lo = rank.score_norm(&b.lo_corner(view.bounds()));
                        let hi = rank.score_norm(&b.hi_corner(view.bounds()));
                        lo + (hi - lo) * rng.random::<f64>()
                    }
                };
                let rd = &mut BoxReader::new(view.clone(), sel.clone());
                let best = history_best(&st, rd, &b);
                match certify(&st, rd, &b, f, best.clone()) {
                    Ok(TopState::Known(t, s)) => {
                        assert!(
                            q.matches(&t) && view.score(&t) == s,
                            "{t:?} at {s} under {q}"
                        );
                        assert!(least >= s, "{least} below the top {s} under {q}");
                        let y = complete_below(&st, rd, &b, f.min(s));
                        seen[if y == Ok(s) { 1 } else { 0 }] += 1;
                    }
                    Ok(TopState::Above(y)) => {
                        assert!(y >= f && least >= y, "{least} below {y} under {q}, f {f}");
                        seen[2] += 1;
                    }
                    Ok(TopState::Unknown) => panic!("certify left {q} unknown"),
                    Err((got, why)) => {
                        let now = history_best(&st, rd, &b);
                        assert_eq!(key(&got), key(&now), "under {q}");
                        seen[3] += 1;
                        if why != NoBound::Uncovered {
                            continue;
                        }
                        // `md_top1` pays its first query without a walk:
                        // `b` shrunk at the best's score is not covered.
                        let mut first = b.clone();
                        let lo = b.lo_corner(view.bounds());
                        let s = got.map_or(f64::INFINITY, |(_, s)| s);
                        if s == f64::INFINITY || shrink(&view, &mut first, &lo, s) {
                            let q = view.to_query(&first, &sel);
                            assert!(q.is_unsatisfiable() || !st.complete.covers(&q), "{q}");
                            seen[4] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "vacuous: Known {}, Known at y {}, Above {}, Err {} ({} after a walk's miss)",
            seen[0],
            seen[1],
            seen[2],
            seen[3],
            seen[4]
        );
    }

    /// The walk `md_top1` skips: where `complete_below` walked the complete
    /// regions for `b` shrunk at `min(f, s)` and met none that covers it
    /// (`NoBound::Uncovered`), none covers `b` shrunk at `s`, the first box
    /// `md_top1` asks from a history best scoring `s`. That box holds the
    /// walked one side by side (`ℓ` only grows with the score), so a region
    /// covering it would cover the walked box too. Checked over random
    /// boxes, selections, scores and frontiers on a state warmed by cursor
    /// pulls, beside regions made of shrunk boxes so walks also hit.
    #[test]
    fn a_miss_below_the_frontier_is_a_miss_at_the_best_score() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let seed = test_seed();
        let mut rng = StdRng::seed_from_u64(67 ^ seed);
        let data = uniform(600, 3, 1, 71 ^ seed);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(73 ^ seed), 5);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(600, 5));
        let rank = |rng: &mut StdRng| {
            let term = |a| {
                let dir = [Direction::Asc, Direction::Desc][rng.random_range(0..2usize)];
                (AttrId(a), dir, [1.0, 2.0, 0.5][rng.random_range(0..3usize)])
            };
            LinearRank::new((0..3).map(term).collect())
        };
        for _ in 0..2 {
            let rank = Arc::new(rank(&mut rng));
            let mut cur = MdCursor::new(rank, Query::all(), MdOptions::rerank(), data.schema());
            pull(&mut cur, &server, &mut st, rng.random_range(5..20)).unwrap();
        }
        // A random box of the view's domain, its low and high scores.
        let draw = |rng: &mut StdRng, view: &NormView| {
            let mut b = NormBox::full(view.bounds());
            for (d, side) in b.dims.iter_mut().enumerate() {
                let (lo, hi) = (view.bounds().lo[d], view.bounds().hi[d]);
                let x = lo + (hi - lo) * rng.random::<f64>();
                let y = x + (hi - x) * rng.random::<f64>();
                *side = match rng.random_range(0..4u32) {
                    0 => Interval::closed(x, y),
                    1 => Interval::greater_than(x),
                    2 => Interval::at_most(y),
                    _ => *side,
                }
                .intersect(side);
            }
            let score = |c: Vec<f64>| view.rank().score_norm(&c);
            let (lo, hi) = (
                score(b.lo_corner(view.bounds())),
                score(b.hi_corner(view.bounds())),
            );
            (b, lo, hi)
        };
        let sel = |rng: &mut StdRng| match rng.random_range(0..3u32) {
            0 => Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 1)),
            _ => Query::all(),
        };
        // `b` shrunk at `s` (`b` itself at `s = ∞`), if anything is left.
        let shrunk = |view: &NormView, b: &NormBox, s: f64| {
            let (mut out, lo) = (b.clone(), b.lo_corner(view.bounds()));
            (s == f64::INFINITY || shrink(view, &mut out, &lo, s)).then_some(out)
        };
        let (mut missed, mut below, mut covered, mut hit) = (0, 0, 0, 0);
        for _ in 0..3000 {
            let view = NormView::new(Arc::new(rank(&mut rng)), data.schema());
            let (b, lo, hi) = draw(&mut rng, &view);
            let sel = sel(&mut rng);
            let mut at = || match rng.random_range(0..4u32) {
                0 => f64::INFINITY,
                _ => lo + (hi - lo) * rng.random::<f64>(),
            };
            let (s, f) = (at(), at());
            if rng.random_range(0..4u32) == 0 {
                // A region some later box may sit in: the low part of this one.
                if let Some(r) = shrunk(&view, &b, lo + (hi - lo) * 0.3 * rng.random::<f64>()) {
                    st.complete.insert(&view.to_query(&r, &sel));
                }
                continue;
            }
            let rd = &mut BoxReader::new(view.clone(), sel.clone());
            let Some(first) = shrunk(&view, &b, s).filter(|_| lo < f.min(s)) else {
                continue; // no walk: nothing of `b` scores below `min(f, s)`
            };
            let q = view.to_query(&first, &sel);
            let first_covered = !q.is_unsatisfiable() && st.complete.covers(&q);
            covered += usize::from(first_covered);
            match complete_below(&st, rd, &b, f.min(s)) {
                Err(NoBound::Uncovered) => {
                    assert!(
                        !first_covered,
                        "{b:?} ∧ {sel} at f {f}, s {s}: {q} is covered"
                    );
                    missed += 1;
                    below += usize::from(f < s);
                }
                Ok(_) => hit += 1,
                Err(NoBound::Other) => {}
            }
        }
        assert!(
            below * 4 >= missed && missed * 4 >= hit && hit * 4 >= missed && covered * 4 >= hit,
            "vacuous: {missed} misses ({below} below `s`), {hit} bounds, {covered} first boxes covered"
        );
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

    /// On data without ties an emission's tie slab is settled by at most
    /// one plane probe (none where a complete region already shows it holds
    /// nothing below the frontier), where splitting three ways on every
    /// dimension would pay up to `2m − 1` point-slab queries. The 25
    /// emissions pay 8 probes at the default seed (8 to 12 over the seeds
    /// tried), and 12 there when every slab is resolved in the call after
    /// it appears.
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
        let got = pull(&mut cur, &server, &mut st, 25).unwrap();
        let truth = data.rank_by(&Query::all(), |t| rank.score(t));
        assert!(got
            .iter()
            .map(|t| t.id)
            .eq(truth.iter().take(25).map(|t| t.id)));
        let probes = server.1.into_inner();
        assert!(
            (1..=15).contains(&probes),
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
        let got = pull(&mut cur, &server, &mut st, 100).unwrap();
        assert_eq!(got.len(), 40, "must emit the entire relation");
        assert!(cur.next(&server, &mut st).unwrap().is_none());
        // Scores non-decreasing.
        let scores: Vec<f64> = got.iter().map(|t| rank.score(t)).collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]));
    }
}
