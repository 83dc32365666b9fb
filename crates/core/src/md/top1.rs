//! The shared MD top-1 search loop (§4.2–§4.3).
//!
//! One loop, two strategy toggles:
//!
//! * **off/off** — MD-BASELINE: maintain a queue of candidate boxes;
//!   each overflowing box is partitioned around the contour corner of its
//!   witness tuple (the corrected Eq. 8/Eq. 9 cover), and boxes are shrunk
//!   by the `ℓ(Ai)` axis caps (Eq. 6) of the best score so far,
//! * **`virtual_tuples`** — split around the max-volume contour point `v'`
//!   instead (§4.3.2 "virtual tuple pruning"), sub-splitting the child that
//!   contains the witness so progress is still guaranteed,
//! * **`domination`** — before splitting, probe the box `{u ⪯ v'}` dominated
//!   by the virtual tuple (§4.3.2 "direct domination detection"): any tuple
//!   there scores ≤ S(v') = target and usually improves the threshold.
//!
//! Both on is MD-RERANK: §4.3's MD-BINARY over the service's shared state.
//! The §4.4 dense-box oracle is not here: on this cursor no setting of its
//! gate saved a query in any MD figure row or benchmark workload (README,
//! "Named deviations from the paper").

use crate::ctx::{Purpose, SharedState};
use crate::md::split::{prefix_split, split_excluding};
use crate::norm::{NormBox, NormView};
use qrs_server::SearchInterface;
use qrs_types::value::OrdF64;
use qrs_types::{Direction, Interval, Query, RerankError, Tuple};
use std::collections::VecDeque;
use std::sync::Arc;

/// Strategy toggles (see module docs). Presets map onto MD-BASELINE and
/// MD-RERANK; individual flags support the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdOptions {
    /// Split around *virtual* (corner) tuples instead of discovered ones
    /// (§4.3's binary refinement).
    pub virtual_tuples: bool,
    /// Prune subspaces dominated by an already-found candidate.
    pub domination: bool,
}

impl MdOptions {
    /// MD-BASELINE (§4.2): no virtual splits, no pruning.
    pub const fn baseline() -> Self {
        MdOptions {
            virtual_tuples: false,
            domination: false,
        }
    }

    /// MD-RERANK: §4.3's virtual splits + domination pruning.
    pub const fn rerank() -> Self {
        MdOptions {
            virtual_tuples: true,
            domination: true,
        }
    }
}

/// The best `(tuple, score)` found so far, if any.
pub(crate) type Best = Option<(Arc<Tuple>, f64)>;

fn consider(best: &mut Best, t: &Arc<Tuple>, score: f64) {
    if beats(t, score, best.as_ref().map(|(bt, bs)| (&**bt, *bs))) {
        *best = Some((Arc::clone(t), score));
    }
}

/// Does `t` at `score` come before `best` in `(score, id)` order?
fn beats(t: &Tuple, score: f64, best: Option<(&Tuple, f64)>) -> bool {
    best.is_none_or(|(bt, bs)| score < bs || (score == bs && t.id < bt.id))
}

/// Lowest-scoring tuple in `b ∧ sel` (ties by id **not** guaranteed global —
/// equal-score regions may be pruned; callers needing full tie sets use the
/// cursor's tie slabs).
///
/// The search starts from `best`, which must be what history holds in the
/// box now ([`history_best`] of `b0 ∧ sel`, uncapped): its score shrinks the
/// first query. The MD cursor passes the read its certificate just took.
pub(crate) fn md_top1(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    view: &NormView,
    sel: &Query,
    b0: &NormBox,
    opts: MdOptions,
    mut best: Best,
) -> Result<Best, RerankError> {
    let mut queue: VecDeque<NormBox> = VecDeque::new();
    queue.push_back(b0.clone());

    while let Some(b) = queue.pop_front() {
        if b.is_empty() {
            continue;
        }
        // Shrink by the ℓ(Ai) caps of the current threshold; may prove the
        // whole box prunable.
        let b = match shrink(view, &b, best.as_ref().map(|(_, s)| *s)) {
            None => continue,
            Some(x) => x,
        };
        let q = view.to_query(&b, sel);
        if q.is_unsatisfiable() {
            continue;
        }
        let resp = st.ask(server, &q, Purpose::MdBox)?;
        match resp.outcome {
            qrs_types::QueryOutcome::Underflow => continue,
            qrs_types::QueryOutcome::Valid => {
                for t in &resp.tuples {
                    consider(&mut best, t, view.score(t));
                }
                continue;
            }
            qrs_types::QueryOutcome::Overflow => {
                // Witness: best returned tuple (all returned lie in b ∧ sel).
                let w = resp
                    .tuples
                    .iter()
                    .min_by(|a, c| {
                        qrs_types::value::cmp_f64(view.score(a), view.score(c))
                            .then(a.id.cmp(&c.id))
                    })
                    .expect("overflow responses are non-empty")
                    .clone();
                consider(&mut best, &w, view.score(&w));
                let target = best.as_ref().map(|(_, s)| *s).expect("best set by witness");
                let lo = b.lo_corner(view.bounds());
                let hi = b.hi_corner(view.bounds());
                let wc = view.norm_coords(&w);

                let pivot = if opts.virtual_tuples {
                    view.rank().contour_point(&lo, &hi, target)
                } else {
                    None
                };
                match pivot {
                    Some(p) => {
                        if opts.domination {
                            probe_dominated(server, st, view, &b, &p, sel, &mut best)?;
                        }
                        let target = best.as_ref().map(|(_, s)| *s).unwrap();
                        queue.extend(split_excluding(view, &b, &p, &wc, target));
                    }
                    None => {
                        if view.rank().score_norm(&lo) >= target {
                            continue; // whole box at/above the threshold
                        }
                        // MD-BASELINE path: corner split around the witness.
                        let corner = view.rank().corner(&wc, target, &lo);
                        queue.extend(prefix_split(&b, &corner));
                    }
                }
            }
        }
    }
    Ok(best)
}

/// §4.3.2 direct domination detection: one query on the box `{u ⪯ p} ∩ b`.
fn probe_dominated(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    view: &NormView,
    b: &NormBox,
    p: &[f64],
    sel: &Query,
    best: &mut Best,
) -> Result<(), RerankError> {
    let mut probe = b.clone();
    for (j, &pj) in p.iter().enumerate() {
        probe.dims[j] = probe.dims[j].intersect(&Interval::at_most(pj));
    }
    if probe.is_empty() {
        return Ok(());
    }
    let q = view.to_query(&probe, sel);
    if q.is_unsatisfiable() {
        return Ok(());
    }
    for t in &st.ask(server, &q, Purpose::MdDominated)?.tuples {
        consider(best, t, view.score(t));
    }
    Ok(())
}

/// Best known tuple matching `q` — a box's `NormView::to_query` — from
/// history alone: the exact `(score, id)` minimum over every observed match,
/// or `None` when no match scores below `cap` (pass `f64::INFINITY` for no
/// cap; a match at or above a finite cap may still be returned).
///
/// A threshold walk along one ranking axis of `q`'s box. The axis is the
/// attribute of `q`'s [`History::tightest`](crate::history::History::tightest)
/// predicate when it ranks; otherwise the one along which the score climbs
/// most across the box (`score_norm` of the low corner with that coordinate
/// raised to the high side). Tuples come in normalized-ascending order
/// along it, and each bounds every later one from below by the axis bound:
/// `score_norm(lo)` with only the walked coordinate replaced by its own
/// (every tuple lies in the schema's domain, as `shrink` assumes). The walk
/// stops at the first tuple whose bound *strictly* exceeds the best score:
/// one whose bound equals it may still tie the best with a smaller id.
/// Before any match it stops at the first bound at or above `cap`. The cut
/// coordinate where the bound reaches the best score (or the cap) is
/// recomputed only when the best improves (one `ell`), so a step below it is
/// one float compare and a step at or above it one `score_norm`.
pub(crate) fn history_best(st: &SharedState, view: &NormView, q: &Query, cap: f64) -> Best {
    let b = view.initial_box(q);
    if b.is_empty() || q.is_unsatisfiable() {
        return None; // nothing matches, and `BTreeMap::range` panics on an empty interval
    }
    let rank = view.rank();
    let mut lo = b.lo_corner(view.bounds());
    let axis = (st.history.tightest(q))
        .and_then(|p| rank.attrs().iter().position(|&a| a == p.attr))
        .unwrap_or_else(|| steepest_axis(view, &b, &mut lo));
    let (attr, hi) = (rank.attrs()[axis], b.hi(axis, view.bounds()));
    let range = st.history.in_range(attr, q.interval(attr));
    match rank.directions()[axis] {
        Direction::Asc => walk_best(view, q, axis, lo, hi, range, cap),
        Direction::Desc => walk_best(view, q, axis, lo, hi, range.rev(), cap),
    }
}

/// [`history_best`]'s threshold walk along `axis` of the box with low
/// corner `at` and upper end `hi` on that axis, over `tuples` in
/// normalized-ascending order along it. The best match is cloned once, at
/// the end.
fn walk_best<'t>(
    view: &NormView,
    q: &Query,
    axis: usize,
    mut at: Vec<f64>,
    hi: f64,
    tuples: impl Iterator<Item = &'t Arc<Tuple>>,
    cap: f64,
) -> Best {
    let rank = view.rank();
    let (attr, dir) = (rank.attrs()[axis], rank.directions()[axis]);
    let lo = at[axis];
    // `ℓ` from the low corner, whatever the walk has moved `at` to.
    let ell = |at: &mut [f64], s: f64| {
        let moved = std::mem::replace(&mut at[axis], lo);
        let cut = rank.ell(axis, s, at, hi).unwrap_or(f64::INFINITY);
        at[axis] = moved;
        cut
    };
    let mut best: Option<(&Arc<Tuple>, f64)> = None;
    let mut cut = if cap < f64::INFINITY {
        ell(&mut at, cap)
    } else {
        cap
    };
    for t in tuples {
        at[axis] = dir.normalize(t.ord(attr));
        if at[axis] >= cut && best.is_none_or(|(_, s)| rank.score_norm(&at) > s) {
            break;
        }
        if q.matches(t) {
            let s = view.score(t);
            if best.is_none_or(|(_, bs)| s < bs) {
                cut = ell(&mut at, s);
            }
            if beats(t, s, best.map(|(bt, bs)| (&**bt, bs))) {
                best = Some((t, s));
            }
        }
    }
    best.map(|(t, s)| (Arc::clone(t), s))
}

/// The ranking axis along which the score climbs most across `b`, whose
/// low corner is `lo`.
fn steepest_axis(view: &NormView, b: &NormBox, lo: &mut [f64]) -> usize {
    let base = view.rank().score_norm(lo);
    let climb = |j: usize| OrdF64(view.score_moved(lo, j, b.hi(j, view.bounds())) - base);
    (0..b.dims.len())
        .map(climb)
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map_or(0, |(j, _)| j)
}

/// Cap each axis at its `ℓ(Ai)` intercept for the threshold; `None` when the
/// whole box is provably at/above the threshold.
pub(crate) fn shrink(view: &NormView, b: &NormBox, threshold: Option<f64>) -> Option<NormBox> {
    let Some(target) = threshold else {
        return Some(b.clone());
    };
    let lo = b.lo_corner(view.bounds());
    if view.rank().score_norm(&lo) >= target {
        return None;
    }
    let mut out = b.clone();
    for j in 0..b.dims.len() {
        if let Some(e) = view.rank().ell(j, target, &lo, b.hi(j, view.bounds())) {
            out.dims[j] = out.dims[j].intersect(&Interval::less_than(e));
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::{correlated, uniform};
    use qrs_ranking::{LinearRank, RankFn};
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;

    fn opts_all() -> [(&'static str, MdOptions); 2] {
        [
            ("baseline", MdOptions::baseline()),
            ("rerank", MdOptions::rerank()),
        ]
    }

    fn check_top1(
        data: qrs_types::Dataset,
        sys: SystemRank,
        k: usize,
        rank: LinearRank,
        sel: Query,
    ) {
        let truth = data
            .tuples()
            .iter()
            .filter(|t| sel.matches(t))
            .map(|t| rank.score(t))
            .min_by(|a, b| cmp_f64(*a, *b));
        let n = data.len();
        for (name, opts) in opts_all() {
            let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
            let server = SimServer::new(data.clone(), sys.clone(), k);
            let view = NormView::new(Arc::new(rank.clone()), server.schema());
            let b0 = view.initial_box(&sel);
            let got = md_top1(&server, &mut st, &view, &sel, &b0, opts, None).unwrap();
            assert_eq!(got.map(|(_, s)| s), truth, "algo {name}");
        }
    }

    #[test]
    fn finds_top1_uniform_2d() {
        let data = uniform(300, 2, 1, 101);
        check_top1(
            data,
            SystemRank::pseudo_random(5),
            5,
            LinearRank::asc(vec![(AttrId(0), 0.7), (AttrId(1), 0.3)]),
            Query::all(),
        );
    }

    #[test]
    fn finds_top1_anticorrelated_adversarial_system() {
        let data = correlated(300, -0.9, 103);
        // System ranks by descending sum — worst case for an ascending user.
        let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
        check_top1(
            data,
            sys,
            5,
            LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]),
            Query::all(),
        );
    }

    #[test]
    fn finds_top1_3d_with_selection() {
        let data = uniform(400, 3, 1, 107);
        let sel = Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 1));
        check_top1(
            data,
            SystemRank::linear("sys", vec![(AttrId(2), -1.0)]),
            4,
            LinearRank::asc(vec![(AttrId(0), 0.5), (AttrId(1), 0.9), (AttrId(2), 0.2)]),
            sel,
        );
    }

    #[test]
    fn mixed_directions() {
        let data = uniform(300, 2, 1, 109);
        let rank = LinearRank::new(vec![
            (AttrId(0), qrs_types::Direction::Asc, 1.0),
            (AttrId(1), qrs_types::Direction::Desc, 2.0),
        ]);
        check_top1(
            data,
            SystemRank::by_attr_asc(AttrId(1)),
            5,
            rank,
            Query::all(),
        );
    }

    #[test]
    fn empty_selection_yields_none() {
        let data = uniform(200, 2, 1, 113);
        let sel = Query::all().and_range(AttrId(0), Interval::closed(5.0, 6.0));
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(200, 5));
        let server = SimServer::new(data, SystemRank::pseudo_random(1), 5);
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let view = NormView::new(Arc::new(rank), server.schema());
        let b0 = view.initial_box(&sel);
        assert!(md_top1(
            &server,
            &mut st,
            &view,
            &sel,
            &b0,
            MdOptions::rerank(),
            None
        )
        .unwrap()
        .is_none());
    }
}
