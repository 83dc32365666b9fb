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
//!   contains the witness so progress is still guaranteed, where the pivot
//!   is priced to pay (below),
//! * **`domination`** — before that split, probe the box `{u ⪯ v'}`
//!   dominated by the virtual tuple (§4.3.2 "direct domination
//!   detection"): any tuple there scores ≤ S(v') = target and usually
//!   improves the threshold.
//!
//! Both on is MD-RERANK: §4.3's MD-BINARY over the service's shared state.
//! The §4.4 dense-box oracle is not here: on this cursor no setting of its
//! gate saved a query in any MD figure row or benchmark workload (README,
//! "Named deviations from the paper").
//!
//! **Pricing the pivot.** After an overflow the witness's score `t` is the
//! target. Two size estimates, each `n · width_share` (uniform data),
//! price the next step: `e_box` for the box just asked and `e_left` for the
//! same box shrunk at `t`, the bounding box of what can still score below
//! `t`. The witness split is free and leaves `e_left`. The virtual pivot
//! costs one query, the domination probe. Its box, the largest under the
//! contour, takes `1/m` of each edge of the shrunk box for a linear ranking
//! over `m` attributes. So it holds about `e_left / m^m` tuples, and
//! `q = m!/m^m` of the candidates below the contour: half of them in 2-D.
//! `virtual_pivot_pays` takes the virtual pivot in two cases, and never
//! where `e_left ≤ k`: what the witness left then fits the pages its
//! children's own queries ask anyway, and a probe buys nothing.
//!
//! 1. *The probe's box overflows*, `e_left > m^m · k`. Every tuple on its
//!    page scores below `t`, and the best of them cuts what is left about
//!    `k`-fold, as much as the best witness one page can give.
//! 2. *The witness is poor*, `e_left > (1 − q) · e_box`. Otherwise the probe
//!    settles `q` of the candidates, a bisection in 2-D, for one query. Each
//!    later box query is expected to cut by the ratio `r = e_left / e_box`
//!    this witness cut by, since the system ranking orders every box alike.
//!    With the probe, a box's two queries cut by `r(1 − q)`; without it,
//!    two box queries cut by `r²`. The probe pays where `r(1 − q) < r²`,
//!    that is where `r > 1 − q`.
//!
//! Nothing in the gate is tuned: it reads `k`, `m` and the linear contour's
//! geometry. Where it declines, the box splits at the witness corner, as
//! MD-BASELINE's does.

use crate::ctx::{Purpose, SharedState};
use crate::md::split::{prefix_split, split_excluding};
use crate::norm::{NormBox, NormView};
use qrs_server::SearchInterface;
use qrs_types::value::OrdF64;
use qrs_types::{Interval, Query, RangePredicate, RerankError, Schema, Tuple};
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

/// An MD search's ranking view and selection, with the buffers its reads
/// reuse: every box `b` it reads against history or the complete regions is
/// read as `b ∧ sel` through a predicate buffer ([`NormView::box_query`]),
/// and its low corner and shrunk copies go into buffers too, so such a read
/// builds no query and allocates nothing once the buffers have grown. A
/// query is built only where the site is asked (or [`SharedState::ask`]
/// answers it free from history).
#[derive(Debug)]
pub(crate) struct BoxReader {
    pub(crate) view: NormView,
    pub(crate) sel: Query,
    /// The range predicates of the box read last.
    pub(crate) ranges: Vec<RangePredicate>,
    /// A low corner.
    pub(crate) lo: Vec<f64>,
    /// A box shrunk at a score, a plane, or `md_top1`'s box at hand.
    pub(crate) shrunk: NormBox,
    /// The merged probe's box, read beside `shrunk`.
    pub(crate) merged: NormBox,
}

impl BoxReader {
    /// A reader of boxes of `view`'s space ANDed onto `sel`. Its buffers
    /// start empty and grow at their first read: a cursor that never reads
    /// (a session replayed from the knowledge plane) allocates none.
    pub(crate) fn new(view: NormView, sel: Query) -> Self {
        let blank = || NormBox { dims: Vec::new() };
        BoxReader {
            view,
            sel,
            ranges: Vec::new(),
            lo: Vec::new(),
            shrunk: blank(),
            merged: blank(),
        }
    }
}

/// Keep `t` at `score` where it comes before `best` in `(score, id)` order.
fn consider(best: &mut Best, t: &Arc<Tuple>, score: f64) {
    if (best.as_ref()).is_none_or(|(bt, bs)| score < *bs || (score == *bs && t.id < bt.id)) {
        *best = Some((Arc::clone(t), score));
    }
}

/// Lowest-scoring tuple in `b ∧ sel` (ties by id **not** guaranteed global —
/// equal-score regions may be pruned; callers needing full tie sets use the
/// cursor's tie slabs).
///
/// The search starts from `best`, which must be what history holds in the
/// box now ([`history_best`] of `b0 ∧ sel`): its score shrinks the first
/// query. The MD cursor passes the read its certificate just took. With
/// `uncovered`, the caller has just walked the complete regions for a box
/// the first query holds and found none that covers it, so none covers the
/// first query either: it is paid for without walking them again.
pub(crate) fn md_top1(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    rd: &mut BoxReader,
    b0: &NormBox,
    opts: MdOptions,
    mut best: Best,
    mut uncovered: bool,
) -> Result<Best, RerankError> {
    // The box at hand is the reader's: only split children are queued.
    let BoxReader {
        view,
        sel,
        lo,
        shrunk: b,
        ..
    } = rd;
    b.clone_from(b0);
    let mut queue: VecDeque<NormBox> = VecDeque::new();
    loop {
        let walked = std::mem::take(&mut uncovered);
        'ask: {
            if b.is_empty() {
                break 'ask;
            }
            // Shrink by the ℓ(Ai) caps of the current threshold; may prove
            // the whole box prunable. Shrinking moves only upper ends, so
            // `lo` stays the box's low corner.
            b.lo_corner_into(view.bounds(), lo);
            if (best.as_ref()).is_some_and(|(_, s)| !shrink(view, b, lo, *s)) {
                break 'ask;
            }
            let q = view.to_query(b, sel);
            if q.is_unsatisfiable() {
                break 'ask;
            }
            let resp = if walked {
                debug_assert!(
                    !st.complete.covers(&q),
                    "a skipped walk would have hit: {q}"
                );
                st.pay(server, &q, Purpose::MdBox)?
            } else {
                st.ask(server, &q, Purpose::MdBox)?
            };
            match resp.outcome {
                qrs_types::QueryOutcome::Underflow => {}
                qrs_types::QueryOutcome::Valid => {
                    for t in &resp.tuples {
                        consider(&mut best, t, view.score(t));
                    }
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
                    let (b, lo): (&NormBox, &[f64]) = (b, lo);
                    let wc = view.norm_coords(&w);
                    // The virtual pivot only where it is priced to pay
                    // (module docs, "Pricing the pivot").
                    let priced = || {
                        let estimate =
                            |at| st.params.n * width_share(view, server.schema(), sel, b, at);
                        let (e_box, e_left) = (estimate(None), estimate(Some((lo, target))));
                        virtual_pivot_pays(e_box, e_left, server.k(), view.dims())
                    };
                    let pivot = if opts.virtual_tuples && priced() {
                        view.rank()
                            .contour_point(lo, &b.hi_corner(view.bounds()), target)
                    } else {
                        None
                    };
                    match pivot {
                        Some(p) => {
                            if opts.domination {
                                probe_dominated(server, st, view, b, &p, sel, &mut best)?;
                            }
                            let target = best.as_ref().map(|(_, s)| *s).unwrap();
                            queue.extend(split_excluding(view, b, &p, &wc, target));
                        }
                        None => {
                            if view.rank().score_norm(lo) >= target {
                                break 'ask; // whole box at/above the threshold
                            }
                            // MD-BASELINE path: corner split around the witness.
                            let corner = view.rank().corner(&wc, target, lo);
                            queue.extend(prefix_split(b, &corner));
                        }
                    }
                }
            }
        }
        match queue.pop_front() {
            Some(next) => *b = next,
            None => break,
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

/// Best known tuple of `b ∧ sel` (`sel` the reader's) from history alone:
/// the exact `(score, id)` minimum over every observed match.
///
/// `b` lies in `view.initial_box(sel)`, narrowed from it by intersections
/// as every box of the MD search is, so `b` is the box of `b ∧ sel`: the
/// read is the one of `view.to_query(b, sel)`, taken from `b` itself
/// without building that query and turning it back into a box.
///
/// History's threshold walk ([`History::lowest`](crate::history::History::lowest))
/// along one ranking axis of `b`. The axis is the attribute of `b ∧ sel`'s
/// [`History::tightest`](crate::history::History::tightest) predicate when
/// it ranks; otherwise the one along which the score climbs most across the
/// box (`score_norm` of the low corner with that coordinate raised to the
/// high side).
pub(crate) fn history_best(st: &SharedState, rd: &mut BoxReader, b: &NormBox) -> Best {
    let BoxReader {
        view,
        sel,
        ranges,
        lo,
        ..
    } = rd;
    let q = view.box_query(b, sel, ranges);
    if b.is_empty() || q.is_unsatisfiable() {
        return None; // nothing matches, and the box has no corners
    }
    let rank = view.rank();
    b.lo_corner_into(view.bounds(), lo);
    let axis = (st.history.tightest(q))
        .and_then(|p| rank.attrs().iter().position(|&a| a == p.attr))
        .unwrap_or_else(|| steepest_axis(view, b, lo));
    let hi = b.hi(axis, view.bounds());
    let (t, s) = st.history.lowest(q, &**rank, axis, lo, hi)?;
    Some((Arc::clone(t), s))
}

/// The ranking axis along which the score climbs most across `b`, whose
/// low corner is `lo`.
pub(crate) fn steepest_axis(view: &NormView, b: &NormBox, lo: &mut [f64]) -> usize {
    let base = view.rank().score_norm(lo);
    let climb = |j: usize| OrdF64(view.score_moved(lo, j, b.hi(j, view.bounds())) - base);
    (0..b.dims.len())
        .map(climb)
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map_or(0, |(j, _)| j)
}

/// Does the virtual pivot, with its domination probe, cost less than the
/// witness split for a box whose answer overflowed (module docs, "Pricing
/// the pivot")? `e_box` is the size estimate of the box just asked, `e_left`
/// that of the same box shrunk at the witness's score, `k` the page size and
/// `dims` the number of ranking attributes.
pub(crate) fn virtual_pivot_pays(e_box: f64, e_left: f64, k: usize, dims: usize) -> bool {
    let k = k as f64;
    // The probe's box, the largest under the contour, takes `1/m` of each
    // edge of the shrunk box: `1/m^m` of its volume, `m!/m^m` of the
    // candidates below the contour.
    let probe = (dims as f64).powi(dims as i32).recip();
    let settled = probe * (1..=dims).map(|i| i as f64).product::<f64>();
    e_left > k && (probe * e_left > k || e_left > (1.0 - settled) * e_box)
}

/// `n ·` this is the size estimate of `b ∧ sel` on uniform data: the share
/// of the ordinal domain it admits, the product over `b`'s dimensions of
/// each one's width within the normalized domain over the domain's width,
/// and over `sel`'s range predicates on attributes the ranking does not use
/// of theirs. With `shrunk_at = Some((lo, s))`, `lo` being `b`'s low
/// corner, it is the share of `shrink(b, s)` instead, 0 where [`shrink`]
/// proves that box empty. It reads the intervals in place: no box or query
/// is built.
pub(crate) fn width_share(
    view: &NormView,
    schema: &Schema,
    sel: &Query,
    b: &NormBox,
    shrunk_at: Option<(&[f64], f64)>,
) -> f64 {
    let rank = view.rank();
    if shrunk_at.is_some_and(|(lo, s)| rank.score_norm(lo) >= s) {
        return 0.0;
    }
    let share = |iv: &Interval, (min, max): (f64, f64), cap: f64| {
        let lo = iv.lo.value().map_or(min, |v| v.max(min));
        let hi = iv.hi.value().map_or(max, |v| v.min(max)).min(cap);
        if max > min {
            ((hi - lo) / (max - min)).clamp(0.0, 1.0)
        } else {
            1.0
        }
    };
    let others = (sel.ranges().iter())
        .filter(|p| !rank.attrs().contains(&p.attr))
        .map(|p| {
            let o = schema.ordinal(p.attr);
            share(&p.interval, (o.min, o.max), f64::INFINITY)
        });
    let bounds = view.bounds();
    let dims = b.dims.iter().enumerate().map(|(j, iv)| {
        let cap = shrunk_at
            .and_then(|(lo, s)| rank.ell(j, s, lo, b.hi(j, bounds)))
            .unwrap_or(f64::INFINITY);
        share(iv, (bounds.lo[j], bounds.hi[j]), cap)
    });
    others.chain(dims).product()
}

/// Cap each axis of `b`, whose low corner is `lo`, at its `ℓ(Ai)`
/// intercept for `target`, in place; false where the whole box is provably
/// at/above `target` (its low corner scores that much, or a capped side is
/// empty). Only upper ends move, so `lo` stays the low corner.
pub(crate) fn shrink(view: &NormView, b: &mut NormBox, lo: &[f64], target: f64) -> bool {
    if view.rank().score_norm(lo) >= target {
        return false;
    }
    for j in 0..b.dims.len() {
        // Side `j` is still as it was: each step moves only its own.
        if let Some(e) = view.rank().ell(j, target, lo, b.hi(j, view.bounds())) {
            b.dims[j] = b.dims[j].intersect(&Interval::less_than(e));
        }
    }
    !b.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::cursor::MdCursor;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::{correlated, uniform};
    use qrs_ranking::{LinearRank, RankFn};
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

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
            let rd = &mut BoxReader::new(view, sel.clone());
            let got = md_top1(&server, &mut st, rd, &b0, opts, None, false).unwrap();
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

    /// The three regimes of the pivot's price at `k = 10`.
    #[test]
    fn the_pivot_is_priced_by_what_the_witness_left() {
        let k = 10;
        for (e_box, e_left, dims, takes_virtual) in [
            // A huge box with a good witness: the probe's box, a quarter of
            // what is left in 2-D, overflows a page.
            (10_000.0, 50.0, 2, true),
            // What the witness left fits a page, however poor the witness.
            (10_000.0, 8.0, 2, false),
            (12.0, 10.0, 2, false),
            // The witness left more than half of the box.
            (30.0, 20.0, 2, true),
            // A good witness, and the probe's box holds under a page.
            (100.0, 20.0, 2, false),
            // In 3-D the probe's box is 1/27 of what is left, and settles
            // 2/9 of the candidates.
            (10_000.0, 200.0, 3, false),
            (10_000.0, 300.0, 3, true),
            (30.0, 20.0, 3, false),
            (24.0, 20.0, 3, true),
        ] {
            assert_eq!(
                virtual_pivot_pays(e_box, e_left, k, dims),
                takes_virtual,
                "e_box {e_box}, e_left {e_left}, {dims} dimensions"
            );
        }
    }

    /// `width_share` of a box shrunk in place is that of the box `shrink`
    /// builds, and 0 where `shrink` proves it empty.
    #[test]
    fn the_in_place_estimate_is_the_shrunk_box_estimate() {
        let data = uniform(10, 3, 1, 5);
        let schema = data.schema();
        let rank = LinearRank::new(vec![
            (AttrId(0), qrs_types::Direction::Asc, 0.7),
            (AttrId(1), qrs_types::Direction::Desc, 1.0),
            (AttrId(2), qrs_types::Direction::Asc, 0.4),
        ]);
        let view = NormView::new(Arc::new(rank), schema);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(0.1, 0.9));
        let b0 = view.initial_box(&sel);
        let mut rng = StdRng::seed_from_u64(11);
        let (mut empty, mut full) = (0, 0);
        let (lo0, hi0) = (b0.lo_corner(view.bounds()), b0.hi_corner(view.bounds()));
        for _ in 0..2_000 {
            let mut b = b0.clone();
            for (j, iv) in b.dims.iter_mut().enumerate() {
                let (lo, hi) = (lo0[j], hi0[j]);
                let a = lo + (hi - lo) * rng.random::<f64>();
                let c = a + (hi - a) * rng.random::<f64>();
                *iv = iv.intersect(&Interval::closed(a, c));
            }
            let lo = b.lo_corner(view.bounds());
            let s = view.rank().score_norm(&lo) + 1.5 * rng.random::<f64>() - 0.2;
            let in_place = width_share(&view, schema, &sel, &b, Some((&lo, s)));
            let mut shrunk = b.clone();
            match shrink(&view, &mut shrunk, &lo, s) {
                true => {
                    let built = width_share(&view, schema, &sel, &shrunk, None);
                    assert_eq!(in_place.to_bits(), built.to_bits(), "{b:?} at {s}");
                    full += 1;
                }
                false => {
                    assert_eq!(in_place, 0.0, "{b:?} at {s}");
                    empty += 1;
                }
            }
        }
        assert!(empty > 100 && full > 100, "{empty} empty, {full} not");
    }

    /// The first tuple of `fault_injection`'s dying-backend world: an
    /// anti-correlated system ranking, where every witness is poor, must not
    /// cost MD-RERANK more than the 20 queries it cost when every box took
    /// the virtual pivot.
    #[test]
    fn a_poor_witness_world_keeps_its_first_tuple_cost() {
        let data = uniform(250, 2, 1, 9004);
        let anti = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
        let server = SimServer::new(data.clone(), anti, 3);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(250, 3));
        let rank = LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]);
        let mut cursor = MdCursor::new(
            Arc::new(rank),
            Query::all(),
            MdOptions::rerank(),
            server.schema(),
        );
        assert!(cursor.next(&server, &mut st).unwrap().is_some());
        let spent = server.queries_issued();
        assert!(spent <= 20, "the first tuple cost {spent} queries, over 20");
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
        let rd = &mut BoxReader::new(view, sel);
        let got = md_top1(&server, &mut st, rd, &b0, MdOptions::rerank(), None, false);
        assert!(got.unwrap().is_none());
    }
}
