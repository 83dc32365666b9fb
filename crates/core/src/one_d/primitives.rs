//! The `next-above` primitive behind all 1D algorithms.
//!
//! Everything works in *normalized* values (`dir.normalize(raw)`, smaller =
//! better): find a matching tuple with the smallest normalized value strictly
//! greater than `after`, optionally strictly below `upto`. The three §3
//! strategies differ only in how they shrink the uncertainty interval.
//!
//! The [`OneDCursor`](super::OneDCursor) certifies every value it emits by
//! gathering its slab `Sel(q) ∧ Ai = v`. The bisection of [`narrow`] lets
//! its last probe pay for that: when the lower half `[lo, mid)` is empty,
//! the upper half is probed *closed* at the candidate's value `cv`,
//! `[mid, cv]`. The candidate itself matches, so the probe never
//! underflows; a valid answer names the next value and registers a complete
//! region holding its whole slab, and the point query that follows is
//! answered free. Two cases keep Algorithm 2's open `[mid, cv)`, because
//! there the slab would only push a useful answer into overflow: a site
//! with `k = 1`, where the candidate alone fills the page, and a slab of
//! which history already holds two matching tuples. 1D-BASELINE and the
//! dense-index crawl keep their open probes: closing them as well saved
//! no query on the benchmark and cost more on `k = 1` sites (Fig 8).
//!
//! **Confirm before bisecting.** Where the system ranking is kind,
//! Algorithm 1 settles the next value in one query and bisection pays
//! several. So before each bisection step, [`narrow`] probes the whole
//! uncertainty interval once, closed at `cv` under the rule above, while
//! two conditions hold: the search's confirm flag ([`Step::confirm`]) is
//! set, and the service's size estimate says the interval fits one page,
//! `n · (cv − lo) / |V(Ai)| ≤ k` (the same `n` the dense threshold reads).
//! An empty or valid answer settles the step. An overflowing one names a
//! better candidate, and the round starts over with it; if that cut less
//! than half of `[lo, cv)`, the flag is cleared, and the search bisects
//! from then on. The flag lives as long as
//! the search (a [`OneDCursor`](super::OneDCursor)'s whole life), so an
//! adversarial rank wastes at most one confirm per cursor: Theorem 1's
//! adversary reads `n/k + 1` for 1D-BINARY and 1D-RERANK, against `n/k` for
//! 1D-BASELINE. The flag and `lo` survive a refusal, so a retry asks the
//! same probes. Bentley & Yao's "almost optimal" unbounded search (IPL
//! 1976) is the classic account of pairing a cheap guess with a bisection
//! that bounds its loss.

use crate::ctx::{Purpose, SharedState};
use crate::one_d::OneDStrategy;
use qrs_server::SearchInterface;
use qrs_types::value::OrdF64;
use qrs_types::{AttrId, Direction, Endpoint, Interval, Query, RerankError, Tuple};
use std::sync::Arc;

/// A 1D search specification: ranking attribute, direction and selection.
#[derive(Debug, Clone)]
pub struct OneDSpec {
    /// The ranking attribute.
    pub attr: AttrId,
    /// Preference direction on the attribute (smaller or larger is better).
    pub dir: Direction,
    /// The user query's selection condition `Sel(q)`.
    pub sel: Query,
}

impl OneDSpec {
    /// Bundle a ranking attribute, direction and selection condition.
    pub fn new(attr: AttrId, dir: Direction, sel: Query) -> Self {
        OneDSpec { attr, dir, sel }
    }

    /// Normalized value of a tuple on the ranking attribute.
    #[inline]
    pub fn nval(&self, t: &Tuple) -> f64 {
        self.dir.normalize(t.ord(self.attr))
    }

    /// Server query for `sel ∧ attr ∈ norm_iv` (translated to raw space).
    pub fn query_for(&self, norm_iv: Interval) -> Query {
        let raw = match self.dir {
            Direction::Asc => norm_iv,
            Direction::Desc => norm_iv.negate(),
        };
        self.sel.clone().and_range(self.attr, raw)
    }

    /// Tuple minimizing (normalized value, id) in a slice.
    pub fn min_tuple<'a>(&self, ts: &'a [Arc<Tuple>]) -> Option<&'a Arc<Tuple>> {
        ts.iter().min_by_key(|t| (OrdF64(self.nval(t)), t.id))
    }
}

/// Outcome of the interval-narrowing loop.
#[derive(Debug, Clone)]
pub enum NarrowResult {
    /// The exact next tuple was pinned down.
    Found(Arc<Tuple>),
    /// No tuple exists strictly inside the uncertainty interval; the best
    /// known candidate (if any) is the answer.
    Exhausted(Option<Arc<Tuple>>),
    /// (1D-RERANK only) the interval `[lo, nval(cur))` fell below the dense
    /// threshold with the candidate `cur` still unconfirmed.
    Narrowed {
        /// Lower end of the remaining uncertainty interval.
        lo: f64,
        /// Best candidate found so far (possibly not the true next tuple).
        cur: Arc<Tuple>,
    },
}

/// Find the matching tuple with the smallest normalized value in
/// `(after, upto)` using the given strategy. `after = -∞` means "from the
/// top"; `upto = None` means unbounded.
pub fn next_above(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    strategy: OneDStrategy,
    after: f64,
    upto: Option<f64>,
) -> Result<Option<Arc<Tuple>>, RerankError> {
    let mut step = Step::new(after);
    seek(server, st, spec, strategy, after, upto, &mut step)
}

/// [`narrow`]'s progress, kept by its caller across a refusal so that a
/// retry re-walks exactly the intervals already paid for.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// No matching tuple has a normalized value in `(after, lo)`. Reset to
    /// `after` at the start of each step.
    pub lo: f64,
    /// Whether [`narrow`] may still confirm before it bisects (module docs).
    /// Set once per search; a confirm probe that cut less than half of its
    /// interval clears it for good.
    pub confirm: bool,
}

impl Step {
    /// A fresh search past `after`, confirming allowed.
    pub fn new(after: f64) -> Self {
        Step {
            lo: after,
            confirm: true,
        }
    }
}

/// [`next_above`] resumable across a refusal: `step` is [`narrow`]'s
/// progress, kept by the caller. Start its `lo` at `after`.
pub(crate) fn seek(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    strategy: OneDStrategy,
    after: f64,
    upto: Option<f64>,
    step: &mut Step,
) -> Result<Option<Arc<Tuple>>, RerankError> {
    match strategy {
        OneDStrategy::Baseline => baseline(server, st, spec, after, upto),
        OneDStrategy::Binary => match narrow(server, st, spec, after, upto, None, step)? {
            NarrowResult::Found(t) => Ok(Some(t)),
            NarrowResult::Exhausted(c) => Ok(c),
            NarrowResult::Narrowed { .. } => unreachable!("no stop width given"),
        },
        OneDStrategy::Rerank => {
            let domain = {
                let o = server.schema().ordinal(spec.attr);
                o.domain_width()
            };
            let threshold = st.params.dense_width(domain);
            match narrow(server, st, spec, after, upto, Some(threshold), step)? {
                NarrowResult::Found(t) => Ok(Some(t)),
                NarrowResult::Exhausted(c) => Ok(c),
                NarrowResult::Narrowed { lo, cur } => {
                    let cv = spec.nval(&cur);
                    // The unknown region is [lo, cv) when probes have raised
                    // lo past `after`, and (after, cv) otherwise — the
                    // closed oracle bound must never re-include `after`.
                    let x = if lo > after { lo } else { after.next_up() };
                    match crate::index::dense1d::oracle(server, st, spec, x, cv)? {
                        Some(t) => Ok(Some(t)),
                        None => Ok(Some(cur)),
                    }
                }
            }
        }
    }
}

/// Algorithm 1 (1D-BASELINE) on normalized values, leveraging history and
/// complete regions ([`SharedState::ask`]).
pub(crate) fn baseline(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    after: f64,
    upto: Option<f64>,
) -> Result<Option<Arc<Tuple>>, RerankError> {
    let mut cur: Option<Arc<Tuple>> = st
        .history
        .next_norm_above(spec.attr, spec.dir, after, upto, &spec.sel)
        .cloned();
    loop {
        let hi = effective_hi(cur.as_ref().map(|t| spec.nval(t)), upto);
        let iv = open_interval(after, hi);
        if iv.is_empty() {
            return Ok(cur);
        }
        let resp = st.ask(server, &spec.query_for(iv), Purpose::OneDSearch)?;
        match resp.outcome {
            // Nothing below `cur` (a covered interval lands here: `cur` is
            // the history minimum).
            qrs_types::QueryOutcome::Underflow => return Ok(cur),
            qrs_types::QueryOutcome::Valid => return Ok(spec.min_tuple(&resp.tuples).cloned()),
            qrs_types::QueryOutcome::Overflow => {
                cur = spec.min_tuple(&resp.tuples).cloned();
                debug_assert!(cur.is_some());
            }
        }
    }
}

/// Algorithms 2/3 core: bisect the uncertainty interval `[lo, nval(cur))`.
///
/// With `stop_width = None` this is 1D-BINARY run to completion; with
/// `Some(w)` it returns [`NarrowResult::Narrowed`] as soon as the interval is
/// narrower than `w` (the 1D-RERANK hand-off point).
///
/// `step` is the search's progress, in and out. `step.lo`: no matching
/// tuple has a normalized value in `(after, lo)`. Pass `after` to start; on
/// a refusal it holds what the paid probes proved, and passing it back
/// makes the retry ask exactly the probes the uninterrupted search would
/// have. When the lower half is empty, the upper half is probed closed at
/// `cv` unless the site's `k` is 1 or history holds a second matching tuple
/// at `cv` (module docs).
///
/// Before each bisection step, while `step.confirm` is set and the size
/// estimate `n · (cv − lo) / |V(Ai)|` is at most `k`, the whole interval is
/// probed once, closed at `cv` under the same rule: an empty or valid
/// answer settles the step, an overflowing one names a better candidate to
/// start the round over with, and one that cut less than half of
/// `[lo, cv)` also clears `step.confirm`. On an adversarial rank that wastes
/// at most one probe per search (module docs).
pub fn narrow(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    after: f64,
    upto: Option<f64>,
    stop_width: Option<f64>,
    step: &mut Step,
) -> Result<NarrowResult, RerankError> {
    let mut cur: Option<Arc<Tuple>> = st
        .history
        .next_norm_above(spec.attr, spec.dir, after, upto, &spec.sel)
        .cloned();
    let o = server.schema().ordinal(spec.attr);
    let domain = o.domain_width();
    // Starting from the very top (`after = -∞`), the public schema domain
    // bounds the uncertainty region — without this, the bisection midpoint
    // of (-∞, cv) is degenerate and 1D-BINARY would collapse to baseline
    // probes for the first Get-Next.
    if step.lo == f64::NEG_INFINITY {
        let (a, b) = (spec.dir.normalize(o.min), spec.dir.normalize(o.max));
        step.lo = a.min(b);
    }
    loop {
        let lo = step.lo;
        let Some(c) = cur.clone() else {
            // No candidate yet: one baseline-style probe over the remainder.
            let iv = if lo == after {
                open_interval(after, upto.unwrap_or(f64::INFINITY))
            } else {
                half_open(lo, upto.unwrap_or(f64::INFINITY))
            };
            if iv.is_empty() {
                return Ok(NarrowResult::Exhausted(None));
            }
            let resp = st.ask(server, &spec.query_for(iv), Purpose::OneDSearch)?;
            match resp.outcome {
                qrs_types::QueryOutcome::Underflow => return Ok(NarrowResult::Exhausted(None)),
                qrs_types::QueryOutcome::Valid => {
                    return Ok(NarrowResult::Found(
                        spec.min_tuple(&resp.tuples).cloned().unwrap(),
                    ))
                }
                qrs_types::QueryOutcome::Overflow => {
                    cur = spec.min_tuple(&resp.tuples).cloned();
                    continue;
                }
            }
        };
        let cv = spec.nval(&c);
        if lo >= cv {
            return Ok(NarrowResult::Exhausted(cur));
        }
        if let Some(w) = stop_width {
            if cv - lo < w {
                return Ok(NarrowResult::Narrowed { lo, cur: c });
            }
        }
        let mid = lo + (cv - lo) / 2.0;
        if step.confirm && st.params.n * (cv - lo) / domain <= server.k() as f64 {
            // The size estimate says `[lo, cv)` fits one page: confirm it
            // whole (Algorithm 1's query) before bisecting. `lo` stays, so a
            // retry asks this same probe.
            let mut whole = region_iv(after, lo, cv);
            if closes_at(server, st, spec, cv) {
                whole.hi = Endpoint::Closed(cv);
            }
            match probe(server, st, spec, whole)? {
                Probe::Empty => return Ok(NarrowResult::Exhausted(cur)),
                Probe::All(t) => return Ok(NarrowResult::Found(t)),
                Probe::Partial(t) => {
                    step.confirm = spec.nval(&t) <= mid;
                    cur = Some(t);
                    continue;
                }
            }
        }
        if !(mid > lo && mid < cv) {
            // Floating-point degeneracy: confirm the sliver directly.
            match probe(server, st, spec, region_iv(after, lo, cv))? {
                Probe::Empty => return Ok(NarrowResult::Exhausted(cur)),
                Probe::All(t) => return Ok(NarrowResult::Found(t)),
                Probe::Partial(t) => {
                    cur = Some(t);
                    continue;
                }
            }
        }
        // Probe the lower half [lo, mid) — open at `after` before any
        // half-interval has been proven empty, so the predecessor tuple at
        // exactly `after` is never re-returned.
        match probe(server, st, spec, region_iv(after, lo, mid))? {
            Probe::All(t) => return Ok(NarrowResult::Found(t)),
            Probe::Partial(t) => {
                cur = Some(t);
            }
            Probe::Empty => {
                // Lower half empty — probe the entire upper half (Algorithm
                // 2's second query), closed at `cv` so that a valid answer
                // also holds the next value's slab. `lo` moves only once the
                // probe is answered: a retry re-asks the covered lower half
                // for free, then this same probe.
                let upper = if closes_at(server, st, spec, cv) {
                    Interval::closed(mid, cv)
                } else {
                    half_open(mid, cv)
                };
                let answer = probe(server, st, spec, upper)?;
                step.lo = mid;
                match answer {
                    Probe::Empty => return Ok(NarrowResult::Exhausted(cur)),
                    Probe::All(t) => return Ok(NarrowResult::Found(t)),
                    Probe::Partial(t) => {
                        cur = Some(t);
                    }
                }
            }
        }
    }
}

/// Whether [`narrow`]'s upper-half probe may close at the candidate value
/// `cv`: not on a `k = 1` site, and not when history already holds a second
/// matching tuple at `cv` (module docs).
fn closes_at(server: &dyn SearchInterface, st: &SharedState, spec: &OneDSpec, cv: f64) -> bool {
    server.k() > 1 && !(st.history).holds_more_than(&spec.query_for(Interval::point(cv)), 1)
}

enum Probe {
    /// Interval certainly empty.
    Empty,
    /// Interval fully enumerated; its minimum tuple.
    All(Arc<Tuple>),
    /// Interval overflowed; best returned tuple.
    Partial(Arc<Tuple>),
}

fn probe(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    iv: Interval,
) -> Result<Probe, RerankError> {
    if iv.is_empty() {
        return Ok(Probe::Empty);
    }
    let resp = st.ask(server, &spec.query_for(iv), Purpose::OneDSearch)?;
    Ok(match resp.outcome {
        qrs_types::QueryOutcome::Underflow => Probe::Empty,
        qrs_types::QueryOutcome::Valid => {
            Probe::All(spec.min_tuple(&resp.tuples).cloned().unwrap())
        }
        qrs_types::QueryOutcome::Overflow => {
            Probe::Partial(spec.min_tuple(&resp.tuples).cloned().unwrap())
        }
    })
}

fn effective_hi(cur: Option<f64>, upto: Option<f64>) -> f64 {
    match (cur, upto) {
        (Some(a), Some(b)) => a.min(b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => f64::INFINITY,
    }
}

fn open_interval(lo: f64, hi: f64) -> Interval {
    Interval {
        lo: if lo == f64::NEG_INFINITY {
            Endpoint::Unbounded
        } else {
            Endpoint::Open(lo)
        },
        hi: if hi == f64::INFINITY {
            Endpoint::Unbounded
        } else {
            Endpoint::Open(hi)
        },
    }
}

/// The uncertainty region between `after` (always exclusive) and `hi`
/// (exclusive): `[lo, hi)` once probes raised `lo` above `after`, else
/// `(after, hi)`.
fn region_iv(after: f64, lo: f64, hi: f64) -> Interval {
    if lo > after {
        half_open(lo, hi)
    } else {
        open_interval(after, hi)
    }
}

fn half_open(lo: f64, hi: f64) -> Interval {
    Interval {
        lo: if lo == f64::NEG_INFINITY {
            Endpoint::Unbounded
        } else {
            Endpoint::Closed(lo)
        },
        hi: if hi == f64::INFINITY {
            Endpoint::Unbounded
        } else {
            Endpoint::Open(hi)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::uniform;
    use qrs_server::{SimServer, SystemRank};

    fn setup(n: usize, k: usize, seed: u64, friendly: bool) -> (SimServer, SharedState) {
        let data = uniform(n, 2, 1, seed);
        let st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
        let sys = if friendly {
            SystemRank::by_attr_asc(AttrId(0))
        } else {
            SystemRank::by_attr_desc(AttrId(0)) // adversarial for Asc user
        };
        let server = SimServer::new(data, sys, k);
        (server, st)
    }

    fn truth_min(server: &SimServer, spec: &OneDSpec, after: f64) -> Option<f64> {
        server
            .dataset()
            .tuples()
            .iter()
            .filter(|t| spec.sel.matches(t) && spec.nval(t) > after)
            .map(|t| spec.nval(t))
            .min_by(f64::total_cmp)
    }

    #[test]
    fn all_strategies_find_the_true_minimum() {
        for friendly in [true, false] {
            for strategy in OneDStrategy::ALL {
                let (server, mut st) = setup(400, 5, 17, friendly);
                let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
                let t = next_above(&server, &mut st, &spec, strategy, f64::NEG_INFINITY, None)
                    .unwrap()
                    .expect("non-empty dataset has a minimum");
                assert_eq!(
                    Some(spec.nval(&t)),
                    truth_min(&server, &spec, f64::NEG_INFINITY),
                    "{} friendly={friendly}",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn descending_direction_finds_maximum() {
        let (server, mut st) = setup(400, 5, 23, false);
        let spec = OneDSpec::new(AttrId(0), Direction::Desc, Query::all());
        let t = next_above(
            &server,
            &mut st,
            &spec,
            OneDStrategy::Binary,
            f64::NEG_INFINITY,
            None,
        )
        .unwrap()
        .unwrap();
        let max = server
            .dataset()
            .tuples()
            .iter()
            .map(|u| u.ord(AttrId(0)))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(t.ord(AttrId(0)), max);
    }

    #[test]
    fn after_excludes_previous_and_returns_successor() {
        let (server, mut st) = setup(300, 4, 29, false);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        let first = next_above(
            &server,
            &mut st,
            &spec,
            OneDStrategy::Rerank,
            f64::NEG_INFINITY,
            None,
        )
        .unwrap()
        .unwrap();
        let second = next_above(
            &server,
            &mut st,
            &spec,
            OneDStrategy::Rerank,
            spec.nval(&first),
            None,
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            Some(spec.nval(&second)),
            truth_min(&server, &spec, spec.nval(&first))
        );
        assert!(spec.nval(&second) > spec.nval(&first));
    }

    #[test]
    fn upto_bounds_the_search() {
        let (server, mut st) = setup(300, 4, 31, true);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        // Nothing below the true minimum.
        let m = truth_min(&server, &spec, f64::NEG_INFINITY).unwrap();
        let none = next_above(
            &server,
            &mut st,
            &spec,
            OneDStrategy::Binary,
            f64::NEG_INFINITY,
            Some(m),
        )
        .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn selection_is_respected() {
        let (server, mut st) = setup(500, 5, 37, false);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(0.4, 0.9));
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, sel);
        for strategy in OneDStrategy::ALL {
            let t = next_above(&server, &mut st, &spec, strategy, f64::NEG_INFINITY, None)
                .unwrap()
                .unwrap();
            assert!(spec.sel.matches(&t));
            assert_eq!(
                Some(spec.nval(&t)),
                truth_min(&server, &spec, f64::NEG_INFINITY)
            );
        }
    }

    #[test]
    fn empty_selection_returns_none_for_all_strategies() {
        let (server, mut st) = setup(200, 4, 41, true);
        let sel = Query::all().and_range(AttrId(1), Interval::closed(2.0, 3.0)); // outside [0,1]
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, sel);
        for strategy in OneDStrategy::ALL {
            assert!(
                next_above(&server, &mut st, &spec, strategy, f64::NEG_INFINITY, None)
                    .unwrap()
                    .is_none()
            );
        }
    }

    #[test]
    fn confirming_costs_baseline_on_a_kind_rank_and_bisection_on_a_hostile_one() {
        use crate::one_d::OneDCursor;
        // Top-25 by attribute 0 ascending; paid queries per strategy.
        let top25 = |data: &qrs_types::Dataset, sys: SystemRank, strategy| {
            let server = SimServer::new(data.clone(), sys, 10);
            let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(2000, 10));
            let mut cur = OneDCursor::over(AttrId(0), Direction::Asc, Query::all(), strategy);
            for _ in 0..25 {
                cur.next(&server, &mut st).unwrap().expect("2000 tuples");
            }
            server.queries_issued()
        };
        for seed in [7, 8, 9] {
            let data = uniform(2000, 2, 1, seed);
            // A kind rank: the site's own order is the user's, so one
            // confirm probe settles most next values. Bisecting alone pays
            // what 1D-BASELINE pays here, 53.
            let kind = top25(
                &data,
                SystemRank::by_attr_asc(AttrId(0)),
                OneDStrategy::Binary,
            );
            assert!(
                kind <= 30,
                "seed {seed}: 1D-BINARY paid {kind} on a kind rank"
            );
            // A hostile rank: the flag clears on the first wasted confirm.
            let hostile = SystemRank::by_attr_desc(AttrId(0));
            let binary = top25(&data, hostile.clone(), OneDStrategy::Binary);
            let baseline = top25(&data, hostile, OneDStrategy::Baseline);
            assert!(
                binary <= baseline,
                "seed {seed}: 1D-BINARY paid {binary}, 1D-BASELINE {baseline}"
            );
        }
    }

    #[test]
    fn history_makes_repeat_searches_cheap() {
        let (server, mut st) = setup(400, 5, 43, false);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        let t1 = next_above(
            &server,
            &mut st,
            &spec,
            OneDStrategy::Baseline,
            f64::NEG_INFINITY,
            None,
        )
        .unwrap()
        .unwrap();
        let cost_first = server.queries_issued();
        // Second identical search: the confirming region is registered
        // complete, so it costs zero queries.
        let t2 = next_above(
            &server,
            &mut st,
            &spec,
            OneDStrategy::Baseline,
            f64::NEG_INFINITY,
            None,
        )
        .unwrap()
        .unwrap();
        assert_eq!(t1.id, t2.id);
        assert_eq!(server.queries_issued(), cost_first);
    }
}
