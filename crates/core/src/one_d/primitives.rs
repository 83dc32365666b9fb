//! The `next-above` primitive behind all 1D algorithms.
//!
//! Everything works in *normalized* values (`dir.normalize(raw)`, smaller =
//! better): find a matching tuple with the smallest normalized value strictly
//! greater than `after`, optionally strictly below `upto`. The three §3
//! strategies differ only in how they shrink the uncertainty interval.

use crate::ctx::SharedState;
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
    match strategy {
        OneDStrategy::Baseline => baseline(server, st, spec, after, upto),
        OneDStrategy::Binary => match narrow(server, st, spec, after, upto, None)? {
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
            match narrow(server, st, spec, after, upto, Some(threshold))? {
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
        let resp = st.ask(server, &spec.query_for(iv))?;
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
pub fn narrow(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    after: f64,
    upto: Option<f64>,
    stop_width: Option<f64>,
) -> Result<NarrowResult, RerankError> {
    let mut cur: Option<Arc<Tuple>> = st
        .history
        .next_norm_above(spec.attr, spec.dir, after, upto, &spec.sel)
        .cloned();
    // Invariant: no matching tuple has normalized value in (after, lo).
    // Starting from the very top (`after = -∞`), the public schema domain
    // bounds the uncertainty region — without this, the bisection midpoint
    // of (-∞, cv) is degenerate and 1D-BINARY would collapse to baseline
    // probes for the first Get-Next.
    let mut lo = if after == f64::NEG_INFINITY {
        let o = server.schema().ordinal(spec.attr);
        let (a, b) = (spec.dir.normalize(o.min), spec.dir.normalize(o.max));
        a.min(b)
    } else {
        after
    };
    loop {
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
            let resp = st.ask(server, &spec.query_for(iv))?;
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
                // Lower half empty — probe the entire upper half [mid, cv)
                // (Algorithm 2's second query).
                lo = mid;
                match probe(server, st, spec, half_open(mid, cv))? {
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
    let resp = st.ask(server, &spec.query_for(iv))?;
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
