//! Region crawler — the \[15\]-style range-splitting enumerator.
//!
//! Fully enumerates `R(q)` through the top-k interface by recursively
//! splitting overflowing queries on attribute values observed in their
//! answers. Used in two places:
//!
//! * the *crawl-then-rank* baseline of §1 (crawl everything, rank locally),
//! * tie slabs when removing the general-positioning assumption (§5) — a
//!   point predicate `Ai = v` may still overflow and must be subdivided on
//!   the other attributes.
//!
//! Splits always use *observed* attribute values (three-way `< v`, `= v`,
//! `> v` at the median returned value), so every recursion step either
//! strictly separates tuples or pins an attribute to a point — termination
//! is structural, not epsilon-based. Groups of more-than-`k` tuples
//! identical on **every** ordinal attribute are fundamentally
//! indistinguishable through the interface; the crawler returns what it can
//! and reports `truncated = true`.
//!
//! A crawl is resumable: when a sub-query fails, the sub-queries still to
//! ask are kept in [`SharedState`] under the crawl's root, and the next
//! crawl of that root picks them up. Every answered sub-query is in the
//! shared history, which is where the result is read from, so a retry pays
//! for nothing twice.

use crate::ctx::{Purpose, SharedState};
use qrs_server::SearchInterface;
use qrs_types::value::cmp_f64;
use qrs_types::{AttrId, Interval, Query, RerankError, Schema, Tuple};
use std::collections::VecDeque;
use std::sync::Arc;

/// Result of a full-region crawl.
#[derive(Debug, Clone)]
pub struct CrawlResult {
    /// Every known tuple matching the query, sorted by id.
    pub tuples: Vec<Arc<Tuple>>,
    /// True if an indistinguishable >k duplicate group was hit; the result
    /// may then miss some tuples of that group.
    pub truncated: bool,
}

/// A crawl in progress, as it stands between two sub-queries.
#[derive(Debug)]
struct Crawl {
    root: Query,
    /// Sub-queries still to ask.
    stack: Vec<Query>,
    /// Whether the root overflowed (else its answer alone was complete).
    overflowed: bool,
    /// Whether an indistinguishable group was met.
    truncated: bool,
}

/// Crawls a refusal interrupted, kept in [`SharedState`] for the next crawl
/// of the same root. Capped FIFO: dropping one only costs re-paying it.
#[derive(Debug, Default)]
pub(crate) struct PendingCrawls(VecDeque<Crawl>);

impl PendingCrawls {
    const CAP: usize = 64;

    fn take(&mut self, root: &Query) -> Option<Crawl> {
        let at = self.0.iter().position(|c| &c.root == root)?;
        self.0.remove(at)
    }

    fn keep(&mut self, crawl: Crawl) {
        if self.0.len() == Self::CAP {
            self.0.pop_front();
        }
        self.0.push_back(crawl);
    }
}

/// Enumerate all tuples matching `q`. Fails fast on a server error; the
/// sub-queries still to ask are kept in `st`, so a retry resumes the crawl
/// instead of restarting it. Its queries are paid as [`Purpose::Crawl`].
pub fn crawl_region(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    q: &Query,
) -> Result<CrawlResult, RerankError> {
    crawl_for(server, st, q, Purpose::Crawl)
}

/// [`crawl_region`], its queries paid as `purpose`.
pub(crate) fn crawl_for(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    q: &Query,
    purpose: Purpose,
) -> Result<CrawlResult, RerankError> {
    let schema = Arc::clone(server.schema());
    let mut crawl = st.pending_crawls.take(q).unwrap_or_else(|| Crawl {
        root: q.clone(),
        stack: vec![q.clone()],
        overflowed: false,
        truncated: false,
    });

    while let Some(cq) = crawl.stack.pop() {
        if cq.is_unsatisfiable() {
            continue;
        }
        let resp = match st.ask(server, &cq, purpose) {
            Ok(resp) => resp,
            Err(e) => {
                crawl.stack.push(cq);
                st.pending_crawls.keep(crawl);
                return Err(e);
            }
        };
        if !resp.is_overflow() {
            continue;
        }
        crawl.overflowed = true;
        let stack = &mut crawl.stack;
        match choose_split(&schema, &cq, &resp.tuples) {
            Some(Split::ThreeWay(attr, v)) => {
                let iv = cq.interval(attr);
                stack.push(
                    cq.clone()
                        .and_range(attr, iv.intersect(&Interval::less_than(v))),
                );
                stack.push(cq.clone().and_range(attr, Interval::point(v)));
                stack.push(cq.and_range(attr, iv.intersect(&Interval::greater_than(v))));
            }
            Some(Split::Enumerate(attr)) => {
                let iv = cq.interval(attr);
                let values = schema
                    .ordinal(attr)
                    .values
                    .as_deref()
                    .expect("point-only attributes carry an explicit value list");
                for &v in values.iter().filter(|v| iv.contains(**v)) {
                    stack.push(cq.clone().and_range(attr, Interval::point(v)));
                }
            }
            Some(Split::EnumerateCat(cat)) => {
                let card = schema.categorical(cat).cardinality;
                for code in 0..card {
                    stack.push(cq.clone().and_cat(qrs_types::CatPredicate::eq(cat, code)));
                }
            }
            None => {
                // Identical on every ordinal and categorical attribute:
                // indistinguishable through the interface.
                crawl.truncated = true;
            }
        }
    }

    // A root answered without overflow was registered by `ask`.
    if crawl.overflowed && !crawl.truncated {
        st.complete.register(q);
    }
    Ok(CrawlResult {
        tuples: st.history.matching(q),
        truncated: crawl.truncated,
    })
}

/// How to subdivide an overflowing query.
enum Split {
    /// `< v`, `= v`, `> v` on a range-searchable attribute.
    ThreeWay(AttrId, f64),
    /// One point query per domain value of a point-only attribute (§5).
    Enumerate(AttrId),
    /// One equality query per code of a categorical attribute (separates
    /// tuples identical on all ordinals but differing in categories).
    EnumerateCat(qrs_types::CatId),
}

/// Pick a split: prefer the range-searchable attribute whose returned values
/// are most spread (median split separates best); among single-valued
/// attributes, pick one not yet pinned to a point (pins it); fall back to
/// enumerating an unpinned point-only attribute.
fn choose_split(schema: &Schema, q: &Query, returned: &[Arc<Tuple>]) -> Option<Split> {
    let mut best: Option<(AttrId, f64, usize)> = None; // (attr, median, distinct)
    let mut pin_candidate: Option<(AttrId, f64)> = None;
    let mut enumerate_candidate: Option<AttrId> = None;
    for a in schema.attr_ids() {
        if schema.ordinal(a).point_only {
            if enumerate_candidate.is_none() && !is_pinned(q, a) {
                enumerate_candidate = Some(a);
            }
            continue;
        }
        let mut vals: Vec<f64> = returned.iter().map(|t| t.ord(a)).collect();
        vals.sort_by(|x, y| cmp_f64(*x, *y));
        vals.dedup_by(|x, y| cmp_f64(*x, *y).is_eq());
        if vals.len() >= 2 {
            let median = vals[vals.len() / 2];
            if best.is_none_or(|(_, _, d)| vals.len() > d) {
                best = Some((a, median, vals.len()));
            }
        } else if pin_candidate.is_none() && !vals.is_empty() && !is_pinned(q, a) {
            pin_candidate = Some((a, vals[0]));
        }
    }
    if let Some((a, v, _)) = best {
        return Some(Split::ThreeWay(a, v));
    }
    if let Some((a, v)) = pin_candidate {
        return Some(Split::ThreeWay(a, v));
    }
    if let Some(a) = enumerate_candidate {
        return Some(Split::Enumerate(a));
    }
    // All ordinals pinned: separate by categorical attributes (pick one not
    // already restricted to a single code).
    schema
        .cat_ids()
        .find(|&c| {
            q.cats()
                .iter()
                .find(|p| p.attr == c)
                .is_none_or(|p| p.codes().len() > 1)
        })
        .map(Split::EnumerateCat)
}

fn is_pinned(q: &Query, a: AttrId) -> bool {
    let iv = q.interval(a);
    matches!(
        (iv.lo, iv.hi),
        (qrs_types::Endpoint::Closed(x), qrs_types::Endpoint::Closed(y)) if x == y
    )
}

/// Crawl everything matching `q` and rank locally — the §1 baseline.
/// Returns the exact ranking (ties by id) unless `truncated`.
pub fn crawl_then_rank(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    q: &Query,
    score: impl Fn(&Tuple) -> f64,
) -> Result<CrawlResult, RerankError> {
    let mut r = crawl_region(server, st, q)?;
    r.tuples
        .sort_by(|a, b| cmp_f64(score(a), score(b)).then(a.id.cmp(&b.id)));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::{discrete_grid, uniform};
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::TupleId;

    fn setup(data: qrs_types::Dataset, k: usize) -> (SimServer, SharedState) {
        let st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
        let server = SimServer::new(data, SystemRank::pseudo_random(3), k);
        (server, st)
    }

    #[test]
    fn crawls_everything_continuous() {
        let data = uniform(300, 2, 1, 42);
        let n = data.len();
        let (server, mut st) = setup(data, 5);
        let r = crawl_region(&server, &mut st, &Query::all()).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.tuples.len(), n);
        // The crawled region is now complete: re-crawling is free.
        let before = server.queries_issued();
        let r2 = crawl_region(&server, &mut st, &Query::all()).unwrap();
        assert_eq!(server.queries_issued(), before);
        assert_eq!(r2.tuples.len(), n);
    }

    #[test]
    fn crawls_with_heavy_ties() {
        // 4-level grid in 2D: at most 16 distinct cells for 200 tuples.
        let data = discrete_grid(200, 2, 4, 7);
        let n = data.len();
        let (server, mut st) = setup(data, 10);
        let r = crawl_region(&server, &mut st, &Query::all()).unwrap();
        // Cells can hold more than k=10 exact duplicates → possibly
        // truncated, but never *silently* short.
        if !r.truncated {
            assert_eq!(r.tuples.len(), n);
        } else {
            assert!(r.tuples.len() < n);
        }
    }

    #[test]
    fn subregion_crawl_respects_filter() {
        let data = uniform(300, 2, 1, 9);
        let q = Query::all().and_range(AttrId(0), Interval::closed(0.2, 0.6));
        let expect = data.count_matching(&q);
        let (server, mut st) = setup(data, 5);
        let r = crawl_region(&server, &mut st, &q).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.tuples.len(), expect);
        assert!(r.tuples.iter().all(|t| q.matches(t)));
    }

    #[test]
    fn crawl_then_rank_matches_ground_truth() {
        let data = uniform(250, 2, 1, 10);
        let truth = data.rank_by(&Query::all(), |t| t.ord(AttrId(0)) + t.ord(AttrId(1)));
        let (server, mut st) = setup(data, 5);
        let r = crawl_then_rank(&server, &mut st, &Query::all(), |t| {
            t.ord(AttrId(0)) + t.ord(AttrId(1))
        })
        .unwrap();
        assert!(!r.truncated);
        let got: Vec<TupleId> = r.tuples.iter().map(|t| t.id).collect();
        let want: Vec<TupleId> = truth.iter().map(|t| t.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unsatisfiable_query_is_free() {
        let data = uniform(100, 2, 1, 11);
        let (server, mut st) = setup(data, 5);
        let q = Query::all().and_range(AttrId(0), Interval::open(0.5, 0.5));
        let r = crawl_region(&server, &mut st, &q).unwrap();
        assert!(r.tuples.is_empty());
        assert_eq!(server.queries_issued(), 0);
    }
}
