//! The capability-aware query planner.
//!
//! Real restricted sites differ in *which* algorithms can run at all: a 1D
//! or MD cursor needs range predicates on the attributes it binary-searches,
//! TA-over-`ORDER BY` needs the public sort plus enough page depth to drain
//! a stream, and the page-down fallback needs paging deep enough to provably
//! cover the relation. The [`Planner`] preflights a session's query shape
//! against the server's advertised [`Capabilities`] and either produces a
//! [`Plan`] — algorithm choice, the (possibly relaxed) query to send
//! server-side, and the residual predicate to re-apply client-side — or
//! fails fast with [`RerankError::Unplannable`] naming the missing
//! capabilities. A session that opens cleanly never hits a capability
//! refusal mid-stream, and every plan is **exact**: predicates the site
//! cannot evaluate are relaxed server-side and re-applied client-side,
//! which preserves rank order (filtering a ranked stream never reorders
//! it), and the page-down fallback is only chosen when the advertised page
//! depth provably drains the result.
//!
//! One precondition bounds the mid-stream guarantee: the drain proof for
//! the paging candidates is relative to the service's `n_estimate`. If the
//! estimate *under*states the real database (a real adapter can only
//! estimate `|D|`), a depth-capped site can still refuse a page mid-stream
//! — the failure stays **typed** (`UnsupportedCapability(PageDepth)` from
//! the strict cursor; never a silently truncated ranking), but pages
//! fetched up to the wall are paid for. Prefer a generous estimate on
//! depth-capped sites; overstating only makes the planner more
//! conservative.
//!
//! Among the *feasible* candidates — the §3/§4 cursor for the ranking
//! arity, TA over public `ORDER BY`, strict page-down — the planner does
//! not follow a fixed preference order: each candidate is cost-estimated
//! under the site's advertised [`qrs_types::CostModel`] (its own
//! [`qrs_core::RerankStrategy::estimate`] heuristic, priced by the same
//! model the server's ledger charges by) and the cheapest wins.
//! [`Plan::candidates`] reports the full ranking and [`Plan::rationale`]
//! explains it; equal-cost ties keep the paper's order (cursor, then TA,
//! then page-down). The `planner_cost` experiment in `qrs-bench` sweeps
//! this choice against actually-charged ledgers across the site-profile
//! catalog.

use crate::service::Algorithm;
use qrs_core::baselines::PageDownCursor;
use qrs_core::md::ta::SortedAccess;
use qrs_core::strategy::{CostEstimate, PlanContext};
use qrs_core::{MdCursor, MdOptions, OneDCursor, OneDStrategy, TaCursor};
use qrs_ranking::RankFn;
use qrs_server::Capabilities;
use qrs_types::{AttrId, Capability, Query, RangePredicate, RerankError, Schema};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// One *feasible* candidate algorithm, with its predicted spend under the
/// site's advertised cost model. Produced by [`Planner::plan`] in
/// cheapest-first order.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// Stable candidate name (`"1d-rerank"`, `"ta-order-by"`, …; a custom
    /// strategy's own name when one was registered). Borrowed for the
    /// built-in candidates, so ranking them allocates no name.
    pub name: Cow<'static, str>,
    /// The algorithm this candidate runs.
    pub algorithm: Algorithm,
    /// Predicted spend to the plan horizon, priced under the advertised
    /// [`qrs_types::CostModel`].
    pub estimate: CostEstimate,
    /// The selection this candidate would send server-side (its own
    /// relaxation of the user query).
    pub server_query: Query,
    /// Predicates this candidate's relaxation leaves for the client to
    /// re-apply. `None` when the site evaluates the full selection.
    pub residual: Option<Query>,
}

/// A planned session: which algorithm runs, what the server sees, and what
/// the session re-checks client-side.
///
/// Every plan is exact by construction — see the module docs. A plan keeps
/// what it was decided from (the ranked candidates, and what each
/// infeasible one lacked) and writes its prose only when asked:
/// [`Plan::rationale`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// The algorithm the planner selected — the cheapest feasible
    /// candidate by predicted cost (first entry of [`Plan::candidates`]).
    pub algorithm: Algorithm,
    /// The selection actually sent to the server: the user's query with
    /// every predicate the site cannot evaluate relaxed away.
    pub server_query: Query,
    /// Predicates relaxed out of [`Plan::server_query`], re-applied
    /// client-side by the session before emitting a tuple. `None` when the
    /// site evaluated the full selection.
    pub residual: Option<Query>,
    /// Predicted spend of the chosen candidate.
    pub estimate: CostEstimate,
    /// Every feasible candidate, ranked cheapest-first under the site's
    /// advertised cost model; `candidates[0]` is the chosen one. Explicit
    /// [`crate::SessionBuilder::algorithm`] overrides and custom
    /// strategies produce a single-entry list.
    pub candidates: Vec<RankedCandidate>,
    /// How the choice was made.
    decided: Decided,
}

/// How a [`Plan`]'s algorithm was chosen.
#[derive(Debug, Clone)]
enum Decided {
    /// Ranked by the planner. Each capability an infeasible candidate
    /// lacks, in candidate order.
    Ranked(Vec<(&'static str, Capability)>),
    /// An explicit algorithm choice bypassed the planner.
    Explicit,
    /// A registered custom strategy bypassed the planner.
    Custom,
}

impl Plan {
    /// A plan over its feasible candidates, ranked cheapest-first: the
    /// first one is chosen.
    fn cheapest_of(candidates: Vec<RankedCandidate>, decided: Decided) -> Plan {
        let chosen = &candidates[0];
        Plan {
            algorithm: chosen.algorithm,
            server_query: chosen.server_query.clone(),
            residual: chosen.residual.clone(),
            estimate: chosen.estimate,
            candidates,
            decided,
        }
    }

    /// The single-candidate plan of a session that bypasses the planner (an
    /// explicit algorithm choice or a registered custom strategy), written
    /// from the strategy object it will drive: its own `name`, its own
    /// `estimate`. The full selection goes server-side and nothing is
    /// relaxed.
    pub(crate) fn single(
        algorithm: Algorithm,
        name: &str,
        estimate: CostEstimate,
        server_query: Query,
    ) -> Plan {
        let only = RankedCandidate {
            name: Cow::Owned(name.to_string()),
            algorithm,
            estimate,
            server_query,
            residual: None,
        };
        let decided = match algorithm {
            Algorithm::Custom => Decided::Custom,
            _ => Decided::Explicit,
        };
        Plan::cheapest_of(vec![only], decided)
    }

    /// One verdict per considered candidate — the cost ranking of the
    /// feasible ones, and why each infeasible one was rejected — or why
    /// the planner was bypassed.
    pub fn rationale(&self) -> String {
        let chosen = &self.candidates[0];
        let rejected = match &self.decided {
            Decided::Ranked(rejected) => rejected,
            Decided::Explicit => {
                return "explicit algorithm choice: planner bypassed, the caller takes \
                        responsibility; hard requirements preflighted"
                    .to_string()
            }
            Decided::Custom => {
                return format!(
                    "user-registered strategy `{}`: planner bypassed, the caller \
                     takes responsibility for exactness",
                    chosen.name
                )
            }
        };
        let mut out = format!("{}: cheapest feasible at {}", chosen.name, chosen.estimate);
        if let Some(r) = &chosen.residual {
            let _ = write!(out, " (relaxed `{r}` server-side; re-applied client-side)");
        }
        if self.candidates.len() > 1 {
            out.push_str("; ranked");
            for f in &self.candidates {
                let _ = write!(out, " {} {},", f.name, f.estimate);
            }
            out.pop();
        }
        for (candidate, missing) in by_candidate(rejected) {
            let _ = write!(out, "; rejected {candidate}: ");
            push_caps(&mut out, missing);
        }
        out
    }
}

/// Preflights query shapes against a site's advertised [`Capabilities`].
///
/// Obtain one from [`crate::RerankService::planner`], or construct it
/// directly to plan against a hypothetical site model:
///
/// ```
/// use qrs_service::{Algorithm, Planner};
/// use qrs_server::Capabilities;
/// use qrs_ranking::LinearRank;
/// use qrs_types::{AttrId, FilterSupport, Query, RerankError, Schema, OrdinalAttr};
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::new(
///     vec![OrdinalAttr::new("price", 0.0, 100.0)],
///     vec![],
/// ));
/// let rank = LinearRank::asc(vec![(AttrId(0), 1.0)]);
///
/// // A site with a full price slider: the 1D cursor plans, and the plan
/// // carries its predicted spend under the site's advertised cost model.
/// let open = Planner::new(Capabilities::none(), Arc::clone(&schema), 10, 1_000);
/// let plan = open.plan(&Query::all(), &rank)?;
/// assert!(matches!(plan.algorithm, Algorithm::OneD(_)));
/// assert!(plan.estimate.cost_units > 0);
/// assert_eq!(plan.candidates[0].name, "1d-rerank");
///
/// // A dropdown-only site without paging: nothing fits, and the error
/// // names what is missing.
/// let dropdown = Planner::new(
///     Capabilities::none().with_filter(AttrId(0), FilterSupport::Point),
///     schema, 10, 1_000,
/// );
/// let err = dropdown.plan(&Query::all(), &rank).unwrap_err();
/// assert!(matches!(err, RerankError::Unplannable { .. }));
/// # Ok::<(), RerankError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    caps: Capabilities,
    schema: Arc<Schema>,
    k: usize,
    n_estimate: usize,
    /// Tuples the caller expects to pull — the horizon cost estimates are
    /// computed for. Defaults to `k` (one page of answers).
    horizon: usize,
}

impl Planner {
    /// A planner for a site advertising `caps`, page size `k`, over a
    /// database of (estimated) `n_estimate` tuples. The size estimate only
    /// gates the paging-based fallbacks — how many pages provably drain
    /// the relation — so it must be an *upper bound* on `|D|` for the
    /// no-mid-stream-refusal guarantee to hold on depth-capped sites (see
    /// the module docs; an underestimate degrades to a typed, never
    /// silent, mid-stream `PageDepth` refusal).
    pub fn new(caps: Capabilities, schema: Arc<Schema>, k: usize, n_estimate: usize) -> Self {
        Planner {
            caps,
            schema,
            k: k.max(1),
            n_estimate: n_estimate.max(1),
            horizon: k.max(1),
        }
    }

    /// Estimate costs for pulling `h` tuples instead of the default one
    /// page (`k`). The horizon only scales the per-candidate
    /// [`CostEstimate`]s — feasibility is horizon-independent — but it can
    /// flip the ranking: drains (page-down) cost the same for any `h`,
    /// cursors pay per tuple.
    pub fn with_horizon(mut self, h: usize) -> Self {
        self.horizon = h.max(1);
        self
    }

    /// The filter capability an algorithm needs to constrain `attr` outside
    /// an MD box: a point-only attribute (with its value list in the
    /// schema) is driven by point probes — the 1D cursor's value
    /// enumeration, tie sub-crawls — anything else by range binary search.
    fn filter_req(&self, attr: AttrId) -> Capability {
        if self.schema.ordinal(attr).point_only {
            Capability::PointFilter(attr)
        } else {
            Capability::RangeFilter(attr)
        }
    }

    /// Page depth that provably drains any result set on this site.
    fn depth_to_drain(&self) -> usize {
        self.n_estimate.div_ceil(self.k)
    }

    /// The [`PlanContext`] cost estimates run in, for the given (possibly
    /// relaxed) server-side query shape — the planner's own candidates and
    /// the objects of sessions that bypass it are priced in the same one.
    /// It borrows the planner's site model and the caller's request.
    pub(crate) fn plan_context<'a>(
        &'a self,
        server_query: &'a Query,
        rank_attrs: &'a [AttrId],
    ) -> PlanContext<'a> {
        PlanContext {
            caps: &self.caps,
            schema: &self.schema,
            k: self.k,
            n_estimate: self.n_estimate,
            horizon: self.horizon,
            server_query,
            rank_attrs,
        }
    }

    /// Plan a session for selection `sel` under ranking `rank`: every
    /// feasible candidate is cost-estimated under the
    /// site's advertised [`qrs_types::CostModel`] and the cheapest one is
    /// chosen ([`Plan::candidates`] carries the full ranking). Ties keep
    /// the paper's preference order (cursor, then TA, then page-down).
    ///
    /// # Errors
    /// [`RerankError::Unplannable`] when no candidate algorithm fits,
    /// carrying the deduplicated missing capabilities in candidate order.
    pub fn plan(&self, sel: &Query, rank: &dyn RankFn) -> Result<Plan, RerankError> {
        let mut feasible: Vec<RankedCandidate> = Vec::new();
        let mut rejected: Vec<(&'static str, Capability)> = Vec::new();
        self.price_each(
            sel,
            rank,
            |p| {
                let (server_query, residual) = p.shaped.unwrap_or_else(|| (sel.clone(), None));
                feasible.push(RankedCandidate {
                    name: Cow::Borrowed(name_of(p.algorithm)),
                    algorithm: p.algorithm,
                    estimate: p.estimate,
                    server_query,
                    residual,
                });
            },
            |candidate, cap| rejected.push((candidate, cap)),
        );

        if feasible.is_empty() {
            let mut reason = String::new();
            for (i, (candidate, missing)) in by_candidate(&rejected).enumerate() {
                if i > 0 {
                    reason.push_str("; ");
                }
                let _ = write!(reason, "{candidate} needs ");
                push_caps(&mut reason, missing);
            }
            let mut missing: Vec<Capability> = Vec::new();
            for &(_, c) in &rejected {
                if !missing.contains(&c) {
                    missing.push(c);
                }
            }
            return Err(RerankError::unplannable(missing, reason));
        }

        // Cheapest predicted cost wins; the sort is stable, so equal-cost
        // candidates keep the paper's preference order.
        feasible.sort_by_key(|f| f.estimate.cost_units);
        Ok(Plan::cheapest_of(feasible, Decided::Ranked(rejected)))
    }

    /// The choice [`Planner::plan`] makes, and nothing else: the cheapest
    /// feasible candidate — the first one priced lowest — without the
    /// ranking or the rejections, which only the plan's rationale prints.
    /// What `SessionBuilder::open` runs.
    ///
    /// # Errors
    /// [`Planner::plan`]'s, when no candidate fits.
    pub(crate) fn decide(&self, sel: &Query, rank: &dyn RankFn) -> Result<Priced, RerankError> {
        let mut best: Option<Priced> = None;
        self.price_each(
            sel,
            rank,
            |p| {
                if best
                    .as_ref()
                    .is_none_or(|b| p.estimate.cost_units < b.estimate.cost_units)
                {
                    best = Some(p);
                }
            },
            |_, _| {},
        );
        // With nothing feasible, the full plan says what each candidate lacks.
        best.ok_or_else(|| self.plan(sel, rank).expect_err("no candidate is feasible"))
    }

    /// The one pricing loop behind [`Planner::plan`] and
    /// [`Planner::decide`]. Walks the candidates in the paper's order and
    /// hands each feasible one, priced, to `feasible`, and each capability
    /// an infeasible one lacks to `rejected`. Every candidate is priced in
    /// one [`PlanContext`] over the selection; a candidate that relaxes it
    /// is priced over its own relaxed query instead.
    fn price_each(
        &self,
        sel: &Query,
        rank: &dyn RankFn,
        mut feasible: impl FnMut(Priced),
        mut rejected: impl FnMut(&'static str, Capability),
    ) {
        let ctx = self.plan_context(sel, rank.attrs());
        for candidate in self.candidates(rank) {
            let name = name_of(candidate.algorithm);
            let mut lacking = false;
            self.lacks(&candidate, rank.attrs(), |cap| {
                lacking = true;
                rejected(name, cap);
            });
            if lacking {
                continue;
            }
            match self.relax(&candidate, sel) {
                Err(arity) => rejected(name, arity),
                Ok(shaped) => {
                    let server_query = shaped.as_ref().map_or(sel, |(q, _)| q);
                    let estimate = (candidate.estimate)(&PlanContext {
                        server_query,
                        ..ctx
                    });
                    feasible(Priced {
                        algorithm: candidate.algorithm,
                        estimate,
                        shaped,
                    });
                }
            }
        }
    }

    /// The candidate algorithms for this ranking arity, most query-efficient
    /// first.
    fn candidates(&self, rank: &dyn RankFn) -> [Candidate; 3] {
        // The §3/§4 cursor. A value slab may be sub-crawled over the other
        // attributes, so the 1D cursor conservatively needs filters on all
        // of them. The MD cursor box-partitions the ranking space — ranges
        // on every ranking attribute, point-only or not — and, for exact
        // duplicate handling, may sub-crawl cells over the remaining
        // attributes: conservatively all of them.
        let cursor = if rank.dims() == 1 {
            Candidate {
                algorithm: Algorithm::OneD(OneDStrategy::Rerank),
                estimate: OneDCursor::estimate_in,
                constrains: true,
                ranges_on_ranked: false,
                order_by: false,
                paging: false,
                drains: false,
            }
        } else {
            Candidate {
                algorithm: Algorithm::Md(MdOptions::rerank()),
                estimate: MdCursor::estimate_in,
                constrains: true,
                ranges_on_ranked: true,
                order_by: false,
                paging: false,
                drains: false,
            }
        };
        // TA pages via public ORDER BY, which the depth cap also governs
        // (the `paging` flag itself does not: ORDER BY paging is a separate
        // site feature).
        let ta = Candidate {
            algorithm: Algorithm::Ta(SortedAccess::PublicOrderBy),
            estimate: TaCursor::estimate_in,
            constrains: false,
            ranges_on_ranked: false,
            order_by: true,
            paging: false,
            drains: true,
        };
        let page_down = Candidate {
            algorithm: Algorithm::PageDown {
                max_pages: self.caps.max_pages.unwrap_or(usize::MAX),
            },
            estimate: PageDownCursor::estimate_in,
            constrains: false,
            ranges_on_ranked: false,
            order_by: false,
            paging: true,
            drains: true,
        };
        [cursor, ta, page_down]
    }

    /// Hand each capability candidate `c` leans on that the site lacks to
    /// `lack`, in a fixed order: paging, `ORDER BY`, then filters by
    /// attribute.
    fn lacks(&self, c: &Candidate, rank_attrs: &[AttrId], mut lack: impl FnMut(Capability)) {
        // Paging-driven candidates (TA streams, page-down) must be able to
        // drain a worst-case result within the advertised page depth —
        // otherwise they would fail (typed, but mid-stream) or go inexact.
        let depth = self.depth_to_drain();
        if c.paging && !self.caps.paging {
            lack(Capability::Paging);
        } else if c.drains && self.caps.admit_depth(depth).is_err() {
            lack(Capability::PageDepth(depth));
        }
        if c.order_by {
            for &a in rank_attrs {
                if !self.caps.supports(Capability::OrderBy(a)) {
                    lack(Capability::OrderBy(a));
                }
            }
        }
        // Filters on every attribute the cursor itself constrains.
        if c.constrains {
            for a in self.schema.attr_ids() {
                let req = if c.ranges_on_ranked && rank_attrs.contains(&a) {
                    Capability::RangeFilter(a)
                } else {
                    self.filter_req(a)
                };
                if !self.caps.supports(req) {
                    lack(req);
                }
            }
        }
    }

    /// Shape the selection a supported candidate runs with: `None` when the
    /// site takes `sel` as it is, else the server-side query and the
    /// residual the client re-applies (if any predicate was relaxed), or
    /// the arity the candidate cannot get under the site's cap.
    #[allow(clippy::type_complexity)]
    fn relax(
        &self,
        c: &Candidate,
        sel: &Query,
    ) -> Result<Option<(Query, Option<Query>)>, Capability> {
        // The cursor constrains every ordinal attribute or none.
        let constrained = |a: AttrId| c.constrains && a.0 < self.schema.num_ordinal();
        let intrinsic = if c.constrains {
            self.schema.num_ordinal()
        } else {
            0
        };
        // Conjunct arity: the cursor's own predicates plus whatever of the
        // selection survived (a query holds one predicate per attribute).
        let arity = |q: &Query| {
            let extra = q.ranges().iter().filter(|p| !constrained(p.attr)).count();
            intrinsic + extra + q.cats().len()
        };
        let cap = self.caps.max_predicates;
        if cap.is_some_and(|cap| intrinsic > cap) {
            return Err(Capability::PredicateArity(intrinsic));
        }
        let evaluable = |p: &RangePredicate| {
            !p.interval.is_all() && self.caps.filter_support(p.attr).admits(&p.interval)
        };
        if sel.ranges().iter().all(evaluable) && cap.is_none_or(|cap| arity(sel) <= cap) {
            return Ok(None);
        }

        // Relax predicates the site cannot evaluate (wrong filter level) or
        // will not accept (arity cap), re-applied client-side.
        let mut server_query = Query::all();
        let mut residual = Query::all();
        let mut relaxed = false;
        for p in sel.ranges() {
            if p.interval.is_all() {
                continue;
            }
            if self.caps.filter_support(p.attr).admits(&p.interval) {
                server_query.add_range(p.attr, p.interval);
            } else {
                residual.add_range(p.attr, p.interval);
                relaxed = true;
            }
        }
        for p in sel.cats() {
            server_query.add_cat(p.clone());
        }

        // Relax optional selection predicates (those not on
        // cursor-constrained attributes) until the worst-case query fits.
        if let Some(cap) = cap {
            while arity(&server_query) > cap {
                // Prefer relaxing a range predicate on an attribute the
                // cursor does not need, then categorical predicates.
                let victim = server_query
                    .ranges()
                    .iter()
                    .find(|p| !constrained(p.attr))
                    .map(|p| (p.attr, p.interval));
                if let Some((attr, iv)) = victim {
                    residual.add_range(attr, iv);
                    relaxed = true;
                    server_query = strip_range(&server_query, attr);
                } else if let Some(p) = server_query.cats().last().cloned() {
                    residual.add_cat(p.clone());
                    relaxed = true;
                    server_query = strip_cat(&server_query, p.attr);
                } else {
                    // Nothing left to relax: the cursor's own predicates
                    // plus mandatory selection predicates exceed the cap.
                    return Err(Capability::PredicateArity(arity(&server_query)));
                }
            }
        }

        Ok(Some((server_query, relaxed.then_some(residual))))
    }
}

/// A planner candidate's name: its algorithm's, which is built in.
fn name_of(algorithm: Algorithm) -> &'static str {
    algorithm.name().expect("a planner candidate is built in")
}

/// One feasible candidate, priced: all [`SessionBuilder::open`] keeps of
/// the planner's decision.
///
/// [`SessionBuilder::open`]: crate::SessionBuilder::open
pub(crate) struct Priced {
    /// The algorithm it runs.
    pub(crate) algorithm: Algorithm,
    /// Its predicted spend.
    pub(crate) estimate: CostEstimate,
    /// The server-side query and the residual the client re-applies, where
    /// the candidate reshaped the selection; `None` where the site takes it
    /// as it is.
    pub(crate) shaped: Option<(Query, Option<Query>)>,
}

/// One candidate algorithm and the capabilities it leans on.
struct Candidate {
    /// A built-in algorithm, named by [`Algorithm::name`].
    algorithm: Algorithm,
    /// The family's plan-time cost heuristic — the one
    /// [`qrs_core::RerankStrategy::estimate`] answers with on the
    /// constructed object.
    estimate: fn(&PlanContext) -> CostEstimate,
    /// The cursor puts predicates on every ordinal attribute, each needing
    /// its own filter level ([`Planner::filter_req`]) …
    constrains: bool,
    /// … except the ranking attributes, which need ranges.
    ranges_on_ranked: bool,
    /// Every ranking attribute must be publicly `ORDER BY`-able.
    order_by: bool,
    /// Turns pages of the *system* ranking, so the site must page at all.
    paging: bool,
    /// Pages to the end of a worst-case result, so the advertised page
    /// depth must cover [`Planner::depth_to_drain`].
    drains: bool,
}

/// The capabilities each rejected candidate lacks, one group per
/// candidate, in candidate order.
fn by_candidate<'a>(
    rejected: &'a [(&'static str, Capability)],
) -> impl Iterator<Item = (&'static str, &'a [(&'static str, Capability)])> {
    rejected.chunk_by(|a, b| a.0 == b.0).map(|g| (g[0].0, g))
}

/// Rebuild `q` without its range predicate on `attr`.
fn strip_range(q: &Query, attr: AttrId) -> Query {
    let mut out = Query::all();
    for p in q.ranges() {
        if p.attr != attr {
            out.add_range(p.attr, p.interval);
        }
    }
    for p in q.cats() {
        out.add_cat(p.clone());
    }
    out
}

/// Rebuild `q` without its categorical predicate on `attr`.
fn strip_cat(q: &Query, attr: qrs_types::CatId) -> Query {
    let mut out = Query::all();
    for p in q.ranges() {
        out.add_range(p.attr, p.interval);
    }
    for p in q.cats() {
        if p.attr != attr {
            out.add_cat(p.clone());
        }
    }
    out
}

/// Append a human-readable capability list.
fn push_caps(buf: &mut String, caps: &[(&'static str, Capability)]) {
    for (i, (_, cap)) in caps.iter().enumerate() {
        if i > 0 {
            buf.push_str(", ");
        }
        let _ = write!(buf, "{cap}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_ranking::LinearRank;
    use qrs_types::{CatPredicate, FilterSupport, Interval, OrdinalAttr};

    fn schema2() -> Arc<Schema> {
        Arc::new(Schema::new(
            vec![
                OrdinalAttr::new("x", 0.0, 10.0),
                OrdinalAttr::new("y", 0.0, 10.0),
            ],
            vec![
                qrs_types::CatAttr::new("color", 4),
                qrs_types::CatAttr::new("brand", 4),
            ],
        ))
    }

    fn rank1() -> LinearRank {
        LinearRank::asc(vec![(AttrId(0), 1.0)])
    }

    fn rank2() -> LinearRank {
        LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])
    }

    #[test]
    fn open_site_plans_the_paper_cursors() {
        let p = Planner::new(Capabilities::none(), schema2(), 5, 1_000);
        let plan = p.plan(&Query::all(), &rank1()).unwrap();
        assert!(matches!(plan.algorithm, Algorithm::OneD(_)));
        assert!(plan.residual.is_none());
        let plan = p.plan(&Query::all(), &rank2()).unwrap();
        assert!(matches!(plan.algorithm, Algorithm::Md(_)));
    }

    #[test]
    fn point_only_site_falls_back_to_page_down_when_paging_drains() {
        let caps = Capabilities::none()
            .with_paging()
            .with_filter(AttrId(0), FilterSupport::Point)
            .with_filter(AttrId(1), FilterSupport::Point);
        let p = Planner::new(caps, schema2(), 5, 100);
        let plan = p.plan(&Query::all(), &rank2()).unwrap();
        assert!(matches!(
            plan.algorithm,
            Algorithm::PageDown {
                max_pages: usize::MAX
            }
        ));
        assert!(plan.rationale().contains("rejected md-rerank"));
    }

    /// A dropdown ranking attribute: 1D enumerates its values with point
    /// predicates, but the MD box partition sends ranges on it, which the
    /// site refuses — so MD must not plan, and the site's paging takes over.
    #[test]
    fn md_over_a_point_only_ranking_attribute_needs_range_filters() {
        let grades = (0..10).map(f64::from).collect();
        let schema = Arc::new(Schema::new(
            vec![
                OrdinalAttr::point_only("grade", grades),
                OrdinalAttr::new("y", 0.0, 10.0),
            ],
            vec![],
        ));
        let caps = Capabilities::none().with_filter(AttrId(0), FilterSupport::Point);
        let planner = |caps| Planner::new(caps, Arc::clone(&schema), 5, 100);
        let err = planner(caps.clone())
            .plan(&Query::all(), &rank2())
            .unwrap_err();
        match err {
            RerankError::Unplannable { missing, reason } => {
                assert_eq!(missing[0], Capability::RangeFilter(AttrId(0)));
                assert!(reason.contains("md-rerank needs range predicates on attribute A1"));
            }
            other => panic!("expected Unplannable, got {other}"),
        }
        let plan = planner(caps.clone().with_paging())
            .plan(&Query::all(), &rank2())
            .unwrap();
        assert!(matches!(plan.algorithm, Algorithm::PageDown { .. }));
        assert!(plan.rationale().contains("rejected md-rerank"));
        let plan = planner(caps).plan(&Query::all(), &rank1()).unwrap();
        assert!(matches!(plan.algorithm, Algorithm::OneD(_)));
    }

    #[test]
    fn unplannable_names_every_missing_capability() {
        // Point filters, no paging, no order-by: nothing can run.
        let caps = Capabilities::none()
            .with_filter(AttrId(0), FilterSupport::Point)
            .with_filter(AttrId(1), FilterSupport::Point);
        let p = Planner::new(caps, schema2(), 5, 100);
        let err = p.plan(&Query::all(), &rank2()).unwrap_err();
        match err {
            RerankError::Unplannable { missing, reason } => {
                assert!(missing.contains(&Capability::RangeFilter(AttrId(0))));
                assert!(missing.contains(&Capability::OrderBy(AttrId(0))));
                assert!(missing.contains(&Capability::Paging));
                assert!(reason.contains("md-rerank"));
                assert!(reason.contains("page-down"));
            }
            other => panic!("expected Unplannable, got {other}"),
        }
    }

    #[test]
    fn page_depth_cap_gates_the_paging_fallbacks() {
        // 20-page cap at k = 5 covers 100 tuples — not 10 000.
        let caps = Capabilities::none()
            .with_paging()
            .with_max_pages(20)
            .with_filter(AttrId(0), FilterSupport::None)
            .with_filter(AttrId(1), FilterSupport::None);
        let deep = Planner::new(caps.clone(), schema2(), 5, 10_000);
        let err = deep.plan(&Query::all(), &rank2()).unwrap_err();
        assert!(matches!(err, RerankError::Unplannable { ref missing, .. }
            if missing.contains(&Capability::PageDepth(2_000))));
        // A shallow database fits inside the cap.
        let shallow = Planner::new(caps, schema2(), 5, 100);
        let plan = shallow.plan(&Query::all(), &rank2()).unwrap();
        assert!(matches!(
            plan.algorithm,
            Algorithm::PageDown { max_pages: 20 }
        ));
    }

    #[test]
    fn order_by_site_plans_ta_with_residual_filters() {
        let caps = Capabilities::none()
            .with_paging()
            .with_order_by(vec![AttrId(0), AttrId(1)])
            .with_filter(AttrId(0), FilterSupport::None)
            .with_filter(AttrId(1), FilterSupport::None);
        let p = Planner::new(caps, schema2(), 5, 100);
        let sel = Query::all().and_range(AttrId(0), Interval::open(1.0, 9.0));
        let plan = p.plan(&sel, &rank2()).unwrap();
        assert!(matches!(
            plan.algorithm,
            Algorithm::Ta(SortedAccess::PublicOrderBy)
        ));
        // The inexpressible range went client-side.
        assert!(plan.server_query.ranges().is_empty());
        let residual = plan.residual.expect("range must be relaxed");
        assert_eq!(residual.ranges().len(), 1);
    }

    #[test]
    fn arity_cap_relaxes_optional_predicates_in_order() {
        // Flight-style: 3 predicates max, range filters everywhere.
        let caps = Capabilities::none().with_max_predicates(3);
        let p = Planner::new(caps, schema2(), 5, 1_000);
        // MD constrains both ordinal attributes (2); sel adds a cat (3) and
        // nothing must be relaxed.
        let sel = Query::all().and_cat(CatPredicate::eq(qrs_types::CatId(0), 1));
        let plan = p.plan(&sel, &rank2()).unwrap();
        assert!(plan.residual.is_none());
        assert_eq!(plan.server_query.cats().len(), 1);
        // A predicate on a second cat attribute exceeds the cap: it goes
        // residual (the range on a cursor-constrained attribute stays).
        let sel = sel
            .and_range(AttrId(0), Interval::open(0.0, 9.0))
            .and_cat(CatPredicate::one_of(qrs_types::CatId(1), vec![1, 2]));
        let plan = p.plan(&sel, &rank2()).unwrap();
        let residual = plan.residual.expect("cat must be relaxed");
        assert_eq!(residual.cats().len(), 1);
        assert_eq!(plan.server_query.cats().len(), 1);
        assert_eq!(plan.server_query.ranges().len(), 1);
    }

    #[test]
    fn arity_cap_below_cursor_needs_is_unplannable_for_cursors() {
        // 1 predicate max: MD (needs 2 attrs) cannot run; with paging the
        // page-down fallback takes over.
        let caps = Capabilities::none().with_max_predicates(1).with_paging();
        let p = Planner::new(caps, schema2(), 5, 100);
        let plan = p.plan(&Query::all(), &rank2()).unwrap();
        assert!(matches!(plan.algorithm, Algorithm::PageDown { .. }));
        assert!(plan.rationale().contains("rejected md-rerank"));
    }
}
