//! The pluggable execution API: every reranking algorithm is one object.
//!
//! Each exact-reranking algorithm in this crate is a Get-Next cursor — the
//! §3 [`OneDCursor`], the §4 [`MdCursor`], TA over sorted access
//! ([`TaCursor`], §4.1), the strict page-down fallback
//! ([`PageDownCursor`]) — and each cursor is itself a [`RerankStrategy`]:
//! a *pull state machine* that, asked for the next step, emits the
//! next-ranked tuple, reports paid progress, or declares the stream
//! exhausted, issuing typed queries against the restricted interface along
//! the way. The `qrs-service` session loop drives any of them, or a
//! user-registered custom strategy, through one `Box<dyn RerankStrategy>`
//! without matching on an algorithm enum: `qrs_service::Algorithm::strategy`
//! is the one place an algorithm choice becomes an object, and [`pull`] is
//! the one top-`h` loop outside a session.
//!
//! Strategies are **sans-session**: they never see the service's locks,
//! budgets or retry machinery. Each [`RerankStrategy::next_step`] call
//! receives a [`StrategyIo`] — the typed request surface (top-k, page
//! turn, `ORDER BY` page) plus the shared knowledge state — and must issue
//! at most a bounded burst of requests before returning, so the driver can
//! re-check budget gates and release locks between steps. Everything a
//! strategy pays for goes through the ledger the driver meters.
//!
//! Strategies also carry their own *cost estimator*
//! ([`RerankStrategy::estimate`]): given a [`PlanContext`] (site
//! capabilities including the advertised [`CostModel`], database size
//! estimate, pull horizon), predict the spend of running to the horizon.
//! The planner ranks feasible candidates by these estimates — prediction
//! and billing share the site's price list, so the comparison is in the
//! currency the ledger will actually charge.
//!
//! Two more questions are answered by the object itself, with defaults a
//! custom strategy may leave alone: which request class it issues
//! ([`RerankStrategy::request_kind`], the bucket its charges are filed
//! under) and whether it addresses tuples by rank position
//! ([`RerankStrategy::positional`], the hazard maintained sessions re-drive
//! around). The driver asks the object it is running.

use crate::baselines::PageDownCursor;
use crate::ctx::SharedState;
use crate::md::cursor::MdCursor;
use crate::md::ta::{SortedAccess, TaCursor};
use crate::one_d::cursor::{OneDCursor, TiePolicy};
use crate::one_d::primitives::OneDSpec;
use crate::one_d::OneDStrategy;
use qrs_server::{Capabilities, OrderedPage, SearchInterface};
use qrs_types::{
    AttrId, CostModel, Direction, Interval, Query, QueryResponse, RequestKind, RerankError, Schema,
    Tuple,
};
use std::sync::Arc;

/// The canonical strategy-name vocabulary: one table shared by the
/// strategy objects' [`RerankStrategy::name`] impls, the planner's
/// candidate names, and experiment row labels — rename here or nowhere.
pub mod names {
    /// The §3 1D cursor.
    pub const ONE_D: &str = "1d-rerank";
    /// The §4 MD box-partitioning cursor.
    pub const MD: &str = "md-rerank";
    /// TA paging the site's public `ORDER BY` (§5).
    pub const TA_ORDER_BY: &str = "ta-order-by";
    /// TA over per-attribute 1D-RERANK sorted access (§4.1).
    pub const TA_OVER_1D: &str = "ta-over-1d";
    /// The strict page-down drain.
    pub const PAGE_DOWN: &str = "page-down";
}

/// What one [`RerankStrategy::next_step`] call produced.
#[derive(Debug, Clone)]
pub enum StrategyStep {
    /// The next-ranked tuple surfaced (the driver may still filter it
    /// against a residual predicate before handing it to the user).
    Emit(Arc<Tuple>),
    /// Paid work happened (e.g. one page fetched) but no tuple is ready
    /// yet: the driver re-checks its budget gates and calls again.
    Progress,
    /// The stream is exhausted; further calls keep returning this.
    Exhausted,
}

/// Planner-time context for [`RerankStrategy::estimate`]: everything known
/// about the site and the request before any query is spent.
///
/// The context borrows all of it — the planner's site model, the caller's
/// selection and ranking attributes — so building one copies nothing. The
/// planner prices every candidate in one context over the user's selection;
/// a candidate that relaxes a predicate is priced in a copy that borrows
/// its own relaxed query instead. An estimate reads the context and keeps
/// nothing of it.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// The site model the server advertised (including its [`CostModel`]).
    pub caps: &'a Capabilities,
    /// Schema of the hidden database.
    pub schema: &'a Schema,
    /// The interface page size `k`.
    pub k: usize,
    /// Estimated database size `|D|`.
    pub n_estimate: usize,
    /// How many tuples the caller expects to pull (the `h` of top-`h`).
    pub horizon: usize,
    /// The selection as it will be sent to the server by the strategy
    /// being priced (inexpressible predicates already relaxed away by the
    /// planner).
    pub server_query: &'a Query,
    /// Attributes of the user ranking function, in rank order.
    pub rank_attrs: &'a [AttrId],
}

impl PlanContext<'_> {
    /// `max(1, ceil(h / k))`: result pages the horizon spans.
    pub fn horizon_pages(&self) -> u64 {
        (self.horizon.max(1) as u64).div_ceil(self.k.max(1) as u64)
    }

    /// `ceil(n / k)`: pages that provably drain the whole database.
    pub fn drain_pages(&self) -> u64 {
        (self.n_estimate.max(1) as u64).div_ceil(self.k.max(1) as u64)
    }
}

/// Predicted spend for driving a strategy to the plan horizon: request
/// count and its weighted price under the site's advertised [`CostModel`].
///
/// Estimates are heuristics, not guarantees — the planner only needs them
/// to *rank* candidates, and the `planner_cost` experiment in `qrs-bench`
/// checks the ranking against actually-charged ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Predicted charged requests.
    pub queries: u64,
    /// Predicted weighted cost units ([`CostModel::charge`] applied to the
    /// strategy's representative query shape, times the request count).
    pub cost_units: u64,
}

impl CostEstimate {
    /// An estimate of `queries` requests, each priced as `shape` through
    /// the `kind` entry point under `model`.
    pub fn priced(queries: u64, model: &CostModel, shape: &Query, kind: RequestKind) -> Self {
        CostEstimate {
            queries,
            cost_units: queries.saturating_mul(model.charge(shape, kind)),
        }
    }
}

impl std::fmt::Display for CostEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "≈{} units ({} queries)", self.cost_units, self.queries)
    }
}

/// The typed I/O surface a strategy drives: every request a restricted
/// site offers, plus the shared knowledge state. Handed to
/// [`RerankStrategy::next_step`] by the session driver — strategies never
/// own a server reference, so the driver stays in charge of locking,
/// budgets and ledger attribution.
///
/// The typed helpers record successful responses into the shared state
/// automatically, so a custom strategy's paid-for answers amortize future
/// sessions exactly like the built-in algorithms' do: [`StrategyIo::top_k`]
/// absorbs its answer as [`SharedState::absorb`] does (tuples into history,
/// and a non-overflowing query as a complete region), and
/// [`StrategyIo::page`] and `ORDER BY` pages record their tuples.
pub struct StrategyIo<'a> {
    server: &'a dyn SearchInterface,
    state: &'a mut SharedState,
}

impl<'a> StrategyIo<'a> {
    /// Bind the typed request surface to one server and its shared state.
    pub fn new(server: &'a dyn SearchInterface, state: &'a mut SharedState) -> Self {
        StrategyIo { server, state }
    }

    /// Issue a one-shot top-`k` query; the response is absorbed into the
    /// shared state: its tuples into history and, when it did not
    /// overflow, `q` as a complete region.
    pub fn top_k(&mut self, q: &Query) -> Result<QueryResponse, RerankError> {
        let resp = self.server.query(q)?;
        self.state.absorb(q, &resp);
        Ok(resp)
    }

    /// Fetch page `page` (0-based) of the system ranking for `q`; recorded
    /// into the shared history.
    pub fn page(&mut self, q: &Query, page: usize) -> Result<QueryResponse, RerankError> {
        let resp = self.server.query_page(q, page)?;
        self.state.history.record_response(&resp);
        Ok(resp)
    }

    /// Fetch page `page` of `R(q)` publicly ordered by `attr` in `dir`;
    /// tuples are recorded into the shared history.
    pub fn ordered(
        &mut self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, RerankError> {
        let p = self.server.query_ordered(q, attr, dir, page)?;
        for t in &p.tuples {
            self.state.history.record(t);
        }
        Ok(p)
    }

    /// The interface page size `k`.
    pub fn k(&self) -> usize {
        self.server.k()
    }

    /// The site model the server advertises.
    pub fn capabilities(&self) -> Capabilities {
        self.server.capabilities()
    }

    /// Schema of the hidden database.
    pub fn schema(&self) -> &Arc<Schema> {
        self.server.schema()
    }

    /// The raw server + shared-state pair. Escape hatch for strategies
    /// (like the built-in cursors) whose machinery predates the
    /// typed surface; prefer the typed helpers in new code — they keep the
    /// history recording invariant for you.
    pub fn raw(&mut self) -> (&'a dyn SearchInterface, &mut SharedState) {
        (self.server, self.state)
    }
}

impl std::fmt::Debug for StrategyIo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyIo")
            .field("k", &self.server.k())
            .field("history", &self.state.history.len())
            .finish()
    }
}

/// An exact reranking algorithm as a pluggable pull state machine.
///
/// The `qrs-service` session drives one `Box<dyn RerankStrategy>` per
/// session: [`RerankStrategy::next_step`] until [`StrategyStep::Exhausted`],
/// with budget gates re-checked and locks released between steps. Register
/// custom implementations via `SessionBuilder::strategy(..)`.
///
/// Contract:
/// * **Bounded steps** — each `next_step` call issues at most a small,
///   bounded burst of requests (ideally one) before returning
///   [`StrategyStep::Progress`]; long drains must be resumable.
/// * **Resume after `Err`** — state survives an error; retrying re-enters
///   where the failure struck, never re-paying answered queries.
/// * **Exactness is yours** — the driver re-applies residual predicates
///   but trusts the emission *order*; emit in nondecreasing user-rank
///   order or document otherwise.
///
/// ```
/// use qrs_core::strategy::{
///     CostEstimate, PlanContext, RerankStrategy, StrategyIo, StrategyStep,
/// };
/// use qrs_types::{Query, RequestKind, RerankError};
///
/// /// A toy strategy: report the size of the first page, then stop.
/// struct FirstPageProbe {
///     sel: Query,
///     fetched: std::collections::VecDeque<std::sync::Arc<qrs_types::Tuple>>,
///     done: bool,
/// }
///
/// impl RerankStrategy for FirstPageProbe {
///     fn name(&self) -> &str {
///         "first-page-probe"
///     }
///     fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
///         // One top-k request, priced under the site's model.
///         CostEstimate::priced(1, &ctx.caps.cost, &self.sel, RequestKind::TopK)
///     }
///     fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
///         if !self.done {
///             self.done = true;
///             self.fetched = io.top_k(&self.sel)?.tuples.into_iter().collect();
///             return Ok(StrategyStep::Progress);
///         }
///         Ok(match self.fetched.pop_front() {
///             Some(t) => StrategyStep::Emit(t),
///             None => StrategyStep::Exhausted,
///         })
///     }
/// }
/// ```
pub trait RerankStrategy: Send {
    /// Short stable name, used in plans, rationales and experiment rows.
    fn name(&self) -> &str;

    /// Predict the spend of driving this strategy to `ctx.horizon` tuples.
    /// Used by the planner to rank feasible candidates; heuristic, but
    /// priced under the site's advertised cost model.
    fn estimate(&self, ctx: &PlanContext) -> CostEstimate;

    /// Advance the state machine by one bounded step.
    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError>;

    /// The one request class this strategy issues against the site — the
    /// class its request events carry on the observability plane. `None`
    /// (the default) means a mix the session cannot attribute to one class.
    fn request_kind(&self) -> Option<RequestKind> {
        None
    }

    /// Whether this strategy addresses tuples by rank *position*
    /// (sorted-access depth, page number) rather than by value. Every
    /// mutation of the hidden database shifts positions, so a positional
    /// strategy's pre-mutation state can skip or duplicate tuples it never
    /// saw change; maintained sessions re-drive it instead of pulling from
    /// it across a data change. Default `false`: value-addressed.
    fn positional(&self) -> bool {
        false
    }
}

fn step_from(t: Option<Arc<Tuple>>) -> StrategyStep {
    match t {
        Some(t) => StrategyStep::Emit(t),
        None => StrategyStep::Exhausted,
    }
}

/// Pull the next `h` tuples out of `strategy` (fewer once it is exhausted)
/// against `server`, outside any session: no budgets, no retries, no
/// ledgers. The one top-`h` loop over every algorithm. An `Err` drops the
/// tuples this call pulled and leaves the strategy resumable.
pub fn pull(
    strategy: &mut dyn RerankStrategy,
    server: &dyn SearchInterface,
    st: &mut SharedState,
    h: usize,
) -> Result<Vec<Arc<Tuple>>, RerankError> {
    // Grown as tuples arrive: `h` may be a caller's "everything".
    let mut out = Vec::new();
    while out.len() < h {
        match strategy.next_step(&mut StrategyIo::new(server, st))? {
            StrategyStep::Emit(t) => out.push(t),
            StrategyStep::Progress => {}
            StrategyStep::Exhausted => break,
        }
    }
    Ok(out)
}

/// `ceil(log2(n))`, floored at 1 — the binary-search depth estimates lean
/// on.
fn log2_ceil(n: u64) -> u64 {
    (64 - n.max(2).saturating_sub(1).leading_zeros() as u64).max(1)
}

/// A non-degenerate predicate shape on `attr` for pricing: point for
/// point-only attributes (that is what the cursor will send), a true range
/// otherwise.
fn pricing_predicate(schema: &Schema, attr: AttrId) -> Interval {
    let a = schema.ordinal(attr);
    if a.point_only {
        Interval::point(a.min)
    } else {
        Interval::open(a.min, a.max)
    }
}

/// `queries` top-`k` requests shaped as `ctx.server_query` with the pricing
/// predicate of every attribute `probed` says yes to conjoined onto it, as
/// [`Query::add_range`] would conjoin it — priced over the borrowed
/// predicates, without building the shape.
fn priced_probes(ctx: &PlanContext, queries: u64, probed: impl Fn(AttrId) -> bool) -> CostEstimate {
    let sel = ctx.server_query;
    let conjoined = sel.ranges().iter().map(|p| {
        let probe = probed(p.attr).then(|| pricing_predicate(ctx.schema, p.attr));
        (
            p.attr,
            probe.map_or(p.interval, |probe| p.interval.intersect(&probe)),
        )
    });
    let added = (ctx.schema.attr_ids())
        .filter(|&a| probed(a) && sel.ranges().iter().all(|p| p.attr != a))
        .map(|a| (a, pricing_predicate(ctx.schema, a)));
    let units = (ctx.caps.cost).charge_predicates(
        conjoined.chain(added),
        sel.cats().len(),
        RequestKind::TopK,
    );
    CostEstimate {
        queries,
        cost_units: queries.saturating_mul(units),
    }
}

/// `queries` range-filtered top-`k` probes on the first ranking attribute:
/// what the 1D cursor sends, priced.
fn one_d_probes(ctx: &PlanContext, queries: u64) -> CostEstimate {
    let first = ctx.rank_attrs.first().copied();
    priced_probes(ctx, queries, |a| Some(a) == first)
}

impl OneDCursor {
    /// The 1D cursor's cost heuristic, usable at plan time without
    /// constructing the cursor: one binary-search descent (`log2 n`) plus
    /// roughly one query per emitted tuple — the shared history amortizes
    /// later descents — priced as a range-filtered top-`k` on
    /// the ranking attribute.
    pub fn estimate_in(ctx: &PlanContext) -> CostEstimate {
        let queries = ctx.horizon.max(1) as u64 + log2_ceil(ctx.n_estimate as u64);
        one_d_probes(ctx, queries)
    }
}

impl RerankStrategy for OneDCursor {
    fn name(&self) -> &str {
        names::ONE_D
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        Self::estimate_in(ctx)
    }

    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        let (server, st) = io.raw();
        self.next(server, st).map(step_from)
    }

    fn request_kind(&self) -> Option<RequestKind> {
        Some(RequestKind::TopK)
    }
}

/// [`OneDCursor`] built through the constructor `qrs_benchmark` calls, with
/// its tie argument. The argument is ignored ([`TiePolicy`] has one
/// variant); code in this workspace builds the cursor itself.
#[derive(Debug)]
pub struct OneDCursorStrategy(OneDCursor);

impl OneDCursorStrategy {
    /// A 1D cursor for `spec` driving `strategy`.
    pub fn new(spec: OneDSpec, strategy: OneDStrategy, _tie: TiePolicy) -> Self {
        OneDCursorStrategy(OneDCursor::new(spec, strategy))
    }
}

impl RerankStrategy for OneDCursorStrategy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        self.0.estimate(ctx)
    }

    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        self.0.next_step(io)
    }

    fn request_kind(&self) -> Option<RequestKind> {
        self.0.request_kind()
    }
}

/// The §4 MD cursor under the name `qrs_benchmark` builds it by.
pub type MdCursorStrategy = MdCursor;

impl MdCursor {
    /// The MD cursor's cost heuristic: the 1D shape scaled by the ranking
    /// arity (each dimension contributes binary partitioning work), priced
    /// as a top-`k` constrained on every ordinal attribute — the box
    /// queries the cursor actually sends.
    pub fn estimate_in(ctx: &PlanContext) -> CostEstimate {
        let h = ctx.horizon.max(1) as u64;
        let n = ctx.n_estimate.max(1) as u64;
        let m = ctx.rank_attrs.len().max(1) as u64;
        let queries = h + m * (1 + ctx.horizon_pages()) * log2_ceil(n);
        priced_probes(ctx, queries, |_| true)
    }
}

impl RerankStrategy for MdCursor {
    fn name(&self) -> &str {
        names::MD
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        Self::estimate_in(ctx)
    }

    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        let (server, st) = io.raw();
        self.next(server, st).map(step_from)
    }

    fn request_kind(&self) -> Option<RequestKind> {
        Some(RequestKind::TopK)
    }
}

/// TA over sorted access under the name `qrs_benchmark` builds it by.
pub type TaCursorStrategy = TaCursor;

impl TaCursor {
    /// TA's cost heuristic under `access`: the threshold stops once each of
    /// the `m` streams has drained `≈ (h · n^(m-1))^(1/m)` tuples (for
    /// `m = 1` the single ordered stream *is* the answer order: depth `h`;
    /// for `m = 2` the classic `sqrt(h·n)`). With public `ORDER BY` access
    /// that is `⌈depth/k⌉` ordered pages per stream, priced as `ORDER BY`
    /// pages of the server query; with 1D-RERANK sorted access each stream
    /// instead issues range-filtered top-`k` probes — roughly one per
    /// drained tuple plus one binary-search descent — priced in *that*
    /// request class, since the server never sees an `ORDER BY`.
    pub fn estimate_in(ctx: &PlanContext, access: SortedAccess) -> CostEstimate {
        let h = ctx.horizon.max(1) as u64;
        let n = ctx.n_estimate.max(1) as u64;
        let m = ctx.rank_attrs.len().max(1) as u64;
        let k = ctx.k.max(1) as u64;
        let depth = (((h as f64) * (n as f64).powi(m as i32 - 1))
            .powf(1.0 / m as f64)
            .ceil() as u64)
            .clamp(1, n);
        match access {
            SortedAccess::PublicOrderBy => {
                let pages = m * depth.div_ceil(k).clamp(1, ctx.drain_pages());
                let sel = ctx.server_query;
                CostEstimate::priced(pages, &ctx.caps.cost, sel, RequestKind::Ordered)
            }
            SortedAccess::OneD => one_d_probes(ctx, m * (depth + log2_ceil(n))),
        }
    }
}

impl RerankStrategy for TaCursor {
    fn name(&self) -> &str {
        match self.access {
            SortedAccess::PublicOrderBy => names::TA_ORDER_BY,
            SortedAccess::OneD => names::TA_OVER_1D,
        }
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        Self::estimate_in(ctx, self.access)
    }

    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        let (server, st) = io.raw();
        self.next(server, st).map(step_from)
    }

    /// `ORDER BY` pages under public sorted access; under 1D-RERANK sorted
    /// access the server only ever sees range-filtered top-`k` probes.
    fn request_kind(&self) -> Option<RequestKind> {
        Some(match self.access {
            SortedAccess::PublicOrderBy => RequestKind::Ordered,
            SortedAccess::OneD => RequestKind::TopK,
        })
    }

    /// Either way the streams are consumed by sorted-access depth.
    fn positional(&self) -> bool {
        true
    }
}

/// The strict page-down fallback under the name `qrs_benchmark` builds it
/// by.
pub type PageDownStrategy = PageDownCursor;

impl PageDownCursor {
    /// Page-down's cost is not a heuristic: draining `R(q)` takes exactly
    /// `ceil(n/k)` page turns (under the planner's `n_estimate`), priced
    /// as page requests of the server query. Emission afterwards is free.
    pub fn estimate_in(ctx: &PlanContext) -> CostEstimate {
        CostEstimate::priced(
            ctx.drain_pages(),
            &ctx.caps.cost,
            ctx.server_query,
            RequestKind::Page,
        )
    }
}

/// One page per step, so the driver's budget gates fire between pages;
/// once `R(q)` has drained, the locally reranked tuples one per step.
impl RerankStrategy for PageDownCursor {
    fn name(&self) -> &str {
        names::PAGE_DOWN
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        Self::estimate_in(ctx)
    }

    fn next_step(&mut self, io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        if self.drained() {
            return Ok(step_from(self.emit_next()));
        }
        let (server, st) = io.raw();
        self.fetch_next_page(server, st)
            .map(|_| StrategyStep::Progress)
    }

    fn request_kind(&self) -> Option<RequestKind> {
        Some(RequestKind::Page)
    }

    fn positional(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::uniform;
    use qrs_server::{SimServer, SystemRank};

    /// What a [`PlanContext`] borrows.
    struct Site {
        caps: Capabilities,
        schema: Arc<Schema>,
        sel: Query,
        rank_attrs: Vec<AttrId>,
        k: usize,
        n: usize,
        horizon: usize,
    }

    impl Site {
        fn ctx(&self) -> PlanContext<'_> {
            PlanContext {
                caps: &self.caps,
                schema: &self.schema,
                k: self.k,
                n_estimate: self.n,
                horizon: self.horizon,
                server_query: &self.sel,
                rank_attrs: &self.rank_attrs,
            }
        }
    }

    fn site(n: usize, k: usize, horizon: usize, dims: usize, cost: CostModel) -> Site {
        let data = uniform(16, 2, 1, 1);
        Site {
            caps: Capabilities::none().with_cost_model(cost),
            schema: Arc::clone(data.schema()),
            sel: Query::all(),
            rank_attrs: (0..dims).map(AttrId).collect(),
            k,
            n,
            horizon,
        }
    }

    #[test]
    fn page_down_estimate_is_the_exact_drain() {
        let c = site(100, 5, 8, 2, CostModel::flat());
        let e = PageDownCursor::estimate_in(&c.ctx());
        assert_eq!(e.queries, 20);
        assert_eq!(e.cost_units, 20);
        // A paged surcharge prices every turn.
        let c = site(100, 5, 8, 2, CostModel::flat().with_paged_cost(3));
        assert_eq!(PageDownCursor::estimate_in(&c.ctx()).cost_units, 80);
    }

    #[test]
    fn estimates_order_cursors_before_drains_on_deep_databases() {
        let c = site(10_000, 5, 5, 1, CostModel::flat());
        let one_d = OneDCursor::estimate_in(&c.ctx());
        let drain = PageDownCursor::estimate_in(&c.ctx());
        assert!(
            one_d.cost_units < drain.cost_units,
            "1d {one_d} vs drain {drain}"
        );
        let c = site(10_000, 5, 5, 2, CostModel::flat());
        let md = MdCursor::estimate_in(&c.ctx());
        assert!(md.cost_units < PageDownCursor::estimate_in(&c.ctx()).cost_units);
        // Estimates grow with the horizon.
        let deep = site(10_000, 5, 50, 2, CostModel::flat());
        assert!(MdCursor::estimate_in(&deep.ctx()).cost_units > md.cost_units);
    }

    #[test]
    fn cost_model_reprices_without_changing_query_counts() {
        let flat = site(1_000, 5, 5, 2, CostModel::flat());
        let metered = site(
            1_000,
            5,
            5,
            2,
            CostModel::flat().with_range_cost(1).with_ordered_cost(2),
        );
        let (f, m) = (
            MdCursor::estimate_in(&flat.ctx()),
            MdCursor::estimate_in(&metered.ctx()),
        );
        assert_eq!(f.queries, m.queries);
        // Two range predicates at +1 each: 3 units per query.
        assert_eq!(m.cost_units, 3 * m.queries);
        let access = SortedAccess::PublicOrderBy;
        let (f, m) = (
            TaCursor::estimate_in(&flat.ctx(), access),
            TaCursor::estimate_in(&metered.ctx(), access),
        );
        assert_eq!(f.queries, m.queries);
        assert_eq!(m.cost_units, 3 * f.cost_units);
    }

    /// Pricing over borrowed predicates charges what pricing the built
    /// shape charged: the server query with each probed attribute's pricing
    /// predicate conjoined by `add_range`.
    #[test]
    fn borrowed_pricing_charges_the_built_shape() {
        use qrs_types::{CatId, CatPredicate, OrdinalAttr};
        let schema = Arc::new(Schema::new(
            vec![
                OrdinalAttr::new("x", 0.0, 10.0),
                OrdinalAttr::point_only("grade", vec![1.0, 2.0, 3.0]),
                OrdinalAttr::new("z", -5.0, 5.0),
            ],
            vec![qrs_types::CatAttr::new("color", 4)],
        ));
        let model = CostModel::flat()
            .with_point_cost(2)
            .with_range_cost(3)
            .with_attr_surcharge(AttrId(1), 7)
            .with_attr_surcharge(AttrId(2), 11);
        let sels = [
            Query::all(),
            Query::all().and_range(AttrId(0), Interval::open(1.0, 9.0)),
            Query::all().and_range(AttrId(0), Interval::point(4.0)),
            Query::all().and_range(AttrId(0), Interval::closed(20.0, 30.0)),
            Query::all()
                .and_range(AttrId(2), Interval::at_most(0.0))
                .and_range(AttrId(1), Interval::point(2.0))
                .and_cat(CatPredicate::eq(CatId(0), 1)),
        ];
        for sel in &sels {
            for rank_attrs in [vec![AttrId(0)], vec![AttrId(2), AttrId(0)], vec![]] {
                let s = Site {
                    caps: Capabilities::none().with_cost_model(model.clone()),
                    schema: Arc::clone(&schema),
                    sel: sel.clone(),
                    rank_attrs,
                    k: 5,
                    n: 500,
                    horizon: 10,
                };
                let c = s.ctx();
                let built = |attrs: &[AttrId]| {
                    let mut shape = sel.clone();
                    for &a in attrs {
                        shape.add_range(a, pricing_predicate(&schema, a));
                    }
                    model.charge(&shape, RequestKind::TopK)
                };
                let first: Vec<AttrId> = s.rank_attrs.first().copied().into_iter().collect();
                let all: Vec<AttrId> = schema.attr_ids().collect();
                assert_eq!(one_d_probes(&c, 3).cost_units, 3 * built(&first), "{sel}");
                assert_eq!(
                    priced_probes(&c, 3, |_| true).cost_units,
                    3 * built(&all),
                    "{sel}"
                );
            }
        }
    }

    #[test]
    fn strategy_io_typed_helpers_record_history() {
        let n = 30;
        let data = uniform(n, 2, 1, 79);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(5), 5)
            .with_capabilities(Capabilities::none().with_paging());
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 5));
        let mut io = StrategyIo::new(&server, &mut st);
        assert_eq!(io.k(), 5);
        let resp = io.top_k(&Query::all()).unwrap();
        assert_eq!(resp.tuples.len(), 5);
        let resp = io.page(&Query::all(), 1).unwrap();
        assert_eq!(resp.tuples.len(), 5);
        assert!(io.capabilities().paging);
        let _ = io;
        assert_eq!(st.history.len(), 10);
        // An underflowing answer proves its region complete, as it does for
        // the built-in algorithms; an overflowing one proves nothing.
        let narrow = Query::all().and_range(AttrId(0), Interval::closed(0.0, 0.05));
        let resp = StrategyIo::new(&server, &mut st).top_k(&narrow).unwrap();
        assert!(resp.tuples.len() < 5, "{} tuples", resp.tuples.len());
        assert!(st.complete.covers(&narrow));
        assert!(!st.complete.covers(&Query::all()));
    }
}
