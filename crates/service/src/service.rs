//! The reranking service facade and its capability-preflighted session
//! builder.
//!
//! [`RerankService::session`] returns a [`SessionBuilder`]; nothing talks to
//! the hidden database until [`SessionBuilder::open`], which validates the
//! algorithm/ranking pairing and negotiates required server capabilities
//! *up front* — misconfiguration surfaces as a typed
//! [`RerankError`] at open time, never as a panic deep inside an algorithm.

use crate::budget::QueryBudget;
use crate::maintained::MaintainedSession;
use crate::planner::{Plan, Planner};
use crate::retry::RetryRunner;
use crate::session::{Driver, Session, SessionKnowledge};
use crate::stats::ServiceStats;
use parking_lot::Mutex;
use qrs_core::baselines::PageDownCursor;
use qrs_core::md::ta::SortedAccess;
use qrs_core::strategy::{names, CostEstimate, RerankStrategy};
use qrs_core::{
    MdCursor, MdOptions, OneDCursor, OneDSpec, OneDStrategy, RerankParams, SharedState, TaCursor,
};
use qrs_knowledge::{KnowledgePlane, SourceShard};
use qrs_obs::{EventKind, MonitorReport, ObsHandle};
use qrs_ranking::RankFn;
use qrs_server::{Clock, SearchInterface, SystemClock};
use qrs_types::{Capability, Query, RequestKind, RerankError, RetryPolicy, ServerError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A service's hookup to the cross-session knowledge plane: the shared
/// plane and this service's source shard, resolved once.
struct KnowledgeHandle {
    plane: Arc<KnowledgePlane>,
    shard: Arc<SourceShard>,
}

/// Which reranking algorithm a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Choose automatically: 1D-RERANK for single-attribute ranking
    /// functions, MD-RERANK otherwise.
    Auto,
    /// A §3 algorithm (ranking function must be single-attribute).
    OneD(OneDStrategy),
    /// A §4 box-partitioning algorithm (baseline/rerank via options).
    Md(MdOptions),
    /// TA over per-attribute sorted access (§4.1 / §5). With
    /// [`SortedAccess::PublicOrderBy`] the server must advertise `ORDER BY`
    /// on every ranking attribute (checked at [`SessionBuilder::open`]).
    Ta(SortedAccess),
    /// Strict page-down: page the system ranking to the end of `R(q)` and
    /// rerank locally. The exact fallback for sites whose filters are too
    /// weak for the cursor algorithms; requires [`Capability::Paging`] and
    /// errors (typed) instead of going approximate if `max_pages` runs out
    /// before the result drains. The planner only selects it when the
    /// advertised depth provably suffices.
    PageDown {
        /// Deepest page the cursor may request (`usize::MAX` = unlimited).
        max_pages: usize,
    },
    /// A user-registered [`RerankStrategy`] object, supplied via
    /// [`SessionBuilder::strategy`]. The planner is bypassed (the strategy
    /// object itself is the plan); budgets, retries and ledger attribution
    /// apply exactly as for the built-in algorithms.
    Custom,
}

impl Algorithm {
    /// The strategy object running this algorithm over `sel` (the possibly
    /// relaxed server-side query) ranked by `rank` on `server` — the one
    /// place an [`Algorithm`] value becomes an object. Its name, request
    /// class and positional flag are known before it is built
    /// ([`Algorithm::name`], [`Algorithm::request_kind`],
    /// [`Algorithm::positional`]); its estimate is asked of the object.
    /// `None` for [`Algorithm::Auto`], which the planner resolves first,
    /// and [`Algorithm::Custom`], whose object the caller supplies.
    pub fn strategy(
        self,
        rank: Arc<dyn RankFn>,
        sel: Query,
        server: &dyn SearchInterface,
    ) -> Option<Box<dyn RerankStrategy>> {
        Some(match self {
            Algorithm::OneD(strategy) => Box::new(OneDCursor::new(
                OneDSpec::new(rank.attrs()[0], rank.directions()[0], sel),
                strategy,
            )),
            Algorithm::Md(opts) => Box::new(MdCursor::new(rank, sel, opts, server.schema())),
            Algorithm::Ta(access) => Box::new(TaCursor::new(
                rank,
                sel,
                access,
                server.schema(),
                &server.capabilities(),
            )),
            Algorithm::PageDown { max_pages } => {
                Box::new(PageDownCursor::new(sel, rank, max_pages))
            }
            Algorithm::Auto | Algorithm::Custom => return None,
        })
    }

    /// The [`RerankStrategy::name`] of the object
    /// [`Algorithm::strategy`] builds, known without building it. `None`
    /// for [`Algorithm::Auto`] and [`Algorithm::Custom`], which build none.
    pub fn name(self) -> Option<&'static str> {
        Some(match self {
            Algorithm::OneD(_) => names::ONE_D,
            Algorithm::Md(_) => names::MD,
            Algorithm::Ta(SortedAccess::PublicOrderBy) => names::TA_ORDER_BY,
            Algorithm::Ta(SortedAccess::OneD) => names::TA_OVER_1D,
            Algorithm::PageDown { .. } => names::PAGE_DOWN,
            Algorithm::Auto | Algorithm::Custom => return None,
        })
    }

    /// The [`RerankStrategy::request_kind`] of the object
    /// [`Algorithm::strategy`] builds: `ORDER BY` pages for TA over public
    /// `ORDER BY`, page turns for page-down, top-`k` queries otherwise.
    /// `None` for [`Algorithm::Auto`] and [`Algorithm::Custom`].
    pub fn request_kind(self) -> Option<RequestKind> {
        Some(match self {
            Algorithm::OneD(_) | Algorithm::Md(_) | Algorithm::Ta(SortedAccess::OneD) => {
                RequestKind::TopK
            }
            Algorithm::Ta(SortedAccess::PublicOrderBy) => RequestKind::Ordered,
            Algorithm::PageDown { .. } => RequestKind::Page,
            Algorithm::Auto | Algorithm::Custom => return None,
        })
    }

    /// The [`RerankStrategy::positional`] flag of the object
    /// [`Algorithm::strategy`] builds: TA reads its streams by depth and
    /// page-down by page number. `false` for [`Algorithm::Auto`] and
    /// [`Algorithm::Custom`].
    pub fn positional(self) -> bool {
        matches!(self, Algorithm::Ta(_) | Algorithm::PageDown { .. })
    }
}

/// A third-party reranking service fronting one client-server database.
///
/// The shared state (history, complete regions) lives behind
/// a mutex and is reused by every session — concurrent sessions interleave
/// at Get-Next granularity.
pub struct RerankService {
    server: Arc<dyn SearchInterface>,
    /// The parameters every (re)built [`SharedState`] gets.
    /// Fixed at construction and kept outside the mutex, so planning reads
    /// the size estimate without queueing behind a session's site calls.
    params: RerankParams,
    state: Mutex<SharedState>,
    stats: ServiceStats,
    budget: QueryBudget,
    /// The retry policy every session of this service runs.
    retry_policy: RetryPolicy,
    /// Time source for backoff sleeps (a mock clock in tests).
    clock: Arc<dyn Clock>,
    /// Cross-session knowledge hookup, when built `with_knowledge`.
    kplane: Option<KnowledgeHandle>,
    /// The observability plane (disabled by default: one branch per
    /// emission site, nothing constructed).
    obs: ObsHandle,
    /// The feed sequence number the shared state is exact as of: the
    /// next open patches it with the deltas after this one
    /// ([`RerankService::sync_state`]). Written under the state lock.
    state_seq: AtomicU64,
    /// The knowledge shard's manual invalidations the shared state was
    /// built after ([`SourceShard::invalidations`]); 0 without a plane.
    /// Written under the state lock.
    state_invalidations: AtomicU64,
}

impl RerankService {
    /// Service sized by `n_estimate` (a third party estimates the database
    /// size out of band).
    pub fn new(server: Arc<dyn SearchInterface>, n_estimate: usize) -> Self {
        let params = RerankParams::paper_defaults(n_estimate, server.k());
        let state = SharedState::new(server.schema(), params);
        let state_seq = AtomicU64::new(server.mutation_seq());
        RerankService {
            server,
            params,
            state: Mutex::new(state),
            stats: ServiceStats::default(),
            budget: QueryBudget::unlimited(),
            retry_policy: RetryPolicy::none(),
            clock: Arc::new(SystemClock::new()),
            kplane: None,
            obs: ObsHandle::disabled(),
            state_seq,
            state_invalidations: AtomicU64::new(0),
        }
    }

    /// Bring the shared state up to date with the site before a session
    /// trusts it: history and completeness proofs that describe an older
    /// snapshot would make an algorithm emit a vanished tuple after a
    /// delete. This is the one place the mutation feed is read, once per
    /// [`SessionBuilder::open`]. With a plane attached the sequence number
    /// goes to the shard first, so a feed advance drops its sealed streams.
    ///
    /// When the sequence number has moved past the one the state is exact
    /// as of, the deltas since are read once, under the state lock, and
    /// patched in ([`SharedState::apply`]): the history and complete
    /// regions learned before the change stay. The state is rebuilt empty
    /// instead when the deltas cannot say what changed: the log has a gap,
    /// the feed read fails or is unsupported, or the source was invalidated
    /// by hand ([`KnowledgePlane::invalidate`], which the shard counts apart
    /// from feed advances, so it reaches this state on a feed-less site
    /// too). A reading that goes backwards (an HTTP adapter's transport
    /// fault) is ignored.
    pub(crate) fn sync_state(&self) {
        let seq = self.server.mutation_seq();
        let invalidations = self.knowledge_shard().map_or(0, |shard| {
            shard.observe_watermark(seq);
            shard.invalidations()
        });
        let (since, built) = (&self.state_seq, &self.state_invalidations);
        let stale =
            || seq > since.load(Ordering::Acquire) || invalidations > built.load(Ordering::Acquire);
        if !stale() {
            return;
        }
        let mut st = self.state.lock();
        // Re-check under the lock: a racing open may have caught up.
        if !stale() {
            return;
        }
        let from = since.load(Ordering::Acquire);
        let log = (invalidations == built.load(Ordering::Acquire))
            .then(|| self.server.mutations_since(from).ok())
            .flatten()
            .filter(|log| !log.gap);
        match log {
            Some(log) => {
                st.apply(&log);
                since.store(log.max_seq().unwrap_or(from), Ordering::Release);
            }
            None => {
                *st = SharedState::new(self.server.schema(), self.params);
                since.store(seq, Ordering::Release);
                built.store(invalidations, Ordering::Release);
            }
        }
    }

    /// Attach a cross-session [`KnowledgePlane`], registering this
    /// service's server under `source`. Every session opened afterwards
    /// (unless it opts out via [`SessionBuilder::knowledge`]) replays the
    /// exact result stream the plane's shard for `source` holds for its
    /// request, and records its own emissions for later sessions —
    /// including sessions of *other* services built with the same plane
    /// and source name, which is how a federation amortizes whole streams
    /// across tenants. Everything else a session asks goes to the server,
    /// through this service's own shared state (§3.1.1's history).
    ///
    /// Staleness has two regimes, and both reach this service's own
    /// shared state as well as the plane. Servers advertising
    /// [`Capability::MutationFeed`] handle it automatically: every session
    /// open reads the feed's sequence number, and the shard's epoch bumps
    /// the moment the watermark advances — no manual call, and sealed
    /// result streams are never replayed across a data change — while this
    /// service patches its shared state from the feed's deltas and keeps
    /// what it learned ([`SharedState::apply`]). For servers
    /// *without* a feed the old contract stands: when the underlying site
    /// is known to have changed, call [`KnowledgePlane::invalidate`] for the
    /// source (one atomic epoch bump) and every cached stream is re-earned
    /// — the next session on any service attached to the source starts
    /// from an empty history.
    pub fn with_knowledge(mut self, plane: Arc<KnowledgePlane>, source: impl Into<String>) -> Self {
        let shard = plane.shard(&source.into());
        // Invalidations before this service joined say nothing of its state.
        self.state_invalidations = AtomicU64::new(shard.invalidations());
        self.kplane = Some(KnowledgeHandle { plane, shard });
        self
    }

    /// Enforce a service-wide query cap (e.g. the API's daily limit).
    pub fn with_budget(mut self, limit: u64) -> Self {
        self.budget = QueryBudget::limited(limit, self.server.queries_issued());
        self
    }

    /// The retry policy every session opened on this service runs — the
    /// one place retries are configured. Transient server failures
    /// ([`RerankError::is_retryable`]) are retried with exponential backoff
    /// and jitter, honoring the server's `retry_after_ms` hint, until a step
    /// succeeds or uses up `max_attempts`
    /// ([`RerankError::RetriesExhausted`]). The default is
    /// [`RetryPolicy::none`]: fail fast, errors surface unchanged.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Inject the time source used for backoff sleeps. Tests pass a
    /// [`qrs_server::MockClock`] so whole rate-limit storms run without
    /// wall-clock sleeping.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attach an observability plane: every session opened afterwards
    /// emits the typed [`qrs_obs`] event stream (plan chosen, requests
    /// charged, retries, knowledge replays, budget trips,
    /// open/close) through the handle, timestamped on the service's
    /// injectable clock. Services built without one hold
    /// [`ObsHandle::disabled`]: each emission site costs a single branch
    /// and constructs nothing, leaving ledgers and result streams
    /// byte-identical to an uninstrumented build.
    ///
    /// Several services may share one handle (or one caller-built
    /// [`qrs_obs::Monitor`] attached to several handles) to aggregate a
    /// fleet-wide view.
    pub fn with_observer(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle (disabled unless the service was
    /// built [`RerankService::with_observer`]): the fleet monitor behind
    /// [`RerankService::monitor_report`] and the subscribers that see every
    /// event. Service-wide totals are [`RerankService::stats`], kept
    /// whether or not an observer is attached.
    pub fn observer(&self) -> &ObsHandle {
        &self.obs
    }

    /// Snapshot the fleet monitor's per-(site, strategy)
    /// predicted-vs-actual spend table — plan-time estimates against
    /// charged ledgers, with knowledge savings alongside. Empty when no
    /// observer is attached.
    pub fn monitor_report(&self) -> MonitorReport {
        self.obs.monitor_report()
    }

    /// Begin a Get-Next session for `sel` ranked by `rank`.
    ///
    /// Returns a [`SessionBuilder`]; configure it and call
    /// [`SessionBuilder::open`], which preflights the request and returns a
    /// typed [`RerankError`] for misuse (wrong algorithm arity, missing
    /// server capability) instead of panicking later.
    pub fn session(&self, sel: Query, rank: Arc<dyn RankFn>) -> SessionBuilder<'_> {
        self.session_with(sel, rank, SessionSpec::default())
    }

    /// [`RerankService::session`] with the settings already decided — how
    /// the batch, federation and maintenance front ends open (and re-open)
    /// sessions without replaying the builder calls one by one.
    pub(crate) fn session_with(
        &self,
        sel: Query,
        rank: Arc<dyn RankFn>,
        spec: SessionSpec,
    ) -> SessionBuilder<'_> {
        SessionBuilder {
            svc: self,
            sel,
            rank,
            spec,
            custom: None,
        }
    }

    /// The underlying search interface.
    pub fn server(&self) -> &Arc<dyn SearchInterface> {
        &self.server
    }

    /// Total queries the service has issued to the database.
    pub fn queries_issued(&self) -> u64 {
        self.server.queries_issued()
    }

    /// Point-in-time snapshot of the service-wide activity counters.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.stats.snapshot()
    }

    pub(crate) fn stats_ref(&self) -> &ServiceStats {
        &self.stats
    }

    /// A capability-aware [`Planner`] for this service's server: preflight
    /// query shapes against the site model without opening a session.
    /// [`SessionBuilder::open`] runs the same planner for
    /// [`Algorithm::Auto`] sessions.
    pub fn planner(&self) -> Planner {
        Planner::new(
            self.server.capabilities(),
            Arc::clone(self.server.schema()),
            self.server.k(),
            // The size estimate the service was built with.
            self.params.n as usize,
        )
    }

    /// The service-wide query budget — inspect spend or open a new
    /// accounting window via [`QueryBudget::reset`].
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// The injectable clock this service runs on — the same time base as
    /// backoff sleeps, batch latency, and the observability plane. Front
    /// ends (like the HTTP edge) stamp their own events on it so a whole
    /// stack shares one notion of time under a `MockClock`.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    pub(crate) fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    pub(crate) fn state(&self) -> &Mutex<SharedState> {
        &self.state
    }

    /// The cross-session knowledge plane this service publishes to, if it
    /// was built [`RerankService::with_knowledge`].
    pub fn knowledge_plane(&self) -> Option<&Arc<KnowledgePlane>> {
        self.kplane.as_ref().map(|h| &h.plane)
    }

    pub(crate) fn knowledge_shard(&self) -> Option<&Arc<SourceShard>> {
        self.kplane.as_ref().map(|h| &h.shard)
    }

    /// Size of the shared knowledge accumulated so far: the tuples in
    /// history.
    pub fn knowledge(&self) -> usize {
        self.with_state(|st| st.history.len())
    }

    /// Read the shared state under its lock: the history and complete
    /// regions as the last session left them, or as the last open patched
    /// them. For diagnostics and tests; every session of this service
    /// waits while `read` runs.
    pub fn with_state<R>(&self, read: impl FnOnce(&SharedState) -> R) -> R {
        read(&self.state.lock())
    }
}

impl std::fmt::Debug for RerankService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RerankService")
            .field("queries_issued", &self.queries_issued())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// The per-session settings — the one definition every front end
/// ([`SessionBuilder`], `BatchRequest`, federation sources,
/// `MaintainedSession` re-drives) carries and hands back to
/// `RerankService::session_with`. Retries are not among them: every
/// session runs its service's [`RerankService::with_retry_policy`].
#[derive(Clone)]
pub(crate) struct SessionSpec {
    pub(crate) algo: Algorithm,
    /// Per-session query cap (the service-wide budget still applies).
    pub(crate) budget: Option<u64>,
    /// Pull-horizon hint for cost estimation (`None` = one page, `k`).
    pub(crate) horizon: Option<usize>,
    /// Consult the service's knowledge plane, when it has one (a no-op on
    /// plane-less services).
    pub(crate) use_knowledge: bool,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            algo: Algorithm::Auto,
            budget: None,
            horizon: None,
            use_knowledge: true,
        }
    }
}

/// A session that bypasses the planner: its algorithm, its object's
/// estimate, and the object where one had to be built to ask (an explicit
/// choice; `open` then drives that very object).
struct Bypass {
    algorithm: Algorithm,
    estimate: CostEstimate,
    built: Option<Box<dyn RerankStrategy>>,
}

/// Configures and preflights one Get-Next session.
///
/// Defaults: [`Algorithm::Auto`], no per-session budget (the service-wide
/// budget still applies).
///
/// ```
/// use qrs_ranking::LinearRank;
/// use qrs_server::{SimServer, SystemRank};
/// use qrs_service::RerankService;
/// use qrs_types::{AttrId, Query};
/// use std::sync::Arc;
///
/// let data = qrs_datagen::synthetic::uniform(200, 2, 1, 7);
/// let server = SimServer::new(data, SystemRank::pseudo_random(1), 5);
/// let service = RerankService::new(Arc::new(server), 200);
///
/// // Preflighted open: the capability-aware planner picks the algorithm;
/// // misuse surfaces as a typed error here, never as a panic mid-stream.
/// let rank = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
/// let mut session = service
///     .session(Query::all(), rank)
///     .budget(500) // per-session query cap, on top of the service budget
///     .open()?;
///
/// // `top` keeps everything already paid for: on a budget trip or server
/// // failure you get the partial batch *and* the error.
/// let (hits, err) = session.top(5);
/// assert!(err.is_none());
/// assert_eq!(hits.len(), 5);
/// assert!(hits.windows(2).all(|w| w[0].score <= w[1].score));
/// # Ok::<(), qrs_types::RerankError>(())
/// ```
#[must_use = "a session builder does nothing until .open() is called"]
pub struct SessionBuilder<'a> {
    svc: &'a RerankService,
    sel: Query,
    rank: Arc<dyn RankFn>,
    spec: SessionSpec,
    /// A user-registered strategy object; when set, the session drives it
    /// instead of a planner- or caller-chosen built-in algorithm.
    custom: Option<Box<dyn RerankStrategy>>,
}

impl<'a> SessionBuilder<'a> {
    /// Pick the reranking algorithm (default [`Algorithm::Auto`]).
    pub fn algorithm(mut self, algo: Algorithm) -> Self {
        self.spec.algo = algo;
        self
    }

    /// Hint how many tuples this session expects to pull (the `h` of
    /// top-`h`). Only cost estimation reads it — feasibility never does —
    /// but it can flip the planner's ranking: a page-down drain costs the
    /// same for any horizon, cursors pay per tuple. Defaults to one page
    /// (`k`). The `planner_cost` experiment validates the ranking at the
    /// horizon it runs, so sessions that state theirs get the validated
    /// choice.
    pub fn horizon(mut self, h: usize) -> Self {
        self.spec.horizon = Some(h);
        self
    }

    /// Register a custom [`RerankStrategy`] for this session: the session
    /// drives the supplied object instead of a built-in algorithm. The
    /// planner is bypassed — [`SessionBuilder::plan`] reports
    /// [`Algorithm::Custom`] with the strategy's own
    /// [`RerankStrategy::estimate`] — but everything else applies
    /// unchanged: per-session and service budgets gate every step, retries
    /// absorb transient failures, and the queries the strategy issues are
    /// charged to this session's ledger. Exactness (emission order) is the
    /// strategy's own responsibility.
    pub fn strategy(mut self, strategy: Box<dyn RerankStrategy>) -> Self {
        self.custom = Some(strategy);
        self
    }

    /// Opt this session in or out of the service's knowledge plane
    /// (default in). Opting out makes the session replay nothing and record
    /// nothing — useful as a cold-cost control, or when
    /// the caller suspects the plane is stale but cannot afford an
    /// invalidation that would evict other tenants' knowledge.
    pub fn knowledge(mut self, on: bool) -> Self {
        self.spec.use_knowledge = on;
        self
    }

    /// Cap the queries this one session may cause (on top of the service
    /// budget). Exceeding it returns [`RerankError::BudgetExhausted`] from
    /// `Session::next`, with the partial batch preserved by `Session::top`.
    pub fn budget(mut self, limit: u64) -> Self {
        self.spec.budget = Some(limit);
        self
    }

    /// The service's planner at this request's horizon (one page, `k`,
    /// unless [`SessionBuilder::horizon`] stated another).
    fn planner(&self) -> Planner {
        let planner = self.svc.planner();
        match self.spec.horizon {
            Some(h) => planner.with_horizon(h),
            None => planner,
        }
    }

    /// Dry-run the decision [`SessionBuilder::open`] will execute, without
    /// opening a session or touching the server.
    ///
    /// Under [`Algorithm::Auto`] this runs the capability-aware
    /// [`Planner`], which cost-ranks every feasible candidate under the
    /// site's advertised cost model; with an explicit
    /// [`SessionBuilder::algorithm`] choice it returns that choice
    /// verbatim (full selection, no residual) after the same
    /// hard-requirement preflights `open` performs — so what `plan`
    /// reports is always what `open` runs. A registered
    /// [`SessionBuilder::strategy`] reports [`Algorithm::Custom`] with the
    /// strategy's own estimate.
    pub fn plan(&self) -> Result<Plan, RerankError> {
        let planner = self.planner();
        let Some(bypass) = self.bypass(&planner)? else {
            return planner.plan(&self.sel, self.rank.as_ref());
        };
        let object = (bypass.built.as_deref()).or(self.custom.as_deref());
        let name = object.expect("a bypass drives an object").name();
        let sel = self.sel.clone();
        Ok(Plan::single(bypass.algorithm, name, bypass.estimate, sel))
    }

    /// Validate the request, and answer for a session that bypasses the
    /// planner — an explicit algorithm or a registered custom strategy —
    /// by asking its object, so the name and estimate reported are the
    /// running strategy's own. `None` under [`Algorithm::Auto`], which the
    /// planner decides.
    fn bypass(&self, planner: &Planner) -> Result<Option<Bypass>, RerankError> {
        // NaN range endpoints poison every comparison downstream (a
        // predicate that matches nothing, region arithmetic that never
        // converges) and an attribute outside the schema indexes past every
        // tuple — refuse both here, typed, before anything is spent. The
        // same holds for a ranking attribute the schema does not have.
        let schema = self.svc.server().schema();
        self.sel.validate(schema)?;
        let m = schema.num_ordinal();
        if let Some(a) = self.rank.attrs().iter().find(|a| a.0 >= m) {
            let reason = format!(
                "ranking on ordinal attribute index {}, but the schema has {m}",
                a.0
            );
            return Err(ServerError::invalid_query(reason).into());
        }
        let ctx = planner.plan_context(&self.sel, self.rank.attrs());
        if let Some(custom) = &self.custom {
            let estimate = custom.estimate(&ctx);
            return Ok(Some(Bypass {
                algorithm: Algorithm::Custom,
                estimate,
                built: None,
            }));
        }
        match self.spec.algo {
            Algorithm::Auto => Ok(None),
            explicit => {
                self.preflight(explicit)?;
                let built = self.build_strategy(explicit, self.sel.clone());
                let estimate = built.estimate(&ctx);
                Ok(Some(Bypass {
                    algorithm: explicit,
                    estimate,
                    built: Some(built),
                }))
            }
        }
    }

    /// The classic hard-requirement preflights, run for every session
    /// regardless of how its algorithm was chosen.
    fn preflight(&self, algo: Algorithm) -> Result<(), RerankError> {
        if matches!(algo, Algorithm::OneD(_)) && self.rank.dims() != 1 {
            return Err(RerankError::invalid_algorithm(format!(
                "1D algorithms require a single-attribute ranking function, \
                 got {} attributes",
                self.rank.dims()
            )));
        }
        if matches!(algo, Algorithm::Custom) && self.custom.is_none() {
            return Err(RerankError::invalid_algorithm(
                "Algorithm::Custom requires a strategy object; register one \
                 via SessionBuilder::strategy",
            ));
        }
        if let Algorithm::Ta(SortedAccess::PublicOrderBy) = algo {
            let caps = self.svc.server().capabilities();
            for &a in self.rank.attrs() {
                caps.require(Capability::OrderBy(a))?;
            }
        }
        if let Algorithm::PageDown { .. } = algo {
            self.svc
                .server()
                .capabilities()
                .require(Capability::Paging)?;
        }
        Ok(())
    }

    /// The strategy object driving `algorithm` over `sel`, the (possibly
    /// relaxed) server-side query. Preflight and the planner only let
    /// built-in algorithms through.
    fn build_strategy(&self, algorithm: Algorithm, sel: Query) -> Box<dyn RerankStrategy> {
        let server = self.svc.server().as_ref();
        (algorithm.strategy(Arc::clone(&self.rank), sel, server))
            .expect("a resolved algorithm is built in")
    }

    /// Validate the request and open the session.
    ///
    /// Under [`Algorithm::Auto`] the capability-aware [`Planner`] picks the
    /// algorithm from the server's advertised site model, relaxing
    /// predicates the site cannot evaluate (they are re-applied
    /// client-side — exactness is preserved). An explicit algorithm choice
    /// skips the planner: the caller takes responsibility for the pairing,
    /// and only the classic preflights run. Either way the executed plan
    /// is exactly what [`SessionBuilder::plan`] reports.
    ///
    /// # Errors
    /// * [`RerankError::Unplannable`] — [`Algorithm::Auto`] and no
    ///   algorithm fits the site's capabilities; the error names what is
    ///   missing.
    /// * [`RerankError::InvalidAlgorithm`] — a 1D algorithm with a
    ///   multi-attribute ranking function.
    /// * [`RerankError::UnsupportedCapability`] — `Ta(PublicOrderBy)`
    ///   against a server whose [`qrs_server::Capabilities`] lack `ORDER
    ///   BY` on a ranking attribute, or `PageDown` against one that does
    ///   not page.
    /// * [`RerankError::Server`]`(`[`qrs_types::ServerError::InvalidQuery`]`)` — the
    ///   selection fails [`Query::validate`] against the site's schema (a
    ///   `NaN` endpoint, an attribute the schema does not have), or the
    ///   ranking function reads an ordinal attribute the schema does not
    ///   have; nothing was sent or charged.
    pub fn open(mut self) -> Result<Session<'a>, RerankError> {
        // Catch up with the site before anything trusts cached knowledge:
        // a stale shared state is patched from the feed here (or rebuilt
        // empty when the feed cannot say what changed), and the shard has
        // observed the feed first, so the result-stream lookup below
        // rejects anything recorded against an older snapshot.
        self.svc.sync_state();
        let planner = self.planner();
        // Under `Auto`, only the planner's choice is kept; its object is
        // built at the session's first step, which a replay never takes.
        let (algorithm, estimate, shaped, built) = match self.bypass(&planner)? {
            Some(b) => (b.algorithm, b.estimate, None, b.built),
            None => {
                let p = planner.decide(&self.sel, self.rank.as_ref())?;
                (p.algorithm, p.estimate, p.shaped, None)
            }
        };
        // The planner's candidates satisfy the preflights by construction
        // (`Planner::lacks` checks the same capabilities), and `bypass`
        // ran them for every other choice. Checked again in debug builds
        // only: on a site that pages or sorts, each run reads the
        // capabilities anew, a copy of the site model per open.
        debug_assert_eq!(self.preflight(algorithm), Ok(()), "{algorithm:?}");
        let (shaped, residual) = shaped.map_or((None, None), |(q, r)| (Some(q), r));
        // The object the choice was priced by, or the planner's choice.
        let driver = match built.or(self.custom.take()) {
            Some(obj) => Driver::Built(obj),
            None => Driver::Planned { algorithm, shaped },
        };
        // Decorrelate jitter across sessions: every session cloning the
        // same policy would otherwise draw identical jitter sequences and
        // retry in lockstep during a shared outage — the thundering herd
        // jitter exists to prevent. The session ordinal keeps the mix
        // deterministic for replayable tests (same open order, same seeds),
        // and is this open's own, so racing opens never share one.
        let nonce = self.svc.stats_ref().on_session();
        let mut retry = self.svc.retry_policy.clone();
        retry.seed ^= nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Custom strategies never key the result cache: their exactness is
        // the author's promise, so their streams are neither recorded nor
        // replayed.
        let keyed = self.spec.use_knowledge && algorithm != Algorithm::Custom;
        let knowledge = (self.svc.knowledge_shard()).filter(|_| keyed).map(|shard| {
            // Read before the lookup: a stream recorded under a later
            // epoch replays as it is, and this session records nothing.
            let epoch = shard.epoch();
            let rank = &self.rank;
            let replay =
                shard.lookup_stream(&self.sel, driver.name(), |out| rank.write_fingerprint(out));
            SessionKnowledge {
                shard: Arc::clone(shard),
                epoch,
                result_key: None,
                replay,
                replayed: 0,
                rederive: Vec::new(),
                credited: false,
            }
        });
        // Announce the session on the observability plane. The ordinal is
        // allocated here (0 when disabled) and travels on every event the
        // session emits, and the open event carries the plan-time estimate
        // that seeds the monitor's *predicted* column.
        let obs_id = self.svc.obs().open_session();
        if self.svc.obs().enabled() {
            let now = self.svc.clock().now_ms();
            self.svc.obs().emit(
                now,
                obs_id,
                EventKind::SessionOpen {
                    strategy: driver.name().to_string(),
                    predicted_queries: estimate.queries,
                    predicted_cost_units: estimate.cost_units,
                },
            );
        }
        Ok(Session::new(
            self.svc,
            self.rank,
            self.sel,
            driver,
            self.spec.budget,
            RetryRunner::new(retry),
            residual,
            knowledge,
            obs_id,
        ))
    }

    /// Open a [`MaintainedSession`]: an exact materialized top-`horizon`
    /// kept current across data change by consuming the server's mutation
    /// feed — deletes delta-repair by pulling one replacement, inserts are
    /// rank-tested locally, and only a compacted feed (or a positional
    /// strategy that must pull live) forces a full re-drive. See
    /// [`crate::maintained`] for the repair rules and exactness argument.
    ///
    /// # Errors
    /// * [`RerankError::UnsupportedCapability`] — the server does not
    ///   advertise [`Capability::MutationFeed`].
    /// * [`RerankError::InvalidAlgorithm`] — a custom strategy was
    ///   registered (the service cannot repair a stream whose exactness is
    ///   the author's private contract).
    /// * Anything [`SessionBuilder::open`] can return — the same plan
    ///   preflights run underneath.
    pub fn open_maintained(self, horizon: usize) -> Result<MaintainedSession<'a>, RerankError> {
        self.svc
            .server()
            .capabilities()
            .require(Capability::MutationFeed)?;
        if self.custom.is_some() {
            return Err(RerankError::invalid_algorithm(
                "maintained sessions drive built-in strategies only: the \
                 service cannot delta-repair a custom strategy whose \
                 exactness contract it does not know",
            ));
        }
        // The spec keeps the algorithm as the caller configured it (`Auto`
        // stays `Auto`), so a re-drive re-runs the same planner decision,
        // relaxation included — always at the maintained horizon, the one
        // the inner sessions are actually driven to.
        let horizon = horizon.max(1);
        let spec = SessionSpec {
            horizon: Some(horizon),
            ..self.spec
        };
        MaintainedSession::open(self.svc, self.sel, self.rank, spec, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_datagen::synthetic::uniform;
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::AttrId;
    use std::sync::mpsc;
    use std::time::Duration;

    /// `Session::step` holds the state lock across site round trips; a dry
    /// run must answer while it is held.
    #[test]
    fn plan_does_not_wait_for_the_state_lock() {
        let server = SimServer::new(uniform(100, 2, 1, 11), SystemRank::pseudo_random(7), 5);
        let svc = &RerankService::new(Arc::new(server), 100);
        let rank: Arc<dyn RankFn> =
            Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
        let held = svc.state().lock();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || tx.send(svc.session(Query::all(), rank).plan().is_ok()));
            let planned = rx.recv_timeout(Duration::from_secs(1));
            // Release before asserting, or a blocked planner never joins.
            drop(held);
            assert_eq!(planned, Ok(true), "plan() queued behind the state lock");
        });
    }

    /// Every built-in algorithm answers for its object before building it:
    /// the name, request class and positional flag it reports are the
    /// built object's.
    #[test]
    fn algorithms_describe_their_objects() {
        let server = SimServer::new(uniform(50, 2, 1, 13), SystemRank::pseudo_random(3), 5);
        let rank1: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));
        let rank2: Arc<dyn RankFn> =
            Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
        let built_in = [
            (Algorithm::OneD(OneDStrategy::Rerank), &rank1),
            (Algorithm::OneD(OneDStrategy::Baseline), &rank1),
            (Algorithm::Md(MdOptions::rerank()), &rank2),
            (Algorithm::Md(MdOptions::baseline()), &rank2),
            (Algorithm::Ta(SortedAccess::OneD), &rank2),
            (Algorithm::Ta(SortedAccess::PublicOrderBy), &rank2),
            (Algorithm::PageDown { max_pages: 20 }, &rank2),
            (
                Algorithm::PageDown {
                    max_pages: usize::MAX,
                },
                &rank1,
            ),
        ];
        for (algorithm, rank) in built_in {
            let object = (algorithm.strategy(Arc::clone(rank), Query::all(), &server))
                .expect("a built-in algorithm builds");
            assert_eq!(algorithm.name(), Some(object.name()), "{algorithm:?}");
            let described = (algorithm.request_kind(), algorithm.positional());
            let own = (object.request_kind(), object.positional());
            assert_eq!(described, own, "{algorithm:?}");
        }
        for algorithm in [Algorithm::Auto, Algorithm::Custom] {
            assert_eq!(algorithm.name(), None);
            assert_eq!(algorithm.request_kind(), None);
            assert!(!algorithm.positional());
        }
    }
}
