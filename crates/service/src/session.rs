//! Incremental Get-Next sessions (§2.2's problem interface).
//!
//! A session binds one user query + ranking function to a cursor; each
//! [`Session::next`] returns the next-ranked tuple, charging only the
//! incremental query cost ("progressively return top answers while paying
//! only the incremental cost"). The shared service state is locked per call,
//! so concurrent sessions interleave cleanly.
//!
//! Fallibility contract: a budget trip or server failure surfaces as a
//! typed [`RerankError`]; the cursor keeps everything already paid for, so
//! retrying `next` after the budget refreshes (or a transient server error
//! clears) resumes instead of restarting. [`Session::top`] returns the
//! tuples fetched *before* the failure alongside the error — paid-for
//! results are never dropped.
//!
//! Retry contract: every session runs its service's
//! [`RetryPolicy`](qrs_types::RetryPolicy)
//! ([`crate::RerankService::with_retry_policy`]). Transient *server*
//! failures are retried in place with exponential backoff + jitter,
//! honoring the server's `retry_after_ms` hint and sleeping on the
//! service's injectable clock, at most `max_attempts` times per Get-Next
//! step. Because cursors resume after `Err`, a retry re-enters exactly
//! where the failure struck — queries already answered are never re-paid.
//! Attempt counts and retries are tracked in [`SessionStats`] so budget
//! attribution stays exact even for steps that ultimately fail.

use crate::retry::RetryRunner;
use crate::service::{Algorithm, RerankService};
use qrs_core::strategy::{RerankStrategy, StrategyIo, StrategyStep};
use qrs_knowledge::{ResultEntry, ResultKey, SourceShard};
use qrs_obs::{BudgetScope, EventKind, QueryClass};
use qrs_ranking::RankFn;
use qrs_types::{Query, RequestKind, RerankError, Tuple, TupleId};
use std::sync::Arc;

/// Per-session view of the knowledge plane, built at open time by
/// `SessionBuilder` when the service carries a plane, the session did not
/// opt out and its strategy is a built-in one (a custom strategy's
/// exactness is its author's promise, so its stream is neither recorded
/// nor replayed).
///
/// The plane touches a session twice and never in between: at open, a
/// cached exact output stream for this `(selection, rank, strategy)` is
/// looked up — a snapshot that shares the shard's stream, copying no
/// tuple — and emitted directly by index (`replay`, `replayed`); if the
/// stream is not sealed, the strategy then resumes from scratch — paying
/// the site like any session — with the session swallowing its
/// re-derivation of the replayed tuples (`rederive`); and at each emission,
/// the tuple is appended to the shard's stream for later sessions.
pub(crate) struct SessionKnowledge {
    /// The service's source shard.
    pub(crate) shard: Arc<SourceShard>,
    /// The shard epoch the session opened under. The session records into
    /// the result cache only while it is current: after a data change,
    /// what the strategy learned before it may no longer hold.
    pub(crate) epoch: u64,
    /// Key of this session's exact output stream in the shard's result
    /// cache, built when the session first steps its strategy — the first
    /// moment it can record. A replay never builds it: `open` looks the
    /// stream up by the key's bytes, written in place.
    pub(crate) result_key: Option<ResultKey>,
    /// The cached stream found at open, emitted first; dropped when the
    /// session hands over to its strategy, so the session's own appends
    /// extend the shard's stream in place.
    pub(crate) replay: Option<ResultEntry>,
    /// Tuples of `replay` emitted so far.
    pub(crate) replayed: usize,
    /// Replayed tuples the strategy has yet to re-derive, listed from the
    /// replayed prefix when the session hands over to the strategy (a
    /// sealed stream never does). Matched by id, not by position: a richer
    /// history can order a tie group differently the second time.
    pub(crate) rederive: Vec<TupleId>,
    /// One-shot latch for the full-replay credit.
    pub(crate) credited: bool,
}

/// One emitted answer: global rank (1-based), user score, tuple.
#[derive(Debug, Clone)]
pub struct RankedTuple {
    /// 1-based rank under the user's ranking function.
    pub rank: usize,
    /// The user score the rank was assigned by.
    pub score: f64,
    /// The tuple itself.
    pub tuple: Arc<Tuple>,
}

/// Point-in-time accounting for one session, exact under retries and
/// concurrency: every counter is updated inside the shared-state lock
/// around this session's own cursor calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Tuples emitted so far.
    pub emitted: usize,
    /// Queries charged to this session — including those spent by attempts
    /// that ultimately failed (e.g. a page truncated in transit was paid
    /// for even though no result arrived).
    pub queries_spent: u64,
    /// Weighted cost units charged to this session under the server's
    /// advertised cost model. Equals `queries_spent` on flat-model sites;
    /// the number a metered site actually bills for.
    pub cost_units_spent: u64,
    /// Queries the knowledge plane saved this session — zero unless its
    /// whole stream replayed from a sealed cache entry, which credits the
    /// sealing run's recorded cost here.
    pub queries_saved: u64,
    /// Cost units of the same credit.
    pub cost_units_saved: u64,
    /// Cursor-step attempts made, successful and failed alike.
    pub attempts_made: u64,
    /// Retries spent (attempts beyond the first for a given step).
    pub retries_spent: u64,
    /// The per-session query cap, if any.
    pub budget_limit: Option<u64>,
}

impl SessionStats {
    /// All zeros beside the cap: the ledger every session starts from, and
    /// all that a batch request which never opened one has to report.
    pub(crate) fn zero(budget_limit: Option<u64>) -> Self {
        SessionStats {
            emitted: 0,
            queries_spent: 0,
            cost_units_spent: 0,
            queries_saved: 0,
            cost_units_saved: 0,
            attempts_made: 0,
            retries_spent: 0,
            budget_limit,
        }
    }
}

/// The pull state machine a session drives — a built-in cursor or a
/// user-registered custom strategy; the session loop is oblivious to
/// which — or, until the session first steps it, what to build it from.
pub(crate) enum Driver {
    /// A built-in algorithm, the planner's or the caller's choice, not
    /// built yet: a replay that never hands over never builds it. Its name,
    /// request class and positional flag are the algorithm's
    /// ([`Algorithm::name`]), which are its object's.
    Planned {
        /// A built-in algorithm.
        algorithm: Algorithm,
        /// The server-side query, where the planner reshaped the
        /// selection; `None` builds the strategy over the session's own.
        shaped: Option<Query>,
    },
    /// The object: a built-in one from the first step on, or a registered
    /// custom strategy from open.
    Built(Box<dyn RerankStrategy>),
}

impl Driver {
    /// The strategy's name — the planned algorithm's, or the object's.
    pub(crate) fn name(&self) -> &str {
        match self {
            Driver::Planned { algorithm, .. } => algorithm.name().expect("planned built-in"),
            Driver::Built(strategy) => strategy.name(),
        }
    }

    fn request_kind(&self) -> Option<RequestKind> {
        match self {
            Driver::Planned { algorithm, .. } => algorithm.request_kind(),
            Driver::Built(strategy) => strategy.request_kind(),
        }
    }

    fn positional(&self) -> bool {
        match self {
            Driver::Planned { algorithm, .. } => algorithm.positional(),
            Driver::Built(strategy) => strategy.positional(),
        }
    }
}

/// A user's incremental reranked query. Built by
/// [`crate::service::SessionBuilder::open`].
pub struct Session<'a> {
    svc: &'a RerankService,
    rank: Arc<dyn RankFn>,
    /// The user's selection: the result key is written from it, and a
    /// planned strategy the planner did not reshape it for is built over
    /// it (which takes it).
    sel: Query,
    /// What this session drives.
    driver: Driver,
    /// The running ledger [`Session::stats`] reports. Every spend counter
    /// in it moves under the shared-state lock around this session's own
    /// strategy steps, so interleaved queries from concurrent sessions are
    /// never misattributed, and a failed attempt's spend still lands here.
    ledger: SessionStats,
    /// Retry policy + jitter RNG.
    retry: RetryRunner,
    /// Predicates the planner relaxed out of the server-side query (the
    /// site could not evaluate them); re-checked here before emitting, so
    /// exactness survives the relaxation.
    residual: Option<Query>,
    /// Knowledge-plane hookup (result replay and recording), when the
    /// service carries a plane and this session opted in.
    knowledge: Option<SessionKnowledge>,
    /// This session's ordinal on the observability plane (0 when the
    /// service has no observer attached).
    obs_id: u64,
}

impl<'a> Session<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        svc: &'a RerankService,
        rank: Arc<dyn RankFn>,
        sel: Query,
        driver: Driver,
        budget_limit: Option<u64>,
        retry: RetryRunner,
        residual: Option<Query>,
        knowledge: Option<SessionKnowledge>,
        obs_id: u64,
    ) -> Self {
        Session {
            svc,
            rank,
            sel,
            driver,
            ledger: SessionStats::zero(budget_limit),
            retry,
            residual,
            knowledge,
            obs_id,
        }
    }

    /// Emit one observability event attributed to this session. The
    /// closure runs only when a plane is attached, so a disabled service
    /// pays a single branch here and constructs nothing — no clock read,
    /// no allocation.
    #[inline]
    pub(crate) fn emit_obs(&self, f: impl FnOnce() -> EventKind) {
        let obs = self.svc.obs();
        if obs.enabled() {
            obs.emit(self.svc.clock().now_ms(), self.obs_id, f());
        }
    }

    /// The class this session's request events carry: the request class
    /// its strategy says it issues. A mix (a custom strategy that does not
    /// say) gets its own.
    fn class(&self) -> QueryClass {
        match self.driver.request_kind() {
            Some(RequestKind::TopK) => QueryClass::TopK,
            Some(RequestKind::Page) => QueryClass::Page,
            Some(RequestKind::Ordered) => QueryClass::Ordered,
            None => QueryClass::Mixed,
        }
    }

    /// Whether this session's strategy is positional
    /// ([`RerankStrategy::positional`]).
    pub(crate) fn positional(&self) -> bool {
        self.driver.positional()
    }

    /// The next tuple under the user ranking, or `Ok(None)` when exhausted.
    ///
    /// Not an `Iterator`: each step can fail on the query budget or the
    /// server, and callers need that error, not a silent stop. After an
    /// `Err` the session remains usable — queries already answered stay in
    /// the shared history, so a retry resumes the incremental work.
    ///
    /// With the service's retry policy enabled, transient server failures
    /// are absorbed here: the step is re-attempted after a backoff sleep
    /// (server `retry_after_ms` hint dominating the exponential schedule)
    /// until it succeeds or the policy's `max_attempts` is consumed
    /// ([`RerankError::RetriesExhausted`]). Query-budget trips are *not*
    /// slept on — only a caller-side window reset can clear them.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<RankedTuple>, RerankError> {
        let mut hit = None;
        if self.replay(1, |r| hit = Some(r)) > 0 {
            return Ok(hit);
        }
        // With no plane attached `emit_obs` is one branch that constructs
        // nothing, so the uninstrumented hot path is preserved bit for bit.
        self.emit_obs(|| EventKind::RequestIssued {
            class: self.class(),
        });
        // The cached stream's prefix is spent: a complete stream ends the
        // session without ever driving the strategy (credited at once when
        // it was empty); otherwise hand over — the strategy re-derives the
        // replayed prefix before it reaches anything new.
        if let Some(k) = &mut self.knowledge {
            if let Some(entry) = &k.replay {
                if entry.exhausted {
                    self.credit_full_replay();
                    return Ok(None);
                }
                k.rederive = entry.items.iter().map(|(t, _)| t.id).collect();
                k.replay = None;
            }
        }
        loop {
            match self.drive_step()? {
                StrategyStep::Emit(tuple) => {
                    if let Some(hit) = self.admit(tuple) {
                        return Ok(Some(hit));
                    }
                }
                // Partial work (one page fetched): drive again, which
                // re-checks the budget gates before paying for more.
                StrategyStep::Progress => {}
                StrategyStep::Exhausted => {
                    self.seal();
                    return Ok(None);
                }
            }
        }
    }

    /// Stage 1 — serve the cached result stream: zero server traffic, no
    /// shared-state lock. Hands `emit` up to `h` tuples of the stream's
    /// prefix — one `RequestIssued` a tuple, in order, then the full-replay
    /// credit if the last one ended a complete stream — with the service's
    /// emit counter moved once, and returns how many; [`Session::next`]
    /// asks for one, [`Session::top`] for its whole batch. Scores replay
    /// from their recorded bit patterns, so a warm stream is byte-identical
    /// to the cold one. The hand-over and a complete stream's end are
    /// `next`'s.
    fn replay(&mut self, h: usize, mut emit: impl FnMut(RankedTuple)) -> usize {
        let obs = self.svc.obs();
        let class = obs.enabled().then(|| self.class());
        let Some(k) = self.knowledge.as_mut() else {
            return 0;
        };
        let Some(entry) = &k.replay else { return 0 };
        let prefix = &entry.items[k.replayed..];
        let prefix = &prefix[..prefix.len().min(h)];
        if prefix.is_empty() {
            return 0;
        }
        for (tuple, bits) in prefix {
            if let Some(class) = class {
                let now = self.svc.clock().now_ms();
                obs.emit(now, self.obs_id, EventKind::RequestIssued { class });
            }
            self.ledger.emitted += 1;
            emit(RankedTuple {
                rank: self.ledger.emitted,
                score: f64::from_bits(*bits),
                tuple: Arc::clone(tuple),
            });
        }
        let n = prefix.len();
        k.replayed += n;
        self.svc.stats_ref().on_emit(n as u64);
        self.credit_full_replay();
        n
    }

    /// The one-shot full-replay credit: the moment a *complete* cached
    /// stream has nothing left to replay — with its last tuple, or at once
    /// when it is empty — the sealing run's whole ledger lands on the saved
    /// column.
    fn credit_full_replay(&mut self) {
        let Some(k) = &mut self.knowledge else { return };
        let Some(entry) = &k.replay else { return };
        if k.credited || !entry.exhausted || k.replayed < entry.items.len() {
            return;
        }
        k.credited = true;
        let (queries, cost_units) = (entry.queries_full, entry.cost_units_full);
        self.ledger.queries_saved += queries;
        self.ledger.cost_units_saved += cost_units;
        self.svc.stats_ref().on_saved(queries, cost_units);
        self.emit_obs(|| EventKind::KnowledgeHit {
            queries,
            cost_units,
        });
    }

    /// Stage 2 — one successful strategy step: budget gates, then
    /// [`Session::step`], then backoff and retry until the step succeeds
    /// or a typed error ends the pull.
    fn drive_step(&mut self) -> Result<StrategyStep, RerankError> {
        // Retries of *this* step; every `Ok` returns, so the next step
        // starts from zero.
        let mut retries: u32 = 0;
        loop {
            // Budget gates re-checked before every attempt: a retry must
            // not sneak past a cap that tripped mid-recovery.
            if let Err(e) = self.svc.budget().check(self.svc.server().queries_issued()) {
                if let RerankError::BudgetExhausted { spent, limit } = e {
                    self.budget_trip(BudgetScope::Service, spent, limit);
                }
                return Err(e);
            }
            let spent = self.ledger.queries_spent;
            if let Some(limit) = self.ledger.budget_limit.filter(|&l| spent >= l) {
                self.budget_trip(BudgetScope::Session, spent, limit);
                return Err(RerankError::BudgetExhausted { spent, limit });
            }
            let err = match self.step() {
                Ok(step) => return Ok(step),
                Err(e) => e,
            };
            if !err.is_retryable() || !self.retry.policy().retries_enabled() {
                return Err(err);
            }
            if retries + 1 >= self.retry.policy().max_attempts {
                return Err(RerankError::RetriesExhausted {
                    attempts: retries + 1,
                    last: Box::new(err),
                });
            }
            retries += 1;
            self.ledger.retries_spent += 1;
            self.svc.stats_ref().on_retry();
            self.emit_obs(|| EventKind::RetryAttempt {
                retry_index: retries,
            });
            let delay = self.retry.delay_ms(retries, &err);
            if delay > 0 {
                self.emit_obs(|| EventKind::BackoffSleep {
                    ms: delay,
                    server_hinted: err.retry_after_hint().is_some(),
                });
                // The shared-state lock is NOT held here: other sessions
                // keep working while this one backs off.
                self.svc.clock().sleep_ms(delay);
            }
        }
    }

    fn budget_trip(&self, scope: BudgetScope, spent: u64, limit: u64) {
        self.emit_obs(|| EventKind::BudgetTrip {
            scope,
            spent,
            limit,
        });
    }

    /// Stage 3 — residual → skip → record. `None` means the tuple was paid
    /// for but is not the user's next answer; rank order is unaffected, so
    /// the caller just keeps pulling.
    fn admit(&mut self, tuple: Arc<Tuple>) -> Option<RankedTuple> {
        // The planner relaxed a predicate the site could not evaluate, and
        // this tuple fails it client-side.
        if self.residual.as_ref().is_some_and(|r| !r.matches(&tuple)) {
            return None;
        }
        if let Some(k) = &mut self.knowledge {
            if let Some(at) = k.rederive.iter().position(|&id| id == tuple.id) {
                // Already emitted from the replayed prefix; the strategy
                // is just catching up.
                k.rederive.swap_remove(at);
                return None;
            }
        }
        // The strategy runs only once the replay has drained, so the
        // user-visible stream — the one the cache stores — holds exactly
        // `emitted` tuples before this one.
        let score = self.rank.score(&tuple);
        if let Some((shard, epoch, key)) = self.result_stream() {
            let idx = self.ledger.emitted;
            shard.extend_result(key, epoch, idx, Arc::clone(&tuple), score.to_bits());
        }
        self.ledger.emitted += 1;
        self.svc.stats_ref().on_emit(1);
        Some(RankedTuple {
            rank: self.ledger.emitted,
            score,
            tuple,
        })
    }

    /// Stage 4 — the strategy ran dry: seal the cache entry. The stream is
    /// complete at exactly `emitted` tuples, and the whole run cost what
    /// this session spent (what a future full replay deserves credit for:
    /// a session that drives its strategy was credited nothing).
    fn seal(&self) {
        let Some((shard, epoch, key)) = self.result_stream() else {
            return;
        };
        let items = self.ledger.emitted;
        let queries_full = self.ledger.queries_spent;
        let cost_units_full = self.ledger.cost_units_spent;
        shard.mark_result_exhausted(key, epoch, items, queries_full, cost_units_full);
        self.emit_obs(|| EventKind::KnowledgeSeal {
            items: items as u64,
            queries_full,
            cost_units_full,
        });
    }

    /// Where, and under which epoch, this session records its exact
    /// output stream, if anywhere.
    fn result_stream(&self) -> Option<(&SourceShard, u64, &ResultKey)> {
        let k = self.knowledge.as_ref()?;
        Some((k.shard.as_ref(), k.epoch, k.result_key.as_ref()?))
    }

    /// One strategy step under the shared-state lock.
    ///
    /// Exact per-session attribution: every service query happens inside a
    /// strategy step while the state lock is held, so the ledger deltas
    /// (raw queries *and* weighted cost units) across this call are
    /// exactly this session's spend. The attempt and spend counters update
    /// *before* the error propagates — a failed attempt that paid for
    /// queries (e.g. a page truncated in transit) still charges this
    /// session.
    fn step(&mut self) -> Result<StrategyStep, RerankError> {
        self.start();
        let Driver::Built(strategy) = &mut self.driver else {
            unreachable!("started above")
        };
        let server = self.svc.server();
        let mut st = self.svc.state().lock();
        let before = server.queries_issued();
        let before_cost = server.cost_units_issued();
        let t = {
            let mut io = StrategyIo::new(server.as_ref(), &mut st);
            strategy.next_step(&mut io)
        };
        self.ledger.attempts_made += 1;
        let dq = server.queries_issued() - before;
        let dc = server.cost_units_issued() - before_cost;
        self.ledger.queries_spent += dq;
        self.ledger.cost_units_spent += dc;
        self.svc.stats_ref().on_spend(dq, dc);
        drop(st);
        // Observability, outside the lock: the deltas are already captured,
        // so emission order cannot change attribution. `RequestCharged`
        // carries the very numbers the ledgers above accumulated — the
        // monitor's actual column reconciles exactly by construction.
        if dq > 0 || dc > 0 {
            self.emit_obs(|| EventKind::RequestCharged {
                class: self.class(),
                queries: dq,
                cost_units: dc,
            });
        }
        t
    }

    /// What the first step needs and a replay does not: the result key,
    /// and the strategy object built from the built-in choice. Written
    /// before the object is built, which may take the selection.
    fn start(&mut self) {
        if let Some(k) = self.knowledge.as_mut().filter(|k| k.result_key.is_none()) {
            let rank = &self.rank;
            let key = ResultKey::new(&self.sel, self.driver.name(), |out| {
                rank.write_fingerprint(out)
            });
            k.result_key = Some(key);
        }
        if let Driver::Planned { algorithm, shaped } = &mut self.driver {
            let query = shaped
                .take()
                .unwrap_or_else(|| std::mem::take(&mut self.sel));
            let (schema, caps) = (self.svc.server().schema(), self.svc.capabilities());
            let built = (algorithm.strategy(Arc::clone(&self.rank), query, schema, caps))
                .expect("a planned algorithm is built in");
            self.driver = Driver::Built(built);
        }
    }

    /// Fetch the next `h` tuples (shorter if `R(q)` is exhausted).
    ///
    /// Partial results survive failure: if the budget trips or the server
    /// errors mid-batch, the tuples already fetched — and paid for — are
    /// returned together with the error instead of being dropped.
    ///
    /// A cached stream's prefix is handed out in one pass, and the output
    /// is sized by what that prefix holds, never by `h`, which may be a
    /// caller's "everything" (`usize::MAX`).
    pub fn top(&mut self, h: usize) -> (Vec<RankedTuple>, Option<RerankError>) {
        let mut out = Vec::with_capacity(h.min(self.replayable()));
        self.replay(h, |r| out.push(r));
        while out.len() < h {
            match self.next() {
                Ok(Some(r)) => out.push(r),
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
        }
        (out, None)
    }

    /// Tuples of the cached stream not replayed yet.
    fn replayable(&self) -> usize {
        let k = self.knowledge.as_ref();
        k.and_then(|k| Some(k.replay.as_ref()?.items.len() - k.replayed))
            .unwrap_or(0)
    }

    /// Like [`Session::top`] but all-or-error: partial results are dropped.
    /// Prefer `top` when the caller can use a partial batch.
    pub fn try_top(&mut self, h: usize) -> Result<Vec<RankedTuple>, RerankError> {
        match self.top(h) {
            (hits, None) => Ok(hits),
            (_, Some(e)) => Err(e),
        }
    }

    /// Tuples emitted so far.
    pub fn emitted(&self) -> usize {
        self.ledger.emitted
    }

    /// Queries this session has caused against the database — exact even
    /// under concurrency: the count is taken inside the shared-state lock
    /// around this session's own cursor calls, so interleaved queries from
    /// other sessions are never attributed here.
    pub fn queries_spent(&self) -> u64 {
        self.ledger.queries_spent
    }

    /// Weighted cost units this session has been charged under the
    /// server's advertised cost model — same in-lock attribution guarantee
    /// as [`Session::queries_spent`]. On flat-model sites this equals the
    /// query count.
    pub fn cost_units_spent(&self) -> u64 {
        self.ledger.cost_units_spent
    }

    /// Queries the knowledge plane saved this session: the sealing run's
    /// whole cost once a complete cached stream has replayed, else zero.
    /// The invariant every plane session exhibits: `queries_spent +
    /// queries_saved` equals what a cold session would have spent on the
    /// same request.
    pub fn queries_saved(&self) -> u64 {
        self.ledger.queries_saved
    }

    /// Cost units of the same credit.
    pub fn cost_units_saved(&self) -> u64 {
        self.ledger.cost_units_saved
    }

    /// Retries spent so far (attempts beyond the first for a given step).
    pub fn retries_spent(&self) -> u64 {
        self.ledger.retries_spent
    }

    /// The strategy driving this session (the planner's choice is named
    /// before it is built, by the name its object will carry).
    pub fn strategy_name(&self) -> &str {
        self.driver.name()
    }

    /// Full accounting snapshot. Exact even when the last `top` returned
    /// `(hits, Some(err))`: attempts and spend are counted in-lock per
    /// cursor call, so failed and retried steps are attributed too.
    pub fn stats(&self) -> SessionStats {
        self.ledger
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // The final ledger rides out on the close event, so subscribers
        // need not track running sums; the monitor also unregisters the
        // session ordinal here. One branch and nothing else when disabled.
        self.emit_obs(|| EventKind::SessionClose {
            emitted: self.ledger.emitted as u64,
            queries_spent: self.ledger.queries_spent,
            cost_units_spent: self.ledger.cost_units_spent,
            queries_saved: self.ledger.queries_saved,
            cost_units_saved: self.ledger.cost_units_saved,
        });
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("strategy", &self.driver.name())
            .field("ledger", &self.ledger)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SessionBuilder;
    use qrs_core::strategy::{CostEstimate, PlanContext};
    use qrs_core::MdOptions;
    use qrs_datagen::synthetic::uniform;
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::{AttrId, Capability};

    fn service(n: usize, k: usize) -> RerankService {
        let data = uniform(n, 2, 1, 501);
        let server = SimServer::new(data, SystemRank::pseudo_random(7), k);
        RerankService::new(Arc::new(server), n)
    }

    fn anti_service(n: usize, k: usize) -> RerankService {
        let data = uniform(n, 2, 1, 503);
        // Adversarial system ranking to force real query spend.
        let server = SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            k,
        );
        RerankService::new(Arc::new(server), n)
    }

    fn rank2() -> Arc<dyn RankFn> {
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]))
    }

    #[test]
    fn session_streams_ranked_results() {
        let svc = service(200, 5);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (top, err) = s.top(5);
        assert!(err.is_none());
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].score <= w[1].score));
        assert_eq!(top[0].rank, 1);
        assert_eq!(top[4].rank, 5);
        assert_eq!(s.emitted(), 5);
        assert!(s.queries_spent() > 0);
    }

    #[test]
    fn one_d_auto_for_single_attribute() {
        let svc = service(200, 5);
        let rank = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));
        let mut s = svc.session(Query::all(), rank).open().unwrap();
        let (top, err) = s.top(3);
        assert!(err.is_none());
        let vals: Vec<f64> = top.iter().map(|r| r.tuple.ord(AttrId(0))).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn budget_stops_the_session() {
        let svc = anti_service(500, 3).with_budget(2);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let mut hit_budget = false;
        for _ in 0..100 {
            match s.next() {
                Err(RerankError::BudgetExhausted { spent, limit }) => {
                    assert_eq!(limit, 2);
                    assert!(spent >= 2);
                    hit_budget = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
                Ok(Some(_)) => {}
                Ok(None) => break,
            }
        }
        assert!(hit_budget, "budget of 2 queries never tripped");
    }

    #[test]
    fn per_session_budget_is_independent() {
        let svc = anti_service(500, 3);
        let mut constrained = svc.session(Query::all(), rank2()).budget(2).open().unwrap();
        let mut err = None;
        for _ in 0..100 {
            match constrained.next() {
                Err(e) => {
                    err = Some(e);
                    break;
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
            }
        }
        assert!(
            matches!(err, Some(RerankError::BudgetExhausted { limit: 2, .. })),
            "per-session budget never tripped: {err:?}"
        );
        // The service itself is unconstrained: a fresh session keeps going.
        let mut free = svc.session(Query::all(), rank2()).open().unwrap();
        let (top, err) = free.top(3);
        assert!(err.is_none());
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn one_d_rejects_multi_attribute_rank_with_typed_error() {
        let svc = service(50, 5);
        let err = svc
            .session(Query::all(), rank2())
            .algorithm(Algorithm::OneD(qrs_core::OneDStrategy::Rerank))
            .open()
            .unwrap_err();
        assert!(
            matches!(err, RerankError::InvalidAlgorithm { ref reason } if reason.contains("single-attribute")),
            "wrong error: {err}"
        );
        // No session was counted for the refused open.
        assert_eq!(svc.stats().sessions_started, 0);
    }

    #[test]
    fn plan_reflects_explicit_algorithm_choice() {
        let svc = service(50, 5);
        // Explicit choice: plan() reports it verbatim, full selection.
        let builder = svc
            .session(Query::all(), rank2())
            .algorithm(Algorithm::Md(qrs_core::MdOptions::rerank()));
        let plan = builder.plan().unwrap();
        assert!(matches!(plan.algorithm, Algorithm::Md(_)));
        assert!(plan.residual.is_none());
        assert!(plan.rationale().contains("explicit"));
        // And plan() fails exactly where open() would: an explicit TA over
        // public ORDER BY on a server that lacks it.
        let err = svc
            .session(Query::all(), rank2())
            .algorithm(Algorithm::Ta(qrs_core::md::ta::SortedAccess::PublicOrderBy))
            .plan()
            .unwrap_err();
        assert!(matches!(err, RerankError::UnsupportedCapability(_)));
        // TA over 1D sorted access carries its own name and is priced in
        // the top-k request class it actually issues, not as ORDER BY.
        let plan = svc
            .session(Query::all(), rank2())
            .algorithm(Algorithm::Ta(qrs_core::md::ta::SortedAccess::OneD))
            .plan()
            .unwrap();
        assert_eq!(plan.candidates[0].name, "ta-over-1d");
    }

    #[test]
    fn ta_public_order_by_requires_capability() {
        let svc = service(50, 5); // SimServer without with_order_by
        let err = svc
            .session(Query::all(), rank2())
            .algorithm(Algorithm::Ta(qrs_core::md::ta::SortedAccess::PublicOrderBy))
            .open()
            .unwrap_err();
        assert_eq!(
            err,
            RerankError::UnsupportedCapability(Capability::OrderBy(AttrId(0)))
        );
    }

    #[test]
    fn knowledge_accumulates_across_sessions() {
        let svc = service(300, 5);
        let rank = rank2();
        let mut s1 = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
        let (got, err) = s1.top(3);
        assert!(err.is_none() && got.len() == 3);
        drop(s1);
        let h1 = svc.knowledge();
        assert!(h1 > 0);
        let cost_before = svc.queries_issued();
        // Same request again: shared knowledge should make it cheaper.
        let mut s2 = svc.session(Query::all(), rank).open().unwrap();
        let (got, err) = s2.top(3);
        assert!(err.is_none() && got.len() == 3);
        let second_cost = svc.queries_issued() - cost_before;
        assert!(
            second_cost <= cost_before,
            "no amortization: {second_cost} vs {cost_before}"
        );
        assert_eq!(svc.stats().sessions_started, 2);
    }

    #[test]
    fn top_preserves_partials_on_budget_trip() {
        let svc = anti_service(500, 3).with_budget(30);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (hits, err) = s.top(1000);
        let err = err.expect("budget of 30 must trip before 1000 tuples");
        assert!(matches!(err, RerankError::BudgetExhausted { .. }));
        assert!(
            !hits.is_empty(),
            "tuples fetched before the trip must be preserved"
        );
        // The partial batch is still correctly ranked.
        assert!(hits.windows(2).all(|w| w[0].score <= w[1].score));
        // try_top is the all-or-error variant.
        assert!(s.try_top(10).is_err());
    }

    #[test]
    fn retries_absorb_an_outage_storm_without_wall_clock_sleeps() {
        use qrs_server::{Clock, Fault, FaultyServer, MockClock, SearchInterface};
        use qrs_types::RetryPolicy;
        let data = uniform(200, 2, 1, 601);
        let inner = Arc::new(SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        ));
        // Three consecutive outages starting at call 2.
        let faulty = FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>).with_storm(
            2,
            3,
            Fault::Outage,
        );
        let clock = Arc::new(MockClock::new());
        let svc = RerankService::new(Arc::new(faulty), 200)
            .with_retry_policy(RetryPolicy::none().attempts(5).backoff(100, 10_000))
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (hits, err) = s.top(5);
        assert!(err.is_none(), "storm should be absorbed: {err:?}");
        assert_eq!(hits.len(), 5);
        assert!(hits.windows(2).all(|w| w[0].score <= w[1].score));
        // The three faulted calls each cost one backoff sleep on the mock
        // clock (pure exponential, zero jitter). The storm struck within a
        // single cursor step or across a few, so the recorded sleeps are a
        // prefix-reset exponential sequence — but never wall-clock.
        assert_eq!(clock.sleeps().iter().sum::<u64>() % 100, 0);
        assert_eq!(s.retries_spent(), 3);
        assert!(s.stats().attempts_made > s.retries_spent());
        assert_eq!(svc.stats().retries_spent, 3);
    }

    #[test]
    fn retry_after_hint_dominates_backoff_and_is_honored_exactly() {
        use qrs_server::{Clock, Fault, FaultyServer, MockClock, SearchInterface};
        use qrs_types::RetryPolicy;
        let data = uniform(200, 2, 1, 607);
        let inner = Arc::new(SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        ));
        let clock = Arc::new(MockClock::new());
        // The fault carries a 7300 ms hint and the server *enforces* it:
        // any retry before the window elapses is refused again.
        let faulty = FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
            .with_fault_at(
                1,
                Fault::RateLimit {
                    retry_after_ms: Some(7300),
                },
            )
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let svc = RerankService::new(Arc::new(faulty), 200)
            // Computed backoff would be 50 ms — far below the hint.
            .with_retry_policy(
                RetryPolicy::none()
                    .attempts(4)
                    .backoff(50, 100_000)
                    .jitter(25),
            )
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (hits, err) = s.top(3);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(hits.len(), 3);
        // Exactly one retry, slept for exactly the server's hint: had the
        // session retried early, the enforcing server would have refused
        // again and the retry count would exceed 1.
        assert_eq!(clock.sleeps(), vec![7300]);
        assert_eq!(s.retries_spent(), 1);
    }

    #[test]
    fn failed_attempts_keep_in_lock_query_attribution_exact() {
        use qrs_server::{Fault, FaultyServer, SearchInterface};
        use qrs_types::RetryPolicy;
        // Truncated pages are charged by the backend but error out: the
        // session must still attribute those queries to itself, so spend
        // sums to the global counter even under retries. Regression for
        // counting outside the lock / only on the happy path.
        let data = uniform(300, 2, 1, 617);
        let inner = Arc::new(SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        ));
        let faulty = Arc::new(
            FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
                .with_fault_at(3, Fault::TruncatedPage)
                .with_fault_at(7, Fault::TruncatedPage),
        );
        let svc = RerankService::new(Arc::clone(&faulty) as Arc<dyn SearchInterface>, 300)
            .with_retry_policy(RetryPolicy::none().attempts(4));
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (hits, err) = s.top(6);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(hits.len(), 6);
        assert_eq!(
            s.queries_spent(),
            svc.queries_issued(),
            "failed attempts' spend must be attributed to the session"
        );
        assert_eq!(s.retries_spent(), 2);
        let stats = s.stats();
        assert_eq!(stats.queries_spent, s.queries_spent());
        assert_eq!(stats.retries_spent, 2);
        assert!(stats.attempts_made >= 2 + hits.len() as u64);
    }

    #[test]
    fn server_rate_limit_surfaces_with_partials() {
        use qrs_server::{Fault, FaultyServer, SearchInterface};
        let data = uniform(400, 2, 1, 509);
        let site = || -> Arc<dyn SearchInterface> {
            Arc::new(SimServer::new(
                data.clone(),
                SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
                3,
            ))
        };
        // A clean run counts the calls its first emission takes.
        let clean = Arc::new(FaultyServer::new(site()));
        let svc = RerankService::new(Arc::clone(&clean) as Arc<dyn SearchInterface>, 400);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        assert!(s.next().unwrap().is_some());
        let first = clean.calls_seen();
        // A storm of 429s from the next call on, past any retry budget.
        let storm = Fault::RateLimit {
            retry_after_ms: None,
        };
        let server = FaultyServer::new(site()).with_storm(first, 1000, storm);
        let svc = RerankService::new(Arc::new(server), 400);
        let mut s = svc.session(Query::all(), rank2()).open().unwrap();
        let (hits, err) = s.top(1000);
        match err {
            Some(RerankError::Server(e)) => assert!(e.is_transient()),
            other => panic!("expected a server error, got {other:?}"),
        }
        // What was emitted before the 429 is kept: the dense ranking's
        // prefix, score for score.
        assert!(!hits.is_empty(), "the partial stream was dropped");
        let rank = rank2();
        let truth = data.rank_by(&Query::all(), |t| rank.score(t));
        let got: Vec<u64> = hits.iter().map(|h| h.score.to_bits()).collect();
        let want: Vec<u64> = (truth.iter().take(hits.len()))
            .map(|t| rank.score(t).to_bits())
            .collect();
        assert_eq!(got, want);
    }

    /// A sealed stream handed out by `top` in one pass reads, to an
    /// observer and to the books, as that many `next` calls: one
    /// `RequestIssued` a tuple, in order, then the full-replay credit with
    /// the last one — also when `top` asks for exactly the stream and so
    /// never pulls past it.
    #[test]
    fn a_replay_in_one_pass_reads_as_single_pulls() {
        use qrs_knowledge::KnowledgePlane;
        use qrs_obs::{ObsHandle, Recorder};
        use qrs_types::Interval;
        let recorder = Arc::new(Recorder::with_capacity(1 << 10));
        let obs = ObsHandle::builder("one-pass")
            .subscriber(Arc::clone(&recorder) as _)
            .build();
        let svc = service(60, 5)
            .with_knowledge(Arc::new(KnowledgePlane::new()), "site")
            .with_observer(obs);
        let sel = Query::all().and_range(AttrId(0), Interval::closed(0.0, 0.3));
        let sealed = (svc.session(sel.clone(), rank2()).open().unwrap())
            .try_top(usize::MAX)
            .unwrap();
        assert!(sealed.len() > 1, "{} tuples", sealed.len());
        recorder.drain();
        // What the books and the observer see of one replay.
        let replay = |pull: &dyn Fn(&mut Session<'_>) -> Vec<RankedTuple>| {
            let before = svc.stats();
            let mut session = svc.session(sel.clone(), rank2()).open().unwrap();
            let rows = pull(&mut session);
            let saved = session.queries_saved();
            drop(session);
            let after = svc.stats();
            let kinds: Vec<EventKind> = recorder.drain().into_iter().map(|e| e.kind).collect();
            let scores: Vec<u64> = rows.iter().map(|r| r.score.to_bits()).collect();
            let moved = (
                after.tuples_emitted - before.tuples_emitted,
                after.queries_saved - before.queries_saved,
            );
            (scores, saved, moved, kinds)
        };
        let n = sealed.len();
        let singles = replay(&|s| (0..n).map(|_| s.next().unwrap().unwrap()).collect());
        let batch = replay(&|s| s.try_top(n).unwrap());
        assert!(singles.1 > 0, "a whole sealed stream is credited");
        assert_eq!(batch, singles);
        let issued = |kinds: &[EventKind]| {
            (kinds.iter())
                .filter(|k| matches!(k, EventKind::RequestIssued { .. }))
                .count()
        };
        assert_eq!(issued(&batch.3), n);
        assert!(matches!(batch.3[n + 1], EventKind::KnowledgeHit { .. }));
    }

    /// A custom strategy that prices one page of the server query.
    struct Registered;

    impl RerankStrategy for Registered {
        fn name(&self) -> &str {
            "registered-scan"
        }

        fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
            let cost = &ctx.caps.cost;
            CostEstimate::priced(1, cost, ctx.server_query, RequestKind::Page)
        }

        fn next_step(&mut self, _io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
            Ok(StrategyStep::Exhausted)
        }
    }

    /// Open `builder()` and check it runs the plan `builder().plan()`
    /// reports, reading the open event's estimate off `recorder`;
    /// `bypassed` is the algorithm of a session that drives an object from
    /// open, a custom one.
    fn agree<'s>(
        recorder: &qrs_obs::Recorder,
        case: &str,
        bypassed: Option<Algorithm>,
        builder: &dyn Fn() -> SessionBuilder<'s>,
    ) {
        let plan = match builder().plan() {
            Ok(plan) => plan,
            Err(refused) => {
                assert_eq!(builder().open().unwrap_err(), refused, "{case}");
                return;
            }
        };
        let session = builder().open().unwrap();
        let opened = recorder.drain().into_iter().find_map(|e| match e.kind {
            EventKind::SessionOpen {
                predicted_queries,
                predicted_cost_units,
                ..
            } => Some((predicted_queries, predicted_cost_units)),
            _ => None,
        });
        let estimate = (plan.estimate.queries, plan.estimate.cost_units);
        assert_eq!(opened, Some(estimate), "{case}");
        assert_eq!(session.strategy_name(), plan.candidates[0].name, "{case}");
        assert_eq!(session.residual, plan.residual, "{case}");
        match &session.driver {
            Driver::Planned { algorithm, shaped } => {
                assert_eq!(*algorithm, plan.algorithm, "{case}");
                let server_query = shaped.as_ref().unwrap_or(&session.sel);
                assert_eq!(*server_query, plan.server_query, "{case}");
            }
            Driver::Built(object) => {
                assert_eq!(Some(plan.algorithm), bypassed, "{case}");
                assert_eq!(object.name(), plan.candidates[0].name, "{case}");
                assert_eq!(session.sel, plan.server_query, "{case}");
            }
        }
    }

    /// `open` runs what `plan()` reports, over every catalog profile and
    /// the requests `tests/plan_rationale.rs` pins (two database sizes,
    /// 1- to 3-attribute rankings, three selections, an explicit choice
    /// and a custom strategy), every built-in algorithm as an explicit
    /// choice on every profile, and one tie between candidates: the same
    /// algorithm, server query, residual and strategy name, and the same
    /// estimate on the open event — or the same refusal.
    #[test]
    fn open_runs_what_plan_reports() {
        use qrs_core::md::ta::SortedAccess;
        use qrs_core::OneDStrategy;
        use qrs_obs::{ObsHandle, Recorder};
        use qrs_server::SiteProfile;
        use qrs_types::{CatId, CatPredicate, Direction, Interval};
        let rank = |m: usize| -> Arc<dyn RankFn> {
            let terms = [
                (AttrId(0), Direction::Asc, 0.5),
                (AttrId(1), Direction::Desc, 0.3),
                (AttrId(2), Direction::Asc, 0.2),
            ];
            Arc::new(LinearRank::new(terms[..m].to_vec()))
        };
        let range = Query::all().and_range(AttrId(0), Interval::open(0.2, 0.9));
        let both = range.clone().and_cat(CatPredicate::eq(CatId(0), 1));
        let sels = [Query::all(), range, both];
        let recorder = Arc::new(Recorder::with_capacity(1 << 12));
        let service = |profile: &SiteProfile, n: usize| {
            let server = profile.build(uniform(40, 3, 1, 5), SystemRank::pseudo_random(9));
            let obs = ObsHandle::builder("agree")
                .subscriber(Arc::clone(&recorder) as _)
                .build();
            RerankService::new(Arc::new(server), n).with_observer(obs)
        };
        // Every built-in algorithm, with a ranking of an arity it takes.
        let explicit = [
            (Algorithm::OneD(OneDStrategy::Rerank), 1),
            (Algorithm::OneD(OneDStrategy::Baseline), 1),
            (Algorithm::Md(MdOptions::rerank()), 2),
            (Algorithm::Md(MdOptions::baseline()), 3),
            (Algorithm::Ta(SortedAccess::OneD), 2),
            (Algorithm::Ta(SortedAccess::PublicOrderBy), 2),
            (Algorithm::PageDown { max_pages: 20 }, 2),
            (
                Algorithm::PageDown {
                    max_pages: usize::MAX,
                },
                1,
            ),
        ];
        for profile in SiteProfile::catalog(10) {
            for n in [150, 2_000] {
                let svc = service(&profile, n);
                for m in 1..=3 {
                    for sel in &sels {
                        let case = format!("{} n={n} m={m} sel={sel}", profile.name);
                        agree(&recorder, &case, None, &|| {
                            svc.session(sel.clone(), rank(m))
                        });
                    }
                }
            }
            let svc = service(&profile, 2_000);
            for (algorithm, m) in explicit {
                let case = format!("{} explicit {algorithm:?}", profile.name);
                agree(&recorder, &case, None, &|| {
                    svc.session(sels[1].clone(), rank(m)).algorithm(algorithm)
                });
            }
        }
        // A tie: at n = 80 and a horizon of one tuple the 1-D cursor and
        // page-down are priced alike, and both take the first in the
        // paper's order.
        let svc = service(&SiteProfile::open_site(10), 80);
        let tied = || svc.session(Query::all(), rank(1)).horizon(1);
        let ranked = tied().plan().unwrap().candidates;
        assert_eq!(ranked[0].estimate, ranked[1].estimate, "no tie to break");
        agree(&recorder, "open_site n=80 m=1 h=1", None, &tied);
        let svc = service(&SiteProfile::open_site(10), 2_000);
        agree(&recorder, "custom", Some(Algorithm::Custom), &|| {
            (svc.session(Query::all(), rank(2))).strategy(Box::new(Registered))
        });
    }
}
