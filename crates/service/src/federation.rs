//! Federated reranking across multiple hidden databases.
//!
//! §1's motivating application ranks the same preference "across multiple
//! web databases (e.g., multiple car dealers)". A [`FederatedSession`] owns
//! one [`Session`] per backing service and merges their Get-Next streams by
//! user score — a k-way merge that stays *exact* because each stream is
//! exact and emitted in non-decreasing score order.
//!
//! The sources may have different system rankings, different `k`s and
//! different inventories; they only need schemas carrying the ranking
//! function's attributes.
//!
//! ## Per-source health and degraded merges
//!
//! By default an error from any source propagates (and the merge resumes
//! exactly on retry). With a circuit policy set
//! ([`FederatedSession::with_circuit`]), each source carries
//! consecutive-failure circuit state instead: a source that keeps failing
//! **trips** and silently leaves the merge, which completes over the
//! healthy sources and reports the casualty in a typed per-source
//! [`SourceReport`] — one failing dealer degrades the federation, it does
//! not kill it. Retryable failures below the threshold are re-pulled
//! immediately (each source's service retry policy has already done the
//! backoff); errors a re-pull can never heal — capability
//! mismatches, exhausted budgets, a session that already consumed its
//! whole retry policy — trip the circuit at once. If *every* source trips,
//! the merge surfaces the last error instead of masquerading as an empty
//! result.
//!
//! ## Half-open circuits
//!
//! With a cool-down configured ([`qrs_types::CircuitPolicy::cooldown`]), a
//! tripped source is not gone for good: once the cool-down elapses on its
//! service's injectable clock, the merge admits exactly **one probe pull**.
//! Success closes the circuit — the source rejoins the merge mid-stream,
//! its cursor resuming exactly where the failures struck (queries already
//! paid for are never re-paid). Failure re-trips the circuit and restarts
//! the cool-down, so a permanently dead backend costs one probe per window
//! instead of one failed pull per merge step.
//!
//! ## Parallel fan-out
//!
//! With an executor attached ([`FederatedSession::with_executor`]), the
//! merge fans its per-source pulls — the initial priming of every head,
//! and due half-open probes — across the pool instead of visiting sources
//! one by one. Merge *semantics* are untouched: results are committed in
//! source order after the fan-out joins, each source still sees exactly
//! the same sequence of pulls it would serially (its own session/circuit
//! state advances under its own service's locks), and the winner-refill
//! step stays single-source. Against slow (network-latency) backends the
//! fan-out overlaps the waits.
//!
//! A source's *retry policy* is its own service's
//! ([`RerankService::with_retry_policy`]): build a fast dealer's service
//! with aggressive retries and a slow one's with few, so it fails over to
//! the circuit quickly.
//!
//! ## Shared knowledge across sources
//!
//! A federation amortizes across *tenants* the same way a single service
//! does: build every source's [`RerankService`] with the **same**
//! [`crate::KnowledgePlane`] (each under its own source name) and every
//! federated session records what it learns per source while consulting
//! what earlier sessions — federated or not — already bought there. The
//! plane shards per source, so dealers never pollute each other's caches,
//! and one dealer's inventory change is one epoch bump
//! ([`crate::KnowledgePlane::invalidate`]) that leaves the other sources'
//! knowledge intact. Per-source savings surface in
//! [`FederatedSession::session_stats`] as `queries_saved` /
//! `cost_units_saved`.

use crate::service::{Algorithm, RerankService, SessionSpec};
use crate::session::{RankedTuple, Session, SessionStats};
use qrs_exec::Executor;
use qrs_obs::EventKind;
use qrs_ranking::RankFn;
use qrs_types::{CircuitPolicy, Query, RerankError};
use std::sync::Arc;

/// A hit from a federated stream: which source produced it, plus the tuple.
#[derive(Debug, Clone)]
pub struct FederatedHit {
    /// Index into the sources passed to [`FederatedSession::open`].
    pub source: usize,
    /// The tuple, with its federation-wide rank and user score.
    pub hit: RankedTuple,
}

/// Per-source circuit state, reported by [`FederatedSession::report`].
#[derive(Debug, Clone)]
pub struct SourceReport {
    /// Index into the sources passed to [`FederatedSession::open`].
    pub source: usize,
    /// Failures since the last successful pull from this source.
    pub consecutive_failures: u32,
    /// The circuit is open: the source has been dropped from the merge
    /// (until a cool-down admits a probe, if one is configured).
    pub tripped: bool,
    /// Times this source's circuit has tripped over the session's lifetime
    /// (re-trips after failed half-open probes included).
    pub trips: u64,
    /// Half-open probe pulls admitted after cool-downs.
    pub probes_admitted: u64,
    /// The most recent error this source produced, if any.
    pub last_error: Option<RerankError>,
    /// The source session's full accounting snapshot — emitted tuples,
    /// raw queries *and* weighted cost units spent — so a federation
    /// post-mortem reads what each source actually billed, not just
    /// whether it tripped.
    pub stats: SessionStats,
}

#[derive(Debug, Clone, Default)]
struct SourceHealth {
    consecutive_failures: u32,
    last_error: Option<RerankError>,
    /// The source's service-clock reading at the moment of the last trip
    /// (drives the half-open cool-down); `None` while the circuit is
    /// closed.
    tripped_at_ms: Option<u64>,
    trips: u64,
    probes_admitted: u64,
}

impl SourceHealth {
    /// Whether the circuit is open.
    fn tripped(&self) -> bool {
        self.tripped_at_ms.is_some()
    }

    /// Whether a tripped source's cool-down has elapsed on its service
    /// clock. Never, without a cool-down — and then the clock is not read.
    fn probe_due(&self, circuit: Option<CircuitPolicy>, sess: &Session<'_>) -> bool {
        match (circuit.and_then(|c| c.cooldown_ms), self.tripped_at_ms) {
            (Some(cd), Some(at)) => sess.svc().clock().now_ms() >= at.saturating_add(cd),
            _ => false,
        }
    }

    /// Open the circuit at `now` (again, after a failed probe), restarting
    /// the cool-down.
    fn trip(&mut self, sess: &Session<'_>, now: u64) {
        self.trips += 1;
        self.tripped_at_ms = Some(now);
        let trips = self.trips;
        sess.emit_obs(|| EventKind::CircuitTrip { trips });
    }
}

/// Pull the next tuple from one source, tracking its circuit state.
///
/// A free function over *disjoint* per-source state so the parallel
/// fan-out can run one call per source concurrently — each source's
/// session and health advance independently, exactly as they would
/// serially.
///
/// Returns `Ok(None)` when the source is exhausted *or* its circuit is
/// open (and no probe is due). Without a circuit policy, errors propagate
/// untouched (the legacy resume-exactly contract). With one, retryable
/// failures below the threshold strike and re-pull immediately — the
/// source's service retry policy has already slept through backoff —
/// and the loop is bounded by the threshold, so it can never hang. An
/// error that an immediate re-pull can never heal
/// (`!RerankError::is_retryable()`: capability mismatches, budget
/// exhaustion, a session that already burned its whole retry policy)
/// trips the circuit on the first strike instead of wasting the
/// threshold on deterministic failures.
///
/// A tripped source whose cool-down has elapsed (on its own service's
/// clock) admits exactly one probe pull: success closes the circuit and
/// returns the tuple, failure re-trips and restarts the cool-down.
fn pull_source(
    sess: &mut Session<'_>,
    h: &mut SourceHealth,
    circuit: Option<CircuitPolicy>,
) -> Result<Option<RankedTuple>, RerankError> {
    loop {
        let probe = h.tripped();
        if probe {
            if !h.probe_due(circuit, sess) {
                return Ok(None);
            }
            h.probes_admitted += 1;
        }
        let e = match sess.next() {
            Ok(t) => {
                h.consecutive_failures = 0;
                if probe {
                    h.tripped_at_ms = None;
                    sess.emit_obs(|| EventKind::CircuitProbe { reopened: true });
                }
                return Ok(t);
            }
            Err(e) => e,
        };
        h.consecutive_failures += 1;
        h.last_error = Some(e.clone());
        // Only a tripped source probes, and only a circuit trips one.
        let Some(c) = circuit else { return Err(e) };
        if probe {
            sess.emit_obs(|| EventKind::CircuitProbe { reopened: false });
        }
        if probe || !e.is_retryable() || h.consecutive_failures >= c.failure_threshold {
            h.trip(sess, sess.svc().clock().now_ms());
            return Ok(None);
        }
    }
}

/// One user query + ranking function over several services, merged exactly.
pub struct FederatedSession<'a> {
    sessions: Vec<Session<'a>>,
    /// Head of each stream, pulled lazily.
    heads: Vec<Option<RankedTuple>>,
    /// Per-source: has `heads[i]` been filled at least once? Tracked per
    /// index so an error priming one source never re-pulls (and thereby
    /// skips tuples of) sources already primed.
    primed: Vec<bool>,
    emitted: usize,
    /// Circuit-breaker policy. `None` (default) propagates every error.
    circuit: Option<CircuitPolicy>,
    health: Vec<SourceHealth>,
    /// Fan per-source pulls (priming, due probes) across this executor.
    /// `None` (default) pulls serially.
    executor: Option<Arc<Executor>>,
}

impl<'a> FederatedSession<'a> {
    /// Open one session per service with the same selection and ranking
    /// function; each runs its own service's retry policy. Fails fast if
    /// any source refuses the request (capability or algorithm preflight)
    /// — a federation with a silently missing source would return wrong
    /// global ranks.
    pub fn open(
        services: &'a [&'a RerankService],
        sel: Query,
        rank: Arc<dyn RankFn>,
        algo: Algorithm,
    ) -> Result<Self, RerankError> {
        let spec = SessionSpec {
            algo,
            ..SessionSpec::default()
        };
        let sessions: Vec<Session<'a>> = services
            .iter()
            .map(|svc| {
                svc.session_with(sel.clone(), Arc::clone(&rank), spec.clone())
                    .open()
            })
            .collect::<Result<_, _>>()?;
        let n = sessions.len();
        Ok(FederatedSession {
            sessions,
            heads: (0..n).map(|_| None).collect(),
            primed: vec![false; n],
            emitted: 0,
            circuit: None,
            health: vec![SourceHealth::default(); n],
            executor: None,
        })
    }

    /// Degrade instead of dying: a source whose pulls fail
    /// `policy.failure_threshold` times in a row (or fail non-retryably
    /// even once) trips its circuit and leaves the merge; the remaining
    /// sources' exact merged stream continues and
    /// [`FederatedSession::report`] carries the typed per-source
    /// post-mortem. With a cool-down ([`CircuitPolicy::cooldown`]) a
    /// tripped source admits one probe pull per elapsed window and rejoins
    /// the merge on success.
    pub fn with_circuit(mut self, policy: CircuitPolicy) -> Self {
        self.circuit = Some(policy);
        self
    }

    /// Fan per-source pulls (head priming, due half-open probes) across
    /// `executor` instead of visiting sources serially. Results are
    /// committed in source order after the fan-out joins, so the merged
    /// stream is exactly the serial one.
    pub fn with_executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Pull the next tuple from source `i` (serial path).
    fn pull(&mut self, i: usize) -> Result<Option<RankedTuple>, RerankError> {
        pull_source(&mut self.sessions[i], &mut self.health[i], self.circuit)
    }

    /// Whether source `i` needs a pull before the next merge step: never
    /// primed, or tripped with its head empty and a half-open probe *due*
    /// on its service clock. Tripped sources that can never rejoin (no
    /// cool-down, so no clock read) or are still cooling must not defeat
    /// the steady-state fast path — one clock read here is far cheaper than
    /// a fan-out task per merge step.
    fn needs_pull(&self, i: usize) -> bool {
        !self.primed[i]
            || (self.heads[i].is_none()
                && self.health[i].probe_due(self.circuit, &self.sessions[i]))
    }

    /// Fill every head that needs filling — the initial prime and any due
    /// half-open probes — serially or fanned across the executor.
    ///
    /// Both paths commit results in source order and leave successfully
    /// pulled heads in place even when another source errors, so no paid
    /// tuple is ever dropped and a retry after a transient failure
    /// resumes exactly. (The parallel path may have advanced sources the
    /// serial path would not have reached before erroring — each source's
    /// own pull sequence is unchanged either way, and those heads are
    /// buffered, not lost.)
    fn fill_heads(&mut self) -> Result<(), RerankError> {
        let n = self.sessions.len();
        // Steady state — every head primed, nothing probe-due — is one
        // allocation-free scan per merge step; the `need` vector is only
        // materialized (and each source only tested once) when some source
        // actually wants a pull.
        let mut need: Option<Vec<bool>> = None;
        for i in 0..n {
            if self.needs_pull(i) {
                need.get_or_insert_with(|| vec![false; n])[i] = true;
            }
        }
        let Some(need) = need else {
            return Ok(());
        };
        let fanout = need.iter().filter(|&&b| b).count() > 1;
        match self.executor.clone() {
            Some(exec) if fanout => {
                let circuit = self.circuit;
                let pulls: Vec<Option<Result<Option<RankedTuple>, RerankError>>> = {
                    let sessions = &mut self.sessions;
                    let health = &mut self.health;
                    exec.scope(|s| {
                        let handles: Vec<_> = sessions
                            .iter_mut()
                            .zip(health.iter_mut())
                            .zip(&need)
                            .map(|((sess, h), &go)| {
                                go.then(|| s.spawn(move || pull_source(sess, h, circuit)))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|o| o.map(qrs_exec::TaskHandle::join))
                            .collect()
                    })
                };
                let mut first_err = None;
                for (i, pull) in pulls.into_iter().enumerate() {
                    match pull {
                        None => {}
                        Some(Ok(head)) => {
                            self.heads[i] = head;
                            self.primed[i] = true;
                        }
                        Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                        Some(Err(_)) => {}
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
            _ => {
                for (i, &go) in need.iter().enumerate() {
                    if go {
                        self.heads[i] = self.pull(i)?;
                        self.primed[i] = true;
                    }
                }
                Ok(())
            }
        }
    }

    /// The globally next-best tuple across all sources.
    ///
    /// Not an `Iterator`: each step can fail on a source's budget or
    /// server, and callers need that error, not a silent stop. An `Err`
    /// consumes nothing: the winning head stays buffered, so a retry
    /// after a transient failure resumes the merge without skipping or
    /// dropping any source's tuples.
    ///
    /// With [`FederatedSession::with_circuit`] set, source
    /// failures are absorbed into circuit state instead of surfacing here:
    /// a persistently failing source trips and leaves the merge, and this
    /// method keeps returning the remaining sources' exact merged stream.
    /// The one exception is total failure — *every* source tripped: that
    /// surfaces the last recorded error instead of `Ok(None)`, so a dead
    /// federation is never mistaken for a legitimately empty result (a
    /// tripped source may still recover through a half-open probe once its
    /// cool-down elapses, after which this method resumes returning hits).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<FederatedHit>, RerankError> {
        self.fill_heads()?;
        let best = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|r| (i, r.score)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
        let Some(i) = best else {
            if !self.health.is_empty() && self.health.iter().all(SourceHealth::tripped) {
                let e = self
                    .health
                    .iter()
                    .rev()
                    .find_map(|h| h.last_error.clone())
                    .expect("a tripped source always records its error");
                return Err(e);
            }
            return Ok(None);
        };
        // Refill *before* taking the current head: if the refill fails, the
        // head is still in place and a retry re-enters here cleanly.
        let refill = self.pull(i)?;
        let hit = std::mem::replace(&mut self.heads[i], refill).expect("head checked above");
        self.emitted += 1;
        Ok(Some(FederatedHit {
            source: i,
            hit: RankedTuple {
                rank: self.emitted,
                ..hit
            },
        }))
    }

    /// The federated top `h` (shorter if all sources are exhausted).
    ///
    /// Partial results survive failure, mirroring `Session::top`: hits
    /// merged before a source failed are returned alongside the error.
    pub fn top(&mut self, h: usize) -> (Vec<FederatedHit>, Option<RerankError>) {
        let mut out = Vec::with_capacity(h);
        while out.len() < h {
            match self.next() {
                Ok(Some(f)) => out.push(f),
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
        }
        (out, None)
    }

    /// Tuples emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Typed per-source health report: circuit state, consecutive-failure
    /// count, trip/probe tallies, the last error each source produced, and
    /// the source session's spend accounting (queries and weighted cost
    /// units).
    pub fn report(&self) -> Vec<SourceReport> {
        self.health
            .iter()
            .zip(&self.sessions)
            .enumerate()
            .map(|(source, (h, sess))| SourceReport {
                source,
                consecutive_failures: h.consecutive_failures,
                tripped: h.tripped(),
                trips: h.trips,
                probes_admitted: h.probes_admitted,
                last_error: h.last_error.clone(),
                stats: sess.stats(),
            })
            .collect()
    }

    /// Per-source session accounting (emitted, queries/attempts/retries
    /// spent), aligned with the sources passed to
    /// [`FederatedSession::open`]. Summing `queries_spent` across sources
    /// reconciles the federation against each backend's ledger — the
    /// consistency the parallel-vs-serial equivalence tests assert.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.sessions.iter().map(Session::stats).collect()
    }

    /// Indices of sources whose circuit has tripped (dropped from the merge).
    pub fn tripped_sources(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.tripped().then_some(i))
            .collect()
    }
}

impl std::fmt::Debug for FederatedSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedSession")
            .field("sources", &self.sessions.len())
            .field("emitted", &self.emitted)
            .field("circuit", &self.circuit)
            .field("tripped", &self.tripped_sources())
            .field("parallel", &self.executor.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_datagen::synthetic::uniform;
    use qrs_ranking::LinearRank;
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::value::cmp_f64;
    use qrs_types::AttrId;

    fn svc(seed: u64, n: usize) -> (RerankService, qrs_types::Dataset) {
        let data = uniform(n, 2, 1, seed);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(seed), 5);
        (RerankService::new(Arc::new(server), n), data)
    }

    fn rank() -> Arc<dyn RankFn> {
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]))
    }

    #[test]
    fn merge_is_globally_sorted_and_complete() {
        let (a, da) = svc(1, 120);
        let (b, db) = svc(2, 80);
        let services = [&a, &b];
        let mut fed =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
        let (got, err) = fed.top(30);
        assert!(err.is_none());
        assert_eq!(got.len(), 30);
        // Non-decreasing scores, ranks 1..=30.
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.hit.rank, i + 1);
            if i > 0 {
                assert!(got[i - 1].hit.score <= f.hit.score);
            }
        }
        // Matches the brute-force union ranking.
        let r = rank();
        let mut union: Vec<f64> = da
            .tuples()
            .iter()
            .chain(db.tuples().iter())
            .map(|t| r.score(t))
            .collect();
        union.sort_by(|x, y| cmp_f64(*x, *y));
        let want: Vec<f64> = union.into_iter().take(30).collect();
        let gots: Vec<f64> = got.iter().map(|f| f.hit.score).collect();
        assert_eq!(gots, want);
        // Both sources contribute.
        assert!(got.iter().any(|f| f.source == 0));
        assert!(got.iter().any(|f| f.source == 1));
    }

    #[test]
    fn exhausts_all_sources() {
        let (a, _) = svc(3, 25);
        let (b, _) = svc(4, 15);
        let services = [&a, &b];
        let mut fed =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
        let (got, err) = fed.top(1000);
        assert!(err.is_none());
        assert_eq!(got.len(), 40);
        assert!(fed.next().unwrap().is_none());
        assert_eq!(fed.emitted(), 40);
    }

    #[test]
    fn report_carries_weighted_spend_per_source() {
        use qrs_types::CostModel;
        // Source 0 is flat; source 1 meters page turns — a post-mortem
        // must show each source's weighted bill, not just query counts.
        let (flat, _) = svc(31, 40);
        let metered_data = uniform(40, 2, 1, 32);
        let metered_server = SimServer::new(
            metered_data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            5,
        )
        .with_capabilities(
            qrs_server::Capabilities::none().with_cost_model(CostModel::flat().with_range_cost(2)),
        );
        let metered = RerankService::new(Arc::new(metered_server), 40);
        let services = [&flat, &metered];
        let mut fed =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
        let (got, err) = fed.top(10);
        assert!(err.is_none());
        assert_eq!(got.len(), 10);
        let report = fed.report();
        let stats = fed.session_stats();
        for (r, s) in report.iter().zip(&stats) {
            assert_eq!(r.stats, *s, "report and session_stats must agree");
        }
        // Flat source: cost == queries. Metered source: range-filtered MD
        // box queries cost more than their raw count.
        assert_eq!(
            report[0].stats.cost_units_spent,
            report[0].stats.queries_spent
        );
        assert!(report[1].stats.queries_spent > 0);
        assert!(report[1].stats.cost_units_spent > report[1].stats.queries_spent);
        // Per-source attribution reconciles against each backend's ledger.
        assert_eq!(
            report[1].stats.cost_units_spent,
            metered.server().cost_units_issued()
        );
    }

    #[test]
    fn merge_resumes_without_gaps_after_transient_errors() {
        // One source keeps tripping a tiny service budget; after each trip
        // the budget window is reset (a "new day") and the merge retried.
        // The final merged stream must equal the brute-force union ranking
        // exactly — no tuple dropped with the taken head, none skipped by
        // re-priming an already-primed source.
        let data_a = uniform(60, 2, 1, 7);
        let server_a = SimServer::new(
            data_a.clone(),
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        );
        let constrained = RerankService::new(Arc::new(server_a), 60).with_budget(5);
        let (free, data_b) = svc(8, 40);
        let services = [&free, &constrained];
        let mut fed =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
        let mut got = Vec::new();
        let mut trips = 0;
        loop {
            match fed.next() {
                Ok(Some(f)) => got.push(f.hit.score),
                Ok(None) => break,
                Err(e) => {
                    assert!(e.is_transient(), "unexpected terminal error {e}");
                    trips += 1;
                    assert!(trips < 1000, "merge never completed");
                    constrained.budget().reset(constrained.queries_issued());
                }
            }
        }
        assert!(trips > 0, "budget of 5 never tripped — test is vacuous");
        let r = rank();
        let mut want: Vec<f64> = data_a
            .tuples()
            .iter()
            .chain(data_b.tuples().iter())
            .map(|t| r.score(t))
            .collect();
        want.sort_by(|x, y| cmp_f64(*x, *y));
        assert_eq!(got, want, "resumed merge has gaps or duplicates");
    }

    #[test]
    fn one_dead_dealer_degrades_the_merge_instead_of_killing_it() {
        use qrs_server::{FaultyServer, SearchInterface};
        // Source 1's backend is permanently down from the very first call.
        let (a, data_a) = svc(21, 80);
        let dead_inner = Arc::new(SimServer::new(
            uniform(50, 2, 1, 22),
            SystemRank::pseudo_random(22),
            5,
        ));
        let dead = Arc::new(
            FaultyServer::new(dead_inner as Arc<dyn SearchInterface>).with_permanent_outage_from(0),
        );
        let dead_svc = RerankService::new(dead as Arc<dyn SearchInterface>, 50);
        let (c, data_c) = svc(23, 60);
        let services = [&a, &dead_svc, &c];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(3));
        let (got, err) = fed.top(25);
        assert!(err.is_none(), "degraded merge must complete: {err:?}");
        assert_eq!(got.len(), 25);
        // Exactly the merged top-25 of the two healthy sources.
        let r = rank();
        let mut want: Vec<f64> = data_a
            .tuples()
            .iter()
            .chain(data_c.tuples().iter())
            .map(|t| r.score(t))
            .collect();
        want.sort_by(|x, y| cmp_f64(*x, *y));
        want.truncate(25);
        let gots: Vec<f64> = got.iter().map(|f| f.hit.score).collect();
        assert_eq!(gots, want);
        assert!(got.iter().all(|f| f.source != 1));
        // The typed per-source post-mortem.
        assert_eq!(fed.tripped_sources(), vec![1]);
        let report = fed.report();
        assert!(!report[0].tripped && report[0].last_error.is_none());
        assert!(report[1].tripped);
        assert_eq!(report[1].consecutive_failures, 3);
        assert!(matches!(
            report[1].last_error,
            Some(RerankError::Server(ref e)) if e.is_transient()
        ));
        assert!(!report[2].tripped && report[2].last_error.is_none());
    }

    #[test]
    fn non_transient_failure_trips_the_circuit_immediately() {
        use qrs_server::SiteProfile;
        use qrs_types::Capability;
        // A dropdown site that stops at 4 pages, fronted by a service
        // whose size estimate (20) understates its 40 tuples: page-down
        // plans (4 pages drain 20) and then hits the depth wall mid-stream
        // — the planner's documented precondition. The refusal is
        // non-transient, so the circuit must trip on the first strike
        // instead of burning the whole threshold on re-pulls.
        let (a, _) = svc(31, 40);
        let walled = SiteProfile {
            max_pages: Some(4),
            ..SiteProfile::classifieds(5)
        }
        .build(uniform(40, 2, 1, 32), SystemRank::pseudo_random(31));
        let walled = RerankService::new(Arc::new(walled), 20);
        let services = [&a, &walled];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(10));
        let (got, err) = fed.top(10);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(got.len(), 10);
        let report = fed.report();
        assert!(report[1].tripped);
        assert_eq!(report[1].consecutive_failures, 1);
        assert_eq!(
            report[1].last_error,
            Some(RerankError::UnsupportedCapability(Capability::PageDepth(5)))
        );
    }

    #[test]
    fn total_failure_surfaces_an_error_not_an_empty_result() {
        use qrs_server::{FaultyServer, SearchInterface};
        // Every source dead: the degraded merge must NOT masquerade as a
        // legitimately empty stream — callers get the last typed error.
        let mk_dead = |seed: u64| {
            let inner = Arc::new(SimServer::new(
                uniform(30, 2, 1, seed),
                SystemRank::pseudo_random(seed),
                5,
            ));
            let dead = Arc::new(
                FaultyServer::new(inner as Arc<dyn SearchInterface>).with_permanent_outage_from(0),
            );
            RerankService::new(dead as Arc<dyn SearchInterface>, 30)
        };
        let (a, b) = (mk_dead(51), mk_dead(52));
        let services = [&a, &b];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(2));
        let (got, err) = fed.top(5);
        assert!(got.is_empty());
        let err = err.expect("a fully-dead federation must surface an error");
        assert!(
            matches!(err, RerankError::Server(ref e) if e.is_transient()),
            "{err}"
        );
        assert_eq!(fed.tripped_sources(), vec![0, 1]);
        // The merge stays dead-but-usable: asking again keeps erroring
        // instead of flipping to a silent empty stream.
        assert!(fed.next().is_err());
    }

    #[test]
    fn budget_exhaustion_trips_the_circuit_without_futile_repulls() {
        // BudgetExhausted is transient (windows reset) but an immediate
        // re-pull can never heal it — the circuit must trip on the first
        // strike, not after burning the whole threshold.
        let data = uniform(400, 2, 1, 61);
        let server = SimServer::new(
            data,
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        );
        let constrained = RerankService::new(Arc::new(server), 400).with_budget(2);
        let (free, _) = svc(62, 50);
        let services = [&constrained, &free];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(100));
        let (got, err) = fed.top(20);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(got.len(), 20, "the free source carries the merge");
        let report = fed.report();
        assert!(report[0].tripped);
        assert_eq!(
            report[0].consecutive_failures, 1,
            "budget exhaustion must trip on the first strike"
        );
        assert!(matches!(
            report[0].last_error,
            Some(RerankError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn healthy_source_recovers_consecutive_failure_count() {
        use qrs_server::{Fault, FaultyServer, SearchInterface};
        // One transient outage early on: with session-level fail-fast and a
        // fed threshold of 3, the strike is absorbed by an immediate
        // re-pull, the count resets on success, and nothing trips.
        let inner = Arc::new(SimServer::new(
            uniform(60, 2, 1, 41),
            SystemRank::pseudo_random(41),
            5,
        ));
        let flaky = Arc::new(
            FaultyServer::new(inner as Arc<dyn SearchInterface>).with_fault_at(1, Fault::Outage),
        );
        let flaky_svc = RerankService::new(flaky as Arc<dyn SearchInterface>, 60);
        let (b, _) = svc(42, 40);
        let services = [&flaky_svc, &b];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(3));
        let (got, err) = fed.top(30);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(got.len(), 30);
        let report = fed.report();
        assert!(!report[0].tripped);
        assert_eq!(report[0].consecutive_failures, 0, "success must reset");
        assert!(report[0].last_error.is_some(), "the strike was recorded");
        assert!(got.iter().any(|f| f.source == 0));
    }

    #[test]
    fn half_open_circuit_readmits_a_recovered_source() {
        use qrs_obs::{ObsHandle, Recorder};
        use qrs_server::{Clock, FaultyServer, MockClock, SearchInterface};
        // Source 1's backend is down for its first 3 calls, then healthy.
        // With threshold 2 it trips on the first two; after a cool-down a
        // probe hits the storm tail and re-trips; after a second cool-down
        // the probe lands on a healthy backend and the source rejoins.
        let (a, data_a) = svc(71, 40);
        let clock = Arc::new(MockClock::new());
        let inner = Arc::new(SimServer::new(
            uniform(30, 2, 1, 72),
            SystemRank::pseudo_random(72),
            5,
        ));
        let flaky = Arc::new(
            FaultyServer::new(inner as Arc<dyn SearchInterface>).with_storm(
                0,
                3,
                qrs_server::Fault::Outage,
            ),
        );
        let data_b = uniform(30, 2, 1, 72);
        let recorder = Arc::new(Recorder::with_capacity(4096));
        let flaky_svc = RerankService::new(flaky as Arc<dyn SearchInterface>, 30)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .with_observer(
                ObsHandle::builder("flaky")
                    .subscriber(Arc::clone(&recorder) as _)
                    .build(),
            );
        // The circuit events the flaky source emitted since the last call.
        let circuit_events = || -> Vec<EventKind> {
            recorder
                .drain()
                .into_iter()
                .map(|e| e.kind)
                .filter(|k| {
                    matches!(
                        k,
                        EventKind::CircuitTrip { .. } | EventKind::CircuitProbe { .. }
                    )
                })
                .collect()
        };
        let services = [&a, &flaky_svc];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(2).cooldown(1_000));
        // Priming trips source 1 (2 consecutive outages, fail-fast retries).
        let (first, err) = fed.top(5);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(first.len(), 5);
        assert!(first.iter().all(|f| f.source == 0), "source 1 must be out");
        assert!(fed.report()[1].tripped);
        assert_eq!(fed.report()[1].trips, 1);
        assert_eq!(circuit_events(), [EventKind::CircuitTrip { trips: 1 }]);
        // Cool-down passes; the next merge step admits ONE probe. The
        // storm has 1 fault left, so the first probe fails and re-trips…
        clock.advance(1_000);
        let (more, err) = fed.top(3);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(more.len(), 3);
        let r1 = fed.report()[1].clone();
        assert!(r1.tripped, "probe hit the storm tail: must re-trip");
        assert_eq!(r1.probes_admitted, 1);
        assert_eq!(r1.trips, 2);
        assert_eq!(
            circuit_events(),
            [
                EventKind::CircuitProbe { reopened: false },
                EventKind::CircuitTrip { trips: 2 },
            ]
        );
        // …and only after another full cool-down does the next probe land
        // on a healthy backend and close the circuit for good.
        clock.advance(1_000);
        let (rest, err) = fed.top(1_000);
        assert!(err.is_none(), "{err:?}");
        let r1 = fed.report()[1].clone();
        assert!(!r1.tripped, "recovered source must close its circuit");
        assert_eq!(r1.probes_admitted, 2);
        assert_eq!(r1.consecutive_failures, 0);
        assert_eq!(
            circuit_events(),
            [EventKind::CircuitProbe { reopened: true }]
        );
        assert!(
            rest.iter().any(|f| f.source == 1),
            "the recovered source must contribute tuples again"
        );
        // Everything emitted after recovery is still exactly merged: the
        // full stream is the sorted union minus what source 0 emitted
        // while source 1 was out (those went out in source-0 order, which
        // is globally sorted for source 0 alone).
        let all: Vec<f64> = first
            .iter()
            .chain(more.iter())
            .chain(rest.iter())
            .map(|f| f.hit.score)
            .collect();
        let r = rank();
        let mut want: Vec<f64> = data_a
            .tuples()
            .iter()
            .chain(data_b.tuples().iter())
            .map(|t| r.score(t))
            .collect();
        want.sort_by(|x, y| cmp_f64(*x, *y));
        let mut got_sorted = all.clone();
        got_sorted.sort_by(|x, y| cmp_f64(*x, *y));
        assert_eq!(got_sorted, want, "no tuple lost or duplicated end to end");
    }

    #[test]
    fn tripped_source_without_cooldown_never_probes() {
        use qrs_server::{FaultyServer, SearchInterface};
        let (a, _) = svc(81, 60);
        let dead_inner = Arc::new(SimServer::new(
            uniform(40, 2, 1, 82),
            SystemRank::pseudo_random(82),
            5,
        ));
        let dead = Arc::new(
            FaultyServer::new(dead_inner as Arc<dyn SearchInterface>).with_permanent_outage_from(0),
        );
        let dead_svc = RerankService::new(dead as Arc<dyn SearchInterface>, 40);
        let services = [&a, &dead_svc];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(2));
        let (got, err) = fed.top(30);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(got.len(), 30);
        let r1 = fed.report()[1].clone();
        assert!(r1.tripped);
        assert_eq!(r1.probes_admitted, 0, "no cool-down ⇒ no probes, ever");
        assert_eq!(r1.trips, 1);
    }

    #[test]
    fn tripped_source_without_cooldown_reads_no_clock() {
        use qrs_server::{Clock, FaultyServer, SearchInterface};
        use std::sync::atomic::{AtomicU64, Ordering};
        /// A frozen clock that counts its reads.
        #[derive(Default)]
        struct CountingClock(AtomicU64);
        impl Clock for CountingClock {
            fn now_ms(&self) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                0
            }
            fn sleep_ms(&self, _ms: u64) {}
        }
        let clock = Arc::new(CountingClock::default());
        let data = uniform(60, 2, 1, 83);
        let live = RerankService::new(
            Arc::new(SimServer::new(data, SystemRank::pseudo_random(83), 5)),
            60,
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let dead_inner = Arc::new(SimServer::new(
            uniform(40, 2, 1, 84),
            SystemRank::pseudo_random(84),
            5,
        ));
        let dead =
            FaultyServer::new(dead_inner as Arc<dyn SearchInterface>).with_permanent_outage_from(0);
        let dead_svc = RerankService::new(Arc::new(dead) as Arc<dyn SearchInterface>, 40)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let services = [&live, &dead_svc];
        let mut fed = FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto)
            .unwrap()
            .with_circuit(CircuitPolicy::trip_after(1));
        assert!(fed.next().unwrap().is_some());
        assert_eq!(fed.tripped_sources(), vec![1]);
        let reads = clock.0.load(Ordering::Relaxed);
        let (got, err) = fed.top(10);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(got.len(), 10);
        assert_eq!(
            clock.0.load(Ordering::Relaxed),
            reads,
            "a circuit with no cool-down never asks the time"
        );
    }

    #[test]
    fn each_source_runs_its_own_services_retry_policy() {
        use qrs_server::{Clock, Fault, FaultyServer, MockClock, SearchInterface};
        use qrs_types::RetryPolicy;
        // Source 0's backend drops two pages in transit mid-stream; its
        // service's policy absorbs them. Source 1's service keeps the
        // default (fail fast) and never spends a retry.
        let clock = Arc::new(MockClock::new());
        let inner = Arc::new(SimServer::new(
            uniform(60, 2, 1, 91),
            SystemRank::pseudo_random(91),
            5,
        ));
        let flaky = Arc::new(
            FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>)
                .with_fault_at(2, Fault::Outage)
                .with_fault_at(3, Fault::Outage),
        );
        let flaky_svc = RerankService::new(flaky as Arc<dyn SearchInterface>, 60)
            .with_retry_policy(RetryPolicy::none().attempts(5).backoff(10, 1_000))
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let (steady, _) = svc(92, 40);
        let services = [&flaky_svc, &steady];
        let mut fed =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
        let (got, err) = fed.top(40);
        assert!(
            err.is_none(),
            "source 0's policy must absorb the storm: {err:?}"
        );
        assert_eq!(got.len(), 40);
        let stats = fed.session_stats();
        assert!(
            stats[0].retries_spent >= 1,
            "source 0 had to retry: {stats:?}"
        );
        assert_eq!(stats[1].retries_spent, 0, "source 1 stays fail-fast");
        assert!(
            !clock.sleeps().is_empty(),
            "backoff slept on the mock clock"
        );
    }

    #[test]
    fn parallel_fan_out_matches_the_serial_merge_exactly() {
        use qrs_exec::Executor;
        // Same seeds, two stacks: serial vs pooled fan-out must produce
        // byte-identical streams and identical per-source ledgers.
        let run = |executor: Option<Arc<Executor>>| {
            let (a, _) = svc(101, 90);
            let (b, _) = svc(102, 70);
            let (c, _) = svc(103, 50);
            let services = [&a, &b, &c];
            let mut fed =
                FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
            if let Some(e) = executor {
                fed = fed.with_executor(e);
            }
            let (got, err) = fed.top(60);
            assert!(err.is_none(), "{err:?}");
            let stream: Vec<(usize, usize, u32)> = got
                .iter()
                .map(|f| (f.source, f.hit.rank, f.hit.tuple.id.0))
                .collect();
            (stream, fed.session_stats())
        };
        let (serial_stream, serial_stats) = run(None);
        let (pool_stream, pool_stats) = run(Some(Arc::new(Executor::pool(4))));
        let (imm_stream, imm_stats) = run(Some(Arc::new(Executor::immediate(7))));
        assert_eq!(serial_stream, pool_stream);
        assert_eq!(serial_stats, pool_stats);
        assert_eq!(serial_stream, imm_stream);
        assert_eq!(serial_stats, imm_stats);
    }

    #[test]
    fn budget_error_propagates_from_any_source() {
        let data = uniform(400, 2, 1, 5);
        let server = SimServer::new(
            data.clone(),
            SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
            3,
        );
        let constrained = RerankService::new(Arc::new(server), 400).with_budget(2);
        let (free, _) = svc(6, 50);
        let services = [&constrained, &free];
        let mut fed =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap();
        let mut saw_err = false;
        for _ in 0..100 {
            match fed.next() {
                Err(e) => {
                    match e {
                        qrs_types::RerankError::BudgetExhausted { spent, limit } => {
                            assert_eq!(limit, 2);
                            assert!(spent >= 2);
                        }
                        other => panic!("expected budget error, got {other}"),
                    }
                    saw_err = true;
                    break;
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
            }
        }
        assert!(saw_err, "constrained source never tripped its budget");
    }
}
