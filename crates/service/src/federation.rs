//! Federated reranking across multiple hidden databases.
//!
//! §1's motivating application ranks the same preference "across multiple
//! web databases (e.g., multiple car dealers)". A [`FederatedSession`] owns
//! one [`Session`] per backing service and merges their Get-Next streams by
//! user score — a k-way merge that stays *exact* because each stream is
//! exact and emitted in non-decreasing score order.
//!
//! The sources may have different system rankings, different `k`s and
//! different inventories; each schema must carry the ranking function's
//! attributes ([`FederatedSession::open`] refuses a source whose schema
//! does not).
//!
//! ## Errors propagate; the merge resumes
//!
//! An error from any source surfaces from [`FederatedSession::next`] and
//! consumes nothing: every buffered head stays in place, so calling again
//! once the cause has passed (a budget window reset, an outage that ended)
//! resumes the merge exactly, with no tuple skipped or repeated. A merge
//! that skipped a failing source would report wrong global ranks. A
//! source's *retry policy* is its own service's
//! ([`RerankService::with_retry_policy`]): build a flaky dealer's service
//! with aggressive retries and a steady one's with none.
//!
//! ## Shared knowledge across sources
//!
//! A federation amortizes across *tenants* the same way a single service
//! does: build every source's [`RerankService`] with the **same**
//! [`crate::KnowledgePlane`] (each under its own source name) and every
//! federated session records its per-source streams while replaying
//! what earlier sessions — federated or not — already bought there. The
//! plane shards per source, so dealers never pollute each other's caches,
//! and one dealer's inventory change is one epoch bump
//! ([`crate::KnowledgePlane::invalidate`]) that leaves the other sources'
//! knowledge intact. Per-source savings surface in
//! [`FederatedSession::session_stats`] as `queries_saved` /
//! `cost_units_saved`.

use crate::service::{Algorithm, RerankService, SessionSpec};
use crate::session::{RankedTuple, Session, SessionStats};
use qrs_ranking::RankFn;
use qrs_types::{Query, RerankError};
use std::sync::Arc;

/// A hit from a federated stream: which source produced it, plus the tuple.
#[derive(Debug, Clone)]
pub struct FederatedHit {
    /// Index into the sources passed to [`FederatedSession::open`].
    pub source: usize,
    /// The tuple, with its federation-wide rank and user score.
    pub hit: RankedTuple,
}

/// One user query + ranking function over several services, merged exactly.
#[derive(Debug)]
pub struct FederatedSession<'a> {
    sessions: Vec<Session<'a>>,
    /// Head of each stream, pulled lazily.
    heads: Vec<Option<RankedTuple>>,
    /// Per-source: has `heads[i]` been filled at least once? Tracked per
    /// index so an error priming one source never re-pulls (and thereby
    /// skips tuples of) sources already primed.
    primed: Vec<bool>,
    emitted: usize,
}

impl<'a> FederatedSession<'a> {
    /// Open one session per service with the same selection and ranking
    /// function; each runs its own service's retry policy. Fails fast if
    /// any source refuses the request (capability or algorithm preflight,
    /// or a ranking attribute outside its schema) — a federation with a
    /// silently missing source would return wrong global ranks.
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
        })
    }

    /// Prime every head not yet filled, in source order. A head pulled
    /// before another source errors stays in place, so no paid tuple is
    /// dropped and a retry resumes exactly.
    fn fill_heads(&mut self) -> Result<(), RerankError> {
        for (i, sess) in self.sessions.iter_mut().enumerate() {
            if !self.primed[i] {
                self.heads[i] = sess.next()?;
                self.primed[i] = true;
            }
        }
        Ok(())
    }

    /// The globally next-best tuple across all sources.
    ///
    /// Not an `Iterator`: each step can fail on a source's budget or
    /// server, and callers need that error, not a silent stop. An `Err`
    /// consumes nothing: the winning head stays buffered, so a retry
    /// after a transient failure resumes the merge without skipping or
    /// dropping any source's tuples.
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
            return Ok(None);
        };
        // Refill *before* taking the current head: if the refill fails, the
        // head is still in place and a retry re-enters here cleanly.
        let refill = self.sessions[i].next()?;
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
        let mut out = Vec::new();
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

    /// Per-source session accounting (emitted, queries and weighted cost
    /// units spent and saved, attempts, retries), aligned with the sources
    /// passed to [`FederatedSession::open`]. Summing `queries_spent` across
    /// sources reconciles the federation against each backend's ledger.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.sessions.iter().map(Session::stats).collect()
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
    fn session_stats_carry_weighted_spend_per_source() {
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
        let stats = fed.session_stats();
        // Flat source: cost == queries. Metered source: range-filtered MD
        // box queries cost more than their raw count.
        assert_eq!(stats[0].cost_units_spent, stats[0].queries_spent);
        assert!(stats[1].queries_spent > 0);
        assert!(stats[1].cost_units_spent > stats[1].queries_spent);
        // Per-source attribution reconciles against each backend's ledger.
        assert_eq!(
            stats[1].cost_units_spent,
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

    #[test]
    fn a_source_without_a_ranking_attribute_is_refused_at_open() {
        // Source 1's schema has one ordinal attribute; the ranking reads
        // two. Driving it would index past its tuples, and leaving it out
        // would report wrong global ranks: `open` refuses, typed and
        // uncharged.
        let (wide, _) = svc(111, 40);
        let narrow = RerankService::new(
            Arc::new(SimServer::new(
                uniform(40, 1, 1, 112),
                SystemRank::pseudo_random(112),
                5,
            )),
            40,
        );
        let services = [&wide, &narrow];
        let err =
            FederatedSession::open(&services, Query::all(), rank(), Algorithm::Auto).unwrap_err();
        assert!(
            matches!(
                err,
                RerankError::Server(qrs_types::ServerError::InvalidQuery { .. })
            ),
            "{err}"
        );
        assert_eq!(wide.queries_issued() + narrow.queries_issued(), 0);
    }
}
