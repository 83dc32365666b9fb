//! Deterministic fault injection for any [`SearchInterface`].
//!
//! Large-scale database systems treat fault handling as a first-class
//! testing target; the reranking middleware fronts *remote, rate-limited*
//! backends, so its failure paths deserve the same. [`FaultyServer`] wraps
//! any `SearchInterface` and injects failures from a **deterministic,
//! replayable schedule** — scripted per call index, drawn from a seeded RNG,
//! or both:
//!
//! * [`Fault::RateLimit`] — refuse with [`ServerError::RateLimited`]
//!   *before* the backend sees the query (a 429 at the gate; not charged),
//! * [`Fault::Outage`] — refuse with [`ServerError::Unavailable`]
//!   (a 503/network error; not charged),
//! * [`Fault::TruncatedPage`] — forward the query (the backend answers and
//!   **charges it**) but discard the response as corrupt: the page was
//!   truncated in transit, the caller paid and must re-pay on retry. This
//!   is the fault that makes exact query-count assertions interesting.
//!
//! With a [`Clock`] attached ([`FaultyServer::with_clock`]), rate-limit
//! faults carrying `retry_after_ms` are *enforced*: every call before the
//! window elapses is refused again with the remaining wait. A retry layer
//! that honors `Retry-After` recovers in exactly one retry; one that
//! hammers the server is caught by call-count assertions — all on a mock
//! clock, with zero wall-clock sleeping.

use crate::clock::Clock;
use crate::interface::{Capabilities, OrderedPage, SearchInterface};
use parking_lot::Mutex;
use qrs_types::{AttrId, Direction, MutationLog, Query, QueryResponse, Schema, ServerError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One injectable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Refuse with [`ServerError::RateLimited`]; the backend is not reached
    /// and the query is not charged.
    RateLimit {
        /// The `Retry-After` hint the refusal carries, if any.
        retry_after_ms: Option<u64>,
    },
    /// Refuse with [`ServerError::Unavailable`]; not charged.
    Outage,
    /// Forward the query — the backend answers and charges it — then drop
    /// the response as corrupt ([`ServerError::Unavailable`] with a
    /// "truncated page" reason). Retries must re-pay.
    TruncatedPage,
}

enum Decision {
    Forward,
    Refuse(ServerError),
    ForwardThenDrop,
}

#[derive(Debug)]
struct Plan {
    /// Faults scripted by 0-based call index (over *all* query methods,
    /// including refused calls — each attempt consumes one index, except
    /// premature retries refused by an enforced retry-after window, which
    /// consume none so they cannot skip a scripted fault).
    scripted: BTreeMap<u64, Fault>,
    /// Refuse every call from this index on (a permanently dead backend).
    dead_after: Option<u64>,
    /// Seeded random schedule, drawn once per unscripted call.
    rng: Option<StdRng>,
    p_rate_limit: f64,
    p_outage: f64,
    p_truncated: f64,
    /// Enforcement window: refuse until the attached clock reaches this.
    not_before_ms: Option<u64>,
    /// Next call index.
    calls: u64,
}

impl Plan {
    fn draw_random(&mut self) -> Option<Fault> {
        let rng = self.rng.as_mut()?;
        let u: f64 = rng.random();
        if u < self.p_rate_limit {
            Some(Fault::RateLimit {
                retry_after_ms: None,
            })
        } else if u < self.p_rate_limit + self.p_outage {
            Some(Fault::Outage)
        } else if u < self.p_rate_limit + self.p_outage + self.p_truncated {
            Some(Fault::TruncatedPage)
        } else {
            None
        }
    }
}

/// A scripted fault-injecting decorator around any [`SearchInterface`].
///
/// Same seed + same call sequence ⇒ same faults, so every failure test is
/// replayable. `queries_issued` delegates to the wrapped server: refusals at
/// the gate are never charged, truncated pages are (see [`Fault`]).
pub struct FaultyServer {
    inner: Arc<dyn SearchInterface>,
    plan: Mutex<Plan>,
    clock: Option<Arc<dyn Clock>>,
    injected: AtomicU64,
}

impl FaultyServer {
    /// Wrap `inner` with an empty schedule (no faults until configured).
    pub fn new(inner: Arc<dyn SearchInterface>) -> Self {
        FaultyServer {
            inner,
            plan: Mutex::new(Plan {
                scripted: BTreeMap::new(),
                dead_after: None,
                rng: None,
                p_rate_limit: 0.0,
                p_outage: 0.0,
                p_truncated: 0.0,
                not_before_ms: None,
                calls: 0,
            }),
            clock: None,
            injected: AtomicU64::new(0),
        }
    }

    /// Script `fault` at 0-based call index `call` (counted over all query
    /// methods, refused calls included).
    pub fn with_fault_at(self, call: u64, fault: Fault) -> Self {
        self.plan.lock().scripted.insert(call, fault);
        self
    }

    /// Script a storm: the same fault at `len` consecutive call indices
    /// starting at `start`.
    pub fn with_storm(self, start: u64, len: u64, fault: Fault) -> Self {
        {
            let mut plan = self.plan.lock();
            for i in start..start.saturating_add(len) {
                plan.scripted.insert(i, fault.clone());
            }
        }
        self
    }

    /// Refuse every call from index `call` on with an outage — a backend
    /// that dies and never comes back.
    pub fn with_permanent_outage_from(self, call: u64) -> Self {
        self.plan.lock().dead_after = Some(call);
        self
    }

    /// Seeded random schedule: each unscripted call independently faults
    /// with the given probabilities (in order: rate limit, outage,
    /// truncated page; drawn rate limits carry no `Retry-After` hint).
    /// Deterministic per seed; replayable.
    pub fn with_random_faults(
        self,
        seed: u64,
        p_rate_limit: f64,
        p_outage: f64,
        p_truncated: f64,
    ) -> Self {
        debug_assert!(p_rate_limit + p_outage + p_truncated <= 1.0);
        {
            let mut plan = self.plan.lock();
            plan.rng = Some(StdRng::seed_from_u64(seed));
            plan.p_rate_limit = p_rate_limit;
            plan.p_outage = p_outage;
            plan.p_truncated = p_truncated;
        }
        self
    }

    /// Attach a clock and *enforce* `retry_after_ms` windows: after a
    /// rate-limit fault with a hint, every call before the window elapses
    /// is refused again with the remaining wait.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Total schedule-indexed calls seen (scheduled refusals included).
    /// Premature retries refused by an enforced retry-after window are the
    /// one exception: they consume no schedule index (so scripted faults
    /// cannot be skipped) and are counted in
    /// [`FaultyServer::faults_injected`] only.
    pub fn calls_seen(&self) -> u64 {
        self.plan.lock().calls
    }

    /// Total faults injected (scheduled faults plus enforcement refusals).
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped server.
    pub fn inner(&self) -> &Arc<dyn SearchInterface> {
        &self.inner
    }

    fn decide(&self) -> Decision {
        let mut plan = self.plan.lock();
        // An enforced retry-after window refuses premature retries *before*
        // a call index is assigned, so they consume nothing from the
        // schedule: scripted fault indices stay aligned with the sequence a
        // well-behaved caller sees, and an impatient caller cannot skip a
        // scheduled fault. Such refusals show up in `faults_injected`, not
        // `calls_seen`.
        if let (Some(clock), Some(until)) = (self.clock.as_deref(), plan.not_before_ms) {
            let now = clock.now_ms();
            if now < until {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Decision::Refuse(ServerError::RateLimited {
                    retry_after_ms: Some(until - now),
                });
            }
            plan.not_before_ms = None;
        }
        let idx = plan.calls;
        plan.calls += 1;
        if let Some(dead) = plan.dead_after {
            if idx >= dead {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Decision::Refuse(ServerError::unavailable(
                    "injected outage (backend permanently down)",
                ));
            }
        }
        let fault = plan.scripted.remove(&idx).or_else(|| plan.draw_random());
        match fault {
            None => Decision::Forward,
            Some(f) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                match f {
                    Fault::RateLimit { retry_after_ms } => {
                        if let (Some(clock), Some(ms)) = (self.clock.as_deref(), retry_after_ms) {
                            plan.not_before_ms = Some(clock.now_ms() + ms);
                        }
                        Decision::Refuse(ServerError::RateLimited { retry_after_ms })
                    }
                    Fault::Outage => {
                        Decision::Refuse(ServerError::unavailable("injected outage (503)"))
                    }
                    Fault::TruncatedPage => Decision::ForwardThenDrop,
                }
            }
        }
    }
}

/// The error an adapter reports for a page whose payload was lost in
/// transit after the backend answered (and charged) the query.
fn truncated_in_transit(tuples_lost: usize) -> ServerError {
    ServerError::unavailable(format!(
        "truncated page: {tuples_lost} tuples lost in transit"
    ))
}

impl std::fmt::Debug for FaultyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyServer")
            .field("calls_seen", &self.calls_seen())
            .field("faults_injected", &self.faults_injected())
            .finish()
    }
}

impl SearchInterface for FaultyServer {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        match self.decide() {
            Decision::Refuse(e) => Err(e),
            Decision::Forward => self.inner.query(q),
            Decision::ForwardThenDrop => {
                let resp = self.inner.query(q)?;
                Err(truncated_in_transit(resp.tuples.len()))
            }
        }
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        match self.decide() {
            Decision::Refuse(e) => Err(e),
            Decision::Forward => self.inner.query_page(q, page),
            Decision::ForwardThenDrop => {
                let resp = self.inner.query_page(q, page)?;
                Err(truncated_in_transit(resp.tuples.len()))
            }
        }
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        match self.decide() {
            Decision::Refuse(e) => Err(e),
            Decision::Forward => self.inner.query_ordered(q, attr, dir, page),
            Decision::ForwardThenDrop => {
                let p = self.inner.query_ordered(q, attr, dir, page)?;
                Err(truncated_in_transit(p.tuples.len()))
            }
        }
    }

    // Mutation-feed reads are metadata, not searches: they bypass the
    // fault schedule (consuming no call index) so a failure script stays
    // aligned with the query methods it was written against.
    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.inner.mutations_since(since)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::sim::SimServer;
    use crate::system_rank::SystemRank;
    use qrs_types::{Dataset, OrdinalAttr, Tuple, TupleId};

    fn sim(k: usize) -> Arc<SimServer> {
        let schema = Schema::new(vec![OrdinalAttr::new("x", 0.0, 9.0)], vec![]);
        let tuples = (0..10)
            .map(|i| Tuple::new(TupleId(i), vec![f64::from(i)], vec![]))
            .collect();
        let ds = Dataset::new(schema, tuples).unwrap();
        Arc::new(SimServer::new(ds, SystemRank::by_attr_desc(AttrId(0)), k))
    }

    #[test]
    fn scripted_faults_fire_at_exact_indices() {
        let s = FaultyServer::new(sim(3))
            .with_fault_at(1, Fault::Outage)
            .with_fault_at(
                2,
                Fault::RateLimit {
                    retry_after_ms: Some(40),
                },
            );
        assert!(s.query(&Query::all()).is_ok()); // call 0
        let e = s.query(&Query::all()).unwrap_err(); // call 1
        assert!(matches!(e, ServerError::Unavailable { .. }));
        let e = s.query(&Query::all()).unwrap_err(); // call 2
        assert_eq!(
            e,
            ServerError::RateLimited {
                retry_after_ms: Some(40)
            }
        );
        assert!(s.query(&Query::all()).is_ok()); // call 3
        assert_eq!(s.calls_seen(), 4);
        assert_eq!(s.faults_injected(), 2);
        // Gate refusals are never charged to the backend.
        assert_eq!(s.queries_issued(), 2);
    }

    #[test]
    fn truncated_pages_charge_the_backend() {
        let s = FaultyServer::new(sim(3)).with_fault_at(0, Fault::TruncatedPage);
        let e = s.query(&Query::all()).unwrap_err();
        assert!(matches!(
            e,
            ServerError::Unavailable { ref reason } if reason.contains("truncated")
        ));
        // The backend answered (and charged) before the payload was lost.
        assert_eq!(s.queries_issued(), 1);
        assert!(s.query(&Query::all()).is_ok());
        assert_eq!(s.queries_issued(), 2);
    }

    #[test]
    fn permanent_outage_refuses_forever() {
        let s = FaultyServer::new(sim(3)).with_permanent_outage_from(1);
        assert!(s.query(&Query::all()).is_ok());
        for _ in 0..5 {
            assert!(s.query(&Query::all()).unwrap_err().is_transient());
        }
        assert_eq!(s.queries_issued(), 1);
        assert_eq!(s.faults_injected(), 5);
    }

    #[test]
    fn retry_after_window_is_enforced_against_the_clock() {
        let clock = Arc::new(MockClock::new());
        let s = FaultyServer::new(sim(3))
            .with_fault_at(
                1,
                Fault::RateLimit {
                    retry_after_ms: Some(100),
                },
            )
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        assert!(s.query(&Query::all()).is_ok()); // call 0
        let e = s.query(&Query::all()).unwrap_err(); // call 1: opens the window
        assert_eq!(
            e,
            ServerError::RateLimited {
                retry_after_ms: Some(100)
            }
        );
        // A premature retry is refused with the *remaining* wait.
        clock.advance(30);
        let e = s.query(&Query::all()).unwrap_err();
        assert_eq!(
            e,
            ServerError::RateLimited {
                retry_after_ms: Some(70)
            }
        );
        // Honoring the hint clears the window.
        clock.advance(70);
        assert!(s.query(&Query::all()).is_ok());
        assert_eq!(s.queries_issued(), 2);
        assert_eq!(s.faults_injected(), 2);
    }

    #[test]
    fn premature_retries_cannot_skip_scripted_faults() {
        // An impatient caller hammering inside an enforced window must not
        // consume schedule indices: the fault scripted at index 2 still
        // fires once the window clears.
        let clock = Arc::new(MockClock::new());
        let s = FaultyServer::new(sim(3))
            .with_fault_at(
                1,
                Fault::RateLimit {
                    retry_after_ms: Some(100),
                },
            )
            .with_fault_at(2, Fault::Outage)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        assert!(s.query(&Query::all()).is_ok()); // index 0
        assert!(s.query(&Query::all()).is_err()); // index 1: opens the window
                                                  // Three premature retries: refused, no index consumed.
        for _ in 0..3 {
            let e = s.query(&Query::all()).unwrap_err();
            assert!(matches!(e, ServerError::RateLimited { .. }));
        }
        assert_eq!(s.calls_seen(), 2);
        clock.advance(100);
        // The scripted outage at index 2 still fires.
        let e = s.query(&Query::all()).unwrap_err();
        assert!(matches!(e, ServerError::Unavailable { .. }));
        assert!(s.query(&Query::all()).is_ok()); // index 3
        assert_eq!(s.calls_seen(), 4);
        // 1 scripted rate limit + 3 enforcement refusals + 1 scripted outage.
        assert_eq!(s.faults_injected(), 5);
    }

    #[test]
    fn random_schedule_is_seed_deterministic() {
        let drive = |seed: u64| -> (Vec<bool>, u64) {
            let s = FaultyServer::new(sim(3)).with_random_faults(seed, 0.25, 0.15, 0.10);
            let outcomes = (0..200).map(|_| s.query(&Query::all()).is_ok()).collect();
            (outcomes, s.faults_injected())
        };
        let (a, fa) = drive(42);
        let (b, fb) = drive(42);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(fa, fb);
        assert!(
            fa > 0,
            "fault probabilities of 0.5 never fired in 200 calls"
        );
        let (c, _) = drive(43);
        assert_ne!(a, c, "distinct seeds should differ (within 200 calls)");
    }

    #[test]
    fn delegates_shape_and_capabilities() {
        let inner = sim(4);
        let s = FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>);
        assert_eq!(s.k(), 4);
        assert_eq!(s.capabilities(), inner.capabilities());
        assert_eq!(s.schema().num_ordinal(), 1);
    }
}
