//! The workspace-wide error taxonomy.
//!
//! The reranking middleware fronts *remote, rate-limited* hidden databases
//! (§1: "Google Flight Search API allows only 50 free queries per user per
//! day"), so every layer is fallible by design:
//!
//! * [`ServerError`] — what a [`SearchInterface`] adapter reports: rate
//!   limits, transient outages, and requests for capabilities the interface
//!   does not offer,
//! * [`RerankError`] — the unified error every cursor, session and service
//!   call returns. Server failures lift into it via `From`, with
//!   [`ServerError::Unsupported`] normalized to
//!   [`RerankError::UnsupportedCapability`] so callers match one variant
//!   regardless of whether negotiation failed at preflight or mid-stream.
//!
//! [`SearchInterface`]: https://docs.rs/qrs-server
//!
//! The contract the service layer upholds: **no misuse of the public API
//! panics** — unsupported capabilities, bad algorithm/ranking pairings,
//! budget exhaustion and server failures all surface as typed variants.

use crate::schema::AttrId;
use crate::tuple::TupleId;
use std::fmt;

/// Errors raised while assembling datasets/queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A tuple's ordinal arity does not match the schema.
    OrdinalArityMismatch {
        /// Ordinal arity the schema declares.
        expected: usize,
        /// Ordinal arity the tuple carries.
        got: usize,
    },
    /// A tuple's categorical arity does not match the schema.
    CategoricalArityMismatch {
        /// Categorical arity the schema declares.
        expected: usize,
        /// Categorical arity the tuple carries.
        got: usize,
    },
    /// A categorical code is out of the attribute's declared cardinality.
    CategoricalCodeOutOfRange {
        /// Index of the offending categorical attribute.
        attr: usize,
        /// The out-of-range code.
        code: u32,
        /// The attribute's declared cardinality.
        cardinality: u32,
    },
    /// An insert carries a tuple id the store already holds.
    DuplicateTupleId {
        /// The colliding id.
        id: TupleId,
    },
    /// An update names a tuple id the store does not hold.
    UnknownTupleId {
        /// The missing id.
        id: TupleId,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::OrdinalArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple has {got} ordinal values, schema expects {expected}"
                )
            }
            TypeError::CategoricalArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple has {got} categorical values, schema expects {expected}"
                )
            }
            TypeError::CategoricalCodeOutOfRange {
                attr,
                code,
                cardinality,
            } => {
                write!(
                    f,
                    "categorical code {code} out of range for B{attr} (cardinality {cardinality})"
                )
            }
            TypeError::DuplicateTupleId { id } => {
                write!(f, "insert collides with existing tuple id {}", id.0)
            }
            TypeError::UnknownTupleId { id } => {
                write!(f, "update names unknown tuple id {}", id.0)
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// An optional feature of a hidden database's search interface.
///
/// Real sites differ: some offer "next page" links, some let the user pick
/// a public `ORDER BY` attribute (§5 "Multiple/Known System Ranking
/// Functions"), many offer neither. Algorithms *negotiate* for these
/// instead of assuming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Page turns on the proprietary system ranking.
    Paging,
    /// Public `ORDER BY` paging on the given attribute.
    OrderBy(AttrId),
    /// Range predicates `Ai ∈ (v, v')` on the given attribute (a site with
    /// only a dropdown offers point predicates at best).
    RangeFilter(AttrId),
    /// Point predicates `Ai = v` on the given attribute (a browse-only
    /// storefront may offer no attribute filter at all).
    PointFilter(AttrId),
    /// Conjunctive queries carrying this many predicates (flight sites
    /// commonly cap the number of simultaneous search criteria).
    PredicateArity(usize),
    /// Paging down to this many result pages under one query (many sites
    /// stop serving pages past a fixed depth).
    PageDepth(usize),
    /// A change-data-capture feed: `mutation_seq` watermarks plus
    /// `mutations_since` deltas, the substrate of incremental top-k
    /// maintenance under data change.
    MutationFeed,
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capability::Paging => write!(f, "page turns on the system ranking"),
            Capability::OrderBy(a) => write!(f, "public ORDER BY on attribute {a}"),
            Capability::RangeFilter(a) => write!(f, "range predicates on attribute {a}"),
            Capability::PointFilter(a) => write!(f, "point predicates on attribute {a}"),
            Capability::PredicateArity(n) => write!(f, "queries with {n} predicates"),
            Capability::PageDepth(p) => write!(f, "paging down to page {p}"),
            Capability::MutationFeed => write!(f, "a mutation (change-data-capture) feed"),
        }
    }
}

/// A failure reported by a search-interface adapter.
///
/// The in-process simulators only produce these when explicitly configured
/// to; a real HTTP adapter maps 429s, 5xxs and malformed requests here
/// instead of panicking inside the middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The backend refused the query (quota, throttling). `retry_after_ms`
    /// is the backend's hint, when it gave one.
    RateLimited {
        /// The backend's `Retry-After` hint in milliseconds, if any.
        retry_after_ms: Option<u64>,
    },
    /// Transient failure: network error, 5xx, timeout.
    Unavailable {
        /// Human-readable failure description.
        reason: String,
    },
    /// The interface does not offer the requested capability.
    Unsupported(Capability),
    /// The query violates the interface contract: a range predicate on an
    /// attribute that only accepts point predicates (§5), a `NaN` endpoint,
    /// an attribute the schema does not have (`Query::validate`).
    InvalidQuery {
        /// Human-readable contract-violation description.
        reason: String,
    },
}

impl ServerError {
    /// Convenience constructor for transient failures.
    pub fn unavailable(reason: impl Into<String>) -> Self {
        ServerError::Unavailable {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for contract violations.
    pub fn invalid_query(reason: impl Into<String>) -> Self {
        ServerError::InvalidQuery {
            reason: reason.into(),
        }
    }

    /// Whether retrying the same request later could succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServerError::RateLimited { .. } | ServerError::Unavailable { .. }
        )
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::RateLimited {
                retry_after_ms: Some(ms),
            } => {
                write!(f, "server rate-limited the request (retry after {ms} ms)")
            }
            ServerError::RateLimited {
                retry_after_ms: None,
            } => {
                write!(f, "server rate-limited the request")
            }
            ServerError::Unavailable { reason } => write!(f, "server unavailable: {reason}"),
            ServerError::Unsupported(c) => write!(f, "server does not support {c}"),
            ServerError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// The unified error type of the reranking workspace.
///
/// Everything downstream of a [`ServerError`] — cursors, sessions, the
/// federated merge — returns this. Budget exhaustion carries the spend so
/// callers can report "x of y queries used"; capability and algorithm
/// mismatches are caught at session preflight *and* surfaced from deep
/// inside algorithms if a server's behavior changes mid-stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RerankError {
    /// The query budget ran out. Results fetched before the trip are
    /// retained by the caller (see `Session::top`).
    BudgetExhausted {
        /// Queries spent inside the tripped budget window.
        spent: u64,
        /// The budget cap that tripped.
        limit: u64,
    },
    /// The backing server does not offer a capability the chosen algorithm
    /// requires.
    UnsupportedCapability(Capability),
    /// The requested algorithm cannot serve the requested ranking function
    /// (e.g. a 1D algorithm with a multi-attribute ranking function).
    InvalidAlgorithm {
        /// Human-readable mismatch description.
        reason: String,
    },
    /// The backing server failed.
    Server(ServerError),
    /// A transient server failure persisted through every attempt the
    /// service's retry policy allows. Carries the attempt count and the
    /// last underlying error so budget attribution stays exact.
    RetriesExhausted {
        /// Attempts consumed, the first included.
        attempts: u32,
        /// The last underlying failure.
        last: Box<RerankError>,
    },
    /// No reranking algorithm fits the site's advertised capabilities for
    /// this query shape. `missing` names the capabilities that would have
    /// unblocked a candidate algorithm; `reason` narrates the planner's
    /// per-candidate verdicts. Raised at preflight (`Planner::plan` /
    /// `SessionBuilder::open`), never mid-stream — a session that opens
    /// cleanly has a working plan.
    Unplannable {
        /// Capabilities that would have let some candidate algorithm run,
        /// deduplicated, in planner preference order.
        missing: Vec<Capability>,
        /// Human-readable planning trace (one verdict per candidate).
        reason: String,
    },
}

impl RerankError {
    /// Convenience constructor for algorithm/ranking mismatches.
    pub fn invalid_algorithm(reason: impl Into<String>) -> Self {
        RerankError::InvalidAlgorithm {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for planner dead ends.
    pub fn unplannable(missing: Vec<Capability>, reason: impl Into<String>) -> Self {
        RerankError::Unplannable {
            missing,
            reason: reason.into(),
        }
    }

    /// Whether retrying the same call later could succeed (rate limits,
    /// transient server failures, refreshed budgets).
    pub fn is_transient(&self) -> bool {
        match self {
            RerankError::BudgetExhausted { .. } => true,
            RerankError::Server(e) => e.is_transient(),
            RerankError::RetriesExhausted { last, .. } => last.is_transient(),
            RerankError::UnsupportedCapability(_)
            | RerankError::InvalidAlgorithm { .. }
            | RerankError::Unplannable { .. } => false,
        }
    }

    /// Whether an *automatic* retry (sleep and re-issue, no external
    /// intervention) could succeed. Strictly narrower than
    /// [`RerankError::is_transient`]: budget exhaustion is transient — the
    /// caller can reset the budget window on a new day — but sleeping on it
    /// can never help, so the retry loop in `qrs-service` surfaces it
    /// immediately instead of burning backoff time.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RerankError::Server(e) if e.is_transient())
    }

    /// The server's `Retry-After` hint, when this error (or the failure it
    /// wraps) carries one.
    pub fn retry_after_hint(&self) -> Option<u64> {
        match self {
            RerankError::Server(ServerError::RateLimited {
                retry_after_ms: Some(ms),
            }) => Some(*ms),
            RerankError::RetriesExhausted { last, .. } => last.retry_after_hint(),
            _ => None,
        }
    }
}

impl fmt::Display for RerankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RerankError::BudgetExhausted { spent, limit } => {
                write!(
                    f,
                    "query budget exhausted: {spent} of {limit} queries spent"
                )
            }
            RerankError::UnsupportedCapability(c) => {
                write!(f, "the server does not support {c}")
            }
            RerankError::InvalidAlgorithm { reason } => {
                write!(f, "invalid algorithm choice: {reason}")
            }
            RerankError::Server(e) => write!(f, "server error: {e}"),
            RerankError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            RerankError::Unplannable { missing, reason } => {
                write!(f, "no algorithm fits the site's capabilities: {reason}")?;
                if !missing.is_empty() {
                    write!(f, " (missing: ")?;
                    for (i, c) in missing.iter().enumerate() {
                        if i > 0 {
                            write!(f, "; ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RerankError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RerankError::Server(e) => Some(e),
            RerankError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<ServerError> for RerankError {
    /// Lift a server failure. [`ServerError::Unsupported`] normalizes to
    /// [`RerankError::UnsupportedCapability`] so callers match a single
    /// variant whether negotiation failed at preflight or mid-stream.
    fn from(e: ServerError) -> Self {
        match e {
            ServerError::Unsupported(c) => RerankError::UnsupportedCapability(c),
            other => RerankError::Server(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_normalizes_through_from() {
        let e: RerankError = ServerError::Unsupported(Capability::Paging).into();
        assert_eq!(e, RerankError::UnsupportedCapability(Capability::Paging));
        let e: RerankError = ServerError::RateLimited {
            retry_after_ms: Some(10),
        }
        .into();
        assert!(matches!(
            e,
            RerankError::Server(ServerError::RateLimited { .. })
        ));
    }

    #[test]
    fn transient_classification() {
        assert!(RerankError::BudgetExhausted { spent: 1, limit: 1 }.is_transient());
        assert!(RerankError::Server(ServerError::unavailable("503")).is_transient());
        assert!(!RerankError::UnsupportedCapability(Capability::OrderBy(AttrId(0))).is_transient());
        assert!(!RerankError::invalid_algorithm("1D needs one attribute").is_transient());
    }

    #[test]
    fn retry_wrappers_carry_attempt_metadata() {
        let last = RerankError::Server(ServerError::RateLimited {
            retry_after_ms: Some(250),
        });
        let e = RerankError::RetriesExhausted {
            attempts: 4,
            last: Box::new(last),
        };
        assert!(e.is_transient());
        // The wrapper itself is not auto-retryable: the policy already gave up.
        assert!(!e.is_retryable());
        assert_eq!(e.retry_after_hint(), Some(250));
        assert!(e.to_string().contains("4 attempts"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn retryable_is_narrower_than_transient() {
        // Budget exhaustion: transient (windows reset) but never auto-retryable.
        let e = RerankError::BudgetExhausted { spent: 5, limit: 5 };
        assert!(e.is_transient());
        assert!(!e.is_retryable());
        // Server transients are both.
        let e = RerankError::Server(ServerError::unavailable("503"));
        assert!(e.is_transient());
        assert!(e.is_retryable());
        // Contract violations are neither.
        let e = RerankError::Server(ServerError::invalid_query("bad range"));
        assert!(!e.is_transient());
        assert!(!e.is_retryable());
    }

    #[test]
    fn unplannable_is_terminal_and_names_the_capability() {
        let e = RerankError::unplannable(
            vec![Capability::RangeFilter(AttrId(0)), Capability::Paging],
            "1D needs range predicates; page-down needs paging",
        );
        assert!(!e.is_transient());
        assert!(!e.is_retryable());
        let s = e.to_string();
        assert!(s.contains("range predicates on attribute A1"));
        assert!(s.contains("page turns"));
        // An empty missing list still renders the reason.
        let e = RerankError::unplannable(vec![], "nothing fits");
        assert!(e.to_string().contains("nothing fits"));
    }

    #[test]
    fn displays_are_informative() {
        let s = RerankError::BudgetExhausted {
            spent: 50,
            limit: 50,
        }
        .to_string();
        assert!(s.contains("50 of 50"));
        let s = RerankError::UnsupportedCapability(Capability::OrderBy(AttrId(2))).to_string();
        assert!(s.contains("ORDER BY"));
    }
}
