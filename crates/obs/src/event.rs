//! The typed event vocabulary: everything the instrumented service layers
//! report, as plain data.
//!
//! Events are *facts*, not log lines: each one carries the exact ledger
//! deltas or state transition it describes, stamped with the emitting
//! service's injectable clock and its site name, so folds over an event
//! stream (the [`crate::Monitor`], the [`crate::MetricsRegistry`])
//! reconcile exactly against the session and service ledgers instead of
//! being approximately parsed back out of text.

use std::sync::Arc;

/// The request class a session's strategy issues against the hidden
/// database — the unit the per-class cost counters are keyed by. Built-in
/// strategies map 1:1 (cursor algorithms issue top-k probes, TA over
/// public `ORDER BY` issues ordered scans, page-down pages); a custom
/// strategy may mix classes, which is its own bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Top-`k` probe queries (the 1D/MD cursor families, TA over 1D).
    TopK,
    /// Page-down requests against the system ranking.
    Page,
    /// `ORDER BY` sorted-access scans (TA over public order).
    Ordered,
    /// A user-registered strategy whose request mix the service cannot
    /// know.
    Mixed,
}

impl QueryClass {
    /// Stable index into per-class metric arrays.
    pub fn index(self) -> usize {
        match self {
            QueryClass::TopK => 0,
            QueryClass::Page => 1,
            QueryClass::Ordered => 2,
            QueryClass::Mixed => 3,
        }
    }

    /// Stable lowercase name (used by the JSON exporter).
    pub fn as_str(self) -> &'static str {
        match self {
            QueryClass::TopK => "topk",
            QueryClass::Page => "page",
            QueryClass::Ordered => "ordered",
            QueryClass::Mixed => "mixed",
        }
    }
}

/// Which cap produced a [`EventKind::BudgetTrip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetScope {
    /// The per-session query cap (`SessionBuilder::budget`).
    Session,
    /// The service-wide query cap (`RerankService::with_budget`).
    Service,
    /// A retry budget (per-session or service-wide) ran dry.
    Retry,
}

impl BudgetScope {
    /// Stable lowercase name (used by the JSON exporter).
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetScope::Session => "session",
            BudgetScope::Service => "service",
            BudgetScope::Retry => "retry",
        }
    }
}

/// What happened. Every variant carries the exact numbers of the moment it
/// describes; fields named `queries`/`cost_units` are ledger *deltas*, not
/// running totals, so folds sum them without double counting.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A session opened (counted after all preflights passed).
    SessionOpen {
        /// The strategy the session drives, in the shared
        /// `qrs_core::strategy::names` vocabulary.
        strategy: String,
    },
    /// The planner (or the caller's explicit choice) committed to a
    /// strategy, with its plan-time cost estimate — the monitor's
    /// *predicted* column.
    PlanChosen {
        /// The chosen candidate's strategy name.
        strategy: String,
        /// Plan-time estimate of raw queries for the session's horizon.
        predicted_queries: u64,
        /// Plan-time estimate of weighted cost units.
        predicted_cost_units: u64,
        /// The query estimate after calibration scaling — equal to
        /// `predicted_queries` when the service plans statically.
        calibrated_queries: u64,
        /// The weighted-cost estimate after calibration scaling — equal to
        /// `predicted_cost_units` when the service plans statically.
        calibrated_cost_units: u64,
    },
    /// A running session's actual spend diverged past the configured ratio
    /// of its calibrated prediction, and the session re-planned among the
    /// remaining feasible candidates and switched strategies mid-flight.
    Replanned {
        /// The strategy the session was riding.
        from_strategy: String,
        /// The strategy it switched to.
        to_strategy: String,
        /// Tuples already emitted (and preserved) at the switch point.
        at_emitted: u64,
        /// Raw queries paid under the old strategy.
        queries_spent: u64,
        /// Weighted cost units paid under the old strategy.
        cost_units_spent: u64,
    },
    /// A Get-Next pull began (one `Session::next` call).
    RequestIssued {
        /// The request class the session's strategy issues.
        class: QueryClass,
    },
    /// One strategy step charged the session's ledger. Emitted only for
    /// steps that actually spent (`queries > 0 || cost_units > 0`), so
    /// summing these deltas per session reproduces `SessionStats` exactly.
    RequestCharged {
        /// The request class the session's strategy issues.
        class: QueryClass,
        /// Raw queries this step charged.
        queries: u64,
        /// Weighted cost units this step charged.
        cost_units: u64,
    },
    /// A failed step is about to be retried.
    RetryAttempt {
        /// 1-based retry index within the current step.
        retry_index: u32,
    },
    /// The retry engine slept before re-attempting.
    BackoffSleep {
        /// Milliseconds slept (on the service's injectable clock).
        ms: u64,
        /// True when the server's `retry_after_ms` hint dictated the sleep
        /// (it dominates the computed backoff schedule).
        server_hinted: bool,
    },
    /// A federation source's circuit breaker opened.
    CircuitTrip {
        /// Lifetime trip count for this source, this one included.
        trips: u64,
    },
    /// A half-open probe pull was admitted after a cool-down.
    CircuitProbe {
        /// True when the probe succeeded and the circuit closed.
        reopened: bool,
    },
    /// The knowledge plane answered instead of the server (request-level
    /// hits, or the one-shot full-replay credit of a sealed stream).
    KnowledgeHit {
        /// Queries answered for free.
        queries: u64,
        /// Cost units those queries would have been billed.
        cost_units: u64,
    },
    /// A knowledge-gated step had to pay the server (the plane had no
    /// answer). The deltas duplicate the step's [`EventKind::RequestCharged`]
    /// — this event exists so hit/miss ratios fold without joining streams.
    KnowledgeMiss {
        /// Queries paid to the server.
        queries: u64,
        /// Cost units charged for them.
        cost_units: u64,
    },
    /// A session drained its stream and sealed the cached result entry for
    /// future whole-stream replays.
    KnowledgeSeal {
        /// Length of the sealed stream.
        items: u64,
        /// End-to-end query cost the sealing run paid (spent + saved).
        queries_full: u64,
        /// End-to-end weighted cost.
        cost_units_full: u64,
    },
    /// A `MaintainedSession::refresh` repaired (or re-drove) its
    /// materialized top-`h` after data change.
    MutationRepair {
        /// Feed deltas consumed.
        applied: u64,
        /// Replacement tuples pulled live to repair delete evictions.
        replacement_pulls: u64,
        /// True when the repair fell back to a full strategy re-drive.
        redrove: bool,
        /// Server queries the refresh spent.
        queries_spent: u64,
    },
    /// A query or retry budget refused further spend.
    BudgetTrip {
        /// Which cap tripped.
        scope: BudgetScope,
        /// Spend at the moment of refusal.
        spent: u64,
        /// The cap.
        limit: u64,
    },
    /// A session was dropped; the final ledger totals ride along.
    SessionClose {
        /// Tuples emitted over the session's lifetime.
        emitted: u64,
        /// Final raw-query spend.
        queries_spent: u64,
        /// Final weighted cost spend.
        cost_units_spent: u64,
        /// Final knowledge savings (queries).
        queries_saved: u64,
        /// Final knowledge savings (cost units).
        cost_units_saved: u64,
    },
    /// A `serve_batch` call dispatched a batch of requests.
    BatchServed {
        /// Requests in the batch.
        requests: u64,
    },
    /// The HTTP edge admitted a wire batch past admission control.
    EdgeAdmitted {
        /// Requests in the admitted wire batch.
        requests: u64,
    },
    /// The HTTP edge refused a wire batch at the gate — before any query
    /// was issued or charged (capacity or tenant-budget admission).
    EdgeRejected {
        /// Stable refusal class: `"capacity"` or `"tenant_budget"`.
        reason: String,
    },
}

impl EventKind {
    /// Stable snake_case name of the variant (used by the JSON exporter
    /// and by tests grouping recorded events).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SessionOpen { .. } => "session_open",
            EventKind::PlanChosen { .. } => "plan_chosen",
            EventKind::Replanned { .. } => "replanned",
            EventKind::RequestIssued { .. } => "request_issued",
            EventKind::RequestCharged { .. } => "request_charged",
            EventKind::RetryAttempt { .. } => "retry_attempt",
            EventKind::BackoffSleep { .. } => "backoff_sleep",
            EventKind::CircuitTrip { .. } => "circuit_trip",
            EventKind::CircuitProbe { .. } => "circuit_probe",
            EventKind::KnowledgeHit { .. } => "knowledge_hit",
            EventKind::KnowledgeMiss { .. } => "knowledge_miss",
            EventKind::KnowledgeSeal { .. } => "knowledge_seal",
            EventKind::MutationRepair { .. } => "mutation_repair",
            EventKind::BudgetTrip { .. } => "budget_trip",
            EventKind::SessionClose { .. } => "session_close",
            EventKind::BatchServed { .. } => "batch_served",
            EventKind::EdgeAdmitted { .. } => "edge_admitted",
            EventKind::EdgeRejected { .. } => "edge_rejected",
        }
    }
}

/// One observed fact: when (the emitting service's injectable clock),
/// where (site), who (session ordinal; 0 for service-level events), what
/// ([`EventKind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Clock reading at emission, in ms since the service clock's epoch.
    /// Deterministic under `MockClock`.
    pub at_ms: u64,
    /// The emitting service's site label (shared, cheap to clone).
    pub site: Arc<str>,
    /// Session ordinal within the emitting handle (1-based; 0 means the
    /// event is service-level, e.g. [`EventKind::BatchServed`]).
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Append `s` to `out` escaped as the *contents* of a JSON string (quotes,
/// backslashes, control chars; the caller writes the surrounding `"`).
/// Site and strategy names are plain identifiers in practice, but nothing
/// that writes JSON by hand — this crate's exporter, the edge's codec, the
/// bench's rows — may ever emit a malformed line, so all of them call this
/// one.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Event {
    /// One self-contained JSON object (no trailing newline): the
    /// [`crate::JsonLinesExporter`]'s line format. Hand-assembled — the
    /// workspace carries no serde — with a flat field layout so downstream
    /// `jq`-style tooling needs no schema.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"at_ms\":");
        s.push_str(&self.at_ms.to_string());
        s.push_str(",\"site\":\"");
        escape_json_into(&mut s, &self.site);
        s.push_str("\",\"session\":");
        s.push_str(&self.session.to_string());
        s.push_str(",\"event\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        let field_u64 = |s: &mut String, k: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        match &self.kind {
            EventKind::SessionOpen { strategy } => {
                s.push_str(",\"strategy\":\"");
                escape_json_into(&mut s, strategy);
                s.push('"');
            }
            EventKind::PlanChosen {
                strategy,
                predicted_queries,
                predicted_cost_units,
                calibrated_queries,
                calibrated_cost_units,
            } => {
                s.push_str(",\"strategy\":\"");
                escape_json_into(&mut s, strategy);
                s.push('"');
                field_u64(&mut s, "predicted_queries", *predicted_queries);
                field_u64(&mut s, "predicted_cost_units", *predicted_cost_units);
                field_u64(&mut s, "calibrated_queries", *calibrated_queries);
                field_u64(&mut s, "calibrated_cost_units", *calibrated_cost_units);
            }
            EventKind::Replanned {
                from_strategy,
                to_strategy,
                at_emitted,
                queries_spent,
                cost_units_spent,
            } => {
                s.push_str(",\"from_strategy\":\"");
                escape_json_into(&mut s, from_strategy);
                s.push_str("\",\"to_strategy\":\"");
                escape_json_into(&mut s, to_strategy);
                s.push('"');
                field_u64(&mut s, "at_emitted", *at_emitted);
                field_u64(&mut s, "queries_spent", *queries_spent);
                field_u64(&mut s, "cost_units_spent", *cost_units_spent);
            }
            EventKind::RequestIssued { class } => {
                s.push_str(",\"class\":\"");
                s.push_str(class.as_str());
                s.push('"');
            }
            EventKind::RequestCharged {
                class,
                queries,
                cost_units,
            } => {
                s.push_str(",\"class\":\"");
                s.push_str(class.as_str());
                s.push('"');
                field_u64(&mut s, "queries", *queries);
                field_u64(&mut s, "cost_units", *cost_units);
            }
            EventKind::RetryAttempt { retry_index } => {
                field_u64(&mut s, "retry_index", u64::from(*retry_index));
            }
            EventKind::BackoffSleep { ms, server_hinted } => {
                field_u64(&mut s, "ms", *ms);
                s.push_str(",\"server_hinted\":");
                s.push_str(if *server_hinted { "true" } else { "false" });
            }
            EventKind::CircuitTrip { trips } => {
                field_u64(&mut s, "trips", *trips);
            }
            EventKind::CircuitProbe { reopened } => {
                s.push_str(",\"reopened\":");
                s.push_str(if *reopened { "true" } else { "false" });
            }
            EventKind::KnowledgeHit {
                queries,
                cost_units,
            }
            | EventKind::KnowledgeMiss {
                queries,
                cost_units,
            } => {
                field_u64(&mut s, "queries", *queries);
                field_u64(&mut s, "cost_units", *cost_units);
            }
            EventKind::KnowledgeSeal {
                items,
                queries_full,
                cost_units_full,
            } => {
                field_u64(&mut s, "items", *items);
                field_u64(&mut s, "queries_full", *queries_full);
                field_u64(&mut s, "cost_units_full", *cost_units_full);
            }
            EventKind::MutationRepair {
                applied,
                replacement_pulls,
                redrove,
                queries_spent,
            } => {
                field_u64(&mut s, "applied", *applied);
                field_u64(&mut s, "replacement_pulls", *replacement_pulls);
                s.push_str(",\"redrove\":");
                s.push_str(if *redrove { "true" } else { "false" });
                field_u64(&mut s, "queries_spent", *queries_spent);
            }
            EventKind::BudgetTrip {
                scope,
                spent,
                limit,
            } => {
                s.push_str(",\"scope\":\"");
                s.push_str(scope.as_str());
                s.push('"');
                field_u64(&mut s, "spent", *spent);
                field_u64(&mut s, "limit", *limit);
            }
            EventKind::SessionClose {
                emitted,
                queries_spent,
                cost_units_spent,
                queries_saved,
                cost_units_saved,
            } => {
                field_u64(&mut s, "emitted", *emitted);
                field_u64(&mut s, "queries_spent", *queries_spent);
                field_u64(&mut s, "cost_units_spent", *cost_units_spent);
                field_u64(&mut s, "queries_saved", *queries_saved);
                field_u64(&mut s, "cost_units_saved", *cost_units_saved);
            }
            EventKind::BatchServed { requests } | EventKind::EdgeAdmitted { requests } => {
                field_u64(&mut s, "requests", *requests);
            }
            EventKind::EdgeRejected { reason } => {
                s.push_str(",\"reason\":\"");
                escape_json_into(&mut s, reason);
                s.push('"');
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_well_formed_for_every_variant() {
        let kinds = vec![
            EventKind::SessionOpen {
                strategy: "1d-rerank".into(),
            },
            EventKind::PlanChosen {
                strategy: "md-rerank".into(),
                predicted_queries: 10,
                predicted_cost_units: 20,
                calibrated_queries: 12,
                calibrated_cost_units: 26,
            },
            EventKind::Replanned {
                from_strategy: "ta-order-by".into(),
                to_strategy: "md-rerank".into(),
                at_emitted: 3,
                queries_spent: 9,
                cost_units_spent: 27,
            },
            EventKind::RequestIssued {
                class: QueryClass::TopK,
            },
            EventKind::RequestCharged {
                class: QueryClass::Page,
                queries: 3,
                cost_units: 6,
            },
            EventKind::RetryAttempt { retry_index: 2 },
            EventKind::BackoffSleep {
                ms: 700,
                server_hinted: true,
            },
            EventKind::CircuitTrip { trips: 1 },
            EventKind::CircuitProbe { reopened: false },
            EventKind::KnowledgeHit {
                queries: 4,
                cost_units: 4,
            },
            EventKind::KnowledgeMiss {
                queries: 1,
                cost_units: 2,
            },
            EventKind::KnowledgeSeal {
                items: 25,
                queries_full: 40,
                cost_units_full: 55,
            },
            EventKind::MutationRepair {
                applied: 5,
                replacement_pulls: 2,
                redrove: false,
                queries_spent: 2,
            },
            EventKind::BudgetTrip {
                scope: BudgetScope::Service,
                spent: 100,
                limit: 100,
            },
            EventKind::SessionClose {
                emitted: 25,
                queries_spent: 40,
                cost_units_spent: 55,
                queries_saved: 0,
                cost_units_saved: 0,
            },
            EventKind::BatchServed { requests: 8 },
            EventKind::EdgeAdmitted { requests: 3 },
            EventKind::EdgeRejected {
                reason: "capacity".into(),
            },
        ];
        let site: Arc<str> = Arc::from("dealer-a");
        for kind in kinds {
            let name = kind.name();
            let e = Event {
                at_ms: 42,
                site: Arc::clone(&site),
                session: 7,
                kind,
            };
            let line = e.to_json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"event\":\"{name}\"")), "{line}");
            assert!(line.contains("\"site\":\"dealer-a\""), "{line}");
            // Balanced quotes: an even count means no unterminated string.
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
    }

    #[test]
    fn json_escaping_handles_hostile_names() {
        let e = Event {
            at_ms: 0,
            site: Arc::from("a\"b\\c\nd"),
            session: 0,
            kind: EventKind::SessionOpen {
                strategy: "s\ttrat".into(),
            },
        };
        let line = e.to_json_line();
        assert!(line.contains("a\\\"b\\\\c\\nd"), "{line}");
        assert!(line.contains("s\\ttrat"), "{line}");
        // Balanced string delimiters: even count of *unescaped* quotes.
        let unescaped = line.replace("\\\\", "").replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0, "{line}");
    }
}
