//! The fleet monitor: folds the event stream into per-(site, strategy)
//! predicted-vs-actual spend tables.
//!
//! The *predicted* column is seeded by [`crate::EventKind::PlanChosen`]
//! events (plan-time `CostEstimate`s); the *actual* column is settled by
//! [`crate::EventKind::RequestCharged`] deltas, which carry the same
//! in-lock ledger numbers the session and service stats accumulate — so a
//! monitor report reconciles exactly against those ledgers, by
//! construction. Divergence ratios (actual / predicted) say how well the
//! planner's cost model describes the live site: a ratio drifting from
//! 1.0 means the site's advertised prices went stale.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{Event, EventKind};
use crate::Subscriber;

/// Accumulated spend for one (site, strategy) cell of the fleet table.
#[derive(Debug, Default, Clone, Copy)]
struct RowAccum {
    sessions: u64,
    predicted_queries: u64,
    predicted_cost_units: u64,
    actual_queries: u64,
    actual_cost_units: u64,
    saved_queries: u64,
    saved_cost_units: u64,
}

#[derive(Debug, Default)]
struct MonitorInner {
    /// Session ordinal → (site, strategy), registered at `SessionOpen` and
    /// dropped at `SessionClose`; events in between join through it.
    sessions: HashMap<(Arc<str>, u64), (Arc<str>, String)>,
    /// The fleet table. `BTreeMap` so reports iterate deterministically.
    rows: BTreeMap<(String, String), RowAccum>,
}

/// Folds events into the fleet's predicted-vs-actual table. One `Monitor`
/// is embedded in every enabled `ObsHandle`; services sharing a handle
/// (or a caller-constructed `Monitor` attached as a subscriber to several
/// handles) aggregate into one table keyed by site.
#[derive(Debug, Default)]
pub struct Monitor {
    inner: Mutex<MonitorInner>,
}

impl Monitor {
    /// An empty monitor, ready to attach as a [`Subscriber`].
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Fold one event. Events whose session was never registered (e.g. a
    /// stream attached mid-flight) are ignored rather than misattributed.
    pub fn fold(&self, event: &Event) {
        let mut inner = self.inner.lock();
        let skey = (Arc::clone(&event.site), event.session);
        match &event.kind {
            EventKind::SessionOpen { strategy } => {
                inner
                    .sessions
                    .insert(skey, (Arc::clone(&event.site), strategy.clone()));
                let row = inner
                    .rows
                    .entry((event.site.to_string(), strategy.clone()))
                    .or_default();
                row.sessions += 1;
            }
            EventKind::PlanChosen {
                predicted_queries,
                predicted_cost_units,
                ..
            } => {
                if let Some((site, strategy)) = inner.sessions.get(&skey).cloned() {
                    let row = inner.rows.entry((site.to_string(), strategy)).or_default();
                    row.predicted_queries += predicted_queries;
                    row.predicted_cost_units += predicted_cost_units;
                }
            }
            EventKind::RequestCharged {
                queries,
                cost_units,
                ..
            } => {
                if let Some((site, strategy)) = inner.sessions.get(&skey).cloned() {
                    let row = inner.rows.entry((site.to_string(), strategy)).or_default();
                    row.actual_queries += queries;
                    row.actual_cost_units += cost_units;
                }
            }
            EventKind::KnowledgeHit {
                queries,
                cost_units,
            } => {
                if let Some((site, strategy)) = inner.sessions.get(&skey).cloned() {
                    let row = inner.rows.entry((site.to_string(), strategy)).or_default();
                    row.saved_queries += queries;
                    row.saved_cost_units += cost_units;
                }
            }
            EventKind::SessionClose { .. } => {
                // The row's accumulated spend persists; only the join entry
                // for the (now unreachable) session ordinal is dropped.
                inner.sessions.remove(&skey);
            }
            _ => {}
        }
    }

    /// Snapshot the fleet table, rows sorted by (site, strategy).
    ///
    /// The order is a pinned contract, not an accident of storage: reports
    /// must diff cleanly across runs and across however many threads fed
    /// the monitor, so the snapshot re-sorts explicitly even though the
    /// backing `BTreeMap` already iterates in key order.
    pub fn report(&self) -> MonitorReport {
        let inner = self.inner.lock();
        let mut rows: Vec<MonitorRow> = inner
            .rows
            .iter()
            .map(|((site, strategy), a)| MonitorRow {
                site: site.clone(),
                strategy: strategy.clone(),
                sessions: a.sessions,
                predicted_queries: a.predicted_queries,
                predicted_cost_units: a.predicted_cost_units,
                actual_queries: a.actual_queries,
                actual_cost_units: a.actual_cost_units,
                saved_queries: a.saved_queries,
                saved_cost_units: a.saved_cost_units,
            })
            .collect();
        rows.sort_by(|a, b| (&a.site, &a.strategy).cmp(&(&b.site, &b.strategy)));
        MonitorReport { rows }
    }
}

impl Subscriber for Monitor {
    fn on_event(&self, event: &Event) {
        self.fold(event);
    }
}

/// One (site, strategy) cell of the fleet table.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorRow {
    /// Site label of the service that ran the sessions.
    pub site: String,
    /// Strategy name in the `qrs_core::strategy::names` vocabulary.
    pub strategy: String,
    /// Sessions opened in this cell.
    pub sessions: u64,
    /// Sum of plan-time query estimates across those sessions.
    pub predicted_queries: u64,
    /// Sum of plan-time weighted-cost estimates.
    pub predicted_cost_units: u64,
    /// Raw queries actually charged (exactly the ledger numbers).
    pub actual_queries: u64,
    /// Weighted cost units actually charged.
    pub actual_cost_units: u64,
    /// Queries the knowledge plane answered for free.
    pub saved_queries: u64,
    /// Cost units those hits would have been billed.
    pub saved_cost_units: u64,
}

/// An actual-vs-predicted spend ratio with a typed sentinel for the
/// zero-prediction cell, instead of `inf`/`NaN` (which would poison any
/// aggregation) or a bare `Option` (which throws away how much was
/// actually spent against the missing prediction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Divergence {
    /// `actual / predicted` with a nonzero denominator. 1.0 means the
    /// planner's model described the site perfectly; above it, sessions
    /// cost more than planned.
    Ratio(f64),
    /// Nothing was predicted for this cell (e.g. custom-strategy sessions,
    /// or a stream attached after `PlanChosen`); `actual` units were still
    /// charged against it.
    NoPrediction {
        /// Units actually spent against the zero prediction.
        actual: u64,
    },
}

impl Divergence {
    fn of(actual: u64, predicted: u64) -> Self {
        if predicted > 0 {
            Divergence::Ratio(actual as f64 / predicted as f64)
        } else {
            Divergence::NoPrediction { actual }
        }
    }

    /// The ratio, or `None` for the zero-prediction sentinel.
    pub fn ratio(&self) -> Option<f64> {
        match self {
            Divergence::Ratio(r) => Some(*r),
            Divergence::NoPrediction { .. } => None,
        }
    }
}

impl MonitorRow {
    /// `actual_queries / predicted_queries` against the plan-time
    /// estimates, with a typed sentinel when nothing was predicted.
    pub fn query_divergence(&self) -> Divergence {
        Divergence::of(self.actual_queries, self.predicted_queries)
    }

    /// `actual_cost_units / predicted_cost_units` against the plan-time
    /// estimates.
    pub fn cost_divergence(&self) -> Divergence {
        Divergence::of(self.actual_cost_units, self.predicted_cost_units)
    }
}

/// A deterministic snapshot of the fleet table (rows sorted by
/// (site, strategy)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorReport {
    /// The table, one row per (site, strategy) pair that opened a session.
    pub rows: Vec<MonitorRow>,
}

impl MonitorReport {
    /// Look up one cell.
    pub fn row(&self, site: &str, strategy: &str) -> Option<&MonitorRow> {
        self.rows
            .iter()
            .find(|r| r.site == site && r.strategy == strategy)
    }

    /// Total actual raw queries across the fleet.
    pub fn actual_queries_total(&self) -> u64 {
        self.rows.iter().map(|r| r.actual_queries).sum()
    }

    /// Total actual weighted cost across the fleet.
    pub fn actual_cost_units_total(&self) -> u64 {
        self.rows.iter().map(|r| r.actual_cost_units).sum()
    }

    /// Total knowledge savings (queries) across the fleet.
    pub fn saved_queries_total(&self) -> u64 {
        self.rows.iter().map(|r| r.saved_queries).sum()
    }

    /// Total knowledge savings (cost units) across the fleet.
    pub fn saved_cost_units_total(&self) -> u64 {
        self.rows.iter().map(|r| r.saved_cost_units).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryClass;

    fn ev(site: &Arc<str>, session: u64, kind: EventKind) -> Event {
        Event {
            at_ms: 0,
            site: Arc::clone(site),
            session,
            kind,
        }
    }

    #[test]
    fn fold_joins_charges_to_the_opening_strategy() {
        let m = Monitor::new();
        let site: Arc<str> = Arc::from("dealer-a");
        m.fold(&ev(
            &site,
            1,
            EventKind::SessionOpen {
                strategy: "1d-rerank".into(),
            },
        ));
        m.fold(&ev(
            &site,
            1,
            EventKind::PlanChosen {
                strategy: "1d-rerank".into(),
                predicted_queries: 10,
                predicted_cost_units: 15,
            },
        ));
        m.fold(&ev(
            &site,
            1,
            EventKind::RequestCharged {
                class: QueryClass::TopK,
                queries: 4,
                cost_units: 6,
            },
        ));
        m.fold(&ev(
            &site,
            1,
            EventKind::RequestCharged {
                class: QueryClass::TopK,
                queries: 8,
                cost_units: 12,
            },
        ));
        m.fold(&ev(
            &site,
            1,
            EventKind::KnowledgeHit {
                queries: 2,
                cost_units: 3,
            },
        ));
        let report = m.report();
        let row = report.row("dealer-a", "1d-rerank").expect("row");
        assert_eq!(row.sessions, 1);
        assert_eq!(row.predicted_queries, 10);
        assert_eq!(row.predicted_cost_units, 15);
        assert_eq!(row.actual_queries, 12);
        assert_eq!(row.actual_cost_units, 18);
        assert_eq!(row.saved_queries, 2);
        assert_eq!(row.saved_cost_units, 3);
        assert_eq!(row.query_divergence().ratio(), Some(1.2));
        assert_eq!(row.cost_divergence().ratio(), Some(1.2));
    }

    #[test]
    fn rows_persist_after_session_close_and_sort_deterministically() {
        let m = Monitor::new();
        let a: Arc<str> = Arc::from("b-site");
        let b: Arc<str> = Arc::from("a-site");
        for (site, sess, strat) in [(&a, 1, "md-rerank"), (&b, 1, "1d-rerank")] {
            m.fold(&ev(
                site,
                sess,
                EventKind::SessionOpen {
                    strategy: strat.into(),
                },
            ));
            m.fold(&ev(
                site,
                sess,
                EventKind::RequestCharged {
                    class: QueryClass::TopK,
                    queries: 1,
                    cost_units: 1,
                },
            ));
            m.fold(&ev(
                site,
                sess,
                EventKind::SessionClose {
                    emitted: 1,
                    queries_spent: 1,
                    cost_units_spent: 1,
                    queries_saved: 0,
                    cost_units_saved: 0,
                },
            ));
        }
        let report = m.report();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].site, "a-site");
        assert_eq!(report.rows[1].site, "b-site");
        assert_eq!(report.actual_queries_total(), 2);
        // Charges for a closed (unregistered) session are dropped, not
        // misattributed.
        m.fold(&ev(
            &a,
            1,
            EventKind::RequestCharged {
                class: QueryClass::TopK,
                queries: 99,
                cost_units: 99,
            },
        ));
        assert_eq!(m.report().actual_queries_total(), 2);
    }

    #[test]
    fn report_order_is_deterministic_under_concurrent_feeds() {
        // Many threads hammer one monitor with interleaved sessions across
        // shuffled (site, strategy) pairs; every snapshot must come back
        // sorted by (site, strategy) and identical across repeated calls —
        // the diff-cleanly contract, independent of feed schedule.
        use std::sync::Arc as StdArc;
        let m = StdArc::new(Monitor::new());
        let pairs = [
            ("zeta", "md-rerank"),
            ("alpha", "ta-order-by"),
            ("mid", "1d-rerank"),
            ("alpha", "1d-rerank"),
            ("zeta", "1d-rerank"),
        ];
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = StdArc::clone(&m);
                std::thread::spawn(move || {
                    for (i, (site, strat)) in pairs.iter().enumerate() {
                        let site: Arc<str> = Arc::from(*site);
                        // Distinct session ordinals per thread so joins
                        // never collide across threads.
                        let sess = (t * pairs.len() + i + 1) as u64;
                        let m = &*m;
                        m.fold(&Event {
                            at_ms: 0,
                            site: Arc::clone(&site),
                            session: sess,
                            kind: EventKind::SessionOpen {
                                strategy: (*strat).into(),
                            },
                        });
                        m.fold(&Event {
                            at_ms: 0,
                            site: Arc::clone(&site),
                            session: sess,
                            kind: EventKind::RequestCharged {
                                class: QueryClass::TopK,
                                queries: 1,
                                cost_units: 2,
                            },
                        });
                        m.fold(&Event {
                            at_ms: 0,
                            site,
                            session: sess,
                            kind: EventKind::SessionClose {
                                emitted: 1,
                                queries_spent: 1,
                                cost_units_spent: 2,
                                queries_saved: 0,
                                cost_units_saved: 0,
                            },
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = m.report();
        let keys: Vec<(String, String)> = report
            .rows
            .iter()
            .map(|r| (r.site.clone(), r.strategy.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "rows must be sorted by (site, strategy)");
        assert_eq!(report.rows.len(), 5, "one row per distinct pair");
        assert_eq!(report.actual_queries_total(), 8 * 5);
        // Snapshots are stable: a second report is identical.
        assert_eq!(report, m.report());
    }

    #[test]
    fn divergence_uses_typed_sentinel_without_predictions() {
        let row = MonitorRow {
            site: "s".into(),
            strategy: "custom".into(),
            sessions: 1,
            predicted_queries: 0,
            predicted_cost_units: 0,
            actual_queries: 5,
            actual_cost_units: 5,
            saved_queries: 0,
            saved_cost_units: 0,
        };
        // No inf/NaN: the zero-prediction cell carries its actual spend.
        assert_eq!(
            row.query_divergence(),
            Divergence::NoPrediction { actual: 5 }
        );
        assert_eq!(row.query_divergence().ratio(), None);
        assert_eq!(
            row.cost_divergence(),
            Divergence::NoPrediction { actual: 5 }
        );
    }

    #[test]
    fn same_session_ordinal_on_different_sites_does_not_collide() {
        let m = Monitor::new();
        let a: Arc<str> = Arc::from("site-a");
        let b: Arc<str> = Arc::from("site-b");
        m.fold(&ev(
            &a,
            1,
            EventKind::SessionOpen {
                strategy: "1d-rerank".into(),
            },
        ));
        m.fold(&ev(
            &b,
            1,
            EventKind::SessionOpen {
                strategy: "page-down".into(),
            },
        ));
        m.fold(&ev(
            &b,
            1,
            EventKind::RequestCharged {
                class: QueryClass::Page,
                queries: 7,
                cost_units: 7,
            },
        ));
        let report = m.report();
        assert_eq!(report.row("site-a", "1d-rerank").unwrap().actual_queries, 0);
        assert_eq!(report.row("site-b", "page-down").unwrap().actual_queries, 7);
    }
}
