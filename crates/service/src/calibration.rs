//! The ledger-calibrated cost store behind the adaptive planner.
//!
//! Static plan-time estimates are priced under the site's *advertised*
//! [`qrs_types::CostModel`]. Real sites drift: the public price list goes
//! stale, or a strategy family's estimator is systematically off for a
//! particular data distribution. [`Calibration`] closes that loop with
//! observed-cost statistics per (strategy family):
//!
//! * **per-request** — [`Calibration::on_charge`] folds the same in-lock
//!   `(queries, cost_units)` deltas the session and service ledgers
//!   accumulate into a cost-units-per-query [`Ewma`] keyed by
//!   [`QueryClass`],
//! * **per-session** — [`Calibration::observe_session`] folds each
//!   finished session's *actual / predicted* spend ratios (and actual
//!   cost-per-emitted-row) into per-strategy [`Ewma`]s.
//!
//! `Planner::plan` consults [`Calibration::scale`] to multiply each
//! candidate's static [`CostEstimate`] by the learned ratio before
//! ranking, so a strategy the site quietly over-charges loses the cost
//! race even while the advertised model still flatters it. The store is
//! deliberately service-shaped, not session-shaped: share one across
//! services (via `RerankService::with_calibration`) and every tenant's
//! charged deltas train the same model, the same amortization argument as
//! the knowledge plane.
//!
//! Determinism: everything is [`Ewma`]s fed in ledger order under one
//! mutex — identical charge sequences produce bit-identical scales.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use qrs_core::strategy::CostEstimate;
use qrs_obs::QueryClass;
use qrs_types::Ewma;

/// Default EWMA smoothing factor: heavy enough that a handful of drifted
/// sessions visibly moves the scale, light enough that one outlier
/// session does not dominate it.
pub const DEFAULT_ALPHA: f64 = 0.3;

/// Observed-cost statistics for one strategy family.
#[derive(Debug, Clone)]
struct CalCell {
    /// Session-level `actual_queries / predicted_queries`.
    query_ratio: Ewma,
    /// Session-level `actual_cost_units / predicted_cost_units`.
    cost_ratio: Ewma,
    /// Session-level `actual_cost_units / rows emitted`.
    cost_per_row: Ewma,
    /// Request-level `cost_units / queries`, per [`QueryClass`].
    per_class: [Ewma; 4],
}

impl CalCell {
    fn new(alpha: f64) -> Self {
        CalCell {
            query_ratio: Ewma::new(alpha),
            cost_ratio: Ewma::new(alpha),
            cost_per_row: Ewma::new(alpha),
            per_class: [Ewma::new(alpha); 4],
        }
    }
}

/// Per-(strategy family) observed-cost statistics, fed from charged
/// ledger deltas and finished sessions; consulted by `Planner::plan` to
/// scale static estimates. See the module docs.
pub struct Calibration {
    alpha: f64,
    cells: Mutex<HashMap<String, CalCell>>,
}

impl fmt::Debug for Calibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells = self.cells.lock();
        f.debug_struct("Calibration")
            .field("alpha", &self.alpha)
            .field("strategies", &cells.len())
            .finish()
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// An empty store with the stock smoothing factor
    /// ([`DEFAULT_ALPHA`]).
    pub fn new() -> Self {
        Calibration::with_alpha(DEFAULT_ALPHA)
    }

    /// An empty store with smoothing factor `alpha` (clamped into
    /// `(0, 1]` by [`Ewma::new`]).
    pub fn with_alpha(alpha: f64) -> Self {
        Calibration {
            alpha,
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// An empty store whose decay is expressed as a **half-life in
    /// sessions** ([`Ewma::with_half_life`]): after `half_life` further
    /// observed sessions, an old drift's weight has decayed to one half.
    /// The windowing knob for sites whose prices drift and then drift
    /// *back* — the calibrated estimate re-converges toward the advertised
    /// model at a guaranteed geometric rate instead of lingering on stale
    /// history.
    pub fn with_half_life(half_life: f64) -> Self {
        Calibration::with_alpha(Ewma::with_half_life(half_life).alpha())
    }

    /// An empty store behind an [`Arc`], ready for
    /// `RerankService::with_calibration`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Calibration::new())
    }

    /// Fold one charged request's ledger delta in: `dq` raw queries were
    /// billed `dc` weighted cost units as request class `class` by a
    /// session running `strategy`. Zero-query deltas (knowledge replays,
    /// uncharged refusals) carry no price signal and are ignored.
    pub fn on_charge(&self, strategy: &str, class: QueryClass, dq: u64, dc: u64) {
        if dq == 0 {
            return;
        }
        let mut cells = self.cells.lock();
        let cell = cells
            .entry(strategy.to_string())
            .or_insert_with(|| CalCell::new(self.alpha));
        cell.per_class[class.index()].observe(dc as f64 / dq as f64);
    }

    /// Fold one finished session in: it was planned at `predicted`, spent
    /// `actual_queries` / `actual_cost_units` from its own pocket, and
    /// emitted `emitted` rows. Sessions that emitted nothing (or were
    /// predicted free) carry no ratio signal and are ignored — the
    /// re-planning loop also never feeds a *switched* session here, since
    /// its blended spend describes neither strategy.
    pub fn observe_session(
        &self,
        strategy: &str,
        predicted: CostEstimate,
        actual_queries: u64,
        actual_cost_units: u64,
        emitted: u64,
    ) {
        if emitted == 0 || predicted.queries == 0 || predicted.cost_units == 0 {
            return;
        }
        let mut cells = self.cells.lock();
        let cell = cells
            .entry(strategy.to_string())
            .or_insert_with(|| CalCell::new(self.alpha));
        cell.query_ratio
            .observe(actual_queries as f64 / predicted.queries as f64);
        cell.cost_ratio
            .observe(actual_cost_units as f64 / predicted.cost_units as f64);
        cell.cost_per_row
            .observe(actual_cost_units as f64 / emitted as f64);
    }

    /// The learned `(query_ratio, cost_ratio)` scale for `strategy`, or
    /// `None` before any session trained it. The planner multiplies the
    /// static estimate by this; `(1.0, 1.0)` means the advertised model
    /// still describes the site.
    pub fn scale(&self, strategy: &str) -> Option<(f64, f64)> {
        let cells = self.cells.lock();
        let cell = cells.get(strategy)?;
        Some((cell.query_ratio.value()?, cell.cost_ratio.value()?))
    }

    /// Apply the learned scale to a static estimate: each component is
    /// multiplied by its ratio and rounded up (never below 1 — a planned
    /// strategy always costs *something*). Untrained strategies pass
    /// through unscaled.
    pub fn calibrate(&self, strategy: &str, estimate: CostEstimate) -> CostEstimate {
        match self.scale(strategy) {
            Some((qr, cr)) => CostEstimate {
                queries: scale_units(estimate.queries, qr),
                cost_units: scale_units(estimate.cost_units, cr),
            },
            None => estimate,
        }
    }

    /// Snapshot every trained strategy, sorted by name — the inspection
    /// surface the calibration tests report against.
    pub fn snapshot(&self) -> Vec<StrategyCalibration> {
        let cells = self.cells.lock();
        let mut out: Vec<StrategyCalibration> = cells
            .iter()
            .map(|(name, cell)| StrategyCalibration {
                strategy: name.clone(),
                query_ratio: cell.query_ratio.value(),
                cost_ratio: cell.cost_ratio.value(),
                cost_per_row: cell.cost_per_row.value(),
                sessions: cell.cost_ratio.samples(),
                class_cost_per_query: QueryClass::ALL.map(|c| cell.per_class[c.index()].value()),
            })
            .collect();
        out.sort_by(|a, b| a.strategy.cmp(&b.strategy));
        out
    }
}

/// `units × ratio`, rounded up, floored at 1. Non-finite or non-positive
/// products (a poisoned ratio) fall back to the unscaled units.
fn scale_units(units: u64, ratio: f64) -> u64 {
    let scaled = (units as f64 * ratio).ceil();
    if scaled.is_finite() && scaled >= 1.0 && scaled < u64::MAX as f64 {
        scaled as u64
    } else if (0.0..1.0).contains(&scaled) {
        1
    } else {
        units
    }
}

/// One strategy family's learned statistics, from
/// [`Calibration::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyCalibration {
    /// Strategy name in the `qrs_core::strategy::names` vocabulary.
    pub strategy: String,
    /// EWMA of session-level `actual_queries / predicted_queries`.
    pub query_ratio: Option<f64>,
    /// EWMA of session-level `actual_cost_units / predicted_cost_units`.
    pub cost_ratio: Option<f64>,
    /// EWMA of actual weighted cost per emitted row.
    pub cost_per_row: Option<f64>,
    /// Finished sessions folded into the ratios.
    pub sessions: u64,
    /// EWMA of per-request `cost_units / queries`, indexed by
    /// [`QueryClass::ALL`] order.
    pub class_cost_per_query: [Option<f64>; 4],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_store_passes_estimates_through() {
        let c = Calibration::new();
        assert_eq!(c.scale("1d-rerank"), None);
        let e = CostEstimate {
            queries: 10,
            cost_units: 25,
        };
        assert_eq!(c.calibrate("1d-rerank", e), e);
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn session_ratios_scale_future_estimates_deterministically() {
        let c = Calibration::new();
        let predicted = CostEstimate {
            queries: 10,
            cost_units: 20,
        };
        // One drifted session: the site charged 3× the advertised cost.
        c.observe_session("ta-order-by", predicted, 10, 60, 5);
        assert_eq!(c.scale("ta-order-by"), Some((1.0, 3.0)));
        let cal = c.calibrate(
            "ta-order-by",
            CostEstimate {
                queries: 8,
                cost_units: 16,
            },
        );
        assert_eq!((cal.queries, cal.cost_units), (8, 48));
        // The other family's estimate is untouched.
        assert_eq!(c.scale("1d-rerank"), None);
        // Replaying the same feed yields bit-identical scales.
        let d = Calibration::new();
        d.observe_session("ta-order-by", predicted, 10, 60, 5);
        assert_eq!(c.scale("ta-order-by"), d.scale("ta-order-by"));
    }

    #[test]
    fn zero_signal_sessions_and_charges_are_ignored() {
        let c = Calibration::new();
        let p = CostEstimate {
            queries: 10,
            cost_units: 10,
        };
        c.observe_session("1d-rerank", p, 5, 5, 0); // emitted nothing
        c.observe_session(
            "1d-rerank",
            CostEstimate {
                queries: 0,
                cost_units: 0,
            },
            5,
            5,
            5,
        ); // predicted free
        c.on_charge("1d-rerank", QueryClass::TopK, 0, 0); // zero-query delta
        assert_eq!(c.scale("1d-rerank"), None);
    }

    #[test]
    fn per_class_cost_per_query_tracks_charged_deltas() {
        let c = Calibration::new();
        c.on_charge("page-down", QueryClass::Page, 2, 4);
        c.on_charge("page-down", QueryClass::Page, 1, 2);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.strategy, "page-down");
        assert_eq!(s.class_cost_per_query[QueryClass::Page.index()], Some(2.0));
        assert_eq!(s.class_cost_per_query[QueryClass::TopK.index()], None);
        assert_eq!(s.sessions, 0);
    }

    #[test]
    fn reverted_drift_reconverges_within_the_half_life_window() {
        // A site drifts to 3× the advertised cost, trains the store, then
        // reverts to honest billing. With a half-life of 4 sessions the
        // residual bias must halve every 4 honest sessions — so two windows
        // shrink the drift bias to a quarter of its peak.
        let half_life = 4.0;
        let c = Calibration::with_half_life(half_life);
        let predicted = CostEstimate {
            queries: 10,
            cost_units: 20,
        };
        // Long drifted phase: the scale converges to (1.0, 3.0).
        for _ in 0..64 {
            c.observe_session("ta-order-by", predicted, 10, 60, 5);
        }
        let (_, drifted) = c.scale("ta-order-by").unwrap();
        assert!((drifted - 3.0).abs() < 1e-6, "drifted scale: {drifted}");
        // The site reverts: honest sessions, one half-life's worth.
        for _ in 0..4 {
            c.observe_session("ta-order-by", predicted, 10, 20, 5);
        }
        let (_, after_one) = c.scale("ta-order-by").unwrap();
        let bias_one = after_one - 1.0;
        assert!(
            (bias_one - (drifted - 1.0) / 2.0).abs() < 1e-9,
            "one window must halve the bias: {after_one}"
        );
        // A second window halves it again — a quarter of the peak bias.
        for _ in 0..4 {
            c.observe_session("ta-order-by", predicted, 10, 20, 5);
        }
        let (_, after_two) = c.scale("ta-order-by").unwrap();
        assert!(
            (after_two - 1.0).abs() <= 0.5 + 1e-9,
            "two windows must shrink the bias to a quarter: {after_two}"
        );
        // And the scaled estimate has actually moved back toward advertised.
        let cal = c.calibrate("ta-order-by", predicted);
        assert!(
            cal.cost_units < 40,
            "a reverted site must shed its stale 3x estimate, got {}",
            cal.cost_units
        );
    }

    #[test]
    fn scale_units_rounds_up_and_floors_at_one() {
        assert_eq!(scale_units(10, 1.01), 11);
        assert_eq!(scale_units(10, 0.001), 1);
        assert_eq!(scale_units(10, f64::NAN), 10);
        assert_eq!(scale_units(10, f64::INFINITY), 10);
    }
}
