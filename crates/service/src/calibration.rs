//! The ledger-calibrated cost store behind the adaptive planner.
//!
//! Static plan-time estimates are priced under the site's *advertised*
//! [`qrs_types::CostModel`]. Real sites drift: the public price list goes
//! stale, or a strategy family's estimator is systematically off for a
//! particular data distribution. [`Calibration`] closes that loop with one
//! signal per strategy family: [`Calibration::observe_session`] folds each
//! finished session's *actual / predicted* query and cost-unit ratios into
//! two [`Ewma`]s (α = 0.3: a handful of drifted sessions visibly moves the
//! scale, one outlier does not dominate it).
//!
//! `Planner::plan` consults [`Calibration::scale`] to multiply each
//! candidate's static [`CostEstimate`] by the learned ratio before
//! ranking, so a strategy the site quietly over-charges loses the cost
//! race even while the advertised model still flatters it. The store is
//! deliberately service-shaped, not session-shaped: share one across
//! services (via `RerankService::with_calibration`) and every tenant's
//! finished sessions train the same model, the same amortization argument
//! as the knowledge plane.
//!
//! Determinism: everything is [`Ewma`]s fed in session-close order under
//! one mutex — identical session sequences produce bit-identical scales.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use qrs_core::strategy::CostEstimate;
use qrs_types::Ewma;

/// EWMA smoothing factor of both ratios.
const ALPHA: f64 = 0.3;

/// Session-level `actual / predicted` ratios for one strategy family.
#[derive(Debug, Clone)]
struct CalCell {
    query_ratio: Ewma,
    cost_ratio: Ewma,
}

/// Per-(strategy family) observed-cost ratios, fed from finished sessions;
/// consulted by `Planner::plan` to scale static estimates. See the module
/// docs.
#[derive(Default)]
pub struct Calibration {
    cells: Mutex<HashMap<String, CalCell>>,
}

impl fmt::Debug for Calibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Calibration")
            .field("strategies", &self.cells.lock().len())
            .finish()
    }
}

impl Calibration {
    /// An empty store.
    pub fn new() -> Self {
        Calibration::default()
    }

    /// An empty store behind an [`Arc`], ready for
    /// `RerankService::with_calibration`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Calibration::new())
    }

    /// Fold one finished session in: it was planned at `predicted` and
    /// spent `actual_queries` / `actual_cost_units` from its own pocket.
    /// Sessions predicted free carry no ratio signal and are ignored. The
    /// caller files only sessions that emitted and paid something, and
    /// never a *switched* one, whose blended spend describes neither
    /// strategy.
    pub fn observe_session(
        &self,
        strategy: &str,
        predicted: CostEstimate,
        actual_queries: u64,
        actual_cost_units: u64,
    ) {
        if predicted.queries == 0 || predicted.cost_units == 0 {
            return;
        }
        let mut cells = self.cells.lock();
        let cell = cells
            .entry(strategy.to_string())
            .or_insert_with(|| CalCell {
                query_ratio: Ewma::new(ALPHA),
                cost_ratio: Ewma::new(ALPHA),
            });
        cell.query_ratio
            .observe(actual_queries as f64 / predicted.queries as f64);
        cell.cost_ratio
            .observe(actual_cost_units as f64 / predicted.cost_units as f64);
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
                sessions: cell.cost_ratio.samples(),
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
    /// Finished sessions folded into the ratios.
    pub sessions: u64,
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
        c.observe_session("ta-order-by", predicted, 10, 60);
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
        d.observe_session("ta-order-by", predicted, 10, 60);
        assert_eq!(c.scale("ta-order-by"), d.scale("ta-order-by"));
    }

    #[test]
    fn zero_signal_sessions_are_ignored() {
        let c = Calibration::new();
        let free = CostEstimate {
            queries: 0,
            cost_units: 0,
        };
        c.observe_session("1d-rerank", free, 5, 5);
        assert_eq!(c.scale("1d-rerank"), None);
    }

    #[test]
    fn scale_units_rounds_up_and_floors_at_one() {
        assert_eq!(scale_units(10, 1.01), 11);
        assert_eq!(scale_units(10, 0.001), 1);
        assert_eq!(scale_units(10, f64::NAN), 10);
        assert_eq!(scale_units(10, f64::INFINITY), 10);
    }
}
