//! Adaptive-planning configuration and the EWMA primitive it runs on.
//!
//! The static planner prices candidates under the site's *advertised*
//! [`crate::CostModel`]. Real sites drift: the advertised prices go stale,
//! or the per-family estimators are systematically off for a particular
//! data distribution. The adaptive layer (`qrs-service`'s `Calibration`)
//! closes that loop by folding each finished session's actual/predicted
//! spend into exponentially weighted moving averages and scaling future
//! predictions by them; this module holds the switch ([`AdaptiveConfig`])
//! and the deterministic [`Ewma`] accumulator.

/// Which of the closed-loop adaptive planner's two loops run.
///
/// * **calibration** — each finished session's actual/predicted spend
///   ratios train the service's `Calibration` store, and `Planner::plan`
///   scales every candidate's static estimate by them before ranking;
/// * **re-planning** — a running `Auto` session whose actual weighted
///   spend exceeds twice its calibrated prediction (once at least 8 units
///   were paid, and only before the plan horizon is reached) re-plans
///   among the remaining feasible candidates, ranked by calibrated
///   estimates, and switches strategies mid-flight without losing
///   paid-for knowledge. The 2× / 8-unit trigger is fixed.
///
/// Three configurations exist: [`AdaptiveConfig::disabled`] (the default:
/// the service behaves exactly like the static planner),
/// [`AdaptiveConfig::enabled`] (both loops), and
/// `enabled().without_replan()` (learn costs, never switch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveConfig {
    calibrate: bool,
    replan: bool,
}

impl AdaptiveConfig {
    /// Both loops on.
    pub fn enabled() -> Self {
        AdaptiveConfig {
            calibrate: true,
            replan: true,
        }
    }

    /// Everything off — the static planner, bit for bit. The default.
    pub fn disabled() -> Self {
        AdaptiveConfig {
            calibrate: false,
            replan: false,
        }
    }

    /// Builder: re-planning opt-out — keep learning costs but never switch
    /// a running session.
    pub fn without_replan(mut self) -> Self {
        self.replan = false;
        self
    }

    /// True when the calibration loop runs (the service only pays any
    /// adaptive bookkeeping at all in that case).
    pub fn is_active(&self) -> bool {
        self.calibrate
    }

    /// True when a running session may switch strategies mid-flight.
    pub fn replans(&self) -> bool {
        self.replan
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::disabled()
    }
}

/// A deterministic exponentially weighted moving average.
///
/// The first observation seeds the average exactly; each later one folds
/// in as `value ← (1 − α)·value + α·x`. Plain IEEE `f64` arithmetic in a
/// fixed order, so identical observation sequences produce bit-identical
/// averages on every platform — the property the seed-swept calibration
/// tests lean on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    /// Smoothing factor α ∈ (0, 1]: the weight of the newest observation.
    alpha: f64,
    value: f64,
    samples: u64,
}

impl Ewma {
    /// An empty average with smoothing factor `alpha` (clamped into
    /// `(0, 1]`; non-finite values fall back to 0.5).
    pub fn new(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            0.5
        };
        Ewma {
            alpha,
            value: 0.0,
            samples: 0,
        }
    }

    /// Fold one observation in. Non-finite observations are ignored — a
    /// poisoned sample must never poison every later prediction.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.samples == 0 {
            self.value = x;
        } else {
            self.value = (1.0 - self.alpha) * self.value + self.alpha * x;
        }
        self.samples += 1;
    }

    /// The current average, or `None` before any observation landed.
    pub fn value(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.value)
    }

    /// Observations folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_and_builders_toggle() {
        let d = AdaptiveConfig::default();
        assert!(!d.is_active() && !d.replans());
        assert_eq!(d, AdaptiveConfig::disabled());
        let e = AdaptiveConfig::enabled();
        assert!(e.is_active() && e.replans());
        let learn_only = AdaptiveConfig::enabled().without_replan();
        assert!(learn_only.is_active() && !learn_only.replans());
    }

    #[test]
    fn ewma_seeds_exactly_and_converges_deterministically() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(20.0);
        assert_eq!(e.value(), Some(15.0));
        e.observe(20.0);
        assert_eq!(e.value(), Some(17.5));
        assert_eq!(e.samples(), 3);
        // Bit-identical replay.
        let mut f = Ewma::new(0.5);
        for x in [10.0, 20.0, 20.0] {
            f.observe(x);
        }
        assert_eq!(e, f);
    }

    #[test]
    fn ewma_rejects_poisoned_samples_and_bad_alpha() {
        let mut e = Ewma::new(f64::NAN);
        e.observe(f64::INFINITY);
        e.observe(f64::NAN);
        assert_eq!(e.value(), None);
        e.observe(4.0);
        assert_eq!(e.value(), Some(4.0));
        // Alpha is clamped into (0, 1]: a huge alpha just tracks the
        // newest sample.
        let mut g = Ewma::new(9.0);
        g.observe(1.0);
        g.observe(7.0);
        assert_eq!(g.value(), Some(7.0));
    }
}
