//! The retry/backoff engine behind `Session::next`.
//!
//! [`qrs_types::RetryPolicy`] is the declarative config, set once per
//! service; this module is the machinery: the crate-private `RetryRunner`
//! owns one session's copy of the policy and its deterministic jitter RNG.
//! The policy's `max_attempts` per Get-Next step is the one bound on
//! recovery.
//!
//! One schedule, in priority order:
//!
//! 1. **The server's hint dominates.** A [`ServerError::RateLimited`] with
//!    `retry_after_ms` set is slept *exactly*: the backend said precisely
//!    when capacity returns, so neither the exponential schedule nor jitter
//!    applies.
//! 2. Otherwise `base * 2^(i-1)` (capped) plus a uniform jitter draw from
//!    `[0, jitter_ms]`, drawn from the seeded `rand` shim — deterministic,
//!    so tests assert exact sleep sequences on a [`qrs_server::MockClock`].
//!
//! [`ServerError::RateLimited`]: qrs_types::ServerError::RateLimited

use qrs_types::{RerankError, RetryPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-session retry state: the policy and the deterministic jitter RNG.
#[derive(Debug)]
pub(crate) struct RetryRunner {
    policy: RetryPolicy,
    rng: StdRng,
}

impl RetryRunner {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        let rng = StdRng::seed_from_u64(policy.seed);
        RetryRunner { policy, rng }
    }

    pub(crate) fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The sleep before retry `retry_index` (1-based) of a step that just
    /// failed with `err`. The server's `retry_after_ms` hint dominates the
    /// computed backoff; jitter only applies to the computed path.
    pub(crate) fn delay_ms(&mut self, retry_index: u32, err: &RerankError) -> u64 {
        if let Some(hint) = err.retry_after_hint() {
            return hint;
        }
        let base = self.policy.base_delay_ms(retry_index);
        let jitter = if self.policy.jitter_ms == 0 {
            0
        } else {
            self.rng.random_range(0..=self.policy.jitter_ms)
        };
        base.saturating_add(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::ServerError;

    fn rate_limited(hint: Option<u64>) -> RerankError {
        RerankError::Server(ServerError::RateLimited {
            retry_after_ms: hint,
        })
    }

    fn outage() -> RerankError {
        RerankError::Server(ServerError::unavailable("503"))
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RetryPolicy::none()
            .attempts(8)
            .backoff(100, 10_000)
            .jitter(50)
            .seed(7);
        let delays: Vec<u64> = {
            let mut r = RetryRunner::new(policy.clone());
            (1..=6).map(|i| r.delay_ms(i, &outage())).collect()
        };
        for (i, &d) in delays.iter().enumerate() {
            let base = 100u64 << i;
            assert!(
                (base..=base + 50).contains(&d),
                "retry {}: delay {d} outside [{base}, {}]",
                i + 1,
                base + 50
            );
        }
        // Same policy seed ⇒ same jitter sequence.
        let mut r2 = RetryRunner::new(policy);
        let replay: Vec<u64> = (1..=6).map(|i| r2.delay_ms(i, &outage())).collect();
        assert_eq!(delays, replay);
    }

    #[test]
    fn zero_jitter_is_pure_exponential() {
        let mut r = RetryRunner::new(RetryPolicy::none().attempts(8).backoff(10, 40));
        assert_eq!(r.delay_ms(1, &outage()), 10);
        assert_eq!(r.delay_ms(2, &outage()), 20);
        assert_eq!(r.delay_ms(3, &outage()), 40);
        assert_eq!(r.delay_ms(4, &outage()), 40);
    }

    #[test]
    fn retry_after_hint_dominates_computed_backoff() {
        let mut r = RetryRunner::new(
            RetryPolicy::none()
                .attempts(10)
                .backoff(1_000, 60_000)
                .jitter(500),
        );
        // Early retry, hint far above the computed 1s backoff: exactly the hint.
        assert_eq!(r.delay_ms(1, &rate_limited(Some(30_000))), 30_000);
        // Late retry, hint far below the computed backoff: still exactly the
        // hint — the server knows when capacity returns, no jitter added.
        assert_eq!(r.delay_ms(8, &rate_limited(Some(5))), 5);
        // No hint: back to the computed schedule.
        let d = r.delay_ms(1, &rate_limited(None));
        assert!((1_000..=1_500).contains(&d));
    }
}
