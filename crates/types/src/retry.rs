//! Retry configuration for the fallible pipeline.
//!
//! The middleware fronts *remote, rate-limited* databases, so transient
//! refusals — 429s with a `Retry-After` hint, 5xx outages, pages truncated
//! in transit — are expected operating conditions, not exceptional ones.
//! [`RetryPolicy`] is the declarative half of the retry subsystem: how many
//! attempts a single Get-Next step may consume and how long to back off
//! between them. The imperative half (the retry loop and the jitter draw)
//! lives in `qrs-service`, which also threads an injectable clock through so
//! tests never sleep wall-clock time.
//!
//! Which errors are worth retrying is decided by
//! [`RerankError::is_retryable`]: only *server-side* transient failures.
//! [`RerankError::BudgetExhausted`] is transient too (budgets reset on a new
//! day) but retrying it without an external reset can never succeed, so the
//! retry loop surfaces it immediately instead of sleeping on it.
//!
//! [`RerankError::is_retryable`]: crate::RerankError::is_retryable
//! [`RerankError::BudgetExhausted`]: crate::RerankError::BudgetExhausted

/// How a session retries transient server failures.
///
/// An exhausted policy surfaces [`RetriesExhausted`] carrying the attempt
/// count and the last underlying error, so callers keep full attribution.
///
/// ```
/// use qrs_types::RetryPolicy;
///
/// // 6 attempts per step, 50 ms doubling backoff capped at 5 s, up to
/// // 25 ms of seeded jitter.
/// let policy = RetryPolicy::standard()
///     .attempts(6)
///     .backoff(50, 5_000)
///     .jitter(25)
///     .seed(42);
/// assert!(policy.retries_enabled());
/// assert_eq!(policy.max_attempts, 6);
/// // Pure exponential schedule (before jitter): 50, 100, 200, …
/// assert_eq!(policy.base_delay_ms(1), 50);
/// assert_eq!(policy.base_delay_ms(3), 200);
///
/// // The default is fail-fast: retries are an explicit opt-in.
/// assert!(!RetryPolicy::none().retries_enabled());
/// ```
///
/// Backoff for the `i`-th retry (1-based) is
/// `min(max_backoff_ms, base_backoff_ms * 2^(i-1))` plus a uniform jitter
/// draw from `[0, jitter_ms]` — except when the server supplied
/// `retry_after_ms`, which *dominates*: the session sleeps exactly the
/// server's hint, no jitter (the backend told us precisely when capacity
/// returns).
///
/// [`RetriesExhausted`]: crate::RerankError::RetriesExhausted
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts one Get-Next step may consume, including the first.
    /// `1` means fail fast (the default): the first error surfaces as-is.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_ms: u64,
    /// Cap on the exponential backoff (before jitter).
    pub max_backoff_ms: u64,
    /// Upper bound of the uniform jitter added to each computed backoff.
    pub jitter_ms: u64,
    /// Seed for the deterministic jitter draw (tests replay exact backoff
    /// sequences; production picks any seed).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Fail fast: no retries, errors surface unchanged. The default, so
    /// enabling retries is always an explicit opt-in.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_ms: 0,
            seed: 0,
        }
    }

    /// A reasonable production default: 4 attempts, 100 ms doubling backoff
    /// capped at 10 s, up to 100 ms of jitter.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 100,
            max_backoff_ms: 10_000,
            jitter_ms: 100,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Builder: total attempts per step (clamped to at least 1).
    pub fn attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Builder: exponential backoff base and cap.
    pub fn backoff(mut self, base_ms: u64, max_ms: u64) -> Self {
        self.base_backoff_ms = base_ms;
        self.max_backoff_ms = max_ms.max(base_ms);
        self
    }

    /// Builder: uniform jitter bound.
    pub fn jitter(mut self, jitter_ms: u64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// Builder: jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The computed (pre-jitter, pre-hint) backoff before retry
    /// `retry_index` (1-based): exponential doubling from
    /// `base_backoff_ms`, saturating at `max_backoff_ms`.
    pub fn base_delay_ms(&self, retry_index: u32) -> u64 {
        let exp = retry_index.saturating_sub(1).min(63);
        let factor = 1u64 << exp;
        self.base_backoff_ms
            .saturating_mul(factor)
            .min(self.max_backoff_ms)
    }

    /// Whether this policy ever retries.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fails_fast() {
        let p = RetryPolicy::default();
        assert_eq!(p, RetryPolicy::none());
        assert!(!p.retries_enabled());
        assert_eq!(p.max_attempts, 1);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::standard().backoff(100, 1_000);
        assert_eq!(p.base_delay_ms(1), 100);
        assert_eq!(p.base_delay_ms(2), 200);
        assert_eq!(p.base_delay_ms(3), 400);
        assert_eq!(p.base_delay_ms(4), 800);
        assert_eq!(p.base_delay_ms(5), 1_000);
        assert_eq!(p.base_delay_ms(60), 1_000);
        // Huge retry indices must not overflow the shift.
        assert_eq!(p.base_delay_ms(u32::MAX), 1_000);
    }

    #[test]
    fn builders_clamp_degenerate_inputs() {
        let p = RetryPolicy::none().attempts(0);
        assert_eq!(p.max_attempts, 1);
        let p = RetryPolicy::none().backoff(500, 10);
        assert_eq!(p.max_backoff_ms, 500);
    }
}
