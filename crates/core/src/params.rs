//! Tunable parameters of the reranking service.
//!
//! The one parameter is the service's estimate of the database size `n`,
//! which 1D-RERANK's confirm probe reads to judge whether an interval fits
//! one page (`one_d::primitives`). §3.2.2's dense-region thresholds `s` and
//! `c` are not kept: neither its 1-D index nor the §4.4 MD box index is
//! built (README, "Named deviations").

/// Parameters shared by every reranking algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RerankParams {
    /// (Estimate of) the database size `n`. A third-party service can obtain
    /// it from site metadata or standard size-estimation techniques; the
    /// algorithms only need its order of magnitude.
    pub n: f64,
}

impl RerankParams {
    /// Parameters for a database of about `n` tuples behind a site of page
    /// size `k`. `k` is not read: it sized §3.2.2's dense-region threshold,
    /// and the two-argument form stays for the callers that pass it.
    pub fn paper_defaults(n: usize, _k: usize) -> Self {
        RerankParams { n: n.max(2) as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_sizes_clamped() {
        assert_eq!(RerankParams::paper_defaults(1024, 10).n, 1024.0);
        assert!(RerankParams::paper_defaults(0, 0).n >= 2.0);
    }
}
