//! Tunable parameters of the reranking service.
//!
//! §3.2.2 of the paper: a region is *dense* when it holds at least `s` tuples
//! within a window narrower than `|V(Ai)|·(s/n)/c` — i.e. its density beats
//! uniform by a factor `c`. The paper's analysis recommends `c = n` (log-scale
//! effect on per-query cost) and `s = k·log₂ n` (linear effect), which
//! [`RerankParams::paper_defaults`] encodes; Fig. 9 sweeps both. The dense
//! thresholds are 1-D only: the §4.4 MD box index is not built (see
//! `md::top1`).

/// Parameters shared by every reranking algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RerankParams {
    /// (Estimate of) the database size `n`. A third-party service can obtain
    /// it from site metadata or standard size-estimation techniques; the
    /// dense thresholds only need its order of magnitude.
    pub n: f64,
    /// Dense-region tuple count `s`.
    pub s: f64,
    /// Dense-region density factor `c`.
    pub c: f64,
}

impl RerankParams {
    /// The paper's recommended setting: `c = n`, `s = k·log₂ n`.
    pub fn paper_defaults(n: usize, k: usize) -> Self {
        let nf = (n.max(2)) as f64;
        RerankParams {
            n: nf,
            s: (k.max(1) as f64) * nf.log2(),
            c: nf,
        }
    }

    /// Explicit values (used by the Fig. 9 parameter sweep).
    pub fn with_sc(n: usize, s: f64, c: f64) -> Self {
        assert!(s > 0.0 && c > 0.0);
        RerankParams {
            n: n.max(2) as f64,
            s,
            c,
        }
    }

    /// 1D dense-region width threshold for an attribute with domain width
    /// `domain_width`: `|V(Ai)|·(s/n)/c`.
    #[inline]
    pub fn dense_width(&self, domain_width: f64) -> f64 {
        domain_width * (self.s / self.n) / self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_formulas() {
        let p = RerankParams::paper_defaults(1024, 10);
        assert_eq!(p.n, 1024.0);
        assert_eq!(p.c, 1024.0);
        assert_eq!(p.s, 100.0); // 10 · log2(1024)
    }

    #[test]
    fn thresholds_scale() {
        let p = RerankParams::with_sc(1000, 50.0, 1000.0);
        let w = p.dense_width(2000.0);
        assert!((w - 2000.0 * 0.05 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sizes_clamped() {
        let p = RerankParams::paper_defaults(0, 0);
        assert!(p.n >= 2.0);
        assert!(p.s > 0.0);
    }
}
