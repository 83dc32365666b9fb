//! Theorem 1 made executable: the adversarial server forces any reranking
//! algorithm to spend at least `n/k` queries to certify a 1D top-1. The
//! run also bounds the strategies from above: none may spend more than
//! `n/k + 1`, the one confirm probe 1D-RERANK may waste.

use crate::{print_figure, Scale, Series};
use qrs_core::one_d::primitives::{next_above, OneDSpec};
use qrs_core::{OneDStrategy, RerankParams, SharedState};
use qrs_server::{AdversaryServer, SearchInterface};
use qrs_types::{AttrId, Direction, Query};

/// Run every 1D strategy against the adversary for several k; print observed
/// cost against the `n/k` lower bound, which every row must meet and may
/// exceed by at most one query.
pub fn run(scale: Scale) -> Vec<Series> {
    // The adversary halves its threshold toward 0.0 for each fresh tuple,
    // and an f64 runs out of distinct halvings: past n = 760 at k = 1,
    // 1D-RERANK finds the bottom in 760 queries and the bound fails.
    let n = scale.pick(500, 700);
    let mut bound = Series::new("n/k lower bound");
    let mut series: Vec<Series> = OneDStrategy::ALL
        .iter()
        .map(|s| Series::new(s.label()))
        .collect();
    for &k in &[1usize, 2, 5, 10] {
        bound.push(k as f64, (n / k) as f64);
        for (si, &strategy) in OneDStrategy::ALL.iter().enumerate() {
            let adv = AdversaryServer::new(0.0, 1.0, n, k);
            let mut st = SharedState::new(adv.schema(), RerankParams::paper_defaults(n, k));
            let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
            let t = next_above(&adv, &mut st, &spec, strategy, f64::NEG_INFINITY, None)
                .expect("the adversary server does not fail");
            assert!(t.is_some(), "adversary database is non-empty");
            let observed = adv.queries_issued();
            assert!(
                observed >= (n / k) as u64,
                "{} certified a top-1 in {observed} queries, under the n/k = {} bound \
                 (n = {n}, k = {k})",
                strategy.label(),
                n / k
            );
            assert!(
                observed <= (n / k) as u64 + 1,
                "{} spent {observed} queries on a top-1, over the n/k + 1 = {} bound \
                 (n = {n}, k = {k})",
                strategy.label(),
                n / k + 1
            );
            series[si].push(k as f64, observed as f64);
        }
    }
    let mut all = vec![bound];
    all.extend(series);
    print_figure(
        &format!("Theorem 1 - queries to certify a 1D top-1 against the adversary (n={n})"),
        "k",
        &all,
    );
    all
}
