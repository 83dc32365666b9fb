//! Cost-measuring runners: execute one user query with one algorithm and
//! report the number of server queries spent — the paper's §2.2 metric.
//! Every stream, 1D and MD alike, is checked by `assert_exact` against
//! the site's own data before its cost is reported, so a figure never shows
//! the cost of a wrong answer.

use qrs_core::md::ta::SortedAccess;
use qrs_core::strategy::{pull, RerankStrategy};
use qrs_core::{MdAlgo, MdOptions, OneDCursor, OneDSpec, OneDStrategy, SharedState};
use qrs_datagen::{MdUserQuery, OneDUserQuery};
use qrs_ranking::RankFn;
use qrs_server::{SearchInterface, SimServer};
use qrs_service::Algorithm;
use qrs_types::{Query, RerankError, Tuple};
use std::sync::Arc;

/// Queries spent retrieving the top `h` for a 1D user query.
pub fn one_d_top_h_cost(
    server: &SimServer,
    st: &mut SharedState,
    uq: &OneDUserQuery,
    strategy: OneDStrategy,
    h: usize,
) -> Result<u64, RerankError> {
    Ok(one_d_cost_curve(server, st, uq, strategy, h)?
        .last()
        .copied()
        .unwrap_or(0))
}

/// Cumulative queries spent after each of the first `h` Get-Nexts.
///
/// # Panics
///
/// If the stream is not exact (`assert_exact`, scoring a tuple by its
/// normalized value on the ranking attribute).
pub fn one_d_cost_curve(
    server: &SimServer,
    st: &mut SharedState,
    uq: &OneDUserQuery,
    strategy: OneDStrategy,
    h: usize,
) -> Result<Vec<u64>, RerankError> {
    // Paper cost model: tuples and dense indexes persist across user
    // queries; emptiness proofs do not (see SharedState docs).
    st.forget_complete_regions();
    let mut cur = OneDCursor::new(OneDSpec::new(uq.attr, uq.dir, uq.query.clone()), strategy);
    let (out, got) = measure(server, st, h, &mut cur)?;
    let score = |t: &Tuple| uq.dir.normalize(t.ord(uq.attr));
    assert_exact(server, &uq.query, score, &got, h, strategy.label());
    Ok(out)
}

/// Queries spent retrieving the top `h` for an MD user query.
pub fn md_top_h_cost(
    server: &SimServer,
    st: &mut SharedState,
    uq: &MdUserQuery,
    algo: MdAlgo,
    h: usize,
) -> Result<u64, RerankError> {
    Ok(md_cost_curve(server, st, uq, algo, h)?
        .last()
        .copied()
        .unwrap_or(0))
}

/// Cumulative queries spent after each of the first `h` Get-Nexts.
///
/// # Panics
///
/// If the stream is not exact (`assert_exact`, scoring a tuple by the
/// user's ranking function).
pub fn md_cost_curve(
    server: &SimServer,
    st: &mut SharedState,
    uq: &MdUserQuery,
    algo: MdAlgo,
    h: usize,
) -> Result<Vec<u64>, RerankError> {
    st.forget_complete_regions();
    let algorithm = match algo {
        // The paper's §4.1 comparator.
        MdAlgo::TaOver1D => Algorithm::Ta(SortedAccess::OneD(OneDStrategy::Rerank)),
        // The §5 extension: page the site's own ORDER BY where it offers
        // one, 1D-RERANK elsewhere.
        MdAlgo::TaPublicOrderBy => Algorithm::Ta(SortedAccess::PublicOrderBy),
        MdAlgo::Baseline => Algorithm::Md(MdOptions::baseline()),
        MdAlgo::Rerank => Algorithm::Md(MdOptions::rerank()),
    };
    let rank: Arc<dyn RankFn> = Arc::new(uq.rank.clone());
    let mut strategy = (algorithm.strategy(rank, uq.query.clone(), server))
        .expect("every MdAlgo is a built-in algorithm");
    let (out, got) = measure(server, st, h, strategy.as_mut())?;
    assert_exact(
        server,
        &uq.query,
        |t| uq.rank.score(t),
        &got,
        h,
        algo.label(),
    );
    Ok(out)
}

/// Pull up to `h` tuples out of `strategy`, one Get-Next at a time: the
/// cumulative queries spent after each pull (the empty last pull
/// included), and the tuples pulled.
fn measure(
    server: &SimServer,
    st: &mut SharedState,
    h: usize,
    strategy: &mut dyn RerankStrategy,
) -> Result<(Vec<u64>, Vec<Arc<Tuple>>), RerankError> {
    let before = server.queries_issued();
    let (mut out, mut got) = (Vec::with_capacity(h), Vec::with_capacity(h));
    for _ in 0..h {
        let t = pull(strategy, server, st, 1)?.pop();
        out.push(server.queries_issued() - before);
        match t {
            Some(t) => got.push(t),
            None => break,
        }
    }
    Ok((out, got))
}

/// The one tie contract, as the figures check it. A stream is exact when
/// its score sequence equals the dense ranking's bit for bit: `got` must
/// score as the first `min(h, |R(q)|)` tuples of a brute-force ranking of
/// the site's data under `score`. The order among equal scores is
/// deterministic but unspecified, so ids are not compared.
///
/// # Panics
///
/// On any difference, naming `algo` and the selection.
pub(crate) fn assert_exact(
    server: &SimServer,
    sel: &Query,
    score: impl Fn(&Tuple) -> f64,
    got: &[Arc<Tuple>],
    h: usize,
    algo: &str,
) {
    let bits =
        |ts: &[Arc<Tuple>]| -> Vec<u64> { ts.iter().take(h).map(|t| score(t).to_bits()).collect() };
    let truth = server.dataset().rank_by(sel, &score);
    assert_eq!(
        bits(got),
        bits(&truth),
        "{algo} emitted a wrong stream for {sel}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_core::RerankParams;
    use qrs_datagen::synthetic::uniform;
    use qrs_datagen::{md_workload, one_d_workload, WorkloadConfig};
    use qrs_server::{SimServer, SystemRank};

    #[test]
    fn curves_are_monotone_and_consistent() {
        let data = uniform(300, 2, 1, 601);
        let cfg = WorkloadConfig {
            num_queries: 3,
            ..WorkloadConfig::default()
        };
        let w1 = one_d_workload(&data, &cfg);
        let wm = md_workload(&data, &cfg);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(3), 5);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(300, 5));
        let c = one_d_cost_curve(&server, &mut st, &w1[0], OneDStrategy::Rerank, 5).unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
        for algo in MdAlgo::ALL {
            let c = md_cost_curve(&server, &mut st, &wm[0], algo, 3).unwrap();
            assert!(c.windows(2).all(|w| w[0] <= w[1]), "{}", algo.label());
        }
    }
}
