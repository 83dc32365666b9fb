//! Cost-measuring runners: execute one user query with one algorithm and
//! report the number of server queries spent — the paper's §2.2 metric.
//! Every MD stream is checked against the site's own data before its cost
//! is reported, so a figure never shows the cost of a wrong answer.

use qrs_core::md::ta::{SortedAccess, TaCursor};
use qrs_core::{
    MdAlgo, MdCursor, MdOptions, OneDCursor, OneDSpec, OneDStrategy, SharedState, TiePolicy,
};
use qrs_datagen::{MdUserQuery, OneDUserQuery};
use qrs_ranking::RankFn;
use qrs_server::{SearchInterface, SimServer};
use qrs_types::{RerankError, Tuple};
use std::sync::Arc;

/// Queries spent retrieving the top `h` for a 1D user query.
pub fn one_d_top_h_cost(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    uq: &OneDUserQuery,
    strategy: OneDStrategy,
    tie: TiePolicy,
    h: usize,
) -> Result<u64, RerankError> {
    Ok(one_d_cost_curve(server, st, uq, strategy, tie, h)?
        .last()
        .copied()
        .unwrap_or(0))
}

/// Cumulative queries spent after each of the first `h` Get-Nexts.
pub fn one_d_cost_curve(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    uq: &OneDUserQuery,
    strategy: OneDStrategy,
    tie: TiePolicy,
    h: usize,
) -> Result<Vec<u64>, RerankError> {
    // Paper cost model: tuples and dense indexes persist across user
    // queries; emptiness proofs do not (see SharedState docs).
    st.forget_complete_regions();
    let before = server.queries_issued();
    let mut cur = OneDCursor::new(
        OneDSpec::new(uq.attr, uq.dir, uq.query.clone()),
        strategy,
        tie,
    );
    let mut out = Vec::with_capacity(h);
    for _ in 0..h {
        let t = cur.next(server, st)?;
        out.push(server.queries_issued() - before);
        if t.is_none() {
            break;
        }
    }
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

type NextFn<'a> = Box<dyn FnMut(&mut SharedState) -> Result<Option<Arc<Tuple>>, RerankError> + 'a>;

/// Cumulative queries spent after each of the first `h` Get-Nexts.
///
/// # Panics
///
/// If the stream is not the exact top of `R(q)`: its scores must equal,
/// bit for bit, those of a brute-force ranking of the site's data.
pub fn md_cost_curve(
    server: &SimServer,
    st: &mut SharedState,
    uq: &MdUserQuery,
    algo: MdAlgo,
    h: usize,
) -> Result<Vec<u64>, RerankError> {
    st.forget_complete_regions();
    let before = server.queries_issued();
    let rank = Arc::new(uq.rank.clone());
    let mut next: NextFn = match algo {
        MdAlgo::TaOver1D | MdAlgo::TaPublicOrderBy => {
            let caps = server.capabilities();
            let access = match algo {
                // The §5 extension: page the site's own ORDER BY.
                MdAlgo::TaPublicOrderBy if !caps.order_by.is_empty() => SortedAccess::PublicOrderBy,
                // The paper's §4.1 comparator.
                _ => SortedAccess::OneD(OneDStrategy::Rerank),
            };
            let mut cur =
                TaCursor::with_server_caps(rank, uq.query.clone(), access, server.schema(), &caps);
            Box::new(move |st| cur.next(server, st))
        }
        MdAlgo::Baseline | MdAlgo::Rerank => {
            let opts = match algo {
                MdAlgo::Baseline => MdOptions::baseline(),
                _ => MdOptions::rerank(),
            };
            let mut cur = MdCursor::new(rank, uq.query.clone(), opts, server.schema());
            Box::new(move |st| cur.next(server, st))
        }
    };
    let (mut out, mut got) = (Vec::with_capacity(h), Vec::with_capacity(h));
    for _ in 0..h {
        let t = next(st)?;
        out.push(server.queries_issued() - before);
        match t {
            Some(t) => got.push(t),
            None => break,
        }
    }
    assert_exact(server, uq, algo, &got, h);
    Ok(out)
}

/// Panics unless `got` scores, bit for bit, as the first `min(h, |R(q)|)`
/// tuples of a brute-force ranking of the site's data; the order among
/// equal scores is free.
fn assert_exact(server: &SimServer, uq: &MdUserQuery, algo: MdAlgo, got: &[Arc<Tuple>], h: usize) {
    let bits = |ts: &[Arc<Tuple>]| -> Vec<u64> {
        ts.iter()
            .take(h)
            .map(|t| uq.rank.score(t).to_bits())
            .collect()
    };
    let truth = server.dataset().rank_by(&uq.query, |t| uq.rank.score(t));
    assert_eq!(
        bits(got),
        bits(&truth),
        "{} emitted a wrong stream for {}",
        algo.label(),
        uq.query
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
        let c = one_d_cost_curve(
            &server,
            &mut st,
            &w1[0],
            OneDStrategy::Rerank,
            TiePolicy::Exact,
            5,
        )
        .unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
        for algo in MdAlgo::ALL {
            let c = md_cost_curve(&server, &mut st, &wm[0], algo, 3).unwrap();
            assert!(c.windows(2).all(|w| w[0] <= w[1]), "{}", algo.label());
        }
    }
}
