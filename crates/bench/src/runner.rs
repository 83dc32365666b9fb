//! The one runner: execute one user query with one algorithm and report
//! the server queries spent after each Get-Next — the paper's §2.2 metric.
//! Figs 6–8 and 10–17 and Ablations 1, 3 and 4 all measure through
//! [`measure`], and it checks every stream with `assert_exact` against the
//! site's own data before reporting its cost, so a figure or an ablation
//! never shows the cost of a wrong answer. Two runs are not exact streams
//! and are not checked here: Theorem 1's adversary run (one top-1 against
//! an adaptive site with no fixed data to rank), and Ablation 4's
//! page-down rows, which are approximate by design and report their
//! recall.

use qrs_core::strategy::{pull, RerankStrategy};
use qrs_core::SharedState;
use qrs_datagen::{MdUserQuery, OneDUserQuery};
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SearchInterface, SimServer};
use qrs_service::Algorithm;
use qrs_types::{Dataset, Query, Tuple};
use std::sync::Arc;

/// A user request as the runner takes it: a selection and a ranking
/// function.
#[derive(Clone)]
pub struct UserQuery {
    pub sel: Query,
    pub rank: Arc<dyn RankFn>,
}

impl From<&OneDUserQuery> for UserQuery {
    /// A 1-D request ranks by `LinearRank::single(attr, dir)`: its score,
    /// `0.0 + 1.0·dir.normalize(v)`, orders exactly as the attribute does,
    /// and `Algorithm::OneD` builds its cursor from that one attribute and
    /// direction.
    fn from(uq: &OneDUserQuery) -> Self {
        UserQuery {
            sel: uq.query.clone(),
            rank: Arc::new(LinearRank::single(uq.attr, uq.dir)),
        }
    }
}

impl From<&MdUserQuery> for UserQuery {
    fn from(uq: &MdUserQuery) -> Self {
        UserQuery {
            sel: uq.query.clone(),
            rank: Arc::new(uq.rank.clone()),
        }
    }
}

/// What one measured user query spent and returned.
pub struct Run {
    /// Cumulative queries spent after each Get-Next, the empty last one
    /// included.
    pub curve: Vec<u64>,
    /// The tuples emitted, best first.
    pub tuples: Vec<Arc<Tuple>>,
}

impl Run {
    /// Queries spent up to the `h`-th Get-Next (1-based), or by the whole
    /// run if it ended sooner.
    pub fn at(&self, h: usize) -> u64 {
        self.curve
            .get(h - 1)
            .or(self.curve.last())
            .copied()
            .unwrap_or(0)
    }

    /// Queries the whole run spent.
    pub fn cost(&self) -> u64 {
        self.curve.last().copied().unwrap_or(0)
    }
}

/// Pull up to `h` tuples for `uq` out of `algorithm`, one Get-Next at a
/// time, against `server` and `st` as they stand (the caller decides what
/// the state keeps between user queries).
///
/// # Panics
///
/// If `algorithm` is not a built-in one, the site fails, or the stream is
/// not exact (`assert_exact`, scoring a tuple by `uq.rank`).
pub fn measure(
    server: &SimServer,
    st: &mut SharedState,
    uq: &UserQuery,
    algorithm: Algorithm,
    h: usize,
) -> Run {
    let (rank, sel, caps) = (Arc::clone(&uq.rank), uq.sel.clone(), server.capabilities());
    let mut strategy = (algorithm.strategy(rank, sel, server.schema(), &caps))
        .expect("the figures run built-in algorithms");
    measure_strategy(server, st, uq, strategy.as_mut(), h)
}

/// [`measure`] over a strategy object.
fn measure_strategy(
    server: &SimServer,
    st: &mut SharedState,
    uq: &UserQuery,
    strategy: &mut dyn RerankStrategy,
    h: usize,
) -> Run {
    let before = server.queries_issued();
    let (mut curve, mut tuples) = (Vec::new(), Vec::new());
    for _ in 0..h {
        let t = (pull(strategy, server, st, 1))
            .expect("the simulated site does not fail")
            .pop();
        curve.push(server.queries_issued() - before);
        match t {
            Some(t) => tuples.push(t),
            None => break,
        }
    }
    let data = server.dataset();
    assert_exact(&data, &uq.sel, &*uq.rank, &tuples, h, strategy.name());
    Run { curve, tuples }
}

/// The one tie contract, as the figures check it. A stream is exact when
/// its score sequence equals the dense ranking's bit for bit: `got` must
/// score as the first `min(h, |R(q)|)` tuples of a brute-force ranking of
/// the site's data under `rank`. The order among equal scores is
/// deterministic but unspecified, so ids are not compared.
///
/// # Panics
///
/// On any difference, naming `algo` and the selection.
pub(crate) fn assert_exact(
    data: &Dataset,
    sel: &Query,
    rank: &dyn RankFn,
    got: &[Arc<Tuple>],
    h: usize,
    algo: &str,
) {
    let bits = |ts: &[Arc<Tuple>]| -> Vec<u64> {
        ts.iter().take(h).map(|t| rank.score(t).to_bits()).collect()
    };
    let truth = data.rank_by(sel, |t| rank.score(t));
    assert_eq!(
        bits(got),
        bits(&truth),
        "{algo} emitted a wrong stream for {sel}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_core::md::ta::SortedAccess;
    use qrs_core::strategy::{CostEstimate, PlanContext, StrategyIo, StrategyStep};
    use qrs_core::{MdOptions, OneDStrategy, RerankParams};
    use qrs_datagen::synthetic::uniform;
    use qrs_datagen::{md_workload, one_d_workload, WorkloadConfig};
    use qrs_server::{SimServer, SystemRank};
    use qrs_types::RerankError;

    fn setup() -> (SimServer, SharedState, UserQuery, UserQuery) {
        let data = uniform(300, 2, 1, 601);
        let cfg = WorkloadConfig {
            num_queries: 3,
            ..WorkloadConfig::default()
        };
        let one_d = UserQuery::from(&one_d_workload(&data, &cfg)[0]);
        let md = UserQuery::from(&md_workload(&data, &cfg)[0]);
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(3), 5);
        let st = SharedState::new(data.schema(), RerankParams::paper_defaults(300, 5));
        (server, st, one_d, md)
    }

    #[test]
    fn curves_are_monotone_and_consistent() {
        let (server, mut st, one_d, md) = setup();
        let run = measure(
            &server,
            &mut st,
            &one_d,
            Algorithm::OneD(OneDStrategy::Rerank),
            5,
        );
        assert_eq!(run.curve.len(), 5);
        assert_eq!(run.tuples.len(), 5);
        assert!(run.curve.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!((run.at(1), run.at(5)), (run.curve[0], run.cost()));
        for algorithm in [
            Algorithm::Ta(SortedAccess::OneD),
            Algorithm::Md(MdOptions::baseline()),
            Algorithm::Md(MdOptions::rerank()),
        ] {
            let run = measure(&server, &mut st, &md, algorithm, 3);
            assert!(!run.tuples.is_empty(), "{algorithm:?}");
            assert!(run.curve.windows(2).all(|w| w[0] <= w[1]), "{algorithm:?}");
            assert_eq!((run.at(1), run.at(3)), (run.curve[0], run.cost()));
        }
    }

    /// Emits the true top-`h` with its first two tuples swapped.
    struct Misordered(Vec<Arc<Tuple>>);

    impl RerankStrategy for Misordered {
        fn name(&self) -> &str {
            "misordered"
        }

        fn estimate(&self, _: &PlanContext) -> CostEstimate {
            CostEstimate {
                queries: 0,
                cost_units: 0,
            }
        }

        fn next_step(&mut self, _: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
            Ok(match self.0.pop() {
                Some(t) => StrategyStep::Emit(t),
                None => StrategyStep::Exhausted,
            })
        }
    }

    #[test]
    #[should_panic(expected = "misordered emitted a wrong stream")]
    fn a_misordered_stream_panics() {
        let (server, mut st, _, md) = setup();
        let mut top = server.dataset().rank_by(&md.sel, |t| md.rank.score(t));
        top.truncate(5);
        assert_ne!(md.rank.score(&top[0]), md.rank.score(&top[1]));
        top.swap(0, 1);
        top.reverse(); // popped from the back
        let mut strategy = Misordered(top);
        measure_strategy(&server, &mut st, &md, &mut strategy, 5);
    }
}
