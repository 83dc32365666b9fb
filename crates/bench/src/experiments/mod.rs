//! One module per group of paper figures. Each `figN` function prints its
//! series. The 1-D and MD figures of one kind share one body over a table
//! of `(label, Algorithm)` rows: one n-sweep (Figs 6/7/13/14), one system-k
//! sweep (Figs 8/15) and one live-curve function (Figs 11/12/16/17).

pub mod ablation;
pub mod knowledge_reuse;
pub mod offline;
pub mod online;
pub mod planner_cost;
pub mod thm1;

use crate::runner::{measure, UserQuery};
use crate::Scale;
use qrs_core::md::ta::SortedAccess;
use qrs_core::{MdOptions, OneDStrategy, RerankParams, SharedState};
use qrs_datagen::{md_workload, one_d_workload, WorkloadConfig};
use qrs_server::{Capabilities, SimServer, SystemRank};
use qrs_service::Algorithm;
use qrs_types::Dataset;

/// One experiment: its id and its entry point.
pub type Experiment = (&'static str, fn(Scale));

/// Every experiment, in paper order, then the post-paper ones for the
/// cost-aware capability planner and the cross-session knowledge plane.
/// The one list [`run`], `figures all` and the `figures` usage line read.
pub const EXPERIMENTS: [Experiment; 15] = [
    ("fig6", offline::fig6),
    ("fig7", offline::fig7),
    ("fig8", offline::fig8),
    ("fig10", offline::fig10),
    ("fig11", online::fig11),
    ("fig12", online::fig12),
    ("fig13", offline::fig13),
    ("fig14", offline::fig14),
    ("fig15", offline::fig15),
    ("fig16", online::fig16),
    ("fig17", online::fig17),
    ("thm1", |s| drop(thm1::run(s))),
    ("ablation", ablation::run),
    ("planner_cost", |s| drop(planner_cost::run(s))),
    ("knowledge_reuse", |s| drop(knowledge_reuse::run(s))),
];

/// One algorithm of a figure: its series label and what the runner builds.
type Row = (&'static str, Algorithm);

/// 1D-RERANK (§3.2.1's 1D-BINARY over the shared state).
const ONE_D_RERANK: Algorithm = Algorithm::OneD(OneDStrategy::Rerank);
/// MD-RERANK (§4.3's MD-BINARY over the shared state).
const MD_RERANK: Algorithm = Algorithm::Md(MdOptions::rerank());
/// The paper's §4.1 comparator: TA over 1D-RERANK streams.
const TA_OVER_1D: Row = ("TA over 1D-RERANK", Algorithm::Ta(SortedAccess::OneD));

/// The 1-D algorithms of Figs 6/7 and 11/12 (§3).
const ONE_D: [Row; 2] = [
    ("1D-BASELINE", Algorithm::OneD(OneDStrategy::Baseline)),
    ("1D-RERANK", ONE_D_RERANK),
];

/// The MD algorithms of Figs 13/14 (the paper's MD-BINARY is MD-RERANK
/// here).
const MD: [Row; 3] = [
    TA_OVER_1D,
    ("MD-BASELINE", Algorithm::Md(MdOptions::baseline())),
    ("MD-RERANK", MD_RERANK),
];

/// The MD algorithms of Figs 16/17: the third row is the §5 extension,
/// which pages the site's own `ORDER BY` where it offers one and runs
/// 1D-RERANK elsewhere.
const MD_LIVE: [Row; 3] = [
    ("MD-RERANK", MD_RERANK),
    TA_OVER_1D,
    (
        "TA via public ORDER BY",
        Algorithm::Ta(SortedAccess::PublicOrderBy),
    ),
];

/// `queries` user queries over `data`, a share `unfiltered` of them
/// unfiltered, as the runner takes them: 1-D requests, or with `md`
/// requests ranking by several attributes.
fn draw(data: &Dataset, md: bool, queries: usize, unfiltered: f64, seed: u64) -> Vec<UserQuery> {
    let cfg = WorkloadConfig {
        num_queries: queries,
        no_filter_fraction: unfiltered,
        seed,
        ..WorkloadConfig::default()
    };
    if md {
        md_workload(data, &cfg)
            .iter()
            .map(UserQuery::from)
            .collect()
    } else {
        one_d_workload(data, &cfg)
            .iter()
            .map(UserQuery::from)
            .collect()
    }
}

/// A site of page size `k` over `data` ranking by `sys` and offering
/// `caps`, and an empty state for it with the paper's default parameters.
fn fresh(
    data: &Dataset,
    sys: SystemRank,
    k: usize,
    caps: Capabilities,
) -> (SimServer, SharedState) {
    let server = SimServer::new(data.clone(), sys, k).with_capabilities(caps);
    let st = SharedState::new(data.schema(), RerankParams::paper_defaults(data.len(), k));
    (server, st)
}

/// `(top-h, average cumulative cost)` at each of `checkpoints` over
/// `workload`, its user queries run in order on one shared state. Between
/// the user queries of a §6 figure, the paper's cost model keeps tuples but
/// not emptiness proofs, so the state forgets its complete regions before
/// each one; Ablation 3, which measures amortization, calls [`measure`]
/// itself and keeps everything.
fn mean_curve(
    server: &SimServer,
    st: &mut SharedState,
    workload: &[UserQuery],
    algorithm: Algorithm,
    checkpoints: &[usize],
) -> Vec<(f64, f64)> {
    let h = *checkpoints.last().expect("at least one checkpoint");
    let mut acc = vec![0.0f64; checkpoints.len()];
    for uq in workload {
        st.forget_complete_regions();
        let run = measure(server, st, uq, algorithm, h);
        for (a, &cp) in acc.iter_mut().zip(checkpoints) {
            *a += run.at(cp) as f64;
        }
    }
    let users = workload.len() as f64;
    (checkpoints.iter())
        .zip(acc)
        .map(|(&cp, a)| (cp as f64, a / users))
        .collect()
}

/// The ids of [`EXPERIMENTS`], in order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Run one experiment by id; `false` if the id is unknown.
pub fn run(id: &str, scale: Scale) -> bool {
    match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
        Some((_, experiment)) => {
            experiment(scale);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique() {
        let unique: std::collections::BTreeSet<&str> = ids().collect();
        assert_eq!(unique.len(), EXPERIMENTS.len());
    }
}
