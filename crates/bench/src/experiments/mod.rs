//! One module per group of paper figures. Each `figN` function prints its
//! series (and returns them for tests).

pub mod ablation;
pub mod capability_matrix;
pub mod knowledge_reuse;
pub mod md;
pub mod one_d;
pub mod online;
pub mod planner_cost;
pub mod thm1;

use crate::Scale;

/// One experiment: its id and its entry point.
pub type Experiment = (&'static str, fn(Scale));

/// Every experiment, in paper order, then the post-paper ones for the
/// cost-aware capability planner and the cross-session knowledge plane.
/// The one list [`run`], `figures all` and the `figures` usage line read.
pub const EXPERIMENTS: [Experiment; 17] = [
    ("fig6", |s| drop(one_d::fig6(s))),
    ("fig7", |s| drop(one_d::fig7(s))),
    ("fig8", |s| drop(one_d::fig8(s))),
    ("fig9", |s| drop(one_d::fig9(s))),
    ("fig10", |s| drop(one_d::fig10(s))),
    ("fig11", |s| drop(online::fig11(s))),
    ("fig12", |s| drop(online::fig12(s))),
    ("fig13", |s| drop(md::fig13(s))),
    ("fig14", |s| drop(md::fig14(s))),
    ("fig15", |s| drop(md::fig15(s))),
    ("fig16", |s| drop(online::fig16(s))),
    ("fig17", |s| drop(online::fig17(s))),
    ("thm1", |s| drop(thm1::run(s))),
    ("ablation", ablation::run),
    ("capability_matrix", |s| drop(capability_matrix::run(s))),
    ("planner_cost", |s| drop(planner_cost::run(s))),
    ("knowledge_reuse", |s| drop(knowledge_reuse::run(s))),
];

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
