//! The `capability_matrix` experiment: restricted-site profiles × query
//! workloads, planned by the capability-aware planner.
//!
//! For every cell the planner either selects an algorithm — in which case
//! the experiment *verifies exactness* against the dense oracle and records
//! the queries spent — or fails fast with a typed
//! [`qrs_types::RerankError::Unplannable`] naming the missing capabilities.
//! A panic or a silently wrong answer fails the run: the assertion is the
//! experiment.
//!
//! Two database sizes per profile make the page-depth capped profiles show
//! both faces: a shallow inventory fits inside a "showing results 1–N"
//! wall (plannable, exact), a deep one does not (typed refusal).
//!
//! Output is JSON lines, one object per cell:
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- --scale quick capability_matrix
//! ```

use crate::Scale;
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SearchInterface, SiteProfile, SystemRank};
use qrs_service::RerankService;
use qrs_types::{AttrId, Interval, Query, RerankError};
use std::sync::Arc;

/// One workload shape swept across every profile.
struct Workload {
    name: &'static str,
    sel: Query,
    rank: Arc<dyn RankFn>,
}

/// What one cell of the matrix produced.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The planner chose `algorithm`; the run was verified exact against
    /// the dense oracle at cost `queries_spent`.
    Planned {
        /// Planner-chosen strategy, by the name its plan row carries.
        algorithm: String,
        /// Queries charged to the session.
        queries_spent: u64,
        /// Whether the planner relaxed predicates server-side.
        relaxed: bool,
        /// Exactness versus the dense oracle (asserted true).
        exact: bool,
    },
    /// The planner refused: no algorithm fits this site model.
    Unplannable {
        /// Display strings of the missing capabilities.
        missing: Vec<String>,
    },
}

/// One row of the emitted matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Site-profile name.
    pub profile: &'static str,
    /// Database size for this cell.
    pub n: usize,
    /// Workload name.
    pub workload: &'static str,
    /// What happened.
    pub outcome: CellOutcome,
}

struct Params {
    n_small: usize,
    n_large: usize,
    k: usize,
    top_h: usize,
}

impl Params {
    fn for_scale(scale: Scale) -> Params {
        match scale {
            Scale::Quick => Params {
                n_small: 80,
                n_large: 400,
                k: 5,
                top_h: 8,
            },
            Scale::Paper => Params {
                n_small: 200,
                n_large: 5_000,
                k: 10,
                top_h: 15,
            },
        }
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "1d",
            sel: Query::all(),
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)])),
        },
        Workload {
            name: "2d",
            sel: Query::all(),
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])),
        },
        Workload {
            name: "2d_filtered",
            sel: Query::all().and_range(AttrId(0), Interval::open(0.2, 0.9)),
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 2.0)])),
        },
    ]
}

/// Run one cell: plan, execute, verify against the oracle.
fn run_cell(p: &Params, profile: &SiteProfile, n: usize, w: &Workload) -> MatrixCell {
    let seed = 9_000 + n as u64;
    let data = qrs_datagen::synthetic::uniform(n, 2, 1, seed);
    let truth: Vec<u32> = {
        let rank = Arc::clone(&w.rank);
        data.rank_by(&w.sel, move |t| rank.score(t))
            .iter()
            .take(p.top_h)
            .map(|t| t.id.0)
            .collect()
    };
    let server = profile.build(data, SystemRank::pseudo_random(seed ^ 0x5A));
    let svc = RerankService::new(Arc::new(server) as Arc<dyn SearchInterface>, n);
    let builder = svc.session(w.sel.clone(), Arc::clone(&w.rank));
    let plan = match builder.plan() {
        Ok(plan) => plan,
        Err(RerankError::Unplannable { missing, .. }) => {
            return MatrixCell {
                profile: profile.name,
                n,
                workload: w.name,
                outcome: CellOutcome::Unplannable {
                    missing: missing.iter().map(|c| c.to_string()).collect(),
                },
            }
        }
        Err(other) => panic!("planner may only fail with Unplannable, got {other}"),
    };
    let mut session = builder.open().expect("a planned session must open");
    let (hits, err) = session.top(p.top_h);
    assert!(
        err.is_none(),
        "a planned session must run to completion on a clean site: {err:?}"
    );
    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
    let exact = got == truth;
    assert!(
        exact,
        "planner-chosen {} must be exact on {}/{} (got {got:?}, want {truth:?})",
        plan.candidates[0].name, profile.name, w.name
    );
    MatrixCell {
        profile: profile.name,
        n,
        workload: w.name,
        outcome: CellOutcome::Planned {
            algorithm: plan.candidates[0].name.clone(),
            queries_spent: session.queries_spent(),
            relaxed: plan.residual.is_some(),
            exact,
        },
    }
}

fn json_cell(c: &MatrixCell) {
    match &c.outcome {
        CellOutcome::Planned {
            algorithm,
            queries_spent,
            relaxed,
            exact,
        } => println!(
            "{{\"experiment\":\"capability_matrix\",\"profile\":\"{}\",\"n\":{},\
             \"workload\":\"{}\",\"outcome\":\"planned\",\"algorithm\":\"{}\",\
             \"queries_spent\":{},\"relaxed\":{},\"exact\":{}}}",
            c.profile, c.n, c.workload, algorithm, queries_spent, relaxed, exact
        ),
        CellOutcome::Unplannable { missing } => println!(
            "{{\"experiment\":\"capability_matrix\",\"profile\":\"{}\",\"n\":{},\
             \"workload\":\"{}\",\"outcome\":\"unplannable\",\"missing\":[{}]}}",
            c.profile,
            c.n,
            c.workload,
            missing
                .iter()
                .map(|m| format!("\"{m}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Run the full matrix at `scale`, printing JSON lines and returning the
/// cells for tests.
pub fn run(scale: Scale) -> Vec<MatrixCell> {
    let p = Params::for_scale(scale);
    let mut cells = Vec::new();
    for profile in SiteProfile::catalog(p.k) {
        for &n in &[p.n_small, p.n_large] {
            for w in &workloads() {
                let cell = run_cell(&p, &profile, n, w);
                json_cell(&cell);
                cells.push(cell);
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_planner_face() {
        let p = Params {
            n_small: 60,
            n_large: 300,
            k: 5,
            top_h: 6,
        };
        let mut cells = Vec::new();
        for profile in SiteProfile::catalog(p.k) {
            for &n in &[p.n_small, p.n_large] {
                for w in &workloads() {
                    cells.push(run_cell(&p, &profile, n, w));
                }
            }
        }
        // Every profile × 2 sizes × every workload.
        assert_eq!(
            cells.len(),
            SiteProfile::catalog(p.k).len() * 2 * workloads().len()
        );
        let planned: Vec<_> = cells
            .iter()
            .filter_map(|c| match &c.outcome {
                CellOutcome::Planned { algorithm, .. } => Some(algorithm.as_str()),
                CellOutcome::Unplannable { .. } => None,
            })
            .collect();
        // Exactness is asserted inside run_cell; here we check diversity:
        // the matrix exercises the cursors, the paging fallback, and at
        // least one typed refusal.
        assert!(planned.contains(&"1d-rerank"));
        assert!(planned.contains(&"md-rerank"));
        assert!(planned.contains(&"page-down"));
        assert!(planned.len() < cells.len(), "some cell must be unplannable");
        // The open site plans every workload.
        assert!(cells
            .iter()
            .filter(|c| c.profile == "open_site")
            .all(|c| matches!(c.outcome, CellOutcome::Planned { .. })));
    }
}
