//! The `planner_cost` experiment: predicted vs actually-charged cost for
//! every feasible candidate, across the restricted-site catalog.
//!
//! For each SiteProfile × database-size × workload cell the planner
//! cost-ranks the feasible algorithms under the profile's advertised
//! [`qrs_types::CostModel`]. This experiment then runs **every** feasible
//! candidate to the same horizon on identical fresh servers and records
//! what each was actually charged (weighted cost units *and* raw
//! queries), emitting one JSON row per candidate with the prediction next
//! to the bill. A cell the planner refuses (the page-capped storefront's
//! deep inventory) prints one `unplannable` row naming what is missing.
//!
//! The assertions are the experiment. Every candidate's stream must be
//! exact against the dense ranking of the same data (`assert_exact`). And
//! in every cell with ≥ 2 feasible candidates, the planner-chosen
//! strategy's *actual* charged cost must be within 2× of the cheapest
//! feasible candidate's actual cost — the estimates may be heuristic, but
//! the ranking they induce must not burn more than twice the optimum. A
//! violation panics the run.
//!
//! Workloads use unconstrained selections so candidates can be re-run via
//! explicit [`qrs_service::Algorithm`] overrides without the planner's
//! predicate relaxation changing between runs.
//!
//! Dataset seeds honor `QRS_TEST_SEED`, so CI sweeps the assertion across
//! seeds:
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- --scale quick planner_cost
//! ```

use crate::runner::assert_exact;
use crate::Scale;
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SearchInterface, SiteProfile, SystemRank};
use qrs_service::{RankedCandidate, RerankService};
use qrs_types::{AttrId, Query, RerankError};
use std::sync::Arc;

/// The sizes the sweep runs every site profile at: a shallow and a deep
/// inventory, the site's page size `k`, and how many answers each
/// session pulls.
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

/// One workload shape swept across every profile.
struct Workload {
    name: &'static str,
    rank: Arc<dyn RankFn>,
}

/// One candidate's prediction-vs-bill record for one cell.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Site-profile name.
    pub profile: &'static str,
    /// Database size for this cell.
    pub n: usize,
    /// Workload name.
    pub workload: &'static str,
    /// Candidate name (planner vocabulary: `1d-rerank`, `page-down`, …).
    pub candidate: String,
    /// Whether the planner chose this candidate for the cell.
    pub chosen: bool,
    /// Predicted weighted cost units (the ranking key).
    pub predicted_cost: u64,
    /// Predicted raw queries.
    pub predicted_queries: u64,
    /// Actually charged weighted cost units.
    pub actual_cost: u64,
    /// Actually charged raw queries.
    pub actual_queries: u64,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "1d",
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)])),
        },
        Workload {
            name: "2d",
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])),
        },
        Workload {
            name: "2d_weighted",
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 2.0)])),
        },
    ]
}

fn base_seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0057)
}

/// Run one candidate to the horizon on a fresh, identical server, check
/// its stream is exact, and return (actual cost units, actual queries).
fn run_candidate(
    p: &Params,
    profile: &SiteProfile,
    n: usize,
    w: &Workload,
    seed: u64,
    c: &RankedCandidate,
) -> (u64, u64) {
    let data = qrs_datagen::synthetic::uniform(n, 2, 1, seed);
    let server = Arc::new(profile.build(data, SystemRank::pseudo_random(seed ^ 0x5A)));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, n);
    let mut session = svc
        .session(Query::all(), Arc::clone(&w.rank))
        .algorithm(c.algorithm)
        .open()
        .expect("a planner-feasible candidate must open");
    let (hits, err) = session.top(p.top_h);
    assert!(
        err.is_none(),
        "feasible candidate {} must run clean on {}/{}: {err:?}",
        c.name,
        profile.name,
        w.name
    );
    let got: Vec<_> = hits.into_iter().map(|h| h.tuple).collect();
    assert_exact(
        &server.dataset(),
        &Query::all(),
        &*w.rank,
        &got,
        p.top_h,
        &c.name,
    );
    let stats = session.stats();
    (stats.cost_units_spent, stats.queries_spent)
}

/// Run and print one cell: a row per feasible candidate, or none (and one
/// `unplannable` line) when the planner refuses it.
fn run_cell(p: &Params, profile: &SiteProfile, n: usize, w: &Workload, seed: u64) -> Vec<CostRow> {
    let data = qrs_datagen::synthetic::uniform(n, 2, 1, seed);
    let server = profile.build(data, SystemRank::pseudo_random(seed ^ 0x5A));
    let svc = RerankService::new(Arc::new(server) as Arc<dyn SearchInterface>, n);
    let plan = match svc
        .planner()
        .with_horizon(p.top_h)
        .plan(&Query::all(), w.rank.as_ref())
    {
        Ok(plan) => plan,
        Err(RerankError::Unplannable { missing, .. }) => {
            let missing: Vec<String> = missing.iter().map(|c| format!("\"{c}\"")).collect();
            println!(
                "{{\"experiment\":\"planner_cost\",\"profile\":\"{}\",\"n\":{n},\
                 \"workload\":\"{}\",\"outcome\":\"unplannable\",\"missing\":[{}]}}",
                profile.name,
                w.name,
                missing.join(",")
            );
            return Vec::new();
        }
        Err(other) => panic!("planner may only fail with Unplannable, got {other}"),
    };

    let rows: Vec<CostRow> = plan
        .candidates
        .iter()
        .enumerate()
        .map(|(i, c): (usize, &RankedCandidate)| {
            let (actual_cost, actual_queries) = run_candidate(p, profile, n, w, seed, c);
            CostRow {
                profile: profile.name,
                n,
                workload: w.name,
                candidate: c.name.to_string(),
                chosen: i == 0,
                predicted_cost: c.estimate.cost_units,
                predicted_queries: c.estimate.queries,
                actual_cost,
                actual_queries,
            }
        })
        .collect();

    // The acceptance bound: the chosen candidate's actual bill is within
    // 2× of the best feasible candidate's actual bill.
    if rows.len() >= 2 {
        let best = rows.iter().map(|r| r.actual_cost).min().unwrap().max(1);
        let chosen = rows.iter().find(|r| r.chosen).unwrap();
        assert!(
            chosen.actual_cost < 2 * best,
            "planner picked {} ({} units) on {}/{}/n={}, but the best \
             feasible candidate costs {} units — more than 2x off",
            chosen.candidate,
            chosen.actual_cost,
            profile.name,
            w.name,
            n,
            best
        );
    }
    rows.iter().for_each(json_row);
    rows
}

fn json_row(r: &CostRow) {
    println!(
        "{{\"experiment\":\"planner_cost\",\"profile\":\"{}\",\"n\":{},\
         \"workload\":\"{}\",\"candidate\":\"{}\",\"chosen\":{},\
         \"predicted_cost\":{},\"predicted_queries\":{},\
         \"actual_cost\":{},\"actual_queries\":{}}}",
        r.profile,
        r.n,
        r.workload,
        r.candidate,
        r.chosen,
        r.predicted_cost,
        r.predicted_queries,
        r.actual_cost,
        r.actual_queries
    );
}

/// Run the full sweep at `scale`, printing JSON lines and returning, for
/// tests, the candidate rows and the profile of every refused cell.
pub fn run(scale: Scale) -> (Vec<CostRow>, Vec<&'static str>) {
    let p = Params::for_scale(scale);
    let seed = base_seed();
    let (mut rows, mut refused) = (Vec::new(), Vec::new());
    for profile in SiteProfile::catalog(p.k) {
        for &n in &[p.n_small, p.n_large] {
            for w in &workloads() {
                let cell = run_cell(&p, &profile, n, w, seed ^ (n as u64));
                if cell.is_empty() {
                    refused.push(profile.name);
                }
                rows.extend(cell);
            }
        }
    }
    // Sanity: the sweep must actually exercise the interesting face — at
    // least one cell with a real cost-ranked choice between alternatives.
    assert!(
        rows.iter().filter(|r| !r.chosen).count() >= 2,
        "the catalog must produce cells with >=2 feasible candidates"
    );
    (rows, refused)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_holds_the_2x_bound_and_covers_every_planner_face() {
        let (rows, refused) = run(Scale::Quick);
        // Exactness and the 2x bound ran inside run(); check coverage
        // shape here: the cursors, the paging fallback and a typed
        // refusal, which the open site never gives.
        let chosen: Vec<&str> = rows
            .iter()
            .filter(|r| r.chosen)
            .map(|r| r.candidate.as_str())
            .collect();
        for face in ["1d-rerank", "md-rerank", "page-down"] {
            assert!(chosen.contains(&face), "no cell chose {face}");
        }
        assert!(!refused.is_empty(), "some cell must be unplannable");
        assert!(!refused.contains(&"open_site"));
        // Multi-candidate cells exist on the open site (cursor vs drain)
        // and the aggregator/storefront (cursor vs TA vs drain).
        let multi: Vec<_> = rows.iter().filter(|r| !r.chosen).collect();
        assert!(!multi.is_empty());
        // Predictions are in the same currency as the bills: nonzero, and
        // the flat-model profiles bill cost == queries.
        for r in &rows {
            assert!(r.predicted_cost > 0 && r.actual_cost > 0);
            if r.profile == "open_site" {
                assert_eq!(r.actual_cost, r.actual_queries);
            }
        }
    }
}
