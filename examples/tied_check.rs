//! The MD cursor's tied-data check: MD-RERANK top-25 over a fixed workload
//! on tied and untied datasets, printing what each dataset costs and how
//! many of its streams are exact.
//!
//! ```text
//! cargo run --release -q --example tied_check          # the pinned draw
//! cargo run --release -q --example tied_check -- 6     # another draw
//! ```
//!
//! Without an argument the data seed is 5 and the workload seed is
//! `WorkloadConfig::default()`'s; its output is pinned in
//! `tests/golden/tied_check.txt`. An argument `s` draws data seed `s` and
//! workload seed `s ^ 0xC0FFEE`.
//!
//! Per dataset and `k` (10, then 5), one `SharedState` and one `SimServer`
//! (system rank `pseudo_random(7)`) serve all 24 requests in turn. A line reads the site's queries per
//! request, how many of the 24 streams match a brute-force ranking score
//! for score (the one tie contract), and the paid queries per request split
//! by `Purpose`. `discrete_grid` with 4 levels stays inexact: its cells
//! hold more than `k` tuples no attribute tells apart.

use query_reranking::core::{MdCursor, MdOptions, Purpose, RerankParams, SharedState};
use query_reranking::datagen::synthetic::{discrete_grid, uniform};
use query_reranking::datagen::workload::DirectionPolicy;
use query_reranking::datagen::{autos, diamonds, flights, md_workload, WorkloadConfig};
use query_reranking::ranking::RankFn;
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::types::Dataset;
use std::sync::Arc;

const N: usize = 2000;
const REQUESTS: usize = 24;
const TOP: usize = 25;

fn main() {
    let draw: Option<u64> = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("a data seed"));
    let (seed, workload_seed) = match draw {
        None => (5, WorkloadConfig::default().seed),
        Some(s) => (s, s ^ 0xC0FFEE),
    };
    let datasets: [(&str, Dataset); 8] = [
        ("grid4", discrete_grid(N, 3, 4, seed)),
        ("grid8", discrete_grid(N, 3, 8, seed)),
        ("grid16", discrete_grid(N, 3, 16, seed)),
        ("grid64", discrete_grid(N, 3, 64, seed)),
        ("uniform", uniform(N, 3, 2, seed)),
        ("flights", flights(N, seed)),
        ("diamonds", diamonds(N, seed)),
        ("autos", autos(N, seed)),
    ];
    for (name, data) in &datasets {
        let workload = md_workload(
            data,
            &WorkloadConfig {
                num_queries: REQUESTS,
                directions: DirectionPolicy::Random,
                seed: workload_seed,
                ..Default::default()
            },
        );
        for k in [10, 5] {
            let server = SimServer::new(data.clone(), SystemRank::pseudo_random(7), k);
            let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(N, k));
            let mut exact = 0;
            for uq in &workload {
                let rank: Arc<dyn RankFn> = Arc::new(uq.rank.clone());
                let mut cur = MdCursor::new(
                    Arc::clone(&rank),
                    uq.query.clone(),
                    MdOptions::rerank(),
                    server.schema(),
                );
                let got = cur
                    .top_h(&server, &mut st, TOP)
                    .expect("a site with no limits");
                let truth = data.rank_by(&uq.query, |t| rank.score(t));
                let bits = |ts: &[Arc<_>]| -> Vec<u64> {
                    ts.iter().map(|t| rank.score(t).to_bits()).collect()
                };
                exact += usize::from(bits(&got) == bits(&truth[..truth.len().min(TOP)]));
            }
            let per_request = |q: u64| q as f64 / REQUESTS as f64;
            let purposes: Vec<String> = (Purpose::ALL.iter())
                .filter(|p| st.paid(**p) > 0)
                .map(|p| format!("{p:?} {:.3}", per_request(st.paid(*p))))
                .collect();
            println!(
                "{name:<8} k={k:<2} queries/request {:>8.3}  exact {exact:>2}/{REQUESTS}  [{}]",
                per_request(server.queries_issued()),
                purposes.join(", ")
            );
        }
    }
}
