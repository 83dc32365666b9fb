//! Figures 11/12/16/17: the "live" experiments (§6.2.2, §6.3.2) against the
//! Blue Nile and Yahoo! Autos stand-ins.
//!
//! Paper parameters: BN has 117,641 diamonds, system-k = 30, system ranking
//! "descending price per carat"; YA has 13,169 cars, system-k = 15, a
//! non-monotonic default ranking (pseudo-random here); both experiments
//! retrieve the top-100 per workload query.

use crate::runner::{md_cost_curve, one_d_cost_curve};
use crate::{print_figure, Scale, Series};
use qrs_core::{MdAlgo, OneDStrategy, RerankParams, SharedState};
use qrs_datagen::{autos, diamonds, md_workload, one_d_workload, WorkloadConfig};
use qrs_server::{Capabilities, SimServer, SystemRank};
use qrs_types::Dataset;

struct Site {
    data: Dataset,
    system: SystemRank,
    k: usize,
    #[allow(dead_code)]
    name: &'static str,
}

fn order_by_all(data: &Dataset) -> Vec<qrs_types::AttrId> {
    data.schema().attr_ids().collect()
}

fn blue_nile(scale: Scale) -> Site {
    let data = diamonds(scale.bn_size(), 11_000);
    Site {
        data,
        system: SystemRank::ratio_desc(
            qrs_datagen::diamonds::attr::PRICE,
            qrs_datagen::diamonds::attr::CARAT,
        ),
        k: 30,
        name: "BN",
    }
}

fn yahoo_autos(scale: Scale) -> Site {
    let data = autos(scale.ya_size(), 12_000);
    Site {
        data,
        system: SystemRank::pseudo_random(99),
        k: 15,
        name: "YA",
    }
}

fn checkpoints(scale: Scale) -> Vec<usize> {
    (1..=10).map(|i| i * scale.online_top_h() / 10).collect()
}

/// Average cumulative cost at each checkpoint for a 1D strategy over a
/// workload, sharing state across the workload.
fn one_d_site_curves(site: &Site, scale: Scale, queries: usize, unfiltered: f64) -> Vec<Series> {
    let cfg = WorkloadConfig {
        num_queries: queries,
        no_filter_fraction: unfiltered,
        seed: 555,
        ..WorkloadConfig::default()
    };
    let workload = one_d_workload(&site.data, &cfg);
    let cps = checkpoints(scale);
    let h = *cps.last().unwrap();
    let mut out = Vec::new();
    for &strategy in &OneDStrategy::ALL {
        let server = SimServer::new(site.data.clone(), site.system.clone(), site.k);
        let mut st = SharedState::new(
            site.data.schema(),
            RerankParams::paper_defaults(site.data.len(), site.k),
        );
        let mut acc = vec![0.0f64; cps.len()];
        for uq in &workload {
            let curve = one_d_cost_curve(&server, &mut st, uq, strategy, h)
                .expect("offline sim server does not fail");
            for (ci, &cp) in cps.iter().enumerate() {
                acc[ci] += curve.get(cp - 1).or(curve.last()).copied().unwrap_or(0) as f64;
            }
        }
        let mut s = Series::new(strategy.label());
        for (ci, &cp) in cps.iter().enumerate() {
            s.push(cp as f64, acc[ci] / workload.len() as f64);
        }
        out.push(s);
    }
    out
}

fn md_site_curves(site: &Site, scale: Scale, queries: usize, unfiltered: f64) -> Vec<Series> {
    let cfg = WorkloadConfig {
        num_queries: queries,
        no_filter_fraction: unfiltered,
        rank_attrs: 2..=3,
        seed: 777,
        ..WorkloadConfig::default()
    };
    let workload = md_workload(&site.data, &cfg);
    let cps = checkpoints(scale);
    let h = *cps.last().unwrap();
    let mut out = Vec::new();
    for &algo in &[MdAlgo::Rerank, MdAlgo::TaOver1D, MdAlgo::TaPublicOrderBy] {
        // Both live sites publicly offer per-attribute ORDER BY (§6.1); the
        // third series measures the §5 extension that exploits it.
        let server = SimServer::new(site.data.clone(), site.system.clone(), site.k)
            .with_capabilities(Capabilities::none().with_order_by(order_by_all(&site.data)));
        let mut st = SharedState::new(
            site.data.schema(),
            RerankParams::paper_defaults(site.data.len(), site.k),
        );
        let mut acc = vec![0.0f64; cps.len()];
        for uq in &workload {
            let curve = md_cost_curve(&server, &mut st, uq, algo, h)
                .expect("offline sim server does not fail");
            for (ci, &cp) in cps.iter().enumerate() {
                acc[ci] += curve.get(cp - 1).or(curve.last()).copied().unwrap_or(0) as f64;
            }
        }
        let mut s = Series::new(algo.label());
        for (ci, &cp) in cps.iter().enumerate() {
            s.push(cp as f64, acc[ci] / workload.len() as f64);
        }
        out.push(s);
    }
    out
}

/// Fig. 11 — 1D top-h cost on Blue Nile (20 queries, 4 unfiltered, k=30).
pub fn fig11(scale: Scale) -> Vec<Series> {
    let site = blue_nile(scale);
    let s = one_d_site_curves(&site, scale, 20, 0.2);
    print_figure(
        "Fig 11 - 1D top-h query cost (Blue Nile, k=30)",
        "top-h",
        &s,
    );
    s
}

/// Fig. 12 — 1D top-h cost on Yahoo! Autos (15 queries, 2 unfiltered, k=15).
pub fn fig12(scale: Scale) -> Vec<Series> {
    let site = yahoo_autos(scale);
    let s = one_d_site_curves(&site, scale, 15, 2.0 / 15.0);
    print_figure(
        "Fig 12 - 1D top-h query cost (Yahoo! Autos, k=15)",
        "top-h",
        &s,
    );
    s
}

/// Fig. 16 — MD top-h cost on Blue Nile (12 queries, 3 unfiltered).
pub fn fig16(scale: Scale) -> Vec<Series> {
    let site = blue_nile(scale);
    let s = md_site_curves(&site, scale, 12, 0.25);
    print_figure(
        "Fig 16 - MD top-h query cost (Blue Nile, k=30)",
        "top-h",
        &s,
    );
    s
}

/// Fig. 17 — MD top-h cost on Yahoo! Autos (10 queries, 2 unfiltered).
pub fn fig17(scale: Scale) -> Vec<Series> {
    let site = yahoo_autos(scale);
    let s = md_site_curves(&site, scale, 10, 0.2);
    print_figure(
        "Fig 17 - MD top-h query cost (Yahoo! Autos, k=15)",
        "top-h",
        &s,
    );
    s
}
