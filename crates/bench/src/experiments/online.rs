//! Figures 11/12/16/17: the "live" experiments (§6.2.2, §6.3.2) against the
//! Blue Nile and Yahoo! Autos stand-ins.
//!
//! Paper parameters: BN has 117,641 diamonds, system-k = 30, system ranking
//! "descending price per carat"; YA has 13,169 cars, system-k = 15, a
//! non-monotonic default ranking (pseudo-random here); both experiments
//! retrieve the top-100 per workload query.

use super::{draw, fresh, mean_curve, Row, MD_LIVE, ONE_D};
use crate::runner::UserQuery;
use crate::{print_figure, Scale, Series};
use qrs_datagen::diamonds::attr::{CARAT, PRICE};
use qrs_datagen::{autos, diamonds};
use qrs_server::{Capabilities, SystemRank};
use qrs_types::Dataset;

struct Site {
    data: Dataset,
    system: SystemRank,
    k: usize,
}

fn blue_nile(scale: Scale) -> Site {
    Site {
        data: diamonds(scale.bn_size(), 11_000),
        system: SystemRank::ratio_desc(PRICE, CARAT),
        k: 30,
    }
}

fn yahoo_autos(scale: Scale) -> Site {
    Site {
        data: autos(scale.ya_size(), 12_000),
        system: SystemRank::pseudo_random(99),
        k: 15,
    }
}

/// Both live sites publicly offer per-attribute ORDER BY (§6.1); only the
/// MD figures advertise it, as their third series measures the §5
/// extension that exploits it.
fn order_by(site: &Site) -> Capabilities {
    Capabilities::none().with_order_by(site.data.schema().attr_ids().collect())
}

/// Shared body of Figs 11/12 (1-D) and 16/17 (MD): print `title`, the
/// average cumulative cost at ten top-h checkpoints over `workload` on
/// `site` offering `caps`, a series per algorithm of `algos`, each with
/// its own state shared across the workload.
fn live_curves(
    title: &str,
    scale: Scale,
    site: &Site,
    caps: Capabilities,
    workload: &[UserQuery],
    algos: &[Row],
) {
    let checkpoints: Vec<usize> = (1..=10).map(|i| i * scale.online_top_h() / 10).collect();
    let series: Vec<Series> = (algos.iter())
        .map(|&(label, algorithm)| {
            let (server, mut st) = fresh(&site.data, site.system.clone(), site.k, caps.clone());
            Series {
                label: label.to_string(),
                points: mean_curve(&server, &mut st, workload, algorithm, &checkpoints),
            }
        })
        .collect();
    print_figure(title, "top-h", &series);
}

/// Fig. 11 — 1D top-h cost on Blue Nile (20 queries, 4 unfiltered, k=30).
pub fn fig11(scale: Scale) {
    let title = "Fig 11 - 1D top-h query cost (Blue Nile, k=30)";
    let site = blue_nile(scale);
    let workload = draw(&site.data, false, 20, 0.2, 555);
    live_curves(title, scale, &site, Capabilities::none(), &workload, &ONE_D);
}

/// Fig. 12 — 1D top-h cost on Yahoo! Autos (15 queries, 2 unfiltered, k=15).
pub fn fig12(scale: Scale) {
    let title = "Fig 12 - 1D top-h query cost (Yahoo! Autos, k=15)";
    let site = yahoo_autos(scale);
    let workload = draw(&site.data, false, 15, 2.0 / 15.0, 555);
    live_curves(title, scale, &site, Capabilities::none(), &workload, &ONE_D);
}

/// Fig. 16 — MD top-h cost on Blue Nile (12 queries, 3 unfiltered).
pub fn fig16(scale: Scale) {
    let title = "Fig 16 - MD top-h query cost (Blue Nile, k=30)";
    let site = blue_nile(scale);
    let workload = draw(&site.data, true, 12, 0.25, 777);
    live_curves(title, scale, &site, order_by(&site), &workload, &MD_LIVE);
}

/// Fig. 17 — MD top-h cost on Yahoo! Autos (10 queries, 2 unfiltered).
pub fn fig17(scale: Scale) {
    let title = "Fig 17 - MD top-h query cost (Yahoo! Autos, k=15)";
    let site = yahoo_autos(scale);
    let workload = draw(&site.data, true, 10, 0.2, 777);
    live_curves(title, scale, &site, order_by(&site), &workload, &MD_LIVE);
}
