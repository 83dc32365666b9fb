//! The `knowledge_reuse` experiment: what the cross-session knowledge
//! plane buys as tenants pile up.
//!
//! The model: each tenant is one `RerankService` (its own in-process
//! `SharedState`) publishing to one shared [`KnowledgePlane`] under one
//! source name. A tenant's workload is `requests` sessions run to
//! exhaustion — an `overlap` fraction drawn from a *popular pool* every
//! tenant shares, the rest modelling never-seen-before queries (run with
//! the plane opted out, so they bill the full cold price for every
//! tenant). Fixed seeds, one fresh plane per cell.
//!
//! The sweep is tenant count × overlap rate; each cell emits one JSON row
//! with the average queries per user. Popular requests are paid once — the
//! first tenant seals their exact result streams, every later tenant
//! replays them without a single server query — so queries-per-user
//! collapses toward the private-workload floor as tenants grow.
//!
//! **The assertions are the experiment** (a violation panics the run):
//!
//! * every cold reference stream, from a plane-less service, is exact
//!   against the dense ranking of the site's data;
//! * every knowledge-assisted stream is byte-identical — tuple ids *and*
//!   score bit patterns — to its cold reference stream;
//! * at every fixed overlap > 0, queries-per-user is *strictly
//!   decreasing* in the tenant count;
//! * at overlap 0 the plane is inert: queries-per-user is exactly flat.
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- --scale quick knowledge_reuse
//! ```

use crate::runner::assert_exact;
use crate::Scale;
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SimServer, SystemRank};
use qrs_service::{KnowledgePlane, RerankService};
use qrs_types::{AttrId, Dataset, Interval, Query, Tuple};
use std::sync::Arc;

/// One cell of the tenant × overlap sweep.
#[derive(Debug, Clone)]
pub struct ReusePoint {
    pub tenants: usize,
    pub overlap: f64,
    pub requests_per_tenant: usize,
    /// Average queries each tenant paid the server.
    pub queries_per_user: f64,
    /// Average queries per tenant if every request hit a completely cold
    /// service (no plane, no warm `SharedState`) — the worst case.
    pub cold_queries_per_user: f64,
    /// Average queries answered from the plane per tenant.
    pub saved_per_user: f64,
    /// Cost units per user, under the site's advertised model.
    pub cost_units_per_user: f64,
}

struct Params {
    n: usize,
    k: usize,
    tenant_counts: Vec<usize>,
    overlaps: Vec<f64>,
    requests: usize,
    pool: usize,
}

impl Params {
    fn for_scale(scale: Scale) -> Params {
        match scale {
            Scale::Quick => Params {
                n: 160,
                k: 5,
                tenant_counts: vec![1, 2, 4, 8],
                overlaps: vec![0.0, 0.25, 0.5, 0.75],
                requests: 8,
                pool: 4,
            },
            Scale::Paper => Params {
                n: 600,
                k: 5,
                tenant_counts: vec![1, 2, 4, 8, 16, 32],
                overlaps: vec![0.0, 0.25, 0.5, 0.75],
                requests: 12,
                pool: 6,
            },
        }
    }
}

/// The hidden site every tenant queries. Seeds are pinned (not
/// `QRS_TEST_SEED`-derived): this experiment is a recorded trajectory.
fn site(p: &Params) -> Dataset {
    qrs_datagen::synthetic::uniform(p.n, 2, 1, 0xB6_06)
}

fn service(data: &Dataset, k: usize, plane: Option<&Arc<KnowledgePlane>>) -> RerankService {
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(23), k);
    let svc = RerankService::new(Arc::new(server), data.len());
    match plane {
        Some(p) => svc.with_knowledge(Arc::clone(p), "site"),
        None => svc,
    }
}

/// The popular pool: overlapping banded selections under two rank shapes.
fn popular_pool(size: usize) -> Vec<(Query, Arc<dyn RankFn>)> {
    let r1: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.2)]));
    let r2: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.8)]));
    (0..size)
        .map(|i| {
            let lo = 0.08 * i as f64;
            let sel = Query::all().and_range(AttrId(0), Interval::closed(lo, lo + 0.45));
            let rank = if i % 2 == 0 {
                Arc::clone(&r1)
            } else {
                Arc::clone(&r2)
            };
            (sel, rank)
        })
        .collect()
}

/// The private workload each tenant brings (identical shape for every
/// tenant — run knowledge-off, it prices what never-seen queries cost).
fn private_pool(size: usize) -> Vec<(Query, Arc<dyn RankFn>)> {
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 0.9)]));
    (0..size)
        .map(|i| {
            let lo = 0.05 + 0.07 * i as f64;
            let sel = Query::all().and_range(AttrId(0), Interval::closed(lo, lo + 0.3));
            (sel, Arc::clone(&rank))
        })
        .collect()
}

type Stream = Vec<(u32, u64)>;

/// One session run to exhaustion.
struct Drained {
    tuples: Vec<Arc<Tuple>>,
    /// The tuples' ids and score bit patterns, in emission order.
    stream: Stream,
    spent: u64,
    saved: u64,
    cost: u64,
}

fn drain(svc: &RerankService, sel: &Query, rank: &Arc<dyn RankFn>, use_knowledge: bool) -> Drained {
    let mut s = svc
        .session(sel.clone(), Arc::clone(rank))
        .knowledge(use_knowledge)
        .open()
        .expect("open_site-shaped server: every request plans");
    let hits = (s.try_top(usize::MAX)).expect("a knowledge_reuse session does not fail");
    Drained {
        stream: (hits.iter())
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect(),
        tuples: hits.into_iter().map(|h| h.tuple).collect(),
        spent: s.queries_spent(),
        saved: s.queries_saved(),
        cost: s.cost_units_spent(),
    }
}

fn json_row(pt: &ReusePoint) {
    println!(
        "{{\"experiment\":\"knowledge_reuse\",\"tenants\":{},\"overlap\":{:.2},\
         \"requests_per_tenant\":{},\"queries_per_user\":{:.2},\
         \"cold_queries_per_user\":{:.2},\"saved_per_user\":{:.2},\
         \"cost_units_per_user\":{:.2}}}",
        pt.tenants,
        pt.overlap,
        pt.requests_per_tenant,
        pt.queries_per_user,
        pt.cold_queries_per_user,
        pt.saved_per_user,
        pt.cost_units_per_user,
    );
}

/// Run the sweep; returns the rows for tests.
pub fn run(scale: Scale) -> Vec<ReusePoint> {
    let p = Params::for_scale(scale);
    let data = site(&p);
    let popular = popular_pool(p.pool);
    let private = private_pool(p.requests);

    // Cold references: every request's exact stream and cold price, from
    // plane-less fresh services. These are both the baseline costs and the
    // byte-identity oracle, and each is checked against the dense ranking.
    let reference = |pool: &[(Query, Arc<dyn RankFn>)]| -> Vec<(Stream, u64)> {
        pool.iter()
            .map(|(sel, rank)| {
                let cold = drain(&service(&data, p.k, None), sel, rank, true);
                assert_exact(
                    &data,
                    sel,
                    &**rank,
                    &cold.tuples,
                    usize::MAX,
                    "cold reference",
                );
                (cold.stream, cold.spent)
            })
            .collect()
    };
    let popular_ref = reference(&popular);
    let private_ref = reference(&private);

    let mut rows = Vec::new();
    for &overlap in &p.overlaps {
        let n_pop = ((overlap * p.requests as f64).round() as usize).min(p.requests);
        let n_priv = p.requests - n_pop;
        let mut per_user_prev: Option<f64> = None;
        for &tenants in &p.tenant_counts {
            // Fresh plane per cell: tenant count is the variable.
            let plane = Arc::new(KnowledgePlane::new());
            let (mut spent_total, mut saved_total, mut cost_total) = (0u64, 0u64, 0u64);
            let mut cold_total = 0u64;
            for _tenant in 0..tenants {
                let svc = service(&data, p.k, Some(&plane));
                for j in 0..n_pop {
                    let i = j % popular.len();
                    let (sel, rank) = &popular[i];
                    let warm = drain(&svc, sel, rank, true);
                    assert_eq!(
                        warm.stream, popular_ref[i].0,
                        "knowledge-assisted stream diverged from the cold reference \
                         (popular request {i})"
                    );
                    spent_total += warm.spent;
                    saved_total += warm.saved;
                    cost_total += warm.cost;
                    cold_total += popular_ref[i].1;
                }
                // Private workload: a fresh plane-less service per tenant
                // (never-seen queries bill cold, uncontaminated by this
                // tenant's popular SharedState warm-up).
                let cold_svc = service(&data, p.k, None);
                for (i, (sel, rank)) in private.iter().take(n_priv).enumerate() {
                    let cold = drain(&cold_svc, sel, rank, true);
                    assert_eq!(
                        cold.stream, private_ref[i].0,
                        "private stream diverged from its reference (request {i})"
                    );
                    spent_total += cold.spent;
                    cost_total += cold.cost;
                    cold_total += private_ref[i].1;
                }
            }
            let per_user = spent_total as f64 / tenants as f64;
            let row = ReusePoint {
                tenants,
                overlap,
                requests_per_tenant: p.requests,
                queries_per_user: per_user,
                cold_queries_per_user: cold_total as f64 / tenants as f64,
                saved_per_user: saved_total as f64 / tenants as f64,
                cost_units_per_user: cost_total as f64 / tenants as f64,
            };
            json_row(&row);
            if let Some(prev) = per_user_prev {
                if overlap > 0.0 && n_pop > 0 {
                    assert!(
                        per_user < prev,
                        "queries-per-user must strictly decrease with tenant count at \
                         fixed overlap {overlap}: {prev} -> {per_user}"
                    );
                } else {
                    assert!(
                        (per_user - prev).abs() < 1e-9,
                        "with no overlap the plane must be inert: {prev} -> {per_user}"
                    );
                }
            }
            per_user_prev = Some(per_user);
            rows.push(row);
        }
    }
    rows
}
