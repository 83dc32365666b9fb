//! The exact-ledger fixture: one pinned macro-workload whose every ledger
//! number — queries, cost units, emitted tuples, queries saved — is a pure
//! function of the source tree, compared byte for byte against
//! `tests/golden/ledger.json`.
//!
//! Fixed seeds, fixed datasets (`n = 500`, `k = 5`), fixed requests
//! (top-25), swept across **all five** [`SiteProfile`]s of the
//! restricted-site catalog (cells the planner refuses are rows too, with
//! the typed reason), plus a knowledge-plane reuse leg, a
//! change-data-capture leg (a `MaintainedSession` delta-repairing its
//! top-`h` through a pinned mutation batch against the full re-drive a
//! change-blind client would pay), an observer leg, a drift leg (what the
//! static planner pays on a site whose advertised prices went stale) and
//! an HTTP-edge leg (the same batch in-process and through a loopback
//! socket). Each leg asserts its own invariant before its rows
//! are compared.
//!
//! Nothing here reads `QRS_TEST_SEED` or `QRS_EXEC_THREADS`: a fixture
//! must not move with flags. A change that *means* to move a ledger
//! updates the fixture by copying the document the failure prints.

use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::edge::{EdgeClient, EdgeConfig, EdgeServer, Json};
use query_reranking::exec::Executor;
use query_reranking::obs::{ObsHandle, Recorder};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SiteProfile, SystemRank};
use query_reranking::service::{Algorithm, BatchRequest, KnowledgePlane, RerankService};
use query_reranking::types::{
    AttrId, CostModel, Direction, Interval, Query, RerankError, Tuple, TupleId,
};
use std::sync::Arc;

const SEED_DATA: u64 = 0xB6_01;
const SEED_SYSRANK: u64 = 0xB6_02;
const N: usize = 500;
const K: usize = 5;
const TOP_H: usize = 25;

/// The deterministic ledger of one served cell.
struct Ledger {
    emitted: usize,
    queries_spent: u64,
    cost_units_spent: u64,
    /// Only the knowledge leg earns these.
    queries_saved: u64,
}

/// One row of the document: a served cell's ledger, or the planner's
/// typed refusal (`Unplannable` — the profile genuinely cannot answer that
/// shape exactly), recorded instead of skipped.
struct Row {
    profile: &'static str,
    workload: &'static str,
    cell: Result<Ledger, String>,
}

fn served(profile: &'static str, workload: &'static str, ledger: Ledger) -> Row {
    Row {
        profile,
        workload,
        cell: Ok(ledger),
    }
}

struct Workload {
    name: &'static str,
    sel: Query,
    rank: Arc<dyn RankFn>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "one_d_full",
            sel: Query::all(),
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)])),
        },
        Workload {
            name: "md_full",
            sel: Query::all(),
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.75)])),
        },
        Workload {
            name: "md_banded",
            sel: Query::all().and_range(AttrId(0), Interval::closed(0.2, 0.8)),
            rank: Arc::new(LinearRank::asc(vec![(AttrId(0), 0.5), (AttrId(1), 1.25)])),
        },
    ]
}

/// The workload every leg after the first runs.
fn md_full() -> Workload {
    workloads().swap_remove(1)
}

fn build_service(profile: &SiteProfile, plane: Option<&Arc<KnowledgePlane>>) -> RerankService {
    let data = uniform(N, 2, 1, SEED_DATA);
    let server = profile.build(data, SystemRank::pseudo_random(SEED_SYSRANK));
    let svc = RerankService::new(Arc::new(server), N);
    match plane {
        Some(p) => svc.with_knowledge(Arc::clone(p), profile.name),
        None => svc,
    }
}

fn run_cell(svc: &RerankService, w: &Workload) -> Result<Ledger, RerankError> {
    let mut session = svc.session(w.sel.clone(), Arc::clone(&w.rank)).open()?;
    let hits = session.try_top(TOP_H)?;
    Ok(Ledger {
        emitted: hits.len(),
        queries_spent: session.queries_spent(),
        cost_units_spent: session.cost_units_spent(),
        queries_saved: session.queries_saved(),
    })
}

/// Leg 1: every profile × workload, cold service per cell.
fn profile_cells(rows: &mut Vec<Row>) {
    for profile in SiteProfile::catalog(K) {
        for w in workloads() {
            let svc = build_service(&profile, None);
            let cell = run_cell(&svc, &w).map_err(|e| match e {
                RerankError::Unplannable { .. } => e.to_string(),
                e => panic!("cell {}/{} failed: {e}", profile.name, w.name),
            });
            rows.push(Row {
                profile: profile.name,
                workload: w.name,
                cell,
            });
        }
    }
}

/// Leg 2: the knowledge plane on the open site — a cold seeding tenant
/// then a warm one; the warm row's ledger records the replay economics.
fn plane_leg(rows: &mut Vec<Row>) {
    let profile = SiteProfile::open_site(K);
    let plane = Arc::new(KnowledgePlane::new());
    let w = md_full();
    let seeder = build_service(&profile, Some(&plane));
    let cold = run_cell(&seeder, &w).expect("open site plans everything");
    // Seal the stream so the warm tenant replays it end to end.
    {
        let mut s = seeder
            .session(w.sel.clone(), Arc::clone(&w.rank))
            .open()
            .unwrap();
        while let Ok(Some(_)) = s.next() {}
    }
    // The warm tenant drains the whole stream: a full replay of the sealed
    // entry, so the sealing run's entire ledger lands in `queries_saved`.
    let warm_svc = build_service(&profile, Some(&plane));
    let mut s = warm_svc
        .session(w.sel.clone(), Arc::clone(&w.rank))
        .open()
        .unwrap();
    let mut emitted = 0usize;
    while let Ok(Some(_)) = s.next() {
        emitted += 1;
    }
    let warm = Ledger {
        emitted,
        queries_spent: s.queries_spent(),
        cost_units_spent: s.cost_units_spent(),
        queries_saved: s.queries_saved(),
    };
    assert_eq!(
        warm.queries_spent, 0,
        "the warm knowledge leg must replay without paying"
    );
    assert!(
        warm.queries_saved > 0,
        "a full replay must credit the sealing run's cost"
    );
    rows.push(served("open_site+plane(cold)", w.name, cold));
    rows.push(served("open_site+plane(warm)", w.name, warm));
}

/// Leg 3: change-data-capture. A maintained session cold-drives the open
/// site, a pinned mutation batch lands (two leading deletes, a frontier
/// insert, a tail insert, one mid-pack update), and the delta repair's
/// ledger is recorded next to the full re-drive a change-blind client
/// would pay for the same post-mutation answer.
fn cdc_leg(rows: &mut Vec<Row>) {
    let w = md_full();
    let server = Arc::new(SiteProfile::open_site(K).build(
        uniform(N, 2, 1, SEED_DATA),
        SystemRank::pseudo_random(SEED_SYSRANK),
    ));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
    // Pin the cursor strategy: on the fully capable open site the planner
    // may pick a positional one, which re-drives by design (this leg
    // measures the repair, not the fallback).
    let mut maintained = svc
        .session(w.sel.clone(), Arc::clone(&w.rank))
        .algorithm(Algorithm::Md(MdOptions::rerank()))
        .open_maintained(TOP_H)
        .expect("the open site advertises the mutation feed");
    let cold = Ledger {
        emitted: maintained.top().len(),
        queries_spent: maintained.queries_spent(),
        cost_units_spent: maintained.cost_units_spent(),
        queries_saved: maintained.queries_saved(),
    };
    let top = maintained.top();
    for hit in &top[..2] {
        server.delete(hit.tuple.id).expect("leader is live");
    }
    server
        .insert(Tuple::new(TupleId(N as u32), vec![0.0, 0.0], vec![0]))
        .expect("fresh id");
    server
        .insert(Tuple::new(TupleId(N as u32 + 1), vec![1.0, 1.0], vec![0]))
        .expect("fresh id");
    let mid = &top[TOP_H / 2].tuple;
    server
        .update(Tuple::new(mid.id, vec![0.5, 0.5], vec![0]))
        .expect("mid-pack tuple is live");
    let (spent_before, cost_before) = (maintained.queries_spent(), maintained.cost_units_spent());
    let outcome = maintained.refresh().expect("delta repair");
    let repair = Ledger {
        emitted: maintained.top().len(),
        queries_spent: outcome.queries_spent,
        cost_units_spent: maintained.cost_units_spent() - cost_before,
        queries_saved: 0,
    };
    assert!(
        !outcome.redrove,
        "the cursor strategy must delta-repair this batch"
    );
    assert_eq!(
        outcome.queries_spent,
        maintained.queries_spent() - spent_before
    );
    // The change-blind alternative: re-drive the whole request fresh.
    let redrive_svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
    let redrive = run_cell(&redrive_svc, &w).expect("open site plans everything");
    assert!(
        repair.queries_spent < redrive.queries_spent,
        "delta repair ({}) must beat the full re-drive ({})",
        repair.queries_spent,
        redrive.queries_spent,
    );
    // And it must land on the same answer the re-drive earns.
    let truth = redrive_svc
        .session(w.sel.clone(), Arc::clone(&w.rank))
        .open()
        .unwrap()
        .try_top(TOP_H)
        .unwrap();
    let repaired = maintained.top();
    assert_eq!(repaired.len(), truth.len());
    assert!(
        repaired
            .iter()
            .zip(&truth)
            .all(|(a, b)| a.tuple.id == b.tuple.id && a.score == b.score),
        "the repaired materialization diverged from a re-drive"
    );
    rows.push(served("open_site+cdc(cold)", w.name, cold));
    rows.push(served("open_site+cdc(repair)", w.name, repair));
    rows.push(served("open_site+cdc(redrive)", w.name, redrive));
}

/// Leg 4: the observer. The same cell served unobserved (the default
/// disabled handle) and under a full observer (metrics + monitor +
/// recorder); the ledgers must be identical — observability narrates
/// spend, it never changes it — and the observed row's monitor must
/// reconcile exactly with its ledger.
fn obs_leg(rows: &mut Vec<Row>) {
    let w = md_full();
    let profile = SiteProfile::open_site(K);
    let plain = run_cell(&build_service(&profile, None), &w).expect("open site plans everything");
    let recorder = Arc::new(Recorder::with_capacity(1 << 16));
    let observed_svc = build_service(&profile, None).with_observer(
        ObsHandle::builder("macro_bench")
            .subscriber(Arc::clone(&recorder) as _)
            .build(),
    );
    let observed = run_cell(&observed_svc, &w).expect("open site plans everything");
    assert_eq!(
        (plain.emitted, plain.queries_spent, plain.cost_units_spent),
        (
            observed.emitted,
            observed.queries_spent,
            observed.cost_units_spent
        ),
        "the observer changed the ledger"
    );
    assert_eq!(
        observed_svc.monitor_report().actual_queries_total(),
        observed.queries_spent,
        "the monitor must reconcile with the ledger"
    );
    rows.push(served("open_site+obs(disabled)", w.name, plain));
    rows.push(served("open_site+obs(enabled)", w.name, observed));
}

/// Leg 5: the static planner on a drifting-cost site. The site advertises
/// ranges at 10 units and ORDER BY at 1 while billing ranges at 1 and
/// ordered pages at 200 — a stale public price list — so the planner
/// rides `ta-order-by` into the drift, and the row pins what that costs.
fn drift_leg(rows: &mut Vec<Row>) {
    let w = md_full();
    let drifted = Arc::new(
        SimServer::new(
            uniform(N, 2, 1, SEED_DATA),
            SystemRank::pseudo_random(SEED_SYSRANK),
            K,
        )
        .with_capabilities(
            Capabilities::none()
                .with_order_by(vec![AttrId(0), AttrId(1)])
                .with_cost_model(CostModel::flat().with_ordered_cost(200)),
        )
        .with_advertised_cost(CostModel::flat().with_range_cost(10)),
    ) as Arc<dyn SearchInterface>;
    let svc = RerankService::new(drifted, N);
    let mut s = svc
        .session(w.sel.clone(), Arc::clone(&w.rank))
        .horizon(TOP_H)
        .open()
        .expect("the drifted site plans TA and the md cursor");
    assert_eq!(s.strategy_name(), "ta-order-by", "the stale prices bait TA");
    let hits = s.try_top(TOP_H).expect("planned cells drive clean");
    let ledger = Ledger {
        emitted: hits.len(),
        queries_spent: s.queries_spent(),
        cost_units_spent: s.cost_units_spent(),
        queries_saved: 0,
    };
    rows.push(served("drift(static)", w.name, ledger));
}

/// Leg 6: the HTTP edge. The full three-cell batch served in-process and
/// again through a real loopback socket (`EdgeServer` + `EdgeClient`).
/// Both runs execute the three requests one after the other in request
/// order, so they are deterministic and must agree bit for bit — hits,
/// scores, and every ledger number. On the wire side the edge's
/// single-worker pool does it: only the connection handler, running on
/// that sole worker, can steal the batch's queued jobs. The in-process
/// reference is called from this thread, where `TaskHandle::join` on a
/// pool would steal jobs and race the worker over the shared history — so
/// it runs on an immediate executor, where join order is request order.
/// The tenant ledger must equal the summed session spend exactly.
fn edge_leg(rows: &mut Vec<Row>) {
    let exec = Arc::new(Executor::pool(1));
    let wire_ranks: Vec<Vec<(usize, Direction, f64)>> = vec![
        vec![(0, Direction::Asc, 1.0)],
        vec![(0, Direction::Asc, 1.0), (1, Direction::Asc, 0.75)],
        vec![(0, Direction::Asc, 0.5), (1, Direction::Asc, 1.25)],
    ];
    let profile = SiteProfile::open_site(K);
    let local = build_service(&profile, None);
    let want = local.serve_batch(
        &Executor::immediate(0),
        workloads()
            .iter()
            .map(|w| BatchRequest::new(w.sel.clone(), Arc::clone(&w.rank), TOP_H))
            .collect(),
    );
    for (w, o) in workloads().iter().zip(&want) {
        assert!(
            o.error.is_none(),
            "edge leg reference cell {} failed: {:?}",
            w.name,
            o.error
        );
    }

    let remote_svc = Arc::new(build_service(&profile, None));
    let handle = EdgeServer::serve(
        Arc::clone(&remote_svc),
        Arc::clone(&exec),
        EdgeConfig::default(),
    )
    .expect("loopback bind");
    let client = EdgeClient::new(handle.addr(), "macro-bench");
    let reply = client
        .rerank(
            workloads()
                .iter()
                .zip(&wire_ranks)
                .map(|(w, r)| EdgeClient::request(&w.sel, r, TOP_H, None, None, None))
                .collect(),
        )
        .expect("edge batch");
    for (i, (got, want)) in reply.outcomes.iter().zip(&want).enumerate() {
        assert_eq!(got.error_code, None, "edge cell {i} errored");
        let want_fp: Vec<(u32, u64)> = want
            .hits
            .iter()
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect();
        let got_fp: Vec<(u32, u64)> = got
            .hits
            .iter()
            .map(|(_, score, t)| (t.id.0, score.to_bits()))
            .collect();
        assert_eq!(got_fp, want_fp, "the wire changed the answer of cell {i}");
        assert_eq!(
            (got.queries_spent, got.cost_units_spent),
            (want.stats.queries_spent, want.stats.cost_units_spent),
            "the wire changed the ledger of cell {i}"
        );
    }
    let edge_spent: u64 = reply.outcomes.iter().map(|o| o.queries_spent).sum();
    assert_eq!(
        reply.tenant.0, edge_spent,
        "the tenant ledger must equal the summed session spend"
    );
    rows.push(served(
        "edge(in_process)",
        "batch_all",
        Ledger {
            emitted: want.iter().map(|o| o.hits.len()).sum(),
            queries_spent: want.iter().map(|o| o.stats.queries_spent).sum(),
            cost_units_spent: want.iter().map(|o| o.stats.cost_units_spent).sum(),
            queries_saved: 0,
        },
    ));
    rows.push(served(
        "edge(wire)",
        "batch_all",
        Ledger {
            emitted: reply.outcomes.iter().map(|o| o.hits.len()).sum(),
            queries_spent: edge_spent,
            cost_units_spent: reply.outcomes.iter().map(|o| o.cost_units_spent).sum(),
            queries_saved: 0,
        },
    ));
    handle.shutdown();
}

fn json_row(row: &Row) -> String {
    match &row.cell {
        Ok(l) => format!(
            "    {{\"profile\":\"{}\",\"workload\":\"{}\",\"emitted\":{},\
             \"queries_spent\":{},\"cost_units_spent\":{},\"queries_saved\":{}}}",
            row.profile,
            row.workload,
            l.emitted,
            l.queries_spent,
            l.cost_units_spent,
            l.queries_saved,
        ),
        Err(why) => {
            // The reason is free text (capability display strings): JSON
            // escaping, not Rust `Debug` escaping (`\u{1f}` is not JSON).
            format!(
                "    {{\"profile\":\"{}\",\"workload\":\"{}\",\"unplannable\":true,\
                 \"reason\":{}}}",
                row.profile,
                row.workload,
                Json::str(why).encode(),
            )
        }
    }
}

#[test]
fn ledgers_match_the_committed_fixture() {
    let mut rows = Vec::new();
    profile_cells(&mut rows);
    plane_leg(&mut rows);
    cdc_leg(&mut rows);
    obs_leg(&mut rows);
    drift_leg(&mut rows);
    edge_leg(&mut rows);
    let body: Vec<String> = rows.iter().map(json_row).collect();
    let doc = format!(
        "{{\n  \"bench\": \"macro_bench\",\n  \"schema_version\": 1,\n  \
         \"n\": {N},\n  \"k\": {K},\n  \"top_h\": {TOP_H},\n  \
         \"seeds\": {{\"data\": {SEED_DATA}, \"system_rank\": {SEED_SYSRANK}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    assert_eq!(
        doc,
        include_str!("golden/ledger.json"),
        "a ledger moved. If the change means to move it, replace \
         tests/golden/ledger.json with the fresh document:\n{doc}"
    );
}
