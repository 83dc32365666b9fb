//! The `macro_bench` experiment: the repo's recorded perf trajectory.
//!
//! A pinned macro-workload — fixed seeds (deliberately *not*
//! `QRS_TEST_SEED`-derived), fixed datasets, fixed requests — swept across
//! **all five** [`SiteProfile`]s in the restricted-site catalog, plus one
//! knowledge-plane reuse leg and one change-data-capture leg (a
//! [`qrs_service::MaintainedSession`] delta-repairing its top-`h` through
//! a pinned mutation batch, measured against the full re-drive a
//! change-blind client would pay for), an observability-overhead leg, an
//! adaptive-planner leg on a drifting-cost site (static vs switching
//! vs calibration-warm spend), and an HTTP-edge leg (the same batch
//! served in-process and through a real loopback socket via
//! `qrs_edge::EdgeServer`/`EdgeClient` — bit-identical answers and
//! ledgers required, the wall-clock delta recording what the wire hop
//! costs). Every run of the same source tree
//! produces the same deterministic ledger numbers (queries, cost units,
//! emitted tuples; wall-clock is recorded but machine-dependent), so
//! diffs of the output across PRs *are* the perf trajectory.
//!
//! The result is written as `BENCH_<idx>.json` at the repository root,
//! where `idx` comes from the `QRS_BENCH_INDEX` environment variable
//! (default `10`, this PR's slot — older `BENCH_*.json` artifacts are
//! prior PRs' trajectories and stay untouched). One JSON document: meta +
//! one row per profile × workload cell. Cells the planner refuses
//! (`Unplannable` — the profile genuinely cannot answer that shape
//! exactly) are recorded as rows too, not skipped silently.
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- --scale quick macro_bench
//! ```

use crate::Scale;
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SearchInterface, SiteProfile, SystemRank};
use qrs_service::{KnowledgePlane, RerankService};
use qrs_types::{AttrId, Interval, Query, RerankError, Tuple, TupleId};
use std::sync::Arc;
use std::time::Instant;

/// One profile × workload cell.
#[derive(Debug, Clone)]
pub struct MacroRow {
    pub profile: &'static str,
    pub workload: &'static str,
    /// `None` when the profile cannot answer the workload exactly — the
    /// planner's typed refusal, recorded instead of skipped.
    pub outcome: Option<MacroOutcome>,
    pub unplannable_reason: Option<String>,
}

/// The deterministic ledger of one successfully served cell.
#[derive(Debug, Clone)]
pub struct MacroOutcome {
    pub emitted: usize,
    pub queries_spent: u64,
    pub cost_units_spent: u64,
    /// Only the knowledge leg populates these.
    pub queries_saved: u64,
    pub wall_ms: f64,
}

const SEED_DATA: u64 = 0xB6_01;
const SEED_SYSRANK: u64 = 0xB6_02;
const N: usize = 500;
const K: usize = 5;
const TOP_H: usize = 25;

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

fn build_service(profile: &SiteProfile, plane: Option<&Arc<KnowledgePlane>>) -> RerankService {
    let data = qrs_datagen::synthetic::uniform(N, 2, 1, SEED_DATA);
    let server = profile.build(data, SystemRank::pseudo_random(SEED_SYSRANK));
    let svc = RerankService::new(Arc::new(server), N);
    match plane {
        Some(p) => svc.with_knowledge(Arc::clone(p), profile.name),
        None => svc,
    }
}

fn run_cell(svc: &RerankService, w: &Workload) -> Result<MacroOutcome, RerankError> {
    let t0 = Instant::now();
    let mut session = svc.session(w.sel.clone(), Arc::clone(&w.rank)).open()?;
    let hits = session.try_top(TOP_H)?;
    Ok(MacroOutcome {
        emitted: hits.len(),
        queries_spent: session.queries_spent(),
        cost_units_spent: session.cost_units_spent(),
        queries_saved: session.queries_saved(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

fn json_row(row: &MacroRow) -> String {
    match &row.outcome {
        Some(o) => format!(
            "    {{\"profile\":\"{}\",\"workload\":\"{}\",\"emitted\":{},\
             \"queries_spent\":{},\"cost_units_spent\":{},\"queries_saved\":{},\
             \"wall_ms\":{:.2}}}",
            row.profile,
            row.workload,
            o.emitted,
            o.queries_spent,
            o.cost_units_spent,
            o.queries_saved,
            o.wall_ms,
        ),
        None => {
            // The reason is free text (capability display strings): JSON
            // escaping, not Rust `Debug` escaping (`\u{1f}` is not JSON).
            let mut reason = String::new();
            let why = row.unplannable_reason.as_deref().unwrap_or("unknown");
            qrs_obs::escape_json_into(&mut reason, why);
            format!(
                "    {{\"profile\":\"{}\",\"workload\":\"{}\",\"unplannable\":true,\
                 \"reason\":\"{reason}\"}}",
                row.profile, row.workload,
            )
        }
    }
}

/// Run the macro-workload and write `BENCH_<QRS_BENCH_INDEX>.json`
/// (default `BENCH_10.json`) at the repo root. Returns the rows for tests.
/// `Scale` is accepted for interface symmetry; the workload is pinned
/// regardless (a trajectory must not move with flags).
pub fn run(_scale: Scale) -> Vec<MacroRow> {
    let mut rows = Vec::new();

    // Leg 1: every profile × workload, cold service per cell.
    for profile in SiteProfile::catalog(K) {
        for w in workloads() {
            let svc = build_service(&profile, None);
            let row = match run_cell(&svc, &w) {
                Ok(outcome) => MacroRow {
                    profile: profile.name,
                    workload: w.name,
                    outcome: Some(outcome),
                    unplannable_reason: None,
                },
                Err(e @ RerankError::Unplannable { .. }) => MacroRow {
                    profile: profile.name,
                    workload: w.name,
                    outcome: None,
                    unplannable_reason: Some(e.to_string()),
                },
                Err(e) => panic!("macro_bench cell {}/{} failed: {e}", profile.name, w.name),
            };
            rows.push(row);
        }
    }

    // Leg 2: the knowledge plane on the open site — a cold seeding tenant
    // then a warm one; the warm row's ledger records the replay economics.
    let profile = SiteProfile::open_site(K);
    let plane = Arc::new(KnowledgePlane::new());
    let w = &workloads()[1];
    let seeder = build_service(&profile, Some(&plane));
    let cold = run_cell(&seeder, w).expect("open site plans everything");
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
    let warm = {
        let t0 = Instant::now();
        let mut s = warm_svc
            .session(w.sel.clone(), Arc::clone(&w.rank))
            .open()
            .unwrap();
        let mut emitted = 0usize;
        while let Ok(Some(_)) = s.next() {
            emitted += 1;
        }
        MacroOutcome {
            emitted,
            queries_spent: s.queries_spent(),
            cost_units_spent: s.cost_units_spent(),
            queries_saved: s.queries_saved(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    };
    assert_eq!(
        warm.queries_spent, 0,
        "macro_bench: warm knowledge leg must replay without paying"
    );
    assert!(
        warm.queries_saved > 0,
        "macro_bench: a full replay must credit the sealing run's cost"
    );
    rows.push(MacroRow {
        profile: "open_site+plane(cold)",
        workload: w.name,
        outcome: Some(cold),
        unplannable_reason: None,
    });
    rows.push(MacroRow {
        profile: "open_site+plane(warm)",
        workload: w.name,
        outcome: Some(warm),
        unplannable_reason: None,
    });

    // Leg 3: change-data-capture. A maintained session cold-drives the
    // open site, a pinned mutation batch lands (two leading deletes, a
    // frontier insert, a tail insert, one mid-pack update), and the
    // delta repair's ledger is recorded next to the full re-drive a
    // change-blind client would pay for the same post-mutation answer.
    let w = &workloads()[1];
    let server = Arc::new(SiteProfile::open_site(K).build(
        qrs_datagen::synthetic::uniform(N, 2, 1, SEED_DATA),
        SystemRank::pseudo_random(SEED_SYSRANK),
    ));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
    let t0 = Instant::now();
    // Pin the cursor strategy: on the fully capable open site the planner
    // may pick a positional one, which re-drives by design (this leg
    // measures the repair, not the fallback).
    let mut maintained = svc
        .session(w.sel.clone(), Arc::clone(&w.rank))
        .algorithm(qrs_service::Algorithm::Md(qrs_core::MdOptions::rerank()))
        .open_maintained(TOP_H)
        .expect("the open site advertises the mutation feed");
    let cdc_cold = MacroOutcome {
        emitted: maintained.top().len(),
        queries_spent: maintained.queries_spent(),
        cost_units_spent: maintained.cost_units_spent(),
        queries_saved: maintained.queries_saved(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
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
    let t0 = Instant::now();
    let outcome = maintained.refresh().expect("delta repair");
    let cdc_repair = MacroOutcome {
        emitted: maintained.top().len(),
        queries_spent: outcome.queries_spent,
        cost_units_spent: maintained.cost_units_spent() - cost_before,
        queries_saved: 0,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    assert!(
        !outcome.redrove,
        "macro_bench: the cursor strategy must delta-repair this batch"
    );
    assert_eq!(
        outcome.queries_spent,
        maintained.queries_spent() - spent_before
    );
    // The change-blind alternative: re-drive the whole request fresh.
    let redrive_svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
    let cdc_redrive = run_cell(&redrive_svc, w).expect("open site plans everything");
    assert!(
        cdc_repair.queries_spent < cdc_redrive.queries_spent,
        "macro_bench: delta repair ({}) must beat the full re-drive ({})",
        cdc_repair.queries_spent,
        cdc_redrive.queries_spent,
    );
    // And it must land on the same answer the re-drive earns.
    {
        let mut s = redrive_svc
            .session(w.sel.clone(), Arc::clone(&w.rank))
            .open()
            .unwrap();
        let truth = s.try_top(TOP_H).unwrap();
        let repaired = maintained.top();
        assert_eq!(repaired.len(), truth.len());
        assert!(
            repaired
                .iter()
                .zip(&truth)
                .all(|(a, b)| a.tuple.id == b.tuple.id && a.score == b.score),
            "macro_bench: the repaired materialization diverged from a re-drive"
        );
    }
    for (name, outcome) in [
        ("open_site+cdc(cold)", cdc_cold),
        ("open_site+cdc(repair)", cdc_repair),
        ("open_site+cdc(redrive)", cdc_redrive),
    ] {
        rows.push(MacroRow {
            profile: name,
            workload: w.name,
            outcome: Some(outcome),
            unplannable_reason: None,
        });
    }

    // Leg 4: observability overhead. The same cell served unobserved
    // (the default disabled handle) and under a full observer (metrics +
    // monitor + recorder); the ledgers must be identical — observability
    // narrates spend, it never changes it — and the observed row's
    // monitor must reconcile exactly with its ledger.
    let w = &workloads()[1];
    let profile = SiteProfile::open_site(K);
    let plain = build_service(&profile, None);
    let obs_plain = run_cell(&plain, w).expect("open site plans everything");
    let recorder = Arc::new(qrs_obs::Recorder::with_capacity(1 << 16));
    let observed_svc = build_service(&profile, None).with_observer(
        qrs_obs::ObsHandle::builder("macro_bench")
            .subscriber(Arc::clone(&recorder) as _)
            .build(),
    );
    let obs_observed = run_cell(&observed_svc, w).expect("open site plans everything");
    assert_eq!(
        (
            obs_plain.emitted,
            obs_plain.queries_spent,
            obs_plain.cost_units_spent
        ),
        (
            obs_observed.emitted,
            obs_observed.queries_spent,
            obs_observed.cost_units_spent
        ),
        "macro_bench: the observer changed the ledger"
    );
    assert_eq!(
        observed_svc.monitor_report().actual_queries_total(),
        obs_observed.queries_spent,
        "macro_bench: monitor must reconcile with the ledger"
    );
    for (name, outcome) in [
        ("open_site+obs(disabled)", obs_plain),
        ("open_site+obs(enabled)", obs_observed),
    ] {
        rows.push(MacroRow {
            profile: name,
            workload: w.name,
            outcome: Some(outcome),
            unplannable_reason: None,
        });
    }

    // Leg 5: the adaptive planner on a drifting-cost site. The site
    // advertises ranges at 10 units and ORDER BY at 1 while billing
    // ranges at 1 and ordered pages at 200 — a stale public price list —
    // so static planning rides `ta-order-by` into the drift. Three runs:
    // the static ride (replanning off; its finished session trains a
    // shared calibration store), a cold adaptive run that trips the
    // divergence ratio and switches to the md cursor mid-flight, and a
    // calibration-warm run that plans the cursor outright. All three must
    // emit identical rows, and the adaptive spends must not exceed the
    // static one.
    let w = &workloads()[1];
    let drifted = || {
        Arc::new(
            qrs_server::SimServer::new(
                qrs_datagen::synthetic::uniform(N, 2, 1, SEED_DATA),
                SystemRank::pseudo_random(SEED_SYSRANK),
                K,
            )
            .with_order_by(vec![AttrId(0), AttrId(1)])
            .with_advertised_cost(qrs_types::CostModel::flat().with_range_cost(10))
            .with_cost_model(qrs_types::CostModel::flat().with_ordered_cost(200)),
        )
    };
    let run_drift = |svc: &RerankService| {
        let t0 = Instant::now();
        let mut s = svc
            .session(w.sel.clone(), Arc::clone(&w.rank))
            .horizon(TOP_H)
            .open()
            .expect("the drifted site plans TA and the md cursor");
        let hits = s.try_top(TOP_H).expect("planned cells drive clean");
        let ids: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
        let outcome = MacroOutcome {
            emitted: hits.len(),
            queries_spent: s.queries_spent(),
            cost_units_spent: s.cost_units_spent(),
            queries_saved: 0,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        (outcome, ids, s.strategy_switches())
    };
    let store = qrs_service::Calibration::shared();
    let ride_svc = RerankService::new(drifted() as Arc<dyn SearchInterface>, N)
        .with_adaptive(qrs_service::AdaptiveConfig::enabled().without_replan())
        .with_calibration(Arc::clone(&store));
    let (drift_static, static_ids, ride_switches) = run_drift(&ride_svc);
    assert_eq!(ride_switches, 0, "macro_bench: replanning was opted out");
    let switch_svc = RerankService::new(drifted() as Arc<dyn SearchInterface>, N)
        .with_adaptive(qrs_service::AdaptiveConfig::enabled());
    let (drift_switch, switch_ids, switches) = run_drift(&switch_svc);
    assert_eq!(
        switch_ids, static_ids,
        "macro_bench: the mid-flight switch changed the answer"
    );
    assert_eq!(
        switches, 1,
        "macro_bench: the drifted site must trip one switch"
    );
    // The ride's finished session taught `store` TA's real cost ratio, so
    // a service planning under it starts on the cursor and never diverges.
    let warm_svc = RerankService::new(drifted() as Arc<dyn SearchInterface>, N)
        .with_adaptive(qrs_service::AdaptiveConfig::enabled())
        .with_calibration(Arc::clone(&store));
    let (drift_warm, warm_ids, warm_switches) = run_drift(&warm_svc);
    assert_eq!(warm_ids, static_ids);
    assert_eq!(warm_switches, 0, "macro_bench: a warm plan must not switch");
    assert!(
        drift_switch.cost_units_spent <= drift_static.cost_units_spent,
        "macro_bench: calibrated-adaptive spend ({}) must not exceed the \
         static plan's spend ({}) under drift",
        drift_switch.cost_units_spent,
        drift_static.cost_units_spent,
    );
    assert!(
        drift_warm.cost_units_spent <= drift_switch.cost_units_spent,
        "macro_bench: the warm plan ({}) must not exceed the switching run ({})",
        drift_warm.cost_units_spent,
        drift_switch.cost_units_spent,
    );
    for (name, outcome) in [
        ("drift+adaptive(static)", drift_static),
        ("drift+adaptive(switch)", drift_switch),
        ("drift+adaptive(warm)", drift_warm),
    ] {
        rows.push(MacroRow {
            profile: name,
            workload: w.name,
            outcome: Some(outcome),
            unplannable_reason: None,
        });
    }

    // Leg 6: the HTTP edge. The full three-cell batch served in-process
    // and again through a real loopback socket (`EdgeServer` +
    // `EdgeClient`). Both runs execute the three requests one after the
    // other in request order, so they are deterministic and must agree bit
    // for bit — hits, scores, and every ledger number; the two rows record
    // what the wire hop costs in wall-clock. On the wire side the edge's
    // single-worker pool does it: only the connection handler, running on
    // that sole worker, can steal the batch's queued jobs. The in-process
    // reference is called from this thread, where `TaskHandle::join` on a
    // pool would steal jobs and race the worker over the shared history —
    // so it runs on an immediate executor, where join order is request
    // order. The tenant ledger must equal the summed session spend exactly.
    let exec = Arc::new(qrs_exec::Executor::pool(1));
    let wire_dir = qrs_types::Direction::Asc;
    let wire_ranks: Vec<Vec<(usize, qrs_types::Direction, f64)>> = vec![
        vec![(0, wire_dir, 1.0)],
        vec![(0, wire_dir, 1.0), (1, wire_dir, 0.75)],
        vec![(0, wire_dir, 0.5), (1, wire_dir, 1.25)],
    ];
    let profile = SiteProfile::open_site(K);
    let local = build_service(&profile, None);
    let t0 = Instant::now();
    let want = local.serve_batch(
        &qrs_exec::Executor::immediate(0),
        workloads()
            .iter()
            .map(|w| qrs_service::BatchRequest::new(w.sel.clone(), Arc::clone(&w.rank), TOP_H))
            .collect(),
    );
    let in_process_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (w, o) in workloads().iter().zip(&want) {
        assert!(
            o.error.is_none(),
            "macro_bench: edge leg reference cell {} failed: {:?}",
            w.name,
            o.error
        );
    }

    let remote_svc = Arc::new(build_service(&profile, None));
    let handle = qrs_edge::EdgeServer::serve(
        Arc::clone(&remote_svc),
        Arc::clone(&exec),
        qrs_edge::EdgeConfig::default(),
    )
    .expect("macro_bench: loopback bind");
    let client = qrs_edge::EdgeClient::new(handle.addr(), "macro-bench");
    let t0 = Instant::now();
    let reply = client
        .rerank(
            workloads()
                .iter()
                .zip(&wire_ranks)
                .map(|(w, r)| qrs_edge::EdgeClient::request(&w.sel, r, TOP_H, None, None, None))
                .collect(),
        )
        .expect("macro_bench: edge batch");
    let wire_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (i, (got, want)) in reply.outcomes.iter().zip(&want).enumerate() {
        assert_eq!(got.error_code, None, "macro_bench: edge cell {i} errored");
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
        assert_eq!(
            got_fp, want_fp,
            "macro_bench: the wire changed the answer of cell {i}"
        );
        assert_eq!(
            (got.queries_spent, got.cost_units_spent),
            (want.stats.queries_spent, want.stats.cost_units_spent),
            "macro_bench: the wire changed the ledger of cell {i}"
        );
    }
    let edge_spent: u64 = reply.outcomes.iter().map(|o| o.queries_spent).sum();
    assert_eq!(
        reply.tenant.0, edge_spent,
        "macro_bench: tenant ledger must equal summed session spend"
    );
    let sum = |outs: &[qrs_service::BatchOutcome]| {
        (
            outs.iter().map(|o| o.hits.len()).sum::<usize>(),
            outs.iter().map(|o| o.stats.queries_spent).sum::<u64>(),
            outs.iter().map(|o| o.stats.cost_units_spent).sum::<u64>(),
        )
    };
    let (emitted, queries_spent, cost_units_spent) = sum(&want);
    rows.push(MacroRow {
        profile: "edge(in_process)",
        workload: "batch_all",
        outcome: Some(MacroOutcome {
            emitted,
            queries_spent,
            cost_units_spent,
            queries_saved: 0,
            wall_ms: in_process_ms,
        }),
        unplannable_reason: None,
    });
    rows.push(MacroRow {
        profile: "edge(wire)",
        workload: "batch_all",
        outcome: Some(MacroOutcome {
            emitted: reply.outcomes.iter().map(|o| o.hits.len()).sum(),
            queries_spent: edge_spent,
            cost_units_spent: reply.outcomes.iter().map(|o| o.cost_units_spent).sum(),
            queries_saved: 0,
            wall_ms: wire_ms,
        }),
        unplannable_reason: None,
    });
    handle.shutdown();

    // Assemble and write the document.
    let body: Vec<String> = rows.iter().map(json_row).collect();
    let doc = format!(
        "{{\n  \"bench\": \"macro_bench\",\n  \"schema_version\": 1,\n  \
         \"n\": {N},\n  \"k\": {K},\n  \"top_h\": {TOP_H},\n  \
         \"seeds\": {{\"data\": {SEED_DATA}, \"system_rank\": {SEED_SYSRANK}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    let idx = std::env::var("QRS_BENCH_INDEX").unwrap_or_else(|_| "10".to_string());
    let path = format!("{}/../../BENCH_{idx}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("macro_bench: cannot write {path}: {e}"));
    println!("{doc}");
    println!("# wrote {path}");
    rows
}
