//! One run: `W` warm-up worlds, then `P` timed worlds of fixed work, pooled.
//!
//! An untraced run reports the end-to-end metrics. A traced run serves
//! each of a quarter as many worlds twice — plain and under the tracer, in
//! alternating order, so the two are compared on identical inputs — adds
//! the micro-legs, and reports the per-layer metrics.

use crate::gen::World;
use crate::legs::{self, Legs};
use crate::report::{result_json, Spec, Values};
use crate::trace::{self, totals, Span, Tracer};
use crate::workloads::{rerank_inproc, Workload, WorldRun, REMOTE_REQUESTS};
use crate::{host, stats};
use qrs_edge::Json;
use qrs_knowledge::PlaneStats;
use std::io::Write;
use std::sync::Arc;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// A twentieth of the passes and tiny legs; the output is marked not
    /// comparable.
    pub smoke: bool,
    /// Where to write the traced run's spans, one JSON object per line.
    pub spans_path: Option<String>,
}

/// Warm-up worlds before the timed ones: they fault in the heap and warm
/// the caches, are checked like any other, and are otherwise discarded.
const WARMUP_WORLDS: u64 = 1;

/// What the timed worlds of a run add up to.
#[derive(Default)]
struct Pool {
    setup_ref_s: Vec<f64>,
    server_build_ref_ms: Vec<f64>,
    lat_ref_ms: Vec<f64>,
    ref_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Some world's session ledgers did not add up to its site's counters
    /// (or, for `remote_site`, to the in-process ledgers).
    ledgers_broken: bool,
    site_queries: u64,
    site_cost_units: u64,
    queries_saved: u64,
    plane: PlaneStats,
    edge_admitted: u64,
    edge_rejected: u64,
}

impl Pool {
    /// Check a world's ledgers and count its failures; pool the rest only
    /// if the world is a timed one.
    fn absorb(&mut self, run: WorldRun, timed: bool) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.ledgers_broken |= run.ledger_sums() != (run.site_queries, run.site_cost_units);
        if !timed {
            return;
        }
        self.lat_ref_ms.extend(run.latencies_ref_ms());
        self.setup_ref_s.push(run.setup_ref_s);
        self.server_build_ref_ms.push(run.server_build_ref_ms);
        self.ref_ms.extend(run.ref_ms);
        self.site_queries += run.site_queries;
        self.site_cost_units += run.site_cost_units;
        self.queries_saved += run.queries_saved;
        self.plane.hits += run.plane.hits;
        self.plane.synthesized += run.plane.synthesized;
        self.plane.misses += run.plane.misses;
        self.plane.result_hits += run.plane.result_hits;
        self.edge_admitted += run.edge_admitted;
        self.edge_rejected += run.edge_rejected;
    }

    fn samples(&self) -> f64 {
        self.lat_ref_ms.len() as f64
    }

    fn total_ref_ms(&self) -> f64 {
        self.lat_ref_ms.iter().sum()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && !self.ledgers_broken
    }
}

/// `remote_site`'s ledgers must equal the ledgers the same requests earn
/// in process, request by request.
fn remote_matches_local(world: &World, remote: &WorldRun) -> bool {
    let mut prefix = world.clone();
    prefix.requests.truncate(REMOTE_REQUESTS);
    rerank_inproc(&prefix, None).ledgers == remote.ledgers
}

pub fn run(spec: &Spec, config: &Config) -> Result<Json, String> {
    let time_wait_start = host::time_wait_sockets();
    let (nproc, pinned_cpu) = host::pin_to_one_cpu();
    let scaled = |n: usize| if config.smoke { n.div_ceil(20) } else { n };
    let passes = scaled(config.workload.passes(config.seconds)).max(1);
    println!(
        "# qrs_benchmark workload={} seed={} seconds={} trace={} passes={passes} warmup={WARMUP_WORLDS}{}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        if config.smoke { " smoke=1 (not comparable)" } else { "" },
    );
    println!(
        "# env nproc={nproc} pinned_cpu={pinned_cpu} time_wait_start={time_wait_start} rustc=\"{}\"",
        env!("QRS_BENCH_RUSTC"),
    );
    let (declared, values, pool) = if config.trace {
        let scale = legs::Scale {
            worlds: 1,
            requests: if config.smoke { 16 } else { 128 },
            reps: scaled(256),
        };
        let (values, pool) = traced(
            config,
            passes.div_ceil(4),
            &scale,
            pinned_cpu,
            time_wait_start,
        )?;
        (&spec.per_layer, values, pool)
    } else {
        let pool = untraced(config, passes);
        (&spec.end_to_end, end_to_end(&pool), pool)
    };
    println!(
        "# canary ref_ms_p50={:.4} ref_ms_spread={:.4} nominal_ref_ms={} (times are reported in reference units: raw × nominal ÷ observed)",
        stats::median(&pool.ref_ms),
        stats::spread(&pool.ref_ms),
        host::NOMINAL_REF_MS,
    );
    let mut result = result_json(
        declared,
        &values,
        pool.attempted,
        pool.failed,
        pool.correct(),
    );
    if let (true, Json::Obj(members)) = (config.smoke, &mut result) {
        members.insert("smoke".into(), Json::Bool(true));
    }
    Ok(result)
}

fn untraced(config: &Config, passes: usize) -> Pool {
    let mut pool = Pool::default();
    for index in 0..WARMUP_WORLDS + passes as u64 {
        let world = config.workload.world(config.seed, index);
        let run = config.workload.run_world(&world, None);
        if config.workload == Workload::RemoteSite && index == WARMUP_WORLDS {
            pool.ledgers_broken |= !remote_matches_local(&world, &run);
        }
        pool.absorb(run, index >= WARMUP_WORLDS);
    }
    pool
}

fn end_to_end(pool: &Pool) -> Values {
    let sorted = stats::sorted(pool.lat_ref_ms.clone());
    Values::from([
        ("setup_s", stats::median(&pool.setup_ref_s)),
        ("req_p50_ms", stats::percentile(&sorted, 50.0)),
        ("req_p95_ms", stats::percentile(&sorted, 95.0)),
        (
            "throughput_rps",
            pool.samples() / (pool.total_ref_ms() / 1e3),
        ),
        ("queries_per_req", pool.site_queries as f64 / pool.samples()),
        (
            "cost_units_per_req",
            pool.site_cost_units as f64 / pool.samples(),
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
    ])
}

/// `a / b`, or 0 where the layer was not exercised at all.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn traced(
    config: &Config,
    pairs: usize,
    scale: &legs::Scale,
    pinned_cpu: i64,
    time_wait_start: f64,
) -> Result<(Values, Pool), String> {
    let tracer = Arc::new(Tracer::default());
    let (mut plain, mut under_trace) = (Pool::default(), Pool::default());
    for index in 0..WARMUP_WORLDS + pairs as u64 {
        let world = config.workload.world(config.seed, index);
        let timed = index >= WARMUP_WORLDS;
        if !timed {
            plain.absorb(config.workload.run_world(&world, None), false);
            continue;
        }
        let plain_first = index % 2 == 0;
        if plain_first {
            plain.absorb(config.workload.run_world(&world, None), true);
        }
        under_trace.absorb(config.workload.run_world(&world, Some(&tracer)), true);
        if !plain_first {
            plain.absorb(config.workload.run_world(&world, None), true);
        }
    }
    let mut spans = tracer.snapshot();
    if let Some(path) = &config.spans_path {
        write_spans(path, &spans).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut v = Values::new();
    let Legs {
        front_door_share,
        site_call_us,
    } = legs::measure(config.seed, scale, &mut v);

    // Site calls made while seeding a plane belong to no request.
    let recorded = spans.len();
    spans.retain(|s| s.name == trace::REQUEST || s.parent != 0);
    let (request, server, site_call) = (
        totals(&spans, trace::REQUEST),
        totals(&spans, trace::SERVER_CALL),
        totals(&spans, trace::SITE_CALL),
    );
    let requests = request.count as f64;
    let req_ref_ms = under_trace.total_ref_ms() / under_trace.samples();
    // Spans are raw wall-clock; as shares of the request spans they carry
    // over to the requests' reference time.
    let ref_ms_of = |ns: u64| ratio(ns as f64, request.ns as f64) * req_ref_ms * requests;
    v.insert("server.calls_per_req", server.count as f64 / requests);
    v.insert("server.busy_ms_per_req", ref_ms_of(server.ns) / requests);
    v.insert(
        "server.us_per_call",
        ratio(ref_ms_of(server.ns) * 1e3, server.count as f64),
    );
    v.insert(
        "server.tuples_per_call",
        ratio(tracer.tuples() as f64, server.count as f64),
    );
    v.insert("server.share", ratio(server.ns as f64, request.ns as f64));
    v.insert(
        "server.build_ms",
        stats::median(&under_trace.server_build_ref_ms),
    );

    let plane = &under_trace.plane;
    let answered = (plane.hits + plane.synthesized) as f64;
    v.insert(
        "knowledge.hit_ratio",
        plane.result_hits as f64 / under_trace.samples(),
    );
    v.insert(
        "knowledge.response_hit_ratio",
        ratio(answered, answered + plane.misses as f64),
    );
    let saved = under_trace.queries_saved as f64;
    v.insert(
        "knowledge.saved_query_ratio",
        ratio(saved, saved + under_trace.site_queries as f64),
    );

    v.insert(
        "edge.share",
        match config.workload {
            Workload::RerankInproc | Workload::PlaneMixed => 0.0,
            Workload::EdgeFront => front_door_share,
            Workload::RemoteSite => ratio(site_call.self_ns as f64, request.ns as f64),
        },
    );
    v.insert("edge.site.calls_per_req", site_call.count as f64 / requests);
    let measured_here = ratio(ref_ms_of(site_call.self_ns) * 1e3, site_call.count as f64);
    v.insert(
        "edge.site.call_us",
        if site_call.count > 0 {
            measured_here
        } else {
            site_call_us
        },
    );
    v.insert("edge.admitted", under_trace.edge_admitted as f64);
    v.insert("edge.rejected", under_trace.edge_rejected as f64);

    let sorted = stats::sorted(plain.lat_ref_ms.clone());
    v.insert("driver.samples", plain.samples());
    v.insert("driver.passes", pairs as f64);
    v.insert("driver.pinned_cpu", pinned_cpu as f64);
    v.insert("driver.req_p99_ms", stats::percentile(&sorted, 99.0));
    v.insert("driver.ref_ms_p50", stats::median(&plain.ref_ms));
    v.insert("driver.ref_ms_spread", stats::spread(&plain.ref_ms));
    v.insert("driver.time_wait_start", time_wait_start);
    v.insert("trace.spans", recorded as f64);
    v.insert(
        "trace.overhead_ratio",
        plain.total_ref_ms() / under_trace.total_ref_ms(),
    );

    plain.attempted += under_trace.attempted;
    plain.failed += under_trace.failed;
    plain.ledgers_broken |= under_trace.ledgers_broken;
    Ok((v, plain))
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_smoke_run_of_each_workload_emits_exactly_the_declared_metrics() {
        let spec = Spec::load();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let config = Config {
                    workload,
                    seed: 5,
                    seconds: 1,
                    trace,
                    smoke: true,
                    spans_path: None,
                };
                let result = run(&spec, &config).expect("smoke run");
                let declared = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
                want.sort_unstable();
                let Some(Json::Obj(metrics)) = result.get("metrics") else {
                    panic!("no metrics object");
                };
                let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
                assert_eq!(got, want, "{} trace={trace}", workload.name());
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name} is not a finite number"
                    );
                }
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
                assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
                assert_eq!(result.get("smoke"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn the_same_seed_earns_the_same_ledgers() {
        let ledgers = |seed| {
            let world = Workload::PlaneMixed.world(seed, 0);
            Workload::PlaneMixed.run_world(&world, None).ledgers
        };
        assert_eq!(ledgers(3), ledgers(3));
        assert_ne!(ledgers(3), ledgers(4));
    }
}
