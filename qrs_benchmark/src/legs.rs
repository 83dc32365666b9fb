//! Micro-legs: each calls one layer's public functions directly, on inputs
//! taken from generated worlds (real requests, real site queries and
//! replies, real wire bodies), so a number that moves here names the layer
//! that moved it. Every time is taken between two reference-kernel readings
//! and reported in reference units, like the end-to-end numbers.

use crate::gen::{Mutation, Request, World, K, N, TOP};
use crate::host::ref_timed;
use crate::report::Values;
use crate::stats::mean;
use crate::trace::{self, totals, TracedServer, Tracer};
use crate::workloads::{serve_inproc, SOURCE};
use qrs_core::strategy::{
    MdCursorStrategy, OneDCursorStrategy, PageDownStrategy, TaCursorStrategy,
};
use qrs_core::{MdOptions, OneDSpec, RerankParams, SharedState, TiePolicy};
use qrs_edge::{http, wire, EdgeClient, EdgeConfig, EdgeServer, HttpSiteAdapter, Json};
use qrs_exec::Executor;
use qrs_knowledge::{KnowledgePlane, RequestKey, SourceShard};
use qrs_obs::{EventKind, ObsHandle, QueryClass, Recorder};
use qrs_ranking::RankFn;
use qrs_server::{SearchInterface, SimServer};
use qrs_service::{
    Algorithm, BatchRequest, Plan, RerankService, RerankStrategy, StrategyIo, StrategyStep,
};
use qrs_types::{AttrId, Direction, Query, QueryResponse, RerankError, Tuple};
use std::hint::black_box;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much work the legs do: full for a measured run, tiny for a smoke run.
pub struct Scale {
    /// Worlds the stacked legs walk, and requests per world.
    pub worlds: u64,
    pub requests: usize,
    /// Repetitions of each micro-operation.
    pub reps: usize,
}

/// What the legs found that the caller combines with its own passes.
pub struct Legs {
    /// Share of a warm wire request that is not the in-process batch.
    pub front_door_share: f64,
    /// One adapter round trip minus the site's own work, reference µs.
    pub site_call_us: f64,
}

/// World indexes the legs draw, far from any pass's.
const LEG_WORLDS_FROM: u64 = 1 << 32;

pub fn measure(seed: u64, scale: &Scale, v: &mut Values) -> Legs {
    let worlds: Vec<World> = (0..scale.worlds)
        .map(|i| World::generate(seed, LEG_WORLDS_FROM + i, scale.requests, 9))
        .collect();
    stacked(&worlds, v);
    ranking(&worlds[0], scale, v);
    let site_call_us = site(&worlds[0], scale, v);
    let front_door_share = front_door(&worlds[0], scale, v);
    Legs {
        front_door_share,
        site_call_us,
    }
}

fn raw_site(world: &World) -> (Arc<SimServer>, Arc<dyn SearchInterface>) {
    let server = Arc::new(world.build_server());
    let iface = Arc::clone(&server) as Arc<dyn SearchInterface>;
    (server, iface)
}

/// Ask every request of `svc` once; per-request reference ms.
fn walk(svc: &RerankService, requests: &[Request]) -> Vec<f64> {
    requests
        .iter()
        .map(|req| {
            let rank = req.rank();
            let (answer, ms) = ref_timed(|| serve_inproc(svc, req, &rank, None));
            answer.expect("leg requests are served");
            ms
        })
        .collect()
}

/// Mean time of `op` over `reps` back-to-back calls, in reference µs.
fn mean_us(reps: usize, op: impl FnMut(usize)) -> f64 {
    let (_, ms) = ref_timed(|| (0..reps).for_each(op));
    ms * 1e3 / reps as f64
}

/// The strategy object a session would drive for `plan` (the service's own
/// constructor is private to it).
fn strategy_for(
    plan: &Plan,
    rank: Arc<dyn RankFn>,
    server: &dyn SearchInterface,
) -> Box<dyn RerankStrategy> {
    let sel = plan.server_query.clone();
    match plan.algorithm {
        Algorithm::OneD(strategy) => Box::new(OneDCursorStrategy::new(
            OneDSpec::new(rank.attrs()[0], rank.directions()[0], sel),
            strategy,
            TiePolicy::Exact,
        )),
        Algorithm::Md(opts) => Box::new(MdCursorStrategy::new(rank, sel, opts, server.schema())),
        Algorithm::Ta(access) => Box::new(TaCursorStrategy::new(
            rank,
            sel,
            access,
            server.schema(),
            &server.capabilities(),
        )),
        Algorithm::PageDown { max_pages } => Box::new(PageDownStrategy::new(sel, rank, max_pages)),
        Algorithm::Auto | Algorithm::Custom => unreachable!("plans name a built-in algorithm"),
    }
}

/// Pull `TOP` answers out of a bare strategy object: no session, no
/// budgets, no ledgers — `qrs-core` and the site only.
fn drive(
    strategy: &mut dyn RerankStrategy,
    server: &dyn SearchInterface,
    state: &mut SharedState,
    residual: Option<&Query>,
) -> Result<usize, RerankError> {
    let mut emitted = 0;
    while emitted < TOP {
        match strategy.next_step(&mut StrategyIo::new(server, state))? {
            StrategyStep::Emit(t) if residual.is_none_or(|r| r.matches(&t)) => emitted += 1,
            StrategyStep::Emit(_) | StrategyStep::Progress => {}
            StrategyStep::Exhausted => break,
        }
    }
    Ok(emitted)
}

/// One request of the bare walk.
struct Bare {
    dims: usize,
    ms: f64,
    /// Share of `ms` spent inside the site.
    site_share: f64,
    queries: u64,
    emitted: usize,
}

/// The stacked legs: the same request lists through bare strategy objects,
/// a plain session, a session with a cold plane and a session under a full
/// observer — four stacks advanced in lock step, request by request, so the
/// host's drift falls on all of them alike — then the plane again, warm.
/// Differences between the layers of the stack attribute the in-process
/// request.
fn stacked(worlds: &[World], v: &mut Values) {
    let mut bare: Vec<Bare> = Vec::new();
    let (mut plan_us, mut open_share, mut history) = (Vec::new(), Vec::new(), Vec::new());
    let (mut session, mut cold, mut warm, mut observed) = (vec![], vec![], vec![], vec![]);
    let mut quarters = Vec::new();
    let mut events = 0;
    for world in worlds {
        // Bare strategy objects drive a traced site, for the site's share.
        let (server, iface) = raw_site(world);
        let site_tracer = Arc::new(Tracer::default());
        let traced = TracedServer::wrap(Arc::clone(&iface), &site_tracer, trace::SERVER_CALL);
        let planner = RerankService::new(Arc::clone(&iface), N);
        let mut state = SharedState::new(iface.schema(), RerankParams::paper_defaults(N, K));
        let session_tracer = Arc::new(Tracer::default());
        let plain_svc = RerankService::new(raw_site(world).1, N);
        let plane = Arc::new(KnowledgePlane::new());
        let plane_svc = RerankService::new(raw_site(world).1, N).with_knowledge(plane, SOURCE);
        let recorder = Arc::new(Recorder::with_capacity(1 << 12));
        let obs = ObsHandle::builder("bench")
            .subscriber(Arc::clone(&recorder) as _)
            .build();
        let observed_svc = RerankService::new(raw_site(world).1, N).with_observer(obs);
        let from = bare.len();
        for (i, req) in world.requests.iter().enumerate() {
            let rank = req.rank();
            let ask = |svc: &RerankService, tracer: Option<&Arc<Tracer>>| {
                let (answer, ms) = ref_timed(|| serve_inproc(svc, req, &rank, tracer));
                answer.expect("leg requests are served");
                ms
            };
            // Whichever stack goes second finds the code paths warm, so
            // the order rotates with the request.
            for turn in 0..4 {
                match (turn + i) % 4 {
                    0 => {
                        let builder = planner.session(req.sel.clone(), Arc::clone(&rank));
                        let (plan, ms) = ref_timed(|| builder.plan());
                        let plan = plan.expect("leg requests plan");
                        plan_us.push(ms * 1e3);
                        let mut strategy = strategy_for(&plan, Arc::clone(&rank), traced.as_ref());
                        let before = server.queries_issued();
                        let (emitted, ms) = ref_timed(|| {
                            site_tracer.span(trace::REQUEST, || {
                                let residual = plan.residual.as_ref();
                                drive(&mut *strategy, traced.as_ref(), &mut state, residual)
                            })
                        });
                        bare.push(Bare {
                            dims: req.terms.len(),
                            ms,
                            site_share: 0.0,
                            queries: server.queries_issued() - before,
                            emitted: emitted.expect("leg requests are served"),
                        });
                    }
                    1 => session.push(ask(&plain_svc, Some(&session_tracer))),
                    2 => cold.push(ask(&plane_svc, None)),
                    _ => observed.push(ask(&observed_svc, None)),
                }
            }
        }
        warm.extend(walk(&plane_svc, &world.requests));
        events += recorder.len() as u64 + recorder.dropped();
        history.push(state.history.len() as f64);

        let mut site_ns = vec![0u64; world.requests.len() + 1];
        let mut request_ns = site_ns.clone();
        for s in &site_tracer.snapshot() {
            let by_request = if s.name == trace::REQUEST {
                &mut request_ns
            } else {
                &mut site_ns
            };
            by_request[s.request as usize] += s.ns();
        }
        for (i, b) in bare[from..].iter_mut().enumerate() {
            b.site_share = site_ns[i + 1] as f64 / request_ns[i + 1] as f64;
        }
        let quarter = world.requests.len() / 4;
        let self_ms = |b: &[Bare]| b.iter().map(|b| b.ms * (1.0 - b.site_share)).sum::<f64>();
        let asked = |b: &[Bare]| b.iter().map(|b| b.queries as f64).sum::<f64>();
        let (first, last) = (&bare[from..from + quarter], &bare[bare.len() - quarter..]);
        quarters.push((self_ms(last) / self_ms(first), asked(last) / asked(first)));
        let spans = session_tracer.snapshot();
        let (open, top) = (
            totals(&spans, trace::SERVICE_OPEN),
            totals(&spans, trace::SERVICE_TOP),
        );
        open_share.push(open.ns as f64 / (open.ns + top.ns) as f64);
    }

    let requests = bare.len() as f64;
    let session_ms = mean(&session);
    let bare_ms = bare.iter().map(|b| b.ms).sum::<f64>() / requests;
    let bare_self_ms = bare
        .iter()
        .map(|b| b.ms * (1.0 - b.site_share))
        .sum::<f64>()
        / requests;
    v.insert("core.bare_ms_per_req", bare_self_ms);
    v.insert("core.self_share", bare_self_ms / session_ms);
    for (family, name_ms, name_q) in [
        (
            false,
            "core.one_d.self_ms_per_emit",
            "core.one_d.queries_per_emit",
        ),
        (true, "core.md.self_ms_per_emit", "core.md.queries_per_emit"),
    ] {
        let of = || bare.iter().filter(|b| (b.dims > 1) == family);
        let emitted = of().map(|b| b.emitted as f64).sum::<f64>();
        v.insert(
            name_ms,
            of().map(|b| b.ms * (1.0 - b.site_share)).sum::<f64>() / emitted,
        );
        v.insert(
            name_q,
            of().map(|b| b.queries as f64).sum::<f64>() / emitted,
        );
    }
    v.insert("core.history.tuples", mean(&history));
    v.insert(
        "core.history.time_ratio",
        mean(&quarters.iter().map(|q| q.0).collect::<Vec<_>>()),
    );
    v.insert(
        "core.history.query_ratio",
        mean(&quarters.iter().map(|q| q.1).collect::<Vec<_>>()),
    );
    v.insert("service.plan_us", mean(&plan_us));
    v.insert("service.open_us", mean(&open_share) * session_ms * 1e3);
    v.insert("service.session_overhead_ms_per_req", session_ms - bare_ms);
    v.insert("service.share", (session_ms - bare_ms) / session_ms);
    v.insert("knowledge.cold_overhead_ratio", mean(&cold) / session_ms);
    v.insert("knowledge.warm_replay_us", mean(&warm) * 1e3);
    v.insert("obs.enabled_overhead_ratio", mean(&observed) / session_ms);
    let events_per_req = events as f64 / requests;
    v.insert("obs.events_per_req", events_per_req);

    // What the emission sites cost: the check every site makes on the
    // default disabled handle, and a real emission on an enabled one.
    let reps = 1 << 16;
    let disabled = ObsHandle::disabled();
    let check_ns = 1e3
        * mean_us(reps, |_| {
            black_box(black_box(&disabled).enabled());
        });
    v.insert(
        "obs.disabled_overhead_ratio",
        1.0 + events_per_req * check_ns / (session_ms * 1e6),
    );
    let enabled = ObsHandle::for_site("bench");
    let charged = |i| EventKind::RequestCharged {
        class: QueryClass::TopK,
        queries: 1,
        cost_units: i,
    };
    let emit_us = mean_us(reps, |i| enabled.emit(i as u64, 1, charged(i as u64)));
    v.insert("obs.emit_ns", 1e3 * emit_us);
}

/// A [`RankFn`] that counts the calls made into it and passes them on.
struct CountingRank {
    inner: Arc<dyn RankFn>,
    calls: AtomicU64,
}

impl CountingRank {
    fn called<T>(&self, out: T) -> T {
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl RankFn for CountingRank {
    fn attrs(&self) -> &[AttrId] {
        self.inner.attrs()
    }
    fn directions(&self) -> &[Direction] {
        self.inner.directions()
    }
    fn score_norm(&self, u: &[f64]) -> f64 {
        self.called(self.inner.score_norm(u))
    }
    fn label(&self) -> String {
        self.inner.label()
    }
    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }
    fn score(&self, t: &Tuple) -> f64 {
        self.called(self.inner.score(t))
    }
    fn ell(&self, dim: usize, target: f64, base: &[f64], hi: f64) -> Option<f64> {
        self.called(self.inner.ell(dim, target, base, hi))
    }
    fn corner(&self, witness: &[f64], target: f64, lo: &[f64]) -> Vec<f64> {
        self.called(self.inner.corner(witness, target, lo))
    }
    fn contour_point(&self, lo: &[f64], hi: &[f64], target: f64) -> Option<Vec<f64>> {
        self.called(self.inner.contour_point(lo, hi, target))
    }
}

/// `qrs-ranking`: scoring, the contour solver, and how often a request
/// calls into the ranking function at all.
fn ranking(world: &World, scale: &Scale, v: &mut Values) {
    let (server, iface) = raw_site(world);
    let data = server.dataset();
    let ranks: Vec<Arc<dyn RankFn>> = world.requests.iter().map(Request::rank).collect();
    let (_, ms) = ref_timed(|| {
        for rank in &ranks {
            for t in data.tuples() {
                black_box(rank.score(t));
            }
        }
    });
    v.insert(
        "ranking.score_ns",
        ms * 1e6 / (ranks.len() * data.len()) as f64,
    );

    let md: Vec<&Arc<dyn RankFn>> = ranks.iter().filter(|r| r.dims() > 1).collect();
    let (_, ms) = ref_timed(|| {
        for rank in &md {
            let (lo, hi) = (vec![0.0; rank.dims()], vec![1.0; rank.dims()]);
            for step in 1..=scale.reps {
                let at = vec![step as f64 / (scale.reps + 1) as f64; rank.dims()];
                black_box(rank.contour_point(&lo, &hi, rank.score_norm(&at)));
            }
        }
    });
    v.insert(
        "ranking.contour_ns",
        ms * 1e6 / (md.len() * scale.reps) as f64,
    );

    let svc = RerankService::new(iface, N);
    let mut calls = 0;
    for (req, rank) in world.requests.iter().zip(&ranks) {
        let counting = Arc::new(CountingRank {
            inner: Arc::clone(rank),
            calls: AtomicU64::new(0),
        });
        let rank = Arc::clone(&counting) as Arc<dyn RankFn>;
        serve_inproc(&svc, req, &rank, None).expect("leg requests are served");
        calls += counting.calls.load(Ordering::Relaxed);
    }
    v.insert("ranking.calls_per_req", calls as f64 / ranks.len() as f64);
}

/// Legs over one hidden site: its mutation cost, maintained-session repair,
/// the knowledge shard on real site traffic, the `/site/*` codec and the
/// adapter round trip. Returns the round trip's wire part in reference µs.
fn site(world: &World, scale: &Scale, v: &mut Values) -> f64 {
    // Real site traffic: the queries a few requests issue, and the replies.
    let server = Arc::new(world.build_server().with_query_log());
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
    walk(&svc, &world.requests[..world.requests.len().min(8)]);
    let mut traffic: Vec<(Query, QueryResponse)> = server
        .take_log()
        .into_iter()
        .filter_map(|q| server.query(&q).ok().map(|r| (q, r)))
        .collect();
    traffic.truncate(scale.reps);

    let shard = SourceShard::new();
    let keys: Vec<RequestKey> = traffic.iter().map(|(q, _)| RequestKey::top_k(q)).collect();
    let record_us = mean_us(traffic.len(), |i| {
        let (q, r) = &traffic[i];
        shard.record_response(keys[i].clone(), q, K, &r.tuples, r.is_overflow());
    });
    v.insert("knowledge.shard.record_ns", 1e3 * record_us);
    let lookup_us = mean_us(traffic.len(), |i| {
        black_box(shard.lookup_response(&keys[i], &traffic[i].0, K));
    });
    v.insert("knowledge.shard.lookup_ns", 1e3 * lookup_us);
    let invalidate_us = mean_us(1, |_| {
        shard.invalidate();
        shard.purge_stale();
    });
    v.insert("knowledge.invalidate_us", invalidate_us);
    let codec_us = mean_us(traffic.len(), |i| {
        let text = wire::response_to_json(&traffic[i].1).encode();
        let back = qrs_edge::parse(&text).expect("own encoding parses");
        black_box(wire::response_from_json(&back).expect("own encoding decodes"));
    });
    v.insert("edge.wire.response_codec_us", codec_us);

    // The adapter round trip: the same queries through `/site/query`.
    let tracer = Arc::new(Tracer::default());
    let (_, iface) = raw_site(world);
    let traced = TracedServer::wrap(iface, &tracer, trace::SERVER_CALL);
    let host_svc = Arc::new(RerankService::new(traced, N));
    let edge = EdgeServer::serve(host_svc, Arc::new(Executor::pool(1)), EdgeConfig::default())
        .expect("loopback bind");
    let adapter = HttpSiteAdapter::connect(edge.addr()).expect("loopback connect");
    let adapter = TracedServer::wrap(Arc::new(adapter), &tracer, trace::SITE_CALL);
    let round_trip_us = mean_us(traffic.len(), |i| {
        black_box(
            adapter
                .query(&traffic[i].0)
                .expect("site query over the wire"),
        );
    });
    edge.shutdown();
    let round_trips = totals(&tracer.snapshot(), trace::SITE_CALL);
    let site_call_us = round_trip_us * round_trips.self_ns as f64 / round_trips.ns as f64;

    // Mutations, and what a maintained session pays to repair after them.
    let (server, iface) = raw_site(world);
    let (_, ms) = ref_timed(|| world.mutations.iter().for_each(|m| m.apply(&server)));
    v.insert("server.mutate_us", ms * 1e3 / world.mutations.len() as f64);
    let svc = RerankService::new(iface, N);
    let (mut refresh_ms, mut repair_queries) = (Vec::new(), Vec::new());
    let md_requests = world.requests.iter().filter(|r| r.terms.len() > 1);
    for (i, req) in md_requests.take(8).enumerate() {
        let mut maintained = svc
            .session(req.sel.clone(), req.rank())
            .algorithm(Algorithm::Md(MdOptions::rerank()))
            .open_maintained(TOP)
            .expect("the site advertises its mutation feed");
        let top = maintained.top();
        Mutation::Delete(top[0].tuple.id).apply(&server);
        let mut moved = (*top[TOP / 2].tuple).clone();
        moved = Tuple::new(
            moved.id,
            vec![0.5; moved.ords().len()],
            moved.cats().to_vec(),
        );
        Mutation::Update(moved).apply(&server);
        let fresh = Tuple::new(
            qrs_types::TupleId((2 * N + i) as u32),
            vec![0.5; 3],
            vec![0],
        );
        Mutation::Insert(fresh).apply(&server);
        let (outcome, ms) = ref_timed(|| maintained.refresh());
        refresh_ms.push(ms);
        repair_queries.push(outcome.expect("refresh repairs").queries_spent as f64);
    }
    v.insert("service.maintained.refresh_ms", mean(&refresh_ms));
    v.insert("service.maintained.repair_queries", mean(&repair_queries));
    site_call_us
}

/// Legs over a warm front door: what the wire adds to an in-process batch,
/// what the batch adds to a direct session, and the codecs on real bodies.
/// Returns the share of a warm wire request that is not the batch.
fn front_door(world: &World, scale: &Scale, v: &mut Values) -> f64 {
    let requests = &world.requests[..world.requests.len().min(16)];
    let plane = Arc::new(KnowledgePlane::new());
    let svc = Arc::new(RerankService::new(raw_site(world).1, N).with_knowledge(plane, SOURCE));
    walk(&svc, requests);
    let exec = Arc::new(Executor::pool(1));
    let edge = EdgeServer::serve(Arc::clone(&svc), Arc::clone(&exec), EdgeConfig::default())
        .expect("loopback bind");
    let client = EdgeClient::new(edge.addr(), "bench");
    let rounds = scale.reps.div_ceil(requests.len());
    let asked = (rounds * requests.len()) as f64;

    let (_, direct_ms) = ref_timed(|| {
        for _ in 0..rounds {
            for req in requests {
                black_box(serve_inproc(&svc, req, &req.rank(), None).expect("warm request"));
            }
        }
    });
    let (_, batch_ms) = ref_timed(|| {
        for _ in 0..rounds {
            for req in requests {
                let batch = vec![BatchRequest::new(req.sel.clone(), req.rank(), TOP)];
                black_box(svc.serve_batch(&exec, batch));
            }
        }
    });
    let bodies: Vec<Json> = requests.iter().map(Request::wire).collect();
    let (_, wire_ms) = ref_timed(|| {
        for _ in 0..rounds {
            for body in &bodies {
                black_box(
                    client
                        .rerank(vec![body.clone()])
                        .expect("warm wire request"),
                );
            }
        }
    });
    v.insert(
        "service.batch.dispatch_us",
        (batch_ms - direct_ms) * 1e3 / asked,
    );
    v.insert(
        "edge.rerank_overhead_us",
        (wire_ms - batch_ms) * 1e3 / asked,
    );

    let reps = scale.reps;
    v.insert(
        "edge.stats_rtt_us",
        mean_us(reps, |_| drop(black_box(client.stats()))),
    );
    let addr = edge.addr();
    // An empty connection's whole life — connect, accept, dispatch to a
    // worker, clean EOF both ways — one at a time, as every request pays it.
    let connect_us = mean_us(reps, |_| {
        let mut stream = TcpStream::connect(addr).expect("loopback connect");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let _ = stream.read(&mut [0u8; 1]);
    });
    v.insert("edge.connect_us", connect_us);
    let spawn_join_us = mean_us(reps, |_| exec.scope(|s| s.spawn(|| ()).join()));
    v.insert("exec.spawn_join_us", spawn_join_us);

    // Real bodies: one request as the client frames it, one reply as the
    // edge frames it.
    let request_body = Json::obj(vec![("requests", Json::Arr(vec![bodies[0].clone()]))]).encode();
    let headers = vec![("x-tenant".to_string(), "bench".to_string())];
    let stream = TcpStream::connect(addr).expect("loopback connect");
    http::write_request(
        &stream,
        "POST",
        "/v1/rerank",
        &headers,
        request_body.as_bytes(),
    )
    .expect("request written");
    let reply = http::read_response(&stream).expect("reply read");
    edge.shutdown();
    let reply_text = String::from_utf8(reply.body.clone()).expect("replies are utf-8");
    let reply_json = qrs_edge::parse(&reply_text).expect("replies are JSON");
    // bytes per µs are MB/s
    let bytes = reply_text.len() as f64;
    v.insert("edge.json.reply_bytes", bytes);
    let parse_us = mean_us(reps, |_| drop(black_box(qrs_edge::parse(&reply_text))));
    v.insert("edge.json.parse_mb_s", bytes / parse_us);
    let encode_us = mean_us(reps, |_| drop(black_box(reply_json.encode())));
    v.insert("edge.json.encode_mb_s", bytes / encode_us);

    let mut framed_request = Vec::new();
    http::write_request(
        &mut framed_request,
        "POST",
        "/v1/rerank",
        &headers,
        request_body.as_bytes(),
    )
    .expect("request framed");
    let mut framed_reply = Vec::new();
    http::write_response(&mut framed_reply, &reply).expect("reply framed");
    let read_request_us = mean_us(reps, |_| {
        drop(black_box(http::read_request(&framed_request[..])));
    });
    v.insert("edge.http.read_request_us", read_request_us);
    let read_response_us = mean_us(reps, |_| {
        drop(black_box(http::read_response(&framed_reply[..])));
    });
    v.insert("edge.http.read_response_us", read_response_us);
    let mut sink = Vec::with_capacity(framed_reply.len());
    let write_response_us = mean_us(reps, |_| {
        sink.clear();
        http::write_response(&mut sink, &reply).expect("reply framed");
    });
    v.insert("edge.http.write_response_us", write_response_us);
    let request_codec_us = mean_us(reps, |i| {
        let body = requests[i % requests.len()].wire();
        let text = Json::obj(vec![("requests", Json::Arr(vec![body]))]).encode();
        let back = qrs_edge::parse(&text).expect("own encoding parses");
        let first = &back
            .get("requests")
            .and_then(Json::as_arr)
            .expect("requests array")[0];
        let query = first.get("query").expect("query member");
        black_box(wire::query_from_json(query).expect("own encoding decodes"));
    });
    v.insert("edge.wire.request_codec_us", request_codec_us);
    1.0 - batch_ms / wire_ms
}
