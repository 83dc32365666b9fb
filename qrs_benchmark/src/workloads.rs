//! The four workloads. Each is a closed loop with exactly one client and
//! one connection at a time, so counts repeat exactly. One *world* is one
//! set-up (hidden database, service, edge, seeded plane — timed as
//! `setup_s`) followed by one *pass* of fixed work over the world's request
//! list; every answer is checked against the brute-force oracle between
//! timed intervals, and the session ledgers must add up to the hidden
//! site's own counters.
//!
//! The host this runs on has slow episodes — identical passes were seen to
//! take anything from 0.75 s to 2.1 s within minutes, with no steal
//! reported — so every timed interval sits between two readings of a fixed
//! reference kernel and is reported in *reference milliseconds*: scaled by
//! what the kernel nominally takes over what it took just then.

use crate::gen::{Request, World, K, N, TOP};
use crate::host;
use crate::oracle::{self, Fingerprint};
use crate::trace::{self, TracedServer, Tracer};
use qrs_edge::{EdgeClient, EdgeConfig, EdgeServer, HttpSiteAdapter};
use qrs_exec::Executor;
use qrs_knowledge::{KnowledgePlane, PlaneStats};
use qrs_ranking::RankFn;
use qrs_server::{SearchInterface, SimServer};
use qrs_service::{RankedTuple, RerankService};
use qrs_types::{Dataset, RerankError};
use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

/// The source name worlds register their site under on a knowledge plane.
pub const SOURCE: &str = "site";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RerankInproc,
    PlaneMixed,
    EdgeFront,
    RemoteSite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RerankInproc,
        Workload::PlaneMixed,
        Workload::EdgeFront,
        Workload::RemoteSite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RerankInproc => "rerank_inproc",
            Workload::PlaneMixed => "plane_mixed",
            Workload::EdgeFront => "edge_front",
            Workload::RemoteSite => "remote_site",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed passes in a 30-second run, calibrated once on the 2-vCPU
    /// sandbox this benchmark was sized on. Work is fixed, not timed:
    /// `--seconds` only scales this count.
    fn passes_per_30s(self) -> usize {
        match self {
            Workload::RerankInproc => PASSES_RERANK_INPROC,
            Workload::PlaneMixed => PASSES_PLANE_MIXED,
            Workload::EdgeFront => PASSES_EDGE_FRONT,
            Workload::RemoteSite => PASSES_REMOTE_SITE,
        }
    }

    pub fn passes(self, seconds: u64) -> usize {
        (self.passes_per_30s() * seconds as usize).div_ceil(30)
    }

    /// Generate world `index` of a run with the sizes this workload needs.
    pub fn world(self, seed: u64, index: u64) -> World {
        match self {
            // `remote_site` draws `rerank_inproc`'s world and serves the
            // first half of its list, so their ledgers can be compared.
            Workload::RerankInproc | Workload::RemoteSite => {
                World::generate(seed, index, INPROC_REQUESTS, 0)
            }
            Workload::PlaneMixed => World::generate(seed, index, EPOCHS * EPOCH_REQUESTS, EPOCHS),
            Workload::EdgeFront => World::generate(seed, index, EDGE_REQUESTS, 0),
        }
    }

    pub fn run_world(self, world: &World, tracer: Option<&Arc<Tracer>>) -> WorldRun {
        match self {
            Workload::RerankInproc => rerank_inproc(world, tracer),
            Workload::PlaneMixed => plane_mixed(world, tracer),
            Workload::EdgeFront => edge_front(world, tracer),
            Workload::RemoteSite => remote_site(world, tracer),
        }
    }
}

pub const PASSES_RERANK_INPROC: usize = 30;
pub const PASSES_PLANE_MIXED: usize = 45;
pub const PASSES_EDGE_FRONT: usize = 28;
pub const PASSES_REMOTE_SITE: usize = 28;

/// Distinct requests a fresh in-process service answers per pass: enough
/// for shared history to grow until per-request compute visibly rises.
pub const INPROC_REQUESTS: usize = 128;
/// The prefix of that list `remote_site` serves over the wire.
pub const REMOTE_REQUESTS: usize = 64;
/// `plane_mixed`: epochs per pass, distinct requests per epoch, and rounds
/// each epoch's requests are asked — one mutation opens every epoch, so 1
/// request in `ROUNDS` re-pays and re-seals and the rest replay.
pub const EPOCHS: usize = 16;
pub const EPOCH_REQUESTS: usize = 8;
pub const ROUNDS: usize = 8;
/// `edge_front`: distinct sealed requests per world and how often the
/// client cycles through them, one `POST /v1/rerank` each.
pub const EDGE_REQUESTS: usize = 16;
pub const EDGE_CYCLES: usize = 256;

/// Everything one world's set-up and pass produced.
#[derive(Debug, Default)]
pub struct WorldRun {
    /// The set-up, reference seconds.
    pub setup_ref_s: f64,
    /// The `SimServer` build inside the set-up, reference ms.
    pub server_build_ref_ms: f64,
    /// One raw latency per timed request, in request order.
    latencies_ms: Vec<f64>,
    /// Reference-kernel readings, in the order they were taken.
    pub ref_ms: Vec<f64>,
    /// Per latency, the index of the reading taken before it.
    reading_before: Vec<usize>,
    /// Requests issued and checked (plane seeding included).
    pub attempted: u64,
    /// Errors, refusals and wrong answers.
    pub failed: u64,
    /// `(queries, cost units)` charged per checked request, from the
    /// session ledgers.
    pub ledgers: Vec<(u64, u64)>,
    /// Queries the knowledge plane answered instead of the site.
    pub queries_saved: u64,
    /// The hidden site's own counters at the end of the pass; must equal
    /// the ledger sums.
    pub site_queries: u64,
    pub site_cost_units: u64,
    pub plane: PlaneStats,
    pub edge_admitted: u64,
    pub edge_rejected: u64,
}

impl WorldRun {
    pub fn ledger_sums(&self) -> (u64, u64) {
        self.ledgers
            .iter()
            .fold((0, 0), |(q, c), l| (q + l.0, c + l.1))
    }

    /// Take a reference-kernel reading.
    fn tick(&mut self) {
        self.ref_ms.push(host::reference_kernel_ms());
    }

    /// What `raw` reads in reference units, given the readings around it.
    fn in_ref_units(&self, raw: f64, reading_before: usize) -> f64 {
        let around = (self.ref_ms[reading_before] + self.ref_ms[reading_before + 1]) / 2.0;
        raw * host::NOMINAL_REF_MS / around
    }

    /// Open a world: the reading before its set-up.
    fn open() -> (WorldRun, Instant) {
        let mut run = WorldRun::default();
        run.tick();
        (run, Instant::now())
    }

    /// The set-up is done: book it, and the site build inside it, between
    /// the set-up's two readings.
    fn ready(&mut self, t0: Instant, site: &Site) {
        let setup_s = t0.elapsed().as_secs_f64();
        self.tick();
        self.setup_ref_s = self.in_ref_units(setup_s, 0);
        self.server_build_ref_ms = self.in_ref_units(site.build_ms, 0);
    }

    /// The latencies in reference milliseconds.
    pub fn latencies_ref_ms(&self) -> Vec<f64> {
        let pairs = self.latencies_ms.iter().zip(&self.reading_before);
        pairs.map(|(&raw, &r)| self.in_ref_units(raw, r)).collect()
    }

    /// Count one request; an error counts as failed.
    fn count<T, E: Display>(&mut self, out: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        out.map_err(|e| {
            self.failed += 1;
            eprintln!("qrs_benchmark: request failed: {e}");
        })
        .ok()
    }

    /// Time and count one request.
    fn timed<T, E: Display>(
        &mut self,
        tracer: Option<&Arc<Tracer>>,
        request: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let t0 = Instant::now();
        let out = spanned(tracer, trace::REQUEST, request);
        self.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.reading_before.push(self.ref_ms.len() - 1);
        self.count(out)
    }

    /// Check one answer and book its ledger; runs between timed intervals.
    fn settle(&mut self, answer: Option<Answer>, want: &Fingerprint) {
        let Some(answer) = answer else { return };
        self.ledgers.push((answer.queries, answer.cost_units));
        self.queries_saved += answer.queries_saved;
        if answer.failed || answer.hits != *want {
            self.failed += 1;
        }
    }

    fn close(mut self, server: &SimServer) -> WorldRun {
        self.tick();
        self.site_queries = server.queries_issued();
        self.site_cost_units = server.cost_units_issued();
        self
    }
}

/// One request's answer reduced to what is checked and booked.
pub struct Answer {
    hits: Fingerprint,
    queries: u64,
    cost_units: u64,
    queries_saved: u64,
    /// The reply carried a typed error.
    failed: bool,
}

fn spanned<T>(tracer: Option<&Arc<Tracer>>, name: &'static str, work: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, work),
        None => work(),
    }
}

fn traced(
    inner: Arc<dyn SearchInterface>,
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
) -> Arc<dyn SearchInterface> {
    match tracer {
        Some(t) => TracedServer::wrap(inner, t, name),
        None => inner,
    }
}

pub fn fingerprint(hits: &[RankedTuple]) -> Fingerprint {
    hits.iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect()
}

/// What a caller of the in-process service does for one request.
pub fn serve_inproc(
    svc: &RerankService,
    req: &Request,
    rank: &Arc<dyn RankFn>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Answer, RerankError> {
    let mut session = spanned(tracer, trace::SERVICE_OPEN, || {
        svc.session(req.sel.clone(), Arc::clone(rank)).open()
    })?;
    let hits = spanned(tracer, trace::SERVICE_TOP, || session.try_top(TOP))?;
    Ok(Answer {
        hits: fingerprint(&hits),
        queries: session.queries_spent(),
        cost_units: session.cost_units_spent(),
        queries_saved: session.queries_saved(),
        failed: false,
    })
}

/// The hidden site of a world: the server itself (for mutations, ground
/// truth and its counters), the interface handed to the service (wrapped
/// for server spans when tracing), and what building it took.
struct Site {
    server: Arc<SimServer>,
    iface: Arc<dyn SearchInterface>,
    build_ms: f64,
}

impl Site {
    fn build(world: &World, tracer: Option<&Arc<Tracer>>) -> Site {
        let t0 = Instant::now();
        let server = Arc::new(world.build_server());
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let iface = Arc::clone(&server) as Arc<dyn SearchInterface>;
        Site {
            server,
            iface: traced(iface, tracer, trace::SERVER_CALL),
            build_ms,
        }
    }
}

/// Ask `requests` once each, in order, of `svc`.
fn ask_each(
    run: &mut WorldRun,
    svc: &RerankService,
    requests: &[Request],
    data: &Dataset,
    tracer: Option<&Arc<Tracer>>,
) {
    for req in requests {
        let rank = req.rank();
        let want = oracle::top(data, req);
        let answer = run.timed(tracer, || serve_inproc(svc, req, &rank, tracer));
        run.settle(answer, &want);
        run.tick();
    }
}

/// `rerank_inproc`: a fresh service, no plane, every request distinct —
/// strategy compute and session bookkeeping do nearly all the work.
pub fn rerank_inproc(world: &World, tracer: Option<&Arc<Tracer>>) -> WorldRun {
    let (mut run, t0) = WorldRun::open();
    let site = Site::build(world, tracer);
    let (server, iface) = (Arc::clone(&site.server), Arc::clone(&site.iface));
    let svc = RerankService::new(iface, N);
    run.ready(t0, &site);
    ask_each(&mut run, &svc, &world.requests, &server.dataset(), tracer);
    run.close(&server)
}

/// `plane_mixed`: one long-lived service with a knowledge plane over a
/// mutating site. Each epoch opens with one mutation, which bumps the
/// plane's epoch and empties the shared state, so the first round re-pays
/// and re-seals and the other rounds replay sealed streams.
pub fn plane_mixed(world: &World, tracer: Option<&Arc<Tracer>>) -> WorldRun {
    let (mut run, t0) = WorldRun::open();
    let site = Site::build(world, tracer);
    let (server, iface) = (Arc::clone(&site.server), Arc::clone(&site.iface));
    let plane = Arc::new(KnowledgePlane::new());
    let svc = RerankService::new(iface, N).with_knowledge(Arc::clone(&plane), SOURCE);
    run.ready(t0, &site);
    for (mutation, batch) in world
        .mutations
        .iter()
        .zip(world.requests.chunks(EPOCH_REQUESTS))
    {
        mutation.apply(&server);
        // Ground truth at the current watermark.
        let data = server.dataset();
        let asked: Vec<_> = batch
            .iter()
            .map(|req| (req, req.rank(), oracle::top(&data, req)))
            .collect();
        for _ in 0..ROUNDS {
            for (req, rank, want) in &asked {
                let answer = run.timed(tracer, || serve_inproc(&svc, req, rank, tracer));
                run.settle(answer, want);
            }
            run.tick();
        }
    }
    run.plane = plane.stats();
    run.close(&server)
}

/// `edge_front`: one request per `POST /v1/rerank` against a front door
/// whose plane was seeded in-process, so every request is a sealed-stream
/// replay and the wire — connect, framing, codec, admission, dispatch —
/// is nearly all of the latency.
pub fn edge_front(world: &World, tracer: Option<&Arc<Tracer>>) -> WorldRun {
    let (mut run, t0) = WorldRun::open();
    let site = Site::build(world, tracer);
    let (server, iface) = (Arc::clone(&site.server), Arc::clone(&site.iface));
    let plane = Arc::new(KnowledgePlane::new());
    let svc = Arc::new(RerankService::new(iface, N).with_knowledge(Arc::clone(&plane), SOURCE));
    let data = server.dataset();
    let mut asked = Vec::new();
    for req in &world.requests {
        // Seeding pays the site once per distinct request; its spend is
        // booked so the world's ledger still adds up.
        let want = oracle::top(&data, req);
        let seeded = run.count(serve_inproc(&svc, req, &req.rank(), None));
        run.settle(seeded, &want);
        asked.push((req.wire(), want));
    }
    let edge = EdgeServer::serve(
        Arc::clone(&svc),
        Arc::new(Executor::pool(1)),
        EdgeConfig::default(),
    )
    .expect("loopback bind");
    let client = EdgeClient::new(edge.addr(), "bench");
    run.ready(t0, &site);
    for cycle in 0..EDGE_CYCLES {
        for (body, want) in &asked {
            let reply = run.timed(tracer, || client.rerank(vec![body.clone()]));
            let answer = reply.and_then(|mut r| r.outcomes.pop()).map(|o| Answer {
                hits: o
                    .hits
                    .iter()
                    .map(|(_, score, t)| (t.id.0, score.to_bits()))
                    .collect(),
                queries: o.queries_spent,
                cost_units: o.cost_units_spent,
                queries_saved: o.queries_saved,
                failed: o.error_code.is_some(),
            });
            run.settle(answer, want);
        }
        if cycle % 2 == 1 {
            run.tick();
        }
    }
    run.plane = plane.stats();
    run.edge_admitted = edge.admitted();
    run.edge_rejected = edge.rejected();
    edge.shutdown();
    run.close(&server)
}

/// `remote_site`: the paper's real deployment — a fresh third-party
/// service whose every site query is one HTTP round trip to an edge
/// proxying `/site/*` for the hidden database.
pub fn remote_site(world: &World, tracer: Option<&Arc<Tracer>>) -> WorldRun {
    let (mut run, t0) = WorldRun::open();
    let site = Site::build(world, tracer);
    let (server, iface) = (Arc::clone(&site.server), Arc::clone(&site.iface));
    let edge = EdgeServer::serve(
        Arc::new(RerankService::new(iface, N)),
        Arc::new(Executor::pool(1)),
        EdgeConfig::default(),
    )
    .expect("loopback bind");
    let adapter = HttpSiteAdapter::connect(edge.addr()).expect("loopback connect");
    debug_assert_eq!(adapter.k(), K);
    let svc = RerankService::new(traced(Arc::new(adapter), tracer, trace::SITE_CALL), N);
    run.ready(t0, &site);
    let requests = &world.requests[..REMOTE_REQUESTS];
    ask_each(&mut run, &svc, requests, &server.dataset(), tracer);
    edge.shutdown();
    run.close(&server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_answer_matches_the_oracle_and_a_tampered_one_does_not() {
        let world = World::generate(3, 0, 6, 0);
        let server = Arc::new(world.build_server());
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N);
        let data = server.dataset();
        for req in &world.requests {
            let answer = serve_inproc(&svc, req, &req.rank(), None).unwrap();
            let want = oracle::top(&data, req);
            assert_eq!(answer.hits, want);
            let mut run = WorldRun::default();
            let tamper = |edit: fn(&mut Fingerprint)| {
                let mut hits = want.clone();
                edit(&mut hits);
                Some(Answer {
                    hits,
                    queries: 0,
                    cost_units: 0,
                    queries_saved: 0,
                    failed: false,
                })
            };
            run.settle(tamper(|_| ()), &want);
            assert_eq!(run.failed, 0);
            run.settle(tamper(|h| h.swap(3, 4)), &want);
            assert_eq!(run.failed, 1);
            run.settle(tamper(|h| h[7].1 ^= 1), &want);
            assert_eq!(run.failed, 2);
        }
    }

    #[test]
    fn remote_ledgers_equal_the_in_process_prefix() {
        let world = Workload::RemoteSite.world(9, 2);
        let remote = remote_site(&world, None);
        let local = rerank_inproc(&world, None);
        assert_eq!(remote.failed + local.failed, 0);
        assert_eq!(remote.ledgers[..], local.ledgers[..REMOTE_REQUESTS]);
        assert_eq!(
            remote.ledger_sums(),
            (remote.site_queries, remote.site_cost_units)
        );
    }
}
