//! The edge's proof: loopback round trips over a real socket.
//!
//! A `SimServer` is served by [`EdgeServer`] and consumed back through
//! [`HttpSiteAdapter`] — a completely ordinary session on the client side
//! drives a *remote* site — and the result stream must be **byte
//! identical** (tuple ids *and* score bit patterns) to the same session
//! run in-process, with ledgers that reconcile **exactly**: the adapter's
//! atomic mirrors equal the far server's since-birth counters, drop by
//! drop, truncation by truncation.
//!
//! Legs:
//! * clean loopback, 1D cursor (public `ORDER BY` route) and MD
//!   (query/page routes),
//! * a 429 storm injected *behind* the edge, absorbed by the client-side
//!   `RetryPolicy` on a mock clock — refusals charge nothing,
//! * a deterministic, persistent TCP fault proxy dropping and truncating
//!   whole responses on *reused* connections — transport loss is
//!   transient, and cumulative ledgers absorb every missed charge,
//! * the connection's life: reuse counted at the server, an idle
//!   connection shed for a client that needs its worker, shutdown under
//!   idle connections, stalled and dripped requests cut at the whole-request
//!   deadline,
//! * the tenant table: unchecked names and a full table are typed,
//!   uncharged refusals, and a refused request puts no tenant on it,
//! * what the edge did not foresee: an attribute index outside the schema
//!   is a typed, uncharged `400` on every route that carries a query, and
//!   a handler that panics is a `500` + close — after either, the same
//!   edge keeps serving,
//! * the other direction: a site tuple that does not fit the schema it
//!   advertised is a typed error at the adapter, never a panic above it,
//! * admission control: capacity and tenant-budget refusals are typed
//!   `429`s with `Retry-After` that charge **neither** ledger, and a
//!   tenant cost budget admits and charges up to the cap, then refuses,
//! * the front door: `/v1/rerank` via [`EdgeClient`] versus an in-process
//!   `serve_batch`, outcome for outcome.
//!
//! Suites run on `common::exec_from_env`'s pool, so CI's seed ×
//! `QRS_EXEC_THREADS` matrix sweeps pool shapes over the same wire.

mod common;

use common::exec_from_env;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::edge::http::{read_request, read_response, write_request};
use query_reranking::edge::{
    EdgeClient, EdgeClientError, EdgeConfig, EdgeServer, HttpSiteAdapter, Json,
};
use query_reranking::exec::Executor;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Capabilities, Clock, Fault, FaultyServer, MockClock, SearchInterface, SimServer, SystemRank,
};
use query_reranking::service::{BatchRequest, KnowledgePlane, RerankService};
use query_reranking::types::{AttrId, Dataset, Direction, Query, RerankError, RetryPolicy};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Mix the CI-provided seed into the workload, so the matrix proves the
/// wire is transparent for more than one dataset.
fn test_seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xED6E)
}

/// An anti-correlated system ranking maximizes query traffic, so the
/// wire actually carries a conversation, not two packets.
fn anti_server(data: &Dataset, k: usize) -> SimServer {
    SimServer::new(
        data.clone(),
        SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
        k,
    )
}

fn fingerprint(hits: &[query_reranking::service::RankedTuple]) -> Vec<(u32, u64)> {
    hits.iter()
        .map(|r| (r.tuple.id.0, r.score.to_bits()))
        .collect()
}

fn ids(r: &query_reranking::types::QueryResponse) -> Vec<u32> {
    r.tuples.iter().map(|t| t.id.0).collect()
}

/// Serve `remote` behind an edge and return (handle, adapter): the same
/// site, observed through the wire.
fn loopback(
    remote: Arc<dyn SearchInterface>,
    n: usize,
    exec: &Arc<Executor>,
) -> (query_reranking::edge::EdgeHandle, Arc<HttpSiteAdapter>) {
    let svc = Arc::new(RerankService::new(remote, n));
    let handle = EdgeServer::serve(svc, Arc::clone(exec), EdgeConfig::default()).expect("bind");
    let adapter = Arc::new(HttpSiteAdapter::connect(handle.addr()).expect("connect"));
    (handle, adapter)
}

/// Clean loopback: both strategy families, byte-identical streams, and
/// ledgers equal on *three* books — the local site, the remote site, and
/// the adapter's mirrors.
#[test]
fn loopback_streams_are_byte_identical_and_ledgers_reconcile() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed());
    let ranks: Vec<(&str, Arc<dyn RankFn>)> = vec![
        ("1d", Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]))),
        (
            "md",
            Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])),
        ),
    ];
    for (label, rank) in ranks {
        // In-process reference.
        let local = Arc::new(anti_server(&data, 3));
        let svc = RerankService::new(Arc::clone(&local) as Arc<dyn SearchInterface>, data.len());
        let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
        let (want_hits, err) = s.top(8);
        assert!(err.is_none(), "{label}: clean local run failed: {err:?}");

        // The same site, over the wire.
        let remote = Arc::new(anti_server(&data, 3));
        let (handle, adapter) = loopback(
            Arc::clone(&remote) as Arc<dyn SearchInterface>,
            data.len(),
            &exec,
        );
        let svc = RerankService::new(Arc::clone(&adapter) as Arc<dyn SearchInterface>, data.len());
        let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
        let (got_hits, err) = s.top(8);
        assert!(err.is_none(), "{label}: loopback run failed: {err:?}");

        assert_eq!(
            fingerprint(&got_hits),
            fingerprint(&want_hits),
            "{label}: the wire changed the answer"
        );
        // Three-way ledger reconciliation: the wire neither added nor lost
        // a single charge.
        assert_eq!(remote.queries_issued(), local.queries_issued(), "{label}");
        assert_eq!(adapter.queries_issued(), remote.queries_issued(), "{label}");
        assert_eq!(
            adapter.cost_units_issued(),
            remote.cost_units_issued(),
            "{label}"
        );
        handle.shutdown();
    }
}

/// A rate-limit storm behind the edge: typed `429`s cross the wire with
/// their `retry_after_ms` hints intact, the client-side retry policy
/// absorbs them on a mock clock, and refusals charge nothing.
#[test]
fn rate_limit_storm_crosses_the_wire_as_typed_hints() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed() ^ 0x429);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));

    // Fault-free reference (for the answer and the exact query count).
    let inner = Arc::new(anti_server(&data, 3));
    let svc = RerankService::new(Arc::clone(&inner) as Arc<dyn SearchInterface>, data.len());
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (want, err) = s.top(6);
    assert!(err.is_none(), "{err:?}");
    let clean_cost = inner.queries_issued();

    // Six consecutive rate limits starting at backend call 3, served from
    // *behind* the edge.
    let inner = Arc::new(anti_server(&data, 3));
    let faulty = Arc::new(
        FaultyServer::new(Arc::clone(&inner) as Arc<dyn SearchInterface>).with_storm(
            3,
            6,
            Fault::RateLimit {
                retry_after_ms: Some(250),
            },
        ),
    );
    let (handle, adapter) = loopback(
        Arc::clone(&faulty) as Arc<dyn SearchInterface>,
        data.len(),
        &exec,
    );
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::clone(&adapter) as Arc<dyn SearchInterface>, data.len())
        // Computed backoff (10 ms) is far below the 250 ms hint: only hint
        // dominance — the hint surviving its trip through the wire — makes
        // every sleep land on exactly 250.
        .with_retry_policy(RetryPolicy::none().attempts(10).backoff(10, 50_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits, err) = s.top(6);
    assert!(err.is_none(), "storm should be absorbed: {err:?}");
    assert_eq!(
        fingerprint(&hits).iter().map(|h| h.1).collect::<Vec<_>>(),
        want.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
        "faults must not change the exact answer"
    );
    // Refusals were never charged: the backend saw exactly the clean run.
    assert_eq!(inner.queries_issued(), clean_cost);
    assert_eq!(s.retries_spent(), 6, "one retry per injected rate limit");
    assert_eq!(
        clock.sleeps(),
        vec![250; 6],
        "the server's retry_after_ms hint crossed the wire intact"
    );
    handle.shutdown();
}

/// One message as wire bytes, headers as given: unlike the crate's one-shot
/// writers this adds no `connection: close`, so a raw client or the proxy
/// can hold a connection open. `headers` must carry the content length.
fn raw_frame(start: String, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut head = start + "\r\n";
    for (name, value) in headers {
        head += &format!("{name}: {value}\r\n");
    }
    [head.as_bytes(), b"\r\n", body].concat()
}

fn raw_request(method: &str, target: &str, tenant: Option<&str>, body: &[u8]) -> Vec<u8> {
    let mut headers = vec![("content-length".to_string(), body.len().to_string())];
    if let Some(t) = tenant {
        headers.push(("x-tenant".to_string(), t.to_string()));
    }
    raw_frame(format!("{method} {target} HTTP/1.1"), &headers, body)
}

fn says_close(resp: &query_reranking::edge::Response) -> bool {
    resp.header("connection") == Some("close")
}

/// A client that frames by hand and keeps its socket until a response says
/// `close` — a persistent peer that shares no code with `EdgeClient`.
struct RawClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl RawClient {
    fn new(addr: SocketAddr) -> RawClient {
        RawClient { addr, stream: None }
    }

    fn call(
        &mut self,
        method: &str,
        target: &str,
        tenant: Option<&str>,
        body: &[u8],
    ) -> query_reranking::edge::Response {
        let stream = self
            .stream
            .take()
            .unwrap_or_else(|| TcpStream::connect(self.addr).expect("raw connect"));
        (&stream)
            .write_all(&raw_request(method, target, tenant, body))
            .expect("raw send");
        let resp = read_response(&stream).expect("raw reply");
        if !says_close(&resp) {
            self.stream = Some(stream);
        }
        resp
    }
}

/// A `/v1/rerank` body of one small request that costs real queries.
fn one_request_body() -> Vec<u8> {
    let req = EdgeClient::request(
        &Query::all(),
        &[(0, Direction::Asc, 1.0)],
        3,
        None,
        None,
        None,
    );
    let body = query_reranking::edge::Json::obj(vec![(
        "requests",
        query_reranking::edge::Json::Arr(vec![req]),
    )]);
    body.encode().into_bytes()
}

/// What the TCP fault proxy does to one proxied request.
#[derive(Clone, Copy, PartialEq)]
enum ProxyFault {
    /// Shuttle request and response through untouched.
    Pass,
    /// Hang up on the client without forwarding: the request is lost
    /// *before* the server sees it — an uncharged transport fault.
    Drop,
    /// Forward the request, then send only half the response bytes and
    /// hang up: the server answered (and charged), the client never saw it.
    Truncate,
    /// Forward the first half of the request and go quiet.
    Stall,
    /// Forward the request one byte at a time, this far apart, for as long
    /// as the edge has nothing to say.
    Drip(Duration),
}

/// A deterministic person-in-the-middle. Every downstream connection gets
/// one upstream connection of its own, dialled at its first request and
/// kept as long as both ends keep theirs; request `i` (counted across all
/// connections, retries included) gets `faults[i]`, `Pass` past the end of
/// the schedule. Returns its listen address and a counter of injected
/// drops and truncations.
fn fault_proxy(upstream: SocketAddr, faults: Vec<ProxyFault>) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
    let addr = listener.local_addr().unwrap();
    let injected = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&injected);
    let faults = Arc::new(faults);
    let requests = Arc::new(AtomicUsize::new(0));
    thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { break };
            let (seen, faults, requests) = (
                Arc::clone(&seen),
                Arc::clone(&faults),
                Arc::clone(&requests),
            );
            thread::spawn(move || proxy_conn(client, upstream, &faults, &requests, &seen));
        }
    });
    (addr, injected)
}

fn proxy_conn(
    client: TcpStream,
    upstream: SocketAddr,
    faults: &[ProxyFault],
    requests: &AtomicUsize,
    injected: &AtomicUsize,
) {
    let mut up: Option<TcpStream> = None;
    // Neither side pipelines, so a reader per message loses nothing.
    while let Ok(Some(req)) = read_request(&client) {
        let i = requests.fetch_add(1, Ordering::SeqCst);
        let fault = faults.get(i).copied().unwrap_or(ProxyFault::Pass);
        if fault == ProxyFault::Drop {
            injected.fetch_add(1, Ordering::SeqCst);
            return; // hang up: the edge never hears of it
        }
        let up = up.get_or_insert_with(|| TcpStream::connect(upstream).expect("proxy dial"));
        let start = format!("{} {} HTTP/1.1", req.method, req.target);
        let bytes = raw_frame(start, &req.headers, &req.body);
        match fault {
            ProxyFault::Stall => up.write_all(&bytes[..bytes.len() / 2]).expect("forward"),
            ProxyFault::Drip(gap) => {
                up.set_read_timeout(Some(gap)).unwrap();
                for byte in &bytes {
                    // The wait between bytes doubles as the check that the
                    // edge is still listening: it ends early on a reply.
                    if up.write_all(&[*byte]).is_err() || up.peek(&mut [0u8; 1]).is_ok() {
                        break;
                    }
                }
                up.set_read_timeout(None).unwrap();
            }
            _ => up.write_all(&bytes).expect("forward"),
        }
        let Ok(resp) = read_response(&*up) else {
            return;
        };
        let status = format!("HTTP/1.1 {} Relayed", resp.status);
        let bytes = raw_frame(status, &resp.headers, &resp.body);
        if fault == ProxyFault::Truncate {
            injected.fetch_add(1, Ordering::SeqCst);
            let _ = (&client).write_all(&bytes[..bytes.len() / 2]);
            return; // hang up mid-body
        }
        if (&client).write_all(&bytes).is_err() || says_close(&resp) {
            return;
        }
    }
}

/// Drops and truncations between adapter and edge: both are transient,
/// both are retried, the answer is unchanged — and because every response
/// carries *cumulative* ledgers, the adapter's mirrors reconcile exactly
/// with the far server even though whole responses (ledger updates
/// included) were destroyed in transit.
#[test]
fn transport_faults_retry_transparently_and_ledgers_absorb_the_loss() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed() ^ 0xD707);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));

    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle = EdgeServer::serve(svc, Arc::clone(&exec), EdgeConfig::default()).expect("bind");

    // Request 0 is the capabilities fetch (must pass); 3 is destroyed
    // before the edge hears it, on the connection that carried 0–2; its
    // retry dials a second connection, whose third request, 6, is answered
    // (charged) then truncated; a third connection carries the rest.
    let mut faults = vec![ProxyFault::Pass; 7];
    faults[3] = ProxyFault::Drop;
    faults[6] = ProxyFault::Truncate;
    let (proxy_addr, injected) = fault_proxy(handle.addr(), faults);

    let adapter = Arc::new(HttpSiteAdapter::connect(proxy_addr).expect("connect via proxy"));
    let clock = Arc::new(MockClock::new());
    let svc = RerankService::new(Arc::clone(&adapter) as Arc<dyn SearchInterface>, data.len())
        .with_retry_policy(RetryPolicy::none().attempts(10).backoff(50, 5_000))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits, err) = s.top(8);
    assert!(err.is_none(), "transport faults must be transient: {err:?}");
    assert_eq!(injected.load(Ordering::SeqCst), 2, "both faults fired");
    assert!(
        s.retries_spent() >= 2,
        "each destroyed response was retried"
    );

    // The same run without the proxy gives the reference answer.
    let local = Arc::new(anti_server(&data, 3));
    let svc = RerankService::new(Arc::clone(&local) as Arc<dyn SearchInterface>, data.len());
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (want, err) = s.top(8);
    assert!(err.is_none(), "{err:?}");
    assert_eq!(
        fingerprint(&hits),
        fingerprint(&want),
        "faults changed the answer"
    );

    // Exact reconciliation: the truncated response's charge reached the
    // mirrors through the *next* response's cumulative counters.
    assert_eq!(adapter.queries_issued(), remote.queries_issued());
    assert_eq!(adapter.cost_units_issued(), remote.cost_units_issued());
    // The dropped request was never charged; the truncated one was paid
    // for and lost, so the remote ledger runs ahead of the fault-free one
    // by exactly that re-issued query.
    assert_eq!(remote.queries_issued(), local.queries_issued() + 1);
    // Both faults hit a connection that had already been reused: three
    // connections for the whole conversation.
    assert_eq!(handle.connections(), 3);
    assert!(handle.requests() > 8, "{} requests", handle.requests());
    handle.shutdown();
}

/// Reuse is counted where it cannot be faked — at the server's `accept`:
/// 64 site calls after the capabilities fetch ride the adapter's one
/// connection, 16 front-door calls ride the client's one, answers and
/// three-way ledgers as in the clean loopback.
#[test]
fn many_calls_ride_one_connection_each() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed() ^ 0x0C01);
    let local = anti_server(&data, 3);
    let remote = Arc::new(anti_server(&data, 3));
    let (handle, adapter) = loopback(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
        &exec,
    );
    for i in 0..64 {
        let lo = i as f64 / 128.0;
        let q = Query::all().and_range(
            AttrId(0),
            query_reranking::types::Interval::closed(lo, lo + 0.5),
        );
        let (got, want) = (adapter.query(&q).unwrap(), local.query(&q).unwrap());
        assert_eq!(
            (ids(&got), got.is_overflow()),
            (ids(&want), want.is_overflow())
        );
    }
    assert_eq!(remote.queries_issued(), local.queries_issued());
    assert_eq!(adapter.queries_issued(), remote.queries_issued());
    assert_eq!(adapter.cost_units_issued(), remote.cost_units_issued());
    assert_eq!((handle.requests(), handle.connections()), (65, 1));

    let client = EdgeClient::new(handle.addr(), "tenant-a");
    let rank = [(0usize, Direction::Asc, 1.0)];
    for _ in 0..15 {
        let request = EdgeClient::request(&Query::all(), &rank, 3, None, None, None);
        let reply = client.rerank(vec![request]).expect("front door");
        assert_eq!(reply.outcomes[0].hits.len(), 3);
    }
    let stats = client.stats().expect("stats");
    let edge = stats.get("edge").expect("edge block");
    let counter = |name: &str| edge.get(name).and_then(|v| v.as_u64());
    assert_eq!(counter("requests"), Some(81), "the /stats call included");
    assert_eq!(counter("connections"), Some(2));
    assert_eq!((handle.requests(), handle.connections()), (81, 2));
    handle.shutdown();
}

/// A knowledge plane in front of a remote site reads the site's mutation
/// feed once per session, at open — not once per query: one `top(20)`
/// costs the edge its paid queries plus one `GET /site/seq`, and streams
/// what the same session streams in-process.
#[test]
fn a_plane_over_a_remote_site_polls_the_feed_once_per_session() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed() ^ 0x5E9);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let local = RerankService::new(Arc::new(anti_server(&data, 3)), data.len());
    let (want, err) = local
        .session(Query::all(), Arc::clone(&rank))
        .open()
        .unwrap()
        .top(20);
    assert!(err.is_none(), "{err:?}");

    let remote = Arc::new(anti_server(&data, 3));
    let (handle, adapter) = loopback(remote as Arc<dyn SearchInterface>, data.len(), &exec);
    let svc = RerankService::new(adapter as Arc<dyn SearchInterface>, data.len())
        .with_knowledge(Arc::new(KnowledgePlane::new()), "remote");
    let before = handle.requests();
    let mut s = svc.session(Query::all(), rank).open().unwrap();
    let (got, err) = s.top(20);
    assert!(err.is_none(), "{err:?}");
    assert_eq!(
        fingerprint(&got),
        fingerprint(&want),
        "the plane changed the answer"
    );
    let calls = handle.requests() - before;
    assert!(s.queries_spent() > 0);
    assert!(
        calls <= s.queries_spent() + 1,
        "{calls} site calls for {} paid queries",
        s.queries_spent()
    );
    handle.shutdown();
}

/// An idle connection never owns a worker somebody else needs: on a
/// one-worker edge, A is answered and idles on the only worker; B connects
/// and is answered at once, because A was shed; A's next call finds its
/// connection closed *before* sending anything and dials again. Nothing
/// fails and every book agrees.
#[test]
fn an_idle_connection_is_shed_for_a_client_that_needs_its_worker() {
    let exec = Arc::new(Executor::pool(1));
    let data = uniform(150, 2, 1, test_seed() ^ 0x5ED);
    let remote = Arc::new(anti_server(&data, 3));
    let (handle, a) = loopback(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
        &exec,
    );
    a.query(&Query::all()).expect("A, first call");
    let t0 = Instant::now();
    let b = HttpSiteAdapter::connect(handle.addr()).expect("B connects while A idles");
    b.query(&Query::all()).expect("B");
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    a.query(&Query::all())
        .expect("A again, on a fresh connection");
    assert_eq!(handle.connections(), 3, "A, B, A again");
    assert_eq!(
        handle.requests(),
        5,
        "two capability fetches, three queries"
    );
    assert_eq!(remote.queries_issued(), 3);
    assert_eq!(a.queries_issued(), 3);
    assert_eq!(
        b.queries_issued(),
        2,
        "B's mirror is as of its last response"
    );
    handle.shutdown();
}

/// `shutdown()` is called while clients still hold connections. It must
/// wake them, not wait out their idle deadline, and the edge must then be
/// gone: later calls are transient transport failures.
#[test]
fn shutdown_ends_idle_connections_promptly() {
    let exec = Arc::new(Executor::pool(2));
    let data = uniform(60, 2, 1, test_seed() ^ 0x0FF);
    let remote = Arc::new(anti_server(&data, 3));
    let (handle, a) = loopback(remote as Arc<dyn SearchInterface>, data.len(), &exec);
    let b = EdgeClient::new(handle.addr(), "tenant-b");
    b.stats().expect("B");
    a.query(&Query::all()).expect("A");
    assert_eq!(handle.connections(), 2, "two connections, both idle");
    let t0 = Instant::now();
    handle.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    let gone = a.query(&Query::all()).unwrap_err();
    assert!(gone.is_transient(), "{gone:?}");
    assert!(matches!(b.stats(), Err(EdgeClientError::Failed(_))));
}

/// Half a request, then silence: the sender is cut at the whole-request
/// deadline with a typed `408` + close, nothing is charged, no admission
/// slot was taken, and the one worker it held answers the next client as
/// soon as the deadline has passed — not after an idle timeout.
#[test]
fn a_stalled_request_is_cut_at_the_deadline_and_frees_its_worker() {
    let data = uniform(80, 2, 1, test_seed() ^ 0x57A1);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let config = EdgeConfig {
        max_inflight: 1,
        ..EdgeConfig::default()
    };
    let handle = EdgeServer::serve(svc, Arc::new(Executor::pool(1)), config).unwrap();

    let t0 = Instant::now();
    let bytes = raw_request("POST", "/v1/rerank", Some("tenant-a"), &one_request_body());
    let stalled = TcpStream::connect(handle.addr()).unwrap();
    (&stalled).write_all(&bytes[..bytes.len() / 2]).unwrap();
    // Queued behind the stalled request: there is nothing parked to shed.
    let next = thread::spawn({
        let addr = handle.addr();
        move || {
            let resp = RawClient::new(addr).call(
                "POST",
                "/v1/rerank",
                Some("tenant-b"),
                &one_request_body(),
            );
            (resp.status, Instant::now())
        }
    });
    let cut = read_response(&stalled).expect("the edge answers before hanging up");
    let cut_after = t0.elapsed();
    assert_eq!(cut.status, 408);
    assert!(says_close(&cut));
    assert!(String::from_utf8_lossy(&cut.body).contains("request_timeout"));
    assert!(cut_after >= Duration::from_millis(1900), "{cut_after:?}");
    assert!(cut_after < Duration::from_secs(4), "{cut_after:?}");
    let (status, answered) = next.join().unwrap();
    assert_eq!(status, 200);
    let waited = answered.duration_since(t0);
    assert!(waited < cut_after + Duration::from_secs(1), "{waited:?}");
    // The cut request charged nobody and held no slot.
    assert_eq!((handle.admitted(), handle.rejected()), (1, 0));
    assert_eq!(handle.requests(), 1, "half a request is not a request");
    assert!(remote.queries_issued() > 0);
    handle.shutdown();
}

/// The deadline is per request, not per `read`. A request dripped a byte
/// at a time *inside* the deadline is an ordinary request; one dripped
/// slower is cut at the deadline — a per-read timeout would let it run for
/// bytes × gap (7 s here) and then answer it.
#[test]
fn a_dripped_request_has_one_deadline_for_all_its_bytes() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(80, 2, 1, test_seed() ^ 0xD219);
    let local = anti_server(&data, 3);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle = EdgeServer::serve(svc, exec, EdgeConfig::default()).expect("bind");
    let faults = vec![
        ProxyFault::Pass,
        ProxyFault::Drip(Duration::from_millis(1)),
        ProxyFault::Drip(Duration::from_millis(50)),
        ProxyFault::Stall,
    ];
    let (proxy_addr, _) = fault_proxy(handle.addr(), faults);
    let adapter = HttpSiteAdapter::connect(proxy_addr).expect("connect via proxy");

    let got = adapter
        .query(&Query::all())
        .expect("a patient drip is served");
    let want = local.query(&Query::all()).unwrap();
    assert_eq!(ids(&got), ids(&want));
    assert_eq!(remote.queries_issued(), 1);

    for schedule in ["drip", "stall"] {
        let t0 = Instant::now();
        let cut = adapter.query(&Query::all()).unwrap_err();
        let after = t0.elapsed();
        assert!(cut.is_transient(), "{schedule}: {cut:?}");
        assert!(cut.to_string().contains("408"), "{schedule}: {cut}");
        assert!(
            after >= Duration::from_millis(1900),
            "{schedule}: {after:?}"
        );
        assert!(after < Duration::from_secs(4), "{schedule}: {after:?}");
        assert_eq!(
            remote.queries_issued(),
            1,
            "{schedule}: a cut request is uncharged"
        );
    }
    // The same adapter, through the same proxy, is served again.
    adapter.query(&Query::all()).expect("served after the cuts");
    assert_eq!(adapter.queries_issued(), remote.queries_issued());
    assert_eq!(handle.requests(), 3, "capabilities and two queries");
    handle.shutdown();
}

/// One hostile request in its three wire shapes: a predicate on an
/// attribute the schema does not have, sent to `/site/query`, `/site/page`
/// and `/v1/rerank`. Each used to panic the worker — the categorical one
/// with the query already charged — leaving the client without a byte on a
/// connection nobody would ever deregister, and the accept thread to die
/// at shutdown. Each is a typed `400` that moves no ledger, after which the
/// same connection is served as ever; and the session builder refuses the
/// same selections before anything is planned.
#[test]
fn attributes_outside_the_schema_are_uncharged_400s_and_the_edge_keeps_serving() {
    use query_reranking::edge::{wire, Json};
    use query_reranking::types::{CatId, CatPredicate, Interval, ServerError};
    let data = uniform(60, 2, 1, test_seed() ^ 0x0A77);
    let hostile = [
        Query::all().and_cat(CatPredicate::eq(CatId(9), 1)),
        Query::all().and_range(AttrId(9), Interval::open(0.0, 1.0)),
    ];
    let remote =
        Arc::new(anti_server(&data, 3).with_capabilities(Capabilities::none().with_paging()));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]));
    for bad in &hostile {
        let refused = svc.session(bad.clone(), Arc::clone(&rank)).open().err();
        assert!(
            matches!(
                refused,
                Some(RerankError::Server(ServerError::InvalidQuery { .. }))
            ),
            "{bad}: {refused:?}"
        );
    }

    let handle =
        EdgeServer::serve(svc, Arc::new(Executor::pool(1)), EdgeConfig::default()).unwrap();
    let mut raw = RawClient::new(handle.addr());
    let mut sent = 0;
    for bad in &hostile {
        let query = wire::query_to_json(bad);
        let rank = [(0, Direction::Asc, 1.0)];
        let request = EdgeClient::request(bad, &rank, 3, None, None, None);
        for (target, code, body) in [
            (
                "/site/query",
                "invalid_query",
                vec![("query", query.clone())],
            ),
            (
                "/site/page",
                "invalid_query",
                vec![("query", query.clone()), ("page", Json::u64(1))],
            ),
            (
                "/v1/rerank",
                "invalid_request",
                vec![("requests", Json::Arr(vec![request]))],
            ),
        ] {
            let body = Json::obj(body).encode();
            let resp = raw.call("POST", target, Some("tenant-a"), body.as_bytes());
            let text = String::from_utf8_lossy(&resp.body).into_owned();
            assert_eq!(resp.status, 400, "{target}: {text}");
            assert!(
                text.contains(code) && text.contains("the schema has"),
                "{target}: {text}"
            );
            assert!(!says_close(&resp), "{target}");
            sent += 1;
        }
    }
    assert_eq!(remote.queries_issued(), 0, "a refusal charges nothing");

    let resp = raw.call("POST", "/v1/rerank", Some("tenant-a"), &one_request_body());
    assert_eq!(resp.status, 200);
    // Everything on the tenant's ledger is what that one batch spent.
    let body = query_reranking::edge::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let tenant = wire::ledger_from_json(body.get("tenant").unwrap()).unwrap();
    assert!(tenant.0 > 0);
    assert_eq!(
        tenant,
        (remote.queries_issued(), remote.cost_units_issued())
    );
    assert_eq!(handle.requests(), sent + 1);
    assert_eq!(handle.connections(), 1);
    handle.shutdown();
}

/// A site whose `query` panics: the input no check foresaw.
struct PanickingSite(Arc<query_reranking::types::Schema>);

impl SearchInterface for PanickingSite {
    fn schema(&self) -> &Arc<query_reranking::types::Schema> {
        &self.0
    }
    fn k(&self) -> usize {
        3
    }
    fn query(
        &self,
        _q: &Query,
    ) -> Result<query_reranking::types::QueryResponse, query_reranking::types::ServerError> {
        panic!("a bug behind /site/query")
    }
    fn queries_issued(&self) -> u64 {
        0
    }
}

/// A panic out of a handler costs its own request and nothing else: the
/// client gets a typed `500` + close, the connection comes off the books
/// (so the next client's keep-alive exchanges are not told `close` by an
/// edge that believes itself crowded), the worker and the accept thread
/// live on, and shutdown is quiet.
#[test]
fn a_panicking_handler_is_a_500_that_costs_only_its_own_request() {
    let data = uniform(10, 2, 1, 1);
    let site = Arc::new(PanickingSite(Arc::clone(data.schema())));
    let svc = Arc::new(RerankService::new(site as Arc<dyn SearchInterface>, 10));
    let handle =
        EdgeServer::serve(svc, Arc::new(Executor::pool(1)), EdgeConfig::default()).unwrap();

    let body = br#"{"query":{"ranges":[],"cats":[]}}"#;
    let resp = RawClient::new(handle.addr()).call("POST", "/site/query", None, body);
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 500, "{text}");
    assert!(text.contains("internal_error"), "{text}");
    assert!(says_close(&resp));

    let mut next = RawClient::new(handle.addr());
    for _ in 0..3 {
        let resp = next.call("GET", "/site/seq", None, b"");
        assert_eq!(resp.status, 200);
        assert!(!says_close(&resp), "asked to persist, told to close");
    }
    assert_eq!((handle.requests(), handle.connections()), (4, 2));
    handle.shutdown();
}

/// A site that answers its own two-ordinal schema with a one-ordinal tuple.
struct ShortTupleSite(Dataset);

impl SearchInterface for ShortTupleSite {
    fn schema(&self) -> &Arc<query_reranking::types::Schema> {
        self.0.schema()
    }
    fn k(&self) -> usize {
        3
    }
    fn query(
        &self,
        _q: &Query,
    ) -> Result<query_reranking::types::QueryResponse, query_reranking::types::ServerError> {
        let t = &self.0.tuples()[0];
        let short =
            query_reranking::types::Tuple::new(t.id, t.ords()[..1].to_vec(), t.cats().to_vec());
        Ok(query_reranking::types::QueryResponse::new(
            vec![Arc::new(short)],
            false,
        ))
    }
    fn queries_issued(&self) -> u64 {
        0
    }
}

/// The wire decoder accepts any number of ordinals, so a remote site's
/// wrong-arity tuple used to reach the strategies and index past its
/// values inside the service's state lock. The adapter checks every tuple
/// against the schema it cached at connect: the call is a typed transient
/// failure, and a session over the adapter gets that error, not a panic.
#[test]
fn a_remote_tuple_that_does_not_fit_the_schema_is_a_typed_error_not_a_panic() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(20, 2, 1, test_seed() ^ 0xA217);
    let (handle, adapter) = loopback(Arc::new(ShortTupleSite(data)), 20, &exec);
    let refused = adapter.query(&Query::all());
    assert!(
        matches!(refused, Err(ref e) if e.is_transient() && e.to_string().contains("ordinal")),
        "{refused:?}"
    );
    let svc = RerankService::new(Arc::clone(&adapter) as Arc<dyn SearchInterface>, 20);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let mut s = svc.session(Query::all(), rank).open().unwrap();
    let err = s.next().unwrap_err();
    assert!(matches!(err, RerankError::Server(_)), "{err}");
    assert_eq!(s.emitted(), 0);
    handle.shutdown();
}

/// Admission refusals are typed, carry `Retry-After`, and charge neither
/// the site ledger nor the tenant ledger.
#[test]
fn admission_refusals_are_typed_uncharged_429s() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(60, 2, 1, test_seed() ^ 0xADA);
    let sel = Query::all();

    // Capacity gate: an edge with zero in-flight slots refuses everything.
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let config = EdgeConfig {
        max_inflight: 0,
        retry_after_ms: 1500,
        ..EdgeConfig::default()
    };
    let handle = EdgeServer::serve(Arc::clone(&svc), Arc::clone(&exec), config).expect("bind");

    // Raw round trip, so the header is visible.
    let req = EdgeClient::request(&sel, &[(0, Direction::Asc, 1.0)], 3, None, None, None);
    let body = query_reranking::edge::Json::obj(vec![(
        "requests",
        query_reranking::edge::Json::Arr(vec![req.clone()]),
    )])
    .encode();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    write_request(&stream, "POST", "/v1/rerank", &[], body.as_bytes()).unwrap();
    let resp = read_response(&stream).unwrap();
    assert_eq!(resp.status, 429);
    assert_eq!(
        resp.header("retry-after"),
        Some("2"),
        "1500ms rounds up to 2 whole seconds"
    );
    let parsed = query_reranking::edge::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let error = parsed.get("error").expect("typed body");
    assert_eq!(
        error.get("code").and_then(|c| c.as_str()),
        Some("admission")
    );
    assert_eq!(
        error.get("reason").and_then(|r| r.as_str()),
        Some("capacity")
    );
    assert_eq!(
        error.get("retry_after_ms").and_then(|r| r.as_u64()),
        Some(1500)
    );
    // Neither ledger moved.
    assert_eq!(remote.queries_issued(), 0, "refusal issued no queries");
    let tenant = parsed.get("tenant").expect("tenant ledger in refusal");
    assert_eq!(tenant.get("queries").and_then(|q| q.as_u64()), Some(0));
    assert_eq!(tenant.get("cost_units").and_then(|q| q.as_u64()), Some(0));
    assert_eq!(handle.rejected(), 1);
    assert_eq!(handle.admitted(), 0);
    handle.shutdown();

    // Tenant-budget gate: a zero query budget refuses before serving.
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let config = EdgeConfig {
        tenant_query_budget: Some(0),
        ..EdgeConfig::default()
    };
    let handle = EdgeServer::serve(Arc::clone(&svc), Arc::clone(&exec), config).expect("bind");
    let client = EdgeClient::new(handle.addr(), "tenant-a");
    match client.rerank(vec![req]) {
        Err(EdgeClientError::Rejected {
            reason,
            retry_after_ms,
        }) => {
            assert_eq!(reason, "tenant_budget");
            assert_eq!(retry_after_ms, Some(1000), "default hint");
        }
        other => panic!("expected a tenant-budget refusal, got {other:?}"),
    }
    assert_eq!(remote.queries_issued(), 0);
    assert_eq!(handle.rejected(), 1);
    handle.shutdown();
}

/// The tenant cost budget end to end: the gate reads *cumulative* spend,
/// so a tenant under its cap is admitted and charged in full even when one
/// request overshoots it; its next request is refused before any query is
/// issued, and another tenant is still served.
#[test]
fn a_tenant_over_its_cost_budget_is_refused_before_any_query() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(60, 2, 1, test_seed() ^ 0xC057);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    // Below the cost of any request that queries the site at all.
    let config = EdgeConfig {
        tenant_cost_budget: Some(1),
        ..EdgeConfig::default()
    };
    let handle = EdgeServer::serve(svc, exec, config).expect("bind");
    let req = || {
        EdgeClient::request(
            &Query::all(),
            &[(0, Direction::Asc, 1.0)],
            3,
            None,
            None,
            None,
        )
    };

    let a = EdgeClient::new(handle.addr(), "tenant-a");
    let reply = a.rerank(vec![req()]).expect("under budget: admitted");
    let (queries, cost_units) = reply.tenant;
    assert!(
        cost_units > 1,
        "one request must overshoot the cap: {cost_units}"
    );
    assert_eq!(
        queries,
        remote.queries_issued(),
        "the tenant is charged in full"
    );
    assert_eq!(
        (queries, cost_units),
        (
            reply.outcomes[0].queries_spent,
            reply.outcomes[0].cost_units_spent
        )
    );

    let before = remote.queries_issued();
    match a.rerank(vec![req()]) {
        Err(EdgeClientError::Rejected { reason, .. }) => assert_eq!(reason, "tenant_budget"),
        other => panic!("expected a tenant-budget refusal, got {other:?}"),
    }
    assert_eq!(
        remote.queries_issued(),
        before,
        "the refusal issued no queries"
    );
    assert_eq!((handle.admitted(), handle.rejected()), (1, 1));

    let b = EdgeClient::new(handle.addr(), "tenant-b");
    let reply = b
        .rerank(vec![req()])
        .expect("another tenant is still served");
    assert_eq!(reply.outcomes.len(), 1);
    assert!(reply.outcomes[0].error_code.is_none());
    assert_eq!((handle.admitted(), handle.rejected()), (2, 1));
    handle.shutdown();
}

/// The front door end to end: `/v1/rerank` through [`EdgeClient`] equals
/// an in-process `serve_batch` — bit-exact hits per request (per-request
/// *spend* is legitimately interleaving-dependent when concurrent
/// requests amortize each other's queries through the shared knowledge,
/// so the ledger assertions are the invariant ones: the tenant is charged
/// exactly the summed session spend, and the summed spend covers every
/// query the site was actually asked).
#[test]
fn front_door_batches_match_in_process_serve_batch() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed() ^ 0xF00D);
    let sel = Query::all();
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));

    // In-process reference batch: two healthy requests.
    let local = Arc::new(anti_server(&data, 3));
    let svc = RerankService::new(Arc::clone(&local) as Arc<dyn SearchInterface>, data.len());
    let want = svc.serve_batch(
        &exec,
        vec![
            BatchRequest::new(sel.clone(), Arc::clone(&rank), 5),
            BatchRequest::new(sel.clone(), Arc::clone(&rank), 8),
        ],
    );
    assert!(want[0].error.is_none(), "{:?}", want[0].error);
    assert!(want[1].error.is_none(), "{:?}", want[1].error);

    // The same batch through the wire.
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle =
        EdgeServer::serve(Arc::clone(&svc), Arc::clone(&exec), EdgeConfig::default()).unwrap();
    let client = EdgeClient::new(handle.addr(), "tenant-a");
    let wire_rank = [(0usize, Direction::Asc, 1.0), (1usize, Direction::Asc, 1.0)];
    let reply = client
        .rerank(vec![
            EdgeClient::request(&sel, &wire_rank, 5, None, None, None),
            EdgeClient::request(&sel, &wire_rank, 8, None, None, None),
        ])
        .expect("front door");

    assert_eq!(reply.outcomes.len(), 2);
    for (i, (got, want)) in reply.outcomes.iter().zip(&want).enumerate() {
        assert_eq!(got.error_code, None, "request {i}");
        let want_fp = fingerprint(&want.hits);
        let got_fp: Vec<(u32, u64)> = got
            .hits
            .iter()
            .map(|(_, score, t)| (t.id.0, score.to_bits()))
            .collect();
        assert_eq!(got_fp, want_fp, "request {i}: hits diverged over the wire");
    }
    // The tenant was charged exactly the summed session spend, and the
    // sessions together paid for every query the site actually served.
    let spent: u64 = reply.outcomes.iter().map(|o| o.queries_spent).sum();
    assert_eq!(reply.tenant.0, spent);
    assert_eq!(spent, remote.queries_issued());
    assert_eq!(handle.admitted(), 1);
    assert_eq!(handle.rejected(), 0);

    // /stats serves the same counters over the wire.
    let stats = client.stats().expect("stats");
    let edge = stats.get("edge").expect("edge block");
    assert_eq!(edge.get("admitted").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(edge.get("rejected").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(
        stats
            .get("service")
            .and_then(|s| s.get("batches_served"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    handle.shutdown();
}

/// The typed error taxonomy crosses the wire: a solo budget-starved
/// request (no concurrent partner to amortize with, so the trip is
/// deterministic) reports `BudgetExhausted` in-process and the stable
/// code `"budget_exhausted"` over the wire, with identical partial hits
/// — already-paid-for results are preserved, not discarded.
#[test]
fn budget_exhaustion_crosses_the_wire_with_partial_results() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(150, 2, 1, test_seed() ^ 0xB4D6);
    let sel = Query::all();
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));

    let local = Arc::new(anti_server(&data, 3));
    let svc = RerankService::new(Arc::clone(&local) as Arc<dyn SearchInterface>, data.len());
    let want = svc.serve_batch(
        &exec,
        vec![BatchRequest::new(sel.clone(), Arc::clone(&rank), 5).budget(3)],
    );
    assert!(
        matches!(want[0].error, Some(RerankError::BudgetExhausted { .. })),
        "reference must trip the budget: {:?}",
        want[0].error
    );

    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle =
        EdgeServer::serve(Arc::clone(&svc), Arc::clone(&exec), EdgeConfig::default()).unwrap();
    let client = EdgeClient::new(handle.addr(), "tenant-a");
    let wire_rank = [(0usize, Direction::Asc, 1.0), (1usize, Direction::Asc, 1.0)];
    let reply = client
        .rerank(vec![EdgeClient::request(
            &sel,
            &wire_rank,
            5,
            Some(3),
            None,
            None,
        )])
        .expect("front door");
    assert_eq!(
        reply.outcomes[0].error_code.as_deref(),
        Some("budget_exhausted"),
        "the error taxonomy crosses the wire typed"
    );
    let want_fp = fingerprint(&want[0].hits);
    let got_fp: Vec<(u32, u64)> = reply.outcomes[0]
        .hits
        .iter()
        .map(|(_, score, t)| (t.id.0, score.to_bits()))
        .collect();
    assert_eq!(got_fp, want_fp, "partial results diverged over the wire");
    assert_eq!(reply.outcomes[0].queries_spent, want[0].stats.queries_spent);
    assert_eq!(remote.queries_issued(), local.queries_issued());
    handle.shutdown();
}

/// Tie and horizon knobs ride the wire: `"tie": "exact"`, the one value
/// the member may state, is served together with a horizon; any other tie
/// value, such as `"assume_distinct"`, and a malformed rank are each a
/// typed `400` before anything is charged.
#[test]
fn wire_knobs_reach_the_session_and_bad_requests_are_uncharged_400s() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(80, 2, 1, test_seed() ^ 0x71E);
    let sel = Query::all();
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle =
        EdgeServer::serve(Arc::clone(&svc), Arc::clone(&exec), EdgeConfig::default()).unwrap();
    let client = EdgeClient::new(handle.addr(), "tenant-a");
    let wire_rank = [(0usize, Direction::Asc, 1.0)];

    // tie + horizon accepted and served.
    let reply = client
        .rerank(vec![EdgeClient::request(
            &sel,
            &wire_rank,
            3,
            None,
            Some("exact"),
            Some(10),
        )])
        .expect("knobs accepted");
    assert_eq!(reply.outcomes[0].error_code, None);
    assert_eq!(reply.outcomes[0].hits.len(), 3);

    let refused_uncharged = |bad: Json, what: &str| {
        let charged_before = remote.queries_issued();
        match client.rerank(vec![bad]) {
            Err(EdgeClientError::Failed(msg)) => {
                assert!(msg.contains("400"), "{what}: expected a 400, got: {msg}");
                assert!(msg.contains("invalid_request"), "{what}: typed body: {msg}");
            }
            other => panic!("{what}: expected a 400 failure, got {other:?}"),
        }
        assert_eq!(
            remote.queries_issued(),
            charged_before,
            "{what}: validation rejections are uncharged"
        );
    };
    let distinct = EdgeClient::request(&sel, &wire_rank, 3, None, Some("assume_distinct"), None);
    refused_uncharged(distinct, "tie other than exact");
    // An out-of-schema rank attr is refused before any query is issued.
    let bad = EdgeClient::request(&sel, &[(9usize, Direction::Asc, 1.0)], 3, None, None, None);
    refused_uncharged(bad, "out-of-schema rank attr");
    handle.shutdown();
}

/// A body of 100 000 `[` sits inside the 1 MiB cap and used to recurse the
/// JSON parser off the stack, aborting the process. It must end in a typed,
/// uncharged 400, and the slot it held must be free again: the server
/// admits one request at a time, so a leaked slot would refuse the next.
#[test]
fn deeply_nested_body_is_a_typed_uncharged_400_and_frees_its_slot() {
    let data = uniform(80, 2, 1, test_seed() ^ 0xDEE9);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let config = EdgeConfig {
        max_inflight: 1,
        ..EdgeConfig::default()
    };
    let handle = EdgeServer::serve(svc, Arc::new(exec_from_env()), config).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let headers = [("x-tenant".to_string(), "tenant-a".to_string())];
    write_request(
        &mut stream,
        "POST",
        "/v1/rerank",
        &headers,
        &[b'['; 100_000],
    )
    .unwrap();
    let refused = read_response(&mut stream).unwrap();
    let body = String::from_utf8_lossy(&refused.body);
    assert_eq!(refused.status, 400, "{body}");
    assert!(
        body.contains("invalid_request") && body.contains("nesting"),
        "{body}"
    );
    assert_eq!(remote.queries_issued(), 0, "a refused body charges nothing");

    let rank = [(0usize, Direction::Asc, 1.0)];
    let request = EdgeClient::request(&Query::all(), &rank, 3, None, None, None);
    let reply = EdgeClient::new(handle.addr(), "tenant-a")
        .rerank(vec![request])
        .expect("the same server answers normally afterwards");
    assert_eq!(reply.outcomes[0].error_code, None);
    assert_eq!(reply.outcomes[0].hits.len(), 3);
    // One batch served, and no admission refusal: the gate was back at zero.
    assert_eq!((handle.admitted(), handle.rejected()), (1, 0));
    handle.shutdown();
}

/// A body framed two ways — two different lengths, or a transfer encoding
/// — would leave the next request to start where the client did not mean
/// it to. The edge refuses it with an uncharged `400 malformed_request`,
/// closes that connection, and goes on serving the others.
#[test]
fn a_request_framed_two_ways_is_an_uncharged_400_that_closes_its_connection() {
    let data = uniform(80, 2, 1, test_seed() ^ 0xF4A3);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let exec = Arc::new(exec_from_env());
    let handle = EdgeServer::serve(svc, exec, EdgeConfig::default()).unwrap();
    let rank = [(0usize, Direction::Asc, 1.0)];
    let request = || EdgeClient::request(&Query::all(), &rank, 3, None, None, None);
    let other = EdgeClient::new(handle.addr(), "tenant-b");
    let before = other.rerank(vec![request()]).expect("served before");
    let spent = remote.queries_issued();
    assert!(spent > 0);

    let body = one_request_body();
    let chunked = [
        format!("{:x}\r\n", body.len()).as_bytes(),
        &body,
        b"\r\n0\r\n\r\n",
    ]
    .concat();
    let length = body.len().to_string();
    let framings = [
        (
            ("content-length", length.as_str()),
            ("content-length", "0"),
            &body,
        ),
        (
            ("content-length", length.as_str()),
            ("transfer-encoding", "chunked"),
            &chunked,
        ),
    ];
    for (first, second, body) in framings {
        let headers = [("x-tenant", "tenant-a"), first, second].map(|(n, v)| (n.into(), v.into()));
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let frame = raw_frame("POST /v1/rerank HTTP/1.1".into(), &headers, body);
        (&stream).write_all(&frame).unwrap();
        let refused = read_response(&stream).unwrap();
        let text = String::from_utf8_lossy(&refused.body);
        assert_eq!(refused.status, 400, "{second:?}: {text}");
        assert!(text.contains("malformed_request"), "{second:?}: {text}");
        assert!(says_close(&refused), "{second:?}");
        assert!(
            read_response(&stream).is_err(),
            "{second:?}: nothing follows"
        );
        assert_eq!(remote.queries_issued(), spent, "{second:?} charged nothing");
    }

    let after = other.rerank(vec![request()]).expect("served after");
    assert_eq!(after.outcomes[0].hits, before.outcomes[0].hits);
    assert_eq!(
        handle.admitted(),
        2,
        "only the well-framed batches were admitted"
    );
    handle.shutdown();
}

/// `x-tenant` is a map key chosen by whoever connects. A name that is too
/// long or not visible ASCII is a typed `400`; once the table holds its
/// 4096 ledgers an *unseen* name is a typed `429` while known tenants are
/// served as before — and neither refusal moves the site ledger.
#[test]
fn tenant_names_are_checked_and_the_tenant_table_is_bounded() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(60, 2, 1, test_seed() ^ 0x7E4A);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle = EdgeServer::serve(svc, exec, EdgeConfig::default()).expect("bind");
    let mut raw = RawClient::new(handle.addr());
    let body = one_request_body();

    let long = "x".repeat(65);
    for bad in [long.as_str(), "two words", "tab\there", "caf\u{e9}", ""] {
        let resp = raw.call("POST", "/v1/rerank", Some(bad), &body);
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        assert_eq!(resp.status, 400, "{bad:?}: {text}");
        assert!(
            text.contains("invalid_request") && text.contains("x-tenant"),
            "{text}"
        );
    }
    // Well framed and refused is still well framed: the connection stays.
    assert_eq!(handle.connections(), 1);
    assert_eq!((handle.admitted(), handle.rejected()), (0, 0));
    assert_eq!(remote.queries_issued(), 0, "a refused name charges nothing");

    // 4096 tenants, each with a batch of nothing: on the books, uncharged.
    for i in 0..4096 {
        let resp = raw.call(
            "POST",
            "/v1/rerank",
            Some(&format!("t{i}")),
            b"{\"requests\":[]}",
        );
        assert_eq!(resp.status, 200, "tenant {i}");
    }
    assert_eq!(remote.queries_issued(), 0);
    let resp = raw.call("POST", "/v1/rerank", Some("one-too-many"), &body);
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let parsed = query_reranking::edge::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let error = parsed.get("error").expect("typed body");
    let field = |name: &str| error.get(name).and_then(|v| v.as_str());
    assert_eq!(field("code"), Some("admission"));
    assert_eq!(field("reason"), Some("tenant_table_full"));
    assert_eq!((handle.admitted(), handle.rejected()), (4096, 1));
    assert_eq!(remote.queries_issued(), 0, "a full table charges nothing");
    // A tenant already on the books is served, and charged, as ever.
    let resp = raw.call("POST", "/v1/rerank", Some("t7"), &body);
    assert_eq!(resp.status, 200);
    assert!(remote.queries_issued() > 0);
    assert_eq!((handle.admitted(), handle.rejected()), (4097, 1));
    handle.shutdown();
}

/// A request refused before it is admitted — here a body that is not JSON —
/// puts no tenant on the books: after as many of them under fresh names as
/// the table holds, a new tenant is still served, and charged.
#[test]
fn a_refused_request_leaves_no_tenant_on_the_books() {
    let exec = Arc::new(exec_from_env());
    let data = uniform(60, 2, 1, test_seed() ^ 0x7E4B);
    let remote = Arc::new(anti_server(&data, 3));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        data.len(),
    ));
    let handle = EdgeServer::serve(svc, exec, EdgeConfig::default()).expect("bind");
    let mut raw = RawClient::new(handle.addr());
    for i in 0..4096 {
        let resp = raw.call(
            "POST",
            "/v1/rerank",
            Some(&format!("m{i}")),
            b"{\"requests\":",
        );
        assert_eq!(resp.status, 400, "tenant {i}");
    }
    assert_eq!((handle.admitted(), handle.rejected()), (0, 0));
    assert_eq!(
        remote.queries_issued(),
        0,
        "a malformed body charges nothing"
    );
    let resp = raw.call("POST", "/v1/rerank", Some("newcomer"), &one_request_body());
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 200, "{text}");
    let reply = query_reranking::edge::wire::read_rerank_reply(&text).expect("JSON");
    let (queries, _) = reply.expect("a reply").tenant;
    assert!(queries > 0);
    assert_eq!(queries, remote.queries_issued(), "the newcomer is charged");
    assert_eq!((handle.admitted(), handle.rejected()), (1, 0));
    handle.shutdown();
}
