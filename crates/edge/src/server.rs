//! The server half: a loopback HTTP front door over a [`RerankService`].
//!
//! One [`EdgeServer::serve`] call binds `127.0.0.1:0`, spawns an accept
//! thread, and hands every connection to a worker of the shared `qrs-exec`
//! pool, which keeps it for the connection's whole life:
//!
//! 1. **read** a request — from its first byte to its last inside
//!    `EXCHANGE` (2 s), however the bytes are spaced, else `408` and close.
//!    A new connection is a request under way (its client dialled in order
//!    to speak): its clock starts when a worker picks it up;
//! 2. **route** it and **write** the response, again inside `EXCHANGE`;
//! 3. **park** until the first byte of the next request (`IDLE`, 30 s) and
//!    go back to 1 — unless either side said `connection: close`, the peer
//!    hung up, or the stream can no longer be trusted: a framing error is
//!    answered `400` and the connection closed, because nobody knows where
//!    the next request would start (a well-framed body that is bad JSON is
//!    an ordinary `400` and keeps its connection).
//!
//! **The shed rule.** An idle connection must never own a worker somebody
//! else needs. Every live connection is registered with a second handle to
//! its socket and a `parked` flag. When the accept loop takes a connection
//! the pool has no worker left for, it shuts down the oldest parked one,
//! which wakes that worker; and a worker does not park while connections
//! outnumber workers (its response says `close` if it can tell in time).
//! One atomic swap of the flag — by the worker that saw a first byte, or
//! by whoever wants the worker back — decides who owns the connection, so
//! a request whose first byte has been consumed is never interrupted. A
//! shed client finds EOF where it expected an idle connection and dials
//! again; one whose next request was already on its way sees that request
//! fail, as a transient error.
//!
//! **Shutdown** sets the stop flag and *then* sheds every parked
//! connection; a worker parks and *then* reads the flag, so neither can
//! miss the other. A connection inside an exchange finishes it, says
//! `close`, and ends.
//!
//! **A handler that panics** costs its own request and nothing else: the
//! panic is caught where the request is routed, the client gets a `500` +
//! close, and the connection comes off the books by a drop guard — however
//! its worker leaves it — as does a batch's in-flight slot.
//!
//! The routes:
//!
//! | route                          | serves                               |
//! |--------------------------------|--------------------------------------|
//! | `GET /site/capabilities`       | schema + k + capabilities + seq      |
//! | `POST /site/query`             | one top-k query                      |
//! | `POST /site/page`              | one system-ranked page               |
//! | `POST /site/ordered`           | one public-`ORDER BY` page           |
//! | `GET /site/seq`                | the mutation watermark (uncharged)   |
//! | `GET /site/mutations?since=N`  | the delta log after `N` (uncharged)  |
//! | `POST /v1/rerank`              | a batch of rerank requests           |
//! | `GET /stats`                   | service + knowledge + fleet counters |
//!
//! Every `/site/*` response — success and typed failure alike — carries
//! the site's **cumulative** ledgers, so a client that missed a response
//! reconciles exactly from the next one it sees.
//!
//! Every body is written in place by `json`'s writer, with no JSON tree;
//! the `/site/*` requests are read in place ([`crate::wire`]) and the
//! `/v1/rerank` request as a tree.
//!
//! ## Admission order (the part that must not charge)
//!
//! `/v1/rerank` gates run strictly before any query is issued:
//!
//! 1. **tenant** — the `x-tenant` header names the ledger: over
//!    64 bytes or outside visible ASCII is a `400`, and an unseen name
//!    when `MAX_TENANTS` (4096) are already on the books is a `429`
//!    with reason `"tenant_table_full"`. If the tenant's cumulative query
//!    or cost spend has reached the configured cap, refuse: `429`, body
//!    code `"admission"`, reason `"tenant_budget"`, `Retry-After` set,
//!    nothing charged anywhere;
//! 2. **in-flight cap** — a lock-free gate on concurrent batches; past it,
//!    refuse with reason `"capacity"`, again uncharged;
//! 3. **parse** — malformed bodies are a `400`, still uncharged; so is a
//!    selection that fails `Query::validate` against the site's schema (a
//!    `NaN` endpoint, an attribute index the schema does not have). The
//!    `/site/*` decoders run the same check: `400 invalid_query`;
//! 4. **serve** — the tenant goes on the books (the table cap checked
//!    again), and `RerankService::serve_batch` runs the batch;
//! 5. **charge** — the summed per-session ledgers land on the tenant.

use crate::http::{request_from, response_frame, says_close, Conn, Request, Response};
use crate::json::{object, parse, write_arr, write_obj, write_str, write_u64, Json, ParseError};
use crate::wire;
use parking_lot::Mutex;
use qrs_exec::Executor;
use qrs_obs::{EventKind, MonitorReport};
use qrs_ranking::LinearRank;
use qrs_service::stats::StatsSnapshot;
use qrs_service::{BatchRequest, PlaneStats, RerankService};
use qrs_types::{AttrId, Query, ServerError};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use wire::{SiteRequest, WireResult};

/// How long a request may take from its first byte to its last, and a
/// response to leave. Past it the connection is cut.
const EXCHANGE: Duration = Duration::from_secs(2);
/// How long a connection may sit between requests. Generous: the shed rule,
/// not this, is what frees a worker under pressure.
const IDLE: Duration = Duration::from_secs(30);
/// Distinct tenants the edge keeps a ledger for.
const MAX_TENANTS: usize = 4096;
/// Longest accepted `x-tenant` value.
const MAX_TENANT_BYTES: usize = 64;

/// Knobs for the edge's admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeConfig {
    /// Maximum concurrently served `/v1/rerank` batches; the gate past
    /// which batches are refused with reason `"capacity"`.
    pub max_inflight: u64,
    /// Per-tenant cap on cumulative *raw queries*; `None` = unmetered.
    pub tenant_query_budget: Option<u64>,
    /// Per-tenant cap on cumulative *weighted cost units*; `None` =
    /// unmetered.
    pub tenant_cost_budget: Option<u64>,
    /// The `Retry-After` hint attached to admission refusals, in
    /// milliseconds (the header is ceiling-rounded to whole seconds).
    pub retry_after_ms: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            max_inflight: 64,
            tenant_query_budget: None,
            tenant_cost_budget: None,
            retry_after_ms: 1000,
        }
    }
}

/// A live connection as everyone but its worker sees it.
struct Live {
    /// A second handle to the socket, to shut it down with.
    socket: TcpStream,
    /// Served at least once and waiting for its next request. Whoever
    /// swaps this back to false owns the connection: its worker, to serve
    /// the request whose first byte it saw, or someone shedding it.
    parked: AtomicBool,
}

/// Shed the oldest parked connection of `conns`, or every one of them.
fn shed(conns: &[Arc<Live>], all: bool) {
    for live in conns {
        if live.parked.swap(false, Ordering::SeqCst) {
            let _ = live.socket.shutdown(Shutdown::Both);
            if !all {
                return;
            }
        }
    }
}

struct Shared {
    svc: Arc<RerankService>,
    exec: Arc<Executor>,
    config: EdgeConfig,
    inflight: AtomicU64,
    /// Each tenant's cumulative `(queries, cost_units)`, charged after each
    /// served batch from the same in-lock session ledgers the service stats
    /// use. A tenant is put on the books when its first batch is admitted.
    tenants: Mutex<BTreeMap<String, (u64, u64)>>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    /// Connections accepted and requests read off them, since birth.
    connections: AtomicU64,
    requests: AtomicU64,
    /// Every connection accepted and not yet ended, oldest first.
    live: Mutex<Vec<Arc<Live>>>,
    stop: AtomicBool,
}

impl Shared {
    /// Whether some connection has no worker while this one holds one.
    fn crowded(&self) -> bool {
        self.live.lock().len() > self.exec.workers()
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The HTTP edge. See the module docs for the protocol and admission
/// order.
pub struct EdgeServer;

impl EdgeServer {
    /// Bind `127.0.0.1:0` and serve `svc` until [`EdgeHandle::shutdown`].
    /// Connections are handled on `exec` pool workers.
    pub fn serve(
        svc: Arc<RerankService>,
        exec: Arc<Executor>,
        config: EdgeConfig,
    ) -> std::io::Result<EdgeHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            svc,
            exec: Arc::clone(&exec),
            config,
            inflight: AtomicU64::new(0),
            tenants: Mutex::new(BTreeMap::new()),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("qrs-edge-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(EdgeHandle {
            addr,
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }
}

/// A running edge server: its bound address and its off switch.
pub struct EdgeHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
}

impl EdgeHandle {
    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Wire batches admitted past admission control so far.
    pub fn admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Wire batches refused at the gate so far (all uncharged).
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Connections accepted so far. With [`EdgeHandle::requests`] this is
    /// what shows reuse: a client that keeps its connection moves only the
    /// other counter.
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Well-framed requests read off those connections so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stop accepting, end idle connections, let exchanges under way
    /// finish, join the accept thread. Idempotent.
    pub fn shutdown(&self) {
        // Flag first, scan second; workers park first and read the flag
        // second.
        self.shared.stop.store(true, Ordering::SeqCst);
        shed(&self.shared.live.lock(), true);
        // Nudge the blocking accept() awake; it sees the flag and stops.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept and register the next connection, making room for it if every
/// worker is taken; `None` once the edge is stopping.
fn next_conn(listener: &TcpListener, shared: &Shared) -> Option<(Conn, Arc<Live>)> {
    loop {
        let (stream, _) = listener.accept().ok()?;
        if shared.stopping() {
            return None;
        }
        // A socket that cannot be registered cannot be shed: drop it.
        let (Ok(socket), Ok(conn)) = (stream.try_clone(), Conn::new(stream)) else {
            continue;
        };
        let parked = AtomicBool::new(false);
        let live = Arc::new(Live { socket, parked });
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let mut all = shared.live.lock();
        all.push(Arc::clone(&live));
        if all.len() > shared.exec.workers() {
            shed(&all, false);
        }
        return Some((conn, live));
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let exec = Arc::clone(&shared.exec);
    exec.scope(|s| {
        while let Some((conn, live)) = next_conn(&listener, &shared) {
            let shared = Arc::clone(&shared);
            let _ = s.spawn(move || handle_conn(conn, &live, &shared));
        }
        // Scope close waits for every in-flight handler before the accept
        // thread exits, so shutdown() returning means the edge is quiet.
    });
}

/// Runs its closure when dropped — on return and on unwind alike.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

fn handle_conn(mut conn: Conn, live: &Arc<Live>, shared: &Shared) {
    // However its worker leaves it: a registered socket that outlived its
    // worker would stay open, and keep the edge `crowded`, for the life of
    // the server.
    let _deregister = OnDrop(|| shared.live.lock().retain(|l| !Arc::ptr_eq(l, live)));
    serve_conn(&mut conn, live, shared);
}

/// The connection loop of the module docs.
fn serve_conn(conn: &mut Conn, live: &Live, shared: &Shared) {
    // A new connection is a request under way: no park, no shedding.
    let mut begun = !shared.stopping();
    while begun {
        let (response, close) = match request_from(conn.within(EXCHANGE)) {
            Ok(Some(request)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                // A panic out of a handler is this request's failure and
                // nobody else's: the client is told, the connection — whose
                // handler may have left anything half-done — is closed, and
                // the worker and the edge carry on.
                match catch_unwind(AssertUnwindSafe(|| route(&request, shared))) {
                    Ok(response) => {
                        let last = says_close(&request.headers);
                        (response, last || shared.stopping() || shared.crowded())
                    }
                    Err(_) => {
                        let what = format!("the handler of {} panicked", request.path());
                        (error_response(500, "internal_error", what), true)
                    }
                }
            }
            Ok(None) => return,
            Err(_) if conn.expired() => {
                let late = format!("request not complete within {EXCHANGE:?}");
                (error_response(408, "request_timeout", late), true)
            }
            Err(e) => (
                error_response(400, "malformed_request", e.to_string()),
                true,
            ),
        };
        let sent = conn.send(EXCHANGE, &response_frame(&response, close));
        if sent.is_err() || close {
            return;
        }
        begun = park(conn, live, shared);
    }
}

/// Offer the connection up until the first byte of its next request.
/// True if that byte came and this worker still owns the connection.
fn park(conn: &mut Conn, live: &Live, shared: &Shared) -> bool {
    // Park first, look second: whoever sheds sets their reason first and
    // scans for parked connections second.
    live.parked.store(true, Ordering::SeqCst);
    if shared.stopping() || shared.crowded() {
        return false;
    }
    let first_byte = matches!(conn.within(IDLE).fill_buf(), Ok(bytes) if !bytes.is_empty());
    live.parked.swap(false, Ordering::SeqCst) && first_byte
}

fn route(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path()) {
        ("GET", "/site/capabilities") => site_capabilities(shared),
        ("POST", "/site/query") => site_query(req, shared),
        ("POST", "/site/page") => site_page(req, shared),
        ("POST", "/site/ordered") => site_ordered(req, shared),
        ("GET", "/site/seq") => site_seq(shared),
        ("GET", "/site/mutations") => site_mutations(req, shared),
        ("POST", "/v1/rerank") => rerank(req, shared),
        ("GET", "/stats") => stats(shared),
        (
            _,
            "/site/capabilities" | "/site/query" | "/site/page" | "/site/ordered" | "/site/seq"
            | "/site/mutations" | "/v1/rerank" | "/stats",
        ) => error_response(
            405,
            "method_not_allowed",
            format!("{} not allowed here", req.method),
        ),
        _ => error_response(404, "not_found", format!("no route {}", req.path())),
    }
}

pub(crate) fn error_response(status: u16, code: &str, message: String) -> Response {
    let body = object(0, |o| {
        write_obj(o.key("error"), |o| {
            write_str(o.key("code"), code);
            write_str(o.key("message"), &message);
        })
    });
    Response::json(status, body)
}

// ------------------------------------------------------------ /site/*

/// The site's cumulative `(queries, cost_units)`, read after the call a
/// reply reports.
fn site_ledger(shared: &Shared) -> (u64, u64) {
    let site = shared.svc.server();
    (site.queries_issued(), site.cost_units_issued())
}

fn site_err(shared: &Shared, e: &ServerError) -> Response {
    wire::server_error_response(e, site_ledger(shared))
}

fn site_capabilities(shared: &Shared) -> Response {
    let site = shared.svc.server();
    let (caps, seq) = (site.capabilities(), site.mutation_seq());
    let body = wire::capabilities_reply(site.schema(), site.k(), &caps, seq, site_ledger(shared));
    Response::json(200, body)
}

fn body_text(req: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&req.body)
        .map_err(|_| error_response(400, "invalid_request", "body is not utf-8".into()))
}

fn bad_json(e: ParseError) -> Response {
    error_response(400, "invalid_request", format!("bad json: {e}"))
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    parse(body_text(req)?).map_err(bad_json)
}

/// Check a decoded query against the site's schema, so that no attribute
/// index from the wire reaches a tuple or an index unchecked — whatever
/// [`SearchInterface`](qrs_server::SearchInterface) sits behind the edge.
fn validated(q: WireResult<Query>, shared: &Shared) -> Result<Query, String> {
    let q = q?;
    match q.validate(shared.svc.server().schema()) {
        Ok(()) => Ok(q),
        Err(ServerError::InvalidQuery { reason }) => Err(reason),
        Err(other) => Err(other.to_string()),
    }
}

/// Decode and check the `query` member of a tree-read request.
fn decode_query(body: &Json, shared: &Shared) -> Result<Query, String> {
    let q = body.get("query").ok_or("missing 'query'")?;
    validated(wire::query_from_json(q), shared)
}

/// Read a `/site/*` request body in place; one that is not JSON is an
/// uncharged `400 invalid_request`.
fn site_body(req: &Request) -> Result<SiteRequest, Response> {
    wire::read_site_request(body_text(req)?).map_err(bad_json)
}

/// Answer a `/site/*` call: the site's answer as `reply` writes it, with
/// the ledger after the call, or its refusal as a typed error.
fn site_answer<R>(
    shared: &Shared,
    answer: Result<R, ServerError>,
    reply: fn(&R, (u64, u64)) -> String,
) -> Response {
    match answer {
        Ok(r) => Response::json(200, reply(&r, site_ledger(shared))),
        Err(e) => site_err(shared, &e),
    }
}

fn site_query(req: &Request, shared: &Shared) -> Response {
    let body = match site_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    match validated(body.query, shared) {
        Ok(q) => site_answer(
            shared,
            shared.svc.server().query(&q),
            wire::site_response_reply,
        ),
        Err(e) => site_err(shared, &ServerError::invalid_query(e)),
    }
}

fn site_page(req: &Request, shared: &Shared) -> Response {
    let body = match site_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let decoded = (|| -> Result<_, String> {
        let q = validated(body.query, shared)?;
        Ok((q, body.page.ok_or("missing or bad 'page'")?))
    })();
    match decoded {
        Ok((q, page)) => {
            let answer = shared.svc.server().query_page(&q, page);
            site_answer(shared, answer, wire::site_response_reply)
        }
        Err(e) => site_err(shared, &ServerError::invalid_query(e)),
    }
}

fn site_ordered(req: &Request, shared: &Shared) -> Response {
    let body = match site_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let decoded = (|| -> Result<_, String> {
        let q = validated(body.query, shared)?;
        let attr = body.attr.ok_or("missing or bad 'attr'")?;
        let dir = body.dir.ok_or("missing or bad 'dir'")?;
        let page = body.page.ok_or("missing or bad 'page'")?;
        Ok((q, AttrId(attr), dir, page))
    })();
    match decoded {
        Ok((q, attr, dir, page)) => {
            let answer = shared.svc.server().query_ordered(&q, attr, dir, page);
            site_answer(shared, answer, wire::site_page_reply)
        }
        Err(e) => site_err(shared, &ServerError::invalid_query(e)),
    }
}

fn site_seq(shared: &Shared) -> Response {
    let seq = shared.svc.server().mutation_seq();
    Response::json(200, wire::seq_reply(seq, site_ledger(shared)))
}

fn site_mutations(req: &Request, shared: &Shared) -> Response {
    let since = match req.query_param("since").and_then(|s| s.parse::<u64>().ok()) {
        Some(n) => n,
        None => {
            return site_err(
                shared,
                &ServerError::invalid_query("missing or bad 'since' parameter"),
            )
        }
    };
    match shared.svc.server().mutations_since(since) {
        Ok(log) => Response::json(200, wire::mutations_reply(&log, site_ledger(shared))),
        Err(e) => site_err(shared, &e),
    }
}

// --------------------------------------------------------- /v1/rerank

fn admission_reject(shared: &Shared, tenant: (u64, u64), reason: &str) -> Response {
    shared.rejected.fetch_add(1, Ordering::Relaxed);
    let obs = shared.svc.observer();
    if obs.enabled() {
        obs.emit(
            shared.svc.clock().now_ms(),
            0,
            EventKind::EdgeRejected {
                reason: reason.to_string(),
            },
        );
    }
    refusal(reason, shared.config.retry_after_ms, tenant)
}

/// A `429` admission refusal: `{error, tenant}`, the error typed
/// `"admission"` with its reason and retry hint, and the tenant's ledger as
/// it stands, since nothing was charged.
pub(crate) fn refusal(reason: &str, retry_after_ms: u64, tenant: (u64, u64)) -> Response {
    let body = object(0, |o| {
        write_obj(o.key("error"), |o| {
            write_str(o.key("code"), "admission");
            let message = format!("admission refused ({reason}); nothing was charged");
            write_str(o.key("message"), &message);
            write_str(o.key("reason"), reason);
            write_u64(o.key("retry_after_ms"), retry_after_ms);
        });
        wire::write_ledger(o.key("tenant"), tenant);
    });
    let retry_after = retry_after_ms.div_ceil(1000).max(1).to_string();
    Response::json(429, body).with_header("retry-after", retry_after)
}

fn decode_batch_request(v: &Json, shared: &Shared) -> Result<BatchRequest, String> {
    let q = decode_query(v, shared)?;
    let num_ordinal = shared.svc.server().schema().num_ordinal();
    let terms = v
        .get("rank")
        .and_then(Json::as_arr)
        .ok_or("missing or bad 'rank'")?
        .iter()
        .map(|term| {
            let term = term.as_arr().filter(|t| t.len() == 3);
            let term = term.ok_or("each rank term is [attr, dir, weight]")?;
            let attr = term[0].as_usize().ok_or("bad rank attribute")?;
            if attr >= num_ordinal {
                return Err(format!("rank attribute {attr} outside the schema"));
            }
            let dir = wire::direction_from_json(&term[1])
                .ok_or("rank direction must be 'asc' or 'desc'")?;
            let weight = term[2].as_f64().ok_or("bad rank weight")?;
            if !weight.is_finite() || weight <= 0.0 {
                // LinearRank::new asserts this; the wire pre-validates so
                // a bad request is a 400, not a worker panic.
                return Err("rank weights must be finite and > 0".into());
            }
            Ok((AttrId(attr), dir, weight))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if terms.is_empty() {
        return Err("rank needs at least one term".into());
    }
    let mut seen = Vec::new();
    for (a, _, _) in &terms {
        if seen.contains(a) {
            return Err(format!("duplicate rank attribute {}", a.0));
        }
        seen.push(*a);
    }
    let top = v
        .get("top")
        .and_then(Json::as_usize)
        .ok_or("missing or bad 'top'")?;
    let mut req = BatchRequest::new(q, Arc::new(LinearRank::new(terms)), top);
    if let Some(b) = v.get("budget") {
        req = req.budget(b.as_u64().ok_or("bad 'budget'")?);
    }
    // Every stream is exact under the one tie contract; "exact" is the
    // only value this member may state.
    if v.get("tie").is_some_and(|t| t.as_str() != Some("exact")) {
        return Err("tie must be 'exact'".into());
    }
    if let Some(h) = v.get("horizon") {
        req = req.horizon(h.as_usize().ok_or("bad 'horizon'")?);
    }
    Ok(req)
}

/// Where `tenant` stands on the books: its cumulative `(queries,
/// cost_units)`, `(0, 0)` if it is not on them yet, or `None` if it is not
/// and they are full.
fn standing(tenants: &BTreeMap<String, (u64, u64)>, tenant: &str) -> Option<(u64, u64)> {
    match tenants.get(tenant) {
        Some(spend) => Some(*spend),
        None => (tenants.len() < MAX_TENANTS).then_some((0, 0)),
    }
}

fn rerank(req: &Request, shared: &Shared) -> Response {
    let tenant = req.header("x-tenant").unwrap_or("anonymous");
    // The header is a map key chosen by the caller: bound it, and the map.
    let visible = !tenant.is_empty() && tenant.bytes().all(|b| b.is_ascii_graphic());
    if tenant.len() > MAX_TENANT_BYTES || !visible {
        let rule = format!("x-tenant must be 1..={MAX_TENANT_BYTES} visible ASCII bytes");
        return error_response(400, "invalid_request", rule);
    }
    let standing = standing(&shared.tenants.lock(), tenant);
    let Some((queries, cost)) = standing else {
        return admission_reject(shared, (0, 0), "tenant_table_full");
    };
    // Gate 1: tenant budgets — checked against *cumulative* spend, so a
    // tenant over either cap is refused before any query is issued.
    let config = &shared.config;
    let over_queries = config.tenant_query_budget.is_some_and(|cap| queries >= cap);
    let over_cost = config.tenant_cost_budget.is_some_and(|cap| cost >= cap);
    if over_queries || over_cost {
        return admission_reject(shared, (queries, cost), "tenant_budget");
    }
    // Gate 2: the in-flight cap, taken atomically so a storm of
    // concurrent batches cannot race past it.
    let cap = shared.config.max_inflight;
    let admitted = shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        return admission_reject(shared, (queries, cost), "capacity");
    }
    // From here on the slot must be released on every path, a panic's too.
    let _slot = OnDrop(|| {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
    });
    rerank_admitted(req, shared, tenant)
}

fn rerank_admitted(req: &Request, shared: &Shared, tenant: &str) -> Response {
    // Gate 3: parse. Still nothing charged.
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let requests = match body.get("requests").and_then(Json::as_arr) {
        Some(rs) => rs,
        None => return error_response(400, "invalid_request", "missing 'requests'".into()),
    };
    let decoded = requests
        .iter()
        .map(|r| decode_batch_request(r, shared))
        .collect::<Result<Vec<_>, String>>();
    let batch = match decoded {
        Ok(b) => b,
        Err(e) => return error_response(400, "invalid_request", e),
    };
    // Admitted: only now does the tenant go on the books, so a refused
    // request leaves none behind, and the cap is checked again under the
    // lock that books it.
    let mut tenants = shared.tenants.lock();
    if standing(&tenants, tenant).is_none() {
        drop(tenants);
        return admission_reject(shared, (0, 0), "tenant_table_full");
    }
    tenants.entry(tenant.to_string()).or_default();
    drop(tenants);
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    let obs = shared.svc.observer();
    if obs.enabled() {
        obs.emit(
            shared.svc.clock().now_ms(),
            0,
            EventKind::EdgeAdmitted {
                requests: batch.len() as u64,
            },
        );
    }
    // Serve. The handler already runs on a pool worker; the nested batch
    // scope joins its handles explicitly, which steals queued tasks and
    // therefore cannot starve even on a one-worker pool.
    let outcomes = shared.svc.serve_batch(&shared.exec, batch);
    // Charge: the summed in-lock session ledgers land on the tenant.
    let (queries, cost_units) = outcomes.iter().fold((0, 0), |(q, c), o| {
        (q + o.stats.queries_spent, c + o.stats.cost_units_spent)
    });
    let after = {
        let mut tenants = shared.tenants.lock();
        let ledger = tenants.entry(tenant.to_string()).or_default();
        *ledger = (ledger.0 + queries, ledger.1 + cost_units);
        *ledger
    };
    Response::json(200, wire::rerank_reply(&outcomes, after))
}

// -------------------------------------------------------------- /stats

fn stats(shared: &Shared) -> Response {
    let service = shared.svc.stats();
    let edge = [
        &shared.admitted,
        &shared.rejected,
        &shared.connections,
        &shared.requests,
    ]
    .map(|counter| counter.load(Ordering::Relaxed));
    let plane = shared.svc.knowledge_plane().map(|p| p.stats());
    let monitor = shared.svc.monitor_report();
    Response::json(200, stats_reply(&service, edge, plane.as_ref(), &monitor))
}

/// The `/stats` body: `{edge, knowledge?, monitor, service}`; `edge` is the
/// admitted, rejected, connections and requests counters, in that order.
pub(crate) fn stats_reply(
    s: &StatsSnapshot,
    [admitted, rejected, connections, requests]: [u64; 4],
    plane: Option<&PlaneStats>,
    monitor: &MonitorReport,
) -> String {
    object(0, |o| {
        write_obj(o.key("edge"), |o| {
            write_u64(o.key("admitted"), admitted);
            write_u64(o.key("connections"), connections);
            write_u64(o.key("rejected"), rejected);
            write_u64(o.key("requests"), requests);
        });
        if let Some(p) = plane {
            write_obj(o.key("knowledge"), |o| {
                write_u64(o.key("result_hits"), p.result_hits);
                write_u64(o.key("sources"), p.sources);
            });
        }
        write_arr(o.key("monitor"), &monitor.rows, |out, r| {
            write_obj(out, |o| {
                write_u64(o.key("actual_cost_units"), r.actual_cost_units);
                write_u64(o.key("actual_queries"), r.actual_queries);
                write_u64(o.key("predicted_cost_units"), r.predicted_cost_units);
                write_u64(o.key("predicted_queries"), r.predicted_queries);
                write_u64(o.key("saved_cost_units"), r.saved_cost_units);
                write_u64(o.key("saved_queries"), r.saved_queries);
                write_u64(o.key("sessions"), r.sessions);
                write_str(o.key("site"), &r.site);
                write_str(o.key("strategy"), &r.strategy);
            })
        });
        write_obj(o.key("service"), |o| {
            write_u64(o.key("batches_served"), s.batches_served);
            write_u64(o.key("cost_units_saved"), s.cost_units_saved);
            write_u64(o.key("cost_units_spent"), s.cost_units_spent);
            write_u64(o.key("queries_saved"), s.queries_saved);
            write_u64(o.key("queries_spent"), s.queries_spent);
            write_u64(o.key("requests_served"), s.requests_served);
            write_u64(o.key("retries_spent"), s.retries_spent);
            write_u64(o.key("sessions_started"), s.sessions_started);
            write_u64(o.key("tuples_emitted"), s.tuples_emitted);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let d = EdgeConfig::default();
        assert_eq!(d.max_inflight, 64);
        assert_eq!(d.retry_after_ms, 1000);
        assert_eq!(d.tenant_query_budget, None);
        assert_eq!(d.tenant_cost_budget, None);
    }
}
