//! The client half: a [`SearchInterface`] over the wire, plus a front-door
//! batch client.
//!
//! [`HttpSiteAdapter`] makes a remote edge look exactly like an in-process
//! server to everything above it — sessions, planners, the knowledge
//! plane. Four behaviours carry the contract:
//!
//! * **capabilities are fetched once** at connect (schema, `k`, the full
//!   capability set with its cost model, the mutation watermark) and
//!   served from the cache forever after — the same "advertised at the
//!   door" epoch story the in-process servers follow;
//! * **ledgers are cumulative mirrors**: every `/site/*` response carries
//!   the server's since-birth `{queries, cost_units}`, which the adapter
//!   stores into atomics. `queries_issued()` is therefore a cheap local
//!   read (sessions call it under their state lock on every step), and a
//!   response lost to a dropped connection costs nothing — the next
//!   response's cumulative counters absorb the missed delta, so client
//!   and server ledgers reconcile *exactly* by construction;
//! * **transport faults are transient**: a refused connection, a mid-body
//!   drop, an unparsable response, or a tuple that does not fit the
//!   schema advertised at connect all surface as
//!   [`ServerError::Unavailable`] — the existing `RetryPolicy` machinery
//!   handles them like any other 5xx, while typed protocol errors
//!   (`429`/`501`/`400`) decode back into the exact [`ServerError`] the
//!   far side raised, `retry_after_ms` hints included;
//! * **connections are reused, requests are never re-sent**: each client
//!   keeps a few idle connections to its one peer. A call takes one (so
//!   concurrent sessions over one adapter each get their own socket),
//!   checks that the server has not closed it while it sat idle, and dials
//!   only if none is usable; the connection goes back only after a
//!   complete response that did not say `close`. Any failure on the way
//!   discards it and is the caller's `Unavailable` — nothing is retried
//!   beneath `RetryPolicy`, which cannot tell a request the server never
//!   saw from one it charged for, and need not: the cumulative ledgers
//!   settle either.

use crate::http::{request_frame, response_from, says_close, Conn, Response};
use crate::json::{parse, Json};
use crate::wire;
use parking_lot::Mutex;
use qrs_server::{Capabilities, OrderedPage, SearchInterface};
use qrs_types::{
    AttrId, Dataset, Direction, MutationKind, MutationLog, Query, QueryResponse, Schema,
    ServerError, Tuple,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Idle connections a client keeps; more than this many concurrent callers
/// still each get a socket, the surplus is closed after use.
const MAX_IDLE: usize = 4;
/// How long a call waits for its request to leave and its response to
/// arrive before it is `Unavailable`.
const RESPONSE_WAIT: Duration = Duration::from_secs(30);

fn transport_err(what: impl std::fmt::Display) -> ServerError {
    ServerError::unavailable(format!("transport: {what}"))
}

/// The connections a client holds to its one peer.
struct Peer {
    addr: SocketAddr,
    idle: Mutex<Vec<Conn>>,
}

impl Peer {
    fn new(addr: SocketAddr) -> Peer {
        let idle = Mutex::new(Vec::new());
        Peer { addr, idle }
    }

    /// An idle connection the server has not closed, else a new one.
    fn take(&self) -> Result<Conn, ServerError> {
        loop {
            let Some(conn) = self.idle.lock().pop() else {
                let stream = TcpStream::connect(self.addr).map_err(transport_err)?;
                return Conn::new(stream).map_err(transport_err);
            };
            if conn.quiet() {
                return Ok(conn);
            }
        }
    }

    /// POST (or GET, for an empty target-only request) one round trip.
    fn round_trip(
        &self,
        method: &str,
        target: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Response, ServerError> {
        let mut conn = self.take()?;
        let request = request_frame(method, target, headers, body, false);
        conn.send(RESPONSE_WAIT, &request).map_err(transport_err)?;
        let response = response_from(conn.within(RESPONSE_WAIT)).map_err(transport_err)?;
        if !says_close(&response.headers) {
            let mut idle = self.idle.lock();
            if idle.len() < MAX_IDLE {
                idle.push(conn);
            }
        }
        Ok(response)
    }
}

fn parse_json_body(resp: &Response) -> Result<Json, ServerError> {
    let text =
        std::str::from_utf8(&resp.body).map_err(|_| transport_err("response body not utf-8"))?;
    parse(text).map_err(|e| transport_err(format!("bad response json: {e}")))
}

/// A remote site served by an [`crate::EdgeServer`], adapted back into a
/// [`SearchInterface`]. See the module docs for the contract.
pub struct HttpSiteAdapter {
    peer: Peer,
    schema: Arc<Schema>,
    k: usize,
    capabilities: Capabilities,
    seq_at_connect: u64,
    queries: AtomicU64,
    cost_units: AtomicU64,
}

impl HttpSiteAdapter {
    /// Connect: fetch `/site/capabilities` once and cache everything it
    /// advertises. Fails with a *transient* error if the edge is
    /// unreachable, so callers may retry the connect itself.
    pub fn connect(addr: SocketAddr) -> Result<HttpSiteAdapter, ServerError> {
        let peer = Peer::new(addr);
        let resp = peer.round_trip("GET", "/site/capabilities", &[], b"")?;
        if resp.status != 200 {
            return Err(decode_error(&resp));
        }
        let body = parse_json_body(&resp)?;
        let schema = body
            .get("schema")
            .ok_or_else(|| transport_err("capabilities missing 'schema'"))
            .and_then(|s| wire::schema_from_json(s).map_err(transport_err))?;
        let k = body
            .get("k")
            .and_then(Json::as_usize)
            .ok_or_else(|| transport_err("capabilities missing 'k'"))?;
        let capabilities = body
            .get("capabilities")
            .ok_or_else(|| transport_err("capabilities missing 'capabilities'"))
            .and_then(|c| wire::capabilities_from_json(c).map_err(transport_err))?;
        let seq_at_connect = body.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let adapter = HttpSiteAdapter {
            peer,
            schema: Arc::new(schema),
            k,
            capabilities,
            seq_at_connect,
            queries: AtomicU64::new(0),
            cost_units: AtomicU64::new(0),
        };
        adapter.absorb_ledger(&body);
        Ok(adapter)
    }

    /// The edge address this adapter talks to.
    pub fn addr(&self) -> SocketAddr {
        self.peer.addr
    }

    /// The mutation watermark advertised at connect time.
    pub fn seq_at_connect(&self) -> u64 {
        self.seq_at_connect
    }

    /// Mirror the cumulative ledger a response carries. Stores, not adds:
    /// the wire numbers are since-birth totals, so a missed response is
    /// automatically absorbed by the next one.
    fn absorb_ledger(&self, body: &Json) {
        if let Some(l) = body.get("ledger") {
            if let Ok((q, c)) = wire::ledger_from_json(l) {
                self.queries.store(q, Ordering::SeqCst);
                self.cost_units.store(c, Ordering::SeqCst);
            }
        }
    }

    /// One `/site/*` call: round trip, mirror the ledger (success and
    /// typed failure alike), decode or surface the typed error.
    fn site_call(&self, method: &str, target: &str, body: &[u8]) -> Result<Json, ServerError> {
        let resp = self.peer.round_trip(method, target, &[], body)?;
        let json = parse_json_body(&resp)?;
        // Typed error responses carry the ledger too — a charged failure
        // (e.g. a truncated page the server already paid for) still
        // reconciles.
        self.absorb_ledger(&json);
        if resp.status == 200 {
            Ok(json)
        } else {
            Err(decode_error_body(&resp, &json))
        }
    }

    /// Refuse tuples that do not fit the schema advertised at connect: a
    /// short one would index past its values inside the service's state
    /// lock. A misfit is a decode failure like any other.
    fn check_tuples<'t>(
        &self,
        tuples: impl IntoIterator<Item = &'t Arc<Tuple>>,
    ) -> Result<(), ServerError> {
        tuples.into_iter().try_for_each(|t| {
            Dataset::validate_tuple(&self.schema, t)
                .map_err(|e| transport_err(format!("tuple {}: {e}", t.id.0)))
        })
    }

    /// Decode the `response` member of a `/site/query` or `/site/page`
    /// reply.
    fn decode_response(&self, json: &Json) -> Result<QueryResponse, ServerError> {
        let response = json
            .get("response")
            .ok_or_else(|| transport_err("missing 'response'"))
            .and_then(|r| wire::response_from_json(r).map_err(transport_err))?;
        self.check_tuples(&response.tuples)?;
        Ok(response)
    }
}

/// Decode a non-200 response into the exact [`ServerError`] the far side
/// raised, falling back to a transient error for unparsable bodies.
fn decode_error(resp: &Response) -> ServerError {
    match parse_json_body(resp) {
        Ok(json) => decode_error_body(resp, &json),
        Err(e) => e,
    }
}

fn decode_error_body(resp: &Response, json: &Json) -> ServerError {
    if let Some(e) = json.get("error") {
        if let Ok(err) = wire::server_error_from_json(e) {
            return err;
        }
        // Not the /site vocabulary (e.g. a front-door admission body):
        // classify by status below.
    }
    match resp.status {
        429 => {
            let hint = resp
                .header("retry-after")
                .and_then(|s| s.parse::<u64>().ok())
                .map(|secs| secs * 1000);
            ServerError::RateLimited {
                retry_after_ms: hint,
            }
        }
        400 => ServerError::invalid_query(format!("edge refused the request ({})", resp.status)),
        _ => transport_err(format!("status {}", resp.status)),
    }
}

impl SearchInterface for HttpSiteAdapter {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn k(&self) -> usize {
        self.k
    }

    fn capabilities(&self) -> Capabilities {
        self.capabilities.clone()
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        let body = Json::obj(vec![("query", wire::query_to_json(q))]).encode();
        let json = self.site_call("POST", "/site/query", body.as_bytes())?;
        self.decode_response(&json)
    }

    fn queries_issued(&self) -> u64 {
        self.queries.load(Ordering::SeqCst)
    }

    fn cost_units_issued(&self) -> u64 {
        self.cost_units.load(Ordering::SeqCst)
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        let body = Json::obj(vec![
            ("query", wire::query_to_json(q)),
            ("page", Json::u64(page as u64)),
        ])
        .encode();
        let json = self.site_call("POST", "/site/page", body.as_bytes())?;
        self.decode_response(&json)
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        let body = Json::obj(vec![
            ("query", wire::query_to_json(q)),
            ("attr", Json::u64(attr.0 as u64)),
            (
                "dir",
                Json::str(match dir {
                    Direction::Asc => "asc",
                    Direction::Desc => "desc",
                }),
            ),
            ("page", Json::u64(page as u64)),
        ])
        .encode();
        let json = self.site_call("POST", "/site/ordered", body.as_bytes())?;
        let page = json
            .get("page")
            .ok_or_else(|| transport_err("missing 'page'"))
            .and_then(|p| wire::ordered_page_from_json(p).map_err(transport_err))?;
        self.check_tuples(&page.tuples)?;
        Ok(page)
    }

    fn mutation_seq(&self) -> u64 {
        // Watermark reads are metadata and uncharged; a transport fault
        // here reports "nothing new" rather than failing the caller (the
        // trait method is infallible), matching the frozen-site default.
        match self.site_call("GET", "/site/seq", b"") {
            Ok(json) => json.get("seq").and_then(Json::as_u64).unwrap_or(0),
            Err(_) => self.seq_at_connect,
        }
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        let json = self.site_call("GET", &format!("/site/mutations?since={since}"), b"")?;
        let log = json
            .get("log")
            .ok_or_else(|| transport_err("missing 'log'"))
            .and_then(|l| wire::mutation_log_from_json(l).map_err(transport_err))?;
        self.check_tuples(log.deltas.iter().filter_map(|m| match &m.kind {
            MutationKind::Insert(t) | MutationKind::Update(t) => Some(t),
            MutationKind::Delete(_) => None,
        }))?;
        Ok(log)
    }
}

// ------------------------------------------------------------ front door

/// One decoded `/v1/rerank` outcome: hit tuples with their ranks and
/// scores, the exact per-session ledger, and the typed error code if the
/// request stopped early.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// `(rank, score, tuple)` triples, in emission order.
    pub hits: Vec<(usize, f64, qrs_types::Tuple)>,
    /// Raw queries this request was charged.
    pub queries_spent: u64,
    /// Weighted cost units this request was charged.
    pub cost_units_spent: u64,
    /// Queries the knowledge plane answered for free.
    pub queries_saved: u64,
    /// The stable error code (`"budget_exhausted"`, `"unplannable"`, …) if
    /// the request stopped early; `None` on success.
    pub error_code: Option<String>,
}

/// A decoded `/v1/rerank` reply: per-request outcomes plus the tenant's
/// cumulative ledger after charging.
#[derive(Debug, Clone)]
pub struct WireBatchReply {
    /// One outcome per request, in request order.
    pub outcomes: Vec<WireOutcome>,
    /// The tenant's cumulative `(queries, cost_units)` after this batch.
    pub tenant: (u64, u64),
}

/// A front-door client for `/v1/rerank` and `/stats` — what a remote user
/// of the reranking service holds.
pub struct EdgeClient {
    peer: Peer,
    tenant: String,
}

/// A front-door failure: either a typed admission refusal (with its
/// reason and retry hint) or any other error, flattened to a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeClientError {
    /// The edge refused the batch at the admission gate; nothing was
    /// charged.
    Rejected {
        /// `"capacity"` or `"tenant_budget"`.
        reason: String,
        /// The refusal's `retry_after_ms` hint.
        retry_after_ms: Option<u64>,
    },
    /// Transport or protocol failure, described.
    Failed(String),
}

impl std::fmt::Display for EdgeClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeClientError::Rejected {
                reason,
                retry_after_ms,
            } => write!(f, "admission refused ({reason}, hint {retry_after_ms:?})"),
            EdgeClientError::Failed(m) => write!(f, "edge call failed: {m}"),
        }
    }
}

impl std::error::Error for EdgeClientError {}

impl EdgeClient {
    /// A client for the edge at `addr`, identifying as `tenant`.
    pub fn new(addr: SocketAddr, tenant: impl Into<String>) -> Self {
        EdgeClient {
            peer: Peer::new(addr),
            tenant: tenant.into(),
        }
    }

    /// Serve one batch. `requests` is the raw wire array — build each
    /// element with [`EdgeClient::request`].
    pub fn rerank(&self, requests: Vec<Json>) -> Result<WireBatchReply, EdgeClientError> {
        let body = Json::obj(vec![("requests", Json::Arr(requests))]).encode();
        let headers = vec![("x-tenant".to_string(), self.tenant.clone())];
        let resp = self
            .peer
            .round_trip("POST", "/v1/rerank", &headers, body.as_bytes())
            .map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        let json = parse_json_body(&resp).map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        if resp.status == 429 {
            let e = json.get("error");
            return Err(EdgeClientError::Rejected {
                reason: e
                    .and_then(|e| e.get("reason"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                retry_after_ms: e
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Json::as_u64),
            });
        }
        if resp.status != 200 {
            return Err(EdgeClientError::Failed(format!(
                "status {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            )));
        }
        let outcomes = json
            .get("outcomes")
            .and_then(Json::as_arr)
            .ok_or_else(|| EdgeClientError::Failed("missing 'outcomes'".into()))?
            .iter()
            .map(decode_outcome)
            .collect::<Result<Vec<_>, EdgeClientError>>()?;
        let tenant = json
            .get("tenant")
            .and_then(|t| wire::ledger_from_json(t).ok())
            .ok_or_else(|| EdgeClientError::Failed("missing 'tenant' ledger".into()))?;
        Ok(WireBatchReply { outcomes, tenant })
    }

    /// Build one wire request: a query, a linear rank (`[[attr, "asc"|"desc",
    /// weight]]`), and `top`, plus optional knobs (pass `None` to omit).
    pub fn request(
        query: &Query,
        rank: &[(usize, Direction, f64)],
        top: usize,
        budget: Option<u64>,
        tie: Option<&str>,
        horizon: Option<usize>,
    ) -> Json {
        let mut members = vec![
            ("query", wire::query_to_json(query)),
            (
                "rank",
                Json::Arr(
                    rank.iter()
                        .map(|(a, d, w)| {
                            Json::Arr(vec![
                                Json::u64(*a as u64),
                                Json::str(match d {
                                    Direction::Asc => "asc",
                                    Direction::Desc => "desc",
                                }),
                                Json::Num(*w),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("top", Json::u64(top as u64)),
        ];
        if let Some(b) = budget {
            members.push(("budget", Json::u64(b)));
        }
        if let Some(t) = tie {
            members.push(("tie", Json::str(t)));
        }
        if let Some(h) = horizon {
            members.push(("horizon", Json::u64(h as u64)));
        }
        Json::obj(members)
    }

    /// Fetch `/stats` as parsed JSON.
    pub fn stats(&self) -> Result<Json, EdgeClientError> {
        let resp = self
            .peer
            .round_trip("GET", "/stats", &[], b"")
            .map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        if resp.status != 200 {
            return Err(EdgeClientError::Failed(format!("status {}", resp.status)));
        }
        parse_json_body(&resp).map_err(|e| EdgeClientError::Failed(e.to_string()))
    }
}

fn decode_outcome(v: &Json) -> Result<WireOutcome, EdgeClientError> {
    let bad = |m: &str| EdgeClientError::Failed(format!("bad outcome: {m}"));
    let hits = v
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing hits"))?
        .iter()
        .map(|h| {
            let rank = h
                .get("rank")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("missing rank"))?;
            let score = h
                .get("score")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("missing score"))?;
            let tuple = h
                .get("tuple")
                .ok_or_else(|| bad("missing tuple"))
                .and_then(|t| wire::tuple_from_json(t).map_err(|e| bad(&e)))?;
            Ok((rank, score, tuple))
        })
        .collect::<Result<Vec<_>, EdgeClientError>>()?;
    let stats = v.get("stats").ok_or_else(|| bad("missing stats"))?;
    let field = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(WireOutcome {
        hits,
        queries_spent: field("queries_spent"),
        cost_units_spent: field("cost_units_spent"),
        queries_saved: field("queries_saved"),
        error_code: v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}
