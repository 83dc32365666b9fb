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
//!   raises its atomics to (never lowers them: replies on two connections
//!   may arrive out of order, and a session reading its spend as `after -
//!   before` must never see the ledger run backwards). `queries_issued()`
//!   is therefore a cheap local read (sessions call it under their state
//!   lock on every step), and a response lost to a dropped connection
//!   costs nothing — the server's counters only grow, so the next
//!   response's counters absorb the missed delta, and client and server
//!   ledgers reconcile *exactly* by construction;
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
//!
//! Every body is written in place ([`crate::wire`]), with no JSON tree; the
//! per-call `200` replies are read in place too, and every other reply as a
//! tree.

use crate::http::{request_frame, response_from, says_close, Conn, Response};
use crate::json::{object, parse, write_arr, write_num, write_str, write_u64, Json, ParseError};
use crate::wire::{self, WireBatchReply};
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

fn body_text(resp: &Response) -> Result<&str, ServerError> {
    std::str::from_utf8(&resp.body).map_err(|_| transport_err("response body not utf-8"))
}

fn bad_json(e: ParseError) -> ServerError {
    transport_err(format!("bad response json: {e}"))
}

fn parse_json_body(resp: &Response) -> Result<Json, ServerError> {
    parse(body_text(resp)?).map_err(bad_json)
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

    /// Mirror the cumulative ledger a response carries. Raises, never
    /// adds and never lowers: the wire numbers are since-birth totals of
    /// counters that only grow, so a missed response is absorbed by the
    /// next one, and a reply overtaken by a later one changes nothing.
    fn absorb(&self, (queries, cost_units): (u64, u64)) {
        self.queries.fetch_max(queries, Ordering::SeqCst);
        self.cost_units.fetch_max(cost_units, Ordering::SeqCst);
    }

    /// [`HttpSiteAdapter::absorb`] the `ledger` member of a reply read as
    /// a tree, if it has one that decodes.
    fn absorb_ledger(&self, body: &Json) {
        if let Some(Ok(ledger)) = body.get("ledger").map(wire::ledger_from_json) {
            self.absorb(ledger);
        }
    }

    /// A `/site/*` reply that is not a `200`: mirror its ledger — a
    /// charged failure (e.g. a truncated page the server already paid
    /// for) still reconciles — and decode the typed error it carries.
    fn refused(&self, resp: &Response) -> ServerError {
        match parse_json_body(resp) {
            Ok(json) => {
                self.absorb_ledger(&json);
                decode_error_body(resp, &json)
            }
            Err(e) => e,
        }
    }

    /// One uncharged `GET /site/*` call, its reply read as a tree.
    fn site_get(&self, target: &str) -> Result<Json, ServerError> {
        let resp = self.peer.round_trip("GET", target, &[], b"")?;
        if resp.status != 200 {
            return Err(self.refused(&resp));
        }
        let json = parse_json_body(&resp)?;
        self.absorb_ledger(&json);
        Ok(json)
    }

    /// One `POST /site/*` call: send `body`, read the reply in place with
    /// `read` and mirror its ledger — or surface the typed error.
    fn site_post<T>(
        &self,
        target: &str,
        body: &str,
        read: fn(&str) -> Result<wire::SiteReply<T>, ParseError>,
    ) -> Result<T, ServerError> {
        let resp = self.peer.round_trip("POST", target, &[], body.as_bytes())?;
        if resp.status != 200 {
            return Err(self.refused(&resp));
        }
        let reply = read(body_text(&resp)?).map_err(bad_json)?;
        if let Some(ledger) = reply.ledger {
            self.absorb(ledger);
        }
        reply.body.map_err(transport_err)
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

    /// A `/site/query` or `/site/page` call, its tuples checked.
    fn response_call(&self, target: &str, body: &str) -> Result<QueryResponse, ServerError> {
        let response = self.site_post(target, body, wire::read_response_reply)?;
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
                .map(|secs| secs.saturating_mul(1000));
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
        self.response_call("/site/query", &wire::site_request(q, None, None))
    }

    fn queries_issued(&self) -> u64 {
        self.queries.load(Ordering::SeqCst)
    }

    fn cost_units_issued(&self) -> u64 {
        self.cost_units.load(Ordering::SeqCst)
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        self.response_call("/site/page", &wire::site_request(q, None, Some(page)))
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        let body = wire::site_request(q, Some((attr, dir)), Some(page));
        let page = self.site_post("/site/ordered", &body, wire::read_page_reply)?;
        self.check_tuples(&page.tuples)?;
        Ok(page)
    }

    fn mutation_seq(&self) -> u64 {
        // Watermark reads are metadata and uncharged; a transport fault
        // here reports "nothing new" rather than failing the caller (the
        // trait method is infallible), matching the frozen-site default.
        match self.site_get("/site/seq") {
            Ok(json) => json.get("seq").and_then(Json::as_u64).unwrap_or(0),
            Err(_) => self.seq_at_connect,
        }
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        let json = self.site_get(&format!("/site/mutations?since={since}"))?;
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

/// The `/v1/rerank` request body: `{requests}`, each element as
/// [`EdgeClient::request`] built it.
pub(crate) fn rerank_body(requests: &[Json]) -> String {
    object(0, |o| {
        write_arr(o.key("requests"), requests, |out, r| r.encode_into(out))
    })
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
        let body = rerank_body(&requests);
        let headers = vec![("x-tenant".to_string(), self.tenant.clone())];
        let resp = self
            .peer
            .round_trip("POST", "/v1/rerank", &headers, body.as_bytes())
            .map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        let failed = |e: ServerError| EdgeClientError::Failed(e.to_string());
        if resp.status == 429 {
            let json = parse_json_body(&resp).map_err(failed)?;
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
        let text = body_text(&resp).map_err(failed)?;
        let reply = wire::read_rerank_reply(text).map_err(|e| failed(bad_json(e)))?;
        reply.map_err(EdgeClientError::Failed)
    }

    /// Build one wire request: a query, a linear rank (`[[attr, "asc"|"desc",
    /// weight]]`), and `top`, plus optional knobs (pass `None` to omit).
    /// The server accepts only `"exact"` for `tie`.
    pub fn request(
        query: &Query,
        rank: &[(usize, Direction, f64)],
        top: usize,
        budget: Option<u64>,
        tie: Option<&str>,
        horizon: Option<usize>,
    ) -> Json {
        let element = object(0, |o| {
            if let Some(b) = budget {
                write_u64(o.key("budget"), b);
            }
            if let Some(h) = horizon {
                write_u64(o.key("horizon"), h as u64);
            }
            wire::write_query(o.key("query"), query);
            write_arr(o.key("rank"), rank, |out, (a, d, w)| {
                out.push('[');
                write_u64(out, *a as u64);
                out.push(',');
                write_str(out, wire::direction_str(*d));
                out.push(',');
                write_num(out, *w);
                out.push(']');
            });
            if let Some(t) = tie {
                write_str(o.key("tie"), t);
            }
            write_u64(o.key("top"), top as u64);
        });
        parse(&element).expect("the writer writes JSON")
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer's `retry-after` is untrusted: seconds past `u64::MAX / 1000`
    /// saturate instead of overflowing the millisecond hint.
    #[test]
    fn an_untrusted_retry_after_saturates() {
        let mut resp = Response::json(429, r#"{"error":"front door full"}"#.into());
        let retry_after = ("retry-after".into(), u64::MAX.to_string());
        resp.headers.push(retry_after);
        assert_eq!(
            decode_error(&resp),
            ServerError::RateLimited {
                retry_after_ms: Some(u64::MAX)
            }
        );
    }

    /// Replies on two connections of one adapter may arrive out of order:
    /// one that reports an older ledger must not pull the mirror back, or
    /// a step that paid nothing would read a spend of `after - before`
    /// below zero.
    #[test]
    fn an_older_ledger_never_pulls_the_mirror_back() {
        let adapter = HttpSiteAdapter {
            peer: Peer::new(SocketAddr::from(([127, 0, 0, 1], 9))),
            schema: Arc::new(Schema::new(vec![], vec![])),
            k: 1,
            capabilities: Capabilities::none(),
            seq_at_connect: 0,
            queries: AtomicU64::new(0),
            cost_units: AtomicU64::new(0),
        };
        for ledger in [(7, 9), (5, 6)] {
            adapter.absorb_ledger(&parse(&wire::seq_reply(0, ledger)).unwrap());
        }
        assert_eq!(adapter.queries_issued(), 7);
        assert_eq!(adapter.cost_units_issued(), 9);
    }

    /// A reply that frames its body two ways is a transport failure the
    /// caller may retry, and the connection it came on is not kept.
    #[test]
    fn a_reply_framed_two_ways_is_a_transient_failure() {
        use std::io::Write as _;
        let replies: [&[u8]; 2] = [
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 0\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        ];
        for reply in replies {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = Peer::new(listener.local_addr().unwrap());
            let site = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                crate::http::read_request(&stream).unwrap();
                stream.write_all(reply).unwrap();
            });
            let e = peer
                .round_trip("POST", "/site/query", &[], b"{}")
                .unwrap_err();
            assert!(
                e.is_transient() && e.to_string().contains("transport"),
                "{e}"
            );
            assert!(peer.idle.lock().is_empty(), "the connection is dropped");
            site.join().unwrap();
        }
    }
}
