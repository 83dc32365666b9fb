//! Deterministic fuzz harness for the one surface that faces untrusted
//! bytes: the edge.
//!
//! A splitmix64 stream (derived from `QRS_TEST_SEED`) applies byte-level
//! mutations — flip a bit, delete a run, duplicate a run, truncate, splice
//! a second request in — to valid `/v1/rerank`, `/site/query` and
//! `/site/page` requests and sends them over real sockets to **one**
//! long-lived [`EdgeServer`], and to valid responses fed back through the
//! client's decoders. After every case:
//!
//! 1. **Answer or typed refusal.** Every reply on the connection is a
//!    well-formed response: a `200` whose body decodes, or a status from
//!    the refusal vocabulary with an `error.code`. A `/site/*` request that
//!    this harness can itself decode is answered exactly as the in-process
//!    reference answers it. Nothing hangs past the request deadline.
//! 2. **A refusal moves no ledger.** The site's cumulative counters, as
//!    every `/site/*` reply reports them, only move on a `200`; they and
//!    the service ledger (what tenants are charged from) end the case
//!    exactly where the replies say they should.
//! 3. **The gate is back at zero and the server is alive.** The server
//!    admits one batch at a time, so a leaked in-flight slot would refuse
//!    the probe that follows every case; the probe must be admitted and
//!    answered with the pinned correct hits.
//!
//! A failure prints the seed, the case index and the mutated bytes. The
//! default 48 iterations keep the tier-1 run fast; CI's sweep deepens it
//! via `QRS_FUZZ_ITERS`.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::edge::http::{read_request, read_response, Request, Response};
use query_reranking::edge::{parse, wire, EdgeClient, EdgeConfig, EdgeServer, HttpSiteAdapter};
use query_reranking::edge::{Json, ParseError};
use query_reranking::exec::Executor;
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::service::RerankService;
use query_reranking::types::{
    AttrId, CatId, CatPredicate, Direction, Interval, Query, QueryResponse, ServerError,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

fn env_seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn seeded(base: u64) -> u64 {
    base ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn iters() -> u64 {
    std::env::var("QRS_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// splitmix64 — the classic 64-bit mixer; std-only and deterministic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One to three byte-level mutations of `bytes`; `other` is what a splice
/// inserts (a second, valid message).
fn mutate(rng: &mut Rng, bytes: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(out.len());
        let run = (1 + rng.below(8)).min(out.len() - at.min(out.len()));
        match rng.below(5) {
            0 if !out.is_empty() => out[at] ^= 1 << rng.below(8),
            1 => drop(out.drain(at..at + run)),
            2 => {
                let copy = out[at..at + run].to_vec();
                out.splice(at..at, copy);
            }
            3 => out.truncate(at),
            // Half the splices land after the message: a pipelined second.
            _ => {
                let at = if rng.chance(50) { out.len() } else { at };
                out.splice(at..at, other.iter().copied());
            }
        }
    }
    out
}

fn frame(start: &str, headers: &[(&str, String)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{start}\r\n");
    for (name, value) in headers {
        head += &format!("{name}: {value}\r\n");
    }
    [head.as_bytes(), b"\r\n", body].concat()
}

fn printable(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).escape_debug().to_string()
}

/// The hidden site, twice over the same data: one behind the edge, one to
/// ask in process what the right answer is.
fn site(data_seed: u64) -> SimServer {
    let data = uniform(120, 2, 1, data_seed);
    let rank = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    SimServer::new(data, rank, 3).with_capabilities(Capabilities::none().with_paging())
}

const RANK: [(usize, Direction, f64); 2] = [(0, Direction::Asc, 1.0), (1, Direction::Asc, 0.5)];

fn rerank_body(sel: &Query) -> Vec<u8> {
    let request = EdgeClient::request(sel, &RANK, 4, None, None, None);
    let body = Json::obj(vec![("requests", Json::Arr(vec![request]))]);
    body.encode().into_bytes()
}

/// A valid request of one of the three fuzzed kinds, as `(target, body)`.
/// One in twenty is valid on the wire only: it names an attribute the
/// site's schema (two ordinal, one categorical) does not have, which the
/// in-process reference refuses and the edge therefore must.
fn valid_request(rng: &mut Rng) -> (&'static str, Vec<u8>) {
    let lo = rng.below(50) as f64 / 100.0;
    let range = Interval::closed(lo, lo + 0.4);
    let sel = match rng.below(40) {
        0 => Query::all().and_range(AttrId(2 + rng.below(98)), range),
        1 => Query::all().and_cat(CatPredicate::eq(CatId(1 + rng.below(99)), 1)),
        _ => Query::all().and_range(AttrId(0), range),
    };
    let query = ("query", wire::query_to_json(&sel));
    match rng.below(3) {
        0 => ("/v1/rerank", rerank_body(&sel)),
        1 => ("/site/query", Json::obj(vec![query]).encode().into_bytes()),
        _ => {
            let page = ("page", Json::u64(rng.below(3) as u64));
            let body = Json::obj(vec![query, page]);
            ("/site/page", body.encode().into_bytes())
        }
    }
}

fn framed_request(rng: &mut Rng, target: &str, body: &[u8]) -> Vec<u8> {
    let mut headers = vec![
        ("x-tenant", "fuzz".to_string()),
        ("content-length", body.len().to_string()),
    ];
    if rng.chance(50) {
        headers.push(("connection", "close".to_string()));
    }
    frame(&format!("POST {target} HTTP/1.1"), &headers, body)
}

/// What the in-process reference says a decodable `/site/*` request is
/// answered with: tuple ids, or that the site refuses it. `None` when the
/// harness cannot decode the request itself (the edge must then refuse it,
/// which invariant 1 checks by status alone).
fn reference_answer(req: &Request, local: &SimServer) -> Option<Result<Vec<u32>, ServerError>> {
    let body = parse(std::str::from_utf8(&req.body).ok()?).ok()?;
    let q = wire::query_from_json(body.get("query")?).ok()?;
    let answer = match (req.method.as_str(), req.path()) {
        ("POST", "/site/query") => local.query(&q),
        ("POST", "/site/page") => local.query_page(&q, body.get("page")?.as_usize()?),
        _ => return None,
    };
    Some(answer.map(|r| ids(&r)))
}

fn ids(r: &QueryResponse) -> Vec<u32> {
    r.tuples.iter().map(|t| t.id.0).collect()
}

/// Cumulative `(queries, cost_units)` on the site's and the service's
/// books, as the replies seen so far say they must stand.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Books {
    site: (u64, u64),
    service: (u64, u64),
}

const REFUSALS: [u16; 7] = [400, 404, 405, 408, 429, 501, 503];

/// Check one reply for well-formedness and post what it reports to
/// `books`. Returns its decoded tuple ids if it was a `/site/*` answer.
fn audit(resp: &Response, books: &mut Books) -> Result<Option<Vec<u32>>, String> {
    let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    let body = parse(text).map_err(|e: ParseError| e.to_string())?;
    if let Some(ledger) = body.get("ledger") {
        let now = wire::ledger_from_json(ledger)?;
        if resp.status != 200 && now != books.site {
            return Err(format!(
                "a {} moved the site {:?} → {now:?}",
                resp.status, books.site
            ));
        }
        books.site = now;
    }
    if resp.status != 200 {
        let code = body.get("error").and_then(|e| e.get("code"));
        let typed = code.and_then(Json::as_str).is_some_and(|c| !c.is_empty());
        if REFUSALS.contains(&resp.status) && typed {
            return Ok(None);
        }
        return Err(format!("untyped refusal {}: {text}", resp.status));
    }
    if let Some(outcomes) = body.get("outcomes").and_then(Json::as_arr) {
        let tenant = wire::ledger_from_json(body.get("tenant").ok_or("no tenant ledger")?)?;
        for o in outcomes {
            let stats = o.get("stats").ok_or("outcome without stats")?;
            let spent = |name| stats.get(name).and_then(Json::as_u64).ok_or("bad stats");
            let (q, c) = (spent("queries_spent")?, spent("cost_units_spent")?);
            books.site = (books.site.0 + q, books.site.1 + c);
            books.service = (books.service.0 + q, books.service.1 + c);
            o.get("hits")
                .and_then(Json::as_arr)
                .ok_or("outcome without hits")?;
        }
        if tenant.0 > books.service.0 {
            return Err(format!("tenant {tenant:?} charged more than was spent"));
        }
    }
    match body.get("response") {
        Some(r) => Ok(Some(ids(&wire::response_from_json(r)?))),
        None => Ok(None),
    }
}

/// Send `bytes`, half-close, and read replies until the edge hangs up. The
/// read timeout is the hang detector: the edge's own deadline is 2 s.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<Vec<Response>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(6)))
        .unwrap();
    stream.write_all(bytes).map_err(|e| e.to_string())?;
    // The edge may already have refused and hung up.
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        // Closing on unread input resets the connection; what was sent
        // before that is still delivered. A timeout is a hang.
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            return Err(format!("the edge neither answered nor hung up: {e}"));
        }
    }
    // The edge's own framing is regular: split on it, then let the client's
    // reader judge each frame.
    let mut replies = Vec::new();
    let mut rest = &raw[..];
    while !rest.is_empty() {
        let head_end = rest.windows(4).position(|w| w == b"\r\n\r\n");
        let head_end = head_end.ok_or("reply without a complete head")? + 4;
        let head = String::from_utf8_lossy(&rest[..head_end]);
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "));
        let length: usize = length
            .and_then(|v| v.parse().ok())
            .ok_or("no content-length")?;
        let end = (head_end + length).min(rest.len());
        replies.push(read_response(&rest[..end]).map_err(|e| e.to_string())?);
        rest = &rest[end..];
    }
    Ok(replies)
}

/// Mutated requests against one long-lived server: invariants 1–3.
#[test]
fn mutated_requests_end_in_an_answer_or_a_typed_uncharged_refusal() {
    let data_seed = seeded(0xED6E_F022);
    let (local, remote) = (site(data_seed), Arc::new(site(data_seed)));
    let svc = Arc::new(RerankService::new(
        Arc::clone(&remote) as Arc<dyn SearchInterface>,
        120,
    ));
    let config = EdgeConfig::default().with_max_inflight(1);
    let exec = Arc::new(Executor::from_env());
    let handle = EdgeServer::serve(Arc::clone(&svc), exec, config).expect("bind");

    // The probe, and the answer it must keep getting.
    let probe = EdgeClient::new(handle.addr(), "probe");
    let probe_request = || EdgeClient::request(&Query::all(), &RANK, 4, None, None, None);
    let hit_ids = |reply: &query_reranking::edge::WireBatchReply| {
        let hits = reply.outcomes[0].hits.iter();
        hits.map(|(_, _, t)| t.id.0).collect::<Vec<_>>()
    };
    let first = probe.rerank(vec![probe_request()]).expect("clean probe");
    let pinned = hit_ids(&first);
    assert_eq!(pinned.len(), 4);
    let actual = || {
        let service = svc.stats();
        Books {
            site: (remote.queries_issued(), remote.cost_units_issued()),
            service: (service.queries_spent, service.cost_units_spent),
        }
    };
    let mut books = actual();

    let mut rng = Rng(seeded(0xF0E1));
    let (mut answered, mut refused) = (0u64, 0u64);
    for case in 0..iters() {
        let (target, body) = valid_request(&mut rng);
        let (other_target, other_body) = valid_request(&mut rng);
        let other = framed_request(&mut rng, other_target, &other_body);
        // Mutate the whole frame, or only the body under a true length.
        let bytes = if rng.chance(50) {
            let whole = framed_request(&mut rng, target, &body);
            mutate(&mut rng, &whole, &other)
        } else {
            let body = mutate(&mut rng, &body, &other_body);
            framed_request(&mut rng, target, &body)
        };
        let context = format!(
            "QRS_TEST_SEED={} case {case}, sent: \"{}\"",
            env_seed(),
            printable(&bytes)
        );

        let replies = exchange(handle.addr(), &bytes).unwrap_or_else(|e| panic!("{e}\n{context}"));
        let sent = read_request(&bytes[..]);
        match &sent {
            Ok(None) => assert!(replies.is_empty(), "a reply to nothing\n{context}"),
            _ => assert!(!replies.is_empty(), "no reply\n{context}"),
        }
        let want = sent
            .ok()
            .flatten()
            .and_then(|r| reference_answer(&r, &local));
        for (i, reply) in replies.iter().enumerate() {
            let got = audit(reply, &mut books).unwrap_or_else(|e| panic!("{e}\n{context}"));
            match reply.status {
                200 => answered += 1,
                _ => refused += 1,
            }
            if let (0, Some(want)) = (i, &want) {
                let got = got.ok_or(reply.status);
                let same = match (&got, want) {
                    (Ok(got), Ok(want)) => got == want,
                    (Err(status), Err(e)) => *status == wire::server_error_status(e),
                    _ => false,
                };
                assert!(same, "edge said {got:?}, the site says {want:?}\n{context}");
            }
        }

        // The probe: admitted (the gate is at zero), alive, and correct.
        let reply = probe
            .rerank(vec![probe_request()])
            .unwrap_or_else(|e| panic!("probe after the case: {e}\n{context}"));
        assert_eq!(hit_ids(&reply), pinned, "{context}");
        let spent = &reply.outcomes[0];
        books.site.0 += spent.queries_spent;
        books.site.1 += spent.cost_units_spent;
        books.service.0 += spent.queries_spent;
        books.service.1 += spent.cost_units_spent;
        assert_eq!(
            actual(),
            books,
            "the books moved without a reply saying so\n{context}"
        );
    }
    assert_eq!(handle.rejected(), 0, "no batch ever met a taken slot");
    assert!(refused > 0, "some mutation must be refused");
    // Not asserted > 0: whether a mutation leaves a request valid is
    // seed-dependent at shallow depths.
    let _ = answered;
    handle.shutdown();
}

/// A server that answers each connection with the next reply it is sent
/// and hangs up.
fn canned_server() -> (SocketAddr, mpsc::Sender<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("canned bind");
    let addr = listener.local_addr().unwrap();
    let (replies, next) = mpsc::channel::<Vec<u8>>();
    thread::spawn(move || {
        while let (Ok(reply), Ok((stream, _))) = (next.recv(), listener.accept()) {
            let _ = read_request(&stream);
            let _ = (&stream).write_all(&reply);
        }
    });
    (addr, replies)
}

/// The bytes of one real reply: ask a live edge, one-shot, and keep
/// everything it sends.
fn capture(addr: SocketAddr, start: &str, body: &[u8]) -> Vec<u8> {
    let headers = [
        ("content-length", body.len().to_string()),
        ("connection", "close".to_string()),
    ];
    let mut stream = TcpStream::connect(addr).expect("capture connect");
    stream.write_all(&frame(start, &headers, body)).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("capture read");
    raw
}

/// Mutated responses through the client's decoders, as functions and as
/// the client itself uses them: every outcome is a value — a decoded
/// answer or a typed error — never a panic and never a wait.
#[test]
fn mutated_responses_decode_or_fail_typed() {
    let remote = Arc::new(site(seeded(0xED6E_F023)));
    let svc = Arc::new(RerankService::new(remote as Arc<dyn SearchInterface>, 120));
    let config = EdgeConfig::default().with_max_inflight(0);
    let exec = Arc::new(Executor::from_env());
    let handle = EdgeServer::serve(svc, exec, config).expect("bind");
    let all = Json::obj(vec![("query", wire::query_to_json(&Query::all()))]).encode();
    let capabilities = capture(handle.addr(), "GET /site/capabilities HTTP/1.1", b"");
    let valid = [
        capture(handle.addr(), "POST /site/query HTTP/1.1", all.as_bytes()),
        // A typed refusal with a retry hint: the gate admits nothing.
        capture(
            handle.addr(),
            "POST /v1/rerank HTTP/1.1",
            &rerank_body(&Query::all()),
        ),
        capabilities.clone(),
    ];
    handle.shutdown();
    assert!(valid[0].starts_with(b"HTTP/1.1 200") && valid[1].starts_with(b"HTTP/1.1 429"));

    let (addr, replies) = canned_server();
    let mut rng = Rng(seeded(0xF0E2));
    let (mut decoded, mut failed) = (0u64, 0u64);
    for case in 0..iters() {
        let base = &valid[rng.below(valid.len())];
        let bytes = mutate(&mut rng, base, &valid[0]);
        let context = format!(
            "QRS_TEST_SEED={} case {case}, served: \"{}\"",
            env_seed(),
            printable(&bytes)
        );
        // The decoders, called directly.
        if let Ok(resp) = read_response(&bytes[..]) {
            if let Some(body) = std::str::from_utf8(&resp.body)
                .ok()
                .and_then(|t| parse(t).ok())
            {
                let _ = body.get("response").map(wire::response_from_json);
                let _ = body.get("ledger").map(wire::ledger_from_json);
                let _ = body.get("error").map(wire::server_error_from_json);
                let _ = body.get("schema").map(wire::schema_from_json);
                let _ = body.get("capabilities").map(wire::capabilities_from_json);
            }
        }
        // The client: connect on an intact reply, then one call of each
        // kind answered with the mutated one.
        for reply in [&capabilities, &bytes, &bytes] {
            replies.send(reply.clone()).unwrap();
        }
        let adapter = HttpSiteAdapter::connect(addr).unwrap_or_else(|e| panic!("{e}\n{context}"));
        match adapter.query(&Query::all()) {
            Ok(_) => decoded += 1,
            Err(_) => failed += 1,
        }
        let request = EdgeClient::request(&Query::all(), &RANK, 4, None, None, None);
        let _ = EdgeClient::new(addr, "fuzz").rerank(vec![request]);
    }
    assert!(failed > 0, "some mutation must be refused");
    let _ = decoded;
}
