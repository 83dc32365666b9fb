//! The per-call bodies are read in place, with no JSON tree; this harness
//! holds those readers to the tree decoders on hostile text.
//!
//! The bodies are the ones `tests/edge_fuzz.rs` sends and captures — the
//! `/site/query`, `/site/page` and `/v1/rerank` requests, and real replies
//! of a live edge (`/site/query`, `/site/page`, `/site/ordered`, a
//! `/v1/rerank` answer with a stopped outcome in it, an admission refusal,
//! the capabilities) — mutated byte by byte by the same SplitMix64 stream
//! (`QRS_TEST_SEED`), plus hand-written text at the corners of the
//! grammar. For each body:
//!
//! * **requests** — [`wire::read_site_request`] against `parse` +
//!   [`wire::query_from_json`] + the member reads the routes make
//!   (`page`, `attr`, `dir`);
//! * **replies** — [`wire::read_response_reply`],
//!   [`wire::read_page_reply`] and [`wire::read_rerank_reply`] against
//!   `parse` + the tree decoders
//!   ([`wire::response_from_json`], [`wire::ledger_from_json`], and below
//!   the client's `/v1/rerank` decode as it read the tree).
//!
//! Both sides refuse text that is not JSON with the same [`ParseError`],
//! and on JSON both accept with equal values or both refuse. The default
//! iteration count keeps the tier-1 run fast; `QRS_FUZZ_ITERS` deepens it.
//!
//! Apart from the tree, `tests/golden/reader_verdicts.txt` records what
//! `parse` and each reader made of a fixed corpus (the recorded bodies, the
//! corners, and fixed-seed mutations of the per-call bodies) before the
//! reader was rewritten for speed; every reader must keep those verdicts
//! byte for byte.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::edge::json::{parse, Json, ParseError};
use query_reranking::edge::{
    http, wire, EdgeClient, EdgeConfig, EdgeServer, WireBatchReply, WireOutcome,
};
use query_reranking::exec::Executor;
use query_reranking::server::{Capabilities, OrderedPage, SearchInterface, SimServer, SystemRank};
use query_reranking::service::RerankService;
use query_reranking::types::{
    AttrId, CatId, CatPredicate, Direction, Interval, Query, QueryResponse,
};
use std::fmt::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn env_seed() -> u64 {
    std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn seeded(base: u64) -> u64 {
    base ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Mutated bodies per kind: reading is cheap, so many more than the
/// socket fuzzer's cases.
fn iters() -> u64 {
    let iters = std::env::var("QRS_FUZZ_ITERS").ok();
    40 * iters.and_then(|s| s.parse().ok()).unwrap_or(48)
}

/// SplitMix64 — the classic 64-bit mixer; std-only and deterministic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One to three byte-level mutations of `bytes`, as the socket fuzzer
/// makes them; `other` is what a splice inserts.
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
            _ => {
                let at = if rng.chance(50) { out.len() } else { at };
                out.splice(at..at, other.iter().copied());
            }
        }
    }
    out
}

const RANK: [(usize, Direction, f64); 2] = [(0, Direction::Asc, 1.0), (1, Direction::Asc, 0.5)];

fn rerank_body(sel: &Query, budget: Option<u64>) -> Vec<u8> {
    let request = EdgeClient::request(sel, &RANK, 4, budget, None, None);
    let body = Json::obj(vec![("requests", Json::Arr(vec![request]))]);
    body.encode().into_bytes()
}

/// A valid request body of one of the fuzzed kinds, as the socket fuzzer
/// builds them (the `/site/*` ones as the client writes them now).
fn valid_request(rng: &mut Rng) -> Vec<u8> {
    let lo = rng.below(50) as f64 / 100.0;
    let range = Interval::closed(lo, lo + 0.4);
    let sel = match rng.below(40) {
        0 => Query::all().and_range(AttrId(2 + rng.below(98)), range),
        1 => Query::all().and_cat(CatPredicate::eq(CatId(1 + rng.below(99)), 1)),
        2 => Query::all().and_cat(CatPredicate::one_of(CatId(0), vec![0, 3, 9])),
        _ => Query::all().and_range(AttrId(0), range),
    };
    let page = rng.below(3);
    let order = (AttrId(rng.below(2)), Direction::Desc);
    match rng.below(4) {
        0 => rerank_body(&sel, None),
        1 => wire::site_request(&sel, None, None).into_bytes(),
        2 => wire::site_request(&sel, None, Some(page)).into_bytes(),
        _ => wire::site_request(&sel, Some(order), Some(page)).into_bytes(),
    }
}

/// Text at the corners of the grammar and of the readers' member rules.
const CORNERS: &[&str] = &[
    "",
    " ",
    "{}",
    "[]",
    "null",
    "\"query\"",
    r#"{"query": {"ranges": [], "cats": []}}"#,
    " {\t\"query\" :\n{ \"cats\":[ ] , \"ranges\" : [ ] } } \r\n",
    r#"{"query": {"ranges": [], "cats": []}, "page": 2}"#,
    r#"{"query": 1, "query": {"ranges": [], "cats": []}}"#,
    r#"{"query": {"ranges": [], "cats": []}, "query": 1}"#,
    r#"{"query": {"ranges": [], "cats": [], "ranges": 7}}"#,
    r#"{"query": {"ranges": [{"attr": 0, "lo": {"kind": "open", "v": 0.5}, "hi": {"kind": "unbounded"}}], "cats": []}, "page": 1, "page": -1}"#,
    r#"{"query": {"ranges": [{"attr": 0, "lo": {"kind": "open"}, "hi": {"kind": "unbounded"}}], "cats": []}}"#,
    r#"{"query": {"ranges": [{"attr": 0.5, "lo": {"kind": "closed", "v": 1}, "hi": {"kind": "closed", "v": 2}}], "cats": []}}"#,
    r#"{"query": {"ranges": [], "cats": [{"attr": 0, "codes": [4294967295, 4294967296]}]}}"#,
    r#"{"query": {"ranges": [], "cats": [{"attr": 0, "codes": []}]}, "attr": 1, "dir": "desc", "page": 9007199254740992}"#,
    r#"{"query": {"ranges": [], "cats": []}, "page": 9007199254740993, "attr": -0, "dir": "up"}"#,
    r#"{"query": {"ranges": [], "cats": []}, "extra": [{"a": [1, 2, {"b": "😀"}]}, null, true, -1.5e-3]}"#,
    r#"{"query": {"ranges": [], "cats": []}, "extra": "\ud83d"}"#,
    r#"{"query": {"ranges": [], "cats": []},}"#,
    r#"{"query": {"ranges": [], "cats": []}} x"#,
    r#"{"query": {"ranges": [], "cats": [01]}}"#,
    r#"{"query": {"ranges": [1.], "cats": [-]}}"#,
    r#"{"ledger": {"queries": 3, "cost_units": 4}, "response": {"outcome": "valid", "tuples": [{"id": 4294967295, "ords": [-0, 5e-324], "cats": []}]}}"#,
    r#"{"ledger": {"queries": 3}, "response": {"outcome": "valid", "tuples": [{"id": 4294967296, "ords": [], "cats": []}]}}"#,
    r#"{"ledger": {"queries": 1, "cost_units": 1}, "ledger": [], "response": {"outcome": "overflow", "tuples": [{"id": 1, "ords": [null], "cats": []}]}}"#,
    r#"{"ledger": {"queries": 1, "cost_units": 1}, "page": {"has_more": 1, "tuples": []}}"#,
    r#"{"ledger": {"queries": 1, "cost_units": 1}, "page": {"has_more": false, "tuples": [], "tuples": [{"id": 2, "ords": [1], "cats": [3]}]}}"#,
    r#"{"outcomes": [{"hits": [], "stats": 3}], "tenant": {"queries": 0, "cost_units": 0}}"#,
    r#"{"outcomes": [{"hits": [], "stats": {"queries_spent": 2, "queries_spent": "x"}, "error": {"code": 5}}], "tenant": {"queries": 0, "cost_units": 0}}"#,
    r#"{"outcomes": [{"hits": [{"rank": 1, "score": null, "tuple": {"id": 1, "ords": [], "cats": []}}], "stats": {}}], "tenant": {"queries": 0, "cost_units": 0}}"#,
    r#"{"outcomes": [{"hits": [{"rank": 1, "score": 2, "tuple": {"id": 1, "ords": [], "cats": []}}], "stats": {}, "error": {"code": "budget_exhausted"}, "error": {"message": "x"}}], "tenant": {"queries": 0, "cost_units": 0}}"#,
    r#"{"outcomes": {}, "tenant": {"queries": 0, "cost_units": 0}}"#,
    r#"{"outcomes": [], "tenant": {"queries": 0, "cost_units": -1}}"#,
    r#"{"\u0071uery": {"ranges": [], "cat\u0073": [{"attr": 1, "\u0063odes": [2]}]}, "p\u0061ge": 3, "dir": "\u0061sc"}"#,
    r#"{"ledger": {"qu\u0065ries": 1, "cost_units": 2}, "respons\u0065": {"outcome": "v\u0061lid", "tuples": [{"\u0069d": 7, "ords": [1], "cats": []}]}}"#,
    r#"{"outcom\u0065s": [{"hits": [], "st\u0061ts": {"queries_spent": 4}, "error": {"cod\u0065": "x\ny"}}], "tenant": {"queries": 0, "cost_units": 0}}"#,
];

/// The hidden site behind the edge whose replies are captured.
fn site() -> SimServer {
    let data = uniform(120, 2, 1, seeded(0x9A21));
    let rank = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    let caps = Capabilities::none()
        .with_paging()
        .with_order_by(vec![AttrId(0), AttrId(1)]);
    SimServer::new(data, rank, 3).with_capabilities(caps)
}

/// The body of one real reply: ask a live edge, one-shot.
fn capture(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("capture connect");
    let headers = [("x-tenant".to_string(), "parity".to_string())];
    http::write_request(&stream, method, target, &headers, body).expect("capture write");
    http::read_response(&stream).expect("capture read").body
}

/// Real replies of every kind the readers see, and a few they never do.
fn valid_replies() -> Vec<Vec<u8>> {
    let svc = Arc::new(RerankService::new(
        Arc::new(site()) as Arc<dyn SearchInterface>,
        120,
    ));
    let config = EdgeConfig {
        // Spent by the first answer that pays a query.
        tenant_query_budget: Some(1),
        ..EdgeConfig::default()
    };
    let exec = Arc::new(Executor::pool(1));
    let edge = EdgeServer::serve(svc, exec, config).expect("bind");
    let addr = edge.addr();
    let all = Query::all();
    let replies = vec![
        capture(
            addr,
            "POST",
            "/site/query",
            wire::site_request(&all, None, None).as_bytes(),
        ),
        capture(
            addr,
            "POST",
            "/site/page",
            wire::site_request(&all, None, Some(1)).as_bytes(),
        ),
        capture(
            addr,
            "POST",
            "/site/ordered",
            wire::site_request(&all, Some((AttrId(1), Direction::Asc)), Some(0)).as_bytes(),
        ),
        // A stopped outcome: a budget of no query at all.
        capture(addr, "POST", "/v1/rerank", &rerank_body(&all, Some(0))),
        capture(addr, "POST", "/v1/rerank", &rerank_body(&all, None)),
        capture(addr, "GET", "/site/capabilities", b""),
        // A refusal: the tenant is over its budget by now.
        capture(addr, "POST", "/v1/rerank", &rerank_body(&all, None)),
    ];
    edge.shutdown();
    let stopped = String::from_utf8_lossy(&replies[3]).to_string();
    assert!(stopped.contains("budget_exhausted"), "{stopped}");
    let refused = String::from_utf8_lossy(&replies[6]).to_string();
    assert!(refused.contains("tenant_budget"), "{refused}");
    replies
}

/// Both sides decoded the same value, or both refused it.
fn agree<T, U>(
    ours: &Result<T, String>,
    tree: &Result<U, String>,
    same: impl Fn(&T, &U) -> bool,
) -> bool {
    match (ours, tree) {
        (Ok(a), Ok(b)) => same(a, b),
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn response_text(r: &QueryResponse) -> String {
    wire::response_to_json(r).encode()
}

/// The request readers against the tree, on `text`.
fn request_parity(text: &str) -> Result<(), String> {
    let ours = wire::read_site_request(text);
    let tree = match parse(text) {
        Err(e) => return same_error(ours.map(drop), e),
        Ok(tree) => tree,
    };
    let ours = ours.map_err(|e| format!("JSON the reader refused: {e}"))?;
    let want = tree.get("query").ok_or("missing 'query'".to_string());
    let want = want.and_then(wire::query_from_json);
    let same =
        |a: &Query, b: &Query| wire::query_to_json(a).encode() == wire::query_to_json(b).encode();
    if !agree(&ours.query, &want, same) {
        return Err(format!(
            "query: {:?} against the tree's {want:?}",
            ours.query
        ));
    }
    let members = (
        tree.get("page").and_then(Json::as_usize),
        tree.get("attr").and_then(Json::as_usize),
        tree.get("dir").and_then(wire::direction_from_json),
    );
    if (ours.page, ours.attr, ours.dir) != members {
        return Err(format!(
            "members {:?} against the tree's {members:?}",
            (ours.page, ours.attr, ours.dir)
        ));
    }
    Ok(())
}

fn same_error(ours: Result<(), ParseError>, tree: ParseError) -> Result<(), String> {
    match ours {
        Err(e) if e == tree => Ok(()),
        other => Err(format!(
            "the tree refused the text with {tree:?}, the reader said {other:?}"
        )),
    }
}

/// An `ORDER BY` page, decoded from the tree as the client decoded it.
fn tree_ordered_page(v: &Json) -> Result<OrderedPage, String> {
    let tuples = v.get("tuples").and_then(Json::as_arr).ok_or("no tuples")?;
    let tuples = tuples
        .iter()
        .map(|t| wire::tuple_from_json(t).map(Arc::new));
    Ok(OrderedPage {
        tuples: tuples.collect::<Result<_, _>>()?,
        has_more: v
            .get("has_more")
            .and_then(Json::as_bool)
            .ok_or("no has_more")?,
    })
}

/// One `/v1/rerank` outcome, decoded from the tree as the client decoded it.
fn tree_outcome(v: &Json) -> Result<WireOutcome, String> {
    let bad = |m: &str| format!("bad outcome: {m}");
    let hits = v
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing hits"))?;
    let hits = hits
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
            let tuple = h.get("tuple").ok_or_else(|| bad("missing tuple"))?;
            Ok((
                rank,
                score,
                wire::tuple_from_json(tuple).map_err(|e| bad(&e))?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
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

/// A `200` `/v1/rerank` reply, decoded from the tree as the client decoded
/// it.
fn tree_rerank(v: &Json) -> Result<WireBatchReply, String> {
    let outcomes = v
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or("missing 'outcomes'")?;
    let outcomes = outcomes
        .iter()
        .map(tree_outcome)
        .collect::<Result<_, _>>()?;
    let tenant = v.get("tenant").and_then(|t| wire::ledger_from_json(t).ok());
    Ok(WireBatchReply {
        outcomes,
        tenant: tenant.ok_or("missing 'tenant' ledger")?,
    })
}

/// The reply readers against the tree, on `text`.
fn reply_parity(text: &str) -> Result<(), String> {
    let response = wire::read_response_reply(text);
    let page = wire::read_page_reply(text);
    let rerank = wire::read_rerank_reply(text);
    let tree = match parse(text) {
        Err(e) => {
            same_error(response.map(drop), e.clone())?;
            same_error(page.map(drop), e.clone())?;
            return same_error(rerank.map(drop), e);
        }
        Ok(tree) => tree,
    };
    let refused = |e: ParseError| format!("JSON the reader refused: {e}");
    let (response, page, rerank) = (
        response.map_err(refused)?,
        page.map_err(refused)?,
        rerank.map_err(refused)?,
    );
    let ledger = tree
        .get("ledger")
        .and_then(|l| wire::ledger_from_json(l).ok());
    if response.ledger != ledger || page.ledger != ledger {
        return Err(format!(
            "ledger {:?} against the tree's {ledger:?}",
            response.ledger
        ));
    }
    let want = tree.get("response").ok_or("missing".to_string());
    let want = want.and_then(wire::response_from_json);
    if !agree(&response.body, &want, |a, b| {
        response_text(a) == response_text(b)
    }) {
        return Err(format!(
            "response: {:?} against the tree's {want:?}",
            response.body
        ));
    }
    let want = tree
        .get("page")
        .ok_or("missing".to_string())
        .and_then(tree_ordered_page);
    let same = |a: &OrderedPage, b: &OrderedPage| format!("{a:?}") == format!("{b:?}");
    if !agree(&page.body, &want, same) {
        return Err(format!("page: {:?} against the tree's {want:?}", page.body));
    }
    let want = tree_rerank(&tree);
    // Debug spells every f64 bit-exactly, -0.0 included.
    if !agree(&rerank, &want, |a, b| format!("{a:?}") == format!("{b:?}")) {
        return Err(format!("rerank: {rerank:?} against the tree's {want:?}"));
    }
    Ok(())
}

fn check(kind: &str, bytes: &[u8], parity: fn(&str) -> Result<(), String>, context: &str) {
    // A body that is not UTF-8 is refused before either reader runs.
    if let Ok(text) = std::str::from_utf8(bytes) {
        if let Err(e) = parity(text) {
            panic!("{kind}: {e}\n{context}, body: {:?}", text);
        }
    }
}

#[test]
fn corners_of_the_grammar_read_as_the_tree_reads_them() {
    for text in CORNERS {
        check("request", text.as_bytes(), request_parity, "corner");
        check("reply", text.as_bytes(), reply_parity, "corner");
    }
    // Nesting at and past the cap, inside a member the readers skip.
    for depth in [63, 64, 65, 4096] {
        let deep = "[".repeat(depth) + &"]".repeat(depth);
        let text = format!(r#"{{"query": {{"ranges": [], "cats": []}}, "x": {deep}}}"#);
        check("request", text.as_bytes(), request_parity, "deep");
        check("reply", text.as_bytes(), reply_parity, "deep");
    }
}

#[test]
fn mutated_requests_read_as_the_tree_reads_them() {
    let mut rng = Rng(seeded(0x9A01));
    for case in 0..iters() {
        let (body, other) = (valid_request(&mut rng), valid_request(&mut rng));
        let context = format!("QRS_TEST_SEED={} case {case}", env_seed());
        check("valid request", &body, request_parity, &context);
        let mutated = mutate(&mut rng, &body, &other);
        check("request", &mutated, request_parity, &context);
    }
}

#[test]
fn mutated_replies_read_as_the_tree_reads_them() {
    let valid = valid_replies();
    for body in &valid {
        check("valid reply", body, reply_parity, "unmutated");
    }
    let mut rng = Rng(seeded(0x9A02));
    for case in 0..iters() {
        let base = &valid[rng.below(valid.len())];
        let other = &valid[rng.below(valid.len())];
        let mutated = mutate(&mut rng, base, other);
        let context = format!("QRS_TEST_SEED={} case {case}", env_seed());
        check("reply", &mutated, reply_parity, &context);
    }
}

/// The bodies of `tests/golden/wire_bodies.txt` that are `/v1/rerank` and
/// `/site/*` requests and replies: what the verdict corpus mutates.
const PER_CALL: [&str; 5] = [
    "site_request",
    "rerank_body",
    "site_response_reply",
    "site_page_reply",
    "rerank_reply",
];

/// Mutated bodies in the verdict corpus.
const MUTATED: usize = 240;

/// `text` on one line: backslashes doubled, control characters escaped.
fn one_line(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.extend(c.escape_default()),
            c => out.push(c),
        }
    }
    out
}

/// What `parse` and every in-place reader make of each body of a fixed
/// corpus: every body of `tests/golden/wire_bodies.txt`, the grammar's
/// corners, and bodies of the per-call kinds mutated by a fixed-seed
/// stream. For each, `parse`'s re-encoding (`= body` when it is the body
/// itself) or its error, and each reader's decoded value (`{:?}`, which
/// spells every `f64` bit for bit) or refusal.
fn verdicts() -> String {
    let recorded = include_str!("golden/wire_bodies.txt").lines();
    let recorded: Vec<(&str, &str)> = recorded.map(|l| l.split_once(' ').unwrap()).collect();
    let mut bodies: Vec<(&str, Vec<u8>)> = recorded
        .iter()
        .map(|(kind, body)| (*kind, body.as_bytes().to_vec()))
        .collect();
    bodies.extend(CORNERS.iter().map(|c| ("corner", c.as_bytes().to_vec())));
    for depth in [63, 64, 65] {
        let deep = "[".repeat(depth) + &"]".repeat(depth);
        let text = format!(r#"{{"query": {{"ranges": [], "cats": []}}, "x": {deep}}}"#);
        bodies.push(("deep", text.into_bytes()));
    }
    let bases: Vec<&[u8]> = (recorded.iter())
        .filter(|(kind, _)| PER_CALL.contains(kind))
        .map(|(_, body)| body.as_bytes())
        .collect();
    let mut rng = Rng(0x7E4D_1C75);
    for _ in 0..MUTATED {
        let (base, other) = (bases[rng.below(bases.len())], bases[rng.below(bases.len())]);
        bodies.push(("mutated", mutate(&mut rng, base, other)));
    }
    let mut out = String::new();
    for (i, (source, bytes)) in bodies.iter().enumerate() {
        writeln!(out, "# {i} {source}").unwrap();
        let Ok(text) = std::str::from_utf8(bytes) else {
            let lossy = one_line(&String::from_utf8_lossy(bytes));
            writeln!(out, "body (not UTF-8, read by nothing) {lossy}").unwrap();
            continue;
        };
        writeln!(out, "body {}", one_line(text)).unwrap();
        match parse(text) {
            Ok(tree) if tree.encode() == text => writeln!(out, "parse = body"),
            Ok(tree) => writeln!(out, "parse {}", one_line(&tree.encode())),
            Err(e) => writeln!(out, "parse refused: {e}"),
        }
        .unwrap();
        writeln!(out, "read_site_request {:?}", wire::read_site_request(text)).unwrap();
        writeln!(
            out,
            "read_response_reply {:?}",
            wire::read_response_reply(text)
        )
        .unwrap();
        writeln!(out, "read_page_reply {:?}", wire::read_page_reply(text)).unwrap();
        writeln!(out, "read_rerank_reply {:?}", wire::read_rerank_reply(text)).unwrap();
    }
    out
}

/// `parse` and the in-place readers keep the verdicts recorded in
/// `tests/golden/reader_verdicts.txt`: the same values, the same refusals,
/// the same error messages at the same byte offsets. The corpus does not
/// depend on `QRS_TEST_SEED`.
#[test]
fn readers_keep_their_recorded_verdicts() {
    let fresh = verdicts();
    let recorded = include_str!("golden/reader_verdicts.txt");
    if fresh != recorded {
        let at = fresh
            .lines()
            .zip(recorded.lines())
            .position(|(a, b)| a != b);
        panic!(
            "the readers no longer read as tests/golden/reader_verdicts.txt records \
             (first difference at line {at:?}); if the change means to move a verdict, \
             replace the file with the document between the markers:\n\
             -----BEGIN-----\n{fresh}-----END-----"
        );
    }
}
