//! The wire vocabulary: domain types ⇄ JSON, and the error ⇄ status map.
//!
//! Every encoder here has a decoder that reconstructs the domain value
//! *exactly* — ordinal values ride as shortest-round-trip decimals
//! ([`crate::json`]), so a `Tuple` that crosses the wire twice is
//! bit-identical to the original. That exactness is what lets the loopback
//! test assert byte-identical result streams rather than "close enough".
//!
//! The per-call bodies — the `/site/query`, `/site/page` and
//! `/site/ordered` requests and their `200` replies, and the `200` reply to
//! `/v1/rerank` — are written and read in place, straight between the
//! domain types and text through [`crate::json`]'s writer and pull reader,
//! with no [`Json`] tree on the way. Their bytes are byte for byte what the
//! tree forms here encode to, and a body is refused exactly where the tree
//! decoders refuse it (both are tested against each other). Cold bodies —
//! capabilities, schema, mutation logs, stats, error bodies and the
//! `/v1/rerank` request — stay on the tree.
//!
//! Decoding is strict: a missing or ill-typed member is a typed error
//! (`Err(String)` naming the member), which the server half maps to a
//! `400` and the client half maps to a *transient*
//! [`ServerError::Unavailable`] (garbled bytes on a real wire are a
//! transport fault, not a contract violation).
//!
//! The status map is fixed by the protocol:
//!
//! | `ServerError`      | HTTP status | extras                         |
//! |--------------------|-------------|--------------------------------|
//! | `RateLimited`      | 429         | `Retry-After` header (seconds) |
//! | `Unavailable`      | 503         |                                |
//! | `Unsupported`      | 501         | capability object in the body  |
//! | `InvalidQuery`     | 400         |                                |

use crate::http::Response;
use crate::json::{
    write_arr, write_bool, write_num, write_str, write_u64, Json, ObjWriter, ParseError, Reader,
};
use qrs_server::{Capabilities, OrderedPage};
use qrs_service::{BatchOutcome, SessionStats};
use qrs_types::{
    AttrId, Capability, CatAttr, CatId, CatPredicate, CostModel, Direction, Endpoint,
    FilterSupport, Interval, Mutation, MutationKind, MutationLog, OrdinalAttr, Query, QueryOutcome,
    QueryResponse, RerankError, Schema, ServerError, Tuple, TupleId,
};
use std::sync::Arc;

/// Decode failures name the offending member; `str.to_string()` is fine
/// for a cold path that ends in a 400 or a retry.
pub type WireResult<T> = Result<T, String>;

fn want<'a>(v: &'a Json, key: &str) -> WireResult<&'a Json> {
    v.get(key).ok_or_else(|| format!("missing member '{key}'"))
}

fn want_u64(v: &Json, key: &str) -> WireResult<u64> {
    want(v, key)?
        .as_u64()
        .ok_or_else(|| format!("member '{key}' is not a non-negative integer"))
}

fn want_f64(v: &Json, key: &str) -> WireResult<f64> {
    want(v, key)?
        .as_f64()
        .ok_or_else(|| format!("member '{key}' is not a number"))
}

fn want_str<'a>(v: &'a Json, key: &str) -> WireResult<&'a str> {
    want(v, key)?
        .as_str()
        .ok_or_else(|| format!("member '{key}' is not a string"))
}

fn want_arr<'a>(v: &'a Json, key: &str) -> WireResult<&'a [Json]> {
    want(v, key)?
        .as_arr()
        .ok_or_else(|| format!("member '{key}' is not an array"))
}

fn want_bool(v: &Json, key: &str) -> WireResult<bool> {
    want(v, key)?
        .as_bool()
        .ok_or_else(|| format!("member '{key}' is not a boolean"))
}

// ---------------------------------------------------------------- ledgers

/// The cumulative-ledger object every `/site/*` response carries:
/// `{queries, cost_units}`, total since the server started. Cumulative —
/// not per-request — so a client that missed a response (dropped
/// connection) reconciles exactly from the next one it does see.
pub fn ledger_json(queries: u64, cost_units: u64) -> Json {
    Json::obj(vec![
        ("queries", Json::u64(queries)),
        ("cost_units", Json::u64(cost_units)),
    ])
}

/// Decode a ledger object back into `(queries, cost_units)`.
pub fn ledger_from_json(v: &Json) -> WireResult<(u64, u64)> {
    Ok((want_u64(v, "queries")?, want_u64(v, "cost_units")?))
}

// ---------------------------------------------------------------- tuples

/// Encode one tuple: `{id, ords, cats}`.
pub fn tuple_to_json(t: &Tuple) -> Json {
    Json::obj(vec![
        ("id", Json::u64(t.id.0 as u64)),
        (
            "ords",
            Json::Arr(t.ords().iter().map(|v| Json::Num(*v)).collect()),
        ),
        (
            "cats",
            Json::Arr(t.cats().iter().map(|c| Json::u64(*c as u64)).collect()),
        ),
    ])
}

/// Decode one tuple.
pub fn tuple_from_json(v: &Json) -> WireResult<Tuple> {
    let id = want_u64(v, "id")?;
    if id > u32::MAX as u64 {
        return Err("tuple id out of range".into());
    }
    let ords = want_arr(v, "ords")?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| "non-numeric ordinal".to_string()))
        .collect::<WireResult<Vec<f64>>>()?;
    let cats = want_arr(v, "cats")?
        .iter()
        .map(|x| {
            x.as_u64()
                .filter(|c| *c <= u32::MAX as u64)
                .map(|c| c as u32)
                .ok_or_else(|| "bad categorical code".to_string())
        })
        .collect::<WireResult<Vec<u32>>>()?;
    Ok(Tuple::new(TupleId(id as u32), ords, cats))
}

// ---------------------------------------------------------------- queries

fn endpoint_to_json(e: Endpoint) -> Json {
    match e {
        Endpoint::Unbounded => Json::obj(vec![("kind", Json::str("unbounded"))]),
        Endpoint::Open(v) => Json::obj(vec![("kind", Json::str("open")), ("v", Json::Num(v))]),
        Endpoint::Closed(v) => Json::obj(vec![("kind", Json::str("closed")), ("v", Json::Num(v))]),
    }
}

fn endpoint_from_json(v: &Json) -> WireResult<Endpoint> {
    match want_str(v, "kind")? {
        "unbounded" => Ok(Endpoint::Unbounded),
        "open" => Ok(Endpoint::Open(want_f64(v, "v")?)),
        "closed" => Ok(Endpoint::Closed(want_f64(v, "v")?)),
        other => Err(format!("unknown endpoint kind '{other}'")),
    }
}

/// Encode a ranking direction: `"asc"` or `"desc"`.
pub fn direction_to_json(d: Direction) -> Json {
    Json::str(direction_str(d))
}

/// Decode a ranking direction; `None` for anything but `"asc"` or
/// `"desc"`, so each caller names the member in its own error.
pub fn direction_from_json(v: &Json) -> Option<Direction> {
    direction_from_str(v.as_str()?)
}

fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::Asc => "asc",
        Direction::Desc => "desc",
    }
}

fn direction_from_str(s: &str) -> Option<Direction> {
    match s {
        "asc" => Some(Direction::Asc),
        "desc" => Some(Direction::Desc),
        _ => None,
    }
}

/// Encode a conjunctive query: `{ranges:[{attr,lo,hi}], cats:[{attr,codes}]}`.
pub fn query_to_json(q: &Query) -> Json {
    Json::obj(vec![
        (
            "ranges",
            Json::Arr(
                q.ranges()
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("attr", Json::u64(p.attr.0 as u64)),
                            ("lo", endpoint_to_json(p.interval.lo)),
                            ("hi", endpoint_to_json(p.interval.hi)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cats",
            Json::Arr(
                q.cats()
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("attr", Json::u64(p.attr.0 as u64)),
                            (
                                "codes",
                                Json::Arr(p.codes().iter().map(|c| Json::u64(*c as u64)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a conjunctive query.
pub fn query_from_json(v: &Json) -> WireResult<Query> {
    let mut q = Query::all();
    for p in want_arr(v, "ranges")? {
        let attr = AttrId(want_u64(p, "attr")? as usize);
        let interval = Interval {
            lo: endpoint_from_json(want(p, "lo")?)?,
            hi: endpoint_from_json(want(p, "hi")?)?,
        };
        q.add_range(attr, interval);
    }
    for p in want_arr(v, "cats")? {
        let attr = CatId(want_u64(p, "attr")? as usize);
        let codes = want_arr(p, "codes")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .filter(|c| *c <= u32::MAX as u64)
                    .map(|c| c as u32)
                    .ok_or_else(|| "bad categorical code".to_string())
            })
            .collect::<WireResult<Vec<u32>>>()?;
        q.add_cat(CatPredicate::one_of(attr, codes));
    }
    Ok(q)
}

// ---------------------------------------------------------------- schema

/// Encode a schema: ordinal and categorical attribute lists.
pub fn schema_to_json(s: &Schema) -> Json {
    Json::obj(vec![
        (
            "ordinal",
            Json::Arr(
                s.attr_ids()
                    .map(|id| {
                        let a = s.ordinal(id);
                        let mut members = vec![
                            ("name", Json::str(a.name.clone())),
                            ("min", Json::Num(a.min)),
                            ("max", Json::Num(a.max)),
                            ("point_only", Json::Bool(a.point_only)),
                        ];
                        if let Some(values) = &a.values {
                            members.push((
                                "values",
                                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                            ));
                        }
                        Json::obj(members)
                    })
                    .collect(),
            ),
        ),
        (
            "categorical",
            Json::Arr(
                s.cat_ids()
                    .map(|id| {
                        let a = s.categorical(id);
                        Json::obj(vec![
                            ("name", Json::str(a.name.clone())),
                            ("cardinality", Json::u64(a.cardinality as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a schema.
pub fn schema_from_json(v: &Json) -> WireResult<Schema> {
    let ordinal = want_arr(v, "ordinal")?
        .iter()
        .map(|a| {
            let attr = OrdinalAttr {
                name: want_str(a, "name")?.to_string(),
                min: want_f64(a, "min")?,
                max: want_f64(a, "max")?,
                point_only: want_bool(a, "point_only")?,
                values: match a.get("values") {
                    None | Some(Json::Null) => None,
                    Some(arr) => Some(
                        arr.as_arr()
                            .ok_or_else(|| "member 'values' is not an array".to_string())?
                            .iter()
                            .map(|x| {
                                x.as_f64()
                                    .ok_or_else(|| "non-numeric domain value".to_string())
                            })
                            .collect::<WireResult<Vec<f64>>>()?,
                    ),
                },
            };
            // Refused here, typed, before `Schema::new` would assert it.
            attr.check()?;
            Ok(attr)
        })
        .collect::<WireResult<Vec<OrdinalAttr>>>()?;
    let categorical = want_arr(v, "categorical")?
        .iter()
        .map(|a| {
            let card = want_u64(a, "cardinality")?;
            if card > u32::MAX as u64 {
                return Err("cardinality out of range".to_string());
            }
            Ok(CatAttr {
                name: want_str(a, "name")?.to_string(),
                cardinality: card as u32,
            })
        })
        .collect::<WireResult<Vec<CatAttr>>>()?;
    Ok(Schema::new(ordinal, categorical))
}

// ----------------------------------------------------------- capabilities

fn filter_support_str(s: FilterSupport) -> &'static str {
    match s {
        FilterSupport::None => "none",
        FilterSupport::Point => "point",
        FilterSupport::Range => "range",
    }
}

fn filter_support_from_str(s: &str) -> WireResult<FilterSupport> {
    match s {
        "none" => Ok(FilterSupport::None),
        "point" => Ok(FilterSupport::Point),
        "range" => Ok(FilterSupport::Range),
        other => Err(format!("unknown filter support '{other}'")),
    }
}

fn cost_model_to_json(c: &CostModel) -> Json {
    Json::obj(vec![
        ("base", Json::u64(c.base)),
        ("point_predicate", Json::u64(c.point_predicate)),
        ("range_predicate", Json::u64(c.range_predicate)),
        ("ordered", Json::u64(c.ordered)),
        ("paged", Json::u64(c.paged)),
        (
            "attr_surcharge",
            Json::Arr(
                c.attr_surcharge
                    .iter()
                    .map(|(a, u)| Json::Arr(vec![Json::u64(a.0 as u64), Json::u64(*u)]))
                    .collect(),
            ),
        ),
    ])
}

fn cost_model_from_json(v: &Json) -> WireResult<CostModel> {
    let attr_surcharge = want_arr(v, "attr_surcharge")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2);
            let pair = pair.ok_or_else(|| "bad surcharge pair".to_string())?;
            let attr = pair[0].as_u64().ok_or("bad surcharge attr")? as usize;
            let units = pair[1].as_u64().ok_or("bad surcharge units")?;
            Ok((AttrId(attr), units))
        })
        .collect::<WireResult<Vec<(AttrId, u64)>>>()?;
    Ok(CostModel {
        base: want_u64(v, "base")?,
        point_predicate: want_u64(v, "point_predicate")?,
        range_predicate: want_u64(v, "range_predicate")?,
        ordered: want_u64(v, "ordered")?,
        paged: want_u64(v, "paged")?,
        attr_surcharge,
    })
}

fn opt_usize_json(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::u64(n as u64),
        None => Json::Null,
    }
}

fn opt_usize_from_json(v: &Json, key: &str) -> WireResult<Option<usize>> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("member '{key}' is not an integer")),
    }
}

/// Encode the advertised capabilities, cost model included.
pub fn capabilities_to_json(c: &Capabilities) -> Json {
    Json::obj(vec![
        ("paging", Json::Bool(c.paging)),
        (
            "order_by",
            Json::Arr(c.order_by.iter().map(|a| Json::u64(a.0 as u64)).collect()),
        ),
        ("max_pages", opt_usize_json(c.max_pages)),
        ("max_predicates", opt_usize_json(c.max_predicates)),
        (
            "filters",
            Json::Arr(
                c.filters
                    .iter()
                    .map(|(a, s)| {
                        Json::Arr(vec![
                            Json::u64(a.0 as u64),
                            Json::str(filter_support_str(*s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cost", cost_model_to_json(&c.cost)),
        ("mutation_feed", Json::Bool(c.mutation_feed)),
    ])
}

/// Decode the advertised capabilities.
pub fn capabilities_from_json(v: &Json) -> WireResult<Capabilities> {
    let order_by = want_arr(v, "order_by")?
        .iter()
        .map(|a| {
            a.as_usize()
                .map(AttrId)
                .ok_or_else(|| "bad order_by attribute".to_string())
        })
        .collect::<WireResult<Vec<AttrId>>>()?;
    let filters = want_arr(v, "filters")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2);
            let pair = pair.ok_or_else(|| "bad filter pair".to_string())?;
            let attr = pair[0].as_usize().ok_or("bad filter attr")?;
            let support = filter_support_from_str(pair[1].as_str().ok_or("bad filter support")?)?;
            Ok((AttrId(attr), support))
        })
        .collect::<WireResult<Vec<(AttrId, FilterSupport)>>>()?;
    let caps = Capabilities {
        paging: want_bool(v, "paging")?,
        order_by,
        max_pages: opt_usize_from_json(v, "max_pages")?,
        max_predicates: opt_usize_from_json(v, "max_predicates")?,
        filters,
        cost: cost_model_from_json(want(v, "cost")?)?,
        mutation_feed: want_bool(v, "mutation_feed")?,
    };
    // Refused here, typed, before a planner plans against it or
    // `SimServer::with_capabilities` would assert it.
    caps.check()?;
    Ok(caps)
}

// ---------------------------------------------------------------- results

fn outcome_str(o: QueryOutcome) -> &'static str {
    match o {
        QueryOutcome::Underflow => "underflow",
        QueryOutcome::Valid => "valid",
        QueryOutcome::Overflow => "overflow",
    }
}

fn outcome_from_str(s: &str) -> WireResult<QueryOutcome> {
    match s {
        "underflow" => Ok(QueryOutcome::Underflow),
        "valid" => Ok(QueryOutcome::Valid),
        "overflow" => Ok(QueryOutcome::Overflow),
        other => Err(format!("unknown outcome '{other}'")),
    }
}

/// Encode a top-k response: `{tuples, outcome}`.
pub fn response_to_json(r: &QueryResponse) -> Json {
    Json::obj(vec![
        (
            "tuples",
            Json::Arr(r.tuples.iter().map(|t| tuple_to_json(t)).collect()),
        ),
        ("outcome", Json::str(outcome_str(r.outcome))),
    ])
}

/// Decode a top-k response.
pub fn response_from_json(v: &Json) -> WireResult<QueryResponse> {
    let tuples = want_arr(v, "tuples")?
        .iter()
        .map(|t| tuple_from_json(t).map(Arc::new))
        .collect::<WireResult<Vec<Arc<Tuple>>>>()?;
    Ok(QueryResponse {
        tuples,
        outcome: outcome_from_str(want_str(v, "outcome")?)?,
    })
}

/// Encode a mutation log: `{deltas:[{seq, kind, ...}], gap}`.
pub fn mutation_log_to_json(log: &MutationLog) -> Json {
    Json::obj(vec![
        (
            "deltas",
            Json::Arr(
                log.deltas
                    .iter()
                    .map(|m| {
                        let (kind, payload) = match &m.kind {
                            MutationKind::Insert(t) => ("insert", tuple_to_json(t)),
                            MutationKind::Update(t) => ("update", tuple_to_json(t)),
                            MutationKind::Delete(id) => ("delete", Json::u64(id.0 as u64)),
                        };
                        Json::obj(vec![
                            ("seq", Json::u64(m.seq)),
                            ("kind", Json::str(kind)),
                            ("payload", payload),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("gap", Json::Bool(log.gap)),
    ])
}

/// Decode a mutation log.
pub fn mutation_log_from_json(v: &Json) -> WireResult<MutationLog> {
    let deltas = want_arr(v, "deltas")?
        .iter()
        .map(|m| {
            let seq = want_u64(m, "seq")?;
            let payload = want(m, "payload")?;
            let kind = match want_str(m, "kind")? {
                "insert" => MutationKind::Insert(Arc::new(tuple_from_json(payload)?)),
                "update" => MutationKind::Update(Arc::new(tuple_from_json(payload)?)),
                "delete" => {
                    let id = payload.as_u64().filter(|i| *i <= u32::MAX as u64);
                    MutationKind::Delete(TupleId(
                        id.ok_or_else(|| "bad delete id".to_string())? as u32
                    ))
                }
                other => return Err(format!("unknown mutation kind '{other}'")),
            };
            Ok(Mutation { seq, kind })
        })
        .collect::<WireResult<Vec<Mutation>>>()?;
    Ok(MutationLog {
        deltas,
        gap: want_bool(v, "gap")?,
    })
}

// ----------------------------------------------------------------- errors

fn capability_to_json(c: Capability) -> Json {
    match c {
        Capability::Paging => Json::obj(vec![("kind", Json::str("paging"))]),
        Capability::MutationFeed => Json::obj(vec![("kind", Json::str("mutation_feed"))]),
        Capability::OrderBy(a) => Json::obj(vec![
            ("kind", Json::str("order_by")),
            ("attr", Json::u64(a.0 as u64)),
        ]),
        Capability::RangeFilter(a) => Json::obj(vec![
            ("kind", Json::str("range_filter")),
            ("attr", Json::u64(a.0 as u64)),
        ]),
        Capability::PointFilter(a) => Json::obj(vec![
            ("kind", Json::str("point_filter")),
            ("attr", Json::u64(a.0 as u64)),
        ]),
        Capability::PredicateArity(n) => Json::obj(vec![
            ("kind", Json::str("predicate_arity")),
            ("n", Json::u64(n as u64)),
        ]),
        Capability::PageDepth(n) => Json::obj(vec![
            ("kind", Json::str("page_depth")),
            ("n", Json::u64(n as u64)),
        ]),
    }
}

fn capability_from_json(v: &Json) -> WireResult<Capability> {
    let attr = || {
        want_u64(v, "attr")
            .map(|a| AttrId(a as usize))
            .map_err(|e| e.to_string())
    };
    match want_str(v, "kind")? {
        "paging" => Ok(Capability::Paging),
        "mutation_feed" => Ok(Capability::MutationFeed),
        "order_by" => Ok(Capability::OrderBy(attr()?)),
        "range_filter" => Ok(Capability::RangeFilter(attr()?)),
        "point_filter" => Ok(Capability::PointFilter(attr()?)),
        "predicate_arity" => Ok(Capability::PredicateArity(want_u64(v, "n")? as usize)),
        "page_depth" => Ok(Capability::PageDepth(want_u64(v, "n")? as usize)),
        other => Err(format!("unknown capability kind '{other}'")),
    }
}

/// The HTTP status a server-side failure maps to.
pub fn server_error_status(e: &ServerError) -> u16 {
    match e {
        ServerError::RateLimited { .. } => 429,
        ServerError::Unavailable { .. } => 503,
        ServerError::Unsupported(_) => 501,
        ServerError::InvalidQuery { .. } => 400,
    }
}

/// Encode a server-side failure as a typed error object.
pub fn server_error_to_json(e: &ServerError) -> Json {
    let mut members = vec![("message", Json::str(e.to_string()))];
    match e {
        ServerError::RateLimited { retry_after_ms } => {
            members.push(("code", Json::str("rate_limited")));
            if let Some(ms) = retry_after_ms {
                members.push(("retry_after_ms", Json::u64(*ms)));
            }
        }
        ServerError::Unavailable { reason } => {
            members.push(("code", Json::str("unavailable")));
            members.push(("reason", Json::str(reason.clone())));
        }
        ServerError::Unsupported(c) => {
            members.push(("code", Json::str("unsupported")));
            members.push(("capability", capability_to_json(*c)));
        }
        ServerError::InvalidQuery { reason } => {
            members.push(("code", Json::str("invalid_query")));
            members.push(("reason", Json::str(reason.clone())));
        }
    }
    Json::obj(members)
}

/// Decode a typed error object back into the exact [`ServerError`].
pub fn server_error_from_json(v: &Json) -> WireResult<ServerError> {
    match want_str(v, "code")? {
        "rate_limited" => Ok(ServerError::RateLimited {
            retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
        }),
        "unavailable" => Ok(ServerError::Unavailable {
            reason: want_str(v, "reason")?.to_string(),
        }),
        "unsupported" => Ok(ServerError::Unsupported(capability_from_json(want(
            v,
            "capability",
        )?)?)),
        "invalid_query" => Ok(ServerError::InvalidQuery {
            reason: want_str(v, "reason")?.to_string(),
        }),
        other => Err(format!("unknown error code '{other}'")),
    }
}

/// Build the full HTTP response for a `/site/*` failure: mapped status,
/// typed body, the cumulative ledger, and — for rate limits with a hint —
/// a `Retry-After` header (ceiling-rounded to whole seconds, as the
/// header speaks seconds while the body keeps millisecond precision).
pub fn server_error_response(e: &ServerError, ledger: Json) -> Response {
    let body = Json::obj(vec![("error", server_error_to_json(e)), ("ledger", ledger)]);
    let mut resp = Response::json(server_error_status(e), body.encode());
    if let ServerError::RateLimited {
        retry_after_ms: Some(ms),
    } = e
    {
        resp = resp.with_header("retry-after", ms.div_ceil(1000).max(1).to_string());
    }
    resp
}

/// The stable code string for each [`RerankError`] variant — what a batch
/// outcome's error rides the wire as.
pub fn rerank_error_code(e: &RerankError) -> &'static str {
    match e {
        RerankError::BudgetExhausted { .. } => "budget_exhausted",
        RerankError::UnsupportedCapability(_) => "unsupported_capability",
        RerankError::InvalidAlgorithm { .. } => "invalid_algorithm",
        RerankError::Server(ServerError::RateLimited { .. }) => "server_rate_limited",
        RerankError::Server(ServerError::Unavailable { .. }) => "server_unavailable",
        RerankError::Server(ServerError::Unsupported(_)) => "server_unsupported",
        RerankError::Server(ServerError::InvalidQuery { .. }) => "server_invalid_query",
        RerankError::RetriesExhausted { .. } => "retries_exhausted",
        RerankError::Unplannable { .. } => "unplannable",
    }
}

// ------------------------------------------------------- per-call bodies
//
// Written straight into a `String` and read straight off the text. Each
// writer puts an object's members in ascending key order, the order the
// tree encodes a `BTreeMap` in (`ObjWriter` asserts it in debug builds).
// Each reader reads an object's members in whatever order they come, keeps
// the last of a duplicate, skips the ones it does not know, and reads a
// member it refuses through to its end, so that text which is not JSON
// anywhere in the body is a `ParseError` first, as it is for `parse`.

/// What a reader makes of a value: `Err` if the text is not JSON, else the
/// decoded value or, as [`WireResult`], why its meaning is refused.
pub type Read<T> = Result<WireResult<T>, ParseError>;

/// A member as the last of its occurrences left it: `None` if it never
/// came, `Some(None)` if it was not of the kind (`a string`, …) expected.
fn want_kind<T>(slot: Option<Option<T>>, key: &str, kind: &str) -> WireResult<T> {
    match slot {
        None => Err(format!("missing member '{key}'")),
        Some(None) => Err(format!("member '{key}' is not {kind}")),
        Some(Some(v)) => Ok(v),
    }
}

const COUNTER: &str = "a non-negative integer";

/// A member read by a reader of its own, refused if it never came.
fn want_read<T>(slot: Option<WireResult<T>>, key: &str) -> WireResult<T> {
    slot.unwrap_or_else(|| Err(format!("missing member '{key}'")))
}

/// Read an array, each item through `each` and on to `keep`; the first
/// item refused is the array's refusal, and the rest are still read
/// through (and not kept).
fn read_items<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    mut each: impl FnMut(&mut Reader<'a>) -> Read<T>,
    mut keep: impl FnMut(T),
) -> Read<()> {
    if !r.array()? {
        return Ok(Err(format!("member '{key}' is not an array")));
    }
    let mut refused = Ok(());
    while r.item()? {
        match (each(r)?, &refused) {
            (Ok(item), Ok(())) => keep(item),
            (Err(e), Ok(())) => refused = Err(e),
            (_, Err(_)) => {}
        }
    }
    Ok(refused)
}

/// Read an array into a `Vec`, as [`read_items`] reads it.
fn read_vec<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    each: impl FnMut(&mut Reader<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    let mut items = Vec::new();
    Ok(read_items(r, key, each, |item| items.push(item))?.map(|()| items))
}

/// Read an array of plain values as [`read_vec`] does, into a stack buffer
/// first, so that what it returns is allocated once at its exact size: a
/// tuple's `ords` and `cats` go straight into [`Tuple::new`]'s boxes, with
/// no growth on the way and no shrink at the end.
fn read_exact_size<'a, T: Copy + Default>(
    r: &mut Reader<'a>,
    key: &str,
    each: impl FnMut(&mut Reader<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    /// Items held on the stack; a longer array spills to a growing `Vec`.
    const STACK: usize = 16;
    let (mut stack, mut len, mut spill) = ([T::default(); STACK], 0, Vec::new());
    let read = read_items(r, key, each, |item| {
        if len < STACK {
            stack[len] = item;
            len += 1;
        } else {
            if spill.is_empty() {
                spill.extend_from_slice(&stack);
            }
            spill.push(item);
        }
    })?;
    Ok(read.map(|()| {
        if spill.is_empty() {
            stack[..len].to_vec()
        } else {
            spill
        }
    }))
}

fn read_code(r: &mut Reader) -> Read<u32> {
    let code = r.u64()?.filter(|c| *c <= u32::MAX as u64);
    Ok(code
        .map(|c| c as u32)
        .ok_or_else(|| "bad categorical code".into()))
}

fn write_ledger(out: &mut String, (queries, cost_units): (u64, u64)) {
    let mut o = ObjWriter::new(out);
    write_u64(o.key("cost_units"), cost_units);
    write_u64(o.key("queries"), queries);
    o.end();
}

fn read_ledger(r: &mut Reader) -> Read<(u64, u64)> {
    let (mut queries, mut cost_units) = (None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "queries" => queries = Some(r.u64()?),
                "cost_units" => cost_units = Some(r.u64()?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let queries = want_kind(queries, "queries", COUNTER)?;
        Ok((queries, want_kind(cost_units, "cost_units", COUNTER)?))
    })())
}

fn write_tuple(out: &mut String, t: &Tuple) {
    let mut o = ObjWriter::new(out);
    write_arr(o.key("cats"), t.cats(), |out, c| write_u64(out, *c as u64));
    write_u64(o.key("id"), t.id.0 as u64);
    write_arr(o.key("ords"), t.ords(), |out, v| write_num(out, *v));
    o.end();
}

fn read_tuple(r: &mut Reader) -> Read<Tuple> {
    let (mut id, mut ords, mut cats) = (None, None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "id" => id = Some(r.u64()?),
                "ords" => {
                    let ordinal =
                        |r: &mut Reader| Ok(r.f64()?.ok_or_else(|| "non-numeric ordinal".into()));
                    ords = Some(read_exact_size(r, "ords", ordinal)?);
                }
                "cats" => cats = Some(read_exact_size(r, "cats", read_code)?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let id = want_kind(id, "id", COUNTER)?;
        if id > u32::MAX as u64 {
            return Err("tuple id out of range".into());
        }
        let (ords, cats) = (want_read(ords, "ords")?, want_read(cats, "cats")?);
        Ok(Tuple::new(TupleId(id as u32), ords, cats))
    })())
}

fn write_tuples(out: &mut String, tuples: &[Arc<Tuple>]) {
    write_arr(out, tuples, |out, t| write_tuple(out, t));
}

fn read_tuples(r: &mut Reader) -> Read<Vec<Arc<Tuple>>> {
    read_vec(r, "tuples", |r| Ok(read_tuple(r)?.map(Arc::new)))
}

fn write_endpoint(out: &mut String, e: Endpoint) {
    let mut o = ObjWriter::new(out);
    match e {
        Endpoint::Unbounded => write_str(o.key("kind"), "unbounded"),
        Endpoint::Open(v) => {
            write_str(o.key("kind"), "open");
            write_num(o.key("v"), v);
        }
        Endpoint::Closed(v) => {
            write_str(o.key("kind"), "closed");
            write_num(o.key("v"), v);
        }
    }
    o.end();
}

fn read_endpoint(r: &mut Reader) -> Read<Endpoint> {
    let (mut kind, mut v) = (None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "kind" => kind = Some(r.str()?),
                "v" => v = Some(r.f64()?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| match &*want_kind(kind, "kind", "a string")? {
        "unbounded" => Ok(Endpoint::Unbounded),
        "open" => Ok(Endpoint::Open(want_kind(v, "v", "a number")?)),
        "closed" => Ok(Endpoint::Closed(want_kind(v, "v", "a number")?)),
        other => Err(format!("unknown endpoint kind '{other}'")),
    })())
}

fn write_query(out: &mut String, q: &Query) {
    let mut o = ObjWriter::new(out);
    write_arr(o.key("cats"), q.cats(), |out, p| {
        let mut o = ObjWriter::new(out);
        write_u64(o.key("attr"), p.attr.0 as u64);
        write_arr(o.key("codes"), p.codes(), |out, c| {
            write_u64(out, *c as u64)
        });
        o.end();
    });
    write_arr(o.key("ranges"), q.ranges(), |out, p| {
        let mut o = ObjWriter::new(out);
        write_u64(o.key("attr"), p.attr.0 as u64);
        write_endpoint(o.key("hi"), p.interval.hi);
        write_endpoint(o.key("lo"), p.interval.lo);
        o.end();
    });
    o.end();
}

fn read_range(r: &mut Reader) -> Read<(AttrId, Interval)> {
    let (mut attr, mut lo, mut hi) = (None, None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "attr" => attr = Some(r.u64()?),
                "lo" => lo = Some(read_endpoint(r)?),
                "hi" => hi = Some(read_endpoint(r)?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let attr = AttrId(want_kind(attr, "attr", COUNTER)? as usize);
        let (lo, hi) = (want_read(lo, "lo")?, want_read(hi, "hi")?);
        Ok((attr, Interval { lo, hi }))
    })())
}

fn read_cat(r: &mut Reader) -> Read<CatPredicate> {
    let (mut attr, mut codes) = (None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "attr" => attr = Some(r.u64()?),
                "codes" => codes = Some(read_vec(r, "codes", read_code)?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let attr = CatId(want_kind(attr, "attr", COUNTER)? as usize);
        Ok(CatPredicate::one_of(attr, want_read(codes, "codes")?))
    })())
}

/// Read a conjunctive query, as [`query_from_json`] decodes one.
fn read_query(r: &mut Reader) -> Read<Query> {
    let (mut ranges, mut cats) = (None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "ranges" => ranges = Some(read_vec(r, "ranges", read_range)?),
                "cats" => cats = Some(read_vec(r, "cats", read_cat)?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let mut q = Query::all();
        for (attr, interval) in want_read(ranges, "ranges")? {
            q.add_range(attr, interval);
        }
        for p in want_read(cats, "cats")? {
            q.add_cat(p);
        }
        Ok(q)
    })())
}

/// The body of a `/site/query` request (no `order`, no `page`), a
/// `/site/page` request (`page`) or a `/site/ordered` request (both).
pub fn site_request(q: &Query, order: Option<(AttrId, Direction)>, page: Option<usize>) -> String {
    // About what a range and a categorical predicate take to write.
    let predicates = 104 * q.ranges().len() + 48 * q.cats().len();
    let mut out = String::with_capacity(96 + predicates);
    let mut o = ObjWriter::new(&mut out);
    if let Some((attr, dir)) = order {
        write_u64(o.key("attr"), attr.0 as u64);
        write_str(o.key("dir"), direction_str(dir));
    }
    if let Some(page) = page {
        write_u64(o.key("page"), page as u64);
    }
    write_query(o.key("query"), q);
    o.end();
    out
}

/// A `/site/*` request body as read: each member as the last of its
/// occurrences left it, for the route to check what it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRequest {
    /// `query`, decoded, or why it is refused (`missing 'query'`, …).
    pub query: WireResult<Query>,
    /// `page`, if it is a non-negative integer.
    pub page: Option<usize>,
    /// `attr`, if it is a non-negative integer.
    pub attr: Option<usize>,
    /// `dir`, if it is `"asc"` or `"desc"`.
    pub dir: Option<Direction>,
}

/// Read a `/site/query`, `/site/page` or `/site/ordered` request body.
pub fn read_site_request(text: &str) -> Result<SiteRequest, ParseError> {
    Reader::read(text, |r| {
        let (mut query, mut page, mut attr, mut dir) = (None, None, None, None);
        if r.object()? {
            while let Some(key) = r.key()? {
                match &*key {
                    "query" => query = Some(read_query(r)?),
                    "page" => page = r.u64()?.map(|n| n as usize),
                    "attr" => attr = r.u64()?.map(|n| n as usize),
                    "dir" => dir = r.str()?.and_then(|d| direction_from_str(&d)),
                    _ => r.skip()?,
                }
            }
        }
        let query = query.unwrap_or_else(|| Err("missing 'query'".into()));
        Ok(SiteRequest {
            query,
            page,
            attr,
            dir,
        })
    })
}

fn write_response(out: &mut String, r: &QueryResponse) {
    let mut o = ObjWriter::new(out);
    write_str(o.key("outcome"), outcome_str(r.outcome));
    write_tuples(o.key("tuples"), &r.tuples);
    o.end();
}

/// Read a top-k response, as [`response_from_json`] decodes one.
fn read_response(r: &mut Reader) -> Read<QueryResponse> {
    let (mut tuples, mut outcome) = (None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "tuples" => tuples = Some(read_tuples(r)?),
                "outcome" => outcome = Some(r.str()?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let tuples = want_read(tuples, "tuples")?;
        let outcome = outcome_from_str(&want_kind(outcome, "outcome", "a string")?)?;
        Ok(QueryResponse { tuples, outcome })
    })())
}

/// Read an `ORDER BY` page: `{tuples, has_more}`.
fn read_ordered_page(r: &mut Reader) -> Read<OrderedPage> {
    let (mut tuples, mut has_more) = (None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "tuples" => tuples = Some(read_tuples(r)?),
                "has_more" => has_more = Some(r.bool()?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let tuples = want_read(tuples, "tuples")?;
        let has_more = want_kind(has_more, "has_more", "a boolean")?;
        Ok(OrderedPage { tuples, has_more })
    })())
}

/// Room for `tuples` tuples of a typical site in a reply.
fn reply_capacity(tuples: &[Arc<Tuple>]) -> usize {
    let per_tuple = tuples
        .first()
        .map_or(0, |t| 40 + 24 * t.ords().len() + 11 * t.cats().len());
    96 + per_tuple * tuples.len()
}

/// The `200` reply to `/site/query` or `/site/page`: `{ledger, response}`,
/// the ledger the site's cumulative counters after the call.
pub fn site_response_reply(r: &QueryResponse, ledger: (u64, u64)) -> String {
    let mut out = String::with_capacity(reply_capacity(&r.tuples));
    let mut o = ObjWriter::new(&mut out);
    write_ledger(o.key("ledger"), ledger);
    write_response(o.key("response"), r);
    o.end();
    out
}

/// The `200` reply to `/site/ordered`: `{ledger, page}`, the page as
/// `{has_more, tuples}`.
pub fn site_page_reply(p: &OrderedPage, ledger: (u64, u64)) -> String {
    let mut out = String::with_capacity(reply_capacity(&p.tuples));
    let mut o = ObjWriter::new(&mut out);
    write_ledger(o.key("ledger"), ledger);
    let mut page = ObjWriter::new(o.key("page"));
    write_bool(page.key("has_more"), p.has_more);
    write_tuples(page.key("tuples"), &p.tuples);
    page.end();
    o.end();
    out
}

/// A `200` `/site/*` reply as read: the cumulative ledger, if it decodes,
/// and the body member.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteReply<T> {
    /// The site's cumulative `(queries, cost_units)`.
    pub ledger: Option<(u64, u64)>,
    /// The body member, decoded, or why it is refused.
    pub body: WireResult<T>,
}

/// Read a `200` `/site/query` or `/site/page` reply.
pub fn read_response_reply(text: &str) -> Result<SiteReply<QueryResponse>, ParseError> {
    read_site_reply(text, "response", read_response)
}

/// Read a `200` `/site/ordered` reply.
pub fn read_page_reply(text: &str) -> Result<SiteReply<OrderedPage>, ParseError> {
    read_site_reply(text, "page", read_ordered_page)
}

/// Read a `200` `/site/*` reply whose body member `key` is read by `read`.
fn read_site_reply<'a, T>(
    text: &'a str,
    key: &str,
    read: fn(&mut Reader<'a>) -> Read<T>,
) -> Result<SiteReply<T>, ParseError> {
    Reader::read(text, |r| {
        let (mut ledger, mut body) = (None, None);
        if r.object()? {
            while let Some(k) = r.key()? {
                if k == "ledger" {
                    ledger = Some(read_ledger(r)?);
                } else if k == key {
                    body = Some(read(r)?);
                } else {
                    r.skip()?;
                }
            }
        }
        Ok(SiteReply {
            ledger: ledger.and_then(Result::ok),
            body: body.unwrap_or_else(|| Err(format!("missing '{key}'"))),
        })
    })
}

/// One decoded `/v1/rerank` outcome: hit tuples with their ranks and
/// scores, the exact per-session ledger, and the typed error code if the
/// request stopped early.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// `(rank, score, tuple)` triples, in emission order.
    pub hits: Vec<(usize, f64, Tuple)>,
    /// Raw queries this request was charged.
    pub queries_spent: u64,
    /// Weighted cost units this request was charged.
    pub cost_units_spent: u64,
    /// Queries the knowledge plane saved this request (a sealed stream's
    /// replay credit).
    pub queries_saved: u64,
    /// The stable error code (`"budget_exhausted"`, `"unplannable"`, …) if
    /// the request stopped early; `None` on success.
    pub error_code: Option<String>,
}

/// A decoded `/v1/rerank` reply: per-request outcomes plus the tenant's
/// cumulative ledger after charging.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatchReply {
    /// One outcome per request, in request order.
    pub outcomes: Vec<WireOutcome>,
    /// The tenant's cumulative `(queries, cost_units)` after this batch.
    pub tenant: (u64, u64),
}

fn write_stats(out: &mut String, s: &SessionStats) {
    let mut o = ObjWriter::new(out);
    write_u64(o.key("attempts_made"), s.attempts_made);
    if let Some(limit) = s.budget_limit {
        write_u64(o.key("budget_limit"), limit);
    }
    write_u64(o.key("cost_units_saved"), s.cost_units_saved);
    write_u64(o.key("cost_units_spent"), s.cost_units_spent);
    write_u64(o.key("emitted"), s.emitted as u64);
    write_u64(o.key("queries_saved"), s.queries_saved);
    write_u64(o.key("queries_spent"), s.queries_spent);
    write_u64(o.key("retries_spent"), s.retries_spent);
    o.end();
}

/// A per-request rerank failure: `{code, message, retry_after_ms?}`. The
/// code is stable vocabulary; the message is the human-readable `Display`
/// rendering (which carries the variant's payload).
fn write_rerank_error(out: &mut String, e: &RerankError) {
    let mut o = ObjWriter::new(out);
    write_str(o.key("code"), rerank_error_code(e));
    write_str(o.key("message"), &e.to_string());
    if let Some(ms) = e.retry_after_hint() {
        write_u64(o.key("retry_after_ms"), ms);
    }
    o.end();
}

fn write_outcome(out: &mut String, b: &BatchOutcome) {
    let mut o = ObjWriter::new(out);
    if let Some(e) = &b.error {
        write_rerank_error(o.key("error"), e);
    }
    write_arr(o.key("hits"), &b.hits, |out, h| {
        let mut o = ObjWriter::new(out);
        write_u64(o.key("rank"), h.rank as u64);
        write_num(o.key("score"), h.score);
        write_tuple(o.key("tuple"), &h.tuple);
        o.end();
    });
    write_stats(o.key("stats"), &b.stats);
    write_num(o.key("wall_ms"), b.wall_ms);
    o.end();
}

/// The `200` reply to `/v1/rerank`: `{outcomes, tenant}`, one outcome
/// (`{error?, hits, stats, wall_ms}`) per request and the tenant's
/// cumulative ledger after charging.
pub fn rerank_reply(outcomes: &[BatchOutcome], tenant: (u64, u64)) -> String {
    let hits = outcomes.iter().map(|o| o.hits.len()).sum::<usize>();
    let mut out = String::with_capacity(96 + 320 * outcomes.len() + 160 * hits);
    let mut o = ObjWriter::new(&mut out);
    write_arr(o.key("outcomes"), outcomes, write_outcome);
    write_ledger(o.key("tenant"), tenant);
    o.end();
    out
}

fn read_hit(r: &mut Reader) -> Read<(usize, f64, Tuple)> {
    let (mut rank, mut score, mut tuple) = (None, None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "rank" => rank = r.u64()?,
                "score" => score = r.f64()?,
                "tuple" => tuple = Some(read_tuple(r)?),
                _ => r.skip()?,
            }
        }
    }
    Ok((|| {
        let rank = rank.ok_or("missing rank")? as usize;
        let score = score.ok_or("missing score")?;
        Ok((rank, score, tuple.ok_or("missing tuple")??))
    })())
}

/// `stats`' three counters a client keeps, `0` for any it does not find.
fn read_stats(r: &mut Reader) -> Result<[u64; 3], ParseError> {
    let mut counters = [0; 3];
    if r.object()? {
        while let Some(key) = r.key()? {
            let at = ["queries_spent", "cost_units_spent", "queries_saved"]
                .iter()
                .position(|name| *name == key);
            match at {
                Some(at) => counters[at] = r.u64()?.unwrap_or(0),
                None => r.skip()?,
            }
        }
    }
    Ok(counters)
}

/// An outcome's `error.code`, if it has one that is a string.
fn read_error_code(r: &mut Reader) -> Result<Option<String>, ParseError> {
    let mut code = None;
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "code" => code = r.str()?.map(|c| c.into_owned()),
                _ => r.skip()?,
            }
        }
    }
    Ok(code)
}

fn read_outcome(r: &mut Reader) -> Read<WireOutcome> {
    let (mut hits, mut stats, mut error_code) = (None, None, None);
    if r.object()? {
        while let Some(key) = r.key()? {
            match &*key {
                "hits" => hits = Some(read_vec(r, "hits", read_hit)?),
                "stats" => stats = Some(read_stats(r)?),
                "error" => error_code = Some(read_error_code(r)?),
                _ => r.skip()?,
            }
        }
    }
    let outcome = (|| {
        let hits = hits.ok_or("missing hits")??;
        let [queries_spent, cost_units_spent, queries_saved] = stats.ok_or("missing stats")?;
        Ok(WireOutcome {
            hits,
            queries_spent,
            cost_units_spent,
            queries_saved,
            error_code: error_code.flatten(),
        })
    })();
    Ok(outcome.map_err(|e: String| format!("bad outcome: {e}")))
}

/// Read a `200` reply to `/v1/rerank`.
pub fn read_rerank_reply(text: &str) -> Read<WireBatchReply> {
    Reader::read(text, |r| {
        let (mut outcomes, mut tenant) = (None, None);
        if r.object()? {
            while let Some(key) = r.key()? {
                match &*key {
                    "outcomes" => outcomes = Some(read_vec(r, "outcomes", read_outcome)?),
                    "tenant" => tenant = Some(read_ledger(r)?),
                    _ => r.skip()?,
                }
            }
        }
        Ok((|| {
            let outcomes = outcomes.ok_or("missing 'outcomes'")??;
            let tenant = tenant.and_then(Result::ok);
            let tenant = tenant.ok_or("missing 'tenant' ledger")?;
            Ok(WireBatchReply { outcomes, tenant })
        })())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::RangePredicate;

    fn tuple() -> Tuple {
        Tuple::new(TupleId(42), vec![0.1, 2.0 / 3.0, -1e300], vec![3, 0])
    }

    #[test]
    fn tuples_round_trip_bit_exactly() {
        let t = tuple();
        let back = tuple_from_json(&tuple_to_json(&t)).unwrap();
        assert_eq!(back.id, t.id);
        assert_eq!(back.cats(), t.cats());
        for (a, b) in t.ords().iter().zip(back.ords()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn queries_round_trip() {
        let q = Query::all()
            .and_range(AttrId(0), Interval::open(0.25, 0.75))
            .and_range(AttrId(2), Interval::at_least(-3.5))
            .and_cat(CatPredicate::one_of(CatId(1), vec![0, 4, 9]));
        let back = query_from_json(&query_to_json(&q)).unwrap();
        assert_eq!(back, q);
        // The degenerate all-query survives too.
        assert_eq!(
            query_from_json(&query_to_json(&Query::all())).unwrap(),
            Query::all()
        );
        let _ = RangePredicate::new(AttrId(0), Interval::all());
    }

    #[test]
    fn schemas_and_capabilities_round_trip() {
        let s = Schema::new(
            vec![
                OrdinalAttr::new("price", 0.0, 100.0),
                OrdinalAttr::point_only("stops", vec![0.0, 1.0, 2.0]),
            ],
            vec![CatAttr::new("carrier", 5)],
        );
        let back = schema_from_json(&schema_to_json(&s)).unwrap();
        assert_eq!(back, s);

        let c = Capabilities {
            mutation_feed: true,
            ..Capabilities::none()
                .with_paging()
                .with_order_by(vec![AttrId(1)])
                .with_max_pages(20)
                .with_max_predicates(3)
                .with_filter(AttrId(0), FilterSupport::Point)
                .with_cost_model(CostModel::flat().with_base(2).with_point_cost(1))
        };
        let back = capabilities_from_json(&capabilities_to_json(&c)).unwrap();
        assert_eq!(back, c);
        // The bare default round-trips too (all options None/empty).
        let bare = Capabilities::none();
        assert_eq!(
            capabilities_from_json(&capabilities_to_json(&bare)).unwrap(),
            bare
        );
    }

    /// A depth or arity cap of zero is a site `SimServer::with_capabilities`
    /// refuses and no plan can use: refused at decode too, so
    /// `HttpSiteAdapter::connect` fails typed instead of planning on it.
    #[test]
    fn zero_page_and_predicate_caps_are_refused_at_decode() {
        for (key, caps) in [
            (
                "max_pages",
                Capabilities::none().with_paging().with_max_pages(0),
            ),
            (
                "max_predicates",
                Capabilities::none().with_max_predicates(0),
            ),
        ] {
            let e = capabilities_from_json(&capabilities_to_json(&caps)).unwrap_err();
            assert!(e.contains(key), "{e}");
        }
        let ones = (Capabilities::none().with_paging())
            .with_max_pages(1)
            .with_max_predicates(1);
        let back = capabilities_from_json(&capabilities_to_json(&ones)).unwrap();
        assert_eq!(back, ones);
    }

    /// A point-only attribute is reachable only through its value list: a
    /// site schema without one (or with an empty or unsorted one) is
    /// refused at decode, not trusted until a cursor's `expect` panics
    /// inside the service.
    #[test]
    fn point_only_attributes_need_a_walkable_value_list() {
        let schema = |values: &str| {
            crate::json::parse(&format!(
                r#"{{"ordinal":[{{"name":"stops","min":0,"max":2,"point_only":true{values}}}],
                    "categorical":[]}}"#
            ))
            .unwrap()
        };
        let bad: Vec<String> = [
            "",
            r#","values":null"#,
            r#","values":[]"#,
            r#","values":[2,1]"#,
            r#","values":[1,1]"#,
        ]
        .into_iter()
        .map(|values| schema_from_json(&schema(values)).unwrap_err())
        .collect();
        assert!(bad.iter().all(|e| e.contains("'stops'")), "{bad:?}");
        assert!(schema_from_json(&schema(r#","values":[0,1,2]"#)).is_ok());
        // Value lists on range attributes stay advisory.
        let mut ranged = OrdinalAttr::new("price", 0.0, 2.0);
        ranged.values = Some(vec![2.0, 1.0]);
        let body = schema_to_json(&Schema::new(vec![ranged], vec![]));
        assert!(schema_from_json(&body).is_ok());
    }

    #[test]
    fn responses_pages_and_logs_round_trip() {
        let r = QueryResponse::new(vec![Arc::new(tuple())], true);
        let back = response_from_json(&response_to_json(&r)).unwrap();
        assert_eq!(back.outcome, QueryOutcome::Overflow);
        assert_eq!(back.tuples.len(), 1);
        let r = QueryResponse::underflow();
        assert!(response_from_json(&response_to_json(&r))
            .unwrap()
            .is_underflow());

        let p = OrderedPage {
            tuples: vec![Arc::new(tuple())],
            has_more: true,
        };
        let reply = site_page_reply(&p, (3, 7));
        let back = read_page_reply(&reply).unwrap();
        assert_eq!(back.ledger, Some((3, 7)));
        let back = back.body.unwrap();
        assert!(back.has_more);
        assert_eq!(back.tuples[0].id, TupleId(42));

        let log = MutationLog {
            deltas: vec![
                Mutation {
                    seq: 1,
                    kind: MutationKind::Insert(Arc::new(tuple())),
                },
                Mutation {
                    seq: 2,
                    kind: MutationKind::Delete(TupleId(42)),
                },
                Mutation {
                    seq: 3,
                    kind: MutationKind::Update(Arc::new(tuple())),
                },
            ],
            gap: true,
        };
        let back = mutation_log_from_json(&mutation_log_to_json(&log)).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn server_errors_round_trip_with_exact_statuses() {
        let cases = vec![
            (
                ServerError::RateLimited {
                    retry_after_ms: Some(1500),
                },
                429,
            ),
            (
                ServerError::RateLimited {
                    retry_after_ms: None,
                },
                429,
            ),
            (ServerError::unavailable("mid-flight drop"), 503),
            (
                ServerError::Unsupported(Capability::OrderBy(AttrId(3))),
                501,
            ),
            (ServerError::Unsupported(Capability::PredicateArity(4)), 501),
            (ServerError::invalid_query("range on point-only attr"), 400),
        ];
        for (e, status) in cases {
            assert_eq!(server_error_status(&e), status);
            let back = server_error_from_json(&server_error_to_json(&e)).unwrap();
            assert_eq!(back, e, "round trip for {e}");
        }
        // The Retry-After header is whole seconds, rounded up.
        let resp = server_error_response(
            &ServerError::RateLimited {
                retry_after_ms: Some(1500),
            },
            ledger_json(3, 7),
        );
        assert_eq!(resp.header("retry-after"), Some("2"));
        let body = crate::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            ledger_from_json(body.get("ledger").unwrap()).unwrap(),
            (3, 7)
        );
    }

    #[test]
    fn rerank_error_codes_are_stable() {
        assert_eq!(
            rerank_error_code(&RerankError::BudgetExhausted { spent: 1, limit: 1 }),
            "budget_exhausted"
        );
        let e = RerankError::Server(ServerError::RateLimited {
            retry_after_ms: Some(9),
        });
        let mut text = String::new();
        write_rerank_error(&mut text, &e);
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("server_rate_limited"));
        assert_eq!(v.get("retry_after_ms").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn strict_decoding_names_the_offending_member() {
        let e = query_from_json(&Json::obj(vec![("ranges", Json::Arr(vec![]))])).unwrap_err();
        assert!(e.contains("cats"), "{e}");
        let e = tuple_from_json(&Json::obj(vec![("id", Json::str("x"))])).unwrap_err();
        assert!(e.contains("id"), "{e}");
    }

    /// SplitMix64: a deterministic stream of random values.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A number, the edges of the writer's two paths among them.
        fn f64(&mut self) -> f64 {
            let two53 = 2f64.powi(53);
            match self.below(14) {
                0 => -0.0,
                1 => two53,
                2 => two53 + 2.0,
                3 => -two53,
                4 => 1e300,
                5 => 5e-324,
                6 => f64::NAN,
                7 => f64::INFINITY,
                8 => f64::NEG_INFINITY,
                9 => self.below(1000) as f64,
                10 => -(self.below(1 << 60) as f64),
                11 => f64::from_bits(self.next()),
                _ => self.next() as f64 / u64::MAX as f64,
            }
        }

        fn counter(&mut self) -> u64 {
            match self.below(4) {
                0 => u64::MAX - self.below(3),
                1 => (1 << 53) + self.below(3),
                _ => self.below(1 << 20),
            }
        }

        fn code(&mut self) -> u32 {
            match self.below(5) {
                0 => u32::MAX,
                _ => self.below(40) as u32,
            }
        }

        fn endpoint(&mut self) -> Endpoint {
            match self.below(3) {
                0 => Endpoint::Unbounded,
                1 => Endpoint::Open(self.f64()),
                _ => Endpoint::Closed(self.f64()),
            }
        }

        fn query(&mut self) -> Query {
            let mut q = Query::all();
            for _ in 0..self.below(4) {
                let interval = Interval {
                    lo: self.endpoint(),
                    hi: self.endpoint(),
                };
                q.add_range(AttrId(self.below(6) as usize), interval);
            }
            for _ in 0..self.below(3) {
                let codes = (0..self.below(4)).map(|_| self.code()).collect();
                q.add_cat(CatPredicate::one_of(CatId(self.below(4) as usize), codes));
            }
            q
        }

        fn tuple(&mut self) -> Arc<Tuple> {
            let id = TupleId(if self.below(6) == 0 {
                u32::MAX
            } else {
                self.below(5000) as u32
            });
            let ords = (0..self.below(5)).map(|_| self.f64()).collect();
            let cats = (0..self.below(4)).map(|_| self.code()).collect();
            Arc::new(Tuple::new(id, ords, cats))
        }

        fn tuples(&mut self) -> Vec<Arc<Tuple>> {
            (0..self.below(5)).map(|_| self.tuple()).collect()
        }

        fn response(&mut self) -> QueryResponse {
            let outcome = match self.below(3) {
                0 => QueryOutcome::Underflow,
                1 => QueryOutcome::Valid,
                _ => QueryOutcome::Overflow,
            };
            QueryResponse {
                tuples: self.tuples(),
                outcome,
            }
        }

        fn outcome(&mut self) -> BatchOutcome {
            let hits = (0..self.below(4))
                .map(|i| qrs_service::RankedTuple {
                    rank: i as usize + 1,
                    score: self.f64(),
                    tuple: self.tuple(),
                })
                .collect();
            let error = match self.below(4) {
                0 => Some(RerankError::BudgetExhausted {
                    spent: self.counter(),
                    limit: self.counter(),
                }),
                1 => Some(RerankError::Server(ServerError::RateLimited {
                    retry_after_ms: Some(self.counter()),
                })),
                2 => Some(RerankError::InvalidAlgorithm {
                    reason: "say \"why\"\n\ttab \u{1} é".into(),
                }),
                _ => None,
            };
            let stats = SessionStats {
                emitted: self.below(100) as usize,
                queries_spent: self.counter(),
                cost_units_spent: self.counter(),
                queries_saved: self.counter(),
                cost_units_saved: self.counter(),
                attempts_made: self.counter(),
                retries_spent: self.counter(),
                budget_limit: (self.below(2) == 0).then(|| self.counter()),
            };
            BatchOutcome {
                hits,
                error,
                stats,
                wall_ms: self.f64(),
            }
        }
    }

    // The tree forms the per-call writers replaced, as they encoded.

    fn tree_ordered_page(p: &OrderedPage) -> Json {
        Json::obj(vec![
            (
                "tuples",
                Json::Arr(p.tuples.iter().map(|t| tuple_to_json(t)).collect()),
            ),
            ("has_more", Json::Bool(p.has_more)),
        ])
    }

    fn tree_outcome(o: &BatchOutcome) -> Json {
        let s = &o.stats;
        let mut stats = vec![
            ("emitted", Json::u64(s.emitted as u64)),
            ("queries_spent", Json::u64(s.queries_spent)),
            ("cost_units_spent", Json::u64(s.cost_units_spent)),
            ("queries_saved", Json::u64(s.queries_saved)),
            ("cost_units_saved", Json::u64(s.cost_units_saved)),
            ("attempts_made", Json::u64(s.attempts_made)),
            ("retries_spent", Json::u64(s.retries_spent)),
        ];
        if let Some(limit) = s.budget_limit {
            stats.push(("budget_limit", Json::u64(limit)));
        }
        let hits = o.hits.iter().map(|h| {
            Json::obj(vec![
                ("rank", Json::u64(h.rank as u64)),
                ("score", Json::Num(h.score)),
                ("tuple", tuple_to_json(&h.tuple)),
            ])
        });
        let mut members = vec![
            ("hits", Json::Arr(hits.collect())),
            ("stats", Json::obj(stats)),
            ("wall_ms", Json::Num(o.wall_ms)),
        ];
        if let Some(e) = &o.error {
            let mut error = vec![
                ("code", Json::str(rerank_error_code(e))),
                ("message", Json::str(e.to_string())),
            ];
            if let Some(ms) = e.retry_after_hint() {
                error.push(("retry_after_ms", Json::u64(ms)));
            }
            members.push(("error", Json::obj(error)));
        }
        Json::obj(members)
    }

    fn ledger(rng: &mut Rng) -> (u64, u64) {
        (rng.counter(), rng.counter())
    }

    /// Every per-call writer writes, byte for byte, what the tree form of
    /// the same value encodes to.
    #[test]
    fn per_call_writers_write_the_trees_bytes() {
        let mut rng = Rng(0xB0D1E5);
        for _ in 0..2000 {
            let q = rng.query();
            let (page, attr) = (rng.counter() as usize, AttrId(rng.below(9) as usize));
            let dir = [Direction::Asc, Direction::Desc][rng.below(2) as usize];
            let query = || ("query", query_to_json(&q));
            let requests = [
                (site_request(&q, None, None), Json::obj(vec![query()])),
                (
                    site_request(&q, None, Some(page)),
                    Json::obj(vec![query(), ("page", Json::u64(page as u64))]),
                ),
                (
                    site_request(&q, Some((attr, dir)), Some(page)),
                    Json::obj(vec![
                        query(),
                        ("attr", Json::u64(attr.0 as u64)),
                        ("dir", direction_to_json(dir)),
                        ("page", Json::u64(page as u64)),
                    ]),
                ),
            ];
            for (written, tree) in requests {
                assert_eq!(written, tree.encode());
            }

            let (r, l) = (rng.response(), ledger(&mut rng));
            let tree = Json::obj(vec![
                ("response", response_to_json(&r)),
                ("ledger", ledger_json(l.0, l.1)),
            ]);
            assert_eq!(site_response_reply(&r, l), tree.encode());

            let p = OrderedPage {
                tuples: rng.tuples(),
                has_more: rng.below(2) == 0,
            };
            let l = ledger(&mut rng);
            let tree = Json::obj(vec![
                ("page", tree_ordered_page(&p)),
                ("ledger", ledger_json(l.0, l.1)),
            ]);
            assert_eq!(site_page_reply(&p, l), tree.encode());

            let outcomes: Vec<BatchOutcome> = (0..rng.below(4)).map(|_| rng.outcome()).collect();
            let tenant = ledger(&mut rng);
            let tree = Json::obj(vec![
                (
                    "outcomes",
                    Json::Arr(outcomes.iter().map(tree_outcome).collect()),
                ),
                ("tenant", ledger_json(tenant.0, tenant.1)),
            ]);
            assert_eq!(rerank_reply(&outcomes, tenant), tree.encode());
        }
    }

    /// What the per-call writers write, the per-call readers read back as
    /// the tree decoders do: the same values, or a refusal from both (a
    /// `NaN` written as `null` is no number to either).
    #[test]
    fn per_call_readers_read_what_the_tree_decodes() {
        let same = |a: &WireResult<QueryResponse>, b: &WireResult<QueryResponse>| match (a, b) {
            (Ok(a), Ok(b)) => response_to_json(a).encode() == response_to_json(b).encode(),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let mut rng = Rng(0x2EAD);
        let (mut accepted, mut refused) = (0, 0);
        for _ in 0..2000 {
            let q = rng.query();
            let text = site_request(&q, None, Some(rng.below(9) as usize));
            let read = read_site_request(&text).unwrap();
            let tree = crate::json::parse(&text).unwrap();
            let want = query_from_json(tree.get("query").unwrap());
            match (&read.query, &want) {
                (Ok(a), Ok(b)) => assert_eq!(
                    query_to_json(a).encode(),
                    query_to_json(b).encode(),
                    "{text}"
                ),
                (a, b) => assert_eq!(a.is_err(), b.is_err(), "{text}"),
            }
            assert_eq!(read.page, tree.get("page").and_then(Json::as_usize));

            let text = site_response_reply(&rng.response(), ledger(&mut rng));
            let read = read_response_reply(&text).unwrap();
            let tree = crate::json::parse(&text).unwrap();
            let want = response_from_json(tree.get("response").unwrap());
            assert!(same(&read.body, &want), "{text}");
            let want_ledger = wire_ledger(&tree);
            assert_eq!(read.ledger, want_ledger, "{text}");
            match read.body {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(accepted > 100 && refused > 100, "{accepted} / {refused}");
    }

    /// A tuple's columns go through a stack buffer: a column longer than it
    /// spills and still reads whole, and a refused item anywhere in one
    /// refuses the tuple, as the tree decoder does.
    #[test]
    fn tuple_columns_of_every_length_read_as_the_tree_decodes() {
        let reply = |ords: &[String], cats: &[String]| {
            let (ords, cats) = (ords.join(","), cats.join(","));
            format!(
                r#"{{"ledger":{{"cost_units":1,"queries":1}},"response":{{"outcome":"valid","tuples":[{{"cats":[{cats}],"id":7,"ords":[{ords}]}}]}}}}"#
            )
        };
        for n in [0u32, 1, 15, 16, 17, 40] {
            let ords: Vec<_> = (0..n).map(|i| (f64::from(i) / 7.0).to_string()).collect();
            let cats: Vec<_> = (0..n).map(|i| (3 * i).to_string()).collect();
            let mut texts = vec![reply(&ords, &cats)];
            // A bad item inside the stack buffer and past it.
            let last = n as usize;
            for at in [0, last / 2, last.saturating_sub(1)]
                .into_iter()
                .filter(|_| n > 0)
            {
                let (mut bad_ords, mut bad_cats) = (ords.clone(), cats.clone());
                bad_ords[at] = "\"x\"".into();
                bad_cats[at] = "-1".into();
                texts.extend([reply(&bad_ords, &cats), reply(&ords, &bad_cats)]);
            }
            for text in &texts {
                let read = read_response_reply(text).unwrap().body;
                let tree = crate::json::parse(text).unwrap();
                let want = response_from_json(tree.get("response").unwrap());
                match (&read, &want) {
                    (Ok(a), Ok(b)) => assert_eq!(a.tuples, b.tuples, "{text}"),
                    _ => assert_eq!(read.is_err(), want.is_err(), "{text}"),
                }
            }
            let read = read_response_reply(&texts[0]).unwrap().body.unwrap();
            let t = &read.tuples[0];
            assert_eq!((t.ords().len(), t.cats().len()), (last, last));
        }
    }

    fn wire_ledger(tree: &Json) -> Option<(u64, u64)> {
        tree.get("ledger").and_then(|l| ledger_from_json(l).ok())
    }
}
