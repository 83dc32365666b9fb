//! The wire vocabulary: domain types ⇄ JSON, and the error ⇄ status map.
//!
//! Every encoder here has a decoder that reconstructs the domain value
//! *exactly* — ordinal values ride as shortest-round-trip decimals
//! ([`crate::json`]), so a `Tuple` that crosses the wire twice is
//! bit-identical to the original. That exactness is what lets the loopback
//! test assert byte-identical result streams rather than "close enough".
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
use crate::json::Json;
use qrs_server::{Capabilities, OrderedPage};
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
    Json::str(match d {
        Direction::Asc => "asc",
        Direction::Desc => "desc",
    })
}

/// Decode a ranking direction; `None` for anything but `"asc"` or
/// `"desc"`, so each caller names the member in its own error.
pub fn direction_from_json(v: &Json) -> Option<Direction> {
    match v.as_str()? {
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

/// Encode an `ORDER BY` page: `{tuples, has_more}`.
pub fn ordered_page_to_json(p: &OrderedPage) -> Json {
    Json::obj(vec![
        (
            "tuples",
            Json::Arr(p.tuples.iter().map(|t| tuple_to_json(t)).collect()),
        ),
        ("has_more", Json::Bool(p.has_more)),
    ])
}

/// Decode an `ORDER BY` page.
pub fn ordered_page_from_json(v: &Json) -> WireResult<OrderedPage> {
    let tuples = want_arr(v, "tuples")?
        .iter()
        .map(|t| tuple_from_json(t).map(Arc::new))
        .collect::<WireResult<Vec<Arc<Tuple>>>>()?;
    Ok(OrderedPage {
        tuples,
        has_more: want_bool(v, "has_more")?,
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

/// Encode a per-request rerank failure: `{code, message, retry_after_ms?}`.
/// The code is stable vocabulary; the message is the human-readable
/// `Display` rendering (which carries the variant's payload).
pub fn rerank_error_to_json(e: &RerankError) -> Json {
    let mut members = vec![
        ("code", Json::str(rerank_error_code(e))),
        ("message", Json::str(e.to_string())),
    ];
    if let Some(ms) = e.retry_after_hint() {
        members.push(("retry_after_ms", Json::u64(ms)));
    }
    Json::obj(members)
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
        let back = ordered_page_from_json(&ordered_page_to_json(&p)).unwrap();
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
        let v = rerank_error_to_json(&e);
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
}
