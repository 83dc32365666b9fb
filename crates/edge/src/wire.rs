//! The wire vocabulary: domain types ⇄ JSON, and the error ⇄ status map.
//!
//! Every writer here has a decoder that reconstructs the domain value
//! *exactly* — ordinal values ride as shortest-round-trip decimals
//! ([`crate::json`]), so a `Tuple` that crosses the wire twice is
//! bit-identical to the original. That exactness is what lets the loopback
//! test assert byte-identical result streams rather than "close enough".
//!
//! Every body is written straight from the domain types into text by
//! [`crate::json`]'s writer, with no [`Json`] tree on the way, byte for
//! byte what the tree would encode; a recorded corpus pins each kind's
//! bytes (`tests/golden/wire_bodies.txt`). The per-call bodies — the
//! `/site/query`, `/site/page` and `/site/ordered` requests and their `200`
//! replies, and the `200` reply to `/v1/rerank` — are read in place too, and
//! refused exactly where the tree decoders here refuse them (both are
//! tested against each other); the rest is read as a tree.
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
    object, parse, write_arr, write_bool, write_num, write_obj, write_str, write_u64, Json,
    ParseError, Reader,
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

/// Decode the cumulative-ledger object every `/site/*` response carries
/// (`{cost_units, queries}`) into `(queries, cost_units)`.
pub fn ledger_from_json(v: &Json) -> WireResult<(u64, u64)> {
    Ok((want_u64(v, "queries")?, want_u64(v, "cost_units")?))
}

// ---------------------------------------------------------------- tuples

/// Decode one tuple: `{cats, id, ords}`.
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

fn endpoint_from_json(v: &Json) -> WireResult<Endpoint> {
    match want_str(v, "kind")? {
        "unbounded" => Ok(Endpoint::Unbounded),
        "open" => Ok(Endpoint::Open(want_f64(v, "v")?)),
        "closed" => Ok(Endpoint::Closed(want_f64(v, "v")?)),
        other => Err(format!("unknown endpoint kind '{other}'")),
    }
}

/// Decode a ranking direction; `None` for anything but `"asc"` or
/// `"desc"`, so each caller names the member in its own error.
pub fn direction_from_json(v: &Json) -> Option<Direction> {
    direction_from_str(v.as_str()?)
}

/// A ranking direction as the wire spells it: `"asc"` or `"desc"`.
pub(crate) fn direction_str(d: Direction) -> &'static str {
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

/// A conjunctive query as a tree: what the writer writes
/// (`{cats:[{attr,codes}], ranges:[{attr,hi,lo}]}`), parsed.
pub fn query_to_json(q: &Query) -> Json {
    let mut out = String::new();
    write_query(&mut out, q);
    parse(&out).expect("the writer writes JSON")
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

fn write_schema(out: &mut String, s: &Schema) {
    write_obj(out, |o| {
        write_arr(o.key("categorical"), s.cat_ids(), |out, id| {
            let a = s.categorical(id);
            write_obj(out, |o| {
                write_u64(o.key("cardinality"), a.cardinality as u64);
                write_str(o.key("name"), &a.name);
            })
        });
        write_arr(o.key("ordinal"), s.attr_ids(), |out, id| {
            let a = s.ordinal(id);
            write_obj(out, |o| {
                write_num(o.key("max"), a.max);
                write_num(o.key("min"), a.min);
                write_str(o.key("name"), &a.name);
                write_bool(o.key("point_only"), a.point_only);
                if let Some(values) = &a.values {
                    write_arr(o.key("values"), values, |out, v| write_num(out, *v));
                }
            })
        });
    })
}

/// Decode a schema: `{categorical, ordinal}`.
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

fn opt_usize_from_json(v: &Json, key: &str) -> WireResult<Option<usize>> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("member '{key}' is not an integer")),
    }
}

fn write_capabilities(out: &mut String, c: &Capabilities) {
    let opt_usize = |out: &mut String, n: Option<usize>| match n {
        Some(n) => write_u64(out, n as u64),
        None => out.push_str("null"),
    };
    let cost = &c.cost;
    write_obj(out, |o| {
        write_obj(o.key("cost"), |o| {
            write_arr(
                o.key("attr_surcharge"),
                &cost.attr_surcharge,
                |out, (a, u)| write_arr(out, [a.0 as u64, *u], write_u64),
            );
            write_u64(o.key("base"), cost.base);
            write_u64(o.key("ordered"), cost.ordered);
            write_u64(o.key("paged"), cost.paged);
            write_u64(o.key("point_predicate"), cost.point_predicate);
            write_u64(o.key("range_predicate"), cost.range_predicate);
        });
        write_arr(o.key("filters"), &c.filters, |out, (a, s)| {
            out.push('[');
            write_u64(out, a.0 as u64);
            out.push(',');
            write_str(out, filter_support_str(*s));
            out.push(']');
        });
        opt_usize(o.key("max_pages"), c.max_pages);
        opt_usize(o.key("max_predicates"), c.max_predicates);
        write_bool(o.key("mutation_feed"), c.mutation_feed);
        write_arr(o.key("order_by"), &c.order_by, |out, a| {
            write_u64(out, a.0 as u64)
        });
        write_bool(o.key("paging"), c.paging);
    })
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

/// A top-k response as a tree: what the writer writes (`{outcome,
/// tuples}`), parsed.
pub fn response_to_json(r: &QueryResponse) -> Json {
    let mut out = String::new();
    write_response(&mut out, r);
    parse(&out).expect("the writer writes JSON")
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

fn write_mutation_log(out: &mut String, log: &MutationLog) {
    write_obj(out, |o| {
        write_arr(o.key("deltas"), &log.deltas, |out, m| {
            write_obj(out, |o| {
                let kind = match &m.kind {
                    MutationKind::Insert(_) => "insert",
                    MutationKind::Update(_) => "update",
                    MutationKind::Delete(_) => "delete",
                };
                write_str(o.key("kind"), kind);
                match &m.kind {
                    MutationKind::Insert(t) | MutationKind::Update(t) => {
                        write_tuple(o.key("payload"), t)
                    }
                    MutationKind::Delete(id) => write_u64(o.key("payload"), id.0 as u64),
                }
                write_u64(o.key("seq"), m.seq);
            })
        });
        write_bool(o.key("gap"), log.gap);
    })
}

/// Decode a mutation log: `{deltas:[{kind, payload, seq}], gap}`.
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

// ------------------------------------------------------------ cold replies

/// The `200` reply to `/site/capabilities`: `{capabilities, k, ledger,
/// schema, seq}`, everything a client caches at connect.
pub fn capabilities_reply(
    schema: &Schema,
    k: usize,
    caps: &Capabilities,
    seq: u64,
    ledger: (u64, u64),
) -> String {
    object(0, |o| {
        write_capabilities(o.key("capabilities"), caps);
        write_u64(o.key("k"), k as u64);
        write_ledger(o.key("ledger"), ledger);
        write_schema(o.key("schema"), schema);
        write_u64(o.key("seq"), seq);
    })
}

/// The `200` reply to `/site/seq`: `{ledger, seq}`.
pub fn seq_reply(seq: u64, ledger: (u64, u64)) -> String {
    object(0, |o| {
        write_ledger(o.key("ledger"), ledger);
        write_u64(o.key("seq"), seq);
    })
}

/// The `200` reply to `/site/mutations`: `{ledger, log}`.
pub fn mutations_reply(log: &MutationLog, ledger: (u64, u64)) -> String {
    object(0, |o| {
        write_ledger(o.key("ledger"), ledger);
        write_mutation_log(o.key("log"), log);
    })
}

// ----------------------------------------------------------------- errors

/// A capability: `{attr, kind}`, `{kind, n}` or `{kind}`.
fn write_capability(out: &mut String, c: Capability) {
    let (kind, attr, n) = match c {
        Capability::Paging => ("paging", None, None),
        Capability::MutationFeed => ("mutation_feed", None, None),
        Capability::OrderBy(a) => ("order_by", Some(a), None),
        Capability::RangeFilter(a) => ("range_filter", Some(a), None),
        Capability::PointFilter(a) => ("point_filter", Some(a), None),
        Capability::PredicateArity(n) => ("predicate_arity", None, Some(n)),
        Capability::PageDepth(n) => ("page_depth", None, Some(n)),
    };
    write_obj(out, |o| {
        if let Some(a) = attr {
            write_u64(o.key("attr"), a.0 as u64);
        }
        write_str(o.key("kind"), kind);
        if let Some(n) = n {
            write_u64(o.key("n"), n as u64);
        }
    })
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

/// A server-side failure as a typed error object: `{capability?, code,
/// message, reason?, retry_after_ms?}`.
fn write_server_error(out: &mut String, e: &ServerError) {
    let (code, reason, retry_after_ms) = match e {
        ServerError::RateLimited { retry_after_ms } => ("rate_limited", None, *retry_after_ms),
        ServerError::Unavailable { reason } => ("unavailable", Some(reason), None),
        ServerError::Unsupported(_) => ("unsupported", None, None),
        ServerError::InvalidQuery { reason } => ("invalid_query", Some(reason), None),
    };
    write_obj(out, |o| {
        if let ServerError::Unsupported(c) = e {
            write_capability(o.key("capability"), *c);
        }
        write_str(o.key("code"), code);
        write_str(o.key("message"), &e.to_string());
        if let Some(reason) = reason {
            write_str(o.key("reason"), reason);
        }
        if let Some(ms) = retry_after_ms {
            write_u64(o.key("retry_after_ms"), ms);
        }
    })
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
pub fn server_error_response(e: &ServerError, ledger: (u64, u64)) -> Response {
    let body = object(0, |o| {
        write_server_error(o.key("error"), e);
        write_ledger(o.key("ledger"), ledger);
    });
    let mut resp = Response::json(server_error_status(e), body);
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

/// The cumulative-ledger object every `/site/*` response carries:
/// `{cost_units, queries}`, total since the server started. Cumulative —
/// not per-request — so a client that missed a response (dropped
/// connection) reconciles exactly from the next one it does see.
pub(crate) fn write_ledger(out: &mut String, (queries, cost_units): (u64, u64)) {
    write_obj(out, |o| {
        write_u64(o.key("cost_units"), cost_units);
        write_u64(o.key("queries"), queries);
    })
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
    write_obj(out, |o| {
        write_arr(o.key("cats"), t.cats(), |out, c| write_u64(out, *c as u64));
        write_u64(o.key("id"), t.id.0 as u64);
        write_arr(o.key("ords"), t.ords(), |out, v| write_num(out, *v));
    })
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

fn read_tuples(r: &mut Reader) -> Read<Vec<Arc<Tuple>>> {
    read_vec(r, "tuples", |r| Ok(read_tuple(r)?.map(Arc::new)))
}

fn write_endpoint(out: &mut String, e: Endpoint) {
    let (kind, v) = match e {
        Endpoint::Unbounded => ("unbounded", None),
        Endpoint::Open(v) => ("open", Some(v)),
        Endpoint::Closed(v) => ("closed", Some(v)),
    };
    write_obj(out, |o| {
        write_str(o.key("kind"), kind);
        if let Some(v) = v {
            write_num(o.key("v"), v);
        }
    })
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

pub(crate) fn write_query(out: &mut String, q: &Query) {
    write_obj(out, |o| {
        write_arr(o.key("cats"), q.cats(), |out, p| {
            write_obj(out, |o| {
                write_u64(o.key("attr"), p.attr.0 as u64);
                write_arr(o.key("codes"), p.codes(), |out, c| {
                    write_u64(out, *c as u64)
                });
            })
        });
        write_arr(o.key("ranges"), q.ranges(), |out, p| {
            write_obj(out, |o| {
                write_u64(o.key("attr"), p.attr.0 as u64);
                write_endpoint(o.key("hi"), p.interval.hi);
                write_endpoint(o.key("lo"), p.interval.lo);
            })
        });
    })
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
    object(96 + predicates, |o| {
        if let Some((attr, dir)) = order {
            write_u64(o.key("attr"), attr.0 as u64);
            write_str(o.key("dir"), direction_str(dir));
        }
        if let Some(page) = page {
            write_u64(o.key("page"), page as u64);
        }
        write_query(o.key("query"), q);
    })
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
    write_obj(out, |o| {
        write_str(o.key("outcome"), outcome_str(r.outcome));
        write_arr(o.key("tuples"), &r.tuples, |out, t| write_tuple(out, t));
    })
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
    object(reply_capacity(&r.tuples), |o| {
        write_ledger(o.key("ledger"), ledger);
        write_response(o.key("response"), r);
    })
}

/// The `200` reply to `/site/ordered`: `{ledger, page}`, the page as
/// `{has_more, tuples}`.
pub fn site_page_reply(p: &OrderedPage, ledger: (u64, u64)) -> String {
    object(reply_capacity(&p.tuples), |o| {
        write_ledger(o.key("ledger"), ledger);
        write_obj(o.key("page"), |o| {
            write_bool(o.key("has_more"), p.has_more);
            write_arr(o.key("tuples"), &p.tuples, |out, t| write_tuple(out, t));
        })
    })
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
    write_obj(out, |o| {
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
    })
}

/// A per-request rerank failure: `{code, message, retry_after_ms?}`. The
/// code is stable vocabulary; the message is the human-readable `Display`
/// rendering (which carries the variant's payload).
fn write_rerank_error(out: &mut String, e: &RerankError) {
    write_obj(out, |o| {
        write_str(o.key("code"), rerank_error_code(e));
        write_str(o.key("message"), &e.to_string());
        if let Some(ms) = e.retry_after_hint() {
            write_u64(o.key("retry_after_ms"), ms);
        }
    })
}

fn write_outcome(out: &mut String, b: &BatchOutcome) {
    write_obj(out, |o| {
        if let Some(e) = &b.error {
            write_rerank_error(o.key("error"), e);
        }
        write_arr(o.key("hits"), &b.hits, |out, h| {
            write_obj(out, |o| {
                write_u64(o.key("rank"), h.rank as u64);
                write_num(o.key("score"), h.score);
                write_tuple(o.key("tuple"), &h.tuple);
            })
        });
        write_stats(o.key("stats"), &b.stats);
        write_num(o.key("wall_ms"), b.wall_ms);
    })
}

/// The `200` reply to `/v1/rerank`: `{outcomes, tenant}`, one outcome
/// (`{error?, hits, stats, wall_ms}`) per request and the tenant's
/// cumulative ledger after charging.
pub fn rerank_reply(outcomes: &[BatchOutcome], tenant: (u64, u64)) -> String {
    let hits = outcomes.iter().map(|o| o.hits.len()).sum::<usize>();
    object(96 + 320 * outcomes.len() + 160 * hits, |o| {
        write_arr(o.key("outcomes"), outcomes, write_outcome);
        write_ledger(o.key("tenant"), tenant);
    })
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

    /// What `write` writes, parsed.
    fn tree(write: impl FnOnce(&mut String)) -> Json {
        let mut out = String::new();
        write(&mut out);
        parse(&out).unwrap()
    }

    #[test]
    fn tuples_round_trip_bit_exactly() {
        let t = tuple();
        let back = tuple_from_json(&tree(|o| write_tuple(o, &t))).unwrap();
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
        let back = schema_from_json(&tree(|o| write_schema(o, &s))).unwrap();
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
        let caps = |c: &Capabilities| capabilities_from_json(&tree(|o| write_capabilities(o, c)));
        assert_eq!(caps(&c).unwrap(), c);
        // The bare default round-trips too (all options None/empty).
        let bare = Capabilities::none();
        assert_eq!(caps(&bare).unwrap(), bare);
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
            let e = capabilities_from_json(&tree(|o| write_capabilities(o, &caps))).unwrap_err();
            assert!(e.contains(key), "{e}");
        }
        let ones = (Capabilities::none().with_paging())
            .with_max_pages(1)
            .with_max_predicates(1);
        let back = capabilities_from_json(&tree(|o| write_capabilities(o, &ones))).unwrap();
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
        let body = tree(|o| write_schema(o, &Schema::new(vec![ranged], vec![])));
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
        let back = mutation_log_from_json(&tree(|o| write_mutation_log(o, &log))).unwrap();
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
            let back = server_error_from_json(&tree(|o| write_server_error(o, &e))).unwrap();
            assert_eq!(back, e, "round trip for {e}");
        }
        // The Retry-After header is whole seconds, rounded up.
        let resp = server_error_response(
            &ServerError::RateLimited {
                retry_after_ms: Some(1500),
            },
            (3, 7),
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

    /// SplitMix64: a deterministic stream of random values. An `exact`
    /// stream draws only what the wire carries exactly: finite numbers and
    /// counters no larger than 2^53.
    struct Rng {
        state: u64,
        exact: bool,
    }

    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng {
                state: seed,
                exact: false,
            }
        }

        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
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
            let x = match self.below(14) {
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
            };
            if self.exact && !x.is_finite() {
                self.f64()
            } else {
                x
            }
        }

        fn counter(&mut self) -> u64 {
            let n = match self.below(4) {
                0 => u64::MAX - self.below(3),
                1 => (1 << 53) + self.below(3),
                _ => self.below(1 << 20),
            };
            if self.exact {
                n.min(1 << 53)
            } else {
                n
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

        fn text(&mut self) -> String {
            const TEXTS: [&str; 6] = [
                "",
                "plain",
                "say \"why\"\n\ttab \u{1} é",
                "back\\slash / 😀 \u{7f}",
                "\r\u{1f}",
                "md-rerank",
            ];
            TEXTS[self.below(6) as usize].to_string()
        }

        fn finite(&mut self) -> f64 {
            loop {
                let x = self.f64();
                if x.is_finite() {
                    return x;
                }
            }
        }

        fn attr(&mut self) -> AttrId {
            AttrId(self.counter() as usize)
        }

        fn schema(&mut self) -> Schema {
            let ordinal = (0..self.below(4))
                .map(|_| {
                    let (a, b) = (self.finite(), self.finite());
                    let point_only = self.below(3) == 0;
                    let values = if point_only || self.below(2) == 0 {
                        let mut v: Vec<f64> =
                            (0..1 + self.below(4)).map(|_| self.finite()).collect();
                        if point_only {
                            v.sort_by(f64::total_cmp);
                            v.dedup();
                        }
                        Some(v)
                    } else {
                        None
                    };
                    OrdinalAttr {
                        name: self.text(),
                        min: a.min(b),
                        max: a.max(b),
                        point_only,
                        values,
                    }
                })
                .collect();
            let categorical = (0..self.below(3))
                .map(|_| CatAttr::new(self.text(), self.code()))
                .collect();
            Schema::new(ordinal, categorical)
        }

        fn cap(&mut self) -> Option<usize> {
            (self.below(2) == 0).then(|| 1 + self.below(1000) as usize)
        }

        fn capabilities(&mut self) -> Capabilities {
            let supports = [
                FilterSupport::None,
                FilterSupport::Point,
                FilterSupport::Range,
            ];
            Capabilities {
                paging: self.below(2) == 0,
                order_by: (0..self.below(3)).map(|_| self.attr()).collect(),
                max_pages: self.cap(),
                max_predicates: self.cap(),
                filters: (0..self.below(3))
                    .map(|_| (self.attr(), supports[self.below(3) as usize]))
                    .collect(),
                cost: CostModel {
                    base: self.counter(),
                    point_predicate: self.counter(),
                    range_predicate: self.counter(),
                    ordered: self.counter(),
                    paged: self.counter(),
                    attr_surcharge: (0..self.below(3))
                        .map(|_| (self.attr(), self.counter()))
                        .collect(),
                },
                mutation_feed: self.below(2) == 0,
            }
        }

        fn mutation_log(&mut self) -> MutationLog {
            let deltas = (0..self.below(5))
                .map(|_| {
                    let kind = match self.below(3) {
                        0 => MutationKind::Insert(self.tuple()),
                        1 => MutationKind::Update(self.tuple()),
                        _ => MutationKind::Delete(self.tuple().id),
                    };
                    Mutation {
                        seq: self.counter(),
                        kind,
                    }
                })
                .collect();
            MutationLog {
                deltas,
                gap: self.below(2) == 0,
            }
        }
    }

    /// Every kind of [`Capability`], with drawn payloads.
    fn capabilities_of_every_kind(rng: &mut Rng) -> Vec<Capability> {
        vec![
            Capability::Paging,
            Capability::MutationFeed,
            Capability::OrderBy(rng.attr()),
            Capability::RangeFilter(rng.attr()),
            Capability::PointFilter(rng.attr()),
            Capability::PredicateArity(rng.counter() as usize),
            Capability::PageDepth(rng.counter() as usize),
        ]
    }

    /// Every kind of [`ServerError`], and an `Unsupported` one for each kind
    /// of [`Capability`].
    fn server_errors_of_every_kind(rng: &mut Rng) -> Vec<ServerError> {
        let mut errors = vec![
            ServerError::RateLimited {
                retry_after_ms: Some(rng.counter()),
            },
            ServerError::RateLimited {
                retry_after_ms: None,
            },
            ServerError::unavailable(rng.text()),
            ServerError::invalid_query(rng.text()),
        ];
        let unsupported = capabilities_of_every_kind(rng).into_iter();
        errors.extend(unsupported.map(ServerError::Unsupported));
        errors
    }

    /// The `/stats` values: the service's counters, the edge's, a knowledge
    /// plane or none, and monitor rows.
    struct StatsDraw {
        service: qrs_service::stats::StatsSnapshot,
        edge: [u64; 4],
        plane: Option<qrs_service::PlaneStats>,
        monitor: qrs_obs::MonitorReport,
    }

    impl StatsDraw {
        fn draw(rng: &mut Rng) -> StatsDraw {
            let service = qrs_service::stats::StatsSnapshot {
                sessions_started: rng.counter(),
                tuples_emitted: rng.counter(),
                queries_spent: rng.counter(),
                cost_units_spent: rng.counter(),
                queries_saved: rng.counter(),
                cost_units_saved: rng.counter(),
                retries_spent: rng.counter(),
                batches_served: rng.counter(),
                requests_served: rng.counter(),
            };
            let edge = [rng.counter(), rng.counter(), rng.counter(), rng.counter()];
            let plane = (rng.below(2) == 0).then(|| qrs_service::PlaneStats {
                sources: rng.counter(),
                result_hits: rng.counter(),
                ..Default::default()
            });
            let rows = (0..rng.below(3))
                .map(|_| qrs_obs::MonitorRow {
                    site: rng.text(),
                    strategy: rng.text(),
                    sessions: rng.counter(),
                    predicted_queries: rng.counter(),
                    predicted_cost_units: rng.counter(),
                    actual_queries: rng.counter(),
                    actual_cost_units: rng.counter(),
                    saved_queries: rng.counter(),
                    saved_cost_units: rng.counter(),
                })
                .collect();
            let monitor = qrs_obs::MonitorReport { rows };
            StatsDraw {
                service,
                edge,
                plane,
                monitor,
            }
        }

        fn body(&self) -> String {
            let plane = self.plane.as_ref();
            crate::server::stats_reply(&self.service, self.edge, plane, &self.monitor)
        }
    }

    /// The arguments of one `/v1/rerank` request element, every optional
    /// member drawn present or absent.
    struct Element {
        q: Query,
        rank: Vec<(usize, Direction, f64)>,
        top: usize,
        budget: Option<u64>,
        tie: Option<String>,
        horizon: Option<usize>,
    }

    impl Element {
        fn draw(rng: &mut Rng) -> Element {
            let dirs = [Direction::Asc, Direction::Desc];
            let rank = (0..rng.below(4))
                .map(|_| {
                    let dir = dirs[rng.below(2) as usize];
                    (rng.below(10) as usize, dir, rng.f64())
                })
                .collect();
            let q = rng.query();
            let top = rng.counter() as usize;
            let budget = (rng.below(2) == 0).then(|| rng.counter());
            let ties = [
                "exact".to_string(),
                "assume_distinct".to_string(),
                rng.text(),
            ];
            let tie = (rng.below(2) == 0).then(|| ties[rng.below(3) as usize].clone());
            let horizon = (rng.below(2) == 0).then(|| rng.counter() as usize);
            Element {
                q,
                rank,
                top,
                budget,
                tie,
                horizon,
            }
        }

        /// The element as [`crate::EdgeClient::request`] builds it.
        fn json(&self) -> Json {
            let (tie, horizon) = (self.tie.as_deref(), self.horizon);
            crate::EdgeClient::request(&self.q, &self.rank, self.top, self.budget, tie, horizon)
        }
    }

    /// Draws of each kind of value in the corpus.
    const DRAWS: usize = 12;

    /// Every body the edge and its client write, for one fixed set of
    /// values, one `kind body` line each: what
    /// `tests/golden/wire_bodies.txt` records.
    fn corpus() -> String {
        let mut rng = Rng::new(0x00C0_B905);
        let mut lines = Vec::new();
        let mut line = |kind: &str, body: &str| lines.push(format!("{kind} {body}\n"));
        for _ in 0..DRAWS {
            let q = rng.query();
            let (page, attr) = (rng.counter() as usize, AttrId(rng.below(9) as usize));
            let dir = [Direction::Asc, Direction::Desc][rng.below(2) as usize];
            line("site_request", &site_request(&q, None, None));
            line("site_request", &site_request(&q, None, Some(page)));
            line(
                "site_request",
                &site_request(&q, Some((attr, dir)), Some(page)),
            );
            let (r, l) = (rng.response(), ledger(&mut rng));
            line("site_response_reply", &site_response_reply(&r, l));
            let p = OrderedPage {
                tuples: rng.tuples(),
                has_more: rng.below(2) == 0,
            };
            line("site_page_reply", &site_page_reply(&p, ledger(&mut rng)));
            let outcomes: Vec<BatchOutcome> = (0..rng.below(4)).map(|_| rng.outcome()).collect();
            line("rerank_reply", &rerank_reply(&outcomes, ledger(&mut rng)));
        }
        for _ in 0..DRAWS {
            let (schema, k, caps) = (rng.schema(), rng.counter() as usize, rng.capabilities());
            let (seq, l) = (rng.counter(), ledger(&mut rng));
            let reply = capabilities_reply(&schema, k, &caps, seq, l);
            line("capabilities_reply", &reply);
            line("seq_reply", &seq_reply(rng.counter(), ledger(&mut rng)));
            let log = rng.mutation_log();
            line("mutations_reply", &mutations_reply(&log, ledger(&mut rng)));
            line("stats_reply", &StatsDraw::draw(&mut rng).body());
            line("request", &Element::draw(&mut rng).json().encode());
        }
        for e in server_errors_of_every_kind(&mut rng) {
            let resp = server_error_response(&e, ledger(&mut rng));
            line(
                "server_error_response",
                std::str::from_utf8(&resp.body).unwrap(),
            );
        }
        let errors = [
            (400, "invalid_request"),
            (400, "malformed_request"),
            (404, "not_found"),
            (405, "method_not_allowed"),
            (408, "request_timeout"),
            (500, "internal_error"),
        ];
        for (status, code) in errors {
            let resp = crate::server::error_response(status, code, rng.text());
            line("error_response", std::str::from_utf8(&resp.body).unwrap());
        }
        for reason in ["capacity", "tenant_budget", "tenant_table_full"] {
            let resp = crate::server::refusal(reason, rng.counter(), ledger(&mut rng));
            line("refusal", std::str::from_utf8(&resp.body).unwrap());
        }
        for n in [0, 1, 3] {
            let requests: Vec<Json> = (0..n).map(|_| Element::draw(&mut rng).json()).collect();
            line("rerank_body", &crate::client::rerank_body(&requests));
        }
        lines.concat()
    }

    /// Members a body may carry or leave out: the corpus has bodies of the
    /// kind with it and without it.
    const OPTIONAL: &[(&str, &str)] = &[
        ("capabilities_reply", "\"values\":"),
        ("capabilities_reply", "\"max_pages\":null"),
        ("capabilities_reply", "\"max_predicates\":null"),
        ("rerank_reply", "\"budget_limit\":"),
        ("rerank_reply", "\"error\":"),
        ("rerank_reply", "\"retry_after_ms\":"),
        ("server_error_response", "\"retry_after_ms\":"),
        ("mutations_reply", "\"kind\":\"insert\""),
        ("mutations_reply", "\"kind\":\"update\""),
        ("mutations_reply", "\"kind\":\"delete\""),
        ("mutations_reply", "\"gap\":true"),
        ("stats_reply", "\"knowledge\":"),
        ("request", "\"budget\":"),
        ("request", "\"tie\":"),
        ("request", "\"horizon\":"),
    ];

    const RECORDED: &str = include_str!("../../../tests/golden/wire_bodies.txt");

    /// Every body the edge and its client write is, byte for byte, what the
    /// corpus recorded from the tree encoders for the same values.
    #[test]
    fn every_body_is_written_as_the_corpus_records_it() {
        let fresh = corpus();
        if fresh != RECORDED {
            let at = fresh
                .lines()
                .zip(RECORDED.lines())
                .position(|(a, b)| a != b);
            panic!(
                "the writers no longer write tests/golden/wire_bodies.txt (first difference \
                 at line {at:?}); if the change means to move a body, replace the file with \
                 the document between the markers:\n-----BEGIN-----\n{fresh}-----END-----"
            );
        }
        for (kind, member) in OPTIONAL {
            let bodies: Vec<&str> = RECORDED
                .lines()
                .filter_map(|l| l.strip_prefix(kind)?.strip_prefix(' '))
                .collect();
            let with = bodies.iter().filter(|b| b.contains(member)).count();
            assert!(
                0 < with && with < bodies.len(),
                "{kind} {member}: {with}/{}",
                bodies.len()
            );
        }
    }

    /// The member at `path`, which the body must have.
    fn at<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(v, |v, key| {
            v.get(key).unwrap_or_else(|| panic!("no '{key}' in {v:?}"))
        })
    }

    fn counter_at(v: &Json, path: &[&str]) -> Option<u64> {
        at(v, path).as_u64()
    }

    fn text_at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a str> {
        at(v, path).as_str()
    }

    /// Debug spells every `f64` bit for bit, `-0.0` included.
    fn same<T: std::fmt::Debug, U: std::fmt::Debug>(a: T, b: U) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// For random values, every writer writes canonical JSON (`parse` reads
    /// it and encodes it back to the same bytes), and the tree decoders, or
    /// the member reads the client and the edge make, read the value written
    /// back out of it. `QRS_TEST_SEED` picks the values and `QRS_FUZZ_ITERS`
    /// scales them: 10 rounds of every body kind an iteration, 48
    /// iterations unset.
    #[test]
    fn every_writer_writes_canonical_json_that_decodes_to_its_value() {
        let env = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
        let seed = env("QRS_TEST_SEED").unwrap_or(0);
        let mut rng = Rng {
            state: seed ^ 0x5EED_C0DE,
            exact: true,
        };
        let canonical = |body: &str| {
            let tree = parse(body).unwrap_or_else(|e| panic!("QRS_TEST_SEED={seed}: {e}: {body}"));
            assert_eq!(tree.encode(), body, "QRS_TEST_SEED={seed}");
            tree
        };
        for _ in 0..10 * env("QRS_FUZZ_ITERS").unwrap_or(48) {
            let (q, page) = (rng.query(), rng.counter() as usize);
            let order = (AttrId(rng.below(9) as usize), Direction::Desc);
            for (order, page) in [(None, None), (None, Some(page)), (Some(order), Some(page))] {
                let tree = canonical(&site_request(&q, order, page));
                assert_eq!(query_from_json(at(&tree, &["query"])), Ok(q.clone()));
                assert_eq!(tree.get("page").and_then(Json::as_usize), page);
                let attr = tree.get("attr").and_then(Json::as_usize).map(AttrId);
                let dir = tree.get("dir").and_then(direction_from_json);
                assert_eq!(attr.zip(dir), order);
            }

            let (r, l) = (rng.response(), ledger(&mut rng));
            let tree = canonical(&site_response_reply(&r, l));
            assert!(same(
                response_from_json(at(&tree, &["response"])),
                Ok::<_, String>(&r)
            ));
            assert_eq!(ledger_from_json(at(&tree, &["ledger"])), Ok(l));

            let p = OrderedPage {
                tuples: rng.tuples(),
                has_more: rng.below(2) == 0,
            };
            let tree = canonical(&site_page_reply(&p, l));
            let tuples = at(&tree, &["page", "tuples"]).as_arr().unwrap();
            let tuples: Vec<_> = tuples.iter().map(|t| tuple_from_json(t).unwrap()).collect();
            assert!(same(
                tuples,
                p.tuples.iter().map(|t| &**t).collect::<Vec<_>>()
            ));
            assert_eq!(at(&tree, &["page", "has_more"]).as_bool(), Some(p.has_more));

            let outcomes: Vec<BatchOutcome> = (0..rng.below(4)).map(|_| rng.outcome()).collect();
            let tree = canonical(&rerank_reply(&outcomes, l));
            assert_eq!(ledger_from_json(at(&tree, &["tenant"])), Ok(l));
            let read = at(&tree, &["outcomes"]).as_arr().unwrap();
            assert_eq!(read.len(), outcomes.len());
            for (v, o) in read.iter().zip(&outcomes) {
                let hits = at(v, &["hits"]).as_arr().unwrap().iter().map(|h| {
                    let tuple = tuple_from_json(at(h, &["tuple"])).unwrap();
                    (counter_at(h, &["rank"]), at(h, &["score"]).as_f64(), tuple)
                });
                let want = o
                    .hits
                    .iter()
                    .map(|h| (Some(h.rank as u64), Some(h.score), (*h.tuple).clone()));
                assert!(same(hits.collect::<Vec<_>>(), want.collect::<Vec<_>>()));
                let s = &o.stats;
                let stats = [
                    ("emitted", Some(s.emitted as u64)),
                    ("queries_spent", Some(s.queries_spent)),
                    ("cost_units_spent", Some(s.cost_units_spent)),
                    ("queries_saved", Some(s.queries_saved)),
                    ("cost_units_saved", Some(s.cost_units_saved)),
                    ("attempts_made", Some(s.attempts_made)),
                    ("retries_spent", Some(s.retries_spent)),
                    ("budget_limit", s.budget_limit),
                ];
                for (key, want) in stats {
                    let got = at(v, &["stats"]).get(key).and_then(Json::as_u64);
                    assert_eq!(got, want, "{key}");
                }
                assert_eq!(
                    at(v, &["wall_ms"]).as_f64().map(f64::to_bits),
                    Some(o.wall_ms.to_bits())
                );
                let error = v.get("error").map(|e| {
                    let hint = e.get("retry_after_ms").and_then(Json::as_u64);
                    (
                        text_at(e, &["code"]),
                        text_at(e, &["message"]).map(str::to_string),
                        hint,
                    )
                });
                let want = o.error.as_ref().map(|e| {
                    (
                        Some(rerank_error_code(e)),
                        Some(e.to_string()),
                        e.retry_after_hint(),
                    )
                });
                assert_eq!(error, want);
            }

            let (schema, k, caps) = (rng.schema(), rng.counter() as usize, rng.capabilities());
            let seq = rng.counter();
            let tree = canonical(&capabilities_reply(&schema, k, &caps, seq, l));
            assert_eq!(schema_from_json(at(&tree, &["schema"])), Ok(schema));
            assert_eq!(
                capabilities_from_json(at(&tree, &["capabilities"])),
                Ok(caps)
            );
            assert_eq!(counter_at(&tree, &["k"]), Some(k as u64));
            assert_eq!(counter_at(&tree, &["seq"]), Some(seq));
            assert_eq!(ledger_from_json(at(&tree, &["ledger"])), Ok(l));

            let tree = canonical(&seq_reply(seq, l));
            assert_eq!(counter_at(&tree, &["seq"]), Some(seq));
            assert_eq!(ledger_from_json(at(&tree, &["ledger"])), Ok(l));

            let log = rng.mutation_log();
            let tree = canonical(&mutations_reply(&log, l));
            assert_eq!(mutation_log_from_json(at(&tree, &["log"])), Ok(log));
            assert_eq!(ledger_from_json(at(&tree, &["ledger"])), Ok(l));

            for e in server_errors_of_every_kind(&mut rng) {
                let resp = server_error_response(&e, l);
                let tree = canonical(std::str::from_utf8(&resp.body).unwrap());
                assert_eq!(server_error_from_json(at(&tree, &["error"])), Ok(e));
                assert_eq!(ledger_from_json(at(&tree, &["ledger"])), Ok(l));
            }

            let message = rng.text();
            let resp = crate::server::error_response(400, "invalid_request", message.clone());
            let tree = canonical(std::str::from_utf8(&resp.body).unwrap());
            assert_eq!(text_at(&tree, &["error", "code"]), Some("invalid_request"));
            assert_eq!(text_at(&tree, &["error", "message"]), Some(&*message));

            let (reason, ms) = (rng.text(), rng.counter());
            let resp = crate::server::refusal(&reason, ms, l);
            let tree = canonical(std::str::from_utf8(&resp.body).unwrap());
            assert_eq!(text_at(&tree, &["error", "code"]), Some("admission"));
            assert_eq!(text_at(&tree, &["error", "reason"]), Some(&*reason));
            assert_eq!(counter_at(&tree, &["error", "retry_after_ms"]), Some(ms));
            assert!(text_at(&tree, &["error", "message"])
                .unwrap()
                .contains(&*reason));
            assert_eq!(ledger_from_json(at(&tree, &["tenant"])), Ok(l));

            let stats = StatsDraw::draw(&mut rng);
            let tree = canonical(&stats.body());
            let (s, [admitted, rejected, connections, requests]) = (&stats.service, stats.edge);
            let mut counters = vec![
                (vec!["edge", "admitted"], admitted),
                (vec!["edge", "rejected"], rejected),
                (vec!["edge", "connections"], connections),
                (vec!["edge", "requests"], requests),
                (vec!["service", "sessions_started"], s.sessions_started),
                (vec!["service", "tuples_emitted"], s.tuples_emitted),
                (vec!["service", "queries_spent"], s.queries_spent),
                (vec!["service", "cost_units_spent"], s.cost_units_spent),
                (vec!["service", "queries_saved"], s.queries_saved),
                (vec!["service", "cost_units_saved"], s.cost_units_saved),
                (vec!["service", "retries_spent"], s.retries_spent),
                (vec!["service", "batches_served"], s.batches_served),
                (vec!["service", "requests_served"], s.requests_served),
            ];
            if let Some(p) = &stats.plane {
                counters.push((vec!["knowledge", "sources"], p.sources));
                counters.push((vec!["knowledge", "result_hits"], p.result_hits));
            }
            for (path, n) in counters {
                assert_eq!(counter_at(&tree, &path), Some(n), "{path:?}");
            }
            assert_eq!(tree.get("knowledge").is_some(), stats.plane.is_some());
            let rows = at(&tree, &["monitor"]).as_arr().unwrap();
            assert_eq!(rows.len(), stats.monitor.rows.len());
            for (v, r) in rows.iter().zip(&stats.monitor.rows) {
                assert_eq!(text_at(v, &["site"]), Some(&*r.site));
                assert_eq!(text_at(v, &["strategy"]), Some(&*r.strategy));
                let row = [
                    ("sessions", r.sessions),
                    ("predicted_queries", r.predicted_queries),
                    ("predicted_cost_units", r.predicted_cost_units),
                    ("actual_queries", r.actual_queries),
                    ("actual_cost_units", r.actual_cost_units),
                    ("saved_queries", r.saved_queries),
                    ("saved_cost_units", r.saved_cost_units),
                ];
                for (key, n) in row {
                    assert_eq!(counter_at(v, &[key]), Some(n), "{key}");
                }
            }

            let elements: Vec<Element> =
                (0..rng.below(3)).map(|_| Element::draw(&mut rng)).collect();
            let trees: Vec<Json> = elements.iter().map(Element::json).collect();
            let tree = canonical(&crate::client::rerank_body(&trees));
            assert_eq!(at(&tree, &["requests"]).as_arr(), Some(&*trees));
            for (v, e) in trees.iter().zip(&elements) {
                assert_eq!(canonical(&v.encode()), *v);
                assert_eq!(query_from_json(at(v, &["query"])), Ok(e.q.clone()));
                let rank = at(v, &["rank"]).as_arr().unwrap().iter().map(|t| {
                    let t = t.as_arr().unwrap();
                    (
                        t[0].as_usize().unwrap(),
                        direction_from_json(&t[1]).unwrap(),
                        t[2].as_f64().unwrap(),
                    )
                });
                assert!(same(rank.collect::<Vec<_>>(), &e.rank));
                assert_eq!(counter_at(v, &["top"]), Some(e.top as u64));
                assert_eq!(v.get("budget").map(Json::as_u64), e.budget.map(Some));
                assert_eq!(v.get("tie").map(Json::as_str), e.tie.as_deref().map(Some));
                let horizon = e.horizon.map(|h| Some(h as u64));
                assert_eq!(v.get("horizon").map(Json::as_u64), horizon);
            }
        }
    }

    fn ledger(rng: &mut Rng) -> (u64, u64) {
        (rng.counter(), rng.counter())
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
        let mut rng = Rng::new(0x2EAD);
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
