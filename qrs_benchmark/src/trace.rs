//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The loop is closed with one client, so at most one request is in
//! flight and one call chain is open at a time — even when the chain
//! crosses threads (client → edge pool worker → hidden site). A single
//! "innermost open span" cursor therefore links every span to the span
//! that caused it, with no thread-local bookkeeping. A layer's self time is
//! its spans' duration minus the part their child spans cover.

use qrs_server::{Capabilities, OrderedPage, SearchInterface};
use qrs_types::{AttrId, Direction, MutationLog, Query, QueryResponse, Schema, ServerError};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names, one per layer boundary the benchmark can see from outside.
pub const REQUEST: &str = "request";
pub const SERVICE_OPEN: &str = "service.open";
pub const SERVICE_TOP: &str = "service.try_top";
pub const SITE_CALL: &str = "edge.site_call";
pub const SERVER_CALL: &str = "server.call";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Ordinal of the request this span belongs to.
    pub request: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Index + 1 of the innermost open span; 0 when none is open.
    open: AtomicU32,
    request: AtomicU32,
    /// Tuples returned by traced server calls.
    tuples: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: AtomicU32::new(0),
            request: AtomicU32::new(0),
            tuples: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `work` inside a span named `name`, child of whatever span is
    /// open now. A [`REQUEST`] span starts a new request ordinal.
    pub fn span<T>(&self, name: &'static str, work: impl FnOnce() -> T) -> T {
        if name == REQUEST {
            self.request.fetch_add(1, Ordering::SeqCst);
        }
        let slot = {
            let mut spans = self
                .spans
                .lock()
                .expect("no span is recorded while panicking");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.load(Ordering::SeqCst),
                request: self.request.load(Ordering::SeqCst),
            });
            spans.len()
        };
        let parent = self.open.swap(slot as u32, Ordering::SeqCst);
        let start_ns = self.now_ns();
        let out = work();
        let end_ns = self.now_ns();
        self.open.store(parent, Ordering::SeqCst);
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        spans[slot - 1].start_ns = start_ns;
        spans[slot - 1].end_ns = end_ns;
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }

    pub fn tuples(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }
}

/// Totals per span name over a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub ns: u64,
    /// `ns` minus the time covered by direct children.
    pub self_ns: u64,
}

pub fn totals(spans: &[Span], name: &str) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_ns[s.parent as usize - 1] += s.ns();
        }
    }
    let mut out = Totals::default();
    for (s, children) in spans.iter().zip(&child_ns) {
        if s.name == name {
            out.count += 1;
            out.ns += s.ns();
            out.self_ns += s.ns().saturating_sub(*children);
        }
    }
    out
}

/// A [`SearchInterface`] decorator recording one span per charged call.
/// Wrapped around the `SimServer` it supplies the server spans; wrapped
/// around an `HttpSiteAdapter` it supplies the wire spans whose children
/// the server spans are.
pub struct TracedServer {
    inner: Arc<dyn SearchInterface>,
    tracer: Arc<Tracer>,
    name: &'static str,
}

impl TracedServer {
    pub fn wrap(
        inner: Arc<dyn SearchInterface>,
        tracer: &Arc<Tracer>,
        name: &'static str,
    ) -> Arc<dyn SearchInterface> {
        Arc::new(TracedServer {
            inner,
            tracer: Arc::clone(tracer),
            name,
        })
    }

    fn count(&self, tuples: usize) {
        if self.name == SERVER_CALL {
            self.tracer
                .tuples
                .fetch_add(tuples as u64, Ordering::Relaxed);
        }
    }
}

impl SearchInterface for TracedServer {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        let out = self.tracer.span(self.name, || self.inner.query(q));
        self.count(out.as_ref().map_or(0, |r| r.tuples.len()));
        out
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        let out = self
            .tracer
            .span(self.name, || self.inner.query_page(q, page));
        self.count(out.as_ref().map_or(0, |r| r.tuples.len()));
        out
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        let out = self
            .tracer
            .span(self.name, || self.inner.query_ordered(q, attr, dir, page));
        self.count(out.as_ref().map_or(0, |p| p.tuples.len()));
        out
    }

    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.inner.mutations_since(since)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            Span {
                name: REQUEST,
                start_ns: 0,
                end_ns: 100,
                parent: 0,
                request: 1,
            },
            Span {
                name: SITE_CALL,
                start_ns: 10,
                end_ns: 60,
                parent: 1,
                request: 1,
            },
            Span {
                name: SERVER_CALL,
                start_ns: 20,
                end_ns: 50,
                parent: 2,
                request: 1,
            },
            Span {
                name: SITE_CALL,
                start_ns: 70,
                end_ns: 90,
                parent: 1,
                request: 1,
            },
        ];
        let req = totals(&spans, REQUEST);
        assert_eq!((req.count, req.ns, req.self_ns), (1, 100, 30));
        let site = totals(&spans, SITE_CALL);
        assert_eq!((site.count, site.ns, site.self_ns), (2, 70, 40));
        assert_eq!(totals(&spans, SERVER_CALL).self_ns, 30);
    }

    #[test]
    fn nested_spans_link_to_their_cause() {
        let tracer = Tracer::default();
        tracer.span(REQUEST, || {
            tracer.span(SITE_CALL, || tracer.span(SERVER_CALL, || ()));
            tracer.span(SITE_CALL, || ());
        });
        let parents: Vec<u32> = tracer.snapshot().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 2, 1]);
    }
}
