//! The `ObsHandle`: the one object instrumented code threads around.
//!
//! A handle is either *disabled* (the default — a `None`, so every
//! instrumentation site costs one branch and constructs nothing) or
//! *enabled*, in which case it owns the fleet monitor and the attached
//! subscribers. Cloning shares the underlying plane; the service, its
//! sessions, and its batch workers all hold clones of the same handle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::monitor::{Monitor, MonitorReport};
use crate::Subscriber;

/// The enabled plane: everything an emitting handle fans out to.
#[derive(Debug)]
struct ObsInner {
    site: Arc<str>,
    monitor: Monitor,
    subscribers: Vec<Arc<dyn Subscriber>>,
    /// Session ordinals handed out by [`ObsHandle::open_session`],
    /// starting at 1 (0 is reserved for service-level events).
    next_session: AtomicU64,
}

impl std::fmt::Debug for dyn Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Subscriber")
    }
}

/// Configures and builds an enabled [`ObsHandle`].
#[derive(Debug)]
pub struct ObsBuilder {
    site: Arc<str>,
    subscribers: Vec<Arc<dyn Subscriber>>,
}

impl ObsBuilder {
    /// Start a plane for the given site label (the `site` field every
    /// emitted event carries).
    pub fn new(site: impl Into<Arc<str>>) -> Self {
        ObsBuilder {
            site: site.into(),
            subscribers: Vec::new(),
        }
    }

    /// Attach a subscriber; events fan out to subscribers in attachment
    /// order, after the built-in monitor fold.
    pub fn subscriber(mut self, s: Arc<dyn Subscriber>) -> Self {
        self.subscribers.push(s);
        self
    }

    /// Build the enabled handle.
    pub fn build(self) -> ObsHandle {
        ObsHandle {
            inner: Some(Arc::new(ObsInner {
                site: self.site,
                monitor: Monitor::new(),
                subscribers: self.subscribers,
                next_session: AtomicU64::new(1),
            })),
        }
    }
}

/// A cheap, cloneable handle to the observability plane — or to nothing.
///
/// Instrumented code calls [`ObsHandle::enabled`] (one `Option`
/// discriminant check) before constructing any event, so a disabled handle
/// keeps the hot path byte-identical in behaviour: no allocation, no
/// clock read, no fan-out.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<ObsInner>>,
}

impl ObsHandle {
    /// The do-nothing handle every service starts with.
    pub fn disabled() -> Self {
        ObsHandle { inner: None }
    }

    /// Shorthand for an enabled handle with no subscribers (the monitor
    /// only).
    pub fn for_site(site: impl Into<Arc<str>>) -> Self {
        ObsBuilder::new(site).build()
    }

    /// Start configuring an enabled handle.
    pub fn builder(site: impl Into<Arc<str>>) -> ObsBuilder {
        ObsBuilder::new(site)
    }

    /// True when events will actually be folded anywhere. Check this
    /// before doing any work to construct an event.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The site label events carry, when enabled.
    pub fn site(&self) -> Option<&str> {
        self.inner.as_deref().map(|i| &*i.site)
    }

    /// Allocate a session ordinal for event attribution: 1-based when
    /// enabled, 0 (the service-level ordinal) when disabled.
    pub fn open_session(&self) -> u64 {
        match &self.inner {
            Some(i) => i.next_session.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Emit one event: fold it into the monitor, then fan it out to
    /// subscribers in attachment order. No-op when disabled (but
    /// callers should check [`ObsHandle::enabled`] first and skip even
    /// building the `kind`).
    pub fn emit(&self, at_ms: u64, session: u64, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ms,
            site: Arc::clone(&inner.site),
            session,
            kind,
        };
        inner.monitor.fold(&event);
        for s in &inner.subscribers {
            s.on_event(&event);
        }
    }

    /// Snapshot the fleet monitor's predicted-vs-actual table (empty when
    /// disabled).
    pub fn monitor_report(&self) -> MonitorReport {
        match &self.inner {
            Some(i) => i.monitor.report(),
            None => MonitorReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryClass;
    use crate::Recorder;

    #[test]
    fn disabled_handle_does_nothing() {
        let h = ObsHandle::disabled();
        assert!(!h.enabled());
        assert_eq!(h.open_session(), 0);
        assert_eq!(h.open_session(), 0);
        h.emit(0, 0, EventKind::BatchServed { requests: 1 });
        assert!(h.monitor_report().rows.is_empty());
        assert_eq!(h.site(), None);
    }

    #[test]
    fn enabled_handle_folds_and_fans_out() {
        let recorder = Arc::new(Recorder::with_capacity(16));
        let h = ObsHandle::builder("dealer-a")
            .subscriber(Arc::clone(&recorder) as Arc<dyn Subscriber>)
            .build();
        assert!(h.enabled());
        assert_eq!(h.site(), Some("dealer-a"));
        let s1 = h.open_session();
        let s2 = h.open_session();
        assert_eq!((s1, s2), (1, 2));

        let open = EventKind::SessionOpen {
            strategy: "1d-rerank".into(),
            predicted_queries: 0,
            predicted_cost_units: 0,
        };
        let charged = EventKind::RequestCharged {
            class: QueryClass::TopK,
            queries: 3,
            cost_units: 5,
        };
        h.emit(10, s1, open.clone());
        h.emit(11, s1, charged.clone());

        let report = h.monitor_report();
        assert_eq!(report.rows.len(), 1);
        let row = report.row("dealer-a", "1d-rerank").expect("row");
        assert_eq!(row.sessions, 1);
        assert_eq!((row.actual_queries, row.actual_cost_units), (3, 5));

        // The subscriber saw both events whole, in emission order, stamped
        // with the handle's site and the caller's clock and session.
        let seen: Vec<_> = recorder
            .events()
            .into_iter()
            .map(|e| (e.at_ms, e.site.to_string(), e.session, e.kind))
            .collect();
        assert_eq!(
            seen,
            vec![
                (10, "dealer-a".to_string(), s1, open),
                (11, "dealer-a".to_string(), s1, charged),
            ]
        );
        assert_eq!(recorder.dropped(), 0);
    }

    #[test]
    fn clones_share_one_plane() {
        let h = ObsHandle::for_site("s");
        let h2 = h.clone();
        let s = h.open_session();
        h2.emit(
            0,
            s,
            EventKind::SessionOpen {
                strategy: "page-down".into(),
                predicted_queries: 0,
                predicted_cost_units: 0,
            },
        );
        assert_eq!(
            h.monitor_report().row("s", "page-down").unwrap().sessions,
            1
        );
        assert_eq!(h2.open_session(), s + 1);
    }
}
