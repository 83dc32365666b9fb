//! A bounded ring-buffer subscriber for tests and debugging.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::event::Event;
use crate::Subscriber;

/// The ring capacity of `Recorder::default()`.
pub(crate) const DEFAULT_BUFFER: usize = 1024;

#[derive(Debug, Default)]
struct RecorderInner {
    ring: VecDeque<Event>,
    dropped: u64,
}

/// A bounded in-memory event ring: keeps the most recent `capacity`
/// events, dropping the oldest when full (and counting the drops). Whole
/// events are pushed and popped under one mutex, so a reader never sees a
/// torn event — either it is entirely in the ring or entirely dropped.
#[derive(Debug)]
pub struct Recorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// A ring holding at most `capacity` events (`capacity` 0 records
    /// nothing and counts every event as dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            capacity,
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::with_capacity(capacity.min(DEFAULT_BUFFER)),
                dropped: 0,
            }),
        }
    }

    /// Events evicted (oldest-first) because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }

    /// Copy out the buffered events, oldest first. The ring is left
    /// intact.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Drain the buffered events (oldest first), resetting the ring but
    /// not the drop counter.
    pub fn drain(&self) -> Vec<Event> {
        self.inner.lock().ring.drain(..).collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_capacity(DEFAULT_BUFFER)
    }
}

impl Subscriber for Recorder {
    fn on_event(&self, event: &Event) {
        let mut inner = self.inner.lock();
        if self.capacity == 0 {
            inner.dropped += 1;
            return;
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    fn ev(session: u64) -> Event {
        Event {
            at_ms: session,
            site: Arc::from("s"),
            session,
            kind: EventKind::BatchServed { requests: session },
        }
    }

    #[test]
    fn drops_oldest_when_full() {
        let r = Recorder::with_capacity(3);
        for i in 1..=5 {
            r.on_event(&ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.events().iter().map(|e| e.session).collect();
        assert_eq!(kept, vec![3, 4, 5]);
    }

    #[test]
    fn zero_capacity_counts_everything_as_dropped() {
        let r = Recorder::with_capacity(0);
        r.on_event(&ev(1));
        r.on_event(&ev(2));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn drain_empties_the_ring_but_keeps_the_drop_count() {
        let r = Recorder::with_capacity(2);
        for i in 1..=3 {
            r.on_event(&ev(i));
        }
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        r.on_event(&ev(9));
        assert_eq!(r.len(), 1);
    }
}
