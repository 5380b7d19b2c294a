//! Span data types, plus the bounded ring buffer that holds them.
//!
//! A span is a named interval on the sink's clock with an optional parent —
//! together they form the per-request trees the serve layer exposes
//! (request → coalesced tick → per-shard stages). Attribute values are
//! numeric only: every string-shaped distinction (plan kind, backend,
//! stage) is encoded in the span *name*, which keeps snapshots trivially
//! comparable for the bit-determinism tests.
//!
//! Completed spans land in a bounded ring buffer — recording never
//! allocates without bound; when the buffer is full the *oldest* span is
//! dropped and counted, so a long-running service keeps the recent past.

use std::borrow::Cow;
use std::collections::VecDeque;

/// Identifier of one span, unique within its sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A completed span: a named `[start_ms, end_ms]` interval with numeric
/// attributes and an optional parent link.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedSpan {
    /// Sink-unique identifier.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Dotted name following the workspace schema (e.g. `stage.launch`,
    /// `serve.request.batch`).
    pub name: Cow<'static, str>,
    /// Start, in the sink clock's milliseconds.
    pub start_ms: f64,
    /// End, in the sink clock's milliseconds.
    pub end_ms: f64,
    /// Numeric attributes, in recording order.
    pub attrs: Vec<(Cow<'static, str>, f64)>,
}

impl FinishedSpan {
    /// Interval length in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// Value of the attribute named `key`, if recorded.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// A fixed-capacity FIFO that drops (and counts) the oldest element on
/// overflow.
#[derive(Debug)]
pub struct RingBuffer<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// A buffer holding at most `capacity` elements (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append, evicting the oldest element if full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Elements currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// How many elements overflow has evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most elements the buffer holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T: Clone> RingBuffer<T> {
    /// Copy out the held elements, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accessors() {
        let span = FinishedSpan {
            id: SpanId(7),
            parent: Some(SpanId(3)),
            name: Cow::Borrowed("stage.launch"),
            start_ms: 2.0,
            end_ms: 5.5,
            attrs: vec![(Cow::Borrowed("device_ms"), 3.25)],
        };
        assert_eq!(span.duration_ms(), 3.5);
        assert_eq!(span.attr("device_ms"), Some(3.25));
        assert_eq!(span.attr("missing"), None);
        assert_eq!(SpanId(7).to_string(), "7");
    }

    #[test]
    fn ring_buffer_keeps_the_recent_past() {
        let mut ring = RingBuffer::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.to_vec(), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn ring_buffer_capacity_floor_is_one() {
        let mut ring = RingBuffer::new(0);
        ring.push("a");
        ring.push("b");
        assert_eq!(ring.to_vec(), vec!["b"]);
        assert_eq!(ring.dropped(), 1);
    }
}
