//! A deterministic discrete-event queue.

use std::collections::BTreeMap;

/// A time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events keyed by `(time, push order)`.
    events: BTreeMap<(u64, u64), E>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Schedules an event at absolute time `at_us`.
    pub fn push(&mut self, at_us: u64, event: E) {
        self.events.insert((at_us, self.seq), event);
        self.seq += 1;
    }

    /// Pops the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.events.pop_first().map(|((t, _), e)| (t, e))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.events.first_key_value().map(|(&(t, _), _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn peek_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, ());
        q.push(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 2);
    }
}
