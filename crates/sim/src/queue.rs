//! Bounded FIFO queues with backpressure.
//!
//! RDAs avoid global pipeline interlocks with "short buffers at each node's
//! input" (paper §1). The cycle-level DRAM channels queue their requests
//! (per channel, or per bank) in this bounded FIFO, whose full state is
//! the channel's backpressure.

use std::collections::VecDeque;

/// A bounded FIFO. `push` fails (backpressure) when full.
#[derive(Debug, Clone)]
pub(crate) struct BoundedQueue<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            capacity,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// Current occupancy.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is full.
    pub(crate) fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Attempts to enqueue; returns the item back if the queue is full.
    pub(crate) fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest item.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item.
    pub(crate) fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Empties the queue without releasing capacity: the reset of the
    /// cycle-level memory channels, which must be allocation-free and
    /// behave exactly like fresh construction.
    pub(crate) fn reset(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backpressure_on_full() {
        let mut q = BoundedQueue::new(2);
        q.push('a').unwrap();
        q.push('b').unwrap();
        assert!(q.is_full());
        assert_eq!(q.push('c'), Err('c'));
        q.pop();
        assert!(q.push('c').is_ok());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn reset_restores_the_as_constructed_state() {
        let mut q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.reset();
        assert!(q.is_empty());
        q.push(3).unwrap();
        q.push(4).unwrap();
        assert!(q.is_full());
        assert_eq!(q.pop(), Some(3));
    }
}
