//! Bounded FIFO queues with backpressure.
//!
//! RDAs avoid global pipeline interlocks with "short buffers at each node's
//! input" (paper §1); Capstan's loosely-timed network relies on per-link
//! buffering (§4.1), and the SpMU issue queue and the shuffle network's
//! inverse-permutation FIFO are both bounded FIFOs. This module provides
//! the common implementation with occupancy statistics.

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

/// A bounded FIFO. `push` fails (backpressure) when full.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    capacity: usize,
    items: VecDeque<T>,
    high_water: usize,
    total_pushed: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            capacity,
            items: VecDeque::with_capacity(capacity),
            high_water: 0,
            total_pushed: 0,
        }
    }

    /// Maximum number of items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is full.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Attempts to enqueue; returns the item back if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        self.total_pushed += 1;
        Ok(())
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutable access to the oldest item.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Iterates from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterates mutably from oldest to newest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// Item at logical position `i` (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    /// Mutable item at logical position `i` (0 = oldest).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.items.get_mut(i)
    }

    /// Removes and returns the item at logical position `i`, shifting later
    /// items forward (used for out-of-order vector completion).
    pub fn remove(&mut self, i: usize) -> Option<T> {
        self.items.remove(i)
    }

    /// Empties the queue and zeroes its statistics, returning it to the
    /// as-constructed state without releasing capacity. Used by the
    /// persistent cycle-level memory driver, whose reset must be both
    /// allocation-free and behaviorally identical to fresh construction.
    pub fn reset(&mut self) {
        self.items.clear();
        self.high_water = 0;
        self.total_pushed = 0;
    }

    /// Serializes the queue's mutable state (items via `item`, plus the
    /// occupancy statistics). The capacity is written too, so restore
    /// can verify the target was constructed identically.
    pub fn save_state(
        &self,
        w: &mut SnapshotWriter,
        mut item: impl FnMut(&mut SnapshotWriter, &T),
    ) {
        w.write_len(self.capacity);
        w.write_len(self.high_water);
        w.write_u64(self.total_pushed);
        w.write_len(self.items.len());
        for it in &self.items {
            item(w, it);
        }
    }

    /// Restores state saved by [`BoundedQueue::save_state`] into a queue
    /// of the *same capacity* (a mismatch is a typed error, not a
    /// panic), decoding items via `item`. Retained capacity is reused;
    /// nothing is released.
    pub fn restore_state(
        &mut self,
        r: &mut SnapshotReader,
        mut item: impl FnMut(&mut SnapshotReader) -> Result<T, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        if r.read_len()? != self.capacity {
            return Err(SnapshotError::Malformed("queue capacity differs"));
        }
        let high_water = r.read_len()?;
        let total_pushed = r.read_u64()?;
        let n = r.read_len()?;
        if n > self.capacity || high_water > self.capacity || high_water < n {
            return Err(SnapshotError::Malformed("queue occupancy out of range"));
        }
        self.items.clear();
        for _ in 0..n {
            self.items.push_back(item(r)?);
        }
        self.high_water = high_water;
        self.total_pushed = total_pushed;
        Ok(())
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total number of successful pushes.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
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
    fn stats_track_watermarks() {
        let mut q = BoundedQueue::new(4);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        q.pop();
        q.push(9).unwrap();
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.total_pushed(), 4);
    }

    #[test]
    fn positional_access_and_removal() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.get(2), Some(&2));
        assert_eq!(q.remove(1), Some(1));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn save_restore_round_trips_items_and_stats() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4u32 {
            q.push(i).unwrap();
        }
        q.pop();
        let mut w = SnapshotWriter::new();
        q.save_state(&mut w, |w, &v| w.write_u32(v));
        let bytes = w.into_bytes();
        let mut fresh = BoundedQueue::new(4);
        let mut r = SnapshotReader::new(&bytes);
        fresh
            .restore_state(&mut r, |r| r.read_u32())
            .expect("restore");
        r.finish().unwrap();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.high_water(), 4);
        assert_eq!(fresh.total_pushed(), 4);
        assert_eq!(fresh.pop(), Some(1));
    }

    #[test]
    fn restore_rejects_a_capacity_mismatch() {
        let q = BoundedQueue::<u32>::new(4);
        let mut w = SnapshotWriter::new();
        q.save_state(&mut w, |w, &v| w.write_u32(v));
        let bytes = w.into_bytes();
        let mut other = BoundedQueue::<u32>::new(8);
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            other.restore_state(&mut r, |r| r.read_u32()),
            Err(SnapshotError::Malformed("queue capacity differs"))
        );
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
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 0);
        assert_eq!(q.total_pushed(), 0);
        assert_eq!(q.capacity(), 2);
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(3));
    }
}
