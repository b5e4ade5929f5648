//! The unified cycle-level memory-channel surface.
//!
//! Every channel topology the memory driver can attach — the plain
//! [`DramChannel`](crate::dram::DramChannel), the banked open-row
//! [`BankedDramChannel`](crate::dram::BankedDramChannel), and the
//! multi-channel [`ChannelArray`](crate::dram::ChannelArray) — speaks
//! this one trait. The driver stack (`memdrv` in `capstan-arch`, the
//! checkout pool in `capstan-core`) is written against [`MemChannel`]
//! alone: push, tick once per cycle, and reset between runs, whatever
//! the topology.

use crate::dram::{BurstCompletion, BurstRequest};

/// A cycle-level memory channel: the common driver surface of every
/// channel topology.
pub trait MemChannel {
    /// Current simulation cycle.
    fn cycle(&self) -> u64;

    /// Attempts to enqueue a burst; returns it back on backpressure.
    fn push(&mut self, req: BurstRequest) -> Result<(), BurstRequest>;

    /// Whether a burst to `addr` would currently be accepted by
    /// [`push`](MemChannel::push) — the non-mutating backpressure probe
    /// the driver's issue gate uses.
    fn can_accept(&self, addr: u64) -> bool;

    /// Advances one cycle, returning bursts completed this cycle. The
    /// slice borrows an internal buffer reused on the next call, so the
    /// steady-state tick loop performs no allocation.
    fn tick(&mut self) -> &[BurstCompletion];

    /// Whether any requests are pending.
    fn is_idle(&self) -> bool;

    /// Returns the channel to its as-constructed state without
    /// releasing buffer capacity (the persistent-driver reset path: a
    /// reset channel must be behaviorally indistinguishable from a
    /// fresh one).
    fn reset(&mut self);
}
