//! DRAM address generators (AGs) with atomic off-chip access support.
//!
//! Paper §3.4: "Capstan's atomic DRAM support uses a similar pipeline to
//! the on-chip SRAM and is present in every DRAM address generator. The AG
//! tracks the current status of outstanding bursts; when a new request
//! vector arrives, each access is checked against pending bursts and
//! issued if necessary. After executing the relevant accesses, the burst
//! is written back to DRAM, ensuring that no reads race writes — if a read
//! would race a write, it is instead marked as pending and executed when
//! the write returns. To parallelize DRAM accesses, the shuffle network
//! ensures that each AG is responsible for a mutually-exclusive memory
//! region."
//!
//! The model is timing-only: it tracks bursts, not data. An access names
//! the paper's operation, which decides whether it dirties its burst
//! (any update does, a read does not), but the AG keeps no memory image
//! and returns no values. Applications compute their numerics while they
//! record their traces, so the drain needs only completion cycles.
//!
//! # Implementation notes
//!
//! Burst tracking is **slab-indexed**, not hash-based: every tracked
//! burst occupies a slot in a free-list-recycled slab, and a dense
//! `burst id -> slot` table (one `u32` per burst in the AG's region)
//! replaces the former `HashMap` trio (`bursts`/`waiting`/`inflight`).
//! Waiter lists live inline in each slot and keep their capacity across
//! slot recycling, channel tags are indices into a second slab, and
//! [`AddressGenerator::tick`] returns completions as a slice into a
//! reused buffer (mirroring `DramChannel::tick`). The result is **zero
//! steady-state heap allocations** in the tick loop — proven by the
//! counting-allocator test in `crates/arch/tests/alloc_free.rs` — which
//! matters because DRAM-bound workloads (SpMV, SpMSpM) spend most of
//! their simulated time in exactly this loop.

use crate::spmu::RmwOp;
use capstan_sim::dram::{BurstRequest, DramChannel, DramModel};
use std::collections::VecDeque;

/// Words per DRAM burst (64 B of 32-bit words).
pub const BURST_WORDS: usize = 16;

/// Sentinel for "burst not tracked" in the dense burst-id index.
const NO_SLOT: u32 = u32::MAX;

/// One atomic DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Word address in the AG's memory region.
    pub addr: u64,
    /// Atomic operation.
    pub op: RmwOp,
    /// Opaque completion tag.
    pub tag: u64,
}

/// A completed atomic access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccessResult {
    /// The request's tag.
    pub tag: u64,
    /// Completion cycle.
    pub cycle: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BurstState {
    /// Slot is on the free list.
    Free,
    /// Fetch could not be pushed (channel backpressure); re-issued on a
    /// later tick from the retry list.
    NeedsFetch,
    /// Fetch in flight.
    Fetching,
    /// Resident and usable.
    Open { dirty: bool },
    /// Write-back in flight; reads must not race it.
    WritingBack,
}

/// Sentinel for "end of waiter list" in the pooled waiter arena.
const NO_NODE: u32 = u32::MAX;

/// One slab entry tracking a burst. Waiters queued behind an in-flight
/// transfer live as an inline linked list (`waiters_head..waiters_tail`)
/// of nodes in the AG's shared waiter arena, so the per-slot footprint
/// is constant and the arena's single high-water mark bounds steady-
/// state allocation.
#[derive(Debug, Clone, Copy)]
struct BurstSlot {
    /// Burst id this slot currently tracks.
    burst: u64,
    state: BurstState,
    /// First queued waiter (arena index), `NO_NODE` when empty.
    waiters_head: u32,
    /// Last queued waiter (arena index), `NO_NODE` when empty.
    waiters_tail: u32,
}

/// One pooled waiter: a queued access plus the next node in its burst's
/// list.
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    access: DramAccess,
    next: u32,
}

/// Cycle-level model of one DRAM address generator with an open-burst
/// cache and atomic read-modify-write execution.
#[derive(Debug)]
pub struct AddressGenerator {
    /// Words in the AG's exclusive region.
    words: usize,
    channel: DramChannel,
    /// Slab of tracked bursts (free-list recycled).
    slots: Vec<BurstSlot>,
    slot_free: Vec<u32>,
    /// Dense burst id -> slot index (`NO_SLOT` when untracked). Sized to
    /// the AG's region, which is private and bounded by construction.
    slot_of: Vec<u32>,
    /// Slots whose fetch hit channel backpressure, in submission order.
    retry: Vec<u32>,
    retry_scratch: Vec<u32>,
    /// Open slots in residence order (FIFO eviction).
    resident: VecDeque<u32>,
    /// Maximum simultaneously open bursts.
    capacity: usize,
    /// Channel-tag slab: tag -> (burst slot, is_writeback).
    inflight: Vec<(u32, bool)>,
    inflight_free: Vec<u32>,
    /// Pooled arena backing every slot's waiter list.
    waiter_pool: Vec<WaiterNode>,
    node_free: Vec<u32>,
    /// Slots not in the `Open`/`Free` states (O(1) idle check).
    transitioning: usize,
    /// Total queued waiter accesses across all slots.
    waiting_total: usize,
    /// Results not yet due (completion cycle in the future).
    results: Vec<DramAccessResult>,
    /// Results released by the current tick; `tick` returns a borrow.
    done: Vec<DramAccessResult>,
    /// Reusable copy of the channel's per-tick completions (lets the
    /// completion handler mutate `self` without borrowing the channel).
    completion_scratch: Vec<capstan_sim::dram::BurstCompletion>,
    bursts_fetched: u64,
    bursts_written: u64,
    /// Accesses submitted so far (replay-driver bookkeeping).
    submitted_total: u64,
    /// Accesses whose results have been released by `tick`.
    completed_total: u64,
}

/// Depth of the per-AG channel queue. Also the hard bound on in-flight
/// transfers, so the slot and tag slabs are pre-reserved against it.
const CHANNEL_QUEUE_DEPTH: usize = 256;

impl AddressGenerator {
    /// Creates an AG over a region of `words` words.
    pub fn new(model: DramModel, words: usize, open_burst_capacity: usize) -> Self {
        let capacity = open_burst_capacity.max(1);
        // Simultaneously tracked bursts are bounded by the open set plus
        // in-flight transfers (absent pathological backpressure), so the
        // slabs can be pre-reserved; growth past this is still correct,
        // just no longer expected.
        let slab_hint = capacity + CHANNEL_QUEUE_DEPTH + 8;
        AddressGenerator {
            words,
            channel: DramChannel::new(model, CHANNEL_QUEUE_DEPTH),
            slots: Vec::with_capacity(slab_hint),
            slot_free: Vec::with_capacity(slab_hint),
            slot_of: vec![NO_SLOT; words.div_ceil(BURST_WORDS)],
            retry: Vec::new(),
            retry_scratch: Vec::new(),
            resident: VecDeque::with_capacity(capacity + 1),
            capacity,
            inflight: Vec::with_capacity(CHANNEL_QUEUE_DEPTH + 1),
            inflight_free: Vec::with_capacity(CHANNEL_QUEUE_DEPTH + 1),
            waiter_pool: Vec::new(),
            node_free: Vec::new(),
            transitioning: 0,
            waiting_total: 0,
            results: Vec::new(),
            done: Vec::new(),
            // The channel can complete at most a queue's worth of bursts
            // per tick; pre-sizing the mirror buffer to that hard bound
            // keeps the completion copy allocation-free from cycle one.
            completion_scratch: Vec::with_capacity(CHANNEL_QUEUE_DEPTH),
            bursts_fetched: 0,
            bursts_written: 0,
            submitted_total: 0,
            completed_total: 0,
        }
    }

    /// Total bursts fetched from DRAM.
    pub fn bursts_fetched(&self) -> u64 {
        self.bursts_fetched
    }

    /// Total bursts written back to DRAM.
    pub fn bursts_written(&self) -> u64 {
        self.bursts_written
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.channel.cycle()
    }

    /// Total accesses submitted so far.
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted_total
    }

    /// Total accesses whose results have been released by [`tick`].
    ///
    /// [`tick`]: AddressGenerator::tick
    pub(crate) fn completed(&self) -> u64 {
        self.completed_total
    }

    /// Submitted accesses whose results have not yet been released.
    pub(crate) fn outstanding(&self) -> u64 {
        self.submitted_total - self.completed_total
    }

    /// Replay-driver entry point (used by the cycle-level memory mode's
    /// `MemSysSim`): submits `access` only when fewer than
    /// `max_outstanding` accesses are in flight, returning whether it
    /// was accepted. Throttling through this window bounds the slab,
    /// waiter-arena, and result-buffer high-water marks, which is what
    /// keeps the driver's steady-state tick loop allocation-free.
    pub(crate) fn try_submit(&mut self, access: DramAccess, max_outstanding: u64) -> bool {
        if self.outstanding() >= max_outstanding {
            return false;
        }
        self.submit(access);
        true
    }

    /// Whether all work has drained.
    pub fn is_idle(&self) -> bool {
        self.transitioning == 0 && self.waiting_total == 0 && self.channel.is_idle()
    }

    /// Returns the AG to its as-constructed state — empty slab, no
    /// in-flight transfers — without releasing any buffer
    /// capacity. A reset AG is behaviorally indistinguishable from a
    /// fresh one (same completion stream for the same submissions),
    /// so a reset memory driver replays bit-identically to a fresh one,
    /// and the reuse path stays allocation-free (proven in
    /// `crates/arch/tests/alloc_free.rs`).
    pub(crate) fn reset(&mut self) {
        self.channel.reset();
        self.slots.clear();
        self.slot_free.clear();
        self.slot_of.fill(NO_SLOT);
        self.retry.clear();
        self.retry_scratch.clear();
        self.resident.clear();
        self.inflight.clear();
        self.inflight_free.clear();
        self.waiter_pool.clear();
        self.node_free.clear();
        self.transitioning = 0;
        self.waiting_total = 0;
        self.results.clear();
        self.done.clear();
        self.completion_scratch.clear();
        self.bursts_fetched = 0;
        self.bursts_written = 0;
        self.submitted_total = 0;
        self.completed_total = 0;
    }

    /// Allocates a slot for `burst` (reusing a recycled one when
    /// available) and records it in the dense index.
    fn alloc_slot(&mut self, burst: u64, state: BurstState) -> u32 {
        debug_assert!(!matches!(state, BurstState::Free));
        self.transitioning += usize::from(!matches!(state, BurstState::Open { .. }));
        let idx = if let Some(idx) = self.slot_free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(matches!(slot.state, BurstState::Free));
            debug_assert!(slot.waiters_head == NO_NODE);
            slot.burst = burst;
            slot.state = state;
            idx
        } else {
            self.slots.push(BurstSlot {
                burst,
                state,
                waiters_head: NO_NODE,
                waiters_tail: NO_NODE,
            });
            // Companion buffers that can hold one entry per slot grow in
            // lockstep, so later free/flush bursts stay off the heap.
            Self::reserve_companion(&mut self.slot_free, self.slots.len());
            Self::reserve_companion(&mut self.retry, self.slots.len());
            Self::reserve_companion(&mut self.retry_scratch, self.slots.len());
            (self.slots.len() - 1) as u32
        };
        self.slot_of[burst as usize] = idx;
        idx
    }

    /// Returns a slot to the free list and clears the dense index.
    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.waiters_head == NO_NODE);
        self.transitioning -= usize::from(!matches!(
            slot.state,
            BurstState::Open { .. } | BurstState::Free
        ));
        slot.state = BurstState::Free;
        self.slot_of[slot.burst as usize] = NO_SLOT;
        self.slot_free.push(idx);
    }

    /// Grows `buf`'s capacity to at least `cap` (no-op once converged).
    fn reserve_companion(buf: &mut Vec<u32>, cap: usize) {
        if buf.capacity() < cap {
            buf.reserve(cap - buf.len());
        }
    }

    /// Appends an access to a slot's waiter list, drawing the node from
    /// the pooled arena.
    fn push_waiter(&mut self, idx: u32, access: DramAccess) {
        let node = WaiterNode {
            access,
            next: NO_NODE,
        };
        let node_idx = if let Some(i) = self.node_free.pop() {
            self.waiter_pool[i as usize] = node;
            i
        } else {
            self.waiter_pool.push(node);
            Self::reserve_companion(&mut self.node_free, self.waiter_pool.len());
            (self.waiter_pool.len() - 1) as u32
        };
        let tail = self.slots[idx as usize].waiters_tail;
        if tail == NO_NODE {
            self.slots[idx as usize].waiters_head = node_idx;
        } else {
            self.waiter_pool[tail as usize].next = node_idx;
        }
        self.slots[idx as usize].waiters_tail = node_idx;
        self.waiting_total += 1;
    }

    /// Transitions a slot's state, keeping the `transitioning` count
    /// (the O(1) idle check) consistent.
    fn set_state(&mut self, idx: u32, state: BurstState) {
        let slot = &mut self.slots[idx as usize];
        let was = !matches!(slot.state, BurstState::Open { .. } | BurstState::Free);
        let is = !matches!(state, BurstState::Open { .. } | BurstState::Free);
        slot.state = state;
        self.transitioning = self.transitioning - usize::from(was) + usize::from(is);
    }

    /// Submits one atomic access.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the AG's region.
    pub fn submit(&mut self, access: DramAccess) {
        assert!(
            (access.addr as usize) < self.words,
            "address {} outside AG region ({} words)",
            access.addr,
            self.words
        );
        self.submitted_total += 1;
        let burst = access.addr / BURST_WORDS as u64;
        let idx = self.slot_of[burst as usize];
        if idx == NO_SLOT {
            let idx = self.alloc_slot(burst, BurstState::NeedsFetch);
            self.push_waiter(idx, access);
            self.start_fetch(idx);
            return;
        }
        match self.slots[idx as usize].state {
            BurstState::Open { .. } => {
                // Execute against the open burst immediately (modeled as
                // completing next tick).
                self.execute(access);
            }
            BurstState::Fetching | BurstState::WritingBack | BurstState::NeedsFetch => {
                // Reads must not race writes; queue behind the transfer.
                self.push_waiter(idx, access);
            }
            BurstState::Free => unreachable!("indexed slot cannot be free"),
        }
    }

    /// Executes `access` against its open burst: an update dirties the
    /// burst, and the result is due next cycle.
    fn execute(&mut self, access: DramAccess) {
        if access.op.is_update() {
            let burst = access.addr / BURST_WORDS as u64;
            let slot = self.slot_of[burst as usize];
            if slot != NO_SLOT {
                if let BurstState::Open { ref mut dirty } = self.slots[slot as usize].state {
                    *dirty = true;
                }
            }
        }
        self.results.push(DramAccessResult {
            tag: access.tag,
            cycle: self.channel.cycle() + 1,
        });
    }

    /// Allocates a channel tag from the in-flight slab.
    fn alloc_tag(&mut self, slot: u32, is_writeback: bool) -> u64 {
        if let Some(tag) = self.inflight_free.pop() {
            self.inflight[tag as usize] = (slot, is_writeback);
            tag as u64
        } else {
            self.inflight.push((slot, is_writeback));
            Self::reserve_companion(&mut self.inflight_free, self.inflight.len());
            (self.inflight.len() - 1) as u64
        }
    }

    fn start_fetch(&mut self, idx: u32) {
        let burst = self.slots[idx as usize].burst;
        let tag = self.alloc_tag(idx, false);
        // Backpressure is modeled by the channel's own queue; the AG's
        // region is private so a deep queue is acceptable.
        let req = BurstRequest {
            addr: burst * 64,
            tag,
        };
        if self.channel.push(req).is_ok() {
            self.set_state(idx, BurstState::Fetching);
        } else {
            // Channel full: park the slot and re-issue on a later tick.
            self.inflight_free.push(tag as u32);
            self.set_state(idx, BurstState::NeedsFetch);
            self.retry.push(idx);
        }
    }

    fn start_writeback(&mut self, idx: u32) {
        let burst = self.slots[idx as usize].burst;
        let tag = self.alloc_tag(idx, true);
        let req = BurstRequest {
            addr: burst * 64,
            tag,
        };
        if self.channel.push(req).is_ok() {
            self.set_state(idx, BurstState::WritingBack);
            self.bursts_written += 1;
        } else {
            // Leave it open (dirty); eviction retried on a later pass.
            self.inflight_free.push(tag as u32);
            self.set_state(idx, BurstState::Open { dirty: true });
        }
    }

    /// Advances one cycle; returns accesses completed this cycle.
    ///
    /// The slice borrows an internal buffer reused on the next call, so
    /// the AG's cycle loop performs no per-tick allocation (mirroring
    /// [`DramChannel::tick`]).
    pub fn tick(&mut self) -> &[DramAccessResult] {
        // Re-issue fetches that were dropped due to backpressure. The
        // channel frees queue space only in its own tick (below), so
        // once one re-issue hits a full queue every later one this tick
        // must too: the pass stops at the first full-queue hit and
        // re-parks the unexamined tail in order — exactly the list the
        // full scan would rebuild, at O(progress) instead of O(parked)
        // per tick.
        if !self.retry.is_empty() {
            let mut retry = std::mem::take(&mut self.retry_scratch);
            retry.clear();
            std::mem::swap(&mut retry, &mut self.retry);
            let mut entries = retry.iter();
            while let Some(&idx) = entries.next() {
                if !self.channel.can_accept(0) {
                    self.retry.push(idx);
                    self.retry.extend(entries.copied());
                    break;
                }
                if matches!(self.slots[idx as usize].state, BurstState::NeedsFetch) {
                    self.start_fetch(idx);
                }
            }
            self.retry_scratch = retry;
        }

        let mut completions = std::mem::take(&mut self.completion_scratch);
        completions.clear();
        completions.extend_from_slice(self.channel.tick());
        for c in &completions {
            let (idx, is_writeback) = self.inflight[c.tag as usize];
            self.inflight_free.push(c.tag as u32);
            if is_writeback {
                debug_assert!(matches!(
                    self.slots[idx as usize].state,
                    BurstState::WritingBack
                ));
                if self.slots[idx as usize].waiters_head == NO_NODE {
                    self.free_slot(idx);
                } else {
                    // A read racing this write was held; fetch it back now.
                    self.start_fetch(idx);
                }
            } else {
                self.bursts_fetched += 1;
                self.set_state(idx, BurstState::Open { dirty: false });
                self.resident.push_back(idx);
                // Execute the held accesses in arrival order, returning
                // each node to the pooled arena as it drains.
                let mut cur = self.slots[idx as usize].waiters_head;
                self.slots[idx as usize].waiters_head = NO_NODE;
                self.slots[idx as usize].waiters_tail = NO_NODE;
                while cur != NO_NODE {
                    let node = self.waiter_pool[cur as usize];
                    self.node_free.push(cur);
                    self.waiting_total -= 1;
                    self.execute(node.access);
                    cur = node.next;
                }
                self.maybe_evict();
            }
        }
        self.completion_scratch = completions;

        let now = self.channel.cycle();
        self.done.clear();
        let done = &mut self.done;
        self.results.retain(|r| {
            if r.cycle <= now {
                done.push(*r);
                false
            } else {
                true
            }
        });
        self.completed_total += self.done.len() as u64;
        &self.done
    }

    fn maybe_evict(&mut self) {
        while self.resident.len() > self.capacity {
            let Some(idx) = self.resident.pop_front() else {
                break;
            };
            match self.slots[idx as usize].state {
                BurstState::Open { dirty: true } => self.start_writeback(idx),
                BurstState::Open { dirty: false } => self.free_slot(idx),
                _ => {} // already transitioning
            }
        }
    }

    /// Flushes all dirty bursts back to DRAM (end-of-kernel barrier).
    pub fn flush(&mut self) {
        // `retry_scratch`'s capacity tracks the slab size (see
        // `alloc_slot`), so collecting every dirty slot cannot allocate.
        let mut dirty = std::mem::take(&mut self.retry_scratch);
        dirty.clear();
        dirty.extend((0..self.slots.len() as u32).filter(|&i| {
            matches!(
                self.slots[i as usize].state,
                BurstState::Open { dirty: true }
            )
        }));
        for idx in &dirty {
            self.start_writeback(*idx);
        }
        self.retry_scratch = dirty;
        self.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_sim::dram::MemoryKind;

    fn run_until_idle(ag: &mut AddressGenerator, budget: u64) -> Vec<DramAccessResult> {
        let mut out = Vec::new();
        for _ in 0..budget {
            out.extend_from_slice(ag.tick());
            if ag.is_idle() && ag.channel.is_idle() {
                // One extra tick to release pending results.
                out.extend_from_slice(ag.tick());
                if out
                    .iter()
                    .map(|r| r.tag)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    == out.len()
                {
                    break;
                }
            }
        }
        out
    }

    fn new_ag() -> AddressGenerator {
        AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 8)
    }

    fn access(addr: u64, op: RmwOp, tag: u64) -> DramAccess {
        DramAccess { addr, op, tag }
    }

    #[test]
    fn atomic_add_round_trip() {
        let mut ag = new_ag();
        ag.submit(access(100, RmwOp::AddF, 1));
        let results = run_until_idle(&mut ag, 10_000);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].tag, 1);
        assert!(results[0].cycle > 1, "a fetch takes DRAM latency");
        assert_eq!(ag.bursts_fetched(), 1);
        // The update dirtied its burst, so the barrier writes it back.
        ag.flush();
        run_until_idle(&mut ag, 10_000);
        assert_eq!(ag.bursts_written(), 1);
    }

    #[test]
    fn same_burst_accesses_coalesce() {
        let mut ag = new_ag();
        // 16 adds into one burst: exactly one fetch.
        for i in 0..16 {
            ag.submit(access(32 + i, RmwOp::AddF, i));
        }
        let results = run_until_idle(&mut ag, 10_000);
        assert_eq!(results.len(), 16);
        assert_eq!(ag.bursts_fetched(), 1, "same-burst accesses must coalesce");
    }

    #[test]
    fn eviction_writes_back_dirty_bursts() {
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 1 << 14, 2);
        // Touch 4 distinct bursts with updates: capacity 2 forces evictions.
        for b in 0..4u64 {
            ag.submit(access(b * BURST_WORDS as u64, RmwOp::AddF, b));
        }
        let results = run_until_idle(&mut ag, 20_000);
        assert_eq!(results.len(), 4);
        assert!(
            ag.bursts_written() >= 1,
            "dirty bursts must write back on eviction"
        );
        // The barrier writes back the rest: every dirty burst once.
        ag.flush();
        run_until_idle(&mut ag, 20_000);
        assert_eq!(ag.bursts_written(), 4);
    }

    #[test]
    fn reads_do_not_race_writebacks() {
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 1 << 14, 1);
        ag.submit(access(0, RmwOp::AddF, 0));
        run_until_idle(&mut ag, 20_000);
        // Opening another burst (capacity 1) evicts the dirty one; its
        // write-back is in flight when the read of the same word arrives.
        ag.submit(access(64, RmwOp::AddF, 1));
        while ag.completed() < 2 {
            ag.tick();
        }
        let slot = ag.slot_of[0];
        assert!(matches!(
            ag.slots[slot as usize].state,
            BurstState::WritingBack
        ));
        let submitted_at = ag.cycle();
        ag.submit(access(0, RmwOp::Read, 2));
        let results = run_until_idle(&mut ag, 40_000);
        let read = results.iter().find(|r| r.tag == 2).expect("read completed");
        // The read waits for the write-back and is served by a fresh
        // fetch of the written burst, never by the evicted copy. That
        // refetch evicts the other dirty burst in turn.
        assert_eq!(ag.bursts_fetched(), 3);
        assert_eq!(ag.bursts_written(), 2);
        assert!(read.cycle > submitted_at + 1);
    }

    #[test]
    fn min_report_changed_on_dram() {
        // Min-report-changed is an update: it dirties its burst whatever
        // it computes, while a read of another burst leaves that clean.
        let mut ag = new_ag();
        ag.submit(access(7, RmwOp::MinReportChanged, 0));
        ag.submit(access(700, RmwOp::Read, 1));
        let results = run_until_idle(&mut ag, 10_000);
        assert_eq!(results.len(), 2);
        assert_eq!(ag.bursts_fetched(), 2);
        ag.flush();
        run_until_idle(&mut ag, 10_000);
        assert_eq!(ag.bursts_written(), 1);
    }

    #[test]
    fn flush_persists_all_updates() {
        let mut ag = new_ag();
        // Eight writes to eight distinct bursts, within the open capacity.
        for i in 0..8 {
            ag.submit(access(i * 100, RmwOp::Write, i));
        }
        run_until_idle(&mut ag, 20_000);
        assert_eq!(ag.bursts_written(), 0, "nothing is evicted below capacity");
        ag.flush();
        run_until_idle(&mut ag, 20_000);
        assert_eq!(ag.bursts_written(), 8);
        assert!(ag.is_idle());
    }

    #[test]
    fn slots_recycle_under_sustained_traffic() {
        // Stream far more distinct bursts than the open capacity: the slab
        // must stay bounded by the in-flight window, not the burst count.
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Hbm2e), 1 << 12, 2);
        for round in 0..64u64 {
            for b in 0..4u64 {
                let tag = round * 4 + b;
                ag.submit(access(tag % 256 * BURST_WORDS as u64, RmwOp::AddF, tag));
            }
            for _ in 0..400 {
                ag.tick();
                if ag.is_idle() {
                    break;
                }
            }
        }
        run_until_idle(&mut ag, 100_000);
        assert!(
            ag.slots.len() <= 16,
            "slab grew to {} slots; recycling is broken",
            ag.slots.len()
        );
    }

    #[test]
    fn reset_reproduces_a_fresh_run() {
        let run = |ag: &mut AddressGenerator| {
            for b in 0..16u64 {
                let op = if b % 3 == 0 { RmwOp::Read } else { RmwOp::AddF };
                ag.submit(access((b * 37) % 4096, op, b));
            }
            let results = run_until_idle(ag, 40_000);
            ag.flush();
            run_until_idle(ag, 40_000);
            (
                results,
                ag.bursts_fetched(),
                ag.bursts_written(),
                ag.cycle(),
            )
        };
        let mut fresh = new_ag();
        let first = run(&mut fresh);
        fresh.reset();
        assert!(fresh.is_idle());
        assert_eq!(fresh.outstanding(), 0);
        let second = run(&mut fresh);
        assert_eq!(first, second, "reset run diverged from fresh run");
    }

    #[test]
    #[should_panic(expected = "outside AG region")]
    fn rejects_out_of_region_access() {
        let mut ag = new_ag();
        ag.submit(access(1 << 20, RmwOp::Read, 0));
    }
}
