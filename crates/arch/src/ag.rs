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
use capstan_sim::channel::MemChannel;
use capstan_sim::dram::{BurstRequest, DramChannel, DramModel};
use capstan_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

/// Words per DRAM burst (64 B of 32-bit words).
pub const BURST_WORDS: usize = 16;

/// Sentinel for "burst not tracked" in the dense burst-id index.
const NO_SLOT: u32 = u32::MAX;

/// One atomic DRAM request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramAccess {
    /// Word address in the AG's memory region.
    pub addr: u64,
    /// Atomic operation.
    pub op: RmwOp,
    /// Operand for updates.
    pub operand: f32,
    /// Opaque completion tag.
    pub tag: u64,
}

/// A completed atomic access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramAccessResult {
    /// The request's tag.
    pub tag: u64,
    /// Returned data (per the operation's result mux).
    pub value: f32,
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
    /// Backing memory (the AG's exclusive region), word addressed.
    memory: Vec<f32>,
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

/// Stable snapshot byte for a burst-slot state.
fn state_code(state: BurstState) -> u8 {
    match state {
        BurstState::Free => 0,
        BurstState::NeedsFetch => 1,
        BurstState::Fetching => 2,
        BurstState::Open { dirty: false } => 3,
        BurstState::Open { dirty: true } => 4,
        BurstState::WritingBack => 5,
    }
}

fn state_from_code(code: u8) -> Result<BurstState, SnapshotError> {
    Ok(match code {
        0 => BurstState::Free,
        1 => BurstState::NeedsFetch,
        2 => BurstState::Fetching,
        3 => BurstState::Open { dirty: false },
        4 => BurstState::Open { dirty: true },
        5 => BurstState::WritingBack,
        _ => return Err(SnapshotError::Malformed("unknown burst state")),
    })
}

/// Stable snapshot byte for an RMW opcode (declaration order).
fn op_code(op: RmwOp) -> u8 {
    match op {
        RmwOp::Read => 0,
        RmwOp::Write => 1,
        RmwOp::AddF => 2,
        RmwOp::SubF => 3,
        RmwOp::AddI => 4,
        RmwOp::MinReportChanged => 5,
        RmwOp::MaxReportChanged => 6,
        RmwOp::TestAndSet => 7,
        RmwOp::WriteIfZero => 8,
        RmwOp::Swap => 9,
        RmwOp::Or => 10,
        RmwOp::And => 11,
        RmwOp::Xor => 12,
    }
}

fn op_from_code(code: u8) -> Result<RmwOp, SnapshotError> {
    Ok(match code {
        0 => RmwOp::Read,
        1 => RmwOp::Write,
        2 => RmwOp::AddF,
        3 => RmwOp::SubF,
        4 => RmwOp::AddI,
        5 => RmwOp::MinReportChanged,
        6 => RmwOp::MaxReportChanged,
        7 => RmwOp::TestAndSet,
        8 => RmwOp::WriteIfZero,
        9 => RmwOp::Swap,
        10 => RmwOp::Or,
        11 => RmwOp::And,
        12 => RmwOp::Xor,
        _ => return Err(SnapshotError::Malformed("unknown RMW opcode")),
    })
}

/// Writes a `u32` index list (length-prefixed).
fn save_u32s(w: &mut SnapshotWriter, xs: &[u32]) {
    w.write_len(xs.len());
    for &x in xs {
        w.write_u32(x);
    }
}

/// Reads a `u32` index list, rejecting any entry `>= bound` with a
/// [`SnapshotError::Malformed`] naming `what`.
fn restore_u32s(
    r: &mut SnapshotReader,
    out: &mut Vec<u32>,
    bound: usize,
    what: &'static str,
) -> Result<(), SnapshotError> {
    let n = r.read_len()?;
    out.clear();
    for _ in 0..n {
        let x = r.read_u32()?;
        if x as usize >= bound {
            return Err(SnapshotError::Malformed(what));
        }
        out.push(x);
    }
    Ok(())
}

impl AddressGenerator {
    /// Creates an AG over `words` of zeroed memory.
    pub fn new(model: DramModel, words: usize, open_burst_capacity: usize) -> Self {
        let capacity = open_burst_capacity.max(1);
        // Simultaneously tracked bursts are bounded by the open set plus
        // in-flight transfers (absent pathological backpressure), so the
        // slabs can be pre-reserved; growth past this is still correct,
        // just no longer expected.
        let slab_hint = capacity + CHANNEL_QUEUE_DEPTH + 8;
        AddressGenerator {
            memory: vec![0.0; words],
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

    /// Direct untimed read (test/verification path).
    pub fn peek(&self, addr: u64) -> f32 {
        self.memory[addr as usize]
    }

    /// Direct untimed write (initialization path).
    pub fn poke(&mut self, addr: u64, value: f32) {
        self.memory[addr as usize] = value;
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
    pub fn submitted(&self) -> u64 {
        self.submitted_total
    }

    /// Total accesses whose results have been released by [`tick`].
    ///
    /// [`tick`]: AddressGenerator::tick
    pub fn completed(&self) -> u64 {
        self.completed_total
    }

    /// Submitted accesses whose results have not yet been released.
    pub fn outstanding(&self) -> u64 {
        self.submitted_total - self.completed_total
    }

    /// Whether the burst containing `addr` is currently tracked by a
    /// slot (open, fetching, writing back, or parked for retry) — i.e.
    /// whether a submission to it right now would coalesce instead of
    /// triggering a fresh DRAM fetch. Used by the multi-tenant replay
    /// driver to attribute fetches to the submitting tenant.
    pub fn tracks(&self, addr: u64) -> bool {
        self.slot_of[(addr / BURST_WORDS as u64) as usize] != NO_SLOT
    }

    /// Replay-driver entry point (used by the cycle-level memory mode's
    /// `MemSysSim`): submits `access` only when fewer than
    /// `max_outstanding` accesses are in flight, returning whether it
    /// was accepted. Throttling through this window bounds the slab,
    /// waiter-arena, and result-buffer high-water marks, which is what
    /// keeps the driver's steady-state tick loop allocation-free.
    pub fn try_submit(&mut self, access: DramAccess, max_outstanding: u64) -> bool {
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

    /// Returns the AG to its as-constructed state — zeroed memory, empty
    /// slab, no in-flight transfers — without releasing any buffer
    /// capacity. A reset AG is behaviorally indistinguishable from a
    /// fresh one (same completion stream for the same submissions),
    /// which is what lets the persistent per-thread memory driver reuse
    /// AGs across `simulate` calls while keeping cycle counts
    /// bit-identical to the construct-per-call path, and what keeps the
    /// reuse path allocation-free (proven in
    /// `crates/arch/tests/alloc_free.rs`).
    pub fn reset(&mut self) {
        self.memory.fill(0.0);
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

    /// Serializes the AG's full mutable state: backing memory, channel,
    /// burst slab, free lists, retry list, residence order, in-flight
    /// tag slab, waiter arena, pending results, and counters. Derived
    /// structures (the dense `slot_of` index, the `transitioning` and
    /// `waiting_total` counts) are rebuilt on restore rather than
    /// serialized; per-tick scratch buffers are not state and are
    /// cleared on restore.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.write_len(self.capacity);
        w.write_len(self.memory.len());
        for &v in &self.memory {
            w.write_f32(v);
        }
        self.channel.save_state(w);
        w.write_len(self.slots.len());
        for slot in &self.slots {
            w.write_u64(slot.burst);
            w.write_u8(state_code(slot.state));
            w.write_u32(slot.waiters_head);
            w.write_u32(slot.waiters_tail);
        }
        save_u32s(w, &self.slot_free);
        save_u32s(w, &self.retry);
        w.write_len(self.resident.len());
        for &idx in &self.resident {
            w.write_u32(idx);
        }
        w.write_len(self.inflight.len());
        for &(slot, is_writeback) in &self.inflight {
            w.write_u32(slot);
            w.write_bool(is_writeback);
        }
        save_u32s(w, &self.inflight_free);
        w.write_len(self.waiter_pool.len());
        for node in &self.waiter_pool {
            w.write_u64(node.access.addr);
            w.write_u8(op_code(node.access.op));
            w.write_f32(node.access.operand);
            w.write_u64(node.access.tag);
            w.write_u32(node.next);
        }
        save_u32s(w, &self.node_free);
        w.write_len(self.results.len());
        for res in &self.results {
            w.write_u64(res.tag);
            w.write_f32(res.value);
            w.write_u64(res.cycle);
        }
        w.write_u64(self.bursts_fetched);
        w.write_u64(self.bursts_written);
        w.write_u64(self.submitted_total);
        w.write_u64(self.completed_total);
    }

    /// Restores state saved by [`AddressGenerator::save_state`] into an
    /// AG constructed with the same model, region size, and open-burst
    /// capacity. A geometry mismatch or an out-of-range index is a
    /// typed error, never a panic or a silent wrong-config resume. On
    /// error the AG is left partially written — [`reset`] it before
    /// reuse.
    ///
    /// [`reset`]: AddressGenerator::reset
    pub fn restore_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        if r.read_len()? != self.capacity {
            return Err(SnapshotError::Malformed("AG open-burst capacity differs"));
        }
        if r.read_len()? != self.memory.len() {
            return Err(SnapshotError::Malformed("AG region size differs"));
        }
        for v in &mut self.memory {
            *v = r.read_f32()?;
        }
        self.channel.restore_state(r)?;
        let n_slots = r.read_len()?;
        self.slots.clear();
        for _ in 0..n_slots {
            self.slots.push(BurstSlot {
                burst: r.read_u64()?,
                state: state_from_code(r.read_u8()?)?,
                waiters_head: r.read_u32()?,
                waiters_tail: r.read_u32()?,
            });
        }
        restore_u32s(r, &mut self.slot_free, n_slots, "slot free list")?;
        restore_u32s(r, &mut self.retry, n_slots, "retry list")?;
        let n_resident = r.read_len()?;
        self.resident.clear();
        for _ in 0..n_resident {
            let idx = r.read_u32()?;
            if idx as usize >= n_slots {
                return Err(SnapshotError::Malformed("resident index out of range"));
            }
            self.resident.push_back(idx);
        }
        let n_inflight = r.read_len()?;
        self.inflight.clear();
        for _ in 0..n_inflight {
            let slot = r.read_u32()?;
            if slot as usize >= n_slots {
                return Err(SnapshotError::Malformed("in-flight slot out of range"));
            }
            self.inflight.push((slot, r.read_bool()?));
        }
        restore_u32s(
            r,
            &mut self.inflight_free,
            n_inflight,
            "in-flight free list",
        )?;
        let n_nodes = r.read_len()?;
        self.waiter_pool.clear();
        for _ in 0..n_nodes {
            let access = DramAccess {
                addr: r.read_u64()?,
                op: op_from_code(r.read_u8()?)?,
                operand: r.read_f32()?,
                tag: r.read_u64()?,
            };
            let next = r.read_u32()?;
            if next != NO_NODE && next as usize >= n_nodes {
                return Err(SnapshotError::Malformed("waiter link out of range"));
            }
            self.waiter_pool.push(WaiterNode { access, next });
        }
        restore_u32s(r, &mut self.node_free, n_nodes, "waiter free list")?;
        let n_results = r.read_len()?;
        self.results.clear();
        for _ in 0..n_results {
            self.results.push(DramAccessResult {
                tag: r.read_u64()?,
                value: r.read_f32()?,
                cycle: r.read_u64()?,
            });
        }
        self.bursts_fetched = r.read_u64()?;
        self.bursts_written = r.read_u64()?;
        self.submitted_total = r.read_u64()?;
        self.completed_total = r.read_u64()?;
        // Rebuild the derived structures from the restored slab: the
        // dense burst-id index, the O(1) idle counters, and the waiter
        // total (every pooled node not on the free list is queued).
        self.slot_of.fill(NO_SLOT);
        self.transitioning = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let waiters_consistent =
                (slot.waiters_head == NO_NODE) == (slot.waiters_tail == NO_NODE);
            let links_in_range = [slot.waiters_head, slot.waiters_tail]
                .iter()
                .all(|&n| n == NO_NODE || (n as usize) < self.waiter_pool.len());
            if !waiters_consistent || !links_in_range {
                return Err(SnapshotError::Malformed("slot waiter list inconsistent"));
            }
            if matches!(slot.state, BurstState::Free) {
                continue;
            }
            let Some(entry) = self.slot_of.get_mut(slot.burst as usize) else {
                return Err(SnapshotError::Malformed("slot burst id out of range"));
            };
            if *entry != NO_SLOT {
                return Err(SnapshotError::Malformed("duplicate tracked burst"));
            }
            *entry = i as u32;
            self.transitioning += usize::from(!matches!(slot.state, BurstState::Open { .. }));
        }
        if self.node_free.len() > self.waiter_pool.len() {
            return Err(SnapshotError::Malformed("waiter free list overflows pool"));
        }
        self.waiting_total = self.waiter_pool.len() - self.node_free.len();
        self.retry_scratch.clear();
        self.done.clear();
        self.completion_scratch.clear();
        Ok(())
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
            (access.addr as usize) < self.memory.len(),
            "address {} outside AG region ({} words)",
            access.addr,
            self.memory.len()
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

    fn execute(&mut self, access: DramAccess) {
        let idx = access.addr as usize;
        let old = self.memory[idx];
        let (new, returned) = access.op.apply(old, access.operand);
        if new != old || access.op.is_update() {
            self.memory[idx] = new;
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
            value: returned,
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
            is_write: false,
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
            is_write: true,
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

    #[test]
    fn atomic_add_round_trip() {
        let mut ag = new_ag();
        ag.poke(100, 1.0);
        ag.submit(DramAccess {
            addr: 100,
            op: RmwOp::AddF,
            operand: 2.5,
            tag: 1,
        });
        let results = run_until_idle(&mut ag, 10_000);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 3.5);
        assert_eq!(ag.peek(100), 3.5);
        assert_eq!(ag.bursts_fetched(), 1);
    }

    #[test]
    fn same_burst_accesses_coalesce() {
        let mut ag = new_ag();
        // 16 adds into one burst: exactly one fetch.
        for i in 0..16 {
            ag.submit(DramAccess {
                addr: 32 + i,
                op: RmwOp::AddF,
                operand: 1.0,
                tag: i,
            });
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
            ag.submit(DramAccess {
                addr: b * BURST_WORDS as u64,
                op: RmwOp::AddF,
                operand: 1.0,
                tag: b,
            });
        }
        let results = run_until_idle(&mut ag, 20_000);
        assert_eq!(results.len(), 4);
        assert!(
            ag.bursts_written() >= 1,
            "dirty bursts must write back on eviction"
        );
        for b in 0..4u64 {
            assert_eq!(ag.peek(b * BURST_WORDS as u64), 1.0);
        }
    }

    #[test]
    fn reads_do_not_race_writebacks() {
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 1 << 14, 1);
        ag.submit(DramAccess {
            addr: 0,
            op: RmwOp::AddF,
            operand: 5.0,
            tag: 0,
        });
        // Force the burst out with another burst (capacity 1), then read it
        // back while the writeback may still be in flight.
        ag.submit(DramAccess {
            addr: 64,
            op: RmwOp::AddF,
            operand: 1.0,
            tag: 1,
        });
        ag.submit(DramAccess {
            addr: 0,
            op: RmwOp::Read,
            operand: 0.0,
            tag: 2,
        });
        let results = run_until_idle(&mut ag, 40_000);
        let read = results.iter().find(|r| r.tag == 2).expect("read completed");
        assert_eq!(read.value, 5.0, "read must observe the written value");
    }

    #[test]
    fn min_report_changed_on_dram() {
        let mut ag = new_ag();
        ag.poke(7, 10.0);
        ag.submit(DramAccess {
            addr: 7,
            op: RmwOp::MinReportChanged,
            operand: 3.0,
            tag: 0,
        });
        let results = run_until_idle(&mut ag, 10_000);
        assert_eq!(results[0].value, 1.0);
        assert_eq!(ag.peek(7), 3.0);
    }

    #[test]
    fn flush_persists_all_updates() {
        let mut ag = new_ag();
        for i in 0..8 {
            ag.submit(DramAccess {
                addr: i * 100,
                op: RmwOp::Write,
                operand: i as f32,
                tag: i,
            });
        }
        run_until_idle(&mut ag, 20_000);
        ag.flush();
        run_until_idle(&mut ag, 20_000);
        for i in 0..8 {
            assert_eq!(ag.peek(i * 100), i as f32);
        }
    }

    #[test]
    fn slots_recycle_under_sustained_traffic() {
        // Stream far more distinct bursts than the open capacity: the slab
        // must stay bounded by the in-flight window, not the burst count.
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Hbm2e), 1 << 12, 2);
        for round in 0..64u64 {
            for b in 0..4u64 {
                ag.submit(DramAccess {
                    addr: (round * 4 + b) % 256 * BURST_WORDS as u64,
                    op: RmwOp::AddF,
                    operand: 1.0,
                    tag: round * 4 + b,
                });
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
                ag.submit(DramAccess {
                    addr: (b * 37) % 4096,
                    op: if b % 3 == 0 { RmwOp::Read } else { RmwOp::AddF },
                    operand: b as f32,
                    tag: b,
                });
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
        assert_eq!(fresh.peek(37), 0.0, "reset must zero the backing memory");
        let second = run(&mut fresh);
        assert_eq!(first, second, "reset run diverged from fresh run");
    }

    #[test]
    #[should_panic(expected = "outside AG region")]
    fn rejects_out_of_region_access() {
        let mut ag = new_ag();
        ag.submit(DramAccess {
            addr: 1 << 20,
            op: RmwOp::Read,
            operand: 0.0,
            tag: 0,
        });
    }

    /// Mixed traffic: updates, reads, and evictions across more bursts
    /// than the open capacity, so the saved state exercises every slab
    /// (waiters, retries, in-flight tags, write-backs).
    fn submit_mixed(ag: &mut AddressGenerator) {
        for b in 0..48u64 {
            ag.submit(DramAccess {
                addr: (b * 53) % 4096,
                op: match b % 4 {
                    0 => RmwOp::Read,
                    1 => RmwOp::AddF,
                    2 => RmwOp::MaxReportChanged,
                    _ => RmwOp::Write,
                },
                operand: b as f32,
                tag: b,
            });
        }
    }

    #[test]
    fn save_mid_run_restores_to_an_identical_continuation() {
        // Uninterrupted reference run.
        let mut reference = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 4);
        submit_mixed(&mut reference);
        let mut ref_results = Vec::new();
        for _ in 0..30 {
            ref_results.extend(reference.tick().iter().copied());
        }
        // Interrupted run: identical traffic, save mid-flight.
        let mut original = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 4);
        submit_mixed(&mut original);
        for _ in 0..30 {
            original.tick();
        }
        let mut w = SnapshotWriter::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();
        // Restore into a *fresh* AG of the same geometry.
        let mut restored = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 4);
        let mut r = SnapshotReader::new(&bytes);
        restored.restore_state(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        // Continue both in lock-step until idle: every tick must release
        // the same results, and the reference must match throughout.
        let mut guard = 0;
        while !restored.is_idle() || !reference.is_idle() {
            let a: Vec<_> = original.tick().to_vec();
            let b: Vec<_> = restored.tick().to_vec();
            assert_eq!(a, b, "restored run diverged from the original");
            ref_results.extend(reference.tick().iter().copied());
            guard += 1;
            assert!(guard < 40_000, "continuation did not drain");
        }
        assert_eq!(restored.cycle(), original.cycle());
        assert_eq!(restored.bursts_fetched(), original.bursts_fetched());
        assert_eq!(restored.bursts_written(), original.bursts_written());
        assert_eq!(restored.outstanding(), 0);
        assert_eq!(
            reference.bursts_fetched(),
            restored.bursts_fetched(),
            "interrupted run diverged from the uninterrupted reference"
        );
        for b in 0..48u64 {
            let addr = (b * 53) % 4096;
            assert_eq!(restored.peek(addr), reference.peek(addr));
            assert_eq!(restored.peek(addr), original.peek(addr));
        }
    }

    #[test]
    fn restore_rejects_a_geometry_mismatch() {
        let ag = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 4);
        let mut w = SnapshotWriter::new();
        ag.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong_capacity = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 8);
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            wrong_capacity.restore_state(&mut r),
            Err(SnapshotError::Malformed("AG open-burst capacity differs"))
        );
        let mut wrong_region = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 8192, 4);
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            wrong_region.restore_state(&mut r),
            Err(SnapshotError::Malformed("AG region size differs"))
        );
    }

    #[test]
    fn restore_survives_any_single_byte_corruption() {
        // Small region keeps the exhaustive sweep fast while the traffic
        // still populates waiters, retries, and in-flight transfers.
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 256, 2);
        for b in 0..24u64 {
            ag.submit(DramAccess {
                addr: (b * 19) % 256,
                op: if b % 2 == 0 { RmwOp::AddF } else { RmwOp::Read },
                operand: b as f32,
                tag: b,
            });
        }
        for _ in 0..20 {
            ag.tick();
        }
        assert!(ag.waiting_total > 0, "test needs queued waiters");
        let mut w = SnapshotWriter::new();
        ag.save_state(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt every byte one at a time: restore must never panic —
        // it either errs with a typed error or accepts a still-valid
        // payload (e.g. a flipped data word).
        let mut fresh = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 256, 2);
        for i in 0..bytes.len() {
            bytes[i] ^= 0xFF;
            let mut r = SnapshotReader::new(&bytes);
            if fresh
                .restore_state(&mut r)
                .and_then(|()| r.finish())
                .is_err()
            {
                fresh.reset();
            }
            bytes[i] ^= 0xFF;
        }
        // The pristine bytes must still restore after all that abuse.
        fresh.reset();
        let mut r = SnapshotReader::new(&bytes);
        fresh.restore_state(&mut r).expect("pristine restore");
        r.finish().expect("no trailing bytes");
    }
}
