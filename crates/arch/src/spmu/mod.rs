//! The Sparse Memory Unit (SpMU) — Capstan's allocated scratchpad.
//!
//! Paper §3.1: "On-chip sparse accesses are handled by sparse memory units
//! (SpMUs), which dynamically schedule sparse requests to banks. The
//! SpMU's main architectural component is a reordering pipeline added to
//! Plasticine's MU. ... Capstan introduces a scheduled pipeline where `d`
//! vectors are buffered to stop a single bank conflict from creating a
//! multi-cycle stall."
//!
//! Pipeline (Fig. 3b): pending accesses in the issue queue bid for banks
//! ➊; a separable allocator computes a crossbar configuration ➋; each
//! granted request runs through an independent read-modify-write pipeline
//! with one SRAM bank and an FPU ➌; an output crossbar inversely permutes
//! results back to their lanes ➍. "Because the issue queue can only issue
//! one request per lane regardless of queue depth, crossbar size is
//! independent of scheduling depth."
//!
//! The model is cycle-level: one [`Spmu::tick`] call is one core cycle.

pub mod alloc;
pub mod driver;
pub mod hash;
pub mod ordering;
pub mod rmw;

pub use hash::BankHash;
pub use ordering::{BloomFilter, OrderingMode};
pub use rmw::RmwOp;

use capstan_sim::queue::BoundedQueue;
use capstan_sim::stats::{Counter, Utilization};
use std::collections::VecDeque;

/// One lane's memory request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneRequest {
    /// Word address within the SpMU's local address space.
    pub addr: u32,
    /// The atomic operation to perform.
    pub op: RmwOp,
    /// Operand for writes/updates (ignored by reads).
    pub operand: f32,
}

impl LaneRequest {
    /// A plain read of `addr`.
    pub fn read(addr: u32) -> Self {
        LaneRequest {
            addr,
            op: RmwOp::Read,
            operand: 0.0,
        }
    }

    /// A plain write of `value` to `addr`.
    pub fn write(addr: u32, value: f32) -> Self {
        LaneRequest {
            addr,
            op: RmwOp::Write,
            operand: value,
        }
    }

    /// An atomic update of `addr`.
    pub fn rmw(addr: u32, op: RmwOp, operand: f32) -> Self {
        LaneRequest { addr, op, operand }
    }
}

/// A vector of up to `lanes` requests entering the SpMU together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessVector {
    /// One optional request per lane.
    pub lanes: Vec<Option<LaneRequest>>,
}

impl AccessVector {
    /// Builds a vector from per-lane requests.
    pub fn new(lanes: Vec<Option<LaneRequest>>) -> Self {
        AccessVector { lanes }
    }

    /// Builds a fully populated vector of reads from addresses.
    pub fn reads(addrs: &[u32]) -> Self {
        AccessVector {
            lanes: addrs.iter().map(|&a| Some(LaneRequest::read(a))).collect(),
        }
    }

    /// Number of populated lanes.
    pub fn occupancy(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }
}

/// A completed vector with per-lane results, in enqueue order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompletedVector {
    /// Sequence number assigned at enqueue.
    pub id: u64,
    /// Cycle at which the vector left the SpMU.
    pub dequeue_cycle: u64,
    /// Per-lane returned data (`None` for empty lanes).
    pub results: Vec<Option<f32>>,
}

/// One crossbar grant, for trace visualization (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantRecord {
    /// Cycle of the grant.
    pub cycle: u64,
    /// Lane (crossbar input).
    pub lane: usize,
    /// Bank (crossbar output).
    pub bank: usize,
    /// Which vector the request belonged to.
    pub vector_id: u64,
}

/// Static configuration of one SpMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpmuConfig {
    /// SIMD lanes feeding the unit (paper: 16).
    pub lanes: usize,
    /// SRAM banks (paper: 16).
    pub banks: usize,
    /// Words per bank (paper: 4096 × 32-bit).
    pub bank_words: usize,
    /// Issue-queue depth in vectors (paper design point: 16).
    pub queue_depth: usize,
    /// Input speedup: 1 = `l x b` crossbar, 2 = `2l x b` (§3.1.2).
    pub input_speedup: usize,
    /// Age-priority windows used by allocation (1, 2, or 3; Table 4).
    pub priorities: usize,
    /// Separable-allocator iterations (paper: 3).
    pub alloc_iterations: usize,
    /// Bank-mapping scheme.
    pub hash: BankHash,
    /// Memory-ordering mode.
    pub ordering: OrderingMode,
    /// Squash duplicate reads within a vector (§3.1.2).
    pub elide_repeated_reads: bool,
    /// Counting-Bloom-filter entries for address-ordered admission
    /// (paper design point: 128, §3.1.2).
    pub bloom_entries: usize,
    /// Cycles from grant to result writeback (crossbar, read, modify).
    pub pipeline_latency: u64,
    /// Model an ideal conflict-free memory (Table 9's "Ideal" column).
    pub ideal_conflict_free: bool,
}

impl Default for SpmuConfig {
    /// The paper's final design point: 16 lanes, 16 banks, 16-deep queue,
    /// no input speedup, 3 priorities, 3 iterations, hashed banking,
    /// unordered completion.
    fn default() -> Self {
        SpmuConfig {
            lanes: 16,
            banks: 16,
            bank_words: 4096,
            queue_depth: 16,
            input_speedup: 1,
            priorities: 3,
            alloc_iterations: 3,
            hash: BankHash::Hashed,
            ordering: OrderingMode::Unordered,
            elide_repeated_reads: true,
            bloom_entries: 128,
            pipeline_latency: 3,
            ideal_conflict_free: false,
        }
    }
}

impl SpmuConfig {
    /// Total words of storage (paper: 64 Ki words = 256 KiB).
    pub fn capacity_words(&self) -> usize {
        self.banks * self.bank_words
    }

    /// The age-priority window (in queue slots) visible to allocation
    /// iteration `iter` (0-based). With 3 priorities on a 16-deep queue:
    /// slots 0–4, then 0–9, then all (§3.1.1).
    pub fn window_for_iteration(&self, iter: usize) -> usize {
        let d = self.queue_depth;
        let full = d;
        let w1 = (5 * d).div_ceil(16).max(1);
        let w2 = (10 * d).div_ceil(16).max(1);
        let windows: [usize; 3] = match self.priorities {
            0 | 1 => [full, full, full],
            2 => [w1, full, full],
            _ => [w1, w2, full],
        };
        windows[iter.min(2)]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneState {
    Empty,
    /// Waiting to issue; `bank` is the request's bank, hashed once at
    /// admission.
    Pending {
        req: LaneRequest,
        bank: usize,
    },
    Issued {
        finish_at: u64,
        result: f32,
        addr: u32,
    },
    Done {
        result: f32,
        addr: u32,
    },
    DuplicateOf(usize),
}

#[derive(Debug, Clone)]
struct QueueEntry {
    id: u64,
    lanes: Vec<LaneState>,
    /// Bit per lane still in [`LaneState::Pending`]. Maintained so the
    /// per-tick sweeps (mask build, completion, oldest-pending search)
    /// can skip settled lanes without touching the lane array.
    pending: u64,
    /// Bit per lane currently in [`LaneState::Issued`].
    issued: u64,
}

/// Reusable per-cycle working memory for [`Spmu::tick`].
///
/// Every buffer the naive tick loop used to allocate fresh each cycle
/// lives here instead and is cleared (not freed) between cycles, so a
/// warmed-up SpMU performs **zero heap allocations in steady state** —
/// the property `crates/arch/tests/alloc_free.rs` asserts with a
/// counting global allocator. Buffers grow to a high-water mark during
/// the first cycles and stay there.
#[derive(Debug, Clone, Default)]
struct TickScratch {
    /// Addresses whose pipelines retired this cycle (Bloom removal).
    finished_addrs: Vec<u32>,
    /// Flattened per-iteration allocator request masks
    /// (`masks[iter * ports + port]`).
    masks: Vec<u64>,
    /// Fully-ordered mode: the distinct-bank prefix to issue.
    to_issue: Vec<(usize, LaneRequest, usize)>,
    /// First reader lane per address, for repeated-read elision.
    seen_reads: Vec<(u32, usize)>,
    /// Per-lane requested-bank accumulator for the incremental mask build.
    lane_masks: Vec<u64>,
    /// Effective (queue-clamped) window per allocator iteration.
    windows: Vec<usize>,
    /// Reusable allocator output.
    alloc_result: alloc::AllocationResult,
    /// Reusable allocator working memory.
    alloc_scratch: alloc::AllocScratch,
}

impl QueueEntry {
    fn is_complete(&self) -> bool {
        debug_assert_eq!(
            self.pending == 0 && self.issued == 0,
            self.lanes.iter().all(|l| {
                matches!(
                    l,
                    LaneState::Empty | LaneState::Done { .. } | LaneState::DuplicateOf(_)
                )
            }),
            "lane bitmasks out of sync with lane states"
        );
        self.pending == 0 && self.issued == 0
    }
}

/// Cycle-level model of one Sparse Memory Unit.
#[derive(Debug, Clone)]
pub struct Spmu {
    cfg: SpmuConfig,
    mem: Vec<f32>,
    queue: BoundedQueue<QueueEntry>,
    staging: VecDeque<AccessVector>,
    bloom: BloomFilter,
    cycle: u64,
    next_id: u64,
    bank_util: Utilization,
    lane_throughput: Counter,
    enqueue_stalls: Counter,
    splits: Counter,
    bloom_stalls: Counter,
    elided_reads: Counter,
    grant_log: Option<Vec<GrantRecord>>,
    scratch: TickScratch,
    /// Recycled `QueueEntry::lanes` buffers (popped entries return here).
    lane_pool: Vec<Vec<LaneState>>,
    /// Recycled staging slots (admitted vectors return here).
    staging_pool: Vec<AccessVector>,
    /// The (at most one) vector completed this cycle, reused across ticks.
    completed: CompletedVector,
}

impl Spmu {
    /// Creates an SpMU with zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than 64 lanes (lane sets are
    /// tracked as `u64` bitmasks).
    pub fn new(cfg: SpmuConfig) -> Self {
        assert!(cfg.lanes <= 64, "SpMU supports at most 64 lanes");
        Spmu {
            mem: vec![0.0; cfg.capacity_words()],
            queue: BoundedQueue::new(cfg.queue_depth),
            staging: VecDeque::new(),
            bloom: BloomFilter::new(cfg.bloom_entries, 2),
            cycle: 0,
            next_id: 0,
            bank_util: Utilization::new(),
            lane_throughput: Counter::new(),
            enqueue_stalls: Counter::new(),
            splits: Counter::new(),
            bloom_stalls: Counter::new(),
            elided_reads: Counter::new(),
            grant_log: None,
            scratch: TickScratch::default(),
            lane_pool: Vec::new(),
            staging_pool: Vec::new(),
            completed: CompletedVector::default(),
            cfg,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &SpmuConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Enables grant logging for trace visualization (paper Fig. 4).
    pub fn enable_grant_log(&mut self) {
        self.grant_log = Some(Vec::new());
    }

    /// The grant log, if enabled.
    pub fn grant_log(&self) -> Option<&[GrantRecord]> {
        self.grant_log.as_deref()
    }

    /// Bank utilization so far (the Table 4 metric).
    pub fn bank_utilization(&self) -> f64 {
        self.bank_util.fraction()
    }

    /// Resets utilization statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.bank_util = Utilization::new();
        self.lane_throughput = Counter::new();
        self.enqueue_stalls = Counter::new();
        self.splits = Counter::new();
        self.bloom_stalls = Counter::new();
        if let Some(log) = &mut self.grant_log {
            log.clear();
        }
    }

    /// Requests completed per measured cycle.
    pub fn requests_completed(&self) -> u64 {
        self.lane_throughput.get()
    }

    /// Number of vector splits performed by address ordering.
    pub fn split_count(&self) -> u64 {
        self.splits.get()
    }

    /// Cycles an admission was blocked by the Bloom filter.
    pub fn bloom_stall_count(&self) -> u64 {
        self.bloom_stalls.get()
    }

    /// Reads a word directly (test/setup path, not timed).
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the capacity.
    pub fn peek(&self, addr: u32) -> f32 {
        self.mem[self.mem_index(addr)]
    }

    /// Writes a word directly (test/setup path, not timed).
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the capacity.
    pub fn poke(&mut self, addr: u32, value: f32) {
        let i = self.mem_index(addr);
        self.mem[i] = value;
    }

    fn mem_index(&self, addr: u32) -> usize {
        self.word_index(self.cfg.hash.bank_of(addr, self.cfg.banks), addr)
    }

    /// Index into `mem` of `addr`, which maps to `bank`.
    fn word_index(&self, bank: usize, addr: u32) -> usize {
        debug_assert_eq!(bank, self.cfg.hash.bank_of(addr, self.cfg.banks));
        let offset = self.cfg.hash.offset_of(addr, self.cfg.banks);
        assert!(
            offset < self.cfg.bank_words,
            "address {addr} exceeds SpMU capacity ({} words)",
            self.cfg.capacity_words()
        );
        bank * self.cfg.bank_words + offset
    }

    /// Attempts to accept a vector this cycle. Returns `false` (the caller
    /// should retry next cycle) when the input stage is still draining
    /// earlier work.
    ///
    /// The vector is *borrowed*: its lanes are copied into a recycled
    /// staging slot, so a driver can refill one `AccessVector` buffer
    /// forever without allocating.
    pub fn try_enqueue(&mut self, vector: &AccessVector) -> bool {
        if !self.staging.is_empty() {
            self.enqueue_stalls.incr();
            return false;
        }
        assert!(
            vector.lanes.len() <= self.cfg.lanes,
            "vector has {} lanes, SpMU has {}",
            vector.lanes.len(),
            self.cfg.lanes
        );
        if self.cfg.ordering == OrderingMode::AddressOrdered {
            self.split_into_staging(vector);
        } else {
            let mut slot = self.staging_pool.pop().unwrap_or_default();
            slot.lanes.clear();
            slot.lanes.extend_from_slice(&vector.lanes);
            self.staging.push_back(slot);
        }
        true
    }

    /// In-place equivalent of [`split_same_address`]: splits `vector` so
    /// no two lanes in one part share an address, writing the parts
    /// directly into recycled staging slots.
    fn split_into_staging(&mut self, vector: &AccessVector) {
        let base = self.staging.len();
        let width = vector.lanes.len();
        for (i, lane) in vector.lanes.iter().enumerate() {
            let Some(req) = lane else { continue };
            // Find the first part not already holding this address.
            let slot = (base..self.staging.len()).find(|&p| {
                self.staging[p]
                    .lanes
                    .iter()
                    .flatten()
                    .all(|r| r.addr != req.addr)
            });
            match slot {
                Some(p) => self.staging[p].lanes[i] = Some(*req),
                None => {
                    let mut part = self.staging_pool.pop().unwrap_or_default();
                    part.lanes.clear();
                    part.lanes.resize(width, None);
                    part.lanes[i] = Some(*req);
                    self.staging.push_back(part);
                }
            }
        }
        if self.staging.len() == base {
            let mut part = self.staging_pool.pop().unwrap_or_default();
            part.lanes.clear();
            part.lanes.resize(width, None);
            self.staging.push_back(part);
        }
        let parts = self.staging.len() - base;
        if parts > 1 {
            self.splits.add(parts as u64 - 1);
        }
    }

    /// Whether all queues are empty (safe to stop ticking).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.staging.is_empty()
    }

    /// Advances one cycle; returns the vector completed this cycle, if
    /// any (at most one — dequeue is in program order at vector rate).
    ///
    /// The returned reference points into a buffer reused on the next
    /// call; callers that need to keep a completion must clone it. This
    /// is what keeps the steady-state tick loop allocation-free.
    pub fn tick(&mut self) -> Option<&CompletedVector> {
        self.cycle += 1;

        // ➋ Issue: compute this cycle's crossbar configuration.
        let granted = if self.cfg.ideal_conflict_free {
            self.issue_ideal()
        } else {
            match self.cfg.ordering {
                OrderingMode::Unordered | OrderingMode::AddressOrdered => self.issue_allocated(),
                OrderingMode::FullyOrdered => self.issue_fully_ordered(),
                OrderingMode::Arbitrated => self.issue_arbitrated(),
            }
        };
        self.bank_util.record(granted as u64, self.cfg.banks as u64);

        // ➌➍ Completion: retire issued requests whose pipeline finished.
        let track_addrs = self.cfg.ordering == OrderingMode::AddressOrdered;
        let mut finished_addrs = std::mem::take(&mut self.scratch.finished_addrs);
        finished_addrs.clear();
        for qi in 0..self.queue.len() {
            let entry = self.queue.get_mut(qi).expect("index in range");
            let mut issued = entry.issued;
            while issued != 0 {
                let lane = issued.trailing_zeros() as usize;
                issued &= issued - 1;
                if let LaneState::Issued {
                    finish_at,
                    result,
                    addr,
                } = entry.lanes[lane]
                {
                    if finish_at <= self.cycle {
                        entry.lanes[lane] = LaneState::Done { result, addr };
                        entry.issued &= !(1 << lane);
                        if track_addrs {
                            finished_addrs.push(addr);
                        }
                    }
                }
            }
        }
        for &addr in &finished_addrs {
            self.bloom.remove(addr);
        }
        self.scratch.finished_addrs = finished_addrs;

        // Dequeue at most one complete vector, in order.
        let mut have_completion = false;
        if self.queue.front().is_some_and(QueueEntry::is_complete) {
            let entry = self.queue.pop().expect("checked non-empty");
            self.lane_throughput.add(
                entry
                    .lanes
                    .iter()
                    .filter(|l| matches!(l, LaneState::Done { .. } | LaneState::DuplicateOf(_)))
                    .count() as u64,
            );
            let results = &mut self.completed.results;
            results.clear();
            results.extend(entry.lanes.iter().map(|l| match l {
                LaneState::Done { result, .. } => Some(*result),
                _ => None,
            }));
            // Fill elided duplicates from the lane that performed the read.
            for (i, lane) in entry.lanes.iter().enumerate() {
                if let LaneState::DuplicateOf(src) = lane {
                    results[i] = results[*src];
                }
            }
            self.completed.id = entry.id;
            self.completed.dequeue_cycle = self.cycle;
            have_completion = true;
            // Recycle the entry's lane buffer.
            let mut lanes = entry.lanes;
            lanes.clear();
            self.lane_pool.push(lanes);
        }

        // ➊ Enqueue: admit at most one staged vector.
        self.admit_staged();

        if have_completion {
            Some(&self.completed)
        } else {
            None
        }
    }

    fn admit_staged(&mut self) {
        if self.queue.is_full() {
            return;
        }
        let Some(vector) = self.staging.front() else {
            return;
        };
        if self.cfg.ordering == OrderingMode::AddressOrdered {
            let conflict = vector
                .lanes
                .iter()
                .flatten()
                .any(|req| self.bloom.may_contain(req.addr));
            if conflict {
                self.bloom_stalls.incr();
                return;
            }
        }
        let mut vector = self.staging.pop_front().expect("checked non-empty");
        let mut lanes = self.lane_pool.pop().unwrap_or_default();
        lanes.clear();
        lanes.reserve(self.cfg.lanes);
        let mut seen_reads = std::mem::take(&mut self.scratch.seen_reads);
        seen_reads.clear();
        let (hash, banks) = (self.cfg.hash, self.cfg.banks);
        let pending = |req: LaneRequest| LaneState::Pending {
            req,
            bank: hash.bank_of(req.addr, banks),
        };
        for (i, lane) in vector.lanes.iter().enumerate() {
            let state = match lane {
                None => LaneState::Empty,
                Some(req) => {
                    if self.cfg.elide_repeated_reads && req.op.is_read_only() {
                        if let Some(&(_, src)) = seen_reads.iter().find(|&&(a, _)| a == req.addr) {
                            self.elided_reads.incr();
                            LaneState::DuplicateOf(src)
                        } else {
                            seen_reads.push((req.addr, i));
                            pending(*req)
                        }
                    } else {
                        pending(*req)
                    }
                }
            };
            lanes.push(state);
        }
        self.scratch.seen_reads = seen_reads;
        lanes.resize(self.cfg.lanes, LaneState::Empty);
        let mut pending_mask = 0u64;
        for (i, lane) in lanes.iter().enumerate() {
            if matches!(lane, LaneState::Pending { .. }) {
                pending_mask |= 1 << i;
            }
        }
        // Recycle the staging slot.
        vector.lanes.clear();
        self.staging_pool.push(vector);
        if self.cfg.ordering == OrderingMode::AddressOrdered {
            for lane in &lanes {
                if let LaneState::Pending { req, .. } = lane {
                    self.bloom.insert(req.addr);
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue
            .push(QueueEntry {
                id,
                lanes,
                pending: pending_mask,
                issued: 0,
            })
            .expect("checked space");
    }

    /// Allocated issue (Unordered / AddressOrdered): windowed separable
    /// allocation over the issue queue.
    ///
    /// The per-iteration request masks are built *incrementally*: the
    /// age-priority windows are cumulative (each iteration sees a
    /// superset of the previous one, §3.1.1), so one entry-major sweep
    /// over the queue accumulates per-lane bank masks and snapshots them
    /// at each window boundary. This visits every queue entry once
    /// instead of once per (lane, iteration), producing bit-identical
    /// masks to the naive build.
    fn issue_allocated(&mut self) -> usize {
        let lanes = self.cfg.lanes;
        let speedup = self.cfg.input_speedup;
        let ports = lanes * speedup;
        let mut masks = std::mem::take(&mut self.scratch.masks);
        masks.clear();
        masks.resize(self.cfg.alloc_iterations * ports, 0);
        let mut lane_masks = std::mem::take(&mut self.scratch.lane_masks);
        lane_masks.clear();
        lane_masks.resize(lanes, 0);
        let mut windows = std::mem::take(&mut self.scratch.windows);
        windows.clear();
        windows.extend(
            (0..self.cfg.alloc_iterations)
                .map(|iter| self.cfg.window_for_iteration(iter).min(self.queue.len())),
        );
        let deepest = windows.iter().copied().max().unwrap_or(0);
        let snapshot = |masks: &mut [u64], lane_masks: &[u64], iter: usize| {
            for (lane, &mask) in lane_masks.iter().enumerate() {
                for s in 0..speedup {
                    masks[iter * ports + lane * speedup + s] = mask;
                }
            }
        };
        for qi in 0..deepest {
            let entry = self.queue.get(qi).expect("index in range");
            let mut pending = entry.pending;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                if let LaneState::Pending { bank, .. } = entry.lanes[lane] {
                    lane_masks[lane] |= 1 << bank;
                }
            }
            for (iter, &w) in windows.iter().enumerate() {
                if w == qi + 1 {
                    snapshot(&mut masks, &lane_masks, iter);
                }
            }
        }
        // Empty-window iterations (an empty queue) keep all-zero masks.
        self.scratch.lane_masks = lane_masks;
        self.scratch.windows = windows;
        let mut result = std::mem::take(&mut self.scratch.alloc_result);
        let mut alloc_scratch = std::mem::take(&mut self.scratch.alloc_scratch);
        alloc::allocate_into(
            &masks,
            ports,
            self.cfg.banks,
            &mut alloc_scratch,
            &mut result,
        );
        self.scratch.masks = masks;
        self.scratch.alloc_scratch = alloc_scratch;

        // Map grants back to the oldest matching pending request per lane.
        let mut granted = 0;
        for (port, grant) in result.grants.iter().enumerate() {
            let Some(bank) = *grant else { continue };
            let lane = port / self.cfg.input_speedup;
            if self.issue_oldest(lane, bank) {
                granted += 1;
            }
        }
        self.scratch.alloc_result = result;
        granted
    }

    /// Issues the oldest pending request of `lane` mapping to `bank`.
    /// A request granted earlier this cycle is no longer pending, so
    /// the `pending` bit alone keeps it from issuing twice.
    fn issue_oldest(&mut self, lane: usize, bank: usize) -> bool {
        let window = self.cfg.window_for_iteration(self.cfg.alloc_iterations - 1);
        for qi in 0..window.min(self.queue.len()) {
            let entry = self.queue.get(qi).expect("in range");
            if entry.pending >> lane & 1 == 0 {
                continue;
            }
            if let LaneState::Pending { req, bank: b } = entry.lanes[lane] {
                if b == bank {
                    self.issue_request(qi, lane, req, bank);
                    return true;
                }
            }
        }
        false
    }

    /// Issues `req`, which maps to `bank`, from lane `lane` of queue
    /// entry `qi`.
    fn issue_request(&mut self, qi: usize, lane: usize, req: LaneRequest, bank: usize) {
        let idx = self.word_index(bank, req.addr);
        let old = self.mem[idx];
        let (new, returned) = req.op.apply(old, req.operand);
        self.mem[idx] = new;
        let finish_at = self.cycle + self.cfg.pipeline_latency;
        let id = self.queue.get(qi).expect("in range").id;
        if let Some(log) = &mut self.grant_log {
            log.push(GrantRecord {
                cycle: self.cycle,
                lane,
                bank,
                vector_id: id,
            });
        }
        let entry = self.queue.get_mut(qi).expect("in range");
        entry.lanes[lane] = LaneState::Issued {
            finish_at,
            result: returned,
            addr: req.addr,
        };
        entry.pending &= !(1 << lane);
        entry.issued |= 1 << lane;
    }

    /// Ideal conflict-free issue: every lane issues its oldest pending
    /// request each cycle, ignoring banks (Table 9's "Ideal").
    fn issue_ideal(&mut self) -> usize {
        let mut granted = 0;
        for lane in 0..self.cfg.lanes {
            for qi in 0..self.queue.len() {
                let entry = self.queue.get(qi).expect("in range");
                if entry.pending >> lane & 1 == 0 {
                    continue;
                }
                if let LaneState::Pending { req, bank } = entry.lanes[lane] {
                    self.issue_request(qi, lane, req, bank);
                    granted += 1;
                    break;
                }
            }
        }
        granted.min(self.cfg.banks)
    }

    /// Index of the oldest queue entry that still has a pending lane.
    /// Ordered issue modes work on this entry; completion of *earlier*
    /// entries overlaps in the pipeline, as in Plasticine's MU.
    fn oldest_pending_entry(&self) -> Option<usize> {
        (0..self.queue.len()).find(|&qi| self.queue.get(qi).expect("in range").pending != 0)
    }

    /// Fully ordered issue: requests leave in program order; each cycle
    /// issues the longest prefix of the oldest unfinished vector's
    /// remaining lanes whose banks are distinct.
    fn issue_fully_ordered(&mut self) -> usize {
        let Some(qi) = self.oldest_pending_entry() else {
            return 0;
        };
        let entry = self.queue.get(qi).expect("in range");
        let mut to_issue = std::mem::take(&mut self.scratch.to_issue);
        to_issue.clear();
        let mut banks_used = 0u64;
        for (lane, state) in entry.lanes.iter().enumerate() {
            match state {
                LaneState::Empty
                | LaneState::Done { .. }
                | LaneState::DuplicateOf(_)
                | LaneState::Issued { .. } => continue,
                &LaneState::Pending { req, bank } => {
                    if banks_used >> bank & 1 == 1 {
                        break; // order barrier: later lanes must wait
                    }
                    banks_used |= 1 << bank;
                    to_issue.push((lane, req, bank));
                }
            }
        }
        let granted = to_issue.len();
        for &(lane, req, bank) in &to_issue {
            self.issue_request(qi, lane, req, bank);
        }
        self.scratch.to_issue = to_issue;
        granted
    }

    /// Arbitrated baseline: bank-arbitrate within the oldest unfinished
    /// vector only (no cross-vector interleaving).
    fn issue_arbitrated(&mut self) -> usize {
        let Some(qi) = self.oldest_pending_entry() else {
            return 0;
        };
        let entry = self.queue.get(qi).expect("in range");
        let mut masks = std::mem::take(&mut self.scratch.masks);
        masks.clear();
        masks.resize(self.cfg.lanes, 0);
        for (lane, state) in entry.lanes.iter().enumerate() {
            if let LaneState::Pending { bank, .. } = state {
                masks[lane] = 1 << bank;
            }
        }
        let mut result = std::mem::take(&mut self.scratch.alloc_result);
        let mut alloc_scratch = std::mem::take(&mut self.scratch.alloc_scratch);
        alloc::maximal_matching_into(&masks, self.cfg.banks, &mut alloc_scratch, &mut result);
        self.scratch.masks = masks;
        self.scratch.alloc_scratch = alloc_scratch;
        let mut granted = 0;
        for (lane, grant) in result.grants.iter().enumerate() {
            let Some(bank) = *grant else { continue };
            let entry = self.queue.get(qi).expect("in range");
            if let LaneState::Pending { req, .. } = entry.lanes[lane] {
                self.issue_request(qi, lane, req, bank);
                granted += 1;
            }
        }
        self.scratch.alloc_result = result;
        granted
    }
}

/// Splits a vector so no two lanes in one part share an address
/// (address-ordered admission, §3.1.2).
///
/// This is the allocating *reference implementation*; the hot path uses
/// the private `Spmu::split_into_staging`, which writes the parts
/// directly into recycled staging slots. The two must stay behaviourally
/// identical (see the `split_same_address_helper` test).
pub fn split_same_address(vector: &AccessVector) -> Vec<AccessVector> {
    let mut parts: Vec<AccessVector> = Vec::new();
    for (i, lane) in vector.lanes.iter().enumerate() {
        let Some(req) = lane else { continue };
        // Find the first part not already holding this address.
        let slot = parts
            .iter_mut()
            .find(|p| p.lanes.iter().flatten().all(|r| r.addr != req.addr));
        match slot {
            Some(part) => part.lanes[i] = Some(*req),
            None => {
                let mut lanes = vec![None; vector.lanes.len()];
                lanes[i] = Some(*req);
                parts.push(AccessVector { lanes });
            }
        }
    }
    if parts.is_empty() {
        parts.push(AccessVector {
            lanes: vec![None; vector.lanes.len()],
        });
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(spmu: &mut Spmu, budget: u64) -> Vec<CompletedVector> {
        let mut out = Vec::new();
        for _ in 0..budget {
            out.extend(spmu.tick().cloned());
            if spmu.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn single_vector_round_trip() {
        let mut spmu = Spmu::new(SpmuConfig::default());
        for (addr, v) in [(0u32, 1.5f32), (17, 2.5), (4000, -3.0)] {
            spmu.poke(addr, v);
        }
        let vec = AccessVector::reads(&[0, 17, 4000]);
        assert!(spmu.try_enqueue(&vec));
        let done = drain(&mut spmu, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].results[0], Some(1.5));
        assert_eq!(done[0].results[1], Some(2.5));
        assert_eq!(done[0].results[2], Some(-3.0));
    }

    #[test]
    fn rmw_accumulates_across_vectors() {
        let mut spmu = Spmu::new(SpmuConfig::default());
        for _ in 0..10 {
            let v = AccessVector::new(vec![Some(LaneRequest::rmw(5, RmwOp::AddF, 1.0)); 4]);
            while !spmu.try_enqueue(&v) {
                spmu.tick();
            }
            spmu.tick();
        }
        drain(&mut spmu, 200);
        assert_eq!(spmu.peek(5), 40.0);
    }

    #[test]
    fn results_return_in_program_order() {
        let mut spmu = Spmu::new(SpmuConfig::default());
        // Many vectors all hammering one bank: completion reorders
        // internally, but dequeue order must stay monotone.
        let mut sent = 0u64;
        let mut received = Vec::new();
        let mut budget = 10_000;
        while received.len() < 20 && budget > 0 {
            budget -= 1;
            if sent < 20 {
                // Same-bank addresses (stride = banks under linear... use
                // identical low nibble via multiples of 16 with hashing
                // disabled by picking addresses that hash to bank 0).
                let v = AccessVector::reads(&[0, 0, 0, 0]);
                if spmu.try_enqueue(&v) {
                    sent += 1;
                }
            }
            received.extend(spmu.tick().cloned());
        }
        assert_eq!(received.len(), 20);
        let ids: Vec<u64> = received.iter().map(|c| c.id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "out-of-order dequeue: {ids:?}"
        );
    }

    #[test]
    fn repeated_read_elision_fills_duplicates() {
        let mut spmu = Spmu::new(SpmuConfig::default());
        spmu.poke(9, 7.0);
        let v = AccessVector::reads(&[9, 9, 9, 9]);
        spmu.try_enqueue(&v);
        let done = drain(&mut spmu, 100);
        // Lanes are padded to the configured width; the four populated
        // lanes all observe the single performed read.
        assert_eq!(&done[0].results[..4], &[Some(7.0); 4]);
        assert!(done[0].results[4..].iter().all(Option::is_none));
        assert_eq!(spmu.elided_reads.get(), 3);
    }

    #[test]
    fn address_ordered_splits_same_address_writes() {
        let cfg = SpmuConfig {
            ordering: OrderingMode::AddressOrdered,
            ..Default::default()
        };
        let mut spmu = Spmu::new(cfg);
        let v = AccessVector::new(vec![
            Some(LaneRequest::rmw(3, RmwOp::AddF, 1.0)),
            Some(LaneRequest::rmw(3, RmwOp::AddF, 1.0)),
            Some(LaneRequest::rmw(4, RmwOp::AddF, 1.0)),
        ]);
        spmu.try_enqueue(&v);
        drain(&mut spmu, 200);
        assert_eq!(spmu.peek(3), 2.0);
        assert_eq!(spmu.peek(4), 1.0);
        assert_eq!(spmu.split_count(), 1);
    }

    #[test]
    fn split_same_address_helper() {
        let v = AccessVector::new(vec![
            Some(LaneRequest::write(1, 1.0)),
            Some(LaneRequest::write(1, 2.0)),
            Some(LaneRequest::write(2, 3.0)),
            Some(LaneRequest::write(1, 4.0)),
        ]);
        let parts = split_same_address(&v);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].occupancy(), 2); // addrs 1 and 2
        assert_eq!(parts[1].occupancy(), 1);
        assert_eq!(parts[2].occupancy(), 1);
        // Lane positions preserved.
        assert!(parts[0].lanes[0].is_some() && parts[0].lanes[2].is_some());
    }

    #[test]
    fn in_place_split_matches_reference() {
        // The hot-path splitter writes into the staging ring; it must
        // stage exactly the parts the reference implementation returns.
        let cases = [
            vec![
                Some(LaneRequest::write(1, 1.0)),
                Some(LaneRequest::write(1, 2.0)),
                Some(LaneRequest::write(2, 3.0)),
                Some(LaneRequest::write(1, 4.0)),
            ],
            vec![None, None, None],
            vec![Some(LaneRequest::rmw(9, RmwOp::AddF, 1.0)); 16],
            vec![
                None,
                Some(LaneRequest::read(7)),
                None,
                Some(LaneRequest::read(7)),
            ],
        ];
        for lanes in cases {
            let v = AccessVector::new(lanes);
            let reference = split_same_address(&v);
            let cfg = SpmuConfig {
                ordering: OrderingMode::AddressOrdered,
                ..Default::default()
            };
            let mut spmu = Spmu::new(cfg);
            assert!(spmu.try_enqueue(&v));
            let staged: Vec<AccessVector> = spmu.staging.iter().cloned().collect();
            assert_eq!(staged, reference, "split mismatch for {v:?}");
        }
    }

    #[test]
    fn ordering_modes_all_complete() {
        for ordering in [
            OrderingMode::Unordered,
            OrderingMode::AddressOrdered,
            OrderingMode::FullyOrdered,
            OrderingMode::Arbitrated,
        ] {
            let cfg = SpmuConfig {
                ordering,
                ..Default::default()
            };
            let mut spmu = Spmu::new(cfg);
            let mut done = 0;
            let mut sent = 0;
            let mut budget = 50_000;
            while done < 10 && budget > 0 {
                budget -= 1;
                if sent < 10 {
                    let addrs: Vec<u32> =
                        (0..16).map(|i| (sent as u32 * 31 + i * 7) % 1024).collect();
                    if spmu.try_enqueue(&AccessVector::reads(&addrs)) {
                        sent += 1;
                    }
                }
                done += spmu.tick().is_some() as usize;
            }
            assert_eq!(done, 10, "{ordering:?} failed to complete");
        }
    }

    #[test]
    fn ideal_mode_ignores_conflicts() {
        let cfg = SpmuConfig {
            ideal_conflict_free: true,
            ..Default::default()
        };
        let mut spmu = Spmu::new(cfg);
        // All 16 lanes to the same bank: ideal issues all at once.
        let v = AccessVector::reads(&(0..16).map(|_| 0u32).collect::<Vec<_>>());
        // Disable elision to force 16 real requests.
        spmu.cfg.elide_repeated_reads = false;
        spmu.try_enqueue(&v);
        spmu.tick(); // admit
        spmu.tick(); // issue all
                     // After pipeline latency, everything is done in one dequeue.
        let done = drain(&mut spmu, 10);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn capacity_bounds_are_enforced() {
        let spmu = Spmu::new(SpmuConfig::default());
        assert_eq!(spmu.config().capacity_words(), 65_536);
        let result = std::panic::catch_unwind(|| {
            let mut s = Spmu::new(SpmuConfig::default());
            s.poke(70_000, 1.0);
        });
        assert!(result.is_err());
    }

    #[test]
    fn window_sizes_follow_paper() {
        let cfg = SpmuConfig::default();
        assert_eq!(cfg.window_for_iteration(0), 5);
        assert_eq!(cfg.window_for_iteration(1), 10);
        assert_eq!(cfg.window_for_iteration(2), 16);
        let mut one_pri = cfg;
        one_pri.priorities = 1;
        assert_eq!(one_pri.window_for_iteration(0), 16);
        let mut d8 = cfg;
        d8.queue_depth = 8;
        assert_eq!(d8.window_for_iteration(0), 3);
        assert_eq!(d8.window_for_iteration(1), 5);
        assert_eq!(d8.window_for_iteration(2), 8);
    }
}
