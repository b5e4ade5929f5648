//! DRAM model — the stand-in for Ramulator.
//!
//! The paper simulates DRAM with Ramulator behind burst-level (64 B)
//! address generators and evaluates three memory systems (Table 7):
//! DDR4-2133 (68 GB/s), HBM2 (900 GB/s), and HBM2E (1800 GB/s). The
//! evaluated applications are *bandwidth*-limited — the paper's own
//! sensitivity study sweeps bandwidth directly (Fig. 5a) — so this model
//! captures the two properties the results depend on:
//!
//! 1. **Throughput**: peak bytes/cycle scaled by a locality-dependent
//!    efficiency (streamed bursts approach peak; random bursts pay row
//!    misses and channel imbalance).
//! 2. **Latency**: a fixed service latency for dependency-bound phases
//!    (e.g. BFS levels that cannot be pipelined).
//!
//! Both an analytic interface ([`DramModel`]) and a cycle-level channel
//! ([`DramChannel`], used by the address-generator simulator) are provided.

use crate::queue::BoundedQueue;
use crate::CLOCK_GHZ;

/// Bytes per DRAM burst (one 64 B transfer, paper §3.4/§4.1).
pub const BURST_BYTES: u64 = 64;

/// The memory system attached to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryKind {
    /// DDR4-2133: 68 GB/s (the CPU-comparison configuration).
    Ddr4,
    /// HBM2: 900 GB/s.
    Hbm2,
    /// HBM2E: 1800 GB/s (the primary configuration).
    Hbm2e,
    /// Arbitrary bandwidth in GB/s (Fig. 5a sensitivity sweeps).
    Custom(f64),
    /// Infinite bandwidth, zero latency (the paper's "Ideal Net & Mem").
    Ideal,
}

impl MemoryKind {
    /// Peak bandwidth in GB/s (`f64::INFINITY` for ideal memory).
    pub fn bandwidth_gbps(self) -> f64 {
        match self {
            MemoryKind::Ddr4 => 68.0,
            MemoryKind::Hbm2 => 900.0,
            MemoryKind::Hbm2e => 1800.0,
            MemoryKind::Custom(gbps) => gbps,
            MemoryKind::Ideal => f64::INFINITY,
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MemoryKind::Ddr4 => "DDR4",
            MemoryKind::Hbm2 => "HBM2",
            MemoryKind::Hbm2e => "HBM2E",
            MemoryKind::Custom(_) => "Custom",
            MemoryKind::Ideal => "Ideal",
        }
    }
}

/// How an access stream touches DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Long sequential bursts (tile loads/stores): near-peak efficiency.
    Streaming,
    /// Independent random bursts: row misses and channel imbalance apply.
    Random,
}

/// Analytic DRAM model: converts traffic into cycles at the core clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    kind: MemoryKind,
    /// Fraction of peak achieved by streaming accesses.
    streaming_efficiency: f64,
    /// Fraction of peak achieved by independent random bursts.
    random_efficiency: f64,
    /// Service latency for one burst, in core cycles.
    latency_cycles: u64,
}

impl DramModel {
    /// Builds the model for a memory system with calibrated efficiencies.
    ///
    /// Streaming runs at 95% of peak. Random-burst efficiency is lower for
    /// DDR4 (fewer banks/channels to spread row misses over) than for HBM
    /// stacks; the constants are chosen so that random-access goodput
    /// ratios between DDR4 and HBM2E match the application-level ratios in
    /// the paper's Table 12.
    pub fn new(kind: MemoryKind) -> Self {
        let (streaming_efficiency, random_efficiency, latency_ns) = match kind {
            MemoryKind::Ddr4 => (0.95, 0.40, 60.0),
            MemoryKind::Hbm2 => (0.95, 0.55, 50.0),
            MemoryKind::Hbm2e => (0.95, 0.55, 50.0),
            MemoryKind::Custom(_) => (0.95, 0.55, 50.0),
            MemoryKind::Ideal => (1.0, 1.0, 0.0),
        };
        DramModel {
            kind,
            streaming_efficiency,
            random_efficiency,
            latency_cycles: (latency_ns * CLOCK_GHZ).round() as u64,
        }
    }

    /// Peak bytes per core cycle.
    fn peak_bytes_per_cycle(&self) -> f64 {
        self.kind.bandwidth_gbps() / CLOCK_GHZ
    }

    /// Effective bytes per core cycle for a pattern.
    fn effective_bytes_per_cycle(&self, pattern: AccessPattern) -> f64 {
        let eff = match pattern {
            AccessPattern::Streaming => self.streaming_efficiency,
            AccessPattern::Random => self.random_efficiency,
        };
        self.peak_bytes_per_cycle() * eff
    }

    /// Cycles to transfer `bytes` with the given pattern (throughput only).
    ///
    /// Random transfers are rounded up to whole bursts first: a 4-byte
    /// random read still moves 64 B.
    pub fn transfer_cycles(&self, bytes: u64, pattern: AccessPattern) -> u64 {
        if matches!(self.kind, MemoryKind::Ideal) || bytes == 0 {
            return 0;
        }
        let effective_bytes = match pattern {
            AccessPattern::Streaming => bytes,
            AccessPattern::Random => bytes.div_ceil(BURST_BYTES) * BURST_BYTES,
        };
        (effective_bytes as f64 / self.effective_bytes_per_cycle(pattern)).ceil() as u64
    }

    /// Service latency of a single dependent access, in core cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.latency_cycles
    }
}

/// One in-flight burst request in the cycle-level channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstRequest {
    /// Burst-aligned address.
    pub addr: u64,
    /// Opaque tag returned on completion.
    pub tag: u64,
}

/// A completed burst with the cycle it finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstCompletion {
    /// The request's tag.
    pub tag: u64,
    /// Completion cycle.
    pub cycle: u64,
}

/// Cycle-level DRAM channel: a bounded request queue drained at the
/// channel's sustained burst rate after a fixed latency. Used by the
/// address-generator unit simulator.
#[derive(Debug, Clone)]
pub struct DramChannel {
    model: DramModel,
    cycle: u64,
    /// Fractional burst-service credit accumulated per cycle.
    credit: f64,
    queue: BoundedQueue<(BurstRequest, u64)>, // (request, enqueue cycle)
    completed: Vec<BurstCompletion>,
}

impl DramChannel {
    /// Creates a channel with the given queue depth.
    pub fn new(model: DramModel, queue_depth: usize) -> Self {
        DramChannel {
            model,
            cycle: 0,
            credit: 0.0,
            queue: BoundedQueue::new(queue_depth),
            // Per-tick completions can never exceed the queue occupancy,
            // so pre-sizing here keeps `tick` allocation-free from the
            // first cycle.
            completed: Vec::with_capacity(queue_depth),
        }
    }

    /// Service rate in bursts per cycle. Random pattern: the
    /// channel-level sim is used for scattered AG traffic, so the
    /// conservative efficiency applies.
    fn bursts_per_cycle(&self) -> f64 {
        self.model.effective_bytes_per_cycle(AccessPattern::Random) / BURST_BYTES as f64
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Attempts to enqueue a burst; returns it back on backpressure.
    pub fn push(&mut self, req: BurstRequest) -> Result<(), BurstRequest> {
        self.queue.push((req, self.cycle)).map_err(|(r, _)| r)
    }

    /// Whether a burst would currently be accepted by
    /// [`push`](Self::push): the non-mutating backpressure probe.
    pub fn can_accept(&self) -> bool {
        !self.queue.is_full()
    }

    /// Advances one cycle, returning bursts completed this cycle. The
    /// slice borrows an internal buffer reused on the next call, so the
    /// steady-state tick loop performs no allocation.
    pub fn tick(&mut self) -> &[BurstCompletion] {
        self.cycle += 1;
        let bursts_per_cycle = self.bursts_per_cycle();
        self.credit += bursts_per_cycle;
        // Credit beyond one cycle's service capacity cannot be banked:
        // cycles spent idle or blocked on latency are lost bandwidth.
        let cap = bursts_per_cycle.ceil().max(1.0);
        self.credit = self.credit.min(cap);
        self.completed.clear();
        while self.credit >= 1.0 {
            let Some(&(req, enq)) = self.queue.front() else {
                break;
            };
            // A burst cannot complete before its service latency elapses.
            if self.cycle < enq + self.model.latency_cycles() {
                break;
            }
            self.queue.pop();
            self.credit -= 1.0;
            self.completed.push(BurstCompletion {
                tag: req.tag,
                cycle: self.cycle,
            });
        }
        &self.completed
    }

    /// Whether any requests are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Returns the channel to its as-constructed state without
    /// releasing buffer capacity: a reset channel behaves exactly like
    /// a fresh one.
    pub fn reset(&mut self) {
        self.cycle = 0;
        self.credit = 0.0;
        self.queue.reset();
        self.completed.clear();
    }
}

/// Sentinel for "no row open" in a bank's row register.
const NO_ROW: u64 = u64::MAX;

/// Timing parameters of the banked cycle-level channel
/// ([`BankedDramChannel`]).
///
/// The defaults model one HBM-style pseudo-channel: 16 banks, 4 KiB rows
/// (64 bursts), a 64-deep per-bank request queue (the outstanding window
/// must cover the bandwidth-delay product, or Little's law — not the
/// banks — caps throughput), and the CAS latency of the attached
/// [`DramModel`]. The *row-miss penalty* is not a free
/// parameter — it is derived from the model's random-burst efficiency at
/// construction so the banked channel's worst-case (all-miss) throughput
/// never exceeds the analytic random rate, which is what keeps the
/// cycle-level mode a refinement of the analytic one rather than a
/// contradiction of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankTiming {
    /// Number of independently timed banks.
    pub banks: usize,
    /// Per-bank request-queue depth (backpressure bound).
    pub queue_depth: usize,
    /// Minimum cycles between enqueue and completion (CAS latency).
    pub cas_latency: u64,
    /// Bursts per DRAM row; accesses within the same row are row hits.
    row_bursts: u64,
}

impl BankTiming {
    /// Bank timing for a memory system: the default geometry with the
    /// model's service latency as the CAS latency.
    pub fn for_model(model: &DramModel) -> Self {
        BankTiming {
            banks: 16,
            queue_depth: 64,
            cas_latency: model.latency_cycles(),
            row_bursts: 64,
        }
    }
}

/// Aggregate counters of a [`BankedDramChannel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankedStats {
    /// Bursts served (equals bursts pushed once the channel drains).
    pub served: u64,
    /// Bursts that hit their bank's open row.
    pub row_hits: u64,
    /// Bursts that closed one open row to activate another.
    pub row_conflicts: u64,
    /// Total cycles requests spent queued beyond the CAS latency
    /// (bank-contention wait).
    pub contention_cycles: u64,
    /// Cycles any bank spent busy, summed over banks (per-bank
    /// occupancy; divide by `banks * cycles` for mean utilization).
    pub bank_busy_cycles: u64,
    /// Highest per-bank queue occupancy ever observed.
    pub peak_bank_queue: usize,
}

/// One bank of the banked channel.
#[derive(Debug, Clone)]
struct Bank {
    queue: BoundedQueue<(BurstRequest, u64)>, // (request, enqueue cycle)
    open_row: u64,
    busy_until: u64,
}

/// Cycle-level *banked* DRAM channel: per-bank FIFO queues, open-row
/// tracking with a derived row-miss penalty, and a shared-bus burst
/// credit. This is the timing hook behind the cycle-level memory mode
/// (`MemTiming::CycleLevel`): the analytic [`DramModel`] prices traffic
/// in closed form, while this channel *earns* the same rates — streaming
/// approaches the streaming efficiency through row hits, scattered
/// traffic degrades toward the random efficiency through row misses —
/// and additionally exposes contention and row-conflict statistics no
/// closed form can produce.
///
/// Determinism: service is round-robin over banks from a cursor that
/// advances one bank per tick, all arithmetic is integer or exact `f64`
/// credit accounting, and no randomness or wall-clock time is consulted,
/// so completion streams are machine-independent.
#[derive(Debug, Clone)]
pub struct BankedDramChannel {
    timing: BankTiming,
    /// Cycles a bank stays busy after activating a new row, derived so
    /// all-miss throughput matches the model's random efficiency.
    row_miss_penalty: u64,
    /// Shared-bus service rate in bursts per cycle (constant for the
    /// channel's lifetime; hoisted out of the tick loop).
    bus_bursts_per_cycle: f64,
    /// Credit cap: unused bus cycles are lost bandwidth, not banked.
    credit_cap: f64,
    cycle: u64,
    credit: f64,
    banks: Vec<Bank>,
    rr: usize,
    completed: Vec<BurstCompletion>,
    stats: BankedStats,
}

impl BankedDramChannel {
    /// Creates a banked channel over `model` with the given timing.
    ///
    /// # Panics
    ///
    /// Panics if `timing.banks` or `timing.row_bursts` is zero.
    pub fn new(model: DramModel, timing: BankTiming) -> Self {
        assert!(timing.banks > 0, "banked channel needs at least one bank");
        assert!(timing.row_bursts > 0, "rows must hold at least one burst");
        let random_bursts_per_cycle =
            model.effective_bytes_per_cycle(AccessPattern::Random) / BURST_BYTES as f64;
        // All-miss traffic spread over `banks` banks sustains
        // `banks / penalty` bursts per cycle; ceil keeps that at or
        // below the analytic random rate.
        let row_miss_penalty = if random_bursts_per_cycle.is_finite() {
            ((timing.banks as f64 / random_bursts_per_cycle).ceil() as u64).max(1)
        } else {
            1 // ideal memory: a row miss costs the minimum service time
        };
        // The shared bus moves bursts at the streaming rate; bank timing
        // decides whether traffic can actually sustain it.
        let bus_bursts_per_cycle =
            model.effective_bytes_per_cycle(AccessPattern::Streaming) / BURST_BYTES as f64;
        BankedDramChannel {
            timing,
            row_miss_penalty,
            bus_bursts_per_cycle,
            credit_cap: bus_bursts_per_cycle.ceil().max(1.0),
            cycle: 0,
            credit: 0.0,
            banks: vec![
                Bank {
                    queue: BoundedQueue::new(timing.queue_depth),
                    open_row: NO_ROW,
                    busy_until: 0,
                };
                timing.banks
            ],
            rr: 0,
            // At most one burst per bank can complete per tick.
            completed: Vec::with_capacity(timing.banks),
            stats: BankedStats::default(),
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> BankedStats {
        self.stats
    }

    /// The bank an address maps to (burst-interleaved).
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / BURST_BYTES) % self.timing.banks as u64) as usize
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Attempts to enqueue a burst; returns it back on backpressure.
    pub fn push(&mut self, req: BurstRequest) -> Result<(), BurstRequest> {
        let bank = self.bank_of(req.addr);
        let cycle = self.cycle;
        let q = &mut self.banks[bank].queue;
        q.push((req, cycle)).map_err(|(r, _)| r)?;
        self.stats.peak_bank_queue = self.stats.peak_bank_queue.max(q.len());
        Ok(())
    }

    /// Advances one cycle, returning bursts completed this cycle. The
    /// slice borrows an internal buffer reused on the next call, so the
    /// steady-state tick loop performs no allocation.
    pub fn tick(&mut self) -> &[BurstCompletion] {
        self.cycle += 1;
        // Unused bus cycles are lost bandwidth; credit does not bank
        // past the cap.
        self.credit = (self.credit + self.bus_bursts_per_cycle).min(self.credit_cap);
        self.completed.clear();
        let n = self.timing.banks;
        for i in 0..n {
            if self.credit < 1.0 {
                break;
            }
            let bank = &mut self.banks[(self.rr + i) % n];
            if bank.busy_until > self.cycle {
                continue;
            }
            let Some(&(req, enq)) = bank.queue.front() else {
                continue;
            };
            if self.cycle < enq + self.timing.cas_latency {
                continue;
            }
            bank.queue.pop();
            let row = req.addr / BURST_BYTES / self.timing.row_bursts;
            if bank.open_row == row {
                self.stats.row_hits += 1;
                bank.busy_until = self.cycle + 1;
            } else {
                if bank.open_row != NO_ROW {
                    self.stats.row_conflicts += 1;
                }
                bank.open_row = row;
                bank.busy_until = self.cycle + self.row_miss_penalty;
            }
            self.stats.contention_cycles += self.cycle - (enq + self.timing.cas_latency);
            self.credit -= 1.0;
            self.stats.served += 1;
            self.completed.push(BurstCompletion {
                tag: req.tag,
                cycle: self.cycle,
            });
        }
        for bank in &self.banks {
            if bank.busy_until > self.cycle {
                self.stats.bank_busy_cycles += 1;
            }
        }
        self.rr = (self.rr + 1) % n;
        &self.completed
    }

    /// Whether any requests are pending.
    pub fn is_idle(&self) -> bool {
        self.banks.iter().all(|b| b.queue.is_empty())
    }

    /// Returns the channel to its as-constructed state without
    /// releasing buffer capacity: a reset channel behaves exactly like
    /// a fresh one.
    fn reset(&mut self) {
        self.cycle = 0;
        self.credit = 0.0;
        self.rr = 0;
        self.completed.clear();
        self.stats = BankedStats::default();
        for bank in &mut self.banks {
            bank.queue.reset();
            bank.open_row = NO_ROW;
            bank.busy_until = 0;
        }
    }
}

/// N independent [`BankedDramChannel`]s behind a deterministic crossbar
/// — the multi-channel memory topology of the cycle-level mode.
///
/// Capstan attaches address generators to 80 independent AG regions
/// (paper Table 7), so DRAM bandwidth and atomic serialization are
/// *per-region* effects: traffic to different regions proceeds in
/// parallel, and only same-region traffic contends. The crossbar maps a
/// burst address to its owning channel by the address's **region bits**
/// — the bits above the DRAM row index — so every row lives entirely in
/// one channel (row locality is preserved) and consecutive rows rotate
/// across channels (streaming sweeps spread evenly):
///
/// ```text
/// channel(addr) = (addr / BURST_BYTES / row_bursts) % channels
/// ```
///
/// With `channels == 1` the array degenerates to exactly one
/// [`BankedDramChannel`] receiving every request — bit-identical to the
/// single-channel topology, which is what keeps the committed golden
/// pins valid under the default configuration.
///
/// # Determinism
///
/// Routing is a pure function of the address; service is round-robin
/// over channels from a cursor that advances one channel per tick
/// (completions merge in that rotating order); no randomness or
/// wall-clock time is consulted. Completion streams are therefore
/// machine-independent, like the underlying channels'.
///
/// # Allocation
///
/// The per-channel queues are fixed at construction and the merged
/// completion buffer is pre-sized to the theoretical per-tick maximum
/// (one burst per bank per channel), so `tick` performs no steady-state
/// heap allocation.
#[derive(Debug, Clone)]
pub struct ChannelArray {
    channels: Vec<BankedDramChannel>,
    row_bursts: u64,
    /// Rotating service cursor (the round-robin arbitration order in
    /// which channels drain into the shared completion buffer).
    rr: usize,
    completed: Vec<BurstCompletion>,
}

impl ChannelArray {
    /// Creates `channels` identical banked channels over `model`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero (via the same guard as
    /// [`BankedDramChannel::new`] for the timing fields).
    pub fn new(model: DramModel, timing: BankTiming, channels: usize) -> Self {
        assert!(channels > 0, "channel array needs at least one channel");
        ChannelArray {
            channels: vec![BankedDramChannel::new(model, timing); channels],
            row_bursts: timing.row_bursts,
            rr: 0,
            // At most one burst per bank per channel completes per tick.
            completed: Vec::with_capacity(channels * timing.banks),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The crossbar route for an address: the channel owning its region
    /// (row-granular interleaving — see the type-level docs).
    fn channel_of(&self, addr: u64) -> usize {
        ((addr / BURST_BYTES / self.row_bursts) % self.channels.len() as u64) as usize
    }

    /// Total bursts served across all channels.
    pub fn served(&self) -> u64 {
        self.channels.iter().map(|c| c.stats().served).sum()
    }

    /// Statistics of one channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= self.channels()`.
    pub fn channel_stats(&self, channel: usize) -> BankedStats {
        self.channels[channel].stats()
    }

    /// Statistics rolled up across channels: counters sum;
    /// `peak_bank_queue` is the maximum over channels.
    pub fn stats(&self) -> BankedStats {
        let mut total = BankedStats::default();
        for ch in &self.channels {
            let s = ch.stats();
            total.served += s.served;
            total.row_hits += s.row_hits;
            total.row_conflicts += s.row_conflicts;
            total.contention_cycles += s.contention_cycles;
            total.bank_busy_cycles += s.bank_busy_cycles;
            total.peak_bank_queue = total.peak_bank_queue.max(s.peak_bank_queue);
        }
        total
    }

    /// Attempts to enqueue a burst; returns it back on backpressure.
    pub fn push(&mut self, req: BurstRequest) -> Result<(), BurstRequest> {
        let ch = self.channel_of(req.addr);
        self.channels[ch].push(req)
    }

    /// Advances every channel one cycle, merging completions in the
    /// rotating round-robin service order into one buffer reused on the
    /// next call.
    pub fn tick(&mut self) -> &[BurstCompletion] {
        self.completed.clear();
        let n = self.channels.len();
        for i in 0..n {
            let done = self.channels[(self.rr + i) % n].tick();
            self.completed.extend_from_slice(done);
        }
        self.rr = (self.rr + 1) % n;
        &self.completed
    }

    /// Whether any requests are pending.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(BankedDramChannel::is_idle)
    }

    /// Returns the channel to its as-constructed state without
    /// releasing buffer capacity: a reset channel behaves exactly like
    /// a fresh one.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.reset();
        }
        self.rr = 0;
        self.completed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_bandwidths_match_table7() {
        assert_eq!(MemoryKind::Ddr4.bandwidth_gbps(), 68.0);
        assert_eq!(MemoryKind::Hbm2.bandwidth_gbps(), 900.0);
        assert_eq!(MemoryKind::Hbm2e.bandwidth_gbps(), 1800.0);
    }

    #[test]
    fn streaming_beats_random() {
        let m = DramModel::new(MemoryKind::Ddr4);
        let bytes = 1 << 20;
        assert!(
            m.transfer_cycles(bytes, AccessPattern::Streaming)
                < m.transfer_cycles(bytes, AccessPattern::Random)
        );
    }

    #[test]
    fn random_pays_burst_granularity() {
        let m = DramModel::new(MemoryKind::Hbm2e);
        // 1000 scattered 4-byte reads cost the same as 1000 bursts.
        let scattered = m.transfer_cycles(4 * 1000, AccessPattern::Random);
        let bursts = m.transfer_cycles(64 * 1000, AccessPattern::Random);
        // 4000 bytes rounds to 63 bursts worth... it rounds the total; at
        // minimum scattered traffic must cost a significant fraction.
        assert!(scattered >= bursts / 16);
        // And exactly equals when already burst-sized.
        assert_eq!(bursts, m.transfer_cycles(64 * 1000, AccessPattern::Random));
    }

    #[test]
    fn bandwidth_ratio_carries_to_cycles() {
        let ddr = DramModel::new(MemoryKind::Ddr4);
        let hbm = DramModel::new(MemoryKind::Hbm2e);
        let bytes = 64 * 100_000;
        let ratio = ddr.transfer_cycles(bytes, AccessPattern::Streaming) as f64
            / hbm.transfer_cycles(bytes, AccessPattern::Streaming) as f64;
        let expect = 1800.0 / 68.0;
        assert!(
            (ratio - expect).abs() / expect < 0.05,
            "ratio {ratio} vs {expect}"
        );
    }

    #[test]
    fn ideal_memory_is_free() {
        let m = DramModel::new(MemoryKind::Ideal);
        assert_eq!(m.transfer_cycles(1 << 30, AccessPattern::Random), 0);
        assert_eq!(m.latency_cycles(), 0);
    }

    #[test]
    fn channel_respects_latency_and_rate() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut ch = DramChannel::new(model, 64);
        for i in 0..32 {
            ch.push(BurstRequest {
                addr: i * 64,
                tag: i,
            })
            .unwrap();
        }
        let mut completions = Vec::new();
        for _ in 0..4000 {
            completions.extend_from_slice(ch.tick());
            if ch.is_idle() {
                break;
            }
        }
        assert_eq!(completions.len(), 32);
        // Nothing completes before the service latency.
        assert!(completions[0].cycle >= model.latency_cycles());
        // Tags complete in FIFO order.
        let tags: Vec<u64> = completions.iter().map(|c| c.tag).collect();
        assert!(tags.windows(2).all(|w| w[0] < w[1]));
        // Sustained rate is below peak: 32 bursts at DDR4 random efficiency
        // (0.40 * 42.5 B/cyc = 17 B/cyc => ~0.266 bursts/cyc => ~120 cyc).
        let span = completions.last().unwrap().cycle - completions[0].cycle;
        assert!(span >= 100, "drained too fast: {span} cycles");
    }

    #[test]
    fn channel_backpressure() {
        let mut ch = DramChannel::new(DramModel::new(MemoryKind::Ddr4), 2);
        assert!(ch.push(BurstRequest { addr: 0, tag: 0 }).is_ok());
        assert!(ch.push(BurstRequest { addr: 64, tag: 1 }).is_ok());
        assert!(ch.push(BurstRequest { addr: 128, tag: 2 }).is_err());
    }

    fn drain_banked(ch: &mut BankedDramChannel, budget: u64) -> Vec<BurstCompletion> {
        let mut out = Vec::new();
        for _ in 0..budget {
            out.extend_from_slice(ch.tick());
            if ch.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn banked_streaming_approaches_streaming_rate() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut ch = BankedDramChannel::new(model, BankTiming::for_model(&model));
        let mut pushed = 0u64;
        let mut done = Vec::new();
        let total = 2000u64;
        for _ in 0..200_000u64 {
            while pushed < total {
                let req = BurstRequest {
                    addr: pushed * BURST_BYTES,
                    tag: pushed,
                };
                if ch.push(req).is_err() {
                    break;
                }
                pushed += 1;
            }
            done.extend_from_slice(ch.tick());
            if pushed == total && ch.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), total as usize);
        // Sequential bursts interleave across banks and mostly row-hit:
        // the drain rate must sit within 2x of the analytic streaming
        // estimate (and can never beat it).
        let analytic = model.transfer_cycles(total * BURST_BYTES, AccessPattern::Streaming);
        let cycles = done.last().unwrap().cycle;
        assert!(
            cycles >= analytic,
            "banked beat analytic: {cycles} < {analytic}"
        );
        assert!(
            cycles < analytic * 2,
            "banked too slow: {cycles} vs {analytic}"
        );
        let s = ch.stats();
        assert!(s.row_hits > s.row_conflicts, "{s:?}");
    }

    #[test]
    fn banked_random_no_faster_than_analytic_random() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let mut ch = BankedDramChannel::new(model, BankTiming::for_model(&model));
        // Scattered addresses: stride through rows so every access
        // activates a different row in its bank.
        let mut pushed = 0u64;
        let total = 1000u64;
        let mut done = Vec::new();
        for _ in 0..200_000u64 {
            while pushed < total {
                let burst = (pushed * 977) % 65_536;
                let req = BurstRequest {
                    addr: burst * BURST_BYTES,
                    tag: pushed,
                };
                if ch.push(req).is_err() {
                    break;
                }
                pushed += 1;
            }
            done.extend_from_slice(ch.tick());
            if pushed == total && ch.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), total as usize);
        let analytic = model.transfer_cycles(total * BURST_BYTES, AccessPattern::Random);
        let cycles = done.last().unwrap().cycle;
        assert!(
            cycles >= analytic,
            "banked random beat the analytic rate: {cycles} < {analytic}"
        );
        let s = ch.stats();
        assert!(s.row_conflicts > s.row_hits, "{s:?}");
        assert!(s.contention_cycles > 0);
    }

    #[test]
    fn banked_respects_cas_latency_and_fifo() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let timing = BankTiming::for_model(&model);
        let mut ch = BankedDramChannel::new(model, timing);
        // Two requests into the same bank (same address even).
        for tag in 0..2 {
            ch.push(BurstRequest { addr: 0, tag }).unwrap();
        }
        let done = drain_banked(&mut ch, 100_000);
        assert_eq!(done.len(), 2);
        assert!(done[0].cycle >= timing.cas_latency);
        assert!(done[0].tag == 0 && done[1].tag == 1, "per-bank FIFO broke");
        assert!(done[1].cycle > done[0].cycle);
    }

    #[test]
    fn banked_backpressure_is_per_bank() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let timing = BankTiming {
            queue_depth: 2,
            ..BankTiming::for_model(&model)
        };
        let mut ch = BankedDramChannel::new(model, timing);
        // Fill bank 0 (addresses 0, 16*64, 32*64 all map to bank 0).
        let bank0 = |i: u64| BurstRequest {
            addr: i * timing.banks as u64 * BURST_BYTES,
            tag: i,
        };
        assert!(ch.push(bank0(0)).is_ok());
        assert!(ch.push(bank0(1)).is_ok());
        assert!(ch.push(bank0(2)).is_err(), "bank 0 queue must be full");
        // A different bank still accepts.
        assert!(ch
            .push(BurstRequest {
                addr: BURST_BYTES,
                tag: 99
            })
            .is_ok());
        assert_eq!(ch.stats().peak_bank_queue, 2);
    }

    #[test]
    fn banked_ideal_memory_is_fast_and_free_of_latency() {
        let model = DramModel::new(MemoryKind::Ideal);
        let mut ch = BankedDramChannel::new(model, BankTiming::for_model(&model));
        for i in 0..64u64 {
            ch.push(BurstRequest {
                addr: i * BURST_BYTES,
                tag: i,
            })
            .unwrap();
        }
        let done = drain_banked(&mut ch, 1000);
        assert_eq!(done.len(), 64);
        // 16 banks, one burst per bank per tick, no CAS latency: 64
        // bursts drain within a handful of cycles.
        assert!(done.last().unwrap().cycle <= 8);
    }

    /// Pushes `total` bursts (addresses from `addr_of`) into `arr` and
    /// drains it, returning (completions, final cycle).
    fn drain_array(arr: &mut ChannelArray, total: u64, addr_of: impl Fn(u64) -> u64) -> (u64, u64) {
        let mut pushed = 0u64;
        let mut done = 0u64;
        let mut cycle = 0u64;
        for _ in 0..2_000_000u64 {
            while pushed < total {
                let req = BurstRequest {
                    addr: addr_of(pushed),
                    tag: pushed,
                };
                if arr.push(req).is_err() {
                    break;
                }
                pushed += 1;
            }
            let completions = arr.tick();
            done += completions.len() as u64;
            cycle += 1;
            if pushed == total && arr.is_idle() {
                break;
            }
        }
        (done, cycle)
    }

    #[test]
    fn one_channel_array_matches_the_bare_channel_exactly() {
        // channels=1 must be bit-identical to a lone BankedDramChannel:
        // same completion stream, same stats. The default cycle-level
        // memory mode relies on this for golden-pin compatibility.
        let model = DramModel::new(MemoryKind::Ddr4);
        let timing = BankTiming::for_model(&model);
        let mut single = BankedDramChannel::new(model, timing);
        let mut array = ChannelArray::new(model, timing, 1);
        let addr_of = |i: u64| ((i * 977) % 4096) * BURST_BYTES;
        let mut pushed = 0u64;
        let total = 500u64;
        for _ in 0..1_000_000u64 {
            while pushed < total {
                let req = BurstRequest {
                    addr: addr_of(pushed),
                    tag: pushed,
                };
                let a = single.push(req);
                let b = array.push(req);
                assert_eq!(a.is_ok(), b.is_ok());
                if a.is_err() {
                    break;
                }
                pushed += 1;
            }
            assert_eq!(single.tick(), array.tick());
            if pushed == total && single.is_idle() {
                break;
            }
        }
        assert!(array.is_idle());
        assert_eq!(single.stats(), array.stats());
        assert_eq!(single.stats(), array.channel_stats(0));
        assert_eq!(array.served(), total);
    }

    #[test]
    fn crossbar_keeps_rows_whole_and_rotates_them() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let timing = BankTiming::for_model(&model);
        let arr = ChannelArray::new(model, timing, 4);
        let row_bytes = timing.row_bursts * BURST_BYTES;
        for row in 0..16u64 {
            let ch = arr.channel_of(row * row_bytes);
            // Every burst of the row lands on the same channel...
            for burst in 0..timing.row_bursts {
                assert_eq!(arr.channel_of(row * row_bytes + burst * BURST_BYTES), ch);
            }
            // ...and consecutive rows rotate round-robin.
            assert_eq!(ch, (row % 4) as usize);
        }
    }

    #[test]
    fn more_channels_never_slow_bank_parallel_traffic() {
        // Row-scattered traffic spread across regions: adding channels
        // adds service bandwidth, so the drain can only get faster (or
        // stay equal when something else is the bottleneck).
        let model = DramModel::new(MemoryKind::Ddr4);
        let timing = BankTiming::for_model(&model);
        let total = 2000u64;
        let addr_of = |i: u64| (i * 977 % 65_536) * BURST_BYTES;
        let mut last = u64::MAX;
        for channels in [1usize, 2, 4, 8] {
            let mut arr = ChannelArray::new(model, timing, channels);
            let (done, cycle) = drain_array(&mut arr, total, addr_of);
            assert_eq!(done, total, "{channels} channels lost completions");
            assert!(
                cycle <= last,
                "{channels} channels drained in {cycle} cycles, slower than {last}"
            );
            last = cycle;
        }
    }

    #[test]
    fn channel_array_reset_reproduces_a_fresh_run() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let timing = BankTiming::for_model(&model);
        let addr_of = |i: u64| (i * 977 % 4096) * BURST_BYTES;
        let mut arr = ChannelArray::new(model, timing, 4);
        let first = drain_array(&mut arr, 800, addr_of);
        let stats_first = arr.stats();
        arr.reset();
        assert!(arr.is_idle());
        assert_eq!(arr.served(), 0);
        let second = drain_array(&mut arr, 800, addr_of);
        assert_eq!(first, second, "reset run diverged from fresh run");
        assert_eq!(stats_first, arr.stats());
    }

    #[test]
    fn banked_reset_reproduces_a_fresh_run() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut ch = BankedDramChannel::new(model, BankTiming::for_model(&model));
        let run = |ch: &mut BankedDramChannel| {
            for i in 0..64u64 {
                ch.push(BurstRequest {
                    addr: (i * 977 % 4096) * BURST_BYTES,
                    tag: i,
                })
                .unwrap();
            }
            let done = drain_banked(ch, 100_000);
            (done, ch.stats(), ch.cycle())
        };
        let first = run(&mut ch);
        ch.reset();
        assert!(ch.is_idle());
        assert_eq!(ch.stats(), BankedStats::default());
        let second = run(&mut ch);
        assert_eq!(first, second, "reset run diverged from fresh run");
    }

    #[test]
    fn idle_channel_does_not_bank_credit() {
        let mut ch = DramChannel::new(DramModel::new(MemoryKind::Hbm2e), 8);
        for _ in 0..1000 {
            assert!(ch.tick().is_empty());
        }
        ch.push(BurstRequest { addr: 0, tag: 7 }).unwrap();
        // Even after a long idle period, the single burst still waits out
        // its service latency.
        let mut done_at = None;
        for _ in 0..200 {
            if let Some(c) = ch.tick().first() {
                done_at = Some(c.cycle);
                break;
            }
        }
        let latency = DramModel::new(MemoryKind::Hbm2e).latency_cycles();
        assert!(done_at.unwrap() >= 1000 + latency);
    }
}
