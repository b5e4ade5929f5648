//! Property-based tests for the microarchitecture models: allocator
//! legality, hash bijectivity, SpMU grant equivalence across ordering
//! modes, scanner/naive equivalence with cycle bounds, the
//! streaming scanner's exactness against its rank-based reference, and
//! shuffle-network conservation.

use capstan_arch::scanner::{scan_bittree, BitVecScanner, ScanMode};
use capstan_arch::shuffle::{merge_vectors, MergeShift, ShuffleEntry, ShuffleVector};
use capstan_arch::spmu::alloc::{allocate, maximal_matching};
use capstan_arch::spmu::driver::run_vectors;
use capstan_arch::spmu::{
    split_same_address, AccessVector, BankHash, BloomFilter, LaneRequest, OrderingMode, RmwOp,
    SpmuConfig,
};
use capstan_tensor::bittree::{BitTree, MAX_LEN};
use capstan_tensor::bitvec::BitVec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_grants_are_legal(
        masks in prop::collection::vec(any::<u64>(), 1..32),
        iterations in 1usize..4,
    ) {
        let iters: Vec<Vec<u64>> = (0..iterations).map(|_| masks.clone()).collect();
        let result = allocate(&iters, 16);
        // One grant per port, one port per bank, and only requested banks.
        let mut banks_seen = std::collections::HashSet::new();
        for (port, grant) in result.grants.iter().enumerate() {
            if let Some(bank) = grant {
                prop_assert!(*bank < 16);
                prop_assert!(masks[port] >> bank & 1 == 1, "ungranted bank {bank}");
                prop_assert!(banks_seen.insert(*bank), "bank {bank} granted twice");
            }
        }
    }

    #[test]
    fn allocator_never_beats_maximum_matching(
        masks in prop::collection::vec(0u64..(1 << 16), 1..24),
    ) {
        let separable = allocate(&[masks.clone(), masks.clone(), masks.clone()], 16);
        let maximum = maximal_matching(&masks, 16);
        prop_assert!(separable.total() <= maximum.total());
        // Three iterations should reach at least half the maximum.
        prop_assert!(2 * separable.total() >= maximum.total());
    }

    #[test]
    fn lowest_lane_arbitration_is_a_maximum_matching(
        requests in prop::collection::vec(0usize..17, 1..17),
    ) {
        // The arbitrated SpMU gives each bank requested by the oldest
        // vector to its lowest requesting lane (16 = idle lane). With one
        // bank per lane, that is exactly the maximum matching.
        let masks: Vec<u64> = requests.iter().map(|&b| if b < 16 { 1 << b } else { 0 }).collect();
        let maximum = maximal_matching(&masks, 16);
        let mut taken = 0u64;
        for (lane, &bank) in requests.iter().enumerate() {
            let wins = bank < 16 && taken >> bank & 1 == 0;
            if bank < 16 {
                taken |= 1 << bank;
            }
            prop_assert_eq!(maximum.grants[lane], wins.then_some(bank), "lane {}", lane);
        }
    }

    #[test]
    fn hash_is_bijective_per_offset_group(base in 0u32..60_000) {
        // Within any aligned group of 16 consecutive addresses, the hash
        // must produce 16 distinct banks (no within-offset collisions).
        let base = base & !0xF;
        let mut seen = [false; 16];
        for i in 0..16 {
            let b = BankHash::Hashed.bank_of(base + i, 16);
            prop_assert!(!seen[b], "collision at {}", base + i);
            seen[b] = true;
        }
    }

    #[test]
    fn rmw_add_commutes_across_orderings(
        addrs in prop::collection::vec(0u32..256, 1..64),
    ) {
        // Updates are never elided, so every ordering mode grants each
        // update exactly once: the granted addresses are the same
        // multiset, each granted on its own bank.
        let vectors: Vec<AccessVector> = addrs
            .chunks(16)
            .map(|c| {
                AccessVector::new(
                    c.iter().map(|&a| Some(LaneRequest::rmw(a, RmwOp::AddF))).collect(),
                )
            })
            .collect();
        let granted_addrs = |mode: OrderingMode| -> Vec<u32> {
            let cfg = SpmuConfig {
                ordering: mode,
                ..Default::default()
            };
            // The unit numbers the parts of an address-ordered split.
            let admitted: Vec<AccessVector> = if mode == OrderingMode::AddressOrdered {
                vectors.iter().flat_map(split_same_address).collect()
            } else {
                vectors.clone()
            };
            let mut spmu = capstan_arch::spmu::Spmu::new(cfg);
            spmu.enable_grant_log();
            let mut pending: Option<&AccessVector> = None;
            let mut iter = vectors.iter();
            for _ in 0..20_000 {
                if pending.is_none() {
                    pending = iter.next();
                }
                if let Some(v) = pending.take() {
                    if !spmu.try_enqueue(v) {
                        pending = Some(v);
                    }
                }
                spmu.tick();
                if pending.is_none() && spmu.is_idle() && iter.len() == 0 {
                    break;
                }
            }
            assert!(spmu.is_idle(), "{mode:?} failed to drain");
            let mut granted: Vec<u32> = spmu
                .grant_log()
                .expect("log enabled")
                .iter()
                .map(|g| {
                    let req = admitted[g.vector_id as usize].lanes[g.lane].expect("granted lane");
                    assert_eq!(g.bank, cfg.hash.bank_of(req.addr, cfg.banks));
                    req.addr
                })
                .collect();
            granted.sort_unstable();
            granted
        };
        let mut reference = addrs.clone();
        reference.sort_unstable();
        for mode in [
            OrderingMode::Unordered,
            OrderingMode::AddressOrdered,
            OrderingMode::FullyOrdered,
            OrderingMode::Arbitrated,
        ] {
            prop_assert_eq!(granted_addrs(mode), reference.clone(), "{:?}", mode);
        }
    }

    #[test]
    fn spmu_never_loses_requests(
        addrs in prop::collection::vec(0u32..4096, 1..80),
        depth in prop::sample::select(vec![8usize, 16, 32]),
    ) {
        let vectors: Vec<AccessVector> =
            addrs.chunks(16).map(AccessVector::reads).collect();
        let cfg = SpmuConfig {
            queue_depth: depth,
            ..Default::default()
        };
        let result = run_vectors(cfg, &vectors);
        prop_assert_eq!(result.requests, addrs.len() as u64);
    }

    #[test]
    fn scanner_cycles_are_bounded(
        idx in prop::collection::btree_set(0u32..2048, 0..256),
        width in prop::sample::select(vec![64usize, 128, 256, 512]),
        outputs in prop::sample::select(vec![4usize, 8, 16]),
    ) {
        let bv = BitVec::from_indices(2048, &idx.iter().copied().collect::<Vec<_>>()).unwrap();
        let scanner = BitVecScanner::new(width, outputs);
        let stats = scanner.scan_cycles(ScanMode::Union, &bv, None);
        prop_assert_eq!(stats.emitted, idx.len() as u64);
        // Lower bounds: one cycle per window, one cycle per `outputs`.
        let windows = (2048usize).div_ceil(width) as u64;
        prop_assert!(stats.cycles >= windows);
        prop_assert!(stats.cycles >= (idx.len() as u64).div_ceil(outputs as u64));
        // Upper bound: windows + emission overflow.
        prop_assert!(stats.cycles <= windows + (idx.len() as u64).div_ceil(outputs as u64));
    }

    #[test]
    fn merge_conserves_and_orders_entries(
        a_occ in prop::collection::vec(any::<bool>(), 16),
        b_occ in prop::collection::vec(any::<bool>(), 16),
        shift in prop::sample::select(vec![MergeShift::None, MergeShift::One, MergeShift::Full]),
    ) {
        let mk = |occ: &[bool]| -> ShuffleVector {
            occ.iter()
                .enumerate()
                .map(|(l, &on)| if on { Some(ShuffleEntry { dest: 0, lane: l }) } else { None })
                .collect()
        };
        let (a, b) = (mk(&a_occ), mk(&b_occ));
        let total = a.iter().flatten().count() + b.iter().flatten().count();
        let (outs, stats) = merge_vectors(&a, &b, 16, shift);
        let out_total: usize = outs.iter().map(|v| v.iter().flatten().count()).sum();
        prop_assert_eq!(out_total, total, "entries lost or duplicated");
        prop_assert_eq!(stats.entries as usize, total);
        // Shift radius respected: entries stay within +-radius of a source
        // lane that had an entry (checked loosely via occupancy).
        if shift == MergeShift::None {
            for v in &outs {
                for (lane, e) in v.iter().enumerate() {
                    if e.is_some() {
                        prop_assert!(a_occ[lane] || b_occ[lane]);
                    }
                }
            }
        }
    }

    #[test]
    fn bloom_filter_has_no_false_negatives(
        ops in prop::collection::vec((any::<bool>(), 0u32..512), 1..128),
    ) {
        // Replay an insert/remove interleaving, tracking a reference
        // multiset; any address currently in the multiset must hit.
        let mut filter = BloomFilter::paper_default();
        let mut reference: std::collections::HashMap<u32, usize> = Default::default();
        for (insert, addr) in ops {
            if insert {
                filter.insert(addr);
                *reference.entry(addr).or_default() += 1;
            } else if let Some(count) = reference.get_mut(&addr) {
                if *count > 0 {
                    filter.remove(addr);
                    *count -= 1;
                }
            }
        }
        for (&addr, &count) in &reference {
            if count > 0 {
                prop_assert!(filter.may_contain(addr), "false negative at {addr}");
            }
        }
    }

    #[test]
    fn unordered_is_fastest_mode(
        seed in 1u64..500,
    ) {
        use capstan_arch::spmu::driver::measure_random_throughput;
        let measure = |mode: OrderingMode| {
            let cfg = SpmuConfig {
                ordering: mode,
                ..Default::default()
            };
            measure_random_throughput(cfg, seed, 200, 800).bank_utilization
        };
        let unordered = measure(OrderingMode::Unordered);
        for mode in [OrderingMode::AddressOrdered, OrderingMode::FullyOrdered, OrderingMode::Arbitrated] {
            prop_assert!(
                unordered + 0.02 >= measure(mode),
                "{:?} beat unordered", mode
            );
        }
    }
}

/// Reference model for the address generator: the pre-slab,
/// `HashMap`-keyed implementation, kept deterministic by sorting the
/// only iteration whose order the hash map used to decide (flush).
/// The slab-indexed production AG must produce an identical completion
/// sequence (tags and cycles, in order) and identical burst counts.
mod ag_reference {
    use capstan_arch::ag::{DramAccess, DramAccessResult, BURST_WORDS};
    use capstan_sim::dram::{BurstRequest, DramChannel, DramModel};
    use std::collections::{HashMap, VecDeque};

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum BurstState {
        Fetching,
        Open { dirty: bool },
        WritingBack,
    }

    pub struct RefAg {
        channel: DramChannel,
        bursts: HashMap<u64, BurstState>,
        waiting: HashMap<u64, Vec<DramAccess>>,
        resident: VecDeque<u64>,
        capacity: usize,
        inflight: HashMap<u64, (u64, bool)>,
        next_tag: u64,
        results: Vec<DramAccessResult>,
        pub fetched: u64,
        pub written: u64,
    }

    impl RefAg {
        pub fn new(model: DramModel, capacity: usize) -> Self {
            RefAg {
                channel: DramChannel::new(model, 256),
                bursts: HashMap::new(),
                waiting: HashMap::new(),
                resident: VecDeque::new(),
                capacity: capacity.max(1),
                inflight: HashMap::new(),
                next_tag: 0,
                results: Vec::new(),
                fetched: 0,
                written: 0,
            }
        }

        pub fn is_idle(&self) -> bool {
            self.bursts
                .values()
                .all(|s| matches!(s, BurstState::Open { .. }))
                && self.waiting.values().all(Vec::is_empty)
                && self.channel.is_idle()
        }

        pub fn submit(&mut self, access: DramAccess) {
            let burst = access.addr / BURST_WORDS as u64;
            match self.bursts.get(&burst) {
                Some(BurstState::Open { .. }) => self.execute(access),
                Some(_) => self.waiting.entry(burst).or_default().push(access),
                None => {
                    self.waiting.entry(burst).or_default().push(access);
                    self.start_fetch(burst);
                }
            }
        }

        fn execute(&mut self, access: DramAccess) {
            if access.op.is_update() {
                let burst = access.addr / BURST_WORDS as u64;
                if let Some(BurstState::Open { dirty }) = self.bursts.get_mut(&burst) {
                    *dirty = true;
                }
            }
            self.results.push(DramAccessResult {
                tag: access.tag,
                cycle: self.channel.cycle() + 1,
            });
        }

        fn start_fetch(&mut self, burst: u64) {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.inflight.insert(tag, (burst, false));
            self.bursts.insert(burst, BurstState::Fetching);
            let req = BurstRequest {
                addr: burst * 64,
                tag,
            };
            if self.channel.push(req).is_err() {
                self.inflight.remove(&tag);
                self.bursts.remove(&burst);
                self.waiting.entry(burst).or_default();
            }
        }

        fn start_writeback(&mut self, burst: u64) {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.inflight.insert(tag, (burst, true));
            self.bursts.insert(burst, BurstState::WritingBack);
            let req = BurstRequest {
                addr: burst * 64,
                tag,
            };
            if self.channel.push(req).is_ok() {
                self.written += 1;
            } else {
                self.inflight.remove(&tag);
                self.bursts.insert(burst, BurstState::Open { dirty: true });
            }
        }

        pub fn tick(&mut self) -> Vec<DramAccessResult> {
            let mut unfetched: Vec<u64> = self
                .waiting
                .iter()
                .filter(|(b, reqs)| !reqs.is_empty() && !self.bursts.contains_key(*b))
                .map(|(b, _)| *b)
                .collect();
            unfetched.sort_unstable(); // determinism for the comparison
            for burst in unfetched {
                self.start_fetch(burst);
            }

            let completions: Vec<_> = self.channel.tick().to_vec();
            for c in &completions {
                let Some((burst, is_writeback)) = self.inflight.remove(&c.tag) else {
                    continue;
                };
                if is_writeback {
                    self.bursts.remove(&burst);
                    if self.waiting.get(&burst).is_some_and(|w| !w.is_empty()) {
                        self.start_fetch(burst);
                    }
                } else {
                    self.fetched += 1;
                    self.bursts.insert(burst, BurstState::Open { dirty: false });
                    self.resident.push_back(burst);
                    if let Some(waiters) = self.waiting.remove(&burst) {
                        for access in waiters {
                            self.execute(access);
                        }
                    }
                    self.maybe_evict();
                }
            }

            let now = self.channel.cycle();
            let (done, pending): (Vec<_>, Vec<_>) =
                self.results.drain(..).partition(|r| r.cycle <= now);
            self.results = pending;
            done
        }

        fn maybe_evict(&mut self) {
            while self.resident.len() > self.capacity {
                let Some(burst) = self.resident.pop_front() else {
                    break;
                };
                match self.bursts.get(&burst) {
                    Some(BurstState::Open { dirty: true }) => self.start_writeback(burst),
                    Some(BurstState::Open { dirty: false }) => {
                        self.bursts.remove(&burst);
                    }
                    _ => {}
                }
            }
        }

        pub fn flush(&mut self) {
            let mut dirty: Vec<u64> = self
                .bursts
                .iter()
                .filter(|(_, s)| matches!(s, BurstState::Open { dirty: true }))
                .map(|(b, _)| *b)
                .collect();
            dirty.sort_unstable(); // determinism for the comparison
            for burst in dirty {
                self.start_writeback(burst);
            }
            self.resident.clear();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slab_ag_matches_hashmap_reference(
        ops in prop::collection::vec(
            (0u64..1024, 0u8..6, 0u8..4),
            1..120,
        ),
        capacity in 1usize..8,
    ) {
        use capstan_arch::ag::{AddressGenerator, DramAccess};
        use capstan_sim::dram::{DramModel, MemoryKind};

        let words = 1024usize;
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut slab = AddressGenerator::new(model, words, capacity);
        let mut reference = ag_reference::RefAg::new(model, capacity);

        let to_op = |sel: u8| match sel {
            0 => RmwOp::Read,
            1 => RmwOp::AddF,
            2 => RmwOp::Write,
            3 => RmwOp::MinReportChanged,
            4 => RmwOp::TestAndSet,
            _ => RmwOp::SubF,
        };

        let check = |slab: &mut AddressGenerator, reference: &mut ag_reference::RefAg| {
            let want = reference.tick();
            let got = slab.tick();
            assert_eq!(got, want.as_slice(), "completion streams diverged");
        };

        // Interleave submissions with gaps of idle ticks: random
        // burst/waiter interleavings across every slab state.
        for (i, &(addr, sel, gap)) in ops.iter().enumerate() {
            let access = DramAccess {
                addr,
                op: to_op(sel),
                tag: i as u64,
            };
            slab.submit(access);
            reference.submit(access);
            for _ in 0..gap {
                check(&mut slab, &mut reference);
            }
        }
        for _ in 0..200_000 {
            check(&mut slab, &mut reference);
            if slab.is_idle() && reference.is_idle() {
                break;
            }
        }
        prop_assert!(slab.is_idle() && reference.is_idle(), "drain stalled");

        // End-of-kernel barrier: flush both, drain, compare burst counts.
        slab.flush();
        reference.flush();
        for _ in 0..200_000 {
            check(&mut slab, &mut reference);
            if slab.is_idle() && reference.is_idle() {
                break;
            }
        }
        prop_assert_eq!(slab.bursts_fetched(), reference.fetched, "fetched bursts diverged");
        prop_assert_eq!(slab.bursts_written(), reference.written, "written bursts diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recorded-address replay must conserve submitted word counts:
    /// whatever address sample a tile carries (empty, shorter than the
    /// traffic, hub-skewed, or wider than the atomic space), the driver
    /// drains exactly the queued totals — every stream/random burst is
    /// served by a region channel and every atomic word is submitted to
    /// and completed by an AG.
    #[test]
    fn recorded_replay_conserves_word_counts(
        stream in 0u64..1500,
        random in 0u64..1500,
        atomic in 0u64..3000,
        channels in 1usize..4,
        random_addrs in prop::collection::vec(0u64..(1 << 24), 0..64),
        atomic_addrs in prop::collection::vec(0u64..(1 << 24), 0..64),
    ) {
        use capstan_arch::memdrv::{MemSysConfig, MemSysSim, TileTraffic};
        use capstan_sim::dram::{DramModel, MemoryKind};

        let model = DramModel::new(MemoryKind::Hbm2e);
        let mut sim =
            MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
        // Split the traffic across two tiles so the per-class replay
        // buffers concatenate (the perf-engine queueing pattern).
        let half = TileTraffic {
            stream_bursts: stream / 2,
            random_bursts: random / 2,
            atomic_words: atomic / 2,
        };
        let rest = TileTraffic {
            stream_bursts: stream - stream / 2,
            random_bursts: random - random / 2,
            atomic_words: atomic - atomic / 2,
        };
        sim.add_tile_recorded(half, &random_addrs, &atomic_addrs);
        sim.add_tile_recorded(rest, &atomic_addrs, &random_addrs);
        let stats = sim.run();
        prop_assert!(sim.is_done());
        prop_assert_eq!(stats.stream_bursts, stream);
        prop_assert_eq!(stats.random_bursts, random);
        prop_assert_eq!(stats.atomic_words, atomic);
        prop_assert_eq!(sim.ag_submitted(), atomic);
        prop_assert_eq!(sim.ag_completed(), atomic);
        let served: u64 = (0..channels).map(|i| sim.channel_stats(i).served).sum();
        prop_assert_eq!(served, stream + random);
    }
}

/// Reference model for the bit-vector scanner: the rank-based
/// implementation the streaming one replaced. Every window re-counts its
/// set bits with two prefix popcounts from bit 0, and every element
/// derives `jA`/`jB` the same way; the bit-tree scan merges the trees
/// first and looks each leaf up by root rank.
mod scanner_reference {
    use capstan_arch::scanner::{BitVecScanner, ScanElement, ScanMode, ScanStats};
    use capstan_tensor::bittree::{BitTree, LEAF_BITS};
    use capstan_tensor::bitvec::BitVec;

    fn space(mode: ScanMode, a: &BitVec, b: Option<&BitVec>) -> BitVec {
        match (b, mode) {
            (None, _) => a.clone(),
            (Some(b), ScanMode::Intersect) => a.intersect(b),
            (Some(b), ScanMode::Union) => a.union(b),
        }
    }

    pub fn scan(
        scanner: &BitVecScanner,
        mode: ScanMode,
        a: &BitVec,
        b: Option<&BitVec>,
    ) -> (Vec<ScanElement>, ScanStats) {
        let space = space(mode, a, b);
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < space.len() {
            let window_end = (pos + scanner.width).min(space.len());
            for j in pos..window_end {
                if !space.get(j) {
                    continue;
                }
                let ja = if a.get(j) { a.rank(j) as i32 } else { -1 };
                let jb = match b {
                    Some(bv) if bv.get(j) => bv.rank(j) as i32,
                    _ => -1,
                };
                let jprime = out.len() as u32;
                out.push(ScanElement {
                    j: j as u32,
                    ja,
                    jb,
                    jprime,
                });
            }
            pos = window_end;
        }
        (out, scan_cycles(scanner, mode, a, b))
    }

    pub fn scan_cycles(
        scanner: &BitVecScanner,
        mode: ScanMode,
        a: &BitVec,
        b: Option<&BitVec>,
    ) -> ScanStats {
        let space = space(mode, a, b);
        let mut stats = ScanStats::default();
        let mut pos = 0usize;
        while pos < space.len().max(1) {
            let window_end = (pos + scanner.width).min(space.len());
            let k = if pos < space.len() {
                space.rank(window_end) - space.rank(pos)
            } else {
                0
            };
            stats.cycles += if k == 0 {
                1
            } else {
                k.div_ceil(scanner.outputs) as u64
            };
            if k == 0 {
                stats.empty_window_cycles += 1;
            }
            stats.emitted += k as u64;
            if space.is_empty() {
                break;
            }
            pos = window_end;
        }
        stats
    }

    pub fn scan_bittree(
        scanner: &BitVecScanner,
        mode: ScanMode,
        a: &BitTree,
        b: &BitTree,
    ) -> (Vec<u32>, ScanStats) {
        let root = scan_cycles(scanner, mode, a.root(), Some(b.root()));
        let (merged, _) = match mode {
            ScanMode::Intersect => a.intersect(b),
            ScanMode::Union => a.union(b),
        };
        let mut total = ScanStats { emitted: 0, ..root };
        let mut positions = Vec::new();
        let zero = BitVec::zeros(LEAF_BITS);
        for chunk in merged.root().iter_ones() {
            let leaf = |t: &BitTree| {
                if t.root().get(chunk) {
                    t.leaves()[t.root().rank(chunk)].clone()
                } else {
                    zero.clone()
                }
            };
            let stats = scan_cycles(scanner, mode, &leaf(a), Some(&leaf(b)));
            total.cycles += stats.cycles;
            total.empty_window_cycles += stats.empty_window_cycles;
            total.emitted += stats.emitted;
            let leaf = &merged.leaves()[merged.root().rank(chunk)];
            positions.extend(leaf.iter_ones().map(|p| (chunk * LEAF_BITS + p) as u32));
        }
        (positions, total)
    }
}

/// A pseudo-random bit-vector of `len` bits, each set with probability
/// `percent`/100 (a 64-bit LCG, so sparse, dense and all-ones inputs
/// all occur).
fn random_bitvec(len: usize, percent: u64, seed: u64) -> BitVec {
    let mut state = seed | 1;
    let bits: Vec<bool> = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 100 < percent
        })
        .collect();
    BitVec::from_bools(&bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scanner_matches_the_rank_based_reference(
        len in (prop::sample::select(vec![None, Some(0usize), Some(1), Some(64), Some(65)]), 0usize..2049),
        percent in prop::sample::select(vec![0u64, 1, 5, 30, 70, 100]),
        seeds in (any::<u64>(), any::<u64>()),
        width in (prop::sample::select(vec![0usize, 1, 3, 64, 100, 256, 512]), 1usize..700),
        outputs in 1usize..17,
        intersect in any::<bool>(),
        with_b in any::<bool>(),
    ) {
        // `None` and width 0 in the fixed lists stand for the random draw.
        let len = len.0.unwrap_or(len.1);
        let width = if width.0 == 0 { width.1 } else { width.0 };
        let scanner = BitVecScanner::new(width, outputs);
        let mode = if intersect { ScanMode::Intersect } else { ScanMode::Union };
        let a = random_bitvec(len, percent, seeds.0);
        let b = random_bitvec(len, 100 - percent, seeds.1);
        let b = with_b.then_some(&b);
        let (elems, stats) = scanner.scan(mode, &a, b);
        let (ref_elems, ref_stats) = scanner_reference::scan(&scanner, mode, &a, b);
        prop_assert_eq!(elems, ref_elems);
        prop_assert_eq!(stats, ref_stats);
        prop_assert_eq!(scanner.scan_cycles(mode, &a, b), ref_stats);
    }

    #[test]
    fn bittree_scan_matches_the_merge_based_reference(
        len in 1usize..(MAX_LEN + 1),
        counts in (0usize..40, 0usize..40),
        seeds in (any::<u64>(), any::<u64>()),
        spread in 1u32..64,
        width in prop::sample::select(vec![1usize, 3, 64, 100, 256, 512]),
        outputs in 1usize..17,
        intersect in any::<bool>(),
    ) {
        // Clustered indices: `count` runs of up to `spread` bits each, so
        // leaves hold several bits and the two trees share some chunks.
        let tree = |count: usize, seed: u64| {
            let mut state = seed | 1;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % bound
            };
            let mut idx = Vec::new();
            for _ in 0..count {
                let start = next(len as u64) as u32;
                for k in 0..next(spread as u64) as u32 {
                    if ((start + k) as usize) < len {
                        idx.push(start + k);
                    }
                }
            }
            BitTree::from_indices(len, &idx).unwrap()
        };
        let (a, b) = (tree(counts.0, seeds.0), tree(counts.1, seeds.1));
        let scanner = BitVecScanner::new(width, outputs);
        let mode = if intersect { ScanMode::Intersect } else { ScanMode::Union };
        prop_assert_eq!(
            scan_bittree(&scanner, mode, &a, &b),
            scanner_reference::scan_bittree(&scanner, mode, &a, &b)
        );
    }
}
