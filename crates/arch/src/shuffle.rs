//! The shuffle network (paper §3.2).
//!
//! "Shuffle networks combine requests between parallel outer-loop
//! iterations while respecting structural hazards and ordering
//! constraints. Each is built out of merge units arranged in a butterfly
//! topology. ... each merge unit takes two vectors of incoming requests
//! and tests a single address bit that determines whether they are
//! forwarded to its half or dropped. Then, the merge unit combines the
//! vectors, shuffling valid entries by up to one lane in either direction."
//!
//! The lane-shift flexibility is the design variable evaluated in
//! Table 11: `Mrg-0` (no shifting), `Mrg-1` (±1, the design point), and
//! `Mrg-16` (a full crossbar). Restricted shifting keeps the inverse
//! permutation small: "the merge unit tracks its decisions in a 48-bit
//! (3 bits per lane), 64-entry FIFO".

/// Lane-shift flexibility of a merge unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeShift {
    /// Entries keep their lane (Table 11's `Mrg-0`).
    None,
    /// Entries may move ±1 lane (`Mrg-1`, the paper's design point).
    One,
    /// Full compaction crossbar (`Mrg-16`).
    Full,
}

impl MergeShift {
    /// Maximum lane displacement.
    fn radius(self, lanes: usize) -> usize {
        match self {
            MergeShift::None => 0,
            MergeShift::One => 1,
            MergeShift::Full => lanes,
        }
    }

    /// Display name matching Table 11.
    pub fn name(self) -> &'static str {
        match self {
            MergeShift::None => "Mrg-0",
            MergeShift::One => "Mrg-1",
            MergeShift::Full => "Mrg-16",
        }
    }
}

/// One request traversing the shuffle network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleEntry {
    /// Destination port (memory partition id).
    pub dest: u32,
    /// Lane the entry currently occupies.
    pub lane: usize,
}

/// A vector of requests on one network link (one entry per lane).
pub type ShuffleVector = Vec<Option<ShuffleEntry>>;

/// Statistics from merging two lane-aligned vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Output vectors produced (cycles consumed on the output port).
    output_vectors: u64,
    /// Entries that could not be placed in the first output vector and
    /// spilled into an overflow vector.
    deferred_entries: u64,
    /// Total entries forwarded.
    pub entries: u64,
}

/// Merges the entries of two vectors into as few output vectors as the
/// shift radius allows. Entries keep relative order; an entry at input
/// lane `l` may land in output lanes `l ± radius`.
///
/// Returns the produced output vectors and statistics. This is the inner
/// operation of one merge-unit half (paper Fig. 3e).
pub fn merge_vectors(
    a: &ShuffleVector,
    b: &ShuffleVector,
    lanes: usize,
    shift: MergeShift,
) -> (Vec<ShuffleVector>, MergeStats) {
    let radius = shift.radius(lanes);
    // Gather entries sorted by source lane (stable across the two inputs:
    // the hardware interleaves the two vectors' lanes).
    let mut entries: Vec<ShuffleEntry> = Vec::new();
    for lane in 0..lanes {
        for side in [a, b] {
            if let Some(e) = side.get(lane).copied().flatten() {
                entries.push(ShuffleEntry { dest: e.dest, lane });
            }
        }
    }
    let mut stats = MergeStats {
        entries: entries.len() as u64,
        ..Default::default()
    };
    let mut outputs: Vec<ShuffleVector> = Vec::new();
    let mut remaining = entries;
    while !remaining.is_empty() {
        let mut out: ShuffleVector = vec![None; lanes];
        let mut deferred: Vec<ShuffleEntry> = Vec::new();
        let mut next_free = 0usize;
        for e in remaining {
            let lo = e.lane.saturating_sub(radius).max(next_free);
            let hi = (e.lane + radius).min(lanes - 1);
            if lo <= hi {
                out[lo] = Some(ShuffleEntry {
                    dest: e.dest,
                    lane: lo,
                });
                next_free = lo + 1;
            } else {
                deferred.push(e);
            }
        }
        stats.deferred_entries += deferred.len() as u64;
        outputs.push(out);
        remaining = deferred;
        stats.output_vectors += 1;
    }
    if outputs.is_empty() {
        outputs.push(vec![None; lanes]);
        stats.output_vectors = 1;
    }
    (outputs, stats)
}

/// Configuration of a butterfly shuffle network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShuffleConfig {
    /// Number of input/output ports (power of two; paper: 16).
    pub ports: usize,
    /// SIMD lanes per vector (paper: 16).
    pub lanes: usize,
    /// Merge-unit lane-shift flexibility.
    pub shift: MergeShift,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig {
            ports: 16,
            lanes: 16,
            shift: MergeShift::One,
        }
    }
}

/// Result of routing per-port request streams through the network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteResult {
    /// Cycles to drain the streams (bottleneck-port vector count plus
    /// pipeline fill).
    pub cycles: u64,
    /// Vectors delivered at each output port.
    pub delivered_vectors: Vec<u64>,
    /// Entries delivered at each output port.
    pub delivered_entries: Vec<u64>,
    /// Entries that bypassed the network (source == destination).
    pub bypassed: u64,
}

/// A bump arena of lane-buffers. Slots keep their capacity across
/// [`VecArena::reset`], so steady-state allocation count is zero once
/// the arena reaches its high-water mark.
#[derive(Debug, Default)]
struct VecArena {
    slots: Vec<ShuffleVector>,
    used: usize,
}

impl VecArena {
    fn reset(&mut self) {
        self.used = 0;
    }

    /// Hands out the next slot, cleared and sized to `lanes`.
    fn alloc(&mut self, lanes: usize) -> u32 {
        if self.used == self.slots.len() {
            self.slots.push(Vec::new());
        }
        let v = &mut self.slots[self.used];
        v.clear();
        v.resize(lanes, None);
        self.used += 1;
        (self.used - 1) as u32
    }

    fn get(&self, idx: u32) -> &ShuffleVector {
        &self.slots[idx as usize]
    }
}

/// Reusable working memory for [`ButterflyNetwork::route_ref`].
///
/// Holds two vector arenas (current and next stage), per-link index
/// lists, merge-unit entry buffers, and the result. All buffers retain
/// their capacity across calls, so repeated routing through the same
/// scratch performs **zero steady-state heap allocations** (proven in
/// `crates/arch/tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct RouteScratch {
    arena_a: VecArena,
    arena_b: VecArena,
    /// Per-link vector-index lists for the current stage.
    links: Vec<Vec<u32>>,
    /// Per-link vector-index lists being built for the next stage.
    next: Vec<Vec<u32>>,
    /// Merge-unit gather buffer (entries sorted by source lane).
    entries: Vec<ShuffleEntry>,
    /// Entries spilled past the current output vector.
    deferred: Vec<ShuffleEntry>,
    /// An all-`None` vector standing in for exhausted input streams.
    empty: ShuffleVector,
    result: RouteResult,
}

/// Gathers the entries of `a` and `b` whose destination has `want` in
/// address bit `bit`, merges them into as few output vectors as the
/// shift radius allows (appended to `link`), and returns nothing: empty
/// merges contribute no output vectors, matching `route`'s behavior of
/// dropping all-`None` stage outputs.
#[allow(clippy::too_many_arguments)]
fn merge_filtered_into(
    a: &ShuffleVector,
    b: &ShuffleVector,
    bit: usize,
    want: u32,
    lanes: usize,
    shift: MergeShift,
    entries: &mut Vec<ShuffleEntry>,
    deferred: &mut Vec<ShuffleEntry>,
    arena: &mut VecArena,
    link: &mut Vec<u32>,
) {
    let radius = shift.radius(lanes);
    entries.clear();
    for lane in 0..lanes {
        for side in [a, b] {
            if let Some(e) = side.get(lane).copied().flatten() {
                if (e.dest >> bit) & 1 == want {
                    entries.push(ShuffleEntry { dest: e.dest, lane });
                }
            }
        }
    }
    while !entries.is_empty() {
        let out_idx = arena.alloc(lanes);
        let out = &mut arena.slots[out_idx as usize];
        deferred.clear();
        let mut next_free = 0usize;
        for e in entries.iter() {
            let lo = e.lane.saturating_sub(radius).max(next_free);
            let hi = (e.lane + radius).min(lanes - 1);
            if lo <= hi {
                out[lo] = Some(ShuffleEntry {
                    dest: e.dest,
                    lane: lo,
                });
                next_free = lo + 1;
            } else {
                deferred.push(*e);
            }
        }
        link.push(out_idx);
        std::mem::swap(entries, deferred);
    }
}

/// A butterfly network of merge units (paper Fig. 3d).
#[derive(Debug, Clone)]
pub struct ButterflyNetwork {
    cfg: ShuffleConfig,
}

impl ButterflyNetwork {
    /// Creates a network.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is not a power of two greater than 1.
    pub fn new(cfg: ShuffleConfig) -> Self {
        assert!(
            cfg.ports.is_power_of_two() && cfg.ports > 1,
            "butterfly needs a power-of-two port count > 1"
        );
        ButterflyNetwork { cfg }
    }

    /// Number of merge stages (`log2(ports)`).
    fn stages(&self) -> usize {
        self.cfg.ports.trailing_zeros() as usize
    }

    /// Routes per-source streams of request vectors to their destination
    /// ports. `streams[p]` is the sequence of vectors source `p` injects.
    ///
    /// Entries destined for their own source port use the bypass path
    /// (paper §3.2) and do not load the network.
    ///
    /// Convenience wrapper over [`ButterflyNetwork::route_ref`] that owns
    /// a fresh [`RouteScratch`]; hot callers routing repeatedly should
    /// hold a scratch and call `route_ref` directly.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != ports` or a destination is out of range.
    pub fn route(&self, streams: &[Vec<ShuffleVector>]) -> RouteResult {
        let refs: Vec<Vec<&ShuffleVector>> = streams.iter().map(|s| s.iter().collect()).collect();
        let mut scratch = RouteScratch::default();
        self.route_ref(&refs, &mut scratch).clone()
    }

    /// Borrow-based routing: identical semantics to
    /// [`ButterflyNetwork::route`], but inputs are borrowed vectors
    /// (callers such as the perf engine's `network_excess` no longer
    /// clone sampled shuffle vectors per tile) and all working memory
    /// comes from the reusable `scratch`. The returned reference borrows
    /// `scratch` and is valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != ports` or a destination is out of range.
    pub fn route_ref<'s>(
        &self,
        streams: &[Vec<&ShuffleVector>],
        scratch: &'s mut RouteScratch,
    ) -> &'s RouteResult {
        assert_eq!(
            streams.len(),
            self.cfg.ports,
            "one stream per port required"
        );
        let ports = self.cfg.ports;
        let lanes = self.cfg.lanes;
        let mut bypassed = 0u64;

        let RouteScratch {
            arena_a,
            arena_b,
            links,
            next,
            entries,
            deferred,
            empty,
            result,
        } = scratch;
        let (mut cur_arena, mut nxt_arena) = (arena_a, arena_b);
        links.resize_with(ports, Vec::new);
        next.resize_with(ports, Vec::new);
        empty.clear();
        empty.resize(lanes, None);

        // Current per-link vector streams; stage s has `ports` links.
        cur_arena.reset();
        for (src, stream) in streams.iter().enumerate() {
            let link = &mut links[src];
            link.clear();
            for v in stream {
                let kept_idx = cur_arena.alloc(lanes);
                let kept = &mut cur_arena.slots[kept_idx as usize];
                for (lane, e) in v.iter().enumerate() {
                    if let Some(e) = e {
                        assert!(
                            (e.dest as usize) < ports,
                            "destination {} out of range ({} ports)",
                            e.dest,
                            ports
                        );
                        if e.dest as usize == src {
                            bypassed += 1; // bypass path
                        } else {
                            kept[lane] = Some(*e);
                        }
                    }
                }
                link.push(kept_idx);
            }
        }

        let mut bottleneck: u64 = links.iter().map(|s| s.len() as u64).max().unwrap_or(0);

        // Butterfly stages, partitioning on address bits high to low.
        let stages = self.stages();
        for stage in 0..stages {
            let bit = stages - 1 - stage;
            nxt_arena.reset();
            for link in next.iter_mut() {
                link.clear();
            }
            // Merge units pair links whose ids differ in `bit`.
            for unit in 0..ports / 2 {
                let low_bits = unit & ((1 << bit) - 1);
                let high_bits = (unit >> bit) << (bit + 1);
                let i0 = high_bits | low_bits; // bit = 0
                let i1 = i0 | (1 << bit); // bit = 1
                let n = links[i0].len().max(links[i1].len());
                for k in 0..n {
                    let a = links[i0].get(k).map_or(&*empty, |&i| cur_arena.get(i));
                    let b = links[i1].get(k).map_or(&*empty, |&i| cur_arena.get(i));
                    // Each merge-unit half keeps the entries whose tested
                    // address bit matches its side.
                    for (want, out) in [(0u32, i0), (1u32, i1)] {
                        let link = &mut next[out];
                        merge_filtered_into(
                            a,
                            b,
                            bit,
                            want,
                            lanes,
                            self.cfg.shift,
                            entries,
                            deferred,
                            nxt_arena,
                            link,
                        );
                    }
                }
            }
            bottleneck = bottleneck.max(next.iter().map(|s| s.len() as u64).max().unwrap_or(0));
            std::mem::swap(links, next);
            std::mem::swap(&mut cur_arena, &mut nxt_arena);
        }

        result.bypassed = bypassed;
        result.cycles = bottleneck + stages as u64; // one fill cycle per stage
        result.delivered_vectors.clear();
        result
            .delivered_vectors
            .extend(links.iter().map(|s| s.len() as u64));
        result.delivered_entries.clear();
        result.delivered_entries.extend(links.iter().map(|s| {
            s.iter()
                .map(|&i| cur_arena.get(i).iter().flatten().count() as u64)
                .sum::<u64>()
        }));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dest: u32, lane: usize) -> Option<ShuffleEntry> {
        Some(ShuffleEntry { dest, lane })
    }

    #[test]
    fn merge_disjoint_lanes_single_vector() {
        let a: ShuffleVector = vec![entry(0, 0), None, entry(0, 2), None];
        let b: ShuffleVector = vec![None, entry(0, 1), None, entry(0, 3)];
        let (out, stats) = merge_vectors(&a, &b, 4, MergeShift::None);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.deferred_entries, 0);
        assert_eq!(out[0].iter().flatten().count(), 4);
    }

    #[test]
    fn merge_conflicting_lanes_defers_without_shift() {
        // Both inputs occupy lane 1: Mrg-0 must spill, Mrg-1 resolves.
        let a: ShuffleVector = vec![None, entry(0, 1), None, None];
        let b: ShuffleVector = vec![None, entry(0, 1), None, None];
        let (out0, s0) = merge_vectors(&a, &b, 4, MergeShift::None);
        assert_eq!(out0.len(), 2);
        assert_eq!(s0.deferred_entries, 1);
        let (out1, s1) = merge_vectors(&a, &b, 4, MergeShift::One);
        assert_eq!(out1.len(), 1, "{out1:?}");
        assert_eq!(s1.deferred_entries, 0);
    }

    #[test]
    fn full_shift_always_compacts_when_capacity_allows() {
        // 8 entries from each side into 16 lanes: full crossbar fits all.
        let a: ShuffleVector = (0..16)
            .map(|l| if l % 2 == 0 { entry(0, l) } else { None })
            .collect();
        let b: ShuffleVector = (0..16)
            .map(|l| if l % 2 == 0 { entry(0, l) } else { None })
            .collect();
        let (out, _) = merge_vectors(&a, &b, 16, MergeShift::Full);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].iter().flatten().count(), 16);
    }

    #[test]
    fn shift_hierarchy_on_dense_streams() {
        // Half-loaded inputs with colliding lanes: Mrg-1 resolves the
        // collisions that force Mrg-0 to spill; Mrg-16 is never worse.
        let a: ShuffleVector = (0..16)
            .map(|l| if l % 3 == 0 { entry(0, l) } else { None })
            .collect();
        let b: ShuffleVector = (0..16)
            .map(|l| {
                if l % 6 == 0 || l % 6 == 1 {
                    entry(0, l)
                } else {
                    None
                }
            })
            .collect();
        let count = |shift| merge_vectors(&a, &b, 16, shift).0.len();
        let m0 = count(MergeShift::None);
        let m1 = count(MergeShift::One);
        let m16 = count(MergeShift::Full);
        assert!(m0 >= m1 && m1 >= m16, "m0={m0} m1={m1} m16={m16}");
        assert!(m0 > m16, "shifting should help here");
    }

    #[test]
    fn butterfly_routes_to_correct_ports() {
        let net = ButterflyNetwork::new(ShuffleConfig {
            ports: 4,
            lanes: 4,
            shift: MergeShift::One,
        });
        // Source 0 sends one vector with entries for ports 1, 2, 3 and
        // itself (bypassed).
        let mut streams: Vec<Vec<ShuffleVector>> = vec![Vec::new(); 4];
        streams[0].push(vec![entry(0, 0), entry(1, 1), entry(2, 2), entry(3, 3)]);
        let result = net.route(&streams);
        assert_eq!(result.bypassed, 1);
        assert_eq!(result.delivered_entries, vec![0, 1, 1, 1]);
    }

    #[test]
    fn butterfly_merges_parallel_sources() {
        // All four sources send to port 0: entries must funnel together.
        let net = ButterflyNetwork::new(ShuffleConfig {
            ports: 4,
            lanes: 4,
            shift: MergeShift::Full,
        });
        let mut streams: Vec<Vec<ShuffleVector>> = vec![Vec::new(); 4];
        for (src, stream) in streams.iter_mut().enumerate() {
            if src != 0 {
                stream.push(vec![entry(0, 0), entry(0, 1), None, None]);
            }
        }
        let result = net.route(&streams);
        assert_eq!(result.delivered_entries[0], 6);
        assert_eq!(result.delivered_entries[1..], [0, 0, 0]);
    }

    #[test]
    fn mrg1_beats_mrg0_through_full_network() {
        // Moderately loaded network with scattered destinations.
        let mut streams: Vec<Vec<ShuffleVector>> = vec![Vec::new(); 16];
        let mut rng = 1u64;
        let mut next = || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for (src, stream) in streams.iter_mut().enumerate() {
            for _ in 0..20 {
                let v: ShuffleVector = (0..16)
                    .map(|l| {
                        if next() % 3 == 0 {
                            let dest = (next() % 16) as u32;
                            if dest as usize == src {
                                None
                            } else {
                                entry(dest, l)
                            }
                        } else {
                            None
                        }
                    })
                    .collect();
                stream.push(v);
            }
        }
        let route = |shift| {
            let net = ButterflyNetwork::new(ShuffleConfig {
                ports: 16,
                lanes: 16,
                shift,
            });
            net.route(&streams).cycles
        };
        let c0 = route(MergeShift::None);
        let c1 = route(MergeShift::One);
        let c16 = route(MergeShift::Full);
        assert!(c0 > c1, "Mrg-0 {c0} should be slower than Mrg-1 {c1}");
        assert!(
            c1 as f64 <= c16 as f64 * 1.3,
            "Mrg-1 {c1} should be near Mrg-16 {c16}"
        );
    }

    #[test]
    fn entries_are_conserved() {
        let net = ButterflyNetwork::new(ShuffleConfig::default());
        let mut streams: Vec<Vec<ShuffleVector>> = vec![Vec::new(); 16];
        let mut total_in = 0u64;
        for (src, stream) in streams.iter_mut().enumerate() {
            let v: ShuffleVector = (0..16)
                .map(|l| {
                    let dest = ((src + l) % 16) as u32;
                    total_in += 1;
                    entry(dest, l)
                })
                .collect();
            stream.push(v);
        }
        let result = net.route(&streams);
        let delivered: u64 = result.delivered_entries.iter().sum();
        assert_eq!(delivered + result.bypassed, total_in);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_bad_port_count() {
        let _ = ButterflyNetwork::new(ShuffleConfig {
            ports: 6,
            lanes: 16,
            shift: MergeShift::One,
        });
    }
}
