//! Trace drivers for SpMU throughput experiments.
//!
//! The paper characterizes the SpMU with "sensitivity studies with random
//! access traces" (§3.1, Table 4) and a traced request vector inside a
//! stream of random requests (Fig. 4). These drivers reproduce that
//! methodology: saturate the unit with random vectors, measure sustained
//! bank utilization, and optionally log every crossbar grant.

use super::{AccessVector, GrantRecord, LaneRequest, Spmu, SpmuConfig};

/// Deterministic xorshift64* stream for trace generation (keeps `rand`
/// out of the library's dependency set).
#[derive(Debug, Clone)]
pub struct TraceRng {
    state: u64,
}

impl TraceRng {
    /// Creates a stream from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        TraceRng { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Result of a saturated-throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// Fraction of banks busy per measured cycle (Table 4's metric).
    pub bank_utilization: f64,
    /// Requests retired during the measurement window.
    pub requests: u64,
    /// Measured cycles.
    pub cycles: u64,
}

/// Refills `vector` with one uniformly random read per lane, reusing its
/// lane buffer (the trace loop allocates nothing in steady state).
fn fill_random_vector(vector: &mut AccessVector, rng: &mut TraceRng, cfg: &SpmuConfig) {
    let span = cfg.capacity_words() as u64;
    vector.lanes.clear();
    vector
        .lanes
        .extend((0..cfg.lanes).map(|_| Some(LaneRequest::read(rng.below(span) as u32))));
}

/// Saturates an SpMU with uniformly random full read vectors and measures
/// sustained bank utilization after a warm-up period.
pub fn measure_random_throughput(
    cfg: SpmuConfig,
    seed: u64,
    warmup_cycles: u64,
    measure_cycles: u64,
) -> ThroughputResult {
    let mut spmu = Spmu::new(cfg);
    let mut rng = TraceRng::new(seed);
    let mut vector = AccessVector::default();
    let mut pending = false;
    let mut total = warmup_cycles + measure_cycles;
    let mut measured_requests = 0u64;
    while total > 0 {
        total -= 1;
        if !pending {
            fill_random_vector(&mut vector, &mut rng, &cfg);
        }
        pending = !spmu.try_enqueue(&vector);
        let done = spmu.tick();
        if total < measure_cycles {
            measured_requests += done.map_or(0, |c| u64::from(c.lanes.count_ones()));
        }
        if spmu.cycle() == warmup_cycles {
            spmu.reset_stats();
        }
    }
    capstan_sim::stats::record_simulated_cycles(warmup_cycles + measure_cycles);
    ThroughputResult {
        bank_utilization: spmu.bank_utilization(),
        requests: measured_requests,
        cycles: measure_cycles,
    }
}

/// Runs a fixed workload of access vectors to completion, returning the
/// cycles consumed. This is the building block the system performance
/// model uses to cost each application's real SRAM address trace.
///
/// # Panics
///
/// Panics if the workload fails to drain within a generous cycle budget
/// (which would indicate an SpMU deadlock).
pub fn run_vectors(cfg: SpmuConfig, vectors: &[AccessVector]) -> ThroughputResult {
    let mut spmu = Spmu::new(cfg);
    let mut iter = vectors.iter();
    let mut pending: Option<&AccessVector> = None;
    let mut requests = 0u64;
    let budget = 1_000 + vectors.len() as u64 * 64 * (cfg.pipeline_latency + 4);
    let mut exhausted = false;
    for _ in 0..budget {
        if pending.is_none() {
            pending = iter.next();
            if pending.is_none() {
                exhausted = true;
            }
        }
        if let Some(v) = pending.take() {
            if !spmu.try_enqueue(v) {
                pending = Some(v);
            }
        }
        requests += spmu.tick().map_or(0, |c| u64::from(c.lanes.count_ones()));
        if exhausted && pending.is_none() && spmu.is_idle() {
            capstan_sim::stats::record_simulated_cycles(spmu.cycle());
            return ThroughputResult {
                bank_utilization: spmu.bank_utilization(),
                requests,
                cycles: spmu.cycle(),
            };
        }
    }
    panic!(
        "SpMU failed to drain {} vectors within {budget} cycles",
        vectors.len()
    );
}

/// A Fig. 4-style trace: sustained random stream with one vector's grants
/// highlighted.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// All grants within the window `[first_cycle, last_cycle]` of the
    /// traced vector's residency.
    pub grants: Vec<GrantRecord>,
    /// Id of the traced vector.
    pub traced_id: u64,
}

/// Reproduces the paper's Fig. 4 experiment: a random request stream with
/// one traced vector, returning every grant between the traced vector's
/// first and last issue.
pub fn trace_one_vector(cfg: SpmuConfig, seed: u64, traced_index: u64) -> TracedRun {
    let mut spmu = Spmu::new(cfg);
    spmu.enable_grant_log();
    let mut rng = TraceRng::new(seed);
    let mut vector = AccessVector::default();
    let mut pending = false;
    // Run long enough for the traced vector to enter and fully drain.
    let horizon = 4 * (traced_index + 4 * cfg.queue_depth as u64 + 64);
    for _ in 0..horizon {
        if !pending {
            fill_random_vector(&mut vector, &mut rng, &cfg);
        }
        pending = !spmu.try_enqueue(&vector);
        spmu.tick();
    }
    capstan_sim::stats::record_simulated_cycles(horizon);
    let log = spmu.grant_log().expect("log enabled").to_vec();
    let traced_id = traced_index;
    let window: Vec<&GrantRecord> = log.iter().filter(|g| g.vector_id == traced_id).collect();
    let (lo, hi) = window.iter().fold((u64::MAX, 0u64), |(lo, hi), g| {
        (lo.min(g.cycle), hi.max(g.cycle))
    });
    TracedRun {
        grants: log
            .iter()
            .filter(|g| g.cycle >= lo && g.cycle <= hi)
            .copied()
            .collect(),
        traced_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmu::{BankHash, OrderingMode};

    #[test]
    fn unordered_throughput_near_paper_design_point() {
        // Paper Table 4: depth 16, 16x16 crossbar, 3 priorities => 79.9%.
        let result = measure_random_throughput(SpmuConfig::default(), 7, 500, 3000);
        assert!(
            result.bank_utilization > 0.70 && result.bank_utilization < 0.92,
            "utilization {:.3} out of plausible range",
            result.bank_utilization
        );
    }

    #[test]
    fn deeper_queue_helps() {
        let d8 = SpmuConfig {
            queue_depth: 8,
            ..Default::default()
        };
        let d32 = SpmuConfig {
            queue_depth: 32,
            ..Default::default()
        };
        let u8 = measure_random_throughput(d8, 11, 500, 2000).bank_utilization;
        let u32_ = measure_random_throughput(d32, 11, 500, 2000).bank_utilization;
        assert!(
            u32_ > u8,
            "depth 32 ({u32_:.3}) should beat depth 8 ({u8:.3})"
        );
    }

    #[test]
    fn arbitrated_matches_paper_ballpark() {
        // Paper: arbitrated baseline sustains ~32% on random traces.
        let cfg = SpmuConfig {
            ordering: OrderingMode::Arbitrated,
            ..Default::default()
        };
        let result = measure_random_throughput(cfg, 13, 500, 3000);
        assert!(
            result.bank_utilization > 0.25 && result.bank_utilization < 0.42,
            "arbitrated utilization {:.3}",
            result.bank_utilization
        );
    }

    #[test]
    fn ordering_hierarchy_holds() {
        // Unordered > arbitrated > fully ordered (paper Fig. 4).
        let measure = |ordering| {
            let cfg = SpmuConfig {
                ordering,
                ..Default::default()
            };
            measure_random_throughput(cfg, 17, 500, 2000).bank_utilization
        };
        let unordered = measure(OrderingMode::Unordered);
        let arbitrated = measure(OrderingMode::Arbitrated);
        let fully = measure(OrderingMode::FullyOrdered);
        assert!(
            unordered > arbitrated,
            "unordered {unordered:.3} vs arbitrated {arbitrated:.3}"
        );
        assert!(
            arbitrated > fully * 0.9,
            "arbitrated {arbitrated:.3} vs fully {fully:.3}"
        );
    }

    #[test]
    fn ideal_outruns_everything() {
        let ideal = SpmuConfig {
            ideal_conflict_free: true,
            ..Default::default()
        };
        let u_ideal = measure_random_throughput(ideal, 19, 500, 2000).bank_utilization;
        let u_real =
            measure_random_throughput(SpmuConfig::default(), 19, 500, 2000).bank_utilization;
        assert!(u_ideal >= u_real);
        assert!(u_ideal > 0.9, "ideal should saturate: {u_ideal:.3}");
    }

    #[test]
    fn strided_trace_collapses_linear_banking() {
        // Power-of-two stride: hashed banking sustains, linear serializes.
        let make_vectors = |n: usize| -> Vec<AccessVector> {
            (0..n)
                .map(|i| {
                    let base = (i * 16 * 64) as u32;
                    AccessVector::reads(&(0..16).map(|l| base + l * 64).collect::<Vec<_>>())
                })
                .collect()
        };
        let vectors = make_vectors(64);
        let hashed = run_vectors(SpmuConfig::default(), &vectors);
        let lin_cfg = SpmuConfig {
            hash: BankHash::Linear,
            ..Default::default()
        };
        let linear = run_vectors(lin_cfg, &vectors);
        assert!(
            linear.cycles > hashed.cycles * 3,
            "linear {} cycles vs hashed {}",
            linear.cycles,
            hashed.cycles
        );
    }

    #[test]
    fn traced_run_produces_grants() {
        let run = trace_one_vector(SpmuConfig::default(), 23, 40);
        assert!(!run.grants.is_empty());
        assert!(run.grants.iter().any(|g| g.vector_id == run.traced_id));
        // Conflict-freedom per cycle: no bank granted twice in one cycle.
        use std::collections::HashSet;
        let mut per_cycle: std::collections::HashMap<u64, HashSet<usize>> = Default::default();
        for g in &run.grants {
            assert!(
                per_cycle.entry(g.cycle).or_default().insert(g.bank),
                "bank {} granted twice in cycle {}",
                g.bank,
                g.cycle
            );
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TraceRng::new(5);
        let mut b = TraceRng::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
