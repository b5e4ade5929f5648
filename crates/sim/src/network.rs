//! On-chip network model.
//!
//! Paper §4.1: "Units are connected by a loosely-timed interconnection
//! network with per-link buffering to avoid global synchronicity; it
//! provides vector (512-bit) and scalar (32-bit) links for efficient
//! mapping. Network buffering provides timing flexibility for Capstan's
//! reordered memory accesses."
//!
//! The model captures the properties the evaluation depends on:
//!
//! * vector links move one 512-bit (64 B) flit per cycle per link;
//! * each hop adds a fixed pipeline latency;
//! * streaming pipelines overlap transfers (throughput-bound), while
//!   non-pipelinable iterative apps (BFS/SSSP levels) pay the end-to-end
//!   latency every iteration — "the on-chip network has a large impact on
//!   BFS and SSSP because they cannot be pipelined between iterations"
//!   (paper §4.4, Fig. 7).

/// Bytes per 512-bit vector flit.
const VECTOR_FLIT_BYTES: u64 = 64;

/// Cycles of latency added per hop (link + switch pipeline). Two
/// pipeline stages per hop is representative of the hybrid
/// static/dynamic network Capstan inherits (Zhang et al., ISCA'19).
const HOP_LATENCY: u64 = 2;

/// Analytic network model for a grid of the given dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    grid_side: usize,
}

impl NetworkModel {
    /// Creates a model for a `grid_side x grid_side` unit array.
    pub fn new(grid_side: usize) -> Self {
        NetworkModel { grid_side }
    }

    /// Average Manhattan hop count between uniformly random grid points
    /// (~2/3 of the side per axis).
    fn mean_hops(&self) -> f64 {
        2.0 * self.grid_side as f64 / 3.0
    }

    /// Latency in cycles for one message crossing `hops` links.
    fn traversal_latency(&self, hops: u64) -> u64 {
        hops * HOP_LATENCY
    }

    /// End-to-end latency for an average-distance message.
    fn mean_latency(&self) -> u64 {
        (self.mean_hops() * HOP_LATENCY as f64).round() as u64
    }

    /// Cycles for a *pipelined* stream of `bytes` over one vector link:
    /// transfers overlap, so cost is flits plus one traversal latency.
    pub fn stream_cycles(&self, bytes: u64, hops: u64) -> u64 {
        bytes.div_ceil(VECTOR_FLIT_BYTES) + self.traversal_latency(hops)
    }

    /// Cycles for `iterations` of a *non-pipelinable* loop whose body must
    /// cross the network and return before the next iteration can start
    /// (the BFS/SSSP pattern).
    pub fn round_trip_cycles(&self, iterations: u64) -> u64 {
        iterations * 2 * self.mean_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetworkModel {
        NetworkModel::new(20)
    }

    #[test]
    fn latency_scales_with_hops() {
        let m = model();
        assert_eq!(m.traversal_latency(0), 0);
        assert_eq!(m.traversal_latency(5), 10);
    }

    #[test]
    fn streaming_amortizes_latency() {
        let m = model();
        let big = m.stream_cycles(64 * 1000, 10);
        // 1000 flits + 20 cycles latency: latency is 2% of the cost.
        assert_eq!(big, 1020);
        let small = m.stream_cycles(64, 10);
        assert_eq!(small, 21);
    }

    #[test]
    fn round_trips_dominate_iterative_apps() {
        let m = model();
        // 1000 dependent iterations cost far more than streaming the same
        // number of flits.
        assert!(m.round_trip_cycles(1000) > m.stream_cycles(64 * 1000, 13));
    }

    #[test]
    fn mean_hops_for_20x20_grid() {
        let m = model();
        assert!((m.mean_hops() - 13.333).abs() < 0.01);
        assert_eq!(m.mean_latency(), 27);
    }
}
