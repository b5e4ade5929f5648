//! On-chip network model.
//!
//! Paper §4.1: "Units are connected by a loosely-timed interconnection
//! network with per-link buffering to avoid global synchronicity; it
//! provides vector (512-bit) and scalar (32-bit) links for efficient
//! mapping. Network buffering provides timing flexibility for Capstan's
//! reordered memory accesses."
//!
//! The model captures the property the evaluation depends on: each hop
//! adds a fixed pipeline latency, and non-pipelinable iterative apps
//! (BFS/SSSP levels) pay the end-to-end latency every iteration — "the
//! on-chip network has a large impact on BFS and SSSP because they cannot
//! be pipelined between iterations" (paper §4.4, Fig. 7). Pipelined
//! cross-tile traffic is priced by the shuffle network model
//! (`capstan_arch::shuffle`), not here.

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

    /// End-to-end latency for an average-distance message.
    fn mean_latency(&self) -> u64 {
        (self.mean_hops() * HOP_LATENCY as f64).round() as u64
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
    fn round_trips_dominate_iterative_apps() {
        // Each of 1000 dependent iterations pays a round trip: twice the
        // 27-cycle mean latency of a 20x20 grid.
        assert_eq!(model().round_trip_cycles(1000), 54_000);
    }

    #[test]
    fn mean_hops_for_20x20_grid() {
        let m = model();
        assert!((m.mean_hops() - 13.333).abs() < 0.01);
        assert_eq!(m.mean_latency(), 27);
    }
}
