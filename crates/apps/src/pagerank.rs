//! PageRank in pull and edge-centric variants (paper Table 2's PR-Pull /
//! PR-Edge).
//!
//! "PRPull suffers from under-vectorization because many graph vertices
//! have very few in-edges. However, PREdge suffers from SRAM conflicts on
//! datasets which have a power-law distribution, where some vertices have
//! many in-edges that cannot be coalesced. Therefore, it is important to
//! be able to choose between pull and edge-based execution." (paper §4.4)

use crate::common::inv_out_degree;
use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_tensor::partition::{partition_graph, Partition};
use capstan_tensor::{Coo, Csr, Value};

use capstan_arch::spmu::RmwOp;

/// Damping factor used by both variants.
const DAMPING: Value = 0.85;

fn initial_rank(n: usize) -> Vec<Value> {
    vec![1.0 / n.max(1) as Value; n]
}

/// One pull-based PageRank iteration on the CPU (reference).
pub fn reference_iteration(in_adj: &Csr, inv_deg: &[Value], rank: &[Value]) -> Vec<Value> {
    let n = in_adj.rows();
    (0..n)
        .map(|v| {
            let pulled: Value = in_adj
                .row(v)
                .map(|(s, _)| rank[s as usize] * inv_deg[s as usize])
                .sum();
            (1.0 - DAMPING) / n as Value + DAMPING * pulled
        })
        .collect()
}

/// Pull-based PageRank: each node gathers `rank[s] / outdeg[s]` over its
/// in-edges (dense node loop, dense in-edge inner loop, random reads).
#[derive(Debug, Clone)]
pub struct PrPull {
    /// In-edge adjacency (rows = destinations).
    in_adj: Csr,
    /// Out-edge adjacency (for degrees and partitioning).
    out_adj: Csr,
    inv_deg: Vec<Value>,
}

impl PrPull {
    /// Builds the benchmark from a directed edge list.
    pub fn new(graph: &Coo) -> Self {
        let out_adj = Csr::from_coo(graph);
        let in_adj = Csr::from_coo(&graph.transpose());
        let inv_deg = inv_out_degree(&out_adj);
        PrPull {
            in_adj,
            out_adj,
            inv_deg,
        }
    }

    /// Number of nodes.
    fn nodes(&self) -> usize {
        self.in_adj.rows()
    }

    /// CPU reference: one iteration from the uniform initial rank.
    pub fn reference(&self) -> Vec<Value> {
        reference_iteration(&self.in_adj, &self.inv_deg, &initial_rank(self.nodes()))
    }

    fn partition(&self, tiles: usize) -> Partition {
        partition_graph(&self.out_adj, tiles)
    }

    /// Records one Capstan iteration.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let part = self.partition(tiles);
        let n = self.nodes();
        let rank = initial_rank(n);
        let mut new_rank = vec![0.0; n];
        let mut wl = WorkloadBuilder::for_config("PR-Pull", cfg);
        let members = part.members();
        for (tile, nodes) in members.iter().enumerate() {
            let mut t = wl.tile();
            let mut tile_edges = 0usize;
            // Stream this tile's adjacency and its rank slice.
            for &v in nodes {
                let v = v as usize;
                let srcs = self.in_adj.row_cols(v);
                tile_edges += srcs.len();
                let mut pulled = 0.0;
                t.foreach_vec(srcs.len(), |t, k| {
                    let s = srcs[k] as usize;
                    t.sram_read(srcs[k]); // rank[s] (local copy)
                    if part.part_of(s) != tile {
                        // Record the remote word (the source vertex) so
                        // the shuffle-less DRAM-atomic fallback can
                        // replay the real hub-skewed destinations.
                        t.remote_update_at(part.part_of(s), s as u64);
                    }
                    pulled += rank[s] * self.inv_deg[s];
                });
                new_rank[v] = (1.0 - DAMPING) / n as Value + DAMPING * pulled;
            }
            let srcs_stream: Vec<u32> = nodes
                .iter()
                .flat_map(|&v| self.in_adj.row_cols(v as usize).iter().copied())
                .collect();
            t.dram_pointer_read(&srcs_stream);
            t.dram_stream_read(nodes.len() * 8); // row pointers + degrees
            t.dram_stream_write(nodes.len() * 4);
            let _ = tile_edges;
            wl.commit(t);
        }
        (wl.finish(), new_rank)
    }
}

impl App for PrPull {
    fn name(&self) -> &'static str {
        "PR-Pull"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// Edge-centric PageRank: iterate all edges, read `rank[src]`, atomically
/// accumulate into `acc[dst]` (COO-style, paper Table 2's PR-Edge).
#[derive(Debug, Clone)]
pub struct PrEdge {
    edges: Coo,
    out_adj: Csr,
    inv_deg: Vec<Value>,
}

impl PrEdge {
    /// Builds the benchmark from a directed edge list.
    pub fn new(graph: &Coo) -> Self {
        let out_adj = Csr::from_coo(graph);
        let inv_deg = inv_out_degree(&out_adj);
        PrEdge {
            edges: graph.clone(),
            out_adj,
            inv_deg,
        }
    }

    /// Number of nodes.
    fn nodes(&self) -> usize {
        self.edges.rows()
    }

    /// CPU reference: one iteration (identical math to PR-Pull).
    pub fn reference(&self) -> Vec<Value> {
        let n = self.nodes();
        let rank = initial_rank(n);
        let mut acc = vec![0.0; n];
        for (s, d, _) in self.edges.iter() {
            acc[d as usize] += rank[s as usize] * self.inv_deg[s as usize];
        }
        acc.iter()
            .map(|a| (1.0 - DAMPING) / n as Value + DAMPING * a)
            .collect()
    }

    /// Records one Capstan iteration.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let part = partition_graph(&self.out_adj, tiles);
        let n = self.nodes();
        let rank = initial_rank(n);
        let mut acc = vec![0.0; n];
        // Edges grouped by the owner of their destination (accumulator
        // stays tile-local; rank reads may cross tiles).
        let mut edges_by_tile: Vec<Vec<(u32, u32, Value)>> = vec![Vec::new(); tiles];
        for (s, d, w) in self.edges.iter() {
            edges_by_tile[part.part_of(d as usize)].push((s, d, w));
        }
        let mut wl = WorkloadBuilder::for_config("PR-Edge", cfg);
        for (tile, edges) in edges_by_tile.iter().enumerate() {
            let mut t = wl.tile();
            // Source and destination pointer streams compress well
            // ("PREdge and COO see the best compression speedups because
            // they load two pointers for every data element", Fig. 5c).
            let srcs: Vec<u32> = edges.iter().map(|e| e.0).collect();
            let dsts: Vec<u32> = edges.iter().map(|e| e.1).collect();
            t.dram_pointer_read(&srcs);
            t.dram_pointer_read(&dsts);
            t.foreach_vec(edges.len(), |t, k| {
                let (s, d, _) = edges[k];
                t.sram_read(s); // rank[src]
                if part.part_of(s as usize) != tile {
                    // Power-law hubs repeat here; recording the real
                    // source vertex lets the cycle-level memory mode's
                    // recorded-address replay coalesce them in the AGs.
                    t.remote_update_at(part.part_of(s as usize), s as u64);
                }
                t.sram_rmw(d, RmwOp::AddF); // acc[dst] +=
                acc[d as usize] += rank[s as usize] * self.inv_deg[s as usize];
            });
            // Apply phase over owned nodes.
            let owned: Vec<u32> = part.members()[tile].clone();
            t.foreach_vec(owned.len(), |_, _| {});
            t.dram_stream_write(owned.len() * 4);
            wl.commit(t);
        }
        let new_rank = acc
            .iter()
            .map(|a| (1.0 - DAMPING) / n as Value + DAMPING * a)
            .collect();
        (wl.finish(), new_rank)
    }
}

impl App for PrEdge {
    fn name(&self) -> &'static str {
        "PR-Edge"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::rel_l2_error;
    use capstan_tensor::gen::Dataset;

    fn road() -> Coo {
        Dataset::UsRoads.generate_scaled(0.02)
    }

    fn web() -> Coo {
        Dataset::WebStanford.generate_scaled(0.01)
    }

    #[test]
    fn pull_matches_reference() {
        let g = road();
        let app = PrPull::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (wl, rank) = app.record(&cfg);
        assert!(rel_l2_error(&rank, &app.reference()) < 1e-5);
        // Each edge costs one random rank read.
        let reads: u64 = wl.tiles.iter().map(|t| t.sram.total_requests).sum();
        assert_eq!(reads, g.nnz() as u64);
    }

    #[test]
    fn edge_matches_pull_semantics() {
        let g = web();
        let pull = PrPull::new(&g);
        let edge = PrEdge::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (_, r_pull) = pull.record(&cfg);
        let (_, r_edge) = edge.record(&cfg);
        assert!(rel_l2_error(&r_edge, &r_pull) < 1e-5);
    }

    #[test]
    fn pull_undervectorizes_on_low_degree_graphs() {
        // Road networks have ~2.6 in-edges per node: most vectors are
        // nearly empty (paper §4.4).
        let g = road();
        let app = PrPull::new(&g);
        let cfg = CapstanConfig::paper_default();
        let wl = app.build(&cfg);
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        let vectors: u64 = wl.tiles.iter().map(|t| t.vectors).sum();
        let fill = lane_work as f64 / (vectors * 16) as f64;
        assert!(fill < 0.4, "vector fill {fill:.2} should be poor on roads");
    }

    #[test]
    fn edge_variant_hammers_hot_accumulators() {
        // Power-law graphs concentrate updates on hub destinations.
        let g = web();
        let app = PrEdge::new(&g);
        let cfg = CapstanConfig::paper_default();
        let wl = app.build(&cfg);
        let rmws: u64 = wl.tiles.iter().map(|t| t.sram.rmw_requests).sum();
        assert_eq!(rmws, g.nnz() as u64);
        // And it records compressible pointer traffic.
        assert!(wl.tiles.iter().any(|t| t.dram_compressible_bytes > 0));
    }

    #[test]
    fn edge_simulates_identically_on_a_route_memo_hit() {
        // The second `simulate` of one recording hits the route (and
        // replay) memo for every tile; the report must not change.
        let g = web();
        let cfg = CapstanConfig::paper_default();
        let wl = PrEdge::new(&g).build(&cfg);
        let first = capstan_core::perf::simulate(&wl, &cfg);
        let second = capstan_core::perf::simulate(&wl, &cfg);
        assert!(first.breakdown.network > 0, "{:?}", first.breakdown);
        assert_eq!(first, second);
    }

    #[test]
    fn partitioning_keeps_most_reads_local() {
        let g = road();
        let app = PrPull::new(&g);
        let cfg = CapstanConfig::paper_default();
        let wl = app.build(&cfg);
        let remote: u64 = wl.tiles.iter().map(|t| t.remote.total_entries).sum();
        let total: u64 = wl.tiles.iter().map(|t| t.sram.total_requests).sum();
        assert!(
            remote * 2 < total,
            "remote {remote} of {total} reads — partition locality failed"
        );
    }
}
