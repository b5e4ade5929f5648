//! Breadth-first search with frontier bitsets (paper Table 2).
//!
//! The paper's mapping: the frontier `Fr[n]` is a bitset iterated by the
//! scanner (loop 1, `sparse(Fr)`); each frontier node's out-edges are a
//! dense inner loop; per edge the SpMU performs the atomic update chain
//! `Ptr[d] = Rch[d] ? Ptr[d] : s` (write-if-memory-zero), `Fr[d] |=
//! !Rch[d]`, `Rch[d] = True` (test-and-set). BFS levels cannot be
//! pipelined — "the on-chip network has a large impact on BFS and SSSP
//! because they cannot be pipelined between iterations" (§4.4) — so every
//! level is a dependent round.

use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_tensor::bitvec::BitVec;
use capstan_tensor::partition::{partition_graph, Partition};
use capstan_tensor::{Coo, Csr};

use capstan_arch::scanner::ScanMode;
use capstan_arch::spmu::RmwOp;

/// BFS result: hop distances and back-pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Hop count per node (`u32::MAX` = unreachable).
    pub dist: Vec<u32>,
    /// Predecessor per node (`u32::MAX` = none).
    parent: Vec<u32>,
}

/// Breadth-first search over a directed graph.
#[derive(Debug, Clone)]
pub struct Bfs {
    adj: Csr,
    source: u32,
    /// Whether back-pointers are written (disabled for the Graphicionado
    /// comparison, paper §4.4: "we use BFS and SSSP variants that do not
    /// write back-pointers").
    pub write_backpointers: bool,
}

impl Bfs {
    /// Builds the benchmark, starting from the highest-out-degree node
    /// (a deterministic, well-connected source).
    pub fn new(graph: &Coo) -> Self {
        let adj = Csr::from_coo(graph);
        let source = (0..adj.rows()).max_by_key(|&v| adj.row_len(v)).unwrap_or(0) as u32;
        Bfs {
            adj,
            source,
            write_backpointers: true,
        }
    }

    /// Builds the benchmark from an explicit source node.
    pub fn from_source(graph: &Coo, source: u32) -> Self {
        Bfs {
            adj: Csr::from_coo(graph),
            source,
            write_backpointers: true,
        }
    }

    /// Number of nodes.
    fn nodes(&self) -> usize {
        self.adj.rows()
    }

    /// Level-synchronous CPU reference.
    pub fn reference(&self) -> BfsResult {
        let n = self.nodes();
        let mut dist = vec![u32::MAX; n];
        let mut parent = vec![u32::MAX; n];
        if n == 0 {
            return BfsResult { dist, parent };
        }
        dist[self.source as usize] = 0;
        let mut frontier = vec![self.source];
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &s in &frontier {
                for (d, _) in self.adj.row(s as usize) {
                    if dist[d as usize] == u32::MAX {
                        dist[d as usize] = level;
                        parent[d as usize] = s;
                        next.push(d);
                    }
                }
            }
            frontier = next;
        }
        BfsResult { dist, parent }
    }

    fn partition(&self, tiles: usize) -> Partition {
        partition_graph(&self.adj, tiles)
    }

    /// Records the Capstan execution (all levels).
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, BfsResult) {
        let tiles = cfg.effective_outer_par(1);
        let part = self.partition(tiles);
        let n = self.nodes();
        let mut dist = vec![u32::MAX; n];
        let mut parent = vec![u32::MAX; n];
        let mut wl = WorkloadBuilder::for_config("BFS", cfg);
        if n == 0 {
            return (wl.finish(), BfsResult { dist, parent });
        }
        dist[self.source as usize] = 0;

        // Precompute the per-level frontiers (level-synchronous), then
        // replay each tile's share of every level into its recorder.
        let mut levels: Vec<Vec<u32>> = vec![vec![self.source]];
        {
            let mut current = vec![self.source];
            let mut level = 0u32;
            while !current.is_empty() {
                level += 1;
                let mut next = Vec::new();
                for &s in &current {
                    for (d, _) in self.adj.row(s as usize) {
                        if dist[d as usize] == u32::MAX {
                            dist[d as usize] = level;
                            parent[d as usize] = s;
                            next.push(d);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                levels.push(next.clone());
                current = next;
            }
        }

        for tile in 0..tiles {
            let mut t = wl.tile();
            // Graph structure and state arrays stream in once.
            let owned = part.members()[tile].len();
            let tile_edges: usize = part.members()[tile]
                .iter()
                .map(|&v| self.adj.row_len(v as usize))
                .sum();
            t.dram_stream_read(owned * 8 + tile_edges * 4);
            t.dram_stream_write(owned * 8); // dist + ptr write-back
            for frontier in &levels {
                // This tile's slice of the frontier as a bitset.
                let local: Vec<u32> = frontier
                    .iter()
                    .copied()
                    .filter(|&v| part.part_of(v as usize) == tile)
                    .collect();
                let mut bits = BitVec::zeros(n);
                for &v in &local {
                    bits.set(v as usize, true);
                }
                t.convert_pointers(local.len());
                t.scan_outer(ScanMode::Union, &bits, None, |t, e| {
                    let s = e.j;
                    let dsts = self.adj.row_cols(s as usize);
                    t.foreach_vec(dsts.len(), |t, k| {
                        let d = dsts[k];
                        let owner = part.part_of(d as usize);
                        if owner != tile {
                            t.remote_update_at(owner, d as u64);
                        }
                        t.sram_rmw(d, RmwOp::TestAndSet); // Rch[d]
                        if self.write_backpointers {
                            t.sram_rmw(d + n as u32, RmwOp::WriteIfZero); // Ptr[d]
                        }
                        t.sram_rmw(d + 2 * n as u32, RmwOp::Or); // Fr[d] |=
                    });
                });
            }
            wl.commit(t);
        }
        wl.set_dependent_rounds(levels.len() as u64);
        (wl.finish(), BfsResult { dist, parent })
    }
}

impl App for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_tensor::gen::Dataset;

    fn road() -> Coo {
        Dataset::UsRoads.generate_scaled(0.01)
    }

    #[test]
    fn distances_match_reference() {
        let g = road();
        let app = Bfs::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (_, result) = app.record(&cfg);
        let reference = app.reference();
        assert_eq!(result.dist, reference.dist);
        // Parents may differ in tie-breaking order across valid BFS trees,
        // but every parent must be exactly one hop closer.
        for (v, &p) in result.parent.iter().enumerate() {
            if p != u32::MAX {
                assert_eq!(result.dist[v], result.dist[p as usize] + 1);
            }
        }
    }

    #[test]
    fn rounds_equal_bfs_levels() {
        let g = road();
        let app = Bfs::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (wl, result) = app.record(&cfg);
        let max_level = result
            .dist
            .iter()
            .filter(|&&d| d != u32::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        assert_eq!(wl.dependent_rounds, max_level as u64 + 1);
        assert!(
            wl.dependent_rounds > 3,
            "road graphs should have many levels"
        );
    }

    #[test]
    fn every_reached_edge_does_rmw_updates() {
        let g = road();
        let app = Bfs::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (wl, result) = app.record(&cfg);
        // Edges out of reached nodes are each visited exactly once.
        let visited_edges: usize = (0..app.nodes())
            .filter(|&v| result.dist[v] != u32::MAX)
            .map(|v| app.adj.row_len(v))
            .sum();
        let rmws: u64 = wl.tiles.iter().map(|t| t.sram.rmw_requests).sum();
        assert_eq!(rmws, visited_edges as u64 * 3);
    }

    #[test]
    fn backpointer_free_variant_does_less_work() {
        let g = road();
        let mut app = Bfs::new(&g);
        let cfg = CapstanConfig::paper_default();
        let full: u64 = app
            .build(&cfg)
            .tiles
            .iter()
            .map(|t| t.sram.rmw_requests)
            .sum();
        app.write_backpointers = false;
        let lean: u64 = app
            .build(&cfg)
            .tiles
            .iter()
            .map(|t| t.sram.rmw_requests)
            .sum();
        assert!(lean < full);
    }

    #[test]
    fn empty_graph_is_handled() {
        let app = Bfs::from_source(&Coo::zeros(0, 0), 0);
        let cfg = CapstanConfig::paper_default();
        let (wl, result) = app.record(&cfg);
        assert!(result.dist.is_empty());
        assert_eq!(wl.dependent_rounds, 0);
    }
}
