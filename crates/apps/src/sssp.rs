//! Single-source shortest paths with frontier bitsets (paper Table 2).
//!
//! The mapping mirrors BFS, but the per-edge update chain is
//! `nd = Dist[s] + G[s][d]`, `Ptr[d] = Dist[d] > nd ? s : Ptr[d]`,
//! `Fr[d] |= Dist[d] > nd`, `Dist[d] = min(Dist[d], nd)` — the SpMU's
//! *min-report-changed* atomic (paper §3.1). SSSP is also the paper's
//! example of an application that requires **address-ordered** memory
//! (Table 3): two relaxations of the same node must not race.

use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_tensor::bitvec::BitVec;
use capstan_tensor::partition::{partition_graph, Partition};
use capstan_tensor::{Coo, Csr, Value};

use capstan_arch::scanner::ScanMode;
use capstan_arch::spmu::RmwOp;

/// SSSP result: distances and predecessor pointers.
#[derive(Debug, Clone, PartialEq)]
pub struct SsspResult {
    /// Shortest distance per node (`f32::INFINITY` = unreachable).
    pub dist: Vec<Value>,
    /// Predecessor per node (`u32::MAX` = none).
    parent: Vec<u32>,
}

/// Frontier-based (Bellman-Ford-style) single-source shortest paths.
#[derive(Debug, Clone)]
pub struct Sssp {
    adj: Csr,
    source: u32,
    /// Write predecessor pointers (disabled for the Graphicionado
    /// comparison variant).
    pub write_backpointers: bool,
    /// Safety cap on relaxation rounds.
    max_rounds: usize,
}

impl Sssp {
    /// Builds the benchmark from a weighted edge list, starting at the
    /// highest-out-degree node.
    pub fn new(graph: &Coo) -> Self {
        let adj = Csr::from_coo(graph);
        let source = (0..adj.rows()).max_by_key(|&v| adj.row_len(v)).unwrap_or(0) as u32;
        Sssp {
            adj,
            source,
            write_backpointers: true,
            max_rounds: 10_000,
        }
    }

    /// Number of nodes.
    fn nodes(&self) -> usize {
        self.adj.rows()
    }

    /// Dijkstra CPU reference (weights must be non-negative, which the
    /// generators guarantee).
    pub fn reference(&self) -> SsspResult {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.nodes();
        let mut dist = vec![Value::INFINITY; n];
        let mut parent = vec![u32::MAX; n];
        if n == 0 {
            return SsspResult { dist, parent };
        }
        dist[self.source as usize] = 0.0;
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        // f32 distances ordered via their monotone bit pattern (weights
        // are non-negative, so this is exact).
        let key = |d: Value| (d.to_bits() as u64, 0u32);
        heap.push(Reverse((key(0.0).0, self.source)));
        while let Some(Reverse((k, v))) = heap.pop() {
            let d = f32::from_bits(k as u32);
            if d > dist[v as usize] {
                continue;
            }
            for (u, w) in self.adj.row(v as usize) {
                let nd = d + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    parent[u as usize] = v;
                    heap.push(Reverse((key(nd).0, u)));
                }
            }
        }
        SsspResult { dist, parent }
    }

    fn partition(&self, tiles: usize) -> Partition {
        partition_graph(&self.adj, tiles)
    }

    /// Records the Capstan execution (level-synchronous relaxation).
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, SsspResult) {
        let tiles = cfg.effective_outer_par(1);
        let part = self.partition(tiles);
        let n = self.nodes();
        let mut dist = vec![Value::INFINITY; n];
        let mut parent = vec![u32::MAX; n];
        let mut wl = WorkloadBuilder::for_config("SSSP", cfg);
        if n == 0 {
            return (wl.finish(), SsspResult { dist, parent });
        }
        dist[self.source as usize] = 0.0;

        // Precompute per-round frontiers by running the relaxation.
        let mut rounds: Vec<Vec<u32>> = Vec::new();
        {
            let mut frontier = vec![self.source];
            // Marks the nodes already in `changed`; cleared after each round.
            let mut in_changed = vec![false; n];
            while !frontier.is_empty() && rounds.len() < self.max_rounds {
                rounds.push(frontier.clone());
                let mut changed: Vec<u32> = Vec::new();
                for &s in &frontier {
                    let ds = dist[s as usize];
                    for (d, w) in self.adj.row(s as usize) {
                        let nd = ds + w;
                        if nd < dist[d as usize] {
                            dist[d as usize] = nd;
                            parent[d as usize] = s;
                            if !in_changed[d as usize] {
                                in_changed[d as usize] = true;
                                changed.push(d);
                            }
                        }
                    }
                }
                for &d in &changed {
                    in_changed[d as usize] = false;
                }
                frontier = changed;
            }
        }

        for tile in 0..tiles {
            let mut t = wl.tile();
            let owned = part.members()[tile].len();
            let tile_edges: usize = part.members()[tile]
                .iter()
                .map(|&v| self.adj.row_len(v as usize))
                .sum();
            t.dram_stream_read(owned * 8 + tile_edges * 8); // structure + weights
            t.dram_stream_write(owned * 8);
            for frontier in &rounds {
                let mut bits = BitVec::zeros(n);
                let mut local_count = 0usize;
                for &v in frontier {
                    if part.part_of(v as usize) == tile {
                        bits.set(v as usize, true);
                        local_count += 1;
                    }
                }
                if local_count == 0 {
                    continue;
                }
                t.convert_pointers(local_count);
                t.scan_outer(ScanMode::Union, &bits, None, |t, e| {
                    let s = e.j;
                    let dsts = self.adj.row_cols(s as usize);
                    t.foreach_vec(dsts.len(), |t, k| {
                        let d = dsts[k];
                        let owner = part.part_of(d as usize);
                        if owner != tile {
                            t.remote_update_at(owner, d as u64);
                        }
                        t.sram_rmw(d, RmwOp::MinReportChanged); // Dist[d]
                        if self.write_backpointers {
                            t.sram_rmw(d + n as u32, RmwOp::Write); // Ptr[d]
                        }
                        t.sram_rmw(d + 2 * n as u32, RmwOp::Or); // Fr[d]
                    });
                });
            }
            wl.commit(t);
        }
        wl.set_dependent_rounds(rounds.len() as u64);
        (wl.finish(), SsspResult { dist, parent })
    }
}

impl App for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
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
    fn distances_match_dijkstra() {
        let g = road();
        let app = Sssp::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (_, result) = app.record(&cfg);
        let reference = app.reference();
        for (v, (&a, &b)) in result.dist.iter().zip(&reference.dist).enumerate() {
            if b.is_infinite() {
                assert!(a.is_infinite(), "node {v}");
            } else {
                assert!((a - b).abs() < 1e-4, "node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parents_form_shortest_path_tree() {
        let g = road();
        let app = Sssp::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (_, result) = app.record(&cfg);
        for (v, &p) in result.parent.iter().enumerate() {
            if p == u32::MAX {
                continue;
            }
            // dist[v] = dist[p] + w(p, v) for the recorded parent edge.
            let w = app
                .adj
                .row(p as usize)
                .find(|(d, _)| *d == v as u32)
                .map(|(_, w)| w)
                .expect("parent edge exists");
            assert!((result.dist[v] - (result.dist[p as usize] + w)).abs() < 1e-4);
        }
    }

    #[test]
    fn uses_min_report_changed() {
        let g = road();
        let app = Sssp::new(&g);
        let cfg = CapstanConfig::paper_default();
        let (wl, _) = app.record(&cfg);
        let rmws: u64 = wl.tiles.iter().map(|t| t.sram.rmw_requests).sum();
        assert!(rmws > 0);
        assert!(wl.dependent_rounds > 3);
    }

    #[test]
    fn relaxation_takes_at_least_bfs_levels() {
        let g = road();
        let sssp = Sssp::new(&g);
        let bfs = crate::bfs::Bfs::from_source(&g, sssp.source);
        let cfg = CapstanConfig::paper_default();
        let (wl_s, _) = sssp.record(&cfg);
        let (wl_b, _) = bfs.record(&cfg);
        assert!(wl_s.dependent_rounds + 1 >= wl_b.dependent_rounds);
    }
}
