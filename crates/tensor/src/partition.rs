//! Workload tiling: graph partitioning and linear-algebra tiling.
//!
//! Paper §4: "Graph datasets are tiled using Metis with nodes weighted by
//! edge count to give load-balanced tiles. Linear algebra datasets are
//! tiled using a round-robin division of rows, columns, or non-zero matrix
//! values."
//!
//! Metis is substituted with a greedy BFS-grown partitioner that balances
//! per-part edge weight and keeps regions connected, which preserves the
//! two properties the evaluation depends on: load balance (Fig. 7's
//! "Imbalance" component) and locality (cross-tile traffic on the shuffle
//! network, Table 11).

use crate::coo::Coo;
use crate::csr::Csr;
use crate::Index;
use std::collections::VecDeque;

/// A node-to-part assignment for a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    parts: usize,
    assignment: Vec<u32>,
}

impl Partition {
    /// Part id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn part_of(&self, v: usize) -> usize {
        self.assignment[v] as usize
    }

    /// The full assignment array.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Nodes in each part.
    pub fn members(&self) -> Vec<Vec<Index>> {
        let mut out = vec![Vec::new(); self.parts];
        for (v, &p) in self.assignment.iter().enumerate() {
            out[p as usize].push(v as Index);
        }
        out
    }
}

/// Greedily grows `parts` connected regions over the graph, weighting each
/// node by its edge count (out-degree + 1), until every node is assigned.
///
/// The partitioner seeds one BFS frontier per part at evenly spaced
/// high-degree nodes and repeatedly extends the lightest part, which keeps
/// total edge weight balanced — the Metis configuration the paper uses.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn partition_graph(adj: &Csr, parts: usize) -> Partition {
    assert!(parts > 0, "parts must be positive");
    let n = adj.rows();
    if n == 0 {
        return Partition {
            parts,
            assignment: Vec::new(),
        };
    }
    let weight = |v: usize| adj.row_len(v) + 1;
    const UNASSIGNED: u32 = u32::MAX;
    let mut assignment = vec![UNASSIGNED; n];
    let mut part_weight = vec![0usize; parts];
    let mut frontiers: Vec<VecDeque<usize>> = vec![VecDeque::new(); parts];

    // Seed parts at evenly spaced nodes (sorted by degree, to split hubs).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(adj.row_len(v)));
    for (p, frontier) in frontiers.iter_mut().enumerate() {
        let seed = order[p * n / parts];
        frontier.push_back(seed);
    }

    let mut next_unassigned = 0usize;
    let mut assigned = 0usize;
    while assigned < n {
        // Extend the currently lightest part.
        let p = (0..parts).min_by_key(|&p| part_weight[p]).unwrap();
        // Pop until we find an unassigned node; reseed if the frontier dries up.
        let v = loop {
            match frontiers[p].pop_front() {
                Some(v) if assignment[v] == UNASSIGNED => break Some(v),
                Some(_) => continue,
                None => {
                    while next_unassigned < n && assignment[next_unassigned] != UNASSIGNED {
                        next_unassigned += 1;
                    }
                    break if next_unassigned < n {
                        Some(next_unassigned)
                    } else {
                        None
                    };
                }
            }
        };
        let Some(v) = v else { break };
        assignment[v] = p as u32;
        part_weight[p] += weight(v);
        assigned += 1;
        for (u, _) in adj.row(v) {
            if assignment[u as usize] == UNASSIGNED {
                frontiers[p].push_back(u as usize);
            }
        }
    }
    Partition { parts, assignment }
}

/// A half-open index range `[start, end)` assigned to one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRange {
    /// First index of the tile.
    pub start: usize,
    /// One past the last index of the tile.
    pub end: usize,
}

/// Round-robin division of `n` indices into `parts` contiguous tiles whose
/// sizes differ by at most one (the paper's row/column/nnz tiling).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn tile_evenly(n: usize, parts: usize) -> Vec<TileRange> {
    assert!(parts > 0, "parts must be positive");
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(TileRange {
            start,
            end: start + len,
        });
        start += len;
    }
    out
}

/// Tiles a matrix by (approximately) equal non-zero count: returns row
/// ranges such that each tile holds a near-equal share of non-zeros.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn tile_by_nnz(m: &Coo, parts: usize) -> Vec<TileRange> {
    assert!(parts > 0, "parts must be positive");
    let n = m.rows();
    let mut row_nnz = vec![0usize; n + 1];
    for (r, _, _) in m.iter() {
        row_nnz[r as usize + 1] += 1;
    }
    for i in 0..n {
        row_nnz[i + 1] += row_nnz[i];
    }
    let total = row_nnz[n];
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..=parts {
        let target = total * p / parts;
        let mut end = start;
        while end < n && row_nnz[end] < target {
            end += 1;
        }
        if p == parts {
            end = n;
        }
        out.push(TileRange { start, end });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn tile_evenly_covers_everything() {
        let tiles = tile_evenly(10, 3);
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles[0], TileRange { start: 0, end: 4 });
        assert_eq!(tiles[2].end, 10);
        let total: usize = tiles.iter().map(size).sum();
        assert_eq!(total, 10);
        // Sizes differ by at most one.
        let sizes: Vec<usize> = tiles.iter().map(size).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn tile_more_parts_than_items() {
        let tiles = tile_evenly(2, 5);
        let total: usize = tiles.iter().map(size).sum();
        assert_eq!(total, 2);
        assert_eq!(tiles.len(), 5);
    }

    #[test]
    fn tile_by_nnz_balances() {
        // Skewed matrix: row 0 has 100 nnz, rows 1..101 have 1 each.
        let mut triplets = Vec::new();
        for c in 0..100u32 {
            triplets.push((0, c % 100, 1.0 + c as f32));
        }
        for r in 1..101u32 {
            triplets.push((r, 0, 1.0));
        }
        let m = Coo::from_triplets(101, 100, triplets).unwrap();
        let tiles = tile_by_nnz(&m, 2);
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[1].end, 101);
        // First tile should be just the heavy row (or close).
        assert!(
            size(&tiles[0]) <= 5,
            "heavy row should dominate tile 0: {tiles:?}"
        );
    }

    /// Number of indices in a tile.
    fn size(t: &TileRange) -> usize {
        t.end - t.start
    }

    /// Load imbalance: `max part weight / mean part weight` (1.0 = perfect).
    fn imbalance(p: &Partition, weight: impl Fn(usize) -> usize) -> f64 {
        let w: Vec<usize> = p
            .members()
            .iter()
            .map(|m| m.iter().map(|&v| weight(v as usize)).sum())
            .collect();
        let max = *w.iter().max().unwrap_or(&0) as f64;
        let mean = w.iter().sum::<usize>() as f64 / w.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Number of edges whose endpoints land in different parts.
    fn cut_edges(p: &Partition, adj: &Csr) -> usize {
        (0..adj.rows())
            .map(|u| {
                adj.row(u)
                    .filter(|&(v, _)| p.part_of(u) != p.part_of(v as usize))
                    .count()
            })
            .sum()
    }

    #[test]
    fn partition_assigns_every_node() {
        let g = gen::road_network(1000, 2600, 42);
        let adj = Csr::from_coo(&g);
        let p = partition_graph(&adj, 8);
        assert_eq!(p.assignment().len(), 1000);
        assert!(p.assignment().iter().all(|&a| (a as usize) < 8));
        let members = p.members();
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn partition_balances_edge_weight() {
        let g = gen::power_law(2000, 20_000, 2.2, 9);
        let adj = Csr::from_coo(&g);
        let p = partition_graph(&adj, 10);
        let imbalance = imbalance(&p, |v| adj.row_len(v) + 1);
        assert!(imbalance < 1.6, "imbalance {imbalance}");
    }

    #[test]
    fn partition_locality_beats_random() {
        let g = gen::road_network(2500, 6000, 5);
        let adj = Csr::from_coo(&g);
        let p = partition_graph(&adj, 4);
        let cut = cut_edges(&p, &adj);
        // Random assignment cuts ~3/4 of edges; BFS growth should do much
        // better on a near-planar graph.
        assert!(
            cut * 2 < adj.nnz(),
            "cut {} of {} edges — locality too poor",
            cut,
            adj.nnz()
        );
    }

    #[test]
    fn partition_single_part() {
        let g = gen::uniform(50, 50, 200, 1);
        let adj = Csr::from_coo(&g);
        let p = partition_graph(&adj, 1);
        assert_eq!(cut_edges(&p, &adj), 0);
        assert_eq!(imbalance(&p, |_| 1), 1.0);
    }

    #[test]
    fn partition_empty_graph() {
        let adj = Csr::from_coo(&Coo::zeros(0, 0));
        let p = partition_graph(&adj, 4);
        assert_eq!(p.assignment().len(), 0);
    }
}
