//! Multi-threaded CPU reference kernels (the TACO / GraphIt stand-in).
//!
//! The paper's CPU baselines run TACO (sparse linear algebra) and GraphIt
//! (graph analytics) with 128 threads on a four-socket Xeon E7-8890 v3.
//! We obviously cannot reproduce that machine. These kernels are *real*
//! multi-core implementations: `examples/hotloop_timing.rs` times them on
//! the host, and their own unit tests check them against serial
//! references. No experiment or report calls them. Threading uses
//! `std::thread::scope` so the crate stays dependency-free.

use capstan_tensor::{Csc, Csr, Value};

/// Threads used by the parallel kernels (defaults to available cores).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Parallel CSR SpMV across row blocks.
pub fn spmv_csr_parallel(m: &Csr, x: &[Value], threads: usize) -> Vec<Value> {
    assert_eq!(x.len(), m.cols(), "dimension mismatch");
    let rows = m.rows();
    let mut y = vec![0.0; rows];
    let threads = threads.max(1).min(rows.max(1));
    let chunk = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (block, slice) in y.chunks_mut(chunk).enumerate() {
            let start = block * chunk;
            scope.spawn(move || {
                for (i, out) in slice.iter_mut().enumerate() {
                    let r = start + i;
                    *out = m.row(r).map(|(c, v)| v * x[c as usize]).sum();
                }
            });
        }
    });
    y
}

/// Parallel CSC SpMV: per-thread partial outputs merged at the end
/// (column scatter needs privatization on a CPU).
pub fn spmv_csc_parallel(m: &Csc, x: &[Value], threads: usize) -> Vec<Value> {
    assert_eq!(x.len(), m.cols(), "dimension mismatch");
    let cols = m.cols();
    let rows = m.rows();
    let threads = threads.max(1).min(cols.max(1));
    let chunk = cols.div_ceil(threads);
    let partials: Vec<Vec<Value>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for block in 0..threads {
            let lo = block * chunk;
            let hi = ((block + 1) * chunk).min(cols);
            handles.push(scope.spawn(move || {
                let mut part = vec![0.0; rows];
                for (c, &xc) in x.iter().enumerate().take(hi).skip(lo) {
                    if xc == 0.0 {
                        continue;
                    }
                    for (r, v) in m.col(c) {
                        part[r as usize] += v * xc;
                    }
                }
                part
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let mut y = vec![0.0; rows];
    for part in partials {
        for (o, p) in y.iter_mut().zip(part) {
            *o += p;
        }
    }
    y
}

/// Parallel pull-based PageRank iteration.
pub fn pagerank_pull_parallel(
    in_adj: &Csr,
    inv_deg: &[Value],
    rank: &[Value],
    damping: Value,
    threads: usize,
) -> Vec<Value> {
    let n = in_adj.rows();
    let mut next = vec![0.0; n];
    let threads = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (block, slice) in next.chunks_mut(chunk).enumerate() {
            let start = block * chunk;
            scope.spawn(move || {
                for (i, out) in slice.iter_mut().enumerate() {
                    let v = start + i;
                    let pulled: Value = in_adj
                        .row(v)
                        .map(|(s, _)| rank[s as usize] * inv_deg[s as usize])
                        .sum();
                    *out = (1.0 - damping) / n as Value + damping * pulled;
                }
            });
        }
    });
    next
}

/// Level-synchronous parallel BFS (frontier split across threads).
pub fn bfs_parallel(adj: &Csr, source: u32, threads: usize) -> Vec<u32> {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n = adj.rows();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    if n == 0 {
        return Vec::new();
    }
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let threads = threads.max(1).min(frontier.len());
        let chunk = frontier.len().div_ceil(threads);
        let next: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for block in frontier.chunks(chunk) {
                let dist = &dist;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    for &s in block {
                        for (d, _) in adj.row(s as usize) {
                            if dist[d as usize]
                                .compare_exchange(
                                    u32::MAX,
                                    level,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                local.push(d);
                            }
                        }
                    }
                    local
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        frontier = next.into_iter().flatten().collect();
    }
    dist.into_iter().map(|a| a.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_apps::common::{inv_out_degree, rel_l2_error};
    use capstan_tensor::gen::Dataset;
    use capstan_tensor::Coo;

    fn matrix() -> Coo {
        Dataset::Ckt11752.generate_scaled(0.02)
    }

    #[test]
    fn parallel_csr_matches_serial() {
        let m = Csr::from_coo(&matrix());
        let x: Vec<Value> = (0..m.cols()).map(|i| (i % 5) as Value + 0.5).collect();
        let serial = m.spmv(&x);
        for threads in [1, 2, 8] {
            let parallel = spmv_csr_parallel(&m, &x, threads);
            assert!(rel_l2_error(&parallel, &serial) < 1e-6);
        }
    }

    #[test]
    fn parallel_csc_matches_serial() {
        let coo = matrix();
        let m = Csc::from_coo(&coo);
        let x = capstan_tensor::gen::sparse_vector(m.cols(), 0.3, 9);
        let serial = m.spmv(&x);
        let parallel = spmv_csc_parallel(&m, &x, 4);
        assert!(rel_l2_error(&parallel, &serial) < 1e-5);
    }

    #[test]
    fn parallel_pagerank_matches_serial() {
        let g = Dataset::UsRoads.generate_scaled(0.02);
        let out_adj = Csr::from_coo(&g);
        let in_adj = Csr::from_coo(&g.transpose());
        let inv = inv_out_degree(&out_adj);
        let rank = vec![1.0 / g.rows() as Value; g.rows()];
        let serial = capstan_apps::pagerank::reference_iteration(&in_adj, &inv, &rank);
        let parallel = pagerank_pull_parallel(&in_adj, &inv, &rank, 0.85, 4);
        assert!(rel_l2_error(&parallel, &serial) < 1e-6);
    }

    #[test]
    fn parallel_bfs_matches_reference() {
        let g = Dataset::UsRoads.generate_scaled(0.01);
        let adj = Csr::from_coo(&g);
        // Same deterministic source policy as the Capstan app.
        let source = (0..adj.rows()).max_by_key(|&v| adj.row_len(v)).unwrap() as u32;
        let app = capstan_apps::bfs::Bfs::from_source(&g, source);
        let reference = app.reference();
        let parallel = bfs_parallel(&adj, source, 4);
        assert_eq!(parallel, reference.dist);
    }
}
