//! Shared helpers for application mappings: tiling and deterministic
//! input generation.

use capstan_tensor::{Csr, Value};

/// Round-robin assignment of `n` items to `tiles` tiles: item `i` goes to
/// tile `i % tiles` (the paper's round-robin division of rows, columns,
/// or non-zero values, §4).
pub fn round_robin(n: usize, tiles: usize, tile: usize) -> impl Iterator<Item = usize> {
    (tile..n).step_by(tiles.max(1))
}

/// A deterministic dense input vector: non-zero everywhere, values bounded
/// away from zero so dot products never cancel exactly in tests.
pub fn dense_vector(n: usize) -> Vec<Value> {
    (0..n).map(|i| 1.0 + (i % 7) as Value * 0.25).collect()
}

/// Inverse out-degree weights used by PageRank (`rank[s] / outdeg[s]`).
pub fn inv_out_degree(adj_out: &Csr) -> Vec<Value> {
    (0..adj_out.rows())
        .map(|v| {
            let d = adj_out.row_len(v);
            if d == 0 {
                0.0
            } else {
                1.0 / d as Value
            }
        })
        .collect()
}

/// Relative L2 error `||a - b|| / max(||b||, eps)` — the tolerance metric
/// used by the floating-point app tests (Capstan reorders float
/// accumulation, so exact equality is not expected).
pub fn rel_l2_error(a: &[Value], b: &[Value]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| (*y as f64).powi(2)).sum::<f64>().sqrt();
    num / den.max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_tensor::gen;
    use capstan_tensor::Csr;

    #[test]
    fn round_robin_partitions_everything() {
        let mut seen = [false; 10];
        for t in 0..3 {
            for i in round_robin(10, 3, t) {
                assert!(!seen[i], "item {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dense_vector_has_no_zeros() {
        assert!(dense_vector(100).iter().all(|&v| v != 0.0));
    }

    #[test]
    fn inv_out_degree_handles_sinks() {
        let g = gen::road_network(100, 260, 1);
        let adj = Csr::from_coo(&g);
        let inv = inv_out_degree(&adj);
        for (v, &w) in inv.iter().enumerate() {
            if adj.row_len(v) == 0 {
                assert_eq!(w, 0.0);
            } else {
                assert!((w * adj.row_len(v) as Value - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn error_metrics() {
        let a = [1.0, 2.0];
        let b = [1.0, 2.5];
        assert!(rel_l2_error(&a, &a) < 1e-12);
        assert!(rel_l2_error(&a, &b) > 0.1);
    }
}
