//! Graph-neural-network layer: the unified sparse-dense application the
//! paper motivates but does not evaluate.
//!
//! Paper §5 (related work): "separating graph analytics and linear algebra
//! may preclude new applications, like graph neural networks". A graph
//! convolution (GCN) layer is exactly that fusion — a dense GEMM over the
//! feature weights chained into a sparse-matrix × dense-matrix product
//! (SpMM) over the graph adjacency:
//!
//! ```text
//! H' = relu( Â · (H · W) )      Â = D⁻¹(A + I)  (row-normalized)
//! ```
//!
//! The Capstan mapping shows why a vector RDA suits GNNs where pure graph
//! accelerators struggle:
//!
//! * The **feature dimension maps to the vector lanes**. PR-Pull suffers
//!   vector-length underutilization because most vertices have few
//!   in-edges (paper Fig. 7); in SpMM the same adjacency irregularity only
//!   perturbs the *address* stream, while every lane stays busy on the
//!   16-wide feature rows.
//! * Neighbor rows of the intermediate `X·W` are fetched by **random SRAM
//!   reads at consecutive addresses**: the hashed banking (§3.1) spreads a
//!   row fetch across all 16 banks conflict-free.
//! * The dense GEMM and the SpMM **fuse into one streaming pipeline**: the
//!   intermediate `X·W` never leaves the chip, the same argument the paper
//!   makes for BiCGStab (§4.4). [`GcnLayer::record_unfused`] quantifies
//!   the round-trip this saves.

use crate::common::round_robin;
use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{TileRecorder, Workload, WorkloadBuilder};
use capstan_tensor::dense::DenseMatrix;
use capstan_tensor::{Coo, Csr, Value};

/// Sparse-matrix × dense-matrix product (`C = A · B`) with the feature
/// dimension vectorized across lanes.
///
/// This is the standalone SpMM kernel; [`GcnLayer`] composes it with a
/// dense GEMM into a full graph-convolution layer.
///
/// # Example
///
/// ```
/// use capstan_apps::gnn::Spmm;
/// use capstan_apps::App;
/// use capstan_core::config::CapstanConfig;
/// use capstan_tensor::{gen, DenseMatrix};
///
/// let graph = gen::power_law(500, 3000, 2.1, 7);
/// let features = DenseMatrix::from_fn(graph.cols(), 16, |r, c| ((r + c) % 3) as f32);
/// let app = Spmm::new(&graph, features);
/// let report = app.simulate(&CapstanConfig::paper_default());
/// assert!(report.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Spmm {
    a: Csr,
    b: DenseMatrix,
}

impl Spmm {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn new(a: &Coo, b: DenseMatrix) -> Self {
        assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
        Spmm {
            a: Csr::from_coo(a),
            b,
        }
    }

    /// CPU reference result.
    pub fn reference(&self) -> DenseMatrix {
        spmm_reference(&self.a, &self.b)
    }

    /// Records the Capstan execution: the workload trace plus the
    /// functionally computed product.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, DenseMatrix) {
        let tiles = cfg.effective_outer_par(1);
        let mut wl = WorkloadBuilder::for_config("SpMM", cfg);
        let mut out = DenseMatrix::zeros(self.a.rows(), self.b.cols());
        for tile in 0..tiles {
            let mut t = wl.tile();
            record_spmm_tile(&mut t, &self.a, &self.b, &mut out, tiles, tile, cfg);
            wl.commit(t);
        }
        (wl.finish(), out)
    }
}

impl App for Spmm {
    fn name(&self) -> &'static str {
        "SpMM"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// One tile's share of an SpMM: round-robin rows of `a`, neighbor rows of
/// `b` fetched with random (but lane-consecutive) SRAM reads, results
/// accumulated locally (the reduction dimension is innermost, so no
/// atomics are needed — paper §2.2).
fn record_spmm_tile(
    t: &mut TileRecorder,
    a: &Csr,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    tiles: usize,
    tile: usize,
    cfg: &CapstanConfig,
) {
    let f_out = b.cols();
    let b_words = b.rows() * f_out;
    let b_fits = b_words <= cfg.spmu.capacity_words();
    // The dense operand is loaded on-chip once (multicast), so each tile
    // accounts a 1/tiles share of its stream.
    t.dram_stream_read(b_words * 4 / tiles.max(1));
    let mut tile_rows = 0usize;
    let mut col_ptrs: Vec<u32> = Vec::new();
    for r in round_robin(a.rows(), tiles, tile) {
        tile_rows += 1;
        let cols = a.row_cols(r);
        let vals = a.row_values(r);
        col_ptrs.extend_from_slice(cols);
        for (&j, &aij) in cols.iter().zip(vals) {
            if b_fits {
                // Row fetch of B[j]: random base address, consecutive
                // words — hashed banking spreads it across all banks.
                let base = (j as usize * f_out) as u32;
                t.foreach_vec(f_out, |t, k| {
                    t.sram_read(base + k as u32);
                    out.row_mut(r)[k] += aij * b.row(j as usize)[k];
                });
            } else {
                // B spills to DRAM: one burst-granular row fetch per
                // neighbor at its real row-major offset, compute on the
                // streamed row.
                let row_word = j as u64 * f_out as u64;
                for b in 0..((f_out * 4) as u64).div_ceil(64) {
                    t.dram_random_read_at(row_word + b * 16);
                }
                t.foreach_vec(f_out, |_, k| {
                    out.row_mut(r)[k] += aij * b.row(j as usize)[k];
                });
            }
        }
    }
    let tile_nnz = col_ptrs.len();
    // Adjacency streams: row lengths + column pointers (compressible,
    // §3.4) + values.
    t.dram_stream_read(tile_rows * 4);
    t.dram_pointer_read(&col_ptrs);
    t.dram_stream_read(tile_nnz * 4);
    // Output rows stream back.
    t.dram_stream_write(tile_rows * f_out * 4);
}

fn spmm_reference(a: &Csr, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for (j, aij) in a.row(r) {
            let brow = b.row(j as usize);
            let orow = out.row_mut(r);
            for k in 0..brow.len() {
                orow[k] += aij * brow[k];
            }
        }
    }
    out
}

/// A graph-convolution layer `H' = relu(Â · (H · W))` fusing a dense GEMM
/// with an SpMM in one streaming pipeline.
///
/// # Example
///
/// ```
/// use capstan_apps::gnn::GcnLayer;
/// use capstan_core::config::CapstanConfig;
/// use capstan_tensor::gen;
///
/// let graph = gen::power_law(400, 2400, 2.1, 3);
/// let layer = GcnLayer::with_synthetic(&graph, 16, 8);
/// let (workload, activations) = layer.record(&CapstanConfig::paper_default());
/// assert_eq!(activations.rows(), 400);
/// assert!(activations.as_slice().iter().all(|&v| v >= 0.0)); // ReLU
/// assert!(!workload.tiles.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct GcnLayer {
    adj: Csr,
    features: DenseMatrix,
    weights: DenseMatrix,
}

impl GcnLayer {
    /// Builds the layer from a raw graph: the adjacency is augmented with
    /// self-loops and row-normalized (`Â = D⁻¹(A + I)`, the standard GCN
    /// propagation matrix).
    ///
    /// # Panics
    ///
    /// Panics if the graph is not square, `features.rows()` does not match
    /// the node count, or `weights.rows() != features.cols()`.
    fn new(graph: &Coo, features: DenseMatrix, weights: DenseMatrix) -> Self {
        assert_eq!(graph.rows(), graph.cols(), "adjacency must be square");
        assert_eq!(features.rows(), graph.rows(), "one feature row per node");
        assert_eq!(
            weights.rows(),
            features.cols(),
            "weight rows must match feature dim"
        );
        GcnLayer {
            adj: normalized_adjacency(graph),
            features,
            weights,
        }
    }

    /// Builds the layer with deterministic synthetic features and weights
    /// (`f_in` input features, `f_out` output features).
    pub fn with_synthetic(graph: &Coo, f_in: usize, f_out: usize) -> Self {
        let n = graph.rows();
        // Bounded, sign-varying values: ReLU clips a meaningful fraction.
        let features = DenseMatrix::from_fn(n, f_in, |r, c| {
            (((r * 31 + c * 17) % 13) as Value - 6.0) / 6.0
        });
        let weights = DenseMatrix::from_fn(f_in, f_out, |r, c| {
            (((r * 7 + c * 29) % 11) as Value - 5.0) / 5.0
        });
        GcnLayer::new(graph, features, weights)
    }

    /// CPU reference forward pass.
    pub fn reference(&self) -> DenseMatrix {
        let xw = gemm_reference(&self.features, &self.weights);
        let mut out = spmm_reference(&self.adj, &xw);
        relu(&mut out);
        out
    }

    /// Records the fused Capstan execution: GEMM → SpMM → ReLU as one
    /// streaming pipeline with the intermediate `X·W` SRAM-resident.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, DenseMatrix) {
        self.record_inner(cfg, true)
    }

    /// Records the *unfused* execution for the fusion study: the GEMM
    /// writes `X·W` to DRAM and the SpMM reads it back, the way a
    /// kernel-by-kernel library (cuSparse + cuBLAS) runs the layer.
    pub fn record_unfused(&self, cfg: &CapstanConfig) -> (Workload, DenseMatrix) {
        self.record_inner(cfg, false)
    }

    fn record_inner(&self, cfg: &CapstanConfig, fused: bool) -> (Workload, DenseMatrix) {
        let tiles = cfg.effective_outer_par(1);
        let n = self.adj.rows();
        let f_in = self.features.cols();
        let f_out = self.weights.cols();
        let name = if fused {
            "GCN layer"
        } else {
            "GCN layer (unfused)"
        };
        let mut wl = WorkloadBuilder::for_config(name, cfg);
        // The pipeline runs GEMM and SpMM stages concurrently on separate
        // CUs (inter-CU streaming parallelism, paper §4.1).
        wl.set_cus_per_pipeline(2);
        let xw = gemm_reference(&self.features, &self.weights);
        let mut out = DenseMatrix::zeros(n, f_out);
        for tile in 0..tiles {
            let mut t = wl.tile();
            // --- Stage 1: dense GEMM over this tile's feature rows.
            let mut tile_rows = 0usize;
            for _r in round_robin(n, tiles, tile) {
                tile_rows += 1;
                // f_out dot products of length f_in, fully vectorized.
                t.foreach_vec(f_in * f_out, |_, _| {});
            }
            // Features stream in once; weights are broadcast (negligible).
            t.dram_stream_read(tile_rows * f_in * 4);
            if !fused {
                // Kernel boundary: X·W round-trips through DRAM.
                t.dram_stream_write(tile_rows * f_out * 4);
                t.dram_stream_read(n * f_out * 4 / tiles.max(1));
            }
            // --- Stage 2: SpMM over the normalized adjacency.
            record_spmm_tile(&mut t, &self.adj, &xw, &mut out, tiles, tile, cfg);
            // --- Stage 3: ReLU on the way out (free: fused into the
            // writeback map stage; the traffic is already recorded).
            for r in round_robin(n, tiles, tile) {
                let row = out.row_mut(r);
                t.foreach_vec(row.len(), |_, k| row[k] = row[k].max(0.0));
            }
            wl.commit(t);
        }
        (wl.finish(), out)
    }
}

impl App for GcnLayer {
    fn name(&self) -> &'static str {
        "GCN layer"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// Row-normalized adjacency with self-loops: `Â = D⁻¹(A + I)`.
fn normalized_adjacency(graph: &Coo) -> Csr {
    let n = graph.rows();
    let mut entries: Vec<(u32, u32, Value)> = Vec::with_capacity(graph.nnz() + n);
    // A + I with unit edge weights (GCN propagation ignores edge values).
    for (r, c, _) in graph.iter() {
        if r != c {
            entries.push((r, c, 1.0));
        }
    }
    for i in 0..n as u32 {
        entries.push((i, i, 1.0));
    }
    let mut degree = vec![0usize; n];
    for &(r, _, _) in &entries {
        degree[r as usize] += 1;
    }
    for e in &mut entries {
        e.2 /= degree[e.0 as usize] as Value;
    }
    Csr::from_coo(&Coo::from_triplets(n, n, entries).expect("valid triplets"))
}

fn gemm_reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        let arow = a.row(r);
        let orow = out.row_mut(r);
        for (j, &ajv) in arow.iter().enumerate() {
            let brow = b.row(j);
            for k in 0..brow.len() {
                orow[k] += ajv * brow[k];
            }
        }
    }
    out
}

fn relu(m: &mut DenseMatrix) {
    for r in 0..m.rows() {
        for v in m.row_mut(r) {
            *v = v.max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_tensor::gen;

    fn graph() -> Coo {
        gen::power_law(600, 3600, 2.2, 42)
    }

    fn max_rel_err(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        let num: f64 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let den: f64 = b
            .as_slice()
            .iter()
            .map(|y| (*y as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        num / den.max(1e-30)
    }

    #[test]
    fn spmm_matches_reference() {
        let g = graph();
        let b = DenseMatrix::from_fn(g.cols(), 32, |r, c| ((r + c) % 5) as Value - 2.0);
        let app = Spmm::new(&g, b);
        let cfg = CapstanConfig::paper_default();
        let (wl, out) = app.record(&cfg);
        assert!(max_rel_err(&out, &app.reference()) < 1e-5);
        // One random SRAM read per (neighbor, feature) pair when B fits.
        let reads: u64 = wl.tiles.iter().map(|t| t.sram.total_requests).sum();
        assert_eq!(reads, app.a.nnz() as u64 * 32);
    }

    #[test]
    fn spmm_vector_utilization_is_high() {
        // The GNN claim: the feature dimension keeps lanes full even on a
        // power-law graph where PR-Pull would starve (paper Fig. 7).
        let g = graph();
        let b = DenseMatrix::from_fn(g.cols(), 32, |_, _| 1.0);
        let app = Spmm::new(&g, b);
        let cfg = CapstanConfig::paper_default();
        let (wl, _) = app.record(&cfg);
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        let slots: u64 = wl.tiles.iter().map(|t| t.vectors).sum::<u64>() * 16;
        let util = lane_work as f64 / slots as f64;
        assert!(
            util > 0.95,
            "vector utilization {util:.3} should be ~1 with 32 features"
        );
    }

    #[test]
    fn spmm_spills_to_dram_when_b_does_not_fit() {
        let g = gen::uniform(256, 4096, 2048, 7);
        // 4096 rows x 64 features = 256Ki words > 64Ki SpMU words.
        let b = DenseMatrix::from_fn(4096, 64, |_, _| 1.0);
        let app = Spmm::new(&g, b);
        let cfg = CapstanConfig::paper_default();
        let (wl, out) = app.record(&cfg);
        assert!(max_rel_err(&out, &app.reference()) < 1e-5);
        let random: u64 = wl.tiles.iter().map(|t| t.dram_random_words).sum();
        assert!(random > 0, "expected burst-granular DRAM row fetches");
        let sram: u64 = wl.tiles.iter().map(|t| t.sram.total_requests).sum();
        assert_eq!(sram, 0, "spilled SpMM should not record SRAM randoms");
    }

    #[test]
    fn gcn_matches_reference_and_clips() {
        let g = graph();
        let layer = GcnLayer::with_synthetic(&g, 24, 16);
        let cfg = CapstanConfig::paper_default();
        let (_, out) = layer.record(&cfg);
        let reference = layer.reference();
        assert!(max_rel_err(&out, &reference) < 1e-5);
        assert!(
            out.as_slice().iter().all(|&v| v >= 0.0),
            "ReLU output must be non-negative"
        );
        // The synthetic weights straddle zero, so ReLU must actually clip.
        let zeros = out.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0, "expected some clipped activations");
    }

    #[test]
    fn normalized_adjacency_rows_sum_to_one() {
        let g = graph();
        let adj = normalized_adjacency(&g);
        for r in 0..adj.rows() {
            let sum: Value = adj.row_values(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            // Self-loop present.
            assert!(adj.row_cols(r).contains(&(r as u32)));
        }
    }

    #[test]
    fn fusion_saves_the_intermediate_round_trip() {
        let g = graph();
        let layer = GcnLayer::with_synthetic(&g, 24, 16);
        let cfg = CapstanConfig::paper_default();
        let fused: u64 = layer
            .record(&cfg)
            .0
            .tiles
            .iter()
            .map(|t| t.dram_stream_bytes)
            .sum();
        let unfused: u64 = layer
            .record_unfused(&cfg)
            .0
            .tiles
            .iter()
            .map(|t| t.dram_stream_bytes)
            .sum();
        let n = layer.adj.rows() as u64;
        let round_trip = 2 * n * layer.weights.cols() as u64 * 4;
        assert!(
            unfused >= fused + round_trip,
            "unfused {unfused} should exceed fused {fused} by the X·W round trip {round_trip}"
        );
    }

    #[test]
    fn fused_layer_is_faster_end_to_end() {
        let g = graph();
        let layer = GcnLayer::with_synthetic(&g, 24, 16);
        // DDR4 makes the saved DRAM round-trip visible in cycles.
        let cfg = CapstanConfig::new(capstan_core::config::MemoryKind::Ddr4);
        let fused = capstan_core::perf::simulate(&layer.record(&cfg).0, &cfg);
        let unfused = capstan_core::perf::simulate(&layer.record_unfused(&cfg).0, &cfg);
        assert!(
            fused.cycles <= unfused.cycles,
            "fused {} should not be slower than unfused {}",
            fused.cycles,
            unfused.cycles
        );
    }

    #[test]
    fn empty_graph_layer_is_valid() {
        let g = Coo::zeros(32, 32);
        let layer = GcnLayer::with_synthetic(&g, 8, 8);
        let cfg = CapstanConfig::paper_default();
        let report = layer.simulate(&cfg);
        assert!(report.cycles >= 1);
        // Self-loops still propagate features through the layer.
        let out = layer.reference();
        assert_eq!(out.rows(), 32);
    }
}
