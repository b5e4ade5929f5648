//! Conjugate-gradient solver: a second Krylov method beside BiCGStab.
//!
//! The paper's introduction motivates exactly this workload class:
//! "Krylov methods (a building block for optimization, simulation, and
//! scientific computing) run multiple sparse and dense kernels which must
//! be fused for efficient execution" (§1). BiCGStab (§4.4) is the paper's
//! fusion showcase for general systems; CG is the canonical solver for the
//! symmetric positive-definite systems produced by FEM discretizations
//! (the `bcsstk30` / `Trefethen_20000` structure class of Table 6).
//!
//! Per iteration CG runs one SpMV, two dot products, and three AXPYs —
//! on Capstan all six fuse into one streaming pipeline in which only the
//! matrix touches DRAM. [`ConjugateGradient::record_unfused`] records the
//! kernel-by-kernel variant a BLAS-library implementation would run, with
//! every intermediate vector round-tripping through DRAM.

use crate::common::round_robin;
use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{TileRecorder, Workload, WorkloadBuilder};
use capstan_tensor::{Coo, Csr, Value};

/// CG solving `A x = b` (A symmetric positive-definite) for a fixed
/// iteration budget.
///
/// # Example
///
/// ```
/// use capstan_apps::cg::ConjugateGradient;
/// use capstan_core::config::CapstanConfig;
/// use capstan_tensor::gen;
///
/// // A multi-diagonal (FEM-like) system is symmetric positive-definite.
/// let mut solver = ConjugateGradient::new(&gen::multi_diagonal(500, 3500));
/// solver.iterations = 8;
/// let (workload, result) = solver.record(&CapstanConfig::paper_default());
/// assert!(result.residuals.last().unwrap() < result.residuals.first().unwrap());
/// assert_eq!(workload.dependent_rounds, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ConjugateGradient {
    a: Csr,
    b: Vec<Value>,
    /// Solver iterations to record (each is a dependent round).
    pub iterations: usize,
}

/// Result of a solve: the iterate and per-iteration residual norms.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// Final iterate.
    pub x: Vec<Value>,
    /// Residual 2-norm after each iteration.
    pub residuals: Vec<f64>,
}

impl ConjugateGradient {
    /// Sets up the solver with `b = A * ones` (known solution: all-ones).
    ///
    /// The caller is responsible for `matrix` being symmetric
    /// positive-definite; CG does not converge otherwise (use
    /// [`crate::bicgstab::BiCgStab`] for general systems).
    pub fn new(matrix: &Coo) -> Self {
        let a = Csr::from_coo(matrix);
        let ones = vec![1.0; a.cols()];
        let b = a.spmv(&ones);
        ConjugateGradient {
            a,
            b,
            iterations: 12,
        }
    }

    /// CPU reference solve (identical algorithm, unrecorded).
    pub fn reference(&self) -> CgResult {
        self.solve(&mut Recording::None)
    }

    /// Records the fused Capstan execution: SpMV + BLAS1 as one streaming
    /// pipeline, vectors SRAM-resident.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, CgResult) {
        self.record_inner(cfg, true)
    }

    /// Records the unfused (kernel-by-kernel) execution: each of the six
    /// BLAS calls reads its operands from DRAM and writes its result back,
    /// the cost the paper attributes to CPU/GPU library baselines ("the
    /// inter-kernel overhead causes up to a 3× slowdown", §4.4).
    pub fn record_unfused(&self, cfg: &CapstanConfig) -> (Workload, CgResult) {
        self.record_inner(cfg, false)
    }

    fn record_inner(&self, cfg: &CapstanConfig, fused: bool) -> (Workload, CgResult) {
        let tiles = cfg.effective_outer_par(1);
        let name = if fused { "CG" } else { "CG (unfused)" };
        let mut wl = WorkloadBuilder::for_config(name, cfg);
        wl.set_dependent_rounds(self.iterations as u64);
        let mut recorders: Vec<TileRecorder> = Vec::new();
        for _ in 0..tiles {
            recorders.push(wl.tile());
        }
        let mut recording = Recording::Tiles {
            recorders: &mut recorders,
            fused,
        };
        let result = self.solve(&mut recording);
        for rec in recorders {
            wl.commit(rec);
        }
        (wl.finish(), result)
    }

    /// The CG algorithm; the `recording` sink captures the hardware trace.
    fn solve(&self, recording: &mut Recording<'_>) -> CgResult {
        let n = self.a.rows();
        let mut x = vec![0.0f32; n];
        let mut r = self.b.clone(); // r0 = b - A*0
        let mut p = r.clone();
        let dot = |a: &[Value], b: &[Value]| -> Value { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let mut rr = dot(&r, &r);
        let mut residuals = Vec::new();

        for _ in 0..self.iterations {
            if rr.abs() < 1e-30 {
                break;
            }
            let ap = self.spmv_traced(&p, recording);
            let alpha = rr / dot(&p, &ap);
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rr_new = dot(&r, &r);
            let beta = rr_new / rr;
            rr = rr_new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            // Dense BLAS1 work: two dots + three vector updates ≈ five
            // passes over n per iteration.
            recording.record_blas1(n, 5);
            residuals.push((rr as f64).sqrt());
        }
        CgResult { x, residuals }
    }

    /// SpMV, recording the CSR traffic per tile.
    fn spmv_traced(&self, x: &[Value], recording: &mut Recording<'_>) -> Vec<Value> {
        let y = self.a.spmv(x);
        recording.record_spmv(&self.a);
        y
    }
}

/// Where the solver's hardware trace goes: nowhere (CPU reference) or a
/// set of tile recorders (fused or unfused pipelines).
enum Recording<'a> {
    None,
    Tiles {
        recorders: &'a mut Vec<TileRecorder>,
        fused: bool,
    },
}

impl Recording<'_> {
    /// Records one SpMV: random `x[c]` reads plus the matrix stream; in
    /// unfused mode the input and output vectors also touch DRAM.
    fn record_spmv(&mut self, a: &Csr) {
        let Recording::Tiles { recorders, fused } = self else {
            return;
        };
        let tiles = recorders.len();
        for (tile, rec) in recorders.iter_mut().enumerate() {
            let mut tile_nnz = 0usize;
            let mut tile_rows = 0usize;
            for row in round_robin(a.rows(), tiles, tile) {
                tile_rows += 1;
                let cols = a.row_cols(row);
                tile_nnz += cols.len();
                rec.foreach_vec(cols.len(), |rec, k| {
                    rec.sram_read(cols[k]); // x[c] random read
                });
            }
            rec.dram_stream_read(tile_nnz * 8 + tile_rows * 4);
            if !*fused {
                // Kernel boundary: read x, write y.
                rec.dram_stream_read(a.cols() * 4 / tiles.max(1));
                rec.dram_stream_write(tile_rows * 4);
            }
        }
    }

    /// Records `passes` dense vector passes over `n` elements (dot
    /// products and AXPYs); unfused, each pass also streams its operand
    /// and result through DRAM.
    fn record_blas1(&mut self, n: usize, passes: usize) {
        let Recording::Tiles { recorders, fused } = self else {
            return;
        };
        let tiles = recorders.len();
        for (tile, rec) in recorders.iter_mut().enumerate() {
            let share = round_robin(n, tiles, tile).count();
            for _ in 0..passes {
                rec.foreach_vec(share, |_, _| {});
                if !*fused {
                    // Two operand streams in, one result out per pass.
                    rec.dram_stream_read(share * 8);
                    rec.dram_stream_write(share * 4);
                }
            }
        }
    }
}

impl App for ConjugateGradient {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_core::config::MemoryKind;
    use capstan_tensor::gen::Dataset;

    /// A symmetric positive-definite system: symmetrize the Trefethen
    /// generator's structure, then boost the diagonal to strict diagonal
    /// dominance (a sufficient condition for positive-definiteness).
    fn system() -> ConjugateGradient {
        let coo = Dataset::Trefethen20000.generate_scaled(0.02);
        let t = coo.transpose();
        let n = coo.rows();
        let mut entries: Vec<(u32, u32, Value)> = Vec::new();
        let mut row_abs = vec![0.0f32; n];
        for (r, c, v) in coo.iter().chain(t.iter()) {
            if r != c {
                entries.push((r, c, v / 2.0));
                row_abs[r as usize] += (v / 2.0).abs();
            }
        }
        for i in 0..n as u32 {
            entries.push((i, i, 1.0 + 2.0 * row_abs[i as usize]));
        }
        let sym = Coo::from_triplets(n, n, entries).unwrap();
        let mut solver = ConjugateGradient::new(&sym);
        solver.iterations = 16;
        solver
    }

    #[test]
    fn converges_on_spd_system() {
        let solver = system();
        let result = solver.reference();
        assert!(!result.residuals.is_empty());
        let first = result.residuals.first().unwrap();
        let last = result.residuals.last().unwrap();
        assert!(
            last < &(first * 1e-2),
            "residuals should fall ≥100×: {result:?}"
        );
        let err = result
            .x
            .iter()
            .map(|&xi| ((xi - 1.0) as f64).abs())
            .fold(0.0, f64::max);
        assert!(err < 0.05, "max error {err}");
    }

    #[test]
    fn recorded_solve_matches_reference() {
        let solver = system();
        let cfg = CapstanConfig::paper_default();
        let (wl, result) = solver.record(&cfg);
        let reference = solver.reference();
        assert_eq!(result.residuals.len(), reference.residuals.len());
        for (a, b) in result.residuals.iter().zip(&reference.residuals) {
            assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
        assert_eq!(wl.dependent_rounds, solver.iterations as u64);
    }

    #[test]
    fn fusion_keeps_vectors_on_chip() {
        let solver = system();
        let cfg = CapstanConfig::paper_default();
        let fused: u64 = solver
            .record(&cfg)
            .0
            .tiles
            .iter()
            .map(|t| t.dram_stream_bytes)
            .sum();
        let unfused: u64 = solver
            .record_unfused(&cfg)
            .0
            .tiles
            .iter()
            .map(|t| t.dram_stream_bytes)
            .sum();
        // One SpMV and five BLAS1 passes per iteration round-trip in the
        // unfused variant; the gap must be at least the BLAS1 traffic.
        let n = solver.a.rows() as u64;
        let blas1 = 5 * 12 * n / 2; // conservative lower bound
        assert!(
            unfused > fused + blas1,
            "unfused {unfused} should exceed fused {fused} well beyond {blas1}"
        );
    }

    #[test]
    fn fused_solver_is_faster_on_ddr4() {
        // The paper's fusion claim shows up where bandwidth is scarce.
        let solver = system();
        let cfg = CapstanConfig::new(MemoryKind::Ddr4);
        let fused = capstan_core::perf::simulate(&solver.record(&cfg).0, &cfg);
        let unfused = capstan_core::perf::simulate(&solver.record_unfused(&cfg).0, &cfg);
        assert!(
            (fused.cycles as f64) < unfused.cycles as f64 * 0.95,
            "fused {} should beat unfused {} by >5%",
            fused.cycles,
            unfused.cycles
        );
    }

    #[test]
    fn random_reads_match_spmv_count() {
        let solver = system();
        let cfg = CapstanConfig::paper_default();
        let (wl, result) = solver.record(&cfg);
        let reads: u64 = wl.tiles.iter().map(|t| t.sram.total_requests).sum();
        // One SpMV per completed iteration, one x-read per nnz.
        let expected = solver.a.nnz() as u64 * result.residuals.len() as u64;
        assert_eq!(reads, expected);
    }
}
