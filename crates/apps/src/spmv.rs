//! Sparse matrix-vector multiplication in three formats (paper Table 2).
//!
//! The three variants stress different Capstan mechanisms:
//!
//! * **CSR** — dense row iteration, random `V[c]` *reads*: structural
//!   hazards on the SpMU's read path (the paper's 17× Plasticine factor).
//! * **COO** — iteration over non-zeros with both a random read (`V[c]`)
//!   and a random atomic update (`Out[r] +=`): data hazards on memory
//!   modification (the 184× factor).
//! * **CSC** — sparse iteration over the non-zero *inputs* (a 30%-dense
//!   vector, §4), skipping whole columns, with atomic `Out[r]` updates.

use crate::common::{dense_vector, round_robin};
use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_tensor::bcsr::Bcsr;
use capstan_tensor::bitvec::BitVec;
use capstan_tensor::convert::SparseVec;
use capstan_tensor::dcsr::Dcsr;
use capstan_tensor::{Coo, Csc, Csr, Value};

use capstan_arch::scanner::ScanMode;
use capstan_arch::spmu::RmwOp;

/// CSR SpMV: `y[r] = Σ_c M[r][c] * V[c]` with dense row iteration.
#[derive(Debug, Clone)]
pub struct CsrSpmv {
    matrix: Csr,
    x: Vec<Value>,
}

impl CsrSpmv {
    /// Creates the benchmark with a deterministic dense input vector.
    pub fn new(matrix: &Coo) -> Self {
        CsrSpmv {
            matrix: Csr::from_coo(matrix),
            x: dense_vector(matrix.cols()),
        }
    }

    /// Creates the benchmark with a caller-provided input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn with_vector(matrix: &Coo, x: Vec<Value>) -> Self {
        assert_eq!(x.len(), matrix.cols(), "input vector length mismatch");
        CsrSpmv {
            matrix: Csr::from_coo(matrix),
            x,
        }
    }

    /// CPU reference result.
    pub fn reference(&self) -> Vec<Value> {
        self.matrix.spmv(&self.x)
    }

    /// Records the Capstan execution: returns the workload trace and the
    /// functionally computed result.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let rows = self.matrix.rows();
        let cols_n = self.matrix.cols();
        // V is SRAM-resident: replicated per SpMU when it fits (the
        // common case), otherwise partitioned into contiguous column
        // ranges with cross-tile reads through the shuffle network.
        let v_fits = cols_n <= cfg.spmu.capacity_words();
        let range = cols_n.div_ceil(tiles).max(1);
        let mut wl = WorkloadBuilder::for_config("CSR SpMV", cfg);
        let mut y = vec![0.0; rows];
        for tile in 0..tiles {
            let mut t = wl.tile();
            // The vector streams from DRAM once (multicast on chip), so
            // each tile accounts a 1/tiles share; the tile's rows, column
            // indices, and values stream in full.
            t.dram_stream_read(self.x.len() * 4 / tiles);
            let mut tile_rows = 0usize;
            let mut tile_nnz = 0usize;
            for r in round_robin(rows, tiles, tile) {
                tile_rows += 1;
                let cols = self.matrix.row_cols(r);
                let vals = self.matrix.row_values(r);
                tile_nnz += cols.len();
                let mut acc = 0.0;
                t.foreach_vec(cols.len(), |t, k| {
                    let c = cols[k];
                    t.sram_read(c); // random V[c] read
                    if !v_fits {
                        let owner = (c as usize) / range;
                        if owner != tile {
                            t.remote_update_at(owner, c as u64);
                        }
                    }
                    acc += vals[k] * self.x[c as usize];
                });
                y[r] = acc;
            }
            t.dram_stream_read(tile_rows * 4 + tile_nnz * 8);
            t.dram_stream_write(tile_rows * 4);
            wl.commit(t);
        }
        (wl.finish(), y)
    }
}

impl App for CsrSpmv {
    fn name(&self) -> &'static str {
        "CSR SpMV"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// COO SpMV: iterate non-zeros, read `V[c]`, atomically add into `Out[r]`.
#[derive(Debug, Clone)]
pub struct CooSpmv {
    matrix: Coo,
    x: Vec<Value>,
}

impl CooSpmv {
    /// Creates the benchmark with a deterministic dense input vector.
    pub fn new(matrix: &Coo) -> Self {
        CooSpmv {
            matrix: matrix.clone(),
            x: dense_vector(matrix.cols()),
        }
    }

    /// CPU reference result.
    pub fn reference(&self) -> Vec<Value> {
        let mut y = vec![0.0; self.matrix.rows()];
        for (r, c, v) in self.matrix.iter() {
            y[r as usize] += v * self.x[c as usize];
        }
        y
    }

    /// Records the Capstan execution.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let entries = self.matrix.entries();
        let mut wl = WorkloadBuilder::for_config("COO SpMV", cfg);
        let mut y = vec![0.0; self.matrix.rows()];
        // Round-robin division of non-zero values (paper §4).
        let chunk = entries.len().div_ceil(tiles.max(1));
        for tile in 0..tiles {
            let lo = (tile * chunk).min(entries.len());
            let hi = ((tile + 1) * chunk).min(entries.len());
            let slice = &entries[lo..hi];
            let mut t = wl.tile();
            // V is SRAM-resident; its DRAM stream is shared across tiles.
            t.dram_stream_read(self.x.len() * 4 / tiles);
            // Row and column pointers are compressible (closely spaced in
            // a sorted COO, §3.4 / Fig. 5c), values are not.
            let row_ptrs: Vec<u32> = slice.iter().map(|e| e.0).collect();
            let col_ptrs: Vec<u32> = slice.iter().map(|e| e.1).collect();
            t.dram_pointer_read(&row_ptrs);
            t.dram_pointer_read(&col_ptrs);
            t.dram_stream_read(slice.len() * 4);
            t.foreach_vec(slice.len(), |t, k| {
                let (r, c, v) = slice[k];
                t.sram_read(c); // V[c]
                                // Sorted COO puts equal rows in runs: the CU's reduce
                                // stage pre-sums a run within the vector, so only the
                                // last lane of a run issues the atomic update.
                let last_of_run = k + 1 == slice.len() || slice[k + 1].0 != r || (k + 1) % 16 == 0;
                if last_of_run {
                    t.sram_rmw(r, RmwOp::AddF); // Out[r] +=
                }
                y[r as usize] += v * self.x[c as usize];
            });
            t.dram_stream_write((hi - lo).min(self.matrix.rows()) * 4);
            wl.commit(t);
        }
        (wl.finish(), y)
    }
}

impl App for CooSpmv {
    fn name(&self) -> &'static str {
        "COO SpMV"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// CSC SpMV: scan the sparse input vector, skip zero columns entirely,
/// scatter `Out[r] += M[c][r] * V[c]` with atomic updates.
#[derive(Debug, Clone)]
pub struct CscSpmv {
    matrix: Csc,
    x: SparseVec,
}

impl CscSpmv {
    /// Input-vector density used by the paper (§4: "we use a 30%-dense
    /// input vector, based on the datasets used to test EIE").
    const INPUT_DENSITY: f64 = 0.30;

    /// Creates the benchmark with the paper's 30%-dense input vector. An
    /// owned [`Coo`] converts in its own storage (`From<Coo> for Csc`).
    pub fn new(matrix: impl Into<Csc>) -> Self {
        let matrix = matrix.into();
        let dense = capstan_tensor::gen::sparse_vector(matrix.cols(), Self::INPUT_DENSITY, 0xC5C);
        CscSpmv {
            matrix,
            x: SparseVec::from_dense(&dense),
        }
    }

    /// Creates the benchmark with a caller-provided input.
    pub fn with_vector(matrix: &Coo, x: &[Value]) -> Self {
        assert_eq!(x.len(), matrix.cols(), "input vector length mismatch");
        CscSpmv {
            matrix: Csc::from_coo(matrix),
            x: SparseVec::from_dense(x),
        }
    }

    /// CPU reference result.
    pub fn reference(&self) -> Vec<Value> {
        self.matrix.spmv(&self.x.to_dense())
    }

    /// Records the Capstan execution.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let cols = self.matrix.cols();
        let mut wl = WorkloadBuilder::for_config("CSC SpMV", cfg);
        let mut y = vec![0.0; self.matrix.rows()];
        let x_dense = self.x.to_dense();
        for tile in 0..tiles {
            let mut t = wl.tile();
            // This tile's slice of the dense-format input vector, in
            // round-robin column order. The outer loop is `sparse(V)`
            // over a *dense* operand (Table 2), so the hardware uses the
            // data scanner — which is why CSC appears in the paper's
            // data-scanner sensitivity study (Fig. 6b).
            let tile_cols: Vec<usize> = round_robin(cols, tiles, tile).collect();
            let tile_vals: Vec<Value> = tile_cols.iter().map(|&c| x_dense[c]).collect();
            // Input vector stream, shared across tiles.
            t.dram_stream_read(x_dense.len() * 4 / tiles);
            // Touched matrix columns are scattered in DRAM: burst-granular
            // random fetches ("significant on-chip processing interspersed
            // with DRAM loads of matrix data", paper §4.4). Each burst is
            // recorded at its real word offset in the column-major matrix
            // layout (8 bytes per stored entry), so the cycle-level
            // memory mode's recorded-address replay sees the true
            // scatter pattern.
            let col_ptr = self.matrix.col_ptr();
            for &c in &tile_cols {
                if x_dense[c] != 0.0 {
                    let start_word = col_ptr[c] as u64 * 2;
                    let bursts = (self.matrix.col_len(c) as u64 * 8).div_ceil(64);
                    for b in 0..bursts {
                        t.dram_random_read_at(start_word + b * 16);
                    }
                }
            }
            t.scan_data_outer(&tile_vals, |t, k, xc| {
                let c = tile_cols[k as usize];
                let rows = self.matrix.col_rows(c);
                let vals = self.matrix.col_values(c);
                t.foreach_vec(rows.len(), |t, i| {
                    t.sram_rmw(rows[i], RmwOp::AddF); // Out[r] +=
                    y[rows[i] as usize] += vals[i] * xc;
                });
            });
            t.dram_stream_write(self.matrix.rows().div_ceil(tiles) * 4);
            wl.commit(t);
        }
        (wl.finish(), y)
    }
}

impl App for CscSpmv {
    fn name(&self) -> &'static str {
        "CSC SpMV"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// BCSR SpMV: dense `block × block` regions instead of individual
/// non-zeros (paper §2.1: "Other formats — especially for vector
/// architectures — use block sparsity").
///
/// The block format trades work for regularity: every stored value is
/// processed (including explicit zeros, so lane work is `nnz /
/// fill_ratio`), but the inner loop is perfectly vectorizable — no
/// scanner, full lanes, and the `x` reads of one block are consecutive
/// addresses that the hashed banking (§3.1) spreads conflict-free. The
/// CSR-vs-BCSR crossover as a function of fill ratio is measured by the
/// experiment harness's format study.
///
/// The recording charges the modeled dense payloads (`block²` values
/// streamed and `block²` lane slots per block), but the host holds only
/// the non-zeros: [`BcsrSpmv::record`] expands one block at a time into a
/// reused scratch payload ([`Bcsr::fill_block`]), so memory stays
/// O(nnz + blocks) while the arithmetic, and so `y`, is the dense loop's.
///
/// # Example
///
/// ```
/// use capstan_apps::spmv::BcsrSpmv;
/// use capstan_apps::App;
/// use capstan_core::config::CapstanConfig;
/// use capstan_tensor::gen;
///
/// let app = BcsrSpmv::new(&gen::banded(256, 15_000, 5), 16);
/// assert!(app.matrix().fill_ratio() > 0.3); // banded structure blocks well
/// let report = app.simulate(&CapstanConfig::paper_default());
/// assert!(report.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BcsrSpmv {
    matrix: Bcsr,
    x: Vec<Value>,
}

impl BcsrSpmv {
    /// Creates the benchmark with the given block size and a
    /// deterministic dense input vector.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(matrix: &Coo, block: usize) -> Self {
        BcsrSpmv {
            matrix: Bcsr::from_coo(matrix, block),
            x: dense_vector(matrix.cols()),
        }
    }

    /// The blocked matrix (exposes fill-ratio accounting).
    pub fn matrix(&self) -> &Bcsr {
        &self.matrix
    }

    /// Records the Capstan execution.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let b = self.matrix.block_size();
        let mut wl = WorkloadBuilder::for_config("BCSR SpMV", cfg);
        let mut y = vec![0.0; self.matrix.rows()];
        // One block's dense payload at a time.
        let mut payload = vec![0.0; b * b];
        for tile in 0..tiles {
            let mut t = wl.tile();
            // The input vector is SRAM-resident; its stream is shared.
            t.dram_stream_read(self.x.len() * 4 / tiles);
            let mut tile_block_rows = 0usize;
            let mut tile_blocks = 0usize;
            let mut block_ptrs: Vec<u32> = Vec::new();
            for br in round_robin(self.matrix.block_rows(), tiles, tile) {
                tile_block_rows += 1;
                for k in self.matrix.block_row(br) {
                    let bc = self.matrix.block_cols()[k];
                    self.matrix.fill_block(k, &mut payload);
                    tile_blocks += 1;
                    block_ptrs.push(bc);
                    let col_base = bc as usize * b;
                    // One contiguous vector read of x[col_base..+b] per
                    // block, reused across the block's rows.
                    t.foreach_vec(b, |t, ci| {
                        if col_base + ci < self.x.len() {
                            t.sram_read((col_base + ci) as u32);
                        }
                    });
                    // b x b dense MACs, fully vectorized, no scanner.
                    t.foreach_vec(b * b, |_, i| {
                        let (ri, ci) = (i / b, i % b);
                        let r = br * b + ri;
                        let c = col_base + ci;
                        if r < y.len() && c < self.x.len() {
                            y[r] += payload[ri * b + ci] * self.x[c];
                        }
                    });
                }
            }
            // Block pointers are compressible; payloads stream in full
            // (explicit zeros included — the storage cost of blocking).
            t.dram_pointer_read(&block_ptrs);
            t.dram_stream_read(tile_block_rows * 4 + tile_blocks * b * b * 4);
            t.dram_stream_write(tile_block_rows * b * 4);
            wl.commit(t);
        }
        (wl.finish(), y)
    }
}

impl App for BcsrSpmv {
    fn name(&self) -> &'static str {
        "BCSR SpMV"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

/// DCSR SpMV: sparse iteration over the *row* dimension (paper §2.1: "If
/// iteration along rows were sparse, the matrix — with the same row
/// format — would be a doubly-compressed sparse row (DCSR) matrix").
///
/// The scanner iterates the row-occupancy bit-vector, so empty rows cost
/// neither loop iterations nor pointer traffic — the win on hyper-sparse
/// matrices where CSR streams `rows + 1` pointers regardless of content.
/// [`capstan_tensor::dcsr::prefers_dcsr`] makes the per-dimension format
/// choice a compiler like TACO would.
///
/// # Example
///
/// ```
/// use capstan_apps::spmv::DcsrSpmv;
/// use capstan_apps::App;
/// use capstan_core::config::CapstanConfig;
/// use capstan_tensor::gen;
///
/// // 4096 rows, only ~60 occupied: DCSR skips the rest.
/// let m = gen::uniform(4096, 4096, 90, 11);
/// assert!(capstan_tensor::dcsr::prefers_dcsr(&m));
/// let app = DcsrSpmv::new(&m);
/// let report = app.simulate(&CapstanConfig::paper_default());
/// assert!(report.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DcsrSpmv {
    matrix: Dcsr,
    x: Vec<Value>,
}

impl DcsrSpmv {
    /// Creates the benchmark with a deterministic dense input vector.
    pub fn new(matrix: &Coo) -> Self {
        DcsrSpmv {
            matrix: Dcsr::from_coo(matrix),
            x: dense_vector(matrix.cols()),
        }
    }

    /// The doubly-compressed matrix (exposes occupancy accounting).
    pub fn matrix(&self) -> &Dcsr {
        &self.matrix
    }

    /// Records the Capstan execution.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let mut wl = WorkloadBuilder::for_config("DCSR SpMV", cfg);
        let mut y = vec![0.0; self.matrix.rows()];
        // Round-robin the *occupied* rows (round-robin division of rows,
        // paper §4 — empty rows don't exist in this format).
        let occupied = self.matrix.occupied_rows();
        for tile in 0..tiles {
            let mut t = wl.tile();
            t.dram_stream_read(self.x.len() * 4 / tiles);
            let tile_ks: Vec<usize> = round_robin(occupied, tiles, tile).collect();
            // The tile's slice of the occupancy bit-vector drives the
            // sparse outer loop through the bit-vector scanner.
            let row_ids: Vec<u32> = tile_ks.iter().map(|&k| self.matrix.row_ids()[k]).collect();
            let tile_bv =
                BitVec::from_indices(self.matrix.rows(), &row_ids).expect("row ids in bounds");
            let mut tile_nnz = 0usize;
            let mut slot = 0usize;
            t.scan_outer(ScanMode::Intersect, &tile_bv, None, |t, e| {
                let k = tile_ks[slot];
                debug_assert_eq!(e.j, self.matrix.row_ids()[k]);
                slot += 1;
                let entries: Vec<(u32, Value)> = self.matrix.occupied_row(k).collect();
                tile_nnz += entries.len();
                let mut acc = 0.0;
                t.foreach_vec(entries.len(), |t, i| {
                    let (c, v) = entries[i];
                    t.sram_read(c); // random V[c] read
                    acc += v * self.x[c as usize];
                });
                y[e.j as usize] = acc;
            });
            // DCSR pointer traffic: row ids (compressible — sorted and
            // closely spaced) + per-row lengths + column/value streams.
            t.dram_pointer_read(&row_ids);
            t.dram_stream_read(tile_ks.len() * 4 + tile_nnz * 8);
            // Output is also compressed: (row id, value) pairs.
            t.dram_stream_write(tile_ks.len() * 8);
            wl.commit(t);
        }
        (wl.finish(), y)
    }
}

impl App for DcsrSpmv {
    fn name(&self) -> &'static str {
        "DCSR SpMV"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::rel_l2_error;
    use capstan_core::config::MemoryKind;
    use capstan_tensor::gen::Dataset;

    fn small_matrix() -> Coo {
        Dataset::Ckt11752.generate_scaled(0.02)
    }

    #[test]
    fn csr_matches_reference() {
        let m = small_matrix();
        let app = CsrSpmv::new(&m);
        let cfg = CapstanConfig::paper_default();
        let (wl, y) = app.record(&cfg);
        assert!(rel_l2_error(&y, &app.reference()) < 1e-5);
        assert_eq!(wl.tiles.len(), cfg.effective_outer_par(1));
        // Every non-zero performs one random V read.
        let total_reads: u64 = wl.tiles.iter().map(|t| t.sram.total_requests).sum();
        assert_eq!(total_reads, app.matrix.nnz() as u64);
    }

    #[test]
    fn coo_matches_reference_and_does_rmw() {
        let m = small_matrix();
        let app = CooSpmv::new(&m);
        let cfg = CapstanConfig::paper_default();
        let (wl, y) = app.record(&cfg);
        assert!(rel_l2_error(&y, &app.reference()) < 1e-5);
        // Same-row runs coalesce through the reduce stage, so the atomic
        // count is between the distinct-row count and nnz.
        let rmws: u64 = wl.tiles.iter().map(|t| t.sram.rmw_requests).sum();
        assert!(rmws <= m.nnz() as u64);
        let distinct_rows: u64 = {
            let mut rows: Vec<u32> = m.iter().map(|(r, _, _)| r).collect();
            rows.dedup();
            rows.len() as u64
        };
        assert!(
            rmws >= distinct_rows,
            "rmws {rmws} < distinct rows {distinct_rows}"
        );
        // COO loads two pointer streams: compressible traffic recorded.
        assert!(wl.tiles.iter().any(|t| t.dram_compressible_bytes > 0));
    }

    #[test]
    fn csc_matches_reference_and_skips_zero_columns() {
        let m = small_matrix();
        let app = CscSpmv::new(&m);
        let cfg = CapstanConfig::paper_default();
        let (wl, y) = app.record(&cfg);
        assert!(rel_l2_error(&y, &app.reference()) < 1e-5);
        // Work done must track only the non-zero input columns.
        let touched_nnz: usize = (0..m.cols())
            .filter(|&c| app.x.get(c as u32) != 0.0)
            .map(|c| app.matrix.col_len(c))
            .sum();
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        assert_eq!(lane_work, touched_nnz as u64);
    }

    #[test]
    fn csc_faster_than_coo_per_nonzero() {
        // CSC skips ~70% of the input: fewer cycles than COO on the same
        // matrix (both normalized per executed operation they are similar,
        // but end-to-end CSC does less work).
        let m = small_matrix();
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let csc = CscSpmv::new(&m).simulate(&cfg);
        let coo = CooSpmv::new(&m).simulate(&cfg);
        assert!(
            csc.cycles < coo.cycles,
            "CSC {} should beat COO {}",
            csc.cycles,
            coo.cycles
        );
    }

    #[test]
    fn empty_matrix_workloads_are_valid() {
        let m = Coo::zeros(64, 64);
        let cfg = CapstanConfig::paper_default();
        for app in [
            &CsrSpmv::new(&m) as &dyn App,
            &CooSpmv::new(&m),
            &CscSpmv::new(&m),
            &BcsrSpmv::new(&m, 16),
        ] {
            let report = app.simulate(&cfg);
            assert!(report.cycles >= 1);
        }
    }

    #[test]
    fn bcsr_matches_reference() {
        let m = small_matrix();
        let app = BcsrSpmv::new(&m, 16);
        let cfg = CapstanConfig::paper_default();
        let (wl, y) = app.record(&cfg);
        assert!(rel_l2_error(&y, &app.matrix.spmv(&app.x)) < 1e-5);
        // CSR reference agrees too (same matrix, different storage).
        let csr = CsrSpmv::new(&m);
        assert!(rel_l2_error(&y, &csr.reference()) < 1e-4);
        // Lane work covers every stored value plus the per-block x reads.
        let stored = app.matrix.stored_values() as u64;
        let x_reads = app.matrix.blocks() as u64 * 16;
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        assert_eq!(lane_work, stored + x_reads);
    }

    #[test]
    fn bcsr_uses_no_scanner_and_full_vectors() {
        let m = Dataset::Bcsstk30.generate_scaled(0.01);
        let app = BcsrSpmv::new(&m, 16);
        let cfg = CapstanConfig::paper_default();
        let (wl, _) = app.record(&cfg);
        let scan: u64 = wl.tiles.iter().map(|t| t.scan_cycles).sum();
        assert_eq!(scan, 0, "block iteration needs no sparse loop header");
        // 16x16 blocks on 16 lanes: every vector slot does useful work
        // (boundary blocks may clip, so allow a small shortfall).
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        let slots: u64 = wl.tiles.iter().map(|t| t.vectors).sum::<u64>() * 16;
        assert!(
            lane_work as f64 > slots as f64 * 0.95,
            "vector utilization {:.3}",
            lane_work as f64 / slots as f64
        );
    }

    #[test]
    fn dcsr_matches_reference_and_skips_empty_rows() {
        // A hyper-sparse matrix: 8192 rows, only ~64 occupied.
        let m = capstan_tensor::gen::uniform(8192, 8192, 96, 21);
        let app = DcsrSpmv::new(&m);
        let cfg = CapstanConfig::paper_default();
        let (wl, y) = app.record(&cfg);
        assert!(rel_l2_error(&y, &app.matrix.spmv(&app.x)) < 1e-5);
        assert!(rel_l2_error(&y, &CsrSpmv::new(&m).reference()) < 1e-5);
        // Lane work touches only real non-zeros — empty rows cost nothing
        // in the loop body.
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        assert_eq!(lane_work, m.nnz() as u64);
        // The scanner pays for walking the occupancy bit-vector instead.
        let scan: u64 = wl.tiles.iter().map(|t| t.scan_cycles).sum();
        assert!(scan > 0, "sparse row iteration must use the scanner");
    }

    #[test]
    fn dcsr_pointer_traffic_beats_csr_on_hypersparse() {
        let m = capstan_tensor::gen::uniform(8192, 8192, 96, 21);
        assert!(capstan_tensor::dcsr::prefers_dcsr(&m));
        let cfg = CapstanConfig::new(MemoryKind::Ddr4);
        let dcsr_wl = DcsrSpmv::new(&m).build(&cfg);
        let csr_wl = CsrSpmv::new(&m).build(&cfg);
        let bytes = |wl: &capstan_core::program::Workload| -> u64 {
            wl.tiles.iter().map(|t| t.dram_stream_bytes).sum()
        };
        // CSR streams rows+1 pointers; DCSR streams 2 words per occupied
        // row. Both still stream the dense input vector, so the total
        // traffic gap is bounded by that shared term.
        assert!(
            bytes(&dcsr_wl) * 2 < bytes(&csr_wl),
            "DCSR {} bytes should be well under half of CSR {} bytes",
            bytes(&dcsr_wl),
            bytes(&csr_wl)
        );
        // The traffic gap shows up in end-to-end cycles on DDR4.
        let dcsr_cycles = DcsrSpmv::new(&m).simulate(&cfg).cycles;
        let csr_cycles = CsrSpmv::new(&m).simulate(&cfg).cycles;
        assert!(
            dcsr_cycles < csr_cycles,
            "hypersparse: DCSR {dcsr_cycles} should beat CSR {csr_cycles}"
        );
        // And the heuristic flips once rows fill up.
        let dense_rows = capstan_tensor::gen::uniform(256, 256, 4096, 3);
        assert!(!capstan_tensor::dcsr::prefers_dcsr(&dense_rows));
    }

    #[test]
    fn bcsr_beats_csr_on_clustered_blocks_and_loses_scattered() {
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        // Dense banded structure: blocks fill well, BCSR's regular
        // compute wins over CSR's random reads.
        let clustered = capstan_tensor::gen::banded(2048, 120_000, 11);
        let bcsr_c = BcsrSpmv::new(&clustered, 16);
        assert!(
            bcsr_c.matrix().fill_ratio() > 0.5,
            "banded blocks should fill"
        );
        let bcsr_cycles = bcsr_c.simulate(&cfg).cycles;
        let csr_cycles = CsrSpmv::new(&clustered).simulate(&cfg).cycles;
        assert!(
            bcsr_cycles < csr_cycles,
            "clustered: BCSR {bcsr_cycles} should beat CSR {csr_cycles}"
        );
        // Scattered uniform structure: near-empty blocks waste nearly all
        // lane work and DRAM traffic.
        let scattered = capstan_tensor::gen::uniform(2048, 2048, 8192, 13);
        let bcsr_s = BcsrSpmv::new(&scattered, 16);
        assert!(
            bcsr_s.matrix().fill_ratio() < 0.1,
            "uniform blocks should be sparse"
        );
        let bcsr_cycles = bcsr_s.simulate(&cfg).cycles;
        let csr_cycles = CsrSpmv::new(&scattered).simulate(&cfg).cycles;
        assert!(
            bcsr_cycles > csr_cycles,
            "scattered: CSR {csr_cycles} should beat BCSR {bcsr_cycles}"
        );
    }
}
