//! The host's sparse BCSR layout is observably the dense-payload one.
//!
//! `Bcsr` keeps each block's non-zeros and expands a block into a dense
//! scratch payload only on demand. [`DenseBcsr`] below is the layout it
//! replaced: every block stores all `block²` values, explicit zeros
//! included. For random shapes (dimensions that do and do not divide the
//! block) and block sizes {1, 2, 3, 4, 16}, the two must agree on
//! `to_coo`, on every block's payload, on the `spmv` bits and on the
//! storage accounting, and `BcsrSpmv::record` must record the same
//! workload (every `TileWork` counter and sampled trace) and `y` bits as
//! the dense recording loop.

use capstan_apps::common::{dense_vector, round_robin};
use capstan_apps::spmv::BcsrSpmv;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_tensor::bcsr::Bcsr;
use capstan_tensor::{Coo, Index, Value};
use proptest::prelude::*;

/// BCSR with dense `block x block` payloads on the host.
struct DenseBcsr {
    rows: usize,
    cols: usize,
    block: usize,
    row_ptr: Vec<usize>,
    block_col: Vec<Index>,
    /// `block * block` values per stored block, row-major.
    data: Vec<Value>,
}

impl DenseBcsr {
    fn from_coo(coo: &Coo, block: usize) -> Self {
        let block_rows = coo.rows().div_ceil(block);
        let mut blocks: Vec<(usize, usize)> = coo
            .iter()
            .map(|(r, c, _)| (r as usize / block, c as usize / block))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let mut row_ptr = vec![0usize; block_rows + 1];
        for &(br, _) in &blocks {
            row_ptr[br + 1] += 1;
        }
        for i in 0..block_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let block_col: Vec<Index> = blocks.iter().map(|&(_, bc)| bc as Index).collect();
        let mut data = vec![0.0; blocks.len() * block * block];
        for (r, c, v) in coo.iter() {
            let (br, bc) = (r as usize / block, c as usize / block);
            let (lo, hi) = (row_ptr[br], row_ptr[br + 1]);
            let k = lo + block_col[lo..hi].binary_search(&(bc as Index)).unwrap();
            let (ri, ci) = (r as usize % block, c as usize % block);
            data[k * block * block + ri * block + ci] = v;
        }
        DenseBcsr {
            rows: coo.rows(),
            cols: coo.cols(),
            block,
            row_ptr,
            block_col,
            data,
        }
    }

    fn block_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn blocks(&self) -> usize {
        self.block_col.len()
    }

    fn stored_values(&self) -> usize {
        self.data.len()
    }

    fn fill_ratio(&self) -> f64 {
        let nnz = self.data.iter().filter(|v| **v != 0.0).count();
        nnz as f64 / self.data.len().max(1) as f64
    }

    fn payload(&self, k: usize) -> &[Value] {
        let sq = self.block * self.block;
        &self.data[k * sq..(k + 1) * sq]
    }

    fn to_coo(&self) -> Coo {
        let b = self.block;
        let mut triplets = Vec::new();
        for br in 0..self.block_rows() {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.block_col[k] as usize;
                for ri in 0..b {
                    for ci in 0..b {
                        let v = self.payload(k)[ri * b + ci];
                        let (r, c) = (br * b + ri, bc * b + ci);
                        if v != 0.0 && r < self.rows && c < self.cols {
                            triplets.push((r as Index, c as Index, v));
                        }
                    }
                }
            }
        }
        Coo::from_triplets(self.rows, self.cols, triplets).unwrap()
    }

    fn spmv(&self, x: &[Value]) -> Vec<Value> {
        let b = self.block;
        let mut y = vec![0.0; self.rows];
        for br in 0..self.block_rows() {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.block_col[k] as usize;
                for ri in 0..b {
                    let r = br * b + ri;
                    if r >= self.rows {
                        break;
                    }
                    let mut acc = 0.0;
                    for ci in 0..b {
                        let c = bc * b + ci;
                        if c < self.cols {
                            acc += self.payload(k)[ri * b + ci] * x[c];
                        }
                    }
                    y[r] += acc;
                }
            }
        }
        y
    }

    /// `BcsrSpmv::record`'s loop reading each block's stored payload.
    fn record(&self, x: &[Value], cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let tiles = cfg.effective_outer_par(1);
        let b = self.block;
        let mut wl = WorkloadBuilder::for_config("BCSR SpMV", cfg);
        let mut y = vec![0.0; self.rows];
        for tile in 0..tiles {
            let mut t = wl.tile();
            t.dram_stream_read(x.len() * 4 / tiles);
            let mut tile_block_rows = 0usize;
            let mut tile_blocks = 0usize;
            let mut block_ptrs: Vec<u32> = Vec::new();
            for br in round_robin(self.block_rows(), tiles, tile) {
                tile_block_rows += 1;
                for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                    let (bc, payload) = (self.block_col[k], self.payload(k));
                    tile_blocks += 1;
                    block_ptrs.push(bc);
                    let col_base = bc as usize * b;
                    t.foreach_vec(b, |t, ci| {
                        if col_base + ci < x.len() {
                            t.sram_read((col_base + ci) as u32);
                        }
                    });
                    t.foreach_vec(b * b, |_, i| {
                        let (ri, ci) = (i / b, i % b);
                        let r = br * b + ri;
                        let c = col_base + ci;
                        if r < y.len() && c < x.len() {
                            y[r] += payload[ri * b + ci] * x[c];
                        }
                    });
                }
            }
            t.dram_pointer_read(&block_ptrs);
            t.dram_stream_read(tile_block_rows * 4 + tile_blocks * b * b * 4);
            t.dram_stream_write(tile_block_rows * b * 4);
            wl.commit(t);
        }
        (wl.finish(), y)
    }
}

fn bits(v: &[Value]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

type Triplets = Vec<(u32, u32, f32)>;

/// A `rows x cols` shape (each 1..=40) with signed triplets, duplicates
/// and explicit zeros included (the COO sums and drops them).
fn shaped_triplets() -> impl Strategy<Value = (usize, usize, Triplets)> {
    (
        1usize..41,
        1usize..41,
        prop::collection::vec((any::<u32>(), any::<u32>(), -6i32..7), 0..200),
    )
        .prop_map(|(rows, cols, raw)| {
            let ts = raw
                .into_iter()
                .map(|(r, c, k)| (r % rows as u32, c % cols as u32, k as f32 * 0.3))
                .collect();
            (rows, cols, ts)
        })
}

proptest! {
    #[test]
    fn sparse_host_bcsr_matches_the_dense_payload_layout(
        (rows, cols, ts) in shaped_triplets(),
        block in prop::sample::select(vec![1usize, 2, 3, 4, 16]),
    ) {
        let coo = Coo::from_triplets(rows, cols, ts).unwrap();
        let sparse = Bcsr::from_coo(&coo, block);
        let dense = DenseBcsr::from_coo(&coo, block);
        prop_assert_eq!(sparse.to_coo(), dense.to_coo());
        prop_assert_eq!(sparse.block_rows(), dense.block_rows());
        prop_assert_eq!(sparse.blocks(), dense.blocks());
        prop_assert_eq!(sparse.block_cols(), &dense.block_col[..]);
        prop_assert_eq!(sparse.stored_values(), dense.stored_values());
        prop_assert_eq!(sparse.fill_ratio().to_bits(), dense.fill_ratio().to_bits());
        let mut payload = vec![0.0; block * block];
        for br in 0..sparse.block_rows() {
            prop_assert_eq!(sparse.block_row(br), dense.row_ptr[br]..dense.row_ptr[br + 1]);
        }
        for k in 0..sparse.blocks() {
            sparse.fill_block(k, &mut payload);
            prop_assert_eq!(bits(&payload), bits(dense.payload(k)));
        }
        // Signed inputs, so a zero payload value times a negative x is
        // -0.0 and the zeros' contribution to the sums shows in the bits.
        let x: Vec<Value> = (0..cols).map(|i| ((i * 7) % 5) as Value * 0.7 - 1.4).collect();
        prop_assert_eq!(bits(&sparse.spmv(&x)), bits(&dense.spmv(&x)));
    }

    #[test]
    fn bcsr_spmv_records_the_dense_payload_workload(
        (rows, cols, ts) in shaped_triplets(),
        block in prop::sample::select(vec![1usize, 2, 3, 4, 16]),
    ) {
        let coo = Coo::from_triplets(rows, cols, ts).unwrap();
        let cfg = CapstanConfig::paper_default();
        let (wl, y) = BcsrSpmv::new(&coo, block).record(&cfg);
        let (want_wl, want_y) = DenseBcsr::from_coo(&coo, block).record(&dense_vector(cols), &cfg);
        prop_assert_eq!(bits(&y), bits(&want_y));
        prop_assert_eq!(format!("{wl:?}"), format!("{want_wl:?}"));
    }
}
