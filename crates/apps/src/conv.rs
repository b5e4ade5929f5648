//! Sparse-sparse convolution over pruned CNN layers (paper Table 2).
//!
//! Loop 1 iterates the *non-zero activations* through the data scanner;
//! loop 2 iterates the kernel's non-zeros for that input channel; each
//! pair scatters `Out[oC, r+rK, c+cK] += In[iC, r, c] * K[iC][rK, cK, oC]`
//! with atomic updates. Spatially tiled outputs make the scatter cross
//! tile boundaries ("halo"); Capstan routes those updates through the
//! shuffle network instead of a separate halo-exchange pass (§4, Table 11:
//! "convolution uses the shuffle network to avoid a separate
//! halo-exchange pass. For convolutions with 3x3 kernels, Mrg-0 is up to
//! 15% slower").

use crate::App;
use capstan_core::config::CapstanConfig;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_tensor::gen::{ConvLayer, Dataset};
use capstan_tensor::Value;

use capstan_arch::spmu::RmwOp;

/// Sparse convolution of one pruned layer.
#[derive(Debug, Clone)]
pub struct SparseConv {
    layer: ConvLayer,
    /// Route halo updates through DRAM in a separate exchange pass
    /// instead of the shuffle network (the positional-dataflow fallback
    /// the paper measures as far slower, §4 "Convolution Mapping").
    pub halo_via_memory: bool,
}

impl SparseConv {
    /// Wraps a pruned layer.
    pub fn new(layer: ConvLayer) -> Self {
        SparseConv {
            layer,
            halo_via_memory: false,
        }
    }

    /// Generates one of the paper's ResNet-50 layers at the given scale.
    pub fn from_dataset(dataset: Dataset, scale: f64) -> Self {
        SparseConv {
            layer: ConvLayer::generate(dataset, scale),
            halo_via_memory: false,
        }
    }

    /// Output spatial dimension (`dim + kdim - 1`, full correlation).
    fn out_dim(&self) -> usize {
        self.layer.dim + self.layer.kdim - 1
    }

    /// CPU reference: dense correlation `Out[oc, r+rk, c+ck] += In * K`.
    pub fn reference(&self) -> Vec<Value> {
        let l = &self.layer;
        let od = self.out_dim();
        let mut out = vec![0.0; l.out_ch * od * od];
        for ic in 0..l.in_ch {
            for r in 0..l.dim {
                for c in 0..l.dim {
                    let x = l.activation(ic, r, c);
                    if x == 0.0 {
                        continue;
                    }
                    for rk in 0..l.kdim {
                        for ck in 0..l.kdim {
                            for oc in 0..l.out_ch {
                                let w = l.kernel_at(ic, rk, ck, oc);
                                if w != 0.0 {
                                    out[(oc * od + r + rk) * od + c + ck] += x * w;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Records the Capstan execution: output rows are tiled spatially;
    /// halo updates cross to neighbouring tiles via the shuffle network.
    pub fn record(&self, cfg: &CapstanConfig) -> (Workload, Vec<Value>) {
        let l = &self.layer;
        let od = self.out_dim();
        // Hardware layout pads the spatial plane to a power of two for
        // cheap index arithmetic — which is exactly what makes naive
        // linear banking pathological on Conv's strided accesses (§3.1).
        let od_pad = (od * od).next_power_of_two() as u32;
        let tiles = cfg.effective_outer_par(1).min(l.dim.max(1));
        let rows_per_tile = l.dim.div_ceil(tiles);
        let owner = |out_row: usize| (out_row.min(l.dim - 1)) / rows_per_tile;
        let mut out = vec![0.0; l.out_ch * od * od];
        let mut wl = WorkloadBuilder::for_config("Conv", cfg);

        // Pre-gather the kernel's non-zeros per input channel (the COO
        // kernel format of Table 2).
        let kernel_nnz: Vec<Vec<(usize, usize, usize, Value)>> = (0..l.in_ch)
            .map(|ic| {
                let mut v = Vec::new();
                for rk in 0..l.kdim {
                    for ck in 0..l.kdim {
                        for oc in 0..l.out_ch {
                            let w = l.kernel_at(ic, rk, ck, oc);
                            if w != 0.0 {
                                v.push((rk, ck, oc, w));
                            }
                        }
                    }
                }
                v
            })
            .collect();

        for tile in 0..tiles {
            let r_lo = (tile * rows_per_tile).min(l.dim);
            let r_hi = ((tile + 1) * rows_per_tile).min(l.dim);
            let mut t = wl.tile();
            // Kernel weights and this tile's activation rows stream in.
            let kernel_bytes: usize = kernel_nnz.iter().map(|k| k.len() * 8).sum();
            t.dram_stream_read(kernel_bytes);
            t.dram_stream_read((r_hi - r_lo) * l.dim * l.in_ch * 4);
            for (ic, knz) in kernel_nnz.iter().enumerate() {
                for r in r_lo..r_hi {
                    // Loop 1: non-zero activations via the data scanner.
                    let row_start = (ic * l.dim + r) * l.dim;
                    let row = &l.activations[row_start..row_start + l.dim];
                    t.scan_data_outer(row, |t, c, x| {
                        let c = c as usize;
                        // Loop 2: kernel non-zeros, vectorized.
                        t.foreach_vec(knz.len(), |t, k| {
                            let (rk, ck, oc, w) = knz[k];
                            let (ro, co) = (r + rk, c + ck);
                            let addr = oc as u32 * od_pad + (ro * od + co) as u32;
                            let dest = owner(ro);
                            if dest != tile {
                                if self.halo_via_memory {
                                    // Halo-exchange pass: record the real
                                    // output cell so halo rows coalesce
                                    // under recorded addressing.
                                    t.dram_atomic_at(addr as u64);
                                } else {
                                    // Shuffle network (the output word
                                    // doubles as the fallback address).
                                    t.remote_update_at(dest, addr as u64);
                                }
                            }
                            t.sram_rmw(addr, RmwOp::AddF);
                            out[(oc * od + ro) * od + co] += x * w;
                        });
                    });
                }
            }
            t.dram_stream_write((r_hi - r_lo) * od * l.out_ch * 4);
            wl.commit(t);
        }
        (wl.finish(), out)
    }
}

impl App for SparseConv {
    fn name(&self) -> &'static str {
        "Conv"
    }

    fn build(&self, cfg: &CapstanConfig) -> Workload {
        self.record(cfg).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::rel_l2_error;

    fn small() -> SparseConv {
        SparseConv::from_dataset(Dataset::ResNet50L2, 0.12)
    }

    #[test]
    fn conv_matches_reference() {
        let app = small();
        let cfg = CapstanConfig::paper_default();
        let (_, out) = app.record(&cfg);
        assert!(rel_l2_error(&out, &app.reference()) < 1e-5);
    }

    #[test]
    fn work_tracks_activation_and_kernel_sparsity() {
        let app = small();
        let cfg = CapstanConfig::paper_default();
        let wl = app.build(&cfg);
        let lane_work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
        // lane_work = sum over nonzero activations of their channel's
        // kernel nnz.
        let l = &app.layer;
        let mut expect = 0u64;
        for ic in 0..l.in_ch {
            let knz = (0..l.kdim * l.kdim * l.out_ch)
                .filter(|&i| {
                    let rk = i / (l.kdim * l.out_ch);
                    let ck = (i / l.out_ch) % l.kdim;
                    let oc = i % l.out_ch;
                    l.kernel_at(ic, rk, ck, oc) != 0.0
                })
                .count() as u64;
            for r in 0..l.dim {
                for c in 0..l.dim {
                    if l.activation(ic, r, c) != 0.0 {
                        expect += knz;
                    }
                }
            }
        }
        assert_eq!(lane_work, expect);
    }

    #[test]
    fn halo_updates_cross_tiles_for_3x3() {
        // A slightly larger layer than `small()`: the remote fraction is
        // perimeter/area, so tiny layers sit right at the 50% threshold
        // and flip with the synthetic data stream.
        let app = SparseConv::from_dataset(Dataset::ResNet50L2, 0.25);
        let cfg = CapstanConfig::paper_default();
        let wl = app.build(&cfg);
        let remote: u64 = wl.tiles.iter().map(|t| t.remote.total_entries).sum();
        assert!(remote > 0, "3x3 kernels must produce halo traffic");
        // But locality should dominate: most updates stay in-tile.
        let rmw: u64 = wl.tiles.iter().map(|t| t.sram.rmw_requests).sum();
        assert!(remote * 2 < rmw, "remote {remote} vs total {rmw}");
    }

    #[test]
    fn shuffle_halo_beats_memory_halo() {
        // Paper §4: mapping the halo through memory instead of the
        // shuffle/dynamic network is several times slower.
        let mut app = small();
        let cfg = CapstanConfig::paper_default();
        let fast = app.simulate(&cfg);
        app.halo_via_memory = true;
        let slow = app.simulate(&cfg);
        assert!(
            slow.cycles > fast.cycles,
            "memory halo {} should trail shuffle halo {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn one_by_one_kernels_have_no_halo() {
        let app = SparseConv::from_dataset(Dataset::ResNet50L1, 0.12);
        let cfg = CapstanConfig::paper_default();
        let wl = app.build(&cfg);
        let remote: u64 = wl.tiles.iter().map(|t| t.remote.total_entries).sum();
        assert_eq!(remote, 0, "1x1 kernels never cross row tiles");
    }

    #[test]
    fn strided_output_addresses_stress_banking() {
        // Output addresses stride by a power of two per channel: with
        // linear banking this serializes (the paper's Conv pathology,
        // Table 9). More channels sharpen the effect, so test at a
        // larger channel scale than the other tests.
        let app = SparseConv::from_dataset(Dataset::ResNet50L2, 0.25);
        let cfg = CapstanConfig::paper_default();
        let mut linear = cfg;
        linear.spmu.hash = capstan_arch::spmu::BankHash::Linear;
        let hashed_r = app.simulate(&cfg);
        let linear_r = app.simulate(&linear);
        assert!(
            linear_r.cycles > hashed_r.cycles,
            "linear banking {} should trail hashing {}",
            linear_r.cycles,
            hashed_r.cycles
        );
    }
}
