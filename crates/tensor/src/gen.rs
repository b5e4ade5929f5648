//! Deterministic synthetic dataset generators.
//!
//! The paper evaluates on SuiteSparse / SNAP datasets and a pruned
//! ResNet-50 (Table 6). Those inputs are not redistributable here, so this
//! module generates *synthetic equivalents*: matrices and graphs with the
//! same dimensions, non-zero counts, and — most importantly — the same
//! structural class, because Capstan's behaviour depends on structure
//! (diagonal clustering for bit-tree vectorization, degree skew for SRAM
//! conflicts, low degree for vector-length underutilization), not on exact
//! values. Real datasets can be substituted via [`crate::mm`].
//!
//! Every generator is seeded and reproducible.

use crate::coo::Coo;
use crate::{Index, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Identifies every dataset in the paper's Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// `ckt11752_dc_1` — circuit simulation matrix (SpMV, M+M, BiCGStab).
    Ckt11752,
    /// `Trefethen_20000` — multi-diagonal number-theory matrix.
    Trefethen20000,
    /// `bcsstk30` — FEM stiffness matrix (banded, clustered).
    Bcsstk30,
    /// `usroads-48` — road network (PR, BFS, SSSP).
    UsRoads,
    /// `web-Stanford` — power-law web graph.
    WebStanford,
    /// `flickr` — heavy power-law social graph.
    Flickr,
    /// `p2p-Gnutella31` — substituted for flickr in sensitivity studies
    /// (paper §4: "to make simulation more feasible").
    Gnutella31,
    /// `spaceStation_4` — small dense-ish SpMSpM input.
    SpaceStation4,
    /// `qc324` — quantum chemistry matrix, 25.7% dense.
    Qc324,
    /// `mbeacxc` — economics matrix, 20.3% dense.
    Mbeacxc,
    /// ResNet-50 layer 1 (1x1 conv, 64->64 channels).
    ResNet50L1,
    /// ResNet-50 layer 2 (3x3 conv, 64->64 channels).
    ResNet50L2,
    /// ResNet-50 layer 29 (3x3 conv, 256->256 channels).
    ResNet50L29,
}

/// Structural class of a dataset, which selects the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Sparse diagonal plus random clustered entries (circuit matrices).
    Circuit,
    /// Dense main diagonal plus power-of-two off-diagonals.
    MultiDiagonal,
    /// Banded with dense blocks (finite-element stiffness).
    Banded,
    /// Low-degree, near-planar graph (roads).
    Road,
    /// Power-law degree distribution (web / social graphs).
    PowerLaw,
    /// Moderately dense, uniformly random small matrix.
    DenseRandom,
    /// Pruned CNN layer (activation/kernel masks).
    Cnn,
}

/// Static description of a Table 6 dataset: paper-reported shape plus the
/// structural class used for synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Name as printed in the paper.
    pub name: &'static str,
    /// Square dimension (or activation spatial dim for CNN layers).
    pub dim: usize,
    /// Paper-reported non-zero count (activation nnz for CNN layers).
    pub nnz: usize,
    /// Paper-reported density in percent.
    pub density_pct: f64,
    /// Structural class.
    pub structure: Structure,
}

impl Dataset {
    /// All Table 6 datasets, in paper order.
    pub const ALL: [Dataset; 13] = [
        Dataset::Ckt11752,
        Dataset::Trefethen20000,
        Dataset::Bcsstk30,
        Dataset::UsRoads,
        Dataset::WebStanford,
        Dataset::Flickr,
        Dataset::Gnutella31,
        Dataset::SpaceStation4,
        Dataset::Qc324,
        Dataset::Mbeacxc,
        Dataset::ResNet50L1,
        Dataset::ResNet50L2,
        Dataset::ResNet50L29,
    ];

    /// The paper-reported spec (Table 6).
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Ckt11752 => DatasetSpec {
                name: "ckt11752_dc_1",
                dim: 49_702,
                nnz: 333_029,
                density_pct: 0.014,
                structure: Structure::Circuit,
            },
            Dataset::Trefethen20000 => DatasetSpec {
                name: "Trefethen_20000",
                dim: 20_000,
                nnz: 554_466,
                density_pct: 0.139,
                structure: Structure::MultiDiagonal,
            },
            Dataset::Bcsstk30 => DatasetSpec {
                name: "bcsstk30",
                dim: 28_924,
                nnz: 2_043_492,
                density_pct: 0.244,
                structure: Structure::Banded,
            },
            Dataset::UsRoads => DatasetSpec {
                name: "usroads-48",
                dim: 126_146,
                nnz: 323_900,
                density_pct: 0.002,
                structure: Structure::Road,
            },
            Dataset::WebStanford => DatasetSpec {
                name: "web-Stanford",
                dim: 281_903,
                nnz: 2_312_497,
                density_pct: 0.003,
                structure: Structure::PowerLaw,
            },
            Dataset::Flickr => DatasetSpec {
                name: "flickr",
                dim: 820_878,
                nnz: 9_837_214,
                density_pct: 0.001,
                structure: Structure::PowerLaw,
            },
            Dataset::Gnutella31 => DatasetSpec {
                name: "p2p-Gnutella31",
                dim: 62_586,
                nnz: 147_892,
                density_pct: 0.004,
                structure: Structure::PowerLaw,
            },
            Dataset::SpaceStation4 => DatasetSpec {
                name: "spaceStation_4",
                dim: 950,
                nnz: 14_158,
                density_pct: 1.6,
                structure: Structure::DenseRandom,
            },
            Dataset::Qc324 => DatasetSpec {
                name: "qc324",
                dim: 324,
                nnz: 27_054,
                density_pct: 25.7,
                structure: Structure::DenseRandom,
            },
            Dataset::Mbeacxc => DatasetSpec {
                name: "mbeacxc",
                dim: 496,
                nnz: 49_920,
                density_pct: 20.3,
                structure: Structure::DenseRandom,
            },
            Dataset::ResNet50L1 => DatasetSpec {
                name: "ResNet-50 #1",
                dim: 56,
                nnz: 88_837,
                density_pct: 44.3,
                structure: Structure::Cnn,
            },
            Dataset::ResNet50L2 => DatasetSpec {
                name: "ResNet-50 #2",
                dim: 56,
                nnz: 47_574,
                density_pct: 23.7,
                structure: Structure::Cnn,
            },
            Dataset::ResNet50L29 => DatasetSpec {
                name: "ResNet-50 #29",
                dim: 14,
                nnz: 41_552,
                density_pct: 82.8,
                structure: Structure::Cnn,
            },
        }
    }

    /// Generates a scaled-down equivalent: dimensions and nnz are both
    /// multiplied by `scale` (clamped to at least 16 rows). Scaling keeps
    /// experiment turnaround fast while preserving structure; the paper
    /// itself substitutes a smaller graph for flickr in sensitivity
    /// studies.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn generate_scaled(self, scale: f64) -> Coo {
        assert!(is_valid_scale(scale), "scale must be in (0, 1]");
        let spec = self.spec();
        let n = ((spec.dim as f64 * scale) as usize).max(16);
        let nnz = ((spec.nnz as f64 * scale) as usize).max(n);
        let seed = 0xCAB5_7A00 ^ (self as u64);
        match spec.structure {
            Structure::Circuit => circuit(n, nnz, seed),
            Structure::MultiDiagonal => multi_diagonal(n, nnz),
            Structure::Banded => banded(n, nnz, seed),
            Structure::Road => road_network(n, nnz, seed),
            Structure::PowerLaw => power_law(n, nnz, 2.2, seed),
            Structure::DenseRandom => uniform(n, n, nnz, seed),
            Structure::Cnn => uniform(n * n, n * n, nnz.min(n * n * n * n), seed),
        }
    }
}

fn rng_for(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn value_for(rng: &mut SmallRng) -> Value {
    // Bounded away from zero so entries never cancel to zero accidentally.
    let v: f32 = rng.gen_range(0.25..1.0);
    if rng.gen_bool(0.5) {
        v
    } else {
        -v
    }
}

/// Uniformly random sparse matrix with exactly-targeted nnz (deduplicated,
/// so the result may fall slightly short on dense targets).
pub fn uniform(rows: usize, cols: usize, nnz: usize, seed: u64) -> Coo {
    let mut rng = rng_for(seed);
    let target = nnz.min(rows * cols);
    let mut triplets = Vec::with_capacity(target + target / 8);
    for _ in 0..target + target / 8 {
        let r = rng.gen_range(0..rows) as Index;
        let c = rng.gen_range(0..cols) as Index;
        triplets.push((r, c, value_for(&mut rng)));
    }
    let mut coo = Coo::from_triplets(rows, cols, triplets).expect("generated in bounds");
    // Trim overshoot to hit the target closely.
    coo.truncate(target);
    coo
}

/// Circuit-style matrix: full diagonal plus clustered random off-diagonal
/// entries (each row talks to a handful of "nets" near a random hub).
pub fn circuit(n: usize, nnz: usize, seed: u64) -> Coo {
    let mut rng = rng_for(seed);
    let mut triplets: Vec<(Index, Index, Value)> = Vec::with_capacity(nnz + n);
    for i in 0..n {
        triplets.push((i as Index, i as Index, value_for(&mut rng)));
    }
    let extra = nnz.saturating_sub(n);
    let clusters = (n / 64).max(1);
    for _ in 0..extra {
        let hub = rng.gen_range(0..clusters) * 64 % n;
        let r = rng.gen_range(0..n) as Index;
        let c = ((hub + rng.gen_range(0..64)) % n) as Index;
        triplets.push((r, c, value_for(&mut rng)));
    }
    Coo::from_triplets(n, n, triplets).expect("generated in bounds")
}

/// Trefethen-style matrix: dense main diagonal plus entries on
/// power-of-two off-diagonals `|i - j| = 2^k`, truncated to hit `nnz`.
pub fn multi_diagonal(n: usize, nnz: usize) -> Coo {
    let mut triplets: Vec<(Index, Index, Value)> = Vec::with_capacity(nnz);
    for i in 0..n {
        triplets.push((i as Index, i as Index, 2.0 + i as Value % 3.0));
    }
    'outer: for k in 0.. {
        let off = 1usize << k;
        if off >= n {
            break;
        }
        for i in 0..n - off {
            if triplets.len() >= nnz {
                break 'outer;
            }
            triplets.push((i as Index, (i + off) as Index, 1.0));
            if triplets.len() < nnz {
                triplets.push(((i + off) as Index, i as Index, 1.0));
            }
        }
    }
    Coo::from_triplets(n, n, triplets).expect("generated in bounds")
}

/// FEM-style banded matrix: symmetric dense blocks along the diagonal with
/// a limited bandwidth, mimicking element connectivity.
pub fn banded(n: usize, nnz: usize, seed: u64) -> Coo {
    let mut rng = rng_for(seed);
    // Choose a half-bandwidth that delivers roughly the target nnz with
    // ~60% in-band fill.
    let per_row = (nnz / n.max(1)).max(1);
    let half_bw = (per_row * 5 / 6).max(1);
    let mut triplets: Vec<(Index, Index, Value)> = Vec::with_capacity(nnz);
    for i in 0..n {
        triplets.push((i as Index, i as Index, 4.0));
        let lo = i.saturating_sub(half_bw);
        for j in lo..i {
            if rng.gen_bool(0.6) {
                let v = value_for(&mut rng);
                triplets.push((i as Index, j as Index, v));
                triplets.push((j as Index, i as Index, v));
            }
        }
    }
    triplets.truncate(nnz.max(n));
    Coo::from_triplets(n, n, triplets).expect("generated in bounds")
}

/// Road-network-style graph: a jittered 2-D lattice with ~2.6 average
/// degree, long-range shortcuts, and 32-bit positive weights; returned as a
/// (generally asymmetric after trimming) adjacency matrix.
pub fn road_network(n: usize, nnz: usize, seed: u64) -> Coo {
    let mut rng = rng_for(seed);
    let side = (n as f64).sqrt().ceil() as usize;
    let node = |x: usize, y: usize| (y * side + x).min(n - 1) as Index;
    let mut triplets: Vec<(Index, Index, Value)> = Vec::with_capacity(nnz);
    for y in 0..side {
        for x in 0..side {
            if y * side + x >= n {
                break;
            }
            let u = node(x, y);
            // Keep ~85% of lattice edges; drop the rest (rivers, deserts).
            if x + 1 < side && rng.gen_bool(0.85) {
                let w = rng.gen_range(1.0..10.0);
                triplets.push((u, node(x + 1, y), w));
                triplets.push((node(x + 1, y), u, w));
            }
            if y + 1 < side && rng.gen_bool(0.85) {
                let w = rng.gen_range(1.0..10.0);
                triplets.push((u, node(x, y + 1), w));
                triplets.push((node(x, y + 1), u, w));
            }
            // Occasional highway shortcut.
            if rng.gen_bool(0.01) {
                let v = rng.gen_range(0..n) as Index;
                if v != u {
                    let w = rng.gen_range(5.0..50.0);
                    triplets.push((u, v, w));
                    triplets.push((v, u, w));
                }
            }
        }
    }
    triplets.truncate(nnz);
    Coo::from_triplets(n, n, triplets).expect("generated in bounds")
}

/// Power-law (Chung-Lu) directed graph: endpoint `i` is sampled with
/// probability proportional to `(i + 1)^(-1/(alpha - 1))`, producing the
/// heavy-tailed in-degree skew of web/social graphs that drives the
/// paper's SRAM-conflict observations for PR-Edge (§4.4).
pub fn power_law(n: usize, edges: usize, alpha: f64, seed: u64) -> Coo {
    let mut rng = rng_for(seed);
    let exponent = -1.0 / (alpha - 1.0);
    // Cumulative weights for binary-search sampling.
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 0..n {
        total += ((i + 1) as f64).powf(exponent);
        cum.push(total);
    }
    let sample = |rng: &mut SmallRng| -> Index {
        let t = rng.gen_range(0.0..total);
        cum.partition_point(|&c| c < t).min(n - 1) as Index
    };
    let mut triplets = Vec::with_capacity(edges + edges / 8);
    for _ in 0..edges + edges / 8 {
        let src = rng.gen_range(0..n) as Index; // out-degree roughly uniform
        let dst = sample(&mut rng); // in-degree power-law
        triplets.push((src, dst, rng.gen_range(1.0..10.0)));
    }
    let mut coo = Coo::from_triplets(n, n, triplets).expect("generated in bounds");
    coo.truncate(edges);
    coo
}

/// A pruned convolution layer: sparse activations and a pruned kernel,
/// mirroring Table 6's convolution rows
/// (`dim • kdim • inCh • outCh`, `activations • kernel` non-zeros).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvLayer {
    /// Spatial dimension (square feature map).
    pub dim: usize,
    /// Kernel spatial dimension.
    pub kdim: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Activation values, dense layout `[in_ch][dim][dim]`, zeros pruned.
    pub activations: Vec<Value>,
    /// Kernel values, dense layout `[in_ch][kdim][kdim][out_ch]`, pruned.
    kernel: Vec<Value>,
}

impl ConvLayer {
    /// Generates a ResNet-50-style pruned layer for one of the Table 6
    /// entries, with activation and kernel densities from the paper.
    pub fn generate(dataset: Dataset, scale: f64) -> ConvLayer {
        let (dim, kdim, in_ch, out_ch, act_density, kern_density) = match dataset {
            Dataset::ResNet50L1 => (56, 1, 64, 64, 0.443, 0.30),
            Dataset::ResNet50L2 => (56, 3, 64, 64, 0.237, 0.30),
            Dataset::ResNet50L29 => (14, 3, 256, 256, 0.828, 0.30),
            other => panic!("{other:?} is not a convolution dataset"),
        };
        let in_ch = ((in_ch as f64 * scale) as usize).max(4);
        let out_ch = ((out_ch as f64 * scale) as usize).max(4);
        let mut rng = rng_for(0xC0_1234 ^ dataset as u64);
        let act_len = in_ch * dim * dim;
        let activations = (0..act_len)
            .map(|_| {
                if rng.gen_bool(act_density) {
                    value_for(&mut rng)
                } else {
                    0.0
                }
            })
            .collect();
        let kern_len = in_ch * kdim * kdim * out_ch;
        let kernel = (0..kern_len)
            .map(|_| {
                if rng.gen_bool(kern_density) {
                    value_for(&mut rng)
                } else {
                    0.0
                }
            })
            .collect();
        ConvLayer {
            dim,
            kdim,
            in_ch,
            out_ch,
            activations,
            kernel,
        }
    }

    /// Activation value at `(channel, row, col)`.
    pub fn activation(&self, c: usize, r: usize, col: usize) -> Value {
        self.activations[(c * self.dim + r) * self.dim + col]
    }

    /// Kernel value at `(in_channel, kr, kc, out_channel)`.
    pub fn kernel_at(&self, ic: usize, kr: usize, kc: usize, oc: usize) -> Value {
        self.kernel[((ic * self.kdim + kr) * self.kdim + kc) * self.out_ch + oc]
    }
}

/// Whether [`Dataset::generate_scaled`] accepts `scale`: it must lie in
/// `(0, 1]`, which also rules out NaN and the infinities.
pub fn is_valid_scale(scale: f64) -> bool {
    scale > 0.0 && scale <= 1.0
}

/// Generates a dense random vector with the given density (used for the
/// 30%-dense CSC SpMV input vector, paper §4).
pub fn sparse_vector(n: usize, density: f64, seed: u64) -> Vec<Value> {
    let mut rng = rng_for(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(density) {
                value_for(&mut rng)
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_table6() {
        assert_eq!(Dataset::Ckt11752.spec().nnz, 333_029);
        assert_eq!(Dataset::Flickr.spec().dim, 820_878);
        assert_eq!(Dataset::Qc324.spec().density_pct, 25.7);
        assert_eq!(Dataset::ResNet50L29.spec().dim, 14);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = Dataset::Ckt11752.generate_scaled(0.01);
        let b = Dataset::Ckt11752.generate_scaled(0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_generation_tracks_spec() {
        for ds in [Dataset::Ckt11752, Dataset::UsRoads, Dataset::Qc324] {
            let spec = ds.spec();
            let m = ds.generate_scaled(0.05);
            let expect_n = ((spec.dim as f64 * 0.05) as usize).max(16);
            assert_eq!(m.rows(), expect_n, "{}", spec.name);
            // nnz within 30% of the scaled target (dedup costs some; dense
            // targets are capped by the scaled matrix capacity).
            let target = ((spec.nnz as f64 * 0.05) as usize)
                .max(expect_n)
                .min(expect_n * expect_n);
            assert!(
                m.nnz() as f64 > target as f64 * 0.5,
                "{}: got {} want ~{}",
                spec.name,
                m.nnz(),
                target
            );
        }
    }

    #[test]
    fn multi_diagonal_has_diagonal() {
        let m = multi_diagonal(100, 500);
        let dense = m.to_dense();
        for i in 0..100 {
            assert_ne!(dense[(i, i)], 0.0);
        }
    }

    #[test]
    fn power_law_is_skewed() {
        let g = power_law(1000, 10_000, 2.2, 7);
        let mut in_deg = vec![0usize; 1000];
        for (_, d, _) in g.iter() {
            in_deg[d as usize] += 1;
        }
        in_deg.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = in_deg[..100].iter().sum();
        // The hottest 10% of nodes should absorb well over half the edges.
        assert!(
            top_decile * 2 > g.nnz(),
            "top decile got {top_decile} of {}",
            g.nnz()
        );
    }

    #[test]
    fn road_network_low_degree() {
        let g = road_network(10_000, 26_000, 3);
        let avg_degree = g.nnz() as f64 / 10_000.0;
        assert!(
            avg_degree < 4.0,
            "roads should be low degree, got {avg_degree}"
        );
    }

    #[test]
    fn conv_layer_densities() {
        let l = ConvLayer::generate(Dataset::ResNet50L2, 1.0);
        let nnz = |v: &[Value]| v.iter().filter(|x| **x != 0.0).count() as f64;
        let act_density = nnz(&l.activations) / l.activations.len() as f64;
        let kern_density = nnz(&l.kernel) / l.kernel.len() as f64;
        assert!(
            (act_density - 0.237).abs() < 0.02,
            "activation density {act_density}"
        );
        assert!(
            (kern_density - 0.30).abs() < 0.02,
            "kernel density {kern_density}"
        );
    }

    #[test]
    fn sparse_vector_density() {
        let v = sparse_vector(10_000, 0.3, 11);
        let nnz = v.iter().filter(|x| **x != 0.0).count();
        assert!((nnz as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    /// Copy-and-re-sort trim: the first `nnz` entries rebuilt through
    /// `from_triplets`, as the generators trimmed before truncating in
    /// place.
    fn resorted_prefix(coo: Coo, nnz: usize) -> Coo {
        if coo.nnz() <= nnz {
            return coo;
        }
        let prefix = coo.entries()[..nnz].to_vec();
        Coo::from_triplets(coo.rows(), coo.cols(), prefix).unwrap()
    }

    #[test]
    fn uniform_trim_equals_the_copy_and_resort_trim() {
        // The sparse draws overshoot and get trimmed; the dense one
        // dedups below its target and is kept whole.
        let cases = [
            (400, 300, 3_000, 1, true),
            (1, 5_000, 400, 3, true),
            (8, 8, 60, 2, false),
        ];
        for (rows, cols, nnz, seed, overshoots) in cases {
            // The untrimmed draw, exactly as `uniform` makes it.
            let mut rng = rng_for(seed);
            let target = nnz.min(rows * cols);
            let triplets = (0..target + target / 8)
                .map(|_| {
                    let r = rng.gen_range(0..rows) as Index;
                    let c = rng.gen_range(0..cols) as Index;
                    (r, c, value_for(&mut rng))
                })
                .collect();
            let untrimmed = Coo::from_triplets(rows, cols, triplets).unwrap();
            assert_eq!(untrimmed.nnz() > target, overshoots, "{rows}x{cols}");
            assert_eq!(
                uniform(rows, cols, nnz, seed),
                resorted_prefix(untrimmed, target),
                "{rows}x{cols} nnz {nnz}"
            );
        }
    }

    #[test]
    fn power_law_trim_equals_the_copy_and_resort_trim() {
        for (n, edges, seed) in [(2_000, 3_000, 5), (500, 600, 6)] {
            // The untrimmed draw, exactly as `power_law` makes it.
            let mut rng = rng_for(seed);
            let exponent = -1.0 / (2.2 - 1.0);
            let mut cum = Vec::with_capacity(n);
            let mut total = 0.0f64;
            for i in 0..n {
                total += ((i + 1) as f64).powf(exponent);
                cum.push(total);
            }
            let triplets = (0..edges + edges / 8)
                .map(|_| {
                    let src = rng.gen_range(0..n) as Index;
                    let t = rng.gen_range(0.0..total);
                    let dst = cum.partition_point(|&c| c < t).min(n - 1) as Index;
                    (src, dst, rng.gen_range(1.0..10.0))
                })
                .collect();
            let untrimmed = Coo::from_triplets(n, n, triplets).unwrap();
            assert!(untrimmed.nnz() > edges, "the draw must overshoot");
            assert_eq!(
                power_law(n, edges, 2.2, seed),
                resorted_prefix(untrimmed, edges),
                "n {n} edges {edges}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a convolution dataset")]
    fn conv_rejects_non_conv_dataset() {
        let _ = ConvLayer::generate(Dataset::Qc324, 1.0);
    }
}
