//! Dataset statistics and the unified format descriptor that drive the
//! planning layer (`capstan-plan`).
//!
//! The paper's speedups hinge on matching the sparse format to the data
//! (§2: CSR/CSC/DCSR/BCSR, banded storage, bit-trees), yet a serving
//! system receives *data*, not a hand-tuned configuration. [`TensorStats`]
//! condenses a matrix into the handful of integers a planner needs —
//! computed once per dataset, cheap to ship over the serve protocol —
//! and [`FormatClass`] names the six candidate formats behind one
//! descriptor so plans can be ranked, compared, and cache-keyed.
//!
//! Every field is an integer and the wire codec ([`TensorStats::encode`] /
//! [`TensorStats::parse`]) is a colon-separated integer list, so two
//! processes can never disagree on a statistic through float formatting.

use crate::bittree;
use crate::coo::Coo;
use std::collections::HashSet;

/// The sparse-format classes the planner chooses among, unifying the six
/// formats of the paper (§2.1–2.3) behind one descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FormatClass {
    /// Compressed sparse row — the safe general-purpose fallback.
    Csr,
    /// Compressed sparse column.
    Csc,
    /// Doubly-compressed sparse row (row pointers compressed too) for
    /// hypersparse matrices with many empty rows.
    Dcsr,
    /// Block CSR over dense tiles, for matrices with clustered fill.
    Bcsr,
    /// Diagonal/banded storage, for matrices whose non-zeros sit on a
    /// few diagonals.
    Banded,
    /// The paper's two-level bit-tree (§2.3), capacity-limited to
    /// 262,144 positions.
    BitTree,
}

impl FormatClass {
    /// Every class, in the deterministic order used for plan tie-breaks.
    pub const ALL: [FormatClass; 6] = [
        FormatClass::Csr,
        FormatClass::Csc,
        FormatClass::Dcsr,
        FormatClass::Bcsr,
        FormatClass::Banded,
        FormatClass::BitTree,
    ];

    /// Stable lowercase spelling used in plan summaries.
    pub fn tag(self) -> &'static str {
        match self {
            FormatClass::Csr => "csr",
            FormatClass::Csc => "csc",
            FormatClass::Dcsr => "dcsr",
            FormatClass::Bcsr => "bcsr",
            FormatClass::Banded => "banded",
            FormatClass::BitTree => "bittree",
        }
    }
}

/// The BCSR tile edge used for the block-fill statistic.
const STATS_BLOCK: usize = 16;

/// Wire-format tag prefixing an encoded stats blob (bump on any field
/// change so a stale client cannot smuggle an incompatible blob past the
/// server).
const CODEC_TAG: &str = "s1";

/// Per-dataset statistics, computed once over a [`Coo`] in a single pass.
///
/// All fields are integers; the float-valued views the planner heuristics
/// want (density, mean/variance, block fill) are derived on demand so the
/// stored form — and therefore the wire codec and the server's plan memo
/// keyed on it — is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorStats {
    /// Number of rows.
    rows: u64,
    /// Number of columns.
    cols: u64,
    /// Stored non-zeros.
    pub nnz: u64,
    /// Rows holding at least one non-zero (DCSR's compression target).
    occupied_rows: u64,
    /// Longest row.
    row_len_max: u64,
    /// Sum of squared row lengths (variance follows without a second
    /// pass or any float accumulation).
    row_len_sumsq: u64,
    /// Maximum `|row - col|` over the non-zeros (banded storage cost).
    bandwidth: u64,
    /// Distinct occupied diagonals (`col - row` offsets).
    diagonals: u64,
    /// Occupied 16×16 blocks ([`STATS_BLOCK`]; BCSR's storage unit).
    blocks16: u64,
}

impl TensorStats {
    /// Computes the statistics in one pass over the sorted entries.
    pub fn compute(m: &Coo) -> TensorStats {
        let mut occupied_rows = 0u64;
        let mut row_len_max = 0u64;
        let mut row_len_sumsq = 0u64;
        let mut bandwidth = 0u64;
        let mut diagonals: HashSet<i64> = HashSet::new();
        let mut blocks: HashSet<(u32, u32)> = HashSet::new();
        let mut current_row: Option<u32> = None;
        let mut run = 0u64;
        let close_row = |run: u64, max: &mut u64, sumsq: &mut u64, occ: &mut u64| {
            if run > 0 {
                *occ += 1;
                *max = (*max).max(run);
                *sumsq += run * run;
            }
        };
        for (r, c, _) in m.iter() {
            if current_row != Some(r) {
                close_row(
                    run,
                    &mut row_len_max,
                    &mut row_len_sumsq,
                    &mut occupied_rows,
                );
                current_row = Some(r);
                run = 0;
            }
            run += 1;
            bandwidth = bandwidth.max((i64::from(r) - i64::from(c)).unsigned_abs());
            diagonals.insert(i64::from(c) - i64::from(r));
            blocks.insert((r / STATS_BLOCK as u32, c / STATS_BLOCK as u32));
        }
        close_row(
            run,
            &mut row_len_max,
            &mut row_len_sumsq,
            &mut occupied_rows,
        );
        TensorStats {
            rows: m.rows() as u64,
            cols: m.cols() as u64,
            nnz: m.nnz() as u64,
            occupied_rows,
            row_len_max,
            row_len_sumsq,
            bandwidth,
            diagonals: diagonals.len() as u64,
            blocks16: blocks.len() as u64,
        }
    }

    /// Density: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Fill ratio of the occupied 16×16 blocks: `nnz / (blocks16 * 256)`.
    fn block_fill(&self) -> f64 {
        if self.blocks16 == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.blocks16 as f64 * (STATS_BLOCK * STATS_BLOCK) as f64)
        }
    }

    /// Suggests a format class from the statistics alone — the cheap
    /// static tier of the planner, in the spirit of SAP HANA's
    /// density-driven sparse-vs-dense choice: specialized formats only
    /// on strong structural evidence, CSR as the safe fallback.
    pub fn suggest(&self) -> FormatClass {
        if self.nnz == 0 {
            return FormatClass::Csr;
        }
        // DCSR pays off exactly when its pointer storage beats CSR's —
        // the same rule `dcsr::prefers_dcsr` applies to a materialized
        // matrix.
        if 2 * self.occupied_rows < self.rows + 1 {
            return FormatClass::Dcsr;
        }
        // A few dense diagonals: banded storage touches no index arrays.
        if self.diagonals <= 16 && 2 * self.nnz >= self.diagonals * self.rows.min(self.cols) {
            return FormatClass::Banded;
        }
        // Clustered fill: BCSR amortizes one coordinate per 256 values.
        if self.block_fill() >= 0.5 {
            return FormatClass::Bcsr;
        }
        // Small and extremely sparse: the bit-tree fits its capacity.
        if self.rows * self.cols <= bittree::MAX_LEN as u64 && self.density() < 0.01 {
            return FormatClass::BitTree;
        }
        if self.density() >= 0.10 {
            return FormatClass::Csc;
        }
        FormatClass::Csr
    }

    /// Encodes the statistics as a colon-separated integer list — no
    /// spaces, `=`, or newlines, so the blob travels as one serve-protocol
    /// field value.
    pub fn encode(&self) -> String {
        format!(
            "{CODEC_TAG}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
            self.rows,
            self.cols,
            self.nnz,
            self.occupied_rows,
            self.row_len_max,
            self.row_len_sumsq,
            self.bandwidth,
            self.diagonals,
            self.blocks16
        )
    }

    /// Parses an [`encode`](TensorStats::encode)d blob, rejecting wrong
    /// tags, wrong field counts, non-integer fields, and internally
    /// inconsistent statistics.
    pub fn parse(s: &str) -> Option<TensorStats> {
        let mut fields = s.split(':');
        if fields.next()? != CODEC_TAG {
            return None;
        }
        let mut next = || fields.next()?.parse::<u64>().ok();
        let stats = TensorStats {
            rows: next()?,
            cols: next()?,
            nnz: next()?,
            occupied_rows: next()?,
            row_len_max: next()?,
            row_len_sumsq: next()?,
            bandwidth: next()?,
            diagonals: next()?,
            blocks16: next()?,
        };
        if fields.next().is_some() {
            return None;
        }
        let consistent = stats.occupied_rows <= stats.rows
            && stats.row_len_max <= stats.cols
            && stats.nnz <= stats.rows.saturating_mul(stats.cols)
            && stats.occupied_rows <= stats.nnz
            && (stats.nnz == 0) == (stats.occupied_rows == 0);
        if !consistent {
            return None;
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coo(rows: usize, cols: usize, t: &[(u32, u32, f32)]) -> Coo {
        Coo::from_triplets(rows, cols, t.to_vec()).unwrap()
    }

    #[test]
    fn computes_the_documented_fields() {
        // 4x4: rows 0 and 2 occupied, row 0 has 2 entries on diagonals
        // {0, +2}, row 2 has 1 entry on diagonal -2.
        let m = coo(4, 4, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)]);
        let s = TensorStats::compute(&m);
        assert_eq!(s.rows, 4);
        assert_eq!(s.cols, 4);
        assert_eq!(s.nnz, 3);
        assert_eq!(s.occupied_rows, 2);
        assert_eq!(s.row_len_max, 2);
        assert_eq!(s.row_len_sumsq, 5);
        assert_eq!(s.bandwidth, 2);
        assert_eq!(s.diagonals, 3);
        assert_eq!(s.blocks16, 1);
        assert_eq!(s.density(), 3.0 / 16.0);
        assert_eq!(s.block_fill(), 3.0 / 256.0);
    }

    #[test]
    fn empty_matrix_is_all_zeros_and_suggests_csr() {
        let s = TensorStats::compute(&Coo::zeros(8, 8));
        assert_eq!(s.nnz, 0);
        assert_eq!(s.occupied_rows, 0);
        assert_eq!(s.block_fill(), 0.0);
        assert_eq!(s.suggest(), FormatClass::Csr);
    }

    #[test]
    fn suggest_picks_dcsr_for_hypersparse_rows() {
        // 1 occupied row out of 100: DCSR's pointer compression wins.
        let m = coo(100, 100, &[(7, 3, 1.0), (7, 9, 2.0)]);
        assert_eq!(TensorStats::compute(&m).suggest(), FormatClass::Dcsr);
    }

    #[test]
    fn suggest_picks_banded_for_diagonal_structure() {
        let t: Vec<(u32, u32, f32)> = (0..64u32).map(|i| (i, i, 1.0)).collect();
        let m = coo(64, 64, &t);
        assert_eq!(TensorStats::compute(&m).suggest(), FormatClass::Banded);
    }

    #[test]
    fn suggest_picks_bcsr_for_clustered_fill() {
        // Fully dense 16x16 blocks along the block diagonal: every row
        // occupied (no DCSR), 31 distinct diagonals (no banded), block
        // fill 1.0.
        let mut t: Vec<(u32, u32, f32)> = Vec::new();
        for b in 0..16u32 {
            for r in 0..16u32 {
                for c in 0..16u32 {
                    t.push((b * 16 + r, b * 16 + c, 1.0));
                }
            }
        }
        let m = coo(256, 256, &t);
        let s = TensorStats::compute(&m);
        assert!(s.diagonals > 16);
        assert_eq!(s.block_fill(), 1.0);
        assert_eq!(s.suggest(), FormatClass::Bcsr);
    }

    #[test]
    fn suggest_picks_bittree_when_small_and_sparse() {
        // 256x256 = 65,536 positions fits the bit-tree; density ~0.4%.
        let t: Vec<(u32, u32, f32)> = (0..256u32).map(|i| (i, (i * 53) % 256, 1.0)).collect();
        let m = coo(256, 256, &t);
        let s = TensorStats::compute(&m);
        assert!(s.density() < 0.01);
        assert_eq!(s.suggest(), FormatClass::BitTree);
    }

    #[test]
    fn codec_round_trips_and_rejects_garbage() {
        let m = coo(100, 100, &[(7, 3, 1.0), (7, 9, 2.0), (50, 50, 3.0)]);
        let s = TensorStats::compute(&m);
        let blob = s.encode();
        assert!(!blob.contains(' ') && !blob.contains('=') && !blob.contains('\n'));
        assert_eq!(TensorStats::parse(&blob), Some(s));
        assert_eq!(TensorStats::parse(""), None);
        assert_eq!(TensorStats::parse("s0:1:1:0:0:0:0:0:0:0"), None);
        assert_eq!(TensorStats::parse("s1:1:1:0:0:0:0:0:0"), None, "short");
        assert_eq!(TensorStats::parse(&format!("{blob}:9")), None, "long");
        assert_eq!(TensorStats::parse("s1:1:1:x:0:0:0:0:0:0"), None);
        // Inconsistent: more occupied rows than rows.
        assert_eq!(TensorStats::parse("s1:2:2:3:3:1:3:0:1:1"), None);
        // Inconsistent: nnz without occupied rows.
        assert_eq!(TensorStats::parse("s1:2:2:1:0:1:1:0:1:1"), None);
    }

    #[test]
    fn format_class_tags_are_distinct_and_lowercase() {
        for (i, f) in FormatClass::ALL.iter().enumerate() {
            assert_eq!(f.tag(), f.tag().to_lowercase());
            assert!(FormatClass::ALL[..i].iter().all(|g| g.tag() != f.tag()));
        }
    }
}
