//! Sparse loop headers: the scanner (paper §3.3).
//!
//! "The scanner, which implements sparse loop headers, is a relatively
//! simple block: the key insight is that it requires O(log n) levels of
//! logic, which is less than the O(n) levels that would be required to run
//! arbitrary independent decisions (e.g., stream join)."
//!
//! Three variants are modeled:
//!
//! * [`BitVecScanner`] — the vectorized workhorse (Fig. 3f): computes the
//!   intersection or union of two bit-vectors, then per cycle selects up
//!   to `V` set bits out of a `W`-bit window, producing for each selected
//!   bit the dense index `j`, the compressed indices `jA`/`jB` (prefix
//!   popcounts, −1 on a union miss), and the sequential counter `j'`.
//!   The paper's design point is `W = 256`, `V = 16`.
//! * [`DataScanner`] — identifies one non-zero element of a 16-wide data
//!   vector per cycle; too slow for inner loops, used for outer sparse
//!   iteration over raw values.
//! * [`scan_bittree`] — nested two-pass bit-tree iteration (§2.3).
//!
//! The model is linear, like the hardware's running prefix popcount: a
//! bit-vector scan ([`BitVecScanner::for_each`], behind `scan` and
//! `scan_cycles`) walks the input words once, keeps a running rank per
//! input, and costs O(words + emitted). There is one window counter,
//! shared by every bit-vector and bit-tree scan: it closes a window when
//! an element crosses into a later one, and the empty windows are the
//! total minus the non-empty ones.

use capstan_tensor::bittree::{BitTree, LEAF_BITS};
use capstan_tensor::bitvec::BitVec;
use capstan_tensor::Value;

/// Whether a sparse-sparse loop iterates the intersection or the union of
/// its input spaces (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Iterate positions set in *both* inputs (e.g. vector dot product).
    Intersect,
    /// Iterate positions set in *either* input (e.g. sparse addition).
    Union,
}

/// One scanner output element (paper Fig. 2: `(j, jA, jB, j')`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanElement {
    /// Dense index: the bit position in the iteration space.
    pub j: u32,
    /// Compressed index into input A's value array, or -1 if A's bit was
    /// clear (union mode only).
    pub ja: i32,
    /// Compressed index into input B (see `ja`); -1 when B is absent.
    pub jb: i32,
    /// Sequential counter over emitted elements.
    pub jprime: u32,
}

/// Cycle accounting for one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Total scanner-occupied cycles.
    pub cycles: u64,
    /// Cycles spent on windows containing no set bits ("lanes inactive
    /// because their associated scanner is processing an all-zero vector",
    /// Fig. 7's Scan component).
    pub empty_window_cycles: u64,
    /// Number of elements emitted.
    pub emitted: u64,
}

/// Configuration and cycle model of the bit-vector scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitVecScanner {
    /// Window width in bits examined per cycle (paper design: 256).
    pub width: usize,
    /// Maximum elements emitted per cycle (paper design: 16).
    pub outputs: usize,
}

impl Default for BitVecScanner {
    fn default() -> Self {
        BitVecScanner {
            width: 256,
            outputs: 16,
        }
    }
}

impl BitVecScanner {
    /// Creates a scanner with the given window width and output
    /// vectorization.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(width: usize, outputs: usize) -> Self {
        assert!(
            width > 0 && outputs > 0,
            "scanner dimensions must be positive"
        );
        BitVecScanner { width, outputs }
    }

    /// Scans one or two bit-vectors, returning the iteration space and the
    /// cycles consumed.
    ///
    /// With `b = None` the scan degenerates to iterating `a`'s set bits
    /// (`jb` is -1 throughout).
    ///
    /// # Panics
    ///
    /// Panics if the two inputs have different lengths.
    pub fn scan(
        &self,
        mode: ScanMode,
        a: &BitVec,
        b: Option<&BitVec>,
    ) -> (Vec<ScanElement>, ScanStats) {
        let mut out = Vec::new();
        let stats = self.for_each(mode, a, b, |e| out.push(e));
        (out, stats)
    }

    /// Cycle cost only (no materialized elements) — used by the system
    /// performance model on large traces.
    pub fn scan_cycles(&self, mode: ScanMode, a: &BitVec, b: Option<&BitVec>) -> ScanStats {
        self.for_each(mode, a, b, |_| {})
    }

    /// Streams the scan's elements to `f` in order and returns its cycle
    /// accounting: the same elements and [`ScanStats`] as [`Self::scan`],
    /// without materializing them.
    ///
    /// One pass over the input words: ➊ combines `a`'s and `b`'s words per
    /// `mode`, ➌ derives `jA`/`jB` as the running rank before the word
    /// plus a masked popcount, and ➋ charges each window through one
    /// `WindowCounter`.
    ///
    /// # Panics
    ///
    /// Panics if the two inputs have different lengths.
    pub fn for_each(
        &self,
        mode: ScanMode,
        a: &BitVec,
        b: Option<&BitVec>,
        mut f: impl FnMut(ScanElement),
    ) -> ScanStats {
        if let Some(b) = b {
            assert_eq!(a.len(), b.len(), "scan of mismatched lengths");
        }
        let b_words = b.map(BitVec::words);
        let mut windows = WindowCounter::new(self);
        let (mut rank_a, mut rank_b) = (0i32, 0i32);
        for (w, &wa) in a.words().iter().enumerate() {
            let wb = b_words.map_or(0, |words| words[w]);
            let mut space = match (b, mode) {
                (None, _) => wa,
                (Some(_), ScanMode::Intersect) => wa & wb,
                (Some(_), ScanMode::Union) => wa | wb,
            };
            while space != 0 {
                let bit = space.trailing_zeros();
                space &= space - 1;
                let below = (1u64 << bit) - 1;
                let rank = |word: u64, before: i32| {
                    if word >> bit & 1 == 1 {
                        before + (word & below).count_ones() as i32
                    } else {
                        -1
                    }
                };
                let j = w * 64 + bit as usize;
                let jprime = windows.push(j);
                f(ScanElement {
                    j: j as u32,
                    ja: rank(wa, rank_a),
                    jb: rank(wb, rank_b),
                    jprime,
                });
            }
            rank_a += wa.count_ones() as i32;
            rank_b += wb.count_ones() as i32;
        }
        windows.finish(a.len())
    }
}

/// The scanner's one cycle model: a scan of `len` bits visits
/// `⌈len / width⌉` windows (one when `len == 0`); a window holding `k`
/// set bits costs `⌈k / outputs⌉` cycles and an empty one costs a cycle.
///
/// Elements arrive in increasing order, so a window closes only when an
/// element crosses into a later one (one division per non-empty window),
/// and the empty windows are the total minus the non-empty ones.
struct WindowCounter {
    width: usize,
    outputs: u64,
    /// Exclusive end of the open window (0 before the first element).
    end: usize,
    /// Elements in the open window.
    open: u64,
    /// Cycles of the closed non-empty windows.
    busy: u64,
    nonempty: u64,
    emitted: u64,
}

impl WindowCounter {
    fn new(scanner: &BitVecScanner) -> Self {
        WindowCounter {
            width: scanner.width,
            outputs: scanner.outputs as u64,
            end: 0,
            open: 0,
            busy: 0,
            nonempty: 0,
            emitted: 0,
        }
    }

    /// Counts an element at dense position `j`; returns its `j'`.
    fn push(&mut self, j: usize) -> u32 {
        if j >= self.end {
            self.close();
            self.end = (j / self.width + 1).saturating_mul(self.width);
        }
        self.open += 1;
        (self.emitted + self.open - 1) as u32
    }

    fn close(&mut self) {
        if self.open > 0 {
            self.busy += self.open.div_ceil(self.outputs);
            self.nonempty += 1;
            self.emitted += self.open;
            self.open = 0;
        }
    }

    fn finish(mut self, len: usize) -> ScanStats {
        self.close();
        let empty = len.div_ceil(self.width).max(1) as u64 - self.nonempty;
        ScanStats {
            cycles: self.busy + empty,
            empty_window_cycles: empty,
            emitted: self.emitted,
        }
    }
}

/// The data scanner: examines 16 data elements per cycle and emits one
/// non-zero per cycle (paper §3.3: "because the data scanner can only scan
/// 16 elements per cycle, vectorization could not out-perform dense
/// computation; therefore, the data scanner is not used in inner loops").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataScanner {
    /// Elements examined per cycle (paper design: 16).
    inputs: usize,
}

impl Default for DataScanner {
    fn default() -> Self {
        DataScanner { inputs: 16 }
    }
}

impl DataScanner {
    /// Creates a data scanner examining `inputs` elements per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`.
    pub fn new(inputs: usize) -> Self {
        assert!(inputs > 0, "scanner width must be positive");
        DataScanner { inputs }
    }

    /// Scans a data slice, returning `(index, value)` pairs of non-zeros
    /// and the cycles consumed: it takes `ceil(n / inputs)` cycles to
    /// examine the data but at most one non-zero is emitted per cycle.
    pub fn scan(&self, data: &[Value]) -> (Vec<(u32, Value)>, ScanStats) {
        let nz: Vec<(u32, Value)> = data
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i as u32, *v))
            .collect();
        let examine_cycles = data.len().div_ceil(self.inputs) as u64;
        let emit_cycles = nz.len() as u64;
        let cycles = examine_cycles.max(emit_cycles).max(1);
        let stats = ScanStats {
            cycles,
            empty_window_cycles: examine_cycles.saturating_sub(emit_cycles),
            emitted: nz.len() as u64,
        };
        (nz, stats)
    }
}

/// Two-pass bit-tree iteration (paper §2.3): pass 1 scans the roots to
/// realign leaves, pass 2 runs nested sparse-sparse scans on the aligned
/// leaves. Returns the merged iteration space (as positions) and total
/// scanner cycles.
///
/// The root scan's `jA`/`jB` index each side's leaves directly (a miss
/// pairs against a zero leaf), and a chunk whose merged leaf is empty
/// (an intersection miss) costs nothing in pass 2.
pub fn scan_bittree(
    scanner: &BitVecScanner,
    mode: ScanMode,
    a: &BitTree,
    b: &BitTree,
) -> (Vec<u32>, ScanStats) {
    fn leaf<'t>(tree: &'t BitTree, k: i32, zero: &'t BitVec) -> &'t BitVec {
        usize::try_from(k).map_or(zero, |k| &tree.leaves()[k])
    }
    let zero = BitVec::zeros(LEAF_BITS);
    let mut positions = Vec::new();
    let mut leaves = ScanStats::default();
    // Pass 1: root realignment; pass 2 runs per occupied chunk.
    let root = scanner.for_each(mode, a.root(), Some(b.root()), |chunk| {
        let base = chunk.j as usize * LEAF_BITS;
        let (a_leaf, b_leaf) = (leaf(a, chunk.ja, &zero), leaf(b, chunk.jb, &zero));
        let stats = scanner.for_each(mode, a_leaf, Some(b_leaf), |e| {
            positions.push((base + e.j as usize) as u32)
        });
        if stats.emitted > 0 {
            leaves.cycles += stats.cycles;
            leaves.empty_window_cycles += stats.empty_window_cycles;
            leaves.emitted += stats.emitted;
        }
    });
    let total = ScanStats {
        cycles: root.cycles + leaves.cycles,
        empty_window_cycles: root.empty_window_cycles + leaves.empty_window_cycles,
        emitted: leaves.emitted,
    };
    (positions, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(len: usize, idx: &[u32]) -> BitVec {
        BitVec::from_indices(len, idx).unwrap()
    }

    #[test]
    fn paper_figure2_example() {
        // A Idx: 11010011, B Idx: 10011110 (bit 0 = leftmost in figure).
        let a = BitVec::from_bools(&[true, true, false, true, false, false, true, true]);
        let b = BitVec::from_bools(&[true, false, false, true, true, true, true, false]);
        let scanner = BitVecScanner::default();
        let (out, _) = scanner.scan(ScanMode::Intersect, &a, Some(&b));
        // Intersection = positions {0, 3, 6}.
        let js: Vec<u32> = out.iter().map(|e| e.j).collect();
        assert_eq!(js, vec![0, 3, 6]);
        // Paper caption: (j, j', jA, jB) = (0,0,0,0), (3,1,2,1), (6,2,4,4).
        // The third tuple's jA is a typo in the paper: A = 11010011 has
        // exactly three set bits before position 6 ({0,1,3}), so the
        // compressed index must be 3 (jB = 4 is correct: B = 10011110 has
        // {0,3,4,5} before position 6).
        let tuples: Vec<(u32, u32, i32, i32)> =
            out.iter().map(|e| (e.j, e.jprime, e.ja, e.jb)).collect();
        assert_eq!(tuples, vec![(0, 0, 0, 0), (3, 1, 2, 1), (6, 2, 3, 4)]);
    }

    #[test]
    fn union_mode_reports_misses() {
        let a = bv(8, &[1, 3]);
        let b = bv(8, &[3, 5]);
        let scanner = BitVecScanner::default();
        let (out, _) = scanner.scan(ScanMode::Union, &a, Some(&b));
        let js: Vec<u32> = out.iter().map(|e| e.j).collect();
        assert_eq!(js, vec![1, 3, 5]);
        assert_eq!(out[0].ja, 0);
        assert_eq!(out[0].jb, -1); // b misses position 1
        assert_eq!(out[2].ja, -1); // a misses position 5
        assert_eq!(out[2].jb, 1);
    }

    #[test]
    fn scan_matches_naive_reference() {
        let a = bv(1000, &[0, 5, 17, 255, 256, 257, 600, 999]);
        let b = bv(1000, &[5, 255, 257, 601, 999]);
        let scanner = BitVecScanner::default();
        let (out, _) = scanner.scan(ScanMode::Intersect, &a, Some(&b));
        let expect: Vec<u32> = a.intersect(&b).to_indices();
        assert_eq!(out.iter().map(|e| e.j).collect::<Vec<_>>(), expect);
        // jA/jB are ranks.
        for e in &out {
            assert_eq!(e.ja as usize, a.rank(e.j as usize));
            assert_eq!(e.jb as usize, b.rank(e.j as usize));
        }
    }

    #[test]
    fn cycle_model_dense_window() {
        // 256 set bits in one 256-bit window at 16 outputs/cycle = 16 cycles.
        let all = BitVec::from_bools(&vec![true; 256]);
        let scanner = BitVecScanner::default();
        let (_, stats) = scanner.scan(ScanMode::Intersect, &all, None);
        assert_eq!(stats.cycles, 16);
        assert_eq!(stats.emitted, 256);
        assert_eq!(stats.empty_window_cycles, 0);
    }

    #[test]
    fn cycle_model_empty_windows() {
        // 1024 zero bits at 256-bit windows = 4 empty-window cycles.
        let empty = BitVec::zeros(1024);
        let scanner = BitVecScanner::default();
        let (_, stats) = scanner.scan(ScanMode::Union, &empty, None);
        assert_eq!(stats.cycles, 4);
        assert_eq!(stats.empty_window_cycles, 4);
    }

    #[test]
    fn narrow_scanner_is_slower() {
        let sparse = bv(4096, &(0..64u32).map(|i| i * 64).collect::<Vec<_>>());
        let wide = BitVecScanner::new(256, 16);
        let narrow = BitVecScanner::new(16, 16);
        let scalar = BitVecScanner::new(1, 1);
        let w = wide.scan_cycles(ScanMode::Union, &sparse, None).cycles;
        let n = narrow.scan_cycles(ScanMode::Union, &sparse, None).cycles;
        let s = scalar.scan_cycles(ScanMode::Union, &sparse, None).cycles;
        assert!(w < n && n < s, "w={w} n={n} s={s}");
        // Scalar (1-bit) scanning degenerates to one cycle per bit.
        assert_eq!(s, 4096);
    }

    #[test]
    fn scan_cycles_agrees_with_scan() {
        let a = bv(2048, &[1, 100, 300, 301, 302, 1999]);
        let b = bv(2048, &[1, 300, 302, 1998]);
        let scanner = BitVecScanner::new(128, 4);
        let (out, s1) = scanner.scan(ScanMode::Union, &a, Some(&b));
        let s2 = scanner.scan_cycles(ScanMode::Union, &a, Some(&b));
        assert_eq!(s1, s2);
        assert_eq!(out.len() as u64, s2.emitted);
    }

    #[test]
    fn data_scanner_throughput_limits() {
        let ds = DataScanner::default();
        // Dense data: emission-bound (1/cycle).
        let dense: Vec<Value> = (1..=64).map(|i| i as Value).collect();
        let (nz, stats) = ds.scan(&dense);
        assert_eq!(nz.len(), 64);
        assert_eq!(stats.cycles, 64);
        // Sparse data: examine-bound (16/cycle).
        let mut sparse = vec![0.0; 64];
        sparse[10] = 5.0;
        let (nz, stats) = ds.scan(&sparse);
        assert_eq!(nz, vec![(10, 5.0)]);
        assert_eq!(stats.cycles, 4);
    }

    #[test]
    fn bittree_scan_matches_flat() {
        let a = BitTree::from_indices(4096, &[1, 513, 514, 4000]).unwrap();
        let b = BitTree::from_indices(4096, &[513, 1025, 4000]).unwrap();
        let scanner = BitVecScanner::default();
        let (union_pos, ustats) = scan_bittree(&scanner, ScanMode::Union, &a, &b);
        assert_eq!(union_pos, a.to_bitvec().union(&b.to_bitvec()).to_indices());
        assert!(ustats.cycles > 0);
        let (int_pos, _) = scan_bittree(&scanner, ScanMode::Intersect, &a, &b);
        assert_eq!(int_pos, vec![513, 4000]);
    }

    #[test]
    fn bittree_skips_empty_chunks() {
        // Everything clustered in one chunk: the second pass should only
        // pay for that chunk, not the whole logical space.
        let a = BitTree::from_indices(262_144, &(0..100u32).collect::<Vec<_>>()).unwrap();
        let b = BitTree::from_indices(262_144, &(50..150u32).collect::<Vec<_>>()).unwrap();
        let scanner = BitVecScanner::default();
        let (_, stats) = scan_bittree(&scanner, ScanMode::Intersect, &a, &b);
        // Root: 512 bits = 2 windows; one occupied 512-bit chunk = 2 windows.
        assert!(
            stats.cycles < 30,
            "paid {} cycles for a clustered tree",
            stats.cycles
        );
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn rejects_mismatched_inputs() {
        let scanner = BitVecScanner::default();
        let _ = scanner.scan(ScanMode::Union, &bv(8, &[1]), Some(&bv(9, &[2])));
    }
}
