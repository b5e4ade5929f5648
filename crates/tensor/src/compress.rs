//! Read-only base/offset DRAM burst compression.
//!
//! Paper §3.4 ("Compressed Dense DRAM"): "Capstan uses a packet-based
//! memory compression format, with each burst encoded using a base/offset
//! format; a one-byte header specifies the base and offset sizes. Unlike
//! GPUs ... Capstan requires pre-compression and restricts compressed loads
//! to tile boundaries."
//!
//! Each 64-byte burst holds sixteen 32-bit words. The compressor stores the
//! minimum word of the burst as a base (1/2/4 bytes as needed) and each
//! element as an offset from the base (0/1/2/4 bytes as needed), prefixed by
//! a one-byte header encoding both sizes. Pointer tiles — e.g. the repeated
//! source-node ids of COO / PR-Edge — compress extremely well because
//! consecutive pointers are closely spaced, which is exactly why those two
//! applications "see the best compression speedups" (paper Fig. 5c).

/// Words per 64-byte DRAM burst (paper §3.4 / §4.1).
const BURST_WORDS: usize = 16;

/// Bytes per DRAM burst.
const BURST_BYTES: usize = 64;

/// A compressed burst: one-byte header, base, then packed offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CompressedBurst {
    /// Size in bytes of the base field (1, 2, or 4).
    base_bytes: u8,
    /// Size in bytes of each offset field (0, 1, 2, or 4).
    offset_bytes: u8,
    /// The base value (minimum of the burst).
    base: u32,
    /// Offsets from the base, one per word.
    offsets: Vec<u32>,
}

impl CompressedBurst {
    /// Total encoded size in bytes, including the one-byte header.
    fn encoded_bytes(&self) -> usize {
        1 + self.base_bytes as usize + self.offset_bytes as usize * self.offsets.len()
    }

    /// Decompresses back to the original words.
    fn decode(&self) -> Vec<u32> {
        self.offsets
            .iter()
            .map(|o| self.base.wrapping_add(*o))
            .collect()
    }
}

fn bytes_needed(v: u32) -> u8 {
    if v == 0 {
        0
    } else if v <= 0xFF {
        1
    } else if v <= 0xFFFF {
        2
    } else {
        4
    }
}

/// Compresses one burst (up to [`BURST_WORDS`] words) with base/offset
/// encoding.
///
/// # Panics
///
/// Panics if `words` is empty or longer than [`BURST_WORDS`].
fn compress_burst(words: &[u32]) -> CompressedBurst {
    assert!(
        !words.is_empty() && words.len() <= BURST_WORDS,
        "burst must hold 1..=16 words"
    );
    let base = *words.iter().min().unwrap();
    let offsets: Vec<u32> = words.iter().map(|w| w - base).collect();
    let max_offset = *offsets.iter().max().unwrap();
    let base_bytes = bytes_needed(base).max(1);
    let offset_bytes = bytes_needed(max_offset);
    CompressedBurst {
        base_bytes,
        offset_bytes,
        base,
        offsets,
    }
}

/// A pre-compressed read-only DRAM tile (a sequence of compressed bursts).
///
/// # Example
///
/// ```
/// use capstan_tensor::compress::CompressedTile;
///
/// // Closely-spaced pointers (typical for COO row ids) compress well.
/// let ptrs: Vec<u32> = (0..64u32).map(|i| 1_000_000 + i / 4).collect();
/// let tile = CompressedTile::compress(&ptrs);
/// assert!(tile.compression_ratio() > 3.0);
/// assert_eq!(tile.decode(), ptrs);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedTile {
    bursts: Vec<CompressedBurst>,
    original_words: usize,
}

impl CompressedTile {
    /// Compresses a word array burst-by-burst.
    pub fn compress(words: &[u32]) -> Self {
        let bursts = words.chunks(BURST_WORDS).map(compress_burst).collect();
        CompressedTile {
            bursts,
            original_words: words.len(),
        }
    }

    /// Decompresses the whole tile.
    pub fn decode(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.original_words);
        for b in &self.bursts {
            out.extend(b.decode());
        }
        out
    }

    /// Uncompressed size in bytes.
    pub fn original_bytes(&self) -> usize {
        self.original_words * 4
    }

    /// Encoded size in bytes. DRAM still transfers whole bursts, so the
    /// effective traffic is `encoded_bytes` rounded up to burst granularity
    /// per contiguous tile.
    pub fn encoded_bytes(&self) -> usize {
        self.bursts.iter().map(CompressedBurst::encoded_bytes).sum()
    }

    /// DRAM traffic in bytes after rounding the encoded stream up to whole
    /// bursts (loads are restricted to tile boundaries, §3.4).
    pub fn traffic_bytes(&self) -> usize {
        self.encoded_bytes().div_ceil(BURST_BYTES) * BURST_BYTES
    }

    /// Ratio of original to encoded size (higher is better).
    pub fn compression_ratio(&self) -> f64 {
        self.original_bytes() as f64 / self.encoded_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_words_compress_maximally() {
        let words = vec![42u32; 16];
        let b = compress_burst(&words);
        assert_eq!(b.offset_bytes, 0);
        // 1 header + 1 base byte.
        assert_eq!(b.encoded_bytes(), 2);
        assert_eq!(b.decode(), words);
    }

    #[test]
    fn small_offsets_use_one_byte() {
        let words: Vec<u32> = (0..16).map(|i| 70_000 + i).collect();
        let b = compress_burst(&words);
        assert_eq!(b.base_bytes, 4); // 70,000 needs 4 bytes
        assert_eq!(b.offset_bytes, 1);
        assert_eq!(b.encoded_bytes(), 1 + 4 + 16);
        assert_eq!(b.decode(), words);
    }

    #[test]
    fn incompressible_data_does_not_corrupt() {
        let words: Vec<u32> = (0..16u32).map(|i| i.wrapping_mul(0x0FFF_FFFF)).collect();
        let b = compress_burst(&words);
        assert_eq!(b.decode(), words);
        // Worst case: header + base + 16 * 4-byte offsets > 64B. The tile
        // accounts for this via traffic rounding; correctness holds.
        assert!(b.encoded_bytes() >= 64);
    }

    #[test]
    fn tile_round_trip_and_ratio() {
        let ptrs: Vec<u32> = (0..256u32).map(|i| 5_000 + i / 8).collect();
        let tile = CompressedTile::compress(&ptrs);
        assert_eq!(tile.decode(), ptrs);
        assert!(tile.compression_ratio() > 2.0);
        assert_eq!(tile.traffic_bytes() % BURST_BYTES, 0);
        assert!(tile.traffic_bytes() <= tile.original_bytes());
    }

    #[test]
    fn partial_trailing_burst() {
        let words: Vec<u32> = (0..21).collect();
        let tile = CompressedTile::compress(&words);
        assert_eq!(tile.bursts.len(), 2);
        assert_eq!(tile.decode(), words);
    }

    #[test]
    #[should_panic(expected = "burst must hold")]
    fn oversized_burst_panics() {
        compress_burst(&[0u32; 17]);
    }
}
