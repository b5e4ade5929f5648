//! Canonical encoding, FNV-1a-64, and atomic writes (std-only).
//!
//! Three small primitives the harness and the service share:
//!
//! * [`SnapshotWriter`] — a little-endian canonical encoding of
//!   primitive values (floats by bit pattern, lengths as `u64`), so a
//!   hash over it is invariant under float spelling and pointer width.
//!   `Suite::fingerprint` and the serve cache key encode with it.
//! * [`fnv1a_64`] — the hash those fingerprints and keys use.
//! * [`atomic_write`] — temp-file + rename, so a crash mid-write can
//!   never leave a truncated journal entry or bench record behind.

use std::io::Write as _;
use std::path::Path;

/// FNV-1a 64-bit hash — the fingerprint and cache-key primitive. Not
/// cryptographic: it addresses deterministic results, it does not
/// guard against an adversary.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Appends primitive values to a growing canonical encoding.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty encoding.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the encoding is portable across
    /// pointer widths).
    pub fn write_len(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes an `f64` by bit pattern (exact round trip, NaNs included).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

/// Writes `bytes` to `path` atomically: the content goes to a sibling
/// temp file (synced to disk), which is then renamed over `path`. A
/// crash mid-write leaves either the old file or the new one — never a
/// truncated hybrid. Used for journal entries and manifests and for
/// every `BENCH_*.json` the experiment harness writes.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "atomic_write target has no file name",
            )
        })?
        .to_os_string();
    file_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(file_name);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_the_whole_file() {
        let dir = std::env::temp_dir().join(format!("capstan-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        atomic_write(&path, b"first version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp residue.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "state.bin")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
