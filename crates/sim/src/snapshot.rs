//! FNV-1a-64 and atomic writes (std-only).
//!
//! Two small primitives the harness and the benchmark share:
//!
//! * [`fnv1a_64`] — a fast non-cryptographic digest of report text.
//! * [`atomic_write`] — temp-file + rename, so a crash mid-write can
//!   never leave a truncated journal entry or bench record behind.

use std::io::Write as _;
use std::path::Path;

/// FNV-1a 64-bit hash. Not cryptographic: it digests deterministic
/// report text, it does not guard against an adversary.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
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
