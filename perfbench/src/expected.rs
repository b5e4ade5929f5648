//! The seed-0 output check: report digests and simulated-cycle deltas
//! stored with the benchmark in `perfbench/expected.txt`, and the
//! repository's committed `BENCH_core.json` (read only).
//!
//! Every seed-0 run also writes what it observed, in the same format,
//! to `perfbench/out/observed-<workload>.txt`; after a deliberate change
//! to a report, that file is the new table.

use std::collections::BTreeMap;
use std::path::Path;

/// Stored `(digest, simulated cycles)` per `(workload, item)`.
#[derive(Debug, Default)]
pub struct Expected {
    rows: BTreeMap<(String, String), (u64, u64)>,
}

impl Expected {
    /// Parses lines `<workload> <item> <digest-hex> <cycles>`; `#` starts
    /// a comment.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = match f.as_slice() {
                [w, item, d, c] => u64::from_str_radix(d, 16)
                    .ok()
                    .zip(c.parse::<u64>().ok())
                    .map(|v| ((w.to_string(), item.to_string()), v)),
                _ => None,
            };
            let (key, value) =
                parsed.ok_or_else(|| format!("{}:{}: malformed line", path.display(), n + 1))?;
            rows.insert(key, value);
        }
        Ok(Expected { rows })
    }

    /// Compares one observation; `Err` explains a mismatch or a missing
    /// row.
    pub fn check(
        &self,
        workload: &str,
        item: &str,
        digest: u64,
        cycles: u64,
    ) -> Result<(), String> {
        match self.rows.get(&(workload.to_string(), item.to_string())) {
            None => Err(format!("{workload}/{item}: no stored expectation")),
            Some(&(d, c)) if d == digest && c == cycles => Ok(()),
            Some(&(d, c)) => Err(format!(
                "{workload}/{item}: digest {digest:016x} cycles {cycles}, expected {d:016x} cycles {c}"
            )),
        }
    }
}

/// Formats one observation as an `expected.txt` line.
pub fn line(workload: &str, item: &str, digest: u64, cycles: u64) -> String {
    format!("{workload} {item} {digest:016x} {cycles}\n")
}

/// The unsuffixed (analytic, single-channel) rows of `BENCH_core.json`:
/// experiment name to simulated cycles.
pub fn bench_core_rows(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let record = capstan_bench::gate::parse_record(&text)
        .map_err(|e| format!("malformed {}: {e}", path.display()))?;
    Ok(record
        .experiments
        .into_iter()
        .filter(|r| !r.name.contains('+'))
        .map(|r| (r.name, r.simulated_cycles))
        .collect())
}
