//! The CI perf-regression gate.
//!
//! Compares a freshly generated `BENCH_core.json` against the committed
//! baseline and fails when performance regresses:
//!
//! * **Schema / scale** must match exactly — a record produced by a
//!   different writer or at a different experiment scale is not
//!   comparable.
//! * **`simulated_cycles`** must match exactly per experiment. Simulated
//!   cycles are machine-independent, so a mismatch means the simulator's
//!   behavior changed; intentional model changes must regenerate the
//!   committed baseline in the same PR.
//! * **`cycles_per_second`** (simulated cycles per wall second — the
//!   throughput metric every perf PR quotes) may not drop more than the
//!   tolerance below the baseline. The default is 15%; CI machines differ
//!   from the machine that produced the baseline, so the tolerance is
//!   env-overridable via `BENCH_GATE_TOLERANCE` (a fraction, e.g. `0.5`).
//!
//! Experiments present in the baseline but absent from the fresh record
//! are ignored (subset smoke runs are fine); a fresh experiment missing
//! from the baseline is an error, because it would otherwise never be
//! gated.
//!
//! The record format is the tiny fixed schema [`write_record`] writes
//! (for the `experiments` binary), so parsing is a few string scans — no
//! JSON dependency (this workspace builds fully offline).

use std::fmt;
use std::fmt::Write as _;

/// Schema tag written and required by every bench record.
pub const SCHEMA: &str = "capstan-bench-core/v1";

/// One experiment row of a `capstan-bench-core/v1` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Experiment name (`table4`, `fig5a`, ...).
    pub name: String,
    /// Wall-clock seconds for the experiment.
    pub wall_seconds: f64,
    /// Machine-independent simulated cycles.
    pub simulated_cycles: u64,
    /// Simulated cycles per wall second (the gated throughput metric).
    pub cycles_per_second: f64,
}

impl BenchEntry {
    /// A row for `name` from its wall time and simulated cycles, with
    /// the throughput computed here (zero for a wall time of zero).
    pub fn new(name: String, wall_seconds: f64, simulated_cycles: u64) -> BenchEntry {
        BenchEntry {
            name,
            wall_seconds,
            simulated_cycles,
            cycles_per_second: if wall_seconds > 0.0 {
                simulated_cycles as f64 / wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// A parsed `BENCH_core.json` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Schema tag (`capstan-bench-core/v1`).
    pub schema: String,
    /// Experiment scale the record was generated at.
    pub scale: String,
    /// Experiment rows.
    pub experiments: Vec<BenchEntry>,
}

/// Why the gate failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The record text did not parse as a bench record.
    Malformed(String),
    /// Baseline and fresh schemas differ.
    SchemaMismatch {
        /// Schema of the committed baseline.
        baseline: String,
        /// Schema of the fresh record.
        fresh: String,
    },
    /// Baseline and fresh scales differ (cycle counts not comparable).
    ScaleMismatch {
        /// Scale of the committed baseline.
        baseline: String,
        /// Scale of the fresh record.
        fresh: String,
    },
    /// A fresh experiment has no baseline row to gate against.
    MissingExperiment(String),
    /// Two rows of one record share a name. Name-keyed lookups
    /// (`compare`'s baseline match, `merge`'s replacement rule) take
    /// the first hit, so a duplicate silently shadows its twin — the
    /// record is rejected instead.
    DuplicateRow(String),
    /// Simulated cycles diverged: the simulator's behavior changed
    /// without the baseline being regenerated.
    CyclesDiverged {
        /// Experiment name.
        name: String,
        /// Baseline simulated cycles.
        baseline: u64,
        /// Fresh simulated cycles.
        fresh: u64,
    },
    /// Throughput regressed beyond the tolerance.
    Regression {
        /// Experiment name.
        name: String,
        /// Baseline cycles/sec.
        baseline: f64,
        /// Fresh cycles/sec.
        fresh: f64,
        /// Tolerance the comparison ran with.
        tolerance: f64,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Malformed(what) => write!(f, "malformed bench record: {what}"),
            GateError::SchemaMismatch { baseline, fresh } => {
                write!(f, "schema mismatch: baseline `{baseline}` vs fresh `{fresh}`")
            }
            GateError::ScaleMismatch { baseline, fresh } => {
                write!(f, "scale mismatch: baseline `{baseline}` vs fresh `{fresh}`")
            }
            GateError::MissingExperiment(name) => {
                write!(f, "experiment `{name}` has no baseline row; regenerate the committed BENCH_core.json")
            }
            GateError::DuplicateRow(name) => write!(
                f,
                "experiment `{name}` appears more than once in the record; \
                 name-keyed matching would silently shadow one row"
            ),
            GateError::CyclesDiverged {
                name,
                baseline,
                fresh,
            } => write!(
                f,
                "experiment `{name}` simulated {fresh} cycles vs baseline {baseline}: simulator behavior changed — regenerate the committed BENCH_core.json in this PR"
            ),
            GateError::Regression {
                name,
                baseline,
                fresh,
                tolerance,
            } => write!(
                f,
                "experiment `{name}` regressed: {fresh:.1} cycles/sec vs baseline {baseline:.1} (allowed drop {:.0}%)",
                tolerance * 100.0
            ),
        }
    }
}

/// Writes the fixed `capstan-bench-core/v1` record format that
/// [`parse_record`] reads: the schema, the scale, the worker-thread
/// count of this process, one row per entry, and the wall-time and
/// simulated-cycle totals.
pub fn write_record(scale: &str, records: &[BenchEntry]) -> String {
    let mut json = String::new();
    let total_wall: f64 = records.iter().map(|r| r.wall_seconds).sum();
    let total_cycles: u64 = records.iter().map(|r| r.simulated_cycles).sum();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(
        json,
        "  \"threads\": {},",
        capstan_par::thread_count(usize::MAX)
    );
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"wall_seconds\": {:.6}, \"simulated_cycles\": {}, \"cycles_per_second\": {:.1}}}{}",
            r.name,
            r.wall_seconds,
            r.simulated_cycles,
            r.cycles_per_second,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_wall_seconds\": {total_wall:.6},");
    let _ = writeln!(json, "  \"total_simulated_cycles\": {total_cycles}");
    let _ = writeln!(json, "}}");
    json
}

/// Extracts the string value of `"key": "value"`.
fn string_field(text: &str, key: &str) -> Result<String, GateError> {
    let needle = format!("\"{key}\": \"");
    let start = text
        .find(&needle)
        .ok_or_else(|| GateError::Malformed(format!("missing `{key}`")))?
        + needle.len();
    let end = text[start..]
        .find('"')
        .ok_or_else(|| GateError::Malformed(format!("unterminated `{key}`")))?;
    Ok(text[start..start + end].to_string())
}

/// Extracts the numeric value following `"key": ` in `text`.
fn number_field(text: &str, key: &str) -> Result<f64, GateError> {
    let needle = format!("\"{key}\": ");
    let start = text
        .find(&needle)
        .ok_or_else(|| GateError::Malformed(format!("missing `{key}`")))?
        + needle.len();
    let end = text[start..]
        .find([',', '}', '\n'])
        .unwrap_or(text.len() - start);
    text[start..start + end]
        .trim()
        .parse::<f64>()
        .map_err(|e| GateError::Malformed(format!("bad `{key}`: {e}")))
}

/// Extracts a record's top-level `"threads"` field — the worker-thread
/// count it was captured under. Tolerant (`None` when absent or
/// malformed): the thread count never affects simulated cycles, only
/// wall-clock throughput, so it informs a `bench-gate` *warning* when
/// baseline and fresh records disagree, never a failure.
pub fn threads_field(text: &str) -> Option<u64> {
    number_field(text, "threads").ok().map(|n| n as u64)
}

/// Parses the fixed `capstan-bench-core/v1` record format.
///
/// Rows are parsed line by line, so the parse also verifies the
/// record's *integrity*: the trailing `total_simulated_cycles` field —
/// which the writer emits after every row, as the sum of the rows —
/// must be present and must equal the sum of the parsed rows. A file
/// truncated mid-write (killed process, full disk) loses the trailer
/// or some rows and fails loudly here; before this check a partial
/// file with a few surviving rows parsed "successfully" and silently
/// gated against an incomplete baseline.
pub fn parse_record(text: &str) -> Result<BenchRecord, GateError> {
    let schema = string_field(text, "schema")?;
    let scale = string_field(text, "scale")?;
    let mut experiments = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\":") {
            continue;
        }
        experiments.push(BenchEntry {
            name: string_field(line, "name")?,
            wall_seconds: number_field(line, "wall_seconds")?,
            simulated_cycles: number_field(line, "simulated_cycles")? as u64,
            cycles_per_second: number_field(line, "cycles_per_second")?,
        });
    }
    if experiments.is_empty() {
        return Err(GateError::Malformed("no experiment rows".to_string()));
    }
    let declared = number_field(text, "total_simulated_cycles").map_err(|_| {
        GateError::Malformed(
            "missing `total_simulated_cycles` trailer — the record is truncated".to_string(),
        )
    })? as u64;
    let summed: u64 = experiments.iter().map(|e| e.simulated_cycles).sum();
    if declared != summed {
        return Err(GateError::Malformed(format!(
            "total_simulated_cycles is {declared} but the {} rows sum to {summed} — \
             the record is truncated or corrupt",
            experiments.len()
        )));
    }
    check_unique_names(&experiments)?;
    Ok(BenchRecord {
        schema,
        scale,
        experiments,
    })
}

/// Rejects records in which two rows share a name. Everything
/// downstream matches rows by name (`compare` against the baseline,
/// [`merge`]'s replacement rule), and a name-keyed `find` silently takes
/// the first hit — so a hand-edited or double-merged record with a
/// duplicated row used to shadow one of its twins without any error.
fn check_unique_names(rows: &[BenchEntry]) -> Result<(), GateError> {
    let mut seen = std::collections::HashSet::new();
    for row in rows {
        if !seen.insert(row.name.as_str()) {
            return Err(GateError::DuplicateRow(row.name.clone()));
        }
    }
    Ok(())
}

/// Merges `fresh` rows over `base` — the `--bench-base` composition
/// that lets one record file carry several record groups (the analytic
/// full suite plus the `+cycle`, `+ch4`, and `+rec` smoke groups). Base
/// rows are kept unless `fresh` carries a row of the same name, which
/// replaces them; fresh-only rows are appended in their run order.
///
/// The merge is loud about metadata conflicts where it used to be
/// silent: the two records must agree on schema and scale (rows
/// generated at different scales are not comparable, and a suffix group
/// merged into the wrong baseline would corrupt the gate forever), and
/// neither side may contain two rows with the same name — a duplicate
/// would silently shadow its twin in every later name-keyed lookup.
pub fn merge(base: &BenchRecord, fresh: &BenchRecord) -> Result<BenchRecord, GateError> {
    if base.schema != fresh.schema {
        return Err(GateError::SchemaMismatch {
            baseline: base.schema.clone(),
            fresh: fresh.schema.clone(),
        });
    }
    if base.scale != fresh.scale {
        return Err(GateError::ScaleMismatch {
            baseline: base.scale.clone(),
            fresh: fresh.scale.clone(),
        });
    }
    check_unique_names(&base.experiments)?;
    check_unique_names(&fresh.experiments)?;
    let mut experiments: Vec<BenchEntry> = base
        .experiments
        .iter()
        .filter(|b| fresh.experiments.iter().all(|f| f.name != b.name))
        .cloned()
        .collect();
    experiments.extend(fresh.experiments.iter().cloned());
    Ok(BenchRecord {
        schema: fresh.schema.clone(),
        scale: fresh.scale.clone(),
        experiments,
    })
}

/// Parses a `BENCH_GATE_TOLERANCE`-style override. `None` yields the
/// default 15%; a present but unparsable or out-of-range value is an
/// error, so a typo'd override fails loudly instead of silently running
/// at a different tolerance than intended.
///
/// NaN, infinities, negatives, and values ≥ 1 are rejected — now
/// explicitly and regression-tested, where before the rejection was an
/// implicit (and easily refactored-away) side effect of
/// `Range::contains`'s comparison semantics. The stakes: Rust's
/// `"NaN".parse::<f64>()` *succeeds*, and a NaN tolerance reaching
/// [`compare`] would poison its `<` regression check (every comparison
/// against NaN is false), silently disabling the perf gate while
/// appearing to run — so `compare` now asserts the invariant too.
pub fn tolerance_from(env: Option<&str>) -> Result<f64, String> {
    let Some(raw) = env else { return Ok(0.15) };
    raw.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0 && *t < 1.0)
        .ok_or_else(|| {
            format!(
                "invalid BENCH_GATE_TOLERANCE `{raw}`: expected a fraction in [0, 1), e.g. `0.5` for 50%"
            )
        })
}

/// Gates `fresh` against `baseline`, returning every violation (empty
/// means the gate passes). `tolerance` is the allowed fractional drop in
/// cycles/sec.
///
/// # Panics
///
/// Panics if `tolerance` is not a finite fraction in `[0, 1)` — a NaN
/// tolerance would make every `<` regression check silently false,
/// turning the gate into a no-op that still reports success.
pub fn compare(baseline: &BenchRecord, fresh: &BenchRecord, tolerance: f64) -> Vec<GateError> {
    assert!(
        tolerance.is_finite() && (0.0..1.0).contains(&tolerance),
        "gate tolerance must be a finite fraction in [0, 1), got {tolerance}"
    );
    if baseline.schema != fresh.schema {
        return vec![GateError::SchemaMismatch {
            baseline: baseline.schema.clone(),
            fresh: fresh.schema.clone(),
        }];
    }
    if baseline.scale != fresh.scale {
        return vec![GateError::ScaleMismatch {
            baseline: baseline.scale.clone(),
            fresh: fresh.scale.clone(),
        }];
    }
    let mut errors = Vec::new();
    for entry in &fresh.experiments {
        let Some(base) = baseline.experiments.iter().find(|b| b.name == entry.name) else {
            errors.push(GateError::MissingExperiment(entry.name.clone()));
            continue;
        };
        if base.simulated_cycles != entry.simulated_cycles {
            errors.push(GateError::CyclesDiverged {
                name: entry.name.clone(),
                baseline: base.simulated_cycles,
                fresh: entry.simulated_cycles,
            });
            continue;
        }
        // Zero-throughput rows (instant experiments) carry no signal.
        if base.cycles_per_second <= 0.0 {
            continue;
        }
        if entry.cycles_per_second < base.cycles_per_second * (1.0 - tolerance) {
            errors.push(GateError::Regression {
                name: entry.name.clone(),
                baseline: base.cycles_per_second,
                fresh: entry.cycles_per_second,
                tolerance,
            });
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scale: &str, rows: &[(&str, u64, f64)]) -> BenchRecord {
        BenchRecord {
            schema: "capstan-bench-core/v1".to_string(),
            scale: scale.to_string(),
            experiments: rows
                .iter()
                .map(|&(name, cycles, cps)| BenchEntry {
                    name: name.to_string(),
                    wall_seconds: if cps > 0.0 { cycles as f64 / cps } else { 0.0 },
                    simulated_cycles: cycles,
                    cycles_per_second: cps,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_experiments_writer_format() {
        let text = r#"{
  "schema": "capstan-bench-core/v1",
  "scale": "small",
  "threads": 4,
  "experiments": [
    {"name": "table4", "wall_seconds": 0.311957, "simulated_cycles": 90000, "cycles_per_second": 288500.9},
    {"name": "fig4", "wall_seconds": 0.032404, "simulated_cycles": 22688, "cycles_per_second": 700170.0}
  ],
  "total_wall_seconds": 0.344361,
  "total_simulated_cycles": 112688
}
"#;
        assert_eq!(threads_field(text), Some(4));
        let no_threads = r#"{
  "schema": "capstan-bench-core/v1",
  "scale": "small",
  "experiments": [
    {"name": "table4", "wall_seconds": 0.311957, "simulated_cycles": 90000, "cycles_per_second": 288500.9},
    {"name": "fig4", "wall_seconds": 0.032404, "simulated_cycles": 22688, "cycles_per_second": 700170.0}
  ],
  "total_wall_seconds": 0.344361,
  "total_simulated_cycles": 112688
}
"#;
        // Records predating the threads field stay parseable; the
        // missing count is tolerated, never an error.
        assert_eq!(threads_field(no_threads), None);
        assert!(parse_record(no_threads).is_ok());
        let r = parse_record(text).unwrap();
        assert_eq!(r.schema, "capstan-bench-core/v1");
        assert_eq!(r.scale, "small");
        assert_eq!(r.experiments.len(), 2);
        assert_eq!(r.experiments[0].name, "table4");
        assert_eq!(r.experiments[0].simulated_cycles, 90000);
        assert_eq!(r.experiments[1].cycles_per_second, 700170.0);
    }

    #[test]
    fn written_records_parse_back_and_carry_the_cycle_trailer() {
        let rows = vec![
            BenchEntry::new("table4".to_string(), 0.5, 90_000),
            BenchEntry::new("fig4+cycle".to_string(), 0.25, 22_688),
        ];
        let text = write_record("small", &rows);
        assert!(
            text.contains("\"total_simulated_cycles\": 112688\n"),
            "{text}"
        );
        let parsed = parse_record(&text).expect("a written record parses");
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.scale, "small");
        assert_eq!(parsed.experiments, rows);
        // The trailer is checked against the rows, so a written record
        // that loses it or disagrees with it no longer parses.
        let bad = text.replace("112688", "112689");
        assert!(matches!(parse_record(&bad), Err(GateError::Malformed(_))));
        let cut = &text[..text.find("  \"total_simulated_cycles\"").unwrap()];
        assert!(matches!(parse_record(cut), Err(GateError::Malformed(_))));
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(matches!(parse_record("{}"), Err(GateError::Malformed(_))));
        assert!(matches!(
            parse_record("{\"schema\": \"capstan-bench-core/v1\", \"scale\": \"small\"}"),
            Err(GateError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_records_are_rejected_not_silently_partial() {
        let full = r#"{
  "schema": "capstan-bench-core/v1",
  "scale": "small",
  "threads": 4,
  "experiments": [
    {"name": "table4", "wall_seconds": 0.3, "simulated_cycles": 90000, "cycles_per_second": 288500.9},
    {"name": "fig4", "wall_seconds": 0.03, "simulated_cycles": 22688, "cycles_per_second": 700170.0}
  ],
  "total_wall_seconds": 0.33,
  "total_simulated_cycles": 112688
}
"#;
        assert!(parse_record(full).is_ok());
        // Killed mid-write: the trailer never made it to disk. The rows
        // that did survive must NOT parse as a valid (smaller) baseline.
        let cut = full.find("  \"total_wall_seconds\"").unwrap();
        let err = parse_record(&full[..cut]).unwrap_err();
        assert!(
            matches!(&err, GateError::Malformed(m) if m.contains("truncated")),
            "{err}"
        );
        // Truncated earlier, losing a row but (hypothetically) keeping a
        // stale trailer: the sum check catches it.
        let one_row_gone = full.replace(
            "    {\"name\": \"fig4\", \"wall_seconds\": 0.03, \"simulated_cycles\": 22688, \"cycles_per_second\": 700170.0}\n",
            "",
        );
        let err = parse_record(&one_row_gone).unwrap_err();
        assert!(
            matches!(&err, GateError::Malformed(m) if m.contains("sum")),
            "{err}"
        );
        // And a plainly corrupt (non-numeric) trailer is malformed too.
        let bad_trailer = full.replace("112688", "bogus");
        assert!(parse_record(&bad_trailer).is_err());
    }

    #[test]
    fn schema_mismatch_fails() {
        let mut fresh = record("small", &[("table4", 100, 1000.0)]);
        fresh.schema = "capstan-bench-core/v2".to_string();
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let errs = compare(&baseline, &fresh, 0.15);
        assert!(matches!(
            errs.as_slice(),
            [GateError::SchemaMismatch { .. }]
        ));
    }

    #[test]
    fn scale_mismatch_fails() {
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("medium", &[("table4", 100, 1000.0)]);
        let errs = compare(&baseline, &fresh, 0.15);
        assert!(matches!(errs.as_slice(), [GateError::ScaleMismatch { .. }]));
    }

    #[test]
    fn missing_experiment_fails() {
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("small", &[("brand_new", 100, 1000.0)]);
        let errs = compare(&baseline, &fresh, 0.15);
        assert!(
            matches!(errs.as_slice(), [GateError::MissingExperiment(name)] if name == "brand_new")
        );
    }

    #[test]
    fn baseline_only_experiments_are_ignored() {
        // Subset smoke runs gate only what they ran.
        let baseline = record("small", &[("table4", 100, 1000.0), ("fig4", 50, 2000.0)]);
        let fresh = record("small", &[("table4", 100, 1000.0)]);
        assert!(compare(&baseline, &fresh, 0.15).is_empty());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("small", &[("table4", 100, 860.0)]); // -14%
        assert!(compare(&baseline, &fresh, 0.15).is_empty());
    }

    #[test]
    fn over_tolerance_fails() {
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("small", &[("table4", 100, 840.0)]); // -16%
        let errs = compare(&baseline, &fresh, 0.15);
        assert!(matches!(errs.as_slice(), [GateError::Regression { .. }]));
    }

    #[test]
    fn speedups_always_pass() {
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("small", &[("table4", 100, 5000.0)]);
        assert!(compare(&baseline, &fresh, 0.15).is_empty());
    }

    #[test]
    fn simulated_cycle_divergence_fails_even_when_fast() {
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("small", &[("table4", 101, 9000.0)]);
        let errs = compare(&baseline, &fresh, 0.15);
        assert!(matches!(
            errs.as_slice(),
            [GateError::CyclesDiverged {
                baseline: 100,
                fresh: 101,
                ..
            }]
        ));
    }

    #[test]
    fn zero_throughput_rows_carry_no_signal() {
        let baseline = record("small", &[("table5", 0, 0.0)]);
        let fresh = record("small", &[("table5", 0, 0.0)]);
        assert!(compare(&baseline, &fresh, 0.15).is_empty());
    }

    #[test]
    fn tolerance_parsing_defaults_and_bounds() {
        assert_eq!(tolerance_from(None), Ok(0.15));
        assert_eq!(tolerance_from(Some("0.5")), Ok(0.5));
        assert_eq!(tolerance_from(Some("0.0")), Ok(0.0));
        // A present but bad override must fail loudly, not silently run
        // at the (stricter) default.
        assert!(tolerance_from(Some("junk")).is_err());
        assert!(tolerance_from(Some("75")).is_err());
        assert!(tolerance_from(Some("1.0")).is_err());
        assert!(tolerance_from(Some("-0.1")).is_err());
    }

    #[test]
    fn non_finite_tolerances_are_rejected() {
        // `"NaN".parse::<f64>()` succeeds, and NaN poisons every `<`
        // comparison in `compare` (all false ⇒ no regression ever
        // reported) — the gate would silently stop gating. Same for the
        // infinities, which `parse` also accepts.
        for raw in ["NaN", "nan", "-NaN", "inf", "Infinity", "-inf"] {
            assert!(
                tolerance_from(Some(raw)).is_err(),
                "`{raw}` must be rejected"
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite fraction")]
    fn compare_refuses_a_nan_tolerance() {
        let r = record("small", &[("table4", 100, 1000.0)]);
        let _ = compare(&r, &r, f64::NAN);
    }

    #[test]
    fn regressions_are_still_caught_at_the_loosest_valid_tolerance() {
        // The boundary case NaN would have masked: a huge drop must
        // fail even at the loosest accepted tolerance.
        let baseline = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("small", &[("table4", 100, 1.0)]);
        let errs = compare(&baseline, &fresh, 0.999);
        assert!(matches!(errs.as_slice(), [GateError::Regression { .. }]));
    }

    #[test]
    fn every_violation_is_reported() {
        let baseline = record(
            "small",
            &[("a", 10, 1000.0), ("b", 10, 1000.0), ("c", 10, 1000.0)],
        );
        let fresh = record(
            "small",
            &[("a", 10, 100.0), ("b", 11, 1000.0), ("d", 10, 1000.0)],
        );
        let errs = compare(&baseline, &fresh, 0.15);
        assert_eq!(errs.len(), 3, "{errs:?}");
    }

    #[test]
    fn merge_replaces_same_name_rows_and_appends_fresh_ones() {
        let base = record("small", &[("table4", 100, 1000.0), ("fig4", 50, 2000.0)]);
        let fresh = record("small", &[("fig4", 55, 2100.0), ("fig7+cycle", 70, 900.0)]);
        let merged = merge(&base, &fresh).unwrap();
        let names: Vec<&str> = merged.experiments.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["table4", "fig4", "fig7+cycle"]);
        // The fresh fig4 row won.
        let fig4 = merged
            .experiments
            .iter()
            .find(|e| e.name == "fig4")
            .unwrap();
        assert_eq!(fig4.simulated_cycles, 55);
        // Untouched base rows carry their values verbatim.
        let t4 = merged
            .experiments
            .iter()
            .find(|e| e.name == "table4")
            .unwrap();
        assert_eq!(t4.simulated_cycles, 100);
    }

    #[test]
    fn merge_rejects_scale_and_schema_conflicts() {
        let base = record("small", &[("table4", 100, 1000.0)]);
        let fresh = record("medium", &[("fig4", 50, 2000.0)]);
        assert!(matches!(
            merge(&base, &fresh),
            Err(GateError::ScaleMismatch { .. })
        ));
        let mut alien = record("small", &[("fig4", 50, 2000.0)]);
        alien.schema = "someone-elses-schema/v9".to_string();
        assert!(matches!(
            merge(&base, &alien),
            Err(GateError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn merge_rejects_duplicate_rows_on_either_side() {
        // A duplicated row used to silently shadow its twin: the merge
        // filter and the gate's `find` both take the first hit. Both
        // sides are now checked loudly.
        let dup = record(
            "small",
            &[("fig7+cycle", 70, 900.0), ("fig7+cycle", 71, 901.0)],
        );
        let clean = record("small", &[("table4", 100, 1000.0)]);
        assert!(matches!(
            merge(&dup, &clean),
            Err(GateError::DuplicateRow(name)) if name == "fig7+cycle"
        ));
        assert!(matches!(
            merge(&clean, &dup),
            Err(GateError::DuplicateRow(name)) if name == "fig7+cycle"
        ));
    }

    #[test]
    fn parse_rejects_duplicate_rows() {
        let text = r#"{
  "schema": "capstan-bench-core/v1",
  "scale": "small",
  "threads": 4,
  "experiments": [
    {"name": "table4", "wall_seconds": 0.3, "simulated_cycles": 90000, "cycles_per_second": 288500.9},
    {"name": "table4", "wall_seconds": 0.3, "simulated_cycles": 90000, "cycles_per_second": 288500.9}
  ],
  "total_wall_seconds": 0.6,
  "total_simulated_cycles": 180000
}
"#;
        let err = parse_record(text).unwrap_err();
        assert!(
            matches!(&err, GateError::DuplicateRow(name) if name == "table4"),
            "{err}"
        );
    }

    #[test]
    fn round_trips_the_committed_baseline() {
        // The committed BENCH_core.json must always be gate-parsable.
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json"),
        )
        .expect("committed baseline readable");
        let r = parse_record(&text).expect("committed baseline parses");
        assert_eq!(r.schema, "capstan-bench-core/v1");
        assert!(compare(&r, &r, 0.0).is_empty(), "baseline must gate itself");
    }
}
