//! Matrix Market (`.mtx`) reader/writer.
//!
//! The paper's datasets come from the SuiteSparse collection, which is
//! distributed in Matrix Market format. This loader lets users drop the
//! real datasets into the harness in place of the synthetic equivalents
//! from [`crate::gen`].
//!
//! Supported: `matrix coordinate real|integer|pattern general|symmetric`.

use crate::coo::Coo;
use crate::error::{FormatError, Result};
use crate::{Index, Value};
use std::io::{BufRead, Write};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// The largest row or column count [`read`] accepts: 2^26 (67,108,864).
/// The applications size dense host arrays by the extents (CSR row
/// pointers, vectors, ranks) whether or not any entry uses them, so a
/// header alone could otherwise ask for tens of GiB and abort the
/// process. The cap is 80 times the largest paper dataset (flickr,
/// 820,878 vertices), and a CSR row pointer at the cap takes 512 MiB.
const MAX_EXTENT: usize = 1 << 26;

/// Reads a Matrix Market coordinate matrix from a buffered reader.
///
/// # Errors
///
/// Returns [`FormatError::Parse`] for malformed input,
/// [`FormatError::CapacityExceeded`] for an extent past 2^26 (the dense
/// host arrays an extent sizes), [`FormatError::IndexOutOfBounds`] for a
/// coordinate past the [`Index`] range,
/// [`FormatError::LengthMismatch`] when the entry count differs from the
/// header's, and propagates bounds errors from [`Coo::from_triplets`].
///
/// # Example
///
/// ```
/// use capstan_tensor::mm;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 -1\n";
/// let m = mm::read(text.as_bytes()).unwrap();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.entries()[0], (0, 0, 3.5));
/// ```
pub fn read<R: BufRead>(reader: R) -> Result<Coo> {
    let mut lines = reader.lines().enumerate();
    // Header.
    let (field, symmetry) = {
        let (ln, line) = lines.next().ok_or(FormatError::Parse {
            line: 1,
            detail: "empty input".into(),
        })?;
        let line = line.map_err(|e| FormatError::Parse {
            line: ln + 1,
            detail: e.to_string(),
        })?;
        if !line.starts_with("%%MatrixMarket") {
            return Err(FormatError::Parse {
                line: ln + 1,
                detail: "missing %%MatrixMarket header".into(),
            });
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() < 5 || toks[1] != "matrix" || toks[2] != "coordinate" {
            return Err(FormatError::Parse {
                line: ln + 1,
                detail: "only `matrix coordinate` is supported".into(),
            });
        }
        let field = match toks[3] {
            "real" => Field::Real,
            "integer" => Field::Integer,
            "pattern" => Field::Pattern,
            other => {
                return Err(FormatError::Parse {
                    line: ln + 1,
                    detail: format!("unsupported field `{other}`"),
                })
            }
        };
        let symmetry = match toks[4] {
            "general" => Symmetry::General,
            "symmetric" => Symmetry::Symmetric,
            other => {
                return Err(FormatError::Parse {
                    line: ln + 1,
                    detail: format!("unsupported symmetry `{other}`"),
                })
            }
        };
        (field, symmetry)
    };

    // Size line (skipping comments).
    let (rows, cols, nnz) = loop {
        let (ln, line) = lines.next().ok_or(FormatError::Parse {
            line: 0,
            detail: "missing size line".into(),
        })?;
        let line = line.map_err(|e| FormatError::Parse {
            line: ln + 1,
            detail: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        if toks.len() != 3 {
            return Err(FormatError::Parse {
                line: ln + 1,
                detail: format!("size line needs 3 fields, got {}", toks.len()),
            });
        }
        let parse = |s: &str, what: &str| -> Result<usize> {
            s.parse().map_err(|_| FormatError::Parse {
                line: ln + 1,
                detail: format!("bad {what}: `{s}`"),
            })
        };
        break (
            parse(toks[0], "rows")?,
            parse(toks[1], "cols")?,
            parse(toks[2], "nnz")?,
        );
    };

    for extent in [rows, cols] {
        if extent > MAX_EXTENT {
            return Err(FormatError::CapacityExceeded {
                requested: extent,
                max: MAX_EXTENT,
            });
        }
    }
    // A 1-based coordinate as an `Index`; one that does not fit is out of
    // bounds.
    let index = |i: usize, axis: usize, extent: usize| {
        Index::try_from(i - 1).map_err(|_| FormatError::IndexOutOfBounds {
            axis,
            index: i - 1,
            extent,
        })
    };

    // Not reserved from the header's `nnz`: an untrusted count would size
    // the allocation before the entry count is checked below.
    let mut triplets: Vec<(Index, Index, Value)> = Vec::new();
    let mut declared_entries = 0usize;
    for (ln, line) in lines {
        let line = line.map_err(|e| FormatError::Parse {
            line: ln + 1,
            detail: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        let need = if field == Field::Pattern { 2 } else { 3 };
        if toks.len() < need {
            return Err(FormatError::Parse {
                line: ln + 1,
                detail: format!("entry needs {need} fields, got {}", toks.len()),
            });
        }
        let r: usize = toks[0].parse().map_err(|_| FormatError::Parse {
            line: ln + 1,
            detail: format!("bad row `{}`", toks[0]),
        })?;
        let c: usize = toks[1].parse().map_err(|_| FormatError::Parse {
            line: ln + 1,
            detail: format!("bad col `{}`", toks[1]),
        })?;
        if r == 0 || c == 0 {
            return Err(FormatError::Parse {
                line: ln + 1,
                detail: "matrix market indices are 1-based".into(),
            });
        }
        let v: Value = if field == Field::Pattern {
            1.0
        } else {
            toks[2].parse().map_err(|_| FormatError::Parse {
                line: ln + 1,
                detail: format!("bad value `{}`", toks[2]),
            })?
        };
        declared_entries += 1;
        let (r, c) = (index(r, 0, rows)?, index(c, 1, cols)?);
        triplets.push((r, c, v));
        if symmetry == Symmetry::Symmetric && r != c {
            triplets.push((c, r, v));
        }
    }
    if declared_entries != nnz {
        return Err(FormatError::LengthMismatch {
            expected: nnz,
            found: declared_entries,
        });
    }
    Coo::from_triplets(rows, cols, triplets)
}

/// Writes a matrix in `matrix coordinate real general` format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write<W: Write>(mut writer: W, m: &Coo) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let m = Coo::from_triplets(3, 2, vec![(0, 1, 1.5), (2, 0, -2.0)]).unwrap();
        let mut buf = Vec::new();
        write(&mut buf, &m).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 1\n";
        let m = read(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3); // (1,0), (0,1), (2,2)
        assert_eq!(m.to_dense()[(0, 1)], 5.0);
        assert_eq!(m.to_dense()[(1, 0)], 5.0);
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let m = read(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 1, 1.0)]);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% comment\n\n2 2 1\n% mid\n1 1 2\n";
        let m = read(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(matches!(err, FormatError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn extents_past_the_dense_cap_are_rejected_before_any_allocation() {
        let header = |rows: usize| {
            format!("%%MatrixMarket matrix coordinate real general\n{rows} 2 1\n1 1 5.0\n")
        };
        assert_eq!(
            read(header(MAX_EXTENT).as_bytes()).unwrap().rows(),
            MAX_EXTENT
        );
        for rows in [MAX_EXTENT + 1, 1 << 32] {
            assert_eq!(
                read(header(rows).as_bytes()).unwrap_err(),
                FormatError::CapacityExceeded {
                    requested: rows,
                    max: MAX_EXTENT
                }
            );
        }
    }

    #[test]
    fn rejects_unsupported_formats() {
        assert!(read("%%MatrixMarket matrix array real general\n".as_bytes()).is_err());
        assert!(
            read("%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes()).is_err()
        );
        assert!(read("no header\n".as_bytes()).is_err());
    }
}
