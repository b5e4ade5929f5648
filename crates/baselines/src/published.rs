//! Published reference numbers from the paper's Table 12.
//!
//! Our reproduction cannot run the authors' CPU/GPU testbeds, so the
//! harness prints these constants beside the reproduced Capstan and
//! Plasticine rows. The paper's Table 12 reports *runtimes normalized to
//! the fastest Capstan-HBM2E version of each application*; entries the
//! hardware/software stack does not support are `None`.
//!
//! Column attribution for the CPU/GPU rows follows the paper's prose
//! cross-checks: "Capstan outperforms the CPU by 4.4x to 327x" pins the
//! CPU minimum to PR (52.91 / 12.08 on DDR4) and the maximum to SpMSpM
//! (2254.09 / 6.89); "and the GPU by 4.9x to 118x" pins the GPU minimum
//! to CSR (6.16 / 1.25) and maximum to the 119.39 entry normalized
//! against 1.00 (the CSC column).

/// One row of Table 12 (`None` = variant not supported by the platform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table12Row {
    /// Platform name as printed.
    pub platform: &'static str,
    /// Normalized runtime per app, in the paper's column order: CSR,
    /// COO and CSC SpMV, Conv, PR-Pull, PR-Edge, BFS, SSSP, M+M, SpMSpM,
    /// BiCGStab.
    pub values: [Option<f64>; 11],
    /// Printed geometric mean.
    pub gmean: f64,
}

/// All rows of the paper's Table 12.
pub const TABLE12: [Table12Row; 7] = [
    Table12Row {
        platform: "Capstan (Ideal Net & Mem)",
        values: [
            Some(0.83),
            Some(1.21),
            Some(0.81),
            Some(0.95),
            Some(0.79),
            Some(1.06),
            Some(0.65),
            Some(0.73),
            Some(0.86),
            Some(0.88),
            Some(0.94),
        ],
        gmean: 0.82,
    },
    Table12Row {
        platform: "Capstan (HBM2E)",
        values: [
            Some(1.25),
            Some(1.67),
            Some(1.00),
            Some(1.00),
            Some(1.00),
            Some(1.33),
            Some(1.00),
            Some(1.00),
            Some(1.00),
            Some(1.00),
            Some(1.00),
        ],
        gmean: 1.00,
    },
    Table12Row {
        platform: "Capstan (HBM2)",
        values: [
            Some(1.78),
            Some(2.26),
            Some(1.27),
            Some(1.01),
            Some(1.37),
            Some(1.73),
            Some(1.28),
            Some(1.20),
            Some(1.35),
            Some(1.53),
            Some(1.19),
        ],
        gmean: 1.27,
    },
    Table12Row {
        platform: "Capstan (DDR4)",
        values: [
            Some(18.16),
            Some(21.94),
            Some(10.49),
            Some(1.53),
            Some(12.08),
            Some(14.00),
            Some(5.24),
            Some(3.89),
            Some(8.20),
            Some(6.89),
            Some(13.43),
        ],
        gmean: 6.45,
    },
    Table12Row {
        platform: "Plasticine (HBM2E)",
        values: [
            Some(17.04),
            Some(184.16),
            Some(365.09),
            None,
            Some(8.48),
            None,
            None,
            None,
            None,
            None,
            Some(7.57),
        ],
        gmean: 10.30,
    },
    Table12Row {
        platform: "V100 GPU",
        values: [
            Some(6.16),
            None,
            Some(119.39),
            Some(8.68),
            Some(31.64),
            Some(13.59),
            Some(12.25),
            Some(41.79),
            None,
            Some(22.19),
            None,
        ],
        gmean: 20.50,
    },
    Table12Row {
        platform: "128-Thread CPU",
        values: [
            Some(67.86),
            Some(640.31),
            Some(485.64),
            Some(99.86),
            Some(52.91),
            None,
            Some(62.29),
            Some(68.29),
            Some(73.90),
            Some(2254.09),
            Some(143.03),
        ],
        gmean: 117.50,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Application order of every Table 12 row.
    const APPS: [&str; 11] = [
        "CSR SpMV", "COO SpMV", "CSC SpMV", "Conv", "PR-Pull", "PR-Edge", "BFS", "SSSP", "M+M",
        "SpMSpM", "BiCGStab",
    ];

    /// Looks up a Table 12 row by platform name.
    fn table12_row(platform: &str) -> Option<&'static Table12Row> {
        TABLE12.iter().find(|r| r.platform == platform)
    }

    /// Geometric mean over the present values of a row.
    fn gmean(values: &[Option<f64>]) -> f64 {
        let present: Vec<f64> = values.iter().flatten().copied().collect();
        if present.is_empty() {
            return 0.0;
        }
        (present.iter().map(|v| v.ln()).sum::<f64>() / present.len() as f64).exp()
    }

    #[test]
    fn headline_cpu_range_matches_prose() {
        // "Capstan outperforms the CPU by 4.4x to 327x" against DDR4.
        let cpu = table12_row("128-Thread CPU").unwrap();
        let ddr4 = table12_row("Capstan (DDR4)").unwrap();
        // The prose ranges use the paper's bolded points: the best SpMV
        // and PageRank variants only.
        let bolded = [2usize, 3, 4, 6, 7, 8, 9, 10];
        let ratios: Vec<f64> = bolded
            .iter()
            .filter_map(|&i| Some(cpu.values[i]? / ddr4.values[i]?))
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!((min - 4.4).abs() < 0.1, "min {min:.2}");
        assert!((max - 327.0).abs() < 2.0, "max {max:.1}");
    }

    #[test]
    fn headline_gpu_range_matches_prose() {
        // "and the GPU by 4.9x to 118x" against HBM2E.
        let gpu = table12_row("V100 GPU").unwrap();
        let hbm = table12_row("Capstan (HBM2E)").unwrap();
        let ratios: Vec<f64> = gpu
            .values
            .iter()
            .zip(&hbm.values)
            .filter_map(|(g, h)| Some((*g)? / (*h)?))
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!((min - 4.9).abs() < 0.1, "min {min:.2}");
        assert!((max - 118.0).abs() < 2.0, "max {max:.1}");
    }

    #[test]
    fn headline_plasticine_range_matches_prose() {
        // "runs existing ones 7.6x to 365x faster".
        let p = table12_row("Plasticine (HBM2E)").unwrap();
        let h = table12_row("Capstan (HBM2E)").unwrap();
        let ratios: Vec<f64> = p
            .values
            .iter()
            .zip(&h.values)
            .filter_map(|(p, h)| Some((*p)? / (*h)?))
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!((min - 7.57).abs() < 0.1, "min {min:.2}");
        assert!((max - 365.09).abs() < 1.0, "max {max:.1}");
    }

    #[test]
    fn gmeans_are_consistent_with_rows() {
        for row in &TABLE12 {
            let computed = gmean(&row.values);
            // The paper's gmeans use the bolded-points policy (and an
            // unstated treatment of unsupported variants); ours over all
            // present values should land within a small factor.
            assert!(
                computed / row.gmean < 4.0 && row.gmean / computed < 4.0,
                "{}: computed {computed:.2} vs printed {}",
                row.platform,
                row.gmean
            );
        }
    }

    #[test]
    fn plasticine_supported_columns_match_module() {
        let p = table12_row("Plasticine (HBM2E)").unwrap();
        for (app, value) in APPS.iter().zip(&p.values) {
            assert_eq!(
                value.is_some(),
                crate::plasticine::supports(app),
                "mismatch for {app}"
            );
        }
    }
}
