//! Calibrated area and power model.
//!
//! The paper synthesizes Plasticine plus the Capstan units with Synopsys
//! Design Compiler on the 15 nm FreePDK15 library at 1.6 GHz (§4.2). We
//! cannot re-run synthesis, so this module encodes *every number the paper
//! prints* (Tables 4, 5, 8) as calibration points and interpolates between
//! them with the published scaling shapes (crossbar area ~ inputs x banks,
//! scanner area superlinear in width and output count). See DESIGN.md's
//! substitution table.

/// Square micrometres.
type AreaUm2 = f64;

/// Square millimetres.
type AreaMm2 = f64;

// --- Table 5: scanner area (µm²) -------------------------------------------

const SCANNER_WIDTHS: [usize; 3] = [128, 256, 512];
const SCANNER_OUTPUTS: [usize; 5] = [1, 2, 4, 8, 16];
const SCANNER_AREA: [[f64; 5]; 3] = [
    [2_157.0, 2_765.0, 3_645.0, 5_591.0, 9_456.0],
    [3_985.0, 5_231.0, 6_927.0, 10_674.0, 19_898.0],
    [7_777.0, 10_447.0, 14_377.0, 22_562.0, 42_997.0],
];

fn log_interp(x: f64, x0: f64, x1: f64, y0: f64, y1: f64) -> f64 {
    if x0 == x1 {
        return y0;
    }
    let t = (x.ln() - x0.ln()) / (x1.ln() - x0.ln());
    (y0.ln() + t * (y1.ln() - y0.ln())).exp()
}

/// Scanner area in µm² for a given bit width and output vectorization
/// (paper Table 5; log-log interpolation between calibration points).
///
/// # Panics
///
/// Panics if either parameter is zero.
pub fn scanner_area_um2(width: usize, outputs: usize) -> AreaUm2 {
    assert!(
        width > 0 && outputs > 0,
        "scanner dimensions must be positive"
    );
    // Clamp into the calibrated grid, extrapolating log-linearly outside.
    let wi = |w: usize| -> (usize, usize) {
        match SCANNER_WIDTHS.iter().position(|&x| w <= x) {
            Some(0) | None if w <= SCANNER_WIDTHS[0] => (0, 1),
            Some(i) => (i - 1, i),
            None => (1, 2),
        }
    };
    let oi = |o: usize| -> (usize, usize) {
        match SCANNER_OUTPUTS.iter().position(|&x| o <= x) {
            Some(0) | None if o <= SCANNER_OUTPUTS[0] => (0, 1),
            Some(i) => (i - 1, i),
            None => (3, 4),
        }
    };
    let (w0, w1) = wi(width);
    let (o0, o1) = oi(outputs);
    let f = |wi: usize, oi: usize| SCANNER_AREA[wi][oi];
    let a0 = log_interp(
        outputs as f64,
        SCANNER_OUTPUTS[o0] as f64,
        SCANNER_OUTPUTS[o1] as f64,
        f(w0, o0),
        f(w0, o1),
    );
    let a1 = log_interp(
        outputs as f64,
        SCANNER_OUTPUTS[o0] as f64,
        SCANNER_OUTPUTS[o1] as f64,
        f(w1, o0),
        f(w1, o1),
    );
    log_interp(
        width as f64,
        SCANNER_WIDTHS[w0] as f64,
        SCANNER_WIDTHS[w1] as f64,
        a0,
        a1,
    )
}

// --- Table 4: scheduler area (µm²) ------------------------------------------

const SCHED_DEPTHS: [usize; 3] = [8, 16, 32];
/// Columns: 16x16 crossbar (no speedup), 32x16 crossbar (2x input speedup).
const SCHED_AREA: [[f64; 2]; 3] = [
    [38_052.0, 48_938.0],
    [51_359.0, 62_918.0],
    [79_301.0, 90_433.0],
];

/// Scheduler (issue queue + allocator + crossbar) area in µm² for a queue
/// depth and input speedup (paper Table 4).
///
/// # Panics
///
/// Panics if `input_speedup` is not 1 or 2, or `depth` is zero.
pub fn scheduler_area_um2(depth: usize, input_speedup: usize) -> AreaUm2 {
    assert!(depth > 0, "depth must be positive");
    assert!(
        matches!(input_speedup, 1 | 2),
        "input speedup must be 1 or 2"
    );
    let col = input_speedup - 1;
    let (d0, d1) = match SCHED_DEPTHS.iter().position(|&d| depth <= d) {
        Some(0) | None if depth <= 8 => (0, 1),
        Some(i) => (i - 1, i),
        None => (1, 2),
    };
    log_interp(
        depth as f64,
        SCHED_DEPTHS[d0] as f64,
        SCHED_DEPTHS[d1] as f64,
        SCHED_AREA[d0][col],
        SCHED_AREA[d1][col],
    )
}

// --- Table 8: unit and chip area (mm²) --------------------------------------

/// Per-unit areas for one chip configuration (paper Table 8).
#[derive(Debug, Clone, Copy, PartialEq)]
struct UnitAreas {
    /// Compute unit, each (mm²).
    cu: AreaMm2,
    /// Memory unit, each (mm²).
    mu: AreaMm2,
    /// DRAM address generator, each (mm²).
    ag: AreaMm2,
    /// One shuffle network (mm²).
    shuffle_network: AreaMm2,
    /// Static on-chip network total (mm²).
    network_total: AreaMm2,
}

impl UnitAreas {
    /// Plasticine's units (Table 8 left column).
    fn plasticine() -> Self {
        UnitAreas {
            cu: 0.401,
            mu: 0.199,
            ag: 0.030,
            shuffle_network: 0.0,
            network_total: 36.3,
        }
    }

    /// Capstan's units (Table 8 right column).
    fn capstan() -> Self {
        UnitAreas {
            cu: 0.423,
            mu: 0.251,
            ag: 0.087,
            shuffle_network: 1.064,
            network_total: 36.3,
        }
    }
}

/// Chip-level configuration for area/power accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Compute units (paper: 200).
    pub cus: usize,
    /// Memory units (paper: 200).
    pub mus: usize,
    /// Address generators (paper: 80).
    pub ags: usize,
    /// Shuffle networks (paper: 6 — three vertical + three horizontal).
    pub shuffle_networks: usize,
    /// Fraction of CUs/MUs/AGs provisioned with sparse logic in `[0, 1]`
    /// (§4.2: "a designer could provision a fraction of the sparse logic.
    /// This would halve peak sparse performance while linearly decreasing
    /// the area and power overhead").
    pub sparse_fraction: f64,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            cus: 200,
            mus: 200,
            ags: 80,
            shuffle_networks: 6,
            sparse_fraction: 1.0,
        }
    }
}

/// Area/power report in the shape of the paper's Table 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipReport {
    /// CU total (mm²).
    pub cu_total: AreaMm2,
    /// MU total (mm²).
    pub mu_total: AreaMm2,
    /// AG total (mm²).
    pub ag_total: AreaMm2,
    /// Shuffle networks total (mm²).
    pub shuffle_total: AreaMm2,
    /// Static network total (mm²).
    pub network_total: AreaMm2,
    /// Whole chip (mm²).
    pub total: AreaMm2,
    /// Design power (W).
    pub power_w: f64,
}

/// Plasticine's design power (W, Table 8).
const PLASTICINE_POWER_W: f64 = 155.0;

/// Capstan's design power (W, Table 8).
const CAPSTAN_POWER_W: f64 = 174.0;

/// Computes the chip report for a configuration. With
/// `sparse_fraction = 0` the result reproduces Plasticine's column; with
/// `1.0`, Capstan's.
pub fn chip_report(cfg: ChipConfig) -> ChipReport {
    let p = UnitAreas::plasticine();
    let c = UnitAreas::capstan();
    let f = cfg.sparse_fraction.clamp(0.0, 1.0);
    let lerp = |a: f64, b: f64| a + (b - a) * f;
    let cu = lerp(p.cu, c.cu);
    let mu = lerp(p.mu, c.mu);
    let ag = lerp(p.ag, c.ag);
    let cu_total = cu * cfg.cus as f64;
    let mu_total = mu * cfg.mus as f64;
    let ag_total = ag * cfg.ags as f64;
    let shuffle_total = c.shuffle_network * cfg.shuffle_networks as f64 * f;
    let network_total = c.network_total * (cfg.cus + cfg.mus) as f64 / 400.0;
    let total = cu_total + mu_total + ag_total + shuffle_total + network_total;
    // Power scales with the sparse provisioning and unit counts.
    let base_units = (cfg.cus + cfg.mus) as f64 / 400.0;
    let power_w = (PLASTICINE_POWER_W + (CAPSTAN_POWER_W - PLASTICINE_POWER_W) * f) * base_units;
    ChipReport {
        cu_total,
        mu_total,
        ag_total,
        shuffle_total,
        network_total,
        total,
        power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 0.5
    }

    #[test]
    fn scanner_area_matches_table5_calibration() {
        assert!(close(scanner_area_um2(128, 1), 2_157.0));
        assert!(close(scanner_area_um2(256, 16), 19_898.0));
        assert!(close(scanner_area_um2(512, 16), 42_997.0));
    }

    #[test]
    fn paper_design_point_saves_54_percent() {
        // §3.3: the 256x16 scanner uses 54% less area than 512x16.
        let chosen = scanner_area_um2(256, 16);
        let largest = scanner_area_um2(512, 16);
        let saving = 1.0 - chosen / largest;
        assert!((saving - 0.54).abs() < 0.02, "saving {saving:.3}");
    }

    #[test]
    fn scanner_interpolation_is_monotone() {
        let a = scanner_area_um2(192, 8);
        assert!(a > scanner_area_um2(128, 8) && a < scanner_area_um2(256, 8));
        let b = scanner_area_um2(256, 6);
        assert!(b > scanner_area_um2(256, 4) && b < scanner_area_um2(256, 8));
    }

    #[test]
    fn scheduler_area_matches_table4() {
        assert!(close(scheduler_area_um2(16, 1), 51_359.0));
        assert!(close(scheduler_area_um2(32, 2), 90_433.0));
        // Speedup costs ~11.5 kµm² at depth 16 (paper §3.1.2).
        let delta = scheduler_area_um2(16, 2) - scheduler_area_um2(16, 1);
        assert!((delta - 11_559.0).abs() < 1.0);
    }

    #[test]
    fn chip_totals_match_table8() {
        let capstan = chip_report(ChipConfig::default());
        assert!(
            (capstan.cu_total - 84.7).abs() < 0.2,
            "{}",
            capstan.cu_total
        );
        assert!((capstan.mu_total - 50.2).abs() < 0.2);
        assert!((capstan.ag_total - 6.9).abs() < 0.1);
        assert!((capstan.shuffle_total - 6.4).abs() < 0.1);
        assert!(
            (capstan.total - 184.5).abs() < 0.5,
            "total {}",
            capstan.total
        );
        assert_eq!(capstan.power_w, 174.0);

        let plasticine = chip_report(ChipConfig {
            sparse_fraction: 0.0,
            ..Default::default()
        });
        assert!(
            (plasticine.total - 158.6).abs() < 0.5,
            "total {}",
            plasticine.total
        );
        assert_eq!(plasticine.power_w, 155.0);
    }

    #[test]
    fn headline_overheads_hold() {
        // "Capstan is 16% larger than Plasticine and consumes 12% more
        // on-die power" (§4.2).
        let capstan = chip_report(ChipConfig::default());
        let plasticine = chip_report(ChipConfig {
            sparse_fraction: 0.0,
            ..Default::default()
        });
        let area_overhead = capstan.total / plasticine.total - 1.0;
        let power_overhead = capstan.power_w / plasticine.power_w - 1.0;
        assert!(
            (area_overhead - 0.16).abs() < 0.01,
            "area overhead {area_overhead:.3}"
        );
        assert!(
            (power_overhead - 0.12).abs() < 0.01,
            "power overhead {power_overhead:.3}"
        );
    }

    #[test]
    fn half_provisioning_halves_overhead() {
        let half = chip_report(ChipConfig {
            sparse_fraction: 0.5,
            ..Default::default()
        });
        let full = chip_report(ChipConfig::default());
        let plasticine = chip_report(ChipConfig {
            sparse_fraction: 0.0,
            ..Default::default()
        });
        let half_overhead = half.total - plasticine.total;
        let full_overhead = full.total - plasticine.total;
        assert!((half_overhead / full_overhead - 0.5).abs() < 0.02);
    }
}
