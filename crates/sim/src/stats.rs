//! Statistics primitives shared by every unit simulator.

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of *cycle-level* simulated cycles (SpMU replays,
/// throughput drivers, traces), across every engine and thread.
/// Analytic model totals (`capstan_core::perf::simulate`'s breakdown)
/// are deliberately excluded — they would double-count the embedded
/// replays and change units whenever the model changes. Drivers add
/// their cycle totals once per run (a single atomic add per
/// measurement, so the per-cycle hot loops stay untouched); the
/// experiment harness samples the counter around each experiment to
/// report *simulated cycles per wall second* in `BENCH_core.json`.
static SIMULATED_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Adds `n` simulated cycles to the process-wide total.
pub fn record_simulated_cycles(n: u64) {
    SIMULATED_CYCLES.fetch_add(n, Ordering::Relaxed);
}

/// The process-wide simulated-cycle total so far.
pub fn simulated_cycles() -> u64 {
    SIMULATED_CYCLES.load(Ordering::Relaxed)
}

/// Tracks utilization: the ratio of useful events to total opportunities —
/// e.g. "the percentage of banks active per cycle" (paper Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utilization {
    busy: u64,
    total: u64,
}

impl Utilization {
    /// A zeroed tracker.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Records `busy` useful slots out of `total` opportunities.
    pub fn record(&mut self, busy: u64, total: u64) {
        debug_assert!(busy <= total, "busy {busy} > total {total}");
        self.busy += busy;
        self.total += total;
    }

    /// Utilization as a fraction in `[0, 1]` (0 if nothing recorded).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.busy as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_fraction() {
        let mut u = Utilization::new();
        assert_eq!(u.fraction(), 0.0);
        u.record(8, 16);
        u.record(8, 16);
        u.record(0, 32);
        assert_eq!(u.fraction(), 0.25);
    }
}
