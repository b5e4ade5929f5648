//! Read-modify-write operations executed by the per-bank FPU.
//!
//! Paper §3.1: "Each request then enters an independent read-modify-write
//! (RMW) execution pipeline with one SRAM bank and an FPU, which is capable
//! of integer and floating point addition and subtraction along with
//! several bitwise operations. The execution unit has separately
//! configurable result muxes for returned data and updated memory values,
//! which allows operations like test-and-set, write-if-memory-zero, swap,
//! min-report-changed, and max. For example, min-report-changed can be
//! used for SSSP distance updates, and write-if-memory-zero can be used to
//! avoid overwriting backpointers in BFS."
//!
//! The simulator models the pipeline's timing only, so an [`RmwOp`] names
//! the paper's operation without computing it. The operation decides
//! whether a request is a pure read (which the SpMU may elide and which
//! leaves a DRAM burst clean) or an update. The variant docs describe
//! each operation's result muxes as the paper defines them; the
//! applications compute those values while they record their traces.

/// The atomic operation carried by one lane request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RmwOp {
    /// Plain load; memory unchanged, returns the stored value.
    #[default]
    Read,
    /// Plain store; returns the *old* value.
    Write,
    /// Floating-point accumulate; returns the *new* value.
    AddF,
    /// Floating-point subtract-accumulate; returns the *new* value.
    SubF,
    /// Integer accumulate on the 32-bit word (bit pattern); returns new.
    AddI,
    /// `mem = min(mem, x)`; returns 1.0 if the value changed, else 0.0
    /// (the paper's "min-report-changed", used by SSSP).
    MinReportChanged,
    /// `mem = max(mem, x)`; returns 1.0 if the value changed, else 0.0.
    MaxReportChanged,
    /// `mem = 1.0`; returns the old value (test-and-set, used by BFS
    /// reached-sets).
    TestAndSet,
    /// `if mem == 0 { mem = x }`; returns the old value (used by BFS to
    /// avoid overwriting back-pointers).
    WriteIfZero,
    /// `mem = x`; returns the old value (used by SpMSpM to swap the
    /// accumulator tile with zero).
    Swap,
    /// Bitwise OR on the word; returns the new value (frontier insertion).
    Or,
    /// Bitwise AND on the word; returns the new value.
    And,
    /// Bitwise XOR on the word; returns the new value.
    Xor,
}

impl RmwOp {
    /// Whether the operation leaves memory unchanged (pure read).
    pub fn is_read_only(self) -> bool {
        matches!(self, RmwOp::Read)
    }

    /// Whether the operation may modify memory.
    pub fn is_update(self) -> bool {
        !self.is_read_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_classification() {
        assert!(RmwOp::Read.is_read_only());
        for op in [RmwOp::Write, RmwOp::AddF, RmwOp::TestAndSet, RmwOp::Swap] {
            assert!(op.is_update());
        }
    }
}
