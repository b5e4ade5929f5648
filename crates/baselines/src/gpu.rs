//! V100 GPU analytic model (the cuSparse / Gunrock stand-in).
//!
//! A roofline-style estimate for sparse kernels on an Nvidia V100:
//! 900 GB/s HBM2 with reduced efficiency for scattered accesses, 80 SMs
//! at 1.53 GHz, and — crucially for the BiCGStab comparison — a fixed
//! overhead per *kernel launch*, because "the CPU and GPU baselines
//! implement BiCGStab using sparse and dense kernels; the inter-kernel
//! overhead causes up to a 3x slowdown relative to sparse SpMV alone"
//! (paper §4.4). Capstan fuses those kernels into one streaming pipeline.

/// V100 peak memory bandwidth (GB/s).
const V100_BANDWIDTH_GBPS: f64 = 900.0;

/// Fraction of peak achieved by streaming sparse kernels.
const STREAM_EFFICIENCY: f64 = 0.75;

/// Fraction of peak achieved by scattered (random) accesses.
const RANDOM_EFFICIENCY: f64 = 0.20;

/// Fixed cost of one kernel launch + device synchronization (seconds).
const KERNEL_LAUNCH_SECONDS: f64 = 8.0e-6;

/// Characterization of one GPU kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuKernel {
    /// Bytes moved with streaming locality.
    stream_bytes: u64,
    /// Bytes moved with scattered locality (atomics, gathers).
    random_bytes: u64,
}

impl GpuKernel {
    /// Estimated runtime of this kernel in seconds (memory-bound model).
    pub fn seconds(&self) -> f64 {
        let stream = self.stream_bytes as f64 / (V100_BANDWIDTH_GBPS * 1e9 * STREAM_EFFICIENCY);
        let random = self.random_bytes as f64 / (V100_BANDWIDTH_GBPS * 1e9 * RANDOM_EFFICIENCY);
        KERNEL_LAUNCH_SECONDS + stream + random
    }
}

/// Estimated runtime of a kernel *sequence* (the unfused execution model
/// of cuSparse/cuBLAS pipelines).
fn sequence_seconds(kernels: &[GpuKernel]) -> f64 {
    kernels.iter().map(GpuKernel::seconds).sum()
}

/// A GPU SpMV kernel over `nnz` non-zeros and an `n`-long vector:
/// streams the matrix, gathers the vector randomly.
pub fn spmv_kernel(nnz: usize, n: usize) -> GpuKernel {
    GpuKernel {
        stream_bytes: (nnz * 8 + n * 4) as u64,
        random_bytes: nnz as u64 * 4,
    }
}

/// A dense BLAS1 kernel (dot/axpy) over `n` elements.
fn blas1_kernel(n: usize) -> GpuKernel {
    GpuKernel {
        stream_bytes: n as u64 * 8,
        random_bytes: 0,
    }
}

/// Unfused BiCGStab iteration: 2 SpMV + 6 BLAS1 kernel launches.
pub fn bicgstab_iteration_seconds(nnz: usize, n: usize) -> f64 {
    let mut kernels = vec![spmv_kernel(nnz, n), spmv_kernel(nnz, n)];
    kernels.extend(std::iter::repeat_n(blas1_kernel(n), 6));
    sequence_seconds(&kernels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_launch_overhead_dominates_small_problems() {
        let tiny = spmv_kernel(1000, 1000);
        assert!(tiny.seconds() > KERNEL_LAUNCH_SECONDS);
        assert!(tiny.seconds() < 2.0 * KERNEL_LAUNCH_SECONDS);
    }

    #[test]
    fn bandwidth_dominates_large_problems() {
        let big = spmv_kernel(100_000_000, 10_000_000);
        // 840 MB streamed + 400 MB random: launch cost is negligible.
        assert!(big.seconds() > 100.0 * KERNEL_LAUNCH_SECONDS);
    }

    #[test]
    fn unfused_solver_pays_inter_kernel_overhead() {
        // Paper §4.4: up to 3x slowdown relative to SpMV alone for
        // small/medium problems where launches dominate.
        let (nnz, n) = (333_029, 49_702); // ckt11752 scale
        let spmv = spmv_kernel(nnz, n).seconds();
        let iteration = bicgstab_iteration_seconds(nnz, n);
        let ratio = iteration / (2.0 * spmv);
        assert!(ratio > 1.3, "inter-kernel overhead ratio {ratio:.2}");
    }

    #[test]
    fn random_traffic_is_costly() {
        let streaming = GpuKernel {
            stream_bytes: 1 << 30,
            random_bytes: 0,
        };
        let scattered = GpuKernel {
            stream_bytes: 0,
            random_bytes: 1 << 30,
        };
        assert!(scattered.seconds() > 3.0 * streaming.seconds());
    }
}
