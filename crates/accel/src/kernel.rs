//! Analytical kernel cost model.
//!
//! Every simulated kernel launch is described by a [`KernelProfile`]: how
//! many FLOPs it issues on the tensor pipes and the CUDA pipes (per
//! precision), how many bytes it moves to/from global memory, its
//! shared-memory footprint, threadblock geometry, ILP efficiency and
//! bank-conflict factor. A profile is plain `Copy` data — a static stage name
//! and one FLOP slot per pipe — so building and pricing one never touches the
//! heap; the tuner prices ~10² of them per sweep. The [`CostModel`] converts
//! a profile into simulated time with a roofline rule:
//!
//! ```text
//! t = launches · t_launch + max(t_compute, t_memory)
//! ```
//!
//! where compute and memory overlap inside one kernel (the paper's Figure 1b:
//! fusion "enables the overlap of computation and memory loading"). Unfused
//! pipelines are expressed as *several* profiles whose times add, so they pay
//! both the extra launches and the non-overlapped global traffic of their
//! intermediates.

use crate::device::DeviceSpec;
use crate::occupancy::{occupancy_fraction, throughput_fraction};
use mako_precision::Precision;

/// Work issued by one simulated kernel launch (or one batch of identical
/// launches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Stage label ("fused_eri", "transpose_r", …). The ERI class a launch
    /// belongs to is the caller's to report (trace spans carry it).
    pub name: &'static str,
    /// FLOPs executed on tensor cores and the precision they are issued at.
    pub tensor_flops: Option<(Precision, f64)>,
    /// FLOPs executed on CUDA cores and the precision they are issued at.
    pub cuda_flops: Option<(Precision, f64)>,
    /// Bytes read from global memory.
    pub global_read: f64,
    /// Bytes written to global memory.
    pub global_write: f64,
    /// Shared memory per threadblock, bytes.
    pub smem_per_block: usize,
    /// Threads per threadblock.
    pub threads_per_block: usize,
    /// Number of kernel launches this profile represents.
    pub launches: usize,
    /// Effective instruction-level-parallelism efficiency in (0, 1]:
    /// `BLP·TLP·ILP / (BLP·TLP)_optimal` of Eq. (8). Applied to CUDA-core
    /// work only (the non-MatMul operators that needed restructuring).
    pub ilp_efficiency: f64,
    /// Shared-memory bank-conflict slowdown (≥ 1) for the non-MatMul stages;
    /// 1.0 when the layout is swizzled.
    pub bank_conflict_factor: f64,
}

impl KernelProfile {
    /// A minimal profile with sane defaults (fully efficient, no traffic).
    pub const fn named(name: &'static str) -> KernelProfile {
        KernelProfile {
            name,
            tensor_flops: None,
            cuda_flops: None,
            global_read: 0.0,
            global_write: 0.0,
            smem_per_block: 0,
            threads_per_block: 128,
            launches: 1,
            ilp_efficiency: 1.0,
            bank_conflict_factor: 1.0,
        }
    }

    /// Total global-memory traffic in bytes.
    pub(crate) fn total_bytes(&self) -> f64 {
        self.global_read + self.global_write
    }
}

/// Timing breakdown of a simulated launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchRecord {
    /// Seconds spent in arithmetic (after efficiency factors).
    pub(crate) compute_s: f64,
    /// Seconds spent on global-memory traffic.
    pub(crate) memory_s: f64,
    /// Seconds of launch overhead.
    pub(crate) launch_s: f64,
    /// Simulated wall time: `launch + max(compute, memory)`.
    pub total_s: f64,
    /// Occupancy the launch achieved.
    pub(crate) occupancy: f64,
}

/// The roofline cost model bound to a device.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Device being modeled.
    pub device: DeviceSpec,
    /// Fraction of peak a well-tuned kernel reaches (CUTLASS-class kernels
    /// hit 85–95% of peak on large GEMMs; irregular code much less — callers
    /// encode that through `ilp_efficiency`).
    pub(crate) tuned_peak_fraction: f64,
}

impl CostModel {
    /// Cost model for a device with the default achievable-peak fraction.
    pub fn new(device: DeviceSpec) -> CostModel {
        CostModel {
            device,
            tuned_peak_fraction: 0.90,
        }
    }

    /// Evaluate a profile into a timing record.
    pub fn evaluate(&self, p: &KernelProfile) -> LaunchRecord {
        let occ = occupancy_fraction(&self.device, p.smem_per_block, p.threads_per_block);
        let tput = throughput_fraction(occ) * self.tuned_peak_fraction;

        let mut compute = 0.0f64;
        if tput > 0.0 {
            if let Some((prec, flops)) = p.tensor_flops {
                let peak = self.device.tensor_peak(prec);
                // Work routed to tensor cores on a device that lacks them
                // falls back to the CUDA pipes (what CUTLASS does on Volta
                // for FP64), at CUDA-core rates.
                let rate = if peak > 0.0 {
                    peak
                } else {
                    self.device.cuda_peak(prec)
                };
                compute += flops / (rate * tput);
            }
            if let Some((prec, flops)) = p.cuda_flops {
                let rate = self.device.cuda_peak(prec);
                let eff = p.ilp_efficiency.clamp(1e-3, 1.0);
                compute += flops * p.bank_conflict_factor / (rate * tput * eff);
            }
        } else {
            compute = f64::INFINITY;
        }

        let memory = p.total_bytes() / self.device.mem_bandwidth;
        let launch = p.launches as f64 * self.device.launch_latency;
        LaunchRecord {
            compute_s: compute,
            memory_s: memory,
            launch_s: launch,
            total_s: launch + compute.max(memory),
            occupancy: occ,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_profile(flops: f64, prec: Precision, bytes: f64) -> KernelProfile {
        let mut p = KernelProfile::named("test_gemm");
        p.tensor_flops = Some((prec, flops));
        p.global_read = bytes * 0.75;
        p.global_write = bytes * 0.25;
        p.smem_per_block = 32 * 1024;
        p.threads_per_block = 256;
        p
    }

    #[test]
    fn compute_bound_large_gemm() {
        let m = CostModel::new(DeviceSpec::a100());
        // 1 TFLOP of FP64 tensor work, tiny traffic → compute bound ≈
        // 1e12 / (19.5e12 * 0.9) ≈ 57 ms.
        let p = gemm_profile(1e12, Precision::Fp64, 1e6);
        let r = m.evaluate(&p);
        assert!(r.compute_s > r.memory_s);
        assert!((r.compute_s - 1e12 / (19.5e12 * 0.9)).abs() / r.compute_s < 1e-9);
    }

    #[test]
    fn fp16_is_16x_faster_than_fp64_tensor() {
        let m = CostModel::new(DeviceSpec::a100());
        let p64 = gemm_profile(1e12, Precision::Fp64, 0.0);
        let p16 = gemm_profile(1e12, Precision::Fp16, 0.0);
        let r = m.evaluate(&p64).compute_s / m.evaluate(&p16).compute_s;
        assert!((r - 16.0).abs() < 1e-6);
    }

    #[test]
    fn memory_bound_kernel() {
        let m = CostModel::new(DeviceSpec::a100());
        let p = gemm_profile(1e6, Precision::Fp64, 1e9); // 1 GB traffic
        let r = m.evaluate(&p);
        assert!(r.memory_s > r.compute_s);
        assert!((r.memory_s - 1e9 / 1.555e12).abs() < 1e-12);
        assert!(r.total_s >= r.memory_s);
    }

    #[test]
    fn launch_overhead_accumulates() {
        let m = CostModel::new(DeviceSpec::a100());
        let mut p = gemm_profile(0.0, Precision::Fp64, 0.0);
        p.launches = 1000;
        let r = m.evaluate(&p);
        assert!((r.launch_s - 1000.0 * 4.0e-6).abs() < 1e-12);
    }

    #[test]
    fn bank_conflicts_slow_cuda_work_only() {
        let m = CostModel::new(DeviceSpec::a100());
        let mut p = KernelProfile::named("transpose");
        p.cuda_flops = Some((Precision::Fp64, 1e11));
        p.smem_per_block = 32 * 1024;
        let fast = m.evaluate(&p).compute_s;
        p.bank_conflict_factor = 8.0;
        let slow = m.evaluate(&p).compute_s;
        assert!((slow / fast - 8.0).abs() < 1e-9);
    }

    #[test]
    fn ilp_efficiency_scales_cuda_time() {
        let m = CostModel::new(DeviceSpec::a100());
        let mut p = KernelProfile::named("pq_integrals");
        p.cuda_flops = Some((Precision::Fp64, 1e11));
        let full = m.evaluate(&p).compute_s;
        p.ilp_efficiency = 0.25;
        let degraded = m.evaluate(&p).compute_s;
        assert!((degraded / full - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fused_beats_unfused_pipeline() {
        // Three-stage pipeline: unfused pays 3 launches and writes/reads the
        // intermediate twice; fused keeps it on chip.
        let m = CostModel::new(DeviceSpec::a100());
        let inter = 2e8; // 200 MB intermediate
        let stage = |extra_rw: f64| {
            let mut p = gemm_profile(5e8, Precision::Fp64, 1e7 + extra_rw);
            p.launches = 1;
            p
        };
        let unfused: f64 = [stage(inter), stage(2.0 * inter), stage(inter)]
            .iter()
            .map(|p| m.evaluate(p).total_s)
            .sum();
        let mut fusedp = gemm_profile(1.5e9, Precision::Fp64, 3e7);
        fusedp.launches = 1;
        let fused = m.evaluate(&fusedp).total_s;
        assert!(fused * 2.0 < unfused, "fused {fused} unfused {unfused}");
    }

    #[test]
    fn v100_runs_fp64_tensor_work_on_cuda_pipes() {
        let m = CostModel::new(DeviceSpec::new(crate::DeviceKind::V100));
        let mut p = gemm_profile(1e12, Precision::Fp64, 0.0);
        // V100 has 96 KiB SMEM: widen threads so occupancy stays >= 50%.
        p.threads_per_block = 512;
        let r = m.evaluate(&p);
        assert!(r.compute_s.is_finite());
        // 7.8 TFLOPS CUDA FP64 at 90% → ≈ 0.1424 s
        assert!((r.compute_s - 1e12 / (7.8e12 * 0.9)).abs() / r.compute_s < 1e-9);
    }
}
