//! Device specifications for the simulated accelerators.
//!
//! The A100 numbers reproduce Table 1 of the paper plus public datasheet
//! values for memory bandwidth, SM count and shared memory. Other devices are
//! included to exercise CompilerMako's architecture portability story.

use mako_precision::Precision;

/// Well-known device models the simulator ships with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// NVIDIA A100-SXM4-40GB (Ampere, CC 8.0) — the paper's test vehicle.
    A100_40G,
    /// NVIDIA A100-SXM4-80GB (Ampere, CC 8.0).
    A100_80G,
    /// NVIDIA V100-SXM2-16GB (Volta, CC 7.0) — no FP64 tensor cores, no TF32.
    V100,
    /// NVIDIA H100-SXM5-80GB (Hopper, CC 9.0).
    H100,
}

/// Peak arithmetic throughput and machine geometry of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Device family tag.
    pub kind: DeviceKind,
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// Shared memory usable per SM, bytes (A100: 164 KiB configurable).
    pub smem_per_sm: usize,
    /// Maximum threads resident per SM.
    pub(crate) max_threads_per_sm: usize,
    /// Shared-memory banks (32 on all NVIDIA parts).
    pub(crate) smem_banks: usize,
    /// HBM bandwidth, bytes/second.
    pub mem_bandwidth: f64,
    /// Kernel launch latency, seconds.
    pub launch_latency: f64,
    /// Peak tensor-core throughput per precision, FLOP/s. Zero where the
    /// architecture has no tensor path for that format.
    tensor_tflops: [f64; 5],
    /// Peak CUDA-core (general SIMT) throughput per precision, FLOP/s.
    cuda_tflops: [f64; 5],
}

const fn idx(p: Precision) -> usize {
    match p {
        Precision::Fp64 => 0,
        Precision::Fp32 => 1,
        Precision::Tf32 => 2,
        Precision::Bf16 => 3,
        Precision::Fp16 => 4,
    }
}

const T: f64 = 1.0e12;

impl DeviceSpec {
    /// Construct the spec for a known device.
    pub fn new(kind: DeviceKind) -> DeviceSpec {
        match kind {
            DeviceKind::A100_40G | DeviceKind::A100_80G => DeviceSpec {
                name: if kind == DeviceKind::A100_40G {
                    "NVIDIA A100-SXM4-40GB"
                } else {
                    "NVIDIA A100-SXM4-80GB"
                },
                kind,
                num_sms: 108,
                smem_per_sm: 164 * 1024,
                max_threads_per_sm: 2048,
                smem_banks: 32,
                mem_bandwidth: if kind == DeviceKind::A100_40G {
                    1.555e12
                } else {
                    2.039e12
                },
                launch_latency: 4.0e-6,
                // Table 1: FP64 19.5 / FP32(TF32) 156 / BF16 312 / FP16 312.
                tensor_tflops: [19.5 * T, 156.0 * T, 156.0 * T, 312.0 * T, 312.0 * T],
                // Table 1: FP64 9.7 / FP32 19.5 / BF16 78 / FP16 78.
                cuda_tflops: [9.7 * T, 19.5 * T, 19.5 * T, 78.0 * T, 78.0 * T],
            },
            DeviceKind::V100 => DeviceSpec {
                name: "NVIDIA V100-SXM2-16GB",
                kind,
                num_sms: 80,
                smem_per_sm: 96 * 1024,
                max_threads_per_sm: 2048,
                smem_banks: 32,
                mem_bandwidth: 0.9e12,
                launch_latency: 5.0e-6,
                // Volta tensor cores: FP16 only (125 TFLOPS).
                tensor_tflops: [0.0, 0.0, 0.0, 0.0, 125.0 * T],
                cuda_tflops: [7.8 * T, 15.7 * T, 15.7 * T, 31.4 * T, 31.4 * T],
            },
            DeviceKind::H100 => DeviceSpec {
                name: "NVIDIA H100-SXM5-80GB",
                kind,
                num_sms: 132,
                smem_per_sm: 228 * 1024,
                max_threads_per_sm: 2048,
                smem_banks: 32,
                mem_bandwidth: 3.35e12,
                launch_latency: 3.0e-6,
                // Dense (no sparsity) datasheet numbers.
                tensor_tflops: [67.0 * T, 494.0 * T, 494.0 * T, 989.0 * T, 989.0 * T],
                cuda_tflops: [34.0 * T, 67.0 * T, 67.0 * T, 134.0 * T, 134.0 * T],
            },
        }
    }

    /// The paper's baseline device.
    pub fn a100() -> DeviceSpec {
        DeviceSpec::new(DeviceKind::A100_40G)
    }

    /// Peak tensor-core FLOP/s for a precision (0.0 if unsupported).
    pub fn tensor_peak(&self, p: Precision) -> f64 {
        self.tensor_tflops[idx(p)]
    }

    /// Peak CUDA-core FLOP/s for a precision.
    pub fn cuda_peak(&self, p: Precision) -> f64 {
        self.cuda_tflops[idx(p)]
    }

    /// Tensor-over-CUDA speedup factor for a precision (Table 1's last
    /// column).
    #[cfg(test)]
    pub(crate) fn tensor_speedup(&self, p: Precision) -> f64 {
        let c = self.cuda_peak(p);
        if c == 0.0 {
            0.0
        } else {
            self.tensor_peak(p) / c
        }
    }

    /// Render the Table 1 rows for this device (precision, tensor, CUDA,
    /// speedup) — consumed by the `table1_device_specs` bench target.
    pub fn table1_rows(&self) -> Vec<(String, f64, f64, f64)> {
        [
            (Precision::Fp64, "FP64"),
            (Precision::Fp32, "FP32/TF32"),
            (Precision::Bf16, "BF16"),
            (Precision::Fp16, "FP16"),
        ]
        .iter()
        .map(|&(p, label)| {
            let tensor = if p == Precision::Fp32 {
                self.tensor_peak(Precision::Tf32)
            } else {
                self.tensor_peak(p)
            };
            (
                label.to_string(),
                tensor / T,
                self.cuda_peak(p) / T,
                if self.cuda_peak(p) > 0.0 {
                    tensor / self.cuda_peak(p)
                } else {
                    0.0
                },
            )
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_paper_table1() {
        let d = DeviceSpec::a100();
        assert_eq!(d.tensor_peak(Precision::Fp64), 19.5e12);
        assert_eq!(d.cuda_peak(Precision::Fp64), 9.7e12);
        assert_eq!(d.tensor_peak(Precision::Tf32), 156.0e12);
        assert_eq!(d.cuda_peak(Precision::Fp32), 19.5e12);
        assert_eq!(d.tensor_peak(Precision::Fp16), 312.0e12);
        assert_eq!(d.cuda_peak(Precision::Fp16), 78.0e12);
        // Speedup column: 2x, 8x, 4x, 4x.
        assert!((d.tensor_speedup(Precision::Fp64) - 2.0).abs() < 0.02);
        assert!((d.tensor_peak(Precision::Tf32) / d.cuda_peak(Precision::Fp32) - 8.0).abs() < 1e-9);
        assert!((d.tensor_speedup(Precision::Fp16) - 4.0).abs() < 1e-9);
        assert!((d.tensor_speedup(Precision::Bf16) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn table1_rows_shape() {
        let rows = DeviceSpec::a100().table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, "FP64");
        assert_eq!(rows[1].3, 8.0);
    }

    #[test]
    fn v100_lacks_fp64_tensor_cores() {
        let d = DeviceSpec::new(DeviceKind::V100);
        assert_eq!(d.tensor_peak(Precision::Fp64), 0.0);
        assert_eq!(d.tensor_peak(Precision::Tf32), 0.0);
        assert!(d.tensor_peak(Precision::Fp16) > 0.0);
    }

    #[test]
    fn h100_outruns_a100_everywhere() {
        let a = DeviceSpec::a100();
        let h = DeviceSpec::new(DeviceKind::H100);
        for &p in &[
            Precision::Fp64,
            Precision::Tf32,
            Precision::Bf16,
            Precision::Fp16,
        ] {
            assert!(h.tensor_peak(p) > a.tensor_peak(p), "{p}");
        }
        assert!(h.mem_bandwidth > a.mem_bandwidth);
    }

    #[test]
    fn fp16_tensor_vs_fp64_cuda_is_32x() {
        // The headline ratio motivating QuantMako: FP16 tensor ops are 32x
        // faster than FP64 CUDA ops (312 / 9.7).
        let d = DeviceSpec::a100();
        let r = d.tensor_peak(Precision::Fp16) / d.cuda_peak(Precision::Fp64);
        assert!(r > 30.0 && r < 34.0);
    }
}
