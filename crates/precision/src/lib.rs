//! # mako-precision
//!
//! Software-emulated reduced-precision arithmetic for the Mako quantum
//! chemistry system.
//!
//! The Mako paper (SC '25) executes the basis-transformation GEMMs of the
//! electron-repulsion-integral (ERI) pipeline on NVIDIA tensor cores in FP16 /
//! BF16 / TF32, accumulating in FP32 (QuantMako, §3.2). No tensor-core
//! hardware is available to this reproduction, so this crate provides
//! **bit-exact software emulation** of those formats: conversions use IEEE
//! round-to-nearest-even including subnormals and overflow-to-infinity, so the
//! quantization error measured by the benchmark harness is the *actual*
//! reduced-precision arithmetic error, not a noise model.
//!
//! The crate also provides the scale rule of QuantMako's *Fine-Grained
//! Quantization* ([`ScalePolicy::scale`]): per-angular-momentum-group scale
//! factors that align each data block's dynamic range with the FP16
//! representable range, and the error statistics (RMSE / MAE / max) used by
//! Table 2 and Table 3 of the paper.

pub mod bf16;
pub mod f16;
pub mod quantize;
pub mod stats;
pub mod tf32;

pub use bf16::Bf16;
pub use f16::F16;
pub use quantize::ScalePolicy;
pub use stats::{mae, max_abs_err, rmse, ErrorStats};
pub use tf32::tf32_round;

/// The numeric formats supported by the (simulated) tensor-core units.
///
/// Mirrors the rows of Table 1 in the paper: each format has a distinct peak
/// throughput on the device model in `mako-accel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE binary64. The scientific reference precision.
    Fp64,
    /// IEEE binary32.
    Fp32,
    /// NVIDIA TF32: FP32 range (8-bit exponent) with a 10-bit mantissa.
    Tf32,
    /// bfloat16: FP32 range with a 7-bit mantissa.
    Bf16,
    /// IEEE binary16.
    Fp16,
}

impl Precision {
    /// Bytes occupied by one element when stored in this format.
    ///
    /// TF32 is stored in 32-bit containers on real hardware, and we model the
    /// same footprint.
    pub const fn size_bytes(self) -> usize {
        match self {
            Precision::Fp64 => 8,
            Precision::Fp32 | Precision::Tf32 => 4,
            Precision::Bf16 | Precision::Fp16 => 2,
        }
    }

    /// Largest finite representable magnitude.
    pub fn max_finite(self) -> f64 {
        match self {
            Precision::Fp64 => f64::MAX,
            Precision::Fp32 => f32::MAX as f64,
            Precision::Tf32 => f32::MAX as f64,
            Precision::Bf16 => 3.3895313892515355e38,
            Precision::Fp16 => 65504.0,
        }
    }

    /// Round a double-precision value through this format and back.
    ///
    /// This is the single code path every simulated kernel uses to model
    /// storage in a low-precision operand: `Fp64` is the identity, everything
    /// else loses exactly the bits the real format would lose.
    pub fn round(self, x: f64) -> f64 {
        match self {
            Precision::Fp64 => x,
            Precision::Fp32 => x as f32 as f64,
            Precision::Tf32 => tf32_round(x as f32) as f64,
            Precision::Bf16 => Bf16::from_f32(x as f32).to_f32() as f64,
            Precision::Fp16 => F16::from_f32(x as f32).to_f32() as f64,
        }
    }

    /// Batched [`Precision::round`] of `x · scale`, appended to `dst` — the
    /// hot "load a pre-scaled operand block into tensor-core registers" step
    /// of the quartet pipeline.
    ///
    /// Semantically identical to
    /// `dst.extend(src.iter().map(|&x| self.round(x * scale)))`; the `Fp16`
    /// case additionally takes a hardware fast path (F16C `VCVTPS2PH`, where
    /// the host has it) that is bit-identical to the software converter for
    /// every input, NaN and Inf included (see
    /// [`f16::round_scaled_extend_f16`]).
    pub fn round_scaled_extend(self, scale: f64, src: &[f64], dst: &mut Vec<f64>) {
        match self {
            Precision::Fp16 => f16::round_scaled_extend_f16(scale, src, dst),
            _ => dst.extend(src.iter().map(|&x| self.round(x * scale))),
        }
    }

    /// Short lowercase name used in benchmark output rows.
    pub const fn name(self) -> &'static str {
        match self {
            Precision::Fp64 => "fp64",
            Precision::Fp32 => "fp32",
            Precision::Tf32 => "tf32",
            Precision::Bf16 => "bf16",
            Precision::Fp16 => "fp16",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Fp64.size_bytes(), 8);
        assert_eq!(Precision::Fp32.size_bytes(), 4);
        assert_eq!(Precision::Tf32.size_bytes(), 4);
        assert_eq!(Precision::Fp16.size_bytes(), 2);
        assert_eq!(Precision::Bf16.size_bytes(), 2);
    }

    #[test]
    fn fp64_round_is_identity() {
        for &x in &[0.0, -1.5, 1e300, f64::MIN_POSITIVE, -0.0] {
            assert_eq!(Precision::Fp64.round(x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn round_orders_by_mantissa_bits() {
        // A value with a long mantissa loses more as the format narrows.
        let x = 1.0 + std::f64::consts::PI * 1e-3;
        let e64 = (Precision::Fp64.round(x) - x).abs();
        let e32 = (Precision::Fp32.round(x) - x).abs();
        let etf = (Precision::Tf32.round(x) - x).abs();
        let e16 = (Precision::Fp16.round(x) - x).abs();
        let eb16 = (Precision::Bf16.round(x) - x).abs();
        assert!(e64 <= e32 && e32 <= etf && etf <= e16 && e16 <= eb16);
    }

    #[test]
    fn max_finite_matches_round_saturation() {
        // Values beyond max_finite overflow to infinity when rounded.
        let m = Precision::Fp16.max_finite();
        assert!(Precision::Fp16.round(m).is_finite());
        assert!(Precision::Fp16.round(m * 1.01).is_infinite());
    }
}
