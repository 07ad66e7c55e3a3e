//! The scale rule of QuantMako's *Fine-Grained Quantization* (paper §3.2.1).
//!
//! The ERI basis-transformation operands span wide dynamic ranges across
//! angular-momentum classes. Scaling all inputs by a single global factor
//! makes the quantization sensitive to outliers; QuantMako instead groups the
//! data (by angular-momentum class, i.e. per ERI kernel) and applies a
//! dedicated scale per group so each block's magnitude range is aligned with
//! the FP16 representable range.
//!
//! [`ScalePolicy::scale`] is that rule. The quantized pipeline of
//! `mako-kernels` calls it for each class's `E` operands and for every
//! `[p|q]` and `(ab|q]` block, rounds `x · scale` with
//! [`Precision::round_scaled_extend`](crate::Precision::round_scaled_extend),
//! and folds `1 / scale` into the FP32-accumulating GEMM.

/// Largest magnitude an FP16 GEMM operand is scaled to: `sqrt(65504) / 4`.
/// Two operands each at most this keep every product ≤ 65504 / 16, safe
/// inside the MMA before the FP32 accumulator takes over.
pub const FP16_OPERAND_TARGET: f64 = 63.984_373_092_185_564;

/// How scale factors are assigned to data blocks.
// Explicit discriminants: the tuned-table digest hashes `policy as u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalePolicy {
    /// One scale per group (per angular-momentum class in Mako).
    PerGroup = 1,
    /// No scaling at all: raw cast to the target precision (baseline FP16 in
    /// Table 2).
    Unscaled = 2,
}

impl ScalePolicy {
    /// The factor a group whose largest magnitude is `max_abs` is multiplied
    /// by before rounding: [`FP16_OPERAND_TARGET`]` / max_abs` under
    /// `PerGroup`, and `1.0` under `Unscaled` or when `max_abs` is not
    /// positive (zero, or NaN).
    #[inline]
    pub fn scale(self, max_abs: f64) -> f64 {
        match self {
            ScalePolicy::PerGroup if max_abs > 0.0 => FP16_OPERAND_TARGET / max_abs,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Precision;

    fn max_abs(xs: &[f64]) -> f64 {
        xs.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Round `block` through FP16 at the scale `policy` gives `group_max`,
    /// then divide the scale back out — what a value experiences on the
    /// quantized GEMM operand path.
    fn roundtrip(policy: ScalePolicy, block: &[f64], group_max: f64) -> Vec<f64> {
        let s = policy.scale(group_max);
        let mut out = Vec::new();
        Precision::Fp16.round_scaled_extend(s, block, &mut out);
        out.iter().map(|&x| x / s).collect()
    }

    fn geometric_block(start: f64, ratio: f64, n: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(n);
        let mut x = start;
        for i in 0..n {
            v.push(if i % 2 == 0 { x } else { -x });
            x *= ratio;
        }
        v
    }

    #[test]
    fn target_is_sqrt_of_fp16_max_over_four() {
        assert_eq!(
            FP16_OPERAND_TARGET.to_bits(),
            (Precision::Fp16.max_finite().sqrt() / 4.0).to_bits()
        );
    }

    #[test]
    fn scale_is_one_when_unscaled_or_max_not_positive() {
        for m in [0.0, 1e-30, 1.0, 1e30] {
            assert_eq!(ScalePolicy::Unscaled.scale(m).to_bits(), 1.0f64.to_bits());
        }
        assert_eq!(ScalePolicy::PerGroup.scale(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(
            ScalePolicy::PerGroup.scale(f64::NAN).to_bits(),
            1.0f64.to_bits()
        );
    }

    #[test]
    fn per_group_scale_is_target_over_max_bit_for_bit() {
        for m in [1e-9, 0.37, 1.0, FP16_OPERAND_TARGET, 1.5e6] {
            assert_eq!(
                ScalePolicy::PerGroup.scale(m).to_bits(),
                (FP16_OPERAND_TARGET / m).to_bits()
            );
        }
    }

    #[test]
    fn per_group_beats_global_on_wide_range() {
        // Two groups with very different magnitudes: one scale from the
        // global max crushes the small group into FP16 noise, a scale from
        // the group's own max preserves it.
        let big = geometric_block(1.0e3, 1.01, 64);
        let small = geometric_block(1.0e-5, 1.01, 64);
        let gmax = max_abs(&big).max(max_abs(&small));

        let global = roundtrip(ScalePolicy::PerGroup, &small, gmax);
        let grouped = roundtrip(ScalePolicy::PerGroup, &small, max_abs(&small));

        let err_global = crate::rmse(&small, &global);
        let err_grouped = crate::rmse(&small, &grouped);
        assert!(
            err_grouped < err_global / 10.0,
            "grouped {err_grouped} vs global {err_global}"
        );
    }

    #[test]
    fn dequant_inverts_scale() {
        let block = vec![0.125, -0.25, 0.5];
        let back = roundtrip(ScalePolicy::PerGroup, &block, 0.5);
        for (i, (&x, &y)) in block.iter().zip(&back).enumerate() {
            let rel = ((y - x) / x).abs();
            assert!(rel < 1e-3, "i={i} rel={rel}");
        }
    }

    #[test]
    fn unscaled_policy_is_raw_cast() {
        let block = vec![1.0, 2.5, -3.25];
        assert_eq!(ScalePolicy::Unscaled.scale(100.0), 1.0);
        assert_eq!(roundtrip(ScalePolicy::Unscaled, &block, 100.0), block);
    }

    #[test]
    fn unscaled_underflows_tiny_values_where_grouped_does_not() {
        let tiny = vec![1e-9, -3e-9, 7e-10];
        let raw = roundtrip(ScalePolicy::Unscaled, &tiny, 3e-9);
        assert!(raw.iter().all(|&x| x == 0.0), "fp16 flushes 1e-9 to zero");
        let grouped = roundtrip(ScalePolicy::PerGroup, &tiny, 3e-9);
        for (a, b) in tiny.iter().zip(&grouped) {
            assert!(((a - b) / a).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_and_zero_blocks() {
        assert!(roundtrip(ScalePolicy::PerGroup, &[], 0.0).is_empty());
        assert_eq!(ScalePolicy::PerGroup.scale(max_abs(&[0.0; 8])), 1.0);
        assert!(roundtrip(ScalePolicy::PerGroup, &[0.0; 8], 0.0)
            .iter()
            .all(|&x| x == 0.0));
    }

    #[test]
    fn scale_keeps_products_in_range() {
        let block = geometric_block(1.0e6, 1.1, 32);
        let s = ScalePolicy::PerGroup.scale(max_abs(&block));
        let mut rounded = Vec::new();
        Precision::Fp16.round_scaled_extend(s, &block, &mut rounded);
        let m = max_abs(&rounded);
        // Scaled magnitudes must be ≤ target so any pairwise product fits
        // comfortably in FP16/FP32 range.
        assert!(m <= FP16_OPERAND_TARGET * 1.0001);
        assert!(m * m <= Precision::Fp16.max_finite());
    }
}
