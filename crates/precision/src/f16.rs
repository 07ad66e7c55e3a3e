//! IEEE 754 binary16 ("half precision") emulated in software.
//!
//! Conversions implement round-to-nearest-even exactly, including subnormal
//! results and overflow to infinity, matching what an NVIDIA tensor core does
//! when an FP32 value is stored into an FP16 operand register.

/// A half-precision floating point number stored as its raw bit pattern.
///
/// The type only converts: tensor-core-style FP32 accumulation is modeled by
/// the GEMM kernels, which keep the partial sums in `f32` and only round the
/// *inputs*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct F16(pub u16);

#[cfg(test)]
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Convert from `f32` with IEEE round-to-nearest-even.
    pub(crate) fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Widen to `f32` exactly.
    pub(crate) fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widen to `f64` exactly.
    #[cfg(test)]
    pub(crate) fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Raw bit pattern.
    #[cfg(test)]
    pub(crate) const fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[cfg(test)]
    pub(crate) const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// True for ±∞.
    #[cfg(test)]
    pub(crate) const fn is_infinite(self) -> bool {
        self.0 & 0x7FFF == 0x7C00
    }

    /// True for any NaN payload.
    #[cfg(test)]
    pub(crate) const fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }
}

/// Convert an `f32` bit pattern to the nearest `f16` bit pattern
/// (round-to-nearest, ties-to-even).
pub(crate) fn f32_to_f16_bits(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let abs = x & 0x7FFF_FFFF;

    // NaN / infinity.
    if abs >= 0x7F80_0000 {
        return if abs > 0x7F80_0000 {
            // Quiet NaN, preserving the sign; force a nonzero payload.
            sign | 0x7E00
        } else {
            sign | 0x7C00
        };
    }

    let unbiased_exp = ((abs >> 23) as i32) - 127;
    let man = abs & 0x007F_FFFF;

    if unbiased_exp >= 16 {
        // Magnitude ≥ 2^16: rounds to infinity (max finite f16 is 65504).
        return sign | 0x7C00;
    }

    if unbiased_exp >= -14 {
        // Normal range. Keep the top 10 mantissa bits, round on bit 12.
        let half_exp = ((unbiased_exp + 15) as u16) << 10;
        let half_man = (man >> 13) as u16;
        let mut out = sign | half_exp | half_man;
        let round_bit = 0x0000_1000u32;
        if (man & round_bit) != 0 && ((man & (round_bit - 1)) != 0 || (half_man & 1) != 0) {
            // Carry may propagate into the exponent; for 65504 < |x| < 65536
            // this correctly produces infinity.
            out += 1;
        }
        return out;
    }

    if unbiased_exp < -25 {
        // Below half of the smallest subnormal quantum: flush to signed zero.
        return sign;
    }

    // Subnormal result: value = (implicit1.man) * 2^unbiased_exp, quantum 2^-24.
    let man = man | 0x0080_0000;
    let shift = (-1 - unbiased_exp) as u32; // in 14..=24
    let half_man = (man >> shift) as u16;
    let round_bit = 1u32 << (shift - 1);
    let mut out = sign | half_man;
    if (man & round_bit) != 0 && ((man & (round_bit - 1)) != 0 || (half_man & 1) != 0) {
        out += 1; // may promote the smallest normal, which is correct
    }
    out
}

/// Batched `round(x · scale)` through f16 storage, appended to `dst`:
/// each element is `F16::from_f32((x * scale) as f32)` widened back to `f64`
/// (two roundings, f64→f32→f16, as data reaches tensor cores through an
/// FP32 staging buffer).
///
/// On x86-64 hosts with F16C + AVX this uses the hardware converter
/// (`VCVTPD2PS` → `VCVTPS2PH` round-to-nearest-even → widen back), which
/// implements the same IEEE conversion as [`f32_to_f16_bits`]: identical
/// bits for every finite, subnormal, and infinite input. NaNs are the one
/// class where the instructions differ from the software converter (hardware
/// propagates mantissa payload bits, software canonicalizes to `0x7E00`), so
/// the SIMD body detects NaN lanes *after* the scale multiply and reroutes
/// that group through the scalar expression — the output is bit-identical to
/// the scalar software converter for **every** input, NaN and Inf included.
///
/// The branch is chosen by F16C detection alone: `MAKO_KERNEL` selects only
/// the GEMM microkernel (`mako_linalg::microkernel`), so on an F16C host a
/// `MAKO_KERNEL=generic` run still takes the hardware path here and never
/// runs the scalar converter end to end. What pins the two paths to each
/// other is the unit tests: `hardware_path_matches_software_bitwise` checks
/// the finite/Inf equivalence exhaustively over the f16 range and
/// `nan_inf_payloads_match_scalar_bitwise` the NaN/Inf edge cases at every
/// lane offset.
pub(crate) fn round_scaled_extend_f16(scale: f64, src: &[f64], dst: &mut Vec<f64>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("f16c") && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the required target features were just detected.
        unsafe { round_scaled_extend_f16c(scale, src, dst) };
        return;
    }
    dst.extend(
        src.iter()
            .map(|&x| f16_bits_to_f32(f32_to_f16_bits((x * scale) as f32)) as f64),
    );
}

/// F16C body of [`round_scaled_extend_f16`]: 4 lanes per iteration, scalar
/// software tail. Every step is a correctly-rounded IEEE conversion, so the
/// lanes match the scalar path bit for bit — except NaN payloads, which
/// `VCVTPS2PH` propagates while [`f32_to_f16_bits`] canonicalizes. Any
/// 4-lane group whose scaled values contain a NaN is therefore rerouted
/// through the scalar expression, keeping hardware and generic runs bitwise
/// identical on every input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn round_scaled_extend_f16c(scale: f64, src: &[f64], dst: &mut Vec<f64>) {
    use std::arch::x86_64::*;
    let n = src.len();
    dst.reserve(n);
    let s = _mm256_set1_pd(scale);
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the load; `reserve(n)` above bounds
        // the store; both intrinsics are unaligned-tolerant.
        unsafe {
            let x = _mm256_loadu_pd(src.as_ptr().add(i));
            let scaled = _mm256_mul_pd(x, s); // one f64 multiply, as scalar
            // `x != x` is true only for NaN lanes; a NaN can appear from a
            // NaN input, a NaN scale, or 0 × ∞ — all caught post-multiply.
            let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(scaled, scaled);
            if _mm256_movemask_pd(unord) != 0 {
                for &x in &src[i..i + 4] {
                    dst.push(f16_bits_to_f32(f32_to_f16_bits((x * scale) as f32)) as f64);
                }
                i += 4;
                continue;
            }
            let narrow = _mm256_cvtpd_ps(scaled); // f64→f32 RN (== `as f32`)
            let half = _mm_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(narrow);
            let back = _mm_cvtph_ps(half); // exact widening
            let wide = _mm256_cvtps_pd(back); // exact widening
            let len = dst.len();
            _mm256_storeu_pd(dst.as_mut_ptr().add(len), wide);
            dst.set_len(len + 4);
        }
        i += 4;
    }
    for &x in &src[i..] {
        dst.push(f16_bits_to_f32(f32_to_f16_bits((x * scale) as f32)) as f64);
    }
}

/// Convert an `f16` bit pattern to `f32` exactly.
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1F;
    let man = (h & MAN_MASK) as u32;
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: man * 2^-24.
        let v = man as f32 * f32::from_bits(0x3380_0000);
        return f32::from_bits(v.to_bits() | sign);
    }
    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (man << 13));
    }
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (man << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048i32 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "integer {i}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(-f32::INFINITY).to_bits(), 0xFC00);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        // 2^-24 = smallest subnormal
        assert_eq!(F16::from_f32(5.9604645e-8).to_bits(), 0x0001);
        // 2^-14 = smallest normal
        assert_eq!(F16::from_f32(6.103_515_6e-5).to_bits(), 0x0400);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // 65520 is exactly halfway between 65504 and 65536 → ties to even →
        // rounds up to "65536" which is infinity.
        assert!(F16::from_f32(65520.0).is_infinite());
        // Just below the halfway point stays at MAX.
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7BFF);
        assert!(F16::from_f32(1e9).is_infinite());
    }

    #[test]
    fn underflow_flushes_to_zero() {
        // Half of the smallest subnormal is a tie → even → zero.
        assert_eq!(F16::from_f32(2.9802322e-8).to_bits(), 0x0000);
        // Slightly above the tie rounds to the smallest subnormal.
        assert_eq!(F16::from_f32(3.0e-8).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(1e-20).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-20).to_bits(), 0x8000);
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 (1+2^-10):
        // ties to even keeps 1.0.
        assert_eq!(F16::from_f32(1.0 + 0.00048828125).to_bits(), 0x3C00);
        // (1 + 2^-10) + 2^-11 is halfway and the lower neighbor is odd →
        // rounds up to 1 + 2^-9.
        let x = 1.0 + 0.0009765625 + 0.00048828125;
        assert_eq!(F16::from_f32(x).to_bits(), 0x3C02);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn roundtrip_all_finite_f16_bit_patterns() {
        // Every finite f16 is exactly representable in f32 and must survive
        // the round trip bit-for-bit.
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    /// The batched converter (hardware F16C path where the host has it) must
    /// match the scalar software path bit for bit on every non-NaN input:
    /// all 2^16 exact f16 values, the rounding neighborhoods around each
    /// (±ε perturbations exercising the ties-to-even logic), the
    /// overflow/underflow boundaries, and a dense LCG sweep of f32 patterns.
    #[test]
    fn hardware_path_matches_software_bitwise() {
        let mut inputs: Vec<f64> = Vec::new();
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let v = h.to_f64();
            inputs.push(v);
            inputs.push(v * (1.0 + 3e-4)); // just above: round-down cases
            inputs.push(v * (1.0 - 3e-4)); // just below: round-up cases
            inputs.push(v * (1.0 + 2.44140625e-4)); // exact half-ulp: ties
        }
        for &b in &[65503.9, 65504.0, 65519.0, 65520.0, 65536.0, 1e30, -1e30] {
            inputs.push(b);
        }
        inputs.push(f64::INFINITY);
        inputs.push(f64::NEG_INFINITY);
        // Dense pseudo-random f32 patterns (finite only).
        let mut s = 0x9E3779B97F4A7C15u64;
        for _ in 0..200_000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let f = f32::from_bits((s >> 32) as u32);
            if f.is_finite() {
                inputs.push(f as f64);
            }
        }

        for &scale in &[1.0f64, 0.125, 3.0, 1.0e-3, 7.5e2] {
            let mut batched = Vec::new();
            round_scaled_extend_f16(scale, &inputs, &mut batched);
            assert_eq!(batched.len(), inputs.len());
            for (&x, &got) in inputs.iter().zip(&batched) {
                let want = f16_bits_to_f32(f32_to_f16_bits((x * scale) as f32)) as f64;
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "x={x:e} scale={scale}: batched {got:e} vs scalar {want:e}"
                );
            }
        }
    }

    /// NaN/Inf edge cases must be bit-identical between the batched
    /// converter (F16C where available) and the scalar software path:
    /// multiple NaN payloads of both signs, ±∞, NaN-producing products
    /// (0 × ∞, ∞ × 0-scale, NaN scale), each planted at every offset within
    /// a 4-lane SIMD group and in the scalar tail.
    #[test]
    fn nan_inf_payloads_match_scalar_bitwise() {
        let specials: Vec<f64> = vec![
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signaling-ish payload
            f64::from_bits(0x7FF8_DEAD_BEEF_CAFE), // quiet, nonzero payload
            f64::from_bits(0xFFF8_0000_0000_0123), // negative, small payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            65504.0,
            1.0e-300, // flushes to zero through f32
        ];
        for &special in &specials {
            for offset in 0..9 {
                // 9-long input: the special lands at `offset`, covering every
                // lane of both SIMD groups plus the scalar tail position.
                let mut input: Vec<f64> = (0..9).map(|k| 1.5 + k as f64).collect();
                input[offset] = special;
                for &scale in &[1.0f64, -0.25, 0.0, f64::INFINITY, f64::NAN] {
                    let mut batched = Vec::new();
                    round_scaled_extend_f16(scale, &input, &mut batched);
                    assert_eq!(batched.len(), input.len());
                    for (&x, &got) in input.iter().zip(&batched) {
                        let want =
                            f16_bits_to_f32(f32_to_f16_bits((x * scale) as f32)) as f64;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "x={x:e} ({:#018x}) scale={scale}: batched {:#018x} vs scalar {:#018x}",
                            x.to_bits(),
                            got.to_bits(),
                            want.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rounding_error_bounded_by_ulp() {
        // Relative error of normal-range rounding is at most 2^-11.
        let mut x = 1.000123f32;
        for _ in 0..200 {
            let r = F16::from_f32(x).to_f32();
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0, "x={x} r={r} rel={rel}");
            x *= 1.37;
            if x > 60000.0 {
                break;
            }
        }
    }
}
