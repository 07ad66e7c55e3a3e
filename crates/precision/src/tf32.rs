//! NVIDIA TF32 (TensorFloat-32) emulated in software.
//!
//! TF32 is the A100 tensor-core input format for FP32 workloads: an 8-bit
//! exponent (f32 range) with a 10-bit mantissa (f16 precision), stored in a
//! 32-bit container. Hardware rounds FP32 operands to TF32 on entry to the
//! MMA unit and accumulates in full FP32; `tf32_round` reproduces the
//! operand rounding with round-to-nearest-even.

/// Round an `f32` to TF32 precision (10 explicit mantissa bits),
/// round-to-nearest-even. Returns an ordinary `f32` carrying the reduced
/// mantissa, exactly as the hardware register does.
pub(crate) fn tf32_round(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let man = bits & 0x007F_FFFF;
    let keep_mask = !((1u32 << 13) - 1);
    let mut out = bits & keep_mask;
    let round_bit = 1u32 << 12;
    if (man & round_bit) != 0 && ((man & (round_bit - 1)) != 0 || ((bits >> 13) & 1) != 0) {
        // Carry may ripple into the exponent; overflow to infinity is correct.
        out = out.wrapping_add(1 << 13);
    }
    f32::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent() {
        for &x in &[1.2345678f32, -9.87e-12, 3.0e30, 0.0, -0.0] {
            let once = tf32_round(x);
            assert_eq!(tf32_round(once).to_bits(), once.to_bits());
        }
    }

    #[test]
    fn keeps_f32_range() {
        for &x in &[1e30f32, 1e-30, -2.5e38] {
            let r = tf32_round(x);
            assert!(r.is_finite());
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0);
        }
    }

    #[test]
    fn matches_f16_mantissa_near_one() {
        // Near 1.0 tf32 and f16 have identical mantissa grids.
        let x = 1.0 + 1.0 / 3.0;
        let t = tf32_round(x) as f64;
        let h = crate::F16::from_f32(x).to_f64();
        assert_eq!(t, h);
    }

    #[test]
    fn low_bits_cleared() {
        let r = tf32_round(std::f32::consts::PI);
        assert_eq!(r.to_bits() & 0x1FFF, 0);
    }

    #[test]
    fn tie_to_even() {
        // 1 + 2^-11 is exactly halfway between tf32 neighbors 1.0 and 1+2^-10.
        let x = f32::from_bits(0x3F80_1000);
        assert_eq!(tf32_round(x), 1.0);
        let y = f32::from_bits(0x3F80_1001);
        assert_eq!(tf32_round(y), f32::from_bits(0x3F80_2000));
    }

    #[test]
    fn products_exact_in_f32() {
        // TF32 × TF32 products are exact in f32 (11 + 11 significant bits
        // ≤ 24), which is why the MMA unit can accumulate them in FP32.
        let a = tf32_round(1.5 + 1.0 / 1024.0);
        let b = tf32_round(2.25 - 1.0 / 1024.0);
        assert_eq!((a * b) as f64, a as f64 * b as f64);
    }

    #[test]
    fn non_finite_passthrough() {
        assert!(tf32_round(f32::INFINITY).is_infinite());
        assert!(tf32_round(f32::NAN).is_nan());
    }
}
