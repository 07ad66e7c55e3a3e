//! bfloat16 ("brain float") emulated in software.
//!
//! bf16 keeps the full 8-bit exponent of `f32` with a 7-bit mantissa, i.e. it
//! is literally the upper 16 bits of an `f32` with round-to-nearest-even on
//! the truncated half.

/// A bfloat16 value stored as its raw bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Bf16(pub u16);

impl Bf16 {
    /// Convert from `f32` with round-to-nearest-even.
    pub(crate) fn from_f32(value: f32) -> Bf16 {
        let bits = value.to_bits();
        if value.is_nan() {
            // Quiet NaN with preserved sign.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        let round_bit = 0x0000_8000u32;
        let lower = bits & 0xFFFF;
        let upper = bits >> 16;
        let mut out = upper;
        if (lower & round_bit) != 0 && ((lower & (round_bit - 1)) != 0 || (upper & 1) != 0) {
            out += 1; // carry into exponent handles overflow to infinity
        }
        Bf16(out as u16)
    }

    /// Widen to `f32` exactly.
    pub(crate) fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    #[cfg(test)]
    pub(crate) const fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[cfg(test)]
    pub(crate) const fn from_bits(bits: u16) -> Bf16 {
        Bf16(bits)
    }

    /// True for any NaN payload.
    #[cfg(test)]
    pub(crate) fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }

    /// True for ±∞.
    #[cfg(test)]
    pub(crate) fn is_infinite(self) -> bool {
        self.to_f32().is_infinite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Bf16::from_f32(1.0).to_bits(), 0x3F80);
        assert_eq!(Bf16::from_f32(-1.0).to_bits(), 0xBF80);
        assert_eq!(Bf16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_bits(), 0x7F80);
    }

    #[test]
    fn wide_dynamic_range_survives() {
        // bf16 keeps f32 range: values that overflow f16 survive in bf16.
        for &x in &[1e20f32, 1e-20, 3e38, 1.2e-38] {
            let b = Bf16::from_f32(x);
            assert!(b.to_f32().is_finite() && b.to_f32() != 0.0, "x={x}");
            let rel = ((b.to_f32() - x) / x).abs();
            assert!(rel <= 1.0 / 256.0, "x={x} rel={rel}");
        }
    }

    #[test]
    fn roundtrip_finite_bit_patterns() {
        for bits in 0u16..=0xFFFF {
            let b = Bf16::from_bits(bits);
            if b.is_nan() {
                continue;
            }
            assert_eq!(Bf16::from_f32(b.to_f32()).to_bits(), bits);
        }
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-8 is halfway between 1.0 and 1 + 2^-7 → stays at 1.0.
        let x = f32::from_bits(0x3F80_8000);
        assert_eq!(Bf16::from_f32(x).to_bits(), 0x3F80);
        // Next representable above the tie rounds up.
        let y = f32::from_bits(0x3F80_8001);
        assert_eq!(Bf16::from_f32(y).to_bits(), 0x3F81);
    }

    #[test]
    fn overflow_carries_to_infinity() {
        // Largest finite bf16 is 0x7F7F; an f32 just below 2^128 with
        // mantissa bits beyond bf16 rounds up to infinity.
        let x = f32::from_bits(0x7F7F_FFFF);
        assert!(Bf16::from_f32(x).is_infinite());
    }

    #[test]
    fn nan_is_preserved() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn coarser_than_f16_near_one() {
        let x = 1.003f32;
        let e_bf = (Bf16::from_f32(x).to_f32() - x).abs();
        let e_f16 = (crate::F16::from_f32(x).to_f32() - x).abs();
        assert!(e_bf >= e_f16);
    }
}
