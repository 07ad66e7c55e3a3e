//! Dual-Stage Accumulation (paper §3.2.2).
//!
//! Stage 1: the FP16 basis-transformation outputs accumulate in FP32 and are
//! rescaled by the inverse quantization factors (this happens inside
//! `mako_linalg::gemm_rounded_engine`).
//!
//! Stage 2: integral contributions accumulate into **FP64** Fock buffers —
//! the Fock matrix is maintained at full double precision throughout the
//! pipeline regardless of how the integrals were produced. This module
//! provides that second stage, plus a deliberately degraded single-stage
//! variant used by the ablation benches to show why the design matters.

/// FP64 accumulation buffer fed by (possibly low-precision) contributions —
/// the Fock-stage accumulator.
#[derive(Debug, Clone)]
pub struct DualStageAccumulator {
    buf: Vec<f64>,
}

impl DualStageAccumulator {
    /// Zeroed accumulator of length `n`.
    pub fn new(n: usize) -> DualStageAccumulator {
        DualStageAccumulator { buf: vec![0.0; n] }
    }

    /// Stage-2 accumulate: `buf[i] += contribution` in FP64. The
    /// contribution is expected to be an already-dequantized stage-1 result.
    pub fn add(&mut self, i: usize, contribution: f64) {
        self.buf[i] += contribution;
    }

    /// Accumulate a whole slice.
    pub fn add_slice(&mut self, contributions: &[f64]) {
        assert_eq!(contributions.len(), self.buf.len());
        for (b, c) in self.buf.iter_mut().zip(contributions) {
            *b += c;
        }
    }

    /// The accumulated FP64 values.
    pub fn values(&self) -> &[f64] {
        &self.buf
    }

    /// Consume into the buffer.
    pub fn into_values(self) -> Vec<f64> {
        self.buf
    }
}

/// Ablation foil: accumulate everything in FP32, including the running
/// total (what a precision-naive port would do). Exposes the drift that
/// dual-stage accumulation avoids.
#[derive(Debug, Clone)]
pub struct SingleStageF32Accumulator {
    buf: Vec<f32>,
}

impl SingleStageF32Accumulator {
    /// Zeroed accumulator of length `n`.
    pub fn new(n: usize) -> SingleStageF32Accumulator {
        SingleStageF32Accumulator { buf: vec![0.0; n] }
    }

    /// FP32 accumulate.
    pub fn add(&mut self, i: usize, contribution: f64) {
        self.buf[i] += contribution as f32;
    }

    /// Widen the result.
    pub fn values(&self) -> Vec<f64> {
        self.buf.iter().map(|&x| x as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp64_stage_preserves_small_contributions() {
        // Accumulate 1e6 contributions of 1e-8 on top of an initial 1.0:
        // FP32 running totals stall (1.0 + 1e-8 rounds to 1.0), FP64 doesn't.
        let n = 1usize;
        let mut dual = DualStageAccumulator::new(n);
        let mut single = SingleStageF32Accumulator::new(n);
        dual.add(0, 1.0);
        single.add(0, 1.0);
        for _ in 0..1_000_000 {
            dual.add(0, 1e-8);
            single.add(0, 1e-8);
        }
        let exact = 1.0 + 1e-2;
        let err_dual = (dual.values()[0] - exact).abs();
        let err_single = (single.values()[0] - exact).abs();
        assert!(err_dual < 1e-9, "dual-stage error {err_dual}");
        assert!(
            err_single > 1e-3,
            "single-stage FP32 must visibly stall: {err_single}"
        );
    }

    #[test]
    fn slice_accumulation_matches_elementwise() {
        let mut a = DualStageAccumulator::new(4);
        let mut b = DualStageAccumulator::new(4);
        let contributions = [0.1, -0.2, 0.3, 0.4];
        a.add_slice(&contributions);
        for (i, &c) in contributions.iter().enumerate() {
            b.add(i, c);
        }
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn into_values_roundtrip() {
        let mut a = DualStageAccumulator::new(2);
        a.add(1, 2.5);
        assert_eq!(a.clone().into_values(), vec![0.0, 2.5]);
    }
}
