//! Operand rounding: the "load into tensor-core registers" half of the
//! numerical model of a tensor-core MMA.
//!
//! A tensor core rounds its *operands* to the input format (FP16/BF16/TF32)
//! and accumulates the products in FP32 (or FP64 for the FP64 MMA). The
//! pipelines model that in two steps: operands pass through
//! [`mako_precision::Precision::round`] here (pre-scaled per QuantMako's
//! fine-grained quantization, loop-invariant operands once per pair rather
//! than once per product), and the rounded slices go to
//! [`mako_linalg::gemm_rounded_engine`], which accumulates in the accumulator
//! precision and de-scales the result — the first stage of the paper's
//! Dual-Stage Accumulation.

use mako_precision::Precision;

/// Round `src`, pre-scaled by `scale`, into `dst` (overwritten) — the
/// "load into tensor-core registers" step, split out so pipelines can
/// pre-round loop-invariant operands once per pair. Delegates to the batched
/// converter in `mako-precision` (hardware F16C on hosts that have it,
/// bit-identical to the scalar path).
pub(crate) fn round_into(input: Precision, scale: f64, src: &[f64], dst: &mut Vec<f64>) {
    dst.clear();
    input.round_scaled_extend(scale, src, dst);
}
