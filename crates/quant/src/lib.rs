//! # mako-quant
//!
//! QuantMako (paper §3.2): physics-informed quantization for the ERI
//! pipeline.
//!
//! The three components map onto this workspace as follows:
//!
//! * **Fine-Grained Quantization** — the per-angular-momentum-group scale
//!   rule is [`mako_precision::ScalePolicy::scale`]; the quantized pipeline
//!   of `mako-kernels` applies it to every GEMM operand block
//!   (`ScalePolicy::PerGroup`).
//! * **Dual-Stage Accumulation** — the FP16 products accumulate in FP32 and
//!   are dequantized inside `mako_linalg::gemm_rounded_engine`; the integral
//!   contributions then accumulate into FP64 J/K in `mako-scf`'s
//!   `fock::digest_quartet`.
//! * **Convergence-Aware Scheduling** — [`scheduler::QuantSchedule`]:
//!   density-weighted Schwarz classification of quartet batches into
//!   FP64 / quantized / pruned, with thresholds that relax in early SCF
//!   iterations and tighten as the DIIS residual shrinks.
#![forbid(unsafe_code)]

pub mod scheduler;

pub use scheduler::{ExecClass, QuantSchedule};

pub use mako_precision::ScalePolicy;
