//! # mako-quant
//!
//! QuantMako (paper §3.2): physics-informed quantization for the ERI
//! pipeline.
//!
//! The three components map onto this workspace as follows:
//!
//! * **Fine-Grained Quantization** — per-angular-momentum-group operand
//!   scaling lives in `mako-precision` ([`mako_precision::GroupQuantizer`])
//!   and is applied inside the pipelines of `mako-kernels`
//!   (`ScalePolicy::PerGroup`); this crate re-exports the pieces and adds
//!   the per-class scale selection used by the SCF driver.
//! * **Dual-Stage Accumulation** — [`accumulate::DualStageAccumulator`]:
//!   FP32 accumulation + dequantization at the integral stage, FP64
//!   accumulation at the Fock stage.
//! * **Convergence-Aware Scheduling** — [`scheduler::QuantSchedule`]:
//!   density-weighted Schwarz classification of quartet batches into
//!   FP64 / quantized / pruned, with thresholds that relax in early SCF
//!   iterations and tighten as the DIIS residual shrinks.
#![forbid(unsafe_code)]

pub mod accumulate;
pub mod scheduler;

pub use accumulate::DualStageAccumulator;
pub use scheduler::{ExecClass, QuantSchedule, SchedulePhase};

pub use mako_precision::{GroupQuantizer, QuantizedBlock, ScalePolicy};
