//! # mako-kernels
//!
//! KernelMako: the matrix-aligned ERI execution pipelines of the paper's
//! §3.1, running on the simulated accelerator of `mako-accel`.
//!
//! Every pipeline does two things at once:
//!
//! 1. **real numerics** — shell-quartet ERIs are actually computed (through
//!    the MMD machinery of `mako-eri`), with operand rounding applied
//!    wherever the modeled pipeline would store data in a reduced-precision
//!    register (so quantization error in the results is genuine);
//! 2. **cost accounting** — each batch emits [`mako_accel::KernelProfile`]s
//!    describing the launches, FLOPs per pipe/precision, global traffic,
//!    shared-memory footprint, ILP efficiency and bank-conflict factor the
//!    equivalent CUDA kernels would have, which the device model turns into
//!    simulated time.
//!
//! The pipeline variants reproduce the paper's design space:
//!
//! * [`FusionStrategy::Unfused`] — per-stage kernels with global-memory
//!   intermediates (the LibintX-like baseline of Figure 6);
//! * [`FusionStrategy::FuseRPq`] — r-integrals and `[p|q]` assembly fused,
//!   transforms separate;
//! * [`FusionStrategy::FuseAll`] — single fused kernel (KernelMako);
//! * [`FusionStrategy::FuseAllCoalesced`] — additionally coalesces the two
//!   back-to-back transform GEMMs when `K_AB = K_CD = 1` (§3.1.3, the
//!   high-angular-momentum case).
#![deny(rust_2018_idioms)]
#![forbid(unsafe_code)]


pub mod baselines;
pub mod pipeline;

pub use baselines::{gpu4pyscf_like_cost, quick_like_cost, LIBINTX_CONFIG};
pub use pipeline::{
    run_batch, simulate_batch_cost, BatchOutput, FusionStrategy, PipelineConfig,
};
