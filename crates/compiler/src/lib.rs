//! # mako-compiler
//!
//! CompilerMako (paper §3.3): a compiler-inspired framework that turns ERI
//! kernel generation into a planning + tuning problem.
//!
//! ERI instances grouped by angular momentum and contraction degree follow a
//! finite set of static execution patterns (an [`mako_eri::EriClass`] is the
//! pattern key). For each class this crate:
//!
//! 1. runs **Reuse-Guided Planning** ([`planner`]): enumerates fusion
//!    strategies, computes the live-tensor shared-memory footprint
//!    `S(F) = Σ Size(T)` (Eq. 12), rejects plans violating the occupancy
//!    constraint `S(F) ≤ SMEM_max / 2` (Eq. 13), and ranks the survivors by
//!    modeled global traffic and launch count;
//! 2. runs **Architecture-Tuned Compilation** ([`tuner`], Algorithm 2):
//!    sweeps threadblock shapes, layouts, and ILP factors 1..32, re-planning
//!    fusion per threadblock shape, scoring each candidate under the
//!    device cost model (the stand-in for CUTLASS Profiler wall clocks);
//! 3. caches the winning configuration per (class, precision, device) in a
//!    process-wide [`tuner::KernelCache`].
#![forbid(unsafe_code)]

pub mod planner;
pub mod tuner;
pub use tuner::{tune_class, KernelCache, TunedKernel};
