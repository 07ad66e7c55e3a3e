//! # mako-accel
//!
//! A simulated tensor-core AI accelerator and multi-GPU cluster.
//!
//! The Mako paper measures its kernels on NVIDIA A100 GPUs (single-GPU
//! microbenchmarks, 8-GPU nodes, and a 64-GPU InfiniBand cluster). This
//! reproduction has no GPU, so this crate supplies the **device model** that
//! stands in for the hardware:
//!
//! * [`device::DeviceSpec`] — per-precision peak throughput of tensor cores
//!   vs CUDA cores (the paper's Table 1), SM count, shared-memory capacity,
//!   HBM bandwidth, and kernel-launch latency;
//! * [`kernel::KernelProfile`] + [`kernel::CostModel`] — an analytical
//!   roofline-style cost model: each simulated kernel declares its FLOPs per
//!   precision, its global-memory traffic, its shared-memory footprint and
//!   its launch count, and the model converts that into simulated time,
//!   applying occupancy, instruction-level-parallelism and bank-conflict
//!   efficiency factors;
//! * [`swizzle`] — the XOR layout-swizzle bijection of KernelMako §3.1.2 and
//!   a shared-memory bank-conflict counter used to price unswizzled layouts;
//! * [`occupancy`] — threadblock residency derived from the shared-memory
//!   constraint `S(F) ≤ SMEM_max/2` of CompilerMako §3.3.1;
//! * [`clock`] — the per-iteration device-clock ledger: simulated seconds
//!   charged per SCF iteration next to the evaluated / quantized / pruned
//!   quartet populations;
//! * [`cluster`] — the multi-GPU execution model: worklist partitioning,
//!   NVLink/InfiniBand ring-allreduce timing, and parallel-efficiency
//!   accounting for Figure 10;
//! * [`fault`] — deterministic fault injection for the simulated cluster:
//!   seeded [`fault::FaultPlan`]s (transient kernel failures, stragglers,
//!   permanent rank loss, allreduce timeouts) charged to the device clock,
//!   plus the [`fault::RecoveryLedger`] the recovery machinery reports.
//!
//! Numerical results never come from this crate — kernels execute their math
//! on the CPU; this crate only answers "how long would that launch have taken
//! on the modeled device".
#![forbid(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod device;
pub mod fault;
pub mod kernel;
pub mod occupancy;
pub mod swizzle;

pub use clock::{DeviceClock, EnsembleLedger, IterationLedger};
pub use cluster::{ClusterSpec, RingAllreduce};
pub use device::{DeviceKind, DeviceSpec};
pub use fault::{FaultConfig, FaultPlan, RankFaults, RecoveryLedger};
pub use kernel::{CostModel, KernelProfile, LaunchRecord};
pub use swizzle::{swizzle_xor, SmemLayout};
