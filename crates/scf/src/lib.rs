//! # mako-scf
//!
//! The self-consistent-field / density-functional-theory driver of the Mako
//! reproduction: the end-to-end workflow the paper's Figures 8–10 measure.
//!
//! A DFT iteration has three stages (paper §2.1): ERI evaluation (via the
//! Mako pipelines of `mako-kernels`, scheduled by `mako-quant`), the
//! exchange-correlation treatment (numerical quadrature assembled as
//! triple-product MatMuls), and Fock-matrix diagonalization (the dense
//! symmetric eigensolver of `mako-linalg`). This crate provides:
//!
//! * [`fock`] — Coulomb/exchange (J/K) builds from screened shell-quartet
//!   batches with full 8-fold permutational symmetry, dual-stage
//!   accumulation into FP64 Fock buffers, and per-batch FP64/quantized/
//!   pruned scheduling;
//! * [`grid`] + [`xc`] — a molecular quadrature grid (Becke partitioning,
//!   Gauss-Chebyshev radial, Gauss-Legendre × uniform-φ angular) and the
//!   B3LYP exchange-correlation stack (Slater, VWN5, Becke88, LYP) with
//!   MatMul-style matrix assembly;
//! * [`diis`] — Pulay DIIS convergence acceleration;
//! * [`scf`] — restricted Hartree–Fock and restricted Kohn–Sham drivers
//!   with simulated-device timing per iteration;
//! * [`parallel`] — the multi-GPU execution model for the Figure 10
//!   scalability experiment, and the multi-rank, fault-tolerant Fock build;
//! * [`rescue`] — the self-healing layer: a convergence watchdog, a
//!   deterministic staged rescue ladder (DIIS reset → damping → level
//!   shift → quantization backoff → rollback), and non-finite containment,
//!   all provably inert on healthy runs;
//! * [`ensemble`] — the lockstep fleet driver: N independent molecules
//!   whose same-class quartet sub-batches are fused into shared kernel
//!   launches (pricing only — every member stays bitwise identical to its
//!   solo run), with per-member isolation of DIIS and the rescue ladder.
#![deny(rust_2018_idioms)]
#![forbid(unsafe_code)]


pub mod checkpoint;
pub mod diis;
pub mod ensemble;
pub mod error;
pub mod fock;
pub mod grid;
pub mod properties;
pub mod parallel;
pub mod rescue;
pub mod scf;
pub mod xc;

pub use checkpoint::{CarriedState, RestorePoint, ScfCheckpoint};
pub use diis::{Diis, DiisStats};
pub use ensemble::{EnsembleConfig, EnsembleDriver, EnsembleResult};
pub use error::{CheckpointError, FockBuildError, NonFiniteStage, ScfError};
pub use fock::{build_jk_with_configs, FockBuildStats, FockEngineOptions, JkMatrices};
pub use grid::MolecularGrid;
pub use parallel::{build_jk_distributed, DistributedScf, FtFockOutcome};
pub use properties::{dipole_moment, Dipole};
pub use rescue::{classify, RescueEvent, RescueLedger, RescueStage, TrajectoryClass};
pub use scf::{
    CheckpointPolicy, IncrementalPolicy, OrthDiagnostics, ScfConfig, ScfDriver, ScfMethod,
    ScfResult, ScfRunOptions,
};
pub use xc::{b3lyp, XcFunctional};
