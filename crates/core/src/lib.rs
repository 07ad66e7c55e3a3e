//! # Mako — matrix-aligned quantum chemistry for AI accelerators
//!
//! A from-scratch Rust reproduction of *"Matrix Is All You Need:
//! Rearchitecting Quantum Chemistry to Scale on AI Accelerators"* (SC '25).
//!
//! Mako restructures density-functional-theory computations — dominated by
//! two-electron repulsion integrals (ERIs) — into batched matrix
//! multiplications executed on tensor-core hardware, with physics-informed
//! quantization and a compiler-style kernel planner. This workspace
//! implements the complete system plus every substrate it needs (no BLAS,
//! LAPACK, or chemistry dependencies), substituting a calibrated simulated
//! accelerator for the CUDA/CUTLASS hardware layer (see `DESIGN.md`).
//!
//! ## Quick start
//!
//! ```
//! use mako::prelude::*;
//!
//! let water = mako::chem::builders::water();
//! let result = MakoEngine::new()
//!     .run_rhf(&water, BasisFamily::Sto3g)
//!     .expect("SCF run failed");
//! assert!(result.converged);
//! assert!((result.energy - (-74.96)).abs() < 0.02);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`precision`] | `mako-precision` | software f16/bf16/tf32 + quantization |
//! | [`linalg`] | `mako-linalg` | matrices, GEMM, eigensolver |
//! | [`accel`] | `mako-accel` | simulated tensor-core device + cluster |
//! | [`chem`] | `mako-chem` | molecules, basis sets, solid harmonics |
//! | [`eri`] | `mako-eri` | Boys, MMD matrix-form ERIs, Obara–Saika |
//! | [`kernels`] | `mako-kernels` | KernelMako fused/quantized pipelines |
//! | [`quant`] | `mako-quant` | QuantMako scheduling + accumulation |
//! | [`compiler`] | `mako-compiler` | CompilerMako planning + autotuning |
//! | [`scf`] | `mako-scf` | RHF/RKS drivers, XC stack, scaling model |
//! | [`server`] | `mako-server` | multi-tenant job runtime: admission, deadlines, preemption |
//! | [`trace`] | `mako-trace` | structured tracing + metrics (spans, counters, exporters) |
#![forbid(unsafe_code)]

pub use mako_accel as accel;
pub use mako_chem as chem;
pub use mako_compiler as compiler;
pub use mako_eri as eri;
pub use mako_kernels as kernels;
pub use mako_linalg as linalg;
pub use mako_precision as precision;
pub use mako_quant as quant;
pub use mako_scf as scf;
pub use mako_server as server;
pub use mako_store as store;
pub use mako_trace as trace;

use mako_accel::DeviceSpec;
use mako_chem::{BasisFamily, Molecule};
use mako_scf::{RescueConfig, ScfConfig, ScfDriver, ScfError, ScfMethod, ScfResult};

/// Commonly used items, one import away.
pub mod prelude {
    pub use crate::MakoEngine;
    pub use mako_accel::{DeviceKind, DeviceSpec};
    pub use mako_chem::{BasisFamily, Element, Molecule};
    pub use mako_scf::{ScfConfig, ScfError, ScfMethod, ScfResult};
    pub use mako_server::{JobOutcome, JobSpec, MakoServer, PriorityClass, ServerChaos};
}

/// High-level entry point: configure once, run calculations.
///
/// Wraps basis-set instantiation, Schwarz screening, CompilerMako kernel
/// tuning, QuantMako scheduling, and the SCF loop behind two calls.
#[derive(Debug, Clone)]
pub struct MakoEngine {
    /// Simulated device calculations run on.
    pub device: DeviceSpec,
    /// Enable QuantMako quantized kernels with convergence-aware
    /// scheduling.
    pub quantized: bool,
    /// SCF energy tolerance (paper default 1e-7).
    pub e_tol: f64,
    /// Enable the self-healing SCF layer (convergence watchdog + staged
    /// rescue ladder); inert — bitwise — on healthy runs.
    pub rescue: bool,
}

impl Default for MakoEngine {
    fn default() -> Self {
        MakoEngine::new()
    }
}

impl MakoEngine {
    /// Engine with the paper's defaults: A100 device, FP64 kernels,
    /// SCF convergence 1e-7.
    pub fn new() -> MakoEngine {
        MakoEngine {
            device: DeviceSpec::a100(),
            quantized: false,
            e_tol: 1e-7,
            rescue: false,
        }
    }

    /// Enable the QuantMako quantized pipelines.
    pub fn with_quantization(mut self, on: bool) -> MakoEngine {
        self.quantized = on;
        self
    }

    /// Enable the self-healing SCF layer (watchdog + rescue ladder with the
    /// default [`RescueConfig`]). On a healthy trajectory the result is
    /// bitwise identical to a run without it.
    pub fn with_rescue(mut self, on: bool) -> MakoEngine {
        self.rescue = on;
        self
    }

    /// Target a different simulated device.
    pub fn on_device(mut self, device: DeviceSpec) -> MakoEngine {
        self.device = device;
        self
    }

    fn config(&self, method: ScfMethod) -> ScfConfig {
        ScfConfig {
            method,
            e_tol: self.e_tol,
            quantized: self.quantized,
            device: self.device.clone(),
            rescue: self.rescue.then(RescueConfig::default),
            ..ScfConfig::default()
        }
    }

    /// Restricted Hartree–Fock on a molecule with a basis family.
    pub fn run_rhf(&self, mol: &Molecule, basis: BasisFamily) -> Result<ScfResult, ScfError> {
        let b = basis.basis_for(&mol.elements());
        ScfDriver::try_new(mol, &b, self.config(ScfMethod::Rhf))?.run()
    }

    /// Restricted Kohn–Sham B3LYP (the paper's functional).
    pub fn run_b3lyp(&self, mol: &Molecule, basis: BasisFamily) -> Result<ScfResult, ScfError> {
        let b = basis.basis_for(&mol.elements());
        ScfDriver::try_new(mol, &b, self.config(ScfMethod::Rks(mako_scf::xc::b3lyp())))?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::builders;

    #[test]
    fn engine_runs_water_rhf() {
        let res = MakoEngine::new()
            .run_rhf(&builders::water(), BasisFamily::Sto3g)
            .expect("scf run");
        assert!(res.converged);
        assert!((res.energy + 74.963).abs() < 0.02);
    }

    #[test]
    fn engine_quantized_agrees_to_chemical_accuracy() {
        let mol = builders::water();
        let e_ref = MakoEngine::new()
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("scf run")
            .energy;
        let quant = MakoEngine::new()
            .with_quantization(true)
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("scf run");
        assert!(quant.converged);
        assert!((quant.energy - e_ref).abs() < 1e-3, "Δ = {}", quant.energy - e_ref);
    }

    #[test]
    fn engine_rescue_is_inert_on_healthy_runs() {
        let mol = builders::water();
        let plain = MakoEngine::new()
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("scf run");
        let rescued = MakoEngine::new()
            .with_rescue(true)
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("scf run");
        assert!(rescued.rescue.is_empty(), "healthy water must need no rescue");
        assert_eq!(plain.energy.to_bits(), rescued.energy.to_bits());
        assert_eq!(plain.iterations, rescued.iterations);
    }

    #[test]
    fn engine_reports_unsupported_element_as_typed_error() {
        use mako_chem::Element;
        let mut mol = builders::water();
        mol.atoms[0].element = Element::FE;
        let err = MakoEngine::new()
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect_err("STO-3G lacks Fe, so the run must fail");
        assert!(matches!(err, ScfError::Basis(_)), "{err:?}");
        assert!(err.to_string().contains("Fe"), "{err}");
    }

    #[test]
    fn engine_device_selection_changes_timing_not_energy() {
        use mako_accel::DeviceKind;
        let mol = builders::water();
        let a100 = MakoEngine::new()
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("scf run");
        let h100 = MakoEngine::new()
            .on_device(DeviceSpec::new(DeviceKind::H100))
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("scf run");
        assert!((a100.energy - h100.energy).abs() < 1e-10);
        assert!(h100.avg_iteration_seconds < a100.avg_iteration_seconds);
    }
}
