//! Performance models of the paper's comparison systems.
//!
//! * **LibintX-like** — the same MMD math as Mako but executed as unfused
//!   per-stage kernels in FP64 with an unswizzled transpose (what LibintX's
//!   BLAS-backed formulation pays relative to a fused pipeline). Its
//!   *numerics* are exact (it is the FP64 MMD engine); only its cost profile
//!   differs.
//! * **QUICK-like** — recursion-based evaluation on CUDA cores: FLOP count
//!   estimated from the Obara–Saika recursion volume, poor ILP from deep
//!   register-pressure-bound recursion (worsening with angular momentum),
//!   no tensor-core work at all, and no g-function support.
//! * **GPU4PySCF-like** — MMD-style evaluation on CUDA cores in FP64 with
//!   partial batching: better than QUICK on high angular momentum but no
//!   tensor cores, no fusion, no quantization.

use crate::pipeline::{FusionStrategy, PipelineConfig};
use mako_accel::{CostModel, KernelProfile, SmemLayout};
use mako_precision::{Precision, ScalePolicy};
use mako_eri::batch::EriClass;
use mako_eri::os::OS_MAX_L;

/// The LibintX-like configuration: unfused FP64 stages, linear layout,
/// no implicit-ILP restructuring.
pub const LIBINTX_CONFIG: PipelineConfig = PipelineConfig {
    fusion: FusionStrategy::Unfused,
    layout: SmemLayout::Linear,
    ilp: 1,
    threads_per_block: 256,
    precision: Precision::Fp64,
    scale_policy: ScalePolicy::Unscaled,
    tile: 16,
};

/// Simulated seconds for a QUICK-like recursive evaluation of `n` quartets
/// of `class`. Returns `None` for g functions and beyond (QUICK supports
/// l ≤ 3 only).
pub fn quick_like_cost(class: &EriClass, n: usize, model: &CostModel) -> Option<f64> {
    if [class.la, class.lb, class.lc, class.ld]
        .iter()
        .any(|&l| l > OS_MAX_L)
    {
        return None;
    }
    // Recursion term count grows roughly with the Cartesian quartet volume
    // times the recursion depth; every term is a handful of FMAs with
    // serial dependencies.
    let l_sum = (class.l_bra() + class.l_ket()) as f64;
    let cart = (mako_chem::cart::ncart(class.la)
        * mako_chem::cart::ncart(class.lb)
        * mako_chem::cart::ncart(class.lc)
        * mako_chem::cart::ncart(class.ld)) as f64;
    let kprod = (class.kab * class.kcd) as f64;
    let flops = n as f64 * kprod * cart * (l_sum + 1.0) * 48.0;

    let mut p = KernelProfile::named("quick_like");
    p.cuda_flops = Some((Precision::Fp64, flops));
    // Register pressure and branch divergence worsen with angular momentum.
    p.ilp_efficiency = (0.6 / (1.0 + 0.35 * l_sum)).clamp(0.05, 1.0);
    p.global_read = n as f64 * 128.0;
    p.global_write = n as f64 * class.out_size() as f64 * 8.0;
    p.threads_per_block = 256;
    p.smem_per_block = 8 * 1024;
    Some(model.evaluate(&p).total_s)
}

/// Simulated seconds for a GPU4PySCF-like evaluation of `n` quartets:
/// Mako's own MMD FLOP counts, but on CUDA cores (FP64, no tensor path),
/// with the transform GEMMs and r/pq stages as separate kernels.
pub fn gpu4pyscf_like_cost(class: &EriClass, n: usize, model: &CostModel) -> f64 {
    let nf = n as f64;
    let mut total = 0.0;

    let l_sum = (class.l_bra() + class.l_ket()) as f64;
    let mut stages = KernelProfile::named("gpu4pyscf_rpq");
    stages.cuda_flops = Some((Precision::Fp64, class.rpq_flops() * nf));
    // Production CUDA-core ERI kernels fall well below the compute roofline
    // as angular momentum raises register pressure and divergence (the gap
    // the paper measures against GPU4PySCF's high-l kernels).
    stages.ilp_efficiency = (0.7 / (1.0 + 0.15 * l_sum)).clamp(0.05, 1.0);
    stages.global_read = nf * 128.0;
    let (hb, hk) = class.herm_dims();
    let pq_bytes = nf * (class.kab * class.kcd * hb * hk) as f64 * 8.0;
    stages.global_write = pq_bytes;
    stages.threads_per_block = 256;
    total += model.evaluate(&stages).total_s;

    let mut gemms = KernelProfile::named("gpu4pyscf_transform");
    // Same GEMM FLOPs, but issued to the CUDA FP64 pipes.
    gemms.cuda_flops = Some((Precision::Fp64, class.transform_flops() * nf));
    gemms.ilp_efficiency = (0.85 / (1.0 + 0.25 * l_sum)).clamp(0.05, 1.0);
    gemms.global_read = pq_bytes;
    gemms.global_write = nf * class.out_size() as f64 * 8.0;
    gemms.threads_per_block = 256;
    gemms.smem_per_block = 32 * 1024;
    total += model.evaluate(&gemms).total_s;

    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_accel::DeviceSpec;

    fn class(l: usize, k: usize) -> EriClass {
        EriClass {
            la: l,
            lb: l,
            lc: l,
            ld: l,
            kab: k,
            kcd: k,
        }
    }

    #[test]
    fn quick_rejects_g_functions() {
        let model = CostModel::new(DeviceSpec::a100());
        assert!(quick_like_cost(&class(4, 1), 100, &model).is_none());
        assert!(quick_like_cost(&class(3, 1), 100, &model).is_some());
    }

    #[test]
    fn quick_degrades_faster_than_gpu4pyscf_with_l() {
        let model = CostModel::new(DeviceSpec::a100());
        let r1 = quick_like_cost(&class(1, 1), 10_000, &model).unwrap()
            / gpu4pyscf_like_cost(&class(1, 1), 10_000, &model);
        let r3 = quick_like_cost(&class(3, 1), 10_000, &model).unwrap()
            / gpu4pyscf_like_cost(&class(3, 1), 10_000, &model);
        assert!(r3 > r1, "QUICK's relative cost grows with l: {r1} → {r3}");
    }
}
