//! Mako against the modeled comparison systems of `mako_kernels::baselines`,
//! priced with the configuration the tuner actually picks for each class.

use mako_accel::{CostModel, DeviceSpec};
use mako_compiler::tune_class;
use mako_eri::batch::EriClass;
use mako_kernels::{gpu4pyscf_like_cost, simulate_batch_cost, LIBINTX_CONFIG};
use mako_precision::Precision;

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

/// Simulated seconds for `n` quartets of `c` under `tune_class`'s winner.
fn tuned_cost(c: &EriClass, n: usize, precision: Precision, model: &CostModel) -> f64 {
    simulate_batch_cost(c, n, &tune_class(c, precision, model).config, model)
}

#[test]
fn mako_beats_libintx_on_every_class() {
    let model = CostModel::new(DeviceSpec::a100());
    for l in 0..=3usize {
        for &k in &[1usize, 5] {
            let c = class(l, k);
            let lib = simulate_batch_cost(&c, 50_000, &LIBINTX_CONFIG, &model);
            let mako = tuned_cost(&c, 50_000, Precision::Fp64, &model);
            assert!(mako < lib, "l={l} k={k}: mako {mako} libintx {lib}");
        }
    }
}

#[test]
fn mako_advantage_over_gpu4pyscf_grows_with_l() {
    // The Figure 9 trend: the tensor-core GEMM share grows with angular
    // momentum, so Mako's edge over a CUDA-core FP64 code widens.
    let model = CostModel::new(DeviceSpec::a100());
    let mut prev = 0.0;
    for l in 1..=4usize {
        let c = class(l, 1);
        let g = gpu4pyscf_like_cost(&c, 20_000, &model);
        let q = tuned_cost(&c, 20_000, Precision::Fp16, &model);
        let speedup = g / q;
        assert!(
            speedup > prev * 0.9,
            "speedup should broadly grow: l={l} {speedup} (prev {prev})"
        );
        prev = speedup;
    }
    assert!(prev > 5.0, "high-l speedup should be large, got {prev}");
}
