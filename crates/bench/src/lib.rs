//! # mako-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! Mako paper's evaluation section. Each paper element has a dedicated
//! binary (see DESIGN.md §3 for the full index):
//!
//! | target | paper element |
//! |---|---|
//! | `table1_device_specs` | Table 1 (A100 tensor/CUDA throughput) |
//! | `fig6_eri_kernels` | Figure 6 (FP64 ERI kernels vs LibintX) |
//! | `fig7_ablation` | Figure 7a/7b (+ extra design ablations) |
//! | `table2_rmse` | Table 2 / Figure 7c (quantization RMSE) |
//! | `table3_accuracy` | Table 3 (converged-energy MAE) |
//! | `fig8_end_to_end` | Figure 8 (SCF iteration time vs GPU4PySCF) |
//! | `fig9_speedup` | Figure 9 (speedup across basis sets) |
//! | `fig10_scalability` | Figure 10 (1–64 GPU strong scaling) |
//!
//! Run one with `cargo run --release -p mako-bench --bin <target>`.
//! Two utilities ride along: `gen_sample` (rewrites the `sample/` inputs) and
//! `trace_validate` (schema-checks a `mako-trace` JSONL file). How long the
//! system itself takes —
//! SCF, ensemble, serving, recovery — is measured by `benchmark/`
//! (`BENCHMARK.json`), not here.
#![deny(rust_2018_idioms)]
#![forbid(unsafe_code)]

use mako_chem::basis::ShellDef;
use mako_chem::Shell;
use mako_eri::batch::EriClass;

/// A deterministic linear-congruential stream for reproducible workloads.
pub(crate) struct Lcg(pub u64);

impl Lcg {
    /// Uniform in [0, 1).
    pub(crate) fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / (1u64 << 31) as f64
    }

    /// Uniform in [lo, hi).
    pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// The diagonal ERI classes (ll|ll) for l = 0..=4 with contraction degree
/// pattern {ka, kc} — the microbenchmark axis of Figures 6–7.
pub fn diagonal_classes(kab: usize, kcd: usize) -> Vec<EriClass> {
    (0..=4usize)
        .map(|l| EriClass {
            la: l,
            lb: l,
            lc: l,
            ld: l,
            kab,
            kcd,
        })
        .collect()
}

/// Build a batch of `n` random shell quartet inputs of one class, returned
/// as screened pairs + a quartet batch over them. Shell centers sit inside a
/// 3-Bohr box so the integrals are non-negligible.
pub fn random_class_batch(
    class: &EriClass,
    n: usize,
    seed: u64,
) -> (Vec<mako_eri::ScreenedPair>, mako_eri::QuartetBatch) {
    let mut rng = Lcg(seed | 1);
    let mut shell = |l: usize, k: usize| -> Shell {
        let center = [
            rng.range(-1.5, 1.5),
            rng.range(-1.5, 1.5),
            rng.range(-1.5, 1.5),
        ];
        let exps: Vec<f64> = (0..k).map(|i| rng.range(0.4, 2.2) * 1.9f64.powi(i as i32)).collect();
        let coefs: Vec<f64> = (0..k).map(|_| rng.range(0.2, 1.0)).collect();
        ShellDef { l, exps, coefs }.at(0, center)
    };

    let mut pairs = Vec::with_capacity(2 * n);
    let mut quartets = Vec::with_capacity(n);
    for q in 0..n {
        // Contraction degree pattern: pick primitive counts whose product
        // equals the class K (factored as evenly as possible).
        let (ka1, ka2) = factor(class.kab);
        let (kc1, kc2) = factor(class.kcd);
        let sa = shell(class.la, ka1);
        let sb = shell(class.lb, ka2);
        let sc = shell(class.lc, kc1);
        let sd = shell(class.ld, kc2);
        let dab = mako_eri::shell_pair(&sa, &sb);
        let dcd = mako_eri::shell_pair(&sc, &sd);
        let bab = mako_eri::schwarz_bound(&dab);
        let bcd = mako_eri::schwarz_bound(&dcd);
        pairs.push(mako_eri::ScreenedPair {
            i: 0,
            j: 0,
            data: dab,
            bound: bab,
        });
        pairs.push(mako_eri::ScreenedPair {
            i: 0,
            j: 0,
            data: dcd,
            bound: bcd,
        });
        quartets.push((2 * q, 2 * q + 1));
    }
    let batch = mako_eri::QuartetBatch {
        class: *class,
        quartets,
    };
    (pairs, batch)
}

fn factor(k: usize) -> (usize, usize) {
    let mut a = (k as f64).sqrt() as usize;
    while a > 1 && !k.is_multiple_of(a) {
        a -= 1;
    }
    (a.max(1), k / a.max(1))
}

/// Geometric-mean helper for "average speedup" rows.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_s_through_g() {
        let cs = diagonal_classes(1, 1);
        assert_eq!(cs.len(), 5);
        assert_eq!(cs[4].la, 4);
    }

    #[test]
    fn factoring() {
        assert_eq!(factor(1), (1, 1));
        assert_eq!(factor(5), (1, 5));
        assert_eq!(factor(25), (5, 5));
        assert_eq!(factor(6), (2, 3));
    }

    #[test]
    fn random_batches_are_deterministic_and_valid() {
        let class = EriClass {
            la: 1,
            lb: 1,
            lc: 0,
            ld: 0,
            kab: 1,
            kcd: 1,
        };
        let (p1, b1) = random_class_batch(&class, 4, 7);
        let (p2, _) = random_class_batch(&class, 4, 7);
        assert_eq!(b1.len(), 4);
        assert_eq!(p1.len(), 8);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a.bound, b.bound);
        }
        assert!(p1.iter().all(|p| p.bound > 0.0));
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
