//! Schwarz screening: rigorous Cauchy–Schwarz bounds on ERI magnitudes.
//!
//! `|(ab|cd)| ≤ √(ab|ab) · √(cd|cd)` — the inequality behind both integral
//! pruning and QuantMako's *Convergence-Aware Scheduling*, which classifies
//! quartets as FP64 / quantized / negligible by comparing density-weighted
//! bounds against per-iteration thresholds (paper §3.2.3).

use crate::mmd::{eri_quartet_mmd, shell_pair, ShellPairData};
use mako_chem::Shell;
use rayon::prelude::*;

/// A shell pair with its Schwarz bound and originating shell indices.
#[derive(Debug, Clone)]
pub struct ScreenedPair {
    /// Index of the first shell.
    pub i: usize,
    /// Index of the second shell.
    pub j: usize,
    /// Precomputed pair data.
    pub data: ShellPairData,
    /// `√(max_ab (ab|ab))`.
    pub bound: f64,
}

/// Schwarz bound of a shell pair: `√(max_{a∈A, b∈B} (ab|ab))`.
pub fn schwarz_bound(pair: &ShellPairData) -> f64 {
    let t = eri_quartet_mmd(pair, pair);
    let (na, nb) = (t.dims[0], t.dims[1]);
    let mut m = 0.0f64;
    for a in 0..na {
        for b in 0..nb {
            m = m.max(t.get(a, b, a, b));
        }
    }
    m.max(0.0).sqrt()
}

/// Build all shell pairs `(i, j)` with `i ≥ j`, dropping those whose Schwarz
/// bound falls below `threshold` (no quartet containing them can matter).
///
/// Pair construction and the O(nshell²) Schwarz bounds are embarrassingly
/// parallel, so the (i, j) list fans out over the rayon pool; the output
/// order is exactly the serial `i ≥ j` enumeration regardless of thread
/// count (indexed parallel collect preserves ordering).
pub fn build_screened_pairs(shells: &[Shell], threshold: f64) -> Vec<ScreenedPair> {
    let ij: Vec<(usize, usize)> = (0..shells.len())
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .collect();
    ij.par_iter()
        .filter_map(|&(i, j)| {
            let data = shell_pair(&shells[i], &shells[j]);
            if data.prims.is_empty() {
                return None;
            }
            let bound = schwarz_bound(&data);
            (bound >= threshold).then_some(ScreenedPair { i, j, data, bound })
        })
        .collect()
}

/// Density-weighted Schwarz estimate of a quartet:
/// `Q_ab · Q_cd · max(|D|, 1e-30)` — the quantity the convergence-aware
/// scheduler compares against its thresholds. The `1e-30` density floor
/// keeps the estimate nonzero (and threshold comparisons meaningful) for
/// all-zero density blocks, and is the **single** definition every caller
/// shares — [`classify`] and the quantization scheduler see identical
/// estimates for identical inputs.
#[inline]
pub fn schwarz_estimate(bound_ab: f64, bound_cd: f64, density_max: f64) -> f64 {
    bound_ab * bound_cd * density_max.max(1e-30)
}

/// Importance classes for quartet batches (QuantMako §3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImportanceClass {
    /// Must be evaluated in FP64.
    Critical,
    /// Safe for the quantized kernels.
    Moderate,
    /// May be pruned entirely.
    Negligible,
}

/// Classify a quartet by its density-weighted [`schwarz_estimate`] against
/// `(fp64_threshold, prune_threshold)`.
///
/// **Boundary convention (pinned):** an estimate that lands *exactly on* a
/// threshold always takes the more conservative branch —
///
/// * `estimate == prune_threshold` → **not** pruned (pruning is strict `<`),
/// * `estimate == fp64_threshold`  → **Critical** (the FP64 bar is `>=`).
///
/// The same rule holds for every other screening comparison in the
/// workspace: `build_screened_pairs` keeps pairs with `bound >= threshold`,
/// and `batch_quartets` drops only `bound_ab·bound_cd < threshold`. Equality
/// never loses work or precision, so perturbing a threshold to exactly an
/// estimate's value can only make the calculation *more* accurate.
pub fn classify(
    bound_ab: f64,
    bound_cd: f64,
    density_max: f64,
    fp64_threshold: f64,
    prune_threshold: f64,
) -> ImportanceClass {
    let estimate = schwarz_estimate(bound_ab, bound_cd, density_max);
    if estimate < prune_threshold {
        ImportanceClass::Negligible
    } else if estimate >= fp64_threshold {
        ImportanceClass::Critical
    } else {
        ImportanceClass::Moderate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::basis::ShellDef;

    fn shell(l: usize, center: [f64; 3], exp: f64) -> Shell {
        ShellDef {
            l,
            exps: vec![exp],
            coefs: vec![1.0],
        }
        .at(0, center)
    }

    #[test]
    fn schwarz_bound_is_conservative() {
        // |(ab|cd)| ≤ Q_ab · Q_cd for a grid of random-ish quartets.
        let shells = [
            shell(0, [0.0, 0.0, 0.0], 1.2),
            shell(1, [1.0, 0.2, -0.3], 0.8),
            shell(2, [-0.6, 0.9, 0.4], 0.6),
            shell(0, [0.3, -0.8, 1.1], 2.0),
        ];
        let pairs: Vec<ShellPairData> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| shell_pair(&shells[i], &shells[j]))
            .collect();
        let bounds: Vec<f64> = pairs.iter().map(schwarz_bound).collect();
        for (pi, pab) in pairs.iter().enumerate() {
            for (qi, pcd) in pairs.iter().enumerate() {
                let t = eri_quartet_mmd(pab, pcd);
                assert!(
                    t.max_abs() <= bounds[pi] * bounds[qi] * (1.0 + 1e-10),
                    "pair {pi},{qi}: {} > {}",
                    t.max_abs(),
                    bounds[pi] * bounds[qi]
                );
            }
        }
    }

    #[test]
    fn distant_pairs_are_screened_out() {
        let shells = vec![
            shell(0, [0.0; 3], 1.5),
            shell(0, [40.0, 0.0, 0.0], 1.5), // 40 Bohr away
        ];
        let pairs = build_screened_pairs(&shells, 1e-10);
        // (0,0) and (1,1) survive; the distant cross pair is dropped.
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|p| p.i == p.j));
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let shells = vec![shell(0, [0.0; 3], 1.0), shell(1, [1.0, 0.0, 0.0], 0.7)];
        let pairs = build_screened_pairs(&shells, 0.0);
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn classify_thresholds() {
        assert_eq!(
            classify(1.0, 1.0, 1.0, 1e-4, 1e-10),
            ImportanceClass::Critical
        );
        assert_eq!(
            classify(1e-3, 1e-3, 1.0, 1e-4, 1e-10),
            ImportanceClass::Moderate
        );
        assert_eq!(
            classify(1e-6, 1e-6, 1.0, 1e-4, 1e-10),
            ImportanceClass::Negligible
        );
    }

    /// The pinned boundary convention: equality with a threshold always takes
    /// the conservative branch (survives pruning; promotes to FP64).
    #[test]
    fn classify_boundary_values() {
        // estimate exactly equal to prune_threshold: NOT pruned.
        let prune = schwarz_estimate(1e-5, 1e-5, 1.0);
        assert_eq!(
            classify(1e-5, 1e-5, 1.0, 1.0, prune),
            ImportanceClass::Moderate,
            "estimate == prune_threshold must survive pruning"
        );
        // Next representable value below: pruned.
        assert_eq!(
            classify(1e-5, 1e-5, 1.0, 1.0, f64::from_bits(prune.to_bits() + 1)),
            ImportanceClass::Negligible
        );

        // estimate exactly equal to fp64_threshold: Critical.
        let fp64 = schwarz_estimate(1e-2, 1e-2, 1.0);
        assert_eq!(
            classify(1e-2, 1e-2, 1.0, fp64, 1e-30),
            ImportanceClass::Critical,
            "estimate == fp64_threshold must promote to FP64"
        );
        // Next representable value above the estimate: quantized.
        assert_eq!(
            classify(1e-2, 1e-2, 1.0, f64::from_bits(fp64.to_bits() + 1), 1e-30),
            ImportanceClass::Moderate
        );

        // Degenerate ordering: with fp64_threshold == prune_threshold every
        // surviving quartet is Critical (never silently quantized).
        assert_eq!(
            classify(1e-3, 1e-3, 1.0, prune, prune),
            ImportanceClass::Critical
        );
    }

    /// `classify` and `schwarz_estimate` agree for all-zero density blocks:
    /// the shared 1e-30 floor keeps the estimate nonzero, so a zero density
    /// still prunes against any realistic threshold but never produces a
    /// 0-vs-0 threshold comparison.
    #[test]
    fn zero_density_floor_is_shared() {
        let est = schwarz_estimate(1.0, 1.0, 0.0);
        assert_eq!(est, 1e-30);
        assert_eq!(
            classify(1.0, 1.0, 0.0, 1e-4, 1e-14),
            ImportanceClass::Negligible
        );
        // ...and exactly at the floor the conservative branch wins again.
        assert_eq!(
            classify(1.0, 1.0, 0.0, 1e-4, est),
            ImportanceClass::Moderate
        );
    }

    #[test]
    fn pair_threshold_boundary_keeps_equal_bound() {
        // build_screened_pairs keeps bound >= threshold: feed it the exact
        // bound of an on-center s pair as the threshold and it must survive.
        let shells = vec![shell(0, [0.0; 3], 1.5)];
        let pairs = build_screened_pairs(&shells, 0.0);
        assert_eq!(pairs.len(), 1);
        let exact = pairs[0].bound;
        assert_eq!(build_screened_pairs(&shells, exact).len(), 1);
        assert_eq!(
            build_screened_pairs(&shells, f64::from_bits(exact.to_bits() + 1)).len(),
            0
        );
    }
}
