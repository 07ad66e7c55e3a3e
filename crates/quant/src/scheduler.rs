//! Convergence-Aware Scheduling (paper §3.2.3).
//!
//! Two coordinated dimensions decide how each quartet batch executes:
//!
//! * **integral level (mixed precision)** — density-weighted Schwarz
//!   estimates classify batches: critical → FP64 kernels, moderate →
//!   quantized kernels, negligible → pruned;
//! * **iterative level (dynamic precision)** — early SCF iterations
//!   tolerate error, so the FP64 threshold starts high (almost everything
//!   quantized) and tightens as the convergence measure (|ΔE| or the DIIS
//!   residual) shrinks, approaching an all-FP64 final iteration.

use mako_eri::screening::{classify, ImportanceClass};

/// How a quartet batch should execute this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecClass {
    /// Evaluate with the FP64 pipeline.
    Fp64,
    /// Evaluate with the quantized pipeline.
    Quantized,
    /// Skip entirely.
    Pruned,
}

/// Convergence phase, used for reporting and threshold selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg(test)]
pub(crate) enum SchedulePhase {
    /// Early SCF: relaxed thresholds, quantized kernels dominate.
    Early,
    /// Mid SCF: mixed.
    Mid,
    /// Near convergence: FP64 dominates.
    Final,
}

/// The per-iteration scheduling state.
///
/// The FP64/quantized split is **relative** to the magnitude of the largest
/// integral estimate in the system (`scale`, supplied by the Fock builder):
/// early on only the dominant quartets — the ones whose absolute error would
/// exceed the current SCF error — stay FP64, and the bar rises as
/// convergence tightens. The pruning floor stays absolute (physical
/// insignificance does not depend on the iteration).
#[derive(Debug, Clone)]
pub struct QuantSchedule {
    /// Quartets whose estimate exceeds `rel_fp64_threshold · scale` run in
    /// FP64.
    pub(crate) rel_fp64_threshold: f64,
    /// Quartets whose absolute estimate falls below this are pruned.
    pub prune_threshold: f64,
    /// Whether quantized kernels are allowed at all (disabled for pure-FP64
    /// reference runs).
    pub allow_quantized: bool,
}

impl QuantSchedule {
    /// A pure-FP64 reference schedule (quantization off, standard Schwarz
    /// pruning only).
    pub fn fp64_reference(prune_threshold: f64) -> QuantSchedule {
        QuantSchedule {
            rel_fp64_threshold: 0.0,
            prune_threshold,
            allow_quantized: false,
        }
    }

    /// The rescue ladder's quantization backoff (stage 4 of the SCF
    /// self-healing ladder): when convergence stalls and the watchdog
    /// suspects quantization noise, the driver abandons convergence-aware
    /// scheduling for the rest of the run and pins every batch to FP64.
    ///
    /// Defined as exactly the reference schedule a *non-quantized* run uses
    /// (`fp64_reference(tol · 1e-5)`), so a backed-off quantized run lands
    /// bit-for-bit on the trajectory a pure-FP64 run would follow from the
    /// same state — the backstop Dawson et al. (arXiv:2407.13299) argue
    /// low-precision SCF must keep in reserve.
    pub fn rescue_backoff(tol: f64) -> QuantSchedule {
        QuantSchedule::fp64_reference(tol * 1e-5)
    }

    /// The schedule for an SCF iteration with convergence measure
    /// `residual` (|ΔE| of the previous iteration or the DIIS error norm)
    /// and target convergence `tol` (e.g. 1e-7).
    ///
    /// While the SCF error is large, integrals only need to be as accurate
    /// as the error they feed; quantization noise (relative ~1e-3) is then
    /// tolerable for everything except the dominant quartets. As `residual`
    /// falls, the FP64 bar drops toward zero and the final iterations run
    /// entirely in FP64.
    pub fn for_iteration(residual: f64, tol: f64) -> QuantSchedule {
        let residual = residual.max(tol);
        // Relative bar: at residual 1.0 only the top ~30% of estimates stay
        // FP64; each decade of convergence drops the bar by a decade.
        let rel = (residual * 0.3).clamp(tol * 10.0, 0.5);
        QuantSchedule {
            rel_fp64_threshold: rel,
            prune_threshold: (tol * 1e-5).max(1e-14),
            allow_quantized: residual > tol * 10.0,
        }
    }

    /// Phase label for reporting.
    #[cfg(test)]
    pub(crate) fn phase(&self) -> SchedulePhase {
        if !self.allow_quantized {
            SchedulePhase::Final
        } else if self.rel_fp64_threshold >= 1e-2 {
            SchedulePhase::Early
        } else {
            SchedulePhase::Mid
        }
    }

    /// Decide the execution class of a quartet population from its pairs'
    /// Schwarz bounds, the largest relevant density element, and the
    /// system-wide estimate `scale` (max bound² × max density).
    ///
    /// The FP64/quantized split is relative to `scale`, so a degenerate
    /// scale would poison the bar: `scale == 0` (all-pruned batches, empty
    /// pair lists), a non-finite scale (overflowed bounds, NaN density), or
    /// a non-finite `rel_fp64_threshold` would previously make
    /// `estimate >= bar` false for *every* quartet and classify the whole
    /// system as quantized. Any such degenerate input now collapses the bar
    /// to `0.0`, which deterministically promotes every surviving quartet
    /// to FP64 — the conservative direction (pruning, which is absolute,
    /// is unaffected).
    pub fn decide(&self, bound_ab: f64, bound_cd: f64, density_max: f64, scale: f64) -> ExecClass {
        let degenerate =
            !(scale.is_finite() && scale > 0.0 && self.rel_fp64_threshold.is_finite());
        let fp64_threshold = if degenerate {
            0.0
        } else {
            self.rel_fp64_threshold * scale
        };
        let class = classify(
            bound_ab,
            bound_cd,
            density_max,
            fp64_threshold,
            self.prune_threshold,
        );
        match class {
            ImportanceClass::Negligible => ExecClass::Pruned,
            ImportanceClass::Critical => ExecClass::Fp64,
            ImportanceClass::Moderate => {
                if self.allow_quantized {
                    ExecClass::Quantized
                } else {
                    ExecClass::Fp64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescue_backoff_is_the_reference_schedule() {
        // The backstop contract: a backed-off quantized run must follow the
        // exact schedule of a non-quantized run (same prune bar, no
        // quantization, zero relative FP64 bar), so the trajectories fuse.
        let b = QuantSchedule::rescue_backoff(1e-7);
        let r = QuantSchedule::fp64_reference(1e-7 * 1e-5);
        assert_eq!(b.rel_fp64_threshold.to_bits(), r.rel_fp64_threshold.to_bits());
        assert_eq!(b.prune_threshold.to_bits(), r.prune_threshold.to_bits());
        assert!(!b.allow_quantized);
        assert_eq!(b.phase(), SchedulePhase::Final);
    }

    #[test]
    fn early_iterations_quantize_most_work() {
        let early = QuantSchedule::for_iteration(1.0, 1e-7);
        assert_eq!(early.phase(), SchedulePhase::Early);
        let scale = 100.0; // max estimate in the system
        // A mid-magnitude quartet runs quantized early on.
        assert_eq!(early.decide(1.0, 1.0, 0.5, scale), ExecClass::Quantized);
        // The dominant quartets stay FP64 even early.
        assert_eq!(early.decide(10.0, 10.0, 1.0, scale), ExecClass::Fp64);
    }

    #[test]
    fn thresholds_tighten_with_convergence() {
        let tol = 1e-7;
        let mut prev = f64::INFINITY;
        for &res in &[1.0, 1e-2, 1e-4, 1e-6, 1e-8] {
            let s = QuantSchedule::for_iteration(res, tol);
            assert!(s.rel_fp64_threshold <= prev);
            prev = s.rel_fp64_threshold;
        }
    }

    #[test]
    fn final_iterations_are_fp64() {
        let s = QuantSchedule::for_iteration(5e-7, 1e-7);
        assert!(!s.allow_quantized);
        assert_eq!(s.phase(), SchedulePhase::Final);
        assert_eq!(s.decide(1e-2, 1e-2, 0.5, 1.0), ExecClass::Fp64);
    }

    #[test]
    fn pruning_survives_all_phases() {
        for &res in &[1.0, 1e-5, 1e-8] {
            let s = QuantSchedule::for_iteration(res, 1e-7);
            assert_eq!(s.decide(1e-10, 1e-10, 1.0, 1.0), ExecClass::Pruned, "res={res}");
        }
    }

    #[test]
    fn reference_schedule_never_quantizes() {
        let s = QuantSchedule::fp64_reference(1e-12);
        for bounds in [(1.0, 1.0), (1e-3, 1e-3), (1e-5, 1e-4)] {
            assert_eq!(s.decide(bounds.0, bounds.1, 1.0, 1.0), ExecClass::Fp64);
        }
        assert_eq!(s.decide(1e-8, 1e-8, 1.0, 1.0), ExecClass::Pruned);
    }

    /// Regression: degenerate `scale` values (zero from all-pruned batches,
    /// NaN/∞ from poisoned bounds or densities) must deterministically fall
    /// back to FP64 for every surviving quartet — never classify the system
    /// as quantized. Before the fix, `scale = ∞` put the FP64 bar at ∞ and
    /// quantized everything.
    #[test]
    fn degenerate_scale_falls_back_to_fp64() {
        let early = QuantSchedule::for_iteration(1.0, 1e-7);
        assert!(early.allow_quantized, "precondition: quantization is on");
        for &scale in &[0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // Mid-magnitude quartets that a healthy scale would quantize...
            assert_eq!(
                early.decide(1.0, 1.0, 0.5, scale),
                ExecClass::Fp64,
                "scale={scale}"
            );
            assert_eq!(
                early.decide(1e-2, 1e-2, 1.0, scale),
                ExecClass::Fp64,
                "scale={scale}"
            );
            // ...while absolute pruning is unaffected.
            assert_eq!(
                early.decide(1e-10, 1e-10, 1.0, scale),
                ExecClass::Pruned,
                "scale={scale}"
            );
        }
        // Sanity: a healthy scale still quantizes the mid-magnitude quartet.
        assert_eq!(early.decide(1.0, 1.0, 0.5, 100.0), ExecClass::Quantized);
    }

    /// Regression: a non-finite relative threshold (corrupted schedule
    /// state) is degenerate too — FP64 fallback, not blanket quantization.
    #[test]
    fn non_finite_threshold_falls_back_to_fp64() {
        for bad in [f64::NAN, f64::INFINITY] {
            let s = QuantSchedule {
                rel_fp64_threshold: bad,
                prune_threshold: 1e-14,
                allow_quantized: true,
            };
            assert_eq!(s.decide(1.0, 1.0, 0.5, 100.0), ExecClass::Fp64);
            assert_eq!(s.decide(1e-10, 1e-10, 1e-14, 100.0), ExecClass::Pruned);
        }
    }

    #[test]
    fn quantized_fraction_grows_early() {
        // Over a synthetic population of batches, the early schedule should
        // quantize strictly more work than the late schedule.
        let bounds: Vec<f64> = (0..60).map(|i| 10f64.powf(-(i as f64) / 6.0)).collect();
        let count_quantized = |s: &QuantSchedule| {
            bounds
                .iter()
                .filter(|&&b| s.decide(b, b, 1.0, 1.0) == ExecClass::Quantized)
                .count()
        };
        let early = QuantSchedule::for_iteration(1.0, 1e-7);
        let late = QuantSchedule::for_iteration(1e-6, 1e-7);
        assert!(count_quantized(&early) > count_quantized(&late));
    }
}
