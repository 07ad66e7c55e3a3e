//! Reuse-Guided Planning (paper §3.3.1).
//!
//! For a given ERI class the pipeline stages produce deterministic
//! intermediate tensors; fusing stages keeps those tensors on-chip at the
//! price of shared memory. The planner enumerates the fusion strategies,
//! computes each strategy's live-tensor footprint `S(F)`, discards the ones
//! violating `S(F) ≤ SMEM_max / 2` (so ≥ 2 threadblocks stay resident per
//! SM), and ranks the rest by modeled cost.

use mako_accel::{CostModel, SmemLayout};
#[cfg(test)]
use mako_eri::batch::EriClass;
use mako_kernels::pipeline::{BatchTerms, FusionStrategy, PipelineConfig};
use mako_precision::{Precision, ScalePolicy};

/// The outcome of planning one ERI class.
#[derive(Debug, Clone)]
pub(crate) struct FusionPlan {
    /// Chosen strategy.
    pub strategy: FusionStrategy,
    /// Live-tensor shared-memory footprint of the chosen strategy, bytes.
    pub smem_bytes: usize,
    /// Strategies rejected by the occupancy constraint, with their
    /// footprints (for diagnostics and the ablation benches).
    pub rejected: Vec<(FusionStrategy, usize)>,
    /// Modeled cost of the chosen strategy for the probe batch size.
    #[cfg(test)]
    pub cost_s: f64,
}

/// Candidate strategies in preference order (most fused first).
const CANDIDATES: [FusionStrategy; 4] = [
    FusionStrategy::FuseAllCoalesced,
    FusionStrategy::FuseAll,
    FusionStrategy::FuseRPq,
    FusionStrategy::Unfused,
];

/// The threadblock shape a plan is made for. The shape couples to the
/// live-tensor footprint (`S(F)` depends on the N-dim tile edge), so fusion
/// feasibility genuinely changes with it: a tile that fits fully-fused on a
/// V100 at edge 8 can bust the Eq. 13 budget at edge 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockShape {
    /// Threads per threadblock.
    pub threads_per_block: usize,
    /// Edge of the unified N-dimension tiling (paper Figure 4).
    pub tile: usize,
}

impl Default for BlockShape {
    fn default() -> BlockShape {
        BlockShape {
            threads_per_block: 256,
            tile: 16,
        }
    }
}

/// Plan the fusion strategy for an ERI class at a given precision, using
/// the default threadblock shape (256 threads, tile edge 16).
///
/// `probe_batch` is the batch size used to score candidates (the relative
/// ranking is insensitive to it once batches are large enough to saturate
/// the device).
#[cfg(test)]
pub(crate) fn plan_fusion(
    class: &EriClass,
    precision: Precision,
    model: &CostModel,
    probe_batch: usize,
) -> FusionPlan {
    plan_fusion_with(class, precision, model, probe_batch, BlockShape::default())
}

/// Plan the fusion strategy for an explicit threadblock shape — the entry
/// point the tuner sweeps, since the footprint (and therefore which fusion
/// strategies survive Eq. 13) depends on the candidate tile edge.
#[cfg(test)]
pub(crate) fn plan_fusion_with(
    class: &EriClass,
    precision: Precision,
    model: &CostModel,
    probe_batch: usize,
    shape: BlockShape,
) -> FusionPlan {
    plan_fusion_terms(&BatchTerms::new(class, probe_batch, precision), model, shape)
}

/// [`plan_fusion_with`] on class terms derived by the caller — the tuner
/// plans nine shapes per sweep from one [`BatchTerms`].
pub(crate) fn plan_fusion_terms(terms: &BatchTerms, model: &CostModel, shape: BlockShape) -> FusionPlan {
    let precision = terms.precision();
    let budget = model.device.smem_per_sm / 2; // Eq. (13)
    let mut rejected = Vec::new();
    let mut best: Option<(FusionStrategy, usize, f64)> = None;

    // Coalescing is offered only where it is legal (K_AB = K_CD = 1).
    for &strategy in &CANDIDATES[usize::from(!terms.coalescible())..] {
        let cfg = PipelineConfig {
            fusion: strategy,
            layout: SmemLayout::Swizzled,
            ilp: 4,
            threads_per_block: shape.threads_per_block,
            precision,
            scale_policy: if precision == Precision::Fp64 {
                ScalePolicy::Unscaled
            } else {
                ScalePolicy::PerGroup
            },
            tile: shape.tile,
        };
        let smem = terms.smem_footprint(strategy, shape.tile);
        if smem > budget {
            rejected.push((strategy, smem));
            continue;
        }
        let cost = terms.cost(&cfg, model);
        if !cost.is_finite() {
            rejected.push((strategy, smem));
            continue;
        }
        match best {
            Some((_, _, c)) if c <= cost => {}
            _ => best = Some((strategy, smem, cost)),
        }
    }

    // Unfused has zero footprint and always satisfies the constraint, so a
    // plan always exists.
    let (strategy, smem_bytes, _cost_s) =
        best.expect("Unfused strategy always admissible");
    FusionPlan {
        strategy,
        smem_bytes,
        rejected,
        #[cfg(test)]
        cost_s: _cost_s,
    }
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
    fn low_l_classes_fuse_fully() {
        let model = CostModel::new(DeviceSpec::a100());
        for l in 0..=2 {
            let p = plan_fusion(&class(l, 1), Precision::Fp64, &model, 50_000);
            assert!(
                matches!(
                    p.strategy,
                    FusionStrategy::FuseAll | FusionStrategy::FuseAllCoalesced
                ),
                "l={l}: {:?}",
                p.strategy
            );
            assert!(p.smem_bytes <= model.device.smem_per_sm / 2);
        }
    }

    #[test]
    fn gggg_fuses_through_tiling_and_quantization_shrinks_footprint() {
        // With the Figure 4 N-dim tiling in the footprint model, even the
        // (gg|gg) class plans a fused strategy in both precisions; the
        // quantized plan's footprint is strictly smaller (higher occupancy
        // headroom), and the untiled footprint would be inadmissible.
        let model = CostModel::new(DeviceSpec::a100());
        let c = class(4, 1);
        let p64 = plan_fusion(&c, Precision::Fp64, &model, 10_000);
        let p16 = plan_fusion(&c, Precision::Fp16, &model, 10_000);
        assert!(p64.strategy != FusionStrategy::Unfused, "{:?}", p64.strategy);
        assert!(p16.strategy != FusionStrategy::Unfused, "{:?}", p16.strategy);
        assert!(p16.smem_bytes < p64.smem_bytes);

        use mako_kernels::pipeline::smem_footprint;
        let untiled = PipelineConfig {
            tile: usize::MAX,
            fusion: FusionStrategy::FuseAll,
            ..mako_kernels::pipeline::PipelineConfig::kernel_mako_fp64()
        };
        assert!(
            smem_footprint(&c, &untiled) > model.device.smem_per_sm / 2,
            "untiled footprint must bust the Eq. 13 budget"
        );
    }

    #[test]
    fn coalescing_only_offered_for_k1() {
        let model = CostModel::new(DeviceSpec::a100());
        let p = plan_fusion(&class(1, 5), Precision::Fp64, &model, 50_000);
        assert!(p.strategy != FusionStrategy::FuseAllCoalesced);
    }

    #[test]
    fn fusion_feasibility_responds_to_block_shape() {
        // The tuner re-plans per swept threadblock shape because the tile
        // edge moves the footprint across the Eq. 13 budget: on a V100,
        // (gg|gg) FP64 fits fully fused at tile 8 but not at tile 32 —
        // the plan must fall back to a partial fusion there.
        use mako_accel::DeviceKind;
        use mako_kernels::pipeline::smem_footprint;
        let model = CostModel::new(DeviceSpec::new(DeviceKind::V100));
        let c = class(4, 1);
        let small = plan_fusion_with(
            &c,
            Precision::Fp64,
            &model,
            10_000,
            BlockShape { threads_per_block: 256, tile: 8 },
        );
        let big = plan_fusion_with(
            &c,
            Precision::Fp64,
            &model,
            10_000,
            BlockShape { threads_per_block: 256, tile: 32 },
        );
        assert!(
            matches!(
                small.strategy,
                FusionStrategy::FuseAll | FusionStrategy::FuseAllCoalesced
            ),
            "tile 8 must plan fully fused, got {:?}",
            small.strategy
        );
        assert!(
            !matches!(
                big.strategy,
                FusionStrategy::FuseAll | FusionStrategy::FuseAllCoalesced
            ),
            "tile 32 busts the V100 budget, got {:?}",
            big.strategy
        );
        assert!(
            big.rejected.iter().any(|(s, _)| *s == FusionStrategy::FuseAll),
            "FuseAll must be rejected by Eq. 13 at tile 32"
        );
        // Each plan's own footprint is admissible for its shape.
        for (p, tile) in [(&small, 8usize), (&big, 32)] {
            let cfg = PipelineConfig {
                fusion: p.strategy,
                tile,
                ..PipelineConfig::kernel_mako_fp64()
            };
            assert!(smem_footprint(&c, &cfg) <= model.device.smem_per_sm / 2);
        }
    }

    #[test]
    fn chosen_plan_respects_budget_on_every_device() {
        use mako_accel::DeviceKind;
        for kind in [DeviceKind::A100_40G, DeviceKind::V100, DeviceKind::H100] {
            let model = CostModel::new(DeviceSpec::new(kind));
            for l in 0..=4 {
                for &k in &[1usize, 5] {
                    let p = plan_fusion(&class(l, k), Precision::Fp16, &model, 10_000);
                    assert!(
                        p.smem_bytes <= model.device.smem_per_sm / 2,
                        "{kind:?} l={l} k={k}"
                    );
                    assert!(p.cost_s.is_finite());
                }
            }
        }
    }
}
