//! Architecture-Tuned Compilation (paper §3.3.2, Algorithm 2).
//!
//! For each (ERI class, precision, device) the tuner sweeps the CUTLASS-like
//! configuration space — threadblock size, shared-memory layout, fusion
//! strategy (re-planned per threadblock shape, since the threadblock shape
//! couples to the footprint), and the implicit-ILP factor 1..32 — scoring
//! every candidate under the device cost model and keeping the fastest.
//! Class-only terms are derived once per sweep ([`BatchTerms`]) and every
//! candidate is priced from `Copy` [`mako_accel::KernelProfile`]s: a sweep
//! is ~150 roofline evaluations and next to no heap traffic.
//! Winners are memoized in a process-wide [`KernelCache`] — a plain,
//! unbounded map — the analogue of CUTLASS Profiler's best-kernel database.

use crate::planner::{plan_fusion_terms, BlockShape};
use mako_accel::{CostModel, DeviceKind, SmemLayout};
use mako_eri::batch::EriClass;
use mako_kernels::pipeline::{smem_footprint, BatchTerms, PipelineConfig};
use mako_precision::{Precision, ScalePolicy};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A tuned kernel configuration with its modeled performance.
#[derive(Debug, Clone, Copy)]
pub struct TunedKernel {
    /// The winning configuration.
    pub config: PipelineConfig,
    /// Modeled seconds for the probe batch.
    pub cost_s: f64,
    /// Number of candidate configurations evaluated.
    pub candidates_evaluated: usize,
    /// Candidates (including fusion strategies considered during per-shape
    /// planning) rejected by the Eq. 13 occupancy budget
    /// `S(F) ≤ smem_per_sm / 2`.
    pub eq13_rejections: usize,
}

/// Batch size used to score candidates during tuning.
const PROBE_BATCH: usize = 50_000;

/// Algorithm 2: exhaustive sweep over the tunable space for one class.
///
/// Every candidate is admitted only if its live-tensor footprint satisfies
/// the Eq. 13 occupancy budget `S(F) ≤ smem_per_sm / 2` (≥ 2 resident
/// threadblocks per SM). The fusion strategy is re-planned per threadblock
/// shape — the tile edge moves the footprint, so a shape change can flip
/// which strategies survive the budget.
pub fn tune_class(class: &EriClass, precision: Precision, model: &CostModel) -> TunedKernel {
    let scale_policy = if precision == Precision::Fp64 {
        ScalePolicy::Unscaled
    } else {
        ScalePolicy::PerGroup
    };
    let budget = model.device.smem_per_sm / 2; // Eq. (13)
    // Class dimensions, FLOPs and bytes at the probe batch: once per sweep.
    let terms = BatchTerms::new(class, PROBE_BATCH, precision);

    let mut sp = mako_trace::span("compiler", "tune_class");
    let mut best: Option<(PipelineConfig, f64)> = None;
    let mut evaluated = 0usize;
    let mut rejected = 0usize;

    for &threads in &[128usize, 256, 512] {
        for tile in [8usize, 16, 32] {
            // The (threads, tile) shape couples to the footprint: re-plan
            // the fusion strategy for this exact shape.
            let shape = BlockShape {
                threads_per_block: threads,
                tile,
            };
            let plan = plan_fusion_terms(&terms, model, shape);
            rejected += plan.rejected.len();
            // The footprint moves with (strategy, tile) only — one value
            // for all twelve (layout, ILP) candidates of this shape.
            let smem = terms.smem_footprint(plan.strategy, tile);
            for &layout in &[SmemLayout::Swizzled, SmemLayout::Linear] {
                for ilp in (0..=5).map(|k| 1usize << k) {
                    let cfg = PipelineConfig {
                        fusion: plan.strategy,
                        layout,
                        ilp,
                        threads_per_block: threads,
                        precision,
                        scale_policy,
                        tile,
                    };
                    evaluated += 1;
                    // Re-check the budget per candidate: planning already
                    // enforced it for this shape, but admissibility is the
                    // tuner's contract with the SCF driver, not an accident
                    // of where the config came from.
                    if smem > budget {
                        rejected += 1;
                        continue;
                    }
                    let cost = terms.cost(&cfg, model);
                    if cost.is_finite() {
                        match best {
                            Some((_, c)) if c <= cost => {}
                            _ => best = Some((cfg, cost)),
                        }
                    }
                }
            }
        }
    }

    let (config, cost_s) = best.expect("at least the unfused plan is admissible");
    if sp.is_recording() {
        sp.add_field("class", class.label());
        sp.add_field("precision", format!("{precision:?}"));
        sp.add_field("device", format!("{:?}", model.device.kind));
        sp.add_field("candidates", evaluated);
        sp.add_field("eq13_rejections", rejected);
        sp.add_field("cost_s", cost_s);
        sp.add_field("smem_bytes", smem_footprint(class, &config));
    }
    TunedKernel {
        config,
        cost_s,
        candidates_evaluated: evaluated,
        eq13_rejections: rejected,
    }
}

/// Process-wide memo of tuned kernels keyed by (class, precision, device).
///
/// Unbounded: keys range over l ≤ 4 and the contraction degrees of the
/// built-in basis families (a few thousand at most), a [`TunedKernel`] is
/// `Copy` and under 100 B, and `tune_class` is deterministic, so an entry
/// never goes stale and nothing needs rationing or persisting — a sweep is
/// 5–10 µs of allocation-free host time.
#[derive(Default)]
pub struct KernelCache {
    map: RwLock<HashMap<(EriClass, Precision, DeviceKind), TunedKernel>>,
    hits: AtomicUsize,
    tunes: AtomicUsize,
    duplicates_avoided: AtomicUsize,
}

impl KernelCache {
    /// Empty cache.
    pub fn new() -> KernelCache {
        KernelCache::default()
    }

    /// Fetch the tuned kernel for a class, tuning on a miss.
    ///
    /// Race-free: a read-lock miss is re-checked under the write lock
    /// before tuning, so concurrent callers of the same key never run the
    /// sweep twice (the loser of the lock race finds the entry and counts a
    /// `duplicates_avoided`). Tuning holds the write lock, so misses on
    /// *different* keys serialize — cheaper, at 5–10 µs a sweep, than
    /// releasing the lock around it and tracking in-flight keys would be.
    pub fn get_or_tune(&self, class: &EriClass, precision: Precision, model: &CostModel) -> TunedKernel {
        let key = (*class, precision, model.device.kind);
        if let Some(&hit) = self.map.read().get(&key) {
            let hits = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
            mako_trace::counter("compiler", "kernel_cache.hits", hits as f64);
            return hit;
        }
        let mut map = self.map.write();
        if let Some(&hit) = map.get(&key) {
            // Another caller tuned this key between our read miss and the
            // write acquisition.
            let avoided = self.duplicates_avoided.fetch_add(1, Ordering::Relaxed) + 1;
            mako_trace::counter("compiler", "kernel_cache.duplicates_avoided", avoided as f64);
            return hit;
        }
        let tuned = tune_class(class, precision, model);
        let tunes = self.tunes.fetch_add(1, Ordering::Relaxed) + 1;
        mako_trace::counter("compiler", "kernel_cache.tunes", tunes as f64);
        map.insert(key, tuned);
        tuned
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-lock hits served so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Tuning sweeps actually run: one per distinct key.
    pub fn tunes_performed(&self) -> usize {
        self.tunes.load(Ordering::Relaxed)
    }

    /// Redundant sweeps avoided by the write-lock double-check.
    pub fn duplicates_avoided(&self) -> usize {
        self.duplicates_avoided.load(Ordering::Relaxed)
    }

    /// Always 0: nothing is evicted. Kept only because
    /// `benchmark/src/{replay.rs:224, workloads.rs:578}` call it; the next
    /// `[benchmark]` PR removes those calls and this with them.
    pub fn evictions(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_accel::DeviceSpec;
    use mako_kernels::pipeline::{simulate_batch_cost, FusionStrategy};

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
    fn tuned_never_slower_than_default() {
        let model = CostModel::new(DeviceSpec::a100());
        for l in 0..=3 {
            let c = class(l, 1);
            let tuned = tune_class(&c, Precision::Fp64, &model);
            let default = simulate_batch_cost(
                &c,
                PROBE_BATCH,
                &PipelineConfig::kernel_mako_fp64(),
                &model,
            );
            assert!(
                tuned.cost_s <= default * (1.0 + 1e-12),
                "l={l}: tuned {} default {default}",
                tuned.cost_s
            );
            assert!(tuned.candidates_evaluated >= 36);
        }
    }

    #[test]
    fn tuner_prefers_swizzled_layout() {
        // With a non-trivial r/pq share, bank conflicts make the linear
        // layout strictly worse, so the winner must be swizzled.
        let model = CostModel::new(DeviceSpec::a100());
        let tuned = tune_class(&class(2, 5), Precision::Fp64, &model);
        assert_eq!(tuned.config.layout, SmemLayout::Swizzled);
    }

    #[test]
    fn tuner_picks_midrange_ilp_for_fused_kernels() {
        // (dd|dd) K={5,5}: fully fused and compute-bound, with a non-MatMul
        // r/pq share large enough that ILP restructuring pays; the tuner
        // must not leave the factor at 1.
        let model = CostModel::new(DeviceSpec::a100());
        let tuned = tune_class(&class(2, 5), Precision::Fp64, &model);
        assert_eq!(tuned.config.fusion, FusionStrategy::FuseAll);
        assert!(
            (2..=16).contains(&tuned.config.ilp),
            "ilp = {}",
            tuned.config.ilp
        );
    }

    #[test]
    fn cache_hits_are_stable() {
        let model = CostModel::new(DeviceSpec::a100());
        let cache = KernelCache::new();
        let c = class(3, 1);
        let a = cache.get_or_tune(&c, Precision::Fp16, &model);
        let b = cache.get_or_tune(&c, Precision::Fp16, &model);
        assert_eq!(cache.len(), 1);
        assert_eq!(a.cost_s, b.cost_s);
        assert_eq!(a.config.ilp, b.config.ilp);
        // Different precision → separate entry.
        cache.get_or_tune(&c, Precision::Fp64, &model);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn tuned_winners_satisfy_eq13_on_every_device() {
        // Regression for the admissibility bug: the sweep used to score
        // budget-busting configs with a finite (merely occupancy-degraded)
        // cost, so a config with S(F) > smem_per_sm/2 could win. Every
        // winner must now leave ≥ 2 threadblocks resident per SM, on every
        // supported architecture, for every class up to (gg|gg) and both
        // contraction regimes.
        for kind in [
            DeviceKind::V100,
            DeviceKind::A100_40G,
            DeviceKind::A100_80G,
            DeviceKind::H100,
        ] {
            let model = CostModel::new(DeviceSpec::new(kind));
            let budget = model.device.smem_per_sm / 2;
            for l in 0..=4 {
                for &k in &[1usize, 5] {
                    for precision in [Precision::Fp64, Precision::Fp16] {
                        let c = class(l, k);
                        let tuned = tune_class(&c, precision, &model);
                        let smem = mako_kernels::pipeline::smem_footprint(&c, &tuned.config);
                        assert!(
                            smem <= budget,
                            "{kind:?} l={l} k={k} {precision:?}: winner footprint {smem} \
                             busts the Eq. 13 budget {budget} (cfg {:?})",
                            tuned.config
                        );
                        assert!(tuned.cost_s.is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn gggg_on_v100_is_where_the_bug_bit() {
        // The concrete failure: (gg|gg) FP64 fully fused at tile 32 has a
        // ~92 KiB footprint — launchable on a V100 (96 KiB/SM), so the old
        // sweep priced it finitely, but it leaves a single resident block.
        // The fixed tuner must never crown it.
        let model = CostModel::new(DeviceSpec::new(DeviceKind::V100));
        let c = class(4, 1);
        let bad = PipelineConfig {
            fusion: FusionStrategy::FuseAll,
            tile: 32,
            ..PipelineConfig::kernel_mako_fp64()
        };
        let budget = model.device.smem_per_sm / 2;
        let smem = mako_kernels::pipeline::smem_footprint(&c, &bad);
        assert!(
            smem > budget && smem <= model.device.smem_per_sm,
            "premise: the bad config is launchable but inadmissible ({smem} bytes)"
        );
        assert!(
            simulate_batch_cost(&c, PROBE_BATCH, &bad, &model).is_finite(),
            "premise: the cost model alone does not reject it"
        );
        let tuned = tune_class(&c, Precision::Fp64, &model);
        assert!(
            mako_kernels::pipeline::smem_footprint(&c, &tuned.config) <= budget,
            "tuner crowned an inadmissible config: {:?}",
            tuned.config
        );
        assert!(tuned.eq13_rejections > 0, "the sweep must have rejected candidates");
    }

    #[test]
    fn concurrent_callers_tune_a_key_exactly_once() {
        // The duplicate-tune race: the old get_or_tune dropped the read
        // lock before tuning, so N concurrent callers ran N sweeps and
        // clobbered each other's insert. The write-lock double-check must
        // collapse that to exactly one sweep.
        let model = CostModel::new(DeviceSpec::a100());
        // An occupied cache, so the contested insert is not the first.
        let cache = KernelCache::new();
        cache.get_or_tune(&class(0, 1), Precision::Fp64, &model);
        let c = class(2, 5);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| cache.get_or_tune(&c, Precision::Fp64, &model));
            }
        });
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.tunes_performed(),
            2,
            "exactly one sweep may run for one key"
        );
        assert_eq!(
            cache.tunes_performed() + cache.duplicates_avoided() + cache.hits(),
            9,
            "every caller is accounted as tune, avoided duplicate, or hit"
        );
    }

    #[test]
    fn portability_across_devices() {
        // The same class tunes successfully (possibly to different configs)
        // on every supported architecture — the paper's portability claim.
        let c = class(4, 1);
        let mut costs = Vec::new();
        for kind in [DeviceKind::V100, DeviceKind::A100_40G, DeviceKind::H100] {
            let model = CostModel::new(DeviceSpec::new(kind));
            let tuned = tune_class(&c, Precision::Fp16, &model);
            assert!(tuned.cost_s.is_finite(), "{kind:?}");
            costs.push(tuned.cost_s);
        }
        // Newer devices are faster on the same tuned class.
        assert!(costs[2] < costs[1] && costs[1] < costs[0]);
    }
}
