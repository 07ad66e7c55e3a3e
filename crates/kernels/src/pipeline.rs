//! The KernelMako execution pipelines: real quartet numerics + simulated
//! device cost, per ERI-class batch.
//!
//! The numerical model of a tensor-core MMA: a tensor core rounds its
//! *operands* to the input format (FP16/BF16/TF32) and accumulates the
//! products in FP32 (or FP64 for the FP64 MMA). The pipelines model that in
//! two steps. Operands, pre-scaled per QuantMako's fine-grained
//! quantization, are rounded into reused scratch by
//! [`Precision::round_scaled_extend`] (the "load into tensor-core
//! registers" step; loop-invariant operands once per pair rather than once
//! per product). The rounded slices go to [`gemm_rounded_engine`], which
//! accumulates in the accumulator precision and de-scales the result — the
//! first stage of the paper's Dual-Stage Accumulation.

use std::cell::RefCell;
use mako_accel::{CostModel, KernelProfile, SmemLayout};
use mako_eri::batch::{EriClass, QuartetBatch};
use mako_eri::hermite::HermiteLanes;
use mako_eri::mmd::{
    eri_quartet_mmd_into, pq_block_into, pq_index, r_lanes_into, PqIndex, TWO_PI_POW_2_5,
};
use mako_eri::screening::ScreenedPair;
use mako_eri::tensor::Tensor4;
use mako_chem::cart::{nherm, nsph};
use mako_linalg::{gemm_rounded_engine, transpose_extend, Matrix, Transpose};
use mako_precision::{Precision, ScalePolicy};
use rayon::prelude::*;

/// Kernel-fusion strategies of the KernelMako design space (§3.1 / §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionStrategy {
    /// Every stage (r, pq, two transforms) is a separate kernel with
    /// global-memory intermediates — the LibintX-like baseline.
    Unfused,
    /// r-integrals and `[p|q]` assembly fused; transform GEMMs separate.
    FuseRPq,
    /// One fully fused kernel; intermediates live in shared memory.
    FuseAll,
    /// Fully fused plus back-to-back GEMM coalescing: the `(ab|q]`
    /// intermediate stays in warp-local registers. Valid only when
    /// `K_AB = K_CD = 1` (paper §3.1.3).
    FuseAllCoalesced,
}

/// Configuration of a pipeline run — the tunables CompilerMako sweeps.
///
/// Equality and hashing are derived so callers can group quartet sub-batches
/// by *launch identity* `(EriClass, PipelineConfig)`: two sub-batches with
/// equal keys would compile to the same kernel and can share one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Fusion strategy.
    pub fusion: FusionStrategy,
    /// Shared-memory layout for the r→pq transpose.
    pub layout: SmemLayout,
    /// Implicit-ILP factor applied to the non-MatMul operators (1..=32).
    pub ilp: usize,
    /// Threads per threadblock.
    pub threads_per_block: usize,
    /// Input precision of the basis-transformation GEMMs.
    pub precision: Precision,
    /// Operand scaling policy for reduced-precision runs.
    pub scale_policy: ScalePolicy,
    /// GEMM tile edge for the fused pipelines' shared-memory staging — the
    /// unified N-dimension tiling of the paper's Figure 4. `usize::MAX`
    /// models an untiled kernel that must hold whole operands resident.
    pub tile: usize,
}

impl PipelineConfig {
    /// KernelMako's hand-reasonable FP64 configuration (before autotuning).
    pub fn kernel_mako_fp64() -> PipelineConfig {
        PipelineConfig {
            fusion: FusionStrategy::FuseAll,
            layout: SmemLayout::Swizzled,
            ilp: 4,
            threads_per_block: 256,
            precision: Precision::Fp64,
            scale_policy: ScalePolicy::Unscaled,
            tile: 16,
        }
    }

    /// The QuantMako quantized configuration (FP16 inputs, group scaling).
    pub fn quant_mako() -> PipelineConfig {
        PipelineConfig {
            precision: Precision::Fp16,
            scale_policy: ScalePolicy::PerGroup,
            ..PipelineConfig::kernel_mako_fp64()
        }
    }

    /// Unscaled reduced-precision baseline (Table 2's "Baseline FP16").
    pub fn baseline_low_precision(p: Precision) -> PipelineConfig {
        PipelineConfig {
            precision: p,
            scale_policy: ScalePolicy::Unscaled,
            ..PipelineConfig::kernel_mako_fp64()
        }
    }
}

/// Effective efficiency of the non-MatMul operators after implicit-ILP
/// restructuring (Eq. 8): aligning them to MatMul granularity costs a 4×
/// parallelism deficit that ILP recovers, until register pressure bites.
pub(crate) fn ilp_efficiency(fusion: FusionStrategy, ilp: usize) -> f64 {
    match fusion {
        // Separate kernels run each operator at its own optimal granularity.
        FusionStrategy::Unfused => 1.0,
        _ => {
            let gain = 0.25 * ilp as f64;
            let pressure = if ilp > 8 {
                let r = 8.0 / ilp as f64;
                r * r
            } else {
                1.0
            };
            (gain * pressure).clamp(0.05, 1.0)
        }
    }
}

/// Everything the kernel profiles of a batch need that the swept tunables do
/// not move: the dimensions of `class` and the FLOP and byte counts of `n`
/// of its quartets at `precision`. The tuner derives these once per sweep
/// and prices every (shape, layout, ILP) candidate from them.
#[derive(Debug, Clone, Copy)]
pub struct BatchTerms {
    precision: Precision,
    /// `K_AB = K_CD = 1`: back-to-back GEMM coalescing is legal (§3.1.3).
    coalescible: bool,
    hb: usize,
    hk: usize,
    nab: usize,
    ncd: usize,
    /// The always-resident r tensor, bytes (FP64: numerically fragile).
    r_tile: usize,
    t_flops: f64,
    r_flops: f64,
    pq_flops: f64,
    input_bytes: f64,
    out_bytes: f64,
    r_bytes: f64,
    pq_bytes: f64,
    abq_bytes: f64,
}

impl BatchTerms {
    /// Terms of `n` quartets of `class` with `precision` transform inputs.
    pub fn new(class: &EriClass, n: usize, precision: Precision) -> BatchTerms {
        let nf = n as f64;
        let (hb, hk) = class.herm_dims();
        let nab = nsph(class.la) * nsph(class.lb);
        let ncd = nsph(class.lc) * nsph(class.ld);
        let l_sum = class.l_bra() + class.l_ket();
        let in_size = precision.size_bytes() as f64;
        let kprod = (class.kab * class.kcd) as f64;
        BatchTerms {
            precision,
            coalescible: class.kab == 1 && class.kcd == 1,
            hb,
            hk,
            nab,
            ncd,
            r_tile: nherm(l_sum) * 8,
            t_flops: class.transform_flops() * nf,
            r_flops: class.rpq_flops() * nf * 0.6,
            pq_flops: class.rpq_flops() * nf * 0.4,
            input_bytes: nf * ((class.kab * nab * hb + class.kcd * ncd * hk) as f64 * in_size + 96.0),
            out_bytes: nf * class.out_size() as f64 * 8.0,
            r_bytes: nf * kprod * nherm(l_sum) as f64 * 8.0,
            pq_bytes: nf * kprod * (hb * hk) as f64 * in_size,
            abq_bytes: nf * class.kcd as f64 * (nab * hk) as f64 * 4.0,
        }
    }

    /// The transform-input precision the terms were derived for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Whether `FuseAllCoalesced` may be offered for this class.
    pub fn coalescible(&self) -> bool {
        self.coalescible
    }

    /// [`smem_footprint`] of `fusion` at GEMM tile edge `tile`.
    pub fn smem_footprint(&self, fusion: FusionStrategy, tile: usize) -> usize {
        let (nab, ncd) = (self.nab, self.ncd);
        let in_size = self.precision.size_bytes();
        let kt = self.hb.min(tile); // K-dim tile over bra Hermite
        let nt = self.hk.min(tile); // N-dim tile over ket Hermite
        // First GEMM tiles: E_AB (nab×kt), [p|q] (kt×nt), (ab|q] (nab×nt, FP32).
        let gemm1 = (nab * kt + kt * nt) * in_size + nab * nt * 4;
        // Second GEMM tile: E_CDᵀ (nt×ncd).
        let gemm2 = nt * ncd * in_size;
        // Output accumulator spans all n-tiles: nab×ncd in FP32.
        let out_tile = nab * ncd * 4;
        match fusion {
            FusionStrategy::Unfused => 0, // streaming stages, negligible SMEM
            FusionStrategy::FuseRPq => self.r_tile + (kt * nt) * in_size,
            FusionStrategy::FuseAll => self.r_tile + gemm1 + gemm2 + out_tile,
            // Coalescing keeps (ab|q] in registers instead of SMEM.
            FusionStrategy::FuseAllCoalesced => {
                self.r_tile + gemm1 - nab * nt * 4 + gemm2 + out_tile
            }
        }
    }

    /// The kernel profiles the batch emits under `cfg` (whose precision must
    /// be the one the terms were derived for), in launch order, held inline.
    /// Multiple profiles = multiple kernel launches whose times add.
    pub(crate) fn profiles(&self, cfg: &PipelineConfig) -> impl Iterator<Item = KernelProfile> {
        debug_assert_eq!(cfg.precision, self.precision);
        let conflict = cfg.layout.conflict_ratio();
        let mut base = KernelProfile::named("");
        base.threads_per_block = cfg.threads_per_block;
        base.smem_per_block = self.smem_footprint(cfg.fusion, cfg.tile);
        base.ilp_efficiency = ilp_efficiency(cfg.fusion, cfg.ilp);
        let stage = |name, smem_per_block| KernelProfile {
            name,
            smem_per_block,
            ..base
        };

        let (stages, launches) = match cfg.fusion {
            FusionStrategy::Unfused => {
                // Four streaming kernels; intermediates round-trip global
                // memory, and the r→pq transpose is an explicit extra pass.
                let mut r = stage("r_integrals", 0);
                r.cuda_flops = Some((Precision::Fp64, self.r_flops));
                r.global_read = self.input_bytes * 0.3;
                r.global_write = self.r_bytes;

                let mut transpose = stage("transpose_r", 32 * 1024);
                transpose.cuda_flops = Some((Precision::Fp64, self.r_bytes / 8.0));
                transpose.global_read = self.r_bytes;
                transpose.global_write = self.r_bytes;
                transpose.bank_conflict_factor = conflict;

                let mut pq = stage("pq_integrals", 0);
                pq.cuda_flops = Some((Precision::Fp64, self.pq_flops));
                pq.global_read = self.r_bytes;
                pq.global_write = self.pq_bytes;

                let mut gemm1 = stage("transform_1", 48 * 1024);
                gemm1.tensor_flops = Some((cfg.precision, self.t_flops * 0.7));
                gemm1.global_read = self.pq_bytes + self.input_bytes * 0.35;
                gemm1.global_write = self.abq_bytes;

                let mut gemm2 = stage("transform_2", 48 * 1024);
                gemm2.tensor_flops = Some((cfg.precision, self.t_flops * 0.3));
                gemm2.global_read = self.abq_bytes + self.input_bytes * 0.35;
                gemm2.global_write = self.out_bytes;

                ([r, transpose, pq, gemm1, gemm2], 5)
            }
            FusionStrategy::FuseRPq => {
                let mut rpq = stage("fused_r_pq", base.smem_per_block);
                rpq.cuda_flops = Some((Precision::Fp64, self.r_flops + self.pq_flops));
                rpq.global_read = self.input_bytes * 0.3;
                rpq.global_write = self.pq_bytes;
                rpq.bank_conflict_factor = conflict;

                let mut gemms = stage("transforms", 48 * 1024);
                gemms.tensor_flops = Some((cfg.precision, self.t_flops));
                gemms.global_read = self.pq_bytes + self.input_bytes * 0.7;
                gemms.global_write = self.out_bytes + self.abq_bytes;
                ([rpq, gemms, base, base, base], 2)
            }
            FusionStrategy::FuseAll | FusionStrategy::FuseAllCoalesced => {
                let mut fused = stage("fused_eri", base.smem_per_block);
                fused.tensor_flops = Some((cfg.precision, self.t_flops));
                fused.cuda_flops = Some((Precision::Fp64, self.r_flops + self.pq_flops));
                fused.global_read = self.input_bytes;
                fused.global_write = self.out_bytes;
                fused.bank_conflict_factor = conflict;
                ([fused, base, base, base, base], 1)
            }
        };
        stages.into_iter().take(launches)
    }

    /// [`simulate_batch_cost`] of the batch under `cfg`.
    pub fn cost(&self, cfg: &PipelineConfig, model: &CostModel) -> f64 {
        if cfg.fusion == FusionStrategy::FuseAllCoalesced && !self.coalescible {
            return f64::INFINITY;
        }
        let mut total = 0.0;
        for p in self.profiles(cfg) {
            let rec = model.evaluate(&p);
            if !rec.total_s.is_finite() {
                return f64::INFINITY;
            }
            total += rec.total_s;
        }
        total
    }
}

/// Live shared-memory footprint per threadblock (one quartet in flight),
/// bytes — the `S(F)` of CompilerMako's Eq. (12).
///
/// Fused pipelines stage their GEMM operands through `cfg.tile`-edge tiles
/// (the unified N-dimension tiling of the paper's Figure 4), so the
/// footprint of a class grows with its Hermite dimensions only through the
/// always-resident r tensor and the output accumulator — which is what
/// keeps even (gg|gg) fusable.
pub fn smem_footprint(class: &EriClass, cfg: &PipelineConfig) -> usize {
    BatchTerms::new(class, 0, cfg.precision).smem_footprint(cfg.fusion, cfg.tile)
}

/// The kernel profiles one batch emits under a configuration.
pub(crate) fn batch_profiles(
    class: &EriClass,
    n: usize,
    cfg: &PipelineConfig,
) -> impl Iterator<Item = KernelProfile> {
    BatchTerms::new(class, n, cfg.precision).profiles(cfg)
}

/// Simulated seconds to run a batch of `n` quartets of `class` under `cfg`
/// on the device of `model`. Returns `f64::INFINITY` when the configuration
/// cannot launch (SMEM footprint exceeds the device).
pub fn simulate_batch_cost(class: &EriClass, n: usize, cfg: &PipelineConfig, model: &CostModel) -> f64 {
    BatchTerms::new(class, n, cfg.precision).cost(cfg, model)
}

/// Simulated device seconds for a batch of `n` quartets of `class` under
/// `cfg` — exactly the clock [`run_batch`] charges. The device is priced per
/// *batched launch*, so this figure is independent of how the host later
/// chunks the numerics across worker threads: parallelizing the host never
/// changes the simulated device time.
pub fn batch_device_seconds(
    class: &EriClass,
    n: usize,
    cfg: &PipelineConfig,
    model: &CostModel,
) -> f64 {
    batch_profiles(class, n, cfg)
        .map(|p| model.evaluate(&p).total_s)
        .sum()
}

/// Price one *fused* launch covering several same-class, same-config quartet
/// sub-batches (typically from independent molecules run in lockstep), and
/// the per-launch baseline it replaces.
///
/// Returns `(fused_seconds, solo_seconds)`: the cost of a single launch over
/// `Σ counts` quartets versus the sum of one launch per sub-batch. Because
/// every [`KernelProfile`] carries fixed per-launch latency on top of its
/// throughput terms, `fused ≤ solo` always, with strict savings whenever
/// `counts.len() > 1` — that gap is exactly the launch-amortization win the
/// ensemble driver banks. Pricing only: the numerics of each sub-batch are
/// evaluated per molecule and never mixed.
pub fn fused_batch_device_seconds(
    class: &EriClass,
    counts: &[usize],
    cfg: &PipelineConfig,
    model: &CostModel,
) -> (f64, f64) {
    let total: usize = counts.iter().sum();
    let fused = batch_device_seconds(class, total, cfg, model);
    let solo = counts
        .iter()
        .map(|&n| batch_device_seconds(class, n, cfg, model))
        .sum();
    (fused, solo)
}

/// Group scale for the E operands of one quartet population: one scale per
/// ERI class (angular-momentum-aware grouping, §3.2.1), from the
/// population-wide max magnitude. Returns 1.0 for unscaled policies.
///
/// The scale is a property of the *whole* sub-batch: callers that chunk the
/// quartet list for host parallelism must compute it once over the full list
/// and pass it to every chunk, or the numerics would depend on the chunking.
pub fn batch_group_scale(
    quartets: impl IntoIterator<Item = (usize, usize)>,
    pairs: &[ScreenedPair],
    cfg: &PipelineConfig,
) -> f64 {
    match cfg.scale_policy {
        ScalePolicy::PerGroup => {
            let mut m = 0.0f64;
            for (pi, qi) in quartets {
                m = m.max(pairs[pi].data.e.max_abs());
                m = m.max(pairs[qi].data.e.max_abs());
            }
            cfg.scale_policy.scale(m)
        }
        ScalePolicy::Unscaled => 1.0,
    }
}

/// A reusable per-class quartet evaluator: owns the pipeline configuration,
/// the frozen group scale and (quantized configurations) the rounded-operand
/// cache, so chunked callers (the parallel Fock assembly engine) evaluate
/// quartets without rebuilding per-class state.
pub struct QuartetRunner {
    idx: &'static PqIndex,
    cfg: PipelineConfig,
    e_scale: f64,
    /// `None` for FP64, which never rounds.
    rounded: Option<RoundedPairCache>,
}

/// One shell pair's `E` matrices rounded at the frozen group scale: the
/// per-primitive `round(E · e_scale)` blocks, each `nsph_pair × nherm`
/// row-major, concatenated. A quartet reads its bra's entry as the A operand
/// of the first transform and its ket's per-primitive blocks as the
/// (transposed) B operand of the second — both consume the same rounded
/// data, so a single entry serves a pair in either role.
struct RoundedPair {
    flat: Vec<f64>,
    /// Length of one primitive's block.
    block: usize,
}

impl RoundedPair {
    fn block(&self, i: usize) -> &[f64] {
        &self.flat[i * self.block..(i + 1) * self.block]
    }
}

/// Lazily-initialized per-batch cache of [`RoundedPair`]s, indexed by
/// screened-pair index. Rounding at the group scale is a pure elementwise
/// function, so it is pair-invariant across the whole batch — without the
/// cache the hot loop re-rounds the same `E_AB`/`E_CD` blocks for every
/// quartet the pair participates in (hundreds, for a water cluster).
///
/// Thread-safe via `OnceLock`: racing workers may both compute an entry,
/// but they compute identical bits, so whichever wins preserves the
/// pipeline's bitwise determinism.
struct RoundedPairCache {
    precision: Precision,
    e_scale: f64,
    slots: Vec<std::sync::OnceLock<RoundedPair>>,
}

impl RoundedPairCache {
    fn new(cfg: &PipelineConfig, e_scale: f64, npairs: usize) -> RoundedPairCache {
        RoundedPairCache {
            precision: cfg.precision,
            e_scale,
            slots: (0..npairs).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    fn get(&self, i: usize, pair: &ScreenedPair) -> &RoundedPair {
        self.slots[i].get_or_init(|| {
            // The pair stores its blocks transposed (`nherm × nsph_pair`):
            // round the whole stack in one batch, then lay each block out the
            // way the per-primitive transforms read it.
            let data = &pair.data;
            let (nh, ns) = (data.nherm, data.nsph_pair);
            let mut stacked = Vec::new();
            self.precision.round_scaled_extend(self.e_scale, data.e.as_slice(), &mut stacked);
            let mut flat = Vec::with_capacity(stacked.len());
            for block in stacked.chunks_exact(nh * ns) {
                transpose_extend(block, nh, ns, &mut flat);
            }
            RoundedPair { flat, block: nh * ns }
        })
    }
}

impl QuartetRunner {
    /// Build a runner for one ERI class over a screened pair population of
    /// `npairs`. `e_scale` must come from [`batch_group_scale`] over the
    /// *full* quartet population the runner will serve (see there); quartets
    /// of a quantized configuration then share each pair's rounded `E` blocks
    /// instead of re-rounding them per quartet.
    pub fn for_pairs(
        class: &EriClass,
        cfg: &PipelineConfig,
        e_scale: f64,
        npairs: usize,
    ) -> QuartetRunner {
        QuartetRunner {
            idx: pq_index(class.l_bra(), class.l_ket()),
            cfg: *cfg,
            e_scale,
            rounded: (cfg.precision != Precision::Fp64)
                .then(|| RoundedPairCache::new(cfg, e_scale, npairs)),
        }
    }

    /// Evaluate the quartet of screened pairs `(pi, qi)` into `out`, reusing
    /// its allocation: the FP64 routine of `mako-eri`, or the quantized
    /// per-primitive pipeline on the cached rounded operands.
    pub fn run_indexed(
        &self,
        pairs: &[ScreenedPair],
        pi: usize,
        qi: usize,
        out: &mut Tensor4,
    ) {
        let (pab, pcd) = (&pairs[pi], &pairs[qi]);
        match &self.rounded {
            None => eri_quartet_mmd_into(&pab.data, &pcd.data, out),
            Some(cache) => {
                let rounded = (cache.get(pi, pab), cache.get(qi, pcd));
                quantized_quartet_into(self, pab, pcd, rounded, out);
            }
        }
    }
}

/// Output of a numerically executed batch.
#[derive(Debug)]
pub struct BatchOutput {
    /// The class that ran.
    pub class: EriClass,
    /// One spherical quartet tensor per batch entry (same order).
    pub tensors: Vec<Tensor4>,
    /// Simulated device seconds for the batch.
    pub seconds: f64,
}

/// Execute a quartet batch: real ERI numerics under the configured
/// precision/scaling, plus simulated cost under the device model.
pub fn run_batch(
    batch: &QuartetBatch,
    pairs: &[ScreenedPair],
    cfg: &PipelineConfig,
    model: &CostModel,
) -> BatchOutput {
    let class = batch.class;
    let e_scale = batch_group_scale(batch.quartets.iter().copied(), pairs, cfg);
    let runner = QuartetRunner::for_pairs(&class, cfg, e_scale, pairs.len());
    let mut tensors: Vec<Tensor4> = (0..batch.len()).map(|_| Tensor4::zeros([0; 4])).collect();
    tensors
        .par_iter_mut()
        .zip(batch.quartets.par_iter())
        .for_each(|(t, &(pi, qi))| runner.run_indexed(pairs, pi, qi, t));
    BatchOutput {
        class,
        tensors,
        seconds: batch_device_seconds(&class, batch.len(), cfg, model),
    }
}

/// Per-thread workspace for [`quantized_quartet_into`]: every matrix,
/// Hermite lane, and rounded-operand buffer of the per-quartet hot loop is
/// reused across the (tens of thousands of) quartets a worker evaluates.
#[derive(Default)]
struct QuartetScratch {
    /// `(ab|q]` half-transformed accumulator.
    abq: Matrix,
    /// `R_tuv` of every primitive-pair combination of the quartet.
    r: HermiteLanes,
    /// Every `[p|q]` block of the quartet, `h_bra × h_ket` each, in lane order.
    blocks: Vec<f64>,
    /// Rounded `[p|q]` of the current combination.
    rb: Vec<f64>,
    /// Rounded `(ab|q]` for the second transform.
    rabq: Vec<f64>,
}

thread_local! {
    static QSCRATCH: RefCell<QuartetScratch> = RefCell::new(QuartetScratch::default());
}

/// The quantized quartet: per primitive-pair combination, round its `[p|q]`
/// at its own group scale, one packed small-GEMM — the per-block scales are
/// why this path does not stack primitives the way the FP64 routine does.
/// Three hoists keep the per-combination work to that:
///  1. `R_tuv` of every combination comes from one [`r_lanes_into`] pass
///     (table Boys values, the recursion run across lanes), and every
///     `[p|q]` block is filled before the first is rounded;
///  2. bra and ket E blocks rounded at the frozen group scale come from the
///     batch-wide pair cache;
///  3. the ket transform feeds rounded E_CD to the engine as a transposed
///     view instead of materializing a transpose.
fn quantized_quartet_into(
    runner: &QuartetRunner,
    pab: &ScreenedPair,
    pcd: &ScreenedPair,
    (rounded_bra, rounded_ket): (&RoundedPair, &RoundedPair),
    t: &mut Tensor4,
) {
    let QuartetRunner { idx, cfg, e_scale, .. } = runner;
    let e_scale = *e_scale;
    let ab = &pab.data;
    let cd = &pcd.data;
    t.reset([nsph(ab.la), nsph(ab.lb), nsph(cd.la), nsph(cd.lb)]);
    // `t` is row-major over `(ia·nb + ib, ic·nd + id)`: the second
    // transform's output matrix.
    let out = t.data.as_mut_slice();
    QSCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let QuartetScratch {
            abq,
            r,
            blocks,
            rb,
            rabq,
        } = &mut *s;
        abq.reset(ab.nsph_pair, cd.nherm);
        r_lanes_into(ab, cd, r);
        // Lane of bra primitive `bi` and ket primitive `ki`.
        let kcd = cd.degree();
        let lane = |bi: usize, ki: usize| bi * kcd + ki;

        let l_tot = ab.l_total() + cd.l_total();
        let (m, hb, hk, ncd) = (ab.nsph_pair, ab.nherm, cd.nherm, cd.nsph_pair);

        if l_tot == 0 {
            // Degenerate (00|00) class: every operand is a 1×1 matrix, so
            // each "GEMM" is a single multiply. This branch performs the
            // same FP operations in the same order as the general loop
            // below (assemble [p|q] → per-group scale → round → f32-acc
            // multiply → descale) and is therefore bitwise inert — it
            // only skips the per-combination call/dispatch plumbing,
            // which for this class costs more than the arithmetic. It
            // matters because s-only quartets dominate real workloads
            // (~half the population for an STO-3G water cluster).
            debug_assert!(m == 1 && hb == 1 && hk == 1 && ncd == 1);
            let r0 = r.component(0);
            for (ki, ket) in cd.prims.iter().enumerate() {
                let mut abq0 = 0.0f64;
                for (bi, bra) in ab.prims.iter().enumerate() {
                    let prefac = TWO_PI_POW_2_5 / (bra.p * ket.p * (bra.p + ket.p).sqrt());
                    let pq0 = prefac * idx.ket_sign[0] * r0[lane(bi, ki)];
                    // `0.0.max(|v|)` is `Matrix::max_abs`'s fold over one
                    // element, so the scale is the general loop's bit for bit.
                    let sb = cfg.scale_policy.scale(0.0f64.max(pq0.abs()));
                    let rb0 = cfg.precision.round(pq0 * sb);
                    let ra0 = rounded_bra.flat[bi];
                    abq0 += ((ra0 * rb0) as f32) as f64 * (1.0 / (e_scale * sb));
                }
                let sa = cfg.scale_policy.scale(0.0f64.max(abq0.abs()));
                let rabq0 = cfg.precision.round(abq0 * sa);
                let rcd0 = rounded_ket.flat[ki];
                out[0] += ((rabq0 * rcd0) as f32) as f64 * (1.0 / (sa * e_scale));
            }
            return;
        }

        let block_len = hb * hk;
        blocks.resize(r.lanes() * block_len, 0.0);
        for (bi, bra) in ab.prims.iter().enumerate() {
            for (ki, ket) in cd.prims.iter().enumerate() {
                let l = lane(bi, ki);
                pq_block_into(bra, ket, idx, r, l, &mut blocks[l * block_len..], hk);
            }
        }
        for ki in 0..kcd {
            for x in abq.as_mut_slice() {
                *x = 0.0;
            }
            for bi in 0..ab.degree() {
                let block = &blocks[lane(bi, ki) * block_len..][..block_len];
                // `Matrix::max_abs`'s fold.
                let max_abs = block.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                let sb = cfg.scale_policy.scale(max_abs);
                rb.clear();
                cfg.precision.round_scaled_extend(sb, block, rb);
                gemm_rounded_engine(
                    m,
                    hb,
                    hk,
                    rounded_bra.block(bi),
                    rb,
                    Transpose::No,
                    true,
                    1.0 / (e_scale * sb),
                    abq.as_mut_slice(),
                );
            }
            // Second transform: (ab|cd) += (ab|q] · E_CDᵀ.
            let sa = cfg.scale_policy.scale(abq.max_abs());
            rabq.clear();
            cfg.precision.round_scaled_extend(sa, abq.as_slice(), rabq);
            gemm_rounded_engine(
                m,
                hk,
                ncd,
                rabq,
                rounded_ket.block(ki),
                Transpose::Yes,
                true,
                1.0 / (sa * e_scale),
                out,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_accel::DeviceSpec;
    use mako_eri::batch::batch_quartets;
    use mako_eri::mmd::eri_quartet_mmd;
    use mako_eri::screening::build_screened_pairs;
    use mako_chem::basis::ShellDef;
    use mako_chem::Shell;

    fn shell(l: usize, center: [f64; 3], exp: f64) -> Shell {
        ShellDef {
            l,
            exps: vec![exp],
            coefs: vec![1.0],
        }
        .at(0, center)
    }

    fn small_system() -> (Vec<ScreenedPair>, Vec<QuartetBatch>) {
        let shells = vec![
            shell(0, [0.0; 3], 1.1),
            shell(1, [0.8, 0.1, -0.2], 0.7),
            shell(2, [-0.4, 0.6, 0.3], 0.5),
        ];
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-12);
        (pairs, batches)
    }

    #[test]
    fn fp64_pipeline_matches_reference_exactly() {
        let (pairs, batches) = small_system();
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig::kernel_mako_fp64();
        for b in &batches {
            let out = run_batch(b, &pairs, &cfg, &model);
            for (k, &(pi, qi)) in b.quartets.iter().enumerate() {
                let reference = eri_quartet_mmd(&pairs[pi].data, &pairs[qi].data);
                let d = out.tensors[k].max_abs_diff(&reference);
                assert!(d < 1e-13, "class {} diff {d}", b.class.label());
            }
            assert!(out.seconds > 0.0 && out.seconds.is_finite());
        }
    }

    /// The quantized quartet assembled one primitive-pair combination at a
    /// time, as before the Hermite recursion ran across lanes: per (ket,
    /// bra) combination, table Boys values, the generic `r_integrals`, the
    /// `[p|q]` fill, then scale, round and the packed small GEMM.
    fn per_combination_quantized(
        runner: &QuartetRunner,
        pab: &ScreenedPair,
        pcd: &ScreenedPair,
        (rounded_bra, rounded_ket): (&RoundedPair, &RoundedPair),
    ) -> Vec<f64> {
        let QuartetRunner { idx, cfg, e_scale, .. } = runner;
        let (ab, cd) = (&pab.data, &pcd.data);
        let l_tot = ab.l_total() + cd.l_total();
        let (m, hb, hk, ncd) = (ab.nsph_pair, ab.nherm, cd.nherm, cd.nsph_pair);
        let mut boys = vec![0.0; l_tot + 1];
        let (mut rb, mut rabq) = (Vec::new(), Vec::new());
        let mut out = vec![0.0; m * ncd];
        for (ki, ket) in cd.prims.iter().enumerate() {
            let mut abq = Matrix::zeros(m, hk);
            for (bi, bra) in ab.prims.iter().enumerate() {
                let (alpha, sep, t) = mako_eri::mmd::pq_geometry(bra, ket);
                mako_eri::shared_table().eval(l_tot, t, &mut boys);
                let r = mako_eri::hermite::r_integrals(l_tot, alpha, sep, &boys);
                let prefac = TWO_PI_POW_2_5 / (bra.p * ket.p * (bra.p + ket.p).sqrt());
                let pq: Vec<f64> = (idx.combined.iter().enumerate())
                    .map(|(i, &ci)| prefac * idx.ket_sign[i % hk] * r[ci])
                    .collect();
                let pq = Matrix::from_vec(hb, hk, pq);
                let sb = cfg.scale_policy.scale(pq.max_abs());
                rb.clear();
                cfg.precision.round_scaled_extend(sb, pq.as_slice(), &mut rb);
                let (e_ab, descale) = (rounded_bra.block(bi), 1.0 / (e_scale * sb));
                let c = abq.as_mut_slice();
                gemm_rounded_engine(m, hb, hk, e_ab, &rb, Transpose::No, true, descale, c);
            }
            let sa = cfg.scale_policy.scale(abq.max_abs());
            rabq.clear();
            cfg.precision.round_scaled_extend(sa, abq.as_slice(), &mut rabq);
            let (e_cd, descale) = (rounded_ket.block(ki), 1.0 / (sa * e_scale));
            let c = &mut out;
            gemm_rounded_engine(m, hk, ncd, &rabq, e_cd, Transpose::Yes, true, descale, c);
        }
        out
    }

    #[test]
    fn quantized_quartet_is_the_per_combination_assembly_bit_for_bit() {
        // Contracted shells s through f on five centres: every class from
        // (ss|ss) to (ff|ff), one to three primitives a shell.
        let contracted = |l: usize, center: [f64; 3], exps: &[f64]| {
            let coefs = (0..exps.len()).map(|i| 0.4 + 0.3 * i as f64).collect();
            ShellDef { l, exps: exps.to_vec(), coefs }.at(0, center)
        };
        let shells = vec![
            contracted(0, [0.0; 3], &[3.4, 0.9, 0.3]),
            contracted(1, [0.8, 0.1, -0.2], &[1.7, 0.5]),
            contracted(2, [-0.4, 0.6, 0.3], &[0.8]),
            contracted(3, [0.3, -0.7, 0.5], &[1.1, 0.4]),
            contracted(1, [-0.6, -0.3, -0.5], &[0.6]),
        ];
        let pairs = build_screened_pairs(&shells, 1e-12);
        let cfg = PipelineConfig::quant_mako();
        let mut t = Tensor4::zeros([0; 4]);
        let mut classes = 0;
        for batch in batch_quartets(&pairs, 1e-12) {
            let e_scale = batch_group_scale(batch.quartets.iter().copied(), &pairs, &cfg);
            let runner = QuartetRunner::for_pairs(&batch.class, &cfg, e_scale, pairs.len());
            let cache = runner.rounded.as_ref().unwrap();
            for &(pi, qi) in &batch.quartets {
                runner.run_indexed(&pairs, pi, qi, &mut t);
                let rounded = (cache.get(pi, &pairs[pi]), cache.get(qi, &pairs[qi]));
                let reference = per_combination_quantized(&runner, &pairs[pi], &pairs[qi], rounded);
                assert_eq!(t.data.len(), reference.len());
                for (i, (x, y)) in t.data.iter().zip(&reference).enumerate() {
                    let class = batch.class.label();
                    assert_eq!(x.to_bits(), y.to_bits(), "class {class}, element {i}");
                }
            }
            classes += 1;
        }
        assert!(classes >= 40, "{classes} classes");
    }

    #[test]
    fn quantized_pipeline_small_relative_error() {
        let (pairs, batches) = small_system();
        let model = CostModel::new(DeviceSpec::a100());
        let quant = PipelineConfig::quant_mako();
        for b in &batches {
            let out = run_batch(b, &pairs, &quant, &model);
            for (k, &(pi, qi)) in b.quartets.iter().enumerate() {
                let reference = eri_quartet_mmd(&pairs[pi].data, &pairs[qi].data);
                let scale = reference.max_abs().max(1e-6);
                let d = out.tensors[k].max_abs_diff(&reference);
                assert!(
                    d / scale < 5e-3,
                    "class {} relative error {}",
                    b.class.label(),
                    d / scale
                );
                assert!(d > 0.0, "quantized path must differ from FP64");
            }
        }
    }

    #[test]
    fn group_scaling_beats_unscaled_fp16() {
        // Tight, high-l shells: normalization makes the E operands large,
        // so the unscaled FP16 path overflows/saturates while group scaling
        // keeps operands in range.
        let shells = vec![
            shell(2, [0.0; 3], 60.0),
            shell(2, [0.3, 0.1, -0.2], 45.0),
        ];
        let pairs = build_screened_pairs(&shells, 0.0);
        let batches = batch_quartets(&pairs, 0.0);
        let model = CostModel::new(DeviceSpec::a100());
        let scaled = PipelineConfig::quant_mako();
        let unscaled = PipelineConfig::baseline_low_precision(Precision::Fp16);
        let mut err_scaled = 0.0f64;
        let mut err_unscaled = 0.0f64;
        for b in &batches {
            let so = run_batch(b, &pairs, &scaled, &model);
            let uo = run_batch(b, &pairs, &unscaled, &model);
            for (k, &(pi, qi)) in b.quartets.iter().enumerate() {
                let reference = eri_quartet_mmd(&pairs[pi].data, &pairs[qi].data);
                err_scaled += so.tensors[k].max_abs_diff(&reference);
                err_unscaled += uo.tensors[k].max_abs_diff(&reference);
            }
        }
        assert!(
            err_scaled < err_unscaled,
            "scaled {err_scaled} vs unscaled {err_unscaled}"
        );
    }

    #[test]
    fn fused_is_faster_than_unfused() {
        let model = CostModel::new(DeviceSpec::a100());
        let class = EriClass {
            la: 2,
            lb: 2,
            lc: 2,
            ld: 2,
            kab: 1,
            kcd: 1,
        };
        let unfused = simulate_batch_cost(
            &class,
            100_000,
            &PipelineConfig {
                fusion: FusionStrategy::Unfused,
                layout: SmemLayout::Linear,
                ilp: 1,
                ..PipelineConfig::kernel_mako_fp64()
            },
            &model,
        );
        let fused = simulate_batch_cost(&class, 100_000, &PipelineConfig::kernel_mako_fp64(), &model);
        assert!(fused < unfused, "fused {fused} unfused {unfused}");
        assert!(unfused / fused > 1.5, "speedup {}", unfused / fused);
    }

    #[test]
    fn quantized_is_faster_than_fp64() {
        let model = CostModel::new(DeviceSpec::a100());
        let class = EriClass {
            la: 3,
            lb: 3,
            lc: 3,
            ld: 3,
            kab: 1,
            kcd: 1,
        };
        let f = simulate_batch_cost(&class, 100_000, &PipelineConfig::kernel_mako_fp64(), &model);
        let q = simulate_batch_cost(&class, 100_000, &PipelineConfig::quant_mako(), &model);
        let speedup = f / q;
        assert!(speedup > 2.0, "quantization speedup {speedup}");
        assert!(speedup < 16.0, "bounded by the tensor-core ratio");
    }

    #[test]
    fn coalescing_requires_k1() {
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig {
            fusion: FusionStrategy::FuseAllCoalesced,
            ..PipelineConfig::kernel_mako_fp64()
        };
        let k5 = EriClass {
            la: 1,
            lb: 1,
            lc: 1,
            ld: 1,
            kab: 5,
            kcd: 5,
        };
        assert!(simulate_batch_cost(&k5, 10, &cfg, &model).is_infinite());
        let k1 = EriClass { kab: 1, kcd: 1, ..k5 };
        assert!(simulate_batch_cost(&k1, 10, &cfg, &model).is_finite());
    }

    #[test]
    fn gggg_fusion_needs_tiling_and_quantization_shrinks_it() {
        // Untiled, the (gg|gg) FP64 pq operand alone is 165·165·8 B ≈
        // 218 KB > 164 KB: full fusion cannot launch. The Figure 4 N-dim
        // tiling brings the footprint back under the SM budget, and
        // quantization shrinks it further (enabling higher occupancy).
        let class = EriClass {
            la: 4,
            lb: 4,
            lc: 4,
            ld: 4,
            kab: 1,
            kcd: 1,
        };
        let model = CostModel::new(DeviceSpec::a100());
        let untiled = PipelineConfig {
            tile: usize::MAX,
            ..PipelineConfig::kernel_mako_fp64()
        };
        assert!(
            simulate_batch_cost(&class, 10, &untiled, &model).is_infinite(),
            "untiled FP64 (gg|gg) full fusion must not fit"
        );
        let tiled = PipelineConfig::kernel_mako_fp64();
        assert!(simulate_batch_cost(&class, 10, &tiled, &model).is_finite());
        let f64_foot = smem_footprint(&class, &tiled);
        let f16_foot = smem_footprint(&class, &PipelineConfig::quant_mako());
        assert!(f16_foot < f64_foot, "{f16_foot} !< {f64_foot}");
    }

    #[test]
    fn fused_launch_never_costs_more_than_per_molecule_launches() {
        // total_s = launches·latency + max(compute, memory) with compute and
        // memory linear in n, so fusing k sub-batches into one launch saves
        // at least (k−1) launch latencies — the amortization the ensemble
        // driver measures.
        let model = CostModel::new(DeviceSpec::a100());
        let class = EriClass {
            la: 1,
            lb: 0,
            lc: 1,
            ld: 0,
            kab: 3,
            kcd: 3,
        };
        for cfg in [PipelineConfig::kernel_mako_fp64(), PipelineConfig::quant_mako()] {
            for counts in [vec![7usize], vec![7, 13], vec![4, 4, 4, 4, 4, 4, 4, 4]] {
                let (fused, solo) = fused_batch_device_seconds(&class, &counts, &cfg, &model);
                assert!(fused > 0.0 && fused.is_finite());
                assert!(fused <= solo, "fused {fused} > solo {solo} for {counts:?}");
                if counts.len() > 1 {
                    let latency = model.device.launch_latency;
                    assert!(
                        solo - fused >= (counts.len() - 1) as f64 * latency * 0.99,
                        "amortization below the launch-latency floor: {} < {}",
                        solo - fused,
                        (counts.len() - 1) as f64 * latency
                    );
                }
            }
        }
    }

    #[test]
    fn ilp_efficiency_peaks_in_midrange() {
        let f = |i| ilp_efficiency(FusionStrategy::FuseAll, i);
        assert!(f(1) < f(4));
        assert!(f(4) <= f(8));
        assert!(f(32) < f(8), "register pressure: {} vs {}", f(32), f(8));
        assert_eq!(ilp_efficiency(FusionStrategy::Unfused, 1), 1.0);
    }
}
