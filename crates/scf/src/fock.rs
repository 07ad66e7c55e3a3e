//! Coulomb (J) and exchange (K) matrix construction from shell-quartet
//! batches — the parallel Fock assembly engine.
//!
//! `J_{μν} = Σ_{λσ} D_{λσ} (μν|λσ)` and `K_{μλ} = Σ_{νσ} D_{νσ} (μν|λσ)`.
//!
//! Quartets are evaluated once per canonical arrangement (bra pair ≥ ket
//! pair, shell `i ≥ j` within a pair), and each stored value is *digested*
//! once: scaled by the quartet's shell-degeneracy factor
//! `f = ½^[a=b] · ½^[c=d] · ½^[(ab)=(cd)]`, it adds `2·D_cd·v` to `J_ab`,
//! `2·D_ab·v` to `J_cd` and `D_bd·v`, `D_bc·v`, `D_ad·v`, `D_ac·v` to
//! `K_ac`, `K_ad`, `K_bc`, `K_bd` of one-sided accumulators, and the build
//! ends with `J + Jᵀ` and `K + Kᵀ`. That is the full 8-fold permutational
//! sum, with each value read once instead of once per distinct index
//! arrangement (GPU4PySCF's digestion). The arrangement scatter it replaced
//! survives as the test oracle. Contributions accumulate into FP64 buffers
//! regardless of the kernel precision — stage two of QuantMako's dual-stage
//! accumulation.
//!
//! The digest is scalar loops, not GEMMs: at STO-3G's blocks, 1 to 3 wide,
//! one `gemm_into` call costs more than the whole block.
//!
//! # The engine
//!
//! Every build is `plan_jk → FockPlan::price → FockPlan::assemble` on one
//! `FockPlan`. [`build_jk_with_configs`] plans every batch;
//! [`crate::parallel::build_jk_distributed`] partitions the batches over
//! ranks and runs the same three calls once per share, naming that share's
//! batch indices to `plan_jk`, then merges in rank order. Both are stateless
//! and integral-direct: every call evaluates every quartet it schedules. An
//! SCF session (solo, multi-rank or ensemble member) runs the same calls
//! with its `TensorStore` handed to every `assemble`. Solo, rank-share and
//! ensemble builds all evaluate their quartets in one place,
//! `FockPlan::assemble`.
//!
//! A build runs in three phases:
//!
//! 1. **schedule split** (serial, cheap): every batch is split by the
//!    convergence-aware scheduler into an FP64 and a quantized sub-batch;
//! 2. **device clock** (serial, cheap): each non-empty sub-batch is priced
//!    as one batched launch via the cost model, and its group scale is
//!    frozen over the *full* sub-batch;
//! 3. **assembly** (evaluate what is missing in parallel, digest all in
//!    order): in bounded waves, the quartet tensors the store does not hold
//!    yet — all of them, without a store — are evaluated across the rayon
//!    pool and copied into their tier's arena; then every quartet of the
//!    wave is digested into a single J/K buffer **strictly in canonical
//!    quartet order**, from the arena or from the wave's scratch.
//!
//! # The tensor store
//!
//! A quartet tensor does not depend on the density, so a session that builds
//! J/K eight times need not evaluate it eight times. `TensorStore` keeps two
//! tiers per session, each one exactly-sized `f64` arena keyed by *(batch,
//! position in `batches[bi].quartets`)* — the key a `SubUnit` already
//! carries — so the scheduler may prune or quantize a different set
//! every iteration. Batch indices are global, and LPT shares are disjoint,
//! so a multi-rank session's shares all use the one store.
//!
//! * **The FP64 tier holds configuration- and scale-independent tensors.**
//!   The FP64 pipeline reads only the pair data: the tuned `PipelineConfig`
//!   (fusion, layout, ILP, tile) prices the launch and never touches the
//!   numerics, and the group scale is 1.0 and unused. The stored bits are
//!   exactly what any later FP64 evaluation of the quartet would produce, so
//!   a quartet is evaluated at most once in FP64: whenever it first appears
//!   in an FP64 sub-unit.
//! * **The quantized tier holds one tag per batch.** A quantized tensor is a
//!   pure function of the pair data and the sub-unit's *(precision, scale
//!   policy, group scale)*; the group scale is frozen over whichever quartets
//!   the schedule put in the sub-unit *this* iteration, and most iterations
//!   freeze the same one. Each batch's quantized tensors carry the tag of the
//!   sub-unit that evaluated them; a quantized sub-unit of another tag drops
//!   them before its waves run, then refills the tier as it evaluates. A
//!   session that never quantizes (`ScfConfig::quantized` off) has no
//!   quantized tier.
//! * **The tiers never cross.** An FP64 tensor is never served to a
//!   quantized sub-unit, nor a quantized one written to the FP64 arena; a
//!   quartet that switches class keeps its FP64 tensor for when it returns.
//! * **Memory is bounded by a constant**, `TENSOR_STORE_BYTES`, for both
//!   tiers together: per-batch prefixes are admitted in ascending tensor
//!   length until it is spent, the FP64 tier first and the quantized tier
//!   from what is left. Arenas are zero-allocated and touched only where a
//!   tensor lands, and every quartet past the budget stays integral-direct
//!   through the same loop.
//! * **The device clock does not know.** Phase 2 prices every scheduled
//!   quartet as launched, stored or not: the modeled accelerator recomputes
//!   a quartet faster than it could fetch one, and `device_seconds`,
//!   `FockBuildStats` and the ledgers describe that device. The host's reuse
//!   shows in the `fock.assemble` event (`stored`, `reused` for the FP64
//!   tier, `quantized_stored`, `quantized_reused`, and `store_bytes` over
//!   both).
//! * **It outlives a session that ends without a result.** A session killed
//!   at a quantum boundary, or ended by any other error, parks its store in
//!   its `ScfDriver`; the driver's next session under the same budget takes
//!   it, so a preempted job evaluates each quartet once across its quanta.
//!   A run that returns a result drops its store. Checkpoints do not carry
//!   it: it is recomputable, and a session resumed on a new driver (after a
//!   crash, or in another process) refills it on its first build.
//!
//! # Why the result is bitwise deterministic
//!
//! Quartet evaluation is a pure function of `(pair data, config, group
//! scale)`; the group scale is frozen over the full sub-batch in phase 2,
//! so a tensor's bits cannot depend on which thread computes it, how the
//! waves are cut, or whether it was computed this build or kept from an
//! earlier one. The digestion then replays every FP64 addition in
//! exactly the order the serial single-buffer pass uses. Parallelism only
//! changes *when* a tensor is computed, never the order of additions, so
//! the build matches the serial one-pass oracle (`build_jk_serial`, kept in
//! this module's tests) bitwise for every `RAYON_NUM_THREADS` and every wave
//! size.
//!
//! (The obvious alternative — per-thread partial J/K buffers merged in a
//! fixed order — is deterministic for a *fixed* chunk partition, but can
//! never be bitwise-equal to the serial oracle: merging partial sums
//! regroups the additions, `(a₁+a₂)+(a₃+a₄) ≠ ((a₁+a₂)+a₃)+a₄`, and two
//! chunks generally touch the same matrix element. Digestion is six
//! multiply-adds per tensor element while evaluation is primitive loops plus GEMMs, so
//! serializing the digestion costs little and buys an exact contract.)
//!
//! The simulated `device_seconds` is summed in phase 2 in fixed sub-batch
//! order, so it is byte-identical too — host parallelism never touches the
//! device clock.

use mako_accel::CostModel;
use mako_chem::cart::nsph;
use mako_chem::AoLayout;
use mako_eri::batch::{EriClass, QuartetBatch};
use mako_eri::screening::ScreenedPair;
use mako_eri::mmd::eri_quartet_mmd_into;
use mako_eri::tensor::Tensor4;
use mako_kernels::pipeline::{
    batch_device_seconds, batch_group_scale, PipelineConfig, QuartetRunner,
};
use mako_linalg::Matrix;
use mako_precision::{Precision, ScalePolicy};
use mako_quant::{ExecClass, QuantSchedule};
use rayon::prelude::*;

/// The J and K matrices of one Fock build.
#[derive(Debug, Clone)]
pub struct JkMatrices {
    /// Coulomb matrix.
    pub j: Matrix,
    /// Exchange matrix.
    pub k: Matrix,
}

/// Bookkeeping from one Fock build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FockBuildStats {
    /// Quartets evaluated in FP64.
    pub fp64_quartets: usize,
    /// Quartets evaluated with the quantized pipeline.
    pub quantized_quartets: usize,
    /// Quartets pruned by the scheduler.
    pub pruned_quartets: usize,
    /// Simulated device seconds spent in ERI kernels.
    pub device_seconds: f64,
}

impl FockBuildStats {
    /// Quartets that actually ran (either pipeline).
    pub(crate) fn evaluated_quartets(&self) -> usize {
        self.fp64_quartets + self.quantized_quartets
    }

    /// Fold one rank's share into the distributed reduction: counters add
    /// up; ranks run concurrently, so the build costs what the slowest rank
    /// costs and the device clock takes the max.
    pub(crate) fn merge_rank(&mut self, rank: &FockBuildStats) {
        self.fp64_quartets += rank.fp64_quartets;
        self.quantized_quartets += rank.quantized_quartets;
        self.pruned_quartets += rank.pruned_quartets;
        self.device_seconds = self.device_seconds.max(rank.device_seconds);
    }
}

/// Read by nothing: the engine has no options. [`build_jk_with_configs`]
/// still takes one because the benchmark's replay passes it; ROADMAP item
/// 12's benchmark change deletes that argument and then this type.
#[derive(Debug, Clone, Copy, Default)]
pub struct FockEngineOptions {}

/// One schedulable sub-batch: the quartets of one batch that share an
/// execution class (FP64 or quantized) and therefore one pipeline config.
/// Holds ascending positions into `batches[batch].quartets`, not a copy of
/// the pairs: plans are rebuilt every iteration (twelve staged at once in an
/// ensemble), and the position is also the quartet's [`TensorStore`] key.
pub(crate) struct SubUnit {
    pub(crate) class: EriClass,
    pub(crate) cfg: PipelineConfig,
    pub(crate) batch: usize,
    pub(crate) positions: Vec<u32>,
    pub(crate) e_scale: f64,
}

impl SubUnit {
    /// The `(bra pair, ket pair)` indices of the sub-unit's quartets, in
    /// canonical order.
    fn quartets<'a>(
        &'a self,
        batches: &'a [QuartetBatch],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let quartets = &batches[self.batch].quartets;
        self.positions.iter().map(move |&p| quartets[p as usize])
    }
}

/// Byte budget of one session's [`TensorStore`], both tiers together (an
/// [`EnsembleDriver`] splits one budget across its members). A constant, not
/// a knob: below it the host is in-core, past it the same loop stays
/// integral-direct.
///
/// [`EnsembleDriver`]: crate::ensemble::EnsembleDriver
pub(crate) const TENSOR_STORE_BYTES: usize = 64 << 20;

/// Where one batch's stored tensors live in a [`Tier`]: position
/// `p < admitted` owns `arena[base + p·len ..][..len]` and bit `first_bit + p`
/// of `filled`.
#[derive(Clone, Copy)]
struct StoreSlot {
    base: usize,
    first_bit: usize,
    len: usize,
    admitted: usize,
}

/// One tier of a [`TensorStore`]: an exactly-sized `f64` arena laid out per
/// batch, and what it has held.
struct Tier {
    /// One exactly-sized allocation for every admitted tensor. Zeroed by the
    /// allocator and written only when a tensor is stored, so pages a run
    /// never fills are never resident.
    arena: Vec<f64>,
    slots: Vec<StoreSlot>,
    filled: Vec<u64>,
    /// Tensors evaluated and kept, over the tier's lifetime.
    stored: usize,
    /// Evaluations avoided: quartets digested from the arena.
    reused: usize,
    /// Arena bytes holding an evaluated tensor.
    held_bytes: usize,
}

impl Tier {
    /// Lay out a tier for `batches` under `budget_bytes`: per-batch
    /// *prefixes* are admitted greedily in ascending tensor length — at equal
    /// contraction depth the smallest tensors cost the most evaluation per
    /// stored byte — until the budget is spent. Nothing is evaluated here.
    fn new(batches: &[QuartetBatch], budget_bytes: usize) -> Tier {
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&bi| batches[bi].class.out_size());
        let mut slots = vec![
            StoreSlot { base: 0, first_bit: 0, len: 0, admitted: 0 };
            batches.len()
        ];
        let (mut doubles, mut bits) = (0usize, 0usize);
        for bi in order {
            let len = batches[bi].class.out_size();
            let admitted = batches[bi].len().min((budget_bytes / 8 - doubles) / len);
            slots[bi] = StoreSlot { base: doubles, first_bit: bits, len, admitted };
            doubles += admitted * len;
            bits += admitted;
        }
        Tier {
            arena: vec![0.0; doubles],
            slots,
            filled: vec![0; bits.div_ceil(64)],
            stored: 0,
            reused: 0,
            held_bytes: 0,
        }
    }

    /// Bytes the admitted tensors occupy once all are evaluated.
    fn capacity_bytes(&self) -> usize {
        self.arena.len() * 8
    }

    /// The stored tensor of `(batch, pos)`, if it has been evaluated.
    fn get(&self, batch: usize, pos: u32) -> Option<&[f64]> {
        let (slot, pos) = (self.slots[batch], pos as usize);
        let bit = slot.first_bit + pos;
        (pos < slot.admitted && self.filled[bit / 64] >> (bit % 64) & 1 == 1)
            .then(|| &self.arena[slot.base + pos * slot.len..][..slot.len])
    }

    /// Keep a freshly evaluated tensor when the budget admitted its slot.
    fn put(&mut self, batch: usize, pos: u32, data: &[f64]) {
        let (slot, pos) = (self.slots[batch], pos as usize);
        if pos < slot.admitted {
            let bit = slot.first_bit + pos;
            self.arena[slot.base + pos * slot.len..][..slot.len].copy_from_slice(data);
            self.filled[bit / 64] |= 1 << (bit % 64);
            self.stored += 1;
            self.held_bytes += slot.len * 8;
        }
    }

    /// Forget every tensor of `batch`; its slots stay laid out.
    fn drop_batch(&mut self, batch: usize) {
        let slot = self.slots[batch];
        for bit in slot.first_bit..slot.first_bit + slot.admitted {
            let (word, mask) = (&mut self.filled[bit / 64], 1u64 << (bit % 64));
            if *word & mask != 0 {
                *word &= !mask;
                self.held_bytes -= slot.len * 8;
            }
        }
    }
}

/// Everything a quantized tensor depends on besides its pair data: the
/// sub-unit's `(precision, scale policy, group-scale bits)`.
type QuantTag = (Precision, ScalePolicy, u64);

/// The quantized tier: tensors of one tag per batch.
struct QuantTier {
    tier: Tier,
    /// Per batch, the tag its held tensors were evaluated under.
    tags: Vec<Option<QuantTag>>,
    /// Times a batch's tensors were dropped for a sub-unit of another tag.
    retags: usize,
}

/// The quartet tensors of one SCF session, kept across Fock builds (module
/// docs, "The tensor store"). Keyed by *(batch, position in
/// `batches[bi].quartets`)*, so it is indifferent to which quartets a build
/// prunes or quantizes. FP64 and quantized tensors live in separate
/// tiers and never serve each other.
pub(crate) struct TensorStore {
    fp64: Tier,
    /// `None` for a session that never schedules quantized work.
    quantized: Option<QuantTier>,
    /// The budget the tiers were laid out under.
    budget_bytes: usize,
}

impl TensorStore {
    /// Lay out a store for `batches` under `budget_bytes`: the FP64 tier
    /// first, then — for a session that may quantize — the quantized tier
    /// from what the FP64 tier left, by the same rule ([`Tier::new`]).
    pub(crate) fn new(batches: &[QuartetBatch], budget_bytes: usize, quantized: bool) -> TensorStore {
        let fp64 = Tier::new(batches, budget_bytes);
        let quantized = quantized.then(|| QuantTier {
            tier: Tier::new(batches, budget_bytes - fp64.capacity_bytes()),
            tags: vec![None; batches.len()],
            retags: 0,
        });
        TensorStore { fp64, quantized, budget_bytes }
    }

    /// The byte budget this store was laid out under.
    pub(crate) fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// FP64 quartets the budget admitted (whether or not evaluated yet).
    pub(crate) fn admitted_quartets(&self) -> usize {
        self.fp64.slots.iter().map(|s| s.admitted).sum()
    }

    /// Bytes the admitted tensors of both tiers occupy once all are evaluated.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.fp64.capacity_bytes() + self.quantized.as_ref().map_or(0, |q| q.tier.capacity_bytes())
    }

    /// Both tiers' bytes holding an evaluated tensor.
    pub(crate) fn held_bytes(&self) -> usize {
        self.fp64.held_bytes + self.quantized.as_ref().map_or(0, |q| q.tier.held_bytes)
    }

    /// Evaluations avoided by both tiers.
    pub(crate) fn reused(&self) -> usize {
        self.fp64.reused + self.quantized.as_ref().map_or(0, |q| q.tier.reused)
    }

    /// `[stored, reused]` of the FP64 tier, then of the quantized tier.
    pub(crate) fn counts(&self) -> [usize; 4] {
        let (q_stored, q_reused) =
            self.quantized.as_ref().map_or((0, 0), |q| (q.tier.stored, q.tier.reused));
        [self.fp64.stored, self.fp64.reused, q_stored, q_reused]
    }

    /// Times a batch's quantized tensors were dropped for another tag.
    #[cfg(test)]
    pub(crate) fn quantized_retags(&self) -> usize {
        self.quantized.as_ref().map_or(0, |q| q.retags)
    }

    /// The tier that serves sub-unit `u`: the FP64 tier for an FP64
    /// sub-unit; for a quantized one, the quantized tier, after dropping
    /// `u.batch`'s tensors if they were evaluated under another tag.
    fn tier_for(&mut self, u: &SubUnit) -> Option<&mut Tier> {
        if u.cfg.precision == Precision::Fp64 {
            return Some(&mut self.fp64);
        }
        let q = self.quantized.as_mut()?;
        let tag = Some((u.cfg.precision, u.cfg.scale_policy, u.e_scale.to_bits()));
        if q.tags[u.batch] != tag {
            if q.tags[u.batch].is_some() {
                q.tier.drop_batch(u.batch);
                q.retags += 1;
            }
            q.tags[u.batch] = tag;
        }
        Some(&mut q.tier)
    }
}

/// A scheduled-but-not-yet-executed Fock build: the output of phase 1
/// (the schedule split), before the device clock prices anything and
/// before any quartet is evaluated.
///
/// The split exists for the ensemble driver: it plans every member's build,
/// fuses same-`(EriClass, PipelineConfig)` sub-units *across members* into
/// shared launches for pricing, then assembles each member independently.
/// The solo path ([`build_jk_with_configs`]) runs `plan → price → assemble`
/// back-to-back and is bitwise (and byte-on-the-device-clock) identical to
/// the pre-split engine: the phases are the same code in the same order.
pub(crate) struct FockPlan {
    pub(crate) units: Vec<SubUnit>,
    pub(crate) stats: FockBuildStats,
}

/// Phase 1 of the engine over the batches `share` names (in the order
/// given; every batch for a single-device build, one LPT share for a rank):
/// the convergence-aware schedule split, serial and deterministic. Sub-units
/// keep global batch indices, so every plan prices and assembles against
/// the one `batches` slice. Emits the `fock.screen` span. The returned
/// plan's `stats.device_seconds` is zero until the plan is priced.
pub(crate) fn plan_jk(
    density: &Matrix,
    pairs: &[ScreenedPair],
    batches: &[QuartetBatch],
    share: impl IntoIterator<Item = usize>,
    schedule: &QuantSchedule,
    cfg_for: impl Fn(usize) -> (PipelineConfig, PipelineConfig),
) -> FockPlan {
    let mut stats = FockBuildStats::default();
    let mut planned_batches = 0usize;
    let d_max = density.max_abs();
    // System-wide estimate scale for the relative FP64 bar: the largest
    // Schwarz product times the largest density element.
    let max_bound = pairs.iter().map(|p| p.bound).fold(0.0f64, f64::max);
    let scale = max_bound * max_bound * d_max.max(1e-30);

    let mut screen_span = mako_trace::span("fock", "screen");

    // Phase 1: split every batch by scheduling decision (bounds vary by
    // quartet). Serial and deterministic; integer bookkeeping only.
    let mut units: Vec<SubUnit> = Vec::new();
    for bi in share {
        let batch = &batches[bi];
        planned_batches += 1;
        let (fp64_cfg, quant_cfg) = cfg_for(bi);
        assert!(batch.len() <= u32::MAX as usize, "batch positions are u32");
        let mut fp64_q: Vec<u32> = Vec::new();
        let mut quant_q: Vec<u32> = Vec::new();
        for (pos, &(pi, qi)) in batch.quartets.iter().enumerate() {
            let pos = pos as u32;
            match schedule.decide(pairs[pi].bound, pairs[qi].bound, d_max, scale) {
                ExecClass::Pruned => stats.pruned_quartets += 1,
                ExecClass::Fp64 => fp64_q.push(pos),
                ExecClass::Quantized => quant_q.push(pos),
            }
        }
        stats.fp64_quartets += fp64_q.len();
        stats.quantized_quartets += quant_q.len();
        for (positions, cfg) in [(fp64_q, fp64_cfg), (quant_q, quant_cfg)] {
            if !positions.is_empty() {
                units.push(SubUnit {
                    class: batch.class,
                    cfg,
                    batch: bi,
                    positions,
                    e_scale: 1.0,
                });
            }
        }
    }

    if screen_span.is_recording() {
        screen_span.add_field("batches", planned_batches);
        screen_span.add_field("sub_units", units.len());
        screen_span.add_field("fp64_quartets", stats.fp64_quartets);
        screen_span.add_field("quantized_quartets", stats.quantized_quartets);
        screen_span.add_field("pruned_quartets", stats.pruned_quartets);
    }
    screen_span.end();

    FockPlan { units, stats }
}

impl FockPlan {
    /// Phase 2 of the solo engine: price every sub-unit as ONE batched
    /// device launch (fixed sub-batch order, so the clock is byte-identical
    /// for any host parallelism), freeze the group scales, and emit the
    /// `fock.launch` instants. Sets `stats.device_seconds`.
    pub(crate) fn price(
        &mut self,
        pairs: &[ScreenedPair],
        batches: &[QuartetBatch],
        model: &CostModel,
    ) {
        let trace_on = mako_trace::enabled();
        let mut device_seconds = 0.0;
        for u in &mut self.units {
            let launch_seconds =
                batch_device_seconds(&u.class, u.positions.len(), &u.cfg, model);
            device_seconds += launch_seconds;
            u.e_scale = batch_group_scale(u.quartets(batches), pairs, &u.cfg);
            if trace_on {
                mako_trace::instant(
                    "fock",
                    "launch",
                    vec![
                        mako_trace::field("class", u.class.label()),
                        mako_trace::field("quartets", u.positions.len()),
                        mako_trace::field("precision", format!("{:?}", u.cfg.precision)),
                        mako_trace::field("device_seconds", launch_seconds),
                    ],
                );
            }
        }
        self.stats.device_seconds = device_seconds;
    }

    /// Freeze the group scales only — for plans whose launches are priced
    /// *externally* (the ensemble driver fuses launches across molecules
    /// and writes each member's apportioned share back via
    /// [`FockPlan::set_device_seconds`]). The scales are per-molecule
    /// sub-batch properties and never fuse: a neighbor's operand magnitudes
    /// must not change this molecule's rounding.
    pub(crate) fn freeze_scales(&mut self, pairs: &[ScreenedPair], batches: &[QuartetBatch]) {
        for u in &mut self.units {
            u.e_scale = batch_group_scale(u.quartets(batches), pairs, &u.cfg);
        }
    }

    /// Record an externally computed device-clock charge for this build
    /// (accounting only — nothing downstream of the clock reads it back
    /// into the numerics).
    pub(crate) fn set_device_seconds(&mut self, seconds: f64) {
        self.stats.device_seconds = seconds;
    }

    /// Phase 3: evaluate what `store` does not hold yet in parallel, digest
    /// everything in order (module docs). Requires the group scales to be
    /// frozen ([`FockPlan::price`] or [`FockPlan::freeze_scales`]); `store`
    /// must have been laid out for `batches`. Emits the `fock.assemble`
    /// instant.
    pub(crate) fn assemble(
        &self,
        density: &Matrix,
        pairs: &[ScreenedPair],
        batches: &[QuartetBatch],
        layout: &AoLayout,
        store: Option<&mut TensorStore>,
    ) -> JkMatrices {
        let threads = rayon::current_num_threads().max(1);
        let wave_len = (threads * 64).clamp(64, 4096);
        self.assemble_in_waves(density, pairs, batches, layout, store, wave_len)
    }

    /// [`FockPlan::assemble`] with the wave cut given: at most `wave_len`
    /// quartet tensors are evaluated (and buffered) per parallel wave. The
    /// wave length bounds scratch memory and sets the parallel granularity;
    /// it never changes the result (module docs, `chunk_size_never_changes_bits`).
    fn assemble_in_waves(
        &self,
        density: &Matrix,
        pairs: &[ScreenedPair],
        batches: &[QuartetBatch],
        layout: &AoLayout,
        mut store: Option<&mut TensorStore>,
        wave_len: usize,
    ) -> JkMatrices {
        let n = layout.nao;
        let trace_on = mako_trace::enabled();

        let mut j = Matrix::zeros(n, n);
        let mut k = Matrix::zeros(n, n);
        let mut scratch: Vec<Tensor4> = Vec::new();
        // The wave's positions that have to be evaluated, in wave order.
        let mut missing: Vec<u32> = Vec::new();
        let counts_before = store.as_deref().map_or([0; 4], TensorStore::counts);
        // Host-side wall timers for the evaluate/digest phases (the digest's
        // field keeps the name `scatter_seconds`). Only sampled when tracing
        // is on, so the untraced hot path pays zero clock reads.
        let (mut evaluate_seconds, mut scatter_seconds) = (0.0f64, 0.0f64);
        for u in &self.units {
            let quartets = &batches[u.batch].quartets;
            let dims = [
                nsph(u.class.la),
                nsph(u.class.lb),
                nsph(u.class.lc),
                nsph(u.class.ld),
            ];
            // `for_pairs` carries the sub-unit's rounded-operand cache: each
            // screened pair's E blocks are rounded at the group scale once
            // and shared across every quartet (and wave) of the sub-unit.
            let runner = QuartetRunner::for_pairs(&u.class, &u.cfg, u.e_scale, pairs.len());
            // FP64 sub-units read the FP64 tier; quantized ones the quantized
            // tier, whose tensors of this batch match the sub-unit's tag.
            let mut held = store.as_deref_mut().and_then(|s| s.tier_for(u));
            for wave in u.positions.chunks(wave_len) {
                let t_eval = trace_on.then(std::time::Instant::now);
                missing.clear();
                missing.extend(wave.iter().copied().filter(|&pos| {
                    held.as_deref().and_then(|s| s.get(u.batch, pos)).is_none()
                }));
                scratch.truncate(missing.len());
                scratch.resize_with(missing.len(), || Tensor4::zeros([0; 4]));
                scratch
                    .par_iter_mut()
                    .zip(missing.par_iter())
                    .for_each(|(t, &pos)| {
                        let (pi, qi) = quartets[pos as usize];
                        runner.run_indexed(pairs, pi, qi, t)
                    });
                if let Some(s) = held.as_deref_mut() {
                    for (t, &pos) in scratch.iter().zip(&missing) {
                        s.put(u.batch, pos, &t.data);
                    }
                    s.reused += wave.len() - missing.len();
                }
                if let Some(t0) = t_eval {
                    evaluate_seconds += t0.elapsed().as_secs_f64();
                }
                let t_scatter = trace_on.then(std::time::Instant::now);
                let mut fresh = scratch.iter().zip(&missing).peekable();
                for &pos in wave {
                    let data = match fresh.next_if(|&(_, &m)| m == pos) {
                        Some((t, _)) => {
                            debug_assert_eq!(t.dims, dims);
                            &t.data[..]
                        }
                        None => held
                            .as_deref()
                            .and_then(|s| s.get(u.batch, pos))
                            .expect("a position not evaluated this wave is held"),
                    };
                    let (pi, qi) = quartets[pos as usize];
                    digest_quartet(dims, data, &pairs[pi], &pairs[qi], density, layout, &mut j, &mut k);
                }
                if let Some(t0) = t_scatter {
                    scatter_seconds += t0.elapsed().as_secs_f64();
                }
            }
        }
        if trace_on {
            let (counts, store_bytes) =
                store.as_deref().map_or(([0; 4], 0), |s| (s.counts(), s.held_bytes()));
            let [stored, reused, quantized_stored, quantized_reused]: [usize; 4] =
                std::array::from_fn(|i| counts[i] - counts_before[i]);
            mako_trace::instant(
                "fock",
                "assemble",
                vec![
                    mako_trace::field("evaluate_seconds", evaluate_seconds),
                    mako_trace::field("scatter_seconds", scatter_seconds),
                    mako_trace::field("device_seconds", self.stats.device_seconds),
                    mako_trace::field("wave_len", wave_len),
                    mako_trace::field("stored", stored),
                    mako_trace::field("reused", reused),
                    mako_trace::field("quantized_stored", quantized_stored),
                    mako_trace::field("quantized_reused", quantized_reused),
                    mako_trace::field("store_bytes", store_bytes),
                ],
            );
        }

        add_transpose(&mut j);
        add_transpose(&mut k);
        JkMatrices { j, k }
    }
}

/// Build J and K for density `D` from pre-batched quartets — the
/// single-device entry point of the engine (module docs).
///
/// * `schedule` decides per batch sub-population whether to run FP64,
///   quantized, or prune (QuantMako's convergence-aware scheduling);
/// * `cfg_for(bi)` returns the tuned (FP64, quantized) pipeline
///   configurations of batch `bi` (typically from `mako-compiler`'s kernel
///   cache);
/// * the returned stats carry the simulated device time;
/// * the [`FockEngineOptions`] argument is ignored.
///
/// Assembly runs across the current rayon pool; the result is bitwise
/// identical for any thread count.
#[allow(clippy::too_many_arguments)]
pub fn build_jk_with_configs(
    density: &Matrix,
    pairs: &[ScreenedPair],
    batches: &[QuartetBatch],
    layout: &AoLayout,
    schedule: &QuantSchedule,
    cfg_for: impl Fn(usize) -> (PipelineConfig, PipelineConfig),
    model: &CostModel,
    _opts: FockEngineOptions,
) -> (JkMatrices, FockBuildStats) {
    build_jk(density, pairs, batches, layout, schedule, cfg_for, model, None)
}

/// The single-device build over every batch: `plan → price → assemble`,
/// with `store` handed to `assemble` (`None` is integral-direct).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_jk(
    density: &Matrix,
    pairs: &[ScreenedPair],
    batches: &[QuartetBatch],
    layout: &AoLayout,
    schedule: &QuantSchedule,
    cfg_for: impl Fn(usize) -> (PipelineConfig, PipelineConfig),
    model: &CostModel,
    store: Option<&mut TensorStore>,
) -> (JkMatrices, FockBuildStats) {
    let mut plan = plan_jk(density, pairs, batches, 0..batches.len(), schedule, cfg_for);
    plan.price(pairs, batches, model);
    let jk = plan.assemble(density, pairs, batches, layout, store);
    (jk, plan.stats)
}

/// Digest one canonical quartet `(ab|cd)` (`a ≥ b`, `c ≥ d`, as
/// `batch_quartets` emits them) into the one-sided J/K accumulators: each
/// value once into its six targets (module docs). [`add_transpose`] then
/// completes the 8-fold permutational sum. `J_ab`, `K_ac` and `K_bc` are
/// summed in registers across the inner loops.
#[allow(clippy::too_many_arguments)]
fn digest_quartet(
    dims: [usize; 4],
    data: &[f64],
    pab: &ScreenedPair,
    pcd: &ScreenedPair,
    d: &Matrix,
    layout: &AoLayout,
    j: &mut Matrix,
    k: &mut Matrix,
) {
    let (sa, sb, sc, sd) = (pab.i, pab.j, pcd.i, pcd.j);
    debug_assert!(sa >= sb && sc >= sd, "quartet ({sa}{sb}|{sc}{sd}) is not canonical");
    let half = |same: bool| if same { 0.5 } else { 1.0 };
    let f = half(sa == sb) * half(sc == sd) * half(sa == sc && sb == sd);
    let n = d.cols();
    let [na, nb, nc, nd] = dims;
    let [oa, ob, oc, od] = [sa, sb, sc, sd].map(|s| layout.shell_offsets[s]);
    let (d, j, k) = (d.as_slice(), j.as_mut_slice(), k.as_mut_slice());
    let mut rows = data.chunks_exact(nd);
    for a in oa..oa + na {
        let (ra, ra_d) = (a * n, a * n + od);
        for b in ob..ob + nb {
            let (rb, rb_d) = (b * n, b * n + od);
            let d_ab = 2.0 * d[ra + b];
            let mut j_ab = 0.0;
            for c in oc..oc + nc {
                let rc_d = c * n + od;
                let (d_ac, d_bc) = (d[ra + c], d[rb + c]);
                let (mut k_ac, mut k_bc) = (0.0, 0.0);
                let row = rows.next().expect("the tensor holds na·nb·nc·nd values");
                for (s, &v) in row.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    let v = f * v;
                    j_ab += d[rc_d + s] * v;
                    j[rc_d + s] += d_ab * v;
                    k_ac += d[rb_d + s] * v;
                    k_bc += d[ra_d + s] * v;
                    k[ra_d + s] += d_bc * v;
                    k[rb_d + s] += d_ac * v;
                }
                k[ra + c] += k_ac;
                k[rb + c] += k_bc;
            }
            j[ra + b] += 2.0 * j_ab;
        }
    }
}

/// `M ← M + Mᵀ`: turns a one-sided [`digest_quartet`] accumulator into the
/// full, exactly symmetric J or K.
fn add_transpose(m: &mut Matrix) {
    for r in 0..m.rows() {
        for c in 0..r {
            let s = m[(r, c)] + m[(c, r)];
            m[(r, c)] = s;
            m[(c, r)] = s;
        }
        m[(r, r)] *= 2.0;
    }
}

/// Where a non-finite Fock build came from: the input density itself, or
/// the first quartet whose ERI tensor evaluates to NaN/Inf.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NonFiniteSite {
    /// The *input* density already carried NaN/Inf — the ERI batches are
    /// innocent.
    pub(crate) density_poisoned: bool,
    /// Index of the first offending batch, when a quartet is to blame.
    pub batch: Option<usize>,
    /// Display label of the offending batch's ERI class.
    pub class: Option<String>,
    /// The offending quartet's screened-pair indices `(pi, qi)`.
    pub quartet: Option<(usize, usize)>,
}

/// Post-mortem attribution of a non-finite J/K build (the SCF driver's
/// non-finite containment, DESIGN.md §12): re-evaluates the quartet
/// population serially in FP64 and reports the first tensor that goes
/// non-finite, or flags the input density itself. Runs only on the failure
/// path — the hot assembly loop stays untouched — so the cost (one serial
/// full build) is irrelevant. A default (all-`None`) site means the
/// poison appeared downstream of the ERI contraction (e.g. injected).
pub(crate) fn attribute_non_finite(
    density: &Matrix,
    pairs: &[ScreenedPair],
    batches: &[QuartetBatch],
) -> NonFiniteSite {
    if !density.all_finite() {
        return NonFiniteSite {
            density_poisoned: true,
            ..NonFiniteSite::default()
        };
    }
    let mut t = Tensor4::zeros([0; 4]);
    for (bi, batch) in batches.iter().enumerate() {
        for &(pi, qi) in &batch.quartets {
            eri_quartet_mmd_into(&pairs[pi].data, &pairs[qi].data, &mut t);
            if !t.data.iter().all(|v| v.is_finite()) {
                return NonFiniteSite {
                    density_poisoned: false,
                    batch: Some(bi),
                    class: Some(batch.class.label()),
                    quartet: Some((pi, qi)),
                };
            }
        }
    }
    NonFiniteSite::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_accel::DeviceSpec;
    use mako_chem::basis::sto3g::sto3g;
    use mako_chem::basis::BasisFamily;
    use mako_chem::builders;
    use mako_eri::batch::batch_quartets;
    use mako_eri::screening::build_screened_pairs;
    use mako_kernels::pipeline::run_batch;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    /// For an arrangement produced by the three swaps, gives for each
    /// arrangement slot (A', B', C', D') the original tensor axis it reads.
    fn slot_axes(s_ab: bool, s_cd: bool, braket: bool) -> [usize; 4] {
        let mut axes = [0usize, 1, 2, 3];
        if s_ab {
            axes.swap(0, 1);
        }
        if s_cd {
            axes.swap(2, 3);
        }
        if braket {
            axes.swap(0, 2);
            axes.swap(1, 3);
        }
        axes
    }

    /// The distinct ordered arrangements of one symmetry case, in canonical
    /// enumeration order: each entry is the `slot_axes` mapping of one
    /// arrangement that survives dedup.
    type ArrangementTable = Vec<[usize; 4]>;

    /// Symmetry case of a quartet `(sa, sb | sc, sd)`: which of the four
    /// equalities that can collapse arrangements hold. Only these four matter —
    /// an arrangement collision requires the relating permutation to lie in the
    /// dihedral group generated by the three swaps, and every element of that
    /// group fixes the shell tuple iff one of these pair conditions (or their
    /// conjunction) holds. Stray coincidences like `sa == sc` alone relate no
    /// two arrangements and need no case of their own.
    fn symmetry_case(sa: usize, sb: usize, sc: usize, sd: usize) -> usize {
        usize::from(sa == sb)
            | usize::from(sc == sd) << 1
            | usize::from(sa == sc && sb == sd) << 2
            | usize::from(sa == sd && sb == sc) << 3
    }

    /// Dedup table for one representative shell assignment, built with the same
    /// enumeration (braket outer, then bra swap, then ket swap; first occurrence
    /// wins) the original `HashSet` implementation used.
    fn build_arrangement_table(shells: &[usize; 4]) -> ArrangementTable {
        let mut seen: Vec<[usize; 4]> = Vec::with_capacity(8);
        let mut table = Vec::with_capacity(8);
        for braket in [false, true] {
            for s_ab in [false, true] {
                for s_cd in [false, true] {
                    let axes = slot_axes(s_ab, s_cd, braket);
                    let tuple = [
                        shells[axes[0]],
                        shells[axes[1]],
                        shells[axes[2]],
                        shells[axes[3]],
                    ];
                    if seen.contains(&tuple) {
                        continue;
                    }
                    seen.push(tuple);
                    table.push(axes);
                }
            }
        }
        table
    }

    /// The 16 precomputed arrangement tables, one per symmetry case, built
    /// once, lazily, from representative assignments.
    fn arrangement_tables() -> &'static [ArrangementTable; 16] {
        static TABLES: OnceLock<[ArrangementTable; 16]> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut tables: [ArrangementTable; 16] = std::array::from_fn(|_| Vec::new());
            // Sweep all shell assignments over 4 symbols: every feasible case
            // appears, and the dedup pattern depends only on the case.
            for code in 0..256usize {
                let shells = [code & 3, (code >> 2) & 3, (code >> 4) & 3, (code >> 6) & 3];
                let case = symmetry_case(shells[0], shells[1], shells[2], shells[3]);
                if tables[case].is_empty() {
                    tables[case] = build_arrangement_table(&shells);
                }
            }
            tables
        })
    }

    /// The digest's oracle: scatter one canonical quartet into J and K over
    /// all distinct ordered shell arrangements (the explicit 8-fold
    /// permutational sum, element by element), from the symmetry-case table in
    /// the order of the original dedup. Followed by `symmetrize`, it gives the
    /// J and K that [`digest_quartet`] and [`add_transpose`] give.
    #[allow(clippy::too_many_arguments)]
    fn scatter_quartet(
        dims: [usize; 4],
        data: &[f64],
        pab: &ScreenedPair,
        pcd: &ScreenedPair,
        d: &Matrix,
        layout: &AoLayout,
        j: &mut Matrix,
        k: &mut Matrix,
    ) {
        let (sa, sb, sc, sd) = (pab.i, pab.j, pcd.i, pcd.j);
        let strides = [
            dims[1] * dims[2] * dims[3],
            dims[2] * dims[3],
            dims[3],
            1usize,
        ];
        let offs = [
            layout.shell_offsets[sa],
            layout.shell_offsets[sb],
            layout.shell_offsets[sc],
            layout.shell_offsets[sd],
        ];

        for axes in arrangement_tables()[symmetry_case(sa, sb, sc, sd)].iter() {
            let (m1, m2, m3, m4) = (dims[axes[0]], dims[axes[1]], dims[axes[2]], dims[axes[3]]);
            let (st1, st2, st3, st4) = (
                strides[axes[0]],
                strides[axes[1]],
                strides[axes[2]],
                strides[axes[3]],
            );
            let (o1, o2, o3, o4) = (offs[axes[0]], offs[axes[1]], offs[axes[2]], offs[axes[3]]);
            for i1 in 0..m1 {
                let b1 = i1 * st1;
                for i2 in 0..m2 {
                    let b2 = b1 + i2 * st2;
                    for i3 in 0..m3 {
                        let b3 = b2 + i3 * st3;
                        for i4 in 0..m4 {
                            let v = data[b3 + i4 * st4];
                            if v == 0.0 {
                                continue;
                            }
                            // J_{μν} += D_{λσ} (μν|λσ)
                            j[(o1 + i1, o2 + i2)] += d[(o3 + i3, o4 + i4)] * v;
                            // K_{μλ} += D_{νσ} (μν|λσ)
                            k[(o1 + i1, o3 + i3)] += d[(o2 + i2, o4 + i4)] * v;
                        }
                    }
                }
            }
        }
    }

    /// The serial reference assembly: one thread, one pass, one J/K buffer —
    /// the pre-engine implementation, kept as the determinism oracle. It
    /// digests through the engine's own [`digest_quartet`] and
    /// [`add_transpose`]; [`build_jk_with_configs`] must match it bitwise.
    #[allow(clippy::too_many_arguments)]
    fn build_jk_serial(
        density: &Matrix,
        pairs: &[ScreenedPair],
        batches: &[QuartetBatch],
        layout: &AoLayout,
        schedule: &QuantSchedule,
        fp64_cfg: &PipelineConfig,
        quant_cfg: &PipelineConfig,
        model: &CostModel,
    ) -> (JkMatrices, FockBuildStats) {
        let n = layout.nao;
        let mut j = Matrix::zeros(n, n);
        let mut k = Matrix::zeros(n, n);
        let mut stats = FockBuildStats::default();
        let d_max = density.max_abs();
        let max_bound = pairs.iter().map(|p| p.bound).fold(0.0f64, f64::max);
        let scale = max_bound * max_bound * d_max.max(1e-30);

        for batch in batches {
            let mut fp64_batch = QuartetBatch {
                class: batch.class,
                quartets: Vec::new(),
            };
            let mut quant_batch = QuartetBatch {
                class: batch.class,
                quartets: Vec::new(),
            };
            for &(pi, qi) in &batch.quartets {
                match schedule.decide(pairs[pi].bound, pairs[qi].bound, d_max, scale) {
                    ExecClass::Pruned => stats.pruned_quartets += 1,
                    ExecClass::Fp64 => fp64_batch.quartets.push((pi, qi)),
                    ExecClass::Quantized => quant_batch.quartets.push((pi, qi)),
                }
            }
            stats.fp64_quartets += fp64_batch.len();
            stats.quantized_quartets += quant_batch.len();

            for (sub, cfg) in [(&fp64_batch, fp64_cfg), (&quant_batch, quant_cfg)] {
                if sub.is_empty() {
                    continue;
                }
                let out = run_batch(sub, pairs, cfg, model);
                stats.device_seconds += out.seconds;
                for (t, &(pi, qi)) in out.tensors.iter().zip(&sub.quartets) {
                    digest_quartet(
                        t.dims,
                        &t.data,
                        &pairs[pi],
                        &pairs[qi],
                        density,
                        layout,
                        &mut j,
                        &mut k,
                    );
                }
            }
        }

        add_transpose(&mut j);
        add_transpose(&mut k);
        (JkMatrices { j, k }, stats)
    }

    /// Reference J/K build: dense full AO ERI contraction via the FP64 MMD
    /// engine with no symmetry tricks — O(N⁴) memory-free quadruple loop over
    /// shell quartets in all orders. Only usable for small systems; the dense
    /// oracle [`build_jk_with_configs`] is validated against.
    fn build_jk_reference(density: &Matrix, pairs_full: &[ScreenedPair], layout: &AoLayout) -> JkMatrices {
        use mako_eri::mmd::eri_quartet_mmd;
        let n = layout.nao;
        let mut j = Matrix::zeros(n, n);
        let mut k = Matrix::zeros(n, n);
        for pab in pairs_full {
            for pcd in pairs_full {
                let t = eri_quartet_mmd(&pab.data, &pcd.data);
                let (oa, ob, oc, od) = (
                    layout.shell_offsets[pab.i],
                    layout.shell_offsets[pab.j],
                    layout.shell_offsets[pcd.i],
                    layout.shell_offsets[pcd.j],
                );
                for a in 0..t.dims[0] {
                    for b in 0..t.dims[1] {
                        for c in 0..t.dims[2] {
                            for dd in 0..t.dims[3] {
                                let v = t.get(a, b, c, dd);
                                j[(oa + a, ob + b)] += density[(oc + c, od + dd)] * v;
                                k[(oa + a, oc + c)] += density[(ob + b, od + dd)] * v;
                            }
                        }
                    }
                }
            }
        }
        JkMatrices { j, k }
    }

    /// All ordered shell pairs (for the reference build).
    fn full_ordered_pairs(shells: &[mako_chem::Shell]) -> Vec<ScreenedPair> {
        let mut out = Vec::new();
        for i in 0..shells.len() {
            for j in 0..shells.len() {
                let data = mako_eri::mmd::shell_pair(&shells[i], &shells[j]);
                let bound = mako_eri::screening::schwarz_bound(&data);
                out.push(ScreenedPair { i, j, data, bound });
            }
        }
        out
    }

    fn test_density(n: usize) -> Matrix {
        // A symmetric, positive-ish density-like matrix.
        let mut d = Matrix::from_fn(n, n, |i, j| {
            0.5 / (1.0 + (i as f64 - j as f64).abs())
        });
        d.symmetrize();
        d
    }

    /// The pre-table scatter: per-quartet `HashSet` dedup, exactly the
    /// implementation the arrangement tables replaced. Oracle for
    /// `table_scatter_matches_hashset_dedup`.
    fn scatter_quartet_hashset(
        t: &Tensor4,
        pab: &ScreenedPair,
        pcd: &ScreenedPair,
        d: &Matrix,
        layout: &AoLayout,
        j: &mut Matrix,
        k: &mut Matrix,
    ) {
        let (sa, sb, sc, sd) = (pab.i, pab.j, pcd.i, pcd.j);
        let [na, nb, nc, nd] = t.dims;
        let mut seen: HashSet<(usize, usize, usize, usize)> = HashSet::new();
        for braket in [false, true] {
            for s_ab in [false, true] {
                for s_cd in [false, true] {
                    let (mut qa, mut qb, mut qc, mut qd) = (sa, sb, sc, sd);
                    if s_ab {
                        std::mem::swap(&mut qa, &mut qb);
                    }
                    if s_cd {
                        std::mem::swap(&mut qc, &mut qd);
                    }
                    if braket {
                        std::mem::swap(&mut qa, &mut qc);
                        std::mem::swap(&mut qb, &mut qd);
                    }
                    if !seen.insert((qa, qb, qc, qd)) {
                        continue;
                    }
                    let off = |s: usize| layout.shell_offsets[s];
                    let (o1, o2, o3, o4) = (off(qa), off(qb), off(qc), off(qd));
                    let axes = slot_axes(s_ab, s_cd, braket);
                    let dim_of = |orig: usize| match orig {
                        0 => na,
                        1 => nb,
                        2 => nc,
                        _ => nd,
                    };
                    let (m1, m2, m3, m4) = (
                        dim_of(axes[0]),
                        dim_of(axes[1]),
                        dim_of(axes[2]),
                        dim_of(axes[3]),
                    );
                    for i1 in 0..m1 {
                        for i2 in 0..m2 {
                            for i3 in 0..m3 {
                                for i4 in 0..m4 {
                                    let mut idx = [0usize; 4];
                                    idx[axes[0]] = i1;
                                    idx[axes[1]] = i2;
                                    idx[axes[2]] = i3;
                                    idx[axes[3]] = i4;
                                    let v = t.get(idx[0], idx[1], idx[2], idx[3]);
                                    if v == 0.0 {
                                        continue;
                                    }
                                    j[(o1 + i1, o2 + i2)] += d[(o3 + i3, o4 + i4)] * v;
                                    k[(o1 + i1, o3 + i3)] += d[(o2 + i2, o4 + i4)] * v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn jk_matches_dense_reference_water() {
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let d = test_density(layout.nao);

        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let schedule = QuantSchedule::fp64_reference(0.0);
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig::kernel_mako_fp64();
        let (jk, stats) = build_jk_with_configs(
            &d, &pairs, &batches, &layout, &schedule, |_| (cfg, cfg), &model,
            FockEngineOptions::default(),
        );

        let reference = build_jk_reference(&d, &full_ordered_pairs(&shells), &layout);
        let dj = jk.j.sub(&reference.j).max_abs();
        let dk = jk.k.sub(&reference.k).max_abs();
        assert!(dj < 1e-10, "J differs from dense reference by {dj}");
        assert!(dk < 1e-10, "K differs from dense reference by {dk}");
        assert!(stats.fp64_quartets > 0);
        assert_eq!(stats.quantized_quartets, 0);
        assert!(stats.device_seconds > 0.0);
    }

    #[test]
    fn non_finite_attribution_blames_density_or_nothing() {
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);

        // A poisoned input density is identified as the culprit.
        let mut d = test_density(layout.nao);
        d[(0, 0)] = f64::NAN;
        let site = attribute_non_finite(&d, &pairs, &batches);
        assert!(site.density_poisoned);
        assert_eq!(site.batch, None);

        // A clean density over clean batches blames nobody: the poison
        // (when the driver saw one) appeared downstream of the ERIs.
        let clean = attribute_non_finite(&test_density(layout.nao), &pairs, &batches);
        assert_eq!(clean, NonFiniteSite::default());
        assert!(!clean.density_poisoned);
    }

    #[test]
    fn quantized_build_close_to_fp64() {
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let d = test_density(layout.nao);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let model = CostModel::new(DeviceSpec::a100());
        let fp64 = PipelineConfig::kernel_mako_fp64();
        let quant = PipelineConfig::quant_mako();

        let reference_schedule = QuantSchedule::fp64_reference(0.0);
        let (jk_ref, _) = build_jk_with_configs(
            &d, &pairs, &batches, &layout, &reference_schedule, |_| (fp64, quant), &model,
            FockEngineOptions::default(),
        );

        // Early-SCF schedule: quantize everything moderate.
        let early = QuantSchedule::for_iteration(1.0, 1e-7);
        let (jk_q, stats) = build_jk_with_configs(
            &d, &pairs, &batches, &layout, &early, |_| (fp64, quant), &model,
            FockEngineOptions::default(),
        );
        assert!(stats.quantized_quartets > 0, "schedule must quantize work");
        let dj = jk_ref.j.sub(&jk_q.j).max_abs() / jk_ref.j.max_abs();
        assert!(dj > 0.0, "quantized J must differ");
        assert!(dj < 1e-2, "quantized J relative error {dj}");
    }

    #[test]
    fn symmetry_of_jk() {
        let mol = builders::methane();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let d = test_density(layout.nao);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig::kernel_mako_fp64();
        let schedule = QuantSchedule::fp64_reference(0.0);
        let (jk, _) = build_jk_with_configs(
            &d, &pairs, &batches, &layout, &schedule, |_| (cfg, cfg), &model,
            FockEngineOptions::default(),
        );
        assert!(jk.j.asymmetry() < 1e-12);
        assert!(jk.k.asymmetry() < 1e-12);
        // Energy-like traces are positive for a positive-ish density.
        assert!(jk.j.dot(&d) > 0.0);
        assert!(jk.k.dot(&d) > 0.0);
    }

    #[test]
    fn slot_axes_permutations_are_consistent() {
        assert_eq!(slot_axes(false, false, false), [0, 1, 2, 3]);
        assert_eq!(slot_axes(true, false, false), [1, 0, 2, 3]);
        assert_eq!(slot_axes(false, true, false), [0, 1, 3, 2]);
        assert_eq!(slot_axes(false, false, true), [2, 3, 0, 1]);
        assert_eq!(slot_axes(true, true, true), [3, 2, 1, 0]);
    }

    #[test]
    fn arrangement_tables_match_hashset_dedup_for_every_assignment() {
        // For every shell assignment over 4 symbols (256 of them — every
        // equality pattern, including stray coincidences like sa == sc
        // alone), the case table must reproduce the HashSet dedup exactly:
        // same arrangements, same order.
        for code in 0..256usize {
            let s = [code & 3, (code >> 2) & 3, (code >> 4) & 3, (code >> 6) & 3];
            let expected = build_arrangement_table(&s);
            let got = &arrangement_tables()[symmetry_case(s[0], s[1], s[2], s[3])];
            assert_eq!(got, &expected, "assignment {s:?}");
        }
        // Spot-check cardinalities: fully asymmetric → 8, fully symmetric → 1.
        assert_eq!(arrangement_tables()[symmetry_case(0, 1, 2, 3)].len(), 8);
        assert_eq!(arrangement_tables()[symmetry_case(0, 0, 0, 0)].len(), 1);
        assert_eq!(arrangement_tables()[symmetry_case(0, 0, 1, 2)].len(), 4);
        assert_eq!(arrangement_tables()[symmetry_case(0, 1, 0, 1)].len(), 4);
    }

    #[test]
    fn table_scatter_matches_hashset_dedup() {
        // An asymmetric quartet set with every symmetry case represented:
        // i == j pairs, distinct pairs, bra == ket quartets, crossed
        // quartets. J/K from the table scatter must equal the HashSet
        // scatter bitwise.
        let mol = builders::methane();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let d = test_density(layout.nao);
        let pairs = build_screened_pairs(&shells, 1e-12);

        let n = layout.nao;
        let (mut j_new, mut k_new) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        let (mut j_old, mut k_old) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        let mut cases_seen = HashSet::new();
        for (pi, pab) in pairs.iter().enumerate() {
            for pcd in pairs.iter().take(pi + 1) {
                let t = mako_eri::mmd::eri_quartet_mmd(&pab.data, &pcd.data);
                cases_seen.insert(symmetry_case(pab.i, pab.j, pcd.i, pcd.j));
                scatter_quartet(t.dims, &t.data, pab, pcd, &d, &layout, &mut j_new, &mut k_new);
                scatter_quartet_hashset(&t, pab, pcd, &d, &layout, &mut j_old, &mut k_old);
            }
        }
        assert!(cases_seen.len() >= 4, "want diverse symmetry cases: {cases_seen:?}");
        assert!(bits_equal(&j_new, &j_old), "J diverged from HashSet dedup");
        assert!(bits_equal(&k_new, &k_old), "K diverged from HashSet dedup");
    }

    #[test]
    fn digest_matches_the_arrangement_oracle() {
        // Every pair-pair quartet, digested once into its six J/K targets
        // and scattered over its distinct arrangements: the two builds sum
        // the same terms in different orders, so they agree to rounding.
        let water = builders::water();
        let tzvp = BasisFamily::Def2TzvpLike.basis_for(&water.elements());
        for (label, shells) in [
            ("water4/STO-3G", sto3g().shells_for(&builders::water_cluster(4))),
            ("water/def2-TZVP-like", tzvp.shells_for(&water)),
        ] {
            let layout = AoLayout::new(&shells);
            let n = layout.nao;
            let d = test_density(n);
            let pairs = build_screened_pairs(&shells, 1e-12);
            let (mut j, mut k) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            let (mut j_oracle, mut k_oracle) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            let mut cases_seen = HashSet::new();
            let mut t = Tensor4::zeros([0; 4]);
            for (pi, pab) in pairs.iter().enumerate() {
                for pcd in pairs.iter().take(pi + 1) {
                    eri_quartet_mmd_into(&pab.data, &pcd.data, &mut t);
                    cases_seen.insert(symmetry_case(pab.i, pab.j, pcd.i, pcd.j));
                    digest_quartet(t.dims, &t.data, pab, pcd, &d, &layout, &mut j, &mut k);
                    scatter_quartet(t.dims, &t.data, pab, pcd, &d, &layout, &mut j_oracle, &mut k_oracle);
                }
            }
            add_transpose(&mut j);
            add_transpose(&mut k);
            j_oracle.symmetrize();
            k_oracle.symmetrize();
            assert!(cases_seen.len() >= 4, "{label}: want diverse symmetry cases: {cases_seen:?}");
            for (name, got, oracle) in [("J", &j, &j_oracle), ("K", &k, &k_oracle)] {
                let diff = got.sub(oracle).max_abs();
                assert!(
                    diff <= 1e-14 * oracle.max_abs(),
                    "{label}: max|Δ{name}| = {diff:e} against max|{name}| = {:e}",
                    oracle.max_abs()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn arrangement_table_matches_hashset_oracle(
            sa in 0usize..6, sb in 0usize..6, sc in 0usize..6, sd in 0usize..6,
        ) {
            // The 16-case permutation tables are built once from
            // *representative* shell assignments; the scatter then trusts
            // that any quartet of the same symmetry case dedups identically.
            // Oracle: re-run the original HashSet dedup (first occurrence
            // wins, same enumeration order) on the random assignment itself.
            // This is exactly the claim that stray coincidences (e.g.
            // sa == sc alone) never collapse arrangements.
            let shells = [sa, sb, sc, sd];
            let mut seen: HashSet<[usize; 4]> = HashSet::new();
            let mut expect: Vec<[usize; 4]> = Vec::new();
            for braket in [false, true] {
                for s_ab in [false, true] {
                    for s_cd in [false, true] {
                        let axes = slot_axes(s_ab, s_cd, braket);
                        let tuple = [shells[axes[0]], shells[axes[1]], shells[axes[2]], shells[axes[3]]];
                        if seen.insert(tuple) {
                            expect.push(axes);
                        }
                    }
                }
            }
            let table = &arrangement_tables()[symmetry_case(sa, sb, sc, sd)];
            proptest::prop_assert_eq!(table, &expect);
        }
    }

    #[test]
    fn parallel_build_is_bitwise_deterministic_across_thread_counts() {
        let mol = builders::methane();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let d = test_density(layout.nao);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let model = CostModel::new(DeviceSpec::a100());
        let fp64 = PipelineConfig::kernel_mako_fp64();
        let quant = PipelineConfig::quant_mako();
        // Mixed schedule so both pipelines and the pruning path all run.
        let schedule = QuantSchedule::for_iteration(1.0, 1e-7);

        let (jk_serial, st_serial) = build_jk_serial(
            &d, &pairs, &batches, &layout, &schedule, &fp64, &quant, &model,
        );
        assert!(st_serial.quantized_quartets > 0 && st_serial.fp64_quartets > 0);

        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (jk, st) = pool.install(|| {
                build_jk_with_configs(
                    &d, &pairs, &batches, &layout, &schedule, |_| (fp64, quant), &model,
                    FockEngineOptions::default(),
                )
            });
            assert!(
                bits_equal(&jk.j, &jk_serial.j),
                "J not bitwise equal at {threads} threads"
            );
            assert!(
                bits_equal(&jk.k, &jk_serial.k),
                "K not bitwise equal at {threads} threads"
            );
            assert_eq!(st, st_serial, "stats drifted at {threads} threads");
            assert_eq!(
                st.device_seconds.to_bits(),
                st_serial.device_seconds.to_bits(),
                "device clock drifted at {threads} threads"
            );
        }
    }

    #[test]
    fn chunk_size_never_changes_bits() {
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let layout = AoLayout::new(&shells);
        let d = test_density(layout.nao);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig::kernel_mako_fp64();
        let schedule = QuantSchedule::fp64_reference(0.0);

        let (base, st_base) = build_jk_with_configs(
            &d, &pairs, &batches, &layout, &schedule, |_| (cfg, cfg), &model,
            FockEngineOptions::default(),
        );
        for chunk in [1usize, 3, 17, 100_000] {
            let mut plan =
                plan_jk(&d, &pairs, &batches, 0..batches.len(), &schedule, |_| (cfg, cfg));
            plan.price(&pairs, &batches, &model);
            let jk = plan.assemble_in_waves(&d, &pairs, &batches, &layout, None, chunk);
            assert!(bits_equal(&jk.j, &base.j), "chunk {chunk} changed J bits");
            assert!(bits_equal(&jk.k, &base.k), "chunk {chunk} changed K bits");
            assert_eq!(plan.stats, st_base);
        }
    }
    /// Water dimer / STO-3G: pairs, batches, layout and a family of distinct
    /// symmetric densities — the fixture of the tensor-store tests.
    struct StoreFixture {
        pairs: Vec<ScreenedPair>,
        batches: Vec<QuartetBatch>,
        layout: AoLayout,
        model: CostModel,
    }

    impl StoreFixture {
        fn new() -> StoreFixture {
            let shells = sto3g().shells_for(&builders::water_cluster(2));
            let pairs = build_screened_pairs(&shells, 1e-12);
            StoreFixture {
                batches: batch_quartets(&pairs, 1e-14),
                layout: AoLayout::new(&shells),
                pairs,
                model: CostModel::new(DeviceSpec::a100()),
            }
        }

        fn density(&self, k: usize) -> Matrix {
            let mut d = Matrix::from_fn(self.layout.nao, self.layout.nao, |i, j| {
                (0.5 + 0.1 * k as f64) / (1.0 + (i as f64 - j as f64).abs() * (1.0 + k as f64))
            });
            d.symmetrize();
            d
        }

        /// Bytes a store needs to hold every tensor of the fixture.
        fn full_need(&self) -> usize {
            TensorStore::new(&self.batches, usize::MAX, false).capacity_bytes()
        }

        fn plan(&self, d: &Matrix, schedule: &QuantSchedule) -> FockPlan {
            let (fp64, quant) = (PipelineConfig::kernel_mako_fp64(), PipelineConfig::quant_mako());
            let all = 0..self.batches.len();
            let mut plan = plan_jk(d, &self.pairs, &self.batches, all, schedule, |_| (fp64, quant));
            plan.price(&self.pairs, &self.batches, &self.model);
            plan
        }

        fn assemble(
            &self,
            plan: &FockPlan,
            d: &Matrix,
            store: Option<&mut TensorStore>,
            wave_len: usize,
        ) -> JkMatrices {
            plan.assemble_in_waves(d, &self.pairs, &self.batches, &self.layout, store, wave_len)
        }
    }

    /// The `(batch, position)` keys of a plan's FP64 quartets.
    fn fp64_keys(plan: &FockPlan) -> impl Iterator<Item = (usize, u32)> + '_ {
        plan.units
            .iter()
            .filter(|u| u.cfg.precision == Precision::Fp64)
            .flat_map(|u| u.positions.iter().map(move |&p| (u.batch, p)))
    }

    #[test]
    fn store_never_changes_bits_and_evaluates_each_quartet_once() {
        let f = StoreFixture::new();
        let need = f.full_need();
        // A mid-SCF schedule prunes a density-dependent set and keeps the
        // rest FP64, so the builds below do not all see the same quartets.
        let schedule = QuantSchedule::fp64_reference(1e-7);
        for budget in [0, need / 2, usize::MAX] {
            for wave_len in [1usize, 7, 4096] {
                let mut store = TensorStore::new(&f.batches, budget, false);
                if budget == need / 2 {
                    let cut = f.batches.iter().zip(&store.fp64.slots);
                    assert!(
                        cut.clone().any(|(b, s)| 0 < s.admitted && s.admitted < b.len()),
                        "the half budget must cut a batch mid-prefix"
                    );
                }
                assert!(store.capacity_bytes() <= budget);
                let mut seen = HashSet::new();
                let mut fp64_total = 0;
                for k in 0..5 {
                    let d = f.density(k);
                    let plan = f.plan(&d, &schedule);
                    assert!(plan.stats.pruned_quartets > 0);
                    seen.extend(fp64_keys(&plan));
                    fp64_total += plan.stats.fp64_quartets;
                    let direct = f.assemble(&plan, &d, None, wave_len);
                    let kept = f.assemble(&plan, &d, Some(&mut store), wave_len);
                    let label = format!("budget {budget}, wave {wave_len}, density {k}");
                    assert!(bits_equal(&kept.j, &direct.j), "J moved: {label}");
                    assert!(bits_equal(&kept.k, &direct.k), "K moved: {label}");
                }
                assert!(store.fp64.held_bytes <= store.capacity_bytes());
                match budget {
                    0 => assert_eq!((store.fp64.stored, store.fp64.reused), (0, 0)),
                    usize::MAX => {
                        assert_eq!(store.fp64.stored, seen.len(), "each distinct quartet stored once");
                        assert_eq!(store.fp64.reused, fp64_total - seen.len());
                        assert!(seen.len() < fp64_total);
                    }
                    _ => assert!(0 < store.fp64.stored && store.fp64.stored < seen.len()),
                }
            }
        }
    }

    #[test]
    fn quartet_pruned_early_is_stored_when_first_admitted_and_reused_after() {
        let f = StoreFixture::new();
        let d = f.density(0);
        let mut store = TensorStore::new(&f.batches, usize::MAX, false);
        let pruning = QuantSchedule::fp64_reference(1e-5);
        let full = QuantSchedule::fp64_reference(0.0);
        let mut deltas = Vec::new();
        for schedule in [&pruning, &pruning, &full, &full] {
            let plan = f.plan(&d, schedule);
            let before = (store.fp64.stored, store.fp64.reused);
            let kept = f.assemble(&plan, &d, Some(&mut store), 64);
            let direct = f.assemble(&plan, &d, None, 64);
            assert!(bits_equal(&kept.j, &direct.j) && bits_equal(&kept.k, &direct.k));
            deltas.push((store.fp64.stored - before.0, store.fp64.reused - before.1));
        }
        let total: usize = f.batches.iter().map(|b| b.len()).sum();
        let first = deltas[0].0;
        assert!(0 < first && first < total, "build 1 must prune some quartets: {deltas:?}");
        assert_eq!(
            deltas,
            vec![(first, 0), (0, first), (total - first, first), (0, total)]
        );
    }

    /// The mixed FP64/quantized schedule of an SCF's first iteration.
    fn early() -> QuantSchedule {
        QuantSchedule::for_iteration(1.0, 1e-7)
    }

    #[test]
    fn quantized_work_never_reads_fp64_tensors_or_touches_the_fp64_tier() {
        let f = StoreFixture::new();
        let d = f.density(0);
        let plan = f.plan(&d, &early());
        assert!(plan.stats.quantized_quartets > 0 && plan.stats.fp64_quartets > 0);
        let direct = f.assemble(&plan, &d, None, 64);

        // A store that already holds the FP64 tensor of every quartet.
        let mut store = TensorStore::new(&f.batches, usize::MAX, true);
        let fp64_plan = f.plan(&d, &QuantSchedule::fp64_reference(0.0));
        let fp64 = f.assemble(&fp64_plan, &d, Some(&mut store), 64);
        let (stored, reused) = (store.fp64.stored, store.fp64.reused);
        let held = store.fp64.arena.clone();

        let kept = f.assemble(&plan, &d, Some(&mut store), 64);
        assert!(bits_equal(&kept.j, &direct.j) && bits_equal(&kept.k, &direct.k));
        assert!(!bits_equal(&kept.j, &fp64.j), "quantized quartets were served FP64 tensors");
        assert_eq!(store.fp64.stored, stored, "a quantized tensor was stored in the FP64 tier");
        assert_eq!(store.fp64.reused, reused + plan.stats.fp64_quartets);
        assert!(store.fp64.arena.iter().zip(&held).all(|(a, b)| a.to_bits() == b.to_bits()));
        // Every quantized tensor was evaluated, then kept in its own tier.
        assert_eq!(store.counts()[2..], [plan.stats.quantized_quartets, 0]);
    }

    #[test]
    fn quantized_tensors_of_an_unchanged_tag_are_served_from_the_store() {
        let f = StoreFixture::new();
        let d = f.density(0);
        let plan = f.plan(&d, &early());
        let direct = f.assemble(&plan, &d, None, 64);
        let nq = plan.stats.quantized_quartets;
        let mut store = TensorStore::new(&f.batches, usize::MAX, true);
        for (build, wave_len) in [1usize, 7, 4096].into_iter().enumerate() {
            let kept = f.assemble(&plan, &d, Some(&mut store), wave_len);
            assert!(bits_equal(&kept.j, &direct.j), "J moved at build {build}");
            assert!(bits_equal(&kept.k, &direct.k), "K moved at build {build}");
            assert_eq!(store.counts()[2..], [nq, nq * build]);
        }
        assert_eq!(store.quantized_retags(), 0);
    }

    #[test]
    fn a_group_scale_change_re_evaluates_to_the_storeless_bits() {
        let f = StoreFixture::new();
        let d = f.density(0);
        let plan = f.plan(&d, &early());
        // The same quartets under other frozen group scales.
        let mut rescaled = f.plan(&d, &early());
        let mut quantized_units = 0;
        for u in rescaled.units.iter_mut().filter(|u| u.cfg.precision != Precision::Fp64) {
            u.e_scale *= 0.75;
            quantized_units += 1;
        }
        let direct = f.assemble(&rescaled, &d, None, 64);
        let nq = plan.stats.quantized_quartets;

        let mut store = TensorStore::new(&f.batches, usize::MAX, true);
        let first = f.assemble(&plan, &d, Some(&mut store), 64);
        let (fp64_counts, held) = (store.counts()[..2].to_vec(), store.held_bytes());
        assert!(!bits_equal(&first.k, &direct.k), "the scale change moved no bit");
        let kept = f.assemble(&rescaled, &d, Some(&mut store), 64);
        assert!(bits_equal(&kept.j, &direct.j) && bits_equal(&kept.k, &direct.k));
        assert_eq!(store.counts()[2..], [2 * nq, 0], "a retagged batch served a stale tensor");
        assert_eq!(store.quantized_retags(), quantized_units);
        assert_eq!(store.held_bytes(), held, "the old tag's tensors were not dropped");
        // One tag per batch: going back re-evaluates once more.
        let back = f.assemble(&plan, &d, Some(&mut store), 64);
        assert!(bits_equal(&back.j, &first.j) && bits_equal(&back.k, &first.k));
        assert_eq!(store.counts()[2..], [3 * nq, 0]);
        assert_eq!(store.counts()[..2], [fp64_counts[0], fp64_counts[1] + 2 * plan.stats.fp64_quartets]);
    }

    #[test]
    fn a_budget_the_fp64_tier_spends_leaves_the_quantized_tier_empty() {
        let f = StoreFixture::new();
        let d = f.density(0);
        let plan = f.plan(&d, &early());
        let direct = f.assemble(&plan, &d, None, 64);
        let need = f.full_need();
        let mut store = TensorStore::new(&f.batches, need, true);
        assert_eq!(store.capacity_bytes(), need);
        for _ in 0..2 {
            let kept = f.assemble(&plan, &d, Some(&mut store), 64);
            assert!(bits_equal(&kept.j, &direct.j) && bits_equal(&kept.k, &direct.k));
        }
        let nf = plan.stats.fp64_quartets;
        assert_eq!(store.counts(), [nf, nf, 0, 0]);
        assert_eq!(store.held_bytes(), store.fp64.held_bytes);
    }
}
