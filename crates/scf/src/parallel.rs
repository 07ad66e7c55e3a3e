//! Multi-GPU scaling model for the Figure 10 experiment.
//!
//! The paper distributes the Fock build over MPI ranks (one per GPU),
//! allreduces the Fock matrix every iteration, and replicates the
//! diagonalization. At ubiquitin scale (1,231 atoms, def2-TZVP ≈ 25k basis
//! functions) the quartet batches cannot be enumerated explicitly on a CPU,
//! so this module builds a **statistical workload model**: shells are
//! instantiated for real, pair survival is estimated from the Gaussian
//! overlap decay (the same quantity Schwarz screening keys on), per-class
//! quartet counts follow from pair-class populations, and per-batch costs
//! come from the architecture-tuned kernel configurations.
//!
//! Beside the model sits the real multi-rank Fock build,
//! [`build_jk_distributed`]: the batches are LPT-partitioned into one share
//! per rank, and each share is the single-device engine's plan → price →
//! assemble over its own batch indices, run on the caller's thread (each
//! assembly across the installed rayon pool) and merged in rank order, under
//! a seeded fault plan (quiet for the fault-free build). An SCF session hands
//! every share's assembly its tensor store; the stateless entry point stays
//! integral-direct.

use crate::error::FockBuildError;
use crate::fock::{plan_jk, FockBuildStats, FockEngineOptions, JkMatrices, TensorStore};
use mako_accel::cluster::{
    parallel_efficiency, partition_lpt, simulate_iteration, ClusterSpec, ParallelTiming,
    RingAllreduce,
};
use mako_accel::fault::{FaultPlan, RecoveryLedger};
use mako_accel::CostModel;
use mako_kernels::pipeline::PipelineConfig;
use mako_chem::molecule::dist;
use mako_chem::{BasisSet, Molecule};
use mako_compiler::KernelCache;
use mako_eri::batch::EriClass;
use mako_precision::Precision;
use std::collections::BTreeMap;

/// Statistical workload: per ERI class, the number of surviving quartets.
#[derive(Debug, Clone)]
pub struct WorkloadModel {
    /// (class, surviving quartet count).
    pub classes: Vec<(EriClass, f64)>,
    /// Number of basis functions.
    pub nao: usize,
    /// Number of significant shell pairs.
    pub n_pairs: usize,
}

/// Build the workload model for a molecule/basis.
///
/// A shell pair survives when its Gaussian-product prefactor
/// `exp(−μ R²)` exceeds `1e-10`; quartet survival additionally requires the
/// product of two pair prefactor estimates to clear the same bar, which is
/// folded in as a per-class survival fraction.
pub fn build_workload(mol: &Molecule, basis: &BasisSet) -> WorkloadModel {
    let shells = basis.shells_for(mol);
    let nao = shells.iter().map(|s| s.nfunc()).sum();

    // Count significant pairs per (la, lb, kab) pair class, tracking the
    // prefactor distribution coarsely (strong vs weak pairs). Ordered map:
    // bra/ket assignment below follows key order, which must not depend on
    // the process's hash seed.
    let mut pair_classes: BTreeMap<(usize, usize, usize), (f64, f64)> = BTreeMap::new();
    let mut n_pairs = 0usize;
    for i in 0..shells.len() {
        for j in 0..=i {
            let r = dist(shells[i].center, shells[j].center);
            // Most-diffuse primitive pair dominates the survival estimate.
            let amin = shells[i].exps.iter().cloned().fold(f64::INFINITY, f64::min);
            let bmin = shells[j].exps.iter().cloned().fold(f64::INFINITY, f64::min);
            let mu = amin * bmin / (amin + bmin);
            let pref = (-mu * r * r).exp();
            if pref < 1e-10 {
                continue;
            }
            n_pairs += 1;
            let key = (
                shells[i].l.max(shells[j].l),
                shells[i].l.min(shells[j].l),
                shells[i].nprim() * shells[j].nprim(),
            );
            let e = pair_classes.entry(key).or_insert((0.0, 0.0));
            e.0 += 1.0;
            e.1 += pref;
        }
    }

    // Quartet counts per class: pair-class populations crossed, scaled by
    // the fraction whose bound product survives (estimated from the mean
    // prefactors — the classic N²→N²·f sparsity of screened Fock builds).
    let mut classes: Vec<(EriClass, f64)> = Vec::new();
    let keys: Vec<_> = pair_classes.keys().cloned().collect();
    for (ai, &ka) in keys.iter().enumerate() {
        for &kb in keys.iter().take(ai + 1) {
            let (na, sa) = pair_classes[&ka];
            let (nb, sb) = pair_classes[&kb];
            let mean_a = sa / na;
            let mean_b = sb / nb;
            // Fraction of quartets surviving the Schwarz product test.
            let survival = (mean_a * mean_b).powf(0.25).clamp(0.05, 1.0);
            let count = if ka == kb {
                na * (na + 1.0) / 2.0
            } else {
                na * nb
            } * survival;
            let class = EriClass {
                la: ka.0,
                lb: ka.1,
                lc: kb.0,
                ld: kb.1,
                kab: ka.2.min(36),
                kcd: kb.2.min(36),
            };
            classes.push((class, count));
        }
    }
    WorkloadModel {
        classes,
        nao,
        n_pairs,
    }
}

/// Per-batch simulated costs for one Fock-build iteration: each class is
/// split into batches of at most `batch_quartets` quartets, costed with the
/// tuned kernel for that class.
pub fn batch_costs(
    workload: &WorkloadModel,
    model: &CostModel,
    cache: &KernelCache,
    precision: Precision,
    batch_quartets: usize,
) -> Vec<f64> {
    // Target per-batch cost: batches are the unit of load balancing, so no
    // single batch may dominate a rank. Expensive classes (high l, high K)
    // get proportionally smaller batches — what a real dispatcher does when
    // it tiles a class across threadblock waves.
    let target_seconds = 2.0e-3;
    let mut costs = Vec::new();
    for &(class, count) in &workload.classes {
        let tuned = cache.get_or_tune(&class, precision, model);
        let probe = 4096usize;
        let per_quartet =
            mako_kernels::pipeline::simulate_batch_cost(&class, probe, &tuned.config, model)
                / probe as f64;
        let adaptive = ((target_seconds / per_quartet) as usize).clamp(64, batch_quartets);
        let mut remaining = count.round() as usize;
        while remaining > 0 {
            let n = remaining.min(adaptive);
            let c = mako_kernels::pipeline::simulate_batch_cost(&class, n, &tuned.config, model);
            costs.push(c);
            remaining -= n;
        }
    }
    costs
}

/// Per-batch LPT weights: the modeled FP64 cost of every batch, the common
/// load model of the static partition, the straggler detector, and the
/// recovery ledger's two clocks.
fn batch_weights(
    batches: &[mako_eri::QuartetBatch],
    fp64_cfg_for: impl Fn(usize) -> PipelineConfig,
    model: &CostModel,
) -> Vec<f64> {
    batches
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            mako_kernels::pipeline::simulate_batch_cost(
                &b.class,
                b.len().max(1),
                &fp64_cfg_for(bi),
                model,
            )
            .min(1e6)
        })
        .collect()
}

/// Partition batches over ranks by LPT on their weights; returns each
/// rank's share as **global batch indices in batch order** (the canonical
/// order every execution of a share must preserve).
fn lpt_shares(weights: &[f64], ranks: usize) -> Vec<Vec<usize>> {
    let assignment = partition_lpt(weights, ranks);
    let mut shares: Vec<Vec<usize>> = vec![Vec::new(); ranks];
    for (bi, &r) in assignment.iter().enumerate() {
        shares[r].push(bi);
    }
    shares
}

/// Straggler detector bar: a rank that has burned this multiple of its
/// fault-free LPT share budget with batches still pending loses the pending
/// suffix to faster ranks (work stealing).
const STRAGGLER_THRESHOLD: f64 = 1.5;

/// A simulated GPU cluster for the multi-rank Fock build: how many ranks
/// there are and what goes wrong on them is one [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct DistributedScf {
    /// The (seeded, deterministic) fault schedule the build executes under;
    /// its rank count is the cluster size, and [`FaultPlan::quiet`] is the
    /// fault-free build.
    pub plan: FaultPlan,
    /// Cluster geometry for the per-build allreduce of J and K; `None` skips
    /// the collective (single-node studies).
    pub cluster: Option<ClusterSpec>,
}

impl DistributedScf {
    /// Quiet distributed run over `ranks` ranks, with no collective priced.
    pub fn new(ranks: usize) -> DistributedScf {
        DistributedScf {
            plan: FaultPlan::quiet(ranks),
            cluster: None,
        }
    }
}

/// Outcome of a fault-tolerant distributed Fock build.
#[derive(Debug, Clone)]
pub struct FtFockOutcome {
    /// Merged J/K — bitwise identical to the fault-free build's.
    pub jk: JkMatrices,
    /// Per-logical-rank engine device seconds — identical to the fault-free
    /// build's (share numerics are always produced by the same engine call;
    /// faults change *who executes*, accounted in `recovery`).
    pub rank_seconds: Vec<f64>,
    /// Merged scheduler statistics — identical to the fault-free build's.
    pub stats: FockBuildStats,
    /// What recovery did and what the faults cost on the load-model clock.
    pub recovery: RecoveryLedger,
}

/// The multi-rank Fock build: quartet batches are partitioned over the
/// plan's ranks by LPT on their modeled device cost, each rank's share is the
/// **single-device engine's plan → price → assemble** over that share's batch
/// indices, and the partial J/K matrices are merged in rank order — the
/// software analogue of the per-rank Fock build + deterministic allreduce.
/// Shares run one after another on the caller's thread, each assembly across
/// the installed rayon pool. This is the one multi-rank entry point: the
/// fault-free build is `dist.plan` = [`FaultPlan::quiet`], under which no
/// recovery fires. Under any other plan the build *simulates* the fault
/// schedule and recovers from every injected anomaly:
///
/// * **transient launch failures** — retried in place with capped
///   exponential backoff (wasted attempts and backoff delays are charged to
///   the degraded clock);
/// * **stragglers** — detected against the LPT load model (a rank that has
///   spent 1.5× its fault-free share budget with work still pending); the
///   pending suffix is re-partitioned greedily onto the least-loaded live
///   ranks;
/// * **permanent rank loss** — a dead rank's partial results are lost, and
///   its **entire share** is re-run on the least-loaded survivor;
/// * **allreduce timeouts** of call `collective_call` (the SCF driver passes
///   the iteration index) — retried, each timeout charging its stall. The
///   collective moves J and K, `2·nao²` doubles, and is priced only when
///   `dist.cluster` is set.
///
/// ## The determinism invariant
///
/// Recovered J/K, per-rank `device_seconds`, and scheduler statistics are
/// **bitwise identical** to the fault-free run, by construction: the
/// numerics of logical rank `r`'s share are only ever produced by one plan →
/// price → assemble over the *original fault-free share* — re-runs
/// re-execute the identical engine calls (deterministic by the engine
/// contract), thieves evaluate on behalf of the owner and ship tensors back
/// to the owner's ordered scatter, and the final merge stays in logical
/// rank order. No fault can regroup a floating-point sum. What faults *do*
/// change is the execution timeline, which is simulated on the LPT
/// load-model clock and reported in [`RecoveryLedger`]
/// (`fault_free_seconds` vs `degraded_seconds`).
///
/// Every rank applies `opts` to its share (the incremental driver's ΔD
/// screen is a pure per-quartet function of the density and the Schwarz
/// bounds, so partitioning does not change what is skipped). Stateless and
/// integral-direct, like [`crate::fock::build_jk_with_configs`]. Errors with
/// [`FockBuildError::NoRanks`] on an empty cluster and
/// [`FockBuildError::AllRanksLost`] when no rank survives.
#[allow(clippy::too_many_arguments)]
pub fn build_jk_distributed(
    density: &mako_linalg::Matrix,
    pairs: &[mako_eri::ScreenedPair],
    batches: &[mako_eri::QuartetBatch],
    layout: &mako_chem::AoLayout,
    schedule: &mako_quant::QuantSchedule,
    cfg_for: impl Fn(usize) -> (PipelineConfig, PipelineConfig),
    model: &CostModel,
    opts: FockEngineOptions,
    dist: &DistributedScf,
    collective_call: u64,
) -> Result<FtFockOutcome, FockBuildError> {
    build_shares(
        density, pairs, batches, layout, schedule, cfg_for, model, opts, dist, collective_call,
        None,
    )
}

/// [`build_jk_distributed`] with every share's assembly handed `store`: an
/// SCF session's tensors, keyed by global *(batch, position)*, so disjoint
/// shares never collide in it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_shares(
    density: &mako_linalg::Matrix,
    pairs: &[mako_eri::ScreenedPair],
    batches: &[mako_eri::QuartetBatch],
    layout: &mako_chem::AoLayout,
    schedule: &mako_quant::QuantSchedule,
    cfg_for: impl Fn(usize) -> (PipelineConfig, PipelineConfig),
    model: &CostModel,
    opts: FockEngineOptions,
    dist: &DistributedScf,
    collective_call: u64,
    mut store: Option<&mut TensorStore>,
) -> Result<FtFockOutcome, FockBuildError> {
    let plan = &dist.plan;
    let ranks = plan.ranks();
    if ranks == 0 {
        return Err(FockBuildError::NoRanks);
    }

    let weights = batch_weights(batches, |bi| cfg_for(bi).0, model);
    let shares = lpt_shares(&weights, ranks);
    let mut ledger = RecoveryLedger::default();
    let mut dist_span = mako_trace::span("dist", "build_jk_ft");
    if dist_span.is_recording() {
        dist_span.add_field("ranks", ranks);
        dist_span.add_field("batches", batches.len());
        for (rank, share) in shares.iter().enumerate() {
            let budget: f64 = share.iter().map(|&bi| weights[bi]).sum();
            mako_trace::instant(
                "dist",
                "share",
                vec![
                    mako_trace::field("rank", rank),
                    mako_trace::field("batches", share.len()),
                    mako_trace::field("budget_seconds", budget),
                ],
            );
        }
    }

    // ---- Fault timeline on the load-model clock. ----
    // Transient failures retry in place, a doomed rank executes up to its
    // death point, a straggler keeps only the prefix it can finish within
    // its budget, and displaced batches land on the least-loaded live rank
    // — all in `FaultPlan::walk`, keyed by batch index, costed by weight.
    // Accounting only: the numbers below are the same whoever executes.
    if (0..ranks).all(|r| plan.death_point(r, shares[r].len()).is_some()) {
        return Err(FockBuildError::AllRanksLost { ranks });
    }
    let costed: Vec<Vec<(usize, f64)>> = shares
        .iter()
        .map(|s| s.iter().map(|&bi| (bi, weights[bi])).collect())
        .collect();
    plan.walk(&costed, &mut vec![true; ranks], Some(STRAGGLER_THRESHOLD), &mut ledger);

    // ---- The collective, with timeout retries. ----
    if let Some(cluster) = &dist.cluster {
        let bytes = 2.0 * (layout.nao * layout.nao) as f64 * 8.0;
        let comm = RingAllreduce::new(cluster.clone()).time(bytes, ranks);
        ledger.fault_free_seconds += comm;
        let mut attempt = 0u32;
        while attempt < 1000 && plan.allreduce_times_out(collective_call, attempt) {
            ledger.degraded_seconds += plan.allreduce_timeout_seconds();
            ledger.allreduce_retries += 1;
            attempt += 1;
        }
        ledger.degraded_seconds += comm;
    }

    // ---- Share numerics (the only place numbers are made), merged in rank
    // order — no fault reaches them.
    let n = layout.nao;
    let mut j = mako_linalg::Matrix::zeros(n, n);
    let mut k = mako_linalg::Matrix::zeros(n, n);
    let mut rank_seconds = Vec::with_capacity(ranks);
    let mut stats = FockBuildStats::default();
    for share in &shares {
        let mut share_plan =
            plan_jk(density, pairs, batches, share.iter().copied(), schedule, &cfg_for, layout, opts);
        share_plan.price(pairs, batches, model);
        let jk = share_plan.assemble(density, pairs, batches, layout, store.as_deref_mut());
        j.axpy(1.0, &jk.j);
        k.axpy(1.0, &jk.k);
        rank_seconds.push(share_plan.stats.device_seconds);
        stats.merge_rank(&share_plan.stats);
    }
    if dist_span.is_recording() {
        dist_span.add_field("transient_retries", ledger.transient_retries);
        dist_span.add_field("straggler_ranks", ledger.straggler_ranks);
        dist_span.add_field("stolen_batches", ledger.stolen_batches);
        dist_span.add_field("rerun_batches", ledger.rerun_batches);
        dist_span.add_field("ranks_lost", ledger.ranks_lost);
        dist_span.add_field("allreduce_retries", ledger.allreduce_retries);
        dist_span.add_field("fault_free_seconds", ledger.fault_free_seconds);
        dist_span.add_field("degraded_seconds", ledger.degraded_seconds);
    }
    dist_span.end();
    Ok(FtFockOutcome {
        jk: JkMatrices { j, k },
        rank_seconds,
        stats,
        recovery: ledger,
    })
}

/// Replicated per-iteration work every rank repeats: the Fock
/// diagonalization (run as a blocked iterative eigensolver — LOBPCG-style,
/// which the paper cites as the MatMul-amenable choice for this stage),
/// plus DIIS/host bookkeeping.
pub fn replicated_serial_seconds(nao: usize, model: &CostModel) -> f64 {
    let n = nao as f64;
    // ~30 block iterations, block size 64: each is a couple of n² GEMMs.
    let flops = 30.0 * n * n * 64.0 * 4.0;
    let rate = 0.5 * model.device.tensor_peak(Precision::Fp64).max(1.0);
    flops / rate + 0.2
}

/// One scaling-curve row.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// GPU count.
    pub ranks: usize,
    /// Seconds per SCF iteration.
    pub iteration_seconds: f64,
    /// Parallel efficiency vs 1 GPU.
    pub efficiency: f64,
    /// Timing breakdown.
    pub timing: ParallelTiming,
}

/// Simulate the strong-scaling curve of one SCF iteration over the given
/// rank counts.
pub fn scaling_curve(
    batch_costs: &[f64],
    nao: usize,
    serial_seconds: f64,
    ranks_list: &[usize],
    cluster: &ClusterSpec,
) -> Vec<ScalingPoint> {
    // Fock + density allreduce volume: two n×n FP64 matrices.
    let allreduce_bytes = 2.0 * (nao * nao) as f64 * 8.0;
    let t1 = simulate_iteration(batch_costs, 1, 0.0, serial_seconds, cluster).total;
    ranks_list
        .iter()
        .map(|&ranks| {
            let timing = simulate_iteration(
                batch_costs,
                ranks,
                if ranks > 1 { allreduce_bytes } else { 0.0 },
                serial_seconds,
                cluster,
            );
            ScalingPoint {
                ranks,
                iteration_seconds: timing.total,
                efficiency: parallel_efficiency(t1, timing.total, ranks),
                timing,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::build_jk_with_configs;
    use mako_accel::DeviceSpec;
    use mako_chem::basis::BasisFamily;
    use mako_chem::builders;

    #[test]
    fn workload_counts_scale_with_system_size() {
        let basis10 = BasisFamily::Def2TzvpLike;
        let small = build_workload(&builders::water_cluster(3), &basis10.basis_for(&[
            mako_chem::Element::H,
            mako_chem::Element::O,
        ]));
        let large = build_workload(&builders::water_cluster(10), &basis10.basis_for(&[
            mako_chem::Element::H,
            mako_chem::Element::O,
        ]));
        assert!(large.nao > 3 * small.nao);
        assert!(large.n_pairs > small.n_pairs);
        let total = |w: &WorkloadModel| w.classes.iter().map(|&(_, c)| c).sum::<f64>();
        assert!(total(&large) > 5.0 * total(&small));
        // Class order (bra/ket assignment) repeats call to call.
        let again = build_workload(&builders::water_cluster(10), &basis10.basis_for(&[
            mako_chem::Element::H,
            mako_chem::Element::O,
        ]));
        assert_eq!(again.classes, large.classes);
    }

    #[test]
    fn scaling_shape_matches_figure10() {
        // Ubiquitin-scale workload: > 90% efficiency within a node,
        // ≈ 60–85% at 64 GPUs.
        let mol = builders::ubiquitin_like();
        let basis = BasisFamily::Def2TzvpLike.basis_for(&mol.elements());
        let workload = build_workload(&mol, &basis);
        assert!(workload.nao > 10_000, "ubiquitin TZVP has >10k AOs: {}", workload.nao);

        let model = CostModel::new(DeviceSpec::a100());
        let cache = KernelCache::new();
        let costs = batch_costs(&workload, &model, &cache, Precision::Fp16, 200_000);
        assert!(costs.len() > 64, "need enough batches to balance");

        // Replicated serial stage: iterative diagonalization + host work.
        let serial = replicated_serial_seconds(workload.nao, &model);
        let curve = scaling_curve(
            &costs,
            workload.nao,
            serial,
            &[1, 2, 4, 8, 16, 32, 64],
            &ClusterSpec::azure_nd_a100_v4(),
        );
        let eff = |r: usize| curve.iter().find(|p| p.ranks == r).unwrap().efficiency;
        assert!(eff(8) > 0.90, "single-node efficiency {} (paper: >90%)", eff(8));
        assert!(eff(64) > 0.55 && eff(64) < 0.95, "64-GPU efficiency {}", eff(64));
        assert!(eff(8) > eff(64));
        // Wall time still shrinks monotonically.
        for w in curve.windows(2) {
            assert!(w[1].iteration_seconds < w[0].iteration_seconds);
        }
    }

    type FockFixture = (
        mako_linalg::Matrix,
        Vec<mako_eri::ScreenedPair>,
        Vec<mako_eri::QuartetBatch>,
        mako_chem::AoLayout,
        mako_quant::QuantSchedule,
        PipelineConfig,
        CostModel,
    );

    /// An FP64 Fock build of `mol`/STO-3G with a synthetic density.
    fn fock_fixture(mol: &Molecule, density: impl Fn(usize, usize) -> f64) -> FockFixture {
        use mako_chem::basis::sto3g::sto3g;
        use mako_eri::batch::batch_quartets;
        use mako_eri::screening::build_screened_pairs;
        use mako_quant::QuantSchedule;

        let shells = sto3g().shells_for(mol);
        let layout = mako_chem::AoLayout::new(&shells);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let d = mako_linalg::Matrix::from_fn(layout.nao, layout.nao, density);
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig::kernel_mako_fp64();
        let schedule = QuantSchedule::fp64_reference(0.0);
        (d, pairs, batches, layout, schedule, cfg, model)
    }

    // Shared fixture for the fault-tolerance tests: a water-dimer Fock
    // build with a synthetic density.
    fn ft_fixture() -> FockFixture {
        fock_fixture(&builders::water_cluster(2), |i, j| {
            0.4 / (1.0 + (i as f64 - j as f64).abs())
        })
    }

    /// The build of `fx` on `dist` as collective call `call`.
    fn build_on(fx: &FockFixture, dist: &DistributedScf, call: u64) -> FtFockOutcome {
        let (d, pairs, batches, layout, schedule, cfg, model) = fx;
        build_jk_distributed(
            d,
            pairs,
            batches,
            layout,
            schedule,
            |_| (*cfg, *cfg),
            model,
            FockEngineOptions::default(),
            dist,
            call,
        )
        .expect("distributed build")
    }

    /// The build of `fx` over `plan.ranks()` ranks under `plan`.
    fn build_under(fx: &FockFixture, plan: FaultPlan) -> FtFockOutcome {
        build_on(fx, &DistributedScf { plan, cluster: None }, 0)
    }

    /// The fault-free build: the quiet plan.
    fn fault_free(fx: &FockFixture, ranks: usize) -> FtFockOutcome {
        build_on(fx, &DistributedScf::new(ranks), 0)
    }

    /// The single-device engine on the same fixture.
    fn solo(fx: &FockFixture) -> (JkMatrices, FockBuildStats) {
        let (d, pairs, batches, layout, schedule, cfg, model) = fx;
        build_jk_with_configs(
            d,
            pairs,
            batches,
            layout,
            schedule,
            |_| (*cfg, *cfg),
            model,
            FockEngineOptions::default(),
        )
    }

    fn assert_bitwise_jk(a: &JkMatrices, b: &JkMatrices, what: &str) {
        assert!(
            a.j.as_slice()
                .iter()
                .zip(b.j.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{what}: J not bitwise identical"
        );
        assert!(
            a.k.as_slice()
                .iter()
                .zip(b.k.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{what}: K not bitwise identical"
        );
    }

    #[test]
    fn distributed_fock_matches_serial() {
        let fx = fock_fixture(&builders::water(), |i, j| {
            0.4 / (1.0 + (i as f64 - j as f64).abs())
        });
        let (serial, _) = solo(&fx);
        for ranks in [1usize, 2, 4] {
            let dist = fault_free(&fx, ranks);
            assert_eq!(dist.rank_seconds.len(), ranks);
            assert!(dist.stats.fp64_quartets > 0);
            assert!(
                dist.jk.j.sub(&serial.j).max_abs() < 1e-11,
                "ranks={ranks} J mismatch"
            );
            assert!(
                dist.jk.k.sub(&serial.k).max_abs() < 1e-11,
                "ranks={ranks} K mismatch"
            );
        }
    }

    #[test]
    fn distributed_fock_balances_load() {
        let fx = fock_fixture(&builders::water_cluster(2), |i, j| {
            if i == j {
                0.5
            } else {
                0.0
            }
        });
        let seconds = fault_free(&fx, 2).rank_seconds;
        let max = seconds.iter().cloned().fold(0.0f64, f64::max);
        let min = seconds.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 0.0 && min > 0.0, "both ranks got work: {seconds:?}");
        assert!(min / max > 0.2, "load imbalance too large: {seconds:?}");
    }

    #[test]
    fn ft_quiet_plan_matches_fault_free_exactly() {
        // The fault-free build is the quiet plan. On one rank it is the solo
        // engine to the bit (one share holding every batch in order, merged
        // into zeros); on three, the counters add up to the solo build's,
        // the clock is the slowest rank's, and no recovery fires.
        let fx = ft_fixture();
        let (solo_jk, solo_stats) = solo(&fx);
        let one = fault_free(&fx, 1);
        assert_bitwise_jk(&one.jk, &solo_jk, "one quiet rank");
        assert_eq!(one.rank_seconds, [solo_stats.device_seconds]);
        assert_eq!(one.stats, solo_stats);

        let ft = fault_free(&fx, 3);
        assert_eq!(ft.rank_seconds.len(), 3);
        assert_eq!(
            ft.stats,
            FockBuildStats {
                device_seconds: ft.rank_seconds.iter().cloned().fold(0.0, f64::max),
                ..solo_stats
            }
        );
        assert!(ft.recovery.quiet(), "quiet plan fired recovery: {:?}", ft.recovery);
        // Quiet degraded timeline equals the fault-free plan exactly.
        assert_eq!(
            ft.recovery.degraded_seconds.to_bits(),
            ft.recovery.fault_free_seconds.to_bits()
        );
    }

    #[test]
    fn ft_rank_loss_recovers_bitwise() {
        let fx = ft_fixture();
        let ranks = 4;
        let ff = fault_free(&fx, ranks);
        // Kill all but one rank — the strongest recovery case the issue
        // demands — plus a straggler and transients on the survivor.
        let plan = FaultPlan::quiet(ranks)
            .kill_rank(0, 0.3)
            .kill_rank(1, 0.0)
            .kill_rank(3, 0.9)
            .slow_rank(2, 4.0)
            .with_transients(0.2);
        let ft = build_under(&fx, plan);
        assert_bitwise_jk(&ft.jk, &ff.jk, "3-of-4 rank loss");
        assert_eq!(ft.rank_seconds, ff.rank_seconds);
        assert_eq!(ft.stats, ff.stats);
        assert_eq!(ft.recovery.ranks_lost, 3);
        assert!(ft.recovery.rerun_batches > 0, "dead shares must be re-run");
        assert!(ft.recovery.transient_retries > 0, "20% transients must fire");
        assert!(ft.recovery.backoff_seconds > 0.0);
        assert!(
            ft.recovery.degraded_seconds > ft.recovery.fault_free_seconds,
            "re-running 3 dead shares on one survivor must cost extra: {:?}",
            ft.recovery
        );
    }

    #[test]
    fn ft_straggler_tail_is_stolen() {
        let fx = ft_fixture();
        let ranks = 4;
        let ff = fault_free(&fx, ranks);
        let plan = FaultPlan::quiet(ranks).slow_rank(1, 8.0);
        let ft = build_under(&fx, plan);
        assert_bitwise_jk(&ft.jk, &ff.jk, "straggler");
        assert_eq!(ft.recovery.straggler_ranks, 1);
        assert!(ft.recovery.stolen_batches > 0, "8× straggler must lose its tail");
        assert_eq!(ft.recovery.ranks_lost, 0);
        // Stealing bounds the damage: the degraded makespan stays below
        // what the untreated straggler would have cost (8× its budget).
        assert!(
            ft.recovery.degraded_seconds < 8.0 * ft.recovery.fault_free_seconds,
            "{:?}",
            ft.recovery
        );
    }

    #[test]
    fn ft_allreduce_timeouts_are_charged() {
        let fx = ft_fixture();
        let ranks = 2;
        // Timeout stream with a high rate: some call index in 0..20 draws a
        // timeout deterministically.
        let plan = FaultPlan::seeded(
            11,
            ranks,
            &mako_accel::fault::FaultConfig {
                allreduce_timeout_rate: 0.5,
                ..mako_accel::fault::FaultConfig::default()
            },
        );
        let cluster = DistributedScf {
            plan: plan.clone(),
            cluster: Some(ClusterSpec::azure_nd_a100_v4()),
        };
        let mut saw_retry = false;
        for call in 0..20 {
            let ft = build_on(&fx, &cluster, call);
            assert!(ft.recovery.fault_free_seconds > 0.0, "comm must be priced");
            if ft.recovery.allreduce_retries > 0 {
                saw_retry = true;
                assert!(
                    ft.recovery.degraded_seconds
                        > ft.recovery.fault_free_seconds + 0.9 * plan.allreduce_timeout_seconds(),
                    "timeout stall not charged: {:?}",
                    ft.recovery
                );
            }
        }
        assert!(saw_retry, "50% timeout rate never fired in 20 calls");
    }

    #[test]
    fn ft_rejects_bad_configurations() {
        let (d, pairs, batches, layout, schedule, cfg, model) = ft_fixture();
        let err = build_jk_distributed(
            &d,
            &pairs,
            &batches,
            &layout,
            &schedule,
            |_| (cfg, cfg),
            &model,
            FockEngineOptions::default(),
            &DistributedScf::new(0),
            0,
        )
        .expect_err("zero ranks must be rejected");
        assert_eq!(err, crate::error::FockBuildError::NoRanks);
    }

    #[test]
    fn efficiency_is_one_for_single_rank() {
        let costs = vec![0.01; 128];
        let curve = scaling_curve(&costs, 1000, 0.05, &[1], &ClusterSpec::azure_nd_a100_v4());
        assert!((curve[0].efficiency - 1.0).abs() < 1e-12);
    }
}
