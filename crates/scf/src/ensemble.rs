//! Lockstep ensemble SCF: N independent molecules sharing one device.
//!
//! High-throughput workloads (conformer screens, perturbed-geometry sweeps,
//! training-data generation) run *fleets* of small SCF jobs, and one
//! molecule's sub-batches are too small to amortize kernel-launch latency —
//! exactly the overhead the paper's batched execution model exists to hide.
//! The [`EnsembleDriver`] runs its members in lockstep super-iterations and
//! fuses same-shape work across molecules into shared launches:
//!
//! * **Tuning is shared.** All members are built through one
//!   [`KernelCache`], so each `(EriClass, Precision)` pair is tuned once for
//!   the fleet instead of once per molecule. `tune_class` is deterministic,
//!   so a shared-cache driver is configured identically to a solo one — only
//!   the tuning wall time is amortized.
//! * **Launches are fused, pricing only.** Each super-iteration plans every
//!   live member's Fock build (phases 0–1 of the engine), then groups the
//!   resulting sub-batches across members by `(EriClass, PipelineConfig)` —
//!   the launch-identity key — and prices each group as ONE batched launch
//!   ([`fused_batch_device_seconds`]). The fused cost is apportioned back to
//!   member clocks pro-rata by quartet count. Nothing numeric crosses
//!   molecules: schedules, group quantization scales, densities, DIIS and
//!   rescue state are all per-member, so every member's trajectory is
//!   **bitwise identical** to its solo run — only its device clock (the
//!   thing the fusion improves) differs.
//! * **Members are isolated.** Each member steps its own
//!   [`ScfSession`](crate::scf): a diverging or non-finite member escalates
//!   through its own rescue ladder or drains out with its own error, without
//!   perturbing or stalling its neighbors. Finished molecules leave the
//!   lockstep; the fleet keeps going until every member is drained.
//! * **Faults hit the fleet, not the members.** The fleet's [`FaultPlan`]
//!   ([`EnsembleConfig::plan`], one quiet rank by default) names the
//!   simulated ranks of the fused-launch dispatch (round-robin) and injects
//!   transient launch failures and rank loss into it. Recovery
//!   (retry with backoff, re-running a dead rank's launches on survivors) is
//!   priced on the ensemble's [`EnsembleLedger`]; member results stay
//!   fault-silent and bitwise identical to a fault-free batched run.
//!
//! Trace spans: `ensemble.run` (fleet), `ensemble.iteration` (per
//! super-iteration), `ensemble.launch` (per fused launch, with its
//! cross-molecule composition), `ensemble.member` (per member per
//! super-iteration).

use crate::error::ScfError;
use crate::fock::{plan_jk, FockPlan, TENSOR_STORE_BYTES};
use crate::scf::{PreparedIteration, ScfConfig, ScfDriver, ScfResult, ScfRunOptions, ScfSession};
use mako_accel::fault::{FaultPlan, RecoveryLedger};
use mako_accel::EnsembleLedger;
use mako_chem::{BasisSet, Molecule};
use mako_compiler::KernelCache;
use mako_eri::batch::EriClass;
use mako_kernels::pipeline::{fused_batch_device_seconds, PipelineConfig};

/// One fused cross-molecule launch: the launch-identity key plus the
/// `(staged index, sub-unit index)` coordinates of every member sub-batch
/// it covers.
type LaunchGroup = ((EriClass, PipelineConfig), Vec<(usize, usize)>);

/// Fleet-level knobs of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// The simulated ranks the fused launches are dispatched over
    /// (round-robin) and what goes wrong on them: faults are injected into
    /// the fused-launch dispatch and accounted on the ensemble ledger;
    /// member numerics never see them. The rank count is the plan's.
    pub plan: FaultPlan,
}

impl Default for EnsembleConfig {
    /// One quiet rank: a trivially serial dispatch.
    fn default() -> EnsembleConfig {
        EnsembleConfig {
            plan: FaultPlan::quiet(1),
        }
    }
}

/// The outcome of an ensemble run: one result per member, in input order,
/// plus the fleet ledger.
#[derive(Debug)]
pub struct EnsembleResult {
    /// Per-member outcomes, index-aligned with the input molecules. A
    /// member that failed (non-finite without rescue, diagonalization
    /// breakdown) carries its own error; its neighbors are unaffected.
    pub members: Vec<Result<ScfResult, ScfError>>,
    /// Fleet accounting: fused-vs-solo launch pricing and the recovery
    /// machinery's work.
    pub ledger: EnsembleLedger,
}

impl EnsembleResult {
    /// True when every member converged.
    pub fn all_converged(&self) -> bool {
        self.members
            .iter()
            .all(|m| m.as_ref().is_ok_and(|r| r.converged))
    }

    /// Total ERI device seconds actually charged across member clocks
    /// (the fused pricing, apportioned).
    pub fn total_member_device_seconds(&self) -> f64 {
        self.members
            .iter()
            .filter_map(|m| m.as_ref().ok())
            .map(|r| r.total_seconds)
            .sum()
    }
}

/// Runs N independent molecules in lockstep with cross-molecule launch
/// fusion. See the module docs for the execution and isolation model.
pub struct EnsembleDriver {
    drivers: Vec<ScfDriver>,
    config: EnsembleConfig,
    cache_tunes: usize,
    cache_hits: usize,
}

impl EnsembleDriver {
    /// Build drivers for every molecule through one shared [`KernelCache`].
    ///
    /// All members share `basis` and `config`. Per-member distributed
    /// execution is disabled (`config.distributed` is stripped): the
    /// ensemble owns the rank model — fused launches are dispatched over
    /// the ranks of [`EnsembleConfig::plan`] — and the two layers must not
    /// double-price the same work.
    pub fn try_new(
        mols: &[Molecule],
        basis: &BasisSet,
        config: ScfConfig,
        ensemble: EnsembleConfig,
    ) -> Result<EnsembleDriver, ScfError> {
        assert!(ensemble.plan.ranks() >= 1, "an ensemble needs at least one rank");
        let mut config = config;
        config.distributed = None;
        let cache = KernelCache::new();
        let drivers = mols
            .iter()
            .map(|mol| ScfDriver::try_new_with_cache(mol, basis, config.clone(), &cache))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EnsembleDriver {
            drivers,
            config: ensemble,
            cache_tunes: cache.tunes_performed(),
            cache_hits: cache.hits(),
        })
    }

    /// Tuner sweeps the shared cache actually performed (fleet-wide, not
    /// per molecule).
    pub fn cache_tunes(&self) -> usize {
        self.cache_tunes
    }

    /// Tuner sweeps avoided because a member requested an already-cached
    /// kernel — the amortization the shared cache exists for. Every hit is
    /// a sweep a solo run would have paid.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Run every member to completion in lockstep. Never fails as a whole:
    /// per-member failures drain into [`EnsembleResult::members`].
    pub fn run(&self) -> EnsembleResult {
        self.run_with_store_budget(TENSOR_STORE_BYTES)
    }

    /// [`EnsembleDriver::run`] with the fleet's tensor-store byte budget
    /// given; every member gets an equal share.
    fn run_with_store_budget(&self, store_budget_bytes: usize) -> EnsembleResult {
        let n = self.drivers.len();
        let fault_plan = &self.config.plan;
        let ranks = fault_plan.ranks();
        let mut run_span = mako_trace::span("ensemble", "run");
        if run_span.is_recording() {
            run_span.add_field("members", n);
            run_span.add_field("ranks", ranks);
        }

        let mut outcomes: Vec<Option<Result<ScfResult, ScfError>>> =
            (0..n).map(|_| None).collect();
        let mut sessions: Vec<Option<ScfSession<'_>>> = Vec::with_capacity(n);
        let share = store_budget_bytes / n.max(1);
        for (m, drv) in self.drivers.iter().enumerate() {
            match ScfSession::with_store_budget(drv, ScfRunOptions::default(), share) {
                Ok(s) => sessions.push(Some(s)),
                Err(e) => {
                    outcomes[m] = Some(Err(e));
                    sessions.push(None);
                }
            }
        }

        // Rank loss is persistent: a rank that dies stays dead for the rest
        // of the run (unlike the per-call model of `build_jk_distributed`,
        // the ensemble run IS the lifetime of the simulated job).
        let mut alive = vec![true; ranks];
        // Global fused-launch counter: the coordinate of the fault plan's
        // per-(rank, launch, attempt) transient stream, so a plan replays
        // bit-for-bit regardless of how launches group into super-iterations.
        let mut launch_counter = 0usize;

        let mut ledger = EnsembleLedger::default();

        loop {
            // Drain members whose trajectory is over (converged or hit the
            // iteration cap) out of the lockstep.
            for m in 0..n {
                if sessions[m].as_ref().is_some_and(|s| !s.active()) {
                    let s = sessions[m].take().expect("checked is_some");
                    outcomes[m] = Some(Ok(s.finish()));
                }
            }
            if sessions.iter().all(Option::is_none) {
                break;
            }

            let mut iter_span = mako_trace::span("ensemble", "iteration");

            // ---- Stage: per-member trajectory decisions + build plans. ----
            // `prepare` commits every schedule/rebuild decision per member;
            // `plan_jk` runs phases 0–1 (screen + split); `freeze_scales`
            // locks the per-molecule group quantization scales. After this
            // point execution can only change pricing, never numerics.
            let mut staged: Vec<(usize, PreparedIteration, FockPlan)> = Vec::new();
            for (m, slot) in sessions.iter_mut().enumerate() {
                let Some(sess) = slot.as_mut() else { continue };
                let prep = sess.prepare();
                let drv = &self.drivers[m];
                let mut plan = plan_jk(
                    &prep.build_density,
                    &drv.pairs,
                    &drv.batches,
                    0..drv.batches.len(),
                    &prep.schedule,
                    |bi| (drv.fp64_cfgs[bi], drv.quant_cfgs[bi]),
                    &drv.layout,
                    prep.opts,
                );
                plan.freeze_scales(&drv.pairs, &drv.batches);
                staged.push((m, prep, plan));
            }
            if iter_span.is_recording() {
                iter_span.add_field("super_iter", ledger.super_iterations);
                iter_span.add_field("live_members", staged.len());
            }

            // ---- Stage: cross-molecule launch fusion (pricing only). ----
            // Group sub-batches by their launch identity in first-occurrence
            // order (deterministic; the population of keys is tiny — classes
            // × precisions — so a linear scan beats hashing).
            let mut groups: Vec<LaunchGroup> = Vec::new();
            for (si, (_, _, plan)) in staged.iter().enumerate() {
                for (ui, u) in plan.units.iter().enumerate() {
                    let key = (u.class, u.cfg);
                    match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, members)) => members.push((si, ui)),
                        None => groups.push((key, vec![(si, ui)])),
                    }
                }
            }

            let model = &self.drivers[staged[0].0].model;
            let mut member_share = vec![0.0f64; staged.len()];
            let mut launch_costs: Vec<f64> = Vec::with_capacity(groups.len());
            for ((class, cfg), members) in &groups {
                let counts: Vec<usize> = members
                    .iter()
                    .map(|&(si, ui)| staged[si].2.units[ui].positions.len())
                    .collect();
                let (fused, solo) = fused_batch_device_seconds(class, &counts, cfg, model);
                let total: usize = counts.iter().sum();
                for (&(si, _), &c) in members.iter().zip(&counts) {
                    member_share[si] += fused * (c as f64 / total as f64);
                }
                ledger.fused_launches += 1;
                ledger.solo_launches += counts.len();
                ledger.fused_device_seconds += fused;
                ledger.solo_device_seconds += solo;
                launch_costs.push(fused);
                if mako_trace::enabled() {
                    mako_trace::instant(
                        "ensemble",
                        "launch",
                        vec![
                            mako_trace::field("class", class.label()),
                            mako_trace::field("precision", format!("{:?}", cfg.precision)),
                            mako_trace::field("members", counts.len()),
                            mako_trace::field("quartets", total),
                            mako_trace::field("device_seconds", fused),
                            mako_trace::field("solo_seconds", solo),
                        ],
                    );
                }
            }

            // ---- Stage: fault timeline of the fused dispatch. ----
            // Round-robin over surviving ranks (the plan guarantees one),
            // then the shared walk: in-place transient retries, persistent
            // rank loss, the dead rank's launches re-run on the least-loaded
            // survivor. Accounting only — the assembly stage below computes
            // the launches' results regardless of the timeline.
            let survivors: Vec<usize> = (0..ranks).filter(|&r| alive[r]).collect();
            let mut shares: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ranks];
            for (i, &cost) in launch_costs.iter().enumerate() {
                shares[survivors[i % survivors.len()]].push((launch_counter + i, cost));
            }
            launch_counter += launch_costs.len();
            fault_plan.walk(&shares, &mut alive, None, &mut ledger.recovery);

            // ---- Stage: per-member assembly + trajectory advance. ----
            // Strict member order; each session's advance is exactly the
            // solo loop body, so the member trajectory is bitwise identical
            // to its one-at-a-time run.
            for ((m, prep, mut plan), share) in staged.into_iter().zip(member_share) {
                plan.set_device_seconds(share);
                let drv = &self.drivers[m];
                let sess = sessions[m].as_mut().expect("staged implies live");
                let jk = plan.assemble(
                    &prep.build_density,
                    &drv.pairs,
                    &drv.batches,
                    &drv.layout,
                    Some(sess.tensors_mut()),
                );
                match sess.advance(prep, jk, plan.stats, RecoveryLedger::default()) {
                    Ok(()) => {
                        if mako_trace::enabled() {
                            mako_trace::instant(
                                "ensemble",
                                "member",
                                vec![
                                    mako_trace::field("member", m),
                                    mako_trace::field("iter", sess.iteration()),
                                    mako_trace::field("energy", sess.energy()),
                                    mako_trace::field("residual", sess.residual()),
                                    mako_trace::field("active", sess.active()),
                                ],
                            );
                        }
                    }
                    Err(e) => {
                        // Failure containment: the member drains with its
                        // own error; the lockstep carries on.
                        if mako_trace::enabled() {
                            mako_trace::instant(
                                "ensemble",
                                "member",
                                vec![
                                    mako_trace::field("member", m),
                                    mako_trace::field("error", e.to_string()),
                                    mako_trace::field("active", false),
                                ],
                            );
                        }
                        outcomes[m] = Some(Err(e));
                        sessions[m] = None;
                    }
                }
            }

            iter_span.end();
            ledger.super_iterations += 1;
        }

        if run_span.is_recording() {
            run_span.add_field("super_iterations", ledger.super_iterations);
            run_span.add_field("fused_launches", ledger.fused_launches);
            run_span.add_field("solo_launches", ledger.solo_launches);
            run_span.add_field("fused_device_seconds", ledger.fused_device_seconds);
            run_span.add_field("solo_device_seconds", ledger.solo_device_seconds);
            run_span.add_field("ranks_lost", ledger.recovery.ranks_lost);
        }
        run_span.end();

        EnsembleResult {
            members: outcomes
                .into_iter()
                .map(|o| o.expect("every member drained"))
                .collect(),
            ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::TensorStore;
    use mako_chem::basis::sto3g::sto3g;
    use mako_chem::builders;

    #[test]
    fn members_sharing_one_members_store_budget_match_their_solo_runs_bitwise() {
        let mols: Vec<Molecule> = (0..12)
            .map(|seed| builders::perturbed_water_cluster(2, seed, 0.05))
            .collect();
        let ensemble =
            EnsembleDriver::try_new(&mols, &sto3g(), ScfConfig::default(), EnsembleConfig::default())
                .expect("ensemble");
        // What one member would need to hold every tensor: each member gets
        // a twelfth of it, so every store cuts off mid-way.
        let budget = TensorStore::new(&ensemble.drivers[0].batches, usize::MAX, false).capacity_bytes();
        let run = ensemble.run_with_store_budget(budget);
        for (mol, member) in mols.iter().zip(&run.members) {
            let member = member.as_ref().expect("member run");
            let solo = ScfDriver::new(mol, &sto3g(), ScfConfig::default())
                .run()
                .expect("solo run");
            assert!(0 < member.tensor_store_bytes && member.tensor_store_bytes <= budget / 12);
            assert!(member.tensor_store_bytes < solo.tensor_store_bytes);
            assert_eq!(member.energy.to_bits(), solo.energy.to_bits());
            assert_eq!(member.iterations, solo.iterations);
            assert_eq!(member.orbital_energies, solo.orbital_energies);
            assert!(member
                .density
                .as_slice()
                .iter()
                .zip(solo.density.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
