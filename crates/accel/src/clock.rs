//! Per-iteration device-clock ledger.
//!
//! The simulated `device_seconds` is part of the numerical output of every
//! experiment (see DESIGN.md §7 "Two clocks"), and with the incremental
//! (ΔD) SCF engine the *amount of work priced* changes from iteration to
//! iteration: quartets skipped by the difference-density Schwarz screen are
//! removed from their sub-batches **before** the cost model prices the
//! batched launches, so they never reach the device clock — smaller
//! sub-batches also amortize launch overhead differently, which the pricing
//! reflects honestly rather than charging `full_cost × fraction`.
//!
//! [`DeviceClock`] records that trajectory: one [`IterationLedger`] per SCF
//! iteration with the simulated seconds actually charged and the
//! evaluated / skipped / pruned quartet populations, so the benchmark's
//! `scf.quartets_*` metrics can report quartets per iteration alongside the
//! clock, and tests can assert the two stay consistent (no seconds charged
//! for skipped work).

/// What one SCF iteration cost on the simulated device, and how much quartet
/// work it actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationLedger {
    /// Simulated device seconds of the ERI/Fock stage (the part the
    /// incremental screen shrinks).
    pub eri_seconds: f64,
    /// Total simulated device seconds of the iteration (ERI + XC +
    /// diagonalization).
    pub total_seconds: f64,
    /// Quartets evaluated (FP64 + quantized pipelines).
    pub evaluated_quartets: usize,
    /// Quartets skipped by the incremental ΔD Schwarz screen — never priced
    /// on the device clock.
    pub skipped_quartets: usize,
    /// Quartets pruned by the convergence-aware scheduler.
    pub pruned_quartets: usize,
    /// Accumulated analytic bound on the Fock perturbation of everything
    /// skipped this iteration (the drift the rebuild policy caps).
    pub skipped_bound: f64,
    /// Whether this iteration was a full rebuild (ΔD = D, fresh
    /// accumulators).
    pub rebuild: bool,
}

/// The device-clock ledger of a whole SCF run: one entry per iteration,
/// appended in order. Fault-tolerant runs also record one
/// [`RecoveryLedger`](crate::fault::RecoveryLedger) per iteration with the
/// retries / steals / re-runs the recovery machinery performed and their
/// simulated-seconds cost.
#[derive(Debug, Clone, Default)]
pub struct DeviceClock {
    iterations: Vec<IterationLedger>,
    recoveries: Vec<crate::fault::RecoveryLedger>,
}

impl DeviceClock {
    /// Fresh, empty clock.
    pub fn new() -> DeviceClock {
        DeviceClock::default()
    }

    /// Append one completed iteration.
    pub fn push(&mut self, ledger: IterationLedger) {
        if mako_trace::enabled() {
            mako_trace::instant(
                "clock",
                "iteration",
                vec![
                    mako_trace::field("iter", self.iterations.len()),
                    mako_trace::field("eri_seconds", ledger.eri_seconds),
                    mako_trace::field("total_seconds", ledger.total_seconds),
                    mako_trace::field("evaluated_quartets", ledger.evaluated_quartets),
                    mako_trace::field("skipped_quartets", ledger.skipped_quartets),
                    mako_trace::field("pruned_quartets", ledger.pruned_quartets),
                    mako_trace::field("rebuild", ledger.rebuild),
                ],
            );
        }
        self.iterations.push(ledger);
    }

    /// Append the recovery ledger of one completed iteration (fault-tolerant
    /// runs push one per iteration, quiet iterations push a default ledger so
    /// indices line up with [`Self::iterations`]).
    pub fn push_recovery(&mut self, ledger: crate::fault::RecoveryLedger) {
        if mako_trace::enabled() {
            mako_trace::instant(
                "clock",
                "recovery",
                vec![
                    mako_trace::field("iter", self.recoveries.len()),
                    mako_trace::field("transient_retries", ledger.transient_retries),
                    mako_trace::field("straggler_ranks", ledger.straggler_ranks),
                    mako_trace::field("stolen_batches", ledger.stolen_batches),
                    mako_trace::field("rerun_batches", ledger.rerun_batches),
                    mako_trace::field("ranks_lost", ledger.ranks_lost),
                    mako_trace::field("allreduce_retries", ledger.allreduce_retries),
                    mako_trace::field("backoff_seconds", ledger.backoff_seconds),
                    mako_trace::field("degraded_seconds", ledger.degraded_seconds),
                ],
            );
        }
        self.recoveries.push(ledger);
    }

    /// All iterations, in execution order.
    pub fn iterations(&self) -> &[IterationLedger] {
        &self.iterations
    }

    /// Per-iteration recovery ledgers (empty for runs that never went
    /// through the fault-tolerant driver).
    pub fn recoveries(&self) -> &[crate::fault::RecoveryLedger] {
        &self.recoveries
    }

    /// Roll-up of all per-iteration recovery ledgers.
    pub fn total_recovery(&self) -> crate::fault::RecoveryLedger {
        let mut total = crate::fault::RecoveryLedger::default();
        for r in &self.recoveries {
            total.absorb(r);
        }
        total
    }

    /// Total simulated device seconds across all iterations.
    pub fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|l| l.total_seconds).sum()
    }

    /// Total quartets evaluated across all iterations.
    pub fn total_evaluated(&self) -> usize {
        self.iterations.iter().map(|l| l.evaluated_quartets).sum()
    }

    /// Total quartets the ΔD screen skipped across all iterations.
    pub fn total_skipped(&self) -> usize {
        self.iterations.iter().map(|l| l.skipped_quartets).sum()
    }
}

/// Fleet-level accounting of an ensemble (lockstep multi-molecule) run.
///
/// Cross-molecule launch fusion changes *pricing only*: each member keeps
/// its own [`DeviceClock`] trajectory, while the ensemble driver records
/// here what the fusion saved — per super-iteration launch counts and the
/// fused-vs-solo device seconds — plus the shared
/// [`RecoveryLedger`](crate::RecoveryLedger) of the
/// ensemble's fault-tolerant dispatch (faults hit *launches*, which belong
/// to the fleet, so their accounting lives at the fleet level too; member
/// results stay fault-silent by design).
#[derive(Debug, Clone, Default)]
pub struct EnsembleLedger {
    /// Lockstep super-iterations executed (max member iteration count).
    pub super_iterations: usize,
    /// Fused cross-molecule launches actually priced.
    pub fused_launches: usize,
    /// Launches the same work would have cost one-molecule-at-a-time.
    pub solo_launches: usize,
    /// ERI device seconds as priced through the fused launches.
    pub fused_device_seconds: f64,
    /// ERI device seconds the same sub-batches would have been priced at
    /// with per-molecule launches.
    pub solo_device_seconds: f64,
    /// Roll-up of the recovery machinery's work across the whole run.
    pub recovery: crate::fault::RecoveryLedger,
}

impl EnsembleLedger {
    /// Device seconds saved by fusing launches across molecules.
    pub fn fusion_savings_seconds(&self) -> f64 {
        self.solo_device_seconds - self.fused_device_seconds
    }

    /// Launches avoided by the fusion.
    pub fn launches_avoided(&self) -> usize {
        self.solo_launches.saturating_sub(self.fused_launches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(evaluated: usize, rebuild: bool) -> IterationLedger {
        IterationLedger {
            eri_seconds: 1e-3,
            total_seconds: 2e-3,
            evaluated_quartets: evaluated,
            skipped_quartets: 10,
            pruned_quartets: 1,
            skipped_bound: 1e-12,
            rebuild,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut c = DeviceClock::new();
        c.push(ledger(100, true));
        c.push(ledger(60, false));
        c.push(ledger(30, false));
        assert_eq!(c.iterations().len(), 3);
        assert_eq!(c.total_evaluated(), 190);
        assert_eq!(c.total_skipped(), 30);
        assert!((c.total_seconds() - 6e-3).abs() < 1e-15);
    }
}
