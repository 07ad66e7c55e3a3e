//! The chaos harness: seeded fault injection for the serving layer.
//!
//! [`ServerChaos`] wraps an [`mako_accel::fault::FaultPlan`], whose seeded
//! deaths and straggler slowdowns it applies to workers, and adds:
//!
//! * **targeted worker death** — a chosen worker permanently dies after a
//!   chosen number of scheduling quanta, every worker included; the attempt
//!   it was running is voided and retried elsewhere from the job's last
//!   resume point;
//! * **poisoned Fock builds** — one iteration of a chosen job produces a
//!   non-finite Fock matrix (via `ScfRunOptions::poison_fock`), exercising
//!   the typed `ScfError::NonFinite` containment path.
//!
//! Every decision is a pure function of the seed and the targeted faults,
//! so a chaos run is exactly reproducible — which is what lets the chaos
//! invariant ("every completed job's energy is bitwise identical to a quiet
//! solo run") be a hard assertion rather than a statistical claim.

use mako_accel::fault::{FaultConfig, FaultPlan};
use std::collections::BTreeMap;

use crate::job::JobId;

/// How many scheduling quanta the death-point lottery spans: a worker the
/// plan marks as dying does so within its first `DEATH_HORIZON` quanta.
pub(crate) const DEATH_HORIZON: usize = 16;

/// Seeded fault schedule for one [`serve`] call.
///
/// [`serve`]: crate::MakoServer::serve
#[derive(Debug, Clone)]
pub struct ServerChaos {
    plan: FaultPlan,
    /// Jobs whose Fock build is poisoned, and at which absolute iteration.
    poison: BTreeMap<JobId, usize>,
    /// Targeted worker kills (worker → death quantum), layered over the
    /// plan's seeded deaths. Unlike `FaultPlan`, the server is allowed to
    /// lose *every* worker — total loss is a failure mode the runtime must
    /// contain, so the harness must be able to express it.
    deaths: BTreeMap<usize, usize>,
}

impl ServerChaos {
    /// No faults at all.
    pub fn quiet(workers: usize) -> ServerChaos {
        ServerChaos {
            plan: FaultPlan::quiet(workers),
            poison: BTreeMap::new(),
            deaths: BTreeMap::new(),
        }
    }

    /// A seeded chaotic schedule: worker deaths and stragglers from
    /// [`FaultConfig::chaotic`].
    pub fn seeded(seed: u64, workers: usize) -> ServerChaos {
        ServerChaos {
            plan: FaultPlan::seeded(seed, workers, &FaultConfig::chaotic()),
            poison: BTreeMap::new(),
            deaths: BTreeMap::new(),
        }
    }

    /// Deterministically kill one worker partway through its schedule
    /// (`fraction` of the death horizon, in `[0, 1]`). Unlike the
    /// device-level plan, killing every worker is allowed — total loss is a
    /// containment path the runtime pins.
    pub fn kill_worker(mut self, worker: usize, fraction: f64) -> ServerChaos {
        let q = ((fraction.clamp(0.0, 1.0) * DEATH_HORIZON as f64) as usize).min(DEATH_HORIZON - 1);
        self.deaths.insert(worker, q);
        self
    }

    /// Make one worker a straggler (`slowdown` ≥ 1 multiplies its virtual
    /// execution time, which is how attempts come to overrun the straggler
    /// bar).
    pub fn slow_worker(mut self, worker: usize, slowdown: f64) -> ServerChaos {
        self.plan = self.plan.slow_rank(worker, slowdown);
        self
    }

    /// Poison the Fock build of job `job` at absolute SCF iteration
    /// `iteration` (first attempt only — the retry runs clean, which is the
    /// transient-corruption model).
    pub fn with_poison(mut self, job: JobId, iteration: usize) -> ServerChaos {
        self.poison.insert(job, iteration);
        self
    }

    /// Workers the schedule covers.
    pub(crate) fn workers(&self) -> usize {
        self.plan.ranks()
    }

    /// Whether this schedule injects no faults.
    pub fn is_quiet(&self) -> bool {
        !self.plan.lossy()
            && self.deaths.is_empty()
            && self.poison.is_empty()
            && (0..self.plan.ranks()).all(|w| self.plan.slowdown(w) == 1.0)
    }

    /// The quantum (0-based, counted per worker) during which `worker`
    /// dies, or `None` if it survives the run.
    pub(crate) fn death_quantum(&self, worker: usize) -> Option<usize> {
        self.deaths
            .get(&worker)
            .copied()
            .or_else(|| self.plan.death_point(worker, DEATH_HORIZON))
    }

    /// Straggler slowdown multiplier for `worker` (1.0 = healthy).
    pub(crate) fn slowdown(&self, worker: usize) -> f64 {
        self.plan.slowdown(worker)
    }

    /// The absolute iteration at which `job`'s Fock build is poisoned, if
    /// any.
    pub(crate) fn poison_for(&self, job: JobId) -> Option<usize> {
        self.poison.get(&job).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_schedule_is_quiet() {
        let c = ServerChaos::quiet(4);
        assert!(c.is_quiet());
        for w in 0..4 {
            assert_eq!(c.death_quantum(w), None);
            assert_eq!(c.slowdown(w), 1.0);
        }
    }

    #[test]
    fn targeted_faults_land_where_aimed() {
        let c = ServerChaos::quiet(3)
            .kill_worker(1, 0.5)
            .slow_worker(2, 4.0)
            .with_poison(7, 3);
        assert!(!c.is_quiet());
        assert_eq!(c.death_quantum(0), None);
        assert_eq!(c.death_quantum(1), Some(DEATH_HORIZON / 2));
        assert_eq!(c.slowdown(2), 4.0);
        assert_eq!(c.poison_for(7), Some(3));
        assert_eq!(c.poison_for(8), None);
    }
}
