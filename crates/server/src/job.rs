//! The job model: what tenants submit and the typed outcome taxonomy they
//! get back.
//!
//! Every anomaly a job can hit — quota rejection, load shedding, worker
//! death, straggler timeout, a poisoned Fock build, a blown deadline — is a
//! value of [`JobOutcome`], never a panic and never a silent wrong number.
//! That is the serving-layer extension of the library contract in
//! `mako_scf::error`.

use mako_chem::{BasisFamily, Molecule};
use mako_scf::{ScfConfig, ScfError};

/// Job identifier: the submission index within one [`serve`] call.
///
/// [`serve`]: crate::MakoServer::serve
pub(crate) type JobId = usize;

/// Scheduling tier of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityClass {
    /// Latency-sensitive tier: never load-shed, never preempted, and
    /// guaranteed to start within one preemption quantum of a worker
    /// becoming schedulable (the no-starvation contract).
    Interactive,
    /// Throughput tier: runs in checkpoint-preemptible quanta and yields to
    /// interactive work at iteration boundaries.
    Batch,
    /// Scavenger tier: first to be shed under pressure.
    BestEffort,
}

impl PriorityClass {
    /// Stable lowercase label (trace fields, bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Batch => "batch",
            PriorityClass::BestEffort => "best_effort",
        }
    }

    /// Dispatch rank: lower runs first.
    pub(crate) fn rank(self) -> u8 {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Batch => 1,
            PriorityClass::BestEffort => 2,
        }
    }
}

/// One tenant request: a molecule, a basis, an SCF configuration, and the
/// scheduling envelope (class, arrival time, deadline).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant the job is billed to (quota key).
    pub tenant: String,
    /// Scheduling tier.
    pub class: PriorityClass,
    /// The molecule to solve.
    pub molecule: Molecule,
    /// Basis family (instantiated per job on the molecule's elements).
    pub basis: BasisFamily,
    /// SCF configuration. `distributed` is ignored — placement belongs to
    /// the server, not the tenant.
    pub config: ScfConfig,
    /// Arrival time on the virtual clock (simulated device seconds).
    pub submit_at: f64,
    /// Completion deadline, virtual seconds after `submit_at`; `None` means
    /// no deadline. Checked whenever the job would (re)enter the queue.
    pub deadline: Option<f64>,
}

impl JobSpec {
    /// A job with the default STO-3G RHF configuration, arriving at t = 0.
    pub fn new(tenant: &str, class: PriorityClass, molecule: Molecule) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            class,
            molecule,
            basis: BasisFamily::Sto3g,
            config: ScfConfig::default(),
            submit_at: 0.0,
            deadline: None,
        }
    }

    /// Set the arrival time (virtual seconds).
    pub fn at(mut self, submit_at: f64) -> JobSpec {
        self.submit_at = submit_at;
        self
    }

    /// Set a completion deadline (virtual seconds after arrival).
    pub fn with_deadline(mut self, deadline: f64) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }
}

/// Why admission control turned a job away.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The tenant already has its quota of jobs in flight.
    TenantQuotaExceeded {
        /// The offending tenant.
        tenant: String,
        /// Its in-flight limit.
        limit: usize,
    },
    /// The ready queue is at its hard cap; only interactive work is
    /// admitted.
    QueueFull {
        /// Waiting jobs at admission time.
        depth: usize,
        /// The hard cap that was hit.
        cap: usize,
    },
    /// Load shedding: the server is degraded and this class is below the
    /// shedding bar.
    LoadShed {
        /// Class of the rejected job.
        class: PriorityClass,
    },
}

impl RejectReason {
    /// Stable lowercase label (trace fields, bench JSON).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            RejectReason::TenantQuotaExceeded { .. } => "tenant_quota",
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::LoadShed { .. } => "load_shed",
        }
    }
}

/// Why a job's attempt (or the whole job) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The SCF stack reported a typed error ([`ScfError`] re-used verbatim).
    Scf(ScfError),
    /// The worker executing the attempt died mid-quantum.
    WorkerLost {
        /// Which worker died.
        worker: usize,
    },
    /// Every worker died; queued work has nowhere to run.
    AllWorkersLost,
    /// The attempt overran the straggler bar and was killed by the runtime.
    AttemptTimeout {
        /// The per-attempt limit, virtual seconds.
        limit_seconds: f64,
    },
    /// The serve was cut short by a storage-layer crash (injected or real):
    /// the job had no terminal outcome when the process died. Recovery
    /// replays the journal and finishes the job; this outcome only survives
    /// in the aborted report itself.
    Crashed,
    /// A terminal failure replayed from the write-ahead journal after a
    /// crash. The original typed error was journaled as its display string;
    /// the job is *not* re-run (its failure was already final).
    Replayed {
        /// Display form of the original error.
        description: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Scf(e) => write!(f, "scf error: {e}"),
            JobError::WorkerLost { worker } => write!(f, "worker {worker} died mid-quantum"),
            JobError::AllWorkersLost => write!(f, "all workers lost"),
            JobError::AttemptTimeout { limit_seconds } => {
                write!(f, "attempt exceeded the {limit_seconds} s straggler bar")
            }
            JobError::Crashed => {
                write!(f, "serve aborted by a storage crash before the job resolved")
            }
            JobError::Replayed { description } => {
                write!(f, "replayed from journal: {description}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Everything a completed job reports back.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Converged (or budget-exhausted) total energy, Hartree — bitwise
    /// identical to a quiet solo [`mako_scf::ScfDriver`] run of the same
    /// spec, whatever faults the job survived (the chaos invariant).
    pub energy: f64,
    /// Whether the SCF converged.
    pub converged: bool,
    /// SCF iterations executed (replayed iterations not double-counted).
    pub iterations: usize,
    /// Virtual device seconds charged to the job, including voided
    /// (faulted) attempts.
    pub device_seconds: f64,
    /// Arrival time (virtual clock).
    pub submitted_at: f64,
    /// First dispatch time (virtual clock).
    pub started_at: f64,
    /// Completion time (virtual clock).
    pub finished_at: f64,
    /// Faulted attempts that were retried.
    pub retries: u32,
    /// Times the job was preempted at a quantum boundary for
    /// higher-priority work.
    pub preemptions: usize,
    /// Scheduling quanta the job ran (including voided attempts).
    pub quanta: usize,
}

/// Terminal outcome of one submitted job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed(JobReport),
    /// Admission control turned the job away before it ran.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// The job failed after exhausting its retry budget (or on a
    /// non-retryable error).
    Failed {
        /// The final error.
        error: JobError,
        /// Retries consumed before giving up.
        retries: u32,
    },
    /// The deadline passed while work remained.
    DeadlineExceeded {
        /// The deadline, virtual seconds after arrival.
        deadline_seconds: f64,
        /// SCF iterations completed before the deadline fired.
        completed_iterations: usize,
        /// Retries consumed.
        retries: u32,
    },
}

impl JobOutcome {
    /// Stable lowercase label (trace fields, bench JSON).
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::Rejected { .. } => "rejected",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// The completed report, if any.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The completed energy, if any.
    pub fn energy(&self) -> Option<f64> {
        self.report().map(|r| r.energy)
    }
}
