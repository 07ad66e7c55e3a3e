//! `mako-server` — fault-contained multi-tenant SCF job runtime.
//!
//! The rest of the workspace turns one SCF problem into a deterministic
//! trajectory on a simulated accelerator. This crate turns *many* problems
//! from *many* tenants into a served workload on a pool of such devices,
//! without giving up a single bit of that determinism:
//!
//! * **Admission control** ([`admission`]) — per-tenant in-flight quotas,
//!   queue-depth caps, and a three-state load-shedding machine
//!   (`Normal → Degraded → Shedding`) that degrades batch work to a shorter
//!   preemption quantum before it rejects anything, and never sheds the
//!   interactive tier.
//! * **Checkpoint-backed preemption** ([`server`]) — batch jobs run in
//!   iteration-bounded quanta, persist an [`mako_scf::ScfCheckpoint`] at
//!   each boundary, and yield the worker; the resumed trajectory is bitwise
//!   identical to the uninterrupted one, so scheduling policy can never
//!   change chemistry.
//! * **Deadlines, timeouts, retries** — every job carries an optional
//!   deadline; straggling attempts are killed at a configurable bar; faulted
//!   attempts retry from the last acknowledged checkpoint under capped
//!   exponential backoff. Every failure mode is a typed
//!   [`JobOutcome`] / [`JobError`] — the serving layer never panics on a
//!   tenant's job.
//! * **Cross-request caches** ([`cache`]) — screening-pair artifacts are
//!   promoted across requests (size-bounded, LRU, eviction counter) and
//!   tuned kernels memoized, amortizing cold-start wall time without
//!   touching results.
//! * **Chaos harness** ([`chaos`]) — seeded worker deaths, checkpoint-write
//!   failures, straggler slowdowns, and poisoned Fock builds, with the
//!   pinned invariant that every *completed* job's energy is bitwise
//!   identical to a quiet solo run of the same spec.
//!
//! The scheduler itself is a discrete-event simulation on a virtual clock
//! (simulated device seconds), so an entire multi-tenant, fault-riddled
//! serve is exactly reproducible from `(specs, config, chaos seed)` — the
//! serving-layer extension of the paper's determinism story.
//!
//! ```
//! use mako_server::{JobSpec, MakoServer, PriorityClass, ServerChaos, ServerConfig};
//!
//! let server = MakoServer::new(ServerConfig::default());
//! let jobs = vec![
//!     JobSpec::new("alice", PriorityClass::Interactive, mako_chem::builders::water()),
//!     JobSpec::new("bob", PriorityClass::Batch, mako_chem::builders::methane()),
//! ];
//! // A worker dies mid-run; the affected job retries from its checkpoint.
//! let chaos = ServerChaos::quiet(2).kill_worker(1, 0.5);
//! let report = server.serve(&jobs, &chaos);
//! assert_eq!(report.ledger.completed, 2);
//! ```
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod job;
pub mod journal;
pub mod persist;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionState};
pub use cache::{ArtifactKey, ScreenCache};
pub use chaos::{ServerChaos, DEATH_HORIZON};
pub use job::{JobError, JobId, JobOutcome, JobReport, JobSpec, PriorityClass, RejectReason};
pub use journal::{workload_hash, Journal, JournalRecord};
pub use server::{MakoServer, ServeLedger, ServeReport, ServerConfig};
