//! The job runtime: a deterministic discrete-event scheduler over a pool of
//! simulated device workers.
//!
//! # Execution model
//!
//! [`MakoServer::serve`] runs one closed workload — a list of [`JobSpec`]s
//! with virtual arrival times — to completion on a **virtual clock**
//! denominated in simulated device seconds (the same currency as
//! [`mako_scf::ScfResult::total_seconds`]). Scheduling is a discrete-event
//! simulation: the only events are job arrivals, attempt completions, and
//! retry-backoff expiries, processed in deterministic order (ties break
//! arrivals-first, then by worker index, then by job id). Given the same
//! specs, config, and chaos schedule, `serve` is bit-for-bit reproducible —
//! including every scheduling decision — regardless of host thread count.
//!
//! # Preemption
//!
//! Batch and best-effort jobs run in **checkpoint-backed quanta**: each
//! dispatch executes at most `quantum_iterations` SCF iterations (the
//! degraded quantum under load) and requeues. The quantum ends with its
//! state in memory: the SCF kill at the boundary hands back the
//! [`ScfCheckpoint`] the job resumes from. The same checkpoint is also
//! written to disk at the boundary (and every few iterations in between),
//! but only for crash salvage: [`MakoServer::recover`] and a faulted
//! attempt read it, a yield never does. Interactive jobs run to
//! completion. Because a preempted job resumes from its checkpoint
//! bitwise-identically, preemption is invisible in the numbers — it only
//! moves time.
//!
//! # Fault containment
//!
//! Worker deaths, straggler timeouts, checkpoint-write failures, and
//! poisoned Fock builds (all injected by [`ServerChaos`]) void the attempt
//! they strike: the job's in-memory resume state is untouched, the fault is
//! recorded as a typed [`JobError`], and the job retries under capped
//! exponential backoff from the last acknowledged checkpoint. A fault never
//! panics and never leaks into another job's numbers — the chaos invariant
//! (completed energy bitwise equal to a quiet solo run) holds because a
//! voided attempt contributes nothing but virtual time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mako_chem::Element;
use mako_accel::fault::backoff_seconds;
use mako_accel::DeviceClock;
use mako_compiler::KernelCache;
use mako_scf::{
    CheckpointError, CheckpointPolicy, ScfCheckpoint, ScfDriver, ScfError, ScfResult,
    ScfRunOptions,
};
use mako_store::{ArtifactStore, RealVfs, Vfs, VfsError};

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::cache::{ArtifactKey, ScreenCache};
use crate::chaos::ServerChaos;
use crate::job::{JobError, JobId, JobOutcome, JobReport, JobSpec, PriorityClass};
use crate::journal::{workload_hash, Journal, JournalRecord};

/// The shorter quantum, SCF iterations per dispatch, batch jobs get when
/// admitted under pressure.
const DEGRADED_QUANTUM_ITERATIONS: usize = 2;
/// Iterations between the salvage checkpoints of a running job. A quantum
/// boundary saves whatever this is (the kill saves, though the yield itself
/// reads nothing back), so this only bounds what a crash mid-quantum, or
/// mid-run for an interactive job, loses.
const CHECKPOINT_EVERY: usize = 4;
/// Faulted attempts retried before a job fails.
const MAX_RETRIES: u32 = 3;
/// Screening-pair cache bound, entries.
const SCREEN_CACHE_ENTRIES: usize = 64;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated device workers.
    pub workers: usize,
    /// Batch preemption quantum, SCF iterations per dispatch.
    pub quantum_iterations: usize,
    /// Straggler bar: attempts running longer than this (virtual seconds)
    /// are killed and retried. `INFINITY` disables the bar.
    pub attempt_timeout: f64,
    /// Directory for the salvage checkpoints of a server without a store
    /// (a store-backed server writes them under its store root instead).
    pub checkpoint_dir: PathBuf,
    /// Admission control knobs.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            quantum_iterations: 4,
            attempt_timeout: f64::INFINITY,
            checkpoint_dir: std::env::temp_dir().join("mako-server"),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Aggregate accounting of one [`serve`] call.
///
/// [`serve`]: MakoServer::serve
#[derive(Debug, Clone, Default)]
pub struct ServeLedger {
    /// Jobs past admission control.
    pub admitted: usize,
    /// Jobs turned away at admission.
    pub rejected: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs that failed (typed, after retries).
    pub failed: usize,
    /// Jobs that blew their deadline.
    pub deadline_exceeded: usize,
    /// Faulted attempts that were retried.
    pub retries: u32,
    /// Quantum-boundary yields to higher-priority work.
    pub preemptions: usize,
    /// Scheduling quanta dispatched (including voided attempts).
    pub quanta: usize,
    /// Workers permanently lost.
    pub worker_deaths: usize,
    /// Simulated checkpoint-write failures.
    pub ckpt_write_faults: usize,
    /// Attempts killed at the straggler bar.
    pub timeouts: usize,
    /// Admission state-machine transitions.
    pub state_transitions: usize,
}

/// Everything one [`serve`] call returns.
///
/// [`serve`]: MakoServer::serve
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Terminal outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate accounting.
    pub ledger: ServeLedger,
    /// Virtual clock when the last event fired (makespan).
    pub makespan: f64,
    /// The serve was cut short by a storage crash (injected or real).
    /// Unresolved jobs carry [`JobError::Crashed`]; call
    /// [`MakoServer::recover`] to finish the run from the journal.
    pub crashed: bool,
}

/// The durable-store context of a server opened with
/// [`MakoServer::with_store`]: the [`Vfs`] every byte goes through, the
/// root directory, and the persistent artifact cache.
pub(crate) struct StoreCtx {
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) root: PathBuf,
    pub(crate) artifacts: ArtifactStore,
}

/// The multi-tenant job server. Owns the cross-request caches; each
/// [`serve`](MakoServer::serve) call is an independent deterministic
/// simulation that shares them.
pub struct MakoServer {
    config: ServerConfig,
    kernels: KernelCache,
    screens: ScreenCache,
    store: Option<StoreCtx>,
}

impl Default for MakoServer {
    fn default() -> MakoServer {
        MakoServer::new(ServerConfig::default())
    }
}

impl MakoServer {
    /// A server with the given configuration and empty caches.
    pub fn new(config: ServerConfig) -> MakoServer {
        let screens = ScreenCache::with_capacity(SCREEN_CACHE_ENTRIES);
        MakoServer {
            config,
            kernels: KernelCache::new(),
            screens,
            store: None,
        }
    }

    /// A server whose checkpoints, write-ahead journal, and artifact cache
    /// all live under `root` on `vfs`. This is what makes a serve
    /// *recoverable*: every scheduling decision is journaled before it
    /// takes effect, so a crash at any write leaves a durable prefix
    /// [`MakoServer::recover`] can finish the run from.
    pub fn with_store(
        config: ServerConfig,
        vfs: Arc<dyn Vfs>,
        root: PathBuf,
    ) -> Result<MakoServer, VfsError> {
        vfs.create_dir_all(&root)?;
        let artifacts = ArtifactStore::open(vfs.clone(), root.join("artifacts"))?;
        Ok(MakoServer {
            store: Some(StoreCtx {
                vfs,
                root,
                artifacts,
            }),
            ..MakoServer::new(config)
        })
    }

    /// The persistent artifact cache, when the server was opened
    /// [`with_store`](MakoServer::with_store).
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref().map(|c| &c.artifacts)
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The cross-request kernel cache.
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    /// The cross-request screening-pair cache.
    pub fn screen_cache(&self) -> &ScreenCache {
        &self.screens
    }

    /// Run one job spec directly, outside the scheduler, with no faults —
    /// the reference the chaos invariant compares against. Uses the shared
    /// caches (which only amortize wall time, never change results).
    pub fn run_solo(&self, spec: &JobSpec) -> Result<ScfResult, ScfError> {
        let driver = self.build_driver(spec)?;
        driver.run_with(ScfRunOptions::default())
    }

    /// Serve a closed workload with no injected faults.
    pub fn serve_quiet(&self, specs: &[JobSpec]) -> ServeReport {
        self.serve(specs, &ServerChaos::quiet(self.config.workers))
    }

    /// Serve a closed workload under a chaos schedule. Deterministic: the
    /// same `(specs, config, chaos)` triple reproduces every scheduling
    /// decision and every number bit-for-bit.
    pub fn serve(&self, specs: &[JobSpec], chaos: &ServerChaos) -> ServeReport {
        let mut run_span = mako_trace::span("server", "run");
        if run_span.is_recording() {
            run_span.add_field("jobs", specs.len());
            run_span.add_field("workers", self.config.workers);
        }
        let mut sim = Sim::new(self, chaos, specs);
        if let Some(ctx) = self.store.as_ref() {
            // A fresh serve owns the journal: forget any previous run's.
            let wal = ctx.root.join("serve.wal");
            let _ = ctx.vfs.remove(&wal);
            sim.journal = Some(Journal::new(ctx.vfs.clone(), wal));
            sim.jappend(&JournalRecord::ServeBegin {
                jobs: specs.len() as u64,
                workload: workload_hash(specs),
            });
        }
        sim.run();
        let report = sim.into_report();
        if run_span.is_recording() {
            run_span.add_field("completed", report.ledger.completed);
            run_span.add_field("makespan", report.makespan);
        }
        report
    }

    /// Finish a crashed serve from its write-ahead journal.
    ///
    /// Call after a [`serve`](MakoServer::serve) on a
    /// [`with_store`](MakoServer::with_store) server was cut short (storage
    /// crash, process death). Replays the durable journal prefix, re-seats
    /// every decision it records — admissions stand, rejected jobs stay
    /// rejected, terminal outcomes are reconstructed **bitwise** without
    /// re-running an iteration — salvages per-job checkpoints where they
    /// validate (quarantining the ones that don't), and re-runs only the
    /// work the crash actually lost. Completed energies are bitwise
    /// identical to a quiet uninterrupted run; virtual timing restarts
    /// (the clock died with the process).
    ///
    /// `specs` must be the same workload the crashed serve ran
    /// (`workload_hash` is checked against the journal's `ServeBegin`).
    pub fn recover(&self, specs: &[JobSpec], chaos: &ServerChaos) -> Result<ServeReport, VfsError> {
        let ctx = self.store.as_ref().ok_or_else(|| {
            VfsError::Io("recover requires a server opened with_store".to_string())
        })?;
        ctx.vfs.recover_crash();
        let journal = Journal::new(ctx.vfs.clone(), ctx.root.join("serve.wal"));
        let mut replay_span = mako_trace::span("recover", "replay");
        let (records, tail) = journal.replay_and_repair()?;

        let mut generation = 1u32;
        let mut seed_admitted: Vec<Option<bool>> = vec![None; specs.len()];
        let mut seed_outcomes: Vec<Option<JobOutcome>> = vec![None; specs.len()];
        for rec in &records {
            match rec {
                JournalRecord::ServeBegin { jobs, workload } => {
                    if *jobs as usize != specs.len() || *workload != workload_hash(specs) {
                        return Err(VfsError::Io(
                            "journal does not match the resubmitted workload".to_string(),
                        ));
                    }
                }
                JournalRecord::RecoveryMark { generation: g } => generation = g + 1,
                JournalRecord::Admitted { job, degraded } => {
                    if let Some(slot) = seed_admitted.get_mut(*job as usize) {
                        *slot = Some(*degraded);
                    }
                }
                rec => {
                    if let Some(jid) = rec.job() {
                        let jid = jid as usize;
                        if jid < specs.len() {
                            if let Some(outcome) = rec.outcome(&specs[jid]) {
                                seed_outcomes[jid] = Some(outcome);
                            }
                        }
                    }
                }
            }
        }
        if replay_span.is_recording() {
            replay_span.add_field("records", records.len());
            replay_span.add_field(
                "tail",
                match tail {
                    mako_store::Tail::Clean => "clean",
                    mako_store::Tail::Torn => "torn",
                    mako_store::Tail::Corrupt => "corrupt",
                },
            );
            replay_span.add_field("generation", generation);
        }
        drop(replay_span);

        let mut sim = Sim::new(self, chaos, specs);
        sim.journal = Some(journal);
        sim.jappend(&JournalRecord::RecoveryMark { generation });

        // Re-seat journaled terminal outcomes: these jobs are done and never
        // re-enter the queue.
        for id in 0..specs.len() {
            let Some(outcome) = seed_outcomes[id].take() else {
                continue;
            };
            match &outcome {
                JobOutcome::Completed(_) => sim.ledger.completed += 1,
                JobOutcome::Failed { .. } => sim.ledger.failed += 1,
                JobOutcome::DeadlineExceeded { .. } => sim.ledger.deadline_exceeded += 1,
                JobOutcome::Rejected { .. } => sim.ledger.rejected += 1,
            }
            if seed_admitted[id].is_some() {
                sim.ledger.admitted += 1;
            }
            sim.outcomes[id] = Some(outcome);
        }
        sim.arrivals.retain(|&id| sim.outcomes[id].is_none());
        sim.seed_admitted = seed_admitted;

        // Salvage on-disk checkpoints for admitted-but-unfinished jobs: a
        // valid one shrinks the replay; a corrupt or mismatched one is
        // quarantined and the job recomputes from scratch — never consumed.
        let mut salvaged = 0usize;
        for (id, spec) in specs.iter().enumerate() {
            if sim.outcomes[id].is_some() || sim.seed_admitted[id].is_none() {
                continue;
            }
            let path = sim.jobs[id].ckpt_path.clone();
            if !ctx.vfs.exists(&path) {
                continue;
            }
            let Ok(driver) = self.build_driver(spec) else {
                continue;
            };
            // The driver is the job's whatever its checkpoint says.
            sim.jobs[id].driver = Some(driver);
            match sim.load_valid_ckpt(id, 0) {
                Some(ckpt) => {
                    mako_trace::instant(
                        "recover",
                        "salvage",
                        vec![
                            mako_trace::field("job", id),
                            mako_trace::field("next_iteration", ckpt.next_iteration),
                        ],
                    );
                    sim.jobs[id].resume = Some(ckpt);
                    salvaged += 1;
                }
                None => {
                    let mut name = path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    name.push_str(".quarantine");
                    let qpath = path.with_file_name(name);
                    if ctx.vfs.rename(&path, &qpath).is_err() {
                        let _ = ctx.vfs.remove(&path);
                    }
                    mako_trace::instant(
                        "store",
                        "quarantine",
                        vec![
                            mako_trace::field("kind", "checkpoint"),
                            mako_trace::field("fault", "invalid"),
                        ],
                    );
                }
            }
        }
        mako_trace::instant(
            "recover",
            "serve",
            vec![
                mako_trace::field("generation", generation),
                mako_trace::field("resolved", sim.outcomes.iter().filter(|o| o.is_some()).count()),
                mako_trace::field("salvaged", salvaged),
            ],
        );
        sim.run();
        Ok(sim.into_report())
    }

    fn build_driver(&self, spec: &JobSpec) -> Result<ScfDriver, ScfError> {
        let mut elements: Vec<Element> = Vec::new();
        for atom in &spec.molecule.atoms {
            if !elements.contains(&atom.element) {
                elements.push(atom.element);
            }
        }
        let basis = spec.basis.basis_for(&elements);
        let mut config = spec.config.clone();
        // Placement belongs to the server, not the tenant.
        config.distributed = None;
        let key = ArtifactKey::for_job(spec);
        let mut pairs = self.screens.get(&key);
        let memory_hit = pairs.is_some();
        let mut disk_hit = false;
        if pairs.is_none() {
            // Memory miss: consult the persistent artifact cache. A corrupt
            // or undecodable entry is quarantined and recomputed below —
            // never consumed.
            if let Some(ctx) = self.store.as_ref() {
                let hash = key.content_hash();
                if let Ok(Some(bytes)) = ctx.artifacts.load("screen", hash) {
                    match crate::persist::decode_pairs(&bytes) {
                        Some(decoded) => {
                            disk_hit = true;
                            pairs = Some(decoded);
                        }
                        None => {
                            let _ = ctx.artifacts.quarantine_undecodable("screen", hash);
                        }
                    }
                }
            }
        }
        let driver =
            ScfDriver::try_new_with_artifacts(&spec.molecule, &basis, config, &self.kernels, pairs)?;
        if !memory_hit {
            if !disk_hit {
                if let Some(ctx) = self.store.as_ref() {
                    let _ = ctx.artifacts.store(
                        "screen",
                        key.content_hash(),
                        &crate::persist::encode_pairs(driver.screened_pairs()),
                    );
                }
            }
            self.screens.insert(key, driver.screened_pairs().to_vec());
        }
        Ok(driver)
    }
}

/// Per-job mutable scheduling state.
struct JobState {
    spec: JobSpec,
    driver: Option<ScfDriver>,
    /// Last acknowledged checkpoint — the in-memory source of truth a
    /// voided attempt falls back to.
    resume: Option<Box<ScfCheckpoint>>,
    ckpt_path: PathBuf,
    retries: u32,
    preemptions: usize,
    quanta: usize,
    device_seconds: f64,
    started_at: Option<f64>,
    /// Chaos poison fires on the first attempt only (transient corruption).
    poison_spent: bool,
    /// Admitted under pressure: runs the short quantum.
    degraded: bool,
}

impl JobState {
    fn completed_iterations(&self) -> usize {
        self.resume.as_ref().map(|c| c.next_iteration).unwrap_or(0)
    }

    fn deadline_at(&self) -> f64 {
        match self.spec.deadline {
            Some(d) => self.spec.submit_at + d,
            None => f64::INFINITY,
        }
    }
}

/// What an attempt resolved to (decided eagerly at dispatch; applied when
/// the virtual clock reaches the worker's `free_at`).
enum AttemptEnd {
    /// The job ran to its SCF terminus (converged or budget-exhausted).
    Done(Box<ScfResult>),
    /// Quantum boundary: adopt the checkpoint the kill carried and requeue.
    Yield(Box<ScfCheckpoint>),
    /// The attempt was voided or errored; maybe salvage partial progress.
    Fault {
        error: JobError,
        salvage: Option<Box<ScfCheckpoint>>,
    },
}

struct Pending {
    job: JobId,
    end: AttemptEnd,
    /// The chaos schedule kills this worker when the attempt resolves.
    kills_worker: bool,
}

struct Worker {
    free_at: f64,
    dead: bool,
    pending: Option<Pending>,
    /// Quanta dispatched on this worker (the death-schedule index).
    quanta_run: usize,
    /// Checkpoint-adoption draws consumed (the ckpt-fault stream index).
    saves: u64,
}

struct ReadyEntry {
    job: JobId,
    rank: u8,
    ready_at: f64,
}

struct Sim<'a> {
    server: &'a MakoServer,
    chaos: &'a ServerChaos,
    jobs: Vec<JobState>,
    /// Submission order indices sorted by (submit_at, id); `next_arrival`
    /// walks it.
    arrivals: Vec<JobId>,
    next_arrival: usize,
    workers: Vec<Worker>,
    ready: Vec<ReadyEntry>,
    outcomes: Vec<Option<JobOutcome>>,
    adm: AdmissionController,
    ledger: ServeLedger,
    clock: f64,
    /// Where every checkpoint byte goes: the store's backend, or the real
    /// filesystem under `checkpoint_dir` for a server without a store.
    vfs: Arc<dyn Vfs>,
    /// The write-ahead journal (store-backed serves only).
    journal: Option<Journal>,
    /// A storage crash fired: the simulated process is dead. The run loop
    /// exits at the next crash check and unresolved jobs report
    /// [`JobError::Crashed`].
    aborted: bool,
    /// Journaling hit a non-crash write fault. Appending past a torn frame
    /// would leave committed records *after* garbage, breaking replay's
    /// prefix semantics — so journaling stops entirely (the serve itself
    /// continues; it just loses recoverability from this point).
    journal_dead: bool,
    /// Per-job admission replayed from the journal by recovery:
    /// `Some(degraded)` means the gauntlet already ran and was billed.
    seed_admitted: Vec<Option<bool>>,
}

impl<'a> Sim<'a> {
    fn new(server: &'a MakoServer, chaos: &'a ServerChaos, specs: &[JobSpec]) -> Sim<'a> {
        // Store-backed serves use stable names so recovery can find (and
        // salvage) the files; a server without a store writes under
        // `checkpoint_dir` with names that stay collision-proof across
        // processes.
        let (vfs, dir, prefix): (Arc<dyn Vfs>, _, _) = match &server.store {
            Some(ctx) => (ctx.vfs.clone(), ctx.root.clone(), String::new()),
            None => {
                // Process-wide, not per server: two servers in one process
                // share `checkpoint_dir`, and a serve adopts (and deletes)
                // any checkpoint at its job's path whose fingerprint matches.
                static SERVE_SEQ: AtomicUsize = AtomicUsize::new(0);
                let seq = SERVE_SEQ.fetch_add(1, Ordering::Relaxed);
                let dir = server.config.checkpoint_dir.clone();
                let _ = RealVfs.create_dir_all(&dir);
                let prefix = format!("serve{}-{seq}-", std::process::id());
                (Arc::new(RealVfs), dir, prefix)
            }
        };
        let jobs: Vec<JobState> = specs
            .iter()
            .enumerate()
            .map(|(id, spec)| JobState {
                spec: spec.clone(),
                driver: None,
                resume: None,
                ckpt_path: dir.join(format!("{prefix}job{id}.ckpt")),
                retries: 0,
                preemptions: 0,
                quanta: 0,
                device_seconds: 0.0,
                started_at: None,
                poison_spent: false,
                degraded: false,
            })
            .collect();
        let mut arrivals: Vec<JobId> = (0..jobs.len()).collect();
        arrivals.sort_by(|&a, &b| {
            jobs[a]
                .spec
                .submit_at
                .total_cmp(&jobs[b].spec.submit_at)
                .then(a.cmp(&b))
        });
        let workers = (0..server.config.workers)
            .map(|_| Worker {
                free_at: 0.0,
                dead: false,
                pending: None,
                quanta_run: 0,
                saves: 0,
            })
            .collect();
        Sim {
            server,
            chaos,
            outcomes: vec![None; jobs.len()],
            seed_admitted: vec![None; jobs.len()],
            jobs,
            arrivals,
            next_arrival: 0,
            workers,
            ready: Vec::new(),
            adm: AdmissionController::new(server.config.admission.clone()),
            ledger: ServeLedger::default(),
            clock: 0.0,
            vfs,
            journal: None,
            aborted: false,
            journal_dead: false,
        }
    }

    /// Durably append one journal record (no-op without a journal). A
    /// [`VfsError::Crashed`] means the simulated process just died: mark
    /// the serve aborted. Any other fault permanently stops journaling —
    /// see [`Sim::journal_dead`].
    fn jappend(&mut self, rec: &JournalRecord) {
        if self.aborted || self.journal_dead {
            return;
        }
        let Some(journal) = &self.journal else {
            return;
        };
        match journal.append(rec) {
            Ok(()) => {}
            Err(VfsError::Crashed) => {
                self.aborted = true;
                self.journal_dead = true;
            }
            Err(_) => {
                self.journal_dead = true;
            }
        }
    }

    /// Whether the storage layer has crashed (checked between events: the
    /// crash kills the simulated process wherever the write landed).
    fn crash_check(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        self.aborted = self.vfs.crashed();
        self.aborted
    }

    fn run(&mut self) {
        loop {
            self.dispatch_ready();
            if self.crash_check() {
                return;
            }
            let Some(t) = self.next_event_time() else {
                break;
            };
            self.clock = self.clock.max(t);
            // Arrivals first on time ties, then completions in worker order.
            while self.next_arrival < self.arrivals.len()
                && self.jobs[self.arrivals[self.next_arrival]].spec.submit_at <= self.clock
            {
                let id = self.arrivals[self.next_arrival];
                self.next_arrival += 1;
                self.arrive(id);
            }
            if self.crash_check() {
                return;
            }
            for w in 0..self.workers.len() {
                if self.workers[w].pending.is_some() && self.workers[w].free_at <= self.clock {
                    self.complete(w);
                    if self.crash_check() {
                        return;
                    }
                }
            }
            if self.workers.iter().all(|w| w.dead) {
                self.drain_all_workers_lost();
                break;
            }
        }
        // Anything still queued when events ran out has nowhere to run.
        self.drain_all_workers_lost();
    }

    /// The next instant something happens, or `None` when the run is over.
    fn next_event_time(&self) -> Option<f64> {
        let mut t: Option<f64> = None;
        let mut fold = |cand: f64| {
            t = Some(match t {
                Some(cur) => cur.min(cand),
                None => cand,
            });
        };
        if let Some(&id) = self.arrivals.get(self.next_arrival) {
            fold(self.jobs[id].spec.submit_at);
        }
        for w in &self.workers {
            if w.pending.is_some() {
                fold(w.free_at);
            }
        }
        // A backoff expiry only matters if a worker could pick the job up.
        if self
            .workers
            .iter()
            .any(|w| !w.dead && w.pending.is_none())
        {
            for e in &self.ready {
                if e.ready_at > self.clock {
                    fold(e.ready_at);
                }
            }
        }
        t
    }

    fn arrive(&mut self, id: JobId) {
        let spec = &self.jobs[id].spec;
        mako_trace::instant(
            "job",
            "submit",
            vec![
                mako_trace::field("job", id),
                mako_trace::field("tenant", spec.tenant.clone()),
                mako_trace::field("class", spec.class.label()),
            ],
        );
        if let Some(degraded) = self.seed_admitted[id] {
            // Admission replayed from the journal: the decision was made,
            // logged, and billed before the crash. Re-seat it — re-running
            // the gauntlet against recovery's (different-looking) queue
            // could reject a job the tenant was already promised.
            self.ledger.admitted += 1;
            let tenant = self.jobs[id].spec.tenant.clone();
            self.adm.occupy(&tenant);
            mako_trace::instant(
                "server",
                "admission",
                vec![
                    mako_trace::field("job", id),
                    mako_trace::field("decision", "replayed"),
                    mako_trace::field("state", self.adm.state().label()),
                ],
            );
            self.jobs[id].degraded = degraded;
            let rank = self.jobs[id].spec.class.rank();
            self.ready.push(ReadyEntry {
                job: id,
                rank,
                ready_at: self.clock,
            });
            return;
        }
        let depth = self.ready.len();
        if let Some(prev) = self.adm.evaluate(depth) {
            self.ledger.state_transitions += 1;
            mako_trace::instant(
                "server",
                "state",
                vec![
                    mako_trace::field("from", prev.label()),
                    mako_trace::field("to", self.adm.state().label()),
                    mako_trace::field("depth", depth),
                ],
            );
        }
        match self.adm.admit(spec, depth) {
            Ok(ticket) => {
                // Write-ahead: the admission is durable before the job can
                // enter the queue (recovery must not re-run the gauntlet).
                self.jappend(&JournalRecord::Admitted {
                    job: id as u64,
                    degraded: ticket.degraded,
                });
                self.ledger.admitted += 1;
                mako_trace::instant(
                    "server",
                    "admission",
                    vec![
                        mako_trace::field("job", id),
                        mako_trace::field("decision", "admitted"),
                        mako_trace::field("state", self.adm.state().label()),
                    ],
                );
                self.jobs[id].degraded = ticket.degraded;
                let rank = self.jobs[id].spec.class.rank();
                self.ready.push(ReadyEntry {
                    job: id,
                    rank,
                    ready_at: self.clock,
                });
            }
            Err(reason) => {
                self.ledger.rejected += 1;
                mako_trace::instant(
                    "server",
                    "admission",
                    vec![
                        mako_trace::field("job", id),
                        mako_trace::field("decision", reason.label()),
                        mako_trace::field("state", self.adm.state().label()),
                    ],
                );
                self.finish(id, JobOutcome::Rejected { reason }, false);
            }
        }
    }

    /// Fill every idle worker with the best dispatchable job.
    fn dispatch_ready(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].dead || self.workers[w].pending.is_some() {
                continue;
            }
            while let Some(pos) = self.pop_best_ready() {
                let id = self.ready.remove(pos).job;
                if self.clock > self.jobs[id].deadline_at() {
                    self.finish_past_deadline(id);
                    continue;
                }
                if self.dispatch(w, id) {
                    break;
                }
                // Driver construction failed terminally; try the next job.
            }
        }
    }

    /// Index into `ready` of the best dispatchable entry: lowest
    /// (class rank, job id) among those whose backoff has expired.
    fn pop_best_ready(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.ready.iter().enumerate() {
            if e.ready_at > self.clock {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    let (br, bj) = (self.ready[b].rank, self.ready[b].job);
                    if (e.rank, e.job) < (br, bj) {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// Dispatch one quantum of `id` on worker `w`. Returns false when the
    /// job reached a terminal outcome instead of occupying the worker.
    fn dispatch(&mut self, w: usize, id: JobId) -> bool {
        if self.jobs[id].driver.is_none() {
            match self.server.build_driver(&self.jobs[id].spec) {
                Ok(d) => self.jobs[id].driver = Some(d),
                Err(e) => {
                    let retries = self.jobs[id].retries;
                    self.finish(
                        id,
                        JobOutcome::Failed {
                            error: JobError::Scf(e),
                            retries,
                        },
                        true,
                    );
                    return false;
                }
            }
        }
        if self.jobs[id].started_at.is_none() {
            self.jobs[id].started_at = Some(self.clock);
            mako_trace::instant(
                "job",
                "start",
                vec![mako_trace::field("job", id), mako_trace::field("worker", w)],
            );
        }
        let dies = self.worker_death_quantum(w) == Some(self.workers[w].quanta_run);
        let start_iter = self.jobs[id].completed_iterations();
        let quantum = self.quantum_len(id);
        mako_trace::instant(
            "server",
            "quantum",
            vec![
                mako_trace::field("job", id),
                mako_trace::field("worker", w),
                mako_trace::field("start_iteration", start_iter),
                mako_trace::field("iterations", quantum.unwrap_or(0)),
            ],
        );
        let (raw, dt_raw) = self.run_quantum(w, id, start_iter, quantum);
        self.jobs[id].quanta += 1;
        self.workers[w].quanta_run += 1;
        self.ledger.quanta += 1;

        let slowdown = self.worker_slowdown(w);
        let dt_slow = dt_raw * slowdown;
        let cfg = &self.server.config;
        let (end, dt_observed) = if dies {
            // The worker dies mid-quantum; the attempt is voided whatever
            // it computed.
            (
                AttemptEnd::Fault {
                    error: JobError::WorkerLost { worker: w },
                    salvage: None,
                },
                0.5 * dt_slow,
            )
        } else if dt_slow > cfg.attempt_timeout {
            (
                AttemptEnd::Fault {
                    error: JobError::AttemptTimeout {
                        limit_seconds: cfg.attempt_timeout,
                    },
                    salvage: None,
                },
                cfg.attempt_timeout,
            )
        } else {
            (raw, dt_slow)
        };
        self.jobs[id].device_seconds += dt_observed;
        self.workers[w].free_at = self.clock + dt_observed;
        self.workers[w].pending = Some(Pending {
            job: id,
            end,
            kills_worker: dies,
        });
        true
    }

    /// Execute one quantum eagerly and interpret the SCF outcome. Returns
    /// the raw attempt end (before death/timeout precedence) and the
    /// quantum's unslowed virtual duration.
    fn run_quantum(
        &mut self,
        w: usize,
        id: JobId,
        start_iter: usize,
        quantum: Option<usize>,
    ) -> (AttemptEnd, f64) {
        let job = &self.jobs[id];
        let poison = if job.poison_spent {
            None
        } else {
            self.chaos.poison_for(id)
        };
        let opts = ScfRunOptions {
            checkpoint: Some(
                CheckpointPolicy::new(CHECKPOINT_EVERY, job.ckpt_path.clone()).via(self.vfs.clone()),
            ),
            resume: job.resume.as_deref().cloned(),
            kill_after: quantum.map(|q| start_iter + q),
            poison_fock: poison,
        };
        let driver = job.driver.as_ref().expect("driver built at dispatch");
        match driver.run_with(opts) {
            Ok(res) => {
                let dt = segment_seconds(&res.clock, start_iter);
                (AttemptEnd::Done(Box::new(res)), dt)
            }
            Err(ScfError::Killed(ckpt)) => {
                // Quantum boundary: yield the state the kill carries, unless
                // the chaos schedule says this quantum's checkpoint write
                // was lost.
                let dt = segment_seconds(&ckpt.state.clock, start_iter);
                let save = self.workers[w].saves;
                self.workers[w].saves += 1;
                if self.chaos.checkpoint_write_fails(w, save) {
                    self.ledger.ckpt_write_faults += 1;
                    self.fault_event(id, w, "ckpt_write");
                    let error = JobError::Scf(ScfError::Checkpoint(CheckpointError::Io(
                        "simulated checkpoint write failure".to_string(),
                    )));
                    return (
                        AttemptEnd::Fault {
                            error,
                            salvage: None,
                        },
                        dt,
                    );
                }
                (AttemptEnd::Yield(ckpt), dt)
            }
            Err(e) => {
                if poison.is_some() && matches!(e, ScfError::NonFinite { .. }) {
                    self.jobs[id].poison_spent = true;
                }
                self.fault_event(id, w, "scf_error");
                // Salvage: iterations the attempt completed before the error
                // are on disk; adopting them is safe (same trajectory
                // prefix) and shrinks the replay.
                let salvage = self.load_valid_ckpt(id, start_iter);
                let dt = salvage
                    .as_ref()
                    .map(|c| segment_seconds(&c.state.clock, start_iter))
                    .unwrap_or(0.0);
                (
                    AttemptEnd::Fault {
                        error: JobError::Scf(e),
                        salvage,
                    },
                    dt,
                )
            }
        }
    }

    /// Load the job's on-disk checkpoint if it exists, fingerprints match
    /// this job's problem, and it is ahead of `start_iter`: the salvage of a
    /// faulted attempt, and of a crashed serve in [`MakoServer::recover`].
    fn load_valid_ckpt(&self, id: JobId, start_iter: usize) -> Option<Box<ScfCheckpoint>> {
        let job = &self.jobs[id];
        let driver = job.driver.as_ref()?;
        let ckpt = ScfCheckpoint::load_via(self.vfs.as_ref(), &job.ckpt_path).ok()?;
        ckpt.validate(
            driver.nao(),
            driver.nbatches(),
            driver.nquartets(),
            driver.problem_fingerprint(),
        )
        .ok()?;
        (ckpt.next_iteration > start_iter).then(|| Box::new(ckpt))
    }

    /// Resolve a worker's pending attempt at its completion instant.
    fn complete(&mut self, w: usize) {
        let Pending {
            job: id,
            end,
            kills_worker,
        } = self.workers[w].pending.take().expect("busy worker");
        if kills_worker {
            self.workers[w].dead = true;
            self.ledger.worker_deaths += 1;
            self.fault_event(id, w, "worker_death");
        }
        match end {
            AttemptEnd::Done(res) => {
                let job = &self.jobs[id];
                let report = JobReport {
                    energy: res.energy,
                    converged: res.converged,
                    iterations: res.iterations,
                    device_seconds: job.device_seconds,
                    submitted_at: job.spec.submit_at,
                    started_at: job.started_at.unwrap_or(job.spec.submit_at),
                    finished_at: self.clock,
                    retries: job.retries,
                    preemptions: job.preemptions,
                    quanta: job.quanta,
                };
                self.finish(id, JobOutcome::Completed(report), true);
            }
            AttemptEnd::Yield(ckpt) => {
                self.jobs[id].resume = Some(ckpt);
                if self.clock > self.jobs[id].deadline_at() {
                    self.finish_past_deadline(id);
                    return;
                }
                let rank = self.jobs[id].spec.class.rank();
                // Count a preemption only when the yield actually cedes the
                // worker to someone more important.
                if self
                    .ready
                    .iter()
                    .any(|e| e.rank < rank && e.ready_at <= self.clock)
                {
                    self.jobs[id].preemptions += 1;
                    self.ledger.preemptions += 1;
                    mako_trace::instant(
                        "server",
                        "preempt",
                        vec![
                            mako_trace::field("job", id),
                            mako_trace::field("class", self.jobs[id].spec.class.label()),
                        ],
                    );
                }
                self.ready.push(ReadyEntry {
                    job: id,
                    rank,
                    ready_at: self.clock,
                });
            }
            AttemptEnd::Fault { error, salvage } => {
                if let Some(ckpt) = salvage {
                    self.jobs[id].resume = Some(ckpt);
                }
                self.retry_or_fail(id, error);
            }
        }
    }

    fn retry_or_fail(&mut self, id: JobId, error: JobError) {
        if matches!(error, JobError::AttemptTimeout { .. }) {
            self.ledger.timeouts += 1;
        }
        let job = &mut self.jobs[id];
        if retryable(&error) && job.retries < MAX_RETRIES {
            job.retries += 1;
            self.ledger.retries += 1;
            let backoff = backoff_seconds(job.retries.saturating_sub(1));
            mako_trace::instant(
                "job",
                "retry",
                vec![
                    mako_trace::field("job", id),
                    mako_trace::field("attempt", job.retries),
                    mako_trace::field("backoff_seconds", backoff),
                    mako_trace::field("error", error.to_string()),
                ],
            );
            let ready_at = self.clock + backoff;
            if ready_at > self.jobs[id].deadline_at() {
                self.finish_past_deadline(id);
                return;
            }
            let rank = self.jobs[id].spec.class.rank();
            self.ready.push(ReadyEntry {
                job: id,
                rank,
                ready_at,
            });
        } else {
            let retries = job.retries;
            self.finish(id, JobOutcome::Failed { error, retries }, true);
        }
    }

    /// End an admitted job that cannot make its deadline.
    fn finish_past_deadline(&mut self, id: JobId) {
        let job = &self.jobs[id];
        let outcome = JobOutcome::DeadlineExceeded {
            deadline_seconds: job.spec.deadline.unwrap_or(0.0),
            completed_iterations: job.completed_iterations(),
            retries: job.retries,
        };
        self.finish(id, outcome, true);
    }

    /// Record a job's terminal outcome; `admitted` releases its tenant slot.
    fn finish(&mut self, id: JobId, outcome: JobOutcome, admitted: bool) {
        // Write-ahead: the outcome is durable before the checkpoint that
        // could reproduce it is deleted.
        if let Some(rec) = JournalRecord::terminal_for(id as u64, &outcome) {
            self.jappend(&rec);
        }
        match &outcome {
            JobOutcome::Completed(_) => self.ledger.completed += 1,
            JobOutcome::Failed { .. } => self.ledger.failed += 1,
            JobOutcome::DeadlineExceeded { .. } => self.ledger.deadline_exceeded += 1,
            JobOutcome::Rejected { .. } => {}
        }
        mako_trace::instant(
            "job",
            "outcome",
            vec![
                mako_trace::field("job", id),
                mako_trace::field("outcome", outcome.label()),
            ],
        );
        if admitted {
            let tenant = self.jobs[id].spec.tenant.clone();
            self.adm.release(&tenant);
        }
        let _ = self.vfs.remove(&self.jobs[id].ckpt_path);
        self.outcomes[id] = Some(outcome);
        // Pairs, batches, tuned configurations, grid and any parked tensor
        // store go with the job, not with the serve.
        self.jobs[id].driver = None;
    }

    /// Fail everything still queued (and any unprocessed arrivals) when no
    /// worker is left alive.
    fn drain_all_workers_lost(&mut self) {
        while let Some(e) = self.ready.pop() {
            let retries = self.jobs[e.job].retries;
            self.finish(
                e.job,
                JobOutcome::Failed {
                    error: JobError::AllWorkersLost,
                    retries,
                },
                true,
            );
        }
        while self.next_arrival < self.arrivals.len() {
            let id = self.arrivals[self.next_arrival];
            self.next_arrival += 1;
            self.finish(
                id,
                JobOutcome::Failed {
                    error: JobError::AllWorkersLost,
                    retries: 0,
                },
                false,
            );
        }
    }

    fn fault_event(&self, id: JobId, w: usize, kind: &'static str) {
        mako_trace::instant(
            "server",
            "fault",
            vec![
                mako_trace::field("job", id),
                mako_trace::field("worker", w),
                mako_trace::field("kind", kind),
            ],
        );
    }

    fn quantum_len(&self, id: JobId) -> Option<usize> {
        match self.jobs[id].spec.class {
            PriorityClass::Interactive => None,
            PriorityClass::Batch | PriorityClass::BestEffort => Some(if self.jobs[id].degraded {
                DEGRADED_QUANTUM_ITERATIONS
            } else {
                self.server.config.quantum_iterations.max(1)
            }),
        }
    }

    fn worker_death_quantum(&self, w: usize) -> Option<usize> {
        (w < self.chaos.workers())
            .then(|| self.chaos.death_quantum(w))
            .flatten()
    }

    fn worker_slowdown(&self, w: usize) -> f64 {
        if w < self.chaos.workers() {
            self.chaos.slowdown(w)
        } else {
            1.0
        }
    }

    fn into_report(mut self) -> ServeReport {
        if !self.aborted {
            self.jappend(&JournalRecord::ServeEnd {
                makespan: self.clock.to_bits(),
            });
        }
        let aborted = self.aborted;
        // Every job must have resolved unless the storage layer crashed —
        // then unresolved jobs died with the process and recovery finishes
        // them. A hole in a quiet run is a scheduler bug, surfaced as a
        // typed failure rather than a panic.
        let outcomes = self
            .outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(JobOutcome::Failed {
                    error: if aborted {
                        JobError::Crashed
                    } else {
                        JobError::AllWorkersLost
                    },
                    retries: 0,
                })
            })
            .collect();
        self.adm.evaluate(self.ready.len());
        ServeReport {
            outcomes,
            ledger: self.ledger,
            makespan: self.clock,
            crashed: aborted,
        }
    }
}

/// Virtual seconds of the trajectory segment starting at `start_iter`
/// (iterations before that belong to earlier attempts).
fn segment_seconds(clock: &DeviceClock, start_iter: usize) -> f64 {
    let ledgers = clock.iterations();
    ledgers[start_iter.min(ledgers.len())..].iter().map(|l| l.total_seconds).sum()
}

/// Whether a fault class is worth retrying. Worker loss, straggler
/// timeouts, checkpoint IO, and non-finite (poisoned) Fock builds are
/// transient; everything else is a property of the problem and retrying
/// cannot fix it.
fn retryable(e: &JobError) -> bool {
    match e {
        JobError::Scf(ScfError::NonFinite { .. }) => true,
        JobError::Scf(ScfError::Checkpoint(_)) => true,
        JobError::Scf(_) => false,
        JobError::WorkerLost { .. } => true,
        JobError::AttemptTimeout { .. } => true,
        JobError::AllWorkersLost => false,
        // A crashed serve is finished by `recover`, not by retrying; a
        // replayed failure already exhausted its retries before the crash.
        JobError::Crashed => false,
        JobError::Replayed { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ServerChaos;
    use crate::job::PriorityClass;
    use mako_chem::builders;

    fn tmp_config() -> ServerConfig {
        ServerConfig {
            checkpoint_dir: std::env::temp_dir().join("mako-server-unit"),
            ..ServerConfig::default()
        }
    }

    fn energy(outcome: &JobOutcome) -> f64 {
        outcome.energy().expect("completed job")
    }

    #[test]
    fn job_retry_delay_is_the_capped_exponential_schedule() {
        // `retry_or_fail` counts retries from 1 and charges the shared
        // rank-retry schedule one step behind: 1 ms, 2 ms, ... capped at
        // 0.25 s. Held bit for bit to the closed form far past the cap.
        for attempt in 1..=60u32 {
            let closed_form = (1e-3 * (1u64 << (attempt - 1).min(52)) as f64).min(0.25);
            assert_eq!(
                backoff_seconds(attempt.saturating_sub(1)).to_bits(),
                closed_form.to_bits(),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn fresh_servers_in_one_process_get_disjoint_checkpoint_paths() {
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let chaos = ServerChaos::quiet(1);
        let (a, b) = (MakoServer::new(tmp_config()), MakoServer::new(tmp_config()));
        let (sim_a, sim_b) = (Sim::new(&a, &chaos, &specs), Sim::new(&b, &chaos, &specs));
        assert_ne!(sim_a.jobs[0].ckpt_path, sim_b.jobs[0].ckpt_path);
    }

    #[test]
    fn quiet_serve_matches_solo_bitwise() {
        let server = MakoServer::new(tmp_config());
        let specs = vec![
            JobSpec::new("a", PriorityClass::Batch, builders::water()),
            JobSpec::new("b", PriorityClass::Interactive, builders::methane()).at(0.0),
        ];
        let report = server.serve_quiet(&specs);
        assert_eq!(report.ledger.completed, 2);
        for (spec, outcome) in specs.iter().zip(&report.outcomes) {
            let solo = server.run_solo(spec).expect("solo run");
            assert_eq!(
                energy(outcome).to_bits(),
                solo.energy.to_bits(),
                "scheduled energy must be bitwise identical to the solo run"
            );
        }
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn batch_yields_to_interactive_within_one_quantum() {
        let server = MakoServer::new(ServerConfig {
            workers: 1,
            ..tmp_config()
        });
        // The batch job arrives first and hogs the only worker; the
        // interactive job lands mid-run and must start within a quantum.
        let specs = vec![
            JobSpec::new("bulk", PriorityClass::Batch, builders::water()),
            JobSpec::new("ui", PriorityClass::Interactive, builders::methane()).at(1e-6),
        ];
        let report = server.serve_quiet(&specs);
        assert_eq!(report.ledger.completed, 2);
        let batch = report.outcomes[0].report().expect("batch completed");
        let ui = report.outcomes[1].report().expect("interactive completed");
        assert!(batch.preemptions >= 1, "batch must have yielded");
        assert!(
            ui.started_at < batch.finished_at,
            "interactive started before the batch job finished"
        );
        // No-starvation bound: the wait is at most one quantum of the
        // running batch job (its first quantum, which began at t = 0).
        let first_quantum_end = report
            .outcomes
            .iter()
            .filter_map(|o| o.report())
            .map(|r| r.started_at)
            .fold(f64::INFINITY, f64::min);
        assert!(ui.started_at - first_quantum_end <= batch.device_seconds);
        // Yielding moves no bit: the batch job resumed across its quanta
        // lands on its solo energy.
        let solo = server.run_solo(&specs[0]).expect("solo");
        assert_eq!(batch.energy.to_bits(), solo.energy.to_bits());
    }

    #[test]
    fn a_finished_job_holds_no_driver() {
        let server = MakoServer::new(ServerConfig {
            workers: 1,
            ..tmp_config()
        });
        let specs = vec![
            JobSpec::new("bulk", PriorityClass::Batch, builders::water()),
            JobSpec::new("ui", PriorityClass::Interactive, builders::methane()).at(1e-6),
        ];
        let chaos = ServerChaos::quiet(1);
        let mut sim = Sim::new(&server, &chaos, &specs);
        sim.run();
        assert!(sim.outcomes.iter().all(Option::is_some), "every job finished");
        assert!(sim.jobs.iter().all(|j| j.driver.is_none()), "a finished job kept its driver");
        let report = sim.into_report();
        assert_eq!(report.ledger.completed, 2);
        assert!(report.ledger.preemptions >= 1, "the batch job must have yielded");
    }

    #[test]
    fn a_degraded_batch_job_yields_on_its_own_boundary_checkpoints() {
        use mako_store::FaultVfs;
        // A soft cap of 0 admits every batch job degraded: quanta of 2
        // iterations, boundaries that are no multiple of the cadence.
        let config = ServerConfig {
            workers: 1,
            admission: AdmissionConfig {
                queue_soft_cap: 0,
                ..AdmissionConfig::default()
            },
            ..tmp_config()
        };
        assert!(!DEGRADED_QUANTUM_ITERATIONS.is_multiple_of(CHECKPOINT_EVERY));
        let server = MakoServer::with_store(
            config,
            Arc::new(FaultVfs::quiet()) as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let report = server.serve_quiet(&specs);
        let rep = report.outcomes[0].report().expect("the degraded job completed");
        let solo = server.run_solo(&specs[0]).expect("solo");
        assert_eq!(rep.retries, 0, "every boundary had its checkpoint");
        assert_eq!(rep.quanta, solo.iterations.div_ceil(DEGRADED_QUANTUM_ITERATIONS));
        assert_eq!(rep.energy.to_bits(), solo.energy.to_bits());
        assert_eq!(rep.iterations, solo.iterations);
        // The serve adds up the solo run's iteration seconds one quantum at
        // a time; a yield from an older checkpoint would count some twice.
        let per_quantum = solo
            .iteration_seconds
            .chunks(DEGRADED_QUANTUM_ITERATIONS)
            .fold(0.0, |t, q| t + q.iter().sum::<f64>());
        assert_eq!(rep.device_seconds.to_bits(), per_quantum.to_bits());
    }

    #[test]
    fn a_store_backed_serve_creates_no_checkpoint_dir() {
        use mako_store::FaultVfs;
        let dir = std::env::temp_dir().join(format!("mako-server-unused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            checkpoint_dir: dir.clone(),
            ..ServerConfig::default()
        };
        let server = MakoServer::with_store(
            config,
            Arc::new(FaultVfs::quiet()) as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        assert_eq!(server.serve_quiet(&specs).ledger.completed, 1);
        assert!(!dir.exists(), "a store-backed serve created {}", dir.display());
    }

    #[test]
    fn worker_death_is_contained_and_bitwise_safe() {
        let server = MakoServer::new(tmp_config());
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let chaos = ServerChaos::quiet(2).kill_worker(0, 0.0);
        let report = server.serve(&specs, &chaos);
        assert_eq!(report.ledger.worker_deaths, 1);
        let rep = report.outcomes[0].report().expect("job survived the death");
        assert!(rep.retries >= 1, "the voided attempt was retried");
        let solo = server.run_solo(&specs[0]).expect("solo");
        assert_eq!(rep.energy.to_bits(), solo.energy.to_bits());
    }

    #[test]
    fn poison_is_retried_clean_and_bitwise_safe() {
        let server = MakoServer::new(tmp_config());
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let chaos = ServerChaos::quiet(2).with_poison(0, 2);
        let report = server.serve(&specs, &chaos);
        let rep = report.outcomes[0].report().expect("job survived the poison");
        assert!(rep.retries >= 1);
        let solo = server.run_solo(&specs[0]).expect("solo");
        assert_eq!(rep.energy.to_bits(), solo.energy.to_bits());
    }

    #[test]
    fn persistent_ckpt_faults_fail_typed_not_panic() {
        let server = MakoServer::new(tmp_config());
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let chaos = ServerChaos::quiet(2).with_ckpt_io_rate(1.0);
        let report = server.serve(&specs, &chaos);
        match &report.outcomes[0] {
            JobOutcome::Failed { error, retries } => {
                assert!(
                    matches!(error, JobError::Scf(ScfError::Checkpoint(_))),
                    "expected a typed checkpoint error, got {error:?}"
                );
                assert_eq!(*retries, MAX_RETRIES);
            }
            other => panic!("expected typed failure, got {other:?}"),
        }
        assert!(report.ledger.ckpt_write_faults > 0);
    }

    #[test]
    fn coincident_nuclei_fail_typed_without_a_retry() {
        let server = MakoServer::new(tmp_config());
        let mut mol = builders::water();
        let o = mol.atoms[0];
        mol.atoms.push(o);
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, mol)];
        let report = server.serve_quiet(&specs);
        match &report.outcomes[0] {
            JobOutcome::Failed { error, retries } => {
                assert_eq!(
                    *error,
                    JobError::Scf(ScfError::CoincidentAtoms { first: 0, second: 3 })
                );
                assert_eq!(*retries, 0, "a malformed molecule is not a transient fault");
            }
            other => panic!("expected a typed failure, got {other:?}"),
        }
        assert_eq!(report.ledger.retries, 0);
    }

    #[test]
    fn impossible_deadline_is_reported_not_run_forever() {
        let server = MakoServer::new(tmp_config());
        let specs = vec![
            JobSpec::new("a", PriorityClass::Batch, builders::water()).with_deadline(1e-12)
        ];
        let report = server.serve_quiet(&specs);
        match &report.outcomes[0] {
            JobOutcome::DeadlineExceeded {
                deadline_seconds, ..
            } => assert_eq!(*deadline_seconds, 1e-12),
            other => panic!("expected deadline outcome, got {other:?}"),
        }
    }

    #[test]
    fn losing_every_worker_fails_queued_jobs_typed() {
        let server = MakoServer::new(tmp_config());
        let specs = vec![
            JobSpec::new("a", PriorityClass::Batch, builders::water()),
            JobSpec::new("a", PriorityClass::Batch, builders::methane()),
            JobSpec::new("b", PriorityClass::Batch, builders::ammonia()).at(1e3),
        ];
        let chaos = ServerChaos::quiet(2).kill_worker(0, 0.0).kill_worker(1, 0.0);
        let report = server.serve(&specs, &chaos);
        assert_eq!(report.ledger.completed, 0);
        for outcome in &report.outcomes {
            match outcome {
                JobOutcome::Failed { error, .. } => assert!(matches!(
                    error,
                    JobError::AllWorkersLost | JobError::WorkerLost { .. }
                )),
                other => panic!("expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn crashed_serve_recovers_to_bitwise_outcomes() {
        use mako_store::{FaultProfile, FaultVfs};
        let specs = vec![
            JobSpec::new("a", PriorityClass::Batch, builders::water()),
            JobSpec::new("b", PriorityClass::Interactive, builders::methane()),
        ];
        // Probe: count the storage ops of a quiet store-backed serve, then
        // crash a fresh one halfway through and recover it.
        let probe_vfs = Arc::new(FaultVfs::quiet());
        let probe = MakoServer::with_store(
            tmp_config(),
            probe_vfs.clone() as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let quiet = probe.serve_quiet(&specs);
        assert!(!quiet.crashed);
        assert_eq!(quiet.ledger.completed, 2);
        let total_ops = probe_vfs.ops();
        assert!(total_ops > 4, "a store-backed serve must hit storage");

        let vfs = Arc::new(FaultVfs::new(FaultProfile::crash_at(7, total_ops / 2)));
        let server = MakoServer::with_store(
            tmp_config(),
            vfs.clone() as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let crashed = server.serve_quiet(&specs);
        assert!(crashed.crashed, "the injected crash point must fire");
        let recovered = server
            .recover(&specs, &ServerChaos::quiet(2))
            .expect("recover");
        assert!(!recovered.crashed);
        assert_eq!(recovered.ledger.completed, 2);
        for (q, r) in quiet.outcomes.iter().zip(&recovered.outcomes) {
            assert_eq!(
                energy(q).to_bits(),
                energy(r).to_bits(),
                "recovered energies are bitwise the quiet serve's"
            );
        }
    }

    #[test]
    fn recover_refuses_a_mismatched_workload() {
        use mako_store::FaultVfs;
        let vfs = Arc::new(FaultVfs::quiet());
        let server = MakoServer::with_store(
            tmp_config(),
            vfs as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let _ = server.serve_quiet(&specs);
        let other = vec![
            JobSpec::new("a", PriorityClass::Batch, builders::water()),
            JobSpec::new("z", PriorityClass::Batch, builders::methane()),
        ];
        assert!(
            server.recover(&other, &ServerChaos::quiet(2)).is_err(),
            "a journal must never be replayed against a different workload"
        );
    }

    #[test]
    fn persisted_artifacts_warm_a_fresh_server_process() {
        use mako_store::FaultVfs;
        let vfs = Arc::new(FaultVfs::quiet());
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];

        let first = MakoServer::with_store(
            tmp_config(),
            vfs.clone() as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let cold = first.serve_quiet(&specs);
        assert_eq!(cold.ledger.completed, 1);
        assert!(
            first.artifact_store().unwrap().stored() >= 1,
            "a cold serve persists its screen artifact"
        );

        // A "new process": same storage, fresh in-memory caches.
        let second = MakoServer::with_store(
            tmp_config(),
            vfs.clone() as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        let warm = second.serve_quiet(&specs);
        assert!(
            second.artifact_store().unwrap().loaded() >= 1,
            "the screen artifact is served from disk, not recomputed"
        );
        assert_eq!(
            energy(&cold.outcomes[0]).to_bits(),
            energy(&warm.outcomes[0]).to_bits(),
            "persisted artifacts change nothing"
        );

        // Rot the screen artifact: a third process quarantines and
        // recomputes — a corrupt artifact is never consumed.
        let key = ArtifactKey::for_job(&specs[0]).content_hash();
        let path = second.artifact_store().unwrap().path_for("screen", key);
        assert!(vfs.corrupt(&path, 40, 0x10), "artifact exists to rot: {path:?}");
        let third = MakoServer::with_store(
            tmp_config(),
            vfs.clone() as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        assert_eq!(third.artifact_store().unwrap().quarantined(), 0, "nothing is read at open");
        let healed = third.serve_quiet(&specs);
        assert_eq!(third.artifact_store().unwrap().quarantined(), 1, "screen rot quarantined");
        assert_eq!(
            energy(&cold.outcomes[0]).to_bits(),
            energy(&healed.outcomes[0]).to_bits(),
            "recomputed-after-rot energy is bitwise the cold one"
        );
    }

    /// A store warmed before quartet numerics had a version keyed its screen
    /// artifact by the screening inputs alone, and its bounds carry that
    /// engine's bits: this engine must recompute, not adopt it.
    #[test]
    fn a_screen_artifact_of_an_older_engine_is_ignored() {
        use mako_store::FaultVfs;
        let specs = vec![JobSpec::new("a", PriorityClass::Batch, builders::water())];
        let storeless = MakoServer::new(tmp_config());
        let reference = storeless.serve_quiet(&specs);

        let key = ArtifactKey::for_job(&specs[0]);
        assert_ne!(key.inputs_hash(), key.content_hash());
        let server = MakoServer::with_store(
            tmp_config(),
            Arc::new(FaultVfs::quiet()) as Arc<dyn Vfs>,
            PathBuf::from("/srv"),
        )
        .expect("store");
        // What the old engine left behind, made unmistakable: half the pairs.
        let driver = storeless.build_driver(&specs[0]).expect("driver");
        let pairs = driver.screened_pairs();
        let artifacts = server.artifact_store().unwrap();
        artifacts
            .store("screen", key.inputs_hash(), &crate::persist::encode_pairs(&pairs[..pairs.len() / 2]))
            .expect("plant the stale artifact");

        let served = server.serve_quiet(&specs);
        assert_eq!(artifacts.loaded(), 0, "nothing under the old key is read");
        assert_eq!(
            energy(&served.outcomes[0]).to_bits(),
            energy(&reference.outcomes[0]).to_bits(),
            "the job's result is the store-less one"
        );
    }

    #[test]
    fn screen_cache_serves_repeat_submissions() {
        let server = MakoServer::new(tmp_config());
        let spec = JobSpec::new("a", PriorityClass::Interactive, builders::water());
        let r1 = server.serve_quiet(std::slice::from_ref(&spec));
        let misses = server.screen_cache().misses();
        let r2 = server.serve_quiet(std::slice::from_ref(&spec));
        assert_eq!(server.screen_cache().misses(), misses, "second serve hit");
        assert!(server.screen_cache().hits() >= 1);
        assert_eq!(
            energy(&r1.outcomes[0]).to_bits(),
            energy(&r2.outcomes[0]).to_bits(),
            "cache-served artifacts change nothing"
        );
    }
}
