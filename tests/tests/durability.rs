//! Durability integration tests: the crash-consistency contract of the
//! store-backed server, end to end across the workspace crates.
//!
//! * **Prefix consistency** (proptest) — at any crash point, the valid
//!   bytes of the crashed journal are a *literal prefix* of the quiet
//!   run's journal, and recovery finishes the serve with every completed
//!   job's energy bitwise identical to the quiet run.
//! * **Composed faults** — the same fixed sweep under a schedule that also
//!   kills a worker, poisons a Fock build and fails checkpoint writes:
//!   completed energies stay bitwise, everything else is typed, and a
//!   second recovery runs nothing.
//! * **Double recovery** — recovering a recovered store changes nothing.
//! * **Checkpoint quarantine** — a salvaged checkpoint that fails
//!   validation is moved aside and the job re-runs; the rot is never
//!   consumed.
//! * **No temp residue** — the fsync-then-rename discipline leaves no
//!   `.tmp` files behind after a quiet serve.
//! * **Old journals** — a journal written with the retired progress records
//!   (tags 3–5) replays clean, untruncated, to its journaled outcomes.
//! * **Sync budget** — a quiet serve syncs once per journal record and
//!   twice per checkpoint save and per stored artifact, and journals no
//!   progress record.

use proptest::prelude::*;

use mako::chem::builders;
use mako::server::{
    JobError, JobOutcome, JobSpec, Journal, JournalRecord, MakoServer, PriorityClass,
    ServeReport, ServerChaos, ServerConfig,
};
use mako::store::{read_all_framed, FaultProfile, FaultVfs, Tail, Vfs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};

const ROOT: &str = "/srv";
const SEED: u64 = 7;

fn workload() -> Vec<JobSpec> {
    vec![
        JobSpec::new("alice", PriorityClass::Interactive, builders::water()),
        JobSpec::new("bob", PriorityClass::Batch, builders::methane()).at(1e-4),
    ]
}

fn open_server(vfs: Arc<FaultVfs>) -> Result<MakoServer, mako::store::VfsError> {
    MakoServer::with_store(ServerConfig::default(), vfs as Arc<dyn Vfs>, PathBuf::from(ROOT))
}

fn energies(report: &ServeReport) -> Vec<Option<u64>> {
    report
        .outcomes
        .iter()
        .map(|o| o.report().map(|r| r.energy.to_bits()))
        .collect()
}

/// The quiet reference: journal bytes, energy bits, and the crash-point
/// domain — computed once and shared across proptest cases.
struct QuietRef {
    journal: Vec<u8>,
    energies: Vec<Option<u64>>,
    domain: u64,
}

fn quiet_ref() -> &'static QuietRef {
    static QUIET: OnceLock<QuietRef> = OnceLock::new();
    QUIET.get_or_init(|| {
        let vfs = Arc::new(FaultVfs::quiet());
        let server = open_server(vfs.clone()).expect("open");
        let report = server.serve_quiet(&workload());
        assert!(!report.crashed);
        assert_eq!(report.ledger.completed, 2);
        QuietRef {
            journal: vfs.raw(Path::new("/srv/serve.wal")).expect("quiet journal"),
            energies: energies(&report),
            domain: vfs.ops(),
        }
    })
}

/// The composed schedule: on top of the storage crash, a worker dies in its
/// third quantum, the batch job's Fock build is poisoned once and a fifth of
/// the checkpoint writes fail — under which both jobs still complete.
fn composed_chaos() -> ServerChaos {
    ServerChaos::seeded(SEED, 2)
        .kill_worker(0, 0.13)
        .with_poison(1, 2)
        .with_ckpt_io_rate(0.2)
}

/// Run one crash-point trial under `chaos` (startup crashes restart, like a
/// real process) and return `(vfs, server, crashed)` after the serve.
fn crashed_serve(crash_op: u64, chaos: &ServerChaos) -> (Arc<FaultVfs>, MakoServer, bool) {
    let vfs = Arc::new(FaultVfs::new(FaultProfile::crash_at(SEED, crash_op)));
    let (server, mut crashed) = match open_server(vfs.clone()) {
        Ok(server) => (server, false),
        Err(_) => {
            vfs.recover_crash();
            (open_server(vfs.clone()).expect("reopen after startup crash"), true)
        }
    };
    crashed |= server.serve(&workload(), chaos).crashed;
    (vfs, server, crashed)
}

/// Kill a serve under `chaos` at storage op `crash_op`, recover it under the
/// same schedule, and hold the crash-consistency contract: the journal is a
/// prefix (quiet schedules only — a chaotic journal is legitimately a
/// different one), recovery is bitwise, every job that did not complete
/// carries a typed outcome, and a second recovery has nothing left to run.
fn check_crash_point(crash_op: u64, chaos: &ServerChaos) {
    let quiet = quiet_ref();
    let (vfs, server, _crashed) = crashed_serve(crash_op, chaos);

    if chaos.is_quiet() {
        // Prefix consistency: every valid byte of the crashed journal is a
        // literal prefix of the quiet journal — a crash may lose the tail,
        // never reorder or invent records.
        if let Some(bytes) = vfs.raw(Path::new("/srv/serve.wal")) {
            let (_, _, valid_len) = read_all_framed(&bytes);
            assert!(valid_len <= quiet.journal.len());
            assert!(
                bytes[..valid_len] == quiet.journal[..valid_len],
                "crash point {crash_op}: journal diverged from the quiet run's"
            );
        }
    }

    // Recovery finishes the serve bitwise.
    let recovered = server.recover(&workload(), chaos).expect("recover");
    assert!(!recovered.crashed, "crash point {crash_op}: recovery crashed");
    for (job, (outcome, want)) in recovered.outcomes.iter().zip(&quiet.energies).enumerate() {
        match outcome {
            JobOutcome::Completed(r) => assert_eq!(
                Some(r.energy.to_bits()),
                *want,
                "crash point {crash_op}: job {job} recovered to a different energy"
            ),
            JobOutcome::Failed { error: JobError::Crashed, .. } => {
                panic!("crash point {crash_op}: job {job} left unresolved by recovery")
            }
            _ => assert!(!chaos.is_quiet(), "crash point {crash_op}: job {job}: {outcome:?}"),
        }
    }
    let again = server.recover(&workload(), chaos).expect("second recovery");
    assert_eq!(again.ledger.quanta, 0, "crash point {crash_op}: a recovered serve re-ran work");
    assert_eq!(
        format!("{:?}", again.outcomes),
        format!("{:?}", recovered.outcomes),
        "crash point {crash_op}: the second recovery disagrees with the first"
    );
}

/// [`check_crash_point`] at a fixed stride over `0..domain` plus both ends.
fn sweep_crash_points(domain: u64, chaos: &ServerChaos) {
    (0..domain)
        .step_by((domain / 12).max(1) as usize)
        .chain([domain - 1])
        .for_each(|k| check_crash_point(k, chaos));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_crash_point_leaves_a_journal_prefix_and_recovers_bitwise(frac in 0.0f64..1.0) {
        let domain = quiet_ref().domain;
        let quiet = ServerChaos::quiet(ServerConfig::default().workers);
        // Ahead of the samples, once: a fixed stride over the whole domain
        // plus its two ends, so the startup crash (op 0) and the last op
        // are checked on every run, not when a sample lands there — first
        // quiet, then composed with worker death, a poisoned Fock build and
        // checkpoint-write failures over that schedule's own op count.
        static SWEEP: Once = Once::new();
        SWEEP.call_once(|| {
            sweep_crash_points(domain, &quiet);

            let chaos = composed_chaos();
            let vfs = Arc::new(FaultVfs::quiet());
            let uncrashed = open_server(vfs.clone()).expect("open").serve(&workload(), &chaos);
            assert_eq!(energies(&uncrashed), quiet_ref().energies, "both jobs complete under chaos");
            let l = &uncrashed.ledger;
            assert!(
                l.worker_deaths == 1 && l.ckpt_write_faults >= 1 && l.retries >= 3,
                "death, checkpoint-write failure and poison must all fire: {l:?}"
            );
            sweep_crash_points(vfs.ops(), &chaos);
        });
        check_crash_point(((frac * domain as f64) as u64).min(domain - 1), &quiet);
    }
}

#[test]
fn double_recovery_is_idempotent() {
    let quiet = quiet_ref();
    // The whole crash → recover → recover sequence runs under a 1- and a
    // 4-thread host pool: the recovered outcomes may not depend on it.
    let mut narrow: Option<Vec<String>> = None;
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let outcomes: Vec<String> = pool.install(|| {
            let (_vfs, server, crashed) = crashed_serve(quiet.domain / 2, &ServerChaos::quiet(2));
            assert!(crashed, "the mid-point crash must fire");
            let chaos = ServerChaos::quiet(server.config().workers);
            let first = server.recover(&workload(), &chaos).expect("first recovery");
            let second = server.recover(&workload(), &chaos).expect("second recovery");
            assert_eq!(energies(&first), quiet.energies);
            // The second recovery replays terminal records instead of
            // re-running: identical outcomes, identical reports, zero
            // quanta executed.
            let debug = |report: &ServeReport| -> Vec<String> {
                report.outcomes.iter().map(|o| format!("{o:?}")).collect()
            };
            assert_eq!(debug(&first), debug(&second), "recoveries disagree");
            assert_eq!(second.ledger.quanta, 0, "a full journal leaves nothing to re-run");
            debug(&first)
        });
        assert_eq!(
            narrow.get_or_insert_with(|| outcomes.clone()),
            &outcomes,
            "host thread count leaked into a recovered outcome at {threads} threads"
        );
    }
}

/// Job ids with a terminal record in the journal at `path` — those are
/// replayed, never salvaged, so their checkpoints are out of scope for
/// the quarantine path.
fn terminal_jobs(vfs: &FaultVfs, path: &Path) -> Vec<u64> {
    let bytes = vfs.raw(path).unwrap_or_default();
    let (frames, _, _) = read_all_framed(&bytes);
    frames
        .iter()
        .filter_map(|f| JournalRecord::decode(f))
        .filter_map(|r| match r {
            JournalRecord::Completed { job, .. }
            | JournalRecord::Failed { job, .. }
            | JournalRecord::DeadlineExceeded { job, .. } => Some(job),
            _ => None,
        })
        .collect()
}

#[test]
fn a_corrupt_salvaged_checkpoint_is_quarantined_not_consumed() {
    let quiet = quiet_ref();
    // Find a crash point that leaves an on-disk checkpoint behind for a
    // job the journal has NOT resolved (the batch job yields at its
    // quantum boundary and persists one) — that checkpoint is exactly
    // what recovery will try to salvage.
    let mut found = None;
    for k in (0..quiet.domain).rev() {
        let (vfs, server, crashed) = crashed_serve(k, &ServerChaos::quiet(2));
        if !crashed {
            continue;
        }
        vfs.recover_crash();
        let done = terminal_jobs(&vfs, Path::new("/srv/serve.wal"));
        let ckpts: Vec<PathBuf> = vfs
            .list(Path::new(ROOT))
            .unwrap_or_default()
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
            .filter(|p| {
                p.file_stem()
                    .and_then(|s| s.to_string_lossy().strip_prefix("job")?.parse::<u64>().ok())
                    .is_some_and(|id| !done.contains(&id))
            })
            .collect();
        if !ckpts.is_empty() {
            found = Some((vfs, server, ckpts));
            break;
        }
    }
    let (vfs, server, ckpts) =
        found.expect("some crash point leaves a salvageable checkpoint");
    // Rot every surviving checkpoint mid-payload.
    for ckpt in &ckpts {
        let len = vfs.raw(ckpt).expect("ckpt bytes").len();
        assert!(vfs.corrupt(ckpt, len / 2, 0x08), "rot {ckpt:?}");
    }
    let recovered = server
        .recover(&workload(), &ServerChaos::quiet(server.config().workers))
        .expect("recover");
    assert_eq!(
        energies(&recovered),
        quiet.energies,
        "a rotted checkpoint leaked into the recovered numbers"
    );
    // The rot was moved aside as evidence, not silently deleted.
    let quarantined = vfs
        .list(Path::new(ROOT))
        .unwrap_or_default()
        .into_iter()
        .any(|p| p.to_string_lossy().ends_with(".quarantine"));
    assert!(quarantined, "rotted checkpoints must be quarantined");
}

#[test]
fn recovery_of_an_uncrashed_serve_replays_without_rerunning() {
    let quiet = quiet_ref();
    let vfs = Arc::new(FaultVfs::quiet());
    let server = open_server(vfs).expect("open");
    let report = server.serve_quiet(&workload());
    assert!(!report.crashed);
    let recovered = server
        .recover(&workload(), &ServerChaos::quiet(server.config().workers))
        .expect("recover");
    assert_eq!(energies(&recovered), quiet.energies);
    assert_eq!(recovered.ledger.quanta, 0, "nothing to re-run after ServeEnd");
}

#[test]
fn a_quiet_serve_leaves_no_temp_files() {
    let vfs = Arc::new(FaultVfs::quiet());
    let server = open_server(vfs.clone()).expect("open");
    let report = server.serve_quiet(&workload());
    assert!(!report.crashed);
    for dir in [ROOT, "/srv/artifacts"] {
        for path in vfs.list(Path::new(dir)).unwrap_or_default() {
            assert!(
                !path.to_string_lossy().ends_with(".tmp"),
                "temp residue after a quiet serve: {path:?}"
            );
        }
    }
}

#[test]
fn journal_replay_refuses_a_mismatched_workload_end_to_end() {
    let (_vfs, server, crashed) = crashed_serve(quiet_ref().domain / 2, &ServerChaos::quiet(2));
    assert!(crashed);
    let mut other = workload();
    other.push(JobSpec::new("mallory", PriorityClass::Batch, builders::ammonia()));
    assert!(
        server.recover(&other, &ServerChaos::quiet(2)).is_err(),
        "a journal must never replay against a different workload"
    );
    // Sanity: the journal type itself is reachable from the test (the
    // public surface the docs promise).
    let _ = (Journal::new(
        Arc::new(FaultVfs::quiet()) as Arc<dyn Vfs>,
        PathBuf::from("/x.wal"),
    ), JournalRecord::RecoveryMark { generation: 1 });
}

/// The quiet serve of [`workload`] as a binary that still journaled
/// progress records wrote it: `ServeBegin`, both `Admitted`, a `Started` per
/// job, the batch job's `Checkpointed`/`Yielded` pair at its quantum
/// boundary (tags 3, 4 and 5), both `Completed` and `ServeEnd`.
const PROGRESS_RECORDS_WAL: &[u8] = include_bytes!("../fixtures/serve_with_progress_records.wal");

#[test]
fn a_journal_with_progress_records_recovers_untruncated() {
    let wal = Path::new("/srv/serve.wal");
    let (frames, tail, valid_len) = read_all_framed(PROGRESS_RECORDS_WAL);
    assert_eq!((tail, valid_len), (Tail::Clean, PROGRESS_RECORDS_WAL.len()));
    for tag in 3u8..=5 {
        assert!(frames.iter().any(|f| f.first() == Some(&tag)), "the fixture holds a tag-{tag} frame");
    }
    let vfs = Arc::new(FaultVfs::quiet());
    let server = open_server(vfs.clone()).expect("open");
    vfs.write(wal, PROGRESS_RECORDS_WAL).expect("plant the journal");
    vfs.sync(wal).expect("sync the journal");

    // Replay reads every frame as committed and leaves the file as it was.
    let journal = Journal::new(vfs.clone() as Arc<dyn Vfs>, wal.to_path_buf());
    let (records, tail) = journal.replay_and_repair().expect("replay");
    assert_eq!(tail, Tail::Clean);
    assert_eq!(vfs.raw(wal).as_deref(), Some(PROGRESS_RECORDS_WAL), "replay rewrote the journal");
    let specs = workload();
    let mut journaled = vec![None; specs.len()];
    for rec in &records {
        if let Some(job) = rec.job() {
            if let Some(outcome) = rec.outcome(&specs[job as usize]) {
                journaled[job as usize] = Some(outcome);
            }
        }
    }
    assert!(journaled.iter().all(Option::is_some), "both outcomes are journaled: {records:?}");

    // Recovery returns those outcomes without running a quantum, and only
    // appends to the journal.
    let recovered = server
        .recover(&specs, &ServerChaos::quiet(server.config().workers))
        .expect("recover");
    assert_eq!(recovered.ledger.quanta, 0, "a finished journal leaves nothing to run");
    let journaled: Vec<JobOutcome> = journaled.into_iter().flatten().collect();
    assert_eq!(format!("{:?}", recovered.outcomes), format!("{journaled:?}"));
    let after = vfs.raw(wal).expect("journal");
    assert!(after.starts_with(PROGRESS_RECORDS_WAL), "recovery truncated the journal");
}

/// A quiet [`FaultVfs`] that counts the syncs (file and directory) and the
/// checkpoint writes that go through it.
#[derive(Debug)]
struct CountingVfs {
    inner: FaultVfs,
    syncs: AtomicU64,
    checkpoint_writes: AtomicU64,
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, mako::store::VfsError> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), mako::store::VfsError> {
        if path.to_string_lossy().ends_with(".ckpt.tmp") {
            self.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), mako::store::VfsError> {
        self.inner.append(path, bytes)
    }
    fn sync(&self, path: &Path) -> Result<(), mako::store::VfsError> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(path)
    }
    fn sync_dir(&self, dir: &Path) -> Result<(), mako::store::VfsError> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), mako::store::VfsError> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> Result<(), mako::store::VfsError> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, mako::store::VfsError> {
        self.inner.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<(), mako::store::VfsError> {
        self.inner.create_dir_all(dir)
    }
    fn crashed(&self) -> bool {
        self.inner.crashed()
    }
    fn recover_crash(&self) {
        self.inner.recover_crash()
    }
}

#[test]
fn a_quiet_serve_syncs_only_what_recovery_reads() {
    // The server's checkpoint cadence, which is also the default quantum,
    // so every quantum boundary falls on a periodic save.
    const CADENCE: u64 = 4;
    assert_eq!(ServerConfig::default().quantum_iterations as u64, CADENCE);
    let vfs = Arc::new(CountingVfs {
        inner: FaultVfs::quiet(),
        syncs: AtomicU64::new(0),
        checkpoint_writes: AtomicU64::new(0),
    });
    let server =
        MakoServer::with_store(ServerConfig::default(), vfs.clone() as Arc<dyn Vfs>, PathBuf::from(ROOT))
            .expect("open");
    let specs = workload();
    let report = server.serve_quiet(&specs);
    assert_eq!(report.ledger.completed, specs.len());

    let wal = vfs.inner.raw(Path::new("/srv/serve.wal")).expect("journal");
    let (frames, tail, _) = read_all_framed(&wal);
    assert_eq!(tail, Tail::Clean);
    assert!(
        frames.iter().all(|f| !matches!(f.first(), Some(3..=5))),
        "a progress record (tags 3-5) was journaled"
    );
    // ServeBegin, an admission and an outcome per job, ServeEnd.
    assert_eq!(frames.len(), 2 + 2 * specs.len());
    // A save after every CADENCE-th iteration short of each job's last.
    let saves: u64 = report
        .outcomes
        .iter()
        .map(|o| (o.report().expect("completed").iterations as u64 - 1) / CADENCE)
        .sum();
    assert!(saves > 0);
    assert_eq!(vfs.checkpoint_writes.load(Ordering::Relaxed), saves);
    let artifacts = server.artifact_store().expect("store").stored() as u64;
    assert_eq!(artifacts, specs.len() as u64, "one screen artifact per molecule");
    assert_eq!(
        vfs.syncs.load(Ordering::Relaxed),
        frames.len() as u64 + 2 * (saves + artifacts),
        "syncs: one per journal record, two per checkpoint save and per stored artifact"
    );
}
