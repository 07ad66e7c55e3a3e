//! The write-ahead job journal: every scheduling decision `MakoServer`
//! makes that [`MakoServer::recover`] reads back is appended (and fsync'd)
//! *before* it takes effect, so a crash at any point leaves a durable prefix
//! of the serve from which recovery reconstructs the queue and finishes the
//! run.
//!
//! ## Record stream
//!
//! Records ride the CRC-framed append-only format of
//! [`mako_store::records`] (`[len][crc][payload]`); a crash mid-append
//! leaves a torn tail the replay tolerates (the record simply never
//! committed), and bit rot is detected rather than replayed. Each payload
//! is a tag byte plus little-endian fields; `f64` values travel as
//! [`f64::to_bits`] so a replayed energy is *bitwise* the energy that was
//! journaled — the recovery invariant is bitwise identity, and text
//! round-trips would forfeit it.
//!
//! ## What is journaled
//!
//! Only what recovery reads. [`JournalRecord::ServeBegin`] opens a serve.
//! Admission decisions ([`JournalRecord::Admitted`] /
//! [`JournalRecord::Rejected`]) are durable: a job admitted before a crash
//! does not re-run the admission gauntlet on recovery (the quota decision
//! was already made and billed), and a rejected job stays rejected.
//! Terminal outcomes ([`JournalRecord::Completed`] /
//! [`JournalRecord::Failed`] / [`JournalRecord::DeadlineExceeded`]) carry
//! everything needed to reconstruct the [`JobOutcome`] without re-running
//! the job. [`JournalRecord::RecoveryMark`] separates generations so a
//! journal that survived several crashes still replays unambiguously, and
//! [`JournalRecord::ServeEnd`] closes a serve. A job's progress (its first
//! dispatch, its yields) is not journaled and not stored anywhere: a job
//! the crash lost is recomputed from its spec, to the same bits.
//!
//! ## What recovery reads
//!
//! [`MakoServer::recover`] reads [`JournalRecord::ServeBegin`] (to refuse a
//! journal of another workload), [`JournalRecord::RecoveryMark`] (to number
//! its generation), [`JournalRecord::Admitted`] and the terminal outcomes,
//! rejections included. Every admitted job without an outcome runs again
//! from iteration 0.
//!
//! Tags 3, 4 and 5 are retired: older binaries wrote `Started`,
//! `Checkpointed` and `Yielded` progress records under them, each a tag and
//! two `u64`s. Replay skips such a CRC-valid frame as committed rather than
//! treating it as corruption, so a journal an older binary wrote still
//! recovers whole. No tag is ever reused.
//!
//! [`MakoServer::recover`]: crate::MakoServer::recover

use crate::job::{JobError, JobOutcome, JobReport, JobSpec, RejectReason};
use mako_store::records::{frame, read_all_framed, Tail};
use mako_store::{mix, write_durable, ByteReader, ByteWriter, Vfs, VfsError};
use std::path::PathBuf;
use std::sync::Arc;

/// Tags of the retired progress records (`Started`, `Checkpointed`,
/// `Yielded`); reserved, never reused.
const RETIRED_TAGS: [u8; 3] = [3, 4, 5];
/// Payload length every retired record had: the tag and two `u64`s.
const RETIRED_PAYLOAD_LEN: usize = 17;

/// One durable entry in the write-ahead journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A serve started: job count and a content hash of the workload, so
    /// recovery can refuse to continue a journal against the wrong specs.
    ServeBegin {
        /// Submitted jobs.
        jobs: u64,
        /// SplitMix64 content hash of the job specs.
        workload: u64,
    },
    /// Admission admitted the job (possibly into degraded mode).
    Admitted {
        /// Job id.
        job: u64,
        /// Whether the server was degraded at admission (affects the
        /// iteration budget the job runs with).
        degraded: bool,
    },
    /// Admission rejected the job. `code`/`a`/`b` encode the
    /// [`RejectReason`] (tenant string and class are reconstructed from
    /// the resubmitted spec).
    Rejected {
        /// Job id.
        job: u64,
        /// 0 = tenant quota (`a` = limit), 1 = queue full (`a` = depth,
        /// `b` = cap), 2 = load shed.
        code: u8,
        /// First parameter.
        a: u64,
        /// Second parameter.
        b: u64,
    },
    /// Terminal: the job completed. Carries the full [`JobReport`] so the
    /// outcome replays without re-running a single SCF iteration.
    Completed {
        /// Job id.
        job: u64,
        /// `energy.to_bits()` — bitwise, never text.
        energy: u64,
        /// Whether the SCF converged.
        converged: bool,
        /// Iterations executed.
        iterations: u64,
        /// Device seconds (bits).
        device_seconds: u64,
        /// Arrival time (bits).
        submitted_at: u64,
        /// First dispatch time (bits).
        started_at: u64,
        /// Completion time (bits).
        finished_at: u64,
        /// Faulted attempts retried.
        retries: u32,
        /// Preemption count.
        preemptions: u64,
        /// Quanta run.
        quanta: u64,
    },
    /// Terminal: the job failed. The typed error is journaled as its
    /// display string; recovery surfaces it as [`JobError::Replayed`].
    Failed {
        /// Job id.
        job: u64,
        /// Retries consumed.
        retries: u32,
        /// Display form of the final error.
        description: String,
    },
    /// Terminal: the deadline passed while work remained.
    DeadlineExceeded {
        /// Job id.
        job: u64,
        /// The deadline (bits).
        deadline_seconds: u64,
        /// Iterations completed before it fired.
        completed_iterations: u64,
        /// Retries consumed.
        retries: u32,
    },
    /// A recovery replayed everything above and resumed the serve.
    RecoveryMark {
        /// 1 for the first recovery, 2 for a recovery of the recovery, …
        generation: u32,
    },
    /// The serve finished cleanly.
    ServeEnd {
        /// Makespan (bits).
        makespan: u64,
    },
}

impl JournalRecord {
    /// Encode to the tagged little-endian payload (one CRC frame's worth).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = ByteWriter::with_capacity(64);
        match self {
            JournalRecord::ServeBegin { jobs, workload } => {
                out.u8(0);
                out.u64(*jobs);
                out.u64(*workload);
            }
            JournalRecord::Admitted { job, degraded } => {
                out.u8(1);
                out.u64(*job);
                out.u8(*degraded as u8);
            }
            JournalRecord::Rejected { job, code, a, b } => {
                out.u8(2);
                out.u64(*job);
                out.u8(*code);
                out.u64(*a);
                out.u64(*b);
            }
            JournalRecord::Completed {
                job,
                energy,
                converged,
                iterations,
                device_seconds,
                submitted_at,
                started_at,
                finished_at,
                retries,
                preemptions,
                quanta,
            } => {
                out.u8(6);
                out.u64(*job);
                out.u64(*energy);
                out.u8(*converged as u8);
                out.u64(*iterations);
                out.u64(*device_seconds);
                out.u64(*submitted_at);
                out.u64(*started_at);
                out.u64(*finished_at);
                out.u32(*retries);
                out.u64(*preemptions);
                out.u64(*quanta);
            }
            JournalRecord::Failed {
                job,
                retries,
                description,
            } => {
                out.u8(7);
                out.u64(*job);
                out.u32(*retries);
                out.len_bytes(description.as_bytes());
            }
            JournalRecord::DeadlineExceeded {
                job,
                deadline_seconds,
                completed_iterations,
                retries,
            } => {
                out.u8(8);
                out.u64(*job);
                out.u64(*deadline_seconds);
                out.u64(*completed_iterations);
                out.u32(*retries);
            }
            JournalRecord::RecoveryMark { generation } => {
                out.u8(9);
                out.u32(*generation);
            }
            JournalRecord::ServeEnd { makespan } => {
                out.u8(10);
                out.u64(*makespan);
            }
        }
        out.into_bytes()
    }

    /// Decode a payload. `None` on an unknown or retired tag, a short
    /// payload, a length field the payload cannot hold, or trailing bytes —
    /// replay skips a retired progress record (module docs) and treats any
    /// other such payload like a corrupt frame and stops there.
    pub fn decode(payload: &[u8]) -> Option<JournalRecord> {
        let mut r = ByteReader::new(payload);
        let rec = match r.u8()? {
            0 => JournalRecord::ServeBegin {
                jobs: r.u64()?,
                workload: r.u64()?,
            },
            1 => JournalRecord::Admitted {
                job: r.u64()?,
                degraded: r.u8()? != 0,
            },
            2 => JournalRecord::Rejected {
                job: r.u64()?,
                code: r.u8()?,
                a: r.u64()?,
                b: r.u64()?,
            },
            6 => JournalRecord::Completed {
                job: r.u64()?,
                energy: r.u64()?,
                converged: r.u8()? != 0,
                iterations: r.u64()?,
                device_seconds: r.u64()?,
                submitted_at: r.u64()?,
                started_at: r.u64()?,
                finished_at: r.u64()?,
                retries: r.u32()?,
                preemptions: r.u64()?,
                quanta: r.u64()?,
            },
            7 => {
                let job = r.u64()?;
                let retries = r.u32()?;
                JournalRecord::Failed {
                    job,
                    retries,
                    description: String::from_utf8_lossy(r.len_bytes()?).into_owned(),
                }
            }
            8 => JournalRecord::DeadlineExceeded {
                job: r.u64()?,
                deadline_seconds: r.u64()?,
                completed_iterations: r.u64()?,
                retries: r.u32()?,
            },
            9 => JournalRecord::RecoveryMark {
                generation: r.u32()?,
            },
            10 => JournalRecord::ServeEnd { makespan: r.u64()? },
            _ => return None,
        };
        r.done().then_some(rec)
    }

    /// Whether `payload` is a progress record an older binary wrote (tags
    /// 3–5, a tag and two `u64`s): committed, but nothing this binary reads.
    fn is_retired(payload: &[u8]) -> bool {
        payload.len() == RETIRED_PAYLOAD_LEN && RETIRED_TAGS.contains(&payload[0])
    }

    /// The terminal record for a finished job's outcome (`None` for
    /// outcomes that are not journaled per-job this way).
    pub(crate) fn terminal_for(job: u64, outcome: &JobOutcome) -> Option<JournalRecord> {
        match outcome {
            JobOutcome::Completed(r) => Some(JournalRecord::Completed {
                job,
                energy: r.energy.to_bits(),
                converged: r.converged,
                iterations: r.iterations as u64,
                device_seconds: r.device_seconds.to_bits(),
                submitted_at: r.submitted_at.to_bits(),
                started_at: r.started_at.to_bits(),
                finished_at: r.finished_at.to_bits(),
                retries: r.retries,
                preemptions: r.preemptions as u64,
                quanta: r.quanta as u64,
            }),
            JobOutcome::Failed { error, retries } => Some(JournalRecord::Failed {
                job,
                retries: *retries,
                description: error.to_string(),
            }),
            JobOutcome::DeadlineExceeded {
                deadline_seconds,
                completed_iterations,
                retries,
            } => Some(JournalRecord::DeadlineExceeded {
                job,
                deadline_seconds: deadline_seconds.to_bits(),
                completed_iterations: *completed_iterations as u64,
                retries: *retries,
            }),
            JobOutcome::Rejected { reason } => {
                let (code, a, b) = match reason {
                    RejectReason::TenantQuotaExceeded { limit, .. } => (0u8, *limit as u64, 0),
                    RejectReason::QueueFull { depth, cap } => (1, *depth as u64, *cap as u64),
                    RejectReason::LoadShed { .. } => (2, 0, 0),
                };
                Some(JournalRecord::Rejected { job, code, a, b })
            }
        }
    }

    /// Reconstruct the [`JobOutcome`] a terminal record stands for, given
    /// the resubmitted spec (source of the tenant string / class the
    /// compact encoding drops). `None` for non-terminal records.
    pub fn outcome(&self, spec: &JobSpec) -> Option<JobOutcome> {
        match self {
            JournalRecord::Completed {
                energy,
                converged,
                iterations,
                device_seconds,
                submitted_at,
                started_at,
                finished_at,
                retries,
                preemptions,
                quanta,
                ..
            } => Some(JobOutcome::Completed(JobReport {
                energy: f64::from_bits(*energy),
                converged: *converged,
                iterations: *iterations as usize,
                device_seconds: f64::from_bits(*device_seconds),
                submitted_at: f64::from_bits(*submitted_at),
                started_at: f64::from_bits(*started_at),
                finished_at: f64::from_bits(*finished_at),
                retries: *retries,
                preemptions: *preemptions as usize,
                quanta: *quanta as usize,
            })),
            JournalRecord::Failed {
                retries,
                description,
                ..
            } => Some(JobOutcome::Failed {
                error: JobError::Replayed {
                    description: description.clone(),
                },
                retries: *retries,
            }),
            JournalRecord::DeadlineExceeded {
                deadline_seconds,
                completed_iterations,
                retries,
                ..
            } => Some(JobOutcome::DeadlineExceeded {
                deadline_seconds: f64::from_bits(*deadline_seconds),
                completed_iterations: *completed_iterations as usize,
                retries: *retries,
            }),
            JournalRecord::Rejected { code, a, b, .. } => {
                let reason = match code {
                    0 => RejectReason::TenantQuotaExceeded {
                        tenant: spec.tenant.clone(),
                        limit: *a as usize,
                    },
                    1 => RejectReason::QueueFull {
                        depth: *a as usize,
                        cap: *b as usize,
                    },
                    _ => RejectReason::LoadShed { class: spec.class },
                };
                Some(JobOutcome::Rejected { reason })
            }
            _ => None,
        }
    }

    /// The job id this record is about, if any.
    pub fn job(&self) -> Option<u64> {
        match self {
            JournalRecord::Admitted { job, .. }
            | JournalRecord::Rejected { job, .. }
            | JournalRecord::Completed { job, .. }
            | JournalRecord::Failed { job, .. }
            | JournalRecord::DeadlineExceeded { job, .. } => Some(*job),
            _ => None,
        }
    }
}

/// The append-only journal file on a [`Vfs`].
#[derive(Debug, Clone)]
pub struct Journal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
}

impl Journal {
    /// Bind a journal to `path` on `vfs` (the file is created lazily by
    /// the first append).
    pub fn new(vfs: Arc<dyn Vfs>, path: PathBuf) -> Journal {
        Journal { vfs, path }
    }

    /// Durably append one record: frame, append, fsync. The record has
    /// *happened* only once this returns — callers journal the decision
    /// before acting on it (write-ahead discipline).
    pub fn append(&self, rec: &JournalRecord) -> Result<(), VfsError> {
        let payload = rec.encode();
        self.vfs.append(&self.path, &frame(&payload))?;
        self.vfs.sync(&self.path)?;
        mako_trace::instant(
            "store",
            "append",
            vec![mako_trace::field("bytes", (payload.len() + 8) as f64)],
        );
        Ok(())
    }

    /// Replay the journal: every decodable record up to the first torn or
    /// corrupt frame (retired progress records are skipped, not corrupt),
    /// plus the tail classification. A missing file is an empty, clean
    /// journal (the crash happened before the first append became durable).
    pub fn replay(&self) -> Result<(Vec<JournalRecord>, Tail), VfsError> {
        let (records, tail, _) = self.read_valid()?;
        Ok((records, tail))
    }

    /// [`replay`](Journal::replay), then — when the tail is torn or corrupt
    /// — durably truncate the file to its valid prefix so future appends
    /// commit *after* the last good record. Without this, records appended
    /// by a recovery would sit behind the garbage tail, unreachable to
    /// every later replay (prefix semantics stop at the first bad frame).
    pub fn replay_and_repair(&self) -> Result<(Vec<JournalRecord>, Tail), VfsError> {
        let (records, tail, valid_len) = self.read_valid()?;
        if tail != Tail::Clean {
            let bytes = match self.vfs.read(&self.path) {
                Ok(b) => b,
                Err(VfsError::NotFound) => return Ok((records, tail)),
                Err(e) => return Err(e),
            };
            if valid_len < bytes.len() {
                write_durable(self.vfs.as_ref(), &self.path, &bytes[..valid_len])?;
                mako_trace::instant(
                    "store",
                    "truncate",
                    vec![
                        mako_trace::field("valid_bytes", valid_len),
                        mako_trace::field("dropped_bytes", bytes.len() - valid_len),
                        mako_trace::field(
                            "tail",
                            if tail == Tail::Torn {
                                "torn"
                            } else {
                                "corrupt"
                            },
                        ),
                    ],
                );
            }
        }
        Ok((records, tail))
    }

    fn read_valid(&self) -> Result<(Vec<JournalRecord>, Tail, usize), VfsError> {
        let bytes = match self.vfs.read(&self.path) {
            Ok(b) => b,
            Err(VfsError::NotFound) => return Ok((Vec::new(), Tail::Clean, 0)),
            Err(e) => return Err(e),
        };
        let (frames, mut tail, mut valid_len) = read_all_framed(&bytes);
        let mut records = Vec::with_capacity(frames.len());
        for (i, payload) in frames.iter().enumerate() {
            match JournalRecord::decode(payload) {
                Some(rec) => records.push(rec),
                None if JournalRecord::is_retired(payload) => {}
                None => {
                    // A CRC-valid frame that doesn't decode is structural
                    // corruption; stop here, keep the prefix.
                    tail = Tail::Corrupt;
                    valid_len = frames[..i].iter().map(|f| 8 + f.len()).sum();
                    break;
                }
            }
        }
        Ok((records, tail, valid_len))
    }
}

/// SplitMix64 content hash of a workload. [`JournalRecord::ServeBegin`]
/// carries it so recovery can refuse to replay a journal against a
/// *different* resubmitted workload — continuing someone else's serve with
/// these specs would attribute journaled outcomes to the wrong jobs.
pub(crate) fn workload_hash(specs: &[JobSpec]) -> u64 {
    let mut h = 0x574C_4F41_4448_5348u64; // salt
    for spec in specs {
        let key = crate::cache::ArtifactKey::for_job(spec);
        h = mix(h, key.molecule);
        h = mix(h, key.screening);
        h = mix(h, spec.class.rank() as u64);
        h = mix(h, spec.submit_at.to_bits());
        h = mix(h, spec.deadline.unwrap_or(f64::NEG_INFINITY).to_bits());
        for b in spec.tenant.as_bytes() {
            h = mix(h, *b as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PriorityClass;
    use mako_chem::builders;
    use mako_store::FaultVfs;
    use proptest::prelude::*;

    fn all_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::ServeBegin {
                jobs: 4,
                workload: 0xABCD,
            },
            JournalRecord::Admitted {
                job: 0,
                degraded: false,
            },
            JournalRecord::Rejected {
                job: 1,
                code: 1,
                a: 9,
                b: 8,
            },
            JournalRecord::Completed {
                job: 0,
                energy: (-74.9630287f64).to_bits(),
                converged: true,
                iterations: 17,
                device_seconds: 0.25f64.to_bits(),
                submitted_at: 0f64.to_bits(),
                started_at: 0.01f64.to_bits(),
                finished_at: 0.26f64.to_bits(),
                retries: 1,
                preemptions: 2,
                quanta: 5,
            },
            JournalRecord::Failed {
                job: 2,
                retries: 3,
                description: "worker 1 died mid-quantum".to_string(),
            },
            JournalRecord::DeadlineExceeded {
                job: 3,
                deadline_seconds: 0.5f64.to_bits(),
                completed_iterations: 6,
                retries: 0,
            },
            JournalRecord::RecoveryMark { generation: 1 },
            JournalRecord::ServeEnd {
                makespan: 0.3f64.to_bits(),
            },
        ]
    }

    /// The payloads older binaries wrote for `Started { job: 0, at: 1.5 }`,
    /// `Checkpointed { job: 0, next_iteration: 3 }` and
    /// `Yielded { job: 0, iteration: 3 }`.
    fn retired_payloads() -> Vec<Vec<u8>> {
        [(3u8, 1.5f64.to_bits()), (4, 3), (5, 3)]
            .iter()
            .map(|&(tag, b)| {
                let mut out = ByteWriter::with_capacity(RETIRED_PAYLOAD_LEN);
                out.u8(tag);
                out.u64(0);
                out.u64(b);
                out.into_bytes()
            })
            .collect()
    }

    #[test]
    fn every_record_roundtrips() {
        // The pinned image predates the retired tags: their payloads sit
        // where the records did, after `Rejected`.
        let mut image = Vec::new();
        for (i, rec) in all_records().into_iter().enumerate() {
            if i == 3 {
                for retired in retired_payloads() {
                    assert!(JournalRecord::is_retired(&retired));
                    assert_eq!(JournalRecord::decode(&retired), None);
                    image.extend_from_slice(&retired);
                }
            }
            let bytes = rec.encode();
            assert!(!JournalRecord::is_retired(&bytes));
            let back = JournalRecord::decode(&bytes).expect("decode");
            assert_eq!(back, rec);
            image.extend_from_slice(&bytes);
        }
        // The WAL payload byte images are pinned (FNV-1a, generated at c1572ca).
        let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (image.len(), fnv),
            (271, 0x2764_0d62_661d_2f1e),
            "journal record byte images moved"
        );
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        // A `Failed` record whose description length is u64::MAX: `pos + n`
        // used to overflow (a panic in debug builds); the contract is `None`.
        let mut inflated = vec![7u8];
        inflated.extend_from_slice(&2u64.to_le_bytes());
        inflated.extend_from_slice(&3u32.to_le_bytes());
        inflated.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(inflated.len(), 21);
        assert_eq!(JournalRecord::decode(&inflated), None);
        // Every record cut short or padded by a byte, and the empty payload.
        for rec in all_records() {
            let mut bytes = rec.encode();
            assert_eq!(
                JournalRecord::decode(&bytes[..bytes.len() - 1]),
                None,
                "{rec:?} cut"
            );
            bytes.push(0);
            assert_eq!(JournalRecord::decode(&bytes), None, "{rec:?} padded");
        }
        assert_eq!(JournalRecord::decode(&[]), None);
    }

    #[test]
    fn journal_append_replay_roundtrip() {
        let vfs = Arc::new(FaultVfs::quiet());
        let j = Journal::new(vfs, PathBuf::from("/serve.wal"));
        for rec in all_records() {
            j.append(&rec).expect("append");
        }
        let (records, tail) = j.replay().expect("replay");
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records, all_records());
    }

    #[test]
    fn retired_frames_are_skipped_not_truncated() {
        let vfs = Arc::new(FaultVfs::quiet());
        let path = PathBuf::from("/serve.wal");
        let j = Journal::new(vfs.clone(), path.clone());
        let all = all_records();
        let (head, rest) = all.split_at(3);
        for rec in head {
            j.append(rec).expect("append");
        }
        for retired in retired_payloads() {
            vfs.append(&path, &frame(&retired))
                .expect("append a retired frame");
        }
        for rec in rest {
            j.append(rec).expect("append");
        }
        let written = vfs.raw(&path).unwrap();
        let (records, tail) = j.replay_and_repair().expect("replay");
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records, all);
        assert_eq!(
            vfs.raw(&path).unwrap(),
            written,
            "replay rewrote the journal"
        );

        // A retired tag at any other length was never written: corruption,
        // and the valid prefix ends before it.
        let mut odd = retired_payloads().remove(0);
        odd.push(0);
        assert!(!JournalRecord::is_retired(&odd));
        vfs.append(&path, &frame(&odd)).expect("append");
        j.append(&all[0]).expect("append");
        let (records, tail) = j.replay_and_repair().expect("replay");
        assert_eq!(tail, Tail::Corrupt);
        assert_eq!(records, all);
        assert_eq!(
            vfs.raw(&path).unwrap(),
            written,
            "the prefix before the bad frame is kept"
        );
    }

    #[test]
    fn missing_journal_is_empty_and_clean() {
        let vfs = Arc::new(FaultVfs::quiet());
        let j = Journal::new(vfs, PathBuf::from("/nothing.wal"));
        let (records, tail) = j.replay().expect("replay");
        assert!(records.is_empty());
        assert_eq!(tail, Tail::Clean);
    }

    #[test]
    fn torn_tail_keeps_the_committed_prefix() {
        let vfs = Arc::new(FaultVfs::quiet());
        let j = Journal::new(vfs.clone(), PathBuf::from("/serve.wal"));
        for rec in all_records() {
            j.append(&rec).expect("append");
        }
        let full = vfs.raw(&PathBuf::from("/serve.wal")).unwrap();
        // Tear mid-record: drop the last 3 bytes.
        assert!(vfs.truncate(&PathBuf::from("/serve.wal"), full.len() - 3));
        let (records, tail) = j.replay().expect("replay");
        assert_eq!(tail, Tail::Torn);
        let all = all_records();
        assert_eq!(records, all[..all.len() - 1].to_vec());
    }

    #[test]
    fn repair_truncates_the_tear_so_later_appends_stay_reachable() {
        let vfs = Arc::new(FaultVfs::quiet());
        let path = PathBuf::from("/serve.wal");
        let j = Journal::new(vfs.clone(), path.clone());
        let all = all_records();
        for rec in &all {
            j.append(rec).expect("append");
        }
        let full = vfs.raw(&path).unwrap();
        assert!(vfs.truncate(&path, full.len() - 3), "tear the tail");

        // Without repair, a record appended after the tear is unreachable:
        // replay stops at the torn frame.
        let marker = JournalRecord::RecoveryMark { generation: 9 };
        j.append(&marker).expect("append past the tear");
        let (lost, tail) = j.replay().expect("replay");
        // The torn frame swallows the marker's leading bytes, so the stream
        // reads Torn or Corrupt depending on how the lengths line up —
        // either way the committed marker is unreachable.
        assert_ne!(tail, Tail::Clean);
        assert!(!lost.contains(&marker), "the tear shadows later appends");

        // Repair truncates to the valid prefix; appends now commit after
        // the last good record and replay cleanly.
        assert!(vfs.truncate(&path, full.len() - 3), "re-tear");
        let (records, tail) = j.replay_and_repair().expect("repair");
        assert_eq!(tail, Tail::Torn);
        assert_eq!(records, all[..all.len() - 1].to_vec());
        j.append(&marker).expect("append after repair");
        let (records, tail) = j.replay().expect("replay");
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records.len(), all.len(), "prefix + the new record");
        assert_eq!(records.last(), Some(&marker));
    }

    #[test]
    fn outcome_reconstruction_is_bitwise() {
        let spec = JobSpec::new("acme", PriorityClass::Batch, builders::water());
        let energy = -74.96302864577f64;
        let report = JobReport {
            energy,
            converged: true,
            iterations: 12,
            device_seconds: 0.125,
            submitted_at: 0.0,
            started_at: 0.5,
            finished_at: 0.625,
            retries: 2,
            preemptions: 1,
            quanta: 4,
        };
        let rec = JournalRecord::terminal_for(7, &JobOutcome::Completed(report.clone()))
            .expect("terminal");
        let back = rec.outcome(&spec).expect("outcome");
        let r = back.report().expect("report");
        assert_eq!(r.energy.to_bits(), energy.to_bits(), "bitwise energy");
        assert_eq!(r.iterations, report.iterations);
        assert_eq!(r.retries, report.retries);

        let rej = JournalRecord::terminal_for(
            1,
            &JobOutcome::Rejected {
                reason: RejectReason::TenantQuotaExceeded {
                    tenant: "acme".to_string(),
                    limit: 2,
                },
            },
        )
        .expect("terminal");
        match rej.outcome(&spec) {
            Some(JobOutcome::Rejected {
                reason: RejectReason::TenantQuotaExceeded { tenant, limit },
            }) => {
                assert_eq!(tenant, "acme");
                assert_eq!(limit, 2);
            }
            other => panic!("bad reconstruction: {other:?}"),
        }
    }

    /// `payload` decodes to nothing, or to a record that decodes again to
    /// itself from its own encoding. The bytes need not come back: a bool
    /// byte reads any non-zero value as `true`, and `Failed`'s description
    /// is decoded lossily.
    fn decodes_to_a_fixed_point(payload: &[u8]) -> proptest::TestCaseResult {
        if let Some(rec) = JournalRecord::decode(payload) {
            prop_assert_eq!(JournalRecord::decode(&rec.encode()), Some(rec));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn a_random_payload_decodes_to_a_fixed_point_or_none(
            tag in 0u8..12,
            body in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let mut payload = vec![tag];
            payload.extend_from_slice(&body);
            decodes_to_a_fixed_point(&payload)?;
        }

        #[test]
        fn an_edited_record_decodes_to_a_fixed_point_or_none(
            edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..6),
            cut in any::<u64>(),
            truncate in any::<bool>(),
        ) {
            for rec in all_records() {
                let mut bytes = rec.encode();
                for &(at, byte) in &edits {
                    let at = (at % bytes.len() as u64) as usize;
                    bytes[at] = byte;
                }
                if truncate {
                    bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
                }
                decodes_to_a_fixed_point(&bytes)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A frame tagged like a retired record, at every payload length
        /// from 1 to 40 and every position among real records: replay
        /// skips it at the retired length and stops at its start as
        /// corrupt at any other; after the repair, an appended record
        /// replays.
        #[test]
        fn a_retired_tag_is_skipped_only_at_the_retired_length(
            tag in 3u8..6,
            split in 0usize..9,
            body in prop::collection::vec(any::<u8>(), 39..40),
        ) {
            let all = all_records();
            let (head, rest) = all.split_at(split);
            let marker = JournalRecord::RecoveryMark { generation: 9 };
            for len in 1..=40 {
                let vfs = Arc::new(FaultVfs::quiet());
                let path = PathBuf::from("/serve.wal");
                let j = Journal::new(vfs.clone(), path.clone());
                for rec in head {
                    j.append(rec).expect("append");
                }
                let at = vfs.raw(&path).map_or(0, |b| b.len());
                let mut payload = vec![tag];
                payload.extend_from_slice(&body[..len - 1]);
                vfs.append(&path, &frame(&payload)).expect("append the tagged frame");
                for rec in rest {
                    j.append(rec).expect("append");
                }
                let written = vfs.raw(&path).unwrap();

                let (records, tail) = j.replay_and_repair().expect("replay");
                let kept = if len == RETIRED_PAYLOAD_LEN {
                    prop_assert_eq!(tail, Tail::Clean);
                    prop_assert_eq!(&records, &all);
                    prop_assert!(vfs.raw(&path).unwrap() == written, "a clean replay rewrote the journal");
                    all.clone()
                } else {
                    prop_assert_eq!(tail, Tail::Corrupt);
                    prop_assert_eq!(&records[..], head);
                    prop_assert!(vfs.raw(&path).unwrap() == written[..at], "length {len}: not cut at the frame's start");
                    head.to_vec()
                };

                j.append(&marker).expect("append after the repair");
                let (records, tail) = j.replay().expect("replay");
                prop_assert_eq!(tail, Tail::Clean);
                prop_assert_eq!(&records[..kept.len()], &kept[..]);
                prop_assert_eq!(&records[kept.len()..], std::slice::from_ref(&marker));
            }
        }
    }
}
