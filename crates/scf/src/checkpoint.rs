//! SCF checkpoint/restart: versioned on-disk serialization of the full
//! mid-trajectory driver state.
//!
//! A production SCF service must survive preemption: a 64-GPU ubiquitin run
//! is hours of simulated work, and losing the whole trajectory to one node
//! eviction is not acceptable. The checkpoint captures *everything* the
//! iteration loop carries between iterations — density, previous energy,
//! residuals, DIIS history, the incremental engine's accumulators and
//! rebuild bookkeeping, the device-clock ledgers — so a resumed run replays
//! the remaining iterations **bitwise identically** to the uninterrupted
//! one (DESIGN.md §10).
//!
//! ## Format (version 3)
//!
//! Little-endian binary. `f64` values are serialized via
//! [`f64::to_bits`], never through text, so restore is bit-exact.
//!
//! ```text
//! magic   b"MAKOCKPT"            8 bytes
//! version u32                    (currently 3)
//! crc     u32                    CRC-32 (IEEE) over every byte after this field
//! fingerprint: nao u64, n_batches u64, n_quartets u64, problem_hash u64
//! scalars: next_iteration u64, e_prev, energy, residual, residual_prev,
//!          drift_bound f64; since_rebuild u64;
//!          flags u8 (bit0 was_quantized_phase, bit1 force_rebuild)
//! matrices: d, j_acc, k_acc, d_ref        (each: rows u64, cols u64, data)
//! diis: max_vectors u64, m u64, m × (fock, error) matrix pairs
//! orbital_energies: len u64, data
//! iteration_seconds: len u64, data
//! stats: 5 × u64 + 2 × f64 (FockBuildStats fields)
//! clock: n_iters u64, n_iters × IterationLedger;
//!        n_recov u64, n_recov × RecoveryLedger
//! ```
//!
//! Readers reject wrong magic, versions they don't understand, truncated
//! payloads, payloads failing their CRC ([`CheckpointError::Corrupt`] —
//! bit rot the fingerprint cannot see), and checkpoints whose fingerprint
//! disagrees with the run being resumed. Version 2 extended the
//! fingerprint beyond gross sizes (basis
//! size / batch population) with a `problem_hash` — a content hash of the
//! molecule geometry, contracted shells, device kind, method, and screening
//! configuration (see `ScfDriver::problem_fingerprint`) — so a checkpoint
//! from one tenant's job cannot be resumed against a *different* problem
//! that happens to have the same matrix shapes (e.g. a slightly perturbed
//! geometry, or the same molecule priced on a different device); version 3
//! adds the payload CRC.
//!
//! ## Durability
//!
//! All checkpoint I/O flows through a [`mako_store::Vfs`]:
//! [`ScfCheckpoint::save`]/[`ScfCheckpoint::load`] run on the real
//! filesystem, while [`ScfCheckpoint::save_via`]/[`ScfCheckpoint::load_via`]
//! take any backend — in the durability bench, the seeded fault injector.
//! Saves use the shared fsync-then-rename discipline of
//! [`mako_store::write_durable`] (sibling temp file, `fsync`, atomic
//! rename, directory sync, temp cleanup on both the error path and the next
//! attempt), so a crash mid-save never corrupts the previous checkpoint and
//! a completed save survives power loss. Transient IO errors are retried up
//! to three times with capped exponential backoff before surfacing as
//! [`CheckpointError::Io`]; an injected crash fails fast (the simulated
//! process is dead — there is nothing to retry on).

use crate::diis::DiisSnapshot;
use crate::error::CheckpointError;
use crate::fock::FockBuildStats;
use mako_accel::{DeviceClock, IterationLedger, RecoveryLedger};
use mako_linalg::Matrix;
use mako_store::{crc32, write_durable, ByteReader, ByteWriter, RealVfs, Vfs, VfsError};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MAKOCKPT";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 3;
/// Byte offset where the CRC-covered region begins (after magic, version,
/// and the CRC field itself).
const CRC_REGION_AT: usize = 16;

/// IO retry schedule for [`ScfCheckpoint::save`]: attempts and capped
/// exponential backoff between them (milliseconds of host time).
const SAVE_ATTEMPTS: u32 = 3;
const SAVE_BACKOFF_BASE_MS: u64 = 1;
const SAVE_BACKOFF_CAP_MS: u64 = 50;

/// The complete mid-trajectory state of an SCF run, captured after a whole
/// number of completed iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct ScfCheckpoint {
    /// Basis size fingerprint — must match the resuming driver.
    pub nao: usize,
    /// Quartet-batch population fingerprint.
    pub n_batches: usize,
    /// Total-quartet fingerprint.
    pub n_quartets: usize,
    /// Content hash of the problem (geometry, shells, device, method,
    /// screening) — rejects cross-tenant resume against a different problem
    /// with coincidentally identical matrix shapes.
    pub problem_hash: u64,
    /// The iteration the resumed run executes next (= completed iterations).
    pub next_iteration: usize,
    /// Density matrix entering `next_iteration`.
    pub density: Matrix,
    /// Energy of the previous iteration (convergence test state).
    pub e_prev: f64,
    /// Last computed total energy.
    pub energy: f64,
    /// Scheduling residual entering `next_iteration`.
    pub residual: f64,
    /// Previous DIIS residual (divergence-guard state).
    pub residual_prev: f64,
    /// Whether the previous iteration ran the quantized phase.
    pub was_quantized_phase: bool,
    /// Incremental accumulators (zeros when not incremental).
    pub j_acc: Matrix,
    /// Exchange accumulator.
    pub k_acc: Matrix,
    /// Reference density of the accumulators.
    pub d_ref: Matrix,
    /// Incremental iterations since the last full rebuild.
    pub since_rebuild: usize,
    /// Accumulated analytic skip bound since the last rebuild.
    pub drift_bound: f64,
    /// Whether the next iteration must be a full rebuild.
    pub force_rebuild: bool,
    /// DIIS history.
    pub diis: DiisSnapshot,
    /// Orbital energies of the last diagonalization.
    pub orbital_energies: Vec<f64>,
    /// Per-iteration simulated seconds so far.
    pub iteration_seconds: Vec<f64>,
    /// Accumulated Fock statistics so far.
    pub stats: FockBuildStats,
    /// Per-iteration device-clock ledgers so far.
    pub ledgers: Vec<IterationLedger>,
    /// Per-iteration recovery ledgers so far.
    pub recoveries: Vec<RecoveryLedger>,
}

impl ScfCheckpoint {
    /// Rebuild the [`DeviceClock`] from the stored ledgers.
    pub fn clock(&self) -> DeviceClock {
        let mut clock = DeviceClock::new();
        for l in &self.ledgers {
            clock.push(*l);
        }
        for r in &self.recoveries {
            clock.push_recovery(*r);
        }
        clock
    }

    /// Serialize to the version-3 binary format (payload CRC included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = ByteWriter::with_capacity(64 + self.density.as_slice().len() * 8 * 4);
        out.bytes(MAGIC);
        out.u32(CHECKPOINT_VERSION);
        out.u32(0); // CRC placeholder, patched below
        out.u64(self.nao as u64);
        out.u64(self.n_batches as u64);
        out.u64(self.n_quartets as u64);
        out.u64(self.problem_hash);
        out.u64(self.next_iteration as u64);
        out.f64(self.e_prev);
        out.f64(self.energy);
        out.f64(self.residual);
        out.f64(self.residual_prev);
        out.f64(self.drift_bound);
        out.u64(self.since_rebuild as u64);
        out.u8((self.was_quantized_phase as u8) | ((self.force_rebuild as u8) << 1));
        for m in [&self.density, &self.j_acc, &self.k_acc, &self.d_ref] {
            put_matrix(&mut out, m);
        }
        out.u64(self.diis.max_vectors as u64);
        out.u64(self.diis.focks.len() as u64);
        for (f, e) in self.diis.focks.iter().zip(&self.diis.errors) {
            put_matrix(&mut out, f);
            put_matrix(&mut out, e);
        }
        out.f64s(&self.orbital_energies);
        out.f64s(&self.iteration_seconds);
        out.u64(self.stats.fp64_quartets as u64);
        out.u64(self.stats.quantized_quartets as u64);
        out.u64(self.stats.pruned_quartets as u64);
        out.u64(self.stats.skipped_quartets as u64);
        out.f64(self.stats.skipped_bound);
        out.f64(self.stats.device_seconds);
        out.u64(self.ledgers.len() as u64);
        for l in &self.ledgers {
            out.f64(l.eri_seconds);
            out.f64(l.total_seconds);
            out.u64(l.evaluated_quartets as u64);
            out.u64(l.skipped_quartets as u64);
            out.u64(l.pruned_quartets as u64);
            out.f64(l.skipped_bound);
            out.u8(l.rebuild as u8);
        }
        out.u64(self.recoveries.len() as u64);
        for r in &self.recoveries {
            out.u64(r.transient_retries as u64);
            out.f64(r.backoff_seconds);
            out.u64(r.straggler_ranks as u64);
            out.u64(r.stolen_batches as u64);
            out.u64(r.rerun_batches as u64);
            out.u64(r.ranks_lost as u64);
            out.u64(r.allreduce_retries as u64);
            out.u64(r.checkpoint_saves as u64);
            out.u64(r.checkpoint_loads as u64);
            out.f64(r.fault_free_seconds);
            out.f64(r.degraded_seconds);
        }
        let mut out = out.into_bytes();
        let crc = crc32(&out[CRC_REGION_AT..]);
        out[12..16].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a version-3 checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<ScfCheckpoint, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        if r.take(8).ok_or(CheckpointError::Truncated)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32().ok_or(CheckpointError::Truncated)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let expected = r.u32().ok_or(CheckpointError::Truncated)?;
        let actual = crc32(&bytes[CRC_REGION_AT..]);
        if expected != actual {
            // Checked before any structural parsing: truncation and bit rot
            // both land here, and neither may be half-interpreted.
            return Err(CheckpointError::Corrupt { expected, actual });
        }
        // A CRC-valid payload that runs short, declares a length it cannot
        // hold, or leaves bytes over is not what `to_bytes` wrote.
        read_payload(&mut r)
            .filter(|_| r.done())
            .ok_or(CheckpointError::Truncated)
    }

    /// Write to the real filesystem durably and atomically — see
    /// [`ScfCheckpoint::save_via`].
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_via(&RealVfs, path)
    }

    /// Write to `vfs` durably and atomically.
    ///
    /// The bytes go through [`mako_store::write_durable`]: a sibling temp
    /// file `fsync`ed *before* the atomic rename, so a crash at any point
    /// leaves either the previous checkpoint or the complete new one —
    /// never a torn file that merely made it to the page cache — and the
    /// temp file is cleaned up on failure instead of leaking.
    ///
    /// Transient IO errors (full disk briefly reclaimed, NFS hiccup, …) are
    /// retried up to three times with capped exponential backoff; only a
    /// persistent failure surfaces as [`CheckpointError::Io`]. An injected
    /// crash point is *not* retried — the simulated process is dead, and
    /// spinning on a dead Vfs would only distort the fault model.
    ///
    /// Traced as a `store.checkpoint` span carrying the checkpoint's `bytes`.
    pub fn save_via(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), CheckpointError> {
        let mut span = mako_trace::span("store", "checkpoint");
        let bytes = self.to_bytes();
        if span.is_recording() {
            span.add_field("bytes", bytes.len());
        }
        let mut last_err = String::new();
        for attempt in 0..SAVE_ATTEMPTS {
            if attempt > 0 {
                let ms = (SAVE_BACKOFF_BASE_MS << (attempt - 1)).min(SAVE_BACKOFF_CAP_MS);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            match write_durable(vfs, path, &bytes) {
                Ok(()) => return Ok(()),
                Err(VfsError::Crashed) => {
                    return Err(CheckpointError::Io(format!(
                        "checkpoint save to {}: {}",
                        path.display(),
                        VfsError::Crashed
                    )))
                }
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(CheckpointError::Io(format!(
            "checkpoint save to {} failed after {} attempts: {}",
            path.display(),
            SAVE_ATTEMPTS,
            last_err
        )))
    }

    /// Read a checkpoint back from the real filesystem.
    pub fn load(path: &Path) -> Result<ScfCheckpoint, CheckpointError> {
        ScfCheckpoint::load_via(&RealVfs, path)
    }

    /// Read a checkpoint back from `vfs`.
    pub fn load_via(vfs: &dyn Vfs, path: &Path) -> Result<ScfCheckpoint, CheckpointError> {
        let bytes = vfs
            .read(path)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        ScfCheckpoint::from_bytes(&bytes)
    }

    /// Validate that this checkpoint belongs to a run with the given
    /// problem fingerprint.
    ///
    /// The size triple catches gross mismatches cheaply (and gives the more
    /// diagnostic error when shapes differ); `problem_hash` closes the
    /// cross-tenant gap where two different problems share all three sizes.
    pub fn validate(
        &self,
        nao: usize,
        n_batches: usize,
        n_quartets: usize,
        problem_hash: u64,
    ) -> Result<(), CheckpointError> {
        if self.nao != nao {
            return Err(CheckpointError::Mismatch { field: "nao" });
        }
        if self.n_batches != n_batches {
            return Err(CheckpointError::Mismatch { field: "n_batches" });
        }
        if self.n_quartets != n_quartets {
            return Err(CheckpointError::Mismatch { field: "n_quartets" });
        }
        if self.problem_hash != problem_hash {
            return Err(CheckpointError::Mismatch { field: "problem" });
        }
        Ok(())
    }
}

fn put_matrix(out: &mut ByteWriter, m: &Matrix) {
    out.matrix(m.rows(), m.cols(), m.as_slice());
}

fn read_matrix(r: &mut ByteReader<'_>) -> Option<Matrix> {
    let (rows, cols, data) = r.matrix()?;
    Some(Matrix::from_vec(rows, cols, data))
}

/// Everything after the magic/version/CRC header. Every count is checked
/// against the bytes that remain (two empty matrices, one
/// `IterationLedger`, one `RecoveryLedger` are 32, 49 and 88 bytes) before
/// anything is allocated.
fn read_payload(r: &mut ByteReader<'_>) -> Option<ScfCheckpoint> {
    let nao = r.usize()?;
    let n_batches = r.usize()?;
    let n_quartets = r.usize()?;
    let problem_hash = r.u64()?;
    let next_iteration = r.usize()?;
    let e_prev = r.f64()?;
    let energy = r.f64()?;
    let residual = r.f64()?;
    let residual_prev = r.f64()?;
    let drift_bound = r.f64()?;
    let since_rebuild = r.usize()?;
    let flags = r.u8()?;
    let density = read_matrix(r)?;
    let j_acc = read_matrix(r)?;
    let k_acc = read_matrix(r)?;
    let d_ref = read_matrix(r)?;
    let max_vectors = r.usize()?;
    let m = r.count(32)?;
    let mut focks = Vec::with_capacity(m);
    let mut errors = Vec::with_capacity(m);
    for _ in 0..m {
        focks.push(read_matrix(r)?);
        errors.push(read_matrix(r)?);
    }
    let orbital_energies = r.f64s()?;
    let iteration_seconds = r.f64s()?;
    let stats = FockBuildStats {
        fp64_quartets: r.usize()?,
        quantized_quartets: r.usize()?,
        pruned_quartets: r.usize()?,
        skipped_quartets: r.usize()?,
        skipped_bound: r.f64()?,
        device_seconds: r.f64()?,
    };
    let n_iters = r.count(49)?;
    let mut ledgers = Vec::with_capacity(n_iters);
    for _ in 0..n_iters {
        ledgers.push(IterationLedger {
            eri_seconds: r.f64()?,
            total_seconds: r.f64()?,
            evaluated_quartets: r.usize()?,
            skipped_quartets: r.usize()?,
            pruned_quartets: r.usize()?,
            skipped_bound: r.f64()?,
            rebuild: r.u8()? != 0,
        });
    }
    let n_recov = r.count(88)?;
    let mut recoveries = Vec::with_capacity(n_recov);
    for _ in 0..n_recov {
        recoveries.push(RecoveryLedger {
            transient_retries: r.usize()?,
            backoff_seconds: r.f64()?,
            straggler_ranks: r.usize()?,
            stolen_batches: r.usize()?,
            rerun_batches: r.usize()?,
            ranks_lost: r.usize()?,
            allreduce_retries: r.usize()?,
            checkpoint_saves: r.usize()?,
            checkpoint_loads: r.usize()?,
            fault_free_seconds: r.f64()?,
            degraded_seconds: r.f64()?,
        });
    }
    Some(ScfCheckpoint {
        nao,
        n_batches,
        n_quartets,
        problem_hash,
        next_iteration,
        density,
        e_prev,
        energy,
        residual,
        residual_prev,
        was_quantized_phase: flags & 1 != 0,
        j_acc,
        k_acc,
        d_ref,
        since_rebuild,
        drift_bound,
        force_rebuild: flags & 2 != 0,
        diis: DiisSnapshot {
            max_vectors,
            focks,
            errors,
        },
        orbital_energies,
        iteration_seconds,
        stats,
        ledgers,
        recoveries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScfCheckpoint {
        let m = |s: f64| Matrix::from_fn(3, 3, |i, j| s * (i as f64 + 0.1 * j as f64));
        ScfCheckpoint {
            nao: 3,
            n_batches: 7,
            n_quartets: 91,
            problem_hash: 0xDEAD_BEEF_CAFE_F00D,
            next_iteration: 4,
            density: m(1.0),
            e_prev: -74.9629,
            energy: -74.96294,
            residual: 1.25e-5,
            residual_prev: 3.5e-5,
            was_quantized_phase: true,
            j_acc: m(0.5),
            k_acc: m(0.25),
            d_ref: m(0.9),
            since_rebuild: 2,
            drift_bound: 1.5e-13,
            force_rebuild: false,
            diis: DiisSnapshot {
                max_vectors: 8,
                focks: vec![m(2.0), m(2.1)],
                errors: vec![m(0.01), m(0.005)],
            },
            orbital_energies: vec![-20.24, -1.26, 0.6],
            iteration_seconds: vec![1e-3, 8e-4, 7e-4, 6e-4],
            stats: FockBuildStats {
                fp64_quartets: 1000,
                quantized_quartets: 50,
                pruned_quartets: 7,
                skipped_quartets: 123,
                skipped_bound: 4.2e-11,
                device_seconds: 3.1e-3,
            },
            ledgers: vec![IterationLedger {
                eri_seconds: 9e-4,
                total_seconds: 1e-3,
                evaluated_quartets: 1000,
                skipped_quartets: 3,
                pruned_quartets: 1,
                skipped_bound: 1e-12,
                rebuild: true,
            }],
            recoveries: vec![RecoveryLedger {
                transient_retries: 2,
                backoff_seconds: 3e-3,
                rerun_batches: 11,
                ranks_lost: 1,
                fault_free_seconds: 0.2,
                degraded_seconds: 0.31,
                ..RecoveryLedger::default()
            }],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = ScfCheckpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, ck);
        // Serialization is deterministic.
        assert_eq!(back.to_bytes(), bytes);
        // The MAKOCKPT v3 byte image is pinned (FNV-1a, generated at c1572ca).
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (1098, 0x06f1_c06e_e956_a023), "checkpoint byte image moved");
    }

    #[test]
    fn roundtrip_preserves_nonfinite_and_signed_zero() {
        // f64-via-bits must survive the values text formatting mangles.
        let mut ck = sample();
        ck.e_prev = f64::INFINITY;
        ck.residual_prev = f64::NAN;
        ck.drift_bound = -0.0;
        let back = ScfCheckpoint::from_bytes(&ck.to_bytes()).expect("roundtrip");
        assert!(back.e_prev.is_infinite());
        assert!(back.residual_prev.is_nan());
        assert_eq!(back.drift_bound.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let ck = sample();
        let bytes = ck.to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            ScfCheckpoint::from_bytes(&bad),
            Err(CheckpointError::BadMagic)
        );

        let mut newer = bytes.clone();
        newer[8] = 99; // version little-endian low byte
        assert_eq!(
            ScfCheckpoint::from_bytes(&newer),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        );

        // Truncation inside the CRC region is caught by the checksum
        // (checked before any structural parsing).
        let truncated = &bytes[..bytes.len() - 5];
        assert!(matches!(
            ScfCheckpoint::from_bytes(truncated),
            Err(CheckpointError::Corrupt { .. })
        ));
        // Truncation inside the fixed header is a structural error.
        assert_eq!(
            ScfCheckpoint::from_bytes(&bytes[..10]),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn one_bit_flip_at_every_64_byte_boundary_is_rejected() {
        let bytes = sample().to_bytes();
        assert!(bytes.len() > 512, "sample must span many boundaries");
        for at in (0..bytes.len()).step_by(64) {
            let mut rotted = bytes.clone();
            rotted[at] ^= 0x01;
            let res = ScfCheckpoint::from_bytes(&rotted);
            assert!(
                matches!(
                    res,
                    Err(CheckpointError::Corrupt { .. })
                        | Err(CheckpointError::BadMagic)
                        | Err(CheckpointError::UnsupportedVersion { .. })
                ),
                "flip at byte {at} must be rejected, got {res:?}"
            );
        }
    }

    #[test]
    fn truncation_at_every_64_byte_boundary_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in (0..bytes.len()).step_by(64) {
            let res = ScfCheckpoint::from_bytes(&bytes[..cut]);
            assert!(
                matches!(
                    res,
                    Err(CheckpointError::Truncated) | Err(CheckpointError::Corrupt { .. })
                ),
                "truncation to {cut} bytes must be rejected, got {res:?}"
            );
        }
    }

    #[test]
    fn flipping_the_stored_crc_itself_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[13] ^= 0x40; // inside the CRC field
        assert!(matches!(
            ScfCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn save_failure_does_not_leak_a_tmp_file() {
        use mako_store::{tmp_path, FaultProfile, FaultVfs};
        let ck = sample();
        // Every write fails: the save exhausts its retries and must sweep
        // its own temp residue each time.
        let vfs = FaultVfs::new(FaultProfile {
            seed: 9,
            crash_at: None,
            write_fault_rate: 1.0,
            bitrot_rate: 0.0,
        });
        let path = Path::new("/ck/scf.ckpt");
        vfs.create_dir_all(Path::new("/ck")).expect("mkdir");
        match ck.save_via(&vfs, path) {
            Err(CheckpointError::Io(msg)) => assert!(msg.contains("3 attempts"), "{msg}"),
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(
            !vfs.exists(&tmp_path(path)),
            "failed save must not leak its temp file"
        );
        assert!(!vfs.exists(path), "no torn destination either");
    }

    #[test]
    fn save_and_load_roundtrip_through_a_fault_free_vfs() {
        use mako_store::FaultVfs;
        let ck = sample();
        let vfs = FaultVfs::quiet();
        let path = Path::new("/ck/scf.ckpt");
        vfs.create_dir_all(Path::new("/ck")).expect("mkdir");
        ck.save_via(&vfs, path).expect("save");
        let back = ScfCheckpoint::load_via(&vfs, path).expect("load");
        assert_eq!(back, ck);
    }

    #[test]
    fn fingerprint_validation() {
        let ck = sample();
        let hash = ck.problem_hash;
        assert!(ck.validate(3, 7, 91, hash).is_ok());
        assert_eq!(
            ck.validate(4, 7, 91, hash),
            Err(CheckpointError::Mismatch { field: "nao" })
        );
        assert_eq!(
            ck.validate(3, 8, 91, hash),
            Err(CheckpointError::Mismatch { field: "n_batches" })
        );
        assert_eq!(
            ck.validate(3, 7, 90, hash),
            Err(CheckpointError::Mismatch { field: "n_quartets" })
        );
        // Same shapes, different problem content: the v2 hash catches it.
        assert_eq!(
            ck.validate(3, 7, 91, hash ^ 1),
            Err(CheckpointError::Mismatch { field: "problem" })
        );
    }

    #[test]
    fn save_surfaces_persistent_io_failure_as_typed_error() {
        let ck = sample();
        let path = std::env::temp_dir()
            .join("mako_ckpt_no_such_dir")
            .join("deeper")
            .join("scf.ckpt");
        match ck.save(&path) {
            Err(CheckpointError::Io(msg)) => {
                assert!(msg.contains("3 attempts"), "retry count in message: {msg}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn save_load_disk_roundtrip() {
        let ck = sample();
        let dir = std::env::temp_dir().join("mako_ckpt_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("scf.ckpt");
        ck.save(&path).expect("save");
        let back = ScfCheckpoint::load(&path).expect("load");
        assert_eq!(back, ck);
        std::fs::remove_file(&path).ok();
    }
}
