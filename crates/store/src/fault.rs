//! The deterministic fault-injecting Vfs backend.
//!
//! [`FaultVfs`] is an in-memory filesystem that models exactly the disk
//! behaviors a crash-consistent store must survive, every one of them a
//! pure function of `(seed, operation index)` so a failing sweep point
//! replays bit-for-bit:
//!
//! * **crash points** — every mutating operation (write, append, sync,
//!   rename, remove, mkdir) has a global index; at the configured index the
//!   operation *partially applies* and the simulated process dies:
//!   [`VfsError::Crashed`] is returned, every later operation fails the
//!   same way, and un-synced page-cache data is resolved to a seeded
//!   surviving prefix — the torn-write outcome of a power cut.
//! * **short writes / ENOSPC** — a seeded fraction of writes land only a
//!   prefix of their bytes and fail with [`VfsError::NoSpace`] (or a
//!   generic short-write I/O error), without killing the process.
//! * **bit rot on read** — a seeded fraction of reads return the payload
//!   with one bit flipped, exercising every CRC validation path.
//!
//! ## Durability model
//!
//! Each file carries `data` (page cache) and `durable_len` (the prefix
//! known to be on stable storage). `sync` advances `durable_len` to the
//! full length. At a crash, file contents resolve to
//! `data[..durable_len]` plus a seeded prefix of the dirty tail — so an
//! un-synced write may survive whole, torn, or not at all, and the caller
//! can assume nothing it did not `fsync`. Renames and removes are treated
//! as applied once they return (the ext4-like model; the store's
//! fsync-then-rename helper syncs the parent directory anyway), except the
//! rename *at* the crash point itself, which survives by a seeded coin —
//! both outcomes of an interrupted rename appear across a sweep.

use crate::vfs::{Vfs, VfsError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Seeded fault schedule of a [`FaultVfs`].
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Mutating-operation index at which the simulated process crashes
    /// (`None` = never). The probe run of a sweep uses `None` and reads
    /// [`FaultVfs::ops`] to learn the domain.
    pub crash_at: Option<u64>,
    /// Probability a write/append lands only a seeded prefix and fails
    /// (alternating seeded coin: `NoSpace` or a short-write I/O error).
    pub write_fault_rate: f64,
    /// Probability a read returns the payload with one seeded bit flipped.
    pub bitrot_rate: f64,
}

impl FaultProfile {
    /// No faults at all — a pure in-memory filesystem.
    pub(crate) fn quiet() -> FaultProfile {
        FaultProfile {
            seed: 0,
            crash_at: None,
            write_fault_rate: 0.0,
            bitrot_rate: 0.0,
        }
    }

    /// Crash at exactly `op` (the sweep's workhorse).
    pub fn crash_at(seed: u64, op: u64) -> FaultProfile {
        FaultProfile {
            seed,
            crash_at: Some(op),
            write_fault_rate: 0.0,
            bitrot_rate: 0.0,
        }
    }
}

struct FileBuf {
    data: Vec<u8>,
    durable_len: usize,
}

struct FsState {
    files: BTreeMap<PathBuf, FileBuf>,
    dirs: BTreeSet<PathBuf>,
    /// Mutating operations issued so far (the crash-point domain).
    ops: u64,
    /// Read operations issued so far (the bit-rot stream index).
    reads: u64,
    crashed: bool,
}

/// The fault-injecting in-memory backend. See the module docs for the
/// fault model.
pub struct FaultVfs {
    profile: FaultProfile,
    state: Mutex<FsState>,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("FaultVfs")
            .field("profile", &self.profile)
            .field("files", &s.files.len())
            .field("ops", &s.ops)
            .field("crashed", &s.crashed)
            .finish()
    }
}

/// SplitMix64 finalizer folded over `h ^ v` — the one mixer behind every
/// content hash and seeded fault stream of the serving stack (`mako-accel`
/// has no edge to this crate and keeps its own `splitmix64`).
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash onto `[0, 1)` via its top 53 bits.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultVfs {
    /// A fresh, empty filesystem with the given fault profile.
    pub fn new(profile: FaultProfile) -> FaultVfs {
        FaultVfs {
            profile,
            state: Mutex::new(FsState {
                files: BTreeMap::new(),
                dirs: BTreeSet::new(),
                ops: 0,
                reads: 0,
                crashed: false,
            }),
        }
    }

    /// A quiet (fault-free) in-memory filesystem.
    pub fn quiet() -> FaultVfs {
        FaultVfs::new(FaultProfile::quiet())
    }

    /// Mutating operations issued so far — after a probe run, the domain
    /// of crash points a sweep must cover.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Test/corruption hook: read a file's raw bytes without consuming a
    /// bit-rot draw.
    pub fn raw(&self, path: &Path) -> Option<Vec<u8>> {
        self.state.lock().files.get(path).map(|f| f.data.clone())
    }

    /// Test/corruption hook: XOR `mask` into byte `index` of a stored
    /// file — persistent on-media rot, as opposed to the seeded transient
    /// read rot.
    pub fn corrupt(&self, path: &Path, index: usize, mask: u8) -> bool {
        let mut s = self.state.lock();
        match s.files.get_mut(path) {
            Some(f) if index < f.data.len() => {
                f.data[index] ^= mask;
                true
            }
            _ => false,
        }
    }

    /// Test hook: truncate a stored file to `len` bytes in place.
    pub fn truncate(&self, path: &Path, len: usize) -> bool {
        let mut s = self.state.lock();
        match s.files.get_mut(path) {
            Some(f) => {
                f.data.truncate(len);
                f.durable_len = f.durable_len.min(len);
                true
            }
            None => false,
        }
    }

    /// Seeded draw for mutating op `op` with a salt separating decision
    /// kinds sharing an index.
    fn draw(&self, op: u64, salt: u64) -> u64 {
        mix(mix(self.profile.seed ^ 0x5354_4F52_4546_4C54, op), salt)
    }

    /// Count a mutating op; `Some(index)` means the crash fires *during*
    /// this op.
    fn next_op(&self, s: &mut FsState) -> Result<(u64, bool), VfsError> {
        if s.crashed {
            return Err(VfsError::Crashed);
        }
        let idx = s.ops;
        s.ops += 1;
        Ok((idx, self.profile.crash_at == Some(idx)))
    }

    /// Resolve the page cache at a crash: every file keeps its durable
    /// prefix plus a seeded prefix of the dirty tail.
    fn resolve_crash(&self, s: &mut FsState, at_op: u64) {
        for (path, f) in s.files.iter_mut() {
            if f.data.len() > f.durable_len {
                let dirty = f.data.len() - f.durable_len;
                let path_h = path
                    .as_os_str()
                    .as_encoded_bytes()
                    .iter()
                    .fold(0u64, |h, &b| mix(h, b as u64));
                let keep = (self.draw(at_op, path_h) % (dirty as u64 + 1)) as usize;
                f.data.truncate(f.durable_len + keep);
            }
            f.durable_len = f.data.len();
        }
        s.crashed = true;
        mako_trace::instant(
            "store",
            "crash",
            vec![mako_trace::field("op", at_op)],
        );
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        let mut s = self.state.lock();
        if s.crashed {
            return Err(VfsError::Crashed);
        }
        let idx = s.reads;
        s.reads += 1;
        let mut bytes = match s.files.get(path) {
            Some(f) => f.data.clone(),
            None => return Err(VfsError::NotFound),
        };
        if self.profile.bitrot_rate > 0.0 && !bytes.is_empty() {
            let h = mix(mix(self.profile.seed ^ 0x4249_5452_4F54_5244, idx), 1);
            if unit(h) < self.profile.bitrot_rate {
                let bit = (mix(h, 2) % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        // Truncate-then-write: the old content is gone the moment the op
        // starts (the adversarial overwrite model).
        let f = s.files.entry(path.to_path_buf()).or_insert(FileBuf {
            data: Vec::new(),
            durable_len: 0,
        });
        f.data.clear();
        f.durable_len = 0;
        if crash {
            let keep = (self.draw(op, 1) % (bytes.len() as u64 + 1)) as usize;
            f.data.extend_from_slice(&bytes[..keep]);
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        if self.profile.write_fault_rate > 0.0 {
            let h = self.draw(op, 3);
            if unit(h) < self.profile.write_fault_rate {
                let written = (mix(h, 4) % (bytes.len() as u64 + 1)) as usize;
                f.data.extend_from_slice(&bytes[..written]);
                return if mix(h, 5) & 1 == 0 {
                    Err(VfsError::NoSpace { written })
                } else {
                    Err(VfsError::Io(format!(
                        "short write: {written} of {} bytes",
                        bytes.len()
                    )))
                };
            }
        }
        f.data.extend_from_slice(bytes);
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        let f = s.files.entry(path.to_path_buf()).or_insert(FileBuf {
            data: Vec::new(),
            durable_len: 0,
        });
        if crash {
            let keep = (self.draw(op, 1) % (bytes.len() as u64 + 1)) as usize;
            f.data.extend_from_slice(&bytes[..keep]);
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        if self.profile.write_fault_rate > 0.0 {
            let h = self.draw(op, 3);
            if unit(h) < self.profile.write_fault_rate {
                let written = (mix(h, 4) % (bytes.len() as u64 + 1)) as usize;
                f.data.extend_from_slice(&bytes[..written]);
                return if mix(h, 5) & 1 == 0 {
                    Err(VfsError::NoSpace { written })
                } else {
                    Err(VfsError::Io(format!(
                        "short write: {written} of {} bytes",
                        bytes.len()
                    )))
                };
            }
        }
        f.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        if crash {
            // Coin: the sync may or may not have reached the platter
            // before the power cut.
            if self.draw(op, 1) & 1 == 0 {
                if let Some(f) = s.files.get_mut(path) {
                    f.durable_len = f.data.len();
                }
            }
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        match s.files.get_mut(path) {
            Some(f) => {
                f.durable_len = f.data.len();
                Ok(())
            }
            None => Err(VfsError::NotFound),
        }
    }

    fn sync_dir(&self, _dir: &Path) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        if crash {
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        if crash {
            // Coin: an interrupted rename either committed or it did not —
            // the sweep sees both outcomes across crash points.
            if self.draw(op, 1) & 1 == 0 {
                if let Some(f) = s.files.remove(from) {
                    s.files.insert(to.to_path_buf(), f);
                }
            }
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        match s.files.remove(from) {
            Some(f) => {
                s.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(VfsError::NotFound),
        }
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        if crash {
            if self.draw(op, 1) & 1 == 0 {
                s.files.remove(path);
            }
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        match s.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(VfsError::NotFound),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock();
        !s.crashed && s.files.contains_key(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, VfsError> {
        let s = self.state.lock();
        if s.crashed {
            return Err(VfsError::Crashed);
        }
        Ok(s.files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        let mut s = self.state.lock();
        let (op, crash) = self.next_op(&mut s)?;
        if crash {
            self.resolve_crash(&mut s, op);
            return Err(VfsError::Crashed);
        }
        s.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    fn recover_crash(&self) {
        // Contents were already resolved to their surviving prefixes when
        // the crash fired; the restart just starts accepting operations.
        self.state.lock().crashed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::write_durable;

    #[test]
    fn unsynced_data_may_tear_at_a_crash_synced_data_never_does() {
        let p = Path::new("/f.bin");
        // Crash at op 2 (the second write); op 0 = write, op 1 = sync.
        let vfs = FaultVfs::new(FaultProfile::crash_at(7, 2));
        vfs.write(p, b"durable!").unwrap();
        vfs.sync(p).unwrap();
        let err = vfs.write(Path::new("/g.bin"), b"lost-or-torn").unwrap_err();
        assert_eq!(err, VfsError::Crashed);
        assert!(vfs.crashed());
        assert_eq!(vfs.read(p), Err(VfsError::Crashed), "dead process reads nothing");
        vfs.recover_crash();
        assert_eq!(vfs.read(p).unwrap(), b"durable!", "synced file intact");
        let g = vfs.raw(Path::new("/g.bin")).unwrap_or_default();
        assert!(
            b"lost-or-torn".starts_with(&g[..]),
            "unsynced file survives only as a prefix, got {g:?}"
        );
    }

    #[test]
    fn crash_points_are_deterministic() {
        let outcome = |seed, at| {
            let vfs = FaultVfs::new(FaultProfile::crash_at(seed, at));
            let p = Path::new("/a");
            let mut log = Vec::new();
            for i in 0..6u8 {
                log.push(vfs.append(p, &[i; 10]).is_ok());
            }
            vfs.recover_crash();
            (log, vfs.raw(p).unwrap_or_default())
        };
        assert_eq!(outcome(3, 4), outcome(3, 4), "same seed+point, same world");
        assert_ne!(
            outcome(3, 1).1.len(),
            outcome(3, 5).1.len(),
            "different crash points leave different prefixes"
        );
    }

    #[test]
    fn write_faults_leave_partial_data_and_typed_errors() {
        let vfs = FaultVfs::new(FaultProfile {
            seed: 11,
            crash_at: None,
            write_fault_rate: 0.5,
            bitrot_rate: 0.0,
        });
        let mut failures = 0;
        for i in 0..64 {
            let p = PathBuf::from(format!("/f{i}"));
            match vfs.write(&p, &[0xAB; 100]) {
                Ok(()) => assert_eq!(vfs.raw(&p).unwrap().len(), 100),
                Err(VfsError::NoSpace { written }) => {
                    failures += 1;
                    assert!(written <= 100);
                    assert_eq!(vfs.raw(&p).unwrap().len(), written, "torn tail visible");
                }
                Err(VfsError::Io(msg)) => {
                    failures += 1;
                    assert!(msg.contains("short write"), "{msg}");
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(failures > 8, "a 50% rate must fire often over 64 draws");
    }

    #[test]
    fn bitrot_flips_exactly_one_bit_sometimes() {
        let vfs = FaultVfs::new(FaultProfile {
            seed: 5,
            crash_at: None,
            write_fault_rate: 0.0,
            bitrot_rate: 0.3,
        });
        let p = Path::new("/rot");
        vfs.write(p, &[0u8; 64]).unwrap();
        let mut rotted = 0;
        for _ in 0..50 {
            let bytes = vfs.read(p).unwrap();
            let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
            assert!(flipped <= 1, "at most one bit per read");
            rotted += (flipped == 1) as usize;
        }
        assert!(rotted > 2, "a 30% rate must rot some reads");
        assert!(rotted < 50, "and not all of them");
    }

    #[test]
    fn durable_write_protocol_survives_every_crash_point() {
        // Seed a v1 artifact (durably), then sweep a crash point through
        // every operation of the v2 save: the recovered file must be
        // exactly v1 or exactly v2, never torn.
        let path = Path::new("/a/ckpt.bin");
        let probe = FaultVfs::quiet();
        probe.create_dir_all(Path::new("/a")).unwrap();
        write_durable(&probe, path, b"version-one").unwrap();
        let before = probe.ops();
        write_durable(&probe, path, b"version-two-longer").unwrap();
        let domain = probe.ops() - before;
        assert!(domain >= 4, "write+sync+rename+dirsync at minimum");
        for k in 0..domain {
            let vfs = FaultVfs::new(FaultProfile::crash_at(k, before + k));
            vfs.create_dir_all(Path::new("/a")).unwrap();
            write_durable(&vfs, path, b"version-one").unwrap();
            let err = write_durable(&vfs, path, b"version-two-longer").unwrap_err();
            assert_eq!(err, VfsError::Crashed, "crash point {k}");
            vfs.recover_crash();
            let got = vfs.read(path).unwrap();
            assert!(
                got == b"version-one" || got == b"version-two-longer",
                "crash point {k} tore the destination: {got:?}"
            );
        }
    }
}
