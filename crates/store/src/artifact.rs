//! The persistent artifact store: a keyed blob store for expensive
//! derived state (screened shell pairs) that must
//! survive restarts but may *never* be trusted blindly.
//!
//! Every artifact file is
//!
//! ```text
//! [magic "MAKOART1": 8] [key: u64 LE] [len: u32 LE] [crc32(payload): u32 LE] [payload]
//! ```
//!
//! written with the fsync-then-rename discipline of
//! [`crate::write_durable`]. On load, magic, key, length, and CRC are all
//! checked; any mismatch — truncation, bit rot, a foreign file squatting on
//! the name — moves the file aside to `<name>.quarantine` (a rename, so the
//! evidence survives for post-mortems and never shadows the key again) and
//! reports a miss. The caller recomputes and overwrites; a corrupt artifact
//! is therefore an efficiency event, never a correctness event.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::vfs::{write_durable, Vfs, VfsError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"MAKOART1";

/// Why a stored artifact was rejected and quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFault {
    /// File shorter than the fixed header.
    Truncated,
    /// Wrong magic — not an artifact file at all.
    BadMagic,
    /// Header key does not match the requested key.
    WrongKey,
    /// Payload shorter than the header's length field.
    ShortPayload,
    /// Payload fails its CRC — bit rot.
    Corrupt,
    /// The framing validated but the consumer could not decode the payload
    /// (stale or foreign schema) — reported via
    /// [`ArtifactStore::quarantine_undecodable`].
    Undecodable,
}

impl ArtifactFault {
    /// Stable label for trace events.
    pub fn label(&self) -> &'static str {
        match self {
            ArtifactFault::Truncated => "truncated",
            ArtifactFault::BadMagic => "bad_magic",
            ArtifactFault::WrongKey => "wrong_key",
            ArtifactFault::ShortPayload => "short_payload",
            ArtifactFault::Corrupt => "crc_mismatch",
            ArtifactFault::Undecodable => "undecodable",
        }
    }
}

/// A directory of validated, durably-written artifacts on a [`Vfs`].
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    quarantined: Arc<AtomicUsize>,
    loaded: Arc<AtomicUsize>,
    stored: Arc<AtomicUsize>,
}

impl ArtifactStore {
    /// Open (creating the directory if needed) an artifact store rooted at
    /// `root`.
    pub fn open(vfs: Arc<dyn Vfs>, root: PathBuf) -> Result<ArtifactStore, VfsError> {
        vfs.create_dir_all(&root)?;
        Ok(ArtifactStore {
            vfs,
            root,
            quarantined: Arc::new(AtomicUsize::new(0)),
            loaded: Arc::new(AtomicUsize::new(0)),
            stored: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// File path of an artifact: `{kind}-{key:016x}.art`.
    pub fn path_for(&self, kind: &str, key: u64) -> PathBuf {
        self.root.join(format!("{kind}-{key:016x}.art"))
    }

    /// Artifacts moved aside after failing validation.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Successful loads.
    pub fn loaded(&self) -> usize {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Successful stores.
    pub fn stored(&self) -> usize {
        self.stored.load(Ordering::Relaxed)
    }

    /// Durably store `payload` under `(kind, key)`.
    pub fn store(&self, kind: &str, key: u64, payload: &[u8]) -> Result<(), VfsError> {
        let mut out = ByteWriter::with_capacity(24 + payload.len());
        out.bytes(MAGIC);
        out.u64(key);
        out.u32(payload.len() as u32);
        out.u32(crc32(payload));
        out.bytes(payload);
        write_durable(self.vfs.as_ref(), &self.path_for(kind, key), &out.into_bytes())?;
        self.stored.fetch_add(1, Ordering::Relaxed);
        mako_trace::instant(
            "store",
            "artifact",
            vec![
                mako_trace::field("op", "store".to_string()),
                mako_trace::field("kind", kind.to_string()),
            ],
        );
        Ok(())
    }

    /// Load and validate the artifact under `(kind, key)`.
    ///
    /// Returns `Ok(None)` on a plain miss *and* after quarantining an
    /// invalid file — from the caller's view both are "recompute". Only a
    /// live crash surfaces as an error.
    pub fn load(&self, kind: &str, key: u64) -> Result<Option<Vec<u8>>, VfsError> {
        let path = self.path_for(kind, key);
        let bytes = match self.vfs.read(&path) {
            Ok(b) => b,
            Err(VfsError::NotFound) => return Ok(None),
            Err(VfsError::Crashed) => return Err(VfsError::Crashed),
            // A read-level I/O error is treated like a miss: recompute.
            Err(_) => return Ok(None),
        };
        match validate(&bytes, key) {
            Ok(payload) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                mako_trace::instant(
                    "store",
                    "artifact",
                    vec![
                        mako_trace::field("op", "hit".to_string()),
                        mako_trace::field("kind", kind.to_string()),
                    ],
                );
                Ok(Some(payload.to_vec()))
            }
            Err(fault) => {
                self.quarantine(&path, kind, fault)?;
                Ok(None)
            }
        }
    }

    /// Quarantine `(kind, key)` at the caller's request: the framing
    /// validated (magic, key, CRC) but the consumer could not decode the
    /// payload — a stale or foreign schema. Same discipline as an internal
    /// validation failure: move the file aside, count it, trace it.
    pub fn quarantine_undecodable(&self, kind: &str, key: u64) -> Result<(), VfsError> {
        let path = self.path_for(kind, key);
        self.quarantine(&path, kind, ArtifactFault::Undecodable)
    }

    /// Move a failed artifact aside so it never shadows its key again.
    fn quarantine(&self, path: &Path, kind: &str, fault: ArtifactFault) -> Result<(), VfsError> {
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".quarantine");
        let aside = path.with_file_name(name);
        match self.vfs.rename(path, &aside) {
            Ok(()) | Err(VfsError::NotFound) => {}
            Err(VfsError::Crashed) => return Err(VfsError::Crashed),
            // If the rename itself fails, fall back to removal: shadowing
            // the key with a corrupt file is the one unacceptable outcome.
            Err(_) => {
                let _ = self.vfs.remove(path);
            }
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        mako_trace::instant(
            "store",
            "quarantine",
            vec![
                mako_trace::field("kind", kind.to_string()),
                mako_trace::field("fault", fault.label().to_string()),
            ],
        );
        Ok(())
    }
}

/// Validate raw artifact bytes against the expected key; returns the
/// payload slice on success.
pub fn validate(bytes: &[u8], key: u64) -> Result<&[u8], ArtifactFault> {
    let mut r = ByteReader::new(bytes);
    let (Some(magic), Some(stored_key), Some(len), Some(crc)) =
        (r.take(8), r.u64(), r.u32(), r.u32())
    else {
        return Err(ArtifactFault::Truncated);
    };
    if magic != MAGIC {
        return Err(ArtifactFault::BadMagic);
    }
    if stored_key != key {
        return Err(ArtifactFault::WrongKey);
    }
    let payload = r.take(len as usize).ok_or(ArtifactFault::ShortPayload)?;
    if crc32(payload) != crc {
        return Err(ArtifactFault::Corrupt);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultVfs;

    fn fresh() -> (Arc<FaultVfs>, ArtifactStore) {
        let vfs = Arc::new(FaultVfs::quiet());
        let store =
            ArtifactStore::open(vfs.clone(), PathBuf::from("/art")).expect("open");
        (vfs, store)
    }

    #[test]
    fn roundtrip_and_miss() {
        let (_vfs, store) = fresh();
        assert_eq!(store.load("screen", 42).unwrap(), None);
        store.store("screen", 42, b"payload-bytes").unwrap();
        assert_eq!(store.load("screen", 42).unwrap(), Some(b"payload-bytes".to_vec()));
        assert_eq!(store.loaded(), 1);
        assert_eq!(store.quarantined(), 0);
    }

    #[test]
    fn every_corruption_mode_quarantines_and_reports_a_miss() {
        let (vfs, store) = fresh();
        let key = 0xDEAD_BEEFu64;
        let payload: Vec<u8> = (0..200u8).collect();
        let path = store.path_for("screen", key);

        // Bit rot in the payload.
        store.store("screen", key, &payload).unwrap();
        assert!(vfs.corrupt(&path, 24 + 100, 0x04));
        assert_eq!(store.load("screen", key).unwrap(), None, "rot must not be consumed");
        assert!(!vfs.exists(&path), "rotted file moved aside");
        assert!(
            vfs.raw(&path.with_file_name("screen-00000000deadbeef.art.quarantine"))
                .is_some(),
            "evidence preserved"
        );

        // Truncation inside the payload.
        store.store("screen", key, &payload).unwrap();
        assert!(vfs.truncate(&path, 24 + 50));
        assert_eq!(store.load("screen", key).unwrap(), None);

        // Truncation inside the header.
        store.store("screen", key, &payload).unwrap();
        assert!(vfs.truncate(&path, 10));
        assert_eq!(store.load("screen", key).unwrap(), None);

        // Foreign file squatting on the name.
        vfs.write(&path, b"not an artifact at all").unwrap();
        assert_eq!(store.load("screen", key).unwrap(), None);

        // Wrong key (a file written for another key copied over).
        store.store("screen", key, &payload).unwrap();
        assert!(vfs.corrupt(&path, 8, 0xFF), "mangle the stored key field");
        assert_eq!(store.load("screen", key).unwrap(), None);

        assert_eq!(store.quarantined(), 5);

        // After each quarantine, a store+load works again.
        store.store("screen", key, &payload).unwrap();
        assert_eq!(store.load("screen", key).unwrap(), Some(payload));
    }

    #[test]
    fn validate_covers_every_fault_variant() {
        let (vfs, store) = fresh();
        store.store("k", 7, b"abc").unwrap();
        let good = vfs.raw(&store.path_for("k", 7)).unwrap();
        assert_eq!(validate(&good, 7).unwrap(), b"abc");
        assert_eq!(validate(&good[..20], 7), Err(ArtifactFault::Truncated));
        assert_eq!(validate(&good, 8), Err(ArtifactFault::WrongKey));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 1;
        assert_eq!(validate(&bad_magic, 7), Err(ArtifactFault::BadMagic));
        let mut rot = good.clone();
        *rot.last_mut().unwrap() ^= 0x80;
        assert_eq!(validate(&rot, 7), Err(ArtifactFault::Corrupt));
        assert_eq!(validate(&good[..25], 7), Err(ArtifactFault::ShortPayload));
    }
}
