//! Cross-request artifact promotion: the screening-pair cache.
//!
//! Production traffic is repetitive — the same molecule/basis/device
//! combinations arrive again and again (conformer sweeps, retries, popular
//! systems). Two driver-construction artifacts are worth promoting across
//! requests:
//!
//! * tuned kernel configurations — memoized by the
//!   [`mako_compiler::KernelCache`] the server owns;
//! * the screened shell-pair list — a pure function of (shells, screening
//!   threshold), cached here keyed by the problem inputs that determine it.
//!
//! Both caches only amortize *wall time*: screening and tuning are
//! deterministic, so a cache-served driver is indistinguishable from a
//! freshly built one and the trajectory contract is untouched.

use crate::job::JobSpec;
use mako_accel::DeviceKind;
use mako_chem::BasisFamily;
use mako_eri::mmd::QUARTET_NUMERICS_VERSION;
use mako_eri::screening::ScreenedPair;
use mako_store::mix;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Key of one screening artifact: every input of
/// `mako_eri::screening::build_screened_pairs` for a job, plus the device
/// kind (kept in the key so per-device observability stays separable even
/// though screening itself is device-independent — a collision across
/// devices would merely be a wall-time win, but a per-device key keeps the
/// cache's behavior trivially auditable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Content hash of the molecule geometry (elements + position bits).
    pub molecule: u64,
    /// Basis family (with the molecule, determines the shells).
    pub basis: BasisFamily,
    /// Device kind the job runs on.
    pub device: DeviceKind,
    /// `ScfConfig::screening` bits.
    pub screening: u64,
}

impl ArtifactKey {
    /// The key for one job spec.
    pub(crate) fn for_job(spec: &JobSpec) -> ArtifactKey {
        let mut h = 0x4D41_4B4F_4D4F_4C00u64; // b"MAKOMOL\0"
        for atom in &spec.molecule.atoms {
            h = mix(h, atom.element.z() as u64);
            for &c in &atom.position {
                h = mix(h, c.to_bits());
            }
        }
        ArtifactKey {
            molecule: h,
            basis: spec.basis,
            device: spec.config.device.kind,
            screening: spec.config.screening.to_bits(),
        }
    }

    /// Collapse the key to one u64 — the file-name key of the persistent
    /// [`mako_store::ArtifactStore`]. The artifact holds Schwarz bounds, which
    /// are FP64 quartet values, so the engine's
    /// [`QUARTET_NUMERICS_VERSION`] is part of the key: a store warmed by an
    /// engine whose quartets had other bits misses here and is recomputed,
    /// never adopted.
    pub(crate) fn content_hash(&self) -> u64 {
        mix(self.inputs_hash(), QUARTET_NUMERICS_VERSION)
    }

    /// The screening inputs alone (what `content_hash` was before quartet
    /// numerics had a version). Enum fields enter through explicit stable
    /// codes, not `as` casts of source order, so reordering a variant cannot
    /// silently alias two on-disk artifacts.
    pub(crate) fn inputs_hash(&self) -> u64 {
        let basis = match self.basis {
            BasisFamily::Sto3g => 0u64,
            BasisFamily::Def2TzvpLike => 1,
            BasisFamily::Def2QzvpLike => 2,
            BasisFamily::CcPvtzLike => 3,
            BasisFamily::CcPvqzLike => 4,
        };
        let device = match self.device {
            DeviceKind::A100_40G => 0u64,
            DeviceKind::A100_80G => 1,
            DeviceKind::V100 => 2,
            DeviceKind::H100 => 3,
        };
        let mut h = mix(0x4152_5446_4143_5431, self.molecule);
        h = mix(h, self.screening);
        h = mix(h, basis);
        mix(h, device)
    }
}

struct ScreenMap {
    map: HashMap<ArtifactKey, (u64, Vec<ScreenedPair>)>,
    tick: u64,
}

/// Size-bounded LRU cache of screened shell-pair lists.
pub struct ScreenCache {
    inner: Mutex<ScreenMap>,
    /// Maximum entries.
    capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl ScreenCache {
    /// Empty cache bounded to `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> ScreenCache {
        ScreenCache {
            inner: Mutex::new(ScreenMap {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Look up the pair list for a key, refreshing its recency.
    pub(crate) fn get(&self, key: &ArtifactKey) -> Option<Vec<ScreenedPair>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((last_used, pairs)) => {
                *last_used = tick;
                let pairs = pairs.clone();
                drop(inner);
                let hits = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
                mako_trace::counter("server", "screen_cache.hits", hits as f64);
                Some(pairs)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly screened pair list, evicting the LRU entry when the
    /// bound is hit. Ticks are unique, so the victim is deterministic.
    pub(crate) fn insert(&self, key: ArtifactKey, pairs: Vec<ScreenedPair>) {
        let mut inner = self.inner.lock();
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&victim);
                let ev = self.evictions.fetch_add(1, Ordering::Relaxed) + 1;
                mako_trace::counter("server", "screen_cache.evictions", ev as f64);
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (tick, pairs));
    }

    /// Cached entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound.
    #[cfg(test)]
    pub(crate) fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PriorityClass;
    use mako_chem::builders;

    fn key_for(mol: mako_chem::Molecule) -> ArtifactKey {
        ArtifactKey::for_job(&JobSpec::new("t", PriorityClass::Batch, mol))
    }

    #[test]
    fn key_separates_problems_and_matches_repeats() {
        let a = key_for(builders::water());
        let b = key_for(builders::water());
        assert_eq!(a, b, "same problem, same key");
        assert_ne!(
            a,
            key_for(builders::perturbed_water(7, 1e-4)),
            "a perturbed geometry is a different artifact"
        );
        let mut spec = JobSpec::new("t", PriorityClass::Batch, builders::water());
        spec.basis = BasisFamily::Def2TzvpLike;
        assert_ne!(a, ArtifactKey::for_job(&spec), "basis is part of the key");
    }

    #[test]
    fn lru_bound_holds_and_counts() {
        let cache = ScreenCache::with_capacity(2);
        let (ka, kb, kc) = (
            key_for(builders::water()),
            key_for(builders::methane()),
            key_for(builders::ammonia()),
        );
        cache.insert(ka, Vec::new());
        cache.insert(kb, Vec::new());
        assert!(cache.get(&ka).is_some(), "touch A so B is the victim");
        cache.insert(kc, Vec::new());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&ka).is_some(), "hot entry survived");
        assert!(cache.get(&kb).is_none(), "LRU entry evicted");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }
}
