//! Typed error taxonomy of the SCF stack.
//!
//! Library crates must never panic on anomalies a production service has to
//! survive (ROADMAP north-star): a non-positive-definite overlap, an
//! eigensolver that ran out of iterations, a cluster with no rank left, a
//! corrupt checkpoint. Those conditions surface here as typed errors the
//! caller can match on; binaries and tests may still `expect` at the top
//! level, where aborting is the right answer.

use mako_chem::BasisError;
use mako_linalg::LinalgError;

/// Failure of a (possibly fault-tolerant) distributed Fock build.
#[derive(Debug, Clone, PartialEq)]
pub enum FockBuildError {
    /// The build was invoked with zero ranks.
    NoRanks,
    /// Every rank in the fault plan died — there is no survivor to re-run
    /// the lost work on. `ranks` is the cluster size.
    AllRanksLost {
        /// Total ranks in the plan, all of which were lost.
        ranks: usize,
    },
}

impl std::fmt::Display for FockBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FockBuildError::NoRanks => write!(f, "distributed Fock build needs at least one rank"),
            FockBuildError::AllRanksLost { ranks } => {
                write!(f, "all {ranks} ranks were permanently lost; no survivor to recover on")
            }
        }
    }
}

impl std::error::Error for FockBuildError {}

/// Failure to save or restore an SCF checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem error (message carried as a string so the error stays
    /// `Clone`/`PartialEq`).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file ended mid-record or a length field is inconsistent.
    Truncated,
    /// The payload fails its CRC-32: bit rot or a torn overwrite. The
    /// fingerprint cannot catch this (a flipped density bit changes no
    /// fingerprint field), so v3 checksums the whole payload.
    Corrupt {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// The checkpoint was written by a run with different inputs (basis
    /// size, batch population, …) and cannot resume this one.
    Mismatch {
        /// Which fingerprint field disagreed.
        field: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a Mako SCF checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "checkpoint format version {found} is not supported")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated or corrupt"),
            CheckpointError::Corrupt { expected, actual } => write!(
                f,
                "checkpoint payload fails CRC-32 (header {expected:08x}, payload {actual:08x}) — bit rot or torn write"
            ),
            CheckpointError::Mismatch { field } => {
                write!(f, "checkpoint does not match this run: {field} differs")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e.to_string())
    }
}

/// Where in the iteration a non-finite value was first detected — the
/// containment checks run at fixed assembly points (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFiniteStage {
    /// NaN/Inf in the Coulomb matrix J after the ERI build.
    Coulomb,
    /// NaN/Inf in the exchange matrix K after the ERI build.
    Exchange,
    /// NaN/Inf in the assembled Fock matrix (or the DIIS extrapolate).
    Fock,
    /// The total energy evaluated to NaN/Inf.
    Energy,
    /// NaN/Inf in the density formed from the diagonalization.
    Density,
}

impl NonFiniteStage {
    /// Stable lowercase label (trace fields).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            NonFiniteStage::Coulomb => "coulomb",
            NonFiniteStage::Exchange => "exchange",
            NonFiniteStage::Fock => "fock",
            NonFiniteStage::Energy => "energy",
            NonFiniteStage::Density => "density",
        }
    }
}

impl std::fmt::Display for NonFiniteStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NonFiniteStage::Coulomb => "Coulomb matrix",
            NonFiniteStage::Exchange => "exchange matrix",
            NonFiniteStage::Fock => "Fock matrix",
            NonFiniteStage::Energy => "total energy",
            NonFiniteStage::Density => "density matrix",
        };
        f.write_str(name)
    }
}

/// Failure of an SCF run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScfError {
    /// The overlap matrix is not positive definite (linearly dependent
    /// basis), so no orthonormalizer exists.
    OverlapNotPositiveDefinite {
        /// The underlying factorization failure.
        source: LinalgError,
    },
    /// Fock diagonalization failed during an iteration.
    Diagonalization {
        /// Iteration at which the eigensolver failed (0-based; the initial
        /// core-Hamiltonian guess reports iteration 0).
        iteration: usize,
        /// The underlying eigensolver failure.
        source: LinalgError,
    },
    /// The molecule has no atoms, so there is no basis to run on.
    NoAtoms,
    /// Two atoms sit at one position, so the nuclear repulsion is infinite.
    CoincidentAtoms {
        /// Index of the first of the two atoms.
        first: usize,
        /// Index of the second, `> first`.
        second: usize,
    },
    /// A Kohn–Sham run's integration grid has no points, so the XC terms
    /// would silently drop out of the energy and the Fock matrix.
    EmptyGrid {
        /// Radial shells per atom requested (`ScfConfig::grid.0`).
        radial: usize,
        /// Angular rule size requested (`ScfConfig::grid.1`).
        angular: usize,
    },
    /// The restricted driver was given an open-shell electron count.
    OpenShell {
        /// Electron count of the molecule.
        electrons: usize,
    },
    /// The basis set cannot be instantiated on the molecule (e.g. an
    /// element the set does not cover).
    Basis(BasisError),
    /// A distributed Fock build failed unrecoverably.
    FockBuild(FockBuildError),
    /// Checkpoint save or restore failed.
    Checkpoint(CheckpointError),
    /// The run was deliberately killed after `iterations` completed
    /// iterations (the chaos harness's mid-trajectory kill); the latest
    /// checkpoint, if any, carries the state to resume from.
    Killed {
        /// Completed iterations before the kill.
        iterations: usize,
    },
    /// A NaN/Inf poisoned the iteration and could not be contained (rescue
    /// disabled, no good checkpoint to roll back to, or the single rollback
    /// already spent). Garbage is never allowed to propagate silently.
    NonFinite {
        /// Iteration at which the non-finite value was detected.
        iteration: usize,
        /// Assembly point where it was first seen.
        stage: NonFiniteStage,
    },
}

impl std::fmt::Display for ScfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScfError::OverlapNotPositiveDefinite { source } => {
                write!(f, "overlap matrix is not positive definite: {source}")
            }
            ScfError::Diagonalization { iteration, source } => {
                write!(f, "Fock diagonalization failed at iteration {iteration}: {source}")
            }
            ScfError::NoAtoms => f.write_str("the molecule has no atoms"),
            ScfError::CoincidentAtoms { first, second } => {
                write!(f, "atoms {first} and {second} are at the same position")
            }
            ScfError::EmptyGrid { radial, angular } => {
                write!(f, "the DFT grid ({radial}, {angular}) has no points")
            }
            ScfError::OpenShell { electrons } => {
                write!(f, "restricted driver requires a closed shell ({electrons} electrons)")
            }
            ScfError::Basis(e) => write!(f, "basis instantiation failed: {e}"),
            ScfError::FockBuild(e) => write!(f, "distributed Fock build failed: {e}"),
            ScfError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            ScfError::Killed { iterations } => {
                write!(f, "run killed after {iterations} iterations (chaos harness)")
            }
            ScfError::NonFinite { iteration, stage } => {
                write!(f, "non-finite {stage} at iteration {iteration} (uncontained)")
            }
        }
    }
}

impl std::error::Error for ScfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScfError::OverlapNotPositiveDefinite { source }
            | ScfError::Diagonalization { source, .. } => Some(source),
            ScfError::Basis(e) => Some(e),
            ScfError::FockBuild(e) => Some(e),
            ScfError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FockBuildError> for ScfError {
    fn from(e: FockBuildError) -> ScfError {
        ScfError::FockBuild(e)
    }
}

impl From<CheckpointError> for ScfError {
    fn from(e: CheckpointError) -> ScfError {
        ScfError::Checkpoint(e)
    }
}

impl From<BasisError> for ScfError {
    fn from(e: BasisError) -> ScfError {
        ScfError::Basis(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ScfError::Diagonalization {
            iteration: 7,
            source: LinalgError::NoConvergence { index: 3 },
        };
        let msg = e.to_string();
        assert!(msg.contains("iteration 7"), "{msg}");
        assert!(msg.contains("index 3"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());

        let f: ScfError = FockBuildError::AllRanksLost { ranks: 4 }.into();
        assert!(f.to_string().contains("all 4 ranks"), "{f}");

        let c: ScfError = CheckpointError::UnsupportedVersion { found: 99 }.into();
        assert!(c.to_string().contains("version 99"), "{c}");

        let n = ScfError::NonFinite {
            iteration: 4,
            stage: NonFiniteStage::Coulomb,
        };
        let msg = n.to_string();
        assert!(msg.contains("Coulomb"), "{msg}");
        assert!(msg.contains("iteration 4"), "{msg}");
    }
}
