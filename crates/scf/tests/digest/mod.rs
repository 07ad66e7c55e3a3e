//! FNV-1a digest shared by the pin suites (`fock_seam_pin.rs`,
//! `trajectory_pin.rs`): every pinned value goes in as little-endian `u64`
//! words, floats through `to_bits`.
//!
//! Every pinned row is a [`Pin`]: an *exact* half — counts, device-clock
//! seconds, ledgers; functions of the schedule and the pricing model alone —
//! and a *float* half — whatever is computed from integral values (J, K,
//! densities, energies, and the Schwarz-bound sums `skipped_bound`). A change
//! of FP64 summation order or of the Boys evaluator regenerates the float
//! half and may not touch the exact one.
#![allow(dead_code)]

use mako_accel::fault::RecoveryLedger;
use mako_scf::fock::FockBuildStats;

pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// The exact part of `st`: everything but `skipped_bound`, which is a sum
    /// of Schwarz-bound products and belongs to the float half.
    pub fn stats(&mut self, st: &FockBuildStats) {
        for count in [
            st.fp64_quartets,
            st.quantized_quartets,
            st.pruned_quartets,
            st.skipped_quartets,
        ] {
            self.word(count as u64);
        }
        self.floats(&[st.device_seconds]);
    }

    pub fn ledger(&mut self, l: &RecoveryLedger) {
        for count in [
            l.transient_retries,
            l.straggler_ranks,
            l.stolen_batches,
            l.rerun_batches,
            l.ranks_lost,
            l.allreduce_retries,
            l.checkpoint_saves,
            l.checkpoint_loads,
        ] {
            self.word(count as u64);
        }
        self.floats(&[l.backoff_seconds, l.fault_free_seconds, l.degraded_seconds]);
    }
}

/// One pinned row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Counts, device seconds, ledgers.
    pub exact: u64,
    /// Values computed from the integrals.
    pub float: u64,
}

impl Pin {
    /// Fails naming the half that moved and printing the replacement row.
    #[track_caller]
    pub fn assert_eq(self, want: Pin, name: &str) {
        let row = format!(
            "const {name}: Pin = Pin {{ exact: {:#018x}, float: {:#018x} }};",
            self.exact, self.float
        );
        assert_eq!(self.exact, want.exact, "{name}: the EXACT half moved: {row}");
        assert_eq!(self.float, want.float, "{name}: the float half moved: {row}");
    }
}
