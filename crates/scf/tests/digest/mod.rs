//! FNV-1a digest shared by the pin suites (`fock_seam_pin.rs`,
//! `trajectory_pin.rs`): every pinned value goes in as little-endian `u64`
//! words, floats through `to_bits`.
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

    pub fn stats(&mut self, st: &FockBuildStats) {
        for count in [
            st.fp64_quartets,
            st.quantized_quartets,
            st.pruned_quartets,
            st.skipped_quartets,
        ] {
            self.word(count as u64);
        }
        self.floats(&[st.skipped_bound, st.device_seconds]);
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
