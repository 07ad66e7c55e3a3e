//! Threadblock occupancy model.
//!
//! CompilerMako's Reuse-Guided Planning enforces `S(F) ≤ SMEM_max / 2` so at
//! least two threadblocks stay resident per SM (paper Eq. 13), preserving the
//! warp-scheduler's ability to hide latency. This module computes residency
//! and the throughput fraction the cost model applies.

use crate::device::DeviceSpec;

/// Number of threadblocks resident per SM given the block's shared-memory
/// footprint and thread count. Returns 0 when the block cannot launch at all
/// (footprint exceeds the SM).
pub(crate) fn blocks_per_sm(
    device: &DeviceSpec,
    smem_per_block: usize,
    threads_per_block: usize,
) -> usize {
    if smem_per_block > device.smem_per_sm || threads_per_block == 0 {
        return 0;
    }
    let by_smem = device
        .smem_per_sm
        .checked_div(smem_per_block)
        .unwrap_or(usize::MAX);
    let by_threads = device.max_threads_per_sm / threads_per_block.max(1);
    by_smem.min(by_threads).min(32)
}

/// Occupancy as the fraction of the SM's thread capacity kept busy.
pub(crate) fn occupancy_fraction(
    device: &DeviceSpec,
    smem_per_block: usize,
    threads_per_block: usize,
) -> f64 {
    let blocks = blocks_per_sm(device, smem_per_block, threads_per_block);
    if blocks == 0 {
        return 0.0;
    }
    ((blocks * threads_per_block) as f64 / device.max_threads_per_sm as f64).min(1.0)
}

/// Throughput fraction achieved at a given occupancy.
///
/// Empirically, tensor-core GEMMs reach near-peak throughput once ~50%
/// occupancy provides enough warps to hide latency; below that, throughput
/// degrades roughly linearly. This is the mapping the cost model applies.
pub(crate) fn throughput_fraction(occupancy: f64) -> f64 {
    if occupancy <= 0.0 {
        0.0
    } else if occupancy >= 0.5 {
        1.0
    } else {
        0.25 + 1.5 * occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    #[test]
    fn half_smem_gives_two_blocks() {
        let d = DeviceSpec::a100();
        // Exactly the paper's constraint: S(F) = SMEM/2 → 2 resident blocks.
        let b = blocks_per_sm(&d, d.smem_per_sm / 2, 256);
        assert_eq!(b, 2);
    }

    #[test]
    fn oversized_block_cannot_launch() {
        let d = DeviceSpec::a100();
        assert_eq!(blocks_per_sm(&d, d.smem_per_sm + 1, 256), 0);
        assert_eq!(occupancy_fraction(&d, d.smem_per_sm + 1, 256), 0.0);
    }

    #[test]
    fn zero_smem_is_thread_limited() {
        let d = DeviceSpec::a100();
        assert_eq!(blocks_per_sm(&d, 0, 256), 8); // 2048 / 256
        assert_eq!(occupancy_fraction(&d, 0, 256), 1.0);
    }

    #[test]
    fn occupancy_monotone_in_smem() {
        let d = DeviceSpec::a100();
        let mut prev = f64::INFINITY;
        for smem in [8 * 1024, 32 * 1024, 64 * 1024, 128 * 1024] {
            let o = occupancy_fraction(&d, smem, 128);
            assert!(o <= prev + 1e-12);
            prev = o;
        }
    }

    #[test]
    fn throughput_saturates_at_half_occupancy() {
        assert_eq!(throughput_fraction(0.5), 1.0);
        assert_eq!(throughput_fraction(0.9), 1.0);
        assert!(throughput_fraction(0.1) < throughput_fraction(0.3));
        assert_eq!(throughput_fraction(0.0), 0.0);
    }
}
