//! Structural guard for the checkpoint parser: a length field that claims
//! more than the file holds — with the CRC re-stamped, so the checksum
//! cannot catch it — is rejected as `Truncated` *before* anything is
//! reserved for it. The old private reader accepted any count below 2²⁸
//! and `Vec::with_capacity`'d it first: 2 GiB from a 200-byte file. A
//! property test then edits and truncates a checkpoint at random, again
//! re-stamping the CRC: the parser never panics, stays within the same
//! allocation bound, and whatever it accepts decodes again to itself.
//!
//! Bytes requested from the allocator are counted per thread, so the
//! harness's own threads cannot disturb them.

use mako_accel::{DeviceClock, IterationLedger};
use mako_linalg::Matrix;
use mako_scf::{CarriedState, CheckpointError, Diis, IncrementalState, RestorePoint, ScfCheckpoint};
use mako_store::crc32;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one upheld; the counter is a
// const-initialized, destructor-free thread-local `Cell`, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size()));
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sample() -> ScfCheckpoint {
    let m = |s: f64| Matrix::from_fn(3, 3, |i, j| s * (i as f64 + 0.1 * j as f64));
    // One extrapolation passes the Fock through and leaves one pair in the
    // history.
    let mut diis = Diis::new(8);
    let _ = diis.extrapolate(m(2.0), m(0.01));
    ScfCheckpoint {
        nao: 3,
        n_batches: 7,
        n_quartets: 91,
        problem_hash: 0xDEAD_BEEF_CAFE_F00D,
        next_iteration: 4,
        state: CarriedState {
            point: RestorePoint {
                density: m(1.0),
                e_prev: -74.9629,
                energy: -74.96294,
                residual: 1.25e-5,
                residual_prev: 3.5e-5,
                orbital_energies: vec![-20.24, -1.26, 0.6],
            },
            incremental: IncrementalState {
                j_acc: m(0.5),
                k_acc: m(0.25),
                d_ref: m(0.9),
                since_rebuild: 2,
                drift_bound: 1.5e-13,
                force_rebuild: false,
                was_quantized_phase: true,
            },
            diis,
            clock: DeviceClock::from_ledgers(
                vec![IterationLedger {
                    total_seconds: 1e-3,
                    ..IterationLedger::default()
                }],
                Vec::new(),
            ),
        },
    }
}

#[test]
fn an_inflated_length_is_truncated_without_reserving_for_it() {
    let ck = sample();
    let good = ck.to_bytes();
    assert_eq!(ScfCheckpoint::from_bytes(&good).as_ref(), Ok(&ck));

    // From the front: header, fingerprint, next iteration.
    let density_rows_at = 16 + 32 + 8;
    // Then the 3 × 3 density behind its two dimensions, and four scalars.
    let orbital_len_at = density_rows_at + 16 + 9 * 8 + 4 * 8;
    for (what, at, was, claimed) in [
        ("orbital_energies length", orbital_len_at, 3u64, 1u64 << 24),
        ("density rows", density_rows_at, 3, 1 << 23),
    ] {
        let mut bytes = good.clone();
        assert_eq!(bytes[at..at + 8], was.to_le_bytes(), "{what} is at byte {at}");
        bytes[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
        let crc = crc32(&bytes[16..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());

        let before = BYTES.with(Cell::get);
        let parsed = ScfCheckpoint::from_bytes(&bytes);
        let reserved = BYTES.with(Cell::get) - before;
        assert_eq!(parsed, Err(CheckpointError::Truncated), "{what}");
        assert!(
            reserved <= 4 * bytes.len(),
            "{what} = {claimed}: parsing a {}-byte file requested {reserved} bytes",
            bytes.len()
        );
    }
}

/// Re-stamp the CRC over whatever payload `bytes` now holds, so the parse
/// reaches the structural reader.
fn restamp(bytes: &mut [u8]) {
    if bytes.len() >= 16 {
        let crc = crc32(&bytes[16..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    }
}

proptest! {
    #[test]
    fn an_edited_checkpoint_parses_within_bounds_or_fails_typed(
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 0..8),
        cut in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = sample().to_bytes();
        for (at, byte) in edits {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = byte;
        }
        if truncate {
            bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        }
        restamp(&mut bytes);

        let before = BYTES.with(Cell::get);
        let parsed = ScfCheckpoint::from_bytes(&bytes);
        let requested = BYTES.with(Cell::get) - before;
        prop_assert!(
            requested <= 4 * bytes.len(),
            "parsing a {}-byte file requested {requested} bytes",
            bytes.len()
        );
        if let Ok(ck) = parsed {
            let again = ScfCheckpoint::from_bytes(&ck.to_bytes());
            // An edit can write a NaN, which is not `==` to itself: such a
            // value is the same when its bits are.
            let same = again.as_ref().is_ok_and(|c| *c == ck || c.to_bytes() == ck.to_bytes());
            prop_assert!(same, "{ck:?} decodes again to {again:?}");
        }
    }
}
