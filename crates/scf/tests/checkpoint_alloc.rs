//! Structural guard for the checkpoint parser: a length field that claims
//! more than the file holds — with the CRC re-stamped, so the checksum
//! cannot catch it — is rejected as `Truncated` *before* anything is
//! reserved for it. The old private reader accepted any count below 2²⁸
//! and `Vec::with_capacity`'d it first: 2 GiB from a 200-byte file.
//!
//! Bytes requested from the allocator are counted per thread, so the
//! harness's own threads cannot disturb them.

use mako_linalg::Matrix;
use mako_scf::{CheckpointError, DiisSnapshot, FockBuildStats, ScfCheckpoint};
use mako_store::crc32;
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
            focks: vec![m(2.0)],
            errors: vec![m(0.01)],
        },
        orbital_energies: vec![-20.24, -1.26, 0.6],
        iteration_seconds: vec![1e-3],
        stats: FockBuildStats::default(),
        ledgers: Vec::new(),
        recoveries: Vec::new(),
    }
}

#[test]
fn an_inflated_length_is_truncated_without_reserving_for_it() {
    let ck = sample();
    let good = ck.to_bytes();
    assert_eq!(ScfCheckpoint::from_bytes(&good).as_ref(), Ok(&ck));

    // From the back: two empty ledger counts, the 48-byte stats block, one
    // iteration second and three orbital energies, each behind a u64 length.
    let orbital_len_at = good.len() - 8 - 8 - 48 - (8 + 8) - (8 + 3 * 8);
    // From the front: header, fingerprint, eight scalars, the flags byte.
    let density_rows_at = 16 + 32 + 7 * 8 + 1;
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
