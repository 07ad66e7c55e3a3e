//! Structural guard for the fused one-electron pass: its heap traffic is per
//! shell pair (component lists, the spherical fold) and per shell row (the
//! reused scratch, the output band), never per primitive pair or per nucleus.
//!
//! A wall-clock assert would flake on a shared host; an allocation count
//! repeats exactly. Counts are per thread and a one-thread pool runs the
//! rows inline, so the harness's own threads cannot disturb them.

use mako_chem::basis::sto3g::sto3g;
use mako_chem::{builders, Molecule, Shell};
use mako_eri::{one_electron_matrices, one_electron_prim_pairs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one upheld; the counter is a
// const-initialized, destructor-free thread-local `Cell`, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

/// Heap allocations of one `one_electron_matrices` call on this thread.
fn allocations(shells: &[Shell], mol: &Molecule) -> usize {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(pool.install(|| one_electron_matrices(shells, mol)));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn allocations_follow_shell_pairs_not_primitive_pairs_times_atoms() {
    let trimer = builders::water_cluster(3);
    let shells = sto3g().shells_for(&trimer);
    let shell_pairs = |n: usize| n * (n + 1) / 2;
    allocations(&shells, &trimer); // fill the per-l component and harmonic caches

    // Two component lists and three two-GEMM folds per shell pair, plus the
    // per-row scratch and bands: under 12 per pair, at either size.
    let base = allocations(&shells, &trimer);
    assert!(base <= 12 * shell_pairs(shells.len()), "{base} allocations");
    let hexamer = builders::water_cluster(6);
    let hexamer_shells = sto3g().shells_for(&hexamer);
    let larger = allocations(&hexamer_shells, &hexamer);
    assert!(
        larger <= 12 * shell_pairs(hexamer_shells.len()),
        "{larger} allocations"
    );
    let (hexamer_prim_pairs, _) = one_electron_prim_pairs(&hexamer_shells);
    assert!(
        8 * larger < hexamer_prim_pairs * hexamer.atoms.len(),
        "{larger} allocations"
    );

    // Three times the nuclei under the same shells: not one allocation more.
    assert_eq!(allocations(&shells, &builders::water_cluster(9)), base);

    // Twice the contraction depth, four times the primitive pairs: the
    // scratch may grow at a different pair of a row, nothing else moves.
    let deeper: Vec<Shell> = shells
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.exps.extend(s.exps.clone().iter().map(|e| 1.3 * e));
            s.coefs.extend(s.coefs.clone());
            s
        })
        .collect();
    assert_eq!(
        one_electron_prim_pairs(&deeper).0,
        4 * one_electron_prim_pairs(&shells).0
    );
    let doubled = allocations(&deeper, &trimer);
    assert!(
        doubled.abs_diff(base) <= shells.len(),
        "{doubled} vs {base} allocations"
    );
}
