//! Bounded memory for the XC layer, on `scf_dft_quant`'s system (water
//! trimer, STO-3G, the (40, 12) grid of 48 167 points): the tabulated AOs
//! keep only each block's non-zero columns, and `evaluate_xc` allocates
//! nothing larger than a block. Before the blocked pass the AOs were four
//! dense `npts × nao` matrices (68 MB on the unpruned grid's 101 132 points)
//! and `evaluate_xc` allocated a 17 MB `npts × nao` workspace per call.
//!
//! Bytes are counted per thread, so the harness's own threads cannot
//! disturb them.

use mako_chem::basis::sto3g::sto3g;
use mako_chem::builders;
use mako_linalg::Matrix;
use mako_scf::grid::MolecularGrid;
use mako_scf::xc::{b3lyp, evaluate_aos, evaluate_xc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated minus bytes freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest single allocation since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one upheld; the counters are
// const-initialized, destructor-free thread-local `Cell`s, so touching them
// neither allocates nor re-enters the allocator. `realloc` keeps its default
// (alloc, copy, dealloc through these methods), so it is counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|c| c.set(c.get() + layout.size() as isize));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn the_blocked_xc_pass_holds_a_screened_tabulation_and_allocates_at_most_a_block() {
    let mol = builders::water_cluster(3);
    let shells = sto3g().shells_for(&mol);
    let grid = MolecularGrid::build(&mol, 40, 12);

    let before = LIVE.with(Cell::get);
    let aos = evaluate_aos(&shells, &grid);
    let held = (LIVE.with(Cell::get) - before) as usize;
    let nao = aos.nao();
    let dense = 4 * grid.len() * nao * 8;
    let report = format!(
        "AoOnGrid holds {held} bytes, {:.4} of the dense {dense}; kept fraction {:.4}",
        held as f64 / dense as f64,
        aos.kept_frac()
    );
    // The heap is the kept columns (0.817 of the dense tabulation on this
    // grid, an exact-zero screen can drop no more) plus < 1 % bookkeeping.
    // The grid prunes mostly far points, whose columns were zero anyway, so
    // the kept fraction rose from the unpruned grid's 0.794; the cap in
    // bytes holds the grid's size too (26.4 MB, the unpruned grid 54 MB).
    assert!(50 * held <= 41 * dense, "{report}");
    assert!(held <= 28_000_000, "{report}");
    assert!(held as f64 <= 1.01 * aos.kept_frac() * dense as f64, "{report}");

    let d = Matrix::from_fn(nao, nao, |i, j| 0.1 / (1.0 + (i as f64 - j as f64).abs()));
    LARGEST.with(|c| c.set(0));
    let res = evaluate_xc(&b3lyp(), &aos, &grid, &d);
    let largest = LARGEST.with(Cell::get);
    assert!(res.energy < 0.0 && res.n_electrons > 0.0);
    assert!(
        largest < 1 << 20,
        "evaluate_xc made a {largest}-byte allocation ({} points, {nao} AOs)",
        grid.len()
    );
}
