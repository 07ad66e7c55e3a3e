//! Packed-tile GEMM microkernel engine (BLIS/Goto 5-loop scheme).
//!
//! This module is the host-side analogue of the paper's thesis applied to the
//! CPU: every hot contraction becomes a dense register-tile matmul over
//! *packed* operand panels, driven by a fixed cache-blocking schedule and an
//! `MR × NR` microkernel selected once at startup (AVX2 on capable `x86_64`
//! hosts, an unrolled generic-Rust kernel everywhere else).
//!
//! # Blocking scheme
//!
//! The classic five loops around the microkernel, with parameters chosen for
//! commodity L1/L2/L3 sizes:
//!
//! ```text
//! Loop 5  jc over N in steps of NC (=512)   — B column panel        (L3)
//! Loop 4  pc over K in steps of KC (=256)   — pack B[pc, jc] K-panel (L2)
//! Loop 3  ic over M in steps of MC (=128)   — pack A[ic, pc] block   (L1)
//! Loop 2  jr over NC in steps of NR (=8)    — B micro-panel strip
//! Loop 1  ir over MC in steps of MR (=4)    — A micro-panel strip
//! Loop 0  microkernel: MR×NR register tile over the KC depth
//! ```
//!
//! # Packed panel layout
//!
//! `pack_a_block` stores `op(A)` (with `alpha` folded in) as row-strips of
//! height `MR`, each strip K-major: element `(p, i)` of strip `s` lives at
//! `s·(MR·kc) + p·MR + i` and holds `alpha · op(A)[r0 + s·MR + i, pc + p]`.
//! `pack_b_block` stores `op(B)` as column-strips of width `NR`, each strip
//! K-major: element `(p, j)` of strip `t` lives at `t·(NR·kc) + p·NR + j` and
//! holds `op(B)[pc + p, jc + t·NR + j]`. Edge strips (`m % MR`, `n % NR`) are
//! zero-padded so the microkernel always runs full-width; padded lanes are
//! discarded at writeback.
//!
//! # Small path
//!
//! An output of at most `SMALL_MN` elements or `SMALL_ROWS` rows at depth
//! `k ≤ KC` (every quartet transform at STO-3G, 1×9×9 … 9×90×90) skips
//! packing: a register
//! tile of several output elements' chains runs side by side over operands
//! read in place through their strides, so the chains' adds overlap instead
//! of each waiting on its own previous add. The portable nest
//! (`small_direct`) runs 1×4 tiles (4×1 for a one-column output, one
//! chain for a single element); the AVX2 kernel runs R×8 tiles with masked loads when `op(B)`'s rows are
//! contiguous and `n ≥ 4`, and the portable nest otherwise. Both run each
//! element's chain in the packed path's operation order, so which path a
//! shape takes never changes a bit.
//!
//! # Determinism contract
//!
//! Results are **bitwise identical** across thread counts and across kernel
//! choices at the same `(MR, NR, KC)`:
//!
//! * Each output element `C[i,j]` is produced by a private accumulator chain
//!   `acc += a[i,p] * b[p,j]` in strictly ascending `p` within a K-panel —
//!   SIMD lanes hold *distinct* output columns, so vector width never changes
//!   any element's operation sequence and no horizontal sums exist.
//! * Both kernels use separate multiply-then-add (never FMA): a fused
//!   multiply-add rounds once where mul+add rounds twice, so mixing them
//!   would break generic-vs-AVX2 bitwise identity.
//! * K-panels are accumulated into `C` in ascending `pc` order; the panel
//!   boundaries (`KC`) are compile-time constants, so the grouping of the
//!   reduction is independent of shape, threads, and kernel.
//!
//! # Dispatch
//!
//! [`selected_kernel`] probes `is_x86_feature_detected!("avx2")` once (cached
//! in a `OnceLock`) and emits a `kernel.dispatch` trace instant. The choice
//! can be overridden with `MAKO_KERNEL=generic|avx2`; requesting `avx2` on a
//! host without it falls back to generic (recorded in the dispatch reason).

// Tile and band ABIs are inherently wide (pointer, stride, two panels,
// depth, tile extent, scale): grouping them into structs would add packing
// overhead to the hottest call boundary in the crate for no clarity gain.
#![allow(clippy::too_many_arguments)]

use crate::gemm::Transpose;
use crate::Matrix;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Microkernel tile height (rows of C per register tile).
pub const MR: usize = 4;
/// Microkernel tile width (columns of C per register tile).
pub const NR: usize = 8;
/// K-panel depth (Loop 4 step): bounds the reduction chunk accumulated per
/// writeback, and is therefore part of the determinism contract.
pub const KC: usize = 256;
/// Row-block height (Loop 3 step).
pub(crate) const MC: usize = 128;
/// Column-panel width (Loop 5 step).
pub(crate) const NC: usize = 512;
/// Largest `m·n` output routed to the small path (with `k ≤ KC`). A speed
/// choice only: the small path is bitwise identical to the packed one (see
/// [`small_direct`]), so moving it never changes a result. The packed 4×8
/// tile wins from ~16 rows on (24×24×24: 26 against 20 Gflop/s), so raising
/// this would slow small square GEMMs elsewhere.
const SMALL_MN: usize = 4 * MR * NR;
/// Outputs of at most this many rows take the small path at any column
/// count (with `k ≤ KC`): measured on AVX2, the small tiles win up to ~9
/// rows at any `n`. With [`SMALL_MN`] this covers every STO-3G quartet
/// transform, 3 rows against 50–90 ket columns and 9 rows against 20–90
/// included.
const SMALL_ROWS: usize = 9;

/// Which microkernel implementation the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelId {
    /// Portable unrolled Rust kernel (autovectorizes; the bitwise reference).
    Generic,
    /// `x86_64` AVX2 kernel (`_mm256_mul_pd` + `_mm256_add_pd`, no FMA).
    Avx2,
}

impl KernelId {
    /// Stable lowercase name (`"generic"` / `"avx2"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelId::Generic => "generic",
            KernelId::Avx2 => "avx2",
        }
    }
}

/// Resolve the kernel choice from an optional `MAKO_KERNEL` override and the
/// host's AVX2 capability. Pure so the policy is unit-testable; returns the
/// choice and a human-readable reason for the `kernel.dispatch` event.
pub(crate) fn choose_kernel(
    env_override: Option<&str>,
    avx2_available: bool,
) -> (KernelId, &'static str) {
    match env_override {
        Some("generic") => (KernelId::Generic, "MAKO_KERNEL=generic override"),
        Some("avx2") => {
            if avx2_available {
                (KernelId::Avx2, "MAKO_KERNEL=avx2 override")
            } else {
                (
                    KernelId::Generic,
                    "MAKO_KERNEL=avx2 requested but host lacks avx2",
                )
            }
        }
        Some(_) => {
            if avx2_available {
                (
                    KernelId::Avx2,
                    "unknown MAKO_KERNEL value ignored; detected avx2",
                )
            } else {
                (
                    KernelId::Generic,
                    "unknown MAKO_KERNEL value ignored; no avx2",
                )
            }
        }
        None => {
            if avx2_available {
                (KernelId::Avx2, "detected avx2")
            } else {
                (KernelId::Generic, "no avx2 on host")
            }
        }
    }
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel the engine dispatches to, selected once per process.
pub fn selected_kernel() -> KernelId {
    static SELECTED: OnceLock<KernelId> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        let over = std::env::var("MAKO_KERNEL").ok();
        let avx2 = avx2_available();
        let (id, reason) = choose_kernel(over.as_deref(), avx2);
        mako_trace::instant(
            "kernel",
            "dispatch",
            vec![
                mako_trace::field("kernel", id.name()),
                mako_trace::field("avx2_available", avx2),
                mako_trace::field("reason", reason),
            ],
        );
        id
    })
}

/// Name of the dispatched kernel (`"generic"` / `"avx2"`).
pub fn kernel_name() -> &'static str {
    selected_kernel().name()
}

// ---------------------------------------------------------------------------
// Operand views
// ---------------------------------------------------------------------------

/// A borrowed row-major operand with an optional logical transpose.
///
/// `rows`/`cols` are the *logical* (post-transpose) dimensions: `at(i, j)`
/// always reads `op(A)[i, j]`.
#[derive(Clone, Copy)]
pub struct View<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    trans: bool,
}

impl<'a> View<'a> {
    /// View a raw row-major `stored_rows × stored_cols` slice, optionally
    /// transposed. Panics if the slice is too short.
    pub(crate) fn new(
        data: &'a [f64],
        stored_rows: usize,
        stored_cols: usize,
        t: Transpose,
    ) -> View<'a> {
        assert!(
            data.len() >= stored_rows * stored_cols,
            "view buffer too short"
        );
        match t {
            Transpose::No => View {
                data,
                rows: stored_rows,
                cols: stored_cols,
                trans: false,
            },
            Transpose::Yes => View {
                data,
                rows: stored_cols,
                cols: stored_rows,
                trans: true,
            },
        }
    }

    /// View of `op(m)`.
    pub fn of(m: &'a Matrix, t: Transpose) -> View<'a> {
        View::new(m.as_slice(), m.rows(), m.cols(), t)
    }

    /// Logical row count of `op(A)`.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count of `op(A)`.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `(row, column)` strides of `op(A)` in `data`.
    #[inline(always)]
    fn strides(&self) -> (usize, usize) {
        if self.trans {
            (1, self.rows)
        } else {
            (self.cols, 1)
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        if self.trans {
            self.data[j * self.rows + i]
        } else {
            self.data[i * self.cols + j]
        }
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Rounded-up strip count times strip stride: packed length for an `h`-row
/// (`w`-col) block at depth `kc`.
fn packed_len(span: usize, strip: usize, kc: usize) -> usize {
    span.div_ceil(strip) * strip * kc
}

/// Pack the block `op(A)[rows, depth]`, scaled by `alpha`, into MR-high
/// K-major strips (layout documented at module level). `out` must hold at
/// least `packed_len(rows.len(), MR, depth.len())` elements; edge rows
/// are zero-padded.
pub fn pack_a_block(
    out: &mut [f64],
    a: &View<'_>,
    rows: std::ops::Range<usize>,
    depth: std::ops::Range<usize>,
    alpha: f64,
) {
    let mut dst = 0;
    let mut r0 = rows.start;
    while r0 < rows.end {
        let h = MR.min(rows.end - r0);
        for p in depth.clone() {
            for i in 0..MR {
                out[dst] = if i < h { alpha * a.at(r0 + i, p) } else { 0.0 };
                dst += 1;
            }
        }
        r0 += MR;
    }
}

/// Pack the block `op(B)[depth, cols]` into NR-wide K-major strips (layout
/// documented at module level). `out` must hold at least
/// `packed_len(cols.len(), NR, depth.len())` elements; edge columns are
/// zero-padded.
pub fn pack_b_block(
    out: &mut [f64],
    b: &View<'_>,
    depth: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    let mut dst = 0;
    let mut j0 = cols.start;
    while j0 < cols.end {
        let w = NR.min(cols.end - j0);
        if !b.trans && w == NR {
            // Contiguous fast path: rows of op(B) are stored rows.
            for p in depth.clone() {
                let src = &b.data[p * b.cols + j0..p * b.cols + j0 + NR];
                out[dst..dst + NR].copy_from_slice(src);
                dst += NR;
            }
        } else {
            for p in depth.clone() {
                for j in 0..NR {
                    out[dst] = if j < w { b.at(p, j0 + j) } else { 0.0 };
                    dst += 1;
                }
            }
        }
        j0 += NR;
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// Accumulation mode for one engine invocation.
#[derive(Clone, Copy)]
enum Acc {
    /// `C[i,j] += scale · Σ_p a·b` with an f64 accumulator per element.
    F64 {
        /// Writeback factor (1.0 for plain GEMM).
        scale: f64,
    },
    /// `C[i,j] += descale · f64(Σ_p f32(a·b))` — emulates tensor-core f32
    /// accumulation: each product is rounded to f32, summed in f32, widened
    /// once at writeback.
    F32 {
        /// Dequantization factor applied at writeback.
        descale: f64,
    },
}

/// One microkernel implementation: an `MR × NR` register tile at depth `kc`.
///
/// # Safety contract (both methods)
///
/// * `apanel` points at `kc·MR` packed f64 (one A strip), `bpanel` at
///   `kc·NR` packed f64 (one B strip).
/// * `c` points at the tile's top-left element of a row-major buffer with
///   row stride `ldc`; `mr ≤ MR` rows and `nr ≤ NR` columns are writable.
trait Kernel {
    /// f64-accumulate tile: `c += scale · (A_strip · B_strip)`.
    unsafe fn tile_f64(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        scale: f64,
    );

    /// f32-accumulate tile: `c += descale · f64(acc_f32)` where
    /// `acc_f32 += f32(a·b)` per element in ascending `p`.
    unsafe fn tile_f32(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        descale: f64,
    );

    /// The small path on this kernel: [`small_direct`]'s contract and bits.
    fn small(
        a: &View<'_>,
        b: &View<'_>,
        c: &mut [f64],
        ldc: usize,
        row0: usize,
        shape: (usize, usize, usize),
        alpha: f64,
        mode: Acc,
    ) {
        small_direct(a, b, c, ldc, row0, shape, alpha, mode);
    }
}

/// Portable unrolled kernel. The inner loops are over compile-time `MR`/`NR`
/// bounds so LLVM autovectorizes them; IEEE semantics make any lane width
/// produce the same bits because each accumulator is a distinct C element.
struct GenericKernel;

impl Kernel for GenericKernel {
    unsafe fn tile_f64(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        scale: f64,
    ) {
        let mut acc = [[0.0f64; NR]; MR];
        for p in 0..kc {
            let ap = apanel.add(p * MR);
            let bp = bpanel.add(p * NR);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = *ap.add(i);
                for (j, aij) in row.iter_mut().enumerate() {
                    // Deliberately mul-then-add (two roundings, never FMA):
                    // part of the cross-kernel bitwise-identity contract.
                    *aij += ai * *bp.add(j);
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(mr) {
            for (j, &v) in row.iter().enumerate().take(nr) {
                *c.add(i * ldc + j) += v * scale;
            }
        }
    }

    unsafe fn tile_f32(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        descale: f64,
    ) {
        let mut acc = [[0.0f32; NR]; MR];
        for p in 0..kc {
            let ap = apanel.add(p * MR);
            let bp = bpanel.add(p * NR);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = *ap.add(i);
                for (j, aij) in row.iter_mut().enumerate() {
                    *aij += (ai * *bp.add(j)) as f32;
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(mr) {
            for (j, &v) in row.iter().enumerate().take(nr) {
                *c.add(i * ldc + j) += v as f64 * descale;
            }
        }
    }
}

/// AVX2 kernel: 4 rows × two 4-wide f64 accumulators. Uses separate
/// `_mm256_mul_pd`/`_mm256_add_pd` (never `_mm256_fmadd_pd`) so its bits
/// match [`GenericKernel`] exactly — see the module-level determinism
/// contract.
#[cfg(target_arch = "x86_64")]
struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{View, MR, NR};
    use std::arch::x86_64::*;

    /// Four side-by-side chains of the AVX2 small path: f64 sums
    /// (`__m256d`) or f32 sums (`__m128`).
    pub(super) trait Lanes: Copy {
        /// Four zero sums.
        unsafe fn zero() -> Self;
        /// `self + products` per lane, rounded as the mode rounds (the f32
        /// sums round each product to f32 first, as `as f32` does).
        unsafe fn add(self, products: __m256d) -> Self;
        /// The four sums, widened for the writeback.
        unsafe fn widen(self) -> [f64; 4];
    }

    impl Lanes for __m256d {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn add(self, products: __m256d) -> Self {
            _mm256_add_pd(self, products)
        }
        #[inline(always)]
        unsafe fn widen(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            _mm256_storeu_pd(out.as_mut_ptr(), self);
            out
        }
    }

    impl Lanes for __m128 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm_setzero_ps()
        }
        #[inline(always)]
        unsafe fn add(self, products: __m256d) -> Self {
            _mm_add_ps(self, _mm256_cvtpd_ps(products))
        }
        #[inline(always)]
        unsafe fn widen(self) -> [f64; 4] {
            let mut out = [0.0f32; 4];
            _mm_storeu_ps(out.as_mut_ptr(), self);
            out.map(f64::from)
        }
    }

    /// The small path's loop nest on AVX2: `R` rows × 8 columns of chains a
    /// tile, each row's `alpha·a[i,p]` broadcast against 8 elements of
    /// `op(B)`'s row `p` read in place (masked past the output's last
    /// column), multiply then add. A tile past the last row repeats it and
    /// discards the copy, as the portable nest does.
    ///
    /// # Safety
    ///
    /// The host has AVX2; `op(B)` is row-contiguous (`b.strides().1 == 1`);
    /// `row0 + m ≤ a.rows`, `k ≤ a.cols`, `k ≤ b.rows`, `n ≤ b.cols` (so
    /// every unmasked read lies inside its view).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn small_tiles<L: Lanes, const R: usize>(
        a: &View<'_>,
        b: &View<'_>,
        c: &mut [f64],
        ldc: usize,
        row0: usize,
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        scale: f64,
    ) {
        let (ars, acs) = a.strides();
        let brs = b.strides().0;
        let (ap, bp) = (a.data.as_ptr(), b.data.as_ptr());
        let lane = _mm256_set_epi64x(3, 2, 1, 0);
        for i0 in (0..m).step_by(R) {
            let h = R.min(m - i0);
            let arow: [usize; R] = std::array::from_fn(|r| (row0 + i0 + r.min(h - 1)) * ars);
            for j0 in (0..n).step_by(8) {
                let w = 8.min(n - j0);
                let mask0 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(w as i64), lane);
                let mask1 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(w as i64 - 4), lane);
                let mut acc = [[L::zero(); 2]; R];
                for p in 0..k {
                    // Lanes j0 + q ≥ n are masked off and not read; the
                    // second half's address may lie past the slice, hence
                    // `wrapping_add`.
                    let bq = bp.wrapping_add(p * brs + j0);
                    let b0 = _mm256_maskload_pd(bq, mask0);
                    let b1 = _mm256_maskload_pd(bq.wrapping_add(4), mask1);
                    for (row, &off) in acc.iter_mut().zip(&arow) {
                        let x = _mm256_set1_pd(alpha * *ap.add(off + p * acs));
                        // mul + add, never fmadd (bitwise contract).
                        row[0] = row[0].add(_mm256_mul_pd(x, b0));
                        row[1] = row[1].add(_mm256_mul_pd(x, b1));
                    }
                }
                for (r, row) in acc.iter().enumerate().take(h) {
                    let sums = [row[0].widen(), row[1].widen()];
                    let crow = &mut c[(i0 + r) * ldc + j0..][..w];
                    for (q, cq) in crow.iter_mut().enumerate() {
                        *cq += sums[q / 4][q % 4] * scale;
                    }
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_f64_avx2(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        scale: f64,
    ) {
        let zero = _mm256_setzero_pd();
        let mut acc: [[__m256d; 2]; MR] = [[zero; 2]; MR];
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bpanel.add(p * NR));
            let b1 = _mm256_loadu_pd(bpanel.add(p * NR + 4));
            let ap = apanel.add(p * MR);
            // Manually unrolled over MR so each accumulator stays in a
            // register. mul + add, never fmadd (bitwise contract).
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*ap.add(i));
                row[0] = _mm256_add_pd(row[0], _mm256_mul_pd(ai, b0));
                row[1] = _mm256_add_pd(row[1], _mm256_mul_pd(ai, b1));
            }
        }
        if mr == MR && nr == NR {
            let sv = _mm256_set1_pd(scale);
            for (i, row) in acc.iter().enumerate() {
                let p0 = c.add(i * ldc);
                let p1 = c.add(i * ldc + 4);
                _mm256_storeu_pd(
                    p0,
                    _mm256_add_pd(_mm256_loadu_pd(p0), _mm256_mul_pd(row[0], sv)),
                );
                _mm256_storeu_pd(
                    p1,
                    _mm256_add_pd(_mm256_loadu_pd(p1), _mm256_mul_pd(row[1], sv)),
                );
            }
        } else {
            let mut spill = [0.0f64; NR];
            for (i, row) in acc.iter().enumerate().take(mr) {
                _mm256_storeu_pd(spill.as_mut_ptr(), row[0]);
                _mm256_storeu_pd(spill.as_mut_ptr().add(4), row[1]);
                for (j, &v) in spill.iter().enumerate().take(nr) {
                    *c.add(i * ldc + j) += v * scale;
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_f32_avx2(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        descale: f64,
    ) {
        let zero = _mm_setzero_ps();
        let mut acc: [[__m128; 2]; MR] = [[zero; 2]; MR];
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bpanel.add(p * NR));
            let b1 = _mm256_loadu_pd(bpanel.add(p * NR + 4));
            let ap = apanel.add(p * MR);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*ap.add(i));
                // cvtpd_ps is round-to-nearest-even, identical to `as f32`.
                row[0] = _mm_add_ps(row[0], _mm256_cvtpd_ps(_mm256_mul_pd(ai, b0)));
                row[1] = _mm_add_ps(row[1], _mm256_cvtpd_ps(_mm256_mul_pd(ai, b1)));
            }
        }
        let mut spill = [0.0f32; NR];
        for (i, row) in acc.iter().enumerate().take(mr) {
            _mm_storeu_ps(spill.as_mut_ptr(), row[0]);
            _mm_storeu_ps(spill.as_mut_ptr().add(4), row[1]);
            for (j, &v) in spill.iter().enumerate().take(nr) {
                *c.add(i * ldc + j) += v as f64 * descale;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx2Kernel {
    unsafe fn tile_f64(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        scale: f64,
    ) {
        avx2::tile_f64_avx2(c, ldc, apanel, bpanel, kc, mr, nr, scale);
    }

    unsafe fn tile_f32(
        c: *mut f64,
        ldc: usize,
        apanel: *const f64,
        bpanel: *const f64,
        kc: usize,
        mr: usize,
        nr: usize,
        descale: f64,
    ) {
        avx2::tile_f32_avx2(c, ldc, apanel, bpanel, kc, mr, nr, descale);
    }

    fn small(
        a: &View<'_>,
        b: &View<'_>,
        c: &mut [f64],
        ldc: usize,
        row0: usize,
        shape: (usize, usize, usize),
        alpha: f64,
        mode: Acc,
    ) {
        // A column-strided op(B) has no row to load, and an output under
        // four columns wide fills under half a vector: the portable nest.
        let (m, n, k) = shape;
        if b.strides().1 != 1 || n < 4 {
            return small_direct(a, b, c, ldc, row0, shape, alpha, mode);
        }
        assert!(row0 + m <= a.rows && k <= a.cols && k <= b.rows && n <= b.cols);
        use std::arch::x86_64::{__m128, __m256d};
        // SAFETY: this kernel is only selected on an AVX2 host; op(B) is
        // row-contiguous (checked above) and the shape bounds are asserted.
        unsafe {
            match (mode, m == 1) {
                (Acc::F64 { scale }, true) => {
                    avx2::small_tiles::<__m256d, 1>(a, b, c, ldc, row0, shape, alpha, scale)
                }
                (Acc::F64 { scale }, false) => {
                    avx2::small_tiles::<__m256d, 3>(a, b, c, ldc, row0, shape, alpha, scale)
                }
                (Acc::F32 { descale }, true) => {
                    avx2::small_tiles::<__m128, 1>(a, b, c, ldc, row0, shape, alpha, descale)
                }
                (Acc::F32 { descale }, false) => {
                    avx2::small_tiles::<__m128, 3>(a, b, c, ldc, row0, shape, alpha, descale)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

thread_local! {
    static SCRATCH: RefCell<PackScratch> = const {
        RefCell::new(PackScratch {
            apack: Vec::new(),
            bpack: Vec::new(),
        })
    };
}

struct PackScratch {
    apack: Vec<f64>,
    bpack: Vec<f64>,
}

fn ensure_len(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Running totals for the sampled `gemm.pack` / `gemm.microkernel` counters.
static PACKS: AtomicU64 = AtomicU64::new(0);
static TILES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Emit the pack/tile counters on a sampled cadence (every 1024th engine
/// call) so tracing the quartet hot loop does not flood the ring buffer.
fn note_counters(packs: u64, tiles: u64) {
    if !mako_trace::enabled() {
        return;
    }
    let p = PACKS.fetch_add(packs, Ordering::Relaxed) + packs;
    let t = TILES.fetch_add(tiles, Ordering::Relaxed) + tiles;
    let calls = CALLS.fetch_add(1, Ordering::Relaxed);
    if calls & 1023 == 0 {
        mako_trace::counter("gemm", "pack", p as f64);
        mako_trace::counter("gemm", "microkernel", t as f64);
    }
}

/// The 5-loop blocked driver over a row band `[row0, row0 + m_band)` of the
/// output. `c` points at the band's first row (row stride `ldc`).
#[allow(clippy::too_many_arguments)]
fn run_band<K: Kernel>(
    a: &View<'_>,
    b: &View<'_>,
    c: &mut [f64],
    ldc: usize,
    row0: usize,
    m_band: usize,
    alpha: f64,
    mode: Acc,
) {
    let n = b.cols();
    let k = a.cols();
    if m_band == 0 || n == 0 || k == 0 {
        return;
    }
    if k <= KC && (m_band * n <= SMALL_MN || m_band <= SMALL_ROWS) {
        K::small(a, b, c, ldc, row0, (m_band, n, k), alpha, mode);
        note_counters(0, 1);
        return;
    }

    let mut packs = 0u64;
    let mut tiles = 0u64;
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let PackScratch { apack, bpack } = &mut *s;
        ensure_len(apack, packed_len(MC.min(m_band), MR, KC.min(k)));
        ensure_len(bpack, packed_len(NC.min(n), NR, KC.min(k)));

        let cptr = c.as_mut_ptr();
        let mut jc = 0;
        while jc < n {
            let nc_w = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc_w = KC.min(k - pc);
                pack_b_block(bpack, b, pc..pc + kc_w, jc..jc + nc_w);
                packs += 1;
                let mut ic = 0;
                while ic < m_band {
                    let mc_h = MC.min(m_band - ic);
                    pack_a_block(apack, a, row0 + ic..row0 + ic + mc_h, pc..pc + kc_w, alpha);
                    packs += 1;
                    let mut jr = 0;
                    while jr < nc_w {
                        let nr_w = NR.min(nc_w - jr);
                        let bpanel = &bpack[(jr / NR) * NR * kc_w..];
                        let mut ir = 0;
                        while ir < mc_h {
                            let mr_h = MR.min(mc_h - ir);
                            let apanel = &apack[(ir / MR) * MR * kc_w..];
                            // SAFETY: panels sized by ensure_len and fully
                            // written by the pack calls above; the tile's
                            // mr_h × nr_w window lies inside the band slice.
                            unsafe {
                                let ct = cptr.add((ic + ir) * ldc + jc + jr);
                                match mode {
                                    Acc::F64 { scale } => K::tile_f64(
                                        ct,
                                        ldc,
                                        apanel.as_ptr(),
                                        bpanel.as_ptr(),
                                        kc_w,
                                        mr_h,
                                        nr_w,
                                        scale,
                                    ),
                                    Acc::F32 { descale } => K::tile_f32(
                                        ct,
                                        ldc,
                                        apanel.as_ptr(),
                                        bpanel.as_ptr(),
                                        kc_w,
                                        mr_h,
                                        nr_w,
                                        descale,
                                    ),
                                }
                            }
                            tiles += 1;
                            ir += MR;
                        }
                        jr += NR;
                    }
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    });
    note_counters(packs, tiles);
}

/// One output element's accumulator on the small path: the f64 sum of
/// [`Acc::F64`] or the f32 sum of [`Acc::F32`].
trait Chain: Copy {
    const ZERO: Self;
    /// `self + product`, rounded as the mode rounds the running sum.
    fn add(self, product: f64) -> Self;
    /// The finished sum, widened for the writeback.
    fn widen(self) -> f64;
}

impl Chain for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn add(self, product: f64) -> f64 {
        self + product
    }
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
}

impl Chain for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn add(self, product: f64) -> f32 {
        self + product as f32
    }
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

/// Output elements one small-path tile runs side by side: `SMALL_CHAINS`
/// columns of one row, or of one column's rows when the output is a column.
const SMALL_CHAINS: usize = 4;

/// Direct (pack-free) path for small outputs (`m·n ≤ SMALL_MN` or
/// `m ≤ SMALL_ROWS`, `k ≤ KC`),
/// with the band's row offset applied to the A reads.
///
/// Each `C[i,j]` is its own chain `acc += (alpha·a[i,p])·b[p,j]` over
/// ascending `p` from zero, multiply then add, written back once as
/// `c += widen(acc)·scale`: the packed path's operation sequence (alpha
/// folded into A, one K-panel), so the two are bitwise identical. Only the
/// staging differs: a tile of `SMALL_CHAINS` chains runs side by side so
/// their adds overlap in the pipeline instead of waiting on one chain's
/// latency. A tile past the output's edge repeats its last row or column
/// and discards the copy. This is the generic kernel's small path; the AVX2
/// kernel runs the same chains in its own tiles where `op(B)`'s rows are
/// contiguous (`avx2::small_tiles`).
fn small_direct(
    a: &View<'_>,
    b: &View<'_>,
    c: &mut [f64],
    ldc: usize,
    row0: usize,
    shape: (usize, usize, usize),
    alpha: f64,
    mode: Acc,
) {
    match mode {
        Acc::F64 { scale } => small_oriented::<f64>(a, b, c, ldc, row0, shape, alpha, scale),
        Acc::F32 { descale } => small_oriented::<f32>(a, b, c, ldc, row0, shape, alpha, descale),
    }
}

/// [`small_direct`]'s tile orientation: chains along the row, along the
/// column of a one-column output, and one chain for a single element (whose
/// copies would only cost issue slots).
#[inline(always)]
fn small_oriented<T: Chain>(
    a: &View<'_>,
    b: &View<'_>,
    c: &mut [f64],
    ldc: usize,
    row0: usize,
    shape: (usize, usize, usize),
    alpha: f64,
    scale: f64,
) {
    match shape {
        (1, 1, _) => small_tiles::<T, 1, 1>(a, b, c, ldc, row0, shape, alpha, scale),
        (_, 1, _) => small_tiles::<T, SMALL_CHAINS, 1>(a, b, c, ldc, row0, shape, alpha, scale),
        _ => small_tiles::<T, 1, SMALL_CHAINS>(a, b, c, ldc, row0, shape, alpha, scale),
    }
}

/// [`small_direct`]'s loop nest over `R × C` tiles of the `m × n` output.
#[inline(always)]
fn small_tiles<T: Chain, const R: usize, const C: usize>(
    a: &View<'_>,
    b: &View<'_>,
    c: &mut [f64],
    ldc: usize,
    row0: usize,
    (m, n, k): (usize, usize, usize),
    alpha: f64,
    scale: f64,
) {
    // Every read below is `op(A)[row0 + i, p]` or `op(B)[p, j]` with i < m,
    // j < n, p < k; `View::new` holds `data.len() ≥ rows·cols`, so these
    // bounds keep every computed offset inside its slice.
    assert!(row0 + m <= a.rows && k <= a.cols && k <= b.rows && n <= b.cols);
    let (ars, acs) = a.strides();
    let (brs, bcs) = b.strides();
    let (ap, bp) = (a.data.as_ptr(), b.data.as_ptr());
    for i0 in (0..m).step_by(R) {
        let h = R.min(m - i0);
        let arow: [usize; R] = std::array::from_fn(|r| (row0 + i0 + r.min(h - 1)) * ars);
        for j0 in (0..n).step_by(C) {
            let w = C.min(n - j0);
            let bcol: [usize; C] = std::array::from_fn(|q| (j0 + q.min(w - 1)) * bcs);
            let mut acc = [[T::ZERO; C]; R];
            for p in 0..k {
                // SAFETY: row0 + i0 + r ≤ row0 + m - 1 and j0 + q ≤ n - 1
                // after the clamps, p < k: in bounds by the assert above.
                let av: [f64; R] =
                    std::array::from_fn(|r| alpha * unsafe { *ap.add(arow[r] + p * acs) });
                let bv: [f64; C] = std::array::from_fn(|q| unsafe { *bp.add(bcol[q] + p * brs) });
                for (row, &x) in acc.iter_mut().zip(&av) {
                    for (chain, &y) in row.iter_mut().zip(&bv) {
                        // Multiply then add, never FMA (bitwise contract).
                        *chain = chain.add(x * y);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate().take(h) {
                for (q, chain) in row.iter().enumerate().take(w) {
                    c[(i0 + r) * ldc + j0 + q] += chain.widen() * scale;
                }
            }
        }
    }
}

/// Full-matrix engine entry: `C += op(A)·op(B)` on the selected kernel, with
/// `alpha` folded into the packed A panels (bit-compatible with multiplying
/// each A element first). `beta` pre-scaling is the caller's job (see
/// [`crate::gemm::gemm_into`]).
pub(crate) fn gemm_engine(alpha: f64, a: View<'_>, b: View<'_>, c: &mut [f64], ldc: usize) {
    let m = a.rows();
    let mode = Acc::F64 { scale: 1.0 };
    match selected_kernel() {
        KernelId::Generic => run_band::<GenericKernel>(&a, &b, c, ldc, 0, m, alpha, mode),
        #[cfg(target_arch = "x86_64")]
        KernelId::Avx2 => run_band::<Avx2Kernel>(&a, &b, c, ldc, 0, m, alpha, mode),
        #[cfg(not(target_arch = "x86_64"))]
        KernelId::Avx2 => run_band::<GenericKernel>(&a, &b, c, ldc, 0, m, alpha, mode),
    }
}

/// Quantized-emulation engine entry over raw slices (operands are already
/// rounded by the caller): `C += descale · op_acc(A·op(B))` where the
/// accumulator is f32 (`fp32_acc`) or f64 per element, K-ascending.
///
/// `a` is row-major `m × k`; `b` is row-major `k × n` (`tb == No`) or
/// `n × k` (`tb == Yes`); `c` is row-major `m × n`.
///
/// For `k ≤ KC` (every ERI transform shape) the f32 path reproduces, bit for
/// bit, a scalar `acc_f32 += (a·b) as f32` loop followed by
/// `c += acc as f64 · descale` — the scalar loop this entry replaced.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rounded_engine(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    tb: Transpose,
    fp32_acc: bool,
    descale: f64,
    c: &mut [f64],
) {
    assert!(a.len() >= m * k, "gemm_rounded_engine: A buffer too short");
    assert!(c.len() >= m * n, "gemm_rounded_engine: C buffer too short");
    let av = View::new(a, m, k, Transpose::No);
    let bv = match tb {
        Transpose::No => View::new(b, k, n, Transpose::No),
        Transpose::Yes => View::new(b, n, k, Transpose::Yes),
    };
    assert_eq!(
        bv.rows(),
        k,
        "gemm_rounded_engine: inner dimension mismatch"
    );
    let mode = if fp32_acc {
        Acc::F32 { descale }
    } else {
        Acc::F64 { scale: descale }
    };
    match selected_kernel() {
        KernelId::Generic => run_band::<GenericKernel>(&av, &bv, c, n, 0, m, 1.0, mode),
        #[cfg(target_arch = "x86_64")]
        KernelId::Avx2 => run_band::<Avx2Kernel>(&av, &bv, c, n, 0, m, 1.0, mode),
        #[cfg(not(target_arch = "x86_64"))]
        KernelId::Avx2 => run_band::<GenericKernel>(&av, &bv, c, n, 0, m, 1.0, mode),
    }
}

/// Run one full GEMM with an explicitly chosen kernel — test-only hook for
/// the generic-vs-AVX2 bitwise identity suite (`tests/microkernel_oracle.rs`),
/// not part of the GEMM seam. Returns `false` (doing nothing) if the
/// requested kernel is unavailable on this host.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kernel(
    id: KernelId,
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) -> bool {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    assert_eq!(av.cols(), bv.rows(), "gemm inner dimension mismatch");
    assert_eq!(
        (c.rows(), c.cols()),
        (av.rows(), bv.cols()),
        "gemm output shape mismatch"
    );
    if beta != 1.0 {
        for x in c.as_mut_slice() {
            *x *= beta;
        }
    }
    let m = av.rows();
    let ldc = bv.cols();
    let mode = Acc::F64 { scale: 1.0 };
    match id {
        KernelId::Generic => {
            run_band::<GenericKernel>(&av, &bv, c.as_mut_slice(), ldc, 0, m, alpha, mode);
            true
        }
        KernelId::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    run_band::<Avx2Kernel>(&av, &bv, c.as_mut_slice(), ldc, 0, m, alpha, mode);
                    return true;
                }
                false
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn deterministic(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 2),
        (4, 8, 8),
        (5, 9, 9),
        (9, 10, 10),
        (17, 300, 23),
        (130, 70, 90),
        (129, 257, 65),
    ];

    #[test]
    fn choose_kernel_policy() {
        assert_eq!(choose_kernel(None, true).0, KernelId::Avx2);
        assert_eq!(choose_kernel(None, false).0, KernelId::Generic);
        assert_eq!(choose_kernel(Some("generic"), true).0, KernelId::Generic);
        assert_eq!(choose_kernel(Some("avx2"), true).0, KernelId::Avx2);
        assert_eq!(choose_kernel(Some("avx2"), false).0, KernelId::Generic);
        assert_eq!(choose_kernel(Some("bogus"), true).0, KernelId::Avx2);
    }

    #[test]
    fn engine_matches_naive_all_transposes() {
        for &(m, k, n) in SHAPES {
            for &ta in &[Transpose::No, Transpose::Yes] {
                for &tb in &[Transpose::No, Transpose::Yes] {
                    let a = match ta {
                        Transpose::No => deterministic(m, k, 1),
                        Transpose::Yes => deterministic(k, m, 1),
                    };
                    let b = match tb {
                        Transpose::No => deterministic(k, n, 2),
                        Transpose::Yes => deterministic(n, k, 2),
                    };
                    let mut c1 = deterministic(m, n, 3);
                    let mut c2 = c1.clone();
                    gemm_naive(1.3, &a, ta, &b, tb, 0.7, &mut c1);
                    assert!(gemm_with_kernel(
                        KernelId::Generic,
                        1.3,
                        &a,
                        ta,
                        &b,
                        tb,
                        0.7,
                        &mut c2
                    ));
                    let d = c1.sub(&c2).max_abs();
                    let tol = 1e-13 * (k as f64).max(1.0);
                    assert!(d < tol, "({m},{k},{n}) ta={ta:?} tb={tb:?}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn generic_vs_avx2_bitwise() {
        if !avx2_available() {
            return; // nothing to compare on this host
        }
        for &(m, k, n) in SHAPES {
            for &ta in &[Transpose::No, Transpose::Yes] {
                for &tb in &[Transpose::No, Transpose::Yes] {
                    let a = match ta {
                        Transpose::No => deterministic(m, k, 7),
                        Transpose::Yes => deterministic(k, m, 7),
                    };
                    let b = match tb {
                        Transpose::No => deterministic(k, n, 8),
                        Transpose::Yes => deterministic(n, k, 8),
                    };
                    let mut cg = deterministic(m, n, 9);
                    let mut cv = cg.clone();
                    assert!(gemm_with_kernel(
                        KernelId::Generic,
                        1.7,
                        &a,
                        ta,
                        &b,
                        tb,
                        0.3,
                        &mut cg
                    ));
                    assert!(gemm_with_kernel(
                        KernelId::Avx2,
                        1.7,
                        &a,
                        ta,
                        &b,
                        tb,
                        0.3,
                        &mut cv
                    ));
                    assert_eq!(
                        cg.as_slice(),
                        cv.as_slice(),
                        "bitwise mismatch at ({m},{k},{n}) ta={ta:?} tb={tb:?}"
                    );
                }
            }
        }
    }

    /// The f32-accumulation engine must reproduce the scalar rounded-GEMM
    /// loop it replaced bit for bit (for k ≤ KC).
    #[test]
    fn f32_engine_matches_scalar_reference_bitwise() {
        for &(m, k, n) in SHAPES {
            if k > KC {
                continue;
            }
            let a = deterministic(m, k, 40);
            let b = deterministic(k, n, 41);
            let descale = 0.037;
            let mut c_ref = deterministic(m, n, 42);
            let mut c_eng = c_ref.clone();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += (a[(i, p)] * b[(p, j)]) as f32;
                    }
                    c_ref[(i, j)] += acc as f64 * descale;
                }
            }
            gemm_rounded_engine(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                Transpose::No,
                true,
                descale,
                c_eng.as_mut_slice(),
            );
            assert_eq!(c_ref.as_slice(), c_eng.as_slice(), "shape ({m},{k},{n})");
        }
    }

    /// f32 engine with a transposed B view must equal the engine on an
    /// explicit transposed copy, bit for bit.
    #[test]
    fn f32_engine_transposed_b_matches_copy() {
        let (m, k, n) = (9, 10, 9);
        let a = deterministic(m, k, 50);
        let bt = deterministic(n, k, 51); // stored n × k, logical op(B) = k × n
        let b_copy = bt.transpose();
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_rounded_engine(
            m,
            k,
            n,
            a.as_slice(),
            bt.as_slice(),
            Transpose::Yes,
            true,
            1.25,
            c1.as_mut_slice(),
        );
        gemm_rounded_engine(
            m,
            k,
            n,
            a.as_slice(),
            b_copy.as_slice(),
            Transpose::No,
            true,
            1.25,
            c2.as_mut_slice(),
        );
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    /// Pack-then-unpack round trip: packed panels reproduce the source block
    /// exactly (and pads are exactly zero).
    #[test]
    fn pack_round_trip() {
        let a = deterministic(13, 17, 70);
        for &ta in &[Transpose::No, Transpose::Yes] {
            let v = View::of(&a, ta);
            let (rows, depth) = (1..v.rows(), 0..v.cols().min(9));
            let kc = depth.len();
            let mut buf = vec![f64::NAN; packed_len(rows.len(), MR, kc)];
            pack_a_block(&mut buf, &v, rows.clone(), depth.clone(), 2.0);
            for (s, r0) in rows.clone().step_by(MR).enumerate() {
                for p in 0..kc {
                    for i in 0..MR {
                        let got = buf[s * MR * kc + p * MR + i];
                        let want = if r0 + i < rows.end {
                            2.0 * v.at(r0 + i, depth.start + p)
                        } else {
                            0.0
                        };
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
            let (depth_b, cols) = (0..v.rows().min(7), 1..v.cols());
            let kcb = depth_b.len();
            let mut bbuf = vec![f64::NAN; packed_len(cols.len(), NR, kcb)];
            pack_b_block(&mut bbuf, &v, depth_b.clone(), cols.clone());
            for (t, j0) in cols.clone().step_by(NR).enumerate() {
                for p in 0..kcb {
                    for j in 0..NR {
                        let got = bbuf[t * NR * kcb + p * NR + j];
                        let want = if j0 + j < cols.end {
                            v.at(depth_b.start + p, j0 + j)
                        } else {
                            0.0
                        };
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }
}
