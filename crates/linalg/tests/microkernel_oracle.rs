//! Property-based oracle suite for the packed-tile microkernel engine.
//!
//! Three oracles, per the determinism contract of DESIGN.md §13:
//!
//! * **accuracy** — the engine matches `gemm_naive` to 1-ulp-scale
//!   tolerance on arbitrary `(m, k, n)` (including edge tiles smaller than
//!   `MR×NR`), all four transpose combinations, and general `alpha`/`beta`;
//! * **determinism** — the dispatched kernel (AVX2 where the host has it)
//!   is *bitwise* identical to the generic kernel on the same inputs;
//! * **packing** — `pack_a_block`/`pack_b_block` are lossless: unpacking a
//!   panel reproduces `alpha·op(A)` / `op(B)` exactly, with zero padding in
//!   the strip remainders.

use mako_linalg::microkernel::{
    gemm_with_kernel, pack_a_block, pack_b_block, selected_kernel, View, KC, MR, NR,
};
use mako_linalg::{gemm_naive, gemm_into, KernelId, Matrix, Transpose};
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn op_dims(rows: usize, cols: usize, t: Transpose) -> (usize, usize) {
    match t {
        Transpose::No => (rows, cols),
        Transpose::Yes => (cols, rows),
    }
}

fn transpose_of(yes: bool) -> Transpose {
    if yes {
        Transpose::Yes
    } else {
        Transpose::No
    }
}

/// Element of `op(M)` computed directly from the dense storage.
fn op_at(m: &Matrix, t: Transpose, i: usize, j: usize) -> f64 {
    match t {
        Transpose::No => m[(i, j)],
        Transpose::Yes => m[(j, i)],
    }
}

proptest! {
    /// Engine vs the triple-loop oracle: arbitrary shapes (edge tiles
    /// smaller than MR×NR included via the 1.. lower bound), all four
    /// transpose combinations, nontrivial alpha and beta.
    #[test]
    fn engine_matches_naive(
        m in 1usize..33,
        k in 1usize..49,
        n in 1usize..33,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f64..2.0,
        beta in -1.5f64..1.5,
        seed in 1u64..1_000_000,
    ) {
        let (ta, tb) = (transpose_of(ta), transpose_of(tb));
        let (ar, ac) = op_dims(m, k, ta);
        let (br, bc) = op_dims(k, n, tb);
        let a = mat(ar, ac, seed);
        let b = mat(br, bc, seed.wrapping_add(1));
        let c0 = mat(m, n, seed.wrapping_add(2));

        let mut want = c0.clone();
        gemm_naive(alpha, &a, ta, &b, tb, beta, &mut want);
        let mut got = c0.clone();
        gemm_into(alpha, &a, ta, &b, tb, beta, &mut got);

        // Different summation grouping ⇒ 1-ulp-scale drift, bounded by the
        // usual k·eps·|a|·|b| envelope (inputs and alpha are O(1)).
        let tol = 2.0 * (k as f64) * f64::EPSILON * (1.0 + alpha.abs());
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            prop_assert!((w - g).abs() <= tol, "naive {w} vs engine {g} (tol {tol:.3e})");
        }
    }

    /// The dispatched kernel must be BITWISE identical to the generic
    /// kernel — the cross-kernel half of the determinism contract. (On a
    /// host without AVX2 both sides run the generic kernel and the test is
    /// trivially true.)
    #[test]
    fn generic_vs_dispatched_bitwise(
        m in 1usize..41,
        k in 1usize..65,
        n in 1usize..41,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f64..2.0,
        beta in -1.5f64..1.5,
        seed in 1u64..1_000_000,
    ) {
        let (ta, tb) = (transpose_of(ta), transpose_of(tb));
        let (ar, ac) = op_dims(m, k, ta);
        let (br, bc) = op_dims(k, n, tb);
        let a = mat(ar, ac, seed);
        let b = mat(br, bc, seed.wrapping_add(1));
        let c0 = mat(m, n, seed.wrapping_add(2));

        let mut generic = c0.clone();
        prop_assert!(gemm_with_kernel(KernelId::Generic, alpha, &a, ta, &b, tb, beta, &mut generic));
        let mut dispatched = c0.clone();
        prop_assert!(gemm_with_kernel(selected_kernel(), alpha, &a, ta, &b, tb, beta, &mut dispatched));

        for (x, y) in generic.as_slice().iter().zip(dispatched.as_slice()) {
            prop_assert!(x.to_bits() == y.to_bits(), "generic {} vs dispatched {}", x, y);
        }
    }

    /// Packed A panels round-trip: strip s, depth p, lane i holds
    /// `alpha·op(A)[r0 + s·MR + i, p]`, zero in the padding lanes.
    #[test]
    fn pack_a_round_trip(
        rows in 1usize..23,
        depth in 1usize..31,
        ta in any::<bool>(),
        alpha in -2.0f64..2.0,
        seed in 1u64..1_000_000,
    ) {
        let ta = transpose_of(ta);
        let (ar, ac) = op_dims(rows, depth, ta);
        let a = mat(ar, ac, seed);
        let strips = rows.div_ceil(MR);
        let mut packed = vec![f64::NAN; strips * MR * depth];
        pack_a_block(&mut packed, &View::of(&a, ta), 0..rows, 0..depth, alpha);

        for s in 0..strips {
            for p in 0..depth {
                for i in 0..MR {
                    let got = packed[s * MR * depth + p * MR + i];
                    let r = s * MR + i;
                    let want = if r < rows { alpha * op_at(&a, ta, r, p) } else { 0.0 };
                    prop_assert!(got.to_bits() == want.to_bits(),
                        "strip {} lane {} depth {}: packed {} vs source {}", s, i, p, got, want);
                }
            }
        }
    }

    /// Packed B panels round-trip: strip t, depth p, lane j holds
    /// `op(B)[p, j0 + t·NR + j]`, zero in the padding lanes.
    #[test]
    fn pack_b_round_trip(
        depth in 1usize..31,
        cols in 1usize..37,
        tb in any::<bool>(),
        seed in 1u64..1_000_000,
    ) {
        let tb = transpose_of(tb);
        let (br, bc) = op_dims(depth, cols, tb);
        let b = mat(br, bc, seed);
        let strips = cols.div_ceil(NR);
        let mut packed = vec![f64::NAN; strips * NR * depth];
        pack_b_block(&mut packed, &View::of(&b, tb), 0..depth, 0..cols);

        for t in 0..strips {
            for p in 0..depth {
                for j in 0..NR {
                    let got = packed[t * NR * depth + p * NR + j];
                    let col = t * NR + j;
                    let want = if col < cols { op_at(&b, tb, p, col) } else { 0.0 };
                    prop_assert!(got.to_bits() == want.to_bits(),
                        "strip {} lane {} depth {}: packed {} vs source {}", t, j, p, got, want);
                }
            }
        }
    }
}

/// Deterministic spot-checks at shapes chosen to hit every driver edge:
/// sub-tile, exact-tile, one-past-tile, and multi-panel K.
#[test]
fn engine_matches_naive_at_blocking_boundaries() {
    let shapes = [
        (1, 1, 1),
        (MR - 1, 3, NR - 1),
        (MR, KC, NR),
        (MR + 1, KC + 1, NR + 1),
        (2 * MR, 2 * KC + 7, 3 * NR),
    ];
    for &(m, k, n) in &shapes {
        let a = mat(m, k, 7);
        let b = mat(k, n, 8);
        let mut want = mat(m, n, 9);
        let mut got = want.clone();
        gemm_naive(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut want);
        gemm_into(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut got);
        let tol = 4.0 * (k as f64) * f64::EPSILON;
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            assert!((w - g).abs() <= tol, "({m},{k},{n}): naive {w} vs engine {g}");
        }
    }
}

/// The shapes of the contraction-stacked FP64 quartet — GEMM 1
/// `E_ABᵀ-stack · [P|Q]` (A read transposed) and GEMM 2 `(ab|Q] · E_CD-stack`,
/// both accumulating into a zeroed `C`: `(ss|ss)` at K = 9 × 9, `(pp|pp)` at
/// K = 9 × 9 (first and second transform), `(ff|ff)` at K = 1, and a
/// `(gg|gg)` contraction deeper than one K-panel. They take the packed path
/// the per-primitive micro-GEMMs never reached, so generic and dispatched
/// kernels must agree on them bit for bit, and both with the oracle.
#[test]
fn stacked_quartet_shapes_are_bitwise_across_kernels() {
    let shapes = [
        (1, 9, 9, Transpose::Yes),
        (9, 90, 90, Transpose::Yes),
        (9, 90, 9, Transpose::No),
        (49, 84, 84, Transpose::Yes),
        (81, 2 * 165, 165, Transpose::Yes),
        (81, KC + 74, 81, Transpose::No),
    ];
    for &(m, k, n, ta) in &shapes {
        let (ar, ac) = op_dims(m, k, ta);
        let a = mat(ar, ac, 11);
        let b = mat(k, n, 12);
        let mut want = Matrix::zeros(m, n);
        gemm_naive(1.0, &a, ta, &b, Transpose::No, 1.0, &mut want);
        let mut generic = Matrix::zeros(m, n);
        assert!(gemm_with_kernel(KernelId::Generic, 1.0, &a, ta, &b, Transpose::No, 1.0, &mut generic));
        let mut dispatched = Matrix::zeros(m, n);
        assert!(gemm_with_kernel(selected_kernel(), 1.0, &a, ta, &b, Transpose::No, 1.0, &mut dispatched));
        let mut seam = Matrix::zeros(m, n);
        gemm_into(1.0, &a, ta, &b, Transpose::No, 1.0, &mut seam);
        let tol = 4.0 * (k as f64) * f64::EPSILON;
        for i in 0..m * n {
            let (w, g, d, s) = (want.as_slice()[i], generic.as_slice()[i], dispatched.as_slice()[i], seam.as_slice()[i]);
            assert!((w - g).abs() <= tol, "({m},{k},{n}): naive {w} vs engine {g}");
            assert_eq!(g.to_bits(), d.to_bits(), "({m},{k},{n}): generic {g} vs dispatched {d}");
            assert_eq!(d.to_bits(), s.to_bits(), "({m},{k},{n}): gemm_into {s} vs dispatched {d}");
        }
    }
}
