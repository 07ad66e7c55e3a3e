//! General matrix multiplication: naive reference plus the packed-tile
//! microkernel engine ([`crate::microkernel`]).
//!
//! The GEMM seam is four functions. [`gemm_into`] (α/β into the caller's
//! `C`) is the entry into the BLIS-style 5-loop driver and [`gemm`] its
//! allocating form; [`crate::gemm_rounded_engine`] is the rounded-operand
//! mode the quartet hot loop calls; [`gemm_naive`] stays as the
//! obviously-correct accuracy oracle the engine is tested against. Sparsity
//! belongs to the screening layer, not the GEMM: the engine's FLOP cost
//! never depends on the operand values.

use crate::microkernel::{self, View};
use crate::Matrix;

/// Whether an operand participates transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// Naive triple-loop reference GEMM: `C = alpha * op(A) op(B) + beta * C`.
///
/// Kept simple and obviously correct; the engine is tested against it.
pub fn gemm_naive(
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, k1) = op_shape(a, ta);
    let (k2, n) = op_shape(b, tb);
    assert_eq!(k1, k2, "gemm inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..k1 {
                s += get(a, ta, i, k) * get(b, tb, k, j);
            }
            c[(i, j)] = alpha * s + beta * c[(i, j)];
        }
    }
}

/// Packed-tile GEMM into the caller's `C`:
/// `C = alpha * op(A) op(B) + beta * C` through the microkernel engine (AVX2
/// or generic, selected at startup — see
/// [`crate::microkernel::selected_kernel`]). All callers (SCF, XC assembly,
/// ERI transforms, the simulated tensor-core pipelines) route here.
pub fn gemm_into(
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, kk) = op_shape(a, ta);
    let (k2, n) = op_shape(b, tb);
    assert_eq!(kk, k2, "gemm inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");

    if beta != 1.0 {
        for x in c.as_mut_slice() {
            *x *= beta;
        }
    }
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    microkernel::gemm_engine(alpha, av, bv, c.as_mut_slice(), n);
}

/// `op(A) op(B)` as a fresh matrix: [`gemm_into`] with α = 1, β = 0.
pub fn gemm(a: &Matrix, ta: Transpose, b: &Matrix, tb: Transpose) -> Matrix {
    let (m, _) = op_shape(a, ta);
    let (_, n) = op_shape(b, tb);
    let mut c = Matrix::zeros(m, n);
    gemm_into(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

#[inline(always)]
fn op_shape(a: &Matrix, t: Transpose) -> (usize, usize) {
    match t {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    }
}

#[inline(always)]
fn get(a: &Matrix, t: Transpose, i: usize, j: usize) -> f64 {
    match t {
        Transpose::No => a[(i, j)],
        Transpose::Yes => a[(j, i)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deterministic(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        let d = a.sub(b).max_abs();
        assert!(d < tol, "matrices differ by {d}");
    }

    #[test]
    fn tiled_matches_naive_all_transposes() {
        for &(m, k, n) in &[(3, 4, 5), (64, 64, 64), (65, 33, 127), (1, 100, 1)] {
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
                    gemm_into(1.3, &a, ta, &b, tb, 0.7, &mut c2);
                    assert_close(&c1, &c2, 1e-10);
                }
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = deterministic(17, 17, 5);
        let c = gemm(&a, Transpose::No, &Matrix::identity(17), Transpose::No);
        assert_close(&c, &a, 1e-14);
        let c2 = gemm(&Matrix::identity(17), Transpose::No, &a, Transpose::No);
        assert_close(&c2, &a, 1e-14);
    }

    #[test]
    fn transpose_identity_abt() {
        // (A Bᵀ)ᵀ = B Aᵀ
        let a = deterministic(12, 9, 21);
        let b = deterministic(15, 9, 22);
        let left = gemm(&a, Transpose::No, &b, Transpose::Yes).transpose();
        let right = gemm(&b, Transpose::No, &a, Transpose::Yes);
        assert_close(&left, &right, 1e-12);
    }

    #[test]
    fn beta_accumulation() {
        let a = deterministic(8, 8, 31);
        let b = deterministic(8, 8, 32);
        let mut c = Matrix::identity(8);
        // C = 0*AB + 2*I
        gemm_into(0.0, &a, Transpose::No, &b, Transpose::No, 2.0, &mut c);
        assert_close(&c, &Matrix::identity(8).scale(2.0), 1e-14);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let mut c = Matrix::zeros(2, 5);
        gemm_into(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
    }
}
