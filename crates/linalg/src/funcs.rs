//! Symmetric matrix functions via eigendecomposition.
//!
//! The SCF driver needs `S^{-1/2}` (Löwdin symmetric orthogonalization) and
//! occasionally `S^{1/2}`; both are instances of applying a scalar function
//! to the eigenvalues: `f(A) = V f(Λ) Vᵀ`.

use crate::{eigh, gemm, LinalgError, Matrix, Transpose};

/// `V diag(f) Vᵀ`: every column `j` of `V` scaled by `f[j]`, one row at a
/// time, then one GEMM against `Vᵀ`.
pub(crate) fn scaled_outer(v: &Matrix, f: &[f64]) -> Matrix {
    let mut scaled = v.clone();
    for i in 0..scaled.rows() {
        for (x, fj) in scaled.row_mut(i).iter_mut().zip(f) {
            *x *= fj;
        }
    }
    gemm(&scaled, Transpose::No, v, Transpose::Yes)
}

/// `A^{-1/2}` for a symmetric positive-definite matrix.
///
/// Eigenvalues below `threshold` are projected out (their inverse square
/// root set to zero) — the canonical-orthogonalization guard against
/// near-linear-dependent basis sets.
pub fn sym_inv_sqrt(a: &Matrix, threshold: f64) -> Result<Matrix, LinalgError> {
    sym_inv_sqrt_diag(a, threshold).map(|o| o.matrix)
}

/// A canonical orthogonalizer together with its linear-dependence
/// diagnostics — what [`sym_inv_sqrt`] used to discard.
#[derive(Debug, Clone)]
pub struct OrthFactor {
    /// The projected `A^{-1/2}` (identical bits to [`sym_inv_sqrt`]).
    pub matrix: Matrix,
    /// Eigenvectors dropped (eigenvalue ≤ threshold): the dimension lost to
    /// near linear dependence.
    pub n_dropped: usize,
    /// Smallest retained eigenvalue — the conditioning of the surviving
    /// basis. `+∞` when everything was dropped.
    pub smallest_kept: f64,
}

/// [`sym_inv_sqrt`] with linear-dependence diagnostics: how many overlap
/// eigenvectors fell below `threshold` and how well-conditioned the
/// retained space is. The returned matrix is bitwise identical to
/// `sym_inv_sqrt(a, threshold)` — callers can adopt the diagnostic form
/// without perturbing any trajectory.
pub fn sym_inv_sqrt_diag(a: &Matrix, threshold: f64) -> Result<OrthFactor, LinalgError> {
    let ed = eigh(a)?;
    let mut n_dropped = 0usize;
    let mut smallest_kept = f64::INFINITY;
    let fs: Vec<f64> = ed
        .values
        .iter()
        .map(|&l| {
            if l > threshold {
                smallest_kept = smallest_kept.min(l);
                1.0 / l.sqrt()
            } else {
                n_dropped += 1;
                0.0
            }
        })
        .collect();
    Ok(OrthFactor {
        matrix: scaled_outer(&ed.vectors, &fs),
        n_dropped,
        smallest_kept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let g = Matrix::from_fn(n, n, |_, _| next());
        let mut a = gemm(&g, Transpose::Yes, &g, Transpose::No);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn inv_sqrt_whitens() {
        let a = spd(10, 42);
        let x = sym_inv_sqrt(&a, 1e-10).unwrap();
        // X A X = I
        let xax = gemm(&gemm(&x, Transpose::No, &a, Transpose::No), Transpose::No, &x, Transpose::No);
        assert!(xax.sub(&Matrix::identity(10)).max_abs() < 1e-10);
    }

    #[test]
    fn diag_form_is_bitwise_identical_and_counts_drops() {
        // Well-conditioned: nothing dropped, identical bits to sym_inv_sqrt.
        let a = spd(10, 42);
        let plain = sym_inv_sqrt(&a, 1e-10).unwrap();
        let diag = sym_inv_sqrt_diag(&a, 1e-10).unwrap();
        assert_eq!(plain, diag.matrix, "diagnostic form must not perturb X");
        assert_eq!(diag.n_dropped, 0);
        assert!(diag.smallest_kept > 0.0 && diag.smallest_kept.is_finite());

        // Rank-1: two directions dropped, the surviving eigenvalue reported.
        let v = [2.0, 0.0, 1.0];
        let r1 = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let d = sym_inv_sqrt_diag(&r1, 1e-8).unwrap();
        assert_eq!(d.n_dropped, 2);
        assert!((d.smallest_kept - 5.0).abs() < 1e-10, "{}", d.smallest_kept);
        assert_eq!(d.matrix, sym_inv_sqrt(&r1, 1e-8).unwrap());
    }

    #[test]
    fn threshold_projects_singular_directions() {
        // Singular matrix: rank 1.
        let v = [2.0, 0.0, 1.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let x = sym_inv_sqrt(&a, 1e-8).unwrap();
        // X should be finite (no division by ~0).
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        // X A X equals the projector onto the nonzero eigenspace (trace 1).
        let xax = gemm(&gemm(&x, Transpose::No, &a, Transpose::No), Transpose::No, &x, Transpose::No);
        assert!((xax.trace() - 1.0).abs() < 1e-10);
    }
}
