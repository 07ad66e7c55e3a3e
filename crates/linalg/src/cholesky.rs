//! Cholesky factorization and positive-definite solves.
//!
//! Used for inverting the DIIS B-matrix system and as a fast
//! positive-definiteness probe on overlap matrices.

use crate::{LinalgError, Matrix};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Only the lower triangle of `a` is read. Fails with
/// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            context: "cholesky requires a square matrix",
        });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solve `A x = b` for symmetric positive-definite `A` via Cholesky.
#[cfg(test)]
pub(crate) fn solve_cholesky(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let l = cholesky(a)?;
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            context: "solve_cholesky rhs length",
        });
    }
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm, Transpose};

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let g = Matrix::from_fn(n, n, |_, _| next());
        // GᵀG + n·I is safely positive definite.
        let mut a = gemm(&g, Transpose::Yes, &g, Transpose::No);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        for &n in &[1usize, 2, 5, 20] {
            let a = spd(n, n as u64 + 3);
            let l = cholesky(&a).unwrap();
            let llt = gemm(&l, Transpose::No, &l, Transpose::Yes);
            assert!(llt.sub(&a).max_abs() < 1e-10, "n={n}");
            // Upper triangle of L is zero.
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn solve_recovers_rhs() {
        let n = 12;
        let a = spd(n, 77);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true);
        let x = solve_cholesky(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Matrix::identity(3);
        a[(1, 1)] = -2.0;
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(cholesky(&Matrix::zeros(2, 3)).is_err());
        let a = spd(3, 5);
        assert!(solve_cholesky(&a, &[1.0, 2.0]).is_err());
    }
}
