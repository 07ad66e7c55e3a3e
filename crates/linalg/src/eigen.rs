//! Symmetric eigensolver: Householder tridiagonalization followed by the
//! implicit-shift QL iteration.
//!
//! This is the dense diagonalization used for the Fock matrix and for Löwdin
//! orthogonalization. The implementation follows the classic EISPACK
//! `tred2`/`tql2` pair (also Numerical Recipes §11.2–11.3), written 0-indexed
//! with an explicit iteration budget.
//!
//! EISPACK walks its matrices by columns; [`Matrix`] is row-major, so every
//! inner loop here sweeps a row instead. `tred2` accumulates its column sums
//! (`Σ_k a(k,j)·u_k` over `k > j`, and the accumulation phase's
//! `g_j = Σ_k a(i,k)·a(k,j)`) as row sweeps into a vector, `k` outer and `j`
//! inner, and QL runs on `Zᵀ`: one transpose after `tred2`, then every
//! Givens rotation combines two contiguous rows. Each output element still
//! sees the same floating-point operations in the same order as the
//! column-oriented loops, so the results are those of EISPACK's loop order
//! bit for bit (`tests/eigh_pin.rs`).

use crate::{LinalgError, Matrix};

/// Result of [`eigh`]: `a = V diag(λ) Vᵀ` with eigenvalues ascending and
/// eigenvectors in the *columns* of `vectors`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues sorted ascending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, column `k` pairing with `values[k]`.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstruct `V diag(λ) Vᵀ` (used by tests and matrix functions).
    pub fn reconstruct(&self) -> Matrix {
        crate::funcs::scaled_outer(&self.vectors, &self.values)
    }
}

/// Eigendecomposition of a real symmetric matrix.
///
/// The input is first made exactly symmetric — each off-diagonal pair is
/// replaced by its mean `(a_ij + a_ji)/2` — so both triangles are read, and
/// an input that is already symmetric is used as is. Cost is O(n³) with a
/// small constant; the QL iteration virtually always converges in ≤ 4
/// sweeps per eigenvalue, and a budget of 64 guards against pathological
/// input. Non-finite input ends in [`LinalgError::NoConvergence`] or
/// [`LinalgError::NonFinite`], never in a panic.
pub fn eigh(a: &Matrix) -> Result<EigenDecomposition, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            context: "eigh requires a square matrix",
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(EigenDecomposition {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }

    let mut z = a.clone();
    z.symmetrize();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tred2(&mut z, &mut d, &mut e);
    let mut zt = z.transpose();
    tql2(&mut d, &mut e, &mut zt)?;
    // The sort below compares with `partial_cmp`, which has no answer for
    // NaN; `total_cmp` would, but it orders -0.0 before +0.0 and so would
    // permute the vectors of a degenerate zero eigenvalue.
    if let Some(index) = d.iter().position(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite { index });
    }

    // Sort ascending; eigenvector k is row k of Zᵀ.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| zt[(order[j], i)]);

    Ok(EigenDecomposition { values, vectors })
}

/// Householder reduction of a real symmetric matrix to tridiagonal form:
/// on return `d` holds the diagonal, `e[1..]` the subdiagonal, and `a` the
/// orthogonal transformation `Q` (`a_in = Q T Qᵀ`). Only the lower triangle
/// of `a` is read.
pub fn tred2(a: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    let a = a.as_mut_slice();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        // Rows 0..i, and row i's lower part a(i, 0..=l).
        let (above, rest) = a.split_at_mut(i * n);
        let row_i = &mut rest[..i];
        if l > 0 {
            let mut scale = 0.0;
            for x in row_i.iter() {
                scale += x.abs();
            }
            if scale == 0.0 {
                e[i] = row_i[l];
            } else {
                for x in row_i.iter_mut() {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = row_i[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                row_i[l] = f - g;
                // p = A·u / h: the k ≤ j part of each e[j] from row j, then
                // the k > j part as a sweep over rows k, so every e[j] still
                // sums in increasing k. a(j, i) keeps u_j / h for the
                // accumulation phase.
                for j in 0..=l {
                    above[j * n + i] = row_i[j] / h;
                    let mut g = 0.0;
                    for (ajk, aik) in above[j * n..=j * n + j].iter().zip(&row_i[..=j]) {
                        g += ajk * aik;
                    }
                    e[j] = g;
                }
                for k in 1..=l {
                    let aik = row_i[k];
                    for (ej, akj) in e[..k].iter_mut().zip(&above[k * n..k * n + k]) {
                        *ej += akj * aik;
                    }
                }
                let mut f_acc = 0.0;
                for j in 0..=l {
                    e[j] /= h;
                    f_acc += e[j] * row_i[j];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = row_i[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    let row_j = &mut above[j * n..=j * n + j];
                    for ((ajk, ek), aik) in row_j.iter_mut().zip(&e[..=j]).zip(&row_i[..=j]) {
                        *ajk -= f * ek + g * aik;
                    }
                }
            }
        } else {
            e[i] = row_i[l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate Q. For row i, g_j = Σ_k a(i,k)·a(k,j) and the update
    // a(k,j) -= g_j·a(k,i) both run over rows k with j inner.
    let mut g = vec![0.0f64; n];
    for i in 0..n {
        let (above, rest) = a.split_at_mut(i * n);
        if d[i] != 0.0 {
            let g = &mut g[..i];
            g.fill(0.0);
            for (k, aik) in rest[..i].iter().enumerate() {
                for (gj, akj) in g.iter_mut().zip(&above[k * n..k * n + i]) {
                    *gj += aik * akj;
                }
            }
            for row_k in above.chunks_exact_mut(n) {
                let aki = row_k[i];
                for (akj, gj) in row_k[..i].iter_mut().zip(g.iter()) {
                    *akj -= gj * aki;
                }
            }
        }
        d[i] = rest[i];
        rest[i] = 1.0;
        rest[..i].fill(0.0);
        for row_k in above.chunks_exact_mut(n) {
            row_k[i] = 0.0;
        }
    }
}

/// QL iteration with implicit shifts on the tridiagonal matrix `(d, e)` from
/// [`tred2`], accumulating eigenvectors in the *rows* of `zt`, which enters
/// as the transpose of `tred2`'s `Q`. On return `d` holds the eigenvalues,
/// unsorted, and row `k` of `zt` the eigenvector of `d[k]`.
pub fn tql2(d: &mut [f64], e: &mut [f64], zt: &mut Matrix) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Look for a single small subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(LinalgError::NoConvergence { index: l });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate vectors i and i + 1: rows of Zᵀ.
                let (lo, hi) = zt.as_mut_slice().split_at_mut((i + 1) * n);
                for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let f = *zi1;
                    *zi1 = s * *zi + c * f;
                    *zi = c * *zi - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm, Transpose};

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = Matrix::zeros(4, 4);
        for (i, &v) in [3.0, -1.0, 2.0, 0.5].iter().enumerate() {
            a[(i, i)] = v;
        }
        let ed = eigh(&a).unwrap();
        assert_eq!(ed.values, vec![-1.0, 0.5, 2.0, 3.0]);
    }

    #[test]
    fn two_by_two_analytic() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let ed = eigh(&a).unwrap();
        assert!((ed.values[0] - 1.0).abs() < 1e-14);
        assert!((ed.values[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        for &n in &[1usize, 2, 3, 5, 10, 30, 60] {
            let a = random_symmetric(n, n as u64 * 7 + 1);
            let ed = eigh(&a).unwrap();
            // A ≈ V Λ Vᵀ
            let recon = ed.reconstruct();
            assert!(
                recon.sub(&a).max_abs() < 1e-10 * (1.0 + a.max_abs()),
                "n={n} reconstruction error {}",
                recon.sub(&a).max_abs()
            );
            // VᵀV = I
            let vtv = gemm(&ed.vectors, Transpose::Yes, &ed.vectors, Transpose::No);
            assert!(vtv.sub(&Matrix::identity(n)).max_abs() < 1e-12, "n={n}");
            // Eigenvalues ascending.
            for w in ed.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-14);
            }
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace() {
        let a = random_symmetric(25, 99);
        let ed = eigh(&a).unwrap();
        let sum: f64 = ed.values.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn degenerate_eigenvalues() {
        // I ⊗ scaled blocks: eigenvalues {1,1,1,5}.
        let mut a = Matrix::identity(4);
        a[(3, 3)] = 5.0;
        let ed = eigh(&a).unwrap();
        assert!((ed.values[0] - 1.0).abs() < 1e-14);
        assert!((ed.values[2] - 1.0).abs() < 1e-14);
        assert!((ed.values[3] - 5.0).abs() < 1e-14);
        let recon = ed.reconstruct();
        assert!(recon.sub(&a).max_abs() < 1e-12);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        for &n in &[1usize, 2, 5] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                // On the diagonal, on the first subdiagonal, and deep in
                // the lower triangle.
                for (i, j) in [(n - 1, n - 1), (n - 1, n.saturating_sub(2)), (n / 2, 0)] {
                    let mut a = random_symmetric(n, 5);
                    a[(i, j)] = bad;
                    a[(j, i)] = bad;
                    let got = std::panic::catch_unwind(|| eigh(&a));
                    assert!(
                        matches!(got, Ok(Err(_))),
                        "n={n}, {bad} at ({i}, {j}) did not return an error"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(eigh(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix() {
        let ed = eigh(&Matrix::zeros(0, 0)).unwrap();
        assert!(ed.values.is_empty());
    }

    #[test]
    fn rank_one_matrix() {
        // v vᵀ with v = (1,2,3): single nonzero eigenvalue |v|² = 14.
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let ed = eigh(&a).unwrap();
        assert!(ed.values[0].abs() < 1e-12);
        assert!(ed.values[1].abs() < 1e-12);
        assert!((ed.values[2] - 14.0).abs() < 1e-12);
    }
}
