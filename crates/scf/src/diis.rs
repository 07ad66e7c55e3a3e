//! Pulay DIIS (direct inversion in the iterative subspace) convergence
//! acceleration.
//!
//! The error vector is the orthonormal-basis commutator `Xᵀ(FDS − SDF)X`,
//! formed as `A − Aᵀ` from the one product `A = Xᵀ(FDS)X` (four GEMMs);
//! the extrapolated Fock matrix minimizes the norm of the linear combination
//! of stored error vectors subject to Σc = 1, solved via the augmented
//! B-matrix system. The Gram entries `eᵢ·eⱼ` of that system are kept across
//! calls, so each extrapolation computes only the dot products of the newest
//! error vector.

use mako_linalg::{gemm, Matrix, Transpose};

/// DIIS accelerator state. Its history — capacity and (Fock, error) pairs —
/// is what a checkpoint saves and what equality compares; the Gram cache and
/// the conditioning counters are derived or run-local and stay out of both.
#[derive(Debug, Clone)]
pub struct Diis {
    max_vectors: usize,
    focks: Vec<Matrix>,
    errors: Vec<Matrix>,
    /// `gram[i][j] = errors[i]·errors[j]` over the first `gram.len()` errors
    /// (every row as long as `gram`); extended to the whole history at the
    /// top of each extrapolation.
    gram: Vec<Vec<f64>>,
    stats: DiisStats,
}

/// Conditioning-guard counters of a [`Diis`] accelerator: how often the
/// augmented B system went singular or ill-conditioned and what it cost.
/// Observability only — not part of a checkpoint, so checkpoints are
/// unaffected and restored accelerators start from zeroed counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiisStats {
    /// Extrapolations that hit a singular or ill-conditioned B system at
    /// least once.
    pub(crate) conditioning_events: usize,
    /// (Fock, error) pairs dropped (oldest first) to recondition B.
    pub(crate) dropped_pairs: usize,
    /// Extrapolations that exhausted the history and fell back to the raw
    /// Fock (distinct from the normal warm-up pass-through).
    pub(crate) raw_fallbacks: usize,
}

/// DIIS coefficients beyond this magnitude mean the solve amplified noise
/// by ~1e8 — numerically a singular system even when elimination survived.
const COEFF_CAP: f64 = 1e8;

impl Diis {
    /// New accelerator keeping up to `max_vectors` history entries.
    pub fn new(max_vectors: usize) -> Diis {
        Diis {
            max_vectors: max_vectors.max(2),
            focks: Vec::new(),
            errors: Vec::new(),
            gram: Vec::new(),
            stats: DiisStats::default(),
        }
    }

    /// The DIIS error `Xᵀ (F D S − S D F) X` of symmetric `F`, `D`, `S`.
    /// Then `S D F = (F D S)ᵀ`, so the error is `A − Aᵀ` with
    /// `A = Xᵀ (F D S) X`: four GEMMs, and exactly antisymmetric.
    pub fn error_vector(f: &Matrix, d: &Matrix, s: &Matrix, x: &Matrix) -> Matrix {
        let fds = gemm(&gemm(f, Transpose::No, d, Transpose::No), Transpose::No, s, Transpose::No);
        let a = gemm(&gemm(x, Transpose::Yes, &fds, Transpose::No), Transpose::No, x, Transpose::No);
        Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)] - a[(j, i)])
    }

    /// Push a (Fock, error) pair and return the extrapolated Fock matrix.
    /// Falls back to the raw Fock while the history is too short.
    ///
    /// When the augmented B system is singular or ill-conditioned (solve
    /// fails, or the coefficients are non-finite / absurdly large), the
    /// guard drops the *oldest* pairs one at a time and re-solves — old
    /// near-duplicate error vectors are what makes B rank-deficient — and
    /// only returns the raw Fock once the history is exhausted. Every
    /// degradation is counted in [`DiisStats`].
    pub fn extrapolate(&mut self, f: Matrix, error: Matrix) -> Matrix {
        let latest = f.clone();
        self.focks.push(f);
        self.errors.push(error);
        if self.focks.len() > self.max_vectors {
            self.drop_oldest();
        }
        if self.focks.len() < 2 {
            return latest;
        }
        self.extend_gram();

        let mut degraded = false;
        while self.focks.len() >= 2 {
            let m = self.focks.len();
            // Augmented B system: [B 1; 1 0][c; λ] = [0; 1].
            let dim = m + 1;
            let mut b = Matrix::zeros(dim, dim);
            for i in 0..m {
                b.row_mut(i)[..m].copy_from_slice(&self.gram[i]);
                b[(i, m)] = 1.0;
                b[(m, i)] = 1.0;
            }
            let mut rhs = vec![0.0; dim];
            rhs[m] = 1.0;

            let solution = solve_dense(&b, &rhs).filter(|c| {
                c.iter().take(m).all(|v| v.is_finite() && v.abs() < COEFF_CAP)
            });
            match solution {
                Some(c) => {
                    if degraded {
                        self.stats.conditioning_events += 1;
                    }
                    let shape = &self.focks[0];
                    let mut out = Matrix::zeros(shape.rows(), shape.cols());
                    for (ci, fi) in c.iter().take(m).zip(&self.focks) {
                        out.axpy(*ci, fi);
                    }
                    return out;
                }
                None => {
                    degraded = true;
                    self.stats.dropped_pairs += 1;
                    self.drop_oldest();
                }
            }
        }
        // Even the two newest pairs formed a singular system: raw Fock.
        self.stats.conditioning_events += 1;
        self.stats.raw_fallbacks += 1;
        latest
    }

    /// Remove the oldest (Fock, error) pair and its Gram row and column.
    fn drop_oldest(&mut self) {
        self.focks.remove(0);
        self.errors.remove(0);
        if !self.gram.is_empty() {
            self.gram.remove(0);
            for row in &mut self.gram {
                row.remove(0);
            }
        }
    }

    /// Compute the Gram rows of the errors not yet covered: one new row
    /// after a push, the whole matrix after [`Diis::from_history`]. `eᵢ·eⱼ` and
    /// `eⱼ·eᵢ` multiply the same pairs in the same order, so mirroring a row
    /// into the column gives the bits of computing both.
    fn extend_gram(&mut self) {
        for i in self.gram.len()..self.errors.len() {
            let row: Vec<f64> = (0..=i).map(|j| self.errors[i].dot(&self.errors[j])).collect();
            for (old, &v) in self.gram.iter_mut().zip(&row) {
                old.push(v);
            }
            self.gram.push(row);
        }
    }

    /// Conditioning-guard counters accumulated so far.
    pub fn stats(&self) -> DiisStats {
        self.stats
    }

    /// The history a checkpoint saves: capacity, then the (Fock, error)
    /// pairs oldest first.
    pub(crate) fn history(&self) -> (usize, &[Matrix], &[Matrix]) {
        (self.max_vectors, &self.focks, &self.errors)
    }

    /// An accelerator holding a saved history. Continuing from it
    /// reproduces the uninterrupted trajectory bit for bit (extrapolation is
    /// a pure function of the pairs). The conditioning counters restart from
    /// zero, and the next extrapolation recomputes the Gram matrix.
    pub(crate) fn from_history(
        max_vectors: usize,
        focks: Vec<Matrix>,
        errors: Vec<Matrix>,
    ) -> Diis {
        Diis {
            focks,
            errors,
            ..Diis::new(max_vectors)
        }
    }

    /// Drop the stored history — the DIIS *restart* the incremental SCF
    /// driver issues when the iteration diverges (residual growth): stale
    /// Fock/error pairs from before the divergence would otherwise keep
    /// steering the extrapolation, and the incremental accumulators are
    /// rebuilt at the same time so drift cannot survive the restart.
    pub fn reset(&mut self) {
        self.focks.clear();
        self.errors.clear();
        self.gram.clear();
    }

    /// Number of stored (Fock, error) pairs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.focks.len()
    }

    /// Whether the history is empty (fresh or just restarted).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.focks.is_empty()
    }
}

impl PartialEq for Diis {
    fn eq(&self, other: &Diis) -> bool {
        self.history() == other.history()
    }
}

/// Dense Gaussian elimination with partial pivoting (the DIIS B system is
/// tiny and possibly indefinite, so Cholesky doesn't apply).
fn solve_dense(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    let mut m = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if m[(r, col)].abs() > m[(piv, col)].abs() {
                piv = r;
            }
        }
        if m[(piv, col)].abs() < 1e-14 {
            return None;
        }
        if piv != col {
            for c in 0..n {
                let t = m[(col, c)];
                m[(col, c)] = m[(piv, c)];
                m[(piv, c)] = t;
            }
            x.swap(col, piv);
        }
        let inv = 1.0 / m[(col, col)];
        for r in (col + 1)..n {
            let f = m[(r, col)] * inv;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                m[(r, c)] -= f * m[(col, c)];
            }
            x[r] -= f * x[col];
        }
    }
    for col in (0..n).rev() {
        let mut s = x[col];
        for c in (col + 1)..n {
            s -= m[(col, c)] * x[c];
        }
        x[col] = s / m[(col, col)];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_dense_recovers_solution() {
        let a = Matrix::from_vec(3, 3, vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 4.0]);
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = solve_dense(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_dense_rejects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve_dense(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn first_fock_passes_through() {
        let mut diis = Diis::new(6);
        let f = Matrix::identity(3);
        let e = Matrix::zeros(3, 3);
        let out = diis.extrapolate(f.clone(), e);
        assert_eq!(out, f);
    }

    #[test]
    fn extrapolation_weights_sum_to_one() {
        // Two Focks F1 and F2 with opposite errors: DIIS should return
        // close to the mean (the combination canceling the errors).
        let mut diis = Diis::new(6);
        let f1 = Matrix::identity(2);
        let f2 = Matrix::identity(2).scale(3.0);
        let mut e1 = Matrix::zeros(2, 2);
        e1[(0, 0)] = 1.0;
        let e2 = e1.scale(-1.0);
        let _ = diis.extrapolate(f1, e1);
        let out = diis.extrapolate(f2, e2);
        // c = (0.5, 0.5) exactly.
        assert!((out[(0, 0)] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn reset_clears_history() {
        let mut diis = Diis::new(6);
        let mut e = Matrix::zeros(2, 2);
        e[(0, 0)] = 0.5;
        let _ = diis.extrapolate(Matrix::identity(2), e.clone());
        // Independent second error so B stays nonsingular and the
        // conditioning guard has no reason to shed history.
        let _ = diis.extrapolate(Matrix::identity(2).scale(2.0), e.scale(-1.0));
        assert_eq!(diis.len(), 2);
        diis.reset();
        assert!(diis.is_empty());
        // After a restart the next Fock passes through untouched.
        let f = Matrix::identity(2).scale(7.0);
        let out = diis.extrapolate(f.clone(), Matrix::zeros(2, 2));
        assert_eq!(out, f);
    }

    #[test]
    fn snapshot_restore_resumes_bitwise() {
        // Build some history, snapshot, then feed both the original and the
        // restored accelerator the same next pair: outputs must be bitwise
        // equal (the checkpoint/restart contract).
        let mut diis = Diis::new(4);
        for i in 0..3 {
            let f = Matrix::from_fn(3, 3, |r, c| (r + c) as f64 + i as f64 * 0.1);
            let mut e = Matrix::zeros(3, 3);
            e[(0, 0)] = 1.0 / (i + 1) as f64;
            e[(1, 2)] = -0.2 * i as f64;
            let _ = diis.extrapolate(f, e);
        }
        let (max_vectors, focks, errors) = diis.history();
        let mut restored = Diis::from_history(max_vectors, focks.to_vec(), errors.to_vec());
        assert_eq!(restored.len(), diis.len());
        assert_eq!(restored, diis);
        let f_next = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64 * 0.01);
        let mut e_next = Matrix::zeros(3, 3);
        e_next[(2, 2)] = 0.05;
        let a = diis.extrapolate(f_next.clone(), e_next.clone());
        let b = restored.extrapolate(f_next, e_next);
        assert_eq!(a, b, "restored DIIS diverged from the original");
    }

    #[test]
    fn rank_deficient_history_is_reconditioned_not_silently_dropped() {
        // Two pushes with *identical* error vectors make the augmented B
        // system exactly singular. The guard must drop the oldest pair,
        // fall back to the raw Fock (history exhausted at m = 1), and count
        // both the drop and the fallback.
        let mut diis = Diis::new(6);
        let mut e = Matrix::zeros(2, 2);
        e[(0, 0)] = 0.3;
        let f1 = Matrix::identity(2);
        let f2 = Matrix::identity(2).scale(2.0);
        let _ = diis.extrapolate(f1, e.clone());
        let out = diis.extrapolate(f2.clone(), e.clone());
        assert_eq!(out, f2, "degenerate history must yield the raw Fock");
        assert_eq!(diis.stats().dropped_pairs, 1);
        assert_eq!(diis.stats().raw_fallbacks, 1);
        assert_eq!(diis.stats().conditioning_events, 1);
        assert_eq!(diis.len(), 1, "the offending oldest pair must be gone");

        // With the history reconditioned, a genuinely independent third
        // pair extrapolates normally again (opposite errors → mean Fock).
        let f3 = Matrix::identity(2).scale(4.0);
        let out = diis.extrapolate(f3, e.scale(-1.0));
        assert!((out[(0, 0)] - 3.0).abs() < 1e-10, "{}", out[(0, 0)]);
        assert_eq!(diis.stats().raw_fallbacks, 1, "no new fallback");
    }

    #[test]
    fn near_duplicate_errors_trip_the_coefficient_cap() {
        // Errors differing at the last ulp pass Gaussian elimination but
        // produce O(1/ε²) coefficients — the cap must classify that as
        // ill-conditioned and recondition instead of returning garbage.
        let mut diis = Diis::new(6);
        let mut e1 = Matrix::zeros(2, 2);
        e1[(0, 0)] = 0.5;
        let e2 = e1.scale(1.0 + 1e-15);
        let e3 = e1.scale(-1.0); // independent direction
        let _ = diis.extrapolate(Matrix::identity(2), e1);
        let _ = diis.extrapolate(Matrix::identity(2).scale(2.0), e2);
        let _ = diis.extrapolate(Matrix::identity(2).scale(3.0), e3);
        let s = diis.stats();
        assert!(
            s.dropped_pairs >= 1,
            "ill-conditioned B must shed history: {s:?}"
        );
    }

    #[test]
    fn healthy_history_never_touches_the_guard() {
        let mut diis = Diis::new(6);
        let f1 = Matrix::identity(2);
        let f2 = Matrix::identity(2).scale(3.0);
        let mut e1 = Matrix::zeros(2, 2);
        e1[(0, 0)] = 1.0;
        let e2 = e1.scale(-1.0);
        let _ = diis.extrapolate(f1, e1);
        let out = diis.extrapolate(f2, e2);
        assert!((out[(0, 0)] - 2.0).abs() < 1e-10);
        assert_eq!(diis.stats(), DiisStats::default());
    }

    #[test]
    fn kept_gram_matches_recomputing_every_dot_product_bit_for_bit() {
        // `kept` carries its Gram matrix from call to call; `fresh` has it
        // cleared before every call, so it recomputes all m² dot products.
        // The run passes history fill, eviction at `max_vectors`, a
        // conditioning drop, a reset and a save → reload of the history.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let n = 5;
        let mut kept = Diis::new(4);
        let mut fresh = Diis::new(4);
        let mut last_error = Matrix::zeros(n, n);
        for step in 0..16 {
            if step == 9 {
                kept.reset();
                fresh.reset();
            }
            if step == 12 {
                let reload = |d: &Diis| {
                    let (max_vectors, focks, errors) = d.history();
                    Diis::from_history(max_vectors, focks.to_vec(), errors.to_vec())
                };
                kept = reload(&kept);
                fresh = reload(&fresh);
            }
            let f = Matrix::from_fn(n, n, |_, _| next());
            // Step 6 repeats the previous error to one part in 1e15: B goes
            // ill-conditioned and the guard drops history.
            let e = if step == 6 {
                last_error.scale(1.0 + 1e-15)
            } else {
                Matrix::from_fn(n, n, |_, _| 0.1 * next())
            };
            last_error = e.clone();
            fresh.gram.clear();
            let a = kept.extrapolate(f.clone(), e.clone());
            let b = fresh.extrapolate(f, e);
            assert_eq!(bits(&a), bits(&b), "step {step}");
            assert_eq!(kept.stats(), fresh.stats(), "step {step}");
            assert_eq!(kept.len(), fresh.len(), "step {step}");
            if step == 6 {
                assert!(kept.stats().dropped_pairs >= 1, "no conditioning drop");
            }
            if kept.len() >= 2 {
                let full: Vec<Vec<u64>> = kept
                    .errors
                    .iter()
                    .map(|ei| kept.errors.iter().map(|ej| ei.dot(ej).to_bits()).collect())
                    .collect();
                let cached: Vec<Vec<u64>> = kept
                    .gram
                    .iter()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect();
                assert_eq!(cached, full, "step {step}");
            }
        }
    }

    /// The six-GEMM form `Xᵀ (F D S − S D F) X`, each product taken as
    /// written.
    fn error_vector_six_gemms(f: &Matrix, d: &Matrix, s: &Matrix, x: &Matrix) -> Matrix {
        let fds = gemm(&gemm(f, Transpose::No, d, Transpose::No), Transpose::No, s, Transpose::No);
        let sdf = gemm(&gemm(s, Transpose::No, d, Transpose::No), Transpose::No, f, Transpose::No);
        let half = gemm(x, Transpose::Yes, &fds.sub(&sdf), Transpose::No);
        gemm(&half, Transpose::No, x, Transpose::No)
    }

    #[test]
    fn error_vector_is_antisymmetric_and_matches_the_six_gemm_form() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [1, 2, 7, 24, 61] {
            let mut sym = |scale: f64, shift: f64| {
                let mut m = Matrix::from_fn(n, n, |_, _| scale * next());
                m.symmetrize();
                m.axpy(shift, &Matrix::identity(n));
                m
            };
            let (f, d) = (sym(1.0, 0.0), sym(0.5, 0.0));
            // Diagonally dominant (Gershgorin), so positive definite: a
            // valid overlap.
            let s = sym(0.2, 1.0 + 0.2 * n as f64);
            let x = mako_linalg::sym_inv_sqrt_diag(&s, 1e-10).expect("overlap").matrix;
            let e = Diis::error_vector(&f, &d, &s, &x);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(e[(i, j)], -e[(j, i)], "n = {n} ({i}, {j})");
                }
            }
            let oracle = error_vector_six_gemms(&f, &d, &s, &x);
            let scale = oracle.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let diff = e.sub(&oracle).as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(diff <= 1e-13 * scale, "n = {n}: |Δ| = {diff:e} of max {scale:e}");
        }
    }

    #[test]
    fn error_vector_vanishes_at_convergence() {
        // If F and D commute through S (e.g. all diagonal), error is zero.
        let f = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let d = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 0.0]);
        let s = Matrix::identity(2);
        let x = Matrix::identity(2);
        let e = Diis::error_vector(&f, &d, &s, &x);
        assert!(e.norm_fro() < 1e-14);
    }
}
