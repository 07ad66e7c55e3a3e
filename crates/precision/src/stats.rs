//! Error statistics used by the paper's accuracy tables.
//!
//! Table 2 reports RMSE of quantized (AB|CD) kernels against the FP64
//! reference; Table 3 reports MAE of converged total energies. Both are
//! computed here so every bench and test shares one definition.

/// Root-mean-squared error between a reference slice and an approximation.
///
/// Panics if the slices have different lengths; returns 0.0 for empty input.
pub fn rmse(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(reference.len(), approx.len(), "rmse length mismatch");
    if reference.is_empty() {
        return 0.0;
    }
    let ss: f64 = reference
        .iter()
        .zip(approx)
        .map(|(r, a)| {
            let d = r - a;
            d * d
        })
        .sum();
    (ss / reference.len() as f64).sqrt()
}

/// Mean absolute error.
pub fn mae(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(reference.len(), approx.len(), "mae length mismatch");
    if reference.is_empty() {
        return 0.0;
    }
    let s: f64 = reference.iter().zip(approx).map(|(r, a)| (r - a).abs()).sum();
    s / reference.len() as f64
}

/// Maximum absolute error.
#[cfg(test)]
pub(crate) fn max_abs_err(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(reference.len(), approx.len(), "max_abs_err length mismatch");
    reference
        .iter()
        .zip(approx)
        .fold(0.0f64, |m, (r, a)| m.max((r - a).abs()))
}

/// Streaming accumulator for error statistics over many blocks, so benches can
/// fold per-quartet errors without materializing every integral.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorStats {
    n: u64,
    sum_sq: f64,
    sum_abs: f64,
    max_abs: f64,
}

impl ErrorStats {
    /// Fresh, empty accumulator.
    pub fn new() -> ErrorStats {
        ErrorStats::default()
    }

    /// Fold one (reference, approximation) pair.
    pub fn push(&mut self, reference: f64, approx: f64) {
        let d = (reference - approx).abs();
        self.n += 1;
        self.sum_sq += d * d;
        self.sum_abs += d;
        self.max_abs = self.max_abs.max(d);
    }

    /// Fold a pair of slices.
    #[cfg(test)]
    pub(crate) fn push_slices(&mut self, reference: &[f64], approx: &[f64]) {
        assert_eq!(reference.len(), approx.len());
        for (r, a) in reference.iter().zip(approx) {
            self.push(*r, *a);
        }
    }

    /// Merge another accumulator (for parallel reduction).
    pub fn merge(&mut self, other: &ErrorStats) {
        self.n += other.n;
        self.sum_sq += other.sum_sq;
        self.sum_abs += other.sum_abs;
        self.max_abs = self.max_abs.max(other.max_abs);
    }

    /// Number of samples folded so far.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Root-mean-squared error of everything folded so far.
    pub fn rmse(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_sq / self.n as f64).sqrt()
        }
    }

    /// Mean absolute error.
    pub fn mae(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_abs / self.n as f64
        }
    }

    /// Maximum absolute error.
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_identical_slices_is_zero() {
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(rmse(&x, &x), 0.0);
        assert_eq!(mae(&x, &x), 0.0);
        assert_eq!(max_abs_err(&x, &x), 0.0);
    }

    #[test]
    fn hand_computed_values() {
        let r = vec![1.0, 2.0, 3.0, 4.0];
        let a = vec![1.0, 2.0, 3.0, 2.0]; // one error of 2
        assert!((rmse(&r, &a) - 1.0).abs() < 1e-15); // sqrt(4/4)
        assert!((mae(&r, &a) - 0.5).abs() < 1e-15);
        assert_eq!(max_abs_err(&r, &a), 2.0);
    }

    #[test]
    fn streaming_matches_batch() {
        let r: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let a: Vec<f64> = r.iter().map(|x| x + 1e-3 * x.cos()).collect();
        let mut s = ErrorStats::new();
        s.push_slices(&r, &a);
        assert!((s.rmse() - rmse(&r, &a)).abs() < 1e-15);
        assert!((s.mae() - mae(&r, &a)).abs() < 1e-15);
        assert!((s.max_abs() - max_abs_err(&r, &a)).abs() < 1e-15);
        assert_eq!(s.count(), 100);
    }

    #[test]
    fn merge_equals_single_pass() {
        let r: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        let a: Vec<f64> = r.iter().map(|x| x + 0.01).collect();
        let mut whole = ErrorStats::new();
        whole.push_slices(&r, &a);
        let mut left = ErrorStats::new();
        let mut right = ErrorStats::new();
        left.push_slices(&r[..32], &a[..32]);
        right.push_slices(&r[32..], &a[32..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.rmse() - whole.rmse()).abs() < 1e-15);
    }

    #[test]
    fn empty_is_zero() {
        let s = ErrorStats::new();
        assert_eq!(s.rmse(), 0.0);
        assert_eq!(s.mae(), 0.0);
        assert_eq!(rmse(&[], &[]), 0.0);
    }
}
