//! The Boys function `F_m(T) = ∫₀¹ t^{2m} exp(−T t²) dt`.
//!
//! Every Coulomb-type Gaussian integral bottoms out in Boys values. Two
//! evaluators are provided:
//!
//! * [`boys_reference`] — series seed + stable downward recursion (small T)
//!   and asymptotic + upward recursion (large T); accurate to ~1e-14 and used
//!   wherever FP64 integrals are produced;
//! * [`BoysTable`] — the Gill-style pre-tabulated interpolation path the
//!   paper uses on the GPU (cubic interpolation on a dense T grid with
//!   downward recursion), accurate to ~1e-10 and much cheaper per call.

/// Largest Boys order the engine ever needs: (gg|gg) quartets require
/// `m ≤ 4·4 = 16`; +4 headroom for derivatives/tests.
pub const M_MAX: usize = 20;

/// Crossover between the series/downward branch and the asymptotic/upward
/// branch.
const T_LARGE: f64 = 35.0;

/// Evaluate `F_0..=F_m` into `out[0..=m]` with full double precision.
pub fn boys_reference(m: usize, t: f64, out: &mut [f64]) {
    assert!(out.len() > m, "output buffer too small");
    debug_assert!(t >= 0.0, "Boys argument must be non-negative");
    if t > T_LARGE {
        // Asymptotic F_0 plus upward recursion (stable for large T):
        // F_{m+1} = ((2m+1) F_m − e^{−T}) / (2T).
        let et = (-t).exp();
        out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        for k in 0..m {
            out[k + 1] = ((2 * k + 1) as f64 * out[k] - et) / (2.0 * t);
        }
        return;
    }
    // Series for the highest order:
    // F_m(T) = e^{−T} Σ_{k≥0} (2T)^k / (2m+1)(2m+3)…(2m+2k+1).
    let et = (-t).exp();
    let two_t = 2.0 * t;
    let mut term = 1.0 / (2 * m + 1) as f64;
    let mut sum = term;
    let mut k = 0usize;
    loop {
        k += 1;
        term *= two_t / (2 * m + 2 * k + 1) as f64;
        sum += term;
        if term < sum * 1e-17 || k > 200 {
            break;
        }
    }
    out[m] = et * sum;
    // Stable downward recursion: F_k = (2T F_{k+1} + e^{−T}) / (2k+1).
    for k in (0..m).rev() {
        out[k] = (two_t * out[k + 1] + et) / (2 * k + 1) as f64;
    }
}

/// Convenience: a single `F_m(T)`.
pub fn boys_single(m: usize, t: f64) -> f64 {
    let mut buf = [0.0f64; M_MAX + 1];
    boys_reference(m, t, &mut buf);
    buf[m]
}

/// Pre-tabulated Boys evaluator: dense grid + 4-point (cubic Lagrange)
/// interpolation of `F_{m_max}`, then downward recursion for the lower
/// orders — the structure of the Gill et al. lookup-table scheme the paper
/// adopts (§3.1, "improved cubic Chebyshev interpolation … stored in a
/// lookup table").
pub struct BoysTable {
    m_max: usize,
    h: f64,
    t_max: f64,
    /// `values[i]` = `F_order(i·h)` with `order = m_max + 3`: headroom so the
    /// interpolation error is attenuated by the downward recursion before it
    /// reaches the requested orders.
    values: Vec<f64>,
    order: usize,
}

impl BoysTable {
    /// Build a table serving orders `0..=m_max` for arguments in
    /// `[0, t_max]`; larger arguments transparently use the asymptotic
    /// branch.
    pub fn new(m_max: usize) -> BoysTable {
        let order = m_max + 3;
        let h = 1.0 / 64.0;
        let t_max = T_LARGE;
        let n = (t_max / h) as usize + 8;
        let mut values = Vec::with_capacity(n);
        let mut buf = vec![0.0f64; order + 1];
        for i in 0..n {
            boys_reference(order, i as f64 * h, &mut buf);
            values.push(buf[order]);
        }
        BoysTable {
            m_max,
            h,
            t_max,
            values,
            order,
        }
    }

    /// Evaluate `F_0..=F_m` (m ≤ m_max) into `out`.
    pub fn eval(&self, m: usize, t: f64, out: &mut [f64]) {
        assert!(m <= self.m_max, "order exceeds table");
        self.eval_one(m, t, out);
    }

    /// Evaluate `F_0..=F_m` for a batch of arguments: row `i` of `out`
    /// (stride `m + 1`) receives `F_0..=F_m` at `ts[i]`.
    ///
    /// This is the vectorizable hot-loop entry: unlike [`boys_reference`],
    /// whose series loop runs a data-dependent number of iterations, every
    /// trip count here is fixed by `(m, self.order)` — the in-table branch
    /// is a cubic interpolation plus a fixed-length downward recursion, the
    /// out-of-table branch a closed-form asymptotic seed plus a fixed-length
    /// upward recursion, and the split between them is a single predictable
    /// comparison against the grid edge.
    pub fn eval_batch(&self, m: usize, ts: &[f64], out: &mut Vec<f64>) {
        assert!(m <= self.m_max, "order exceeds table");
        let stride = m + 1;
        out.clear();
        out.resize(ts.len() * stride, 0.0);
        for (row, &t) in out.chunks_exact_mut(stride).zip(ts) {
            self.eval_one(m, t, row);
        }
    }

    /// Shared per-argument core of [`BoysTable::eval`] / `eval_batch`.
    #[inline]
    fn eval_one(&self, m: usize, t: f64, out: &mut [f64]) {
        if t > self.t_max - 4.0 * self.h {
            // Beyond the grid: asymptotic F_0 plus upward recursion (the
            // same fixed-trip branch `boys_reference` uses for large T; at
            // the grid edge T ≈ 35 the neglected erfc tail is ~1e-16).
            let et = (-t).exp();
            out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
            for k in 0..m {
                out[k + 1] = ((2 * k + 1) as f64 * out[k] - et) / (2.0 * t);
            }
            return;
        }
        // Cubic Lagrange on the 4 nearest grid points.
        let x = t / self.h;
        let i1 = (x.floor() as usize).clamp(1, self.values.len() - 3);
        let f = x - i1 as f64; // in [-?, 1+?] near [0,1]
        let (fm1, f0, f1, f2) = (
            self.values[i1 - 1],
            self.values[i1],
            self.values[i1 + 1],
            self.values[i1 + 2],
        );
        let top = {
            // Lagrange weights for nodes -1, 0, 1, 2 at offset f.
            let a = -f * (f - 1.0) * (f - 2.0) / 6.0;
            let b = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0;
            let c = -(f + 1.0) * f * (f - 2.0) / 2.0;
            let d = (f + 1.0) * f * (f - 1.0) / 6.0;
            a * fm1 + b * f0 + c * f1 + d * f2
        };
        // Downward recursion from the headroom order to the requested range.
        let et = (-t).exp();
        let two_t = 2.0 * t;
        let mut cur = top;
        for k in (m..self.order).rev() {
            cur = (two_t * cur + et) / (2 * k + 1) as f64;
        }
        out[m] = cur;
        for k in (0..m).rev() {
            out[k] = (two_t * out[k + 1] + et) / (2 * k + 1) as f64;
        }
    }
}

/// Process-wide shared [`BoysTable`] for orders `0..=m_max`, built lazily
/// per `m_max` so low-angular-momentum classes pay only a short downward
/// recursion (the table's headroom order is `m_max + 3`).
///
/// The quantized ERI pipeline routes every quartet's Boys batch through
/// this; the FP64 reference path keeps [`boys_reference`] so golden
/// energies are untouched by the ~1e-10 interpolation error.
pub fn shared_table(m_max: usize) -> &'static BoysTable {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Vec<OnceLock<BoysTable>>> = OnceLock::new();
    assert!(m_max <= M_MAX, "order exceeds table capacity");
    let slots = TABLES.get_or_init(|| (0..=M_MAX).map(|_| OnceLock::new()).collect());
    slots[m_max].get_or_init(|| BoysTable::new(m_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Slow but independent check: adaptive Simpson on the defining
    /// integral.
    fn boys_quadrature(m: usize, t: f64) -> f64 {
        let f = |x: f64| x.powi(2 * m as i32) * (-t * x * x).exp();
        let n = 20_000;
        let h = 1.0 / n as f64;
        let mut s = f(0.0) + f(1.0);
        for i in 1..n {
            let x = i as f64 * h;
            s += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
        }
        s * h / 3.0
    }

    #[test]
    fn matches_quadrature() {
        for &m in &[0usize, 1, 2, 5, 10, 16] {
            for &t in &[0.0, 0.01, 0.5, 1.0, 5.0, 20.0, 34.0] {
                let v = boys_single(m, t);
                let q = boys_quadrature(m, t);
                assert!(
                    (v - q).abs() < 1e-11,
                    "m={m} t={t}: {v} vs quadrature {q}"
                );
            }
        }
    }

    #[test]
    fn zero_argument_closed_form() {
        // F_m(0) = 1/(2m+1).
        let mut out = [0.0; M_MAX + 1];
        boys_reference(M_MAX, 0.0, &mut out);
        for (m, &f) in out.iter().enumerate() {
            assert!((f - 1.0 / (2 * m + 1) as f64).abs() < 1e-15, "m={m}");
        }
    }

    #[test]
    fn large_argument_asymptotic() {
        // F_0(T) → √(π/T)/2 as T → ∞.
        let v = boys_single(0, 400.0);
        let asym = 0.5 * (std::f64::consts::PI / 400.0).sqrt();
        assert!((v - asym).abs() < 1e-15);
    }

    #[test]
    fn recursion_identity_holds() {
        // 2T F_{m+1} = (2m+1) F_m − e^{−T} for every branch.
        for &t in &[0.3, 5.0, 34.0, 50.0, 200.0] {
            let mut out = [0.0; M_MAX + 1];
            boys_reference(M_MAX, t, &mut out);
            for m in 0..M_MAX {
                let lhs = 2.0 * t * out[m + 1];
                let rhs = (2 * m + 1) as f64 * out[m] - (-t).exp();
                assert!(
                    (lhs - rhs).abs() < 1e-13 * (1.0 + lhs.abs()),
                    "t={t} m={m}: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_m_and_t() {
        let mut out = [0.0; M_MAX + 1];
        let mut prev_f0 = f64::INFINITY;
        for &t in &[0.0, 0.5, 1.0, 2.0, 10.0, 40.0] {
            boys_reference(8, t, &mut out);
            for m in 0..8 {
                assert!(out[m + 1] <= out[m], "F decreasing in m");
                assert!(out[m] > 0.0);
            }
            assert!(out[0] <= prev_f0);
            prev_f0 = out[0];
        }
    }

    #[test]
    fn table_matches_reference() {
        let table = BoysTable::new(16);
        let mut fast = [0.0f64; M_MAX + 1];
        let mut refv = [0.0f64; M_MAX + 1];
        let mut worst = 0.0f64;
        let mut t = 0.0;
        while t < 60.0 {
            table.eval(16, t, &mut fast);
            boys_reference(16, t, &mut refv);
            for m in 0..=16 {
                worst = worst.max((fast[m] - refv[m]).abs());
            }
            t += 0.0371;
        }
        assert!(worst < 5e-10, "table worst-case error {worst}");
    }

    #[test]
    fn batch_matches_eval_bitwise() {
        let table = shared_table(10);
        let ts: Vec<f64> = (0..600).map(|i| i as f64 * 0.1).collect();
        let mut batch = Vec::new();
        table.eval_batch(10, &ts, &mut batch);
        assert_eq!(batch.len(), ts.len() * 11);
        let mut single = [0.0f64; 11];
        for (row, &t) in batch.chunks_exact(11).zip(&ts) {
            table.eval(10, t, &mut single);
            for m in 0..=10 {
                assert_eq!(
                    row[m].to_bits(),
                    single[m].to_bits(),
                    "batch vs eval diverge at t={t} m={m}"
                );
            }
        }
    }

    proptest! {
        /// `eval_batch` stays within the table's accuracy envelope of the
        /// full-precision reference over the whole argument range (grid
        /// interior, grid edge, and asymptotic tail) at every order.
        #[test]
        fn batch_matches_reference(
            m in 0usize..17,
            ts in proptest::collection::vec(0.0f64..80.0, 1..40)
        ) {
            let table = shared_table(16);
            let mut batch = Vec::new();
            table.eval_batch(m, &ts, &mut batch);
            let mut refv = [0.0f64; M_MAX + 1];
            for (row, &t) in batch.chunks_exact(m + 1).zip(&ts) {
                boys_reference(m, t, &mut refv);
                for k in 0..=m {
                    prop_assert!(
                        (row[k] - refv[k]).abs() < 5e-10,
                        "t={} m={} k={}: {} vs {}", t, m, k, row[k], refv[k]
                    );
                }
            }
        }
    }

    #[test]
    fn table_rejects_orders_beyond_capacity() {
        let table = BoysTable::new(4);
        let mut out = [0.0f64; 8];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.eval(6, 1.0, &mut out)
        }));
        assert!(r.is_err());
    }
}
