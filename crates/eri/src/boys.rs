//! The Boys function `F_m(T) = ∫₀¹ t^{2m} exp(−T t²) dt`.
//!
//! Every Coulomb-type Gaussian integral bottoms out in Boys values. Two
//! evaluators are provided:
//!
//! * [`boys_reference`] — series seed + stable downward recursion (small T)
//!   and asymptotic + upward recursion (large T), a data-dependent number of
//!   series terms per call; the oracle the table is built from and tested
//!   against, and the evaluator of the one-electron nuclear-attraction path;
//! * [`BoysTable`] — the pre-tabulated evaluator the paper uses (§3.1): a
//!   Taylor expansion about the nearest node of a uniform `T` grid, then the
//!   downward recursion, every trip count fixed. Accurate to a few ulp
//!   (≤ 5e-14 relative is what the tests hold) and the evaluator of every
//!   two-electron quartet, FP64 and quantized alike.

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

/// Grid step of [`BoysTable`]: nodes at `T₀ = i/8`.
const STEP: f64 = 0.125;
/// Taylor terms per evaluation. With `|T₀ − T| ≤ STEP/2 = 1/16` the first
/// neglected term is at most `(1/16)⁹/9! ≈ 4e-17` of the value.
const TERMS: usize = 9;
/// Values per grid node: `e^{−T₀}`, then `F_0(T₀) ..= F_{M_MAX+TERMS−1}(T₀)`.
const ROW: usize = 1 + M_MAX + TERMS;
/// Grid nodes covering `[0, T_LARGE]`.
const NODES: usize = (T_LARGE / STEP) as usize + 1;
// The whole table stays within two L1 caches' worth of memory.
const _: () = assert!(NODES * ROW * 8 <= 128 * 1024);
/// `1/k` for the Taylor coefficients `(T₀ − T)^k / k!`.
const INV_K: [f64; TERMS] = {
    let mut inv = [1.0; TERMS];
    let mut k = 1;
    while k < TERMS {
        inv[k] = 1.0 / k as f64;
        k += 1;
    }
    inv
};

/// Pre-tabulated Boys evaluator (the paper's lookup table, §3.1): one table
/// of `NODES × ROW` doubles (66 KiB) serves every order `0..=M_MAX`.
///
/// `d/dT F_m = −F_{m+1}`, so about the nearest node `T₀`
///
/// ```text
/// F_m(T)  = Σ_{k<TERMS} F_{m+k}(T₀) · (T₀−T)^k / k!
/// e^{−T}  = e^{−T₀} · Σ_{k<TERMS} (T₀−T)^k / k!
/// F_{j}   = (2T · F_{j+1} + e^{−T}) / (2j+1)        j = m−1 … 0
/// ```
///
/// — a fixed trip count in every loop, no transcendental call, and all terms
/// of the recursion positive, so the top order's few-ulp error never grows.
/// Arguments beyond the grid (`T > 35`) take [`boys_reference`]'s asymptotic
/// branch: the two evaluators switch at the same `T`.
pub struct BoysTable {
    rows: Vec<f64>,
}

impl BoysTable {
    fn build() -> BoysTable {
        let top = ROW - 2;
        let mut rows = vec![0.0f64; NODES * ROW];
        for (i, row) in rows.chunks_exact_mut(ROW).enumerate() {
            let t0 = i as f64 * STEP;
            row[0] = (-t0).exp();
            boys_reference(top, t0, &mut row[1..]);
        }
        BoysTable { rows }
    }

    /// Evaluate `F_0..=F_m` (`m ≤ M_MAX`) into `out[0..=m]`.
    #[inline]
    pub fn eval(&self, m: usize, t: f64, out: &mut [f64]) {
        assert!(m <= M_MAX, "order exceeds table");
        debug_assert!(t >= 0.0, "Boys argument must be non-negative");
        let out = &mut out[..=m];
        if t > T_LARGE {
            let et = (-t).exp();
            out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
            for k in 0..m {
                out[k + 1] = ((2 * k + 1) as f64 * out[k] - et) / (2.0 * t);
            }
            return;
        }
        let node = (t / STEP + 0.5) as usize;
        let row = &self.rows[node * ROW..(node + 1) * ROW];
        let d = node as f64 * STEP - t;
        let mut c = [1.0f64; TERMS];
        for k in 1..TERMS {
            c[k] = c[k - 1] * d * INV_K[k];
        }
        // Smallest terms first.
        let f = &row[1 + m..1 + m + TERMS];
        let (mut top, mut ed) = (0.0, 0.0);
        for k in (0..TERMS).rev() {
            top += c[k] * f[k];
            ed += c[k];
        }
        out[m] = top;
        let et = row[0] * ed;
        let two_t = 2.0 * t;
        for k in (0..m).rev() {
            out[k] = (two_t * out[k + 1] + et) / (2 * k + 1) as f64;
        }
    }

    /// Evaluate `F_0..=F_m` for a batch of arguments: row `i` of `out`
    /// (stride `m + 1`) receives `F_0..=F_m` at `ts[i]`.
    pub fn eval_batch(&self, m: usize, ts: &[f64], out: &mut Vec<f64>) {
        let stride = m + 1;
        out.clear();
        out.resize(ts.len() * stride, 0.0);
        for (row, &t) in out.chunks_exact_mut(stride).zip(ts) {
            self.eval(m, t, row);
        }
    }
}

/// The process-wide [`BoysTable`], built on first use (281 calls of
/// [`boys_reference`]).
pub fn shared_table() -> &'static BoysTable {
    static TABLE: std::sync::OnceLock<BoysTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(BoysTable::build)
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
                let q = boys_quadrature(m, t);
                let mut tab = [0.0; M_MAX + 1];
                shared_table().eval(m, t, &mut tab);
                for v in [boys_single(m, t), tab[m]] {
                    assert!(
                        (v - q).abs() < 1e-11,
                        "m={m} t={t}: {v} vs quadrature {q}"
                    );
                }
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

    /// Worst relative deviation of the table from [`boys_reference`] over
    /// orders `0..=M_MAX` at `t`.
    fn table_rel_err(t: f64) -> f64 {
        let mut fast = [0.0f64; M_MAX + 1];
        let mut refv = [0.0f64; M_MAX + 1];
        shared_table().eval(M_MAX, t, &mut fast);
        boys_reference(M_MAX, t, &mut refv);
        (0..=M_MAX)
            .map(|m| ((fast[m] - refv[m]) / refv[m]).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn table_matches_reference() {
        let ulp = |t: f64, up: bool| f64::from_bits(if up { t.to_bits() + 1 } else { t.to_bits() - 1 });
        // T = 0, every grid node and its two neighbours, the midpoints (the
        // largest Taylor step), both sides of the asymptotic crossover, and a
        // sweep that is incommensurate with the grid out to T = 60.
        let mut ts = vec![0.0, f64::MIN_POSITIVE, T_LARGE, ulp(T_LARGE, true), ulp(T_LARGE, false)];
        for i in 1..NODES {
            let t0 = i as f64 * STEP;
            ts.extend([ulp(t0, false), t0, ulp(t0, true), t0 - 0.5 * STEP, ulp(t0 - 0.5 * STEP, false)]);
        }
        ts.extend((0..1617).map(|i| i as f64 * 0.0371));
        assert!(*ts.last().unwrap() > 59.9);
        let (worst, at) = ts
            .iter()
            .map(|&t| (table_rel_err(t), t))
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
        assert!(worst <= 5e-14, "table worst relative error {worst:e} at T = {at}");
    }

    #[test]
    fn batch_matches_eval_bitwise() {
        let table = shared_table();
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
            m in 0usize..M_MAX + 1,
            ts in proptest::collection::vec(0.0f64..80.0, 1..40)
        ) {
            let mut batch = Vec::new();
            shared_table().eval_batch(m, &ts, &mut batch);
            let mut refv = [0.0f64; M_MAX + 1];
            for (row, &t) in batch.chunks_exact(m + 1).zip(&ts) {
                boys_reference(m, t, &mut refv);
                for k in 0..=m {
                    prop_assert!(
                        (row[k] - refv[k]).abs() <= 5e-14 * refv[k],
                        "t={} m={} k={}: {} vs {}", t, m, k, row[k], refv[k]
                    );
                }
            }
        }
    }

    #[test]
    fn table_rejects_orders_beyond_capacity() {
        let mut out = [0.0f64; M_MAX + 2];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared_table().eval(M_MAX + 1, 1.0, &mut out)
        }));
        assert!(r.is_err());
    }
}
