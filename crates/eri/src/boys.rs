//! The Boys function `F_m(T) = ∫₀¹ t^{2m} exp(−T t²) dt`.
//!
//! Every Coulomb-type Gaussian integral bottoms out in Boys values. Two
//! evaluators are provided:
//!
//! * `boys_reference` — series seed + stable downward recursion (small T)
//!   and asymptotic + upward recursion (large T), a data-dependent number of
//!   series terms per call. It builds the table and is the oracle the table
//!   and the block references (`nuclear_block`, the Hermite and MMD tests)
//!   are checked against; it evaluates nothing in an SCF. Obara–Saika
//!   (`os.rs`), the independent reference engine, calls it too;
//! * [`BoysTable`] — the pre-tabulated evaluator the paper uses (§3.1): a
//!   Taylor expansion about the nearest node of a uniform `T` grid, then the
//!   downward recursion, every trip count fixed. Accurate to a few ulp
//!   (≤ 5e-14 relative is what the tests hold) and the evaluator of every
//!   SCF integral: the two-electron quartets, FP64 and quantized alike, and
//!   the one-electron nuclear attraction.
//!
//! A quartet's primitive lanes take the table through
//! [`BoysTable::eval_lanes`]: four lanes a group, both branches of `eval`
//! computed for every group and blended by the `T > 35` mask, one body per
//! order. Under the AVX2 kernel of the dispatch
//! (`mako_linalg::selected_kernel`) a group is one `__m256d`, elsewhere a
//! portable `[f64; 4]`; add, multiply, divide and square root are correctly
//! rounded in both, and `exp` stays the scalar libm call, so every lane is
//! `eval`'s result bit for bit. The AVX2 body is this crate's one module
//! allowed `unsafe` code. The one-electron pass keeps scalar `eval`: its
//! nucleus lanes measured slower through `eval_lanes` (EXPERIMENTS.md).

use mako_linalg::KernelId;

/// Largest Boys order the engine ever needs: (gg|gg) quartets require
/// `m ≤ 4·4 = 16`; +4 headroom for derivatives/tests.
pub(crate) const M_MAX: usize = 20;

/// Crossover between the series/downward branch and the asymptotic/upward
/// branch.
const T_LARGE: f64 = 35.0;

/// Beyond this argument `e^{−T}` is below half the smallest subnormal,
/// `2^{−1075} ≈ e^{−745.13}`, so `(-t).exp()` rounds to exactly `+0.0`.
const EXP_UNDERFLOW: f64 = 746.0;

/// Evaluate `F_0..=F_m` into `out[0..=m]` with full double precision: the
/// source [`BoysTable`] is built from and the oracle it is tested against.
pub(crate) fn boys_reference(m: usize, t: f64, out: &mut [f64]) {
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
#[cfg(test)]
pub(crate) fn boys_single(m: usize, t: f64) -> f64 {
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
/// Arguments beyond the grid (`T > 35`) take `boys_reference`'s asymptotic
/// branch: the two evaluators switch at the same `T`, and give the same bits
/// there. The table's branch skips `exp` where its value is not read (`m = 0`)
/// or is exactly `+0.0` (`T > 746`).
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
            out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
            if m == 0 {
                return;
            }
            let et = if t > EXP_UNDERFLOW { 0.0 } else { (-t).exp() };
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

    /// `F_0..=F_m` (`m ≤ M_MAX`) of every lane at once: lane `i` evaluates
    /// `T = ts[i]`, and `F_k` of lane `i` lands at `out[k·n + i]`
    /// (slot-major, `n = ts.len()`). Every lane gets exactly the bits of
    /// [`BoysTable::eval`]: groups of four lanes run both of its branches in
    /// its operation order (a branch no lane of the group selects is
    /// skipped) and keep the one each lane's `T` selects, and the last
    /// `n mod 4` lanes go through `eval` itself. The group body is AVX2 when
    /// the kernel dispatch selected it, portable otherwise.
    pub fn eval_lanes(&self, m: usize, ts: &[f64], out: &mut [f64]) {
        self.eval_lanes_on(mako_linalg::selected_kernel(), m, ts, out);
    }

    /// [`BoysTable::eval_lanes`] on the given kernel's group body (the AVX2
    /// one only where the host has AVX2, the portable one otherwise).
    fn eval_lanes_on(&self, kernel: KernelId, m: usize, ts: &[f64], out: &mut [f64]) {
        assert!(m <= M_MAX, "order exceeds table");
        let n = ts.len();
        assert!(out.len() >= (m + 1) * n, "output buffer too small");
        // One monomorphised body per order, so every loop over orders has a
        // fixed trip count.
        macro_rules! per_order {
            ($($k:literal)*) => {
                match m {
                    $($k => self.groups::<$k>(kernel, ts, out),)*
                    _ => unreachable!("m ≤ M_MAX"),
                }
            };
        }
        const _: () = assert!(M_MAX == 20, "one arm per order below");
        per_order!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20);
        let mut buf = [0.0f64; M_MAX + 1];
        for lane in n / GROUP * GROUP..n {
            self.eval(m, ts[lane], &mut buf);
            for (k, &f) in buf[..=m].iter().enumerate() {
                out[k * n + lane] = f;
            }
        }
    }

    /// The whole groups of [`BoysTable::eval_lanes`] at order `M`.
    fn groups<const M: usize>(&self, kernel: KernelId, ts: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if kernel == KernelId::Avx2 && avx2::groups::<M>(&self.rows, ts, out) {
            return;
        }
        let _ = kernel;
        portable_groups::<M>(&self.rows, ts, out);
    }
}

/// Lanes of one [`BoysTable::eval_lanes`] group: one `__m256d`.
const GROUP: usize = 4;
/// A group's `T > 35` mask (bit `l` for lane `l`) when every lane takes the
/// asymptotic branch: its table branch, which no lane would read, is
/// skipped, as the asymptotic one is for a mask of 0.
const ALL_LARGE: i32 = (1 << GROUP) - 1;

/// `e^{−T}` of the asymptotic branch per lane of a group at order `M`: the
/// scalar libm call where `eval` makes it (`M > 0`, `35 < T ≤ 746`), `+0.0`
/// elsewhere (exactly `eval`'s value beyond 746; unread at or below 35).
#[inline(always)]
fn asymptotic_exp<const M: usize>(t: &[f64]) -> [f64; GROUP] {
    std::array::from_fn(|l| {
        if M > 0 && t[l] > T_LARGE && t[l] <= EXP_UNDERFLOW {
            (-t[l]).exp()
        } else {
            0.0
        }
    })
}

/// One value per lane of a group.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> [f64; GROUP] {
    std::array::from_fn(f)
}

/// The portable group body of [`BoysTable::eval_lanes`]: `eval`'s two
/// branches over `[f64; 4]`, step for step as the AVX2 body runs them.
fn portable_groups<const M: usize>(rows: &[f64], ts: &[f64], out: &mut [f64]) {
    let n = ts.len();
    for (g, t) in ts.chunks_exact(GROUP).enumerate() {
        let large: [bool; GROUP] = std::array::from_fn(|l| t[l] > T_LARGE);
        let mask = (0..GROUP).fold(0, |m, l| m | i32::from(large[l]) << l);
        let two_t = lanes(|l| 2.0 * t[l]);
        let mut table = [[0.0f64; GROUP]; M_MAX + 1];
        if mask != ALL_LARGE {
            // Table branch on min(T, 35): a lane beyond the grid reads its
            // last node, and the blend discards it.
            let node: [usize; GROUP] =
                std::array::from_fn(|l| (t[l].min(T_LARGE) / STEP + 0.5) as usize);
            let d = lanes(|l| node[l] as f64 * STEP - t[l]);
            let mut c = [[1.0f64; GROUP]; TERMS];
            for k in 1..TERMS {
                c[k] = lanes(|l| c[k - 1][l] * d[l] * INV_K[k]);
            }
            let (mut top, mut ed) = ([0.0f64; GROUP], [0.0f64; GROUP]);
            for k in (0..TERMS).rev() {
                top = lanes(|l| top[l] + c[k][l] * rows[node[l] * ROW + 1 + M + k]);
                ed = lanes(|l| ed[l] + c[k][l]);
            }
            let et = lanes(|l| rows[node[l] * ROW] * ed[l]);
            table[M] = top;
            for k in (0..M).rev() {
                table[k] = lanes(|l| (two_t[l] * table[k + 1][l] + et[l]) / (2 * k + 1) as f64);
            }
        }
        let mut asym = [[0.0f64; GROUP]; M_MAX + 1];
        if mask != 0 {
            // Asymptotic branch on T.
            asym[0] = lanes(|l| 0.5 * (std::f64::consts::PI / t[l]).sqrt());
            let et = asymptotic_exp::<M>(t);
            for k in 0..M {
                asym[k + 1] = lanes(|l| ((2 * k + 1) as f64 * asym[k][l] - et[l]) / two_t[l]);
            }
        }
        for k in 0..=M {
            for l in 0..GROUP {
                out[k * n + g * GROUP + l] = if large[l] { asym[k][l] } else { table[k][l] };
            }
        }
    }
}

/// The AVX2 group body of [`BoysTable::eval_lanes`]: the crate's one module
/// with `unsafe` code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{asymptotic_exp, ALL_LARGE, GROUP, INV_K, M_MAX, NODES, ROW, STEP, TERMS, T_LARGE};
    use std::arch::x86_64::*;

    /// Run every whole group of `ts` at order `M` into `out` (slot-major,
    /// `ts.len()` lanes a slot) and return `true`, or return `false` having
    /// written nothing on a host without AVX2. Panics unless `rows` and `out`
    /// have the table's and the output's sizes.
    pub(super) fn groups<const M: usize>(rows: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        assert!(M <= M_MAX && rows.len() == NODES * ROW && out.len() >= (M + 1) * ts.len());
        // SAFETY: AVX2 was just detected and the sizes are asserted.
        unsafe { groups_avx2::<M>(rows, ts, out) };
        true
    }

    /// # Safety
    ///
    /// The host has AVX2; `M ≤ M_MAX`, `rows.len() == NODES·ROW`,
    /// `out.len() ≥ (M + 1)·ts.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn groups_avx2<const M: usize>(rows: &[f64], ts: &[f64], out: &mut [f64]) {
        let n = ts.len();
        let splat = |x: f64| _mm256_set1_pd(x);
        let last_node = _mm_set1_epi32(NODES as i32 - 1);
        for i in (0..n / GROUP * GROUP).step_by(GROUP) {
            let tl = &ts[i..i + GROUP];
            // SAFETY: `tl` holds four f64; the load is unaligned-tolerant.
            let t = unsafe { _mm256_loadu_pd(tl.as_ptr()) };
            let large = _mm256_cmp_pd::<_CMP_GT_OQ>(t, splat(T_LARGE));
            let mask = _mm256_movemask_pd(large);
            let two_t = _mm256_mul_pd(splat(2.0), t);
            let mut table = [_mm256_setzero_pd(); M_MAX + 1];
            if mask != ALL_LARGE {
                // Table branch on min(T, 35), as the portable body. The
                // integer clamp moves no node of a T ≥ 0 (`as usize`
                // saturates at 0 as the clamp does) and keeps every gather
                // inside the table whatever T is.
                let node = _mm256_cvttpd_epi32(_mm256_add_pd(
                    _mm256_div_pd(_mm256_min_pd(t, splat(T_LARGE)), splat(STEP)),
                    splat(0.5),
                ));
                let node = _mm_min_epi32(_mm_max_epi32(node, _mm_setzero_si128()), last_node);
                let d = _mm256_sub_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(node), splat(STEP)), t);
                let base = _mm_mullo_epi32(node, _mm_set1_epi32(ROW as i32));
                let mut c = [splat(1.0); TERMS];
                for k in 1..TERMS {
                    c[k] = _mm256_mul_pd(_mm256_mul_pd(c[k - 1], d), splat(INV_K[k]));
                }
                let (mut top, mut ed) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                for k in (0..TERMS).rev() {
                    // SAFETY: 0 ≤ node ≤ NODES − 1 (clamped above) and
                    // 1 + M + k < ROW, so every gathered index lies in
                    // [0, NODES·ROW) = [0, rows.len()).
                    let f = unsafe { _mm256_i32gather_pd::<8>(rows.as_ptr().add(1 + M + k), base) };
                    top = _mm256_add_pd(top, _mm256_mul_pd(c[k], f));
                    ed = _mm256_add_pd(ed, c[k]);
                }
                // SAFETY: as above, at offset 0 of each row.
                let e_node = unsafe { _mm256_i32gather_pd::<8>(rows.as_ptr(), base) };
                let et = _mm256_mul_pd(e_node, ed);
                table[M] = top;
                for k in (0..M).rev() {
                    table[k] = _mm256_div_pd(
                        _mm256_add_pd(_mm256_mul_pd(two_t, table[k + 1]), et),
                        splat((2 * k + 1) as f64),
                    );
                }
            }
            let mut asym = [_mm256_setzero_pd(); M_MAX + 1];
            if mask != 0 {
                // Asymptotic branch on T, `exp` per lane where it is read.
                let pi_t = _mm256_div_pd(splat(std::f64::consts::PI), t);
                asym[0] = _mm256_mul_pd(splat(0.5), _mm256_sqrt_pd(pi_t));
                let e = asymptotic_exp::<M>(tl);
                // SAFETY: `e` holds four f64.
                let et = unsafe { _mm256_loadu_pd(e.as_ptr()) };
                for k in 0..M {
                    asym[k + 1] = _mm256_div_pd(
                        _mm256_sub_pd(_mm256_mul_pd(splat((2 * k + 1) as f64), asym[k]), et),
                        two_t,
                    );
                }
            }
            for k in 0..=M {
                let v = _mm256_blendv_pd(table[k], asym[k], large);
                // SAFETY: k·n + i + 3 < (M + 1)·n ≤ out.len().
                unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(k * n + i), v) };
            }
        }
    }
}

/// The process-wide [`BoysTable`], built on first use (281 calls of
/// `boys_reference`).
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
                    assert!((v - q).abs() < 1e-11, "m={m} t={t}: {v} vs quadrature {q}");
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
        let ulp =
            |t: f64, up: bool| f64::from_bits(if up { t.to_bits() + 1 } else { t.to_bits() - 1 });
        // T = 0, every grid node and its two neighbours, the midpoints (the
        // largest Taylor step), both sides of the asymptotic crossover, and a
        // sweep that is incommensurate with the grid out to T = 60.
        let mut ts = vec![
            0.0,
            f64::MIN_POSITIVE,
            T_LARGE,
            ulp(T_LARGE, true),
            ulp(T_LARGE, false),
        ];
        for i in 1..NODES {
            let t0 = i as f64 * STEP;
            ts.extend([
                ulp(t0, false),
                t0,
                ulp(t0, true),
                t0 - 0.5 * STEP,
                ulp(t0 - 0.5 * STEP, false),
            ]);
        }
        ts.extend((0..1617).map(|i| i as f64 * 0.0371));
        assert!(*ts.last().unwrap() > 59.9);
        let (worst, at) = ts
            .iter()
            .map(|&t| (table_rel_err(t), t))
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
        assert!(
            worst <= 5e-14,
            "table worst relative error {worst:e} at T = {at}"
        );
    }

    #[test]
    fn table_asymptotic_branch_is_the_reference_bit_for_bit() {
        // The table skips `exp` for m = 0 and beyond `EXP_UNDERFLOW`; neither
        // shortcut may move a bit against the reference's plain branch.
        assert_eq!((-EXP_UNDERFLOW).exp().to_bits(), 0.0f64.to_bits());
        let ulp_up = |t: f64| f64::from_bits(t.to_bits() + 1);
        let mut ts = vec![ulp_up(T_LARGE), 35.5, 100.0, 745.0, 745.5, 746.0];
        ts.extend([ulp_up(EXP_UNDERFLOW), 747.0, 1000.0, 2000.0]);
        ts.extend((0..4000).map(|i| T_LARGE + 0.4912 * (i + 1) as f64));
        assert!(*ts.last().unwrap() < 2000.0);
        for t in ts {
            for m in 0..=M_MAX {
                let mut fast = [0.0f64; M_MAX + 1];
                let mut refv = [0.0f64; M_MAX + 1];
                shared_table().eval(m, t, &mut fast);
                boys_reference(m, t, &mut refv);
                let bits = |v: &[f64]| v[..=m].iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&refv), "m = {m}, T = {t}");
            }
        }
    }

    /// The arguments every [`eval_lanes_is_eval_bit_for_bit`] draw may
    /// pick: both branch switches and their neighbours, the last argument
    /// whose `exp` is not `+0.0`, and one far out.
    const EDGES: [f64; 8] = [
        0.0,
        T_LARGE,
        T_LARGE.next_up(),
        745.0,
        EXP_UNDERFLOW,
        EXP_UNDERFLOW.next_up(),
        747.0,
        1e6,
    ];

    /// The group bodies to hold to `eval`, whatever `MAKO_KERNEL` selects:
    /// the portable one, and the AVX2 one where the host has AVX2.
    fn bodies() -> Vec<KernelId> {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!("eval_lanes oracle: host has no AVX2, its group body is skipped");
        }
        std::iter::once(KernelId::Generic)
            .chain(avx2.then_some(KernelId::Avx2))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// `eval_lanes` is scalar `eval` bit for bit in every lane, on both
        /// group bodies, at every order, for 1–13 lanes (every remainder
        /// after whole groups of four): `T` drawn over [0, 2000], a quarter
        /// of the draws in the table's [0, 35], and lanes that pick one of
        /// [`EDGES`] instead.
        #[test]
        fn eval_lanes_is_eval_bit_for_bit(
            draws in proptest::collection::vec(0.0f64..1.0, 13..14),
            picks in proptest::collection::vec(0usize..3 * EDGES.len(), 13..14),
            n in 1usize..14,
        ) {
            let ts: Vec<f64> = (0..n)
                .map(|i| EDGES.get(picks[i]).copied().unwrap_or(2000.0 * draws[i].powi(3)))
                .collect();
            let table = shared_table();
            for kernel in bodies() {
                for m in 0..=M_MAX {
                    let mut lanes = vec![f64::NAN; (m + 1) * n];
                    table.eval_lanes_on(kernel, m, &ts, &mut lanes);
                    for (lane, &t) in ts.iter().enumerate() {
                        let mut one = [0.0f64; M_MAX + 1];
                        table.eval(m, t, &mut one);
                        for (k, f) in one[..=m].iter().enumerate() {
                            prop_assert!(
                                lanes[k * n + lane].to_bits() == f.to_bits(),
                                "{kernel:?}, m = {m}, lane {lane} of {n}, T = {t}, F_{k}: {} vs {f}",
                                lanes[k * n + lane]
                            );
                        }
                    }
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
