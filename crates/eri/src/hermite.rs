//! Hermite Gaussian machinery of the McMurchie–Davidson (MMD) scheme:
//! the expansion coefficients `E_t^{ij}` and the Hermite Coulomb integrals
//! `R^{(n)}_{tuv}` (the paper's r-integrals, Eqs. 4–5).

use mako_chem::cart::{cart_components, hermite_components, nherm};

/// One-dimensional Hermite expansion coefficients `E_t^{i,j}` for a pair of
/// Gaussians with exponents `a`, `b` separated by `x_ab = A_x − B_x`.
///
/// Returned as a flat table indexed by `[i][j][t]` with `i ≤ la`, `j ≤ lb`,
/// `t ≤ i + j` (entries with `t > i + j` are zero).
#[derive(Debug, Clone, Default)]
pub struct ETable {
    la: usize,
    lb: usize,
    data: Vec<f64>,
}

impl ETable {
    /// Build the table by the standard two-term recursions:
    ///
    /// ```text
    /// E_0^{00}     = exp(−μ x_AB²),  μ = ab/(a+b)
    /// E_t^{i+1,j}  = E_{t−1}^{ij}/(2p) + X_PA E_t^{ij} + (t+1) E_{t+1}^{ij}
    /// E_t^{i,j+1}  = E_{t−1}^{ij}/(2p) + X_PB E_t^{ij} + (t+1) E_{t+1}^{ij}
    /// ```
    pub fn new(la: usize, lb: usize, a: f64, b: f64, x_ab: f64) -> ETable {
        let mut e = ETable::default();
        e.fill(la, lb, a, b, x_ab);
        e
    }

    /// [`ETable::new`] into this table's storage: no heap traffic once the
    /// buffer has grown to the largest `(la, lb)` it has held.
    pub fn fill(&mut self, la: usize, lb: usize, a: f64, b: f64, x_ab: f64) {
        let p = a + b;
        let mu = a * b / p;
        let x_pa = -b * x_ab / p; // P − A
        let x_pb = a * x_ab / p; // P − B
        let tdim = la + lb + 1;
        // The recursions read never-written entries as zero.
        self.data.clear();
        self.data.resize((la + 1) * (lb + 1) * (tdim + 1), 0.0);
        let t_buf = &mut self.data;
        let idx = |i: usize, j: usize, t: usize| (i * (lb + 1) + j) * (tdim + 1) + t;

        t_buf[idx(0, 0, 0)] = (-mu * x_ab * x_ab).exp();
        // Raise i with j = 0.
        for i in 0..la {
            for t in 0..=(i + 1) {
                let mut v = 0.0;
                if t > 0 {
                    v += t_buf[idx(i, 0, t - 1)] / (2.0 * p);
                }
                v += x_pa * t_buf[idx(i, 0, t)];
                v += (t + 1) as f64 * t_buf[idx(i, 0, t + 1)];
                t_buf[idx(i + 1, 0, t)] = v;
            }
        }
        // Raise j for every i.
        for i in 0..=la {
            for j in 0..lb {
                for t in 0..=(i + j + 1) {
                    let mut v = 0.0;
                    if t > 0 {
                        v += t_buf[idx(i, j, t - 1)] / (2.0 * p);
                    }
                    v += x_pb * t_buf[idx(i, j, t)];
                    if t < i + j {
                        v += (t + 1) as f64 * t_buf[idx(i, j, t + 1)];
                    }
                    t_buf[idx(i, j + 1, t)] = v;
                }
            }
        }
        (self.la, self.lb) = (la, lb);
    }

    /// `E_t^{i,j}` (zero outside the valid triangle).
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if t > i + j || i > self.la || j > self.lb {
            return 0.0;
        }
        let tdim = self.la + self.lb + 1;
        self.data[(i * (self.lb + 1) + j) * (tdim + 1) + t]
    }
}

/// The 3D Hermite expansion matrix `E^{ab}_{(cart pair) × (tuv)}` for a
/// primitive pair: rows run over Cartesian component pairs of shells
/// `(la, lb)` (row = ca · ncart(lb) + cb), columns over Hermite components
/// `(t,u,v)` with `t+u+v ≤ la+lb`.
///
/// `E^{ab}_{tuv} = E_t^{i i'} · E_u^{j j'} · E_v^{k k'}`.
pub fn e_matrix(la: usize, lb: usize, a: f64, b: f64, ab: [f64; 3]) -> Vec<f64> {
    let ex = ETable::new(la, lb, a, b, ab[0]);
    let ey = ETable::new(la, lb, a, b, ab[1]);
    let ez = ETable::new(la, lb, a, b, ab[2]);
    let ca = cart_components(la);
    let cb = cart_components(lb);
    let herm = hermite_components(la + lb);
    let ncols = herm.len();
    let mut m = vec![0.0f64; ca.len() * cb.len() * ncols];
    for (ia, &(ax, ay, az)) in ca.iter().enumerate() {
        for (ib, &(bx, by, bz)) in cb.iter().enumerate() {
            let row = ia * cb.len() + ib;
            for (hc, &(t, u, v)) in herm.iter().enumerate() {
                if t <= ax + bx && u <= ay + by && v <= az + bz {
                    m[row * ncols + hc] = ex.get(ax, bx, t) * ey.get(ay, by, u) * ez.get(az, bz, v);
                }
            }
        }
    }
    m
}

/// Hermite Coulomb integrals `R^{(0)}_{tuv}` for all `t+u+v ≤ l`, given the
/// Boys values `F_0..F_l` at `T = α |PQ|²` and the separation `pq = P − Q`.
///
/// Built by the paper's Eq. (5) recursion:
/// `R^{(n)}_{t+1,u,v} = t R^{(n+1)}_{t−1,u,v} + X_PQ R^{(n+1)}_{t,u,v}` (and
/// cyclically for u, v), seeded by `R^{(n)}_{000} = (−2α)^n F_n(T)`.
///
/// Returns a flat vector over [`hermite_components`]`(l)` ordering.
pub fn r_integrals(l: usize, alpha: f64, pq: [f64; 3], boys: &[f64]) -> Vec<f64> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    r_integrals_into(l, alpha, pq, boys, &mut buf, &mut out);
    out
}

/// Allocation-free [`r_integrals`]: the recursion workspace `buf` and the
/// result `out` are caller-provided and reused across the per-primitive hot
/// loop of the quantized pipeline. `out` is overwritten with the
/// [`nherm`]`(l)` values in [`hermite_components`] ordering.
pub fn r_integrals_into(
    l: usize,
    alpha: f64,
    pq: [f64; 3],
    boys: &[f64],
    buf: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    assert!(boys.len() > l, "need F_0..F_l");
    let dim = l + 1;
    let stride_n = dim * dim * dim;
    let idx = |n: usize, t: usize, u: usize, v: usize| n * stride_n + (t * dim + u) * dim + v;
    // The recursion only ever reads entries it has already written this
    // call (seeds, then strictly lower total degrees), so the workspace can
    // be reused without re-zeroing.
    let need = (l + 1) * stride_n;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }

    let mut pow = 1.0;
    for n in 0..=l {
        buf[idx(n, 0, 0, 0)] = pow * boys[n];
        pow *= -2.0 * alpha;
    }

    // Ascending total degree; for each target we need degree−1 and degree−2
    // entries at auxiliary order n+1, which are already present.
    for deg in 1..=l {
        for t in 0..=deg {
            for u in 0..=(deg - t) {
                let v = deg - t - u;
                for n in 0..=(l - deg) {
                    let val = if t > 0 {
                        let mut s = pq[0] * buf[idx(n + 1, t - 1, u, v)];
                        if t > 1 {
                            s += (t - 1) as f64 * buf[idx(n + 1, t - 2, u, v)];
                        }
                        s
                    } else if u > 0 {
                        let mut s = pq[1] * buf[idx(n + 1, t, u - 1, v)];
                        if u > 1 {
                            s += (u - 1) as f64 * buf[idx(n + 1, t, u - 2, v)];
                        }
                        s
                    } else {
                        let mut s = pq[2] * buf[idx(n + 1, t, u, v - 1)];
                        if v > 1 {
                            s += (v - 1) as f64 * buf[idx(n + 1, t, u, v - 2)];
                        }
                        s
                    };
                    buf[idx(n, t, u, v)] = val;
                }
            }
        }
    }

    let herm = mako_chem::cart::hermite_components_cached(l);
    out.clear();
    out.reserve(nherm(l));
    for &(t, u, v) in herm {
        out.push(buf[idx(0, t, u, v)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boys::boys_reference;

    #[test]
    fn e00_is_gaussian_product_prefactor() {
        let (a, b, x) = (1.3, 0.7, 0.9);
        let e = ETable::new(0, 0, a, b, x);
        let mu = a * b / (a + b);
        assert!((e.get(0, 0, 0) - (-mu * x * x).exp()).abs() < 1e-15);
    }

    #[test]
    fn e_sum_rule_overlap() {
        // The 1D overlap ∫ G_i G_j dx = E_0^{ij} √(π/p). Check i=j=0 and the
        // translation-invariance property E_t^{ij}(x_ab) = parity flip under
        // x_ab → −x_ab with (i ↔ j).
        let (a, b, x) = (0.8, 1.9, -0.63);
        let e1 = ETable::new(3, 2, a, b, x);
        let e2 = ETable::new(2, 3, b, a, -x);
        for i in 0..=3 {
            for j in 0..=2 {
                for t in 0..=(i + j) {
                    assert!(
                        (e1.get(i, j, t) - e2.get(j, i, t)).abs() < 1e-13,
                        "swap symmetry i={i} j={j} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn e_derivative_consistency() {
        // d/dA_x E_0^{00} = 2a E_0^{10}? The first Hermite relation gives
        // E_0^{10} = X_PA E_0^{00}; check against finite differences of the
        // Gaussian product prefactor moment:
        // ∫ (x − A) e^{−a(x−A)²} e^{−b(x−B)²} dx = E_0^{10} √(π/p) with the
        // origin at A… instead verify the simplest analytic case directly:
        // for i=1, j=0: E_0^{10} = X_PA e^{−μ x²}, E_1^{10} = e^{−μ x²}/(2p).
        let (a, b, x) = (1.1, 0.4, 0.77);
        let p = a + b;
        let e = ETable::new(1, 0, a, b, x);
        let k = (-(a * b / p) * x * x).exp();
        let x_pa = -b * x / p;
        assert!((e.get(1, 0, 0) - x_pa * k).abs() < 1e-14);
        assert!((e.get(1, 0, 1) - k / (2.0 * p)).abs() < 1e-14);
    }

    #[test]
    fn e_matrix_shape_and_s_content() {
        let m = e_matrix(1, 1, 0.9, 1.4, [0.3, -0.2, 0.5]);
        // 3×3 cart pairs × nherm(2)=10 columns.
        assert_eq!(m.len(), 9 * 10);
        // Row (x,x): only t-components along x and the scalar can be nonzero.
        // Column for (0,1,0) (index 2 in hermite ordering of l=2:
        // degree0:(000); degree1:(100),(010),(001) → index 2 is (010)).
        let row_xx = 0usize;
        assert_eq!(m[row_xx * 10 + 2], 0.0);
        assert_eq!(m[row_xx * 10 + 3], 0.0);
        assert!(m[row_xx * 10] != 0.0);
    }

    #[test]
    fn r000_seed_and_symmetry() {
        let l = 4;
        let alpha = 0.8;
        let pq = [0.0, 0.0, 0.0];
        let mut boys = vec![0.0; l + 1];
        boys_reference(l, 0.0, &mut boys);
        let r = r_integrals(l, alpha, pq, &boys);
        // At PQ = 0, odd-degree R vanish.
        let herm = mako_chem::cart::hermite_components(l);
        for (i, &(t, u, v)) in herm.iter().enumerate() {
            if (t + u + v) % 2 == 1 {
                assert_eq!(r[i], 0.0, "odd component ({t},{u},{v})");
            }
        }
        assert!((r[0] - 1.0).abs() < 1e-15); // F_0(0) = 1
    }

    #[test]
    fn r_matches_finite_difference_derivative() {
        // R_{100} = ∂/∂PQ_x R_{000} evaluated as a derivative of
        // F_0(α|PQ|²) — check with central differences.
        let l = 2;
        let alpha = 0.9;
        let pq = [0.4, -0.3, 0.8];
        let t_of = |q: [f64; 3]| alpha * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]);
        let f0 = |q: [f64; 3]| {
            let mut b = vec![0.0; 1];
            boys_reference(0, t_of(q), &mut b);
            b[0]
        };
        let h = 1e-5;
        let mut qp = pq;
        qp[0] += h;
        let mut qm = pq;
        qm[0] -= h;
        let fd = (f0(qp) - f0(qm)) / (2.0 * h);

        let mut boys = vec![0.0; l + 1];
        boys_reference(l, t_of(pq), &mut boys);
        let r = r_integrals(l, alpha, pq, &boys);
        // hermite ordering for l=2: index 1 = (100).
        assert!((r[1] - fd).abs() < 1e-8, "R100 {} vs fd {}", r[1], fd);
    }

    #[test]
    fn r_second_derivative() {
        // R_{200} = ∂²/∂PQ_x² F_0.
        let alpha = 1.2;
        let pq = [0.25, 0.6, -0.45];
        let t_of = |q: [f64; 3]| alpha * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]);
        let f0 = |q: [f64; 3]| {
            let mut b = [0.0];
            boys_reference(0, t_of(q), &mut b);
            b[0]
        };
        let h = 1e-4;
        let mut qp = pq;
        qp[0] += h;
        let mut qm = pq;
        qm[0] -= h;
        let fd2 = (f0(qp) - 2.0 * f0(pq) + f0(qm)) / (h * h);
        let mut boys = vec![0.0; 3];
        boys_reference(2, t_of(pq), &mut boys);
        let r = r_integrals(2, alpha, pq, &boys);
        // l=2 hermite ordering: degree2 starts at index 4: (200),(110),(101),(020),(011),(002)
        assert!((r[4] - fd2).abs() < 1e-5, "R200 {} vs fd {}", r[4], fd2);
    }
}
