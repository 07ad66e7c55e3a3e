//! Real solid harmonics and Cartesian→spherical transformation matrices.
//!
//! Spherical Gaussian shells (2l+1 components) are linear combinations of the
//! (l+1)(l+2)/2 Cartesian monomials of degree l. Rather than hard-coding the
//! d/f/g coefficient tables, we generate them **exactly** for any l with the
//! standard solid-harmonic recursions (Helgaker/Jørgensen/Olsen, §6.4),
//! carried out in exact polynomial arithmetic over the monomial basis:
//!
//! ```text
//! S(0,0)   = 1
//! S(l+1, l+1)   = √(2^δ(l,0) (2l+1)/(2l+2)) · (x·S(l,l) − (1−δ(l,0)) y·S(l,−l))
//! S(l+1,−l−1)   = √(2^δ(l,0) (2l+1)/(2l+2)) · (y·S(l,l) + (1−δ(l,0)) x·S(l,−l))
//! S(l+1, m)     = [(2l+1) z·S(l,m) − √((l+m)(l−m)) r²·S(l−1,m)]
//!                 / √((l+1+m)(l+1−m))
//! ```
//!
//! Solid harmonics are homogeneous polynomials of degree l, so every monomial
//! in the result has `a + b + c = l` and the transformation is a dense
//! `(2l+1) × ncart(l)` matrix. Mako folds this matrix into the MMD
//! E-coefficient GEMMs so that ERI pipelines emit spherical integrals
//! directly.

#[cfg(test)]
use crate::cart::double_factorial;
use crate::cart::{cart_components, ncart, nsph};
use mako_linalg::Matrix;
use std::collections::HashMap;

/// A polynomial in (x, y, z) over the monomial basis.
#[derive(Debug, Clone, Default, PartialEq)]
struct Poly {
    terms: HashMap<(usize, usize, usize), f64>,
}

impl Poly {
    fn one() -> Poly {
        let mut terms = HashMap::new();
        terms.insert((0, 0, 0), 1.0);
        Poly { terms }
    }

    fn add_term(&mut self, key: (usize, usize, usize), coef: f64) {
        if coef == 0.0 {
            return;
        }
        let entry = self.terms.entry(key).or_insert(0.0);
        *entry += coef;
        if *entry == 0.0 {
            self.terms.remove(&key);
        }
    }

    fn scaled(&self, s: f64) -> Poly {
        let mut out = Poly::default();
        for (&k, &v) in &self.terms {
            out.add_term(k, v * s);
        }
        out
    }

    fn plus(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (&k, &v) in &other.terms {
            out.add_term(k, v);
        }
        out
    }

    /// Multiply by x^dx y^dy z^dz.
    fn shift(&self, dx: usize, dy: usize, dz: usize) -> Poly {
        let mut out = Poly::default();
        for (&(a, b, c), &v) in &self.terms {
            out.add_term((a + dx, b + dy, c + dz), v);
        }
        out
    }

    /// Multiply by r² = x² + y² + z².
    fn times_r2(&self) -> Poly {
        self.shift(2, 0, 0)
            .plus(&self.shift(0, 2, 0))
            .plus(&self.shift(0, 0, 2))
    }
}

/// All real solid harmonics of degree `l`, indexed by `m + l` (i.e. m runs
/// −l..=l).
fn solid_harmonics(l: usize) -> Vec<Poly> {
    // table[k][m + k]
    let mut table: Vec<Vec<Poly>> = vec![vec![Poly::one()]];
    for ll in 0..l {
        let cur = &table[ll];
        let prev = if ll > 0 { Some(&table[ll - 1]) } else { None };
        let mut next = vec![Poly::default(); 2 * (ll + 1) + 1];

        let delta = if ll == 0 { 1.0 } else { 0.0 };
        let top = (2f64.powf(delta) * (2 * ll + 1) as f64 / (2 * ll + 2) as f64).sqrt();
        let s_ll = &cur[2 * ll]; // m = +ll
        let s_mll = &cur[0]; // m = −ll
        // m = l+1
        let mut p = s_ll.shift(1, 0, 0);
        if ll > 0 {
            p = p.plus(&s_mll.shift(0, 1, 0).scaled(-1.0));
        }
        next[2 * (ll + 1)] = p.scaled(top);
        // m = −(l+1)
        let mut q = s_ll.shift(0, 1, 0);
        if ll > 0 {
            q = q.plus(&s_mll.shift(1, 0, 0));
        }
        next[0] = q.scaled(top);

        // |m| ≤ l
        for m in -(ll as i64)..=(ll as i64) {
            let lm = (m + ll as i64) as usize;
            let num1 = (2 * ll + 1) as f64;
            let mut p = cur[lm].shift(0, 0, 1).scaled(num1);
            let under = ((ll as i64 + m) * (ll as i64 - m)) as f64;
            if under > 0.0 {
                // Index of m in the degree-(ll−1) table: m + (ll − 1).
                let idx = (m + ll as i64 - 1) as usize;
                let prev_row = prev.expect("l ≥ 1 whenever (l+m)(l−m) > 0");
                p = p.plus(&prev_row[idx].times_r2().scaled(-under.sqrt()));
            }
            let denom = (((ll + 1) as i64 + m) * ((ll + 1) as i64 - m)) as f64;
            next[(m + (ll + 1) as i64) as usize] = p.scaled(1.0 / denom.sqrt());
        }
        table.push(next);
    }
    table.pop().unwrap()
}

/// Cartesian→spherical transformation matrix for angular momentum `l`:
/// shape `(2l+1) × ncart(l)`, rows ordered m = −l..=l, columns in
/// [`cart_components`] order.
///
/// Row `m` gives the solid harmonic S_{l,m} as a combination of the degree-l
/// monomials. All rows have equal norm under the single-Gaussian overlap
/// metric, so one per-shell normalization constant serves every m — the
/// property the contracted-AO normalization in `mako-eri` relies on.
pub fn cart_to_sph(l: usize) -> Matrix {
    let harmonics = solid_harmonics(l);
    let comps = cart_components(l);
    let mut m = Matrix::zeros(nsph(l), ncart(l));
    for (mi, poly) in harmonics.iter().enumerate() {
        for (ci, key) in comps.iter().enumerate() {
            if let Some(&v) = poly.terms.get(key) {
                m[(mi, ci)] = v;
            }
        }
        // Defensive: a solid harmonic of degree l must not contain monomials
        // outside degree l.
        debug_assert!(poly.terms.keys().all(|&(a, b, c)| a + b + c == l));
    }
    m
}

/// Cached, shared [`cart_to_sph`]: the solid harmonics are rebuilt through
/// polynomial maps on every uncached call, which per-shell-pair callers
/// cannot afford. Built lazily once per `l`.
pub fn cart_to_sph_cached(l: usize) -> &'static Matrix {
    use std::sync::OnceLock;
    /// Beyond any shell angular momentum a basis here carries.
    const L_CAP: usize = 8;
    static CACHE: [OnceLock<Matrix>; L_CAP + 1] = [const { OnceLock::new() }; L_CAP + 1];
    assert!(l <= L_CAP, "angular momentum beyond cache capacity");
    CACHE[l].get_or_init(|| cart_to_sph(l))
}

/// Single-center overlap of two Cartesian monomial Gaussians with the same
/// exponent α: `∫ x^(a+a') y^(b+b') z^(c+c') e^(−2αr²) d³r`.
///
/// Used by the tests to verify solid-harmonic orthogonality, and by the
/// basis code for primitive normalization.
#[cfg(test)]
pub(crate) fn monomial_gaussian_overlap(
    a: (usize, usize, usize),
    b: (usize, usize, usize),
    alpha: f64,
) -> f64 {
    let dim = |n: usize| -> f64 {
        if n % 2 == 1 {
            0.0
        } else {
            double_factorial(n as i64 - 1) / (4.0 * alpha).powi(n as i32 / 2)
                * (std::f64::consts::PI / (2.0 * alpha)).sqrt()
        }
    };
    dim(a.0 + b.0) * dim(a.1 + b.1) * dim(a.2 + b.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_l_matches_textbook() {
        // s
        let c0 = cart_to_sph(0);
        assert_eq!(c0[(0, 0)], 1.0);
        // p: rows m = −1 (y), 0 (z), +1 (x); columns x, y, z.
        let c1 = cart_to_sph(1);
        assert_eq!(c1[(0, 1)], 1.0); // S_{1,−1} = y
        assert_eq!(c1[(1, 2)], 1.0); // S_{1,0} = z
        assert_eq!(c1[(2, 0)], 1.0); // S_{1,1} = x
        // d: S_{2,0} = (3z² − r²)/2 → coefficients −1/2, −1/2, 1 on x²,y²,z².
        let c2 = cart_to_sph(2);
        let comps = cart_components(2);
        let ix2 = comps.iter().position(|&t| t == (2, 0, 0)).unwrap();
        let iy2 = comps.iter().position(|&t| t == (0, 2, 0)).unwrap();
        let iz2 = comps.iter().position(|&t| t == (0, 0, 2)).unwrap();
        let m0 = 2; // m = 0 row
        assert!((c2[(m0, ix2)] + 0.5).abs() < 1e-14);
        assert!((c2[(m0, iy2)] + 0.5).abs() < 1e-14);
        assert!((c2[(m0, iz2)] - 1.0).abs() < 1e-14);
        // S_{2,2} = (√3/2)(x² − y²)
        let m2 = 4;
        assert!((c2[(m2, ix2)] - 3f64.sqrt() / 2.0).abs() < 1e-14);
        assert!((c2[(m2, iy2)] + 3f64.sqrt() / 2.0).abs() < 1e-14);
        // S_{2,1} = √3 xz
        let ixz = comps.iter().position(|&t| t == (1, 0, 1)).unwrap();
        assert!((c2[(3, ixz)] - 3f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn spherical_components_are_orthogonal_with_equal_norms() {
        // For every l up to g (and beyond), the transformed shell must be
        // orthogonal under the Gaussian overlap metric with identical norms
        // for all m — otherwise per-shell normalization would be wrong.
        for l in 0..=6usize {
            let c = cart_to_sph(l);
            let comps = cart_components(l);
            let alpha = 0.8;
            let n = nsph(l);
            let mut gram = Matrix::zeros(n, n);
            for mi in 0..n {
                for mj in 0..n {
                    let mut s = 0.0;
                    for (ci, &ca) in comps.iter().enumerate() {
                        for (cj, &cb) in comps.iter().enumerate() {
                            let w = c[(mi, ci)] * c[(mj, cj)];
                            if w != 0.0 {
                                s += w * monomial_gaussian_overlap(ca, cb, alpha);
                            }
                        }
                    }
                    gram[(mi, mj)] = s;
                }
            }
            let norm0 = gram[(0, 0)];
            assert!(norm0 > 0.0);
            for mi in 0..n {
                for mj in 0..n {
                    if mi == mj {
                        assert!(
                            ((gram[(mi, mj)] - norm0) / norm0).abs() < 1e-12,
                            "l={l} unequal norms: {} vs {}",
                            gram[(mi, mj)],
                            norm0
                        );
                    } else {
                        assert!(
                            (gram[(mi, mj)] / norm0).abs() < 1e-12,
                            "l={l} m={mi},{mj} not orthogonal: {}",
                            gram[(mi, mj)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_counts() {
        for l in 0..=6 {
            let c = cart_to_sph(l);
            assert_eq!(c.rows(), 2 * l + 1);
            assert_eq!(c.cols(), (l + 1) * (l + 2) / 2);
        }
    }

    #[test]
    fn monomial_overlap_odd_vanishes() {
        assert_eq!(monomial_gaussian_overlap((1, 0, 0), (0, 0, 0), 1.0), 0.0);
        assert!(monomial_gaussian_overlap((1, 0, 0), (1, 0, 0), 1.0) > 0.0);
    }

    #[test]
    fn monomial_overlap_s_type_value() {
        // ∫ e^{−2αr²} = (π/(2α))^{3/2}
        let a = 0.7;
        let v = monomial_gaussian_overlap((0, 0, 0), (0, 0, 0), a);
        let expect = (std::f64::consts::PI / (2.0 * a)).powf(1.5);
        assert!((v - expect).abs() < 1e-14);
    }
}
