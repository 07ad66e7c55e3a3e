//! Matrix-aligned McMurchie–Davidson ERI evaluation — the paper's
//! Algorithm 1.
//!
//! Per shell pair, the Hermite expansion matrices `E` are precomputed for
//! every surviving primitive pair, with the Cartesian→spherical transform
//! *folded in* so the two basis-transformation GEMMs emit spherical-AO
//! integrals directly. A shell quartet is then evaluated as
//!
//! ```text
//! for each ket primitive pair i:
//!     (ab|q]   = Σ_j  E_AB^(j) · [p|q]^(ji)      // GEMM accumulate
//!     (ab|cd) += (ab|q] · (E_CD^(i))ᵀ            // GEMM
//! ```
//!
//! where `[p|q]_{tuv,τνφ} = (−1)^{τ+ν+φ} · 2π^{5/2}/(pq√(p+q)) ·
//! R^{(0)}_{t+τ, u+ν, v+φ}` and the `R` tensor comes from the Boys-seeded
//! recursion in [`crate::hermite`].
//!
//! This module is the *numerical* engine; `mako-kernels` wraps the same
//! math in simulated-device pipelines (fused/unfused, quantized, batched).

use crate::boys::boys_reference;
use crate::hermite::{e_matrix, r_integrals_into};
use crate::tensor::Tensor4;
use mako_chem::cart::{hermite_components, hermite_index_map, ncart, nherm, nsph};
use mako_chem::harmonics::cart_to_sph;
use mako_chem::Shell;
use mako_linalg::{gemm_into, Matrix, Transpose};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Primitive-pair data of a shell pair: composite exponent, Gaussian-product
/// center, and the spherical-folded Hermite expansion matrix (contraction
/// coefficients included).
#[derive(Debug, Clone)]
pub struct PrimPair {
    /// Composite exponent p = a + b.
    pub p: f64,
    /// Gaussian product center P = (aA + bB)/p.
    pub center: [f64; 3],
    /// `(nsph_a · nsph_b) × nherm(la+lb)` spherical E matrix with the
    /// contraction coefficient folded in.
    pub e_sph: Matrix,
}

/// Precomputed shell-pair data — the static intermediate CompilerMako's
/// Reuse-Guided Planning treats as a cacheable tensor.
#[derive(Debug, Clone)]
pub struct ShellPairData {
    /// Bra/ket angular momenta.
    pub la: usize,
    /// Angular momentum of the second shell.
    pub lb: usize,
    /// Surviving primitive pairs.
    pub prims: Vec<PrimPair>,
    /// Spherical pair dimension `nsph(la)·nsph(lb)`.
    pub nsph_pair: usize,
    /// Hermite dimension `nherm(la+lb)`.
    pub nherm: usize,
}

impl ShellPairData {
    /// Combined angular momentum `la + lb`.
    pub fn l_total(&self) -> usize {
        self.la + self.lb
    }

    /// Contraction degree surviving screening (the K of the paper).
    pub fn degree(&self) -> usize {
        self.prims.len()
    }
}

/// Negligibility threshold for primitive-pair prefactors.
const PRIM_SCREEN: f64 = 1e-16;

/// Cached Kronecker products `C_a ⊗ C_b` of the cart→sph matrices, shared
/// by every engine that folds the spherical transform into its GEMMs.
pub fn sph_pair_transform(la: usize, lb: usize) -> &'static Matrix {
    static CACHE: OnceLock<parking::Cache> = OnceLock::new();
    mod parking {
        use super::Matrix;
        use std::collections::HashMap;
        use std::sync::Mutex;
        #[derive(Default)]
        pub struct Cache {
            pub map: Mutex<HashMap<(usize, usize), &'static Matrix>>,
        }
    }
    let cache = CACHE.get_or_init(Default::default);
    let mut map = cache.map.lock().unwrap();
    if let Some(m) = map.get(&(la, lb)) {
        return m;
    }
    let ca = cart_to_sph(la);
    let cb = cart_to_sph(lb);
    let (ra, ca_n) = (ca.rows(), ca.cols());
    let (rb, cb_n) = (cb.rows(), cb.cols());
    let mut kron = Matrix::zeros(ra * rb, ca_n * cb_n);
    for i in 0..ra {
        for j in 0..rb {
            for k in 0..ca_n {
                for l in 0..cb_n {
                    kron[(i * rb + j, k * cb_n + l)] = ca[(i, k)] * cb[(j, l)];
                }
            }
        }
    }
    let leaked: &'static Matrix = Box::leak(Box::new(kron));
    map.insert((la, lb), leaked);
    leaked
}

/// Build the precomputed pair data for two shells.
pub fn shell_pair(sa: &Shell, sb: &Shell) -> ShellPairData {
    let la = sa.l;
    let lb = sb.l;
    let ab = [
        sa.center[0] - sb.center[0],
        sa.center[1] - sb.center[1],
        sa.center[2] - sb.center[2],
    ];
    let ab2 = ab[0] * ab[0] + ab[1] * ab[1] + ab[2] * ab[2];
    let ncart_pair = ncart(la) * ncart(lb);
    let nh = nherm(la + lb);
    let transform = sph_pair_transform(la, lb);
    let mut prims = Vec::new();
    for (i, &a) in sa.exps.iter().enumerate() {
        for (j, &b) in sb.exps.iter().enumerate() {
            let coef = sa.coefs[i] * sb.coefs[j];
            let mu = a * b / (a + b);
            if coef.abs() * (-mu * ab2).exp() < PRIM_SCREEN {
                continue;
            }
            let p = a + b;
            let center = [
                (a * sa.center[0] + b * sb.center[0]) / p,
                (a * sa.center[1] + b * sb.center[1]) / p,
                (a * sa.center[2] + b * sb.center[2]) / p,
            ];
            let e_cart = Matrix::from_vec(ncart_pair, nh, e_matrix(la, lb, a, b, ab));
            let mut e_sph = Matrix::zeros(transform.rows(), nh);
            gemm_into(coef, transform, Transpose::No, &e_cart, Transpose::No, 0.0, &mut e_sph);
            prims.push(PrimPair { p, center, e_sph });
        }
    }
    ShellPairData {
        la,
        lb,
        prims,
        nsph_pair: nsph(la) * nsph(lb),
        nherm: nh,
    }
}

/// Hermite pair-combination table for `[p|q]` assembly: for bra Hermite
/// order `l_bra` and ket order `l_ket`, maps `(bra index, ket index)` to
/// `(combined hermite index, ket sign)`.
pub struct PqIndex {
    /// Flat `(nherm_bra × nherm_ket)` table of combined indices into the
    /// `hermite_components(l_bra + l_ket)` ordering.
    pub combined: Vec<usize>,
    /// `(−1)^{τ+ν+φ}` per ket index.
    pub ket_sign: Vec<f64>,
    nherm_ket: usize,
}

impl PqIndex {
    /// Build the table for the given bra/ket Hermite orders.
    pub fn new(l_bra: usize, l_ket: usize) -> PqIndex {
        let bra = hermite_components(l_bra);
        let ket = hermite_components(l_ket);
        let map: HashMap<(usize, usize, usize), usize> = hermite_index_map(l_bra + l_ket);
        let mut combined = Vec::with_capacity(bra.len() * ket.len());
        for &(t, u, v) in &bra {
            for &(tt, uu, vv) in &ket {
                combined.push(map[&(t + tt, u + uu, v + vv)]);
            }
        }
        let ket_sign = ket
            .iter()
            .map(|&(t, u, v)| if (t + u + v) % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        PqIndex {
            combined,
            ket_sign,
            nherm_ket: ket.len(),
        }
    }
}

/// Reusable workspace for repeated `[p|q]` assembly: Boys values, the
/// Hermite recursion buffer, and the `R_tuv` result. One instance per
/// worker thread amortizes every allocation in the per-primitive hot loop.
#[derive(Default)]
pub struct PqScratch {
    /// `F_0..F_l` for the current primitive pair.
    pub boys: Vec<f64>,
    /// Hermite `R` recursion workspace (see [`r_integrals_into`]).
    pub rbuf: Vec<f64>,
    /// Hermite Coulomb integrals `R_tuv` in component order.
    pub r: Vec<f64>,
}

/// Geometric precursors of one primitive-pair combination: the reduced
/// exponent `α = pq/(p+q)`, the separation `P − Q`, and the Boys argument
/// `T = α|P−Q|²`.
#[inline]
pub fn pq_geometry(bra: &PrimPair, ket: &PrimPair) -> (f64, [f64; 3], f64) {
    let alpha = bra.p * ket.p / (bra.p + ket.p);
    let pq = [
        bra.center[0] - ket.center[0],
        bra.center[1] - ket.center[1],
        bra.center[2] - ket.center[2],
    ];
    let t = alpha * (pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2]);
    (alpha, pq, t)
}

/// Assemble the `[p|q]` matrix for one primitive-pair × primitive-pair
/// combination.
pub fn pq_matrix(bra: &PrimPair, ket: &PrimPair, l_bra: usize, l_ket: usize, idx: &PqIndex) -> Matrix {
    let mut scratch = PqScratch::default();
    let mut m = Matrix::zeros(nherm(l_bra), nherm(l_ket));
    pq_matrix_into(bra, ket, l_bra, l_ket, idx, &mut scratch, &mut m);
    m
}

/// Allocation-free [`pq_matrix`]: full-precision Boys values via
/// [`boys_reference`], result written into `out` (reshaped in place). This
/// is the FP64-path workhorse.
pub fn pq_matrix_into(
    bra: &PrimPair,
    ket: &PrimPair,
    l_bra: usize,
    l_ket: usize,
    idx: &PqIndex,
    scratch: &mut PqScratch,
    out: &mut Matrix,
) {
    let l_tot = l_bra + l_ket;
    let (_, _, t) = pq_geometry(bra, ket);
    scratch.boys.clear();
    scratch.boys.resize(l_tot + 1, 0.0);
    boys_reference(l_tot, t, &mut scratch.boys);
    let boys = std::mem::take(&mut scratch.boys);
    pq_matrix_from_boys(bra, ket, l_bra, l_ket, idx, &boys, scratch, out);
    scratch.boys = boys;
}

/// Assemble `[p|q]` from caller-provided Boys values `F_0..F_{l_bra+l_ket}`
/// — the quantized pipeline evaluates them in bulk per quartet through
/// [`crate::boys::BoysTable::eval_batch`] and feeds each row here.
#[allow(clippy::too_many_arguments)]
pub fn pq_matrix_from_boys(
    bra: &PrimPair,
    ket: &PrimPair,
    l_bra: usize,
    l_ket: usize,
    idx: &PqIndex,
    boys: &[f64],
    scratch: &mut PqScratch,
    out: &mut Matrix,
) {
    let (alpha, pq, _) = pq_geometry(bra, ket);
    pq_matrix_from_boys_geom(bra, ket, l_bra, l_ket, idx, alpha, pq, boys, scratch, out);
}

/// [`pq_matrix_from_boys`] with the [`pq_geometry`] precursors supplied by
/// the caller — the quantized pipeline already computes them while gathering
/// the quartet's Boys arguments, so the hot loop passes them back in instead
/// of re-deriving the same `(α, P−Q)` per combination.
#[allow(clippy::too_many_arguments)]
pub fn pq_matrix_from_boys_geom(
    bra: &PrimPair,
    ket: &PrimPair,
    l_bra: usize,
    l_ket: usize,
    idx: &PqIndex,
    alpha: f64,
    pq: [f64; 3],
    boys: &[f64],
    scratch: &mut PqScratch,
    out: &mut Matrix,
) {
    let p = bra.p;
    let q = ket.p;
    let l_tot = l_bra + l_ket;
    r_integrals_into(l_tot, alpha, pq, boys, &mut scratch.rbuf, &mut scratch.r);

    let prefac = 2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt());
    let nb = nherm(l_bra);
    let nk = nherm(l_ket);
    debug_assert_eq!(idx.nherm_ket, nk);
    out.reset(nb, nk);
    let data = out.as_mut_slice();
    let r = &scratch.r;
    for (flat, &ci) in idx.combined.iter().enumerate() {
        let kj = flat % nk;
        data[flat] = prefac * idx.ket_sign[kj] * r[ci];
    }
}

/// Evaluate a shell quartet `(ab|cd)` in the spherical AO basis via the
/// matrix-aligned MMD pipeline. This is the FP64 reference every other
/// pipeline (quantized, fused, baseline) is validated against.
pub fn eri_quartet_mmd(pab: &ShellPairData, pcd: &ShellPairData) -> Tensor4 {
    let idx = PqIndex::new(pab.l_total(), pcd.l_total());
    eri_quartet_mmd_with(pab, pcd, &idx)
}

/// Same as [`eri_quartet_mmd`] but with a caller-provided [`PqIndex`]
/// (batched pipelines reuse it across every quartet of an ERI class).
pub fn eri_quartet_mmd_with(pab: &ShellPairData, pcd: &ShellPairData, idx: &PqIndex) -> Tensor4 {
    let na = nsph(pab.la);
    let nb = nsph(pab.lb);
    let nc = nsph(pcd.la);
    let nd = nsph(pcd.lb);
    let mut out = Matrix::zeros(pab.nsph_pair, pcd.nsph_pair);

    let mut abq = Matrix::zeros(pab.nsph_pair, pcd.nherm);
    let mut scratch = PqScratch::default();
    let mut pq = Matrix::zeros(nherm(pab.l_total()), nherm(pcd.l_total()));
    for ket in &pcd.prims {
        // Reset the (ab|q] accumulator for this ket primitive.
        for x in abq.as_mut_slice() {
            *x = 0.0;
        }
        for bra in &pab.prims {
            pq_matrix_into(bra, ket, pab.l_total(), pcd.l_total(), idx, &mut scratch, &mut pq);
            gemm_into(1.0, &bra.e_sph, Transpose::No, &pq, Transpose::No, 1.0, &mut abq);
        }
        gemm_into(1.0, &abq, Transpose::No, &ket.e_sph, Transpose::Yes, 1.0, &mut out);
    }

    let mut t = Tensor4::zeros([na, nb, nc, nd]);
    for ia in 0..na {
        for ib in 0..nb {
            for ic in 0..nc {
                for id in 0..nd {
                    t.set(ia, ib, ic, id, out[(ia * nb + ib, ic * nd + id)]);
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::Shell;

    fn s_shell(center: [f64; 3], exp: f64) -> Shell {
        let def = mako_chem::basis::ShellDef {
            l: 0,
            exps: vec![exp],
            coefs: vec![1.0],
        };
        def.at(0, center)
    }

    fn shell_l(l: usize, center: [f64; 3], exp: f64) -> Shell {
        let def = mako_chem::basis::ShellDef {
            l,
            exps: vec![exp],
            coefs: vec![1.0],
        };
        def.at(0, center)
    }

    #[test]
    fn ssss_same_center_analytic() {
        // For four *normalized* s Gaussians with exponent α on one center:
        // (ss|ss) = 2π^{5/2}/(pq√(p+q)) · N⁴ with p = q = 2α, F_0(0)=1.
        let alpha = 0.9;
        let s = s_shell([0.0; 3], alpha);
        let n = s.coefs[0]; // normalized coefficient
        let pab = shell_pair(&s, &s);
        let t = eri_quartet_mmd(&pab, &pab);
        let p = 2.0 * alpha;
        let expect = 2.0 * std::f64::consts::PI.powf(2.5) / (p * p * (2.0 * p).sqrt()) * n.powi(4);
        assert!(
            ((t.get(0, 0, 0, 0) - expect) / expect).abs() < 1e-12,
            "{} vs {}",
            t.get(0, 0, 0, 0),
            expect
        );
    }

    #[test]
    fn ssss_known_value_hydrogen_like() {
        // (ss|ss) for a normalized 1s Gaussian α=1: analytic
        // 2 π^{5/2} / (4 · √8) · (2/π)^{3}·(4·1)^{0}… easier: compare to the
        // closed form √(2/π)·√α·2/√π? Use self-consistency: the value equals
        // sqrt(2/pi)*... Known result: (ss|ss) = √(2α/π) · 2/√π? Empirically
        // the Coulomb self-energy of a normalized Gaussian of exponent α is
        // √(2α/π)·2/… — instead assert positivity and exponent scaling:
        // (ss|ss)(α) scales as √α for normalized Gaussians.
        let v1 = {
            let s = s_shell([0.0; 3], 1.0);
            let p = shell_pair(&s, &s);
            eri_quartet_mmd(&p, &p).get(0, 0, 0, 0)
        };
        let v4 = {
            let s = s_shell([0.0; 3], 4.0);
            let p = shell_pair(&s, &s);
            eri_quartet_mmd(&p, &p).get(0, 0, 0, 0)
        };
        assert!(v1 > 0.0);
        assert!(((v4 / v1) - 2.0).abs() < 1e-12, "√α scaling: {}", v4 / v1);
    }

    #[test]
    fn permutation_symmetry_bra_ket() {
        // (ab|cd) = (cd|ab).
        let sa = shell_l(1, [0.0, 0.0, 0.0], 1.1);
        let sb = shell_l(0, [0.0, 0.5, 0.3], 0.7);
        let sc = shell_l(2, [0.4, -0.2, 0.0], 0.9);
        let sd = shell_l(0, [-0.3, 0.2, 0.6], 1.4);
        let pab = shell_pair(&sa, &sb);
        let pcd = shell_pair(&sc, &sd);
        let t1 = eri_quartet_mmd(&pab, &pcd);
        let t2 = eri_quartet_mmd(&pcd, &pab);
        let mut worst = 0.0f64;
        for a in 0..t1.dims[0] {
            for b in 0..t1.dims[1] {
                for c in 0..t1.dims[2] {
                    for d in 0..t1.dims[3] {
                        worst = worst.max((t1.get(a, b, c, d) - t2.get(c, d, a, b)).abs());
                    }
                }
            }
        }
        assert!(worst < 1e-12, "bra-ket symmetry violated by {worst}");
    }

    #[test]
    fn permutation_symmetry_within_pair() {
        // (ab|cd) = (ba|cd) with indices swapped.
        let sa = shell_l(1, [0.1, 0.0, 0.0], 1.3);
        let sb = shell_l(1, [0.0, 0.4, 0.2], 0.6);
        let sc = shell_l(0, [0.5, 0.5, 0.5], 2.0);
        let pab = shell_pair(&sa, &sb);
        let pba = shell_pair(&sb, &sa);
        let pcc = shell_pair(&sc, &sc);
        let t1 = eri_quartet_mmd(&pab, &pcc);
        let t2 = eri_quartet_mmd(&pba, &pcc);
        for a in 0..3 {
            for b in 0..3 {
                assert!(
                    (t1.get(a, b, 0, 0) - t2.get(b, a, 0, 0)).abs() < 1e-12,
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn translation_invariance() {
        let shift = [1.7, -2.3, 0.9];
        let mk = |c: [f64; 3], off: bool| {
            let cc = if off {
                [c[0] + shift[0], c[1] + shift[1], c[2] + shift[2]]
            } else {
                c
            };
            shell_l(2, cc, 0.8)
        };
        let (a, b) = ([0.0, 0.0, 0.0], [0.7, 0.2, -0.4]);
        let t1 = {
            let p1 = shell_pair(&mk(a, false), &mk(b, false));
            eri_quartet_mmd(&p1, &p1)
        };
        let t2 = {
            let p2 = shell_pair(&mk(a, true), &mk(b, true));
            eri_quartet_mmd(&p2, &p2)
        };
        assert!(t1.max_abs_diff(&t2) < 1e-12);
    }

    #[test]
    fn distant_charges_coulomb_limit() {
        // Two well-separated normalized s distributions interact like point
        // charges: (aa|bb) → 1/R.
        let r = 20.0;
        let sa = s_shell([0.0; 3], 1.2);
        let sb = s_shell([0.0, 0.0, r], 1.2);
        let paa = shell_pair(&sa, &sa);
        let pbb = shell_pair(&sb, &sb);
        let v = eri_quartet_mmd(&paa, &pbb).get(0, 0, 0, 0);
        assert!((v - 1.0 / r).abs() < 1e-10, "v = {v}, 1/R = {}", 1.0 / r);
    }

    #[test]
    fn contraction_linearity() {
        // A two-primitive contracted shell must equal the coefficient-
        // weighted sum of primitive quartets. Use unnormalized raw shells to
        // dodge normalization differences.
        let mk_raw = |exps: Vec<f64>, coefs: Vec<f64>| Shell {
            l: 0,
            center: [0.0, 0.1, 0.2],
            atom: 0,
            exps,
            coefs,
        };
        let contracted = mk_raw(vec![1.0, 0.4], vec![0.3, 0.7]);
        let p1 = mk_raw(vec![1.0], vec![1.0]);
        let p2 = mk_raw(vec![0.4], vec![1.0]);
        let other = mk_raw(vec![0.9], vec![1.0]);
        let pother = shell_pair(&other, &other);

        let vc = eri_quartet_mmd(&shell_pair(&contracted, &contracted), &pother).get(0, 0, 0, 0);
        let v11 = eri_quartet_mmd(&shell_pair(&p1, &p1), &pother).get(0, 0, 0, 0);
        let v12 = eri_quartet_mmd(&shell_pair(&p1, &p2), &pother).get(0, 0, 0, 0);
        let v22 = eri_quartet_mmd(&shell_pair(&p2, &p2), &pother).get(0, 0, 0, 0);
        let expect = 0.09 * v11 + 2.0 * 0.21 * v12 + 0.49 * v22;
        assert!((vc - expect).abs() < 1e-12, "{vc} vs {expect}");
    }

    #[test]
    fn high_angular_momentum_runs() {
        // (gg|gg): the class the paper's GEMM coalescing targets. Just
        // exercise it and check symmetry + finiteness.
        let sa = shell_l(4, [0.0, 0.0, 0.0], 0.5);
        let sb = shell_l(4, [0.4, 0.1, -0.2], 0.6);
        let pab = shell_pair(&sa, &sb);
        let t = eri_quartet_mmd(&pab, &pab);
        assert_eq!(t.dims, [9, 9, 9, 9]);
        assert!(t.data.iter().all(|x| x.is_finite()));
        // (ab|ab) diagonal elements are positive (Schwarz inner products).
        for a in 0..9 {
            for b in 0..9 {
                assert!(t.get(a, b, a, b) > 0.0, "diagonal ({a},{b})");
            }
        }
    }

    #[test]
    fn exponent_scaling_law() {
        // Scaling all exponents by s and all coordinates by 1/√s leaves
        // normalized-shell ERIs scaled by √s (Coulomb operator is 1/r).
        let s = 2.37;
        let base = |scale: f64| {
            let f = 1.0 / scale.sqrt();
            let sa = shell_l(1, [0.0, 0.0, 0.0], 1.1 * scale);
            let sb = shell_l(1, [0.5 * f, 0.2 * f, 0.0], 0.8 * scale);
            let p = shell_pair(&sa, &sb);
            eri_quartet_mmd(&p, &p)
        };
        let t1 = base(1.0);
        let t2 = base(s);
        for i in 0..t1.data.len() {
            let expect = t1.data[i] * s.sqrt();
            assert!(
                (t2.data[i] - expect).abs() < 1e-10 * (1.0 + expect.abs()),
                "i={i}: {} vs {}",
                t2.data[i],
                expect
            );
        }
    }
}
