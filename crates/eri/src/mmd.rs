//! Matrix-aligned McMurchie–Davidson ERI evaluation — the paper's
//! Algorithm 1.
//!
//! Per shell pair, the Hermite expansion matrices `E` are precomputed for
//! every surviving primitive pair, with the Cartesian→spherical transform
//! *folded in* so the two basis-transformation GEMMs emit spherical-AO
//! integrals directly, and stored once, stacked over the pair's primitives.
//! A shell quartet is then two GEMMs with the contraction inside them:
//!
//! ```text
//! (ab|Q]  = E_AB · [P|Q]        (nab × K_AB·h_bra) · (K_AB·h_bra × K_CD·h_ket)
//! (ab|cd) = (ab|Q] · E_CDᵀ      (nab × K_CD·h_ket) · (K_CD·h_ket × ncd)
//! ```
//!
//! where `[P|Q]` stacks the `K_AB × K_CD` primitive blocks
//! `[p|q]_{tuv,τνφ} = (−1)^{τ+ν+φ} · 2π^{5/2}/(pq√(p+q)) ·
//! R^{(0)}_{t+τ, u+ν, v+φ}`. The Boys values come from the shared
//! [`crate::boys::BoysTable`], and the `R` tensors of all `K_AB × K_CD`
//! combinations from one run of the Boys-seeded recursion across lanes
//! ([`r_lanes_into`], over [`crate::hermite::HermiteLanes`]).
//!
//! This module is the *numerical* engine; `mako-kernels` wraps the same
//! math in simulated-device pipelines (fused/unfused, quantized, batched).

use crate::boys::shared_table;
use crate::hermite::{e_matrix, HermiteLanes};
use crate::tensor::Tensor4;
use mako_chem::cart::{hermite_components, hermite_index_map, ncart, nherm, nsph};
use mako_chem::harmonics::cart_to_sph;
use mako_chem::Shell;
use mako_linalg::{gemm_into, transpose_extend, Matrix, Transpose};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Geometry of one primitive pair of a shell pair: composite exponent and
/// Gaussian-product center. Its `E` matrix is a block of
/// [`ShellPairData::e`].
#[derive(Debug, Clone)]
pub struct PrimPair {
    /// Composite exponent p = a + b.
    pub p: f64,
    /// Gaussian product center P = (aA + bB)/p.
    pub center: [f64; 3],
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
    /// The pair's spherical E matrices (contraction coefficients folded in),
    /// transposed and stacked over `prims`: `(K · nherm) × nsph_pair`, row
    /// `i · nherm + h` holding primitive `i`'s Hermite component `h`. Read
    /// transposed it is the bra operand `E_AB` of the first transform, as
    /// stored the ket operand `E_CDᵀ` of the second.
    pub e: Matrix,
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

    /// Primitive `i`'s block of [`ShellPairData::e`]: its `nsph_pair × nherm`
    /// E matrix, transposed (`nherm × nsph_pair`, row-major).
    pub fn e_block(&self, i: usize) -> &[f64] {
        let len = self.nherm * self.nsph_pair;
        &self.e.as_slice()[i * len..(i + 1) * len]
    }
}

/// Version of the FP64 quartet's numerics: bumped whenever its bits move (the
/// Boys evaluator, the summation order of the transforms). Whatever persists
/// values computed from quartets across processes — the server's "screen"
/// artifact holds Schwarz bounds — keys them by it.
///
/// 1: table Boys values, primitives contracted inside two stacked GEMMs
/// (0, implicit: series Boys values, one GEMM pair per primitive pair).
pub const QUARTET_NUMERICS_VERSION: u64 = 1;

/// Negligibility threshold for primitive-pair prefactors.
const PRIM_SCREEN: f64 = 1e-16;

/// `2π^{5/2}`, the Coulomb prefactor of `[p|q]`.
pub const TWO_PI_POW_2_5: f64 = 34.986_836_655_249_725;

/// Cached Kronecker products `C_a ⊗ C_b` of the cart→sph matrices, shared
/// by every engine that folds the spherical transform into its GEMMs.
pub(crate) fn sph_pair_transform(la: usize, lb: usize) -> &'static Matrix {
    static CACHE: OnceLock<parking::Cache> = OnceLock::new();
    mod parking {
        use super::Matrix;
        use std::collections::HashMap;
        use std::sync::Mutex;
        #[derive(Default)]
        pub(crate) struct Cache {
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
    let nsph_pair = transform.rows();
    let mut prims = Vec::new();
    let mut stack = Vec::new();
    let mut e_sph = Matrix::zeros(nsph_pair, nh);
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
            gemm_into(
                coef,
                transform,
                Transpose::No,
                &e_cart,
                Transpose::No,
                0.0,
                &mut e_sph,
            );
            transpose_extend(e_sph.as_slice(), nsph_pair, nh, &mut stack);
            prims.push(PrimPair { p, center });
        }
    }
    ShellPairData {
        la,
        lb,
        e: Matrix::from_vec(prims.len() * nh, nsph_pair, stack),
        prims,
        nsph_pair,
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
}

impl PqIndex {
    fn build(l_bra: usize, l_ket: usize) -> PqIndex {
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
        PqIndex { combined, ket_sign }
    }
}

/// The process-wide [`PqIndex`] of a `(l_bra, l_ket)` class, built on first
/// use: a lock-free read afterwards, so the per-quartet routine looks it up
/// itself instead of having every caller build and thread one through.
pub fn pq_index(l_bra: usize, l_ket: usize) -> &'static PqIndex {
    /// Pair orders up to g + g.
    const L_PAIR: usize = 8;
    static TABLES: [[OnceLock<PqIndex>; L_PAIR + 1]; L_PAIR + 1] =
        [const { [const { OnceLock::new() }; L_PAIR + 1] }; L_PAIR + 1];
    TABLES[l_bra][l_ket].get_or_init(|| PqIndex::build(l_bra, l_ket))
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

/// Write the `h_bra × h_ket` block `[p|q]` of one primitive-pair combination
/// into `out`, whose rows are `ld` apart — `h_ket` for a block of its own
/// (the quantized pipeline rounds each block separately), the stacked
/// operand's width inside [`pq_stacked_into`]. The combination's `R_tuv` is
/// lane `lane` of `r`, run by [`r_lanes_into`].
#[inline]
pub fn pq_block_into(
    bra: &PrimPair,
    ket: &PrimPair,
    idx: &PqIndex,
    r: &HermiteLanes,
    lane: usize,
    out: &mut [f64],
    ld: usize,
) {
    let (p, q) = (bra.p, ket.p);
    let prefac = TWO_PI_POW_2_5 / (p * q * (p + q).sqrt());
    let nk = idx.ket_sign.len();
    for (row, combined) in idx.combined.chunks_exact(nk).enumerate() {
        let dst = &mut out[row * ld..row * ld + nk];
        for ((x, &ci), &sign) in dst.iter_mut().zip(combined).zip(&idx.ket_sign) {
            *x = prefac * sign * r.get(ci, lane);
        }
    }
}

/// Per-thread workspace of [`eri_quartet_mmd_into`], sized by the class of
/// the last quartet alone.
#[derive(Default)]
struct QuartetScratch {
    /// The stacked `[P|Q]` operand.
    pq: Matrix,
    /// The half-transformed `(ab|Q]`.
    abq: Matrix,
    hermite: HermiteLanes,
}

thread_local! {
    static QSCRATCH: RefCell<QuartetScratch> = RefCell::new(QuartetScratch::default());
}

/// Evaluate a shell quartet `(ab|cd)` in the spherical AO basis via the
/// matrix-aligned MMD pipeline. This is the FP64 reference every other
/// pipeline (quantized, fused, baseline) is validated against.
pub fn eri_quartet_mmd(pab: &ShellPairData, pcd: &ShellPairData) -> Tensor4 {
    let mut t = Tensor4::zeros([0; 4]);
    eri_quartet_mmd_into(pab, pcd, &mut t);
    t
}

/// `R_tuv` of every primitive-pair combination of a quartet, one lane each
/// (lane `bi·K_CD + ki` for bra primitive `bi`, ket primitive `ki`), in
/// passes over the lanes: [`pq_geometry`] of every lane, the Boys values of
/// all lanes from the shared table (`BoysTable::eval_lanes`), the seeds, then
/// one `HermiteLanes::run` takes them all through the recursion of order
/// `l_bra + l_ket`.
pub fn r_lanes_into(pab: &ShellPairData, pcd: &ShellPairData, r: &mut HermiteLanes) {
    r.reset(pab.l_total() + pcd.l_total(), pab.degree() * pcd.degree());
    let mut lane = 0;
    for bra in &pab.prims {
        for ket in &pcd.prims {
            let (alpha, sep, t_arg) = pq_geometry(bra, ket);
            r.set_geometry(lane, alpha, sep, t_arg);
            lane += 1;
        }
    }
    r.seed_from_table(shared_table());
    r.run();
}

/// The stacked operand `[P|Q]` of a quartet into `out` (reshaped to
/// `(K_AB·h_bra) × (K_CD·h_ket)`): [`r_lanes_into`], then one
/// [`pq_block_into`] per primitive-pair combination.
pub fn pq_stacked_into(
    pab: &ShellPairData,
    pcd: &ShellPairData,
    r: &mut HermiteLanes,
    out: &mut Matrix,
) {
    r_lanes_into(pab, pcd, r);
    let idx = pq_index(pab.l_total(), pcd.l_total());
    let (hb, hk) = (pab.nherm, pcd.nherm);
    let cols = pcd.degree() * hk;
    // Every element is written below.
    out.reshape(pab.degree() * hb, cols);
    let stacked = out.as_mut_slice();
    let mut lane = 0;
    for (bi, bra) in pab.prims.iter().enumerate() {
        for (ki, ket) in pcd.prims.iter().enumerate() {
            let block = &mut stacked[bi * hb * cols + ki * hk..];
            pq_block_into(bra, ket, idx, r, lane, block, cols);
            lane += 1;
        }
    }
}

/// [`eri_quartet_mmd`] into the caller's tensor (reshaped, its allocation
/// reused) — the one FP64 quartet routine of the tree: every `[p|q]` block of
/// the quartet goes into one stacked operand, and two GEMMs against the
/// pairs' E stacks contract primitives and Hermite components together, the
/// second writing straight into `t`.
pub fn eri_quartet_mmd_into(pab: &ShellPairData, pcd: &ShellPairData, t: &mut Tensor4) {
    t.reset([nsph(pab.la), nsph(pab.lb), nsph(pcd.la), nsph(pcd.lb)]);
    QSCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let QuartetScratch { pq, abq, hermite } = &mut *s;
        pq_stacked_into(pab, pcd, hermite, pq);
        abq.reset(pab.nsph_pair, pq.cols());
        gemm_into(1.0, &pab.e, Transpose::Yes, pq, Transpose::No, 1.0, abq);
        // `t` is row-major over `(ia·nb + ib, ic·nd + id)`: GEMM 2's `C`.
        let mut out = Matrix::from_vec(pab.nsph_pair, pcd.nsph_pair, std::mem::take(&mut t.data));
        gemm_into(
            1.0,
            abq,
            Transpose::No,
            &pcd.e,
            Transpose::No,
            1.0,
            &mut out,
        );
        t.data = out.into_vec();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boys::{boys_reference, M_MAX};
    use crate::hermite::r_integrals;
    use mako_chem::Shell;
    use proptest::prelude::*;

    #[test]
    fn coulomb_prefactor_constant_is_the_computed_one() {
        let computed = 2.0 * std::f64::consts::PI.powf(2.5);
        assert_eq!(TWO_PI_POW_2_5.to_bits(), computed.to_bits());
    }

    #[test]
    fn pq_index_is_built_once_per_class() {
        assert!(std::ptr::eq(pq_index(2, 1), pq_index(2, 1)));
        assert_eq!(pq_index(2, 1).combined.len(), nherm(2) * nherm(1));
        assert_eq!(pq_index(1, 2).ket_sign.len(), nherm(2));
    }

    /// `[p|q]` of one primitive-pair combination, `h_bra × h_ket` row-major,
    /// from the generic [`r_integrals`] on the given Boys values.
    fn reference_pq_block(bra: &PrimPair, ket: &PrimPair, idx: &PqIndex, boys: &[f64]) -> Vec<f64> {
        let (alpha, sep, _) = pq_geometry(bra, ket);
        let r = r_integrals(boys.len() - 1, alpha, sep, boys);
        let prefac = TWO_PI_POW_2_5 / (bra.p * ket.p * (bra.p + ket.p).sqrt());
        let nk = idx.ket_sign.len();
        idx.combined
            .iter()
            .enumerate()
            .map(|(i, &ci)| prefac * idx.ket_sign[i % nk] * r[ci])
            .collect()
    }

    /// The formula this module evaluated before it stacked primitives, with
    /// the series Boys values and plain loops: per ket primitive,
    /// `(ab|q] = Σ_bra E_AB · [p|q]`, then `(ab|cd) += (ab|q] · E_CDᵀ`.
    fn per_primitive_quartet(pab: &ShellPairData, pcd: &ShellPairData) -> Vec<f64> {
        let (l_bra, l_ket) = (pab.l_total(), pcd.l_total());
        let idx = pq_index(l_bra, l_ket);
        let (nab, ncd, hb, hk) = (pab.nsph_pair, pcd.nsph_pair, pab.nherm, pcd.nherm);
        let mut boys = vec![0.0; l_bra + l_ket + 1];
        let mut out = vec![0.0; nab * ncd];
        for (ki, ket) in pcd.prims.iter().enumerate() {
            let e_cd = pcd.e_block(ki);
            let mut abq = vec![0.0; nab * hk];
            for (bi, bra) in pab.prims.iter().enumerate() {
                let e_ab = pab.e_block(bi);
                boys_reference(l_bra + l_ket, pq_geometry(bra, ket).2, &mut boys);
                let pq = reference_pq_block(bra, ket, idx, &boys);
                for s in 0..nab {
                    for k in 0..hk {
                        abq[s * hk + k] += (0..hb)
                            .map(|h| e_ab[h * nab + s] * pq[h * hk + k])
                            .sum::<f64>();
                    }
                }
            }
            for s in 0..nab {
                for c in 0..ncd {
                    out[s * ncd + c] += (0..hk)
                        .map(|k| abq[s * hk + k] * e_cd[k * ncd + c])
                        .sum::<f64>();
                }
            }
        }
        out
    }

    /// Every `[p|q]` element of the stacked operand is the per-combination
    /// block the generic recursion gives on the same table Boys values, bit
    /// for bit: a sample of every class of water₄/STO-3G (K = 3, l ≤ 1) and
    /// of water/def2-TZVP-like (K ≈ 1, l ≤ 3).
    #[test]
    fn stacked_operand_is_the_per_combination_recursion_bit_for_bit() {
        let tetramer = mako_chem::builders::water_cluster(4);
        let water = mako_chem::builders::water();
        let elements: Vec<_> = water.atoms.iter().map(|a| a.element).collect();
        let tzvp = mako_chem::BasisFamily::Def2TzvpLike.basis_for(&elements);
        let systems = [
            mako_chem::basis::sto3g::sto3g().shells_for(&tetramer),
            tzvp.shells_for(&water),
        ];
        let table = shared_table();
        let (mut lanes, mut stacked) = (HermiteLanes::default(), Matrix::default());
        let mut boys = [0.0f64; M_MAX + 1];
        for shells in &systems {
            let pairs = crate::screening::build_screened_pairs(shells, 1e-10);
            let mut checked = 0;
            for batch in crate::batch::batch_quartets(&pairs, 1e-20) {
                for &(pi, qi) in batch.quartets.iter().step_by(11) {
                    let (pab, pcd) = (&pairs[pi].data, &pairs[qi].data);
                    let (l_tot, hb, hk) = (pab.l_total() + pcd.l_total(), pab.nherm, pcd.nherm);
                    let idx = pq_index(pab.l_total(), pcd.l_total());
                    pq_stacked_into(pab, pcd, &mut lanes, &mut stacked);
                    for (bi, bra) in pab.prims.iter().enumerate() {
                        for (ki, ket) in pcd.prims.iter().enumerate() {
                            table.eval(l_tot, pq_geometry(bra, ket).2, &mut boys);
                            let block = reference_pq_block(bra, ket, idx, &boys[..=l_tot]);
                            for (i, x) in block.iter().enumerate() {
                                let got = stacked[(bi * hb + i / hk, ki * hk + i % hk)];
                                let at = format!("combination ({bi}, {ki}), element {i}");
                                assert_eq!(got.to_bits(), x.to_bits(), "{at}");
                            }
                        }
                    }
                    checked += 1;
                }
            }
            assert!(checked > 500, "{checked} quartets");
        }
    }

    /// A contracted shell of 1..=`max_prims` primitives from six unit draws.
    fn random_shell(l: usize, max_prims: usize, u: &[f64; 6]) -> Shell {
        let n = 1 + (u[0] * max_prims as f64) as usize % max_prims;
        mako_chem::basis::ShellDef {
            l,
            exps: (0..n)
                .map(|i| (0.3 + 2.5 * u[1]) * 2.7f64.powi(i as i32))
                .collect(),
            coefs: (0..n).map(|i| 0.3 + u[2] + 0.2 * i as f64).collect(),
        }
        .at(0, [2.0 * u[3] - 1.0, 2.0 * u[4] - 1.0, 2.0 * u[5] - 1.0])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Stacking the primitives into two GEMMs (and the table Boys values)
        /// moves a quartet by rounding only: contraction degrees up to 6 a
        /// pair, shells up to f.
        #[test]
        fn stacked_quartet_matches_the_per_primitive_formula(
            ls in proptest::collection::vec(0usize..4, 4..5),
            draws in proptest::collection::vec(0.0f64..1.0, 24..25),
        ) {
            let shell = |i: usize, max_prims| {
                random_shell(ls[i], max_prims, draws[6 * i..6 * i + 6].try_into().unwrap())
            };
            let pab = shell_pair(&shell(0, 3), &shell(1, 2));
            let pcd = shell_pair(&shell(2, 2), &shell(3, 3));
            let stacked = eri_quartet_mmd(&pab, &pcd);
            let reference = per_primitive_quartet(&pab, &pcd);
            let scale = 1.0 + stacked.max_abs();
            for (i, (&a, &b)) in stacked.data.iter().zip(&reference).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-13 * scale,
                    "({}{}|{}{}) K = {}x{}, element {}: {} vs {}",
                    ls[0], ls[1], ls[2], ls[3], pab.degree(), pcd.degree(), i, a, b
                );
            }
        }
    }

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
