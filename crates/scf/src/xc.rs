//! Exchange-correlation functionals and MatMul-style XC matrix assembly.
//!
//! Implements the closed-shell (restricted) forms of Slater exchange, VWN5
//! correlation, Becke-88 gradient-corrected exchange, and Lee-Yang-Parr
//! correlation (Miehlich gradient-only form), composed into B3LYP:
//!
//! `E_xc = 0.20 E_x^HF + 0.08 E_x^Slater + 0.72 E_x^B88
//!        + 0.19 E_c^VWN5 + 0.81 E_c^LYP`.
//!
//! Potentials (`∂e/∂ρ`, `∂e/∂γ` with `γ = |∇ρ|²`) are closed forms,
//! evaluated in one pass per point together with the energy density
//! ([`XcFunctional::eval`]); the unit tests hold them to central differences
//! of `XcFunctional::energy_density` and to the exchange scaling identity.
//!
//! The XC *matrix* is assembled as the paper prescribes (triple-product
//! projection, §1),
//! `V_xc = Φᵀ diag(w·vρ) Φ + 2 Σ_d [Φᵀ diag(w·vγ·∂_dρ) ∂_dΦ + h.c.]`, folded
//! into two GEMMs per block of 128 consecutive grid points. [`evaluate_aos`]
//! keeps, per block, only the AO columns `S_b` that are non-zero somewhere
//! in it (GPU4PySCF's AO screening). Per block, `P_b = Φ_b·D[S_b, S_b]`;
//! row by row, `P_g` is consumed for `ρ`, `∇ρ` and overwritten with
//! `Z_g = ½·w·vρ·φ_g + Σ_d (2·w·vγ·∂_dρ)·∂_dφ_g`; then
//! `V[S_b, S_b] += Φ_bᵀ Z_b`. Finally `V_xc = V + Vᵀ`. Every dropped column
//! is an exact zero, so ρ, ∇ρ, the energy and the electron count are those
//! of the dense product bit for bit; only `V_xc`'s summation order depends
//! on the blocking. No buffer is larger than a block.

use crate::grid::MolecularGrid;
use mako_chem::Shell;
use mako_linalg::{gemm_into, Matrix, Transpose};

const PI: f64 = std::f64::consts::PI;

/// Which LDA/GGA pieces a functional mixes (with weights), plus the exact-
/// exchange fraction applied to the K matrix by the SCF driver.
#[derive(Debug, Clone)]
pub struct XcFunctional {
    /// Display name.
    pub name: &'static str,
    /// Fraction of Hartree-Fock (exact) exchange.
    pub hf_exchange: f64,
    /// (weight, component) pairs.
    components: Vec<(f64, Component)>,
}

#[derive(Debug, Clone, Copy)]
enum Component {
    SlaterX,
    Vwn5C,
    B88X,
    LypC,
}

/// The B3LYP hybrid.
pub fn b3lyp() -> XcFunctional {
    XcFunctional {
        name: "B3LYP",
        hf_exchange: 0.20,
        components: vec![
            (0.08, Component::SlaterX),
            (0.72, Component::B88X),
            (0.19, Component::Vwn5C),
            (0.81, Component::LypC),
        ],
    }
}

/// Pure LDA (SVWN5) — used by tests and ablations.
pub fn svwn() -> XcFunctional {
    XcFunctional {
        name: "SVWN5",
        hf_exchange: 0.0,
        components: vec![(1.0, Component::SlaterX), (1.0, Component::Vwn5C)],
    }
}

/// Pure Hartree-Fock expressed as an "XC functional" (100% exact exchange,
/// no density functional parts).
pub fn hartree_fock() -> XcFunctional {
    XcFunctional {
        name: "HF",
        hf_exchange: 1.0,
        components: vec![],
    }
}

impl XcFunctional {
    /// `(e, ∂e/∂ρ, ∂e/∂γ)` at `(ρ, γ)` with `γ = |∇ρ|²` (closed shell): the
    /// energy density per volume and its closed-form derivatives, all zero
    /// below the density floor.
    pub fn eval(&self, rho: f64, gamma: f64) -> (f64, f64, f64) {
        if rho < 1e-12 {
            return (0.0, 0.0, 0.0);
        }
        let gamma = gamma.max(0.0);
        // Every fractional power of ρ the components need is a product of
        // this one root and ρ.
        let c = rho.cbrt();
        let (mut e, mut vrho, mut vgamma) = (0.0, 0.0, 0.0);
        for &(w, comp) in &self.components {
            let (ec, vr, vg) = match comp {
                Component::SlaterX => slater_x(rho, c),
                Component::Vwn5C => vwn5_c(rho, c),
                Component::B88X => b88_x(rho, c, gamma),
                Component::LypC => lyp_c(rho, c, gamma),
            };
            e += w * ec;
            vrho += w * vr;
            vgamma += w * vg;
        }
        (e, vrho, vgamma)
    }

    /// Energy density per volume, `e(ρ, γ)`. Zero below the density floor.
    #[cfg(test)]
    pub(crate) fn energy_density(&self, rho: f64, gamma: f64) -> f64 {
        self.eval(rho, gamma).0
    }
}

// Each component below returns `(e, ∂e/∂ρ, ∂e/∂γ)` for `ρ` at or above the
// floor, `c = ρ^{1/3}` and `γ ≥ 0`. Every power of ρ is a product of `c` and
// ρ, so a point costs six libm calls in all: `cbrt`, VWN's two `ln` and its
// `atan`, B88's `ln_1p` and LYP's `exp`. The derivatives reuse the energy's
// powers and add none. `xc_pin.rs` holds `E_xc` to the bit: a change of the
// operations of `e` or of their order re-makes its pins.

/// `ρσ^{4/3}` with `ρσ = ρ/2`: `2^{−4/3}·ρ·c`.
fn half_rho_43(rho: f64, c: f64) -> f64 {
    2f64.powf(-4.0 / 3.0) * rho * c
}

/// `asinh x` for `x ≥ 0` from `s = √(1 + x²)`, which B88 shares with `D'(x)`:
/// `ln(x + s) = ln_1p(x + x²/(1 + s))`, with `x²/(1 + s)` written as
/// `x·(x/(1 + s))` so it stays below `x`.
fn asinh_from(x: f64, s: f64) -> f64 {
    (x + x * (x / (1.0 + s))).ln_1p()
}

/// Slater (LDA) exchange: `e = −C_x ρ^{4/3}`, `∂e/∂ρ = (4/3) e/ρ`.
fn slater_x(rho: f64, c: f64) -> (f64, f64, f64) {
    let cx = 0.75 * (3.0 / PI).powf(1.0 / 3.0);
    let e = -cx * (rho * c);
    (e, 4.0 / 3.0 * e / rho, 0.0)
}

/// VWN5 correlation (paramagnetic fit of Vosko, Wilk & Nusair 1980):
/// `e = ρ · ε_c(x)` with `x = √r_s`, `r_s = (3/4π)^{1/3}/c`;
/// `∂e/∂ρ = ε_c − (x/6) dε_c/dx`.
fn vwn5_c(rho: f64, c: f64) -> (f64, f64, f64) {
    const A: f64 = 0.0310907; // = 0.0621814 / 2 (Rydberg→Hartree)
    const X0: f64 = -0.10498;
    const B: f64 = 3.72744;
    const C: f64 = 12.9352;
    let rs = (3.0 / (4.0 * PI)).powf(1.0 / 3.0) / c;
    let x = rs.sqrt();
    let xx = |t: f64| t * t + B * t + C;
    let q = (4.0 * C - B * B).sqrt();
    let atan = (q / (2.0 * x + B)).atan();
    let eps = A
        * ((x * x / xx(x)).ln() + 2.0 * B / q * atan
            - B * X0 / xx(X0)
                * (((x - X0) * (x - X0) / xx(x)).ln() + 2.0 * (B + 2.0 * X0) / q * atan));
    // d/dx atan(q/(2x + B)) = −q / (2 X(x)), so each atan term folds into a
    // rational one.
    let deps_dx = A
        * (2.0 / x - 2.0 * (x + B) / xx(x)
            - B * X0 / xx(X0) * (2.0 / (x - X0) - 2.0 * (x + B + X0) / xx(x)));
    (rho * eps, eps - x / 6.0 * deps_dx, 0.0)
}

/// Becke-88 exchange (closed shell): spin-resolved LDA plus the gradient
/// correction `−β ρσ^{4/3} g(xσ)`, `g(x) = x²/D(x)`, `D = 1 + 6βx asinh x`,
/// with `ρσ = ρ/2` and `xσ = |∇ρσ|/ρσ^{4/3}`. `∂e/∂γ` is written through
/// `g'(x)/x`, which is finite at `x = 0`: there it is `−β/(2ρσ^{4/3})`.
/// `asinh` comes from [`asinh_from`], within a few ulps of `f64::asinh`
/// wherever `x²` is finite, which `g(x)` needs anyway.
fn b88_x(rho: f64, c: f64, gamma: f64) -> (f64, f64, f64) {
    const BETA: f64 = 0.0042;
    let rho_s = 0.5 * rho;
    let r43 = half_rho_43(rho, c);
    let lda_s = -1.5 * (3.0 / (4.0 * PI)).powf(1.0 / 3.0) * r43;
    let x = gamma.sqrt() * 0.5 / r43;
    let s = (1.0 + x * x).sqrt();
    let asinh = asinh_from(x, s);
    let d = 1.0 + 6.0 * BETA * x * asinh;
    let corr = -BETA * r43 * x * x / d;
    // D'(x) = 6β (asinh x + x/√(1 + x²)).
    let dd = 6.0 * BETA * (asinh + x / s);
    let vrho = 4.0 / 3.0 / rho_s * (lda_s - BETA * r43 * x * x * (x * dd - d) / (d * d));
    let vgamma = -BETA * (2.0 * d - x * dd) / (4.0 * r43 * d * d);
    (2.0 * (lda_s + corr), vrho, vgamma)
}

const LYP_A: f64 = 0.04918;
const LYP_B: f64 = 0.132;

/// Lee–Yang–Parr correlation in the Miehlich (gradient-only) form,
/// specialized to the closed shell (`ρα = ρβ = ρ/2`,
/// `γαα = γββ = γαβ = γ/4`). `e` keeps the spin-resolved bracket; the
/// derivatives use its closed-shell reduction
/// `e = −aρ/D − ab ω ρ² [C_F ρ^{8/3} − γ (3 + 7δ)/72]` with `m = ρ^{−1/3}`,
/// `D = 1 + d m`, `ω = e^{−c m} ρ^{−11/3}/D`, `δ = c m + d m/D`, and
/// `ω' = ω (δ − 11)/(3ρ)`, `δ' = −m (c + d/D²)/(3ρ)`. From the root:
/// `m = 1/c`, `ρα^{8/3} = (ρα^{4/3})²` and `ρ^{−11/3} = c/ρ⁴`.
fn lyp_c(rho: f64, c: f64, gamma: f64) -> (f64, f64, f64) {
    const CC: f64 = 0.2533;
    const DD: f64 = 0.349;
    let cf = 0.3 * (3.0 * PI * PI).powf(2.0 / 3.0);
    let ra = 0.5 * rho;
    let rb = 0.5 * rho;
    let rho_m13 = 1.0 / c;
    let denom = 1.0 + DD * rho_m13;
    let r43 = half_rho_43(rho, c);
    let r83 = r43 * r43;
    let first = -LYP_A * 4.0 / denom * ra * ra / rho;
    let omega = (-CC * rho_m13).exp() / denom * (c / (rho * rho * (rho * rho)));
    let delta = CC * rho_m13 + DD * rho_m13 / denom;
    let kinetic = 2f64.powf(11.0 / 3.0) * cf * (r83 + r83); // = 4 C_F ρ^{8/3}
    let gaa = 0.25 * gamma;
    let gbb = 0.25 * gamma;
    let gab = 0.25 * gamma;
    let gtot = gaa + gbb + 2.0 * gab; // = |∇ρ|²
    let bracket = ra * rb
        * (kinetic + (47.0 / 18.0 - 7.0 * delta / 18.0) * gtot
            - (2.5 - delta / 18.0) * (gaa + gbb)
            - (delta - 11.0) / 9.0 * (ra * gaa + rb * gbb) / rho)
        - 2.0 / 3.0 * rho * rho * gtot
        + (2.0 / 3.0 * rho * rho - ra * ra) * gbb
        + (2.0 / 3.0 * rho * rho - rb * rb) * gaa;
    let e = first - LYP_A * LYP_B * omega * bracket;

    let ab = LYP_A * LYP_B;
    let g_term = gamma * (3.0 + 7.0 * delta) / 72.0;
    let reduced = rho * rho * (0.25 * kinetic - g_term);
    let d_omega = omega * (delta - 11.0) / (3.0 * rho);
    let d_delta = -rho_m13 * (CC + DD / (denom * denom)) / (3.0 * rho);
    let d_reduced =
        rho * (14.0 / 12.0 * kinetic - 2.0 * g_term) - rho * rho * gamma * 7.0 * d_delta / 72.0;
    let d_first = -LYP_A / denom - LYP_A * DD * rho_m13 / (3.0 * denom * denom);
    let vrho = d_first - ab * (d_omega * reduced + omega * d_reduced);
    let vgamma = ab * omega * rho * rho * (3.0 + 7.0 * delta) / 72.0;
    (e, vrho, vgamma)
}

/// Grid points per block of the XC pass: the Z workspace and the AO
/// tabulation scratch are one block in size.
const BLOCK: usize = 128;

/// AO values and Cartesian gradients on one block of consecutive grid
/// points, restricted to the AOs that are non-zero (φ or any ∂φ) somewhere
/// in the block. Every dropped value is an exact zero.
pub struct AoBlock {
    /// Index of the block's first grid point.
    pub start: usize,
    /// The kept AOs, ascending: column `k` of every matrix is AO `aos[k]`.
    pub aos: Vec<usize>,
    /// AO values, `rows × aos.len()`.
    pub phi: Matrix,
    /// AO gradients per Cartesian direction, shaped like `phi`.
    pub grad: [Matrix; 3],
}

/// AO values and gradients on a grid, as blocks of consecutive points in
/// grid order.
pub struct AoOnGrid {
    nao: usize,
    blocks: Vec<AoBlock>,
}

impl AoOnGrid {
    /// Number of AOs of the basis (kept or not).
    pub fn nao(&self) -> usize {
        self.nao
    }

    /// The blocks, in grid order.
    pub fn blocks(&self) -> &[AoBlock] {
        &self.blocks
    }

    /// `Σ_b rows_b·nao_b / (npts·nao)`: the share of the dense `npts × nao`
    /// tabulation the blocks keep.
    pub fn kept_frac(&self) -> f64 {
        let (kept, rows) = self.blocks.iter().fold((0, 0), |(k, r), b| {
            (k + b.phi.rows() * b.aos.len(), r + b.phi.rows())
        });
        kept as f64 / (rows * self.nao).max(1) as f64
    }
}

/// Evaluate every AO (and its gradient) of `shells` on the grid points.
pub fn evaluate_aos(shells: &[Shell], grid: &MolecularGrid) -> AoOnGrid {
    evaluate_aos_in_blocks(shells, grid, BLOCK)
}

/// [`evaluate_aos`] with blocks of `block_len` points (the last may be
/// shorter). Each block is tabulated densely into one block-sized scratch,
/// then only its non-zero columns are kept.
fn evaluate_aos_in_blocks(shells: &[Shell], grid: &MolecularGrid, block_len: usize) -> AoOnGrid {
    use mako_chem::cart::cart_components;
    use mako_chem::harmonics::cart_to_sph_cached;

    let layout = mako_chem::AoLayout::new(shells);
    let nao = layout.nao;
    let tables: Vec<_> = shells
        .iter()
        .map(|s| (cart_to_sph_cached(s.l), cart_components(s.l)))
        .collect();
    let mut scratch: [Matrix; 4] = Default::default();
    let mut blocks = Vec::with_capacity(grid.len().div_ceil(block_len));
    for (bi, points) in grid.points.chunks(block_len).enumerate() {
        let rows = points.len();
        for m in &mut scratch {
            m.reset(rows, nao);
        }
        let [phi, gx, gy, gz] = &mut scratch;
        for (si, shell) in shells.iter().enumerate() {
            let (c2s, comps) = &tables[si];
            let off = layout.shell_offsets[si];
            for (g, point) in points.iter().enumerate() {
                let dx = point.position[0] - shell.center[0];
                let dy = point.position[1] - shell.center[1];
                let dz = point.position[2] - shell.center[2];
                let r2 = dx * dx + dy * dy + dz * dz;
                // Radial part and its derivative factor.
                let mut rad = 0.0;
                let mut drad = 0.0; // d(rad)/d(r²)
                for (e, c) in shell.exps.iter().zip(&shell.coefs) {
                    let ex = (-e * r2).exp() * c;
                    rad += ex;
                    drad += -e * ex;
                }
                if rad.abs() + drad.abs() < 1e-16 {
                    continue;
                }
                // Monomials and their derivatives.
                for mi in 0..c2s.rows() {
                    let mut val = 0.0;
                    let mut dvx = 0.0;
                    let mut dvy = 0.0;
                    let mut dvz = 0.0;
                    for (ci, &(a, b, c)) in comps.iter().enumerate() {
                        let coef = c2s[(mi, ci)];
                        if coef == 0.0 {
                            continue;
                        }
                        let pa = powi(dx, a);
                        let pb = powi(dy, b);
                        let pc = powi(dz, c);
                        let mono = pa * pb * pc;
                        val += coef * mono;
                        // ∂/∂x of (x^a y^b z^c · rad) =
                        //   (a x^{a−1} y^b z^c) rad + mono · 2x · drad
                        dvx += coef
                            * ((if a > 0 { a as f64 * powi(dx, a - 1) * pb * pc } else { 0.0 })
                                * rad
                                + mono * 2.0 * dx * drad);
                        dvy += coef
                            * ((if b > 0 { b as f64 * pa * powi(dy, b - 1) * pc } else { 0.0 })
                                * rad
                                + mono * 2.0 * dy * drad);
                        dvz += coef
                            * ((if c > 0 { c as f64 * pa * pb * powi(dz, c - 1) } else { 0.0 })
                                * rad
                                + mono * 2.0 * dz * drad);
                    }
                    phi[(g, off + mi)] = val * rad;
                    gx[(g, off + mi)] = dvx;
                    gy[(g, off + mi)] = dvy;
                    gz[(g, off + mi)] = dvz;
                }
            }
        }
        let aos: Vec<usize> = (0..nao)
            .filter(|&j| scratch.iter().any(|m| (0..rows).any(|g| m[(g, j)] != 0.0)))
            .collect();
        let [phi, gx, gy, gz] =
            scratch.each_ref().map(|m| Matrix::from_fn(rows, aos.len(), |g, k| m[(g, aos[k])]));
        blocks.push(AoBlock {
            start: bi * block_len,
            aos,
            phi,
            grad: [gx, gy, gz],
        });
    }
    AoOnGrid { nao, blocks }
}

#[inline]
fn powi(x: f64, n: usize) -> f64 {
    let mut acc = 1.0;
    for _ in 0..n {
        acc *= x;
    }
    acc
}

/// Result of one XC evaluation on the grid.
pub struct XcResult {
    /// Exchange-correlation energy (DFT part only; exact exchange is added
    /// by the SCF driver through K).
    pub energy: f64,
    /// The XC contribution to the Fock matrix.
    pub matrix: Matrix,
    /// Integrated electron count (grid-quality diagnostic).
    pub n_electrons: f64,
    /// Grid points whose density is under the 1e-12 floor (they contribute
    /// nothing to `energy` or `matrix`).
    pub(crate) below_floor: usize,
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// Evaluate `E_xc[ρ]` and `V_xc` for density matrix `d` via the
/// triple-product MatMul assembly, one block of `aos` at a time (module
/// docs).
pub fn evaluate_xc(
    functional: &XcFunctional,
    aos: &AoOnGrid,
    grid: &MolecularGrid,
    d: &Matrix,
) -> XcResult {
    let nao = aos.nao;
    let mut v = Matrix::zeros(nao, nao);
    // Block-sized scratch: D[S_b, S_b], the P/Z workspace, Φ_bᵀ Z_b.
    let (mut d_b, mut z, mut v_b) = (Matrix::default(), Matrix::default(), Matrix::default());
    let mut energy = 0.0;
    let mut n_el = 0.0;
    let mut below_floor = 0;
    for blk in &aos.blocks {
        let points = &grid.points[blk.start..blk.start + blk.phi.rows()];
        let kept = &blk.aos;
        if kept.is_empty() {
            // ρ = 0 at every point: nothing to add but the floor count.
            below_floor += points.len();
            continue;
        }
        d_b.reset(kept.len(), kept.len());
        for (i, &a) in kept.iter().enumerate() {
            for (j, &b) in kept.iter().enumerate() {
                d_b[(i, j)] = d[(a, b)];
            }
        }
        // GEMM 1: P_b = Φ_b·D[S_b, S_b]. The dropped AOs are exact zeros in
        // every row of Φ_b, so each P element sums the same non-zero terms in
        // the same order as the dense product.
        z.reset(points.len(), kept.len());
        gemm_into(1.0, &blk.phi, Transpose::No, &d_b, Transpose::No, 0.0, &mut z);

        for (g, point) in points.iter().enumerate() {
            let row = z.row_mut(g);
            let phi = blk.phi.row(g);
            let dphi = blk.grad.each_ref().map(|m| m.row(g));
            // Density matrix convention: D = Σ_occ C Cᵀ (per spin), total
            // density ρ = 2 Σ D φφ; ∇ρ carries another 2 from the product rule.
            let rho = 2.0 * dot(row, phi);
            let grad_rho = dphi.map(|dp| 4.0 * dot(row, dp));
            let gamma =
                grad_rho[0] * grad_rho[0] + grad_rho[1] * grad_rho[1] + grad_rho[2] * grad_rho[2];
            let (e, vrho, vgamma) = functional.eval(rho, gamma);
            let w = point.weight;
            energy += w * e;
            n_el += w * rho;
            below_floor += usize::from(rho < 1e-12);
            // Z_g = ½·w·vρ·φ_g + Σ_d (2·w·vγ·∂_dρ)·∂_dφ_g, over P_g.
            let a = 0.5 * w * vrho;
            let b = grad_rho.map(|dr| 2.0 * w * vgamma * dr);
            for (j, zj) in row.iter_mut().enumerate() {
                *zj = a * phi[j] + b[0] * dphi[0][j] + b[1] * dphi[1][j] + b[2] * dphi[2][j];
            }
        }

        // GEMM 2: V[S_b, S_b] += Φ_bᵀ Z_b.
        v_b.reset(kept.len(), kept.len());
        gemm_into(1.0, &blk.phi, Transpose::Yes, &z, Transpose::No, 0.0, &mut v_b);
        for (i, &a) in kept.iter().enumerate() {
            for (j, &b) in kept.iter().enumerate() {
                v[(a, b)] += v_b[(i, j)];
            }
        }
    }

    // V_xc = ΦᵀZ + (ΦᵀZ)ᵀ.
    XcResult {
        energy,
        matrix: v.add(&v.transpose()),
        n_electrons: n_el,
        below_floor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::MolecularGrid;
    use mako_chem::builders;

    /// A functional of one component at weight 1.
    fn alone(c: Component) -> XcFunctional {
        XcFunctional {
            name: "component",
            hf_exchange: 0.0,
            components: vec![(1.0, c)],
        }
    }

    /// The blocks scattered back into dense `npts × nao` matrices: φ, then
    /// ∂φ/∂x, ∂φ/∂y, ∂φ/∂z.
    fn dense(aos: &AoOnGrid) -> [Matrix; 4] {
        let npts = aos.blocks.iter().map(|b| b.phi.rows()).sum();
        let mut out: [Matrix; 4] = std::array::from_fn(|_| Matrix::zeros(npts, aos.nao));
        for b in &aos.blocks {
            let parts = [&b.phi, &b.grad[0], &b.grad[1], &b.grad[2]];
            for (dst, src) in out.iter_mut().zip(parts) {
                for g in 0..src.rows() {
                    for (k, &j) in b.aos.iter().enumerate() {
                        dst[(b.start + g, j)] = src[(g, k)];
                    }
                }
            }
        }
        out
    }

    /// The components as they were written before the shared root: every
    /// fractional power a `powf`, `asinh` from the standard library. Each
    /// returns `(e, ∂e/∂ρ, ∂e/∂γ)` and, per output, the magnitude of its
    /// largest top-level term — the scale its rounding is relative to.
    mod powf_forms {
        use super::{LYP_A, LYP_B, PI};

        pub fn slater_x(rho: f64) -> ([f64; 3], [f64; 3]) {
            let cx = 0.75 * (3.0 / PI).powf(1.0 / 3.0);
            let e = -cx * rho.powf(4.0 / 3.0);
            let v = [e, 4.0 / 3.0 * e / rho, 0.0];
            (v, v.map(f64::abs))
        }

        pub fn vwn5_c(rho: f64) -> ([f64; 3], [f64; 3]) {
            const A: f64 = 0.0310907;
            const X0: f64 = -0.10498;
            const B: f64 = 3.72744;
            const C: f64 = 12.9352;
            let rs = (3.0 / (4.0 * PI * rho)).powf(1.0 / 3.0);
            let x = rs.sqrt();
            let xx = |t: f64| t * t + B * t + C;
            let q = (4.0 * C - B * B).sqrt();
            let atan = (q / (2.0 * x + B)).atan();
            let eps_terms = [
                A * (x * x / xx(x)).ln(),
                A * 2.0 * B / q * atan,
                A * B * X0 / xx(X0) * ((x - X0) * (x - X0) / xx(x)).ln(),
                A * B * X0 / xx(X0) * 2.0 * (B + 2.0 * X0) / q * atan,
            ];
            let eps = A
                * ((x * x / xx(x)).ln() + 2.0 * B / q * atan
                    - B * X0 / xx(X0)
                        * (((x - X0) * (x - X0) / xx(x)).ln() + 2.0 * (B + 2.0 * X0) / q * atan));
            let deps_terms = [
                A * 2.0 / x,
                A * 2.0 * (x + B) / xx(x),
                A * B * X0 / xx(X0) * 2.0 / (x - X0),
                A * B * X0 / xx(X0) * 2.0 * (x + B + X0) / xx(x),
            ];
            let deps_dx = A
                * (2.0 / x - 2.0 * (x + B) / xx(x)
                    - B * X0 / xx(X0) * (2.0 / (x - X0) - 2.0 * (x + B + X0) / xx(x)));
            let eps_scale = largest(&eps_terms);
            (
                [rho * eps, eps - x / 6.0 * deps_dx, 0.0],
                [rho * eps_scale, eps_scale.max(x / 6.0 * largest(&deps_terms)), 0.0],
            )
        }

        pub fn b88_x(rho: f64, gamma: f64) -> ([f64; 3], [f64; 3]) {
            const BETA: f64 = 0.0042;
            let rho_s = 0.5 * rho;
            let r43 = rho_s.powf(4.0 / 3.0);
            let lda_s = -1.5 * (3.0 / (4.0 * PI)).powf(1.0 / 3.0) * r43;
            let x = gamma.sqrt() * 0.5 / r43;
            let asinh = x.asinh();
            let d = 1.0 + 6.0 * BETA * x * asinh;
            let corr = -BETA * r43 * x * x / d;
            let dd = 6.0 * BETA * (asinh + x / (1.0 + x * x).sqrt());
            let vrho = 4.0 / 3.0 / rho_s * (lda_s - BETA * r43 * x * x * (x * dd - d) / (d * d));
            let vgamma = -BETA * (2.0 * d - x * dd) / (4.0 * r43 * d * d);
            let g = BETA * r43 * x * x / (d * d);
            (
                [2.0 * (lda_s + corr), vrho, vgamma],
                [
                    2.0 * largest(&[lda_s, corr]),
                    4.0 / 3.0 / rho_s * largest(&[lda_s, g * x * dd, g * d]),
                    BETA * largest(&[2.0 * d, x * dd]) / (4.0 * r43 * d * d),
                ],
            )
        }

        pub fn lyp_c(rho: f64, gamma: f64) -> ([f64; 3], [f64; 3]) {
            const CC: f64 = 0.2533;
            const DD: f64 = 0.349;
            let cf = 0.3 * (3.0 * PI * PI).powf(2.0 / 3.0);
            let ra = 0.5 * rho;
            let rb = 0.5 * rho;
            let rho_m13 = rho.powf(-1.0 / 3.0);
            let denom = 1.0 + DD * rho_m13;
            let r83 = ra.powf(8.0 / 3.0);
            let first = -LYP_A * 4.0 / denom * ra * ra / rho;
            let omega = (-CC * rho_m13).exp() / denom * rho.powf(-11.0 / 3.0);
            let delta = CC * rho_m13 + DD * rho_m13 / denom;
            let kinetic = 2f64.powf(11.0 / 3.0) * cf * (r83 + r83);
            let gaa = 0.25 * gamma;
            let gbb = 0.25 * gamma;
            let gab = 0.25 * gamma;
            let gtot = gaa + gbb + 2.0 * gab;
            let bracket_terms = [
                ra * rb * kinetic,
                ra * rb * (47.0 / 18.0 - 7.0 * delta / 18.0) * gtot,
                ra * rb * (2.5 - delta / 18.0) * (gaa + gbb),
                ra * rb * (delta - 11.0) / 9.0 * (ra * gaa + rb * gbb) / rho,
                2.0 / 3.0 * rho * rho * gtot,
                (2.0 / 3.0 * rho * rho - ra * ra) * gbb,
                (2.0 / 3.0 * rho * rho - rb * rb) * gaa,
            ];
            let bracket = ra * rb
                * (kinetic + (47.0 / 18.0 - 7.0 * delta / 18.0) * gtot
                    - (2.5 - delta / 18.0) * (gaa + gbb)
                    - (delta - 11.0) / 9.0 * (ra * gaa + rb * gbb) / rho)
                - 2.0 / 3.0 * rho * rho * gtot
                + (2.0 / 3.0 * rho * rho - ra * ra) * gbb
                + (2.0 / 3.0 * rho * rho - rb * rb) * gaa;
            let e = first - LYP_A * LYP_B * omega * bracket;

            let ab = LYP_A * LYP_B;
            let g_term = gamma * (3.0 + 7.0 * delta) / 72.0;
            let reduced = rho * rho * (0.25 * kinetic - g_term);
            let d_omega = omega * (delta - 11.0) / (3.0 * rho);
            let d_delta = -rho_m13 * (CC + DD / (denom * denom)) / (3.0 * rho);
            let d_reduced_terms = [
                rho * 14.0 / 12.0 * kinetic,
                rho * 2.0 * g_term,
                rho * rho * gamma * 7.0 * d_delta / 72.0,
            ];
            let d_reduced = rho * (14.0 / 12.0 * kinetic - 2.0 * g_term)
                - rho * rho * gamma * 7.0 * d_delta / 72.0;
            let d_first_terms = [LYP_A / denom, LYP_A * DD * rho_m13 / (3.0 * denom * denom)];
            let d_first = -LYP_A / denom - LYP_A * DD * rho_m13 / (3.0 * denom * denom);
            let vrho = d_first - ab * (d_omega * reduced + omega * d_reduced);
            let vgamma = ab * omega * rho * rho * (3.0 + 7.0 * delta) / 72.0;
            // An ulp of m moves e^{−c m} by c·m ulps (≈ 680 at ρ = 5e-11):
            // every ω term carries that condition number.
            let cond = 1.0 + CC * rho_m13;
            let reduced_scale = rho * rho * largest(&[0.25 * kinetic, g_term]);
            (
                [e, vrho, vgamma],
                [
                    largest(&[first, cond * ab * omega * largest(&bracket_terms)]),
                    largest(&[
                        largest(&d_first_terms),
                        cond * ab * d_omega * reduced_scale,
                        cond * ab * omega * largest(&d_reduced_terms),
                    ]),
                    cond * vgamma.abs(),
                ],
            )
        }

        fn largest(terms: &[f64]) -> f64 {
            terms.iter().fold(0.0, |m, t| m.max(t.abs()))
        }
    }

    /// Each component's `(e, vρ, vγ)` on the root is the `powf` form's to
    /// 32ε of the output's largest term, on every lattice point at or above
    /// the floor (the worst is ~12ε; much of it is the `powf` forms' own:
    /// `4.0 / 3.0` is not 4/3, which moves `ρ^{4/3}` by ~ε·|ln ρ|).
    #[test]
    fn components_on_the_shared_root_match_their_powf_forms() {
        let (rhos, gammas) = lattice();
        for &rho in rhos.iter().filter(|&&r| r >= 1e-12) {
            let c = rho.cbrt();
            for &gamma in &gammas {
                let pairs = [
                    (slater_x(rho, c), powf_forms::slater_x(rho)),
                    (vwn5_c(rho, c), powf_forms::vwn5_c(rho)),
                    (b88_x(rho, c, gamma), powf_forms::b88_x(rho, gamma)),
                    (lyp_c(rho, c, gamma), powf_forms::lyp_c(rho, gamma)),
                ];
                for (k, ((e, vr, vg), (old, scale))) in pairs.into_iter().enumerate() {
                    for (i, new) in [e, vr, vg].into_iter().enumerate() {
                        let gap = (new - old[i]).abs();
                        if scale[i] == 0.0 {
                            assert_eq!(gap, 0.0, "component {k} output {i} at ({rho:e}, {gamma:e})");
                            continue;
                        }
                        assert!(
                            gap <= 32.0 * f64::EPSILON * scale[i],
                            "component {k} output {i} at (ρ, γ) = ({rho:e}, {gamma:e}): \
                             {new:e} vs powf form {:e} (largest term {:e})",
                            old[i],
                            scale[i]
                        );
                    }
                }
            }
        }
    }

    /// `asinh_from(x, √(1 + x²))` is `f64::asinh` to 4 ulps at 0 and over
    /// x ∈ [1e-300, 1e30], log-spaced.
    #[test]
    fn asinh_without_hypot_is_the_library_asinh_to_four_ulps() {
        let log_spaced = (0..=33_000).map(|i| 10f64.powf(-300.0 + i as f64 / 100.0));
        let xs = std::iter::once(0.0).chain(log_spaced);
        for x in xs {
            let got = asinh_from(x, (1.0 + x * x).sqrt());
            let want = x.asinh();
            let ulps = (got.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
            assert!(ulps <= 4, "asinh({x:e}): {got:e} vs {want:e}, {ulps} ulps");
        }
    }

    #[test]
    fn slater_uniform_gas_value() {
        // ε_x(r_s = 1) = −0.4582 Ha (textbook LDA constant).
        let rho = 3.0 / (4.0 * PI); // r_s = 1
        let eps = alone(Component::SlaterX).energy_density(rho, 0.0) / rho;
        assert!((eps + 0.45817).abs() < 1e-4, "ε_x = {eps}");
    }

    #[test]
    fn vwn5_is_negative_and_monotone() {
        let mut prev = 0.0;
        for &rho in &[1e-3, 1e-2, 1e-1, 1.0, 10.0] {
            let eps = alone(Component::Vwn5C).energy_density(rho, 0.0) / rho;
            assert!(eps < 0.0, "correlation lowers energy");
            assert!(eps < prev, "|ε_c| grows with density");
            prev = eps;
        }
        // High-density magnitude stays modest (< 0.2 Ha per electron).
        assert!(alone(Component::Vwn5C).energy_density(100.0, 0.0) / 100.0 > -0.2);
    }

    #[test]
    fn b88_reduces_to_lda_at_zero_gradient() {
        let rho = 0.7;
        let (b88, slater) = (alone(Component::B88X), alone(Component::SlaterX));
        assert!((b88.energy_density(rho, 0.0) - slater.energy_density(rho, 0.0)).abs() < 1e-12);
        // Gradient correction lowers the exchange energy density.
        assert!(b88.energy_density(rho, 1.0) < b88.energy_density(rho, 0.0));
    }

    #[test]
    fn hydrogenic_exchange_energies() {
        // Exact H-atom density ρ(r) = e^{−2r}/π evaluated with the
        // *restricted* (spin-unpolarized) functionals used by this closed-
        // shell code: E_x^LDA = 2^{−1/3}·(−0.2680) ≈ −0.2127 Ha (the
        // polarized textbook value scaled by the spin factor), and B88
        // corrects it toward Hartree–Fock.
        let n = 400;
        let mut e_lda = 0.0;
        let mut e_b88 = 0.0;
        let rmax = 25.0;
        let h = rmax / n as f64;
        for i in 0..n {
            let r = (i as f64 + 0.5) * h;
            let rho = (-2.0 * r).exp() / PI;
            let drho = -2.0 * rho;
            let gamma = drho * drho;
            let vol = 4.0 * PI * r * r * h;
            e_lda += vol * alone(Component::SlaterX).energy_density(rho, 0.0);
            e_b88 += vol * alone(Component::B88X).energy_density(rho, gamma);
        }
        let expected_lda = -0.2680 * 2f64.powf(-1.0 / 3.0);
        assert!((e_lda - expected_lda).abs() < 3e-3, "LDA H exchange {e_lda}");
        assert!(e_b88 < e_lda, "B88 corrects toward HF");
        assert!((-0.29..=-0.23).contains(&e_b88), "B88 H exchange {e_b88}");
    }

    #[test]
    fn lyp_helium_like_magnitude() {
        // Hydrogenic He density (Z_eff = 27/16): LYP was fit to reproduce
        // the He correlation energy ≈ −0.042…−0.044 Ha.
        let z = 1.6875f64;
        let n = 400;
        let rmax = 12.0;
        let h = rmax / n as f64;
        let mut e_c = 0.0;
        for i in 0..n {
            let r = (i as f64 + 0.5) * h;
            let rho = 2.0 * z * z * z / PI * (-2.0 * z * r).exp();
            let drho = -2.0 * z * rho;
            let gamma = drho * drho;
            e_c += 4.0 * PI * r * r * h * alone(Component::LypC).energy_density(rho, gamma);
        }
        assert!((-0.07..=-0.03).contains(&e_c), "LYP(He) = {e_c}");
    }

    #[test]
    fn potentials_match_scaling_identities() {
        // Slater: vρ = −(4/3) C_x ρ^{1/3}, written here through `cbrt`.
        let rho = 0.42;
        let v = alone(Component::SlaterX).eval(rho, 0.0).1;
        let expect = -4.0 / 3.0 * 0.75 * (3.0 / PI).cbrt() * rho.cbrt();
        assert!((v - expect).abs() < 1e-15, "{v} vs {expect}");
        // Exchange is invariant under ρ(r) → λ³ρ(λr) up to a factor λ:
        // e(λ³ρ, λ⁸γ) = λ⁴ e(ρ, γ), so 3ρ·vρ + 8γ·vγ = 4e at every point.
        for c in [Component::SlaterX, Component::B88X] {
            for (rho, gamma) in [(1e-6, 1e-9), (0.01, 1e-3), (0.42, 0.0), (0.42, 2.5), (30.0, 1e4)] {
                let (e, vrho, vgamma) = alone(c).eval(rho, gamma);
                let virial = 3.0 * rho * vrho + 8.0 * gamma * vgamma;
                assert!(
                    (virial - 4.0 * e).abs() <= 1e-13 * e.abs(),
                    "{c:?} at ({rho}, {gamma}): 3ρvρ + 8γvγ = {virial:e}, 4e = {:e}",
                    4.0 * e
                );
            }
        }
    }

    /// ρ = 10^(−13…2) in 160 steps plus the band at the floor, and
    /// γ ∈ {0} ∪ 10^(−20…4) — the lattice `tests/xc_pin.rs` pins.
    fn lattice() -> (Vec<f64>, Vec<f64>) {
        let mut rho: Vec<f64> =
            (0..=160).map(|i| 10f64.powf(-13.0 + 15.0 * i as f64 / 160.0)).collect();
        rho.extend([0.999e-12, 1e-12, 1.005e-12, 1.02e-12]);
        let gamma = std::iter::once(0.0).chain((-20..=4).map(|k| 10f64.powi(k))).collect();
        (rho, gamma)
    }

    /// The oracle for the closed forms: central differences of
    /// `energy_density` with steps h = 1e-4 and h/2 relative, Richardson-
    /// combined so the O(h²) truncation term cancels (alone it reaches 2e-6
    /// of LYP's vρ at ρ = 1e-7, γ = 1e4, where e^{−cρ^{−1/3}} varies 16× faster
    /// than ρ). Its rounding error is ~ε·|e|/h, which dominates where `v·h`
    /// is far below an ulp of `e` (e.g. vγ at γ = 1e-20). The tolerance is
    /// 1e-8 relative plus that rounding term, 48ε·|e|/h; the test also
    /// requires that most comparisons are decided by the relative term alone.
    #[test]
    fn closed_form_potentials_match_central_differences_of_the_energy() {
        let functionals = [
            alone(Component::SlaterX),
            alone(Component::Vwn5C),
            alone(Component::B88X),
            alone(Component::LypC),
            b3lyp(),
            svwn(),
        ];
        let (rhos, gammas) = lattice();
        let mut strict = 0;
        let mut total = 0;
        let mut worst = 0.0f64;
        for (fi, f) in functionals.iter().enumerate() {
            for &rho in rhos.iter().filter(|&&r| r >= 1e-8) {
                for &gamma in gammas.iter().filter(|&&g| g > 0.0) {
                    let (e, vrho, vgamma) = f.eval(rho, gamma);
                    let d_rho = |h: f64| {
                        (f.energy_density(rho + h, gamma) - f.energy_density(rho - h, gamma)) / (2.0 * h)
                    };
                    let d_gamma = |h: f64| {
                        (f.energy_density(rho, gamma + h) - f.energy_density(rho, gamma - h)) / (2.0 * h)
                    };
                    let (hr, hg) = (1e-4 * rho, 1e-4 * gamma);
                    for (what, v, h, fd) in [
                        ("vρ", vrho, hr, (4.0 * d_rho(0.5 * hr) - d_rho(hr)) / 3.0),
                        ("vγ", vgamma, hg, (4.0 * d_gamma(0.5 * hg) - d_gamma(hg)) / 3.0),
                    ] {
                        if v == 0.0 {
                            // A γ-free component: both sides are exact zeros.
                            assert_eq!(fd, 0.0, "functional {fi} {what} at ({rho:e}, {gamma:e})");
                            continue;
                        }
                        let rounding = 48.0 * f64::EPSILON * e.abs() / h;
                        let err = (v - fd).abs();
                        assert!(
                            err <= 1e-8 * v.abs() + rounding,
                            "functional {fi} {what} at (ρ, γ) = ({rho:e}, {gamma:e}): \
                             closed form {v:e}, central difference {fd:e}"
                        );
                        total += 1;
                        if rounding < 1e-9 * v.abs() {
                            strict += 1;
                            worst = worst.max(err / v.abs());
                        }
                    }
                }
            }
        }
        assert!(2 * strict > total, "only {strict} of {total} comparisons resolved by the difference");
        assert!(worst < 1e-8, "worst resolved relative error {worst:e}");
    }

    #[test]
    fn potentials_at_zero_gradient_and_below_the_floor() {
        // B88's vγ stays finite as γ → 0: −β/(2ρσ^{4/3}).
        for rho in [1e-10, 1e-3, 0.42, 50.0] {
            let vgamma = alone(Component::B88X).eval(rho, 0.0).2;
            let expect = -0.0042 / (2.0 * (0.5 * rho).powf(4.0 / 3.0));
            assert!(vgamma.is_finite() && (vgamma - expect).abs() <= 1e-14 * expect.abs());
        }
        let (rhos, gammas) = lattice();
        for f in [b3lyp(), svwn(), alone(Component::B88X), alone(Component::LypC)] {
            for &rho in rhos.iter().filter(|&&r| r < 1e-12) {
                for &gamma in &gammas {
                    assert_eq!(f.eval(rho, gamma), (0.0, 0.0, 0.0), "{} at ({rho:e}, {gamma:e})", f.name);
                }
            }
        }
    }

    #[test]
    fn xc_matrix_and_electron_count_on_water() {
        use mako_chem::basis::sto3g::sto3g;
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let grid = MolecularGrid::build(&mol, 35, 12);
        let aos = evaluate_aos(&shells, &grid);
        // A crude density: half an electron pair in each of the 5 lowest
        // AOs — enough to check machinery (exact counts need a converged D).
        let layout = mako_chem::AoLayout::new(&shells);
        let mut d = Matrix::zeros(layout.nao, layout.nao);
        for i in 0..5 {
            d[(i, i)] = 1.0;
        }
        let res = evaluate_xc(&b3lyp(), &aos, &grid, &d);
        // Trace-like electron count: ∫ρ = 2 Σ_i D_ii ⟨φ_i|φ_i⟩ = 10 for
        // normalized AOs (overlap off-diagonals don't enter the diagonal D).
        assert!((res.n_electrons - 10.0).abs() < 0.05, "∫ρ = {}", res.n_electrons);
        assert!(res.energy < 0.0, "XC energy negative");
        assert!(res.matrix.asymmetry() < 1e-12);
        // The XC potential is attractive on the diagonal.
        for i in 0..layout.nao {
            assert!(res.matrix[(i, i)] < 0.0, "V_xc[{i},{i}]");
        }
    }

    #[test]
    fn block_length_moves_only_the_summation_order_of_v() {
        use mako_chem::basis::sto3g::sto3g;
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let grid = MolecularGrid::build(&mol, 20, 8);
        let whole = evaluate_aos_in_blocks(&shells, &grid, grid.len());
        let nao = whole.nao;
        let d = Matrix::from_fn(nao, nao, |i, j| 0.3 / (1.0 + (i as f64 - j as f64).abs()));
        for f in [b3lyp(), svwn()] {
            let want = evaluate_xc(&f, &whole, &grid, &d);
            for len in [1, 7, BLOCK] {
                let aos = evaluate_aos_in_blocks(&shells, &grid, len);
                assert!(dense(&aos) == dense(&whole), "block length {len}: tabulation moved");
                let got = evaluate_xc(&f, &aos, &grid, &d);
                let what = format!("{} with blocks of {len}", f.name);
                assert_eq!(got.energy.to_bits(), want.energy.to_bits(), "{what}: energy");
                assert_eq!(got.n_electrons.to_bits(), want.n_electrons.to_bits(), "{what}: ∫ρ");
                assert_eq!(got.below_floor, want.below_floor, "{what}: floor count");
                let dv = got.matrix.sub(&want.matrix).max_abs();
                assert!(dv <= 1e-14, "{what}: |ΔV| = {dv:e}");
            }
        }
        // One-point blocks drop every AO that vanishes there, so the test
        // exercises the column screen and not only the block split.
        assert!(evaluate_aos_in_blocks(&shells, &grid, 1).kept_frac() < 0.9);
    }

    #[test]
    fn ao_gradients_match_finite_differences() {
        use mako_chem::basis::sto3g::sto3g;
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let probe = [0.31, -0.42, 0.53];
        let h = 1e-6;
        let tabulate = |p: [f64; 3]| {
            let grid = MolecularGrid {
                points: vec![crate::grid::GridPoint {
                    position: p,
                    weight: 1.0,
                }],
            };
            dense(&evaluate_aos(&shells, &grid))
        };
        let eval_at = |p: [f64; 3]| tabulate(p)[0].row(0).to_vec();
        let aos = tabulate(probe);
        for dim in 0..3 {
            let mut pp = probe;
            pp[dim] += h;
            let mut pm = probe;
            pm[dim] -= h;
            let up = eval_at(pp);
            let lo = eval_at(pm);
            for j in 0..up.len() {
                let fd = (up[j] - lo[j]) / (2.0 * h);
                let an = aos[1 + dim][(0, j)];
                assert!(
                    (fd - an).abs() < 1e-6 * (1.0 + fd.abs()),
                    "dim={dim} ao={j}: fd {fd} vs {an}"
                );
            }
        }
    }
}
