//! Exchange-correlation functionals and MatMul-style XC matrix assembly.
//!
//! Implements the closed-shell (restricted) forms of Slater exchange, VWN5
//! correlation, Becke-88 gradient-corrected exchange, and Lee-Yang-Parr
//! correlation (Miehlich gradient-only form), composed into B3LYP:
//!
//! `E_xc = 0.20 E_x^HF + 0.08 E_x^Slater + 0.72 E_x^B88
//!        + 0.19 E_c^VWN5 + 0.81 E_c^LYP`.
//!
//! Potentials (`∂e/∂ρ`, `∂e/∂γ` with `γ = |∇ρ|²`) are obtained by accurate
//! central differences of the energy density — one code path for every
//! functional, immune to hand-derived-derivative bugs. The five stencil
//! points `(ρ, γ)`, `(ρ ± h, γ)`, `(ρ, γ ± h')` share three distinct
//! densities, so every formula is written as a ρ-only half (`RhoHalf`:
//! the `powf`/`exp`/`ln`/`atan` work) evaluated three times and a cheap
//! γ-dependent half evaluated five times ([`XcFunctional::eval`]).
//!
//! The XC *matrix* is assembled as the paper prescribes (triple-product
//! projection, §1), `V_xc = Φᵀ diag(w·vρ) Φ + 2 Σ_d [Φᵀ diag(w·vγ·∂_dρ) ∂_dΦ
//! + h.c.]`, folded into two dense GEMMs over the grid and one `npts × nao`
//! workspace: `P = Φ·D`, then row by row `P_g` is consumed for `ρ`, `∇ρ` and
//! overwritten with `Z_g = ½·w·vρ·φ_g + Σ_d (2·w·vγ·∂_dρ)·∂_dφ_g`, then
//! `V_xc = ΦᵀZ + (ΦᵀZ)ᵀ`.

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

/// The part of every component's energy density that depends on ρ alone;
/// fields of components the functional does not mix stay zero.
#[derive(Clone, Copy, Default)]
struct RhoHalf {
    slater: f64,
    vwn: f64,
    b88: B88Rho,
    lyp: LypRho,
}

impl XcFunctional {
    /// ρ-only half of `e(ρ, ·)`; `None` below the density floor.
    fn rho_half(&self, rho: f64) -> Option<RhoHalf> {
        if rho < 1e-12 {
            return None;
        }
        let mut t = RhoHalf::default();
        for &(_, c) in &self.components {
            match c {
                Component::SlaterX => t.slater = slater_x(rho),
                Component::Vwn5C => t.vwn = vwn5_c(rho),
                Component::B88X => t.b88 = B88Rho::new(rho),
                Component::LypC => t.lyp = LypRho::new(rho),
            }
        }
        Some(t)
    }

    /// γ-dependent half: the weighted component sum at `(ρ of t, γ)`.
    fn gamma_half(&self, t: &Option<RhoHalf>, gamma: f64) -> f64 {
        let Some(t) = t else { return 0.0 };
        let gamma = gamma.max(0.0);
        self.components
            .iter()
            .map(|&(w, c)| {
                w * match c {
                    Component::SlaterX => t.slater,
                    Component::Vwn5C => t.vwn,
                    Component::B88X => t.b88.energy(gamma),
                    Component::LypC => t.lyp.energy(gamma),
                }
            })
            .sum()
    }

    /// `(e, ∂e/∂ρ, ∂e/∂γ)` at `(ρ, γ)` with `γ = |∇ρ|²` (closed shell): the
    /// energy density per volume and its two central differences, all zero
    /// below the density floor.
    pub fn eval(&self, rho: f64, gamma: f64) -> (f64, f64, f64) {
        let mid = self.rho_half(rho);
        if mid.is_none() {
            return (0.0, 0.0, 0.0);
        }
        let h = (1e-6 * rho).max(1e-14);
        let vrho = (self.gamma_half(&self.rho_half(rho + h), gamma)
            - self.gamma_half(&self.rho_half(rho - h), gamma))
            / (2.0 * h);
        let h = (1e-6 * gamma).max(1e-14);
        let up = self.gamma_half(&mid, gamma + h);
        let lo = self.gamma_half(&mid, (gamma - h).max(0.0));
        let span = gamma + h - (gamma - h).max(0.0);
        (self.gamma_half(&mid, gamma), vrho, (up - lo) / span)
    }

    /// Energy density per volume, `e(ρ, γ)`. Zero below the density floor.
    pub fn energy_density(&self, rho: f64, gamma: f64) -> f64 {
        self.gamma_half(&self.rho_half(rho), gamma)
    }

    /// `∂e/∂ρ` at fixed γ (central difference).
    pub fn vrho(&self, rho: f64, gamma: f64) -> f64 {
        self.eval(rho, gamma).1
    }

    /// `∂e/∂γ` at fixed ρ (central difference).
    pub fn vgamma(&self, rho: f64, gamma: f64) -> f64 {
        self.eval(rho, gamma).2
    }
}

/// Slater (LDA) exchange energy density: `−C_x ρ^{4/3}`.
fn slater_x(rho: f64) -> f64 {
    let cx = 0.75 * (3.0 / PI).powf(1.0 / 3.0);
    -cx * rho.powf(4.0 / 3.0)
}

/// VWN5 correlation energy density (paramagnetic fit of Vosko, Wilk &
/// Nusair 1980): `ρ · ε_c(r_s)`.
fn vwn5_c(rho: f64) -> f64 {
    const A: f64 = 0.0310907; // = 0.0621814 / 2 (Rydberg→Hartree)
    const X0: f64 = -0.10498;
    const B: f64 = 3.72744;
    const C: f64 = 12.9352;
    let rs = (3.0 / (4.0 * PI * rho)).powf(1.0 / 3.0);
    let x = rs.sqrt();
    let xx = |t: f64| t * t + B * t + C;
    let q = (4.0 * C - B * B).sqrt();
    let atan = (q / (2.0 * x + B)).atan();
    let eps = A
        * ((x * x / xx(x)).ln() + 2.0 * B / q * atan
            - B * X0 / xx(X0)
                * (((x - X0) * (x - X0) / xx(x)).ln() + 2.0 * (B + 2.0 * X0) / q * atan));
    rho * eps
}

/// Becke-88 exchange energy density (closed shell): spin-resolved LDA plus
/// the gradient correction `−β ρσ^{4/3} xσ²/(1 + 6βxσ asinh(xσ))` with
/// `xσ = |∇ρσ|/ρσ^{4/3}`. ρ-half: `ρσ^{4/3}` and the LDA term.
#[derive(Clone, Copy, Default)]
struct B88Rho {
    r43: f64,
    lda_s: f64,
}

impl B88Rho {
    fn new(rho: f64) -> B88Rho {
        let r43 = (0.5 * rho).powf(4.0 / 3.0);
        let lda_s = -1.5 * (3.0 / (4.0 * PI)).powf(1.0 / 3.0) * r43;
        B88Rho { r43, lda_s }
    }

    fn energy(&self, gamma: f64) -> f64 {
        const BETA: f64 = 0.0042;
        let r43 = self.r43;
        let grad_s = (gamma.max(0.0)).sqrt() * 0.5;
        let x = if r43 > 0.0 { grad_s / r43 } else { 0.0 };
        let corr = -BETA * r43 * x * x / (1.0 + 6.0 * BETA * x * x.asinh());
        2.0 * (self.lda_s + corr)
    }
}

/// Lee–Yang–Parr correlation energy density in the Miehlich (gradient-only)
/// form, specialized to the closed shell (`ρα = ρβ = ρ/2`,
/// `γαα = γββ = γαβ = γ/4`). ρ-half: the γ-free first term, `ω`, `δ` and the
/// `ρσ^{8/3}` kinetic term of the bracket.
#[derive(Clone, Copy, Default)]
struct LypRho {
    rho: f64,
    first: f64,
    omega: f64,
    delta: f64,
    kinetic: f64,
}

const LYP_A: f64 = 0.04918;
const LYP_B: f64 = 0.132;

impl LypRho {
    fn new(rho: f64) -> LypRho {
        const CC: f64 = 0.2533;
        const DD: f64 = 0.349;
        let cf = 0.3 * (3.0 * PI * PI).powf(2.0 / 3.0);
        let ra = 0.5 * rho;
        let rho_m13 = rho.powf(-1.0 / 3.0);
        let denom = 1.0 + DD * rho_m13;
        let r83 = ra.powf(8.0 / 3.0);
        LypRho {
            rho,
            first: -LYP_A * 4.0 / denom * ra * ra / rho,
            omega: (-CC * rho_m13).exp() / denom * rho.powf(-11.0 / 3.0),
            delta: CC * rho_m13 + DD * rho_m13 / denom,
            kinetic: 2f64.powf(11.0 / 3.0) * cf * (r83 + r83),
        }
    }

    fn energy(&self, gamma: f64) -> f64 {
        let LypRho { rho, delta, .. } = *self;
        let ra = 0.5 * rho;
        let rb = 0.5 * rho;
        let gaa = 0.25 * gamma;
        let gbb = 0.25 * gamma;
        let gab = 0.25 * gamma;
        let gtot = gaa + gbb + 2.0 * gab; // = |∇ρ|²
        let bracket = ra * rb
            * (self.kinetic + (47.0 / 18.0 - 7.0 * delta / 18.0) * gtot
                - (2.5 - delta / 18.0) * (gaa + gbb)
                - (delta - 11.0) / 9.0 * (ra * gaa + rb * gbb) / rho)
            - 2.0 / 3.0 * rho * rho * gtot
            + (2.0 / 3.0 * rho * rho - ra * ra) * gbb
            + (2.0 / 3.0 * rho * rho - rb * rb) * gaa;
        self.first - LYP_A * LYP_B * self.omega * bracket
    }
}

/// AO values and Cartesian gradients on a batch of grid points:
/// `phi` is `npts × nao`, `grad[d]` likewise for d ∈ {x, y, z}.
pub struct AoOnGrid {
    /// AO values.
    pub phi: Matrix,
    /// AO gradients per Cartesian direction.
    pub grad: [Matrix; 3],
}

/// Evaluate every AO (and its gradient) of `shells` on the grid points.
pub fn evaluate_aos(shells: &[Shell], grid: &MolecularGrid) -> AoOnGrid {
    use mako_chem::cart::cart_components;
    use mako_chem::harmonics::cart_to_sph;

    let layout = mako_chem::AoLayout::new(shells);
    let npts = grid.len();
    let mut phi = Matrix::zeros(npts, layout.nao);
    let mut gx = Matrix::zeros(npts, layout.nao);
    let mut gy = Matrix::zeros(npts, layout.nao);
    let mut gz = Matrix::zeros(npts, layout.nao);

    for (si, shell) in shells.iter().enumerate() {
        let c2s = cart_to_sph(shell.l);
        let comps = cart_components(shell.l);
        let off = layout.shell_offsets[si];
        for (g, point) in grid.points.iter().enumerate() {
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
                        * ((if a > 0 { a as f64 * powi(dx, a - 1) * pb * pc } else { 0.0 }) * rad
                            + mono * 2.0 * dx * drad);
                    dvy += coef
                        * ((if b > 0 { b as f64 * pa * powi(dy, b - 1) * pc } else { 0.0 }) * rad
                            + mono * 2.0 * dy * drad);
                    dvz += coef
                        * ((if c > 0 { c as f64 * pa * pb * powi(dz, c - 1) } else { 0.0 }) * rad
                            + mono * 2.0 * dz * drad);
                }
                phi[(g, off + mi)] = val * rad;
                gx[(g, off + mi)] = dvx;
                gy[(g, off + mi)] = dvy;
                gz[(g, off + mi)] = dvz;
            }
        }
    }
    AoOnGrid {
        phi,
        grad: [gx, gy, gz],
    }
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
    pub below_floor: usize,
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
/// triple-product MatMul assembly (module docs).
pub fn evaluate_xc(
    functional: &XcFunctional,
    aos: &AoOnGrid,
    grid: &MolecularGrid,
    d: &Matrix,
) -> XcResult {
    let npts = grid.len();
    let nao = aos.phi.cols();

    // GEMM 1: P = Φ·D. The workspace holds P on the way into the grid pass
    // and Z on the way out.
    let mut z = Matrix::zeros(npts, nao);
    gemm_into(1.0, &aos.phi, Transpose::No, d, Transpose::No, 0.0, &mut z);

    let mut energy = 0.0;
    let mut n_el = 0.0;
    let mut below_floor = 0;
    for (g, point) in grid.points.iter().enumerate() {
        let row = z.row_mut(g);
        let phi = aos.phi.row(g);
        let dphi = [aos.grad[0].row(g), aos.grad[1].row(g), aos.grad[2].row(g)];
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

    // GEMM 2: V = ΦᵀZ + (ΦᵀZ)ᵀ.
    let mut v = Matrix::zeros(nao, nao);
    gemm_into(1.0, &aos.phi, Transpose::Yes, &z, Transpose::No, 0.0, &mut v);

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

    fn b88_x(rho: f64, gamma: f64) -> f64 {
        B88Rho::new(rho).energy(gamma)
    }

    fn lyp_c(rho: f64, gamma: f64) -> f64 {
        LypRho::new(rho).energy(gamma)
    }

    #[test]
    fn slater_uniform_gas_value() {
        // ε_x(r_s = 1) = −0.4582 Ha (textbook LDA constant).
        let rho = 3.0 / (4.0 * PI); // r_s = 1
        let eps = slater_x(rho) / rho;
        assert!((eps + 0.45817).abs() < 1e-4, "ε_x = {eps}");
    }

    #[test]
    fn vwn5_is_negative_and_monotone() {
        let mut prev = 0.0;
        for &rho in &[1e-3, 1e-2, 1e-1, 1.0, 10.0] {
            let eps = vwn5_c(rho) / rho;
            assert!(eps < 0.0, "correlation lowers energy");
            assert!(eps < prev, "|ε_c| grows with density");
            prev = eps;
        }
        // High-density magnitude stays modest (< 0.2 Ha per electron).
        assert!(vwn5_c(100.0) / 100.0 > -0.2);
    }

    #[test]
    fn b88_reduces_to_lda_at_zero_gradient() {
        let rho = 0.7;
        assert!((b88_x(rho, 0.0) - slater_x(rho)).abs() < 1e-12);
        // Gradient correction lowers the exchange energy density.
        assert!(b88_x(rho, 1.0) < b88_x(rho, 0.0));
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
            e_lda += vol * slater_x(rho);
            e_b88 += vol * b88_x(rho, gamma);
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
            e_c += 4.0 * PI * r * r * h * lyp_c(rho, gamma);
        }
        assert!((-0.07..=-0.03).contains(&e_c), "LYP(He) = {e_c}");
    }

    #[test]
    fn numerical_potentials_match_scaling_identities() {
        // For e = −C ρ^{4/3} (Slater), vρ = (4/3) e/ρ.
        let f = XcFunctional {
            name: "S",
            hf_exchange: 0.0,
            components: vec![(1.0, Component::SlaterX)],
        };
        let rho = 0.42;
        let v = f.vrho(rho, 0.0);
        let expect = 4.0 / 3.0 * f.energy_density(rho, 0.0) / rho;
        assert!((v - expect).abs() < 1e-7, "{v} vs {expect}");
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
    fn ao_gradients_match_finite_differences() {
        use mako_chem::basis::sto3g::sto3g;
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let probe = [0.31, -0.42, 0.53];
        let h = 1e-6;
        let eval_at = |p: [f64; 3]| {
            let grid = MolecularGrid {
                points: vec![crate::grid::GridPoint {
                    position: p,
                    weight: 1.0,
                }],
            };
            let aos = evaluate_aos(&shells, &grid);
            (0..aos.phi.cols()).map(|j| aos.phi[(0, j)]).collect::<Vec<_>>()
        };
        let grid = MolecularGrid {
            points: vec![crate::grid::GridPoint {
                position: probe,
                weight: 1.0,
            }],
        };
        let aos = evaluate_aos(&shells, &grid);
        for dim in 0..3 {
            let mut pp = probe;
            pp[dim] += h;
            let mut pm = probe;
            pm[dim] -= h;
            let up = eval_at(pp);
            let lo = eval_at(pm);
            for j in 0..up.len() {
                let fd = (up[j] - lo[j]) / (2.0 * h);
                let an = aos.grad[dim][(0, j)];
                assert!(
                    (fd - an).abs() < 1e-6 * (1.0 + fd.abs()),
                    "dim={dim} ao={j}: fd {fd} vs {an}"
                );
            }
        }
    }
}
