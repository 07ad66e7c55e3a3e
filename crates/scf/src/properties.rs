//! One-electron molecular properties from the converged density: dipole
//! moments and Mulliken population analysis.
//!
//! The dipole integrals fall out of the same Hermite machinery as the
//! overlaps: `⟨a| x |b⟩ = [E₁^{ij} + P_x E₀^{ij}] √(π/p)` per dimension,
//! where the first term is the Hermite first moment about the Gaussian
//! product center P.

use mako_chem::cart::cart_components;
use mako_chem::{AoLayout, Molecule, Shell};
use mako_eri::hermite::ETable;
#[cfg(test)]
use mako_eri::overlap_block;
use mako_linalg::{gemm, Matrix, Transpose};

/// Dipole moment vector (atomic units; 1 a.u. = 2.5417 Debye).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dipole {
    /// Cartesian components, a.u.
    pub components: [f64; 3],
}

impl Dipole {
    /// Magnitude in atomic units.
    pub(crate) fn magnitude(&self) -> f64 {
        let [x, y, z] = self.components;
        (x * x + y * y + z * z).sqrt()
    }

    /// Magnitude in Debye.
    pub fn debye(&self) -> f64 {
        self.magnitude() * 2.541746
    }
}

/// AO-basis dipole-moment integral matrices `⟨a| r_d |b⟩` for d = x, y, z.
pub(crate) fn dipole_matrices(shells: &[Shell]) -> [Matrix; 3] {
    let layout = AoLayout::new(shells);
    let n = layout.nao;
    let mut out = [Matrix::zeros(n, n), Matrix::zeros(n, n), Matrix::zeros(n, n)];
    for i in 0..shells.len() {
        for j in 0..=i {
            let blocks = dipole_pair_blocks(&shells[i], &shells[j]);
            let (oi, oj) = (layout.shell_offsets[i], layout.shell_offsets[j]);
            for (d, block) in blocks.iter().enumerate() {
                for a in 0..block.rows() {
                    for b in 0..block.cols() {
                        out[d][(oi + a, oj + b)] = block[(a, b)];
                        out[d][(oj + b, oi + a)] = block[(a, b)];
                    }
                }
            }
        }
    }
    out
}

/// Spherical dipole blocks for one shell pair.
fn dipole_pair_blocks(sa: &Shell, sb: &Shell) -> [Matrix; 3] {
    let (la, lb) = (sa.l, sb.l);
    let ab = [
        sa.center[0] - sb.center[0],
        sa.center[1] - sb.center[1],
        sa.center[2] - sb.center[2],
    ];
    let ca = cart_components(la);
    let cb = cart_components(lb);
    let mut carts = [
        Matrix::zeros(ca.len(), cb.len()),
        Matrix::zeros(ca.len(), cb.len()),
        Matrix::zeros(ca.len(), cb.len()),
    ];
    for (pi, &a) in sa.exps.iter().enumerate() {
        for (pj, &b) in sb.exps.iter().enumerate() {
            let coef = sa.coefs[pi] * sb.coefs[pj];
            let p = a + b;
            let pref = coef * (std::f64::consts::PI / p).powf(1.5);
            let pc = [
                (a * sa.center[0] + b * sb.center[0]) / p,
                (a * sa.center[1] + b * sb.center[1]) / p,
                (a * sa.center[2] + b * sb.center[2]) / p,
            ];
            let e = [
                ETable::new(la, lb, a, b, ab[0]),
                ETable::new(la, lb, a, b, ab[1]),
                ETable::new(la, lb, a, b, ab[2]),
            ];
            for (ia, &ka) in ca.iter().enumerate() {
                let ka = [ka.0, ka.1, ka.2];
                for (ib, &kb) in cb.iter().enumerate() {
                    let kb = [kb.0, kb.1, kb.2];
                    let s: [f64; 3] = [
                        e[0].get(ka[0], kb[0], 0),
                        e[1].get(ka[1], kb[1], 0),
                        e[2].get(ka[2], kb[2], 0),
                    ];
                    for d in 0..3 {
                        // ⟨x_d⟩ = E₁ + P_d E₀ along d, overlap along others.
                        let m_d = e[d].get(ka[d], kb[d], 1) + pc[d] * s[d];
                        let others: f64 = (0..3).filter(|&k| k != d).map(|k| s[k]).product();
                        carts[d][(ia, ib)] += pref * m_d * others;
                    }
                }
            }
        }
    }
    let ta = mako_chem::harmonics::cart_to_sph(la);
    let tb = mako_chem::harmonics::cart_to_sph(lb);
    carts.map(|m| {
        let half = gemm(&ta, Transpose::No, &m, Transpose::No);
        gemm(&half, Transpose::No, &tb, Transpose::Yes)
    })
}

/// Total dipole moment: `μ_d = Σ_A Z_A R_{A,d} − 2 Σ_{μν} D_{μν} ⟨μ|r_d|ν⟩`
/// (closed shell, D = Σ_occ C Cᵀ).
pub fn dipole_moment(mol: &Molecule, shells: &[Shell], density: &Matrix) -> Dipole {
    let dm = dipole_matrices(shells);
    let mut comps = [0.0f64; 3];
    for atom in &mol.atoms {
        for (c, p) in comps.iter_mut().zip(atom.position) {
            *c += atom.element.charge() * p;
        }
    }
    for (c, m) in comps.iter_mut().zip(&dm) {
        *c -= 2.0 * density.dot(m);
    }
    Dipole { components: comps }
}

/// Mulliken atomic populations: `q_A = Z_A − 2 Σ_{μ∈A} (DS)_{μμ}`.
#[cfg(test)]
pub(crate) fn mulliken_charges(mol: &Molecule, shells: &[Shell], density: &Matrix) -> Vec<f64> {
    let layout = AoLayout::new(shells);
    let n = layout.nao;
    let mut s = Matrix::zeros(n, n);
    for i in 0..shells.len() {
        for j in 0..shells.len() {
            let block = overlap_block(&shells[i], &shells[j]);
            let (oi, oj) = (layout.shell_offsets[i], layout.shell_offsets[j]);
            for a in 0..block.rows() {
                for b in 0..block.cols() {
                    s[(oi + a, oj + b)] = block[(a, b)];
                }
            }
        }
    }
    let ds = gemm(density, Transpose::No, &s, Transpose::No);
    let mut charges: Vec<f64> = mol.atoms.iter().map(|a| a.element.charge()).collect();
    for (si, shell) in shells.iter().enumerate() {
        if shell.atom == usize::MAX {
            continue;
        }
        for mu in layout.range(si) {
            charges[shell.atom] -= 2.0 * ds[(mu, mu)];
        }
    }
    charges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{ScfConfig, ScfDriver};
    use mako_chem::basis::sto3g::sto3g;
    use mako_chem::builders;

    #[test]
    fn water_dipole_matches_sto3g_hf() {
        // HF/STO-3G water dipole ≈ 1.71 Debye at the experimental geometry.
        let mol = builders::water();
        let basis = sto3g();
        let shells = basis.shells_for(&mol);
        let res = ScfDriver::new(&mol, &basis, ScfConfig::default()).run().expect("scf run");
        let mu = dipole_moment(&mol, &shells, &res.density);
        assert!(
            (mu.debye() - 1.71).abs() < 0.1,
            "μ(H2O) = {} D (expected ≈ 1.71)",
            mu.debye()
        );
        // The dipole points along the C2v axis (z in our geometry, toward H).
        assert!(mu.components[0].abs() < 1e-6);
        assert!(mu.components[1].abs() < 1e-6);
    }

    #[test]
    fn methane_dipole_vanishes_by_symmetry() {
        let mol = builders::methane();
        let basis = sto3g();
        let shells = basis.shells_for(&mol);
        let res = ScfDriver::new(&mol, &basis, ScfConfig::default()).run().expect("scf run");
        let mu = dipole_moment(&mol, &shells, &res.density);
        assert!(mu.magnitude() < 1e-5, "Td symmetry forces μ = 0, got {}", mu.magnitude());
    }

    #[test]
    fn mulliken_charges_sum_to_zero_and_polarize_correctly() {
        let mol = builders::water();
        let basis = sto3g();
        let shells = basis.shells_for(&mol);
        let res = ScfDriver::new(&mol, &basis, ScfConfig::default()).run().expect("scf run");
        let q = mulliken_charges(&mol, &shells, &res.density);
        let total: f64 = q.iter().sum();
        assert!(total.abs() < 1e-8, "neutral molecule: Σq = {total}");
        // Oxygen negative, hydrogens positive.
        assert!(q[0] < -0.1, "O charge {q:?}");
        assert!(q[1] > 0.05 && q[2] > 0.05);
        assert!((q[1] - q[2]).abs() < 1e-8, "equivalent hydrogens");
    }

    #[test]
    fn dipole_matrices_are_symmetric() {
        let mol = builders::ammonia();
        let shells = sto3g().shells_for(&mol);
        for m in dipole_matrices(&shells) {
            assert!(m.asymmetry() < 1e-12);
        }
    }
}
