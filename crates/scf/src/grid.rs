//! Molecular quadrature grid for the exchange-correlation integrals.
//!
//! Construction follows the standard recipe:
//!
//! * **radial**: Gauss-Chebyshev (second kind) nodes mapped onto `(0, ∞)`
//!   with the Becke transformation `r = R (1+x)/(1−x)`;
//! * **angular**: a Gauss-Legendre × uniform-φ spherical product rule (the
//!   documented substitution for Lebedev grids — a product rule of order n
//!   integrates spherical harmonics exactly up to degree n and is
//!   generatable at any order without coefficient tables);
//! * **partitioning**: Becke's smooth Voronoi weights (k = 3 sharpening
//!   passes) distribute overlapping atomic grids.

use mako_chem::molecule::{dist, Molecule};
use mako_chem::BOHR_PER_ANGSTROM;

/// One quadrature point with its combined weight.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// Position, Bohr.
    pub position: [f64; 3],
    /// Quadrature weight (includes radial Jacobian, angular weight, and the
    /// Becke partition factor).
    pub weight: f64,
}

/// The assembled molecular grid.
#[derive(Debug, Clone)]
pub struct MolecularGrid {
    /// All quadrature points.
    pub points: Vec<GridPoint>,
}

impl MolecularGrid {
    /// Build a grid with `n_radial` shells and a `n_theta × 2·n_theta`
    /// angular rule per atom. `ScfConfig`'s default is (30, 10); tests use
    /// smaller grids. Either size 0 gives a grid without points.
    pub fn build(mol: &Molecule, n_radial: usize, n_theta: usize) -> MolecularGrid {
        let angular = angular_rule(n_theta);
        // Becke partition inputs: atom–atom distances tabulated once, and one
        // reused buffer each for a point's atom distances and cell products.
        let n = mol.atoms.len();
        let rij: Vec<f64> = (0..n * n)
            .map(|k| dist(mol.atoms[k / n].position, mol.atoms[k % n].position))
            .collect();
        let (mut dists, mut cell) = (vec![0.0f64; n], vec![0.0f64; n]);
        let mut points = Vec::new();
        for (ai, atom) in mol.atoms.iter().enumerate() {
            // Bragg-Slater-ish size parameter: covalent radius in Bohr.
            let r_m = (atom.element.covalent_radius() * BOHR_PER_ANGSTROM).max(0.4);
            for (r, wr) in radial_rule(n_radial, r_m) {
                for &(u, v, w, wa) in &angular {
                    let p = [
                        atom.position[0] + r * u,
                        atom.position[1] + r * v,
                        atom.position[2] + r * w,
                    ];
                    for (d, other) in dists.iter_mut().zip(&mol.atoms) {
                        *d = dist(p, other.position);
                    }
                    let weight = wr * wa * becke_weight(&rij, &dists, &mut cell, ai);
                    if weight > 1e-16 {
                        points.push(GridPoint {
                            position: p,
                            weight,
                        });
                    }
                }
            }
        }
        MolecularGrid { points }
    }

    /// Number of quadrature points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Integrate a scalar field given its values at the grid points.
    pub fn integrate(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.points.len());
        self.points
            .iter()
            .zip(values)
            .map(|(p, v)| p.weight * v)
            .sum()
    }
}

/// Radial nodes/weights: Gauss-Chebyshev second kind + Becke map.
/// Weights include the `r²` volume factor.
fn radial_rule(n: usize, r_m: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(n);
    for i in 1..=n {
        let t = i as f64 * std::f64::consts::PI / (n + 1) as f64;
        let x = t.cos();
        let w_cheb = std::f64::consts::PI / (n + 1) as f64 * t.sin().powi(2);
        // Becke map r = R (1+x)/(1−x); dr/dx = 2R/(1−x)².
        let r = r_m * (1.0 + x) / (1.0 - x);
        let jac = 2.0 * r_m / (1.0 - x).powi(2);
        // Gauss-Chebyshev-II integrates f(x)·√(1−x²); divide the weight.
        let w = w_cheb / (1.0 - x * x).sqrt() * jac * r * r;
        if r.is_finite() && w.is_finite() {
            out.push((r, w));
        }
    }
    out
}

/// Angular product rule: Gauss-Legendre in cosθ × uniform in φ. Returns
/// unit vectors with weights summing to 4π.
fn angular_rule(n_theta: usize) -> Vec<(f64, f64, f64, f64)> {
    let (nodes, weights) = gauss_legendre(n_theta);
    let n_phi = 2 * n_theta;
    let wphi = 2.0 * std::f64::consts::PI / n_phi as f64;
    let mut out = Vec::with_capacity(n_theta * n_phi);
    for (ct, wt) in nodes.iter().zip(&weights) {
        let st = (1.0 - ct * ct).sqrt();
        for k in 0..n_phi {
            let phi = (k as f64 + 0.5) * wphi;
            out.push((st * phi.cos(), st * phi.sin(), *ct, wt * wphi));
        }
    }
    out
}

/// Gauss-Legendre nodes/weights on [−1, 1] via Newton iteration on P_n.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut nodes = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    for i in 0..n {
        // Chebyshev initial guess.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..100 {
            let (p, dp) = legendre_and_derivative(n, x);
            let dx = p / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let (_, dp) = legendre_and_derivative(n, x);
        nodes[i] = x;
        weights[i] = 2.0 / ((1.0 - x * x) * dp * dp);
    }
    (nodes, weights)
}

fn legendre_and_derivative(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0f64;
    let mut p1 = x;
    if n == 0 {
        return (1.0, 0.0);
    }
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    let dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
    (p1, dp)
}

/// Becke partition weight relative to atom `ai` of the point at distances
/// `r[i]` from the atoms, given the row-major atom–atom table `rij`.
fn becke_weight(rij: &[f64], r: &[f64], cell: &mut [f64], ai: usize) -> f64 {
    let n = r.len();
    if n == 1 {
        return 1.0;
    }
    cell.fill(1.0);
    for i in 0..n {
        for j in 0..i {
            let mu = (r[i] - r[j]) / rij[i * n + j];
            // k = 3 iterations of the Becke smoothing polynomial.
            let mut f = mu;
            for _ in 0..3 {
                f = 1.5 * f - 0.5 * f * f * f;
            }
            let s_ij = 0.5 * (1.0 - f);
            cell[i] *= s_ij;
            cell[j] *= 1.0 - s_ij;
        }
    }
    let total: f64 = cell.iter().sum();
    if total <= 0.0 {
        0.0
    } else {
        cell[ai] / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::builders;

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        let (x, w) = gauss_legendre(8);
        // ∫_{-1}^{1} x^k dx for k even = 2/(k+1); odd = 0. Exact to 2n−1=15.
        for k in 0..=15usize {
            let s: f64 = x.iter().zip(&w).map(|(xi, wi)| wi * xi.powi(k as i32)).sum();
            let exact = if k % 2 == 0 { 2.0 / (k as f64 + 1.0) } else { 0.0 };
            assert!((s - exact).abs() < 1e-13, "k={k}: {s} vs {exact}");
        }
    }

    #[test]
    fn angular_weights_sum_to_sphere() {
        let rule = angular_rule(10);
        let total: f64 = rule.iter().map(|&(_, _, _, w)| w).sum();
        assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-10);
        // Integrates Y_1 components to zero.
        let sx: f64 = rule.iter().map(|&(x, _, _, w)| w * x).sum();
        assert!(sx.abs() < 1e-12);
    }

    #[test]
    fn radial_rule_integrates_gaussian() {
        // ∫₀^∞ e^{−r²} r² dr = √π/4.
        let rule = radial_rule(60, 1.0);
        let s: f64 = rule.iter().map(|&(r, w)| w * (-r * r).exp()).sum();
        let exact = std::f64::consts::PI.sqrt() / 4.0;
        assert!((s - exact).abs() < 1e-8, "{s} vs {exact}");
    }

    #[test]
    fn grid_integrates_gaussian_density() {
        // A normalized Gaussian centered between the atoms must integrate
        // to 1 on the molecular grid.
        let mol = builders::water();
        let grid = MolecularGrid::build(&mol, 40, 12);
        assert!(grid.len() > 1000);
        let alpha = 0.8f64;
        let norm = (alpha / std::f64::consts::PI).powf(1.5);
        let center = mol.atoms[0].position;
        let values: Vec<f64> = grid
            .points
            .iter()
            .map(|p| {
                let dx = p.position[0] - center[0];
                let dy = p.position[1] - center[1];
                let dz = p.position[2] - center[2];
                norm * (-alpha * (dx * dx + dy * dy + dz * dz)).exp()
            })
            .collect();
        let integral = grid.integrate(&values);
        assert!((integral - 1.0).abs() < 1e-5, "∫ρ = {integral}");
    }

    #[test]
    fn becke_weights_partition_unity() {
        let mol = builders::water();
        let p = [0.5, 0.3, 0.7];
        let pos: Vec<[f64; 3]> = mol.atoms.iter().map(|a| a.position).collect();
        let rij: Vec<f64> = (0..9).map(|k| dist(pos[k / 3], pos[k % 3])).collect();
        let r: Vec<f64> = pos.iter().map(|&a| dist(p, a)).collect();
        let total: f64 = (0..3).map(|ai| becke_weight(&rij, &r, &mut [0.0; 3], ai)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
