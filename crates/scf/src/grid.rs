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
//! * **pruning**: each radial shell gets its own angular order, picked from
//!   r/R (R the atom's size parameter), in the NWChem/SG-1 way (Gill,
//!   Johnson and Pople, CPL 209, 506 (1993)). Only the valence region keeps
//!   the configured order n_θ; the nearly spherical core and the diffuse
//!   tail take fewer points:
//!
//!   | r / R | < 0.25 | < 0.5 | < 1 | < 4.5 | ≥ 4.5 |
//!   |---|---|---|---|---|---|
//!   | order | n_θ/3 | n_θ/2 | 5n_θ/6 | n_θ | 2n_θ/3 |
//!
//!   each rounded to the nearest integer and clamped to `[min(1, n_θ), n_θ]`
//!   (4 / 6 / 10 / 12 / 8 at n_θ = 12). That halves the points of the
//!   unpruned product grid at the same quadrature error;
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
    /// Build a grid with `n_radial` shells per atom, each with an
    /// `n × 2n` angular rule whose order n is pruned by radius (module docs)
    /// and is at most `n_theta`. `ScfConfig`'s default is (30, 10); tests
    /// use smaller grids. Either size 0 gives a grid without points.
    pub fn build(mol: &Molecule, n_radial: usize, n_theta: usize) -> MolecularGrid {
        // One angular rule per order in use, indexed by order.
        let rules: Vec<Vec<(f64, f64, f64, f64)>> = (0..=n_theta)
            .map(|n| {
                let used = PRUNING.iter().any(|&(_, f)| pruned_order(f, n_theta) == n);
                if used {
                    angular_rule(n)
                } else {
                    Vec::new()
                }
            })
            .collect();
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
                for &(u, v, w, wa) in &rules[shell_order(r / r_m, n_theta)] {
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
    #[cfg(test)]
    pub(crate) fn integrate(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.points.len());
        self.points
            .iter()
            .zip(values)
            .map(|(p, v)| p.weight * v)
            .sum()
    }
}

/// The pruning regions of the module docs: a shell whose r/R is below the
/// bound takes the fraction of `n_theta` beside it.
const PRUNING: [(f64, f64); 5] = [
    (0.25, 1.0 / 3.0),
    (0.5, 0.5),
    (1.0, 5.0 / 6.0),
    (4.5, 1.0),
    (f64::INFINITY, 2.0 / 3.0),
];

/// `fraction · n_theta` rounded, clamped to `[min(1, n_theta), n_theta]`.
fn pruned_order(fraction: f64, n_theta: usize) -> usize {
    ((fraction * n_theta as f64).round() as usize).clamp(n_theta.min(1), n_theta)
}

/// The angular order of a shell at `r_over_r_m` = r/R.
fn shell_order(r_over_r_m: f64, n_theta: usize) -> usize {
    let &(_, fraction) = PRUNING
        .iter()
        .find(|&&(bound, _)| r_over_r_m < bound)
        .expect("the last region is unbounded");
    pruned_order(fraction, n_theta)
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
pub(crate) fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
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
        // Every order a pruned grid of n_θ ≤ 30 can use.
        for n in 1..=30 {
            let rule = angular_rule(n);
            let total: f64 = rule.iter().map(|&(_, _, _, w)| w).sum();
            assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-10, "order {n}: {total}");
            // Integrates Y_1 components to zero.
            let sx: f64 = rule.iter().map(|&(x, _, _, w)| w * x).sum();
            assert!(sx.abs() < 1e-12, "order {n}: {sx}");
        }
    }

    /// r/R from deep in the core to far in the tail, and every region edge.
    fn radii() -> impl Iterator<Item = f64> {
        let edges = PRUNING.iter().map(|&(bound, _)| bound).filter(|b| b.is_finite());
        (0..=400).map(|k| 10f64.powf(-3.0 + 6.0 * k as f64 / 400.0)).chain(edges)
    }

    #[test]
    fn a_zero_order_or_no_shells_gives_an_empty_grid() {
        // `ScfDriver::try_new` turns either into `ScfError::EmptyGrid`
        // (`scf::tests::a_kohn_sham_run_without_grid_points_is_a_typed_error`).
        let mol = builders::water();
        assert!(MolecularGrid::build(&mol, 30, 0).is_empty());
        assert!(MolecularGrid::build(&mol, 0, 10).is_empty());
        assert!(radii().all(|r| shell_order(r, 0) == 0));
    }

    #[test]
    fn order_one_is_kept_on_every_shell() {
        assert!(radii().all(|r| shell_order(r, 1) == 1));
        // Two points per shell, on each of water's 3 atoms × 30 shells, less
        // those the Becke partition gives no weight.
        let grid = MolecularGrid::build(&builders::water(), 30, 1);
        assert!(grid.len() <= 3 * 30 * 2 && grid.len() > 3 * 30, "{}", grid.len());
    }

    #[test]
    fn no_shell_exceeds_the_configured_order_and_the_valence_keeps_it() {
        for n_theta in 0..=40 {
            assert!(radii().all(|r| shell_order(r, n_theta) <= n_theta), "n_θ = {n_theta}");
            assert_eq!(shell_order(1.0, n_theta), n_theta);
            assert_eq!(shell_order(4.4, n_theta), n_theta);
        }
        // The module docs' table at n_θ = 12: core, inner, valence, outer, tail.
        let orders: Vec<usize> = [0.1, 0.3, 0.7, 2.0, 9.0].iter().map(|&r| shell_order(r, 12)).collect();
        assert_eq!(orders, [4, 6, 10, 12, 8]);
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
