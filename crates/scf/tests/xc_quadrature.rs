//! The DFT grid's quadrature *error*, held against an independent reference.
//!
//! `xc_pin.rs` pins the grid's bits, which any change of the grid must
//! regenerate; this file pins what those bits are for. B3LYP's E_xc and ∫ρ
//! are integrated at a fixed density — the converged RHF/STO-3G density,
//! which does not depend on the grid under test — on a (120, 30) reference
//! grid, itself checked to have converged against (100, 24). Every grid an
//! SCF in this workspace runs on ((30, 10) the default, (35, 12) the B3LYP
//! goldens, (40, 12) the benchmark's) must land within [`QUADRATURE_BOUND`]
//! of it, for water and for the water trimer. The same bound holds B3LYP's
//! total energy under rigid motions: the Becke grid moves with the atoms but
//! its angular rule is tied to the axes, so a rotated molecule is integrated
//! on a different set of points.
//!
//! Release only (about 2 s there, minutes in debug): tier-2 runs it.

use mako_chem::basis::sto3g::sto3g;
use mako_chem::basis::Shell;
use mako_chem::{builders, Molecule};
use mako_linalg::Matrix;
use mako_scf::grid::MolecularGrid;
use mako_scf::xc::{b3lyp, evaluate_aos, evaluate_xc};
use mako_scf::{ScfConfig, ScfDriver, ScfMethod};

/// The largest |ΔE_xc| (Ha) and |∫ρ − N| a production grid may show against
/// the reference, and the largest |ΔE| (Ha) a rigid motion may cause.
const QUADRATURE_BOUND: f64 = 1e-4;
/// The reference grid, and the coarser grid it must agree with to
/// [`REFERENCE_CONVERGED`] Ha.
const REFERENCE: (usize, usize) = (120, 30);
const REFERENCE_CHECK: (usize, usize) = (100, 24);
const REFERENCE_CONVERGED: f64 = 1e-7;
/// The production grids: `ScfConfig`'s default, the B3LYP goldens' and the
/// benchmark's.
const GRIDS: [(usize, usize); 3] = [(30, 10), (35, 12), (40, 12)];

/// (E_xc, ∫ρ) of B3LYP at density `d` on a `size` grid. The AOs are
/// tabulated a chunk of points at a time, so the reference grid's
/// tabulation (hundreds of MB whole) never lives at once.
fn xc_on(mol: &Molecule, shells: &[Shell], d: &Matrix, size: (usize, usize)) -> (f64, f64) {
    let grid = MolecularGrid::build(mol, size.0, size.1);
    grid.points.chunks(1 << 15).fold((0.0, 0.0), |(e, n), chunk| {
        let part = MolecularGrid {
            points: chunk.to_vec(),
        };
        let res = evaluate_xc(&b3lyp(), &evaluate_aos(shells, &part), &part, d);
        (e + res.energy, n + res.n_electrons)
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_grid_integrates_the_rhf_density_within_the_quadrature_bound() {
    for mol in [builders::water(), builders::water_cluster(3)] {
        let shells = sto3g().shells_for(&mol);
        let rhf = ScfDriver::new(&mol, &sto3g(), ScfConfig::default()).run().expect("rhf run");
        assert!(rhf.converged, "{}: RHF did not converge", mol.name);
        let d = &rhf.density;
        let (e_ref, _) = xc_on(&mol, &shells, d, REFERENCE);
        let (e_check, _) = xc_on(&mol, &shells, d, REFERENCE_CHECK);
        assert!(
            (e_ref - e_check).abs() <= REFERENCE_CONVERGED,
            "{}: the {REFERENCE:?} reference E_xc {e_ref:.10} is {:.2e} Ha from {REFERENCE_CHECK:?}",
            mol.name,
            e_ref - e_check
        );
        let n_electrons = mol.n_electrons() as f64;
        for size in GRIDS {
            let (e, n) = xc_on(&mol, &shells, d, size);
            assert!(
                (e - e_ref).abs() <= QUADRATURE_BOUND && (n - n_electrons).abs() <= QUADRATURE_BOUND,
                "{} on {size:?}: ΔE_xc {:.3e} Ha, ∫ρ − N {:.3e}",
                mol.name,
                e - e_ref,
                n - n_electrons
            );
        }
    }
}

/// `x ↦ R x + t`, R the rotation by `angle` about `axis` (Rodrigues).
fn moved(mol: &Molecule, axis: [f64; 3], angle: f64, t: [f64; 3]) -> Molecule {
    let len = axis.iter().map(|a| a * a).sum::<f64>().sqrt();
    let [kx, ky, kz] = axis.map(|a| a / len);
    let (s, c) = angle.sin_cos();
    let mut out = mol.clone();
    for atom in &mut out.atoms {
        let [x, y, z] = atom.position;
        let dot = kx * x + ky * y + kz * z;
        let cross = [ky * z - kz * y, kz * x - kx * z, kx * y - ky * x];
        atom.position = [
            x * c + cross[0] * s + kx * dot * (1.0 - c) + t[0],
            y * c + cross[1] * s + ky * dot * (1.0 - c) + t[1],
            z * c + cross[2] * s + kz * dot * (1.0 - c) + t[2],
        ];
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn b3lyp_energy_is_invariant_under_rigid_motion_within_the_quadrature_bound() {
    let water = builders::water();
    let still = [0.0; 3];
    let motions = [
        moved(&water, [0.0, 0.0, 1.0], 0.6, still),
        moved(&water, [1.0, 0.0, 0.0], 1.1, still),
        moved(&water, [1.0, 1.0, 1.0], 2.3, still),
        moved(&water, [0.3, -0.8, 0.5], -0.9, still),
        moved(&water, [0.0, 0.0, 1.0], 0.0, [1.7, -2.3, 0.9]),
    ];
    for grid in [(30, 10), (40, 12)] {
        let energy = |mol: &Molecule| {
            let config = ScfConfig {
                method: ScfMethod::Rks(b3lyp()),
                e_tol: 1e-10,
                grid,
                ..ScfConfig::default()
            };
            let res = ScfDriver::new(mol, &sto3g(), config).run().expect("b3lyp run");
            assert!(res.converged, "B3LYP water on {grid:?} did not converge");
            res.energy
        };
        let e0 = energy(&water);
        for (k, mol) in motions.iter().enumerate() {
            let de = energy(mol) - e0;
            assert!(
                de.abs() <= QUADRATURE_BOUND,
                "B3LYP water on {grid:?}: rigid motion {k} changed E by {de:.3e} Ha"
            );
        }
    }
}
