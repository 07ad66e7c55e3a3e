//! Shared by the one-electron integration tests: the reference assembly of
//! S/T/V from the per-block oracle, the pin systems, and the bit digest.
#![allow(dead_code)]

use mako_chem::basis::sto3g::sto3g;
use mako_chem::basis::ShellDef;
use mako_chem::{builders, AoLayout, Atom, Element, Molecule, Shell};
use mako_eri::{kinetic_block, nuclear_block, overlap_block};
use mako_linalg::Matrix;

/// S, T, V assembled the way `one_electron_matrices` did before the fused
/// pass: three separate oracle blocks per shell pair `(i ≥ j)`, mirrored.
pub fn oracle_matrices(shells: &[Shell], mol: &Molecule) -> (Matrix, Matrix, Matrix) {
    let layout = AoLayout::new(shells);
    let n = layout.nao;
    let mut out = (
        Matrix::zeros(n, n),
        Matrix::zeros(n, n),
        Matrix::zeros(n, n),
    );
    for i in 0..shells.len() {
        for j in 0..=i {
            let (oi, oj) = (layout.shell_offsets[i], layout.shell_offsets[j]);
            let blocks = [
                (&mut out.0, overlap_block(&shells[i], &shells[j])),
                (&mut out.1, kinetic_block(&shells[i], &shells[j])),
                (&mut out.2, nuclear_block(&shells[i], &shells[j], mol)),
            ];
            for (m, b) in blocks {
                // Element order matters on diagonal blocks: the later write
                // wins, which leaves the lower triangle mirrored.
                for r in 0..b.rows() {
                    for c in 0..b.cols() {
                        m[(oi + r, oj + c)] = b[(r, c)];
                        m[(oj + c, oi + r)] = b[(r, c)];
                    }
                }
            }
        }
    }
    out
}

/// Off-axis shells with l = 0…3 and contraction depths 1–3, over three
/// nuclei that sit on none of the shell centers.
pub fn synthetic_system() -> (Vec<Shell>, Molecule) {
    let shell = |l, center, exps: &[f64], coefs: &[f64]| {
        ShellDef {
            l,
            exps: exps.to_vec(),
            coefs: coefs.to_vec(),
        }
        .at(usize::MAX, center)
    };
    let shells = vec![
        shell(0, [0.31, -0.27, 0.43], &[5.2, 1.1, 0.35], &[0.2, 0.5, 0.4]),
        shell(1, [-0.52, 0.61, 0.18], &[2.3, 0.6], &[0.45, 0.65]),
        shell(2, [0.74, 0.39, -0.66], &[1.4], &[1.0]),
        shell(3, [-0.23, -0.81, -0.37], &[0.9, 0.4], &[0.6, 0.5]),
        shell(
            1,
            [1.12, -0.44, 0.93],
            &[3.1, 0.8, 0.25],
            &[0.15, 0.55, 0.45],
        ),
        shell(2, [-0.95, 0.12, -1.07], &[1.9, 0.5], &[0.35, 0.75]),
    ];
    let mut mol = Molecule::new("synthetic");
    for (element, position) in [
        (Element::O, [0.11, -0.19, 0.07]),
        (Element::H, [1.37, 0.42, -0.71]),
        (Element::N, [-1.21, 0.83, 0.59]),
    ] {
        mol.atoms.push(Atom { element, position });
    }
    (shells, mol)
}

/// The three pinned systems: water, a water trimer, the synthetic set.
pub fn pin_systems() -> Vec<(&'static str, Vec<Shell>, Molecule)> {
    let sto = |mol: Molecule| (sto3g().shells_for(&mol), mol);
    let (water, water_mol) = sto(builders::water());
    let (trimer, trimer_mol) = sto(builders::water_cluster(3));
    let (synthetic, synthetic_mol) = synthetic_system();
    vec![
        ("water", water, water_mol),
        ("water_cluster(3)", trimer, trimer_mol),
        ("synthetic", synthetic, synthetic_mol),
    ]
}

/// FNV-1a over the IEEE bit patterns of every element, row by row.
pub fn digest(m: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in m.as_slice() {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Largest element-wise difference.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.sub(b).max_abs()
}
