//! Where the first FP64 evaluation of a quartet spends its time (ROADMAP F1).
//!
//! For water₄/STO-3G (the benchmark's `scf_eri` system: K = 3, l ≤ 1) and
//! water/def2-TZVP-like (K ≈ 1, l ≤ 3), every batched quartet is evaluated
//! once through the public pieces of the FP64 routine, stage by stage, each
//! stage including the ones before it:
//!
//! * **Boys** — `pq_geometry` + `BoysTable::eval` per primitive combination;
//! * **R_tuv** — `r_lanes_into`: the same, seeding one lane per combination,
//!   plus the Eq. (5) recursion run across the lanes;
//! * **fill** — `pq_stacked_into`: the same plus the `[p|q]` fill of every
//!   block of the stacked operand;
//! * **total** — `eri_quartet_mmd_into`: the same plus the two transforms.
//!
//! Printed per quartet as differences (Boys / R_tuv / fill / transforms /
//! total), the minimum of nine passes.
//!
//! ```sh
//! cargo run --release -p mako-kernels --example first_eval_profile
//! ```

use mako_chem::basis::sto3g::sto3g;
use mako_chem::{builders, BasisFamily, Molecule, Shell};
use mako_eri::batch::batch_quartets;
use mako_eri::hermite::HermiteLanes;
use mako_eri::mmd::{eri_quartet_mmd_into, pq_geometry, pq_stacked_into, r_lanes_into};
use mako_eri::screening::{build_screened_pairs, ScreenedPair};
use mako_eri::{shared_table, Tensor4};
use mako_linalg::Matrix;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 9;

fn min_seconds(mut pass: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn profile(name: &str, shells: &[Shell]) {
    let pairs: Vec<ScreenedPair> = build_screened_pairs(shells, 1e-10);
    let quartets: Vec<(usize, usize)> = batch_quartets(&pairs, 1e-20)
        .iter()
        .flat_map(|b| b.quartets.iter().copied())
        .collect();
    let combinations: usize = quartets
        .iter()
        .map(|&(pi, qi)| pairs[pi].data.degree() * pairs[qi].data.degree())
        .sum();
    let table = shared_table();

    let boys_s = min_seconds(|| {
        let mut boys = [0.0f64; 32];
        for &(pi, qi) in &quartets {
            let (ab, cd) = (&pairs[pi].data, &pairs[qi].data);
            let l_tot = ab.l_total() + cd.l_total();
            for bra in &ab.prims {
                for ket in &cd.prims {
                    let (_, _, t) = pq_geometry(bra, ket);
                    table.eval(l_tot, t, &mut boys);
                    black_box(&boys);
                }
            }
        }
    });

    let mut lanes = HermiteLanes::default();
    let r_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            r_lanes_into(&pairs[pi].data, &pairs[qi].data, &mut lanes);
            black_box(&lanes);
        }
    });

    let mut stacked = Matrix::default();
    let fill_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            pq_stacked_into(&pairs[pi].data, &pairs[qi].data, &mut lanes, &mut stacked);
            black_box(&stacked);
        }
    });

    let mut t = Tensor4::zeros([0; 4]);
    let total_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            eri_quartet_mmd_into(&pairs[pi].data, &pairs[qi].data, &mut t);
            black_box(&t);
        }
    });

    let n = quartets.len() as f64;
    let us = |s: f64| s / n * 1e6;
    println!(
        "{name}: {} quartets, {:.1} primitive combinations each, first evaluation {total_s:.4} s",
        quartets.len(),
        combinations as f64 / n
    );
    println!(
        "  per quartet: Boys {:.2} us | R_tuv {:.2} us | [p|q] fill {:.2} us | transforms {:.2} us | total {:.2} us",
        us(boys_s),
        us(r_s - boys_s),
        us(fill_s - r_s),
        us(total_s - fill_s),
        us(total_s)
    );
}

fn shells_of(mol: &Molecule, family: BasisFamily) -> Vec<Shell> {
    let elements: Vec<_> = mol.atoms.iter().map(|a| a.element).collect();
    family.basis_for(&elements).shells_for(mol)
}

fn main() {
    profile("water4/STO-3G", &sto3g().shells_for(&builders::water_cluster(4)));
    profile("water/def2-TZVP-like", &shells_of(&builders::water(), BasisFamily::Def2TzvpLike));
}
