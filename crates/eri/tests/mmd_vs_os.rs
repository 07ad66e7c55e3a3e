//! The FP64 matrix-form MMD quartet against the independent Obara–Saika
//! engine on water/def2-TZVP-like: one quartet of every class — four angular
//! momenta (s…f) and both contraction degrees — that the screened pair list
//! of that system contains, to 1e-12.
//!
//! This is the tolerance gate a rewrite of the FP64 quartet (summation order,
//! Boys evaluator) has to hold; the bit-level pins live in `mako-scf`'s
//! `fock_seam_pin` / `trajectory_pin` float halves. `table3_accuracy` makes
//! the same comparison end to end at l ≤ 1.

use mako_chem::{builders, BasisFamily};
use mako_eri::screening::build_screened_pairs;
use mako_eri::{eri_quartet_mmd, eri_quartet_os};
use std::collections::BTreeMap;

#[test]
fn every_tzvp_like_water_class_matches_obara_saika() {
    let mol = builders::water();
    let elements: Vec<_> = mol.atoms.iter().map(|a| a.element).collect();
    let shells = BasisFamily::Def2TzvpLike
        .basis_for(&elements)
        .shells_for(&mol);
    assert_eq!(
        shells.iter().map(|s| s.l).max(),
        Some(3),
        "the system must reach f shells"
    );
    let pairs = build_screened_pairs(&shells, 1e-12);

    // First (bra, ket) pair of every (la, lb, lc, ld, K_AB, K_CD).
    let mut classes: BTreeMap<[usize; 6], (usize, usize)> = BTreeMap::new();
    for (pi, p) in pairs.iter().enumerate() {
        for (qi, q) in pairs.iter().enumerate().take(pi + 1) {
            let key = [
                p.data.la,
                p.data.lb,
                q.data.la,
                q.data.lb,
                p.data.degree(),
                q.data.degree(),
            ];
            classes.entry(key).or_insert((pi, qi));
        }
    }
    assert!(classes.len() > 500, "only {} classes", classes.len());
    assert!(
        classes.contains_key(&[3, 3, 3, 3, 1, 1]),
        "(ff|ff) must be covered"
    );

    let mut worst = (0.0f64, [0; 6]);
    for (&key, &(pi, qi)) in &classes {
        let (p, q) = (&pairs[pi], &pairs[qi]);
        let mmd = eri_quartet_mmd(&p.data, &q.data);
        let os = eri_quartet_os(&shells[p.i], &shells[p.j], &shells[q.i], &shells[q.j])
            .expect("l <= 3 throughout");
        let diff = mmd.max_abs_diff(&os);
        if diff > worst.0 {
            worst = (diff, key);
        }
    }
    assert!(
        worst.0 < 1e-12,
        "MMD vs Obara-Saika: max |Δ| {:e} in class {:?}",
        worst.0,
        worst.1
    );
}
