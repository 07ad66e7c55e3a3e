//! The fused `one_electron_matrices` against the slow block reference
//! (`overlap_block` / `kinetic_block` / `nuclear_block`, assembled pair by
//! pair as the code did before the fused pass), plus thread invariance.
//!
//! S and T differ from the reference only through the 1e-20 primitive-pair
//! cut; V additionally sums the nuclei before the Hermite contraction.

mod common;

use common::{digest, max_abs_diff, oracle_matrices};
use mako_chem::basis::sto3g::sto3g;
use mako_chem::basis::ShellDef;
use mako_chem::{builders, Atom, Element, Molecule};
use mako_eri::one_electron_matrices;
use proptest::prelude::*;

#[test]
fn fused_pass_matches_the_block_oracle_on_24_waters() {
    let mol = builders::water_cluster(24);
    let shells = sto3g().shells_for(&mol);
    let (s, t, v) = one_electron_matrices(&shells, &mol);
    let (so, to, vo) = oracle_matrices(&shells, &mol);
    let (ds, dt, dv) = (
        max_abs_diff(&s, &so),
        max_abs_diff(&t, &to),
        max_abs_diff(&v, &vo),
    );
    println!("water_cluster(24): |dS| {ds:.1e} |dT| {dt:.1e} |dV| {dv:.1e}");
    assert!(ds <= 1e-15, "|ΔS| = {ds:e}");
    assert!(dt <= 1e-15, "|ΔT| = {dt:e}");
    assert!(dv <= 1e-12, "|ΔV| = {dv:e}");
    for m in [&s, &t, &v] {
        assert_eq!(m.asymmetry(), 0.0, "mirrored assembly is exactly symmetric");
    }
}

#[test]
fn bits_do_not_depend_on_the_pool_size() {
    let mol = builders::water_cluster(3);
    let shells = sto3g().shells_for(&mol);
    let digests = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (s, t, v) = pool.install(|| one_electron_matrices(&shells, &mol));
        (digest(&s), digest(&t), digest(&v))
    };
    let one = digests(1);
    assert_eq!(digests(2), one);
    assert_eq!(digests(4), one);
}

/// A shell of `l` with the first `k` of three fixed primitives, at `center`.
fn shell(l: usize, k: usize, scale: f64, center: [f64; 3]) -> mako_chem::Shell {
    let exps: Vec<f64> = [3.7, 0.9, 0.28][..k].iter().map(|e| e * scale).collect();
    ShellDef {
        l,
        exps,
        coefs: [0.3, 0.6, 0.4][..k].to_vec(),
    }
    .at(usize::MAX, center)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shell pairs, l ≤ 4, 1–3 primitives each, over 1–5 nuclei.
    #[test]
    fn random_shell_pairs_match_the_block_oracle(
        ls in (0usize..5, 0usize..5),
        ks in (1usize..4, 1usize..4),
        scales in (0.3f64..3.0, 0.3f64..3.0),
        centers in proptest::collection::vec(-1.5f64..1.5, 6..7),
        nuclei in proptest::collection::vec((1u8..10, -2.5f64..2.5, -2.5f64..2.5, -2.5f64..2.5), 1..6)
    ) {
        let shells = [
            shell(ls.0, ks.0, scales.0, [centers[0], centers[1], centers[2]]),
            shell(ls.1, ks.1, scales.1, [centers[3], centers[4], centers[5]]),
        ];
        let mut mol = Molecule::new("random");
        for &(z, x, y, zc) in &nuclei {
            mol.atoms.push(Atom { element: Element(z), position: [x, y, zc] });
        }
        let (s, t, v) = one_electron_matrices(&shells, &mol);
        let (so, to, vo) = oracle_matrices(&shells, &mol);
        prop_assert!(max_abs_diff(&s, &so) <= 1e-15, "|ΔS| = {:e}", max_abs_diff(&s, &so));
        prop_assert!(max_abs_diff(&t, &to) <= 1e-15, "|ΔT| = {:e}", max_abs_diff(&t, &to));
        let dv = max_abs_diff(&v, &vo);
        prop_assert!(dv <= 1e-12 * vo.max_abs().max(1.0), "|ΔV| = {:e} of {:e}", dv, vo.max_abs());
    }
}
