//! Pins `one_electron_matrices` bit for bit on three systems: water and a
//! water trimer in STO-3G, and a synthetic off-axis shell set with l = 0…3
//! and mixed contraction depths.
//!
//! The constants were generated on the three-pass code (`overlap_block`,
//! `kinetic_block`, `nuclear_block` per shell pair), so a rewrite of the
//! assembly passes only if S, T and V keep every floating-point operation
//! in its order. A deliberate change of summation order must regenerate the
//! affected constants (failure messages print the new values), state the
//! largest element move and say so in CHANGES.md.

mod common;

use common::{digest, oracle_matrices, pin_systems};
use mako_eri::one_electron_matrices;

/// `(system, S, T, V)` digests.
const PINS: [(&str, u64, u64, u64); 3] = [
    ("water", 0xdd2d_fb4d_d214_39a2, 0xb980_94e2_757f_252a, 0xcfd5_644b_925c_43d0),
    ("water_cluster(3)", 0x6c29_abec_c9f3_7ce6, 0xcefb_afc6_e537_88d6, 0x0cb4_f8d1_d687_7c9f),
    ("synthetic", 0xc189_9ab2_9985_fbbe, 0xacf9_9865_e487_1b18, 0xbe37_4c36_8870_6826),
];

#[test]
fn one_electron_matrices_are_pinned_bit_for_bit() {
    let got: Vec<_> = pin_systems()
        .into_iter()
        .map(|(name, shells, mol)| {
            let (s, t, v) = one_electron_matrices(&shells, &mol);
            (name, digest(&s), digest(&t), digest(&v))
        })
        .collect();
    assert_eq!(got, PINS, "new pins: {got:#018x?}");
}

#[test]
fn the_block_oracle_assembles_the_same_bits() {
    for (name, shells, mol) in pin_systems() {
        let (s, t, v) = one_electron_matrices(&shells, &mol);
        let (so, to, vo) = oracle_matrices(&shells, &mol);
        assert_eq!(digest(&s), digest(&so), "{name}: S");
        assert_eq!(digest(&t), digest(&to), "{name}: T");
        assert_eq!(digest(&v), digest(&vo), "{name}: V");
    }
}
