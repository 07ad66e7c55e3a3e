//! Pins the one-electron matrices bit for bit on three systems: water and a
//! water trimer in STO-3G, and a synthetic off-axis shell set with l = 0…3
//! and mixed contraction depths.
//!
//! `REFERENCE_PINS` were generated on the three-pass code (`overlap_block`,
//! `kinetic_block`, `nuclear_block` per shell pair), which
//! `one_electron_matrices` then was; the block reference must keep them
//! forever. `FUSED_PINS` are those of the fused pass that replaced it:
//!
//! - S and T of water and of the synthetic set are the reference bits. With
//!   the primitive-pair cut at 0 that holds on every system (unit test in
//!   `one_electron.rs`); the trimer's S and T are re-pinned because the
//!   1e-20 cut drops 182 of its 1080 primitive pairs, moving |S| by at most
//!   2.6e-23 and |T| by at most 2.2e-19.
//! - V is re-pinned everywhere: the nuclei are summed before the Hermite
//!   contraction instead of after it. Largest element moves: water 1.8e-15,
//!   trimer 1.8e-15, synthetic 5.3e-15.
//!
//! A later change of summation order must regenerate the affected constants
//! (failure messages print the new values), state the largest element move
//! and say so in CHANGES.md.

mod common;

use common::{digest, max_abs_diff, oracle_matrices, pin_systems};
use mako_chem::{Molecule, Shell};
use mako_eri::one_electron_matrices;
use mako_linalg::Matrix;

/// `(system, S, T, V)` digests.
type Pins = [(&'static str, u64, u64, u64); 3];

const REFERENCE_PINS: Pins = [
    (
        "water",
        0xdd2d_fb4d_d214_39a2,
        0xb980_94e2_757f_252a,
        0xcfd5_644b_925c_43d0,
    ),
    (
        "water_cluster(3)",
        0x6c29_abec_c9f3_7ce6,
        0xcefb_afc6_e537_88d6,
        0x0cb4_f8d1_d687_7c9f,
    ),
    (
        "synthetic",
        0xc189_9ab2_9985_fbbe,
        0xacf9_9865_e487_1b18,
        0xbe37_4c36_8870_6826,
    ),
];

const FUSED_PINS: Pins = [
    (
        "water",
        REFERENCE_PINS[0].1,
        REFERENCE_PINS[0].2,
        0xec01_091b_9923_2384,
    ),
    (
        "water_cluster(3)",
        0x2d70_f1aa_11b1_097a,
        0x9e64_8304_1841_4eca,
        0x11aa_eae2_4c6b_87f5,
    ),
    (
        "synthetic",
        REFERENCE_PINS[2].1,
        REFERENCE_PINS[2].2,
        0xb954_48f6_850e_7a66,
    ),
];

fn digests(
    build: impl Fn(&[Shell], &Molecule) -> (Matrix, Matrix, Matrix),
) -> Vec<(&'static str, u64, u64, u64)> {
    pin_systems()
        .into_iter()
        .map(|(name, shells, mol)| {
            let (s, t, v) = build(&shells, &mol);
            (name, digest(&s), digest(&t), digest(&v))
        })
        .collect()
}

#[test]
fn one_electron_matrices_are_pinned_bit_for_bit() {
    let got = digests(one_electron_matrices);
    assert_eq!(got, FUSED_PINS, "new pins: {got:#018x?}");
}

#[test]
fn the_block_reference_keeps_the_three_pass_bits() {
    let got = digests(oracle_matrices);
    assert_eq!(got, REFERENCE_PINS, "new pins: {got:#018x?}");
}

#[test]
fn the_repinned_matrices_sit_within_rounding_of_the_reference() {
    for (name, shells, mol) in pin_systems() {
        let (s, t, v) = one_electron_matrices(&shells, &mol);
        let (so, to, vo) = oracle_matrices(&shells, &mol);
        let (ds, dt, dv) = (
            max_abs_diff(&s, &so),
            max_abs_diff(&t, &to),
            max_abs_diff(&v, &vo),
        );
        println!("{name}: |dS| {ds:.1e} |dT| {dt:.1e} |dV| {dv:.1e}");
        assert!(
            ds <= 1e-18 && dt <= 1e-18,
            "{name}: |ΔS| = {ds:e}, |ΔT| = {dt:e}"
        );
        assert!(dv <= 5e-14, "{name}: |ΔV| = {dv:e}");
    }
}
