//! Pins the bits of `eigh`: one FNV-1a digest of `values` and `vectors` per
//! input, every element through `to_bits` as a little-endian `u64` word (the
//! hashing of `crates/scf/tests/digest`).
//!
//! The inputs cover what the EISPACK `tred2`/`tql2` pair branches on:
//!
//! * seeded random symmetric matrices at n ∈ {1, 2, 3, 7, 43, 168} (168 is
//!   the AO count of the benchmark's 24-water `scf_wide`, 43 that of
//!   TZVP-like water);
//! * an exactly degenerate spectrum, `3·I + 𝟙𝟙ᵀ` (eigenvalue 3 seven times);
//! * a block-diagonal matrix, whose first row of the second block has a zero
//!   Householder `scale` in `tred2` and whose off-diagonal zero splits the
//!   QL iteration early;
//! * a diagonal matrix (`scale == 0` on every row, no QL sweep at all).
//!
//! A change of memory order inside the eigensolver must leave every digest
//! as it is. A change of floating-point order regenerates them (the failure
//! message prints each new row) and says by how much the values moved.

use mako_linalg::{eigh, Matrix};

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// Symmetric matrix with entries uniform in [-1, 1) from a seeded LCG.
fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = next();
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

fn degenerate() -> Matrix {
    Matrix::from_fn(8, 8, |i, j| if i == j { 4.0 } else { 1.0 })
}

fn block_diagonal() -> Matrix {
    let mut m = Matrix::zeros(12, 12);
    m.set_block(0, 0, &random_symmetric(5, 11));
    m.set_block(5, 5, &random_symmetric(7, 13));
    m
}

fn diagonal() -> Matrix {
    let d = [3.0, -1.0, 0.0, 2.5, -7.25, 0.5];
    Matrix::from_fn(6, 6, |i, j| if i == j { d[i] } else { 0.0 })
}

fn digest(a: &Matrix) -> u64 {
    let ed = eigh(a).expect("eigh");
    let mut h = Digest::new();
    h.floats(&ed.values);
    h.floats(ed.vectors.as_slice());
    h.0
}

#[test]
fn eigh_bits_are_pinned() {
    let cases: Vec<(&str, Matrix, u64)> = vec![
        ("random_1", random_symmetric(1, 101), 0x9e15_deb5_d19b_2a49),
        ("random_2", random_symmetric(2, 102), 0x123a_b919_2aab_e272),
        ("random_3", random_symmetric(3, 103), 0x7da7_c6b2_707a_d7e0),
        ("random_7", random_symmetric(7, 107), 0xde8e_4b0a_7985_29c3),
        (
            "random_43",
            random_symmetric(43, 143),
            0x836f_14a4_799f_9f26,
        ),
        (
            "random_168",
            random_symmetric(168, 268),
            0xa951_66ba_619e_a363,
        ),
        ("degenerate_8", degenerate(), 0x4d40_3523_76b9_2cc6),
        ("block_diagonal_12", block_diagonal(), 0x891c_a25e_e9bd_98a9),
        ("diagonal_6", diagonal(), 0xfc98_0a41_3e1f_c2fe),
    ];
    let mut moved = Vec::new();
    for (name, a, want) in &cases {
        let got = digest(a);
        if got != *want {
            moved.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "eigh bits moved; new rows:\n{}",
        moved.join("\n")
    );
}
