//! Parametric even-tempered basis families standing in for the paper's
//! def2-TZVP / def2-QZVP / cc-pVTZ / cc-pVQZ sets.
//!
//! The shell *compositions* (how many shells of each l, which contraction
//! degrees) match the real sets for first-row atoms — e.g. def2-TZVP carbon
//! is \[5s3p2d1f\] = 31 spherical AOs and def2-QZVP carbon is \[7s4p3d2f1g\] =
//! 57 — while the exponents are even-tempered geometric sequences
//! `α_k = α_min · β^k`. This preserves exactly what the paper's experiments
//! vary: angular-momentum content (f for TZ, g for QZ), per-atom basis size,
//! and the contraction-degree structure ({1,1}/{1,5}/{5,5}-style classes with
//! K = 1 for high l, which is what makes GEMM coalescing applicable).
//!
//! DESIGN.md documents this substitution; absolute energies are validated
//! separately with real STO-3G data.

use super::{BasisSet, ShellDef};
use crate::element::Element;

/// The basis families used across the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasisFamily {
    /// Real STO-3G (H/C/N/O only) — validation anchor.
    Sto3g,
    /// Triple-zeta, max l = 3 (f) on heavy atoms: "def2-TZVP-like".
    Def2TzvpLike,
    /// Quadruple-zeta, max l = 4 (g) on heavy atoms: "def2-QZVP-like".
    Def2QzvpLike,
    /// Triple-zeta correlation-consistent-like, max l = 3.
    CcPvtzLike,
    /// Quadruple-zeta correlation-consistent-like, max l = 4.
    CcPvqzLike,
}

impl BasisFamily {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            BasisFamily::Sto3g => "STO-3G",
            BasisFamily::Def2TzvpLike => "def2-TZVP",
            BasisFamily::Def2QzvpLike => "def2-QZVP",
            BasisFamily::CcPvtzLike => "cc-pVTZ",
            BasisFamily::CcPvqzLike => "cc-pVQZ",
        }
    }

    /// Maximum angular momentum on heavy atoms (T → f, Q → g).
    pub fn heavy_max_l(self) -> usize {
        match self {
            BasisFamily::Sto3g => 1,
            BasisFamily::Def2TzvpLike | BasisFamily::CcPvtzLike => 3,
            BasisFamily::Def2QzvpLike | BasisFamily::CcPvqzLike => 4,
        }
    }

    /// Shell composition for a heavy (Z > 2) atom: per angular momentum, the
    /// contraction degrees of the shells, tightest first.
    fn heavy_pattern(self) -> Vec<Vec<usize>> {
        match self {
            // [5s3p2d1f] = 31 AOs (matches def2-TZVP carbon).
            BasisFamily::Def2TzvpLike => vec![
                vec![6, 1, 1, 1, 1],
                vec![3, 1, 1],
                vec![1, 1],
                vec![1],
            ],
            // [7s4p3d2f1g] = 57 AOs (matches def2-QZVP carbon).
            BasisFamily::Def2QzvpLike => vec![
                vec![6, 1, 1, 1, 1, 1, 1],
                vec![4, 1, 1, 1],
                vec![1, 1, 1],
                vec![1, 1],
                vec![1],
            ],
            // [4s3p2d1f] = 30 AOs (matches cc-pVTZ carbon).
            BasisFamily::CcPvtzLike => vec![
                vec![6, 1, 1, 1],
                vec![3, 1, 1],
                vec![1, 1],
                vec![1],
            ],
            // [5s4p3d2f1g] = 55 AOs (matches cc-pVQZ carbon).
            BasisFamily::CcPvqzLike => vec![
                vec![6, 1, 1, 1, 1],
                vec![4, 1, 1, 1],
                vec![1, 1, 1],
                vec![1, 1],
                vec![1],
            ],
            BasisFamily::Sto3g => unreachable!("STO-3G uses tabulated data"),
        }
    }

    /// Shell composition for hydrogen/helium.
    fn h_pattern(self) -> Vec<Vec<usize>> {
        match self {
            // [3s1p] = 6 AOs (def2-TZVP hydrogen).
            BasisFamily::Def2TzvpLike | BasisFamily::CcPvtzLike => {
                vec![vec![3, 1, 1], vec![1]]
            }
            // [4s3p2d] (def2-QZVP hydrogen is [4s3p2d1f]; we omit the single
            // f shell on H — documented substitution keeping H quartets ≤ d).
            BasisFamily::Def2QzvpLike | BasisFamily::CcPvqzLike => {
                vec![vec![4, 1, 1, 1], vec![1, 1, 1], vec![1, 1]]
            }
            BasisFamily::Sto3g => unreachable!("STO-3G uses tabulated data"),
        }
    }

    /// Build the basis set covering the given elements.
    pub fn basis_for(self, elements: &[Element]) -> BasisSet {
        if self == BasisFamily::Sto3g {
            return super::sto3g::sto3g();
        }
        let mut b = BasisSet::new(self.name());
        let mut sorted: Vec<Element> = elements.to_vec();
        sorted.sort();
        sorted.dedup();
        for e in sorted {
            let pattern = if e.z() <= 2 {
                self.h_pattern()
            } else {
                self.heavy_pattern()
            };
            b.insert(e, element_defs(e, &pattern));
        }
        b
    }
}

/// Even-tempered shell definitions for an element from a per-l contraction
/// pattern.
fn element_defs(e: Element, pattern: &[Vec<usize>]) -> Vec<ShellDef> {
    let z = e.z() as f64;
    let mut defs = Vec::new();
    for (l, degrees) in pattern.iter().enumerate() {
        let nprim_total: usize = degrees.iter().sum();
        let exps = even_tempered(nprim_total, alpha_min(z, l), BETA);
        // Tightest exponents feed the contracted shell; the remaining
        // exponents become single-primitive shells of decreasing tightness.
        let mut cursor = 0usize;
        for &k in degrees {
            let shell_exps: Vec<f64> = exps[cursor..cursor + k].to_vec();
            // Geometric taper mimics how real contractions weight tight
            // primitives less than valence ones.
            let coefs: Vec<f64> = (0..k).map(|i| 0.35 + 0.65 * (i as f64 + 1.0) / k as f64).collect();
            defs.push(ShellDef {
                l,
                exps: shell_exps,
                coefs,
            });
            cursor += k;
        }
    }
    defs
}

/// Even-tempered ratio.
const BETA: f64 = 2.6;

/// Most-diffuse exponent for an element and angular momentum. Scales gently
/// with Z (heavier atoms are tighter) and with l (higher-l shells sit in the
/// valence region).
fn alpha_min(z: f64, l: usize) -> f64 {
    (0.10 + 0.018 * z) * (1.0 + 0.35 * l as f64)
}

/// `n` even-tempered exponents, *descending* (tightest first):
/// `α_min · β^(n−1), …, α_min · β, α_min`.
fn even_tempered(n: usize, alpha_min: f64, beta: f64) -> Vec<f64> {
    (0..n).map(|k| alpha_min * beta.powi((n - 1 - k) as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cart::nsph;

    fn nao_of(defs: &[ShellDef]) -> usize {
        defs.iter().map(|d| nsph(d.l)).sum()
    }

    #[test]
    fn carbon_ao_counts_match_real_sets() {
        let c = [Element::C];
        assert_eq!(
            nao_of(BasisFamily::Def2TzvpLike.basis_for(&c).get(Element::C).unwrap()),
            31
        );
        assert_eq!(
            nao_of(BasisFamily::Def2QzvpLike.basis_for(&c).get(Element::C).unwrap()),
            57
        );
        assert_eq!(
            nao_of(BasisFamily::CcPvtzLike.basis_for(&c).get(Element::C).unwrap()),
            30
        );
        assert_eq!(
            nao_of(BasisFamily::CcPvqzLike.basis_for(&c).get(Element::C).unwrap()),
            55
        );
    }

    #[test]
    fn max_l_matches_zeta_level() {
        let els = [Element::C, Element::H];
        assert_eq!(BasisFamily::Def2TzvpLike.basis_for(&els).max_l(), 3);
        assert_eq!(BasisFamily::Def2QzvpLike.basis_for(&els).max_l(), 4);
        assert_eq!(BasisFamily::CcPvtzLike.basis_for(&els).max_l(), 3);
        assert_eq!(BasisFamily::CcPvqzLike.basis_for(&els).max_l(), 4);
    }

    #[test]
    fn high_l_shells_are_uncontracted() {
        // K = 1 for f and g shells — the property GEMM coalescing exploits
        // (paper §3.1.3: "g-orbital CGFs ... have K = 1").
        for fam in [BasisFamily::Def2QzvpLike, BasisFamily::CcPvqzLike] {
            let b = fam.basis_for(&[Element::O]);
            for d in b.get(Element::O).unwrap() {
                if d.l >= 3 {
                    assert_eq!(d.exps.len(), 1, "{fam:?} l={}", d.l);
                }
            }
        }
    }

    #[test]
    fn exponents_descend_and_stay_positive() {
        let b = BasisFamily::Def2QzvpLike.basis_for(&[Element::N]);
        for d in b.get(Element::N).unwrap() {
            for w in d.exps.windows(2) {
                assert!(w[0] > w[1], "descending");
            }
            assert!(d.exps.iter().all(|&e| e > 0.0));
        }
    }

    #[test]
    fn sto3g_family_delegates() {
        let b = BasisFamily::Sto3g.basis_for(&[Element::H, Element::O]);
        assert_eq!(b.name, "STO-3G");
        assert!(b.get(Element::O).is_some());
    }

    #[test]
    fn heavier_elements_are_tighter() {
        let bc = BasisFamily::Def2TzvpLike.basis_for(&[Element::C]);
        let bo = BasisFamily::Def2TzvpLike.basis_for(&[Element::O]);
        let c_min = bc.get(Element::C).unwrap()[4].exps[0]; // most diffuse s
        let o_min = bo.get(Element::O).unwrap()[4].exps[0];
        assert!(o_min > c_min);
    }
}
