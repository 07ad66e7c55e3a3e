//! STO-3G minimal basis with the published Hehre–Stewart–Pople fit
//! parameters for H, C, N and O.
//!
//! Each Slater orbital of exponent ζ is expanded in three primitive
//! Gaussians with universal fit exponents scaled by ζ² and fixed contraction
//! coefficients (Hehre, Stewart & Pople, J. Chem. Phys. 51, 2657 (1969)).
//! Having real STO-3G lets the test suite validate absolute Hartree–Fock
//! energies against textbook values (H₂O/STO-3G ≈ −74.96 Hartree) — the
//! anchor for all the synthetic larger basis families.

use super::{BasisSet, ShellDef};
use crate::element::Element;

/// Universal 1s STO-3G fit: exponents (× ζ²) and coefficients.
const EXP_1S: [f64; 3] = [2.227_660_584, 0.405_771_156_2, 0.109_817_510_4];
const COEF_1S: [f64; 3] = [0.154_328_967_3, 0.535_328_142_3, 0.444_634_542_2];

/// Universal 2sp STO-3G fit: shared exponents (× ζ²), separate s and p
/// coefficients.
const EXP_2SP: [f64; 3] = [0.994_203_4, 0.231_031_0, 0.075_138_6];
const COEF_2S: [f64; 3] = [-0.099_967_23, 0.399_512_83, 0.700_115_47];
const COEF_2P: [f64; 3] = [0.155_916_27, 0.607_683_72, 0.391_957_39];

/// Slater exponents (ζ 1s, ζ 2sp) for the supported first-row elements.
fn zetas(e: Element) -> Option<(f64, Option<f64>)> {
    match e {
        Element::H => Some((1.24, None)),
        Element::C => Some((5.67, Some(1.72))),
        Element::N => Some((6.67, Some(1.95))),
        Element::O => Some((7.66, Some(2.25))),
        _ => None,
    }
}

fn scaled(exps: &[f64; 3], zeta: f64) -> Vec<f64> {
    exps.iter().map(|&e| e * zeta * zeta).collect()
}

/// Shell definitions for one element, or `None` if STO-3G data is not
/// embedded for it.
pub(crate) fn element_shells(e: Element) -> Option<Vec<ShellDef>> {
    let (z1, z2) = zetas(e)?;
    let mut defs = vec![ShellDef {
        l: 0,
        exps: scaled(&EXP_1S, z1),
        coefs: COEF_1S.to_vec(),
    }];
    if let Some(z2) = z2 {
        defs.push(ShellDef {
            l: 0,
            exps: scaled(&EXP_2SP, z2),
            coefs: COEF_2S.to_vec(),
        });
        defs.push(ShellDef {
            l: 1,
            exps: scaled(&EXP_2SP, z2),
            coefs: COEF_2P.to_vec(),
        });
    }
    Some(defs)
}

/// The STO-3G basis set over the supported elements (H, C, N, O).
pub fn sto3g() -> BasisSet {
    let mut b = BasisSet::new("STO-3G");
    for e in [Element::H, Element::C, Element::N, Element::O] {
        b.insert(e, element_shells(e).unwrap());
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydrogen_is_one_s_shell() {
        let defs = element_shells(Element::H).unwrap();
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].l, 0);
        assert_eq!(defs[0].exps.len(), 3);
        // ζ=1.24 scaling of the largest fit exponent.
        assert!((defs[0].exps[0] - 2.227660584 * 1.24 * 1.24).abs() < 1e-9);
    }

    #[test]
    fn oxygen_has_1s_2s_2p() {
        let defs = element_shells(Element::O).unwrap();
        assert_eq!(defs.len(), 3);
        assert_eq!(defs.iter().map(|d| d.l).collect::<Vec<_>>(), vec![0, 0, 1]);
        // 2s and 2p share exponents (the sp-shell constraint of STO-3G).
        assert_eq!(defs[1].exps, defs[2].exps);
    }

    #[test]
    fn unsupported_element_is_none() {
        assert!(element_shells(Element::S).is_none());
    }

    #[test]
    fn basis_set_covers_hcno() {
        let b = sto3g();
        for e in [Element::H, Element::C, Element::N, Element::O] {
            assert!(b.get(e).is_some());
        }
        assert_eq!(b.max_l(), 1);
        assert_eq!(b.name, "STO-3G");
    }
}
