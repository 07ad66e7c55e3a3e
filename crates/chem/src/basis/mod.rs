//! Gaussian basis sets: shells, contraction, normalization, AO layout.
//!
//! A [`Shell`] is a contracted Gaussian of angular momentum `l` on a center:
//! `φ(r) = Σᵢ cᵢ S_lm(r−A) exp(−αᵢ |r−A|²)` for each of the 2l+1 spherical
//! components. Shells are the unit the ERI engine batches over (the paper's
//! shell quartets).
//!
//! Contraction coefficients are stored with primitive normalization folded in
//! and with the contracted AO normalized to unit self-overlap, so downstream
//! integral code never worries about conventions.

pub mod families;
pub mod sto3g;

pub use families::BasisFamily;

use crate::cart::{double_factorial, nsph};
use crate::element::Element;
use crate::molecule::Molecule;
use std::collections::BTreeMap;

/// A basis set cannot be instantiated on a molecule.
///
/// Part of the typed-error taxonomy: a chemistry *input* problem (the user
/// asked for STO-3G on iron) must surface as an `Err` from
/// `MakoEngine::run_*`, not abort the process from library code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BasisError {
    /// The set has no shell definitions for an element of the molecule.
    MissingElement {
        /// Name of the basis set.
        basis: String,
        /// The uncovered element.
        element: Element,
    },
}

impl std::fmt::Display for BasisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BasisError::MissingElement { basis, element } => {
                write!(f, "basis {basis} lacks element {element}")
            }
        }
    }
}

impl std::error::Error for BasisError {}

/// One contracted, spherical Gaussian shell placed on a center.
#[derive(Debug, Clone, PartialEq)]
pub struct Shell {
    /// Angular momentum (0 = s, 1 = p, …).
    pub l: usize,
    /// Center, Bohr.
    pub center: [f64; 3],
    /// Index of the atom carrying the shell (usize::MAX for ghost centers).
    pub atom: usize,
    /// Primitive exponents.
    pub exps: Vec<f64>,
    /// Contraction coefficients with primitive norms and the contracted-AO
    /// normalization folded in.
    pub coefs: Vec<f64>,
}

impl Shell {
    /// Number of primitives (the contraction degree K of the paper).
    pub fn nprim(&self) -> usize {
        self.exps.len()
    }

    /// Number of spherical AO components (2l + 1).
    pub fn nfunc(&self) -> usize {
        nsph(self.l)
    }
}

/// Shell definition before placement on an atom.
#[derive(Debug, Clone, PartialEq)]
pub struct ShellDef {
    /// Angular momentum.
    pub l: usize,
    /// Primitive exponents.
    pub exps: Vec<f64>,
    /// Raw contraction coefficients (for *normalized primitives*, the
    /// convention basis-set tables use).
    pub coefs: Vec<f64>,
}

/// Same-center overlap of two solid-harmonic Gaussian primitives of angular
/// momentum `l` with exponents `a` and `b` (any m; the value is
/// m-independent):
/// `⟨S_lm e^{−a r²} | S_lm e^{−b r²}⟩ = g_l · (2l−1)!! · √π³ / (2^l (a+b)^{l+3/2}) · …`
///
/// Computed via the z^l representative: the exact closed form is
/// `N_l (2l−1)!! (π/(a+b))^{3/2} / (2(a+b))^l` with the solid-harmonic norm
/// factor `N_l = l! 4^l / (2l)! · (2l-1)!!… ` — rather than juggling that
/// constant we evaluate the 1D moment formula directly.
pub fn primitive_pair_norm(l: usize, a: f64, b: f64) -> f64 {
    // ⟨S_l0 | S_l0⟩ over e^{−(a+b)r²}: equal-norm property means we can use
    // the pure z^l part of S_l0 scaled by the full solid-harmonic Gram, but
    // the cleanest correct route is the radial form:
    //   ∫ r^{2l} e^{−p r²} r² dr ∫ |S̄_lm|² dΩ
    // with p = a + b. All m share ∫|S̄_lm|²dΩ = 4π l! /( (2l+1)!! 2^l ) ×
    // (solid-harmonic convention factor). We avoid the convention factor by
    // computing the Gram numerically once per l (cached) at p = 1 and using
    // the exact scaling law Gram(p) = Gram(1) · p^{−(l + 3/2)}.
    gram_at_unit_p(l) * (a + b).powf(-(l as f64 + 1.5))
}

fn gram_at_unit_p(l: usize) -> f64 {
    use parking_lot_free_cache::get_or_init;
    get_or_init(l)
}

/// Tiny lock-free-ish cache for the per-l solid-harmonic Gram constants.
mod parking_lot_free_cache {
    use super::gram_compute;
    use std::sync::OnceLock;

    static CACHE: OnceLock<Vec<f64>> = OnceLock::new();
    const LMAX: usize = 10;

    pub fn get_or_init(l: usize) -> f64 {
        let c = CACHE.get_or_init(|| (0..=LMAX).map(gram_compute).collect());
        c[l]
    }
}

/// Gram constant `⟨S_l0 e^{−r²/2} … ⟩` at p = a + b = 1 via monomial
/// overlaps.
fn gram_compute(l: usize) -> f64 {
    use crate::cart::cart_components;
    use crate::harmonics::cart_to_sph;
    let c = cart_to_sph(l);
    let comps = cart_components(l);
    let m0 = l; // row for m = 0
    let dim = |n: usize| -> f64 {
        if n % 2 == 1 {
            0.0
        } else {
            double_factorial(n as i64 - 1) / 2f64.powi(n as i32 / 2)
                * std::f64::consts::PI.sqrt()
        }
    };
    let mut s = 0.0;
    for (ci, &ca) in comps.iter().enumerate() {
        for (cj, &cb) in comps.iter().enumerate() {
            let w = c[(m0, ci)] * c[(m0, cj)];
            if w != 0.0 {
                s += w * dim(ca.0 + cb.0) * dim(ca.1 + cb.1) * dim(ca.2 + cb.2);
            }
        }
    }
    s
}

impl ShellDef {
    /// Produce normalized contraction coefficients: primitive norms folded
    /// into the raw coefficients, then the contracted AO scaled to unit
    /// self-overlap.
    pub fn normalized_coefs(&self) -> Vec<f64> {
        let l = self.l;
        // Primitive normalization: 1/√⟨prim|prim⟩.
        let mut c: Vec<f64> = self
            .exps
            .iter()
            .zip(&self.coefs)
            .map(|(&a, &raw)| raw / primitive_pair_norm(l, a, a).sqrt())
            .collect();
        // Contracted normalization.
        let mut s = 0.0;
        for (i, &a) in self.exps.iter().enumerate() {
            for (j, &b) in self.exps.iter().enumerate() {
                s += c[i] * c[j] * primitive_pair_norm(l, a, b);
            }
        }
        let scale = 1.0 / s.sqrt();
        for ci in &mut c {
            *ci *= scale;
        }
        c
    }

    /// Place this definition on an atom.
    pub fn at(&self, atom: usize, center: [f64; 3]) -> Shell {
        Shell {
            l: self.l,
            center,
            atom,
            exps: self.exps.clone(),
            coefs: self.normalized_coefs(),
        }
    }
}

/// A basis set: shell definitions per element.
#[derive(Debug, Clone, Default)]
pub struct BasisSet {
    /// Display name ("STO-3G", "def2-TZVP-like", …).
    pub name: String,
    defs: BTreeMap<u8, Vec<ShellDef>>,
}

impl BasisSet {
    /// Empty basis set with a name.
    pub fn new(name: impl Into<String>) -> BasisSet {
        BasisSet {
            name: name.into(),
            defs: BTreeMap::new(),
        }
    }

    /// Register the shell definitions for an element (replacing existing).
    pub fn insert(&mut self, element: Element, defs: Vec<ShellDef>) {
        self.defs.insert(element.z(), defs);
    }

    /// Shell definitions for an element, if present.
    pub fn get(&self, element: Element) -> Option<&[ShellDef]> {
        self.defs.get(&element.z()).map(|v| v.as_slice())
    }

    /// Elements the basis covers.
    pub fn elements(&self) -> impl Iterator<Item = Element> + '_ {
        self.defs.keys().map(|&z| Element(z))
    }

    /// Maximum angular momentum anywhere in the set.
    pub fn max_l(&self) -> usize {
        self.defs
            .values()
            .flat_map(|v| v.iter().map(|d| d.l))
            .max()
            .unwrap_or(0)
    }

    /// Instantiate the basis on a molecule, producing the shell list in atom
    /// order. Fails with [`BasisError::MissingElement`] when the set does
    /// not cover an element of the molecule.
    pub fn try_shells_for(&self, mol: &Molecule) -> Result<Vec<Shell>, BasisError> {
        let mut shells = Vec::new();
        for (ai, atom) in mol.atoms.iter().enumerate() {
            let defs =
                self.defs
                    .get(&atom.element.z())
                    .ok_or_else(|| BasisError::MissingElement {
                        basis: self.name.clone(),
                        element: atom.element,
                    })?;
            for d in defs {
                shells.push(d.at(ai, atom.position));
            }
        }
        Ok(shells)
    }

    /// Instantiate the basis on a molecule, producing the shell list in atom
    /// order. Panics if an element is missing from the set — the infallible
    /// convenience for tests and benches whose molecules are known covered;
    /// library paths go through [`Self::try_shells_for`].
    pub fn shells_for(&self, mol: &Molecule) -> Vec<Shell> {
        self.try_shells_for(mol).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of spherical AOs the basis generates on a molecule.
    pub fn nao_for(&self, mol: &Molecule) -> usize {
        mol.atoms
            .iter()
            .map(|a| {
                self.defs
                    .get(&a.element.z())
                    .map(|ds| ds.iter().map(|d| nsph(d.l)).sum::<usize>())
                    .unwrap_or(0)
            })
            .sum()
    }
}

/// Mapping from shells to AO indices.
#[derive(Debug, Clone)]
pub struct AoLayout {
    /// First AO index of each shell.
    pub shell_offsets: Vec<usize>,
    /// Angular momentum of each shell.
    pub shell_l: Vec<usize>,
    /// Total spherical AO count.
    pub nao: usize,
}

impl AoLayout {
    /// Build the layout for a shell list.
    pub fn new(shells: &[Shell]) -> AoLayout {
        let mut offsets = Vec::with_capacity(shells.len());
        let mut ls = Vec::with_capacity(shells.len());
        let mut acc = 0usize;
        for s in shells {
            offsets.push(acc);
            ls.push(s.l);
            acc += s.nfunc();
        }
        AoLayout {
            shell_offsets: offsets,
            shell_l: ls,
            nao: acc,
        }
    }

    /// AO index range of shell `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.shell_offsets[i];
        start..start + nsph(self.shell_l[i])
    }

    /// Number of shells.
    pub fn nshells(&self) -> usize {
        self.shell_offsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn primitive_pair_norm_scaling_law() {
        // Gram(p) = Gram(1) p^{−(l+3/2)}.
        for l in 0..=4 {
            let g1 = primitive_pair_norm(l, 0.5, 0.5);
            let g2 = primitive_pair_norm(l, 1.0, 1.0);
            let ratio = g1 / g2;
            let expect = 2f64.powf(l as f64 + 1.5);
            assert!(((ratio - expect) / expect).abs() < 1e-12, "l={l}");
        }
    }

    #[test]
    fn normalized_single_primitive_has_unit_norm() {
        for l in 0..=4 {
            let d = ShellDef {
                l,
                exps: vec![0.8],
                coefs: vec![1.0],
            };
            let c = d.normalized_coefs();
            let s = c[0] * c[0] * primitive_pair_norm(l, 0.8, 0.8);
            assert!((s - 1.0).abs() < 1e-12, "l={l} norm {s}");
        }
    }

    #[test]
    fn normalized_contracted_shell_has_unit_norm() {
        let d = ShellDef {
            l: 2,
            exps: vec![2.0, 0.7, 0.2],
            coefs: vec![0.3, 0.5, 0.4],
        };
        let c = d.normalized_coefs();
        let mut s = 0.0;
        for (i, &a) in d.exps.iter().enumerate() {
            for (j, &b) in d.exps.iter().enumerate() {
                s += c[i] * c[j] * primitive_pair_norm(2, a, b);
            }
        }
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layout_offsets() {
        let water = builders::water();
        let basis = sto3g::sto3g();
        let shells = basis.shells_for(&water);
        // O: 1s, 2s, 2p → 3 shells; each H: 1s.
        assert_eq!(shells.len(), 5);
        let layout = AoLayout::new(&shells);
        assert_eq!(layout.nao, 7); // O 1s+2s+2p(3) + 2×H 1s
        assert_eq!(layout.range(2), 2..5); // the p shell
        assert_eq!(layout.nshells(), 5);
        assert_eq!(basis.nao_for(&water), 7);
    }

    #[test]
    #[should_panic]
    fn missing_element_panics() {
        let mut mol = builders::water();
        mol.atoms[0].element = Element::FE;
        let _ = sto3g::sto3g().shells_for(&mol);
    }

    #[test]
    fn missing_element_is_a_typed_error() {
        let mut mol = builders::water();
        mol.atoms[0].element = Element::FE;
        let err = sto3g::sto3g().try_shells_for(&mol).unwrap_err();
        let BasisError::MissingElement { basis, element } = &err;
        assert_eq!(basis, "STO-3G");
        assert_eq!(*element, Element::FE);
        let msg = err.to_string();
        assert!(msg.contains("STO-3G") && msg.contains("Fe"), "{msg}");
    }
}
