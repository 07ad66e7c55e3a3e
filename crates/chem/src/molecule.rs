//! Molecular geometries: atoms, molecules, XYZ I/O, nuclear repulsion.

use crate::element::Element;
use crate::BOHR_PER_ANGSTROM;

/// One atom: element plus position in Bohr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// The chemical element.
    pub element: Element,
    /// Position in Bohr.
    pub position: [f64; 3],
}

impl Atom {
    /// Construct from a position given in Ångström.
    pub fn new_angstrom(element: Element, pos: [f64; 3]) -> Atom {
        Atom {
            element,
            position: [
                pos[0] * BOHR_PER_ANGSTROM,
                pos[1] * BOHR_PER_ANGSTROM,
                pos[2] * BOHR_PER_ANGSTROM,
            ],
        }
    }
}

/// A molecule: a list of atoms (neutral, closed-shell throughout this
/// reproduction, matching the paper's restricted-DFT workloads).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Molecule {
    /// The atoms.
    pub atoms: Vec<Atom>,
    /// Display name.
    pub name: String,
}

impl Molecule {
    /// Empty molecule with a name.
    pub fn new(name: impl Into<String>) -> Molecule {
        Molecule {
            atoms: Vec::new(),
            name: name.into(),
        }
    }

    /// Number of atoms.
    pub fn natoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total electron count of the neutral molecule.
    pub fn n_electrons(&self) -> usize {
        self.atoms.iter().map(|a| a.element.electrons()).sum()
    }

    /// Nuclear–nuclear repulsion energy, Hartree.
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.atoms.len() {
            for j in 0..i {
                let zi = self.atoms[i].element.charge();
                let zj = self.atoms[j].element.charge();
                e += zi * zj / dist(self.atoms[i].position, self.atoms[j].position);
            }
        }
        e
    }

    /// Distinct elements present.
    pub fn elements(&self) -> Vec<Element> {
        let mut v: Vec<Element> = self.atoms.iter().map(|a| a.element).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Parse XYZ text (coordinates in Ångström).
    pub fn from_xyz(text: &str) -> Result<Molecule, String> {
        let mut lines = text.lines();
        let n: usize = lines
            .next()
            .ok_or("empty xyz")?
            .trim()
            .parse()
            .map_err(|e| format!("bad atom count: {e}"))?;
        if n == 0 {
            return Err("atom count is 0: a molecule needs at least one atom".into());
        }
        let name = lines.next().unwrap_or("").trim().to_string();
        let mut mol = Molecule::new(name);
        // Atom lines start at the file's third line; messages name 1-based
        // file line numbers.
        for (lineno, line) in (3..).zip(lines) {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let sym = parts.next().ok_or_else(|| format!("line {lineno}: no symbol"))?;
            let element = Element::from_symbol(sym)
                .ok_or_else(|| format!("line {lineno}: unknown element {sym}"))?;
            let mut coord = [0.0f64; 3];
            for c in &mut coord {
                *c = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing coordinate"))?
                    .parse()
                    .map_err(|e| format!("line {lineno}: {e}"))?;
            }
            // Checked in Bohr: a finite Ångström value such as 1e308
            // overflows in the conversion.
            let atom = Atom::new_angstrom(element, coord);
            if let Some(d) = (0..3).find(|&d| !atom.position[d].is_finite()) {
                return Err(format!(
                    "line {lineno}: non-finite coordinate {:e} Å = {:e} Bohr",
                    coord[d], atom.position[d]
                ));
            }
            mol.atoms.push(atom);
            if mol.atoms.len() == n {
                break;
            }
        }
        if mol.atoms.len() != n {
            return Err(format!("expected {n} atoms, found {}", mol.atoms.len()));
        }
        Ok(mol)
    }

    /// Serialize to XYZ text (coordinates in Ångström).
    pub fn to_xyz(&self) -> String {
        let mut s = format!("{}\n{}\n", self.atoms.len(), self.name);
        for a in &self.atoms {
            s.push_str(&format!(
                "{:<3} {:>14.8} {:>14.8} {:>14.8}\n",
                a.element.symbol(),
                a.position[0] / BOHR_PER_ANGSTROM,
                a.position[1] / BOHR_PER_ANGSTROM,
                a.position[2] / BOHR_PER_ANGSTROM,
            ));
        }
        s
    }

    /// Smallest interatomic distance, Bohr (sanity guard for generated
    /// geometries).
    #[cfg(test)]
    pub(crate) fn min_distance(&self) -> f64 {
        let mut m = f64::INFINITY;
        for i in 0..self.atoms.len() {
            for j in 0..i {
                m = m.min(dist(self.atoms[i].position, self.atoms[j].position));
            }
        }
        m
    }
}

/// Euclidean distance between two points.
pub fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn electron_count() {
        let w = crate::builders::water();
        assert_eq!(w.n_electrons(), 10);
        assert_eq!(w.natoms(), 3);
    }

    #[test]
    fn nuclear_repulsion_of_h2() {
        // Two protons at 1.4 Bohr: E = 1/1.4.
        let mut m = Molecule::new("H2");
        m.atoms.push(Atom {
            element: Element::H,
            position: [0.0, 0.0, 0.0],
        });
        m.atoms.push(Atom {
            element: Element::H,
            position: [0.0, 0.0, 1.4],
        });
        assert!((m.nuclear_repulsion() - 1.0 / 1.4).abs() < 1e-14);
    }

    #[test]
    fn water_nuclear_repulsion_textbook() {
        // H2O at the standard geometry: E_nn ≈ 9.19 Hartree.
        let w = crate::builders::water();
        let e = w.nuclear_repulsion();
        assert!((e - 9.19).abs() < 0.05, "E_nn = {e}");
    }

    #[test]
    fn xyz_roundtrip() {
        let w = crate::builders::water();
        let text = w.to_xyz();
        let back = Molecule::from_xyz(&text).unwrap();
        assert_eq!(back.natoms(), 3);
        for (a, b) in w.atoms.iter().zip(&back.atoms) {
            assert_eq!(a.element, b.element);
            for d in 0..3 {
                assert!((a.position[d] - b.position[d]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn xyz_rejects_garbage() {
        assert!(Molecule::from_xyz("").is_err());
        let empty = Molecule::from_xyz("0\nempty\n").unwrap_err();
        assert!(empty.contains("atom count is 0"), "{empty}");
        assert!(Molecule::from_xyz("2\nc\nH 0 0 0\n").is_err());
        let unknown = Molecule::from_xyz("1\nc\nXq 0 0 0\n").unwrap_err();
        assert!(unknown.contains("line 3"), "{unknown}");
        assert!(Molecule::from_xyz("1\nc\nH 0 0\n").is_err());
        for bad in ["nan", "inf", "-inf", "1e308"] {
            let text = format!("2\nc\nH 0 0 0\nH {bad} 0 0.74\n");
            let err = Molecule::from_xyz(&text).unwrap_err();
            assert!(err.contains("line 4") && err.contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn elements_deduplicated() {
        let w = crate::builders::water();
        assert_eq!(w.elements(), vec![Element::H, Element::O]);
    }

    /// Atom-line symbols: three known, one unknown.
    const XYZ_SYMBOLS: [&str; 4] = ["H", "O", "C", "Xq"];
    /// Coordinate tokens: eight finite in Bohr, four not (`1e308` Å is
    /// finite until it is converted).
    const XYZ_COORDS: [&str; 12] = [
        "0", "-0", "0.74", "-1.5", "2.5e2", "1e-320", "1.1", "-3", "nan", "inf", "1e308", "-1e308",
    ];
    /// How many coordinates an atom line carries: mostly three, sometimes
    /// a field short or one too many.
    const XYZ_FIELDS: [usize; 8] = [3, 3, 3, 3, 3, 2, 4, 1];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// Whatever the tokens, `from_xyz` returns rather than panics, and
        /// a molecule it accepts holds exactly the declared number of
        /// atoms, each at a finite position in Bohr. A line is blank
        /// (`kind == 0`) or a symbol followed by some coordinates.
        #[test]
        fn from_xyz_accepts_only_whole_finite_molecules(
            count in 0usize..5,
            lines in proptest::collection::vec(
                (0usize..8, 0usize..4, 0usize..8, proptest::collection::vec(0usize..12, 4..5)),
                0..7,
            ),
        ) {
            let mut text = format!("{count}\nfuzz\n");
            for (kind, symbol, fields, coords) in &lines {
                if *kind > 0 {
                    text.push_str(XYZ_SYMBOLS[*symbol]);
                    for &c in &coords[..XYZ_FIELDS[*fields]] {
                        text.push(' ');
                        text.push_str(XYZ_COORDS[c]);
                    }
                }
                text.push('\n');
            }
            if let Ok(mol) = Molecule::from_xyz(&text) {
                prop_assert_eq!(mol.atoms.len(), count);
                for a in &mol.atoms {
                    prop_assert!(
                        a.position.iter().all(|x| x.is_finite()),
                        "{text:?} parsed to {:?}",
                        a.position
                    );
                }
            }
        }
    }
}
