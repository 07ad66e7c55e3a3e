//! Chemical elements: symbols, atomic numbers, masses, covalent radii.

/// A chemical element identified by atomic number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element(pub u8);

/// (symbol, atomic mass / amu, covalent radius / Å) for Z = 1..=36.
const TABLE: [(&str, f64, f64); 36] = [
    ("H", 1.008, 0.31),
    ("He", 4.003, 0.28),
    ("Li", 6.94, 1.28),
    ("Be", 9.012, 0.96),
    ("B", 10.81, 0.84),
    ("C", 12.011, 0.76),
    ("N", 14.007, 0.71),
    ("O", 15.999, 0.66),
    ("F", 18.998, 0.57),
    ("Ne", 20.180, 0.58),
    ("Na", 22.990, 1.66),
    ("Mg", 24.305, 1.41),
    ("Al", 26.982, 1.21),
    ("Si", 28.085, 1.11),
    ("P", 30.974, 1.07),
    ("S", 32.06, 1.05),
    ("Cl", 35.45, 1.02),
    ("Ar", 39.948, 1.06),
    ("K", 39.098, 2.03),
    ("Ca", 40.078, 1.76),
    ("Sc", 44.956, 1.70),
    ("Ti", 47.867, 1.60),
    ("V", 50.942, 1.53),
    ("Cr", 51.996, 1.39),
    ("Mn", 54.938, 1.39),
    ("Fe", 55.845, 1.32),
    ("Co", 58.933, 1.26),
    ("Ni", 58.693, 1.24),
    ("Cu", 63.546, 1.32),
    ("Zn", 65.38, 1.22),
    ("Ga", 69.723, 1.22),
    ("Ge", 72.630, 1.20),
    ("As", 74.922, 1.19),
    ("Se", 78.971, 1.20),
    ("Br", 79.904, 1.20),
    ("Kr", 83.798, 1.16),
];

impl Element {
    /// Hydrogen.
    pub const H: Element = Element(1);
    /// Carbon.
    pub(crate) const C: Element = Element(6);
    /// Nitrogen.
    pub const N: Element = Element(7);
    /// Oxygen.
    pub const O: Element = Element(8);
    /// Sulfur.
    pub(crate) const S: Element = Element(16);
    /// Iron (transition-metal representative for the tmQM-style suite).
    pub const FE: Element = Element(26);

    /// Look up an element by case-sensitive symbol ("H", "Fe", …).
    pub(crate) fn from_symbol(sym: &str) -> Option<Element> {
        TABLE
            .iter()
            .position(|&(s, _, _)| s == sym)
            .map(|i| Element(i as u8 + 1))
    }

    /// Atomic number.
    pub fn z(self) -> u8 {
        self.0
    }

    /// Nuclear charge as a float (for nuclear-attraction integrals).
    pub fn charge(self) -> f64 {
        self.0 as f64
    }

    /// Element symbol.
    pub(crate) fn symbol(self) -> &'static str {
        TABLE[(self.0 - 1) as usize].0
    }

    /// Atomic mass in amu.
    #[cfg(test)]
    pub(crate) fn mass(self) -> f64 {
        TABLE[(self.0 - 1) as usize].1
    }

    /// Covalent radius in Ångström.
    pub fn covalent_radius(self) -> f64 {
        TABLE[(self.0 - 1) as usize].2
    }

    /// Number of electrons in the neutral atom.
    pub(crate) fn electrons(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_roundtrip() {
        for z in 1..=36u8 {
            let e = Element(z);
            assert_eq!(Element::from_symbol(e.symbol()), Some(e));
        }
    }

    #[test]
    fn known_elements() {
        assert_eq!(Element::from_symbol("H"), Some(Element(1)));
        assert_eq!(Element::from_symbol("C"), Some(Element(6)));
        assert_eq!(Element::from_symbol("Fe"), Some(Element(26)));
        assert_eq!(Element::from_symbol("Xx"), None);
        assert_eq!(Element::O.symbol(), "O");
        assert_eq!(Element::O.charge(), 8.0);
        assert_eq!(Element::S.z(), 16);
    }

    #[test]
    fn masses_and_radii_plausible() {
        assert!((Element::C.mass() - 12.011).abs() < 1e-9);
        assert!(Element::H.covalent_radius() < Element::C.covalent_radius());
        assert!(Element::FE.mass() > Element::S.mass());
    }
}
