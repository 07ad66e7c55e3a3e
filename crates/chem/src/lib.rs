//! # mako-chem
//!
//! Chemistry substrate for the Mako quantum-chemistry system: elements,
//! molecular geometries, Gaussian basis sets, and the Cartesian↔spherical
//! solid-harmonic machinery every integral engine sits on.
//!
//! ## Basis-set substitution
//!
//! The paper evaluates on def2-TZVP / def2-QZVP / cc-pVTZ / cc-pVQZ. Shipping
//! the full tabulated Gaussian exponents of those sets is neither possible
//! offline nor necessary for the paper's experiments, whose independent
//! variable is the *angular-momentum content and contraction structure* of
//! the basis. This crate therefore provides:
//!
//! * genuine STO-3G parameters (published Hehre–Stewart–Pople fits) for
//!   H/C/N/O — used to validate absolute Hartree–Fock energies against
//!   textbook values; and
//! * parametric **even-tempered families** ([`basis::BasisFamily`]) matching
//!   the per-element shell compositions of the paper's basis sets (f
//!   functions for the TZ sets, g functions for the QZ sets, realistic
//!   contraction-degree patterns with K = 1 for high angular momentum —
//!   exactly the property GEMM coalescing exploits).
//!
//! Geometries come from [`builders`]: water clusters (compact/globular),
//! polyglycine chains (linear), and a deterministic 1,231-atom synthetic
//! protein standing in for ubiquitin.
#![forbid(unsafe_code)]

pub mod basis;
pub mod builders;
pub mod cart;
pub mod element;
pub mod harmonics;
pub mod molecule;

pub use basis::{AoLayout, BasisError, BasisFamily, BasisSet, Shell};
pub use cart::{cart_components, ncart, nherm, nsph};
pub use element::Element;
pub use molecule::{Atom, Molecule};

/// Bohr per Ångström: XYZ files are in Å, everything internal is atomic
/// units.
pub const BOHR_PER_ANGSTROM: f64 = 1.8897259886;
