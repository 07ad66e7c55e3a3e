//! # mako-eri
//!
//! The electron-repulsion-integral engine of the Mako reproduction.
//!
//! Two independent algorithms are implemented from scratch:
//!
//! * the **matrix-aligned McMurchie–Davidson** scheme of the paper's
//!   Algorithm 1 ([`mmd`]) — Boys function → r-integrals (Hermite Coulomb
//!   recursion) → `[p|q]` assembly → two basis-transformation GEMMs with the
//!   Cartesian→spherical transform folded in; and
//! * the **Obara–Saika / Head-Gordon–Pople** recursive scheme ([`os`]) — the
//!   "QUICK-like" baseline, capped at f functions, used both as a
//!   performance baseline and as an independent numerical cross-check.
//!
//! Supporting machinery: the Boys function with a Gill-style lookup table
//! ([`boys`]), Hermite expansion coefficients and Coulomb integrals
//! ([`hermite`]), one-electron integrals ([`one_electron`]), Schwarz
//! screening ([`screening`]) and ERI-class batching ([`batch`]).
#![deny(rust_2018_idioms)]
#![forbid(unsafe_code)]


pub mod batch;
pub mod boys;
pub mod hermite;
pub mod mmd;
pub mod one_electron;
pub mod os;
pub mod screening;
pub mod tensor;

pub use batch::{batch_quartets, EriClass, QuartetBatch};
pub use boys::{shared_table, BoysTable};
pub use hermite::HermiteLanes;
pub use mmd::{
    eri_quartet_mmd, eri_quartet_mmd_into, pq_block_into, pq_geometry, pq_index, pq_stacked_into,
    r_lanes_into, shell_pair, PqIndex, PrimPair, ShellPairData,
};
pub use one_electron::{
    kinetic_block, nuclear_block, one_electron_matrices, one_electron_prim_pairs, overlap_block,
};
pub use os::{eri_quartet_os, EriError, OS_MAX_L};
pub use screening::{
    build_screened_pairs, classify, schwarz_bound, schwarz_estimate, DensityBlockMax,
    ImportanceClass, ScreenedPair,
};
pub use tensor::Tensor4;
