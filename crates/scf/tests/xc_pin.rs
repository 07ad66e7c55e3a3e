//! Pins the exchange-correlation layer: `(e, vρ, vγ)` of the functionals bit
//! for bit on a (ρ, γ) lattice, one `evaluate_xc` call on a fixed density,
//! and the Becke-partitioned grid.
//!
//! The constants were generated on the code *before* `evaluate_xc` became
//! the two-GEMM `Z` assembly, so a host-side optimisation of this layer
//! passes only if every energy density keeps its floating-point operations
//! in their order (`energy`/`n_electrons` included) and `V_xc` moves by
//! summation order alone. Two of them have moved since, both in the second
//! step of the XC rewrite, when the potentials stopped being central
//! differences of the energy density and became closed forms (the first
//! step, the blocked grid pass with AO screening, passed every constant
//! unedited; only the two reads of `nao` followed the new `AoOnGrid`):
//! the lattice digests `*_LATTICE_DIGEST` (`e` is unchanged to the bit on
//! the whole lattice; vρ and vγ are the closed forms now) and the `V_xc`
//! arrays, which moved by the stencil's own error — ≤ 4.3e-8 for B3LYP and
//! ≤ 1.9e-12 for SVWN5 on this density. The energy and electron-count bits
//! and the grid digest did not move. The third re-pin came when the
//! components stopped calling `powf` and took every power of ρ from one
//! shared `ρ.cbrt()` (B88's `asinh` from `ln_1p`): the lattice digests, the
//! B3LYP and SVWN5 energy bits (each by one ulp, 4.4e-16 Ha) and the `V_xc`
//! arrays (≤ 4.4e-16) moved; the electron-count bits and the grid digest did
//! not. The fourth re-pin came when the grid's angular order became pruned
//! by radius: the trimer grid (101 132 → 48 167 points) and its digest, and
//! the whole `evaluate_xc` call pin, whose grid is pruned too — energies by
//! −5.5e-6 (B3LYP) and −5.3e-6 Ha (SVWN5), the electron count by +6.0e-6,
//! `V_xc` by ≤ 5.5e-6; the lattice digests did not move. Pruning's
//! quadrature error is held by `xc_quadrature.rs`, not here. A legitimate
//! change of a functional or of the grid must regenerate
//! the constants (failure messages print the new values) and say so in
//! CHANGES.md.
//!
//! The variational-identity test is not a pin: it checks the assembled
//! matrix against an independent quantity, the directional derivative of
//! the energy it is supposed to be the gradient of.

use mako_chem::basis::sto3g::sto3g;
use mako_chem::builders;
use mako_linalg::Matrix;
use mako_scf::grid::MolecularGrid;
use mako_scf::xc::{b3lyp, evaluate_aos, evaluate_xc, svwn, AoOnGrid, XcFunctional};

const B3LYP_LATTICE_DIGEST: u64 = 0x9728_eb02_7b64_088a;
const SVWN_LATTICE_DIGEST: u64 = 0x4667_3988_adb2_2a99;
const TRIMER_GRID_DIGEST: u64 = 0x6691_b2f5_109e_4d83;
const TRIMER_GRID_POINTS: usize = 48_167;

/// `evaluate_xc` on water/STO-3G, grid (35, 12), density [`pin_density`]:
/// `energy` bits, `n_electrons` bits, upper triangle of `V_xc` row by row.
const B3LYP_ENERGY_BITS: u64 = 0xc004_a695_31f0_7764;
const B3LYP_N_ELECTRONS_BITS: u64 = 0x4013_cfaf_5ab2_aa68;
#[rustfmt::skip]
const B3LYP_VXC: [f64; 28] = [
    -1.8416225918943547, -0.2627364264218077, -0.012823986338713138, -0.009463281767674667,
    -0.0077925608479097064, -0.062136930980559404, -0.06108994074081282, -0.49911121943648873,
    -0.04264073322102571, -0.048723928570865896, -0.031102107982523768, -0.21857850703143916,
    -0.19935837615631352, -0.48340532017346916, -0.021563591141606407, -0.011202656721500642,
    -0.01597117498480235, -0.013615474215384888, -0.5005457717285317, -0.02489786729802078,
    -0.12432479682793561, -0.10963896610118604, -0.5048069083313985, -0.1479551344904933,
    0.11184347209282097, -0.38513445000376867, -0.09131456038772674, -0.34357826086506327,
];
const SVWN_ENERGY_BITS: u64 = 0xc007_a745_d261_73fd;
const SVWN_N_ELECTRONS_BITS: u64 = 0x4013_cfaf_5ab2_aa68;
#[rustfmt::skip]
const SVWN_VXC: [f64; 28] = [
    -2.053270769276243, -0.30779306558518443, -0.014803977521007655, -0.011596065618791404,
    -0.009502189706187242, -0.07262240025571001, -0.07142333050023256, -0.6123686483736186,
    -0.04863428746458881, -0.06011981398972809, -0.03656890077023836, -0.26754695278669144,
    -0.24526752717969114, -0.5947589216299068, -0.019911722202975934, -0.010812559348471319,
    -0.018102673371640655, -0.015405373448851206, -0.6135435810830896, -0.023285804385238907,
    -0.15155714703730558, -0.13517377472186282, -0.6202431684540043, -0.17970747379015525,
    0.13811792989209326, -0.46408757787341265, -0.11210975391934916, -0.4110350380577271,
];

/// FNV-1a over little-endian u64 words.
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
}

/// ρ = 10^(−13…2) in 160 steps (16 of them below the 1e-12 floor), plus the
/// floor itself and the band just above it.
fn rho_lattice() -> Vec<f64> {
    let mut v: Vec<f64> = (0..=160).map(|i| 10f64.powf(-13.0 + 15.0 * i as f64 / 160.0)).collect();
    v.extend([0.999e-12, 1e-12, 1.005e-12, 1.02e-12]);
    v
}

/// γ ∈ {0} ∪ 10^(−20…4), one per decade.
fn gamma_lattice() -> Vec<f64> {
    let mut v = vec![0.0];
    v.extend((-20..=4).map(|k| 10f64.powi(k)));
    v
}

fn lattice_digest(f: &XcFunctional) -> u64 {
    let mut d = Digest::new();
    for &rho in &rho_lattice() {
        for &gamma in &gamma_lattice() {
            let (e, vrho, vgamma) = f.eval(rho, gamma);
            d.word(e.to_bits());
            d.word(vrho.to_bits());
            d.word(vgamma.to_bits());
        }
    }
    d.0
}

#[test]
fn functional_lattice_is_bit_identical_to_the_pinned_one() {
    let got = [lattice_digest(&b3lyp()), lattice_digest(&svwn())];
    assert_eq!(
        got,
        [B3LYP_LATTICE_DIGEST, SVWN_LATTICE_DIGEST],
        "(e, vρ, vγ) of B3LYP / SVWN5 moved: new digests {:#018x} / {:#018x}",
        got[0],
        got[1]
    );
}

fn water_on_grid() -> (MolecularGrid, AoOnGrid) {
    let mol = builders::water();
    let shells = sto3g().shells_for(&mol);
    let grid = MolecularGrid::build(&mol, 35, 12);
    let aos = evaluate_aos(&shells, &grid);
    (grid, aos)
}

/// A fixed non-diagonal, symmetric, positive-definite density.
fn pin_density(nao: usize) -> Matrix {
    Matrix::from_fn(nao, nao, |i, j| 0.3 / (1.0 + (i as f64 - j as f64).abs()))
}

#[test]
fn evaluate_xc_matches_the_pinned_call() {
    let (grid, aos) = water_on_grid();
    let nao = aos.nao();
    assert_eq!(nao, 7);
    let d = pin_density(nao);
    for (f, e_bits, n_bits, vxc) in [
        (b3lyp(), B3LYP_ENERGY_BITS, B3LYP_N_ELECTRONS_BITS, &B3LYP_VXC),
        (svwn(), SVWN_ENERGY_BITS, SVWN_N_ELECTRONS_BITS, &SVWN_VXC),
    ] {
        let res = evaluate_xc(&f, &aos, &grid, &d);
        let upper: Vec<f64> = (0..nao)
            .flat_map(|i| (i..nao).map(move |j| (i, j)))
            .map(|ij| res.matrix[ij])
            .collect();
        let report = format!(
            "{}: energy {:#018x} n_electrons {:#018x} V_xc {upper:?}",
            f.name,
            res.energy.to_bits(),
            res.n_electrons.to_bits()
        );
        assert_eq!(res.energy.to_bits(), e_bits, "energy moved — {report}");
        assert_eq!(res.n_electrons.to_bits(), n_bits, "n_electrons moved — {report}");
        assert!(res.matrix.asymmetry() == 0.0, "V_xc is not exactly symmetric");
        for (got, want) in upper.iter().zip(vxc) {
            assert!((got - want).abs() < 1e-12, "V_xc entry {got:e} vs {want:e} — {report}");
        }
    }
}

#[test]
fn becke_grid_is_bit_identical_to_the_pinned_one() {
    let grid = MolecularGrid::build(&builders::water_cluster(3), 40, 12);
    let mut d = Digest::new();
    for p in &grid.points {
        for x in p.position {
            d.word(x.to_bits());
        }
        d.word(p.weight.to_bits());
    }
    assert_eq!(
        (grid.len(), d.0),
        (TRIMER_GRID_POINTS, TRIMER_GRID_DIGEST),
        "grid points or weights moved: {} points, new digest {:#018x}",
        grid.len(),
        d.0
    );
}

/// `F = ½ ∂E/∂D`: for a symmetric direction Δ,
/// `[E_xc(D + εΔ) − E_xc(D − εΔ)] / 2ε = 2 Σ_μν V_μν Δ_μν`.
#[test]
fn xc_matrix_is_half_the_energy_gradient() {
    let (grid, aos) = water_on_grid();
    let nao = aos.nao();
    let d = pin_density(nao);
    let eps = 1e-4;
    for f in [b3lyp(), svwn()] {
        let v = evaluate_xc(&f, &aos, &grid, &d).matrix;
        for seed in [1u64, 2, 3] {
            // Seeded symmetric direction with entries in [−1, 1).
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut delta = Matrix::from_fn(nao, nao, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            });
            delta.symmetrize();
            let energy_at = |sign: f64| {
                let mut shifted = d.clone();
                shifted.axpy(sign * eps, &delta);
                evaluate_xc(&f, &aos, &grid, &shifted).energy
            };
            let slope = (energy_at(1.0) - energy_at(-1.0)) / (2.0 * eps);
            let projected = 2.0 * v.dot(&delta);
            assert!(
                (slope - projected).abs() < 1e-6 * projected.abs(),
                "{} seed {seed}: dE/dε = {slope:.12e} but 2·tr(VΔ) = {projected:.12e}",
                f.name
            );
        }
    }
}
