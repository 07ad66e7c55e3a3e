//! Where `scf_wide`'s host path outside the Fock build spends its time
//! (ROADMAP item 15): the one-electron pass once, then one iteration's dense
//! tail.
//!
//! On the benchmark's `scf_wide` input — 24 waters, STO-3G, 168 AOs, 120
//! occupied orbitals; the geometry here is the unjittered `water_cluster(24)`
//! — each piece is re-run through its public entry point inside a one-thread
//! pool, as the benchmark runs:
//!
//! * **one-electron** — `one_electron_matrices` (S, T and V), once per SCF;
//! * **eigh**, split into `tred2` (Householder reduction and accumulation of
//!   `Q`), `tql2` (the transpose of `Q`, then QL on its rows) and the rest
//!   (sorting and reading the vectors back), beside `eigh` itself;
//! * **density** — `D = C_occ C_occᵀ` ([`occupied_density`]);
//! * **DIIS** — `Diis::error_vector` (four GEMMs) and one `extrapolate` at a
//!   full history of 8 pairs, the driver's capacity;
//! * **orthogonalizer** — `sym_inv_sqrt_diag(S)`, once per SCF.
//!
//! The core Hamiltonian `H` stands in for the Fock matrix: the tail's cost
//! depends on the dimension, not on the spectrum. The DIIS history holds
//! `H + 0.01·Rₖ` for seeded random symmetric `Rₖ`, so its error vectors are
//! independent and the conditioning guard stays quiet. Printed per call, the
//! minimum of nine passes.
//!
//! The benchmark's layer replay forms the density with its own loop, so its
//! `scf.density_s` does not follow [`occupied_density`]; this is where that
//! number is measured.
//!
//! ```sh
//! cargo run --release -p mako-scf --example tail_profile
//! ```

use mako_chem::basis::sto3g::sto3g;
use mako_chem::builders;
use mako_eri::one_electron_matrices;
use mako_linalg::eigen::{tql2, tred2};
use mako_linalg::{eigh, gemm, sym_inv_sqrt_diag, Matrix, Transpose};
use mako_scf::scf::occupied_density;
use mako_scf::Diis;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 9;
const DIIS_VECTORS: usize = 8;

/// Seconds per call of `f`, the minimum over [`PASSES`] calls.
fn best<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool");
    pool.install(profile);
}

fn profile() {
    let mol = builders::water_cluster(24);
    let shells = sto3g().shells_for(&mol);
    let t_one_electron = best(|| one_electron_matrices(&shells, &mol));
    let (s, t, v) = one_electron_matrices(&shells, &mol);
    let h = t.add(&v);
    let n_occ = mol.n_electrons() / 2;
    let n = h.rows();

    let x = sym_inv_sqrt_diag(&s, 1e-10).expect("overlap").matrix;
    let fp = gemm(&gemm(&x, Transpose::Yes, &h, Transpose::No), Transpose::No, &x, Transpose::No);
    let ed = eigh(&fp).expect("eigh");
    let c = gemm(&x, Transpose::No, &ed.vectors, Transpose::No);
    let d = occupied_density(&c, n_occ);

    let t_eigh = best(|| eigh(&fp));
    let t_tred2 = best(|| {
        let mut z = fp.clone();
        let (mut dd, mut e) = (vec![0.0; n], vec![0.0; n]);
        tred2(&mut z, &mut dd, &mut e);
        (z, dd, e)
    });
    let mut q = fp.clone();
    let (mut d0, mut e0) = (vec![0.0; n], vec![0.0; n]);
    tred2(&mut q, &mut d0, &mut e0);
    let t_tql2 = best(|| {
        let mut zt = q.transpose();
        let (mut dd, mut e) = (d0.clone(), e0.clone());
        tql2(&mut dd, &mut e, &mut zt).expect("tql2");
        (zt, dd)
    });
    let t_density = best(|| occupied_density(&c, n_occ));
    let t_orth = best(|| sym_inv_sqrt_diag(&s, 1e-10));
    let t_error = best(|| Diis::error_vector(&h, &d, &s, &x));

    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut pair = || {
        let mut r = Matrix::from_fn(n, n, |_, _| next());
        r.symmetrize();
        let mut f = h.clone();
        f.axpy(0.01, &r);
        let e = Diis::error_vector(&f, &d, &s, &x);
        (f, e)
    };
    let mut diis = Diis::new(DIIS_VECTORS);
    for _ in 0..DIIS_VECTORS {
        let (f, e) = pair();
        diis.extrapolate(f, e);
    }
    let pairs: Vec<_> = (0..PASSES).map(|_| pair()).collect();
    let mut pairs = pairs.into_iter();
    let t_extrapolate = best(|| {
        let (f, e) = pairs.next().expect("one pair per pass");
        diis.extrapolate(f, e)
    });
    assert_eq!(diis.stats(), Default::default(), "the conditioning guard fired");

    println!("water24/STO-3G: {n} AOs, {n_occ} occupied, {DIIS_VECTORS} DIIS vectors, one thread");
    println!("  one_electron_matrices, ms: {:.2}", t_one_electron * 1e3);
    println!(
        "  eigh per call, ms: tred2 {:.2} | tql2 {:.2} | sort and read-back {:.2} | eigh {:.2}",
        t_tred2 * 1e3,
        t_tql2 * 1e3,
        (t_eigh - t_tred2 - t_tql2).max(0.0) * 1e3,
        t_eigh * 1e3
    );
    println!("  density per call, ms: {:.3}", t_density * 1e3);
    println!(
        "  DIIS per call, ms: error_vector (4 GEMMs) {:.2} | extrapolate {:.3}",
        t_error * 1e3,
        t_extrapolate * 1e3
    );
    println!("  sym_inv_sqrt_diag(S), ms: {:.2}", t_orth * 1e3);
}
