//! [Table 3] Mean absolute error of converged total energies.
//!
//! The paper compares Mako's converged B3LYP energies against four external
//! packages (Psi4, PySCF, QUICK, GPU4PySCF) and finds MAEs of 0.004–0.086
//! mHartree — all within the 1 mHartree chemical-accuracy bar. No
//! external package exists offline, so this reproduction substitutes (per
//! DESIGN.md):
//!
//! * an **independent reference implementation**: a dense RHF whose ERIs
//!   come from the Obara–Saika engine (a completely separate integral
//!   algorithm, the "QUICK-like" code path) — playing the role of the
//!   external CPU package;
//! * the **QuantMako vs FP64** comparison over a 200-molecule accuracy
//!   suite — playing the role of the quantized-vs-reference agreement the
//!   paper highlights.
//!
//! ```sh
//! cargo run --release -p mako-bench --bin table3_accuracy
//! ```

use mako::prelude::*;
use mako_chem::basis::sto3g::sto3g;
use mako_chem::builders;
use mako_eri::{eri_quartet_os, one_electron_matrices};
use mako_linalg::{eigh, gemm, sym_inv_sqrt, Matrix, Transpose};
use mako_precision::ErrorStats;
use rayon::prelude::*;

/// Dense RHF with Obara–Saika ERIs: the independent reference package.
fn rhf_obara_saika(mol: &Molecule) -> f64 {
    let basis = sto3g();
    let shells = basis.shells_for(mol);
    let layout = mako_chem::AoLayout::new(&shells);
    let n = layout.nao;
    let (s, t, v) = one_electron_matrices(&shells, mol);
    let h = t.add(&v);
    let x = sym_inv_sqrt(&s, 1e-10).unwrap();

    // Full dense ERI tensor from the independent engine.
    let mut eri = vec![0.0f64; n * n * n * n];
    let idx = |a: usize, b: usize, c: usize, d: usize| ((a * n + b) * n + c) * n + d;
    for (si, sh_i) in shells.iter().enumerate() {
        for (sj, sh_j) in shells.iter().enumerate() {
            for (sk, sh_k) in shells.iter().enumerate() {
                for (sl, sh_l) in shells.iter().enumerate() {
                    let tq = eri_quartet_os(sh_i, sh_j, sh_k, sh_l).expect("l <= 1 in STO-3G");
                    let (oi, oj, ok, ol) = (
                        layout.shell_offsets[si],
                        layout.shell_offsets[sj],
                        layout.shell_offsets[sk],
                        layout.shell_offsets[sl],
                    );
                    for a in 0..tq.dims[0] {
                        for b in 0..tq.dims[1] {
                            for c in 0..tq.dims[2] {
                                for d in 0..tq.dims[3] {
                                    eri[idx(oi + a, oj + b, ok + c, ol + d)] = tq.get(a, b, c, d);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    let n_occ = mol.n_electrons() / 2;
    let density = |f: &Matrix| -> Matrix {
        let fp = gemm(&gemm(&x, Transpose::Yes, f, Transpose::No), Transpose::No, &x, Transpose::No);
        let ed = eigh(&fp).unwrap();
        let c = gemm(&x, Transpose::No, &ed.vectors, Transpose::No);
        Matrix::from_fn(n, n, |mu, nu| {
            (0..n_occ).map(|o| c[(mu, o)] * c[(nu, o)]).sum()
        })
    };

    let mut d = density(&h);
    let mut e_prev = f64::INFINITY;
    let mut energy = 0.0;
    for _ in 0..100 {
        let mut jm = Matrix::zeros(n, n);
        let mut km = Matrix::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut jv = 0.0;
                let mut kv = 0.0;
                // J_{μν} = Σ_{λσ} D_{λσ} (μν|λσ); K_{μν} = Σ_{λσ} D_{λσ} (μλ|νσ).
                for la in 0..n {
                    for siq in 0..n {
                        jv += d[(la, siq)] * eri[idx(mu, nu, la, siq)];
                        kv += d[(la, siq)] * eri[idx(mu, la, nu, siq)];
                    }
                }
                jm[(mu, nu)] = jv;
                km[(mu, nu)] = kv;
            }
        }
        let mut f = h.clone();
        f.axpy(2.0, &jm);
        f.axpy(-1.0, &km);
        energy = 2.0 * d.dot(&h) + 2.0 * d.dot(&jm) - d.dot(&km) + mol.nuclear_repulsion();
        if (energy - e_prev).abs() < 1e-9 {
            break;
        }
        e_prev = energy;
        d = density(&f);
    }
    energy
}

fn main() {
    // -----------------------------------------------------------------
    // Part 1: Mako vs the independent Obara–Saika reference (the stand-in
    // for the external CPU packages of Table 3).
    let engine = MakoEngine::new();
    let reference_set: Vec<Molecule> = vec![
        builders::water(),
        builders::methane(),
        builders::ammonia(),
        builders::water_cluster(2),
    ];
    println!("Table 3 (part 1): Mako FP64 vs independent Obara-Saika RHF reference\n");
    println!("{:<12} {:>16} {:>16} {:>12}", "molecule", "Mako/Ha", "OS ref/Ha", "|Δ|/mHa");
    let mut st_ref = ErrorStats::new();
    for mol in &reference_set {
        let mako_e = engine.run_rhf(mol, BasisFamily::Sto3g).expect("scf run").energy;
        let os_e = rhf_obara_saika(mol);
        st_ref.push(os_e, mako_e);
        println!(
            "{:<12} {:>16.8} {:>16.8} {:>12.5}",
            mol.name,
            mako_e,
            os_e,
            (mako_e - os_e).abs() * 1e3
        );
    }
    println!("MAE vs independent implementation: {:.4} mHa (bar: < 1 mHa)\n", st_ref.mae() * 1e3);

    // -----------------------------------------------------------------
    // Part 2: QuantMako vs FP64 over the 200-molecule accuracy suite.
    let suite_size = std::env::var("MAKO_SUITE_SIZE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let suite = builders::accuracy_suite(suite_size);
    let quant_engine = MakoEngine::new().with_quantization(true);
    let diffs: Vec<(f64, f64)> = suite
        .par_iter()
        .map(|mol| {
            let e64 = engine.run_rhf(mol, BasisFamily::Sto3g).expect("scf run").energy;
            let eq = quant_engine.run_rhf(mol, BasisFamily::Sto3g).expect("scf run").energy;
            (e64, eq)
        })
        .collect();
    let mut st = ErrorStats::new();
    let mut within = 0usize;
    for (e64, eq) in &diffs {
        st.push(*e64, *eq);
        if (e64 - eq).abs() < 1e-3 {
            within += 1;
        }
    }
    println!("Table 3 (part 2): QuantMako vs FP64 over {} molecules", suite.len());
    println!("  MAE      : {:.4} mHa", st.mae() * 1e3);
    println!("  max |Δ|  : {:.4} mHa", st.max_abs() * 1e3);
    println!("  within 1 mHa: {}/{}", within, suite.len());
    println!("\npaper Table 3 MAEs: Psi4 0.023, PySCF 0.004, QUICK 0.086, GPU4PySCF 0.004 mHa");
    assert_eq!(within, suite.len(), "every molecule must satisfy chemical accuracy");
}
