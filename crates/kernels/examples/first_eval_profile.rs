//! Where the first FP64 evaluation of a quartet spends its time (ROADMAP F1).
//!
//! For water₄/STO-3G (the benchmark's `scf_eri` system: K = 3, l ≤ 1) and
//! water/def2-TZVP-like (K ≈ 1, l ≤ 3), every batched quartet is evaluated
//! once through the public pieces of the FP64 routine, stage by stage, each
//! stage including the ones before it:
//!
//! * **Boys** — `pq_geometry` of every primitive combination into per-lane
//!   arrays, then one `BoysTable::eval_lanes` over them, under the kernel the
//!   dispatch selected (`MAKO_KERNEL`); printed beside it, the scalar loop
//!   of one `BoysTable::eval` per combination that it replaced;
//! * **R_tuv** — `r_lanes_into`: the same, seeding one lane per combination,
//!   plus the Eq. (5) recursion run across the lanes;
//! * **fill** — `pq_stacked_into`: the same plus the `[p|q]` fill of every
//!   block of the stacked operand;
//! * **total** — `eri_quartet_mmd_into`: the same plus the two transforms.
//!
//! Printed per quartet as differences (Boys / R_tuv / fill / transforms /
//! total), the minimum of nine passes, then the lanes by Boys order and by
//! branch: the table (`T ≤ 35`), the asymptotic form (`T > 35`), and of
//! those the ones that call `exp` (order > 0 and `T ≤ 746`).
//!
//! For water₄/STO-3G it then lists every distinct transform shape `m×k×n`
//! (GEMM 1 `E_ABᵀ·[P|Q]`, A read transposed; GEMM 2 `(ab|Q]·E_CD`), with its
//! count per build, ns per `gemm_into` call on operands of that shape (the
//! minimum of nine passes) and Gflop/s, so a kernel change sees which shapes
//! carry the cost.
//!
//! ```sh
//! cargo run --release -p mako-kernels --example first_eval_profile
//! ```

use mako_chem::basis::sto3g::sto3g;
use mako_chem::{builders, BasisFamily, Molecule, Shell};
use mako_eri::batch::batch_quartets;
use mako_eri::hermite::HermiteLanes;
use mako_eri::mmd::{eri_quartet_mmd_into, pq_geometry, pq_stacked_into, r_lanes_into};
use mako_eri::screening::{build_screened_pairs, ScreenedPair};
use mako_eri::{shared_table, Tensor4};
use mako_linalg::{gemm_into, kernel_name, Matrix, Transpose};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 9;

fn min_seconds(mut pass: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn profile(name: &str, shells: &[Shell]) {
    let pairs: Vec<ScreenedPair> = build_screened_pairs(shells, 1e-10);
    let quartets: Vec<(usize, usize)> = batch_quartets(&pairs, 1e-20)
        .iter()
        .flat_map(|b| b.quartets.iter().copied())
        .collect();
    let combinations: usize = quartets
        .iter()
        .map(|&(pi, qi)| pairs[pi].data.degree() * pairs[qi].data.degree())
        .sum();
    let table = shared_table();

    let boys_scalar_s = min_seconds(|| {
        let mut boys = [0.0f64; 32];
        for &(pi, qi) in &quartets {
            let (ab, cd) = (&pairs[pi].data, &pairs[qi].data);
            let l_tot = ab.l_total() + cd.l_total();
            for bra in &ab.prims {
                for ket in &cd.prims {
                    let (_, _, t) = pq_geometry(bra, ket);
                    table.eval(l_tot, t, &mut boys);
                    black_box(&boys);
                }
            }
        }
    });

    // Order → lanes on the table, lanes on the asymptotic form, and lanes
    // of those that call `exp`.
    let mut branches: BTreeMap<usize, [usize; 3]> = BTreeMap::new();
    let (mut alpha, mut sep, mut ts, mut boys) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let boys_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            let (ab, cd) = (&pairs[pi].data, &pairs[qi].data);
            let l_tot = ab.l_total() + cd.l_total();
            let n = ab.degree() * cd.degree();
            alpha.resize(n, 0.0);
            ts.resize(n, 0.0);
            sep.resize(3 * n, 0.0);
            let mut lane = 0;
            for bra in &ab.prims {
                for ket in &cd.prims {
                    let (a, pq, t) = pq_geometry(bra, ket);
                    for (k, x) in pq.into_iter().enumerate() {
                        sep[k * n + lane] = x;
                    }
                    (alpha[lane], ts[lane]) = (a, t);
                    lane += 1;
                }
            }
            boys.resize((l_tot + 1) * n, 0.0);
            table.eval_lanes(l_tot, &ts[..n], &mut boys);
            black_box((&alpha, &sep, &boys));
        }
    });
    for &(pi, qi) in &quartets {
        let (ab, cd) = (&pairs[pi].data, &pairs[qi].data);
        let order = ab.l_total() + cd.l_total();
        let count = branches.entry(order).or_default();
        for bra in &ab.prims {
            for ket in &cd.prims {
                let (_, _, t) = pq_geometry(bra, ket);
                count[usize::from(t > 35.0)] += 1;
                count[2] += usize::from(order > 0 && t > 35.0 && t <= 746.0);
            }
        }
    }

    let mut lanes = HermiteLanes::default();
    let r_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            r_lanes_into(&pairs[pi].data, &pairs[qi].data, &mut lanes);
            black_box(&lanes);
        }
    });

    let mut stacked = Matrix::default();
    let fill_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            pq_stacked_into(&pairs[pi].data, &pairs[qi].data, &mut lanes, &mut stacked);
            black_box(&stacked);
        }
    });

    let mut t = Tensor4::zeros([0; 4]);
    let total_s = min_seconds(|| {
        for &(pi, qi) in &quartets {
            eri_quartet_mmd_into(&pairs[pi].data, &pairs[qi].data, &mut t);
            black_box(&t);
        }
    });

    let n = quartets.len() as f64;
    let us = |s: f64| s / n * 1e6;
    println!(
        "{name}: {} quartets, {:.1} primitive combinations each, first evaluation {total_s:.4} s",
        quartets.len(),
        combinations as f64 / n
    );
    println!(
        "  per quartet: Boys {:.2} us | R_tuv {:.2} us | [p|q] fill {:.2} us | transforms {:.2} us | total {:.2} us",
        us(boys_s),
        us(r_s - boys_s),
        us(fill_s - r_s),
        us(total_s - fill_s),
        us(total_s)
    );
    println!(
        "  Boys through eval_lanes ({} kernel) {:.2} us a quartet, {:.1} ns a lane; scalar eval loop {:.2} us, {:.1} ns a lane",
        kernel_name(),
        us(boys_s),
        boys_s / combinations as f64 * 1e9,
        us(boys_scalar_s),
        boys_scalar_s / combinations as f64 * 1e9
    );
    for (order, [table_lanes, asym, exp]) in branches {
        println!("  Boys order {order:>2}: {table_lanes:>7} table lanes, {asym:>7} asymptotic, {exp:>7} of them calling exp");
    }
}

/// A transform GEMM: which of the two (1 or 2), then `m`, `k`, `n`.
type Shape = (usize, usize, usize, usize);

/// Per distinct transform shape of the quartets: count, ns per call, Gflop/s.
fn transform_shapes(name: &str, shells: &[Shell]) {
    let pairs: Vec<ScreenedPair> = build_screened_pairs(shells, 1e-10);
    // Shape → calls per build.
    let mut shapes: BTreeMap<Shape, usize> = BTreeMap::new();
    for b in batch_quartets(&pairs, 1e-20) {
        for &(pi, qi) in &b.quartets {
            let (ab, cd) = (&pairs[pi].data, &pairs[qi].data);
            let (m, kq) = (ab.nsph_pair, cd.degree() * cd.nherm);
            *shapes.entry((1, m, ab.degree() * ab.nherm, kq)).or_default() += 1;
            *shapes.entry((2, m, kq, cd.nsph_pair)).or_default() += 1;
        }
    }
    let mut rows: Vec<(Shape, usize, f64)> = shapes
        .into_iter()
        .map(|((gemm, m, k, n), count)| {
            let fill = |r: usize, c: usize| {
                Matrix::from_fn(r, c, |i, j| 0.5 + ((i * 7 + j * 3) % 11) as f64 / 11.0)
            };
            // GEMM 1 reads the pair's stored E stack transposed.
            let (a, ta) = match gemm {
                1 => (fill(k, m), Transpose::Yes),
                _ => (fill(m, k), Transpose::No),
            };
            let b = fill(k, n);
            let mut c = Matrix::zeros(m, n);
            let reps = (200_000 / (m * k * n)).max(1);
            let s = min_seconds(|| {
                for _ in 0..reps {
                    gemm_into(1.0, black_box(&a), ta, black_box(&b), Transpose::No, 1.0, &mut c);
                }
                black_box(&c);
            });
            ((gemm, m, k, n), count, s / reps as f64 * 1e9)
        })
        .collect();
    // Costliest first: count × ns per call.
    rows.sort_by(|x, y| (y.1 as f64 * y.2).total_cmp(&(x.1 as f64 * x.2)));
    let total_ms: f64 = rows.iter().map(|&(_, count, ns)| count as f64 * ns * 1e-6).sum();
    println!(
        "{name}: {} distinct transform shapes, {total_ms:.2} ms of GEMM calls per build (GEMM 1 reads A transposed)",
        rows.len()
    );
    for ((gemm, m, k, n), count, ns) in rows {
        println!(
            "  GEMM {gemm} {m:>2}×{k:>3}×{n:>3}: {count:>5} calls, {ns:>7.1} ns/call, {:>5.2} Gflop/s, {:>5.3} ms",
            (2 * m * k * n) as f64 / ns,
            count as f64 * ns * 1e-6
        );
    }
}

fn shells_of(mol: &Molecule, family: BasisFamily) -> Vec<Shell> {
    let elements: Vec<_> = mol.atoms.iter().map(|a| a.element).collect();
    family.basis_for(&elements).shells_for(mol)
}

fn main() {
    let water4 = sto3g().shells_for(&builders::water_cluster(4));
    profile("water4/STO-3G", &water4);
    profile("water/def2-TZVP-like", &shells_of(&builders::water(), BasisFamily::Def2TzvpLike));
    transform_shapes("water4/STO-3G", &water4);
}
