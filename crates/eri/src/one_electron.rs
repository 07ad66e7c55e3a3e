//! One-electron integrals over contracted spherical Gaussian shells:
//! overlap `S`, kinetic energy `T`, and nuclear attraction `V`.
//!
//! All three fall out of the same Hermite machinery as the ERIs:
//! `S` from `E_0` coefficients, `T` from the standard 1D kinetic relation on
//! shifted overlaps, and `V` from the Hermite Coulomb integrals with a single
//! composite exponent (`V_ab = −Z · 2π/p · Σ_tuv E^{ab}_{tuv} R_tuv(p, P−C)`).
//!
//! [`one_electron_matrices`] builds them in one fused pass per shell pair,
//! with its Boys values from the shared [`BoysTable`](crate::boys::BoysTable)
//! like every quartet: every nucleus of a primitive pair is one lane of a
//! single `BoysTable::eval_lanes`. [`overlap_block`], [`kinetic_block`] and
//! [`nuclear_block`] are the slow, one-quantity-at-a-time reference the fused
//! pass is tested against (`nuclear_block` on the series `boys_reference`);
//! nothing on a hot path calls them.

use crate::boys::{boys_reference, shared_table};
use crate::hermite::{r_integrals, ETable, HermiteLanes};
use mako_chem::cart::{cart_components, hermite_components_cached, ncart};
use mako_chem::harmonics::cart_to_sph_cached;
use mako_chem::molecule::Molecule;
use mako_chem::Shell;
use mako_linalg::{gemm, Matrix, Transpose};
use rayon::prelude::*;

/// Spherical overlap block `S_{ab}` for a shell pair, shape
/// `nsph(la) × nsph(lb)`. Reference implementation.
pub fn overlap_block(sa: &Shell, sb: &Shell) -> Matrix {
    pair_block(sa, sb, |la, lb, a, b, ab| {
        let p = a + b;
        let pref = (std::f64::consts::PI / p).powf(1.5);
        let ex = ETable::new(la, lb, a, b, ab[0]);
        let ey = ETable::new(la, lb, a, b, ab[1]);
        let ez = ETable::new(la, lb, a, b, ab[2]);
        let ca = cart_components(la);
        let cb = cart_components(lb);
        let mut m = Matrix::zeros(ca.len(), cb.len());
        for (ia, &(ax, ay, az)) in ca.iter().enumerate() {
            for (ib, &(bx, by, bz)) in cb.iter().enumerate() {
                m[(ia, ib)] = pref * ex.get(ax, bx, 0) * ey.get(ay, by, 0) * ez.get(az, bz, 0);
            }
        }
        m
    })
}

/// Spherical kinetic-energy block `T_{ab} = ⟨a| −∇²/2 |b⟩`. Reference
/// implementation.
pub fn kinetic_block(sa: &Shell, sb: &Shell) -> Matrix {
    pair_block(sa, sb, |la, lb, a, b, ab| {
        let p = a + b;
        let pref = (std::f64::consts::PI / p).powf(1.5);
        // 1D tables reaching j+2.
        let ex = ETable::new(la, lb + 2, a, b, ab[0]);
        let ey = ETable::new(la, lb + 2, a, b, ab[1]);
        let ez = ETable::new(la, lb + 2, a, b, ab[2]);
        let ca = cart_components(la);
        let cb = cart_components(lb);
        let mut m = Matrix::zeros(ca.len(), cb.len());
        for (ia, &(ax, ay, az)) in ca.iter().enumerate() {
            for (ib, &(bx, by, bz)) in cb.iter().enumerate() {
                let (sx, sy, sz) = (ex.get(ax, bx, 0), ey.get(ay, by, 0), ez.get(az, bz, 0));
                let tx = kinetic_1d(&ex, ax, bx, b);
                let ty = kinetic_1d(&ey, ay, by, b);
                let tz = kinetic_1d(&ez, az, bz, b);
                m[(ia, ib)] = pref * (tx * sy * sz + sx * ty * sz + sx * sy * tz);
            }
        }
        m
    })
}

/// Spherical nuclear-attraction block
/// `V_{ab} = Σ_C (−Z_C) ⟨a| 1/|r−C| |b⟩` over all nuclei of `mol`. Reference
/// implementation: one `R_tuv` build and one `E·R` contraction per nucleus.
pub fn nuclear_block(sa: &Shell, sb: &Shell, mol: &Molecule) -> Matrix {
    pair_block(sa, sb, |la, lb, a, b, ab| {
        let p = a + b;
        let ex = ETable::new(la, lb, a, b, ab[0]);
        let ey = ETable::new(la, lb, a, b, ab[1]);
        let ez = ETable::new(la, lb, a, b, ab[2]);
        let l_tot = la + lb;
        let herm = hermite_components_cached(l_tot);
        let ca = cart_components(la);
        let cb = cart_components(lb);
        // Gaussian product center.
        let pc = [
            (a * sa.center[0] + b * sb.center[0]) / p,
            (a * sa.center[1] + b * sb.center[1]) / p,
            (a * sa.center[2] + b * sb.center[2]) / p,
        ];
        let mut m = Matrix::zeros(ca.len(), cb.len());
        let mut boys = vec![0.0f64; l_tot + 1];
        for atom in &mol.atoms {
            let pcx = [
                pc[0] - atom.position[0],
                pc[1] - atom.position[1],
                pc[2] - atom.position[2],
            ];
            let t = p * (pcx[0] * pcx[0] + pcx[1] * pcx[1] + pcx[2] * pcx[2]);
            boys_reference(l_tot, t, &mut boys);
            let r = r_integrals(l_tot, p, pcx, &boys);
            let pref = -atom.element.charge() * 2.0 * std::f64::consts::PI / p;
            for (ia, &(ax, ay, az)) in ca.iter().enumerate() {
                for (ib, &(bx, by, bz)) in cb.iter().enumerate() {
                    let mut s = 0.0;
                    for (hi, &(t_, u, v)) in herm.iter().enumerate() {
                        if t_ <= ax + bx && u <= ay + by && v <= az + bz {
                            s += ex.get(ax, bx, t_) * ey.get(ay, by, u) * ez.get(az, bz, v) * r[hi];
                        }
                    }
                    m[(ia, ib)] += pref * s;
                }
            }
        }
        m
    })
}

/// Shared contraction + spherical-folding driver for one-electron blocks.
fn pair_block(
    sa: &Shell,
    sb: &Shell,
    mut prim_block: impl FnMut(usize, usize, f64, f64, [f64; 3]) -> Matrix,
) -> Matrix {
    let (la, lb) = (sa.l, sb.l);
    let ab = [
        sa.center[0] - sb.center[0],
        sa.center[1] - sb.center[1],
        sa.center[2] - sb.center[2],
    ];
    let mut cart = Matrix::zeros(ncart(la), ncart(lb));
    for (i, &a) in sa.exps.iter().enumerate() {
        for (j, &b) in sb.exps.iter().enumerate() {
            let coef = sa.coefs[i] * sb.coefs[j];
            let block = prim_block(la, lb, a, b, ab);
            cart.axpy(coef, &block);
        }
    }
    to_spherical(&cart, la, lb)
}

/// Spherical transform of a Cartesian block: `C_a · cart · C_bᵀ`.
fn to_spherical(cart: &Matrix, la: usize, lb: usize) -> Matrix {
    let half = gemm(cart_to_sph_cached(la), Transpose::No, cart, Transpose::No);
    gemm(&half, Transpose::No, cart_to_sph_cached(lb), Transpose::Yes)
}

/// 1D kinetic relation on the overlaps `S_ij = E_0^{ij}` of a table reaching
/// `j + 2`: `T_ij = −½[j(j−1) S_{i,j−2} − 2b(2j+1) S_{i,j} + 4b² S_{i,j+2}]`.
fn kinetic_1d(e: &ETable, i: usize, j: usize, b: f64) -> f64 {
    let jj = j as f64;
    let below = if j >= 2 { e.get(i, j - 2, 0) } else { 0.0 };
    -0.5 * (jj * (jj - 1.0) * below - 2.0 * b * (2.0 * jj + 1.0) * e.get(i, j, 0)
        + 4.0 * b * b * e.get(i, j + 2, 0))
}

/// Primitive pairs with `|c_a c_b|·exp(−μ|AB|²)` below this are skipped by
/// the fused pass. Fixed, not configurable: on the 24-water benchmark system
/// it moves S, T, V by at most 4e-19, 8e-18, 2e-14 (see DESIGN.md §4).
const PRIM_PAIR_CUT: f64 = 1e-20;

/// The magnitude the primitive-pair cut compares against [`PRIM_PAIR_CUT`].
fn prim_pair_weight(coef: f64, a: f64, b: f64, ab2: f64) -> f64 {
    coef.abs() * (-a * b / (a + b) * ab2).exp()
}

/// `A − B` and `|AB|²` of a shell pair.
fn separation(sa: &Shell, sb: &Shell) -> ([f64; 3], f64) {
    let ab: [f64; 3] = std::array::from_fn(|k| sa.center[k] - sb.center[k]);
    (ab, ab.iter().map(|x| x * x).sum())
}

/// Primitive pairs over all shell pairs `i ≥ j`, and how many of them the
/// fused pass cuts: the counts of the `eri.one_electron` trace span.
pub fn one_electron_prim_pairs(shells: &[Shell]) -> (usize, usize) {
    let (mut total, mut cut) = (0, 0);
    for (i, sa) in shells.iter().enumerate() {
        for sb in &shells[..=i] {
            let (_, ab2) = separation(sa, sb);
            for (&a, &ca) in sa.exps.iter().zip(&sa.coefs) {
                for (&b, &cb) in sb.exps.iter().zip(&sb.coefs) {
                    total += 1;
                    cut += usize::from(prim_pair_weight(ca * cb, a, b, ab2) < PRIM_PAIR_CUT);
                }
            }
        }
    }
    (total, cut)
}

/// Buffers of the fused pass, one set per shell row: after the first few
/// pairs nothing inside the primitive or nucleus loops touches the heap.
#[derive(Default)]
struct Scratch {
    /// Cartesian S, T, V of the current shell pair.
    cart: [Matrix; 3],
    e: [ETable; 3],
    /// `R_tuv(p, P−C)` of the current primitive pair, one lane per nucleus.
    r: HermiteLanes,
    /// `−Z_C·2π/p` per nucleus.
    pref: Vec<f64>,
    r_bar: Vec<f64>,
}

/// Cartesian S, T, V of one contracted shell pair, into `ws.cart`. Per
/// primitive pair one set of `ETable(la, lb + 2)` serves all three: its
/// `(la, lb)` entries are those of the reference's smaller tables bit for bit.
/// For V the nuclei are contracted first,
/// `r̄_tuv = Σ_C (−Z_C·2π/p)·R_tuv(p, P−C)`, so the `E_ab · r̄` contraction
/// runs once per primitive pair instead of once per nucleus.
fn fused_cart_blocks(sa: &Shell, sb: &Shell, mol: &Molecule, cut: f64, ws: &mut Scratch) {
    let (la, lb) = (sa.l, sb.l);
    let (ab, ab2) = separation(sa, sb);
    let (ca, cb) = (cart_components(la), cart_components(lb));
    let herm = hermite_components_cached(la + lb);
    ws.cart.iter_mut().for_each(|m| m.reset(ca.len(), cb.len()));
    let table = shared_table();
    for (&a, &coef_a) in sa.exps.iter().zip(&sa.coefs) {
        for (&b, &coef_b) in sb.exps.iter().zip(&sb.coefs) {
            let coef = coef_a * coef_b;
            if prim_pair_weight(coef, a, b, ab2) < cut {
                continue;
            }
            let p = a + b;
            for (e, &x) in ws.e.iter_mut().zip(&ab) {
                e.fill(la, lb + 2, a, b, x);
            }
            // Gaussian product center.
            let pp: [f64; 3] = std::array::from_fn(|k| (a * sa.center[k] + b * sb.center[k]) / p);
            ws.r.reset(la + lb, mol.atoms.len());
            ws.pref.resize(mol.atoms.len(), 0.0);
            for (lane, atom) in mol.atoms.iter().enumerate() {
                let pc: [f64; 3] = std::array::from_fn(|k| pp[k] - atom.position[k]);
                let t = p * (pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2]);
                ws.r.set_geometry(lane, p, pc, t);
                ws.pref[lane] = -atom.element.charge() * 2.0 * std::f64::consts::PI / p;
            }
            ws.r.seed_from_table(table);
            ws.r.run();
            // Nuclei summed in order: the bits of adding one nucleus at a time.
            ws.r_bar.clear();
            ws.r_bar.extend((0..herm.len()).map(|h| {
                let lanes = ws.pref.iter().zip(ws.r.component(h));
                lanes.fold(0.0, |acc, (pref, r)| acc + pref * r)
            }));
            let ([ex, ey, ez], [s_cart, t_cart, v_cart]) = (&ws.e, &mut ws.cart);
            let pref = (std::f64::consts::PI / p).powf(1.5);
            for (ia, &(ax, ay, az)) in ca.iter().enumerate() {
                for (ib, &(bx, by, bz)) in cb.iter().enumerate() {
                    let (sx, sy, sz) = (ex.get(ax, bx, 0), ey.get(ay, by, 0), ez.get(az, bz, 0));
                    let tx = kinetic_1d(ex, ax, bx, b);
                    let ty = kinetic_1d(ey, ay, by, b);
                    let tz = kinetic_1d(ez, az, bz, b);
                    let mut v = 0.0;
                    for (&(t, u, w), r) in herm.iter().zip(&ws.r_bar) {
                        if t <= ax + bx && u <= ay + by && w <= az + bz {
                            v += ex.get(ax, bx, t) * ey.get(ay, by, u) * ez.get(az, bz, w) * r;
                        }
                    }
                    s_cart[(ia, ib)] += coef * (pref * sx * sy * sz);
                    t_cart[(ia, ib)] +=
                        coef * (pref * (tx * sy * sz + sx * ty * sz + sx * sy * tz));
                    v_cart[(ia, ib)] += coef * v;
                }
            }
        }
    }
}

/// Assemble the full AO-basis `S`, `T`, `V` matrices for a shell list.
pub fn one_electron_matrices(shells: &[Shell], mol: &Molecule) -> (Matrix, Matrix, Matrix) {
    one_electron_fused(shells, mol, PRIM_PAIR_CUT)
}

fn one_electron_fused(shells: &[Shell], mol: &Molecule, cut: f64) -> (Matrix, Matrix, Matrix) {
    let layout = mako_chem::AoLayout::new(shells);
    // Indexed map over shell rows: row `i` owns the blocks `(i, j ≤ i)` as
    // three `nfunc(i)`-high bands, so no bit depends on the thread count.
    let bands: Vec<[Matrix; 3]> = shells
        .par_iter()
        .enumerate()
        .map(|(i, sa)| {
            let mut ws = Scratch::default();
            let width = layout.shell_offsets[i] + sa.nfunc();
            let mut band = [(); 3].map(|_| Matrix::zeros(sa.nfunc(), width));
            for (sb, &oj) in shells[..=i].iter().zip(&layout.shell_offsets) {
                fused_cart_blocks(sa, sb, mol, cut, &mut ws);
                for (band, cart) in band.iter_mut().zip(&ws.cart) {
                    band.set_block(0, oj, &to_spherical(cart, sa.l, sb.l));
                }
            }
            band
        })
        .collect();
    let mut out = [(); 3].map(|_| Matrix::zeros(layout.nao, layout.nao));
    for (band, &oi) in bands.iter().zip(&layout.shell_offsets) {
        for (full, band) in out.iter_mut().zip(band) {
            for r in 0..band.rows() {
                for (c, &x) in band.row(r).iter().enumerate() {
                    full[(oi + r, c)] = x;
                    full[(c, oi + r)] = x;
                }
            }
        }
    }
    let [s, t, v] = out;
    (s, t, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::basis::sto3g::sto3g;
    use mako_chem::basis::ShellDef;
    use mako_chem::builders;

    fn shell(l: usize, center: [f64; 3], exps: Vec<f64>, coefs: Vec<f64>) -> Shell {
        ShellDef { l, exps, coefs }.at(0, center)
    }

    #[test]
    fn normalized_shells_have_unit_diagonal_overlap() {
        // Validates the analytic normalization in mako-chem through a
        // completely different code path (E-coefficient overlaps).
        for l in 0..=4 {
            let s = shell(l, [0.3, -0.2, 0.5], vec![1.7, 0.5], vec![0.4, 0.7]);
            let block = overlap_block(&s, &s);
            for m in 0..s.nfunc() {
                assert!(
                    (block[(m, m)] - 1.0).abs() < 1e-12,
                    "l={l} m={m}: {}",
                    block[(m, m)]
                );
            }
        }
    }

    #[test]
    fn water_sto3g_overlap_properties() {
        let mol = builders::water();
        let shells = sto3g().shells_for(&mol);
        let (s, t, v) = one_electron_matrices(&shells, &mol);
        assert_eq!(s.rows(), 7);
        assert!(s.asymmetry() < 1e-12);
        assert!(t.asymmetry() < 1e-12);
        assert!(v.asymmetry() < 1e-12);
        for i in 0..7 {
            assert!((s[(i, i)] - 1.0).abs() < 1e-10, "S[{i}{i}] = {}", s[(i, i)]);
            assert!(t[(i, i)] > 0.0, "kinetic diagonal positive");
            assert!(v[(i, i)] < 0.0, "nuclear attraction negative");
        }
        // S must be positive definite.
        assert!(mako_linalg::cholesky(&s).is_ok());
    }

    #[test]
    fn without_the_cut_s_and_t_are_the_reference_bit_for_bit() {
        // The trimer is where the production cut bites; the shell set covers
        // l = 0…3 off axis (the trimer has the depth-3 contractions).
        let trimer = builders::water_cluster(3);
        let trimer_shells = sto3g().shells_for(&trimer);
        assert!(one_electron_prim_pairs(&trimer_shells).1 > 0);
        let mixed = vec![
            shell(0, [0.31, -0.27, 0.43], vec![5.2, 0.4], vec![0.4, 0.7]),
            shell(1, [-0.52, 0.61, 0.18], vec![2.3, 0.6], vec![0.45, 0.65]),
            shell(2, [0.74, 0.39, -0.66], vec![1.4], vec![1.0]),
            shell(3, [-0.23, -0.81, -0.37], vec![0.9, 0.4], vec![0.6, 0.5]),
        ];
        for shells in [trimer_shells, mixed] {
            let (s, t, _) = one_electron_fused(&shells, &trimer, 0.0);
            let layout = mako_chem::AoLayout::new(&shells);
            for (i, &oi) in layout.shell_offsets.iter().enumerate() {
                for (j, &oj) in layout.shell_offsets[..=i].iter().enumerate() {
                    let sb = overlap_block(&shells[i], &shells[j]);
                    let tb = kinetic_block(&shells[i], &shells[j]);
                    for a in 0..sb.rows() {
                        // Diagonal blocks keep their lower triangle, mirrored.
                        for b in 0..if i == j { a + 1 } else { sb.cols() } {
                            assert_eq!(s[(oi + a, oj + b)].to_bits(), sb[(a, b)].to_bits());
                            assert_eq!(t[(oi + a, oj + b)].to_bits(), tb[(a, b)].to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hydrogen_atom_sto3g_energy() {
        // ⟨φ|T+V|φ⟩ for the STO-3G hydrogen 1s on a bare proton is the
        // STO-3G H-atom HF energy, −0.46658 Ha (textbook value).
        let mut mol = mako_chem::Molecule::new("H");
        mol.atoms.push(mako_chem::Atom {
            element: mako_chem::Element::H,
            position: [0.0; 3],
        });
        let shells = sto3g().shells_for(&mol);
        let (s, t, v) = one_electron_matrices(&shells, &mol);
        assert!((s[(0, 0)] - 1.0).abs() < 1e-10);
        let e = t[(0, 0)] + v[(0, 0)];
        assert!((e - (-0.46658)).abs() < 2e-4, "E(H, STO-3G) = {e}");
    }

    #[test]
    fn kinetic_via_exponent_derivative() {
        // For a normalized primitive s Gaussian: ⟨T⟩ = 3α/2.
        let alpha = 0.9;
        let s = shell(0, [0.0; 3], vec![alpha], vec![1.0]);
        let t = kinetic_block(&s, &s);
        assert!((t[(0, 0)] - 1.5 * alpha).abs() < 1e-12, "{}", t[(0, 0)]);
    }

    #[test]
    fn nuclear_attraction_point_charge_limit() {
        // An s distribution far from a unit charge sees −1/R.
        let mut mol = mako_chem::Molecule::new("H");
        mol.atoms.push(mako_chem::Atom {
            element: mako_chem::Element::H,
            position: [0.0, 0.0, 30.0],
        });
        let s = shell(0, [0.0; 3], vec![1.2], vec![1.0]);
        let v = nuclear_block(&s, &s, &mol);
        assert!((v[(0, 0)] + 1.0 / 30.0).abs() < 1e-10, "{}", v[(0, 0)]);
    }

    #[test]
    fn overlap_decays_with_distance() {
        let s0 = shell(0, [0.0; 3], vec![1.0], vec![1.0]);
        let mut prev = 1.0;
        for r in [0.5, 1.0, 2.0, 4.0] {
            let sr = shell(0, [0.0, 0.0, r], vec![1.0], vec![1.0]);
            let o = overlap_block(&s0, &sr)[(0, 0)];
            assert!(o < prev && o > 0.0);
            prev = o;
        }
    }

    #[test]
    fn p_shell_overlap_orthogonal_components() {
        // ⟨p_x | p_y⟩ on the same center vanishes.
        let p = shell(1, [0.0; 3], vec![0.8], vec![1.0]);
        let block = overlap_block(&p, &p);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(block[(i, j)].abs() < 1e-13);
                }
            }
        }
    }
}
