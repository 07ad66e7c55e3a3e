//! Obara–Saika recursive ERI evaluation — the "QUICK-like" baseline.
//!
//! This is a genuinely independent second implementation of the two-electron
//! integrals: vertical recursions (Obara & Saika 1986) build the
//! `(e0|f0)^(m)` primitives, contraction happens at the `(e0|f0)` level, and
//! the Head-Gordon–Pople horizontal recursions shift angular momentum onto
//! the b/d centers. It serves two roles:
//!
//! 1. **Numerical cross-check** of the matrix-aligned MMD engine — two
//!    algorithms agreeing to 1e-10 on random quartets is this
//!    reproduction's substitute for comparing against external packages;
//! 2. **Performance baseline**: like QUICK, the recursion supports angular
//!    momentum only up to f (l = 3) and its irregular, branch-heavy
//!    execution is priced accordingly by the device model (deep recursion →
//!    poor ILP, register pressure growing with l).

use crate::boys::boys_reference;
use crate::mmd::sph_pair_transform;
use crate::tensor::Tensor4;
use mako_chem::cart::{cart_components, ncart, nsph};
use mako_chem::Shell;
use mako_linalg::{gemm, Matrix, Transpose};
use std::collections::HashMap;

/// Errors from the baseline engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EriError {
    /// Angular momentum beyond the engine's support (QUICK caps at f).
    UnsupportedAngularMomentum {
        /// The offending l.
        l: usize,
    },
}

impl std::fmt::Display for EriError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EriError::UnsupportedAngularMomentum { l } => {
                write!(f, "Obara-Saika baseline supports l ≤ 3, got {l}")
            }
        }
    }
}

impl std::error::Error for EriError {}

/// Highest angular momentum the baseline supports (f functions), mirroring
/// QUICK's published limitation — g-type shells return an error.
pub const OS_MAX_L: usize = 3;

type Tri = [i32; 3];

struct VrrCtx {
    x_pa: [f64; 3],
    x_qc: [f64; 3],
    x_pq: [f64; 3],
    p: f64,
    q: f64,
    alpha: f64,
    ssss: Vec<f64>,
}

fn dec(t: Tri, axis: usize) -> Tri {
    let mut o = t;
    o[axis] -= 1;
    o
}

fn vrr(e: Tri, f: Tri, m: usize, ctx: &VrrCtx, memo: &mut HashMap<(Tri, Tri, usize), f64>) -> f64 {
    if e.iter().any(|&x| x < 0) || f.iter().any(|&x| x < 0) {
        return 0.0;
    }
    if e == [0, 0, 0] && f == [0, 0, 0] {
        return ctx.ssss[m];
    }
    if let Some(&v) = memo.get(&(e, f, m)) {
        return v;
    }
    let val = if let Some(axis) = (0..3).find(|&i| e[i] > 0) {
        // Lower the bra index along `axis`.
        let e1 = dec(e, axis);
        let mut v = ctx.x_pa[axis] * vrr(e1, f, m, ctx, memo)
            - (ctx.alpha / ctx.p) * ctx.x_pq[axis] * vrr(e1, f, m + 1, ctx, memo);
        if e1[axis] > 0 {
            let e2 = dec(e1, axis);
            v += e1[axis] as f64 / (2.0 * ctx.p)
                * (vrr(e2, f, m, ctx, memo) - (ctx.alpha / ctx.p) * vrr(e2, f, m + 1, ctx, memo));
        }
        if f[axis] > 0 {
            v += f[axis] as f64 / (2.0 * (ctx.p + ctx.q)) * vrr(e1, dec(f, axis), m + 1, ctx, memo);
        }
        v
    } else {
        // e = 0: lower the ket index.
        let axis = (0..3).find(|&i| f[i] > 0).expect("f nonzero here");
        let f1 = dec(f, axis);
        let mut v = ctx.x_qc[axis] * vrr(e, f1, m, ctx, memo)
            + (ctx.alpha / ctx.q) * ctx.x_pq[axis] * vrr(e, f1, m + 1, ctx, memo);
        if f1[axis] > 0 {
            let f2 = dec(f1, axis);
            v += f1[axis] as f64 / (2.0 * ctx.q)
                * (vrr(e, f2, m, ctx, memo) - (ctx.alpha / ctx.q) * vrr(e, f2, m + 1, ctx, memo));
        }
        // The bra-coupling term vanishes because e = 0.
        v
    };
    memo.insert((e, f, m), val);
    val
}

/// Evaluate a shell quartet via Obara–Saika + HRR, in the spherical AO
/// basis. Returns [`EriError::UnsupportedAngularMomentum`] when any shell
/// exceeds f.
pub fn eri_quartet_os(sa: &Shell, sb: &Shell, sc: &Shell, sd: &Shell) -> Result<Tensor4, EriError> {
    for s in [sa, sb, sc, sd] {
        if s.l > OS_MAX_L {
            return Err(EriError::UnsupportedAngularMomentum { l: s.l });
        }
    }
    let (la, lb, lc, ld) = (sa.l, sb.l, sc.l, sd.l);
    let eab = la + lb;
    let ecd = lc + ld;
    let l_tot = eab + ecd;

    let ab = sub(sa.center, sb.center);
    let cd = sub(sc.center, sd.center);
    let ab2 = norm2(ab);
    let cd2 = norm2(cd);

    // Contracted (e0|f0) integrals over all needed Cartesian degrees.
    let mut e0f0: HashMap<(Tri, Tri), f64> = HashMap::new();
    let mut boys = vec![0.0f64; l_tot + 1];
    for (ia, &a) in sa.exps.iter().enumerate() {
        for (ib, &b) in sb.exps.iter().enumerate() {
            let p = a + b;
            let mu_ab = a * b / p;
            let k_ab = (-mu_ab * ab2).exp();
            let pc = combine(a, sa.center, b, sb.center, p);
            for (ic, &c) in sc.exps.iter().enumerate() {
                for (id, &d) in sd.exps.iter().enumerate() {
                    let q = c + d;
                    let mu_cd = c * d / q;
                    let k_cd = (-mu_cd * cd2).exp();
                    let qc = combine(c, sc.center, d, sd.center, q);
                    let coef = sa.coefs[ia] * sb.coefs[ib] * sc.coefs[ic] * sd.coefs[id];
                    let alpha = p * q / (p + q);
                    let pq = sub(pc, qc);
                    let t = alpha * norm2(pq);
                    boys_reference(l_tot, t, &mut boys);
                    let pref = 2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt())
                        * k_ab
                        * k_cd;
                    let ssss: Vec<f64> = boys.iter().map(|&f| pref * f).collect();
                    let ctx = VrrCtx {
                        x_pa: sub(pc, sa.center),
                        x_qc: sub(qc, sc.center),
                        x_pq: pq,
                        p,
                        q,
                        alpha,
                        ssss,
                    };
                    let mut memo = HashMap::new();
                    for de in 0..=eab {
                        for e in cart_tris(de) {
                            for df in 0..=ecd {
                                for f in cart_tris(df) {
                                    let v = vrr(e, f, 0, &ctx, &mut memo);
                                    *e0f0.entry((e, f)).or_insert(0.0) += coef * v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Horizontal recursions at the contracted level.
    let mut bra_memo: HashMap<(Tri, Tri, Tri), f64> = HashMap::new();
    let mut quartet_memo: HashMap<(Tri, Tri, Tri, Tri), f64> = HashMap::new();

    fn hrr_bra(
        a: Tri,
        b: Tri,
        f: Tri,
        ab: [f64; 3],
        e0f0: &HashMap<(Tri, Tri), f64>,
        memo: &mut HashMap<(Tri, Tri, Tri), f64>,
    ) -> f64 {
        if b == [0, 0, 0] {
            return *e0f0.get(&(a, f)).unwrap_or(&0.0);
        }
        if let Some(&v) = memo.get(&(a, b, f)) {
            return v;
        }
        let axis = (0..3).find(|&i| b[i] > 0).unwrap();
        let b1 = dec(b, axis);
        let mut a1 = a;
        a1[axis] += 1;
        let v = hrr_bra(a1, b1, f, ab, e0f0, memo) + ab[axis] * hrr_bra(a, b1, f, ab, e0f0, memo);
        memo.insert((a, b, f), v);
        v
    }

    #[allow(clippy::too_many_arguments)]
    fn hrr_ket(
        a: Tri,
        b: Tri,
        c: Tri,
        d: Tri,
        ab: [f64; 3],
        cd: [f64; 3],
        e0f0: &HashMap<(Tri, Tri), f64>,
        bra_memo: &mut HashMap<(Tri, Tri, Tri), f64>,
        memo: &mut HashMap<(Tri, Tri, Tri, Tri), f64>,
    ) -> f64 {
        if d == [0, 0, 0] {
            return hrr_bra(a, b, c, ab, e0f0, bra_memo);
        }
        if let Some(&v) = memo.get(&(a, b, c, d)) {
            return v;
        }
        let axis = (0..3).find(|&i| d[i] > 0).unwrap();
        let d1 = dec(d, axis);
        let mut c1 = c;
        c1[axis] += 1;
        let v = hrr_ket(a, b, c1, d1, ab, cd, e0f0, bra_memo, memo)
            + cd[axis] * hrr_ket(a, b, c, d1, ab, cd, e0f0, bra_memo, memo);
        memo.insert((a, b, c, d), v);
        v
    }

    // Assemble the Cartesian quartet, then spherical-transform both sides.
    let (na, nb, nc, nd) = (ncart(la), ncart(lb), ncart(lc), ncart(ld));
    let comps_a = cart_components(la);
    let comps_b = cart_components(lb);
    let comps_c = cart_components(lc);
    let comps_d = cart_components(ld);
    let mut cart = Matrix::zeros(na * nb, nc * nd);
    for (i, &ta) in comps_a.iter().enumerate() {
        for (j, &tb) in comps_b.iter().enumerate() {
            for (k, &tc) in comps_c.iter().enumerate() {
                for (l, &td) in comps_d.iter().enumerate() {
                    let v = hrr_ket(
                        tri(ta),
                        tri(tb),
                        tri(tc),
                        tri(td),
                        ab,
                        cd,
                        &e0f0,
                        &mut bra_memo,
                        &mut quartet_memo,
                    );
                    cart[(i * nb + j, k * nd + l)] = v;
                }
            }
        }
    }

    let t_ab = sph_pair_transform(la, lb);
    let t_cd = sph_pair_transform(lc, ld);
    let half = gemm(t_ab, Transpose::No, &cart, Transpose::No);
    let sph = gemm(&half, Transpose::No, t_cd, Transpose::Yes);

    let (sa_n, sb_n, sc_n, sd_n) = (nsph(la), nsph(lb), nsph(lc), nsph(ld));
    let mut out = Tensor4::zeros([sa_n, sb_n, sc_n, sd_n]);
    for i in 0..sa_n {
        for j in 0..sb_n {
            for k in 0..sc_n {
                for l in 0..sd_n {
                    out.set(i, j, k, l, sph[(i * sb_n + j, k * sd_n + l)]);
                }
            }
        }
    }
    Ok(out)
}

fn tri(t: (usize, usize, usize)) -> Tri {
    [t.0 as i32, t.1 as i32, t.2 as i32]
}

fn cart_tris(l: usize) -> Vec<Tri> {
    cart_components(l).into_iter().map(tri).collect()
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn norm2(a: [f64; 3]) -> f64 {
    a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
}

fn combine(a: f64, ca: [f64; 3], b: f64, cb: [f64; 3], p: f64) -> [f64; 3] {
    [
        (a * ca[0] + b * cb[0]) / p,
        (a * ca[1] + b * cb[1]) / p,
        (a * ca[2] + b * cb[2]) / p,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmd::{eri_quartet_mmd, shell_pair};
    use mako_chem::basis::ShellDef;

    fn shell(l: usize, center: [f64; 3], exps: Vec<f64>, coefs: Vec<f64>) -> Shell {
        ShellDef { l, exps, coefs }.at(0, center)
    }

    #[test]
    fn rejects_g_functions_like_quick() {
        let g = shell(4, [0.0; 3], vec![0.5], vec![1.0]);
        let s = shell(0, [0.0; 3], vec![1.0], vec![1.0]);
        assert_eq!(
            eri_quartet_os(&g, &s, &s, &s),
            Err(EriError::UnsupportedAngularMomentum { l: 4 })
        );
    }

    #[test]
    fn ssss_matches_mmd() {
        let s1 = shell(0, [0.0, 0.0, 0.0], vec![1.3], vec![1.0]);
        let s2 = shell(0, [0.8, -0.4, 0.2], vec![0.6], vec![1.0]);
        let os = eri_quartet_os(&s1, &s2, &s2, &s1).unwrap();
        let mmd = eri_quartet_mmd(&shell_pair(&s1, &s2), &shell_pair(&s2, &s1));
        assert!(
            os.max_abs_diff(&mmd) < 1e-13,
            "diff {}",
            os.max_abs_diff(&mmd)
        );
    }

    #[test]
    fn cross_validation_all_classes_up_to_f() {
        // The core cross-check of the reproduction: two independent ERI
        // algorithms agree on every class up to (ff|ff)-containing quartets.
        let centers = [
            [0.0, 0.0, 0.0],
            [0.7, 0.1, -0.3],
            [-0.4, 0.5, 0.6],
            [0.2, -0.6, 0.4],
        ];
        let exps = [1.1, 0.7, 1.7, 0.5];
        for la in 0..=3usize {
            for lb in 0..=la {
                for lc in 0..=la {
                    for ld in 0..=lc {
                        let sa = shell(la, centers[0], vec![exps[0]], vec![1.0]);
                        let sb = shell(lb, centers[1], vec![exps[1]], vec![1.0]);
                        let sc = shell(lc, centers[2], vec![exps[2]], vec![1.0]);
                        let sd = shell(ld, centers[3], vec![exps[3]], vec![1.0]);
                        let os = eri_quartet_os(&sa, &sb, &sc, &sd).unwrap();
                        let mmd = eri_quartet_mmd(&shell_pair(&sa, &sb), &shell_pair(&sc, &sd));
                        let diff = os.max_abs_diff(&mmd);
                        let scale = 1.0 + mmd.max_abs();
                        assert!(
                            diff < 1e-10 * scale,
                            "class ({la}{lb}|{lc}{ld}) diff {diff}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn contracted_quartets_match_mmd() {
        let sa = shell(1, [0.0, 0.0, 0.0], vec![2.0, 0.5], vec![0.4, 0.7]);
        let sb = shell(0, [0.9, 0.0, 0.1], vec![1.1, 0.3], vec![0.6, 0.5]);
        let sc = shell(2, [0.0, 0.8, -0.2], vec![0.9], vec![1.0]);
        let sd = shell(1, [-0.5, 0.3, 0.7], vec![0.7, 0.2], vec![0.8, 0.3]);
        let os = eri_quartet_os(&sa, &sb, &sc, &sd).unwrap();
        let mmd = eri_quartet_mmd(&shell_pair(&sa, &sb), &shell_pair(&sc, &sd));
        let diff = os.max_abs_diff(&mmd);
        assert!(diff < 1e-11, "contracted diff {diff}");
    }
}
