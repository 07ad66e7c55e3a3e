//! Property-based tests (proptest) on the core invariants of the Mako
//! stack: quantization round trips, swizzle bijectivity, eigensolver
//! reconstruction, ERI symmetries, and screening conservativeness.

use proptest::prelude::*;

use mako::accel::{swizzle_xor, SmemLayout};
use mako::chem::basis::ShellDef;
use mako::eri::{eri_quartet_mmd, schwarz_bound, shell_pair};
use mako::kernels::pipeline::PipelineConfig;
use mako::linalg::{eigh, gemm, Matrix, Transpose};
use mako::precision::{Precision, ScalePolicy};

fn small_f64() -> impl Strategy<Value = f64> {
    // Magnitudes spanning many decades, both signs, no zeros/NaNs.
    (prop::num::f64::NORMAL, -18..18i32).prop_map(|(m, e)| {
        let mantissa = if m.abs() < 1.0 { m + 1.1 } else { m % 10.0 + 0.1 };
        mantissa.signum() * mantissa.abs().min(9.9) * 10f64.powi(e)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantize_dequantize_relative_error_bounded(block in prop::collection::vec(small_f64(), 1..64)) {
        // Per-group scaling guarantees every element of a block round-trips
        // through FP16 with relative error ≤ 2^-11 + ε of the block max —
        // through the scale and rounding calls the quantized quartet makes.
        let max = block.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let scale = ScalePolicy::PerGroup.scale(max);
        let mut rounded = Vec::new();
        Precision::Fp16.round_scaled_extend(scale, &block, &mut rounded);
        for (orig, r) in block.iter().zip(&rounded) {
            let rec = r / scale;
            let err = (orig - rec).abs();
            prop_assert!(err <= max * 6e-4 + 1e-300, "orig {orig} rec {rec} max {max}");
        }
    }

    #[test]
    fn precision_round_is_monotone(a in small_f64(), b in small_f64()) {
        // Rounding preserves order (weakly) for every format.
        for p in [Precision::Fp32, Precision::Tf32, Precision::Bf16, Precision::Fp16] {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.round(lo) <= p.round(hi), "{p} broke order on ({lo}, {hi})");
        }
    }

    #[test]
    fn swizzle_bijective_any_pow2_width(log_w in 1usize..7) {
        let w = 1usize << log_w;
        let mut seen = vec![false; w * w];
        for y in 0..w {
            for x in 0..w {
                let (xp, yp) = swizzle_xor(x, y, w);
                prop_assert!(xp < w && yp < w);
                let idx = yp * w + xp;
                prop_assert!(!seen[idx], "collision at ({x},{y})");
                seen[idx] = true;
            }
        }
    }

    #[test]
    fn eigensolver_reconstructs_random_symmetric(n in 1usize..12, seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let ed = eigh(&a).unwrap();
        let recon = ed.reconstruct();
        prop_assert!(recon.sub(&a).max_abs() < 1e-9 * (1.0 + a.max_abs()));
        let vtv = gemm(&ed.vectors, Transpose::Yes, &ed.vectors, Transpose::No);
        prop_assert!(vtv.sub(&Matrix::identity(n)).max_abs() < 1e-10);
    }

    #[test]
    fn eri_braket_symmetry_random_shells(
        la in 0usize..3, lc in 0usize..3,
        ax in -1.0f64..1.0, cy in -1.0f64..1.0,
        ea in 0.3f64..2.5, ec in 0.3f64..2.5,
    ) {
        let sa = ShellDef { l: la, exps: vec![ea], coefs: vec![1.0] }.at(0, [ax, 0.1, -0.2]);
        let sc = ShellDef { l: lc, exps: vec![ec], coefs: vec![1.0] }.at(0, [0.4, cy, 0.3]);
        let pab = shell_pair(&sa, &sa);
        let pcd = shell_pair(&sc, &sc);
        let t1 = eri_quartet_mmd(&pab, &pcd);
        let t2 = eri_quartet_mmd(&pcd, &pab);
        for a in 0..t1.dims[0] {
            for b in 0..t1.dims[1] {
                for c in 0..t1.dims[2] {
                    for d in 0..t1.dims[3] {
                        prop_assert!((t1.get(a, b, c, d) - t2.get(c, d, a, b)).abs() < 1e-11);
                    }
                }
            }
        }
    }

    #[test]
    fn schwarz_bound_dominates_cross_integrals(
        r in 0.2f64..6.0,
        ea in 0.3f64..2.0, eb in 0.3f64..2.0,
        la in 0usize..3, lb in 0usize..3,
    ) {
        let sa = ShellDef { l: la, exps: vec![ea], coefs: vec![1.0] }.at(0, [0.0; 3]);
        let sb = ShellDef { l: lb, exps: vec![eb], coefs: vec![1.0] }.at(1, [0.0, 0.0, r]);
        let paa = shell_pair(&sa, &sa);
        let pbb = shell_pair(&sb, &sb);
        let pab = shell_pair(&sa, &sb);
        let q_aa = schwarz_bound(&paa);
        let q_bb = schwarz_bound(&pbb);
        let q_ab = schwarz_bound(&pab);
        // Cauchy-Schwarz on the pair metric: Q_ab² ≤ Q_aa Q_bb.
        prop_assert!(q_ab * q_ab <= q_aa * q_bb * (1.0 + 1e-9));
        // And every cross quartet obeys its product bound.
        let t = eri_quartet_mmd(&pab, &pab);
        prop_assert!(t.max_abs() <= q_ab * q_ab * (1.0 + 1e-9));
    }

    #[test]
    fn density_idempotency_through_scf_machinery(n in 2usize..8, seed in any::<u64>()) {
        // For any symmetric "Fock" matrix, the density built from its
        // lowest orbitals is idempotent in the orthonormal metric:
        // (DS)² = DS with S = I here.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut f = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                f[(i, j)] = v;
                f[(j, i)] = v;
            }
        }
        let ed = eigh(&f).unwrap();
        let nocc = n / 2;
        let mut d = Matrix::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut s = 0.0;
                for o in 0..nocc {
                    s += ed.vectors[(mu, o)] * ed.vectors[(nu, o)];
                }
                d[(mu, nu)] = s;
            }
        }
        let dd = gemm(&d, Transpose::No, &d, Transpose::No);
        prop_assert!(dd.sub(&d).max_abs() < 1e-10, "D² ≠ D");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn smem_footprint_is_monotone_in_tile(
        la in 0usize..5, lb in 0usize..5, lc in 0usize..5, ld in 0usize..5,
        kab in 1usize..6, kcd in 1usize..6,
        strategy in 0usize..4, fp16 in any::<bool>(),
        t1 in 1usize..96, t2 in 1usize..96,
    ) {
        // A larger N-dim tile edge can only grow (weakly) the live-tensor
        // footprint — the invariant the tuner's Eq. 13 admissibility checks
        // lean on when they sweep tiles.
        use mako::kernels::pipeline::{smem_footprint, FusionStrategy};
        let class = mako::eri::batch::EriClass { la, lb, lc, ld, kab, kcd };
        let fusion = [
            FusionStrategy::Unfused,
            FusionStrategy::FuseRPq,
            FusionStrategy::FuseAll,
            FusionStrategy::FuseAllCoalesced,
        ][strategy];
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let cfg = |tile| PipelineConfig {
            fusion,
            tile,
            precision: if fp16 { Precision::Fp16 } else { Precision::Fp64 },
            ..PipelineConfig::kernel_mako_fp64()
        };
        let (s_lo, s_hi) = (smem_footprint(&class, &cfg(lo)), smem_footprint(&class, &cfg(hi)));
        prop_assert!(
            s_lo <= s_hi,
            "footprint shrank as the tile grew: tile {lo} → {s_lo} B, tile {hi} → {s_hi} B \
             ({fusion:?}, class l=({la},{lb},{lc},{ld}) K=({kab},{kcd}))"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn watchdog_never_fires_on_monotone_convergence(
        e0 in -100.0f64..0.0,
        drops in prop::collection::vec(1e-9f64..0.5, 3..30),
        r0 in 1e-2f64..10.0,
        shrink in prop::collection::vec(0.05f64..0.95, 3..30),
    ) {
        // The inertness half of the classifier contract: a trajectory whose
        // energy never rises and whose residual sheds at least 5% per
        // iteration is Healthy at EVERY prefix — the watchdog may never
        // perturb a run that is already converging.
        use mako::scf::{classify, TrajectoryClass};
        let e_tol = 1e-8;
        let n = drops.len().min(shrink.len());
        let mut energies = vec![e0];
        let mut residuals = vec![r0];
        for i in 0..n {
            energies.push(energies[i] - drops[i]);
            residuals.push(residuals[i] * shrink[i]);
        }
        for k in 1..=energies.len() {
            let class = classify(&energies[..k], &residuals[..k], e_tol);
            prop_assert!(
                class == TrajectoryClass::Healthy,
                "watchdog fired ({class:?}) at step {k} of a monotonically converging trajectory"
            );
        }
    }

    #[test]
    fn watchdog_flags_residual_divergence_within_one_window(
        e0 in -100.0f64..0.0,
        r0 in 1e-3f64..1.0,
        growth in 1.5f64..3.0,
        e_step in -1e-4f64..1e-4,
    ) {
        // The liveness half: sustained residual growth (≥1.5× per step) is
        // flagged as Diverging within one window of history, for any
        // starting point above the convergence basin.
        use mako::scf::{classify, TrajectoryClass};
        let e_tol = 1e-8;
        let mut energies = Vec::new();
        let mut residuals = Vec::new();
        let mut fired = None;
        for k in 0..10usize {
            energies.push(e0 + k as f64 * e_step);
            residuals.push(r0 * growth.powi(k as i32));
            let class = classify(&energies, &residuals, e_tol);
            if class != TrajectoryClass::Healthy {
                fired = Some((k, class));
                break;
            }
        }
        prop_assert!(fired.is_some(), "watchdog never fired on a 1.5×/step divergent residual");
        let (k, class) = fired.unwrap();
        prop_assert!(class == TrajectoryClass::Diverging, "fired with the wrong class: {class:?}");
        // One 6-iteration window after the 4-iteration warm-up.
        prop_assert!(k < 6 + 4, "fired only at step {k}");
    }

    #[test]
    fn watchdog_flags_sustained_oscillation_within_one_window(
        e_base in -100.0f64..0.0,
        amp in 1e-3f64..0.4,
        r in 1e-3f64..1.0,
    ) {
        // Constant-amplitude ΔE alternation with a flat residual is the
        // classic DIIS two-cycle; it must be flagged within one window.
        use mako::scf::{classify, TrajectoryClass};
        let e_tol = 1e-8;
        let mut energies = Vec::new();
        let mut residuals = Vec::new();
        let mut fired = None;
        for k in 0..10usize {
            energies.push(e_base + if k % 2 == 0 { amp } else { -amp });
            residuals.push(r);
            let class = classify(&energies, &residuals, e_tol);
            if class != TrajectoryClass::Healthy {
                fired = Some((k, class));
                break;
            }
        }
        prop_assert!(fired.is_some(), "watchdog never fired on a constant-amplitude oscillation");
        let (k, class) = fired.unwrap();
        prop_assert!(class == TrajectoryClass::Oscillating, "fired with the wrong class: {class:?}");
        // One 6-iteration window after the 4-iteration warm-up.
        prop_assert!(k < 6 + 4, "fired only at step {k}");
    }
}

#[test]
fn smem_layout_enum_is_exported() {
    // The prelude-level re-exports stay wired.
    let _ = SmemLayout::Swizzled;
}
