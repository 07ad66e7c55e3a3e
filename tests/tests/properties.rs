//! Property-based tests (proptest) on the core invariants of the Mako
//! stack: quantization round trips, swizzle bijectivity, eigensolver
//! reconstruction, ERI symmetries, screening conservativeness, the
//! permutational-scatter arrangement tables, and the incremental (ΔD) Fock
//! accumulation identity.

use proptest::prelude::*;

use mako::accel::{swizzle_xor, CostModel, DeviceSpec, SmemLayout};
use mako::chem::basis::sto3g::sto3g;
use mako::chem::basis::ShellDef;
use mako::chem::{builders, AoLayout};
use mako::eri::batch::batch_quartets;
use mako::eri::screening::build_screened_pairs;
use mako::eri::{eri_quartet_mmd, schwarz_bound, shell_pair};
use mako::kernels::pipeline::PipelineConfig;
use mako::linalg::{eigh, gemm, Matrix, Transpose};
use mako::precision::{Precision, ScalePolicy};
use mako::quant::QuantSchedule;
use mako::scf::fock::{
    arrangement_tables, build_jk_with_configs, slot_axes, symmetry_case, FockEngineOptions,
};
use std::collections::HashSet;

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
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arrangement_table_matches_hashset_oracle(
        sa in 0usize..6, sb in 0usize..6, sc in 0usize..6, sd in 0usize..6,
    ) {
        // The engine's 16-case permutation tables are built once from
        // *representative* shell assignments; the scatter then trusts that
        // any quartet of the same symmetry case dedups identically. Oracle:
        // re-run the original HashSet dedup (first occurrence wins, same
        // enumeration order) on the random assignment itself. This is
        // exactly the claim that stray coincidences (e.g. sa == sc alone)
        // never collapse arrangements.
        let shells = [sa, sb, sc, sd];
        let mut seen: HashSet<[usize; 4]> = HashSet::new();
        let mut expect: Vec<[usize; 4]> = Vec::new();
        for braket in [false, true] {
            for s_ab in [false, true] {
                for s_cd in [false, true] {
                    let axes = slot_axes(s_ab, s_cd, braket);
                    let tuple = [shells[axes[0]], shells[axes[1]], shells[axes[2]], shells[axes[3]]];
                    if seen.insert(tuple) {
                        expect.push(axes);
                    }
                }
            }
        }
        let table = &arrangement_tables()[symmetry_case(sa, sb, sc, sd)];
        prop_assert_eq!(table, &expect);
    }
}

/// Deterministic symmetric matrix from a seed, entries in `[-scale, scale]`.
fn seeded_symmetric(n: usize, seed: u64, scale: f64) -> Matrix {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * scale
    };
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = next();
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

proptest! {
    // Each case runs ~k+2 full Fock builds on water/STO-3G; keep the case
    // count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_fock_accumulation_matches_from_scratch(
        k in 1usize..5, seed in any::<u64>(), with_tau in any::<bool>(),
    ) {
        // The incremental-SCF identity: after k density perturbations, the
        // accumulated Σ G(ΔD_i) equals the from-scratch G(D_k) — exactly
        // (to FP addition reordering, ≤ 1e-12) when τ = 0, and within the
        // engine's accumulated analytic skip bound when τ > 0.
        let shells = sto3g().shells_for(&builders::water());
        let layout = AoLayout::new(&shells);
        let pairs = build_screened_pairs(&shells, 1e-12);
        let batches = batch_quartets(&pairs, 1e-14);
        let model = CostModel::new(DeviceSpec::a100());
        let cfg = PipelineConfig::kernel_mako_fp64();
        let schedule = QuantSchedule::fp64_reference(0.0);
        let tau = if with_tau { 1e-9 } else { 0.0 };
        let build = |density: &Matrix, tau: f64| {
            build_jk_with_configs(
                density,
                &pairs,
                &batches,
                &layout,
                &schedule,
                |_| (cfg, cfg),
                &model,
                FockEngineOptions { delta_tau: Some(tau) },
            )
        };

        let n = layout.nao;
        let mut d = seeded_symmetric(n, seed, 0.4);
        let mut d_ref = Matrix::zeros(n, n);
        let mut j_acc = Matrix::zeros(n, n);
        let mut k_acc = Matrix::zeros(n, n);
        let mut bound = 0.0f64;
        for step in 0..k {
            // Shrinking perturbations, like a converging SCF's ΔD.
            let scale = 0.05 * 0.1f64.powi(step as i32);
            d.axpy(1.0, &seeded_symmetric(n, seed ^ (step as u64 + 1), scale));
            let mut delta = d.clone();
            delta.axpy(-1.0, &d_ref);
            let (jk, st) = build(&delta, tau);
            j_acc.axpy(1.0, &jk.j);
            k_acc.axpy(1.0, &jk.k);
            d_ref = d.clone();
            bound += st.skipped_bound;
        }

        let (full, _) = build(&d, 0.0);
        let dj = full.j.sub(&j_acc).max_abs();
        let dk = full.k.sub(&k_acc).max_abs();
        let tol = if with_tau { bound + 1e-12 } else { 1e-12 };
        prop_assert!(
            dj <= tol && dk <= tol,
            "accumulated J/K drifted: ΔJ {dj:e}, ΔK {dk:e}, bound {bound:e}, τ {tau:e}, k {k}"
        );
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
        use mako::scf::{classify, RescueConfig, TrajectoryClass};
        let cfg = RescueConfig::default();
        let e_tol = 1e-8;
        let n = drops.len().min(shrink.len());
        let mut energies = vec![e0];
        let mut residuals = vec![r0];
        for i in 0..n {
            energies.push(energies[i] - drops[i]);
            residuals.push(residuals[i] * shrink[i]);
        }
        for k in 1..=energies.len() {
            let class = classify(&energies[..k], &residuals[..k], &cfg, e_tol);
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
        use mako::scf::{classify, RescueConfig, TrajectoryClass};
        let cfg = RescueConfig::default();
        let e_tol = 1e-8;
        let mut energies = Vec::new();
        let mut residuals = Vec::new();
        let mut fired = None;
        for k in 0..10usize {
            energies.push(e0 + k as f64 * e_step);
            residuals.push(r0 * growth.powi(k as i32));
            let class = classify(&energies, &residuals, &cfg, e_tol);
            if class != TrajectoryClass::Healthy {
                fired = Some((k, class));
                break;
            }
        }
        prop_assert!(fired.is_some(), "watchdog never fired on a 1.5×/step divergent residual");
        let (k, class) = fired.unwrap();
        prop_assert!(class == TrajectoryClass::Diverging, "fired with the wrong class: {class:?}");
        prop_assert!(k < cfg.window + cfg.min_history, "fired only at step {k}");
    }

    #[test]
    fn watchdog_flags_sustained_oscillation_within_one_window(
        e_base in -100.0f64..0.0,
        amp in 1e-3f64..0.4,
        r in 1e-3f64..1.0,
    ) {
        // Constant-amplitude ΔE alternation with a flat residual is the
        // classic DIIS two-cycle; it must be flagged within one window.
        use mako::scf::{classify, RescueConfig, TrajectoryClass};
        let cfg = RescueConfig::default();
        let e_tol = 1e-8;
        let mut energies = Vec::new();
        let mut residuals = Vec::new();
        let mut fired = None;
        for k in 0..10usize {
            energies.push(e_base + if k % 2 == 0 { amp } else { -amp });
            residuals.push(r);
            let class = classify(&energies, &residuals, &cfg, e_tol);
            if class != TrajectoryClass::Healthy {
                fired = Some((k, class));
                break;
            }
        }
        prop_assert!(fired.is_some(), "watchdog never fired on a constant-amplitude oscillation");
        let (k, class) = fired.unwrap();
        prop_assert!(class == TrajectoryClass::Oscillating, "fired with the wrong class: {class:?}");
        prop_assert!(k < cfg.window + cfg.min_history, "fired only at step {k}");
    }
}

#[test]
fn smem_layout_enum_is_exported() {
    // The prelude-level re-exports stay wired.
    let _ = SmemLayout::Swizzled;
}
