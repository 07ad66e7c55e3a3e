//! Pins whole SCF trajectories — every field of the `ScfResult`, every
//! `IterationLedger` — of four runs whose *cross-iteration* behaviour no
//! single-build pin (`fock_seam_pin.rs`) holds:
//!
//! * RHF water trimer: the scheduler's pruned set differs from iteration to
//!   iteration (the dimer prunes the same 3 quartets every time);
//! * `quantized: true` B3LYP water: sub-units flip quantized → FP64 mid-run,
//!   so a quartet is first evaluated in FP64 at an iteration k > 0;
//! * `incremental: true` water trimer: the ΔD screen evaluates a different
//!   subset of every batch per iteration;
//! * RHF water killed at iteration 3 and resumed from its checkpoint in a
//!   fresh session.
//!
//! The constants were generated on the integral-direct engine (every quartet
//! re-evaluated every iteration). Anything that keeps state across Fock
//! builds must reproduce them; a deliberate change of summation order,
//! scheduling or pricing must regenerate them (failure messages print the
//! new values) and say so in CHANGES.md.
//!
//! Each row is a [`Pin`] (`digest/mod.rs`): the *exact* half holds iteration
//! and quartet counts, `iteration_seconds`, the device-clock totals and every
//! ledger field that is a count or a device second; the *float* half holds
//! energies, orbital energies, the density and the `skipped_bound`s. The
//! halves were split on the per-primitive `boys_reference` engine
//! (`b9cece2`); the float halves were then regenerated once, for the
//! table-Boys, contraction-stacked FP64 quartet: energies move by at most
//! 1.2e-13 Ha, orbital energies and density elements of the three FP64 runs
//! by at most 3e-14, those of the quantized run by at most 2e-10 (its
//! quantized iterations read Boys values that were 1e-10 off). No exact half
//! moved.
//!
//! `QUANT_B3LYP_WATER` is the one DFT run, so the float half of that row
//! alone was regenerated three times more, once per step of the XC rewrite
//! and once for its functional:
//! (1) `evaluate_xc` went from one dense GEMM over the grid to per-block
//! GEMMs, which moved `V_xc` by summation order only (≤ 1.1e-15 on the
//! trimer grid; `E_xc` and ∫ρ bit for bit) and the run by 4.3e-14 Ha in
//! energy and 1.8e-10 in a density element; (2) the functional's
//! potentials became closed forms instead of central differences, which
//! moved `V_xc` by ≤ 6.4e-8 (the stencil's own error) and the run by
//! 5.8e-13 Ha, 1.1e-7 in an orbital energy and 4.9e-8 in a density element;
//! (3) the functional took every power of ρ from one shared `ρ.cbrt()`
//! instead of `powf`, which moved the run by 9.9e-14 Ha, 1.8e-13 in an
//! orbital energy and 2.6e-13 in a density element.
//! Both of its halves were regenerated once more when the DFT grid's angular
//! order became pruned by radius: the grid has fewer points, so
//! `xc_device_seconds`, which prices points, moved every ledger's
//! `total_seconds`, and the run moved by −1.0e-6 Ha in energy, in the same
//! 9 iterations with the same quartet counts.
//!
//! The float halves of all four rows were regenerated once more, together,
//! when the one-electron V took its Boys values from the shared table
//! instead of the series `boys_reference` (|ΔV| ≤ 1.8e-15 here) and the DIIS
//! error became `A − Aᵀ` of one product instead of the difference of two:
//! energies moved by at most 1.0e-13 Ha, orbital energies and density
//! elements by at most 2.6e-14 in the three RHF runs and 1.3e-13 in the
//! quantized one. No exact half moved.

use mako_chem::basis::sto3g::sto3g;
use mako_chem::{builders, Molecule};
use mako_scf::{
    b3lyp, CheckpointPolicy, ScfCheckpoint, ScfConfig, ScfDriver, ScfError, ScfMethod, ScfResult,
    ScfRunOptions,
};

mod digest;
use digest::{Digest, Pin};

const RHF_TRIMER: Pin = Pin {
    exact: 0x4dda_04e1_56de_432b,
    float: 0x83f7_cfad_2639_6a21,
};
const QUANT_B3LYP_WATER: Pin = Pin {
    exact: 0xf84d_0051_f3b8_70ff,
    float: 0x34b8_d1e4_3908_8ef0,
};
const INCREMENTAL_TRIMER: Pin = Pin {
    exact: 0xc2fb_b5d7_48e5_7990,
    float: 0x22c4_10af_7195_f104,
};
const RESUMED_WATER: Pin = Pin {
    exact: 0xb7da_a7af_be34_a102,
    float: 0x865c_0b6e_b511_f3a4,
};

fn digest(res: &ScfResult) -> Pin {
    let mut exact = Digest::new();
    exact.floats(&[res.e_nuclear, res.avg_iteration_seconds, res.total_seconds]);
    exact.word(res.converged as u64);
    exact.word(res.iterations as u64);
    exact.floats(&res.iteration_seconds);
    exact.stats(&res.stats);
    exact.word(res.clock.iterations().len() as u64);
    for l in res.clock.iterations() {
        exact.floats(&[l.eri_seconds, l.total_seconds]);
        for count in [l.evaluated_quartets, l.skipped_quartets, l.pruned_quartets] {
            exact.word(count as u64);
        }
        exact.word(l.rebuild as u64);
    }
    exact.word(res.clock.recoveries().len() as u64);
    for r in res.clock.recoveries() {
        exact.ledger(r);
    }

    let mut float = Digest::new();
    float.floats(&[res.energy, res.stats.skipped_bound]);
    float.floats(&res.orbital_energies);
    float.floats(res.density.as_slice());
    for l in res.clock.iterations() {
        float.floats(&[l.skipped_bound]);
    }
    Pin {
        exact: exact.0,
        float: float.0,
    }
}

fn driver(mol: &Molecule, config: ScfConfig) -> ScfDriver {
    ScfDriver::new(mol, &sto3g(), config)
}

#[track_caller]
fn assert_pinned(res: &ScfResult, want: Pin, name: &str) {
    assert!(res.converged, "{name} did not converge");
    digest(res).assert_eq(want, name);
}

#[test]
fn rhf_trimer_with_a_per_iteration_pruned_set_is_pinned() {
    let res = driver(&builders::water_cluster(3), ScfConfig::default())
        .run()
        .expect("scf run");
    let pruned: Vec<usize> = res.clock.iterations().iter().map(|l| l.pruned_quartets).collect();
    assert!(
        pruned.windows(2).any(|w| w[0] != w[1]),
        "the pruned set must change between iterations: {pruned:?}"
    );
    assert_pinned(&res, RHF_TRIMER, "RHF_TRIMER");
}

#[test]
fn quantized_b3lyp_water_flipping_to_fp64_mid_run_is_pinned() {
    let config = ScfConfig {
        method: ScfMethod::Rks(b3lyp()),
        quantized: true,
        ..ScfConfig::default()
    };
    let res = driver(&builders::water(), config).run().expect("scf run");
    assert!(
        res.stats.quantized_quartets > 0 && res.stats.fp64_quartets > 0,
        "both pipelines must run: {:?}",
        res.stats
    );
    assert_pinned(&res, QUANT_B3LYP_WATER, "QUANT_B3LYP_WATER");
}

#[test]
fn incremental_trimer_under_the_delta_screen_is_pinned() {
    let config = ScfConfig {
        incremental: true,
        ..ScfConfig::default()
    };
    let res = driver(&builders::water_cluster(3), config).run().expect("scf run");
    assert!(res.stats.skipped_quartets > 0, "the ΔD screen must engage");
    assert_pinned(&res, INCREMENTAL_TRIMER, "INCREMENTAL_TRIMER");
}

#[test]
fn water_killed_at_iteration_three_and_resumed_is_pinned() {
    let drv = driver(&builders::water(), ScfConfig::default());
    let path = std::env::temp_dir().join(format!("mako-trajectory-pin-{}.ckpt", std::process::id()));
    let err = drv
        .run_with(ScfRunOptions {
            checkpoint: Some(CheckpointPolicy::new(1, path.clone())),
            kill_after: Some(3),
            ..ScfRunOptions::default()
        })
        .expect_err("run must die at iteration 3");
    assert!(matches!(&err, ScfError::Killed(ck) if ck.next_iteration == 3), "{err}");
    let ck = ScfCheckpoint::load(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);
    assert_eq!(ck.next_iteration, 3);
    let res = drv
        .run_with(ScfRunOptions {
            resume: Some(ck),
            ..ScfRunOptions::default()
        })
        .expect("resumed run");
    assert_pinned(&res, RESUMED_WATER, "RESUMED_WATER");
}
