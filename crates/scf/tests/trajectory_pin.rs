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

use mako_chem::basis::sto3g::sto3g;
use mako_chem::{builders, Molecule};
use mako_scf::{
    b3lyp, CheckpointPolicy, ScfCheckpoint, ScfConfig, ScfDriver, ScfError, ScfMethod, ScfResult,
    ScfRunOptions,
};

mod digest;
use digest::Digest;

const RHF_TRIMER: u64 = 0x9d19_0435_8e3f_9540;
const QUANT_B3LYP_WATER: u64 = 0xdbd0_fced_3f21_1826;
const INCREMENTAL_TRIMER: u64 = 0xb350_e2e8_867a_316b;
const RESUMED_WATER: u64 = 0x482a_7b5a_fcf8_f980;

fn digest(res: &ScfResult) -> u64 {
    let mut d = Digest::new();
    d.floats(&[
        res.energy,
        res.e_nuclear,
        res.avg_iteration_seconds,
        res.total_seconds,
    ]);
    d.word(res.converged as u64);
    d.word(res.iterations as u64);
    d.floats(&res.orbital_energies);
    d.floats(res.density.as_slice());
    d.floats(&res.iteration_seconds);
    d.stats(&res.stats);
    d.word(res.clock.iterations().len() as u64);
    for l in res.clock.iterations() {
        d.floats(&[l.eri_seconds, l.total_seconds, l.skipped_bound]);
        for count in [l.evaluated_quartets, l.skipped_quartets, l.pruned_quartets] {
            d.word(count as u64);
        }
        d.word(l.rebuild as u64);
    }
    d.word(res.clock.recoveries().len() as u64);
    for r in res.clock.recoveries() {
        d.ledger(r);
    }
    d.0
}

fn driver(mol: &Molecule, config: ScfConfig) -> ScfDriver {
    ScfDriver::new(mol, &sto3g(), config)
}

#[track_caller]
fn assert_pinned(res: &ScfResult, want: u64, name: &str) {
    assert!(res.converged, "{name} did not converge");
    let got = digest(res);
    assert_eq!(got, want, "{name} moved: const {name}: u64 = {got:#018x};");
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
    assert_eq!(err, ScfError::Killed { iterations: 3 });
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
