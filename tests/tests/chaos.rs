//! Chaos suite: property-based fault injection over the fault-tolerant
//! distributed Fock build, and checkpoint/restart of the SCF driver.
//!
//! The two contracts under test (DESIGN.md §10):
//!
//! * **Determinism under recovery** — for *any* seeded fault plan
//!   (transient launch failures, stragglers, permanent loss of up to
//!   ranks−1 ranks), the recovered J/K, per-rank device seconds, and
//!   scheduler statistics are bitwise identical to the fault-free build.
//!   Faults may only change *who executes* and the degraded timeline, never
//!   the numbers.
//! * **Bitwise replay across restart** — an SCF trajectory killed
//!   mid-flight and resumed from its latest checkpoint converges to the
//!   same final energy, iteration count, and device clock to the bit as the
//!   uninterrupted run.

use proptest::prelude::*;

use mako::accel::fault::{FaultConfig, FaultPlan};
use mako::accel::{ClusterSpec, CostModel, DeviceSpec, RecoveryLedger};
use mako::chem::basis::sto3g::sto3g;
use mako::chem::{builders, AoLayout};
use mako::eri::batch::batch_quartets;
use mako::eri::screening::build_screened_pairs;
use mako::kernels::pipeline::PipelineConfig;
use mako::linalg::Matrix;
use mako::quant::QuantSchedule;
use mako::scf::fock::{FockEngineOptions, JkMatrices};
use mako::scf::{
    b3lyp, build_jk_distributed, CheckpointError, CheckpointPolicy, DistributedScf,
    FtFockOutcome, ScfCheckpoint, ScfConfig, ScfDriver, ScfError, ScfMethod, ScfRunOptions,
};
use std::path::PathBuf;

type FockFixture = (
    Matrix,
    Vec<mako::eri::ScreenedPair>,
    Vec<mako::eri::QuartetBatch>,
    AoLayout,
    QuantSchedule,
    PipelineConfig,
    CostModel,
);

/// Water-monomer Fock fixture with a synthetic (non-idempotent) density —
/// cheap enough to rebuild inside every proptest case.
fn fock_fixture() -> FockFixture {
    let mol = builders::water();
    let shells = sto3g().shells_for(&mol);
    let layout = AoLayout::new(&shells);
    let pairs = build_screened_pairs(&shells, 1e-12);
    let batches = batch_quartets(&pairs, 1e-14);
    let d = Matrix::from_fn(layout.nao, layout.nao, |i, j| {
        0.4 / (1.0 + (i as f64 - j as f64).abs())
    });
    let model = CostModel::new(DeviceSpec::a100());
    let cfg = PipelineConfig::kernel_mako_fp64();
    let schedule = QuantSchedule::fp64_reference(0.0);
    (d, pairs, batches, layout, schedule, cfg, model)
}

/// The multi-rank build of the fixture under `plan`; the fault-free build is
/// the quiet plan.
fn build_under(fx: &FockFixture, plan: FaultPlan) -> FtFockOutcome {
    let (d, pairs, batches, layout, schedule, cfg, model) = fx;
    build_jk_distributed(
        d,
        pairs,
        batches,
        layout,
        schedule,
        |_| (*cfg, *cfg),
        model,
        FockEngineOptions::default(),
        &DistributedScf { plan, cluster: None },
        0,
    )
    .expect("distributed build")
}

fn assert_bitwise_jk(a: &JkMatrices, b: &JkMatrices, what: &str) {
    assert!(
        a.j.as_slice()
            .iter()
            .zip(b.j.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: J not bitwise identical"
    );
    assert!(
        a.k.as_slice()
            .iter()
            .zip(b.k.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: K not bitwise identical"
    );
}

/// The seeded "bad day" on a priced two-rank cluster: seed 6 loses one rank
/// and makes the other a straggler (stolen and re-run batches every
/// iteration), and the cluster geometry puts the allreduce on the recovery
/// ledger's two clocks.
fn chaotic_cluster() -> DistributedScf {
    DistributedScf {
        plan: FaultPlan::seeded(6, 2, &FaultConfig::chaotic()),
        cluster: Some(ClusterSpec::azure_nd_a100_v4()),
    }
}

/// Scratch checkpoint path unique to this test process.
fn scratch_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mako_chaos_{tag}_{}.ckpt", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole invariant, quantified: ANY seeded fault plan —
    /// transients, stragglers, and up to ranks−1 permanent losses — yields
    /// bitwise-identical J/K, per-rank seconds, and stats, with a
    /// consistent recovery ledger.
    #[test]
    fn any_seeded_fault_plan_recovers_bitwise(
        seed in any::<u64>(),
        ranks in 2usize..5,
        transient_rate in 0.0f64..0.5,
        straggler_rate in 0.0f64..1.0,
        loss_rate in 0.0f64..0.9,
    ) {
        let fx = fock_fixture();
        let ff = build_under(&fx, FaultPlan::quiet(ranks));

        let plan = FaultPlan::seeded(
            seed,
            ranks,
            &FaultConfig {
                transient_rate,
                straggler_rate,
                straggler_slowdown: (1.5, 6.0),
                loss_rate,
                ..FaultConfig::default()
            },
        );
        let dead = (0..ranks)
            .filter(|&r| plan.rank(r).death_fraction.is_some())
            .count();
        prop_assert!(dead < ranks, "seeded plan must leave a survivor");

        let ft = build_under(&fx, plan);

        assert_bitwise_jk(&ft.jk, &ff.jk, "seeded plan");
        prop_assert_eq!(&ft.rank_seconds, &ff.rank_seconds);
        prop_assert_eq!(&ft.stats, &ff.stats);
        prop_assert_eq!(ft.recovery.ranks_lost, dead);
        prop_assert!(
            ft.recovery.degraded_seconds >= ft.recovery.fault_free_seconds,
            "faults cannot make the cluster faster: {:?}",
            ft.recovery
        );
        if dead == 0 && transient_rate == 0.0 {
            prop_assert_eq!(ft.recovery.transient_retries, 0);
        }
    }

    /// Replaying the same seed gives the same ledger — the fault engine is
    /// a pure function of (seed, topology).
    #[test]
    fn fault_replay_is_deterministic(seed in any::<u64>(), ranks in 2usize..5) {
        let fx = fock_fixture();
        let mk = || FaultPlan::seeded(seed, ranks, &FaultConfig::chaotic());
        let a = build_under(&fx, mk());
        let b = build_under(&fx, mk());
        assert_bitwise_jk(&a.jk, &b.jk, "replay");
        prop_assert_eq!(a.recovery, b.recovery);
        prop_assert_eq!(
            a.recovery.degraded_seconds.to_bits(),
            b.recovery.degraded_seconds.to_bits()
        );
    }
}

#[test]
fn targeted_loss_of_all_but_one_rank_recovers_bitwise() {
    // The issue's strongest acceptance case as a targeted (non-sampled)
    // pin: 3 of 4 ranks die at different points of their shares.
    let fx = fock_fixture();
    let ranks = 4;
    let ff = build_under(&fx, FaultPlan::quiet(ranks));
    let plan = FaultPlan::quiet(ranks)
        .kill_rank(0, 0.0)
        .kill_rank(2, 0.5)
        .kill_rank(3, 0.99);
    let ft = build_under(&fx, plan);
    assert_bitwise_jk(&ft.jk, &ff.jk, "3-of-4 loss");
    assert_eq!(ft.rank_seconds, ff.rank_seconds);
    assert_eq!(ft.stats, ff.stats);
    assert_eq!(ft.recovery.ranks_lost, 3);
    assert!(ft.recovery.rerun_batches > 0);
}

#[test]
fn scf_under_faults_matches_quiet_scf_bitwise() {
    // End-to-end: a full SCF trajectory on a faulted 2-rank cluster — one
    // targeted plan, one seeded chaotic plan — converges to the
    // bit-identical energy and device clock of the quiet 2-rank cluster,
    // while the recovery ledgers record the injected anomalies.
    let mol = builders::water();
    let mk_cfg = |distributed: DistributedScf| ScfConfig {
        e_tol: 1e-8,
        distributed: Some(distributed),
        ..ScfConfig::default()
    };
    let quiet = ScfDriver::new(&mol, &sto3g(), mk_cfg(DistributedScf::new(2)))
        .run()
        .expect("quiet distributed scf");
    assert!(quiet.converged);
    assert!(quiet.clock.total_recovery().quiet());

    let faulted = |label: &str, distributed: DistributedScf| -> RecoveryLedger {
        let chaos = ScfDriver::new(&mol, &sto3g(), mk_cfg(distributed))
            .run()
            .expect("faulted distributed scf");
        assert!(chaos.converged, "{label}");
        assert_eq!(
            chaos.energy.to_bits(),
            quiet.energy.to_bits(),
            "{label}: faults changed the converged energy: {:.15} vs {:.15}",
            chaos.energy,
            quiet.energy
        );
        assert_eq!(chaos.iterations, quiet.iterations, "{label}");
        assert_eq!(
            chaos.total_seconds.to_bits(),
            quiet.total_seconds.to_bits(),
            "{label}: faults leaked into the device clock"
        );
        let recovered = chaos.clock.total_recovery();
        assert_eq!(recovered.ranks_lost, chaos.iterations, "{label}: one loss per iteration");
        assert!(recovered.overhead_seconds() > 0.0, "{label}");
        recovered
    };
    // Each plan exercises a recovery action the other does not: the
    // targeted one retries transients, the seeded one steals from its
    // straggler.
    let targeted = DistributedScf {
        plan: FaultPlan::quiet(2).kill_rank(1, 0.4).with_transients(0.15),
        cluster: None,
    };
    assert!(faulted("targeted", targeted).transient_retries > 0);
    assert!(faulted("seeded chaotic", chaotic_cluster()).stolen_batches > 0);
}

#[test]
fn killed_run_reports_killed_error() {
    let mol = builders::water();
    let driver = ScfDriver::new(&mol, &sto3g(), ScfConfig::default());
    let err = driver
        .run_with(ScfRunOptions {
            kill_after: Some(3),
            ..ScfRunOptions::default()
        })
        .expect_err("run must die at iteration 3");
    assert_eq!(err, ScfError::Killed { iterations: 3 });
}

#[test]
fn checkpoint_restart_reproduces_trajectory_bitwise() {
    // Kill the trajectory at several different depths; every resume must
    // land on the uninterrupted run's energy, iteration count, and device
    // clock to the bit (acceptance bar: 1e-12 Ha — bitwise is stricter).
    // The second driver is the seeded chaotic cluster, so a non-quiet
    // `RecoveryLedger` crosses the checkpoint format as well; the
    // incremental run carries live accumulators and rebuild bookkeeping
    // across the kill, and quantized B3LYP the quantized-phase flag.
    let mol = builders::water();
    let solo = ScfConfig {
        e_tol: 1e-9,
        ..ScfConfig::default()
    };
    let chaotic = ScfConfig {
        distributed: Some(chaotic_cluster()),
        ..solo.clone()
    };
    let incremental = ScfConfig {
        incremental: true,
        ..solo.clone()
    };
    let quantized_b3lyp = ScfConfig {
        method: ScfMethod::Rks(b3lyp()),
        quantized: true,
        ..solo.clone()
    };
    for (label, config) in [
        ("solo", solo),
        ("chaotic cluster", chaotic),
        ("incremental", incremental),
        ("quantized B3LYP", quantized_b3lyp),
    ] {
        let driver = ScfDriver::new(&mol, &sto3g(), config);
        let full = driver.run().expect("uninterrupted run");
        assert!(full.converged);

        for kill_after in [1usize, 2, 5] {
            let path = scratch_ckpt(&format!("restart_{kill_after}"));
            let policy = CheckpointPolicy::new(1, path.clone());
            let err = driver
                .run_with(ScfRunOptions {
                    checkpoint: Some(policy.clone()),
                    kill_after: Some(kill_after),
                    ..ScfRunOptions::default()
                })
                .expect_err("interrupted run must die");
            assert_eq!(err, ScfError::Killed { iterations: kill_after });

            let ck = ScfCheckpoint::load(&path).expect("load checkpoint");
            assert_eq!(ck.next_iteration, kill_after);
            let resumed = driver
                .run_with(ScfRunOptions {
                    resume: Some(ck),
                    ..ScfRunOptions::default()
                })
                .expect("resumed run");
            assert!(resumed.converged);
            assert_eq!(
                resumed.energy.to_bits(),
                full.energy.to_bits(),
                "{label} kill@{kill_after}: resumed energy drifted: {:.15} vs {:.15} (Δ = {:.3e})",
                resumed.energy,
                full.energy,
                (resumed.energy - full.energy).abs()
            );
            assert_eq!(resumed.iterations, full.iterations, "{label} kill@{kill_after}");
            assert_eq!(
                resumed.total_seconds.to_bits(),
                full.total_seconds.to_bits(),
                "{label} kill@{kill_after}: device clock diverged across restart"
            );
            // The recovery ledger rides the checkpoint: what the faults cost
            // before the kill is still on the resumed run's books.
            let recovered = resumed.clock.total_recovery();
            assert_eq!(recovered.checkpoint_loads, 1);
            assert_eq!(
                RecoveryLedger {
                    checkpoint_saves: 0,
                    checkpoint_loads: 0,
                    ..recovered
                },
                full.clock.total_recovery(),
                "{label} kill@{kill_after}: recovery ledger changed across restart"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn checkpoint_restart_survives_repeated_kills() {
    // Crash → resume → crash again → resume again: the relay must still
    // finish on the uninterrupted energy, and each leg's checkpoints chain.
    let mol = builders::water();
    let driver = ScfDriver::new(&mol, &sto3g(), ScfConfig::default());
    let full = driver.run().expect("uninterrupted run");
    let path = scratch_ckpt("relay");
    let policy = CheckpointPolicy::new(2, path.clone());

    let mut resume: Option<ScfCheckpoint> = None;
    let mut finished = None;
    for kill_after in [2usize, 4, usize::MAX] {
        let opts = ScfRunOptions {
            checkpoint: Some(policy.clone()),
            resume: resume.take(),
            kill_after: (kill_after != usize::MAX).then_some(kill_after),
            poison_fock: None,
        };
        match driver.run_with(opts) {
            Ok(res) => {
                finished = Some(res);
                break;
            }
            Err(ScfError::Killed { iterations }) => {
                assert_eq!(iterations, kill_after);
                resume = Some(ScfCheckpoint::load(&path).expect("load checkpoint"));
            }
            Err(e) => panic!("unexpected SCF error: {e}"),
        }
    }
    let res = finished.expect("relay never finished");
    assert_eq!(res.energy.to_bits(), full.energy.to_bits());
    assert_eq!(res.iterations, full.iterations);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_rejects_wrong_problem() {
    // A checkpoint from one molecule must not resume another: the
    // fingerprint (nao, batches, quartets) check fails loudly instead of
    // silently producing garbage.
    let water = builders::water();
    let driver = ScfDriver::new(&water, &sto3g(), ScfConfig::default());
    let path = scratch_ckpt("fingerprint");
    let err = driver
        .run_with(ScfRunOptions {
            checkpoint: Some(CheckpointPolicy::new(1, path.clone())),
            kill_after: Some(2),
            ..ScfRunOptions::default()
        })
        .expect_err("interrupted run must die");
    assert_eq!(err, ScfError::Killed { iterations: 2 });

    let ck = ScfCheckpoint::load(&path).expect("load checkpoint");
    let methane = builders::methane();
    let other = ScfDriver::new(&methane, &sto3g(), ScfConfig::default());
    let err = other
        .run_with(ScfRunOptions {
            resume: Some(ck),
            ..ScfRunOptions::default()
        })
        .expect_err("fingerprint mismatch must be rejected");
    assert!(
        matches!(err, ScfError::Checkpoint(_)),
        "expected a checkpoint error, got: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Run `driver` with a checkpoint-every-iteration policy, kill it at
/// iteration 2, and hand back the checkpoint it left behind.
fn checkpoint_from(driver: &ScfDriver, tag: &str) -> ScfCheckpoint {
    let path = scratch_ckpt(tag);
    let err = driver
        .run_with(ScfRunOptions {
            checkpoint: Some(CheckpointPolicy::new(1, path.clone())),
            kill_after: Some(2),
            ..ScfRunOptions::default()
        })
        .expect_err("interrupted run must die");
    assert_eq!(err, ScfError::Killed { iterations: 2 });
    let ck = ScfCheckpoint::load(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);
    ck
}

#[test]
fn checkpoint_rejects_same_shape_different_geometry() {
    // The cross-tenant attack the shape triple cannot see: a perturbed
    // water has the same nao, batch count, and quartet count as the
    // pristine one, so only the v2 problem hash separates them. Resuming
    // tenant A's checkpoint on tenant B's near-identical molecule must fail
    // typed — not silently continue B's SCF from A's density.
    let water = ScfDriver::new(&builders::water(), &sto3g(), ScfConfig::default());
    let shifted = ScfDriver::new(
        &builders::perturbed_water(42, 1e-3),
        &sto3g(),
        ScfConfig::default(),
    );
    assert_eq!(water.nao(), shifted.nao());
    assert_eq!(water.nbatches(), shifted.nbatches());
    assert_eq!(water.nquartets(), shifted.nquartets());
    assert_ne!(
        water.problem_fingerprint(),
        shifted.problem_fingerprint(),
        "identical shapes must still hash as distinct problems"
    );

    let ck = checkpoint_from(&water, "geometry");
    assert_eq!(
        ck.validate(
            shifted.nao(),
            shifted.nbatches(),
            shifted.nquartets(),
            shifted.problem_fingerprint(),
        ),
        Err(CheckpointError::Mismatch { field: "problem" })
    );
    let err = shifted
        .run_with(ScfRunOptions {
            resume: Some(ck),
            ..ScfRunOptions::default()
        })
        .expect_err("cross-geometry resume must be rejected");
    assert_eq!(
        err,
        ScfError::Checkpoint(CheckpointError::Mismatch { field: "problem" })
    );
}

#[test]
fn checkpoint_rejects_same_molecule_different_device() {
    // Same molecule, same basis, different simulated device: the numbers
    // would even agree, but the device clock would not — a resumed
    // trajectory would splice A100 iteration timings into an H100 ledger
    // and silently break the bitwise-replay contract. The problem hash
    // covers the device kind, so the splice is refused up front.
    use mako::accel::DeviceKind;
    let mol = builders::water();
    let a100 = ScfDriver::new(&mol, &sto3g(), ScfConfig::default());
    let h100 = ScfDriver::new(
        &mol,
        &sto3g(),
        ScfConfig {
            device: DeviceSpec::new(DeviceKind::H100),
            ..ScfConfig::default()
        },
    );
    assert_eq!(a100.nao(), h100.nao());
    assert_ne!(a100.problem_fingerprint(), h100.problem_fingerprint());

    let ck = checkpoint_from(&a100, "device");
    let err = h100
        .run_with(ScfRunOptions {
            resume: Some(ck),
            ..ScfRunOptions::default()
        })
        .expect_err("cross-device resume must be rejected");
    assert_eq!(
        err,
        ScfError::Checkpoint(CheckpointError::Mismatch { field: "problem" })
    );
}
