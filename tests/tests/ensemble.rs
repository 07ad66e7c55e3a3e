//! Differential conformance suite for the lockstep ensemble driver.
//!
//! The ensemble's contract is that fusion is *pricing only*: every member of
//! a batched run must be **bitwise identical** — energy, density, iteration
//! count, rescue ledger — to the same molecule run one-at-a-time through
//! `ScfDriver::run`. Only the device clock (the thing the fusion improves)
//! is allowed to differ. This suite pins that contract:
//!
//! * batched vs solo bitwise identity at 1/2/4/8 threads and ensemble sizes
//!   1/2/7/16;
//! * a proptest over seeded geometry perturbations and shuffled ensemble
//!   order (member results are a function of the molecule, not of its
//!   neighbors or its slot);
//! * a golden 8-member pin where one stretched-water member climbs the
//!   rescue ladder while its seven healthy neighbors stay untouched;
//! * a chaos run (seeded transients + one rank loss) whose members are
//!   bitwise identical to the fault-free batched run, with all fault
//!   accounting on the ensemble ledger.

use mako::accel::fault::FaultPlan;
use mako::chem::basis::sto3g::sto3g;
use mako::chem::{builders, Molecule};
use mako::scf::{EnsembleConfig, EnsembleDriver, ScfConfig, ScfDriver, ScfResult};

/// Perturbation magnitude (Å) for seeded water fixtures: large enough that
/// every member converges to a distinct energy, small enough that plain
/// DIIS converges without rescue.
const PERTURB: f64 = 0.02;

fn perturbed_waters(n: usize) -> Vec<Molecule> {
    (0..n as u64)
        .map(|seed| builders::perturbed_water(seed, PERTURB))
        .collect()
}

fn solo_reference(mol: &Molecule, config: &ScfConfig) -> ScfResult {
    ScfDriver::new(mol, &sto3g(), config.clone())
        .run()
        .expect("solo reference run")
}

/// Bitwise member comparison: everything *except* the device clock
/// (`total_seconds`, `iteration_seconds`, per-iteration ledger), which fused
/// pricing intentionally changes.
fn assert_member_bitwise(got: &ScfResult, want: &ScfResult, label: &str) {
    assert_eq!(
        got.energy.to_bits(),
        want.energy.to_bits(),
        "{label}: energy changed bits: {:.15} vs {:.15}",
        got.energy,
        want.energy
    );
    assert_eq!(got.converged, want.converged, "{label}: converged flag");
    assert_eq!(got.iterations, want.iterations, "{label}: iteration count");
    assert_eq!(
        got.density.as_slice().len(),
        want.density.as_slice().len(),
        "{label}: density shape"
    );
    assert!(
        got.density
            .as_slice()
            .iter()
            .zip(want.density.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{label}: density matrix changed bits"
    );
    assert!(
        got.orbital_energies
            .iter()
            .zip(&want.orbital_energies)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{label}: orbital energies changed bits"
    );
    assert_eq!(got.rescue, want.rescue, "{label}: rescue ledger diverged");
}

// ---------------------------------------------------------------------------
// Batched vs one-at-a-time, across thread counts and ensemble sizes.
// ---------------------------------------------------------------------------

#[test]
fn batched_members_bitwise_match_solo_across_threads_and_sizes() {
    let config = ScfConfig::default();
    let mols = perturbed_waters(16);
    let solo: Vec<ScfResult> = mols.iter().map(|m| solo_reference(m, &config)).collect();

    for size in [1usize, 2, 7, 16] {
        let driver = EnsembleDriver::try_new(
            &mols[..size],
            &sto3g(),
            config.clone(),
            EnsembleConfig::default(),
        )
        .expect("ensemble driver");
        // Fused pricing changes the device clock relative to solo, but not
        // with the host pool: the 1-thread run's clock is the reference.
        let mut fused_clock: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build thread pool");
            let batch = pool.install(|| driver.run());
            assert!(batch.all_converged(), "size {size} at {threads} threads");
            let mut clock = vec![batch.ledger.fused_device_seconds.to_bits()];
            for (m, member) in batch.members.iter().enumerate() {
                let got = member.as_ref().expect("member result");
                assert_member_bitwise(
                    got,
                    &solo[m],
                    &format!("member {m} of {size} at {threads} threads"),
                );
                clock.push(got.total_seconds.to_bits());
            }
            assert_eq!(
                fused_clock.get_or_insert_with(|| clock.clone()),
                &clock,
                "size {size}: fused device clock changed bits at {threads} threads"
            );
        }
    }
}

#[test]
fn fusion_amortizes_launches_and_tuning() {
    // The whole point of the lockstep: fewer launches and tuner sweeps than
    // N solo runs, with the savings visible on the fleet ledger.
    let config = ScfConfig {
        quantized: true,
        ..ScfConfig::default()
    };
    let mols = perturbed_waters(4);
    let driver =
        EnsembleDriver::try_new(&mols, &sto3g(), config, EnsembleConfig::default())
            .expect("ensemble driver");
    // Identical basis + geometry class → every member past the first asks
    // the shared cache for kernels it already holds, so the fleet pays far
    // fewer tuner sweeps than four solo drivers would.
    assert!(
        driver.cache_hits() > 0,
        "shared KernelCache served no repeat requests"
    );
    let res = driver.run();
    assert!(res.all_converged());
    let ledger = &res.ledger;
    assert!(
        ledger.fused_launches < ledger.solo_launches,
        "fusion did not reduce launches: {} fused vs {} solo",
        ledger.fused_launches,
        ledger.solo_launches
    );
    assert!(
        ledger.fused_device_seconds < ledger.solo_device_seconds,
        "fused pricing did not beat per-molecule pricing"
    );
    assert!(ledger.fusion_savings_seconds() > 0.0);
    assert_eq!(
        ledger.launches_avoided(),
        ledger.solo_launches - ledger.fused_launches
    );
    // Member clocks are charged from the fused pricing (plus their own
    // diagonalization time), so the fleet total stays finite and positive.
    assert!(res.total_member_device_seconds() > 0.0);
    assert!(res.total_member_device_seconds().is_finite());
}

// ---------------------------------------------------------------------------
// Property: member results are a function of the molecule alone — not of
// the seed stream, the ensemble size, or the member's slot.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    // Each case runs `size` solo SCFs plus two ensemble runs on water
    // monomers; keep the case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ensemble_order_invariance(
        seeds in prop::collection::vec(0u64..1_000_000, 2..5),
        rot in 1usize..4,
    ) {
        let config = ScfConfig::default();
        let mols: Vec<Molecule> = seeds
            .iter()
            .map(|&s| builders::perturbed_water(s, PERTURB))
            .collect();
        // A rotation is a simple seeded shuffle: deterministic under
        // PROPTEST_RNG_SEED and guaranteed to move every slot when
        // rot % len != 0.
        let rot = rot % mols.len();
        let shuffled: Vec<Molecule> = (0..mols.len())
            .map(|i| mols[(i + rot) % mols.len()].clone())
            .collect();

        let run = |set: &[Molecule]| {
            EnsembleDriver::try_new(set, &sto3g(), config.clone(), EnsembleConfig::default())
                .expect("ensemble driver")
                .run()
        };
        let original = run(&mols);
        let rotated = run(&shuffled);

        for (i, mol) in mols.iter().enumerate() {
            let solo = solo_reference(mol, &config);
            let a = original.members[i].as_ref().expect("member result");
            // The same molecule sits at slot (i - rot) mod n of the rotated
            // ensemble; its result must not notice the move.
            let j = (i + mols.len() - rot) % mols.len();
            let b = rotated.members[j].as_ref().expect("member result");
            assert_member_bitwise(a, &solo, &format!("member {i} (original order)"));
            assert_member_bitwise(b, &solo, &format!("member {i} (rotated to slot {j})"));
        }
    }
}

// ---------------------------------------------------------------------------
// Golden pin: one sick member climbs the rescue ladder, seven healthy
// neighbors are untouched, and the whole fleet is thread-bitwise.
// ---------------------------------------------------------------------------

/// Converged energies (Hartree) of the golden 8-member ensemble: seven
/// seeded ±0.02 Å perturbed water monomers plus one 3.5×-stretched water
/// that converges only through the rescue ladder. Produced by this
/// repository (solo runs, `e_tol = 1e-8`); member 7 matches
/// `E_STRETCH3_RESCUED` of the golden suite.
const GOLDEN_ENSEMBLE: [f64; 8] = [
    -74.962_695_076_664,
    -74.960_990_584_065,
    -74.958_789_467_689,
    -74.960_135_508_541,
    -74.958_818_829_020,
    -74.964_468_905_557,
    -74.963_996_169_008,
    -74.257_552_560_520,
];
const GOLDEN_TOL: f64 = 1e-9;

fn golden_ensemble_mols() -> Vec<Molecule> {
    let mut mols = perturbed_waters(7);
    mols.push(builders::stretched_water(3.5));
    mols
}

fn golden_ensemble_config() -> ScfConfig {
    ScfConfig {
        e_tol: 1e-8,
        max_iterations: 60,
        rescue: true,
        ..ScfConfig::default()
    }
}

#[test]
fn golden_ensemble_with_rescued_member() {
    let mols = golden_ensemble_mols();
    let config = golden_ensemble_config();
    let driver =
        EnsembleDriver::try_new(&mols, &sto3g(), config.clone(), EnsembleConfig::default())
            .expect("ensemble driver");
    let base = driver.run();
    assert!(base.all_converged(), "golden ensemble failed to converge");

    for (m, member) in base.members.iter().enumerate() {
        let res = member.as_ref().expect("member result");
        assert!(
            (res.energy - GOLDEN_ENSEMBLE[m]).abs() < GOLDEN_TOL,
            "member {m} drifted from golden reference: {:.12} vs {:.12} (Δ = {:.3e} Ha)",
            res.energy,
            GOLDEN_ENSEMBLE[m],
            res.energy - GOLDEN_ENSEMBLE[m]
        );
        // Isolation: the stretched member's divergence must escalate through
        // ITS ladder only — healthy neighbors keep empty ledgers.
        if m == 7 {
            assert!(
                !res.rescue.is_empty(),
                "stretched member never exercised the rescue ladder"
            );
        } else {
            assert!(
                res.rescue.is_empty(),
                "healthy member {m} was perturbed by its sick neighbor: {}",
                res.rescue.summary()
            );
        }
        // The batched trajectory is the solo trajectory, rescue included.
        assert_member_bitwise(res, &solo_reference(&mols[m], &config), &format!("member {m}"));
    }

    // Thread sweep: the fleet, ladder and all, is bitwise reproducible.
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let res = pool.install(|| driver.run());
        for (m, member) in res.members.iter().enumerate() {
            assert_member_bitwise(
                member.as_ref().expect("member result"),
                base.members[m].as_ref().expect("member result"),
                &format!("golden member {m} at {threads} threads"),
            );
        }
        assert_eq!(
            res.ledger.super_iterations, base.ledger.super_iterations,
            "super-iteration count changed at {threads} threads"
        );
        assert_eq!(
            res.ledger.fused_device_seconds.to_bits(),
            base.ledger.fused_device_seconds.to_bits(),
            "fleet clock changed bits at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Chaos: faults hit the fleet ledger, never the members.
// ---------------------------------------------------------------------------

/// `stormy.ledger.recovery` of the test below, field by field in declaration
/// order.
const CHAOS_RECOVERY_LEDGER: [u64; 11] = [
    11,                    // transient_retries
    0x3f86_872b_020c_49bc, // backoff_seconds
    0,                     // straggler_ranks
    0,                     // stolen_batches
    3,                     // rerun_batches
    1,                     // ranks_lost
    0,                     // allreduce_retries
    0,                     // checkpoint_saves
    0,                     // checkpoint_loads
    0x3f22_9487_9662_cc36, // fault_free_seconds
    0x3f7d_5ac3_b705_c842, // degraded_seconds
];

#[test]
fn chaos_ensemble_members_bitwise_match_fault_free() {
    let config = ScfConfig::default();
    let mols = perturbed_waters(6);

    let quiet = EnsembleDriver::try_new(
        &mols,
        &sto3g(),
        config.clone(),
        EnsembleConfig {
            plan: FaultPlan::quiet(4),
        },
    )
    .expect("ensemble driver");
    let baseline = quiet.run();
    assert!(baseline.all_converged());
    // A quiet plan injects nothing and loses nobody.
    let rq = &baseline.ledger.recovery;
    assert_eq!(rq.transient_retries, 0);
    assert_eq!(rq.ranks_lost, 0);
    assert_eq!(
        rq.degraded_seconds.to_bits(),
        rq.fault_free_seconds.to_bits(),
        "quiet run degraded clock must equal the fault-free clock"
    );

    // Seeded chaos: a transient storm plus one permanent rank loss, the
    // same shape `build_jk_distributed`'s suite injects per-call.
    let chaotic = EnsembleDriver::try_new(
        &mols,
        &sto3g(),
        config.clone(),
        EnsembleConfig {
            plan: FaultPlan::quiet(4).kill_rank(2, 0.5).with_transients(0.15),
        },
    )
    .expect("ensemble driver");
    let stormy = chaotic.run();
    assert!(stormy.all_converged(), "faults leaked into member numerics");

    // Member isolation: every trajectory is bitwise identical to the
    // fault-free batched run (and hence to solo).
    for (m, member) in stormy.members.iter().enumerate() {
        assert_member_bitwise(
            member.as_ref().expect("member result"),
            baseline.members[m].as_ref().expect("member result"),
            &format!("member {m} under chaos"),
        );
    }

    // All fault accounting lands on the ensemble ledger.
    let rec = &stormy.ledger.recovery;
    assert!(rec.transient_retries > 0, "transient storm never fired");
    assert!(rec.backoff_seconds > 0.0, "retries charged no backoff");
    assert_eq!(rec.ranks_lost, 1, "exactly one rank should die");
    assert!(rec.rerun_batches > 0, "rank loss re-ran no launches");
    assert!(
        rec.degraded_seconds > rec.fault_free_seconds,
        "recovery cost vanished: degraded {} vs fault-free {}",
        rec.degraded_seconds,
        rec.fault_free_seconds
    );
    // The fault timeline itself is pinned to the bit: all eleven ledger
    // fields (counts, then `f64::to_bits`), generated at c1572ca.
    let got = [
        rec.transient_retries as u64,
        rec.backoff_seconds.to_bits(),
        rec.straggler_ranks as u64,
        rec.stolen_batches as u64,
        rec.rerun_batches as u64,
        rec.ranks_lost as u64,
        rec.allreduce_retries as u64,
        rec.checkpoint_saves as u64,
        rec.checkpoint_loads as u64,
        rec.fault_free_seconds.to_bits(),
        rec.degraded_seconds.to_bits(),
    ];
    assert_eq!(got, CHAOS_RECOVERY_LEDGER, "ensemble fault timeline moved: {got:#x?}");
    // The fused launch population is a function of the trajectories, which
    // chaos must not touch.
    assert_eq!(stormy.ledger.fused_launches, baseline.ledger.fused_launches);
    assert_eq!(
        stormy.ledger.super_iterations,
        baseline.ledger.super_iterations
    );
}

// ---------------------------------------------------------------------------
// Failure containment: a member that cannot be saved drains with its own
// error and the lockstep carries on.
// ---------------------------------------------------------------------------

#[test]
fn iteration_capped_member_drains_without_stalling_neighbors() {
    // The stretched water cannot converge in 10 iterations without rescue;
    // the perturbed monomers converge in 7. The sick member must drain at
    // the cap (converged = false) while its neighbors finish normally.
    let config = ScfConfig {
        max_iterations: 10,
        ..ScfConfig::default()
    };
    let mut mols = perturbed_waters(2);
    mols.push(builders::stretched_water(3.5));

    let res = EnsembleDriver::try_new(&mols, &sto3g(), config.clone(), EnsembleConfig::default())
        .expect("ensemble driver")
        .run();
    for (m, mol) in mols.iter().enumerate() {
        let got = res.members[m].as_ref().expect("member result");
        assert_member_bitwise(got, &solo_reference(mol, &config), &format!("member {m}"));
    }
    assert!(res.members[0].as_ref().expect("member").converged);
    assert!(res.members[1].as_ref().expect("member").converged);
    assert!(!res.members[2].as_ref().expect("member").converged);
}
