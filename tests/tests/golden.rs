//! Golden-reference conformance suite: converged SCF energies pinned to
//! hard-coded reference values, and required to be **bitwise identical**
//! across thread counts.
//!
//! The pins protect two different things at once:
//!
//! * **Conformance** — any change anywhere in the stack (integrals,
//!   screening, scatter, DIIS) that shifts a converged
//!   total energy by more than 1e-9 Ha fails loudly, with the drift in the
//!   message. Intentional physics changes must update the constants.
//! * **Determinism** — the same run repeated inside 1/2/4-thread rayon
//!   pools must produce the same energy to the bit; the parallel assembly
//!   engine guarantees host parallelism never reorders an accumulation.
//!
//! The references were produced by this repository itself (serial run,
//! `e_tol = 1e-10`), so they pin today's behavior, not an external code's.

use mako::accel::fault::FaultPlan;
use mako::chem::basis::sto3g::sto3g;
use mako::chem::{builders, BasisFamily, Molecule};
use mako::scf::{b3lyp, DistributedScf, RescueStage, ScfConfig, ScfDriver, ScfMethod, ScfResult};

/// Converged RHF/STO-3G total energy of the water monomer (Hartree).
const E_WATER: f64 = -74.962_928_418_750;
/// Converged RHF/STO-3G total energy of the water trimer (Hartree).
const E_WATER3: f64 = -224.883_558_801_398;
/// Converged B3LYP/STO-3G total energy of the water monomer on the (35, 12)
/// grid (Hartree) — the one pin that runs the grid, the AO tabulation and
/// `evaluate_xc`. Generated before `evaluate_xc` became the two-GEMM
/// assembly; re-pinned by −9.29e-6 Ha, inside `xc_quadrature.rs`'s 1e-4 Ha
/// quadrature bound, when the grid's angular order became pruned by radius.
const E_WATER_B3LYP: f64 = -75.275_070_659_299;
/// Converged RHF/STO-3G energy of 3.5×-stretched water, reachable only
/// through the full rescue ladder (`e_tol = 1e-8`). Re-pinned (3× → 3.5×)
/// when the packed-microkernel GEMM regrouped FP64 summation: the 1-ulp
/// Fock shifts nudged the 3× fixture off the edge of chaos and plain DIIS
/// started converging on it, so it no longer exercised the ladder.
const E_STRETCH3_RESCUED: f64 = -74.257_552_560_520;
/// Converged RHF total energy of the water monomer in the def2-TZVP-like
/// family (f shells on oxygen) at the default `e_tol = 1e-7` — what
/// `mako-cli --mol sample/water.xyz --basis def2-tzvp` prints. The first pin
/// above l = 1; quartet tensors reach 7⁴ = 2 401 doubles.
const E_WATER_TZVP: f64 = -60.453_593_948_5;
/// Conformance window around the pinned references.
const TOL: f64 = 1e-9;

fn tight_config() -> ScfConfig {
    // Tight convergence so the pinned value sits on the converged plateau:
    // platform-level FP jitter that shifts the iteration count can then
    // move the energy by ~1e-10, well inside the 1e-9 window.
    ScfConfig {
        e_tol: 1e-10,
        ..ScfConfig::default()
    }
}

fn run(mol: &Molecule) -> ScfResult {
    let driver = ScfDriver::new(mol, &sto3g(), tight_config());
    let res = driver.run().expect("scf run");
    assert!(res.converged, "golden run failed to converge");
    res
}

#[test]
fn golden_water_monomer_energy() {
    let res = run(&builders::water());
    assert!(
        (res.energy - E_WATER).abs() < TOL,
        "water monomer drifted from golden reference: {:.12} vs {:.12} (Δ = {:.3e} Ha)",
        res.energy,
        E_WATER,
        res.energy - E_WATER
    );
}

#[test]
fn golden_water_trimer_energy() {
    let res = run(&builders::water_cluster(3));
    assert!(
        (res.energy - E_WATER3).abs() < TOL,
        "water trimer drifted from golden reference: {:.12} vs {:.12} (Δ = {:.3e} Ha)",
        res.energy,
        E_WATER3,
        res.energy - E_WATER3
    );
}

fn tzvp_water_driver() -> ScfDriver {
    // The sample file's 8-digit geometry, not `builders::water()`: the two
    // differ by 1.2e-9 Ha, more than the window.
    let mol = Molecule::from_xyz(include_str!("../../sample/water.xyz")).expect("sample xyz");
    let basis = BasisFamily::Def2TzvpLike.basis_for(&mol.elements());
    ScfDriver::new(&mol, &basis, ScfConfig::default())
}

#[test]
fn golden_water_tzvp_like_energy() {
    let res = tzvp_water_driver().run().expect("scf run");
    assert!(res.converged);
    assert!(
        (res.energy - E_WATER_TZVP).abs() < TOL,
        "TZVP-like water drifted from golden reference: {:.12} vs {E_WATER_TZVP:.12} (Δ = {:.3e} Ha)",
        res.energy,
        res.energy - E_WATER_TZVP
    );
    assert_eq!(res.iterations, 10);
    assert_eq!(
        (res.stats.fp64_quartets, res.stats.quantized_quartets),
        (181_450, 0)
    );
}

#[test]
fn golden_water_tzvp_like_energy_identical_across_thread_counts() {
    let driver = tzvp_water_driver();
    let base = driver.run().expect("scf run");
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let res = pool.install(|| driver.run().expect("scf run"));
        assert_eq!(
            res.energy.to_bits(),
            base.energy.to_bits(),
            "TZVP-like water energy changed bits at {threads} threads"
        );
        assert_eq!(res.clock.iterations(), base.clock.iterations());
    }
}

#[test]
fn golden_energies_identical_across_thread_counts() {
    let b3lyp_config = ScfConfig {
        method: ScfMethod::Rks(b3lyp()),
        grid: (35, 12),
        ..tight_config()
    };
    for (mol, config, golden, label) in [
        (builders::water(), tight_config(), E_WATER, "water"),
        (builders::water_cluster(3), tight_config(), E_WATER3, "water trimer"),
        (builders::water(), b3lyp_config, E_WATER_B3LYP, "B3LYP water"),
    ] {
        let driver = ScfDriver::new(&mol, &sto3g(), config);
        let base = driver.run().expect("scf run");
        assert!(base.converged);
        assert!(
            (base.energy - golden).abs() < TOL,
            "{label} drifted from golden reference: {:.12} vs {golden:.12} (Δ = {:.3e} Ha)",
            base.energy,
            base.energy - golden
        );
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build thread pool");
            let res = pool.install(|| driver.run().expect("scf run"));
            assert_eq!(
                res.energy.to_bits(),
                base.energy.to_bits(),
                "{label} energy changed bits at {threads} threads: {:.15} vs {:.15}",
                res.energy,
                base.energy
            );
            assert_eq!(
                res.iterations, base.iterations,
                "{label} iteration count changed at {threads} threads"
            );
            assert_eq!(
                res.total_seconds.to_bits(),
                base.total_seconds.to_bits(),
                "{label} device clock changed bits at {threads} threads"
            );
            // The whole trajectory, not just its end: seconds and quartets
            // evaluated, quantized and pruned per iteration.
            assert_eq!(
                res.clock.iterations(),
                base.clock.iterations(),
                "{label} iteration ledgers changed at {threads} threads"
            );
        }
    }
}

#[test]
fn golden_trimer_energy_survives_rank_loss() {
    // Fault-tolerance conformance: the water trimer on a 2-rank cluster
    // that permanently loses rank 1 halfway through every iteration's Fock
    // build must converge inside the same golden window — and to the *bit*
    // of the fault-free distributed run (recovery re-executes, never
    // regroups, a floating-point sum).
    let mol = builders::water_cluster(3);
    let distributed_config = |plan: FaultPlan| ScfConfig {
        distributed: Some(DistributedScf { plan, cluster: None }),
        ..tight_config()
    };

    let quiet = ScfDriver::new(&mol, &sto3g(), distributed_config(FaultPlan::quiet(2)))
        .run()
        .expect("scf run");
    assert!(quiet.converged);
    assert!(
        (quiet.energy - E_WATER3).abs() < TOL,
        "distributed trimer drifted from golden reference: {:.12} (Δ = {:.3e} Ha)",
        quiet.energy,
        quiet.energy - E_WATER3
    );

    let plan = FaultPlan::quiet(2).kill_rank(1, 0.5);
    let lossy = ScfDriver::new(&mol, &sto3g(), distributed_config(plan))
        .run()
        .expect("scf run");
    assert!(lossy.converged);
    assert!(
        (lossy.energy - E_WATER3).abs() < TOL,
        "rank-loss trimer drifted from golden reference: {:.12} (Δ = {:.3e} Ha)",
        lossy.energy,
        lossy.energy - E_WATER3
    );
    assert_eq!(
        lossy.energy.to_bits(),
        quiet.energy.to_bits(),
        "rank loss changed the converged energy bits: {:.15} vs {:.15}",
        lossy.energy,
        quiet.energy
    );
    assert_eq!(lossy.iterations, quiet.iterations);
    let recovered = lossy.clock.total_recovery();
    assert_eq!(recovered.ranks_lost, lossy.iterations, "one loss per iteration");
    assert!(recovered.rerun_batches > 0);
}

#[test]
fn golden_rescue_is_bitwise_inert_on_healthy_trimer() {
    // The self-healing layer's inertness contract, at golden strength: on a
    // healthy trajectory the watchdog observes but never intervenes, and
    // the run with rescue ENABLED is bitwise identical — energy, converged
    // density, iteration count, and simulated device clock — to the run
    // with rescue DISABLED, at every host thread count.
    let mol = builders::water_cluster(3);
    let plain = ScfDriver::new(&mol, &sto3g(), tight_config());
    let rescued = ScfDriver::new(
        &mol,
        &sto3g(),
        ScfConfig {
            rescue: true,
            ..tight_config()
        },
    );
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let base = pool.install(|| plain.run().expect("plain scf run"));
        let res = pool.install(|| rescued.run().expect("rescued scf run"));
        assert!(base.converged && res.converged);
        assert!((base.energy - E_WATER3).abs() < TOL, "trimer drifted from golden reference");
        assert!(
            res.rescue.is_empty(),
            "watchdog intervened on a healthy trimer at {threads} threads: {}",
            res.rescue.summary()
        );
        assert_eq!(
            res.energy.to_bits(),
            base.energy.to_bits(),
            "rescue changed energy bits at {threads} threads: {:.15} vs {:.15}",
            res.energy,
            base.energy
        );
        assert_eq!(res.iterations, base.iterations, "iteration count changed at {threads} threads");
        assert_eq!(
            res.total_seconds.to_bits(),
            base.total_seconds.to_bits(),
            "device clock changed bits at {threads} threads"
        );
        assert!(
            res.density
                .as_slice()
                .iter()
                .zip(base.density.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "converged density changed bits at {threads} threads"
        );
    }
}

#[test]
fn golden_pathological_stretch_recovers_only_with_full_ladder() {
    // 3.5×-stretched water is the deterministic pathology: restricted SCF
    // with plain DIIS never converges in 60 iterations, while the rescue
    // ladder walks through ALL five stages — DIIS reset, density damping,
    // level shifting, quantization backoff, checkpoint rollback — and
    // lands on a pinned energy, bitwise reproducible across thread counts.
    let mol = builders::stretched_water(3.5);
    let config = |rescue: bool| ScfConfig {
        e_tol: 1e-8,
        max_iterations: 60,
        rescue,
        ..ScfConfig::default()
    };

    let plain = ScfDriver::new(&mol, &sto3g(), config(false)).run().expect("plain scf run");
    assert!(
        !plain.converged,
        "stretched water unexpectedly converged without rescue (E = {:.12}); \
         the pathological fixture no longer exercises the ladder",
        plain.energy
    );

    let driver = ScfDriver::new(&mol, &sto3g(), config(true));
    let base = driver.run().expect("rescued scf run");
    assert!(base.converged, "rescue ladder failed to recover stretched water");
    assert!(
        (base.energy - E_STRETCH3_RESCUED).abs() < TOL,
        "rescued energy drifted from golden reference: {:.12} vs {:.12} (Δ = {:.3e} Ha)",
        base.energy,
        E_STRETCH3_RESCUED,
        base.energy - E_STRETCH3_RESCUED
    );
    assert_eq!(
        base.rescue.stage_sequence(),
        vec![
            RescueStage::DiisReset,
            RescueStage::Damp,
            RescueStage::LevelShift,
            RescueStage::QuantBackoff,
            RescueStage::Rollback,
        ],
        "rescue ladder fired a different stage sequence: {}",
        base.rescue.summary()
    );

    for threads in [2usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let res = pool.install(|| driver.run().expect("rescued scf run"));
        assert_eq!(
            res.energy.to_bits(),
            base.energy.to_bits(),
            "rescued energy changed bits at {threads} threads: {:.15} vs {:.15}",
            res.energy,
            base.energy
        );
        assert_eq!(res.iterations, base.iterations);
        assert_eq!(
            res.rescue.stage_sequence(),
            base.rescue.stage_sequence(),
            "rescue ladder ran a different sequence at {threads} threads"
        );
    }
}

