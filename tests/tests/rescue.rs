//! Self-healing SCF integration suite: non-finite containment with typed
//! failure attribution, linear-dependence-safe orthogonalization
//! diagnostics, and the `scf.rescue` / `scf.setup` / `scf.non_finite`
//! trace contract (DESIGN.md §12).
//!
//! The inertness and recovery *golden* pins live in `golden.rs`; the
//! classifier's property contract lives in `properties.rs`. This file
//! covers the failure-containment surfaces.

use mako::chem::basis::sto3g::sto3g;
use mako::chem::molecule::{Atom, Molecule};
use mako::chem::{builders, Element};
use mako::scf::{
    NonFiniteStage, RescueConfig, RescueStage, ScfConfig, ScfDriver, ScfError, ScfRunOptions,
    TrajectoryClass,
};

/// H₂ at equilibrium with every atom doubled at 1e-5 Å separation: a
/// deterministic near-linear-dependent basis (two overlap eigenvalues
/// collapse to 2.4e-11) that canonical orthogonalization must survive.
/// (At 1e-4 Å, eigenvalues 2.4e-9, the unguarded iteration merely stalled
/// 2e-8 Ha above its limit on the series-Boys quartet engine, and converges in
/// 14 iterations on the table-Boys one; at 1e-5 Å it is wrecked on both.)
fn doubled_h2() -> Molecule {
    let mut m = Molecule::new("H2-doubled");
    m.atoms.push(Atom::new_angstrom(Element::H, [0.0, 0.0, 0.0]));
    m.atoms.push(Atom::new_angstrom(Element::H, [0.0, 0.0, 1e-5]));
    m.atoms.push(Atom::new_angstrom(Element::H, [0.0, 0.0, 0.74]));
    m.atoms.push(Atom::new_angstrom(Element::H, [0.0, 0.0, 0.74 + 1e-5]));
    m
}

#[test]
fn nan_poison_without_rescue_fails_with_typed_attribution() {
    // A NaN injected into the Coulomb matrix at iteration 3 must surface as
    // the typed error naming the iteration and the assembly stage — never
    // as a silent garbage energy.
    let err = ScfDriver::new(&builders::water(), &sto3g(), ScfConfig::default())
        .run_with(ScfRunOptions {
            poison_fock: Some(3),
            ..ScfRunOptions::default()
        })
        .expect_err("poisoned run without rescue must fail");
    assert_eq!(
        err,
        ScfError::NonFinite {
            iteration: 3,
            stage: NonFiniteStage::Coulomb,
        },
        "wrong attribution: {err}"
    );
}

#[test]
fn nan_poison_with_rescue_rolls_back_and_converges() {
    // Same poison, rescue enabled: containment jumps straight to the
    // rollback stage, restores the best healthy snapshot, and the run
    // still converges onto the clean answer.
    let clean = ScfDriver::new(&builders::water(), &sto3g(), ScfConfig::default())
        .run()
        .expect("clean scf run");
    let res = ScfDriver::new(
        &builders::water(),
        &sto3g(),
        ScfConfig {
            rescue: Some(RescueConfig::default()),
            ..ScfConfig::default()
        },
    )
    .run_with(ScfRunOptions {
        poison_fock: Some(3),
        ..ScfRunOptions::default()
    })
    .expect("poisoned run with rescue must recover");
    assert!(res.converged, "contained run failed to converge");
    assert!(
        (res.energy - clean.energy).abs() < 1e-6,
        "contained run landed away from the clean energy: {:.12} vs {:.12}",
        res.energy,
        clean.energy
    );
    let events = res.rescue.events();
    assert_eq!(events.len(), 1, "expected exactly one containment event: {}", res.rescue.summary());
    assert_eq!(events[0].iteration, 3);
    assert_eq!(events[0].classification, TrajectoryClass::NonFinite);
    assert_eq!(events[0].stage, RescueStage::Rollback);
}

#[test]
fn near_linear_dependence_is_dropped_and_reported() {
    // Canonical orthogonalization must shed the two collapsed overlap
    // directions, report them through the typed diagnostics, and converge.
    // The keep-everything run (threshold far below the collapsed
    // eigenvalues) demonstrates WHY the guard exists: amplifying the
    // near-null directions by λ^{-1/2} ≈ 2×10⁵ wrecks the iteration, and
    // plain SCF stalls on the very same molecule.
    let config = |orth_threshold: f64| ScfConfig {
        orth_threshold,
        ..ScfConfig::default()
    };
    let unguarded = ScfDriver::new(&doubled_h2(), &sto3g(), config(1e-12))
        .run()
        .expect("keep-everything run");
    assert_eq!(unguarded.orth.n_dropped, 0, "1e-12 threshold must drop nothing");
    assert!(
        unguarded.orth.smallest_kept.is_finite() && unguarded.orth.smallest_kept > 0.0,
        "smallest kept eigenvalue must be reported"
    );
    assert!(
        !unguarded.converged,
        "ill-conditioned basis unexpectedly converged without the guard (E = {:.8}); \
         the fixture no longer exercises linear dependence",
        unguarded.energy
    );

    let res = ScfDriver::new(&doubled_h2(), &sto3g(), config(1e-4))
        .run()
        .expect("projected run");
    assert!(res.converged, "linear-dependent basis failed to converge with the guard");
    assert!(res.energy.is_finite());
    assert_eq!(
        res.orth.n_dropped, 2,
        "expected both duplicated directions dropped (smallest kept {:.3e})",
        res.orth.smallest_kept
    );
    assert!((res.orth.threshold - 1e-4).abs() < 1e-18);
    assert!(
        res.orth.smallest_kept > res.orth.threshold,
        "smallest kept eigenvalue {:.3e} is not above the threshold",
        res.orth.smallest_kept
    );
    assert!(
        res.orth.smallest_kept > unguarded.orth.smallest_kept,
        "dropping must improve the conditioning of the surviving basis"
    );
}

#[test]
fn rescue_emits_schema_valid_spans() {
    // The observability half of the tentpole: a rescued pathological run
    // must emit `scf.setup` (with the orthogonalization diagnostics), one
    // `scf.rescue` span per ladder stage, and `scf.non_finite` instants for
    // contained poisoning — all registered event names, all schema-valid.
    mako::trace::enable_with_capacity(1 << 18);

    let res = ScfDriver::new(
        &builders::stretched_water(3.0),
        &sto3g(),
        ScfConfig {
            e_tol: 1e-8,
            max_iterations: 60,
            rescue: Some(RescueConfig::default()),
            ..ScfConfig::default()
        },
    )
    .run()
    .expect("rescued pathological run");
    assert!(res.converged && !res.rescue.is_empty());

    let poisoned = ScfDriver::new(
        &builders::water(),
        &sto3g(),
        ScfConfig {
            rescue: Some(RescueConfig::default()),
            ..ScfConfig::default()
        },
    )
    .run_with(ScfRunOptions {
        poison_fock: Some(3),
        ..ScfRunOptions::default()
    })
    .expect("contained poisoned run");
    assert!(poisoned.converged);

    let dump = mako::trace::drain();
    assert!(dump.recorded > 0, "no events recorded");
    let jsonl = dump.to_jsonl();
    let summary = mako::trace::schema::validate_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("rescue trace violates its own schema: {e}"));
    for name in ["scf.setup", "scf.rescue", "scf.non_finite"] {
        assert!(
            summary.names.contains(name),
            "expected event {name} missing; saw {:?}",
            summary.names
        );
        assert!(
            mako::trace::schema::is_known_event(name),
            "{name} is not in the KNOWN_EVENTS registry"
        );
    }
    // One scf.rescue span per recorded intervention (both runs together).
    let rescue_spans = jsonl
        .lines()
        .filter(|l| l.contains("\"cat\":\"scf\",\"name\":\"rescue\""))
        .count();
    assert!(
        rescue_spans >= res.rescue.len() + poisoned.rescue.len(),
        "expected ≥{} scf.rescue spans, saw {rescue_spans}",
        res.rescue.len() + poisoned.rescue.len()
    );
}
