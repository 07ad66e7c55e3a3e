//! Self-healing SCF: convergence watchdog and staged rescue ladder.
//!
//! PR 3 made the *distributed* layer fault-tolerant; this module does the
//! same for the *numerical* layer. A per-iteration watchdog classifies the
//! trajectory from the energy and DIIS-residual history (see
//! [`classify`]), and a deterministic rescue ladder escalates one stage per
//! anomaly, with a grace period between stages so each intervention gets a
//! chance to act:
//!
//! 1. **DIIS reset** — drop the extrapolation history that steered the
//!    trajectory into trouble;
//! 2. **density damping** — mix `D ← (1−α)·D_new + α·D_old` with α decaying
//!    geometrically back to zero once the trajectory recovers;
//! 3. **level shifting** — raise the virtual block by σ via
//!    `F ← F + σ·(S − S·D·S)` with σ on the same decay schedule;
//! 4. **quantization backoff** — force the `QuantSchedule` to the FP64
//!    reference, so quantization noise cannot be what stalls convergence;
//! 5. **rollback** — restore the last good in-memory [`RestorePoint`]
//!    with tightened settings (fresh DIIS, damping re-armed, FP64 backoff
//!    kept).
//!
//! Every transition is recorded in a [`RescueLedger`] and emitted as a
//! `scf.rescue` span via `mako-trace`. The whole subsystem is **provably
//! inert on healthy runs**: the watchdog only *reads* the trajectory, and
//! until a stage fires no floating-point operation of the driver changes,
//! so enabled-vs-disabled runs are bitwise identical (DESIGN.md §12 and
//! the golden inertness suite pin this).

use crate::checkpoint::RestorePoint;

/// Watchdog classification of the SCF trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryClass {
    /// Converging (or still in warm-up): no intervention.
    Healthy,
    /// The residual has stopped decaying while far from convergence.
    Stagnating,
    /// The energy alternates sign of ΔE with sustained amplitude — the
    /// classic two-state SCF oscillation.
    Oscillating,
    /// The residual (or energy) is growing.
    Diverging,
    /// The latest energy or residual is NaN/Inf.
    NonFinite,
}

impl TrajectoryClass {
    /// Stable lowercase label (ledger display, trace fields).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            TrajectoryClass::Healthy => "healthy",
            TrajectoryClass::Stagnating => "stagnating",
            TrajectoryClass::Oscillating => "oscillating",
            TrajectoryClass::Diverging => "diverging",
            TrajectoryClass::NonFinite => "non_finite",
        }
    }
}

/// A rung of the rescue ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescueStage {
    /// Stage 1: drop the DIIS history.
    DiisReset,
    /// Stage 2: arm density damping at α = 0.7.
    Damp,
    /// Stage 3: arm level shifting of the virtual block at σ = 1 Ha.
    LevelShift,
    /// Stage 4: force the FP64-reference schedule.
    QuantBackoff,
    /// Stage 5: restore the last good checkpoint with tightened settings.
    Rollback,
}

impl RescueStage {
    /// Stable lowercase label (ledger display, trace fields).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            RescueStage::DiisReset => "diis_reset",
            RescueStage::Damp => "damp",
            RescueStage::LevelShift => "level_shift",
            RescueStage::QuantBackoff => "quant_backoff",
            RescueStage::Rollback => "rollback",
        }
    }
}

// Watchdog thresholds and ladder schedule. They are deliberately
// conservative: on a trajectory making even slow steady progress nothing
// fires (the inertness contract); the classifier only trips on sustained
// growth, sustained sign-alternation, or a residual that is flat across
// the whole window while far from convergence.

/// Trailing window (iterations) the classifier examines.
const WINDOW: usize = 6;
/// Iterations of history required before the watchdog may fire at all
/// (warm-up: the first SCF steps legitimately thrash).
const MIN_HISTORY: usize = 4;
/// Diverging when the latest residual exceeds this factor times the
/// window minimum.
const DIVERGE_FACTOR: f64 = 3.0;
/// Diverging when the latest energy sits this far (Hartree) above the
/// window minimum.
const ENERGY_RISE_CAP: f64 = 1.0;
/// Stagnating when the residual retained more than this fraction of its
/// value across a full window (i.e. decayed less than `1 − fraction`).
const STAGNATION_FRACTION: f64 = 0.95;
/// Oscillating additionally requires the latest |ΔE| to stay above this
/// fraction of the window's largest |ΔE| (a *decaying* oscillation is
/// healthy ringing, not an anomaly).
const OSC_AMPLITUDE_FLOOR: f64 = 0.25;
/// Iterations between ladder escalations, so each stage can act before
/// the next fires.
const GRACE: usize = 2;
/// Initial density-mixing factor α of stage 2.
const DAMPING_START: f64 = 0.7;
/// Geometric per-iteration decay of α.
const DAMPING_DECAY: f64 = 0.85;
/// α below this disarms damping entirely.
const DAMPING_FLOOR: f64 = 0.05;
/// Initial virtual-block shift σ (Hartree) of stage 3.
const LEVEL_SHIFT: f64 = 1.0;
/// Geometric per-iteration decay of σ.
const SHIFT_DECAY: f64 = 0.9;
/// σ below this disarms the shift entirely.
const SHIFT_FLOOR: f64 = 1e-3;
/// History the engine keeps; the classifier only reads one window.
const HISTORY_KEPT: usize = 4 * WINDOW + 4;

/// Classify a trajectory from its energy and DIIS-residual history
/// (oldest first, both the same length; the driver appends one entry per
/// completed iteration). Pure function — the watchdog never touches the
/// numerics it observes.
///
/// Contract (pinned by the property suite):
/// * any monotonically converging trajectory — energy non-increasing,
///   residual decaying by at least a few percent per iteration — is always
///   [`TrajectoryClass::Healthy`];
/// * sustained residual growth or sustained constant-amplitude ΔE
///   alternation is flagged within one window of history.
pub fn classify(
    energies: &[f64],
    residuals: &[f64],
    e_tol: f64,
) -> TrajectoryClass {
    let n = energies.len().min(residuals.len());
    if n == 0 {
        return TrajectoryClass::Healthy;
    }
    let e_last = energies[n - 1];
    let r_last = residuals[n - 1];
    if !e_last.is_finite() || !r_last.is_finite() {
        return TrajectoryClass::NonFinite;
    }
    if n < MIN_HISTORY {
        return TrajectoryClass::Healthy;
    }
    // Never fire inside the convergence basin: the driver's own residual
    // bar is √e_tol, and relative wobble below it is normal endgame noise.
    if r_last < e_tol.sqrt() {
        return TrajectoryClass::Healthy;
    }
    let w = WINDOW.min(n);
    let e_w = &energies[n - w..];
    let r_w = &residuals[n - w..];
    let r_min = r_w.iter().copied().fold(f64::INFINITY, f64::min);
    let e_min = e_w.iter().copied().fold(f64::INFINITY, f64::min);

    // Diverging: the residual blew up relative to the window minimum, or
    // the energy climbed far above it.
    if r_last > DIVERGE_FACTOR * r_min || e_last > e_min + ENERGY_RISE_CAP {
        return TrajectoryClass::Diverging;
    }

    // Oscillating: ΔE alternates sign at every step of the window and the
    // latest amplitude has not collapsed.
    if w >= 4 {
        let de: Vec<f64> = e_w.windows(2).map(|p| p[1] - p[0]).collect();
        let alternating = de.windows(2).all(|p| p[0] * p[1] < 0.0);
        let max_de = de.iter().fold(0.0f64, |a, b| a.max(b.abs()));
        let last_de = de.last().copied().unwrap_or(0.0).abs();
        if alternating && max_de > e_tol && last_de > OSC_AMPLITUDE_FLOOR * max_de {
            return TrajectoryClass::Oscillating;
        }
    }

    // Stagnating: across a *full* window the residual barely moved while
    // still an order of magnitude above the convergence bar.
    if w >= WINDOW
        && r_last > STAGNATION_FRACTION * r_w[0]
        && r_last > 10.0 * e_tol.sqrt()
    {
        return TrajectoryClass::Stagnating;
    }
    TrajectoryClass::Healthy
}

/// One recorded watchdog intervention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RescueEvent {
    /// Iteration (0-based) at which the stage fired.
    pub iteration: usize,
    /// What the watchdog saw.
    pub classification: TrajectoryClass,
    /// The ladder stage applied.
    pub stage: RescueStage,
    /// Stage parameter: α for damping, σ for level shifting, 0 otherwise.
    pub(crate) detail: f64,
}

/// Chronological record of every rescue intervention of a run. Empty on a
/// healthy run — and the run is then bitwise identical to one with rescue
/// disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RescueLedger {
    events: Vec<RescueEvent>,
}

impl RescueLedger {
    /// All interventions, oldest first.
    pub fn events(&self) -> &[RescueEvent] {
        &self.events
    }

    /// The stage sequence alone — what the golden suite pins.
    pub fn stage_sequence(&self) -> Vec<RescueStage> {
        self.events.iter().map(|e| e.stage).collect()
    }

    /// Number of interventions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the run needed no rescue at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compact human-readable summary, e.g.
    /// `"iter 12 oscillating→diis_reset; iter 15 oscillating→damp"`.
    pub fn summary(&self) -> String {
        self.events
            .iter()
            .map(|e| {
                format!(
                    "iter {} {}→{}",
                    e.iteration,
                    e.classification.label(),
                    e.stage.label()
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    pub(crate) fn push(&mut self, event: RescueEvent) {
        self.events.push(event);
    }
}

/// Driver-side rescue engine: owns the trajectory history, the ladder
/// level, the active damping/shift values, and the last good restore point.
///
/// The driver consults the accessors ([`damping`](Self::damping),
/// [`shift`](Self::shift), [`quant_backoff`](Self::quant_backoff)) at fixed
/// points of the iteration; all of them return "off" until a stage fires,
/// which is what makes the subsystem inert on healthy runs.
pub(crate) struct RescueState {
    e_tol: f64,
    energies: Vec<f64>,
    residuals: Vec<f64>,
    level: usize,
    cooldown: usize,
    damping: Option<f64>,
    shift: Option<f64>,
    backoff: bool,
    rollback_done: bool,
    best_residual: f64,
    good: Option<Box<RestorePoint>>,
    ledger: RescueLedger,
}

impl RescueState {
    /// Fresh engine (ladder at level 0, no history).
    pub(crate) fn new(e_tol: f64) -> RescueState {
        RescueState {
            e_tol,
            energies: Vec::new(),
            residuals: Vec::new(),
            level: 0,
            cooldown: 0,
            damping: None,
            shift: None,
            backoff: false,
            rollback_done: false,
            best_residual: f64::INFINITY,
            good: None,
            ledger: RescueLedger::default(),
        }
    }

    /// Record one completed iteration and classify the trajectory.
    pub(crate) fn observe(&mut self, energy: f64, residual: f64) -> TrajectoryClass {
        self.energies.push(energy);
        self.residuals.push(residual);
        if self.energies.len() > HISTORY_KEPT {
            let cut = self.energies.len() - HISTORY_KEPT;
            self.energies.drain(..cut);
            self.residuals.drain(..cut);
        }
        classify(&self.energies, &self.residuals, self.e_tol)
    }

    /// Offer a good-state snapshot. Called on every healthy iteration; the
    /// engine keeps the snapshot with the best residual seen so far as the
    /// rollback target. The closure runs only when the snapshot is taken.
    pub(crate) fn note_healthy(&mut self, residual: f64, snapshot: impl FnOnce() -> RestorePoint) {
        if residual < self.best_residual {
            self.best_residual = residual;
            self.good = Some(Box::new(snapshot()));
        }
    }

    /// Escalate the ladder one stage for an anomalous classification.
    /// Returns the stage the driver must now apply, or `None` when healthy,
    /// inside the grace period, or the ladder is exhausted. The engine's
    /// own knobs (damping, shift, backoff) are already updated on return.
    pub(crate) fn escalate(
        &mut self,
        iteration: usize,
        class: TrajectoryClass,
    ) -> Option<RescueStage> {
        if class == TrajectoryClass::Healthy {
            self.cooldown = self.cooldown.saturating_sub(1);
            return None;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let next = self.level + 1;
        let (stage, detail) = match next {
            1 => (RescueStage::DiisReset, 0.0),
            2 => {
                self.damping = Some(DAMPING_START);
                (RescueStage::Damp, DAMPING_START)
            }
            3 => {
                self.shift = Some(LEVEL_SHIFT);
                (RescueStage::LevelShift, LEVEL_SHIFT)
            }
            4 => {
                self.backoff = true;
                (RescueStage::QuantBackoff, 0.0)
            }
            5 if !self.rollback_done && self.good.is_some() => {
                self.arm_rollback();
                (RescueStage::Rollback, 0.0)
            }
            _ => return None, // ladder exhausted
        };
        self.level = next;
        self.cooldown = GRACE;
        self.ledger.push(RescueEvent {
            iteration,
            classification: class,
            stage,
            detail,
        });
        Some(stage)
    }

    /// Non-finite containment: jump straight to rollback (the only stage
    /// that can undo a poisoned state). Returns `true` when a rollback
    /// target exists and has not been spent; the driver then restores from
    /// [`rollback_point`](Self::rollback_point). `false` means
    /// the run must fail with `ScfError::NonFinite`.
    pub(crate) fn contain_non_finite(&mut self, iteration: usize) -> bool {
        if self.rollback_done || self.good.is_none() {
            return false;
        }
        self.arm_rollback();
        self.level = 5;
        self.cooldown = GRACE;
        self.ledger.push(RescueEvent {
            iteration,
            classification: TrajectoryClass::NonFinite,
            stage: RescueStage::Rollback,
            detail: 0.0,
        });
        true
    }

    /// Tightened post-rollback settings: damping re-armed at full strength,
    /// FP64 backoff on, trajectory history cleared (the restored state
    /// starts a fresh window), rollback spent.
    fn arm_rollback(&mut self) {
        self.rollback_done = true;
        self.backoff = true;
        self.damping = Some(DAMPING_START);
        self.energies.clear();
        self.residuals.clear();
    }

    /// The restore point a just-fired rollback restores. Present exactly
    /// when [`Self::escalate`]/[`Self::contain_non_finite`] returned the
    /// rollback stage.
    pub(crate) fn rollback_point(&self) -> Option<&RestorePoint> {
        self.good.as_deref()
    }

    /// Decay the active damping and shift toward "off". Called once per
    /// iteration, after their values were consumed.
    pub(crate) fn decay(&mut self) {
        if let Some(a) = self.damping {
            let a = a * DAMPING_DECAY;
            self.damping = (a >= DAMPING_FLOOR).then_some(a);
        }
        if let Some(s) = self.shift {
            let s = s * SHIFT_DECAY;
            self.shift = (s >= SHIFT_FLOOR).then_some(s);
        }
    }

    /// Active density-mixing factor α, if stage 2 has fired and not yet
    /// decayed away.
    pub(crate) fn damping(&self) -> Option<f64> {
        self.damping
    }

    /// Active virtual-block shift σ, if stage 3 has fired and not yet
    /// decayed away.
    pub(crate) fn shift(&self) -> Option<f64> {
        self.shift
    }

    /// Whether stage 4 has fired: the driver must use the FP64-reference
    /// schedule from now on.
    pub(crate) fn quant_backoff(&self) -> bool {
        self.backoff
    }

    /// Current ladder level (0 = never fired).
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// The ledger so far.
    pub(crate) fn ledger(&self) -> &RescueLedger {
        &self.ledger
    }

    /// Consume the engine, yielding the final ledger.
    pub(crate) fn into_ledger(self) -> RescueLedger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converging_trajectory_is_healthy() {
        let mut e = Vec::new();
        let mut r = Vec::new();
        let mut energy = -70.0;
        let mut res = 1.0;
        for _ in 0..30 {
            e.push(energy);
            r.push(res);
            assert_eq!(classify(&e, &r, 1e-7), TrajectoryClass::Healthy);
            energy -= 0.5 * res;
            res *= 0.6;
        }
    }

    #[test]
    fn residual_growth_classifies_diverging() {
        let mut e = Vec::new();
        let mut r = Vec::new();
        let mut res = 1e-2;
        let mut fired = false;
        for i in 0..10 {
            e.push(-70.0 - i as f64 * 1e-3);
            r.push(res);
            res *= 2.0;
            if classify(&e, &r, 1e-7) == TrajectoryClass::Diverging {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained residual growth must classify diverging");
    }

    #[test]
    fn energy_alternation_classifies_oscillating() {
        let mut e = Vec::new();
        let mut r = Vec::new();
        let mut fired = false;
        for i in 0..12 {
            e.push(-70.0 + if i % 2 == 0 { 0.3 } else { -0.3 });
            r.push(0.5);
            let class = classify(&e, &r, 1e-7);
            if class != TrajectoryClass::Healthy {
                assert!(
                    matches!(class, TrajectoryClass::Oscillating | TrajectoryClass::Stagnating),
                    "{class:?}"
                );
                fired = true;
                break;
            }
        }
        assert!(fired, "constant-amplitude alternation must fire");
    }

    #[test]
    fn flat_residual_classifies_stagnating() {
        // Strictly decreasing energy but a residual frozen far from the
        // bar: no oscillation, no divergence — stagnation.
        let e: Vec<f64> = (0..10).map(|i| -70.0 - i as f64 * 1e-9).collect();
        let r = vec![0.3; 10];
        assert_eq!(classify(&e, &r, 1e-7), TrajectoryClass::Stagnating);
    }

    #[test]
    fn non_finite_is_flagged_immediately() {
        assert_eq!(
            classify(&[-70.0, f64::NAN], &[0.1, 0.1], 1e-7),
            TrajectoryClass::NonFinite
        );
        assert_eq!(
            classify(&[-70.0, -70.1], &[0.1, f64::INFINITY], 1e-7),
            TrajectoryClass::NonFinite
        );
    }

    #[test]
    fn near_convergence_wobble_is_healthy() {
        // Residual below √e_tol: endgame noise, never an anomaly.
        let e = vec![-70.0; 8];
        let r = vec![1e-5; 8];
        assert_eq!(classify(&e, &r, 1e-7), TrajectoryClass::Healthy);
    }

    #[test]
    fn ladder_escalates_in_order_with_grace() {
        let mut st = RescueState::new(1e-7);
        let mut stages = Vec::new();
        // Feed a persistent anomaly; grace = 2 means two skipped firings
        // between stages.
        for i in 0..20 {
            if let Some(s) = st.escalate(i, TrajectoryClass::Oscillating) {
                stages.push(s);
            }
        }
        // No snapshot was ever offered, so rollback is unavailable.
        assert_eq!(
            stages,
            vec![
                RescueStage::DiisReset,
                RescueStage::Damp,
                RescueStage::LevelShift,
                RescueStage::QuantBackoff,
            ]
        );
        assert_eq!(st.ledger().len(), 4);
        assert!(st.quant_backoff());
        assert!(st.damping().is_some() || st.shift().is_some());
    }

    #[test]
    fn healthy_observations_never_arm_anything() {
        let mut st = RescueState::new(1e-7);
        let mut res = 1.0;
        for i in 0..20 {
            let class = st.observe(-70.0 - i as f64, res);
            assert_eq!(class, TrajectoryClass::Healthy);
            assert_eq!(st.escalate(i, class), None);
            res *= 0.5;
        }
        assert!(st.ledger().is_empty());
        assert_eq!(st.level(), 0);
        assert!(st.damping().is_none() && st.shift().is_none() && !st.quant_backoff());
    }

    #[test]
    fn damping_and_shift_decay_to_off() {
        let mut st = RescueState::new(1e-7);
        st.escalate(0, TrajectoryClass::Oscillating); // DiisReset
        for i in 1..10 {
            st.escalate(i, TrajectoryClass::Oscillating);
        }
        assert!(st.damping().is_some() && st.shift().is_some());
        for _ in 0..200 {
            st.decay();
        }
        assert!(st.damping().is_none(), "α must decay below the floor");
        assert!(st.shift().is_none(), "σ must decay below the floor");
    }

    #[test]
    fn non_finite_containment_requires_a_snapshot() {
        let mut st = RescueState::new(1e-7);
        assert!(!st.contain_non_finite(3), "no snapshot yet → must fail");
        st.note_healthy(0.5, sample_point);
        assert!(st.contain_non_finite(4));
        assert!(!st.contain_non_finite(5), "rollback is single-use");
        assert_eq!(st.ledger().stage_sequence(), vec![RescueStage::Rollback]);
        assert_eq!(st.ledger().events()[0].classification, TrajectoryClass::NonFinite);
        assert!(st.quant_backoff() && st.damping().is_some());
    }

    #[test]
    fn best_residual_snapshot_wins() {
        let mut st = RescueState::new(1e-7);
        st.note_healthy(0.5, || RestorePoint {
            energy: -1.0,
            ..sample_point()
        });
        st.note_healthy(0.1, || RestorePoint {
            energy: -2.0,
            ..sample_point()
        });
        // Worse residual: closure must not even run.
        st.note_healthy(0.4, || panic!("worse snapshot must not be captured"));
        assert_eq!(st.rollback_point().unwrap().energy, -2.0);
    }

    #[test]
    fn ledger_summary_reads_well() {
        let mut st = RescueState::new(1e-7);
        st.escalate(7, TrajectoryClass::Diverging);
        let s = st.ledger().summary();
        assert!(s.contains("iter 7"), "{s}");
        assert!(s.contains("diverging→diis_reset"), "{s}");
    }

    fn sample_point() -> RestorePoint {
        RestorePoint {
            density: mako_linalg::Matrix::identity(2),
            e_prev: -1.0,
            energy: -1.0,
            residual: 0.5,
            residual_prev: 0.6,
            orbital_energies: vec![-0.5, 0.5],
        }
    }
}
