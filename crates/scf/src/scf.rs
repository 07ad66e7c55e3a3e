//! Restricted Hartree–Fock and restricted Kohn–Sham (DFT) drivers.
//!
//! The driver executes the paper's three-stage DFT workflow per iteration —
//! ERI/Fock build on the (simulated) accelerator, exchange-correlation
//! quadrature assembled as MatMuls, dense diagonalization — and reports the
//! paper's metrics: total energy, average SCF-iteration *device* time
//! excluding the first iteration (Figure 8's metric), and scheduling
//! statistics.

use crate::checkpoint::{CarriedState, RestorePoint, ScfCheckpoint};
use crate::diis::Diis;
use crate::error::{NonFiniteStage, ScfError};
use crate::fock::{
    attribute_non_finite, build_jk, FockBuildStats, JkMatrices, TensorStore, TENSOR_STORE_BYTES,
};
use crate::grid::MolecularGrid;
use crate::parallel::{build_shares, DistributedScf};
use crate::rescue::{RescueLedger, RescueStage, RescueState, TrajectoryClass};
use crate::xc::{evaluate_aos, evaluate_xc, hartree_fock, AoOnGrid, XcFunctional};
use mako_accel::fault::RecoveryLedger;
use mako_accel::{CostModel, DeviceClock, DeviceSpec, IterationLedger};
use mako_chem::{AoLayout, BasisSet, Molecule, Shell};
use mako_compiler::KernelCache;
use mako_eri::batch::{batch_quartets, QuartetBatch};
use mako_eri::one_electron::{one_electron_matrices, one_electron_prim_pairs};
use mako_eri::screening::{build_screened_pairs, ScreenedPair};
use mako_kernels::pipeline::PipelineConfig;
use mako_linalg::{eigh, gemm, sym_inv_sqrt_diag, LinalgError, Matrix, Transpose};
use mako_precision::Precision;
use mako_quant::QuantSchedule;
use mako_store::mix;
use parking_lot::Mutex;
use std::path::PathBuf;

/// Electronic-structure method.
#[derive(Debug, Clone)]
pub enum ScfMethod {
    /// Restricted Hartree–Fock.
    Rhf,
    /// Restricted Kohn–Sham with the given functional (typically B3LYP).
    Rks(XcFunctional),
}

/// The DIIS divergence guard's threshold. It keeps the name it had when it
/// also held the retired incremental engine's policy, because the
/// benchmark's replay reads it through [`ScfConfig::incremental_policy`];
/// ROADMAP item 12's benchmark change renames both.
#[derive(Debug, Clone)]
pub struct IncrementalPolicy {
    /// Divergence guard: when the DIIS residual grows by more than this
    /// factor between iterations, restart DIIS.
    pub divergence_factor: f64,
}

impl Default for IncrementalPolicy {
    fn default() -> IncrementalPolicy {
        IncrementalPolicy {
            divergence_factor: 10.0,
        }
    }
}

/// When and where the driver writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Save after every `every` completed iterations, and after the
    /// iteration at which [`ScfRunOptions::kill_after`] fires whatever
    /// `every` is. 0 disables saving, the kill's save included.
    pub every: usize,
    /// Checkpoint file path on the real filesystem (overwritten atomically
    /// on each save).
    pub path: PathBuf,
}

impl CheckpointPolicy {
    /// Save every `every` iterations to `path`.
    pub fn new(every: usize, path: PathBuf) -> CheckpointPolicy {
        CheckpointPolicy { every, path }
    }
}

/// Per-run options of [`ScfDriver::run_with`]: checkpointing, resumption,
/// and the chaos harness's deliberate mid-trajectory kill.
#[derive(Debug, Clone, Default)]
pub struct ScfRunOptions {
    /// Periodic checkpointing policy.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from this checkpoint instead of the core-Hamiltonian guess.
    /// The checkpoint's fingerprint must match this driver's problem. On the
    /// driver whose run was killed, the resumed run also takes the quartet
    /// tensors that run left parked, so it evaluates none of them again; on
    /// a new driver it recomputes them. Either way the result is bitwise
    /// the same.
    pub resume: Option<ScfCheckpoint>,
    /// Abort with [`ScfError::Killed`] after this many completed iterations
    /// (counted from iteration 0 of the *original* trajectory, so a resumed
    /// run can be killed again later). The error carries the checkpoint to
    /// resume from, so a serve's quantum hands its state back in memory. A
    /// run with a [`CheckpointPolicy`] whose `every` is not 0 also saves
    /// that checkpoint at the killing iteration, multiple of `every` or
    /// not, before the kill fires: a crash after the boundary finds it.
    pub kill_after: Option<usize>,
    /// Chaos harness: overwrite `J[(0,0)]` with NaN right after the Fock
    /// build of this iteration, exercising the non-finite containment path
    /// exactly as a poisoned kernel would.
    pub poison_fock: Option<usize>,
}

/// SCF configuration.
#[derive(Debug, Clone)]
pub struct ScfConfig {
    /// Method (RHF or RKS).
    pub method: ScfMethod,
    /// Energy convergence threshold (the paper uses 1e-7).
    pub e_tol: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Enable QuantMako (quantized kernels with convergence-aware
    /// scheduling); `false` = pure FP64 reference.
    pub quantized: bool,
    /// Shell-pair / quartet Schwarz screening threshold.
    pub screening: f64,
    /// Optional override of the quartet-level batching threshold (the bar
    /// on `Q_ab·Q_cd` a pair-of-pairs must clear to enter a batch);
    /// `None` keeps the default `screening²`. Benchmarks on large systems
    /// raise it to bound the workload deterministically.
    pub quartet_threshold: Option<f64>,
    /// Read by nothing: every iteration builds J/K from the whole density.
    /// The benchmark's workloads still set it; ROADMAP item 12's benchmark
    /// change deletes that and then this field.
    pub incremental: bool,
    /// The DIIS divergence guard's threshold (see [`IncrementalPolicy`]).
    pub incremental_policy: IncrementalPolicy,
    /// DFT grid fineness: (radial shells per atom, largest angular order
    /// n_θ). Each shell carries an `n × 2n` angular rule whose order n is
    /// pruned by radius ([`crate::grid`]): only the valence region,
    /// R ≤ r < 4.5 R for an atom of size R, keeps n_θ; the core and the tail
    /// take down to a third of it. A Kohn–Sham driver refuses a size without
    /// grid points ([`ScfError::EmptyGrid`]).
    pub grid: (usize, usize),
    /// Simulated device to run on.
    pub device: DeviceSpec,
    /// Distributed Fock execution (multi-rank, fault-tolerant); `None`
    /// builds on the single simulated device.
    pub distributed: Option<DistributedScf>,
    /// Self-healing watchdog + staged rescue ladder (see [`crate::rescue`]
    /// for its fixed thresholds and schedule). Enabled-but-idle is bitwise
    /// identical to disabled — the inertness contract pinned by the golden
    /// suite.
    pub rescue: bool,
    /// Canonical-orthogonalization threshold: overlap eigenvectors with
    /// eigenvalue at or below this are projected out (linear-dependence
    /// guard); the count surfaces in [`ScfResult::orth`].
    pub orth_threshold: f64,
}

impl Default for ScfConfig {
    fn default() -> ScfConfig {
        ScfConfig {
            method: ScfMethod::Rhf,
            e_tol: 1e-7,
            max_iterations: 100,
            quantized: false,
            screening: 1e-10,
            quartet_threshold: None,
            incremental: false,
            incremental_policy: IncrementalPolicy::default(),
            grid: (30, 10),
            device: DeviceSpec::a100(),
            distributed: None,
            rescue: false,
            orth_threshold: 1e-10,
        }
    }
}

/// Linear-dependence diagnostics of the canonical orthogonalization: how
/// much of the AO basis survived the overlap-eigenvalue threshold.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OrthDiagnostics {
    /// Overlap eigenvectors projected out (eigenvalue ≤ threshold).
    pub n_dropped: usize,
    /// Smallest retained overlap eigenvalue — conditioning of the surviving
    /// basis (`+∞` when everything was dropped).
    pub smallest_kept: f64,
    /// The threshold that was applied ([`ScfConfig::orth_threshold`]).
    pub threshold: f64,
}

/// Converged (or not) SCF outcome.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Total energy (electronic + nuclear), Hartree.
    pub energy: f64,
    /// Nuclear repulsion part.
    pub e_nuclear: f64,
    /// Whether |ΔE| fell below tolerance within the iteration budget.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Orbital energies (ascending).
    pub orbital_energies: Vec<f64>,
    /// Final density matrix (D = Σ_occ C Cᵀ).
    pub density: Matrix,
    /// Simulated device seconds per iteration.
    pub iteration_seconds: Vec<f64>,
    /// Average iteration device time excluding the first iteration —
    /// Figure 8's reported metric.
    pub avg_iteration_seconds: f64,
    /// Total simulated device seconds.
    pub total_seconds: f64,
    /// Fock-build statistics summed over the iterations. Its
    /// `device_seconds` is the run's total device time (ERI + XC +
    /// diagonalization, the same as `total_seconds`), not the ERI share.
    pub stats: FockBuildStats,
    /// Per-iteration device-clock ledger: simulated seconds charged next to
    /// the evaluated / quantized / pruned quartet populations.
    pub clock: DeviceClock,
    /// Every rescue-ladder intervention of the run, oldest first. Empty on
    /// a healthy run (and then the run is bitwise identical to one with
    /// rescue disabled).
    pub rescue: RescueLedger,
    /// Linear-dependence diagnostics of the orthogonalizer.
    pub orth: OrthDiagnostics,
    /// Bytes of quartet tensors, FP64 and quantized, the host held at the
    /// end of the run. A run resumed on the driver that was killed keeps
    /// the killed sessions' tensors, so this covers all of them; a run
    /// resumed on a new driver covers its own sessions only.
    pub tensor_store_bytes: usize,
    /// Quartet evaluations, FP64 and quantized, the host served from held
    /// tensors instead of recomputing, over every session that used the
    /// store (the same span as `tensor_store_bytes`). Host-side only:
    /// `stats` and `clock` still count every quartet, as the
    /// integral-direct device executes it.
    pub evaluations_reused: usize,
}

/// The SCF driver: owns the basis instantiation, screened pairs, quartet
/// batches, tuned kernel configurations, and (for DFT) the grid — and, between
/// a run that ended without a result and the run that resumes it, that
/// run's quartet tensors.
pub struct ScfDriver {
    pub(crate) mol: Molecule,
    pub(crate) shells: Vec<Shell>,
    pub(crate) layout: AoLayout,
    pub(crate) pairs: Vec<ScreenedPair>,
    pub(crate) batches: Vec<QuartetBatch>,
    pub(crate) model: CostModel,
    pub(crate) config: ScfConfig,
    pub(crate) fp64_cfgs: Vec<PipelineConfig>,
    /// Empty unless `config.quantized`.
    pub(crate) quant_cfgs: Vec<PipelineConfig>,
    pub(crate) problem_hash: u64,
    grid: Option<MolecularGrid>,
    aos: Option<AoOnGrid>,
    /// The tensor store of the last session that ended without a result,
    /// for the next session under the same budget (`fock` module docs,
    /// "The tensor store").
    parked: Mutex<Option<TensorStore>>,
}

impl ScfDriver {
    /// Prepare a driver: instantiate the basis, screen pairs, batch
    /// quartets, tune kernels (via the CompilerMako cache), and build the
    /// DFT grid when needed. Panics when the molecule has no atoms or the
    /// basis does not cover it — the convenience constructor for tests and
    /// benches; library paths (e.g. `MakoEngine::run_*`) use
    /// [`Self::try_new`].
    pub fn new(mol: &Molecule, basis: &BasisSet, config: ScfConfig) -> ScfDriver {
        ScfDriver::try_new(mol, basis, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: returns [`ScfError::NoAtoms`] for a molecule
    /// without atoms, [`ScfError::CoincidentAtoms`] for two atoms at one
    /// position, [`ScfError::Basis`] when the basis set lacks an element of
    /// the molecule and [`ScfError::EmptyGrid`] for a Kohn–Sham run whose
    /// grid has no points, instead of panicking.
    pub fn try_new(mol: &Molecule, basis: &BasisSet, config: ScfConfig) -> Result<ScfDriver, ScfError> {
        ScfDriver::try_new_with_cache(mol, basis, config, &KernelCache::new())
    }

    /// [`Self::try_new`] against a caller-owned kernel cache. Drivers built
    /// through the same cache share tuner sweeps: each `(ERI class,
    /// precision, device)` key is swept once for the whole fleet instead of
    /// once per molecule. `tune_class` is deterministic, so a shared-cache
    /// driver is configured identically to a fresh-cache one — only the
    /// tuning *wall time* is amortized. This is how the ensemble driver
    /// builds its members.
    pub fn try_new_with_cache(
        mol: &Molecule,
        basis: &BasisSet,
        config: ScfConfig,
        cache: &KernelCache,
    ) -> Result<ScfDriver, ScfError> {
        ScfDriver::try_new_with_artifacts(mol, basis, config, cache, None)
    }

    /// [`Self::try_new_with_cache`] with an optional injection of the
    /// screened shell-pair list. Screening is a pure function of the shells
    /// and the threshold, so a server that has already screened an identical
    /// problem (same molecule fingerprint, basis, device) can hand the pair
    /// list back instead of recomputing it — the driver it yields is
    /// indistinguishable from a fresh one. Callers are responsible for the
    /// key discipline; `mako-server`'s artifact cache keys by the problem
    /// fingerprint, which pins every input of `build_screened_pairs`.
    pub fn try_new_with_artifacts(
        mol: &Molecule,
        basis: &BasisSet,
        config: ScfConfig,
        cache: &KernelCache,
        pairs_override: Option<Vec<ScreenedPair>>,
    ) -> Result<ScfDriver, ScfError> {
        if mol.atoms.is_empty() {
            return Err(ScfError::NoAtoms);
        }
        for (second, b) in mol.atoms.iter().enumerate() {
            if let Some(first) = mol.atoms[..second].iter().position(|a| a.position == b.position) {
                return Err(ScfError::CoincidentAtoms { first, second });
            }
        }
        let mut span = mako_trace::span("chem", "shells");
        let shells = basis.try_shells_for(mol)?;
        span.add_field("shells", shells.len());
        span.end();
        let layout = AoLayout::new(&shells);
        let pairs = match pairs_override {
            Some(p) => p,
            None => {
                let mut span = mako_trace::span("eri", "screen_pairs");
                let p = build_screened_pairs(&shells, config.screening);
                span.add_field("pairs", shells.len() * (shells.len() + 1) / 2);
                span.add_field("kept", p.len());
                span.end();
                p
            }
        };
        let quartet_threshold = config
            .quartet_threshold
            .unwrap_or(config.screening * config.screening);
        let mut span = mako_trace::span("eri", "batch_quartets");
        let batches = batch_quartets(&pairs, quartet_threshold);
        span.add_field("batches", batches.len());
        span.add_field("quartets", batches.iter().map(|b| b.quartets.len()).sum::<usize>());
        span.end();
        let model = CostModel::new(config.device.clone());

        // Architecture-tuned configuration per ERI class and precision. A
        // session that cannot quantize runs the FP64 reference schedule,
        // which sends no quartet to a quantized kernel, so only a quantized
        // session tunes them (`ScfDriver::cfgs`).
        let fp64_cfgs: Vec<PipelineConfig> = batches
            .iter()
            .map(|b| cache.get_or_tune(&b.class, Precision::Fp64, &model).config)
            .collect();
        let quant_cfgs: Vec<PipelineConfig> = match config.quantized {
            true => batches
                .iter()
                .map(|b| cache.get_or_tune(&b.class, Precision::Fp16, &model).config)
                .collect(),
            false => Vec::new(),
        };

        let (grid, aos) = match &config.method {
            ScfMethod::Rks(_) => {
                let (radial, angular) = config.grid;
                let mut span = mako_trace::span("scf", "grid_build");
                let g = MolecularGrid::build(mol, radial, angular);
                span.add_field("radial", radial);
                span.add_field("angular", angular);
                span.add_field("npts", g.len());
                span.end();
                if g.points.is_empty() {
                    return Err(ScfError::EmptyGrid { radial, angular });
                }
                let mut span = mako_trace::span("scf", "ao_eval");
                let a = evaluate_aos(&shells, &g);
                span.add_field("npts", g.len());
                span.add_field("nao", a.nao());
                span.add_field("blocks", a.blocks().len());
                span.add_field("ao_kept_frac", a.kept_frac());
                span.end();
                (Some(g), Some(a))
            }
            ScfMethod::Rhf => (None, None),
        };

        let problem_hash = problem_hash(mol, &shells, &config);
        Ok(ScfDriver {
            mol: mol.clone(),
            shells,
            layout,
            pairs,
            batches,
            model,
            config,
            fp64_cfgs,
            quant_cfgs,
            problem_hash,
            grid,
            aos,
            parked: Mutex::new(None),
        })
    }

    /// Number of spherical AOs.
    pub fn nao(&self) -> usize {
        self.layout.nao
    }

    /// Number of surviving quartet batches (ERI classes).
    pub fn nbatches(&self) -> usize {
        self.batches.len()
    }

    /// Total quartets across all batches — the per-iteration workload of a
    /// Fock build before the scheduler prunes any.
    pub fn nquartets(&self) -> usize {
        self.batches.iter().map(|b| b.quartets.len()).sum()
    }

    /// Content hash of the problem this driver solves: molecule geometry,
    /// contracted shells, device kind, method, quantization mode, and
    /// screening thresholds. Drivers for *different* problems that happen
    /// to share all the gross sizes (nao, batch count, quartet count)
    /// still get distinct fingerprints, which is the key both for checkpoint
    /// cross-tenant validation and for `mako-server`'s screening-artifact
    /// cache. Convergence *budget* knobs (`e_tol`, `max_iterations`) are
    /// deliberately excluded: resuming the same problem with a tighter
    /// tolerance or a larger iteration budget is legitimate.
    pub fn problem_fingerprint(&self) -> u64 {
        self.problem_hash
    }

    /// The screened shell-pair list (with Schwarz bounds) this driver was
    /// built on — the reusable artifact for
    /// [`Self::try_new_with_artifacts`].
    pub fn screened_pairs(&self) -> &[ScreenedPair] {
        &self.pairs
    }

    /// Run the SCF to convergence (no checkpointing, no resumption).
    pub fn run(&self) -> Result<ScfResult, ScfError> {
        self.run_with(ScfRunOptions::default())
    }

    /// Run the SCF with explicit run options: periodic checkpointing,
    /// resumption from a saved checkpoint, and the chaos harness's
    /// deliberate kill.
    ///
    /// A resumed run replays the remaining trajectory **bitwise
    /// identically** to the uninterrupted one: the checkpoint carries every
    /// piece of inter-iteration state (density, DIIS history, residual
    /// bookkeeping, ledgers), all serialized through `f64::to_bits`.
    pub fn run_with(&self, run_opts: ScfRunOptions) -> Result<ScfResult, ScfError> {
        self.run_session(ScfSession::new(self, run_opts)?)
    }

    /// Step `session` to the end on this driver's execution path. A session
    /// that ends without a result parks its tensor store here for the run
    /// that resumes it; one that finishes drops it with the session.
    fn run_session(&self, mut session: ScfSession<'_>) -> Result<ScfResult, ScfError> {
        match self.step_to_end(&mut session) {
            Ok(()) => Ok(session.finish()),
            Err(e) => {
                self.park(session.tensors);
                Err(e)
            }
        }
    }

    fn step_to_end(&self, session: &mut ScfSession<'_>) -> Result<(), ScfError> {
        while session.active() {
            let prep = session.prepare();
            let iter = session.iteration();
            let (density, tensors) = session.build_inputs();
            let (jk, st, recovery) = self.execute_build(&prep, density, iter, tensors)?;
            session.advance(prep, jk, st, recovery)?;
        }
        Ok(())
    }

    /// Keep `tensors` for this driver's next session.
    fn park(&self, tensors: TensorStore) {
        *self.parked.lock() = Some(tensors);
    }

    /// The parked tensor store if it was laid out under `budget_bytes`, else
    /// a new one (a parked store of another budget stays parked).
    fn tensor_store(&self, budget_bytes: usize) -> TensorStore {
        self.parked
            .lock()
            .take_if(|t| t.budget_bytes() == budget_bytes)
            .unwrap_or_else(|| TensorStore::new(&self.batches, budget_bytes, self.config.quantized))
    }

    /// Batch `bi`'s tuned (FP64, quantized) pipeline configs. A driver that
    /// cannot quantize tuned no quantized config, and its schedule routes
    /// no quartet to one, so its FP64 config fills that place.
    pub(crate) fn cfgs(&self, bi: usize) -> (PipelineConfig, PipelineConfig) {
        let fp64 = self.fp64_cfgs[bi];
        (fp64, if self.config.quantized { self.quant_cfgs[bi] } else { fp64 })
    }

    /// Execute one prepared Fock build on this driver's execution path:
    /// single simulated device, or the fault-tolerant multi-rank cluster;
    /// both hand the session's tensors to every `assemble`. The ensemble
    /// driver substitutes its own execution (cross-molecule fused launches)
    /// for this call — everything else of the iteration is the session's,
    /// shared verbatim.
    fn execute_build(
        &self,
        prep: &PreparedIteration,
        density: &Matrix,
        iter: usize,
        tensors: &mut TensorStore,
    ) -> Result<(JkMatrices, FockBuildStats, RecoveryLedger), ScfError> {
        let cfg_for = |bi: usize| self.cfgs(bi);
        match &self.config.distributed {
            Some(dist) => {
                // The plan's fault stream is shared across iterations; the
                // iteration index keys each iteration's allreduce timeouts.
                let out = build_shares(
                    density,
                    &self.pairs,
                    &self.batches,
                    &self.layout,
                    &prep.schedule,
                    cfg_for,
                    &self.model,
                    dist,
                    iter as u64,
                    Some(tensors),
                )?;
                Ok((out.jk, out.stats, out.recovery))
            }
            None => {
                let (jk, stats) = build_jk(
                    density,
                    &self.pairs,
                    &self.batches,
                    &self.layout,
                    &prep.schedule,
                    cfg_for,
                    &self.model,
                    Some(tensors),
                );
                Ok((jk, stats, RecoveryLedger::default()))
            }
        }
    }

    /// Simulated device time of the XC quadrature: three `npts × nao × nao`
    /// GEMMs (FP64 tensor pipes) plus grid-local functional evaluation.
    /// Deliberately still the three-GEMM price: the host now assembles V_xc
    /// with two GEMMs, but the device clock is a pinned output (goldens,
    /// `accel.device_s`) and a host-side rewrite must not move it.
    fn xc_device_seconds(&self, npts: usize) -> f64 {
        let nao = self.layout.nao as f64;
        let gemm_flops = 3.0 * 2.0 * npts as f64 * nao * nao;
        let local_flops = 200.0 * npts as f64;
        let bytes = (npts as f64 * nao * 8.0) * 2.0;
        let mut p = mako_accel::KernelProfile::named("xc_quadrature");
        p.tensor_flops = Some((Precision::Fp64, gemm_flops));
        p.cuda_flops = Some((Precision::Fp64, local_flops));
        p.global_read = bytes;
        p.global_write = bytes * 0.1;
        p.smem_per_block = 32 * 1024;
        self.model.evaluate(&p).total_s
    }

    /// Simulated device time of the dense diagonalization — the replicated
    /// serial stage of the distributed runs. Eigensolvers reach only a
    /// small fraction of peak.
    fn diag_device_seconds(&self) -> f64 {
        let n = self.layout.nao as f64;
        let flops = 9.0 * n * n * n;
        flops / (0.05 * self.model.device.cuda_peak(Precision::Fp64)) + 50.0e-6
    }
}

/// The Fock-build inputs of one SCF iteration, produced by
/// [`ScfSession::prepare`] and consumed back by [`ScfSession::advance`] after
/// an execution path has run the build. Between the two calls the caller owns
/// the execution: the solo driver calls [`ScfDriver::execute_build`], the
/// ensemble driver fuses same-class sub-batches across molecules into shared
/// launches. `prepare` has already committed the schedule decision, so
/// execution cannot influence the trajectory — only how the work is priced.
/// The build contracts against the session's density
/// ([`ScfSession::build_inputs`]).
pub(crate) struct PreparedIteration {
    /// Precision schedule for this iteration (per-molecule decision).
    pub(crate) schedule: QuantSchedule,
    /// The open `scf.iteration` span; `advance` fills its fields and ends it.
    iter_span: mako_trace::Span,
}

/// One molecule's SCF trajectory as an explicit state machine.
///
/// This is `run_with`'s former loop body with the loop inverted out: `new`
/// is everything before the first iteration, then `prepare → (execute) →
/// advance` is one iteration, and `finish` is everything after the loop.
/// The solo driver ([`ScfDriver::run_with`]) and the ensemble driver step
/// the *same* session code, which is what makes batched-vs-solo per-molecule
/// bitwise identity hold by construction rather than by parallel maintenance
/// of two loops.
///
/// What one iteration hands the next is one [`CarriedState`]: the restore
/// point a rescue rollback rewinds (density, energies, residuals, orbital
/// energies), the DIIS history, and the device clock. A checkpoint saves it
/// whole and a resume takes it back whole. The clock is the session's only record of what its iterations
/// cost: [`ScfSession::finish`] derives every timing and statistic of the
/// [`ScfResult`] from it.
/// Everything else here is fixed for the run (one-electron matrices,
/// orthogonalizer) or deliberately not saved (the rescue ladder, the tensor
/// store). One instance per molecule; nothing in a session is shared, so a
/// diverging ensemble member cannot perturb its neighbors.
pub(crate) struct ScfSession<'a> {
    driver: &'a ScfDriver,
    run_opts: ScfRunOptions,
    n_occ: usize,
    functional: XcFunctional,
    h: Matrix,
    s: Matrix,
    x: Matrix,
    orth: OrthDiagnostics,
    e_nuc: f64,
    state: CarriedState,
    // Self-healing engine. `None` when disabled; when enabled it stays
    // strictly observational until a ladder stage fires, so a healthy
    // enabled run is bitwise identical to a disabled one.
    rescue: Option<RescueState>,
    converged: bool,
    // Ledger credit (e.g. a checkpoint load) that lands on the next
    // iteration's recovery record.
    pending_recovery: RecoveryLedger,
    iter: usize,
    finished: bool,
    // Quartet tensors kept across this session's Fock builds, taken from and
    // parked back in the driver across a run that ends without a result. Not
    // part of a checkpoint.
    tensors: TensorStore,
}

impl<'a> ScfSession<'a> {
    /// Everything before the first iteration: guess or checkpoint
    /// resumption, one-electron matrices, orthogonalizer, rescue engine.
    pub(crate) fn new(
        driver: &'a ScfDriver,
        run_opts: ScfRunOptions,
    ) -> Result<ScfSession<'a>, ScfError> {
        ScfSession::with_store_budget(driver, run_opts, TENSOR_STORE_BYTES)
    }

    /// [`ScfSession::new`] with the tensor store's byte budget given (the
    /// ensemble hands each member its share; tests shrink it).
    pub(crate) fn with_store_budget(
        driver: &'a ScfDriver,
        mut run_opts: ScfRunOptions,
        store_budget_bytes: usize,
    ) -> Result<ScfSession<'a>, ScfError> {
        if !driver.mol.n_electrons().is_multiple_of(2) {
            return Err(ScfError::OpenShell {
                electrons: driver.mol.n_electrons(),
            });
        }
        let n_occ = driver.mol.n_electrons() / 2;
        let functional = match &driver.config.method {
            ScfMethod::Rhf => hartree_fock(),
            ScfMethod::Rks(f) => f.clone(),
        };

        // Counted before the span opens, so its duration is the integrals alone.
        let prim_pairs = mako_trace::enabled().then(|| one_electron_prim_pairs(&driver.shells));
        let mut one_electron = mako_trace::span("eri", "one_electron");
        let (s, t, v) = one_electron_matrices(&driver.shells, &driver.mol);
        if let Some((total, cut)) = prim_pairs {
            let n = driver.shells.len();
            one_electron.add_field("shell_pairs", n * (n + 1) / 2);
            one_electron.add_field("prim_pairs", total);
            one_electron.add_field("prim_pairs_cut", cut);
            one_electron.add_field("atoms", driver.mol.atoms.len());
        }
        one_electron.end();
        let h = t.add(&v);
        let orthogonalizer = mako_trace::span("linalg", "orthogonalizer");
        let orth_factor = sym_inv_sqrt_diag(&s, driver.config.orth_threshold)
            .map_err(|source| ScfError::OverlapNotPositiveDefinite { source })?;
        orthogonalizer.end();
        let orth = OrthDiagnostics {
            n_dropped: orth_factor.n_dropped,
            smallest_kept: orth_factor.smallest_kept,
            threshold: driver.config.orth_threshold,
        };
        let x = orth_factor.matrix;
        let tensors = driver.tensor_store(store_budget_bytes);
        {
            let mut setup = mako_trace::span("scf", "setup");
            if setup.is_recording() {
                setup.add_field("nao", driver.layout.nao);
                setup.add_field("orth_dropped", orth.n_dropped);
                if orth.smallest_kept.is_finite() {
                    setup.add_field("orth_smallest_kept", orth.smallest_kept);
                }
                setup.add_field("orth_threshold", orth.threshold);
                setup.add_field("store_budget_bytes", store_budget_bytes);
                setup.add_field("store_admitted_quartets", tensors.admitted_quartets());
            }
            setup.end();
        }
        let e_nuc = driver.mol.nuclear_repulsion();

        let nao = driver.layout.nao;
        let rescue = driver
            .config
            .rescue
            .then(|| RescueState::new(driver.config.e_tol));

        // Fresh start (core-Hamiltonian guess) or checkpoint resumption.
        // The resume ledger credit lands on the first new iteration.
        let mut pending_recovery = RecoveryLedger::default();
        let (state, iter) = match run_opts.resume.take() {
            Some(ck) => {
                if let Err(e) = ck.validate(
                    nao,
                    driver.batches.len(),
                    driver.nquartets(),
                    driver.problem_hash,
                ) {
                    // Another problem's checkpoint: the store is still this driver's.
                    driver.park(tensors);
                    return Err(e.into());
                }
                pending_recovery.checkpoint_loads = 1;
                (ck.state, ck.next_iteration)
            }
            None => {
                let density = density_from_fock(&h, &x, n_occ)
                    .map_err(|source| ScfError::Diagonalization { iteration: 0, source })?
                    .0;
                let point = RestorePoint {
                    density,
                    e_prev: f64::INFINITY,
                    energy: 0.0,
                    residual: 1.0,
                    residual_prev: f64::INFINITY,
                    orbital_energies: Vec::new(),
                };
                let state = CarriedState {
                    point,
                    diis: Diis::new(8),
                    clock: DeviceClock::new(),
                };
                (state, 0)
            }
        };

        Ok(ScfSession {
            driver,
            run_opts,
            n_occ,
            functional,
            h,
            s,
            x,
            orth,
            e_nuc,
            state,
            rescue,
            converged: false,
            pending_recovery,
            iter,
            finished: false,
            tensors,
        })
    }

    /// The density the next Fock build contracts against, and the session's
    /// tensor store, for the execution path's `assemble`.
    pub(crate) fn build_inputs(&mut self) -> (&Matrix, &mut TensorStore) {
        (&self.state.point.density, &mut self.tensors)
    }

    /// True while the trajectory has iterations left to run: not yet
    /// converged (or failed), and under the iteration cap.
    pub(crate) fn active(&self) -> bool {
        !self.finished && self.iter < self.driver.config.max_iterations
    }

    /// The iteration `prepare` will stage next.
    pub(crate) fn iteration(&self) -> usize {
        self.iter
    }

    /// Latest total energy (Ha). Trace/diagnostic use only.
    pub(crate) fn energy(&self) -> f64 {
        self.state.point.energy
    }

    /// Latest scheduling residual. Trace/diagnostic use only.
    pub(crate) fn residual(&self) -> f64 {
        self.state.point.residual
    }

    /// Stage the next iteration: commit the precision schedule. Every
    /// trajectory-shaping decision is made here — the execution path that
    /// follows only prices and evaluates.
    pub(crate) fn prepare(&mut self) -> PreparedIteration {
        let iter_span = mako_trace::span("scf", "iteration");
        let cfg = &self.driver.config;
        let backoff = self.rescue.as_ref().is_some_and(|r| r.quant_backoff());
        let schedule = if backoff {
            // Stage 4 fired: pinned to the FP64 reference schedule for
            // the rest of the run.
            QuantSchedule::rescue_backoff(cfg.e_tol)
        } else if cfg.quantized {
            QuantSchedule::for_iteration(self.state.point.residual, cfg.e_tol)
        } else {
            QuantSchedule::fp64_reference(cfg.e_tol * 1e-5)
        };

        PreparedIteration { schedule, iter_span }
    }

    /// Fold one executed Fock build back into the trajectory: XC,
    /// Fock/energy assembly, DIIS, rescue knobs, the non-finite containment
    /// checkpoints, diagonalization, convergence test, watchdog, and
    /// checkpointing. Exactly `run_with`'s former loop
    /// body below the build — same operations, same order; that ordering is
    /// the bitwise-identity contract between the solo and ensemble paths.
    pub(crate) fn advance(
        &mut self,
        prep: PreparedIteration,
        jk: JkMatrices,
        st: FockBuildStats,
        mut recovery: RecoveryLedger,
    ) -> Result<(), ScfError> {
        let PreparedIteration { mut iter_span, .. } = prep;
        let iter = self.iter;
        recovery.absorb(&self.pending_recovery);
        self.pending_recovery = RecoveryLedger::default();
        let (mut j, k) = (jk.j, jk.k);
        // Chaos harness: poison the build exactly as a broken kernel
        // would, upstream of the containment checkpoints.
        if self.run_opts.poison_fock == Some(iter) {
            j[(0, 0)] = f64::NAN;
        }
        let mut iter_seconds = st.device_seconds;
        let CarriedState { point, diis, clock } = &mut self.state;
        // What this iteration cost, pushed once its seconds are complete.
        let ledger = |seconds: f64| IterationLedger {
            eri_seconds: st.device_seconds,
            total_seconds: seconds,
            evaluated_quartets: st.evaluated_quartets(),
            quantized_quartets: st.quantized_quartets,
            pruned_quartets: st.pruned_quartets,
        };

        // Non-finite containment: a NaN/Inf caught at any assembly
        // checkpoint is attributed (J/K only — the one stage with a
        // per-batch structure to blame), traced, and — when the rescue
        // engine holds an unspent good snapshot — contained by rolling
        // back; otherwise the run fails with the typed error instead of
        // iterating on garbage.
        macro_rules! contain {
            ($stage:expr) => {{
                let stage = $stage;
                let site = match stage {
                    NonFiniteStage::Coulomb | NonFiniteStage::Exchange => Some(
                        attribute_non_finite(
                            &point.density,
                            &self.driver.pairs,
                            &self.driver.batches,
                        ),
                    ),
                    _ => None,
                };
                let contained = self
                    .rescue
                    .as_mut()
                    .is_some_and(|r| r.contain_non_finite(iter));
                if mako_trace::enabled() {
                    let mut fields = vec![
                        mako_trace::field("iter", iter),
                        mako_trace::field("stage", stage.label()),
                        mako_trace::field("contained", contained),
                    ];
                    if let Some(site) = &site {
                        fields.push(mako_trace::field(
                            "density_poisoned",
                            site.density_poisoned,
                        ));
                        if let Some(b) = site.batch {
                            fields.push(mako_trace::field("batch", b));
                        }
                        if let Some(c) = &site.class {
                            fields.push(mako_trace::field("class", c.clone()));
                        }
                    }
                    mako_trace::instant("scf", "non_finite", fields);
                }
                // The poisoned work was still spent: account for it
                // before unwinding the iteration.
                clock.push(ledger(iter_seconds));
                clock.push_recovery(recovery);
                iter_span.end();
                if contained {
                    let level = self
                        .rescue
                        .as_ref()
                        .expect("contained implies rescue")
                        .level();
                    emit_rescue_span(
                        iter,
                        TrajectoryClass::NonFinite,
                        RescueStage::Rollback,
                        0.0,
                        level,
                    );
                    self.rollback();
                    self.iter += 1;
                    return Ok(());
                }
                return Err(ScfError::NonFinite { iteration: iter, stage });
            }};
        }
        if !j.all_finite() {
            contain!(NonFiniteStage::Coulomb);
        }
        if !k.all_finite() {
            contain!(NonFiniteStage::Exchange);
        }

        // Exchange-correlation (DFT only).
        let (e_xc, v_xc, xc_seconds) = match (&self.driver.grid, &self.driver.aos) {
            (Some(grid), Some(aos)) => {
                let mut span = mako_trace::span("scf", "xc");
                let res = evaluate_xc(&self.functional, aos, grid, &point.density);
                span.add_field("npts", grid.len());
                span.add_field("nao", self.driver.layout.nao);
                span.add_field("blocks", aos.blocks().len());
                span.add_field("ao_kept_frac", aos.kept_frac());
                span.add_field("below_floor", res.below_floor);
                span.add_field("n_electrons", res.n_electrons);
                span.add_field("e_xc", res.energy);
                span.end();
                let secs = self.driver.xc_device_seconds(grid.len());
                (res.energy, Some(res.matrix), secs)
            }
            _ => (0.0, None, 0.0),
        };
        iter_seconds += xc_seconds;

        // Fock matrix: F = H + 2J − a·K (+ V_xc).
        let mut f = self.h.clone();
        f.axpy(2.0, &j);
        f.axpy(-self.functional.hf_exchange, &k);
        if let Some(vxc) = &v_xc {
            f.axpy(1.0, vxc);
        }

        // Energy.
        let d = &point.density;
        let e_elec = 2.0 * d.dot(&self.h) + 2.0 * d.dot(&j)
            - self.functional.hf_exchange * d.dot(&k)
            + e_xc;
        point.energy = e_elec + self.e_nuc;
        if !f.all_finite() {
            contain!(NonFiniteStage::Fock);
        }
        if !point.energy.is_finite() {
            contain!(NonFiniteStage::Energy);
        }

        // DIIS extrapolation, with the divergence guard: a residual
        // jump by `divergence_factor` means the extrapolation went bad —
        // restart DIIS (drop the stale history).
        let diis_span = mako_trace::span("scf", "diis");
        let err = Diis::error_vector(&f, &point.density, &self.s, &self.x);
        point.residual = err.norm_fro() / (self.driver.layout.nao as f64);
        // The watchdog observes the raw DIIS residual, before the
        // |ΔE|-based scheduling floor below munges it.
        let residual_diis = point.residual;
        let divergence_factor = self.driver.config.incremental_policy.divergence_factor;
        let prev = std::mem::replace(&mut point.residual_prev, point.residual);
        if iter > 0 && prev.is_finite() && point.residual > divergence_factor * prev {
            diis.reset();
        }
        let mut f_diis = diis.extrapolate(f, err);
        diis_span.end();

        // Stage 3 (level shifting): raise the virtual block of the
        // extrapolated Fock by σ. With CᵀSC = I and D = C_occ·C_occᵀ,
        // Cᵀ(S − S·D·S)C = diag(0_occ, 1_virt), so occupied orbitals
        // are untouched and every virtual rises by σ — the classic
        // gap-opening rescue. Applied after DIIS so the history keeps
        // unshifted matrices; strictly gated, so no FP operation runs
        // until the stage fires.
        if let Some(sigma) = self.rescue.as_ref().and_then(|r| r.shift()) {
            let sd = gemm(&self.s, Transpose::No, &point.density, Transpose::No);
            let sds = gemm(&sd, Transpose::No, &self.s, Transpose::No);
            let mut proj = self.s.clone();
            proj.axpy(-1.0, &sds);
            f_diis.axpy(sigma, &proj);
        }
        if !f_diis.all_finite() {
            contain!(NonFiniteStage::Fock);
        }

        // Diagonalize (replicated serial stage — costed separately).
        let (d_new, eps) = density_from_fock(&f_diis, &self.x, self.n_occ)
            .map_err(|source| ScfError::Diagonalization { iteration: iter, source })?;
        let diag_seconds = self.driver.diag_device_seconds();
        iter_seconds += diag_seconds;
        if !d_new.all_finite() {
            contain!(NonFiniteStage::Density);
        }
        clock.push(ledger(iter_seconds));

        let de = (point.energy - point.e_prev).abs();
        point.e_prev = point.energy;
        let d_prev = std::mem::replace(&mut point.density, d_new);
        // Stage 2 (density damping): mix the previous density back in,
        // D ← (1−α)·D_new + α·D_old. Gated — with damping off the
        // replacement above is all that happens.
        if let Some(alpha) = self.rescue.as_ref().and_then(|r| r.damping()) {
            point.density.scale_mut(1.0 - alpha);
            point.density.axpy(alpha, &d_prev);
        }
        point.orbital_energies = eps;

        if iter_span.is_recording() {
            iter_span.add_field("iter", iter);
            iter_span.add_field("energy", point.energy);
            iter_span.add_field("de", de);
            iter_span.add_field("residual", point.residual);
            iter_span.add_field("eri_seconds", st.device_seconds);
            iter_span.add_field("xc_seconds", xc_seconds);
            iter_span.add_field("diag_seconds", diag_seconds);
            iter_span.add_field("total_seconds", iter_seconds);
            iter_span.add_field("evaluated_quartets", st.evaluated_quartets());
            iter_span.add_field("pruned_quartets", st.pruned_quartets);
        }
        iter_span.end();

        let mut finishing = false;
        if de < self.driver.config.e_tol && point.residual < self.driver.config.e_tol.sqrt() {
            self.converged = true;
            // When quantized, require a final FP64-clean iteration: the
            // schedule disables quantization near convergence, so one more
            // pass confirms the energy at full precision.
            if !self.driver.config.quantized || iter > 0 {
                finishing = true;
            }
        }
        if !finishing {
            // Use |ΔE| as the scheduling residual for the next iteration.
            point.residual = point.residual.max(de.min(1.0));
        }

        // Convergence watchdog + staged rescue ladder. Strictly
        // observational until a stage fires: on a healthy trajectory no
        // floating-point value of the iteration changes (the inertness
        // contract the golden suite pins bitwise). Decay runs first —
        // this iteration already consumed the current α/σ — so a stage
        // (re)armed by `escalate` starts the next iteration at full
        // strength.
        let mut do_rollback = false;
        if let Some(r) = self.rescue.as_mut().filter(|_| !finishing) {
            r.decay();
            let class = r.observe(point.energy, residual_diis);
            if class == TrajectoryClass::Healthy {
                // Offer the current state as a rollback target; the
                // engine keeps the best-residual one.
                r.note_healthy(residual_diis, || point.clone());
            } else if let Some(stage) = r.escalate(iter, class) {
                let detail = r.ledger().events().last().map(|e| e.detail).unwrap_or(0.0);
                emit_rescue_span(iter, class, stage, detail, r.level());
                match stage {
                    RescueStage::DiisReset => diis.reset(),
                    // The engine already armed the knob; the driver
                    // consumes it at its fixed point next iteration.
                    RescueStage::Damp | RescueStage::LevelShift | RescueStage::QuantBackoff => {}
                    RescueStage::Rollback => do_rollback = true,
                }
            }
        }
        if do_rollback {
            self.rollback();
        }

        // Periodic checkpoint, and one at the kill so a crash after a
        // quantum boundary finds it: the state captured here is exactly what
        // iteration `iter + 1` consumes, so a resumed run replays the
        // remaining trajectory bitwise.
        let killed = !finishing && self.run_opts.kill_after.is_some_and(|n| iter + 1 >= n);
        let save_to = self.run_opts.checkpoint.as_ref().filter(|p| {
            !finishing && p.every > 0 && (killed || (iter + 1).is_multiple_of(p.every))
        });
        recovery.checkpoint_saves = save_to.is_some() as usize;
        self.state.clock.push_recovery(recovery);
        if finishing {
            self.finished = true;
            return Ok(());
        }
        if save_to.is_some() || killed {
            let ck = ScfCheckpoint::of(self.driver, iter + 1, self.state.clone());
            if let Some(p) = save_to {
                ck.save(&p.path).map_err(ScfError::Checkpoint)?;
            }
            // The deliberate kill, after the save, carries what it saved.
            if killed {
                return Err(ScfError::Killed(Box::new(ck)));
            }
        }
        self.iter += 1;
        Ok(())
    }

    /// Rewind to the rescue engine's best-residual restore point. The clock
    /// keeps running forward — the device time was really spent — and the
    /// DIIS history is dropped.
    fn rollback(&mut self) {
        let point = self.rescue.as_ref().and_then(|r| r.rollback_point());
        self.state.point = point.expect("rollback stage implies a snapshot").clone();
        self.state.diis.reset();
    }

    /// Everything after the last iteration: the paper's timing metrics and
    /// the Fock statistics, derived from the clock's ledgers in their order,
    /// and the assembled [`ScfResult`].
    pub(crate) fn finish(self) -> ScfResult {
        let CarriedState { point, clock, .. } = self.state;
        let ledgers = clock.iterations();
        let iteration_seconds: Vec<f64> = ledgers.iter().map(|l| l.total_seconds).collect();
        let total_seconds: f64 = iteration_seconds.iter().sum();
        let avg = if iteration_seconds.len() > 1 {
            iteration_seconds[1..].iter().sum::<f64>() / (iteration_seconds.len() - 1) as f64
        } else {
            iteration_seconds.first().copied().unwrap_or(0.0)
        };
        let stats = FockBuildStats {
            fp64_quartets: ledgers.iter().map(|l| l.evaluated_quartets - l.quantized_quartets).sum(),
            quantized_quartets: ledgers.iter().map(|l| l.quantized_quartets).sum(),
            pruned_quartets: ledgers.iter().map(|l| l.pruned_quartets).sum(),
            device_seconds: total_seconds,
        };

        ScfResult {
            energy: point.energy,
            e_nuclear: self.e_nuc,
            converged: self.converged,
            iterations: iteration_seconds.len(),
            orbital_energies: point.orbital_energies,
            density: point.density,
            avg_iteration_seconds: avg,
            total_seconds,
            iteration_seconds,
            stats,
            clock,
            rescue: self.rescue.map(RescueState::into_ledger).unwrap_or_default(),
            orth: self.orth,
            tensor_store_bytes: self.tensors.held_bytes(),
            evaluations_reused: self.tensors.reused(),
        }
    }
}

/// Content hash of the (molecule, shells, device, method, screening)
/// problem — the version-2 checkpoint fingerprint. SplitMix64 finalizer
/// folded over every input bit; `f64` values are hashed through `to_bits`
/// so the hash is as exact as the trajectory it guards.
fn problem_hash(mol: &Molecule, shells: &[Shell], config: &ScfConfig) -> u64 {
    let mut h = 0x4D41_4B4F_5343_4646u64; // b"MAKOSCFF"
    for atom in &mol.atoms {
        h = mix(h, atom.element.z() as u64);
        for &c in &atom.position {
            h = mix(h, c.to_bits());
        }
    }
    for sh in shells {
        h = mix(h, sh.l as u64);
        h = mix(h, sh.atom as u64);
        for &c in &sh.center {
            h = mix(h, c.to_bits());
        }
        for (&e, &c) in sh.exps.iter().zip(&sh.coefs) {
            h = mix(h, e.to_bits());
            h = mix(h, c.to_bits());
        }
    }
    h = mix(h, config.device.kind as u64);
    h = mix(
        h,
        match &config.method {
            ScfMethod::Rhf => 0,
            ScfMethod::Rks(_) => 1,
        },
    );
    if let ScfMethod::Rks(f) = &config.method {
        h = mix(h, f.hf_exchange.to_bits());
        h = mix(h, config.grid.0 as u64);
        h = mix(h, config.grid.1 as u64);
    }
    h = mix(h, config.quantized as u64);
    h = mix(h, config.screening.to_bits());
    h = mix(
        h,
        config
            .quartet_threshold
            .unwrap_or(config.screening * config.screening)
            .to_bits(),
    );
    h
}

/// Emit a `scf.rescue` span for one ladder transition (a zero-duration
/// marker; the fields are the payload).
fn emit_rescue_span(
    iteration: usize,
    class: TrajectoryClass,
    stage: RescueStage,
    detail: f64,
    level: usize,
) {
    let mut span = mako_trace::span("scf", "rescue");
    if span.is_recording() {
        span.add_field("iter", iteration);
        span.add_field("classification", class.label());
        span.add_field("stage", stage.label());
        span.add_field("detail", detail);
        span.add_field("level", level);
    }
    span.end();
}

/// Diagonalize a Fock matrix in the orthonormal basis and form the density:
/// returns `(D, orbital energies)`. Eigensolver failures propagate — the
/// driver wraps them in [`ScfError::Diagonalization`] with the iteration.
fn density_from_fock(
    f: &Matrix,
    x: &Matrix,
    n_occ: usize,
) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let fp = gemm(&gemm(x, Transpose::Yes, f, Transpose::No), Transpose::No, x, Transpose::No);
    let span = mako_trace::span("linalg", "eigh");
    let ed = eigh(&fp)?;
    span.end();
    let c = gemm(x, Transpose::No, &ed.vectors, Transpose::No);
    let span = mako_trace::span("scf", "density");
    let d = occupied_density(&c, n_occ);
    span.end();
    Ok((d, ed.values))
}

/// Accumulators per register block of [`occupied_density`].
const DENSITY_LANES: usize = 8;

/// `D = C_occ C_occᵀ` over the first `n_occ` columns of `c`. `C_occᵀ` is
/// packed once so a block of `DENSITY_LANES` consecutive `ν` is one
/// contiguous load per orbital; each `D[μ, ν]` still sums `c[μ,o]·c[ν,o]`
/// over `o` in order. Only `ν ≤ μ` is computed: the product commutes, so the
/// mirrored element has the same bits.
pub fn occupied_density(c: &Matrix, n_occ: usize) -> Matrix {
    let n = c.rows();
    let mut ct = Vec::with_capacity(n_occ * n);
    for o in 0..n_occ {
        ct.extend((0..n).map(|mu| c[(mu, o)]));
    }
    let mut d = Matrix::zeros(n, n);
    for mu in 0..n {
        let row = d.row_mut(mu);
        let mut nu = 0;
        while nu <= mu {
            let w = DENSITY_LANES.min(mu + 1 - nu);
            let mut acc = [0.0f64; DENSITY_LANES];
            for ct_o in ct.chunks_exact(n) {
                let c_mu = ct_o[mu];
                for (a, c_nu) in acc.iter_mut().zip(&ct_o[nu..nu + w]) {
                    *a += c_mu * c_nu;
                }
            }
            row[nu..nu + w].copy_from_slice(&acc[..w]);
            nu += w;
        }
    }
    for mu in 0..n {
        for nu in 0..mu {
            d[(nu, mu)] = d[(mu, nu)];
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::basis::sto3g::sto3g;
    use mako_chem::builders;

    #[test]
    fn water_rhf_sto3g_textbook_energy() {
        // The anchor test of the whole reproduction: H₂O/STO-3G RHF at the
        // experimental geometry converges to ≈ −74.96 Hartree.
        let mol = builders::water();
        let driver = ScfDriver::new(&mol, &sto3g(), ScfConfig::default());
        let res = driver.run().expect("scf run");
        assert!(res.converged, "SCF must converge");
        assert!(
            (res.energy - (-74.963)).abs() < 0.02,
            "E(H2O/STO-3G) = {} (expected ≈ −74.963)",
            res.energy
        );
        assert!(res.iterations <= 25);
        // Aufbau sanity: 5 occupied orbitals all below the LUMO.
        assert!(res.orbital_energies[4] < res.orbital_energies[5]);
        assert!(res.avg_iteration_seconds > 0.0);
    }

    #[test]
    fn h2_rhf_sto3g() {
        // H₂ at 1.4 Bohr: E(RHF/STO-3G) ≈ −1.117 Hartree.
        let mut mol = Molecule::new("H2");
        mol.atoms.push(mako_chem::Atom {
            element: mako_chem::Element::H,
            position: [0.0, 0.0, 0.0],
        });
        mol.atoms.push(mako_chem::Atom {
            element: mako_chem::Element::H,
            position: [0.0, 0.0, 1.4],
        });
        let driver = ScfDriver::new(&mol, &sto3g(), ScfConfig::default());
        let res = driver.run().expect("scf run");
        assert!(res.converged);
        assert!(
            (res.energy - (-1.117)).abs() < 5e-3,
            "E(H2/STO-3G) = {}",
            res.energy
        );
    }

    #[test]
    fn quantized_scf_matches_fp64_within_chemical_accuracy() {
        // The paper's accuracy bar: quantized and FP64 total energies
        // agree within 1 mHartree.
        let mol = builders::water();
        let fp64 = ScfDriver::new(&mol, &sto3g(), ScfConfig::default()).run().expect("scf run");
        let quant = ScfDriver::new(
            &mol,
            &sto3g(),
            ScfConfig {
                quantized: true,
                ..ScfConfig::default()
            },
        )
        .run().expect("scf run");
        assert!(quant.converged);
        assert!(quant.stats.quantized_quartets > 0, "quantization must engage");
        let diff = (quant.energy - fp64.energy).abs();
        assert!(
            diff < 1e-3,
            "quantized vs FP64 energy differs by {diff} Ha (> 1 mHa)"
        );
    }

    #[test]
    fn b3lyp_water_converges_below_rhf() {
        let mol = builders::water();
        let rhf = ScfDriver::new(&mol, &sto3g(), ScfConfig::default()).run().expect("scf run");
        let dft = ScfDriver::new(
            &mol,
            &sto3g(),
            ScfConfig {
                method: ScfMethod::Rks(crate::xc::b3lyp()),
                grid: (30, 10),
                ..ScfConfig::default()
            },
        )
        .run().expect("scf run");
        assert!(dft.converged, "B3LYP SCF must converge");
        // B3LYP total energy sits below RHF (correlation energy is
        // negative) but within a plausible window.
        assert!(
            dft.energy < rhf.energy,
            "B3LYP {} should be below RHF {}",
            dft.energy,
            rhf.energy
        );
        assert!(dft.energy > rhf.energy - 1.5, "correlation magnitude sane");
    }

    #[test]
    fn the_incremental_switch_changes_nothing() {
        // `incremental` is read by nothing: the run is the default run, bit
        // for bit, on the energy, the iteration count and the device clock.
        let mol = builders::water();
        let base = ScfDriver::new(&mol, &sto3g(), ScfConfig::default()).run().expect("scf run");
        let config = ScfConfig {
            incremental: true,
            ..ScfConfig::default()
        };
        let switched = ScfDriver::new(&mol, &sto3g(), config).run().expect("scf run");
        assert_eq!(switched.energy.to_bits(), base.energy.to_bits());
        assert_eq!(switched.iterations, base.iterations);
        assert_eq!(switched.clock, base.clock);
    }

    #[test]
    fn divergence_guard_restarts_cleanly() {
        // A divergence factor of 0.1 trips the guard whenever the DIIS
        // residual fails to shrink tenfold in one iteration, which water's
        // does: each trip drops the DIIS history, so the run takes a longer
        // path, and still lands on the default run's energy.
        let mol = builders::water();
        let base = ScfDriver::new(&mol, &sto3g(), ScfConfig::default()).run().expect("scf run");
        let config = ScfConfig {
            incremental_policy: IncrementalPolicy {
                divergence_factor: 0.1,
            },
            ..ScfConfig::default()
        };
        let guarded = ScfDriver::new(&mol, &sto3g(), config).run().expect("scf run");
        assert!(guarded.converged);
        assert!(
            guarded.iterations > base.iterations,
            "the guard never fired: {} iterations, as the default run",
            guarded.iterations
        );
        assert!(
            (guarded.energy - base.energy).abs() < 1e-6,
            "guarded run drifted: {} vs {}",
            guarded.energy,
            base.energy
        );
    }

    #[test]
    fn a_molecule_without_atoms_is_a_typed_error() {
        let empty = Molecule::new("empty");
        let err = ScfDriver::try_new(&empty, &sto3g(), ScfConfig::default()).err();
        assert_eq!(err, Some(ScfError::NoAtoms));
    }

    #[test]
    fn coincident_nuclei_are_a_typed_error_naming_both_atoms() {
        let mut mol = builders::water();
        let h = mol.atoms[1];
        mol.atoms.push(h);
        let err = ScfDriver::try_new(&mol, &sto3g(), ScfConfig::default()).err();
        assert_eq!(err, Some(ScfError::CoincidentAtoms { first: 1, second: 3 }));
        let msg = err.unwrap().to_string();
        assert!(msg.contains("atoms 1 and 3"), "{msg}");
    }

    #[test]
    fn a_kohn_sham_run_without_grid_points_is_a_typed_error() {
        for (radial, angular) in [(0, 12), (30, 0)] {
            let config = ScfConfig {
                method: ScfMethod::Rks(crate::xc::b3lyp()),
                grid: (radial, angular),
                ..ScfConfig::default()
            };
            let err = ScfDriver::try_new(&builders::water(), &sto3g(), config).err();
            assert_eq!(err, Some(ScfError::EmptyGrid { radial, angular }));
        }
        // RHF builds no grid, so its grid size is never read.
        let rhf = ScfConfig {
            grid: (0, 0),
            ..ScfConfig::default()
        };
        assert!(ScfDriver::try_new(&builders::water(), &sto3g(), rhf).is_ok());
    }

    #[test]
    fn quantized_session_keeps_its_quantized_integrals_without_moving_a_bit() {
        let driver = ScfDriver::new(
            &builders::water_cluster(3),
            &sto3g(),
            ScfConfig {
                method: ScfMethod::Rks(crate::xc::b3lyp()),
                quantized: true,
                grid: (20, 8),
                ..ScfConfig::default()
            },
        );
        // `run_session`'s loop, keeping the quantized tier's reuse and retags.
        let run = |budget: usize, threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut session =
                    ScfSession::with_store_budget(&driver, ScfRunOptions::default(), budget)
                        .expect("session");
                driver.step_to_end(&mut session).expect("run");
                let tensors = &session.tensors;
                let (quantized_reused, retags) = (tensors.counts()[3], tensors.quantized_retags());
                (session.finish(), quantized_reused, retags)
            })
        };
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (direct, _, _) = run(0, 1);
        assert!(direct.converged && direct.stats.quantized_quartets > 0);
        assert_eq!((direct.evaluations_reused, direct.tensor_store_bytes), (0, 0));
        for threads in [1, 2] {
            for budget in [0, TENSOR_STORE_BYTES] {
                let (res, quantized_reused, retags) = run(budget, threads);
                let label = format!("budget {budget}, {threads} threads");
                assert_eq!(res.energy.to_bits(), direct.energy.to_bits(), "{label}");
                assert_eq!(bits(res.density.as_slice()), bits(direct.density.as_slice()), "{label}");
                assert_eq!(bits(&res.iteration_seconds), bits(&direct.iteration_seconds), "{label}");
                assert_eq!(res.stats, direct.stats, "{label}");
                assert_eq!(res.clock.iterations(), direct.clock.iterations(), "{label}");
                if budget > 0 {
                    assert!(quantized_reused > 0, "no quantized tensor was reused: {label}");
                    assert!(retags > 0, "no batch changed its group scale: {label}");
                }
            }
        }
    }

    #[test]
    fn distributed_session_keeps_its_integrals_without_moving_a_bit() {
        use mako_accel::cluster::ClusterSpec;
        use mako_accel::fault::{FaultConfig, FaultPlan};
        let driver = ScfDriver::new(
            &builders::water_cluster(3),
            &sto3g(),
            ScfConfig {
                distributed: Some(DistributedScf {
                    plan: FaultPlan::seeded(6, 2, &FaultConfig::chaotic()),
                    cluster: Some(ClusterSpec::azure_nd_a100_v4()),
                }),
                ..ScfConfig::default()
            },
        );
        let run = |budget: usize| {
            let session = ScfSession::with_store_budget(&driver, ScfRunOptions::default(), budget)
                .expect("session");
            driver.run_session(session).expect("distributed scf")
        };
        let (kept, direct) = (run(TENSOR_STORE_BYTES), run(0));
        assert!(kept.converged);
        assert!(kept.evaluations_reused > 0, "a distributed session reused no tensor");
        assert_eq!((direct.evaluations_reused, direct.tensor_store_bytes), (0, 0));
        assert_eq!(kept.energy.to_bits(), direct.energy.to_bits());
        assert!(kept
            .density
            .as_slice()
            .iter()
            .zip(direct.density.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&kept.iteration_seconds), bits(&direct.iteration_seconds));
        assert_eq!(kept.clock.iterations(), direct.clock.iterations());
        assert_eq!(kept.clock.recoveries(), direct.clock.recoveries());
        assert!(!kept.clock.total_recovery().quiet(), "the chaotic plan fired no recovery");
    }

    #[test]
    fn a_run_resumed_on_its_driver_keeps_the_killed_sessions_integrals() {
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let quantized_b3lyp = ScfConfig {
            method: ScfMethod::Rks(crate::xc::b3lyp()),
            quantized: true,
            grid: (20, 8),
            ..ScfConfig::default()
        };
        for (n, config) in [ScfConfig::default(), quantized_b3lyp].into_iter().enumerate() {
            let quantized = config.quantized;
            let new_driver = || ScfDriver::new(&builders::water(), &sto3g(), config.clone());
            let driver = new_driver();
            let full = driver.run().expect("uninterrupted run");
            let counters = |r: &ScfResult| (r.evaluations_reused, r.tensor_store_bytes);
            assert!(full.evaluations_reused > 0);
            // A run that returns a result parks nothing: a second run starts empty.
            assert!(driver.parked.lock().is_none());
            assert_eq!(counters(&driver.run().expect("second run")), counters(&full));

            let path = std::env::temp_dir()
                .join(format!("mako-parked-store-{}-{n}.ckpt", std::process::id()));
            let err = driver
                .run_with(ScfRunOptions {
                    checkpoint: Some(CheckpointPolicy::new(1, path.clone())),
                    kill_after: Some(3),
                    ..ScfRunOptions::default()
                })
                .expect_err("the run dies at iteration 3");
            assert!(matches!(&err, ScfError::Killed(ck) if ck.next_iteration == 3), "{err}");
            let ck = ScfCheckpoint::load(&path).expect("load checkpoint");
            let _ = std::fs::remove_file(&path);
            {
                let parked = driver.parked.lock();
                let counts = parked.as_ref().expect("the killed run parked its store").counts();
                assert!(counts[0] > 0);
                assert_eq!(counts[2] > 0, quantized, "quantized tensors parked: {counts:?}");
            }

            // A session of another budget neither takes the parked store nor drops it.
            let other = ScfSession::with_store_budget(&driver, ScfRunOptions::default(), 0)
                .expect("session");
            assert_eq!((other.tensors.budget_bytes(), other.tensors.reused()), (0, 0));
            drop(other);
            assert!(driver.parked.lock().is_some());

            let resume = |drv: &ScfDriver| {
                drv.run_with(ScfRunOptions {
                    resume: Some(ck.clone()),
                    ..ScfRunOptions::default()
                })
                .expect("resumed run")
            };
            let kept = resume(&driver);
            assert!(driver.parked.lock().is_none(), "the resumed run took the store");
            // The crash path: a new driver, an empty store.
            let fresh = resume(&new_driver());
            for (res, label) in [(&kept, "same driver"), (&fresh, "new driver")] {
                let label = format!("config {n}, {label}");
                assert_eq!(res.energy.to_bits(), full.energy.to_bits(), "{label}");
                assert_eq!(bits(res.density.as_slice()), bits(full.density.as_slice()), "{label}");
                assert_eq!(bits(&res.iteration_seconds), bits(&full.iteration_seconds), "{label}");
                assert_eq!(res.stats, full.stats, "{label}");
                assert_eq!(res.clock.iterations(), full.clock.iterations(), "{label}");
            }
            assert_eq!(kept.clock.recoveries(), fresh.clock.recoveries());
            // Every quartet was evaluated once across the kill, as in the
            // uninterrupted run; the new driver evaluated some twice.
            assert_eq!(counters(&kept), counters(&full), "config {n}");
            assert!(fresh.evaluations_reused < full.evaluations_reused, "config {n}");
        }
    }

    #[test]
    fn a_kill_saves_its_checkpoint_whatever_the_cadence() {
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let new_driver = || ScfDriver::new(&builders::water(), &sto3g(), ScfConfig::default());
        let driver = new_driver();
        let full = driver.run().expect("uninterrupted run");
        let path = std::env::temp_dir().join(format!("mako-kill-save-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let kill = |every: usize| {
            driver
                .run_with(ScfRunOptions {
                    checkpoint: Some(CheckpointPolicy::new(every, path.clone())),
                    kill_after: Some(3),
                    ..ScfRunOptions::default()
                })
                .expect_err("the run dies at iteration 3")
        };
        let carried = |err: ScfError| match err {
            ScfError::Killed(ck) => *ck,
            err => panic!("expected a kill, got {err}"),
        };
        // `every = 0` disables saving, the kill's save included, and the
        // kill still carries the state.
        let unsaved = carried(kill(0));
        assert_eq!(unsaved.next_iteration, 3);
        assert!(!path.exists(), "a disabled policy wrote a checkpoint");
        // Iteration 3 is no multiple of 4, and the kill saves it anyway:
        // the very checkpoint it carries.
        let ck = carried(kill(4));
        assert_eq!(ck.next_iteration, 3);
        let saved = ScfCheckpoint::load(&path).expect("the kill saved a checkpoint");
        let _ = std::fs::remove_file(&path);
        assert_eq!(saved, ck);
        let res = new_driver()
            .run_with(ScfRunOptions {
                resume: Some(ck),
                ..ScfRunOptions::default()
            })
            .expect("resumed run");
        assert_eq!(res.energy.to_bits(), full.energy.to_bits());
        assert_eq!(bits(res.density.as_slice()), bits(full.density.as_slice()));
        assert_eq!(bits(&res.iteration_seconds), bits(&full.iteration_seconds));
        assert_eq!(res.stats, full.stats);
    }

    /// Reference for [`occupied_density`]: every `D[μ, ν]` of both
    /// triangles as its own sum over `o` in order.
    fn occupied_density_oracle(c: &Matrix, n_occ: usize) -> Matrix {
        let n = c.rows();
        let mut d = Matrix::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut s = 0.0;
                for o in 0..n_occ {
                    s += c[(mu, o)] * c[(nu, o)];
                }
                d[(mu, nu)] = s;
            }
        }
        d
    }

    #[test]
    fn occupied_density_is_the_triple_loop_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        // 1, 7, 9 and 43 leave a partial block of `DENSITY_LANES` on most rows.
        for n in [1usize, 7, 8, 9, 43, 168] {
            let c = Matrix::from_fn(n, n, |_, _| next());
            for n_occ in [0, 1, n / 2, n] {
                assert_eq!(
                    bits(&occupied_density(&c, n_occ)),
                    bits(&occupied_density_oracle(&c, n_occ)),
                    "n={n}, n_occ={n_occ}"
                );
            }
        }
        // And through density_from_fock, on a symmetric F and a non-trivial X.
        let n = 43;
        let mut f = Matrix::from_fn(n, n, |_, _| next());
        f.symmetrize();
        let x = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.05 * next() });
        let (d, eps) = density_from_fock(&f, &x, 21).expect("eigh");
        let fp = gemm(&gemm(&x, Transpose::Yes, &f, Transpose::No), Transpose::No, &x, Transpose::No);
        let ed = eigh(&fp).expect("eigh");
        let c = gemm(&x, Transpose::No, &ed.vectors, Transpose::No);
        assert_eq!(bits(&d), bits(&occupied_density_oracle(&c, 21)));
        assert_eq!(eps, ed.values);
    }

    #[test]
    fn iteration_timing_metric_excludes_first() {
        let mol = builders::water();
        let res = ScfDriver::new(&mol, &sto3g(), ScfConfig::default()).run().expect("scf run");
        assert!(res.iteration_seconds.len() >= 2);
        let manual =
            res.iteration_seconds[1..].iter().sum::<f64>() / (res.iteration_seconds.len() - 1) as f64;
        assert!((res.avg_iteration_seconds - manual).abs() < 1e-15);
    }
}
