//! The layer replay: the benchmark steps one SCF itself through the public
//! functions `ScfDriver` is made of, with a span around each call, so that a
//! second of the end-to-end run can be attributed to a layer without a single
//! change under `crates/`.
//!
//! The replay follows the FP64 full-rebuild path (and the quantized schedule,
//! which is one public call). It deliberately does not copy the incremental
//! rebuild policy: a later change to that policy must be measurable without
//! editing the benchmark. On `scf_wide_incr` the replay therefore runs the
//! full-rebuild SCF of the same input, and the Fock numbers of that workload
//! come from the events the traced end-to-end run emits instead.

use crate::spans::Spans;
use mako_accel::CostModel;
use mako_chem::{AoLayout, BasisFamily, Molecule};
use mako_compiler::KernelCache;
use mako_eri::{batch_quartets, build_screened_pairs, one_electron_matrices};
use mako_linalg::{eigh, gemm, sym_inv_sqrt_diag, Matrix, Transpose};
use mako_precision::Precision;
use mako_quant::QuantSchedule;
use mako_scf::fock::{build_jk_with_configs, FockEngineOptions};
use mako_scf::xc::{evaluate_aos, evaluate_xc, hartree_fock};
use mako_scf::{Diis, MolecularGrid, ScfConfig, ScfMethod};

/// What the replay found besides its spans.
pub struct Replayed {
    pub energy: f64,
    pub iterations: usize,
    pub converged: bool,
    pub nao: usize,
    pub shell_pairs: usize,
    pub screened_pairs: usize,
    pub quartets: usize,
    pub classes: usize,
    pub grid_points: usize,
    pub tunes: usize,
    pub cache_hits: usize,
    pub cache_evictions: usize,
}

/// Whether the replay takes the very path `ScfDriver::run` takes for this
/// configuration, so that energy and iteration count must agree exactly.
pub fn follows_driver_path(config: &ScfConfig) -> bool {
    !config.incremental
}

/// `X^T F X` → eigenvectors → `D = C_occ C_occ^T`, as the driver forms it.
fn density_from_fock(
    f: &Matrix,
    x: &Matrix,
    n_occ: usize,
    sp: &mut Spans,
) -> Result<Matrix, String> {
    let fp = sp.time("linalg.gemm", |_| {
        gemm(
            &gemm(x, Transpose::Yes, f, Transpose::No),
            Transpose::No,
            x,
            Transpose::No,
        )
    });
    let ed = sp
        .time("linalg.eigh", |_| eigh(&fp))
        .map_err(|e| e.to_string())?;
    let c = sp.time("linalg.gemm", |_| {
        gemm(x, Transpose::No, &ed.vectors, Transpose::No)
    });
    Ok(sp.time("scf.density", |_| {
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
    }))
}

/// GEMMs per [`density_from_fock`] call, for `linalg.gemm_gflops`.
pub const GEMMS_PER_DENSITY: usize = 3;

pub fn replay_scf(mol: &Molecule, config: &ScfConfig, sp: &mut Spans) -> Result<Replayed, String> {
    let cfg = config;
    let (shells, layout, pairs, batches, model, fp64_cfgs, quant_cfgs, grid_aos, cache) =
        sp.time("replay.setup", |sp| -> Result<_, String> {
            let shells = sp
                .time("chem.shells", |_| {
                    BasisFamily::Sto3g
                        .basis_for(&mol.elements())
                        .try_shells_for(mol)
                })
                .map_err(|e| e.to_string())?;
            let layout = AoLayout::new(&shells);
            let pairs = sp.time("eri.screen_pairs", |_| {
                build_screened_pairs(&shells, cfg.screening)
            });
            let threshold = cfg
                .quartet_threshold
                .unwrap_or(cfg.screening * cfg.screening);
            let batches = sp.time("eri.batch_quartets", |_| batch_quartets(&pairs, threshold));
            let model = CostModel::new(cfg.device.clone());
            let cache = KernelCache::new();
            let (fp64_cfgs, quant_cfgs) = sp.time("compiler.tune", |_| {
                let tune = |p: Precision| -> Vec<_> {
                    batches
                        .iter()
                        .map(|b| cache.get_or_tune(&b.class, p, &model).config)
                        .collect()
                };
                (tune(Precision::Fp64), tune(Precision::Fp16))
            });
            let grid_aos = match &cfg.method {
                ScfMethod::Rks(_) => {
                    let grid = sp.time("scf.grid_build", |_| {
                        MolecularGrid::build(mol, cfg.grid.0, cfg.grid.1)
                    });
                    let aos = sp.time("scf.ao_eval", |_| evaluate_aos(&shells, &grid));
                    Some((grid, aos))
                }
                ScfMethod::Rhf => None,
            };
            Ok((
                shells, layout, pairs, batches, model, fp64_cfgs, quant_cfgs, grid_aos, cache,
            ))
        })?;

    let functional = match &cfg.method {
        ScfMethod::Rhf => hartree_fock(),
        ScfMethod::Rks(f) => f.clone(),
    };
    let nao = layout.nao;
    let n_occ = mol.n_electrons() / 2;
    let e_nuc = mol.nuclear_repulsion();

    let (energy, iterations, converged) = sp.time("replay.run", |sp| -> Result<_, String> {
        let (s, t, v) = sp.time("eri.one_electron", |_| one_electron_matrices(&shells, mol));
        let h = t.add(&v);
        let x = sp
            .time("linalg.orthogonalizer", |_| {
                sym_inv_sqrt_diag(&s, cfg.orth_threshold)
            })
            .map_err(|e| e.to_string())?
            .matrix;
        let mut d = density_from_fock(&h, &x, n_occ, sp)?;

        let mut diis = Diis::new(8);
        let (mut e_prev, mut residual, mut residual_prev) = (f64::INFINITY, 1.0f64, f64::INFINITY);
        let mut energy = 0.0;
        for iter in 0..cfg.max_iterations {
            let schedule = if cfg.quantized {
                QuantSchedule::for_iteration(residual, cfg.e_tol)
            } else {
                QuantSchedule::fp64_reference(cfg.e_tol * 1e-5)
            };
            let (jk, _) = sp.time("scf.fock_build", |_| {
                build_jk_with_configs(
                    &d,
                    &pairs,
                    &batches,
                    &layout,
                    &schedule,
                    |bi| (fp64_cfgs[bi], quant_cfgs[bi]),
                    &model,
                    FockEngineOptions::default(),
                )
            });
            let xc = grid_aos
                .as_ref()
                .map(|(grid, aos)| sp.time("scf.xc", |_| evaluate_xc(&functional, aos, grid, &d)));

            let mut f = h.clone();
            f.axpy(2.0, &jk.j);
            f.axpy(-functional.hf_exchange, &jk.k);
            let mut e_elec =
                2.0 * d.dot(&h) + 2.0 * d.dot(&jk.j) - functional.hf_exchange * d.dot(&jk.k);
            if let Some(xc) = &xc {
                f.axpy(1.0, &xc.matrix);
                e_elec += xc.energy;
            }
            energy = e_elec + e_nuc;

            let f_diis = sp.time("scf.diis", |_| {
                let err = Diis::error_vector(&f, &d, &s, &x);
                residual = err.norm_fro() / nao as f64;
                if iter > 0
                    && residual_prev.is_finite()
                    && residual > cfg.incremental_policy.divergence_factor * residual_prev
                {
                    diis.reset();
                }
                residual_prev = residual;
                diis.extrapolate(f, err)
            });
            d = density_from_fock(&f_diis, &x, n_occ, sp)?;

            let de = (energy - e_prev).abs();
            e_prev = energy;
            if de < cfg.e_tol && residual < cfg.e_tol.sqrt() && (!cfg.quantized || iter > 0) {
                return Ok((energy, iter + 1, true));
            }
            residual = residual.max(de.min(1.0));
        }
        Ok((energy, cfg.max_iterations, false))
    })?;

    let nsh = shells.len();
    Ok(Replayed {
        energy,
        iterations,
        converged,
        nao,
        shell_pairs: nsh * (nsh + 1) / 2,
        screened_pairs: pairs.len(),
        quartets: batches.iter().map(|b| b.quartets.len()).sum(),
        classes: batches.len(),
        grid_points: grid_aos.as_ref().map_or(0, |(g, _)| g.len()),
        tunes: cache.tunes_performed(),
        cache_hits: cache.hits(),
        cache_evictions: cache.evictions(),
    })
}
