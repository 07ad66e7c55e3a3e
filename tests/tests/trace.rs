//! Tracing inertness: `mako-trace` instrumentation must be provably
//! numerically inert. With the collector enabled, J/K matrices, the
//! scheduler stats, the simulated device clock, and the converged SCF
//! energy must be **bitwise identical** to an untraced run at any host
//! thread count — tracing only reads values the computation already
//! produced, never perturbs them.
//!
//! The trace global is process-wide state, so everything lives in ONE test
//! function with a strict phase order: all untraced baselines run first,
//! then the collector is switched on (it cannot be switched back off), then
//! the traced replicas run and the captured events are schema-validated.

use mako::accel::{CostModel, DeviceSpec};
use mako::chem::basis::sto3g::sto3g;
use mako::chem::AoLayout;
use mako::eri::batch::batch_quartets;
use mako::eri::screening::build_screened_pairs;
use mako::kernels::pipeline::PipelineConfig;
use mako::linalg::Matrix;
use mako::prelude::*;
use mako::quant::QuantSchedule;
use mako::scf::fock::{build_jk_with_configs, FockEngineOptions, JkMatrices};
use mako::scf::{b3lyp, ScfDriver};

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.as_slice().len() == b.as_slice().len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn two_electron_energy(d: &Matrix, jk: &JkMatrices) -> f64 {
    d.dot(&jk.j) - 0.5 * d.dot(&jk.k)
}

#[test]
fn tracing_is_numerically_inert_and_emits_the_documented_spans() {
    // ---- Shared Fock workload: a water dimer, mixed FP64/quantized. ----
    let mol = mako::chem::builders::water_cluster(2);
    let shells = sto3g().shells_for(&mol);
    let layout = AoLayout::new(&shells);
    let pairs = build_screened_pairs(&shells, 1e-6);
    let batches = batch_quartets(&pairs, 1e-10);
    let schedule = QuantSchedule::for_iteration(1.0, 1e-7);
    let model = CostModel::new(DeviceSpec::a100());
    let fp64_cfg = PipelineConfig::kernel_mako_fp64();
    let quant_cfg = PipelineConfig::quant_mako();
    let n = layout.nao;
    let mut density = Matrix::from_fn(n, n, |i, j| 0.3 / (1.0 + (i as f64 - j as f64).abs()));
    density.symmetrize();

    let build = || {
        build_jk_with_configs(
            &density,
            &pairs,
            &batches,
            &layout,
            &schedule,
            |_| (fp64_cfg, quant_cfg),
            &model,
            FockEngineOptions::default(),
        )
    };

    // ---- Phase 1: untraced baselines (collector still off). ----
    assert!(
        !mako::trace::enabled(),
        "trace collector must start disabled in this test binary"
    );
    let (jk_ref, st_ref) = build();
    let e2_ref = two_electron_energy(&density, &jk_ref);
    let scf_ref = MakoEngine::new()
        .run_rhf(&mol, BasisFamily::Sto3g)
        .expect("untraced scf run");
    // The B3LYP golden configuration (tests/tests/golden.rs): the one run
    // that crosses the grid, the AO tabulation and `evaluate_xc`.
    let dft = ScfDriver::new(
        &mako::chem::builders::water(),
        &sto3g(),
        ScfConfig {
            method: ScfMethod::Rks(b3lyp()),
            e_tol: 1e-10,
            grid: (35, 12),
            ..ScfConfig::default()
        },
    );
    let dft_ref = dft.run().expect("untraced B3LYP run");

    // ---- Phase 2: collector on; traced replicas at 1/2/4/8 threads. ----
    mako::trace::enable_with_capacity(1 << 18);
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build thread pool");
        let (jk, st) = pool.install(build);
        assert!(
            bits_equal(&jk.j, &jk_ref.j) && bits_equal(&jk.k, &jk_ref.k),
            "traced J/K drifted from the untraced baseline at {threads} threads"
        );
        assert_eq!(st, st_ref, "stats drifted at {threads} threads");
        assert_eq!(
            st.device_seconds.to_bits(),
            st_ref.device_seconds.to_bits(),
            "simulated device clock drifted at {threads} threads"
        );
        assert_eq!(
            two_electron_energy(&density, &jk).to_bits(),
            e2_ref.to_bits(),
            "two-electron energy drifted at {threads} threads"
        );
    }

    let scf_traced = MakoEngine::new()
        .run_rhf(&mol, BasisFamily::Sto3g)
        .expect("traced scf run");
    assert_eq!(
        scf_traced.energy.to_bits(),
        scf_ref.energy.to_bits(),
        "traced SCF energy is not bitwise identical to the untraced run"
    );
    assert_eq!(scf_traced.iterations, scf_ref.iterations);
    let dft_traced = dft.run().expect("traced B3LYP run");
    assert_eq!(
        (dft_traced.energy.to_bits(), dft_traced.iterations),
        (dft_ref.energy.to_bits(), dft_ref.iterations),
        "traced B3LYP energy is not bitwise identical to the untraced run"
    );

    // ---- Phase 3: the captured events carry the documented schema. ----
    let dump = mako::trace::drain();
    assert!(dump.recorded > 0, "no events recorded");
    let jsonl = dump.to_jsonl();
    let summary = mako::trace::schema::validate_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("emitted JSONL violates its own schema: {e}"));
    for name in [
        "scf.iteration",
        "scf.xc",
        "fock.screen",
        "fock.launch",
        "fock.assemble",
        "clock.iteration",
        "compiler.tune_class",
    ] {
        assert!(
            summary.names.contains(name),
            "expected event {name} missing; saw {:?}",
            summary.names
        );
    }
    assert!(summary.spans > 0 && summary.instants > 0);

    // Chrome export of the same dump must be valid JSON too.
    let chrome = dump.to_chrome();
    mako::trace::schema::parse_json(&chrome)
        .unwrap_or_else(|e| panic!("Chrome export is not valid JSON: {e}"));
}
