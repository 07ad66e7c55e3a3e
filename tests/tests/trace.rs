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
//! That also makes this the one place that can require an event family to
//! appear: the fleet, serving and durability layers each run once traced.

use mako::accel::fault::{FaultConfig, FaultPlan};
use mako::accel::{ClusterSpec, CostModel, DeviceSpec};
use mako::chem::basis::sto3g::sto3g;
use mako::chem::AoLayout;
use mako::eri::batch::batch_quartets;
use mako::eri::screening::build_screened_pairs;
use mako::kernels::pipeline::PipelineConfig;
use mako::linalg::Matrix;
use mako::prelude::*;
use mako::quant::QuantSchedule;
use mako::scf::fock::{build_jk_with_configs, FockEngineOptions, JkMatrices};
use mako::scf::{
    b3lyp, CheckpointPolicy, DistributedScf, EnsembleConfig, EnsembleDriver, ScfCheckpoint,
    ScfDriver, ScfError, ScfResult, ScfRunOptions,
};
use mako::server::{Journal, ServeReport, ServerConfig};
use mako::store::{FaultProfile, FaultVfs, Vfs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

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

/// Everything a distributed SCF produces that tracing must not move: energy,
/// density, iteration count, both ledgers and the host's tensor reuse.
fn scf_bits(res: &ScfResult) -> (Vec<u64>, String, usize, usize) {
    let floats = [res.energy, res.total_seconds].into_iter().chain(res.density.as_slice().iter().copied());
    let ledgers = format!("{:?} {:?}", res.clock.iterations(), res.clock.recoveries());
    (floats.map(f64::to_bits).collect(), ledgers, res.evaluations_reused, res.tensor_store_bytes)
}

fn energy_bits(report: &ServeReport) -> Vec<Option<u64>> {
    report.outcomes.iter().map(|o| o.energy().map(f64::to_bits)).collect()
}

fn store_backed(vfs: &Arc<FaultVfs>) -> MakoServer {
    let vfs = vfs.clone() as Arc<dyn Vfs>;
    MakoServer::with_store(ServerConfig::default(), vfs, PathBuf::from("/srv"))
        .expect("open store-backed server")
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
    // that crosses the grid, the AO tabulation and `evaluate_xc`. Each run
    // builds its own driver, so a traced one also traces the grid build and
    // the AO tabulation.
    let dft = || {
        let config = ScfConfig {
            method: ScfMethod::Rks(b3lyp()),
            e_tol: 1e-10,
            grid: (35, 12),
            ..ScfConfig::default()
        };
        ScfDriver::new(&mako::chem::builders::water(), &sto3g(), config).run()
    };
    let dft_base = dft().expect("untraced B3LYP run");
    let (dft_iterations, dft_ref) = (dft_base.iterations, scf_bits(&dft_base));
    // A QuantMako run: the one that fills and reads the quantized tier.
    let quantized = || {
        MakoEngine::new()
            .with_quantization(true)
            .run_rhf(&mol, BasisFamily::Sto3g)
            .expect("quantized scf run")
    };
    let quant_ref = scf_bits(&quantized());
    // The multi-rank build: a water trimer on a seeded chaotic 2-rank cluster.
    let cluster = ScfDriver::new(
        &mako::chem::builders::water_cluster(3),
        &sto3g(),
        ScfConfig {
            distributed: Some(DistributedScf {
                plan: FaultPlan::seeded(6, 2, &FaultConfig::chaotic()),
                cluster: Some(ClusterSpec::azure_nd_a100_v4()),
            }),
            ..ScfConfig::default()
        },
    );
    let cluster_ref = scf_bits(&cluster.run().expect("untraced distributed run"));
    assert!(cluster_ref.2 > 0, "the distributed reference run never reused a tensor");

    // Fleet, serving and durability baselines: a 4-member ensemble on three
    // quiet ranks, a serve that loses a worker, and a store-backed serve to
    // crash and recover.
    let fleet: Vec<_> =
        (0..4).map(|seed| mako::chem::builders::perturbed_water(seed, 0.02)).collect();
    let fleet_ranks = EnsembleConfig {
        plan: FaultPlan::quiet(3),
    };
    let ensemble =
        EnsembleDriver::try_new(&fleet, &sto3g(), ScfConfig::default(), fleet_ranks.clone())
            .expect("ensemble driver");
    let fleet_bits = |res: &mako::scf::EnsembleResult| -> Vec<u64> {
        let members = res.members.iter().map(|m| m.as_ref().expect("member").energy.to_bits());
        members.chain([res.ledger.fused_device_seconds.to_bits()]).collect()
    };
    let fleet_ref = fleet_bits(&ensemble.run());
    let jobs = vec![
        JobSpec::new("alice", PriorityClass::Interactive, mako::chem::builders::water()),
        JobSpec::new("bob", PriorityClass::Batch, mako::chem::builders::methane()).at(1e-4),
    ];
    let chaos = ServerChaos::seeded(11, 2).kill_worker(1, 0.4);
    let serve = || {
        let report = MakoServer::new(ServerConfig { workers: 2, ..ServerConfig::default() })
            .serve(&jobs, &chaos);
        (energy_bits(&report), format!("{:?}", report.ledger), report.makespan.to_bits())
    };
    let serve_ref = serve();
    let quiet_vfs = Arc::new(FaultVfs::quiet());
    let store_ref = energy_bits(&store_backed(&quiet_vfs).serve_quiet(&jobs));
    // The latest crash point that leaves the batch job unresolved in the
    // journal — what recovery will run again.
    let crashed_at = |k: u64| {
        let vfs = Arc::new(FaultVfs::new(FaultProfile::crash_at(7, k)));
        let crashed = store_backed(&vfs).serve_quiet(&jobs).crashed;
        vfs.recover_crash();
        (vfs, crashed)
    };
    let crash_op = (quiet_vfs.ops() / 2..quiet_vfs.ops())
        .rev()
        .find(|&k| {
            let (vfs, crashed) = crashed_at(k);
            let (records, _) = Journal::new(vfs.clone() as Arc<dyn Vfs>, "/srv/serve.wal".into())
                .replay()
                .expect("replay");
            let batch_done =
                records.iter().any(|r| r.job() == Some(1) && r.outcome(&jobs[1]).is_some());
            crashed && !batch_done
        })
        .expect("some crash point leaves the batch job unresolved");

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
        // A whole SCF: every build after the first scatters held tensors.
        let scf_traced = pool
            .install(|| MakoEngine::new().run_rhf(&mol, BasisFamily::Sto3g))
            .expect("traced scf run");
        assert_eq!(
            scf_traced.energy.to_bits(),
            scf_ref.energy.to_bits(),
            "traced SCF energy is not bitwise identical to the untraced run at {threads} threads"
        );
        assert_eq!(scf_traced.iterations, scf_ref.iterations);
        assert!(scf_ref.evaluations_reused > 0, "the reference run never reused a tensor");
        assert_eq!(
            (scf_traced.evaluations_reused, scf_traced.tensor_store_bytes),
            (scf_ref.evaluations_reused, scf_ref.tensor_store_bytes),
            "tensor reuse drifted at {threads} threads"
        );
        let cluster_traced = pool.install(|| cluster.run()).expect("traced distributed run");
        assert!(
            scf_bits(&cluster_traced) == cluster_ref,
            "traced distributed SCF drifted from the untraced run at {threads} threads"
        );
        let dft_traced = pool.install(dft).expect("traced B3LYP run");
        assert!(
            scf_bits(&dft_traced) == dft_ref,
            "traced B3LYP SCF drifted from the untraced run at {threads} threads"
        );
    }

    assert!(scf_bits(&quantized()) == quant_ref, "traced quantized SCF drifted");
    assert_eq!(fleet_bits(&ensemble.run()), fleet_ref, "traced ensemble drifted");
    assert_eq!(serve(), serve_ref, "traced chaos serve drifted");
    // Crash → rot every persisted artifact → recover in a new process: the
    // batch job runs again, the rot is quarantined, the energies untouched.
    let (vfs, _) = crashed_at(crash_op);
    for artifact in vfs.list(Path::new("/srv/artifacts")).expect("artifacts persisted") {
        assert!(vfs.corrupt(&artifact, 30, 0x40));
    }
    let recovered = store_backed(&vfs)
        .recover(&jobs, &ServerChaos::quiet(ServerConfig::default().workers))
        .expect("recover");
    assert_eq!(energy_bits(&recovered), store_ref, "traced crash recovery drifted");

    // ---- Phase 3: the captured events carry the documented schema. ----
    let dump = mako::trace::drain();
    assert!(dump.recorded > 0, "no events recorded");
    assert_eq!(dump.dropped, 0, "the ring overflowed: a missing name below would be ambiguous");
    let jsonl = dump.to_jsonl();
    let summary = mako::trace::schema::validate_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("emitted JSONL violates its own schema: {e}"));
    for name in [
        "chem.shells",
        "eri.screen_pairs",
        "eri.batch_quartets",
        "scf.grid_build",
        "scf.ao_eval",
        "scf.iteration",
        "scf.xc",
        "scf.diis",
        "scf.density",
        "linalg.orthogonalizer",
        "linalg.eigh",
        "fock.screen",
        "fock.launch",
        "fock.assemble",
        "dist.build_jk_ft",
        "dist.share",
        "clock.iteration",
        "compiler.tune_class",
        "ensemble.run",
        "ensemble.iteration",
        "ensemble.launch",
        "ensemble.member",
        "server.run",
        "server.admission",
        "server.quantum",
        "job.submit",
        "job.start",
        "job.outcome",
        "store.append",
        "store.crash",
        "store.quarantine",
        "recover.replay",
        "recover.serve",
    ] {
        assert!(
            summary.names.contains(name),
            "expected event {name} missing; saw {:?}",
            summary.names
        );
    }
    // Emitted ⊆ registered: every event the suite captured is documented.
    let emitted: std::collections::BTreeSet<String> =
        dump.events.iter().map(|e| format!("{}.{}", e.cat, e.name)).collect();
    for name in &emitted {
        assert!(
            mako::trace::schema::is_known_event(name),
            "{name} is emitted but not in the documented schema (KNOWN_EVENTS)"
        );
    }
    assert!(summary.spans > 0 && summary.instants > 0);
    // The host tail's spans: one `linalg.eigh` and one `scf.density` per
    // diagonalization, which is every iteration's plus a fresh session's
    // core guess, so more than the iterations' `scf.diis`.
    let spans_named = |cat: &str, name: &str| {
        dump.events.iter().filter(|e| (e.cat, e.name) == (cat, name)).count()
    };
    let eighs = spans_named("linalg", "eigh");
    assert_eq!(eighs, spans_named("scf", "density"));
    assert!(spans_named("scf", "diis") < eighs);
    // The driver's setup spans: every traced driver at each of the 1/2/4/8
    // thread counts builds its shells, screens its own pairs (no override)
    // and batches its quartets, and its pair screen keeps at most the
    // shell pairs it tried.
    for (cat, name) in [("chem", "shells"), ("eri", "screen_pairs"), ("eri", "batch_quartets")] {
        assert!(spans_named(cat, name) >= 4 * 3, "{cat}.{name}: too few setup spans");
    }
    let field = |e: &mako::trace::Event, key: &str| {
        match e.fields.iter().find(|f| f.key == key).map(|f| &f.value) {
            Some(&mako::trace::FieldValue::U64(v)) => v,
            other => panic!("{}.{} {key} is {other:?}", e.cat, e.name),
        }
    };
    for e in dump.events.iter().filter(|e| (e.cat, e.name) == ("eri", "screen_pairs")) {
        assert!(0 < field(e, "kept") && field(e, "kept") <= field(e, "pairs"));
    }
    // Every completed `scf.iteration` splits its device seconds into the
    // terms `advance` adds, in its order, so they sum to the total bit for
    // bit; the B3LYP runs charge XC.
    let mut xc_charged = 0;
    let iterations = dump.events.iter().filter(|e| (e.cat, e.name) == ("scf", "iteration"));
    for span in iterations.filter(|e| !e.fields.is_empty()) {
        let seconds = |key: &str| match span.fields.iter().find(|f| f.key == key).map(|f| &f.value) {
            Some(&mako::trace::FieldValue::F64(v)) => v,
            other => panic!("scf.iteration {key} is {other:?}, not device seconds"),
        };
        let (eri, xc, diag) = (seconds("eri_seconds"), seconds("xc_seconds"), seconds("diag_seconds"));
        assert_eq!((eri + xc + diag).to_bits(), seconds("total_seconds").to_bits());
        xc_charged += usize::from(xc > 0.0);
    }
    assert!(xc_charged >= 4 * dft_iterations, "the traced B3LYP runs charged no XC");
    // The fleet reports the ranks its fault plan dispatches over.
    let fleet_runs = dump.events.iter().filter(|e| (e.cat, e.name) == ("ensemble", "run"));
    for run in fleet_runs {
        let ranks = run.fields.iter().find(|f| f.key == "ranks").map(|f| &f.value);
        assert!(
            matches!(ranks, Some(&mako::trace::FieldValue::U64(r)) if r == fleet_ranks.plan.ranks() as u64),
            "ensemble.run reports ranks {ranks:?}, its plan has {}",
            fleet_ranks.plan.ranks()
        );
    }
    // `fock.assemble` shows the host's reuse: `stored`/`reused` count the
    // FP64 tier, `quantized_stored`/`quantized_reused` the quantized tier;
    // the stateless `build` above reports none.
    let assemble_sum = |key: &str| -> u64 {
        let assembles = dump.events.iter().filter(|e| (e.cat, e.name) == ("fock", "assemble"));
        assembles
            .filter_map(|e| e.fields.iter().find(|f| f.key == key))
            .map(|f| match f.value {
                mako::trace::FieldValue::U64(v) => v,
                _ => panic!("fock.assemble {key} is not a count"),
            })
            .sum()
    };
    assert!(assemble_sum("stored") > 0 && assemble_sum("store_bytes") > 0);
    assert!(assemble_sum("reused") >= 4 * scf_ref.evaluations_reused as u64);
    assert!(assemble_sum("quantized_stored") > 0);
    assert!(assemble_sum("quantized_reused") > 0, "the quantized run reused no quantized tensor");

    // Chrome export of the same dump must be valid JSON too.
    let chrome = dump.to_chrome();
    mako::trace::schema::parse_json(&chrome)
        .unwrap_or_else(|e| panic!("Chrome export is not valid JSON: {e}"));

    // A run killed at iteration 3 and resumed from its checkpoint charges
    // each iteration to the device clock once: the resumed run takes the
    // saved ledgers over without emitting them again.
    let water = ScfDriver::new(&mako::chem::builders::water(), &sto3g(), ScfConfig::default());
    let path = std::env::temp_dir().join(format!("mako_trace_resume_{}.ckpt", std::process::id()));
    let killed = water.run_with(ScfRunOptions {
        checkpoint: Some(CheckpointPolicy::new(1, path.clone())),
        kill_after: Some(3),
        ..ScfRunOptions::default()
    });
    assert!(matches!(&killed, Err(ScfError::Killed(ck)) if ck.next_iteration == 3));
    let resumed = water
        .run_with(ScfRunOptions {
            resume: Some(ScfCheckpoint::load(&path).expect("load checkpoint")),
            ..ScfRunOptions::default()
        })
        .expect("resumed run");
    let _ = std::fs::remove_file(&path);
    let clock_iterations = mako::trace::drain()
        .events
        .iter()
        .filter(|e| (e.cat, e.name) == ("clock", "iteration"))
        .count();
    assert_eq!(
        clock_iterations, resumed.iterations,
        "a killed-and-resumed run must emit one clock.iteration per iteration it ran"
    );

    // A zero straggler bar times out every attempt, each one a
    // `server.fault` of kind `attempt_timeout`: as many as the ledger counts.
    let timed_out = MakoServer::new(ServerConfig {
        attempt_timeout: 0.0,
        ..ServerConfig::default()
    })
    .serve_quiet(&jobs);
    let is_timeout = |e: &mako::trace::Event| {
        (e.cat, e.name) == ("server", "fault")
            && e.fields.iter().any(|f| {
                f.key == "kind"
                    && matches!(&f.value, mako::trace::FieldValue::Str(k) if k == "attempt_timeout")
            })
    };
    let timeout_faults = mako::trace::drain().events.iter().filter(|e| is_timeout(e)).count();
    assert!(timed_out.ledger.timeouts > 0, "a zero straggler bar timed nothing out");
    assert_eq!(
        timeout_faults, timed_out.ledger.timeouts,
        "every straggler timeout must emit one server.fault of kind attempt_timeout"
    );

    // A one-thread run's wall is its top-level spans: every `scf.iteration`,
    // the setup (`eri.one_electron`, `linalg.orthogonalizer`, `scf.setup`)
    // and the guess's `linalg.eigh` and `scf.density`, which close before
    // any iteration's own. What falls between them is bookkeeping, so a
    // layer that goes untraced shows here as a gap of more than 5 %.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    let b3lyp_water = ScfConfig {
        method: ScfMethod::Rks(b3lyp()),
        e_tol: 1e-10,
        grid: (35, 12),
        ..ScfConfig::default()
    };
    let drivers = [
        ("RHF water trimer", mako::chem::builders::water_cluster(3), ScfConfig::default()),
        ("B3LYP water", mako::chem::builders::water(), b3lyp_water),
    ];
    for (name, mol, config) in drivers {
        let driver = ScfDriver::new(&mol, &sto3g(), config);
        mako::trace::drain();
        let wall = one_thread.install(|| {
            let t0 = Instant::now();
            driver.run().expect("traced one-thread run");
            t0.elapsed().as_secs_f64()
        });
        let dump = mako::trace::drain();
        let seconds = |e: &mako::trace::Event| match e.kind {
            mako::trace::EventKind::Span { dur_us } => dur_us * 1e-6,
            _ => panic!("{}.{} is not a span", e.cat, e.name),
        };
        let named = |cat: &str, name: &str| -> Vec<f64> {
            let events = dump.events.iter().filter(|e| (e.cat, e.name) == (cat, name));
            events.map(seconds).collect()
        };
        let iterations = named("scf", "iteration");
        assert!(!iterations.is_empty(), "{name}: no scf.iteration span");
        let setup = [("eri", "one_electron"), ("linalg", "orthogonalizer"), ("scf", "setup")];
        let guess = [("linalg", "eigh"), ("scf", "density")];
        let covered: f64 = iterations.iter().sum::<f64>()
            + setup.iter().map(|&(cat, n)| named(cat, n).iter().sum::<f64>()).sum::<f64>()
            + guess.iter().map(|&(cat, n)| named(cat, n)[0]).sum::<f64>();
        let share = covered / wall;
        assert!(
            (0.95..=1.0 + 1e-9).contains(&share),
            "{name}: top-level spans cover {share:.4} of the {wall:.4} s wall"
        );
    }
}
