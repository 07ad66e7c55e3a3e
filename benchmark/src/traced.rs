//! The traced run (`--trace 1`): per-layer metrics from two sources, both
//! outside the program under test — the layer replay's spans around public
//! calls, and the events `mako-trace` already emits, drained after the call.
//!
//! Each traced run first repeats the workload once with tracing still off.
//! That gives the untraced wall that tracing overhead and layer coverage are
//! measured against, and outputs that the traced outputs must equal bit for
//! bit (tracing is numerically inert).

use crate::metrics::Layers;
use crate::replay::{follows_driver_path, replay_scf, GEMMS_PER_DENSITY};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{self as wl, Counters, Ctx, Kind, Measured, ScfCase, ServeInput, Workload};
use mako_chem::{BasisFamily, Molecule};
use mako_scf::{CheckpointPolicy, ScfCheckpoint, ScfConfig, ScfDriver, ScfRunOptions};
use mako_server::{JobOutcome, Journal, ServeReport};
use mako_store::{RealVfs, Vfs};
use mako_trace::{Event, EventKind, FieldValue, TraceDump};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Traced {
    pub measured: Measured,
    pub layers: Layers,
    pub spans: Spans,
    /// Disagreements between the replay and the end-to-end run.
    pub problems: Vec<String>,
}

/// Ring capacity for the traced run: a 48-job serve records a few hundred
/// thousand events, and a dropped event would falsify a count.
const RING_EVENTS: usize = 1 << 21;

// ------------------------------------------------------------- events ----

fn is(e: &Event, cat: &str, name: &str) -> bool {
    e.cat == cat && e.name == name
}

fn field(e: &Event, key: &str) -> f64 {
    e.fields
        .iter()
        .find(|f| f.key == key)
        .map_or(0.0, |f| match &f.value {
            FieldValue::U64(v) => *v as f64,
            FieldValue::I64(v) => *v as f64,
            FieldValue::F64(v) => *v,
            FieldValue::Bool(b) => *b as u8 as f64,
            FieldValue::Str(_) => 0.0,
        })
}

fn count(d: &TraceDump, cat: &str, name: &str) -> f64 {
    d.events.iter().filter(|e| is(e, cat, name)).count() as f64
}

fn sum(d: &TraceDump, cat: &str, name: &str, key: &str) -> f64 {
    d.events
        .iter()
        .filter(|e| is(e, cat, name))
        .map(|e| field(e, key))
        .sum()
}

fn span_seconds(d: &TraceDump, cat: &str, name: &str) -> f64 {
    d.events
        .iter()
        .filter(|e| is(e, cat, name))
        .map(|e| match e.kind {
            EventKind::Span { dur_us } => dur_us * 1e-6,
            _ => 0.0,
        })
        .sum()
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer numbers every workload takes from the events the program
/// emitted during one repetition.
fn layers_from_events(d: &TraceDump, l: &mut Layers) {
    l.set(
        "scf.fock_evaluate_s",
        sum(d, "fock", "assemble", "evaluate_seconds"),
    );
    l.set(
        "scf.fock_scatter_s",
        sum(d, "fock", "assemble", "scatter_seconds"),
    );
    l.set("scf.fock_launches", count(d, "fock", "launch"));
    let evaluated = sum(d, "scf", "iteration", "evaluated_quartets");
    let skipped = sum(d, "scf", "iteration", "skipped_quartets");
    let pruned = sum(d, "scf", "iteration", "pruned_quartets");
    l.set("scf.quartets_evaluated", evaluated);
    l.set("scf.quartets_skipped", skipped);
    l.set("scf.quartets_pruned", pruned);
    l.set("scf.skip_frac", frac(skipped, evaluated + skipped + pruned));
    l.set("scf.rebuilds", sum(d, "scf", "iteration", "rebuild"));
    l.set("scf.iterations", count(d, "scf", "iteration"));
    let (fp64, quantized) = (
        sum(d, "fock", "screen", "fp64_quartets"),
        sum(d, "fock", "screen", "quantized_quartets"),
    );
    let scheduled = fp64 + quantized + sum(d, "fock", "screen", "pruned_quartets");
    l.set("quant.fp64_frac", frac(fp64, scheduled));
    l.set("quant.quantized_frac", frac(quantized, scheduled));
    l.set(
        "quant.pruned_frac",
        frac(scheduled - fp64 - quantized, scheduled),
    );
    let eri = sum(d, "scf", "iteration", "eri_seconds");
    l.set("accel.eri_device_s", eri);
    l.set(
        "accel.other_device_s",
        sum(d, "scf", "iteration", "total_seconds") - eri,
    );
    l.set("store.journal_appends", count(d, "store", "append"));
    l.set("store.journal_bytes", sum(d, "store", "append", "bytes"));
    l.set(
        "store.records_replayed",
        sum(d, "recover", "replay", "records"),
    );
    l.set(
        "store.checkpoints_salvaged",
        sum(d, "recover", "serve", "salvaged"),
    );
    l.set("trace.events", d.recorded as f64);
    l.set("trace.dropped", d.dropped as f64);
}

/// The program's outputs on its simulated device clock, and its energy error.
fn output_layers(m: &Measured, l: &mut Layers) {
    l.set("accel.device_s", m.device_s);
    l.set("accel.device_iter_s", m.device_iter_s);
    if !m.latencies_s.is_empty() {
        l.set("server.job_latency_p50_device_s", median(&m.latencies_s));
        l.set(
            "server.job_latency_p75_device_s",
            crate::latency_p75(&m.latencies_s),
        );
    }
    l.set("scf.energy_err_ha", m.energy_err_ha);
}

fn enable_tracing() {
    mako_trace::enable_with_capacity(RING_EVENTS);
    mako_trace::drain();
}

/// Repeat `one` traced until `seconds` have passed, and keep the events of
/// the first repetition only: every repetition emits the same ones, and a
/// number averaged over however many repetitions the time allowed would not
/// repeat bit for bit.
fn traced_reps<O>(
    seconds: f64,
    spans: &mut Spans,
    mut one: impl FnMut() -> (f64, f64, O),
) -> (wl::Reps<O>, TraceDump) {
    let mut first = None;
    let reps = wl::repeat(seconds, 1, |rep| {
        spans.rep = rep as u32;
        let out = spans.time("bench.rep", |_| one());
        let dump = mako_trace::drain();
        first.get_or_insert(dump);
        out
    });
    (reps, first.expect("at least one repetition"))
}

// ---------------------------------------------------------------- SCF ----

fn traced_scf(case: &ScfCase, ctx: &Ctx) -> Traced {
    let input = wl::scf_input(case, ctx);
    let (untraced_setup, untraced_wall, untraced_result) = wl::scf_rep(&input);
    let reference = wl::scf_reference(case, &input, ctx);

    enable_tracing();
    let mut spans = Spans::new();
    let (reps, dump) = traced_reps(ctx.seconds / 2.0, &mut spans, || wl::scf_rep(&input));
    let (mut m, mut results) = Measured::of(input.hash, reps);

    spans.rep = results.len() as u32;
    let replayed = replay_scf(&input.mol, &input.config, &mut spans);
    mako_trace::drain();

    let mut layers = Layers::new();
    layers_from_events(&dump, &mut layers);
    layers.set("trace.overhead_frac", m.wall() / untraced_wall - 1.0);
    let mut problems = Vec::new();
    let own = spans.self_seconds();
    let span = |name: &str| own.get(name).copied().unwrap_or(0.0);
    for (metric, name) in [
        ("chem.shells_s", "chem.shells"),
        ("eri.screen_pairs_s", "eri.screen_pairs"),
        ("eri.batch_quartets_s", "eri.batch_quartets"),
        ("eri.one_electron_s", "eri.one_electron"),
        ("compiler.tune_s", "compiler.tune"),
        ("scf.grid_build_s", "scf.grid_build"),
        ("scf.ao_eval_s", "scf.ao_eval"),
        ("scf.xc_s", "scf.xc"),
        ("scf.diis_s", "scf.diis"),
        ("scf.density_s", "scf.density"),
        ("linalg.eigh_s", "linalg.eigh"),
        ("linalg.gemm_s", "linalg.gemm"),
        ("linalg.orthogonalizer_s", "linalg.orthogonalizer"),
    ] {
        layers.set(metric, span(name));
    }
    // Where the replay does not take the driver's path (incremental), the
    // Fock wall is what the traced run's own events add up to.
    layers.set(
        "scf.fock_build_s",
        if follows_driver_path(&input.config) {
            span("scf.fock_build")
        } else {
            span_seconds(&dump, "fock", "screen")
                + layers.get("scf.fock_evaluate_s")
                + layers.get("scf.fock_scatter_s")
        },
    );
    let layer_sum: f64 = own
        .iter()
        .filter(|(n, _)| !n.starts_with("replay.") && !n.starts_with("bench."))
        .map(|(_, s)| s)
        .sum();
    layers.set(
        "bench.layer_coverage_frac",
        layer_sum / (untraced_setup + untraced_wall),
    );

    match &replayed {
        Ok(r) => {
            layers.set("chem.nao", r.nao as f64);
            layers.set("eri.screened_pairs", r.screened_pairs as f64);
            layers.set(
                "eri.pair_survival_frac",
                frac(r.screened_pairs as f64, r.shell_pairs as f64),
            );
            layers.set("eri.quartets", r.quartets as f64);
            layers.set("eri.classes", r.classes as f64);
            layers.set("scf.grid_points", r.grid_points as f64);
            layers.set("compiler.tunes", r.tunes as f64);
            layers.set("compiler.cache_hits", r.cache_hits as f64);
            layers.set(
                "compiler.cache_hit_frac",
                frac(r.cache_hits as f64, (r.cache_hits + r.tunes) as f64),
            );
            layers.set("compiler.cache_evictions", r.cache_evictions as f64);
            let gemms = (GEMMS_PER_DENSITY * spans.count("scf.density")) as f64;
            layers.set(
                "linalg.gemm_gflops",
                frac(
                    2.0 * (r.nao as f64).powi(3) * gemms * 1e-9,
                    span("linalg.gemm"),
                ),
            );
            if let Ok(e2e) = &untraced_result {
                let de = (r.energy - e2e.energy).abs();
                if !r.converged {
                    problems.push("replay did not converge".to_string());
                } else if follows_driver_path(&input.config) {
                    if de > 1e-9 || r.iterations != e2e.iterations {
                        problems.push(format!(
                            "replay disagrees with ScfDriver::run: |dE| = {de:e} Ha, {} vs {} iterations",
                            r.iterations, e2e.iterations
                        ));
                    }
                } else if de > case.tol_ha {
                    problems.push(format!(
                        "full-rebuild replay is {de:e} Ha from the end-to-end energy"
                    ));
                }
            }
        }
        Err(e) => problems.push(format!("replay failed: {e}")),
    }

    if let Some(Ok(r)) = results.first() {
        wl::scf_fill(r, &mut m);
    }
    // The untraced repetition joins the check: tracing must not move a bit.
    results.push(untraced_result);
    wl::scf_verify(case, reference, &results, &mut m);
    output_layers(&m, &mut layers);
    Traced {
        measured: m,
        layers,
        spans,
        problems,
    }
}

// ----------------------------------------------------------- ensemble ----

fn traced_ensemble(ctx: &Ctx) -> Traced {
    let input = wl::ensemble_input(ctx);
    let (_, untraced_wall, untraced_out) = wl::ensemble_rep(&input);
    let solo = wl::ensemble_solo(&input);

    enable_tracing();
    let mut spans = Spans::new();
    let (reps, dump) = traced_reps(ctx.seconds / 2.0, &mut spans, || wl::ensemble_rep(&input));
    let (mut m, mut outs) = Measured::of(input.hash, reps);

    let mut layers = Layers::new();
    layers_from_events(&dump, &mut layers);
    layers.set("trace.overhead_frac", m.wall() / untraced_wall - 1.0);
    layers.set(
        "compiler.tune_s",
        span_seconds(&dump, "compiler", "tune_class"),
    );
    if let Some(Ok(o)) = outs.first() {
        wl::ensemble_fill(&o.result, &mut m);
        layers.set("compiler.tunes", o.tunes as f64);
        layers.set("compiler.cache_hits", o.cache_hits as f64);
        layers.set(
            "compiler.cache_hit_frac",
            frac(o.cache_hits as f64, (o.cache_hits + o.tunes) as f64),
        );
        layers.set(
            "accel.fused_launches",
            o.result.ledger.fused_launches as f64,
        );
        layers.set(
            "accel.launches_avoided",
            o.result.ledger.launches_avoided() as f64,
        );
    }
    outs.push(untraced_out);
    wl::ensemble_verify(&solo, &outs, &mut m);
    output_layers(&m, &mut layers);
    Traced {
        measured: m,
        layers,
        spans,
        problems: Vec::new(),
    }
}

// -------------------------------------------------------------- serve ----

/// Median wall of saving and loading a checkpoint that a `CheckpointPolicy`
/// run of `mol` wrote under `dir`, and its size: `(save_s, load_s, bytes)`.
fn checkpoint_timing(
    mol: &Molecule,
    config: &ScfConfig,
    dir: &Path,
    spans: &mut Spans,
) -> Result<(f64, f64, f64), String> {
    let path = dir.join("timing.ckpt");
    let basis = BasisFamily::Sto3g.basis_for(&mol.elements());
    let driver = ScfDriver::try_new(mol, &basis, config.clone()).map_err(|e| e.to_string())?;
    let opts = ScfRunOptions {
        checkpoint: Some(CheckpointPolicy::new(1, path.clone())),
        ..ScfRunOptions::default()
    };
    driver.run_with(opts).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let ck = spans
            .time("scf.checkpoint_load", |_| ScfCheckpoint::load(&path))
            .map_err(|e| e.to_string())?;
        loads.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        spans
            .time("scf.checkpoint_save", |_| {
                ck.save(&dir.join("timing-copy.ckpt"))
            })
            .map_err(|e| e.to_string())?;
        saves.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&saves), median(&loads), bytes))
}

/// Wall of replaying the serve's own journal on the store it was written to,
/// and of appending the same records again, one durable append each, on the
/// real filesystem: `(append_s, replay_s)`.
fn journal_timing(
    vfs: Arc<dyn Vfs>,
    root: &Path,
    dir: &Path,
    spans: &mut Spans,
) -> Result<(f64, f64), String> {
    let journal = Journal::new(vfs, root.join("serve.wal"));
    let t = Instant::now();
    let (records, _) = spans
        .time("store.journal_replay", |_| journal.replay())
        .map_err(|e| e.to_string())?;
    let replay_s = t.elapsed().as_secs_f64();
    let copy = Journal::new(Arc::new(RealVfs), dir.join("reappend.wal"));
    let t = Instant::now();
    spans
        .time("store.journal_append", |_| {
            records.iter().try_for_each(|r| copy.append(r))
        })
        .map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), replay_s))
}

fn store_layers(
    input: &ServeInput,
    vfs: Arc<dyn Vfs>,
    root: &Path,
    ctx: &Ctx,
    spans: &mut Spans,
    l: &mut Layers,
    problems: &mut Vec<String>,
) {
    match journal_timing(vfs, root, &ctx.work, spans) {
        Ok((append_s, replay_s)) => {
            l.set("store.journal_append_s", append_s);
            l.set("store.journal_replay_s", replay_s);
        }
        Err(e) => problems.push(format!("journal timing failed: {e}")),
    }
    let first = &input.specs[0];
    match checkpoint_timing(&first.molecule, &first.config, &ctx.work, spans) {
        Ok((save_s, load_s, bytes)) => {
            l.set("scf.checkpoint_save_s", save_s);
            l.set("scf.checkpoint_load_s", load_s);
            l.set("scf.checkpoint_bytes", bytes);
        }
        Err(e) => problems.push(format!("checkpoint timing failed: {e}")),
    }
    mako_trace::drain();
}

fn server_layers(reports: &[&ServeReport], workers: usize, l: &mut Layers) {
    let total = |f: fn(&ServeReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    l.set("server.admitted", total(|r| r.ledger.admitted as f64));
    l.set("server.rejected", total(|r| r.ledger.rejected as f64));
    l.set("server.quanta", total(|r| r.ledger.quanta as f64));
    l.set("server.preemptions", total(|r| r.ledger.preemptions as f64));
    l.set("server.retries", total(|r| r.ledger.retries as f64));
    let done: Vec<_> = reports
        .iter()
        .flat_map(|r| r.outcomes.iter().filter_map(JobOutcome::report))
        .collect();
    let busy: f64 = done.iter().map(|r| r.device_seconds).sum();
    l.set(
        "server.utilisation_frac",
        frac(busy, workers as f64 * total(|r| r.makespan)),
    );
    let waits: Vec<f64> = done.iter().map(|r| r.started_at - r.submitted_at).collect();
    if !waits.is_empty() {
        l.set("server.queue_wait_p50_device_s", median(&waits));
    }
}

fn cache_layers(c: &Counters, l: &mut Layers) {
    l.set("compiler.tunes", c.tunes as f64);
    l.set("compiler.cache_hits", c.kernel_hits as f64);
    l.set(
        "compiler.cache_hit_frac",
        frac(c.kernel_hits as f64, (c.kernel_hits + c.tunes) as f64),
    );
    l.set("compiler.cache_evictions", c.kernel_evictions as f64);
    l.set(
        "server.screen_cache_hit_frac",
        frac(
            c.screen_hits as f64,
            (c.screen_hits + c.screen_misses) as f64,
        ),
    );
    l.set("store.artifacts_stored", c.artifacts_stored as f64);
    l.set("store.artifacts_loaded", c.artifacts_loaded as f64);
    l.set("store.quarantined", c.quarantined as f64);
}

fn traced_serve_mixed(ctx: &Ctx) -> Traced {
    let input = wl::serve_mixed_input(ctx);
    let (_, untraced_wall, untraced) = wl::serve_rep(&input, &ctx.work.join("untraced"), || ());
    let solo = wl::solo_runs(&input.specs, &ctx.work);
    // Exact repeats reuse a run; their wall is that run's wall again.
    let solo_sum: f64 = solo
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|(_, wall)| wall)
        .sum();

    enable_tracing();
    let mut spans = Spans::new();
    let root = ctx.work.join("traced");
    // The warm-up serve's events are dropped; the timed serve's are kept.
    let one_rep = wl::repeat(0.0, 1, |_| {
        spans.time("bench.rep", |_| {
            wl::serve_rep(&input, &root, || {
                mako_trace::drain();
            })
        })
    });
    let dump = mako_trace::drain();
    let (mut m, mut outs) = Measured::of(input.hash, one_rep);
    let (wall_s, served) = (m.wall(), outs.pop().expect("one repetition"));

    let mut layers = Layers::new();
    let mut problems = Vec::new();
    layers_from_events(&dump, &mut layers);
    layers.set("trace.overhead_frac", wall_s / untraced_wall - 1.0);
    layers.set(
        "compiler.tune_s",
        span_seconds(&dump, "compiler", "tune_class"),
    );
    server_layers(
        &[&served.report],
        served.server.config().workers,
        &mut layers,
    );
    cache_layers(&served.counters, &mut layers);
    layers.set("server.solo_sum_s", solo_sum);
    layers.set("server.overhead_frac", 1.0 - solo_sum / untraced_wall);
    store_layers(
        &input,
        Arc::new(RealVfs),
        &root,
        ctx,
        &mut spans,
        &mut layers,
        &mut problems,
    );

    wl::serve_fill(&[&served.report], &mut m);
    wl::serve_verify("traced", &solo, &served.report, &mut m);
    wl::serve_verify("untraced", &solo, &untraced.report, &mut m);
    output_layers(&m, &mut layers);
    Traced {
        measured: m,
        layers,
        spans,
        problems,
    }
}

// ------------------------------------------------------------ recover ----

fn traced_serve_recover(ctx: &Ctx) -> Traced {
    let input = wl::serve_recover_input(ctx);
    let (_, untraced_wall, untraced) = wl::recover_rep(&input, ctx, || (), || ());

    enable_tracing();
    let mut spans = Spans::new();
    let mut dump = TraceDump {
        events: Vec::new(),
        recorded: 0,
        dropped: 0,
    };
    // Events of the probe and of each doomed serve are dropped before the
    // timed `recover`; what each `recover` records is kept.
    let one_rep = wl::repeat(0.0, 1, |_| {
        spans.time("bench.rep", |_| {
            wl::recover_rep(
                &input,
                ctx,
                || {
                    mako_trace::drain();
                },
                || {
                    let part = mako_trace::drain();
                    dump.events.extend(part.events);
                    dump.recorded += part.recorded;
                    dump.dropped += part.dropped;
                },
            )
        })
    });
    let (mut m, mut outs) = Measured::of(input.hash, one_rep);
    let (wall_s, recovered) = (m.wall(), outs.pop().expect("one repetition"));

    let mut layers = Layers::new();
    let mut problems = Vec::new();
    layers_from_events(&dump, &mut layers);
    layers.set("trace.overhead_frac", wall_s / untraced_wall - 1.0);
    layers.set(
        "compiler.tune_s",
        span_seconds(&dump, "compiler", "tune_class"),
    );
    let reports: Vec<&ServeReport> = recovered
        .iter()
        .filter_map(|r| r.report.as_ref().ok())
        .collect();
    server_layers(&reports, recovered[0].server.config().workers, &mut layers);
    // Every recovery ran on a server of its own, so its counters are its own.
    let counters = recovered.iter().fold(Counters::default(), |sum, r| {
        sum.zip(Counters::of(&r.server), |a, b| a + b)
    });
    cache_layers(&counters, &mut layers);
    layers.set(
        "store.ops",
        recovered.iter().map(|r| r.recover_ops as f64).sum(),
    );
    let jobs = (input.specs.len() * recovered.len()) as f64;
    layers.set(
        "store.jobs_rerun_frac",
        1.0 - frac(sum(&dump, "recover", "serve", "resolved"), jobs),
    );
    let last = recovered.last().expect("three crash points");
    store_layers(
        &input,
        last.vfs.clone(),
        Path::new("/srv"),
        ctx,
        &mut spans,
        &mut layers,
        &mut problems,
    );

    wl::recover_finish(&input, ctx, &[recovered, untraced], &mut m);
    output_layers(&m, &mut layers);
    Traced {
        measured: m,
        layers,
        spans,
        problems,
    }
}

pub fn run(workload: &Workload, ctx: &Ctx) -> Traced {
    assert!(!mako_trace::enabled(), "the traced run starts untraced");
    match &workload.kind {
        Kind::Scf(case) => traced_scf(case, ctx),
        Kind::Ensemble => traced_ensemble(ctx),
        Kind::ServeMixed => traced_serve_mixed(ctx),
        Kind::ServeRecover => traced_serve_recover(ctx),
    }
}
