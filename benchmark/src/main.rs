//! The Mako-RS benchmark: one command runs one named workload at one seed,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! mako-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--toy]
//! mako-benchmark --list | --smoke | --check [--seed N] [--seconds S]
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with tracing off;
//! `--trace 1` is the traced run that yields the per-layer metrics and a span
//! file. They are separate processes because `mako_trace::enable()` is
//! sticky. The last line of standard output is the result as one JSON object.

mod gen;
mod json;
mod metrics;
mod replay;
mod spans;
mod stats;
mod suite;
mod traced;
mod workloads;

use json::{encode, obj, Json};
use metrics::{layers_json, metrics_json};
use stats::{fastest, median, percentile_of_all, tail_percentile};
use std::path::PathBuf;
use workloads::{Ctx, Measured, Workload, DEFAULT_SEED};

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub mode: Mode,
}

#[derive(PartialEq)]
pub enum Mode {
    Run,
    List,
    Smoke,
    Check,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 6.0,
        trace: false,
        toy: false,
        mode: Mode::Run,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--toy" => args.toy = true,
            "--list" => args.mode = Mode::List,
            "--smoke" => args.mode = Mode::Smoke,
            "--check" => args.mode = Mode::Check,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.mode == Mode::Run && args.workload.is_none() {
        return Err("--workload <name> is required (see --list)".to_string());
    }
    Ok(args)
}

/// Directory for scratch and span files: beside the executable, which cargo
/// puts in the target directory of the checkout.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("bench-work")))
        .unwrap_or_else(|| PathBuf::from("bench-work"))
}

/// Worker threads of the one rayon pool: two, but never every core. The Fock
/// engine joins its workers after each wave of quartets, so on a box where
/// the pool takes every core any other activity stalls every wave; with both
/// cores of the 2-core reference box in the pool, `wall_s` spread 10 to 12 %
/// between identical runs, against 2 to 4 % with one core left free.
fn threads() -> usize {
    host_cpus().saturating_sub(1).clamp(1, 2)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit of the checkout when it is a git repository, best effort.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.chars().take(12).collect()
    }
}

fn end_to_end_values(m: &Measured) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", fastest(&m.setup_s)),
        ("wall_s", m.wall()),
        ("peak_rss_mib", m.peak_rss_mib),
    ]
}

/// The 75th percentile of the job latencies. It is a tail estimate only with
/// forty jobs or more (ten beyond it); on smaller populations it is the
/// nearest-rank value, reported with n.
pub fn latency_p75(latencies_s: &[f64]) -> f64 {
    tail_percentile(latencies_s, 75.0).unwrap_or_else(|| percentile_of_all(latencies_s, 75.0))
}

fn print_context(w: &Workload, args: &Args, m: &Measured) {
    println!(
        "workload {} seed {} input {:016x} threads {} host_cpus {} gemm_kernel {} commit {}{}",
        w.name,
        args.seed,
        m.input_hash,
        threads(),
        host_cpus(),
        mako_linalg::kernel_name(),
        git_commit(),
        if args.toy { " (toy size)" } else { "" },
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  setup samples (s): {} (median {:.6}; the fastest is reported)",
        list(&m.setup_s),
        median(&m.setup_s)
    );
    println!(
        "  wall samples (s): {} (median {:.6}; the fastest is reported)",
        list(&m.wall_s),
        median(&m.wall_s)
    );
    println!(
        "  device clock (exact for a seed): device_s = {} s, device_iter_s = {} s",
        m.device_s, m.device_iter_s
    );
    if !m.latencies_s.is_empty() {
        println!(
            "  job latency on the device clock: n = {}, p50 = {} s, p75 = {} s{}",
            m.latencies_s.len(),
            median(&m.latencies_s),
            latency_p75(&m.latencies_s),
            if m.latencies_s.len() < 40 {
                " (nearest rank, not a tail estimate)"
            } else {
                ""
            },
        );
    }
    println!(
        "  energy_err_ha = {:e} Ha; attempted {} failed {}",
        m.energy_err_ha, m.attempted, m.failed
    );
    for line in &m.info {
        println!("  {line}");
    }
    for p in &m.problems {
        println!("  FAILED {p}");
    }
}

fn print_metrics(metrics: &Json) {
    if let Json::Object(fields) = metrics {
        for (name, v) in fields {
            let value = v.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
            println!(
                "  {name} = {value} {}",
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
}

/// Run one workload in this process and print the result line.
fn run_one(w: &'static Workload, args: &Args) -> bool {
    let out = out_dir();
    let work = out.join(format!(
        "run-{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("create the scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        toy: args.toy,
        work: work.clone(),
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads())
        .build()
        .expect("build the rayon pool");

    let (measured, metrics, correct) = pool.install(|| {
        if args.trace {
            let t = traced::run(w, &ctx);
            let spans_path = out.join(format!("spans-{}-{}.json", w.name, args.seed));
            let doc = obj([
                ("workload", Json::Str(w.name.to_string())),
                ("seed", Json::Num(args.seed as f64)),
                ("threads", Json::Num(threads() as f64)),
                ("spans", t.spans.to_json()),
            ]);
            std::fs::write(&spans_path, encode(&doc)).expect("write the span file");
            println!("spans written to {}", spans_path.display());
            let correct = t.measured.failed == 0 && t.problems.is_empty();
            for p in &t.problems {
                println!("  FAILED {p}");
            }
            (t.measured, layers_json(&t.layers), correct)
        } else {
            let m = workloads::run(w, &ctx);
            let metrics = metrics_json(end_to_end_values(&m));
            let correct = m.failed == 0;
            (m, metrics, correct)
        }
    });
    let _ = std::fs::remove_dir_all(&work);

    print_context(w, args, &measured);
    print_metrics(&metrics);
    let line = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", encode(&line));
    correct
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mako-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let ok = match args.mode {
        Mode::List => {
            for w in &workloads::WORKLOADS {
                println!("{}\t{}", w.name, w.why);
            }
            true
        }
        Mode::Smoke => suite::smoke(),
        Mode::Check => suite::check(args.seed, args.seconds),
        Mode::Run => {
            let name = args.workload.as_deref().expect("checked by parse_args");
            match workloads::find(name) {
                Some(w) => run_one(w, &args),
                None => {
                    eprintln!("mako-benchmark: unknown workload {name} (see --list)");
                    std::process::exit(2);
                }
            }
        }
    };
    // A wrong answer is reported in the result line (`correct: false`), which
    // the driver reads; the exit code says the run itself completed.
    if !ok && args.mode != Mode::Run {
        std::process::exit(1);
    }
}
