//! The Mako command-line driver — the reproduction of the paper artifact's
//! `build/bin/shark --mol sample/water60.xyz` entry point.
//!
//! ```sh
//! cargo run --release -p mako --bin mako-cli -- --mol sample/water60.xyz
//! cargo run --release -p mako --bin mako-cli -- \
//!     --mol sample/water60.xyz --basis sto-3g --method rhf --quantized --gpus 8
//! ```
//!
//! Like the artifact, it reports the total wall-clock time, the average SCF
//! iteration time excluding the first iteration (the Figure 8 metric), and
//! the energy decomposition used to verify accuracy against other packages.

use mako::prelude::*;
use std::process::ExitCode;

/// SCF method of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Method {
    Rhf,
    B3lyp,
}

impl Method {
    fn name(self) -> &'static str {
        match self {
            Method::Rhf => "RHF",
            Method::B3lyp => "B3LYP",
        }
    }
}

struct Args {
    mol: Option<String>,
    basis: BasisFamily,
    method: Method,
    quantized: bool,
    rescue: bool,
    gpus: usize,
    trace: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mol: None,
        basis: BasisFamily::Sto3g,
        method: Method::Rhf,
        quantized: false,
        rescue: false,
        gpus: 1,
        trace: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mol" => args.mol = Some(it.next().ok_or("--mol needs a path")?),
            "--basis" => {
                let name = it.next().ok_or("--basis needs a name")?;
                args.basis = match name.to_lowercase().as_str() {
                    "sto-3g" | "sto3g" => BasisFamily::Sto3g,
                    "def2-tzvp" => BasisFamily::Def2TzvpLike,
                    "def2-qzvp" => BasisFamily::Def2QzvpLike,
                    "cc-pvtz" => BasisFamily::CcPvtzLike,
                    "cc-pvqz" => BasisFamily::CcPvqzLike,
                    other => return Err(format!("unknown basis {other}")),
                };
            }
            "--method" => {
                let name = it.next().ok_or("--method needs rhf|b3lyp")?;
                args.method = match name.to_lowercase().as_str() {
                    "rhf" => Method::Rhf,
                    "b3lyp" => Method::B3lyp,
                    other => return Err(format!("unknown method {other} (rhf|b3lyp)")),
                };
            }
            "--quantized" => args.quantized = true,
            "--rescue" => args.rescue = true,
            "--gpus" => {
                args.gpus = it
                    .next()
                    .ok_or("--gpus needs a count")?
                    .parse()
                    .map_err(|e| format!("--gpus: {e}"))?;
                if args.gpus == 0 {
                    return Err("--gpus needs at least one GPU".into());
                }
            }
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--help" | "-h" => {
                println!(
                    "usage: mako-cli --mol FILE.xyz [--basis sto-3g|def2-tzvp|def2-qzvp|cc-pvtz|cc-pvqz]\n\
                     \x20              [--method rhf|b3lyp] [--quantized] [--rescue] [--gpus N] [--trace FILE.jsonl]\n\
                     \n\
                     --rescue      enable the self-healing SCF layer (convergence watchdog +\n\
                     \x20             staged rescue ladder); bitwise inert on healthy runs.\n\
                     --trace FILE  record a structured trace of the run (spans, counters) to FILE;\n\
                     \x20             `.chrome.json` suffix switches to the Chrome trace format.\n\
                     \x20             The MAKO_TRACE env var does the same for any Mako binary."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // MAKO_TRACE=path works for every Mako binary; --trace overrides it.
    mako::trace::init_from_env();
    if let Some(path) = &args.trace {
        let format = if path.ends_with(".chrome.json") {
            mako::trace::TraceFormat::Chrome
        } else {
            mako::trace::TraceFormat::Jsonl
        };
        mako::trace::set_sink(path.clone(), format);
    }
    let Some(path) = &args.mol else {
        eprintln!("error: --mol FILE.xyz is required (see --help)");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mol = match Molecule::from_xyz(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error parsing {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("Mako — matrix-aligned quantum chemistry (Rust reproduction)");
    println!("molecule : {} ({} atoms, {} electrons)", mol.name, mol.natoms(), mol.n_electrons());
    println!("basis    : {}", args.basis.name());
    println!("method   : {}{}", args.method.name(), if args.quantized { " + QuantMako" } else { "" });
    println!("device   : simulated NVIDIA A100 ×{}\n", args.gpus);

    // STO-3G only covers H/C/N/O; the synthetic families cover everything.
    let engine = MakoEngine::new()
        .with_quantization(args.quantized)
        .with_rescue(args.rescue);
    let wall = std::time::Instant::now();
    let run = match args.method {
        Method::Rhf => engine.run_rhf(&mol, args.basis),
        Method::B3lyp => engine.run_b3lyp(&mol, args.basis),
    };
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: SCF run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = wall.elapsed();

    println!("SCF {} in {} iterations", if result.converged { "converged" } else { "DID NOT CONVERGE" }, result.iterations);
    println!("----------------------------------------------");
    println!("Nuclear repulsion : {:>18.10} Ha", result.e_nuclear);
    println!("Electronic energy : {:>18.10} Ha", result.energy - result.e_nuclear);
    println!("Total Energy      : {:>18.10} Ha", result.energy);
    println!("----------------------------------------------");
    println!("avg SCF iteration (excl. first): {:.4} s simulated device time", result.avg_iteration_seconds);
    println!("total simulated device time    : {:.4} s", result.total_seconds);
    println!("host wall-clock (this CPU)     : {:.2} s", wall.as_secs_f64());
    println!(
        "quartets: {} FP64 / {} quantized / {} pruned",
        result.stats.fp64_quartets, result.stats.quantized_quartets, result.stats.pruned_quartets
    );
    println!(
        "host tensor store: {:.1} MiB held, {} evaluations reused",
        result.tensor_store_bytes as f64 / (1 << 20) as f64,
        result.evaluations_reused
    );
    if result.orth.n_dropped > 0 {
        println!(
            "orthogonalization dropped {} near-dependent AO direction(s) \
             (smallest kept overlap eigenvalue {:.3e})",
            result.orth.n_dropped, result.orth.smallest_kept
        );
    }
    if args.rescue {
        if result.rescue.is_empty() {
            println!("rescue: enabled, never fired (trajectory healthy)");
        } else {
            println!("rescue: {} intervention(s) — {}", result.rescue.len(), result.rescue.summary());
        }
    }

    if args.gpus > 1 {
        // Multi-GPU estimate from the cluster model (one rank per GPU).
        let spec = mako::accel::cluster::ClusterSpec::azure_nd_a100_v4();
        let per_iter = result.avg_iteration_seconds;
        let comm = mako::accel::cluster::RingAllreduce::new(spec)
            .time(2.0 * (result.density.rows() * result.density.rows()) as f64 * 8.0, args.gpus);
        let t = per_iter / args.gpus as f64 + comm;
        println!(
            "\nmulti-GPU estimate: {:.4} s/iteration on {} GPUs ({:.0}% efficiency)",
            t,
            args.gpus,
            100.0 * per_iter / (args.gpus as f64 * t)
        );
    }
    // A requested trace that was not written fails the run.
    let traced = match mako::trace::flush() {
        Some(Ok(path)) => {
            println!("\ntrace written to {path}");
            true
        }
        Some(Err(e)) => {
            eprintln!("\nerror: trace write failed: {e}");
            false
        }
        None => true,
    };
    if result.converged && traced {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Method};

    fn parse(args: &[&str]) -> Result<usize, String> {
        parse_args(args.iter().map(|a| a.to_string())).map(|a| a.gpus)
    }

    #[test]
    fn gpu_count_must_be_positive() {
        assert_eq!(parse(&["--mol", "w.xyz", "--gpus", "8"]), Ok(8));
        assert_eq!(parse(&["--mol", "w.xyz"]), Ok(1));
        let err = parse(&["--mol", "w.xyz", "--gpus", "0"]).unwrap_err();
        assert!(err.contains("at least one GPU"), "{err}");
        assert!(parse(&["--gpus", "-1"]).is_err());
    }

    #[test]
    fn unknown_method_is_rejected_before_anything_runs() {
        let method = |m: &str| {
            let args = ["--mol", "w.xyz", "--method", m].map(String::from);
            parse_args(args.into_iter()).map(|a| a.method)
        };
        assert_eq!(method("b3lyp"), Ok(Method::B3lyp));
        assert_eq!(method("RHF"), Ok(Method::Rhf));
        let err = method("pbe").unwrap_err();
        assert!(err.contains("unknown method pbe"), "{err}");
    }
}
