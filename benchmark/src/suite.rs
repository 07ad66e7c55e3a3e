//! `--smoke` and `--check`: the whole suite, one child process per run (the
//! trace switch is sticky and peak RSS is per process).

use crate::json::{parse_json, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::process::Command;
use std::time::Instant;

/// Run this executable with `args` and parse the result line it prints last.
fn child(args: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_json(stdout.lines().last().ok_or("no output")?)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// The result line has exactly the contract's keys, every declared metric
/// with its unit and a finite value, and reports a correct run.
fn schema_problems(result: &Json, traced: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let keys: Vec<&str> = match result {
        Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => return vec!["the result line is not an object".to_string()],
    };
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("keys are {keys:?}"));
    }
    if result.get("correct") != Some(&Json::Bool(true)) {
        problems.push("correct is not true".to_string());
    }
    if result
        .get("attempted")
        .and_then(Json::as_num)
        .is_none_or(|a| a < 1.0)
    {
        problems.push("attempted is below 1".to_string());
    }
    if result.get("failed").and_then(Json::as_num) != Some(0.0) {
        problems.push("failed is not 0".to_string());
    }
    let declared: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let got: Vec<&str> = match result.get("metrics") {
        Some(Json::Object(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    if got != declared.iter().map(|d| d.0).collect::<Vec<_>>() {
        problems.push("the metrics are not exactly the declared ones, in order".to_string());
    }
    for (name, unit) in declared {
        let entry = result.get("metrics").and_then(|m| m.get(name));
        match entry.and_then(|e| e.get("value")).and_then(Json::as_num) {
            Some(v) if v.is_finite() && (traced || v > 0.0) => {}
            v => problems.push(format!("{name} reads {v:?}")),
        }
        if entry.and_then(|e| e.get("unit")).and_then(Json::as_str) != Some(unit) {
            problems.push(format!("{name} has the wrong unit"));
        }
    }
    problems
}

/// All seven workloads at toy size, untraced then traced: exercises schema,
/// verification and JSON emission in a few seconds.
pub fn smoke() -> bool {
    let t0 = Instant::now();
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let t = Instant::now();
            let problems = match child(&[
                "--workload",
                w.name,
                "--toy",
                "--seconds",
                "0",
                "--trace",
                trace,
            ]) {
                Ok(result) => schema_problems(&result, trace == "1"),
                Err(e) => vec![e],
            };
            println!(
                "smoke {:<16} trace {trace}  {:>5.2} s  {}",
                w.name,
                t.elapsed().as_secs_f64(),
                if problems.is_empty() {
                    "ok".to_string()
                } else {
                    problems.join("; ")
                }
            );
            ok &= problems.is_empty();
        }
    }
    println!(
        "smoke: {} in {:.1} s",
        if ok { "all ok" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    ok
}

/// Per-layer metrics read off the simulated device clock. Like the counts,
/// they must come out with the same bits when the seed is the same.
const EXACT_TIMES: [&str; 6] = [
    "accel.device_s",
    "accel.device_iter_s",
    "accel.eri_device_s",
    "accel.other_device_s",
    "server.job_latency_p50_device_s",
    "server.job_latency_p75_device_s",
];

/// A/A: run the suite twice on the same build and report, per workload and
/// metric, the relative difference against the metric's bound. Every per-layer
/// count and device-clock value must repeat exactly.
pub fn check(seed: u64, seconds: f64) -> bool {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut ok = true;
    for w in &WORKLOADS {
        let run = |trace: &str| {
            child(&[
                "--workload",
                w.name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ])
        };
        let (a, b) = match (run("0"), run("0")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("check {:<16} FAILED to run: {e}", w.name);
                ok = false;
                continue;
            }
        };
        for result in [&a, &b] {
            for p in schema_problems(result, false) {
                println!("check {:<16} FAILED {p}", w.name);
                ok = false;
            }
        }
        for m in &END_TO_END {
            let (x, y) = (
                metric(&a, m.name).unwrap_or(f64::NAN),
                metric(&b, m.name).unwrap_or(f64::NAN),
            );
            let rel = (y - x).abs() / x;
            let within = rel <= m.bound;
            println!(
                "check {:<16} {:<14} {x:>12.6} {y:>12.6}  diff {:>7.3}%  bound {:>5.1}%  {}",
                w.name,
                m.name,
                100.0 * rel,
                100.0 * m.bound,
                if within { "ok" } else { "EXCEEDED" }
            );
            ok &= within;
        }
        match (run("1"), run("1")) {
            (Ok(a), Ok(b)) => {
                for (name, unit, _) in PER_LAYER
                    .iter()
                    .filter(|m| m.1 == "count" || m.1 == "B" || EXACT_TIMES.contains(&m.0))
                {
                    let (x, y) = (metric(&a, name), metric(&b, name));
                    if x != y {
                        println!("check {:<16} {name} ({unit}) differs between two traced runs: {x:?} vs {y:?}", w.name);
                        ok = false;
                    }
                }
                println!(
                    "check {:<16} per-layer counts and device-clock values repeat exactly",
                    w.name
                );
            }
            (Err(e), _) | (_, Err(e)) => {
                println!("check {:<16} traced run FAILED: {e}", w.name);
                ok = false;
            }
        }
    }
    println!("check: {}", if ok { "within bounds" } else { "FAILED" });
    ok
}
