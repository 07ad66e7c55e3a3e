//! Validate a `mako-trace` JSONL file against the `mako-trace/1` schema
//! (DESIGN.md §11) and print a one-line summary. Exit code 0 on a valid
//! trace, 1 otherwise — the tier-2 smoke harness runs this on the trace a
//! benchmark emitted under `MAKO_TRACE`.
//!
//! `--require CAT.NAME` (repeatable) additionally asserts that the event
//! appeared in the trace *and* is registered in the documented schema
//! (`KNOWN_EVENTS`), so a subsystem's instrumentation can't silently vanish
//! or drift to an undocumented name.
//!
//! ```sh
//! cargo run --release -p mako --bin mako-cli -- --mol sample/water.xyz --trace target/trace.jsonl
//! cargo run --release -p mako-bench --bin trace_validate -- target/trace.jsonl \
//!     --require scf.iteration --require fock.launch
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require" {
            match args.next() {
                Some(name) => required.push(name),
                None => {
                    eprintln!("--require needs an event name");
                    return ExitCode::FAILURE;
                }
            }
        } else if path.is_none() {
            path = Some(arg);
        } else {
            eprintln!("unexpected argument: {arg}");
            return ExitCode::FAILURE;
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_validate FILE.jsonl [--require CAT.NAME]...");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mako_trace::schema::validate_jsonl(&text) {
        Ok(summary) => {
            let mut missing = false;
            for name in &required {
                if !mako_trace::schema::is_known_event(name) {
                    eprintln!(
                        "{path}: required event {name} is not in the documented \
                         schema (mako-trace KNOWN_EVENTS)"
                    );
                    missing = true;
                } else if !summary.names.contains(name) {
                    eprintln!("{path}: required event {name} never appeared in the trace");
                    missing = true;
                }
            }
            if missing {
                return ExitCode::FAILURE;
            }
            println!(
                "{path}: valid mako-trace/1 — {} spans, {} instants, {} counters ({} recorded, {} dropped)",
                summary.spans, summary.instants, summary.counters, summary.recorded, summary.dropped
            );
            println!("event names: {:?}", summary.names);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID trace: {e}");
            ExitCode::FAILURE
        }
    }
}
