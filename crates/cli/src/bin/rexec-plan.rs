//! `rexec-plan`: energy-optimal two-speed checkpointing plans from the
//! command line. See `--help` or the crate docs.
//!
//! Artifact writes (`--metrics`, `--metrics-prom`, `--trace-chrome`,
//! `--trace-jsonl`) are atomic: the file is staged next to its
//! destination and renamed into place, so a crash mid-write never
//! leaves a truncated artifact under the final name.
//! Transient write failures are retried under capped backoff, and
//! `--fault-plan` injects deterministic failures for testing.

#![forbid(unsafe_code)]

use rexec_cli::args::{Args, USAGE};
use rexec_cli::run::execute;
use rexec_harness::{atomic_write, FaultInjector, RetryPolicy};
use std::path::Path;

fn write_or_die(path: &str, contents: &str, what: &str, injector: &FaultInjector) {
    let retry = RetryPolicy::default();
    if let Err(e) = atomic_write(Path::new(path), contents.as_bytes(), &retry, injector) {
        eprintln!("error: cannot write {what}: {e}");
        std::process::exit(1);
    }
    eprintln!("{what} written: {path}");
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return;
    }
    let injector = args.fault_plan.injector();
    match execute(&args) {
        Ok(outcome) => {
            println!("{}", outcome.report);
            if let (Some(path), Some(jsonl)) = (&args.trace_jsonl, &outcome.trace_jsonl) {
                write_or_die(path, jsonl, "trace", &injector);
            }
            if let (Some(path), Some(json)) = (&args.metrics, &outcome.metrics_json) {
                write_or_die(path, json, "metrics", &injector);
            }
            if let (Some(path), Some(text)) = (&args.metrics_prom, &outcome.metrics_prom) {
                write_or_die(path, text, "prometheus metrics", &injector);
            }
            if let (Some(path), Some(json)) = (&args.trace_chrome, &outcome.trace_chrome) {
                write_or_die(path, json, "chrome trace", &injector);
            }
            if !outcome.feasible {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
