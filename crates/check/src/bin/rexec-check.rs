//! `rexec-check` — crash-consistency model checker CLI.
//!
//! Exhaustively explores every crash point (process-kill and power-loss)
//! and every single-byte corruption of a fixture checkpoint/resume run,
//! asserting the two DESIGN.md §10 invariants. Exit 0 when every
//! explored state is consistent, exit 1 when any violation is found,
//! exit 2 on bad usage.

#![forbid(unsafe_code)]

use rexec_check::{explore, CheckConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: rexec-check [--units N] [--no-dir-sync] [--no-corruption]

Exhaustive crash-point and corruption exploration of the checkpoint/
resume lifecycle on the in-memory storage model.

options:
  --units N        fixture size in work units (default 4)
  --no-dir-sync    model the pre-fix writer that skips the parent-
                   directory fsync after rename (expected to FAIL the
                   power-loss exploration; kept as a regression probe)
  --no-corruption  skip the single-byte corruption sweep
  -h, --help       print this help";

fn parse_args(args: &[String]) -> Result<CheckConfig, String> {
    let mut cfg = CheckConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--units" => {
                let value = it.next().ok_or("--units requires a value")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--units: not a number: {value}"))?;
                if n == 0 {
                    return Err("--units must be at least 1".into());
                }
                cfg.units = n;
            }
            "--no-dir-sync" => cfg.dir_sync = false,
            "--no-corruption" => cfg.corruption = false,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("rexec-check: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = explore(&cfg);
    println!("{report}");
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
