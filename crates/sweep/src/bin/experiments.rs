//! Regenerates every table and figure of the paper through the
//! crash-tolerant pipeline in [`rexec_sweep::pipeline`].
//!
//! Run `experiments --help` for the full CLI. Every run seals its
//! artifacts in `<out>/manifest.json` (atomic writes + content digests);
//! `--resume` re-verifies that manifest and recomputes only what is
//! missing or corrupt, and `--fault-plan` injects deterministic write
//! failures, corruptions and kills for crash-recovery testing.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error, 137 killed
//! by an injected `kill-after-unit` fault.

#![forbid(unsafe_code)]

use rexec_sweep::pipeline::{parse_cli, run, CliCommand, USAGE};

fn main() {
    let cmd = match parse_cli(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(e.exit_code());
        }
    };
    let cfg = match cmd {
        CliCommand::Help => {
            println!("{USAGE}");
            return;
        }
        CliCommand::Run(cfg) => *cfg,
    };
    if let Err(e) = run(&cfg, &mut std::io::stdout()) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
