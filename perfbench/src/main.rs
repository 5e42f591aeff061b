//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --bin-dir DIR --workload serve_hot|serve_cold|reproduce
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `DIR` holds the release `rexec-serve` and `experiments` binaries
//! under test (`perfbench/run.sh` builds them and this program, then
//! runs it). With `--trace 0` the run measures the end-to-end metrics
//! against those binaries; with `--trace 1` it measures the per-layer
//! metrics by timing calls into each layer's public functions from
//! outside the program. Detail lines start with `#`; the last line of
//! stdout is the JSON result. Scratch files live under `.perfbench/` in
//! the working directory and are removed on exit. See `README.md`.

mod client;
mod gen;
mod proc;
mod replay;
mod report;
mod reproduce;
mod serve;
mod stats;

use report::Report;
use std::path::PathBuf;

/// What every workload needs to run.
pub struct Ctx {
    /// Workload seed: the same seed offers the same input.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// The daemon under test.
    pub serve_bin: PathBuf,
    /// The experiments binary under test.
    pub experiments_bin: PathBuf,
    /// Scratch directory for this run.
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --bin-dir DIR --workload serve_hot|serve_cold|reproduce \
                     --seed N --seconds S --trace 0|1";

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut bin_dir, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            _ => fail(&format!("unknown option {flag}")),
        }
    }
    let (Some(bin_dir), Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (bin_dir, workload, seed, seconds, trace)
    else {
        fail("missing or malformed option")
    };
    let serve_workload = match workload.as_str() {
        "serve_hot" | "reproduce" => &serve::HOT,
        "serve_cold" => &serve::COLD,
        other => fail(&format!("unknown workload {other}")),
    };
    let ctx = Ctx {
        seed,
        seconds,
        serve_bin: bin_dir.join("rexec-serve"),
        experiments_bin: bin_dir.join("experiments"),
        work: PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        fail(&format!("cannot create {}: {e}", ctx.work.display()));
    }

    let mut report = Report::default();
    report.note(format!(
        "workload={workload} seed={seed} seconds={seconds} trace={trace}"
    ));
    let result = match (trace, workload.as_str()) {
        (false, "reproduce") => reproduce::end_to_end(&ctx, &mut report),
        (false, _) => serve::end_to_end(&ctx, serve_workload, &mut report),
        // A traced run times every layer: the serve layers on this
        // workload's request stream (serve_hot's for reproduce, which
        // sends none) and the reproduce layers in-process.
        (true, _) => serve::traced(&ctx, serve_workload, &mut report)
            .and_then(|()| reproduce::traced(&ctx, &mut report, 0.2 * seconds)),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".perfbench");
    if let Err(e) = result {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    if trace {
        report.put("failed_frac", report.failed_frac());
        report.check_names(report::PER_LAYER);
    } else {
        report.check_names(report::END_TO_END);
    }
    print!("{}", report.render());
}
