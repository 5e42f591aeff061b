//! The metric-name contract: every metric the registry holds after the
//! workspace's real entry points have run must have a row in the
//! catalogue table of DESIGN.md §11 ("Metric catalogue"), with the
//! matching kind.
//!
//! The drives cover the planner CLI (`--validate`, `--one-speed`,
//! `--trace-jsonl`), a progress-reporting Monte Carlo run, a `--quick`
//! experiments pipeline into a temporary directory, and a `rexec-serve`
//! round trip with one good and one malformed request. Dynamic families
//! are catalogued as patterns (`sweep.err.<tag>`, `experiment.<id>`):
//! the text before `<` is a prefix that must be followed by a non-empty
//! suffix.
//!
//! Everything lives in one `#[test]` because the drives share the
//! process-global registry.

use rexec::obs::{self, global};
use rexec::sim::{MonteCarlo, SimConfig};
use rexec_cli::args::Args;
use rexec_cli::run::execute;
use rexec_harness::{FaultPlan, RetryPolicy};
use rexec_serve::{ServeOptions, Server};
use rexec_sweep::experiments::{quick_experiment_ids, DEFAULT_SEED};
use rexec_sweep::pipeline::{run, PipelineConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

const KINDS: [&str; 4] = ["counter", "gauge", "sketch", "span"];
const VALUES: [&str; 3] = ["deterministic", "wall-clock", "scheduling-dependent"];

/// One catalogue row: metric name (or `prefix<suffix>` pattern) and kind.
struct Row {
    name: String,
    kind: String,
}

impl Row {
    fn matches(&self, name: &str, kind: &str) -> bool {
        if self.kind != kind {
            return false;
        }
        match self.name.split_once('<') {
            Some((prefix, _)) => name.len() > prefix.len() && name.starts_with(prefix),
            None => self.name == name,
        }
    }
}

/// Parses the `| `name` | kind | module | value |` rows of the table
/// under DESIGN.md's "### Metric catalogue" heading.
fn catalogue() -> Vec<Row> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("read DESIGN.md");
    let section = design
        .split_once("### Metric catalogue")
        .expect("DESIGN.md has a metric catalogue")
        .1;
    let rows: Vec<Row> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 4, "catalogue row `{line}` needs 4 cells");
            let name = cells[0].trim_matches('`');
            assert!(!name.is_empty(), "empty name in `{line}`");
            assert!(KINDS.contains(&cells[1]), "unknown kind in `{line}`");
            assert!(
                VALUES.contains(&cells[3]),
                "unknown value class in `{line}`"
            );
            Row {
                name: name.to_string(),
                kind: cells[1].to_string(),
            }
        })
        .collect();
    assert!(rows.len() > 10, "catalogue table not found or truncated");
    rows
}

fn sim_config() -> SimConfig {
    use rexec::core::{ErrorRates, PowerModel, ResilienceCosts};
    SimConfig {
        w: 2764.0,
        sigma1: 0.4,
        sigma2: 0.8,
        rates: ErrorRates::new(1e-4, 5e-5).unwrap(),
        costs: ResilienceCosts::symmetric(300.0, 15.4),
        power: PowerModel::new(1550.0, 60.0, 5.0).unwrap(),
    }
}

/// Sends one good and one malformed request to an in-process daemon and
/// shuts it down (which publishes its gauges).
fn serve_round_trip() {
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(
            b"{\"id\":1,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}\n{not json\n",
        )
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert_eq!(response.lines().count(), 2, "one answer per request");
    server.shutdown();
    let report = server.join();
    assert_eq!(report.errors, 1);
}

#[test]
fn every_emitted_metric_is_catalogued() {
    let rows = catalogue();
    obs::reset();

    let args = Args::parse(
        [
            "--config",
            "hera",
            "--processor",
            "xscale",
            "--validate",
            "2000",
            "--one-speed",
            "--trace-jsonl",
            "unused.jsonl",
            "--metrics",
            "unused.json",
        ]
        .map(String::from),
    )
    .unwrap();
    assert!(execute(&args).unwrap().feasible);

    MonteCarlo::new(sim_config(), 2048, 7)
        .run_with_progress(&mut |_, _| {})
        .unwrap();

    let dir = std::env::temp_dir().join(format!("rexec-metric-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run(&PipelineConfig {
        out_dir: dir.clone(),
        seed: DEFAULT_SEED,
        resume: false,
        ids: quick_experiment_ids(),
        fault: FaultPlan::default(),
        retry: RetryPolicy::immediate(3),
        metrics_prom: None,
        trace_chrome: None,
    })
    .expect("quick pipeline run");
    let _ = std::fs::remove_dir_all(&dir);

    serve_round_trip();

    let g = global();
    let emitted: Vec<(String, &str)> = g
        .counters()
        .into_iter()
        .map(|(n, _)| (n, "counter"))
        .chain(g.gauges().into_iter().map(|(n, _)| (n, "gauge")))
        .chain(g.sketches().into_iter().map(|(n, _)| (n, "sketch")))
        .chain(g.span_stats().into_iter().map(|(n, _)| (n, "span")))
        .collect();
    // Each drive must have registered its metrics, or the check is vacuous.
    for name in [
        "bicrit.pairs_evaluated",
        "runner.window.p50",
        "harness.units_sealed",
        "serve.latency.p50",
        "serve.wire_errors",
    ] {
        assert!(emitted.iter().any(|(n, _)| n == name), "{name} not emitted");
    }
    let missing: Vec<String> = emitted
        .iter()
        .filter(|(name, kind)| !rows.iter().any(|r| r.matches(name, kind)))
        .map(|(name, kind)| format!("{name} ({kind})"))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from the DESIGN.md §11 catalogue:\n  {}",
        missing.join("\n  ")
    );
}
