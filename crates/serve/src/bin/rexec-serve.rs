//! `rexec-serve` — the planning daemon.
//!
//! Binds a TCP listener, serves newline-delimited JSON plan queries
//! through the batching, plan-caching service core, and drains
//! gracefully on SIGTERM/ctrl-c.

use rexec_serve::server::MAX_WORKERS;
use rexec_serve::{ServeOptions, Server, ServiceConfig};

const USAGE: &str = "\
rexec-serve — batching, plan-caching planning service

USAGE:
  rexec-serve [--addr HOST:PORT] [options]

OPTIONS:
  --addr A            bind address (default 127.0.0.1:7464; port 0 = ephemeral)
  --workers N         threads per connection, 1 to 1024; each reads,
                      answers and writes its own batches in turn (default 2)
  --cache-capacity N  plan-cache capacity in plans, 0 disables (default 65536)
  --drain-secs S      shutdown drain deadline (default 5)
  --metrics-prom PATH write Prometheus metrics exposition on shutdown
  --help              this text

PROTOCOL (one JSON object per line; responses in request order):
  {\"id\":1,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}
  {\"id\":2,\"lambda\":1e-5,\"checkpoint\":600,\"verification\":30,
   \"kappa\":2000,\"pidle\":50,\"speeds\":[0.25,0.5,1.0],\"rho\":2.5}
Errors come back as {\"id\":N,\"err\":{\"kind\":...,\"msg\":...}} — the
connection is never dropped in response to a bad request.
";

fn fail(msg: &str) -> ! {
    eprintln!("rexec-serve: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> ServeOptions {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7464".into(),
        ..ServeOptions::default()
    };
    let mut service = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, opt: &str| -> String {
        args.next()
            .unwrap_or_else(|| fail(&format!("option {opt} requires a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            "--addr" => opts.addr = value(&mut args, &arg),
            "--workers" => {
                opts.workers = parse(&value(&mut args, &arg), &arg);
                if !(1..=MAX_WORKERS).contains(&opts.workers) {
                    fail(&format!("--workers must be 1 to {MAX_WORKERS}"));
                }
            }
            "--cache-capacity" => {
                service.plan_cache_capacity = parse(&value(&mut args, &arg), &arg)
            }
            "--drain-secs" => opts.drain_secs = parse(&value(&mut args, &arg), &arg),
            "--metrics-prom" => opts.metrics_prom = Some(value(&mut args, &arg).into()),
            other => fail(&format!("unknown option {other}")),
        }
    }
    opts.service = service;
    opts
}

fn parse<T: std::str::FromStr>(text: &str, opt: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse value `{text}` for option {opt}")))
}

fn main() {
    let opts = parse_args();
    #[cfg(unix)]
    rexec_serve::server::signals::install();
    let server = match Server::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rexec-serve: failed to start: {e}");
            std::process::exit(1)
        }
    };
    // Scripted callers wait for this exact line before sending load.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    #[cfg(unix)]
    rexec_serve::server::signals::wait();
    #[cfg(not(unix))]
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }

    eprintln!("[rexec-serve] shutdown requested; draining");
    server.shutdown();
    let report = server.join();
    eprintln!(
        "[rexec-serve] drained: {} connections, {} requests, {} responses ({} errors), \
         cache {} hits / {} misses / {} evictions",
        report.connections,
        report.requests,
        report.responses,
        report.errors,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
    );
}
