//! End-to-end pins for the planning service (`rexec-serve`):
//!
//! * **stream determinism** — a fixed query stream must produce a
//!   byte-identical response stream regardless of the worker-thread
//!   count, the plan-cache state (cold, warm, tiny or disabled), how the
//!   client splits its writes (which sets the batch shapes, one batch
//!   per socket read), and how many connections send it at once —
//!   answers are pure functions of the query, never of batch shape or
//!   cache residency;
//! * **graceful shutdown** — requests accepted before and during the
//!   drain are all answered, and the listener refuses new connections
//!   once the server has exited;
//! * **typed wire errors** — malformed, invalid or over-long requests
//!   come back as `{"err": ...}` responses with stable kinds, and the
//!   connection stays fully usable afterwards;
//! * **serve = CLI** — random explicit specs already on the
//!   quantization grid get, bit for bit, the plan `rexec-plan` computes
//!   (`PlanSpec::resolve` then `BiCritSolver::solve`);
//! * **cache transparency** — a proptest that a cache-enabled service
//!   and a cache-disabled service render identical response lines for
//!   random valid query streams.

use proptest::prelude::*;
use rexec_core::BiCritSolver;
use rexec_serve::{quantize, PlanService, PlanSpec, ServeOptions, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;

/// Starts an in-process server on an ephemeral port.
fn start(workers: usize, cache: usize) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        service: ServiceConfig {
            plan_cache_capacity: cache,
            ..ServiceConfig::default()
        },
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port")
}

/// How a client writes its request stream.
#[derive(Debug, Clone, Copy)]
enum Writes {
    /// The whole stream in one `write_all`.
    Whole,
    /// One `write_all` and flush per line.
    PerLine,
}

/// Sends `lines` over one connection, half-closes, and returns the raw
/// response bytes until EOF. Responses are read concurrently, so a long
/// stream cannot stall on full socket buffers.
fn roundtrip(server: &Server, lines: &str, writes: Writes) -> Vec<u8> {
    roundtrip_gated(server, lines, writes, &Barrier::new(1))
}

/// [`roundtrip`] that waits at `gate` after connecting and before
/// sending, so several connections are open and sending at once.
fn roundtrip_gated(server: &Server, lines: &str, writes: Writes, gate: &Barrier) -> Vec<u8> {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    gate.wait();
    let mut read_half = stream.try_clone().expect("clone stream");
    let reader = std::thread::spawn(move || {
        let mut response = Vec::new();
        read_half
            .read_to_end(&mut response)
            .expect("read responses");
        response
    });
    let mut write_half = stream;
    match writes {
        Writes::Whole => write_half.write_all(lines.as_bytes()).expect("send"),
        Writes::PerLine => {
            for line in lines.split_inclusive('\n') {
                write_half.write_all(line.as_bytes()).expect("send");
                write_half.flush().expect("flush");
            }
        }
    }
    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    reader.join().expect("reader thread")
}

/// xorshift64* — the deterministic stream generator.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// A uniform draw in `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    (next_rand(state) >> 11) as f64 / (1u64 << 53) as f64
}
/// A mixed query stream: hot ρ pool plus fresh ρ values over the paper
/// tables, a custom-parameter table, and a sprinkling of invalid
/// requests (whose error responses are part of the determinism pin).
fn fixed_stream(n: u64) -> String {
    const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
    const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
    let mut rng = 0xDEC0DE_u64;
    let mut out = String::new();
    for id in 0..n {
        let r = next_rand(&mut rng);
        match r % 20 {
            // Occasional invalid requests: the error lines must be as
            // deterministic as the plans.
            17 => out.push_str(&format!("{{\"id\":{id},\"lambda\":-1}}\n")),
            18 => out.push_str(&format!("{{\"id\":{id},\"platform\":\"nonesuch\"}}\n")),
            19 => out.push_str(&format!("{{\"id\":{id},\"rho\":2.5}}\n")),
            // A custom table with an explicit speed ladder.
            16 => out.push_str(&format!(
                "{{\"id\":{id},\"lambda\":1e-5,\"checkpoint\":600,\"verification\":30,\
                 \"kappa\":2000,\"pidle\":50,\"speeds\":[0.25,0.5,0.75,1.0],\"rho\":{}}}\n",
                2.0 + (r >> 16) as f64 % 4.0
            )),
            table => {
                let platform = PLATFORMS[(table % 4) as usize];
                let processor = PROCESSORS[(table / 8) as usize];
                let rho = if (r >> 8) % 10 < 9 {
                    1.5 + 0.125 * ((r >> 16) % 16) as f64
                } else {
                    4.0 + id as f64 * 1e-4
                };
                out.push_str(&format!(
                    "{{\"id\":{id},\"platform\":\"{platform}\",\
                     \"processor\":\"{processor}\",\"rho\":{rho}}}\n"
                ));
            }
        }
    }
    out
}

#[test]
fn response_stream_is_byte_identical_across_server_shapes() {
    let stream = fixed_stream(1500);

    // Reference shape: one worker, cold cache, the stream in one write.
    let server = start(1, 65536);
    let reference = roundtrip(&server, &stream, Writes::Whole);
    server.shutdown();
    server.join();
    assert_eq!(
        reference.iter().filter(|&&b| b == b'\n').count(),
        1500,
        "every request line gets exactly one response line"
    );

    // Worker counts × cache disabled / tiny under eviction pressure /
    // default × one write or one write per line (batch shapes change
    // with the write pattern). All must match byte for byte.
    for workers in [1, 2, 4] {
        for cache in [0, 8, 65536] {
            for writes in [Writes::Whole, Writes::PerLine] {
                let server = start(workers, cache);
                let got = roundtrip(&server, &stream, writes);
                let report = {
                    server.shutdown();
                    server.join()
                };
                assert_eq!(
                    got, reference,
                    "stream diverged at workers={workers} cache={cache} writes={writes:?}"
                );
                assert_eq!(report.requests, 1500);
                assert_eq!(report.responses, 1500);
            }
        }
    }

    // Warm cache: the same server answering the stream twice must give
    // the same bytes both times (hits replay the solved plan exactly).
    let server = start(2, 65536);
    let cold = roundtrip(&server, &stream, Writes::Whole);
    let warm = roundtrip(&server, &stream, Writes::PerLine);
    let report = {
        server.shutdown();
        server.join()
    };
    assert_eq!(cold, reference);
    assert_eq!(warm, reference, "warm-cache stream diverged from cold");
    assert!(
        report.cache.hits > 1000,
        "second pass should be answered mostly from cache (hits = {})",
        report.cache.hits
    );

    // Four connections sending the stream at once: batches from
    // different connections interleave in the queue and the workers,
    // yet each connection receives exactly the reference bytes.
    let server = start(2, 65536);
    let gate = Barrier::new(4);
    std::thread::scope(|scope| {
        let (server, stream, gate) = (&server, &stream, &gate);
        let conns: Vec<_> = [
            Writes::Whole,
            Writes::PerLine,
            Writes::Whole,
            Writes::PerLine,
        ]
        .into_iter()
        .map(|writes| scope.spawn(move || roundtrip_gated(server, stream, writes, gate)))
        .collect();
        for (k, conn) in conns.into_iter().enumerate() {
            let got = conn.join().expect("connection thread");
            assert_eq!(got, reference, "concurrent connection {k} diverged");
        }
    });
    server.shutdown();
    let report = server.join();
    assert_eq!(report.connections, 4);
    assert_eq!(report.requests, 4 * 1500);
    assert_eq!(report.responses, 4 * 1500);
}

#[test]
fn graceful_shutdown_answers_everything_then_refuses_connections() {
    let server = start(2, 65536);
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut read_half = stream.try_clone().expect("clone stream");
    let mut write_half = stream;
    let request = |id: usize| {
        format!("{{\"id\":{id},\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}}\n")
    };

    // Prove the connection has been accepted (first answer arrives)
    // before requesting shutdown — otherwise the drain could race the
    // accept loop and legitimately never see this socket.
    write_half.write_all(request(0).as_bytes()).expect("send");
    write_half.flush().expect("flush");
    let mut reader = BufReader::new(&mut read_half);
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    assert!(first.starts_with("{\"id\":0,"), "unexpected: {first}");

    // Half the remaining queries land before the shutdown request, half
    // after: the drain must answer both (the connection was accepted,
    // so every line read off it gets a response until EOF).
    for id in 1..400 {
        write_half.write_all(request(id).as_bytes()).expect("send");
    }
    write_half.flush().expect("flush");
    server.shutdown();
    for id in 400..800 {
        write_half.write_all(request(id).as_bytes()).expect("send");
    }
    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut responses = Vec::new();
    reader.read_to_end(&mut responses).expect("drain");
    assert_eq!(
        responses.iter().filter(|&&b| b == b'\n').count(),
        799,
        "every in-flight request must be answered during the drain"
    );
    // Responses arrive in request order: ids echo back 1..800.
    for (k, line) in responses.split(|&b| b == b'\n').take(799).enumerate() {
        let prefix = format!("{{\"id\":{},", k + 1);
        assert!(
            line.starts_with(prefix.as_bytes()),
            "response {} out of order: {}",
            k + 1,
            String::from_utf8_lossy(line)
        );
    }

    let report = server.join();
    assert_eq!(report.requests, 800);
    assert_eq!(report.responses, 800);
    assert_eq!(report.errors, 0);
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after join()"
    );
}

#[test]
fn typed_errors_keep_the_connection_usable() {
    let server = start(2, 65536);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write_half = stream;
    let mut ask = |line: &str| -> String {
        write_half.write_all(line.as_bytes()).expect("send");
        write_half.write_all(b"\n").expect("send newline");
        write_half.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("one response line");
        response
    };

    // Each bad request gets a typed error naming the failure...
    for (request, kind) in [
        ("{\"id\":1,\"platform\":\"hera\",", "parse"),
        ("[1,2,3]", "bad_request"),
        ("{\"id\":2,\"bogus\":1}", "unknown_field"),
        ("{\"id\":3,\"lambda\":-4}", "invalid_value"),
        ("{\"id\":4,\"platform\":\"nonesuch\"}", "unknown_name"),
        ("{\"id\":5,\"lambda\":1e-5}", "underspecified"),
    ] {
        let response = ask(request);
        assert!(
            response.contains(&format!("\"err\":{{\"kind\":\"{kind}\"")),
            "expected `{kind}` error for {request}, got: {response}"
        );
    }

    // ...and the connection still answers real queries afterwards.
    let response = ask("{\"id\":6,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}");
    assert!(
        response.starts_with("{\"id\":6,\"digest\":\"fnv1a:") && response.contains("\"wopt\":"),
        "connection unusable after errors: {response}"
    );

    write_half
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    server.shutdown();
    let report = server.join();
    assert_eq!(report.responses, 7);
    assert_eq!(report.errors, 6);
}

#[test]
fn over_long_line_gets_a_typed_error_and_the_connection_survives() {
    let server = start(2, 65536);
    // 1 MiB with no newline, far past the line cap, then a real query.
    let mut stream = "x".repeat(1 << 20);
    stream.push_str("\n{\"id\":7,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}\n");
    let response = String::from_utf8(roundtrip(&server, &stream, Writes::Whole)).expect("utf-8");
    server.shutdown();
    let report = server.join();

    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 2, "one error, then the plan: {response}");
    assert!(
        lines[0].starts_with("{\"err\":{\"kind\":\"bad_request\""),
        "expected a bad_request error first, got: {}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("{\"id\":7,\"digest\":\"fnv1a:") && lines[1].contains("\"wopt\":"),
        "the query after the long line went unanswered: {}",
        lines[1]
    );
    assert_eq!(report.requests, 2);
    assert_eq!(report.responses, 2);
    assert_eq!(report.errors, 1);
}

/// The number after `"name":` in a response line.
fn field(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].parse().expect("numeric field"))
}

/// A random explicit spec with every parameter, ρ included, already on
/// the quantization grid, so the service's quantization is the
/// identity: 1–20 speeds, λ over three decades, ρ from infeasible to
/// loose.
fn grid_spec(rng: &mut u64) -> PlanSpec {
    let k = 1 + next_rand(rng) % 20;
    let mut draw = |lo: f64, hi: f64| quantize(lo + (hi - lo) * next_unit(rng));
    let speeds: Vec<f64> = (0..k).map(|_| draw(0.05, 1.0)).collect();
    let checkpoint = draw(10.0, 3000.0);
    PlanSpec {
        lambda: Some(quantize(10f64.powf(draw(-7.0, -4.0)))),
        checkpoint: Some(checkpoint),
        verification: Some(draw(1.0, 300.0)),
        recovery: Some(draw(0.0, checkpoint)),
        kappa: Some(draw(100.0, 5000.0)),
        pidle: Some(draw(0.0, 500.0)),
        pio: Some(draw(0.0, 500.0)),
        speeds: Some(speeds),
        rho: Some(draw(1.0, 4.0)),
        ..PlanSpec::default()
    }
}

/// The spec as one wire request line (shortest-roundtrip floats, so the
/// daemon parses back the same bits).
fn request_line(id: usize, spec: &PlanSpec) -> String {
    let speeds: Vec<String> = spec.speeds.iter().flatten().map(f64::to_string).collect();
    format!(
        "{{\"id\":{id},\"lambda\":{},\"checkpoint\":{},\"verification\":{},\"recovery\":{},\
         \"kappa\":{},\"pidle\":{},\"pio\":{},\"speeds\":[{}],\"rho\":{}}}\n",
        spec.lambda.unwrap(),
        spec.checkpoint.unwrap(),
        spec.verification.unwrap(),
        spec.recovery.unwrap(),
        spec.kappa.unwrap(),
        spec.pidle.unwrap(),
        spec.pio.unwrap(),
        speeds.join(","),
        spec.rho.unwrap(),
    )
}

#[test]
fn served_plans_equal_single_shot_cli_solves_bit_for_bit() {
    const SPECS: usize = 600;
    let mut rng = 0x5EED_CAFE_u64;
    let specs: Vec<PlanSpec> = (0..SPECS).map(|_| grid_spec(&mut rng)).collect();
    let stream: String = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| request_line(id, spec))
        .collect();
    let server = start(2, 65536);
    let response = String::from_utf8(roundtrip(&server, &stream, Writes::Whole)).expect("utf-8");
    server.shutdown();
    server.join();

    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), SPECS);
    let (mut feasible, mut infeasible) = (0, 0);
    for (id, (spec, line)) in specs.iter().zip(&lines).enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{id},")),
            "out of order: {line}"
        );
        // The rexec-plan path: resolve, build the solver, one solve.
        let resolved = spec.resolve().expect("grid specs are valid models");
        let solver = BiCritSolver::new(resolved.model, resolved.speeds);
        let bits = |name| field(line, name).map(f64::to_bits);
        assert_eq!(bits("rho"), Some(resolved.rho.to_bits()), "{line}");
        match solver.solve(resolved.rho) {
            Some(plan) => {
                feasible += 1;
                for (name, want) in [
                    ("sigma1", plan.sigma1),
                    ("sigma2", plan.sigma2),
                    ("wopt", plan.w_opt),
                    ("energy_overhead", plan.energy_overhead),
                    ("time_overhead", plan.time_overhead),
                ] {
                    assert_eq!(bits(name), Some(want.to_bits()), "{name} differs: {line}");
                }
            }
            None => {
                infeasible += 1;
                assert!(line.contains("\"feasible\":false"), "{line}");
                assert_eq!(
                    bits("min_rho"),
                    Some(solver.min_feasible_rho().to_bits()),
                    "{line}"
                );
            }
        }
    }
    assert!(
        feasible >= 100 && infeasible >= 50,
        "both outcomes must be exercised ({feasible} feasible, {infeasible} infeasible)"
    );
}

/// Renders a full answer stream through the transport-free service.
fn answer_lines(service: &PlanService, queries: &[(usize, f64)]) -> Vec<String> {
    const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
    const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
    queries
        .iter()
        .enumerate()
        .map(|(id, &(table, rho))| {
            let spec = rexec_serve::PlanSpec {
                platform: Some(PLATFORMS[table % 4].to_string()),
                processor: Some(PROCESSORS[table / 4].to_string()),
                rho: Some(rho),
                ..rexec_serve::PlanSpec::default()
            };
            let mut line = String::new();
            match service.plan_spec(&spec) {
                Ok(answer) => {
                    rexec_serve::render_answer(&mut line, Some(id as u64), &answer);
                }
                Err(e) => rexec_serve::render_error(
                    &mut line,
                    Some(id as u64),
                    &rexec_serve::wire::wire_error_from_spec(&e),
                ),
            }
            line
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan cache is semantically invisible: for any valid query
    /// stream (repeated ρ values included, so hits actually occur), a
    /// cache-enabled service and a cache-disabled one render identical
    /// response lines — even with a tiny cache forcing evictions.
    #[test]
    fn cache_on_and_cache_off_render_identical_streams(
        queries in proptest::collection::vec(
            (0usize..8, 0u32..100, 11u32..80, 1.05f64..12.0).prop_map(
                // 60% from a coarse ρ grid (collides across the stream:
                // cache hits), the rest from a continuous range (mostly
                // fresh: cache misses).
                |(table, pick, grid, fresh)| {
                    let rho = if pick < 60 { f64::from(grid) / 10.0 } else { fresh };
                    (table, rho)
                },
            ),
            1..120,
        )
    ) {
        let cached = PlanService::new(ServiceConfig::default());
        let tiny = PlanService::new(ServiceConfig {
            plan_cache_capacity: 4,
            plan_cache_shards: 1,
            ..ServiceConfig::default()
        });
        let uncached = PlanService::new(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let reference = answer_lines(&uncached, &queries);
        prop_assert_eq!(&answer_lines(&cached, &queries), &reference);
        prop_assert_eq!(&answer_lines(&tiny, &queries), &reference);
        // Replaying the same stream against the now-warm cache must
        // still give the same bytes.
        prop_assert_eq!(&answer_lines(&cached, &queries), &reference);
    }
}
