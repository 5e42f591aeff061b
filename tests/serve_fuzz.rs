//! Connection-level fuzzing of `rexec-serve`: seeded byte streams go
//! through a real `Server` over loopback with 1, 2 and 4 threads per
//! connection, and each response stream must equal, byte for byte, the
//! answers the in-process service gives the same stream line by line
//! (`PlanService::plan_spec`, then `render_answer` / `render_error`).
//!
//! The streams cover every split offset of a short stream, CRLF line
//! ends, blank keep-alive lines, invalid UTF-8, over-long lines that
//! straddle reads, nesting around the 128-level bound and a final
//! unterminated line. Clients half-close and then read, or read
//! between writes; no connection may end before every answer is in.
//! Batches that split a line hand its head from one connection thread
//! to the next, which is what these streams exercise.

use rexec_serve::{
    parse_request, render_answer, render_error, wire, PlanService, ServeOptions, Server,
    ServiceConfig, WireError,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};

/// The daemon's longest accepted request line, newline excluded.
const MAX_LINE: usize = 64 * 1024;

const WORKERS: [usize; 3] = [1, 2, 4];

fn start(workers: usize) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port")
}

/// The answers to `stream`, line by line, from the in-process service.
/// The text after the last newline is a final request line too.
fn expected(service: &PlanService, stream: &[u8]) -> Vec<u8> {
    let mut out = String::new();
    for line in stream.split(|&b| b == b'\n') {
        if line.len() > MAX_LINE {
            let err = WireError {
                kind: wire::kind::BAD_REQUEST,
                msg: format!("request line longer than {MAX_LINE} bytes"),
            };
            render_error(&mut out, None, &err);
            out.push('\n');
            continue;
        }
        let text = String::from_utf8_lossy(line);
        let text = text.trim_end_matches('\r');
        if text.trim().is_empty() {
            continue; // a keep-alive, not a request
        }
        let (id, spec) = parse_request(text);
        match spec.and_then(|s| {
            service
                .plan_spec(&s)
                .map_err(|e| wire::wire_error_from_spec(&e))
        }) {
            Ok(answer) => render_answer(&mut out, id, &answer),
            Err(e) => render_error(&mut out, id, &e),
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// Sends `stream` in the given chunks, half-closes and returns every
/// response byte up to EOF. Responses are read on a second thread, so a
/// long stream cannot stall on full socket buffers.
fn exchange(server: &Server, stream: &[u8], chunks: &[usize]) -> Vec<u8> {
    let conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).ok();
    let mut read_half = conn.try_clone().expect("clone stream");
    let reader = std::thread::spawn(move || {
        let mut response = Vec::new();
        read_half
            .read_to_end(&mut response)
            .expect("the daemon must not reset the connection");
        response
    });
    let mut write_half = conn;
    let mut at = 0;
    for &len in chunks {
        write_half
            .write_all(&stream[at..at + len])
            .expect("send chunk");
        at += len;
    }
    assert_eq!(at, stream.len(), "chunks cover the stream");
    write_half.shutdown(Shutdown::Write).expect("half-close");
    reader.join().expect("reader thread")
}

/// xorshift64*: the stream generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// A request nested `depth` levels deep, the object itself included.
fn nested(id: u64, depth: usize) -> Vec<u8> {
    let inner = depth - 1;
    format!(
        "{{\"id\":{id},\"x\":{}{}}}",
        "[".repeat(inner),
        "]".repeat(inner)
    )
    .into_bytes()
}

/// One request line without its line end.
fn line(rng: &mut Rng, id: u64) -> Vec<u8> {
    const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
    const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
    match rng.below(20) {
        0..=6 => format!(
            "{{\"id\":{id},\"platform\":\"{}\",\"processor\":\"{}\",\"rho\":{}}}",
            rng.pick(&PLATFORMS),
            rng.pick(&PROCESSORS),
            1.5 + 0.125 * rng.below(20) as f64
        )
        .into_bytes(),
        7 => format!(
            "{{\"id\":{id},\"lambda\":1e-5,\"checkpoint\":600,\"verification\":30,\
             \"kappa\":2000,\"pidle\":50,\"speeds\":[0.25,0.5,1.0],\"rho\":{}}}",
            2.0 + rng.below(8) as f64 / 4.0
        )
        .into_bytes(),
        8 => format!("{{\"id\":{id},\"platform\":\"hera\",").into_bytes(),
        9 => rng
            .pick(&[
                "{\"id\":1,\"bogus\":1}",
                "{\"id\":2,\"lambda\":-4}",
                "{\"id\":3,\"lambda\":1e-5}",
                "{\"id\":-1,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}",
                "{\"id\":\"7\",\"rho\":3}",
                "[1,2,3]",
                "42",
                "\"text\"",
            ])
            .as_bytes()
            .to_vec(),
        10 | 11 => rng.pick(&["", " ", "\t \t", "\r"]).as_bytes().to_vec(),
        12 => {
            let mut l = format!("{{\"id\":{id},\"platform\":\"he").into_bytes();
            l.extend_from_slice(b"\xff\xfera\",\"processor\":\"xscale\",\"rho\":3}");
            l
        }
        13 => b"\xc3\x28 {\xe2\x82".to_vec(),
        14 | 15 => nested(id, *rng.pick(&[2, 127, 128, 129, 1000])),
        16 => {
            // Around the cap, or far enough past it to straddle reads.
            let len = match rng.below(3) {
                0 => MAX_LINE - 1 + rng.below(3) as usize,
                _ => MAX_LINE + 1 + rng.below(100_000) as usize,
            };
            vec![b'x'; len]
        }
        _ => format!(
            "{{\"id\":{id},\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":{}}}",
            3 + rng.below(3)
        )
        .into_bytes(),
    }
}

/// A seeded stream of `lines` request lines, some ending in CRLF, and
/// every other stream ending without a newline.
fn stream(rng: &mut Rng, lines: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for id in 0..lines {
        out.extend(line(rng, id));
        if rng.below(4) == 0 {
            out.push(b'\r');
        }
        out.push(b'\n');
    }
    if rng.below(2) == 0 {
        out.extend(line(rng, lines));
    }
    out
}

/// Seeded chunk lengths covering `len` bytes, from one of four size
/// classes (single bytes up to reads larger than the daemon's buffer).
fn chunks(rng: &mut Rng, len: usize) -> Vec<usize> {
    let most = *rng.pick(&[8, 300, 9_000, 150_000]);
    let mut out = Vec::new();
    let mut left = len;
    while left > 0 {
        let n = (1 + rng.below(most) as usize).min(left);
        out.push(n);
        left -= n;
    }
    out
}

#[test]
fn seeded_streams_get_the_in_process_answers() {
    let service = PlanService::new(ServiceConfig::default());
    for workers in WORKERS {
        let server = start(workers);
        for seed in 1..=12u64 {
            let mut rng = Rng(0x5EED_F022 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let lines = 20 + rng.below(60);
            let bytes = stream(&mut rng, lines);
            let cuts = chunks(&mut rng, bytes.len());
            let got = exchange(&server, &bytes, &cuts);
            let want = expected(&service, &bytes);
            assert!(
                got == want,
                "seed {seed}, workers {workers}: the response stream differs\n got: {}\nwant: {}",
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want)
            );
        }
        server.shutdown();
        let report = server.join();
        assert_eq!(report.connections, 12);
        assert_eq!(report.requests, report.responses);
    }
}

#[test]
fn every_split_offset_of_a_short_stream_gets_the_same_answers() {
    let service = PlanService::new(ServiceConfig::default());
    let mut bytes = b"{\"id\":1,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}\r\n\
                      \n  \n{\"id\":2,\"platform\":\"he\xffra\"}\n{\"id\":3,\"lambda\":-4}\r\n"
        .to_vec();
    bytes.extend(nested(4, 129));
    bytes.extend(b"\n{\"id\":5,\"platform\":\"atlas\",\"processor\":\"crusoe\",\"rho\":2.5}");
    let want = expected(&service, &bytes);
    assert_eq!(want.iter().filter(|&&b| b == b'\n').count(), 5);
    for workers in WORKERS {
        let server = start(workers);
        for cut in 0..=bytes.len() {
            // Read the answers to the lines complete before the cut
            // before sending the rest: the daemon has then read past
            // them, so the text up to the cut is carried into a later
            // read. Then half-close and read the rest.
            let complete = bytes[..cut]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            let early = expected(&service, &bytes[..complete]);
            let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
            conn.set_nodelay(true).ok();
            conn.write_all(&bytes[..cut]).expect("send head");
            let mut got = vec![0; early.len()];
            conn.read_exact(&mut got).expect("answers to the head");
            conn.write_all(&bytes[cut..]).expect("send tail");
            conn.shutdown(Shutdown::Write).expect("half-close");
            conn.read_to_end(&mut got).expect("the rest, up to EOF");
            assert!(
                got == want,
                "split at {cut}, workers {workers}:\n got: {}\nwant: {}",
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want)
            );
        }
        server.shutdown();
        assert_eq!(server.join().connections, bytes.len() as u64 + 1);
    }
}

#[test]
fn a_client_keeps_its_connection_through_every_kind_of_bad_line() {
    let service = PlanService::new(ServiceConfig::default());
    let good = b"{\"id\":9,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}";
    let bad: Vec<Vec<u8>> = vec![
        b"{\"id\":1,\"platform\":".to_vec(),
        b"\xc3\x28 {\xe2\x82".to_vec(),
        b"{\"id\":2,\"bogus\":1}\r".to_vec(),
        nested(3, 129),
        nested(4, 30_000),
        vec![b'x'; MAX_LINE + 1],
        vec![b'y'; 3 * MAX_LINE],
    ];
    for workers in WORKERS {
        let server = start(workers);
        let conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.set_nodelay(true).ok();
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
        let mut writer = conn;
        let mut ask = |request: &[u8]| {
            writer.write_all(request).expect("send");
            writer.write_all(b"\n").expect("send newline");
            let want = expected(&service, request);
            if want.is_empty() {
                return; // a keep-alive gets no answer
            }
            let mut response = Vec::new();
            reader.read_until(b'\n', &mut response).expect("one line");
            assert_eq!(
                response,
                want,
                "workers {workers}: {}",
                String::from_utf8_lossy(&request[..request.len().min(80)])
            );
        };
        for request in &bad {
            ask(request);
            ask(b" \r");
            ask(good);
        }
        writer.shutdown(Shutdown::Write).expect("half-close");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("EOF");
        assert!(rest.is_empty());
        server.shutdown();
        let report = server.join();
        assert_eq!(report.requests, 2 * bad.len() as u64);
        assert_eq!(report.responses, report.requests);
        assert_eq!(report.errors, bad.len() as u64);
    }
}
