//! The TCP daemon (diagram in DESIGN.md §12). Each connection is served
//! by `workers` threads that take turns rather than hand work to each
//! other. A thread locks the connection's read side, reads once, takes
//! the complete lines of that read as one batch with the next sequence
//! number, and unlocks, so the next thread reads while this one answers.
//! It then answers the batch and waits for its sequence number's turn
//! to write, so responses leave in request order however the threads
//! interleave: no queue, no reply channel, no writer thread.
//!
//! Backpressure: each thread holds at most one batch, so a connection
//! has at most `workers` batches read and not yet written; past that
//! nobody reads and TCP flow control pushes back. A line longer than
//! `MAX_LINE` gets a `bad_request` error and is skipped through its
//! newline; the connection stays open.
//!
//! Graceful shutdown ([`Server::shutdown`], or SIGTERM/ctrl-c in the
//! binary): the accept loop closes the listener (new connections are
//! refused), connection threads keep draining already-open connections
//! until EOF or the drain deadline and write every response, and
//! [`Server::join`] finally writes the Prometheus metrics file. Every
//! request read off a socket gets a response.

use crate::service::{PlanService, Query, ServiceConfig};
use crate::wire;
use rexec_obs::{counter, gauge, sketch, RollingWindow};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

/// Longest accepted request line in bytes, newline excluded.
const MAX_LINE: usize = 64 * 1024;

/// Bytes taken off the socket per read: the largest batch.
const READ_BUF: usize = 64 * 1024;

/// Most threads per connection [`Server::start`] accepts: each
/// connection spawns `workers` threads, so an unbounded count would let
/// one connection ask for any number.
pub const MAX_WORKERS: usize = 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Threads per connection, 1 to [`MAX_WORKERS`]; each reads,
    /// answers and writes its own batches, taking turns with the others.
    pub workers: usize,
    /// How long shutdown waits for open connections to reach EOF
    /// before abandoning their sockets.
    pub drain_secs: f64,
    /// Planning-core tuning.
    pub service: ServiceConfig,
    /// Write the final Prometheus metrics exposition here on shutdown.
    pub metrics_prom: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            drain_secs: 5.0,
            service: ServiceConfig::default(),
            metrics_prom: None,
        }
    }
}

/// Final tallies returned by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines read off sockets.
    pub requests: u64,
    /// Response lines written (success + error responses).
    pub responses: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Plan-cache counters.
    pub cache: crate::cache::CacheStats,
}

struct Inner {
    service: PlanService,
    opts: ServeOptions,
    /// When shutdown was requested; set once.
    stop_at: OnceLock<Instant>,
    started: Instant,
    latency: RollingWindow,
    /// The connections accepted so far, to wake at the drain deadline;
    /// `closed` is signalled each time one of their threads exits.
    open: Mutex<Vec<Weak<Conn>>>,
    closed: Condvar,
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    errors: AtomicU64,
}

impl Inner {
    /// When draining stops: `None` before shutdown, and for a drain
    /// too long to represent. A negative or NaN `drain_secs` is zero.
    fn drain_deadline(&self) -> Option<Instant> {
        let drain = Duration::try_from_secs_f64(self.opts.drain_secs.max(0.0)).ok()?;
        self.stop_at.get()?.checked_add(drain)
    }

    fn drain_expired(&self) -> bool {
        self.drain_deadline()
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The open-connection list, pruned of closed connections. Its
    /// entries are plain weak pointers, valid at every step, so a
    /// poisoned lock is recovered.
    fn open_conns(&self) -> std::sync::MutexGuard<'_, Vec<Weak<Conn>>> {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        open.retain(|c| c.strong_count() > 0);
        open
    }

    /// After the accept loop stops: waits until every connection is
    /// closed or the drain deadline passes, then shuts down the sockets
    /// still open, which ends their threads' blocking reads and writes.
    fn drain(&self) {
        let open = self.open_conns();
        let still_open = |open: &mut Vec<Weak<Conn>>| {
            open.retain(|c| c.strong_count() > 0);
            !open.is_empty()
        };
        let open = match self.drain_deadline() {
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let waited = self.closed.wait_timeout_while(open, left, still_open);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
            None => self
                .closed
                .wait_while(open, still_open)
                .unwrap_or_else(PoisonError::into_inner),
        };
        for conn in open.iter().filter_map(Weak::upgrade) {
            conn.stream.shutdown(Shutdown::Both).ok();
        }
    }
}

/// A running daemon. Obtain with [`Server::start`]; stop with
/// [`Server::shutdown`] + [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
}

impl Server {
    /// Binds the listener and spawns the accept loop. Fails with
    /// `InvalidInput`, before binding, when `workers` is outside 1 to
    /// [`MAX_WORKERS`].
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        if !(1..=MAX_WORKERS).contains(&opts.workers) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("workers must be 1 to {MAX_WORKERS}, not {}", opts.workers),
            ));
        }
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service: PlanService::new(opts.service.clone()),
            stop_at: OnceLock::new(),
            started: Instant::now(),
            latency: RollingWindow::new(8, 0.5),
            open: Mutex::new(Vec::new()),
            closed: Condvar::new(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            opts,
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, listener))?
        };
        Ok(Server {
            inner,
            local_addr,
            accept,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown: stop accepting, drain in-flight work.
    /// Idempotent; returns immediately — follow with [`Server::join`].
    pub fn shutdown(&self) {
        if self.inner.stop_at.set(Instant::now()).is_err() {
            return;
        }
        // Wake the accept loop, blocked in `accept`, with a connection
        // of its own; it sees `stop_at` and closes the listener.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        TcpStream::connect_timeout(&wake, Duration::from_secs(1)).ok();
    }

    /// Waits for the drain to complete (bounded by `drain_secs` past
    /// the shutdown request), flushes metrics, and reports tallies.
    pub fn join(self) -> ServeReport {
        // The accept loop returns once every connection has drained.
        self.accept
            .join()
            .expect("accept loop or a connection thread panicked");
        publish_metrics(&self.inner);
        if let Some(path) = &self.inner.opts.metrics_prom {
            let text = rexec_obs::prometheus_text(rexec_obs::global());
            if let Err(e) = rexec_harness::atomic_write_simple(path, text.as_bytes()) {
                eprintln!("[rexec-serve] failed to write {}: {e}", path.display());
            }
        }
        ServeReport {
            connections: self.inner.connections.load(Ordering::Relaxed),
            requests: self.inner.requests.load(Ordering::Relaxed),
            responses: self.inner.responses.load(Ordering::Relaxed),
            errors: self.inner.errors.load(Ordering::Relaxed),
            cache: self.inner.service.cache_stats(),
        }
    }
}

/// Accepts until shutdown and serves each connection on `workers`
/// scoped threads, then drains. A scoped thread's stack is released
/// when it exits, not held until shutdown, and the scope returns only
/// once every connection has drained.
fn accept_loop(inner: &Inner, listener: TcpListener) {
    std::thread::scope(|scope| loop {
        let accepted = listener.accept();
        if inner.stop_at.get().is_some() {
            // The shutdown wake-up, or a client that came too late.
            // Closing the listener refuses new connections while the
            // open ones drain.
            drop(listener);
            inner.drain();
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                inner.connections.fetch_add(1, Ordering::Relaxed);
                counter!("serve.connections").incr();
                spawn_connection(scope, inner, stream);
            }
            // Out of file descriptors, say: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    })
}

/// Starts `workers` threads on one connection. A thread that cannot be
/// spawned is counted; a connection that got none is closed when `conn`
/// drops here. Reads block with no timeout: an idle connection costs
/// no wake-ups, and [`Inner::drain`] shuts the socket down at the
/// drain deadline.
fn spawn_connection<'s>(scope: &'s Scope<'s, '_>, inner: &'s Inner, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let conn = Arc::new(Conn {
        stream,
        read: Mutex::new(ReadSide {
            buf: vec![0; READ_BUF],
            ..ReadSide::default()
        }),
        turn: Mutex::new(0),
        turn_passed: Condvar::new(),
    });
    inner.open_conns().push(Arc::downgrade(&conn));
    for _ in 0..inner.opts.workers {
        let conn = Arc::clone(&conn);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn_scoped(scope, move || {
                serve_conn(inner, &conn);
                // Let go of the connection before telling the drain, so
                // the last thread out leaves it closed.
                drop(conn);
                let _open = inner.open.lock().unwrap_or_else(PoisonError::into_inner);
                inner.closed.notify_all();
            });
        if spawned.is_err() {
            counter!("serve.spawn_failures").incr();
        }
    }
}

/// What one socket read leaves for the next. Whoever holds it is the
/// connection's one reader.
#[derive(Default)]
struct ReadSide {
    buf: Vec<u8>,
    /// The unterminated tail of the last read, and whether it belongs to
    /// an over-long line being skipped.
    line: Vec<u8>,
    skipping: bool,
    /// Sequence number of the next batch.
    next_seq: u64,
}

/// One connection, shared by its threads.
struct Conn {
    stream: TcpStream,
    read: Mutex<ReadSide>,
    /// Sequence number of the batch whose turn it is to write. A plain
    /// counter is valid at every step, so a poisoned lock is recovered.
    turn: Mutex<u64>,
    turn_passed: Condvar,
}

/// The complete lines of one socket read, in order: runs of lines, and
/// `None` for each over-long line skipped among them.
type Pieces = Vec<Option<Vec<u8>>>;

impl Conn {
    /// Reads until one read yields a complete line (or EOF leaves a
    /// final unterminated one, which still counts as a request) and
    /// returns those lines as the next batch, with its sequence number
    /// and the time of the read. `None` once there is
    /// nothing more to read: EOF, a socket error or the drain deadline.
    fn read_batch(&self, inner: &Inner) -> Option<(u64, Instant, Pieces)> {
        let mut side = self.read.lock().expect("read side poisoned");
        let side = &mut *side;
        let mut pieces = Vec::new();
        loop {
            // After EOF, a reset or the deadline, every later read also
            // ends at once, so each thread leaves through `n == 0`.
            let n = if inner.drain_expired() {
                0 // abandon the socket
            } else {
                match (&self.stream).read(&mut side.buf) {
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => 0, // reset / broken pipe: nothing left to read
                }
            };
            let read_at = Instant::now();
            if n == 0 && !side.line.is_empty() {
                pieces.push(Some(std::mem::take(&mut side.line)));
            }
            let mut run = Vec::new();
            for piece in side.buf[..n].split_inclusive(|&b| b == b'\n') {
                let complete = piece.ends_with(b"\n");
                if side.skipping {
                    side.skipping = !complete;
                } else if side.line.len() + piece.len() - usize::from(complete) > MAX_LINE {
                    if !run.is_empty() {
                        pieces.push(Some(std::mem::take(&mut run)));
                    }
                    pieces.push(None);
                    side.line.clear();
                    side.skipping = !complete;
                } else if complete {
                    run.append(&mut side.line);
                    run.extend_from_slice(piece);
                } else {
                    side.line.extend_from_slice(piece);
                }
            }
            if !run.is_empty() {
                pieces.push(Some(run));
            }
            if !pieces.is_empty() {
                side.next_seq += 1;
                return Some((side.next_seq - 1, read_at, pieces));
            } else if n == 0 {
                return None;
            }
        }
    }

    /// Waits for batch `seq`'s turn, runs `write` while holding it, and
    /// passes the turn to `seq + 1`.
    fn in_turn<T>(&self, seq: u64, write: impl FnOnce() -> T) -> T {
        let mut turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        while *turn != seq {
            turn = self
                .turn_passed
                .wait(turn)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let out = write();
        *turn += 1;
        drop(turn);
        self.turn_passed.notify_all();
        out
    }
}

/// Runs `answer` for batch `seq`. If it panics, the batch's answers
/// are lost: close the connection (its client would wait for them
/// forever), pass the turn on so the connection's other threads finish
/// instead of waiting for it, and go on panicking.
fn answer_or_pass<T>(conn: &Conn, seq: u64, answer: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(AssertUnwindSafe(answer)).unwrap_or_else(|panic| {
        conn.stream.shutdown(Shutdown::Both).ok();
        conn.in_turn(seq, || ());
        std::panic::resume_unwind(panic)
    })
}

/// One of a connection's threads: reads a batch, answers it, writes it
/// in turn, and goes back for the next, until the read side is done.
fn serve_conn(inner: &Inner, conn: &Conn) {
    let (mut queries, mut answers) = (Vec::new(), Vec::new());
    while let Some((seq, read, pieces)) = conn.read_batch(inner) {
        let (text, n) = answer_or_pass(conn, seq, || {
            process_batch(inner, &pieces, &mut queries, &mut answers)
        });
        let rendered = Instant::now();
        let stamps = conn.in_turn(seq, || {
            let turn = Instant::now();
            let ok = (&conn.stream).write_all(text.as_bytes()).is_ok();
            ok.then(|| [read, rendered, turn, Instant::now()])
        });
        match stamps {
            Some(stamps) => record_batch(inner, stamps, n),
            // Stop reading for a client that no longer reads.
            None => _ = conn.stream.shutdown(Shutdown::Both),
        }
    }
}

/// A batch's `[answer, turn, write]` stages from its `[read, rendered,
/// turn, written]` instants. `Duration` arithmetic is exact, so the
/// three sum to `written − read`.
fn stages(t: [Instant; 4]) -> [Duration; 3] {
    [t[1] - t[0], t[2] - t[1], t[3] - t[2]]
}

/// Counts a written batch's `n` responses and records, once per
/// response so their medians compare, its three stages
/// (`serve.stage.*_seconds`) and their sum, the request latency from
/// socket read to the end of the socket write (`serve.latency`).
fn record_batch(inner: &Inner, stamps: [Instant; 4], n: u64) {
    inner.responses.fetch_add(n, Ordering::Relaxed);
    counter!("serve.responses").add(n);
    let [answer, turn, write] = stages(stamps);
    sketch!("serve.stage.answer_seconds").record_n(answer.as_secs_f64(), n);
    sketch!("serve.stage.turn_seconds").record_n(turn.as_secs_f64(), n);
    sketch!("serve.stage.write_seconds").record_n(write.as_secs_f64(), n);
    let now = inner.started.elapsed().as_secs_f64();
    inner
        .latency
        .record_n_at(now, (answer + turn + write).as_secs_f64(), n);
}

/// Parses, resolves, plans and renders the request lines of one batch.
/// Blank lines are keep-alives, not requests.
fn process_batch(
    inner: &Inner,
    pieces: &[Option<Vec<u8>>],
    queries: &mut Vec<Query>,
    answers: &mut Vec<crate::service::PlanAnswer>,
) -> (String, u64) {
    // Parse and resolve every line; valid ones join the solve batch.
    queries.clear();
    let mut parsed: Vec<(Option<u64>, Result<usize, wire::WireError>)> = Vec::new();
    for piece in pieces {
        let Some(lines) = piece else {
            let err = wire::WireError {
                kind: wire::kind::BAD_REQUEST,
                msg: format!("request line longer than {MAX_LINE} bytes"),
            };
            parsed.push((None, Err(err)));
            continue;
        };
        // Invalid UTF-8 is replaced, so a bad byte costs its own line a
        // parse error and nothing more.
        let lines = String::from_utf8_lossy(lines);
        let requests = lines
            .split('\n')
            .map(|l| l.trim_end_matches('\r'))
            .filter(|l| !l.trim().is_empty());
        for line in requests {
            let (id, result) = wire::parse_request(line);
            match result {
                Ok(spec) => match inner.service.resolve(&spec) {
                    Ok(query) => {
                        parsed.push((id, Ok(queries.len())));
                        queries.push(query);
                    }
                    Err(e) => parsed.push((id, Err(wire::wire_error_from_spec(&e)))),
                },
                Err(e) => parsed.push((id, Err(e))),
            }
        }
    }
    let n = parsed.len() as u64;
    inner.requests.fetch_add(n, Ordering::Relaxed);
    counter!("serve.requests").add(n);
    if n > 0 {
        sketch!("serve.batch.occupancy").record(n as f64);
    }
    inner.service.plan_batch(queries, answers);
    let mut out = String::new();
    for (id, result) in &parsed {
        match result {
            Ok(query_idx) => wire::render_answer(&mut out, *id, &answers[*query_idx]),
            Err(e) => {
                inner.errors.fetch_add(1, Ordering::Relaxed);
                counter!("serve.wire_errors").incr();
                wire::render_error(&mut out, *id, e);
            }
        }
        out.push('\n');
    }
    (out, n)
}

/// Publishes the rolling-window gauges: `serve.qps`,
/// `serve.latency.p50` / `.p99` / `.per_sec`, and the cache hit rate.
fn publish_metrics(inner: &Arc<Inner>) {
    let stats = inner.latency.publish_at(
        rexec_obs::global(),
        "serve.latency",
        inner.started.elapsed().as_secs_f64(),
    );
    gauge!("serve.qps").set(stats.events_per_sec);
    let cache = inner.service.cache_stats();
    let lookups = cache.hits + cache.misses;
    if lookups > 0 {
        gauge!("serve.cache.hit_rate").set(cache.hits as f64 / lookups as f64);
    }
    gauge!("serve.cache.evictions").set(cache.evictions as f64);
    gauge!("serve.cache.plans").set(inner.service.cached_plans() as f64);
}

/// SIGINT/SIGTERM → drain-and-exit for the daemon binary. The handler
/// sets a flag and writes one byte to a self-pipe (an atomic store and a
/// `write`, both async-signal-safe), so the main thread sleeps in
/// [`wait`](signals::wait) until a signal arrives instead of polling.
#[cfg(unix)]
pub mod signals {
    use std::io::{ErrorKind, Read};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::OnceLock;

    static STOP: AtomicBool = AtomicBool::new(false);
    /// The self-pipe: the handler writes to the second end, [`wait`]
    /// reads the first.
    static PIPE: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();
    /// The write end's descriptor, for the handler (−1 before
    /// [`install`]).
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
    static WAKE_BYTE: u8 = 1;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_stop(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // The write end is nonblocking: when the pipe is full a
            // wake-up byte is already pending, so a failed write loses
            // nothing.
            // SAFETY: `write` is async-signal-safe; `fd` is the write end
            // of the pair in `PIPE`, which lives for the whole process,
            // and `WAKE_BYTE` is a static one-byte buffer.
            unsafe {
                write(fd, &WAKE_BYTE, 1);
            }
        }
    }

    /// Installs SIGINT and SIGTERM handlers that set the stop flag and
    /// wake [`wait`].
    ///
    /// # Panics
    /// If the self-pipe cannot be created.
    pub fn install() {
        let (_, wake) = PIPE.get_or_init(|| {
            let (read, wake) = UnixStream::pair().expect("create the signal self-pipe");
            wake.set_nonblocking(true)
                .expect("make the signal self-pipe nonblocking");
            (read, wake)
        });
        WAKE_FD.store(wake.as_raw_fd(), Ordering::SeqCst);
        // SAFETY: `on_stop` is an `extern "C" fn(i32)` that only stores
        // to atomics and calls `write`, all async-signal-safe.
        unsafe {
            signal(SIGINT, on_stop as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_stop as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a termination signal has arrived.
    fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }

    /// Blocks until a termination signal has arrived, asleep in a read
    /// of the self-pipe. Returns at once if one already has.
    ///
    /// # Panics
    /// If [`install`] has not run, or the self-pipe read fails.
    pub fn wait() {
        let (read, _) = PIPE.get().expect("signals::install runs before wait");
        let mut byte = [0u8; 1];
        while !stop_requested() {
            match (&*read).read(&mut byte) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("signal self-pipe read failed: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::{Barrier, MutexGuard};

    /// Held by every test that opens connections, so that the one that
    /// counts `serve-conn` threads sees its own threads only.
    fn connections_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn start(addr: &str, workers: usize) -> Server {
        Server::start(ServeOptions {
            addr: addr.into(),
            workers,
            ..ServeOptions::default()
        })
        .expect("bind ephemeral port")
    }

    #[test]
    fn the_stages_of_a_batch_sum_exactly_to_its_recorded_latency() {
        let server = start("127.0.0.1:0", 1);
        let read = Instant::now();
        let ns = Duration::from_nanos;
        let stamps = [
            read,
            read + ns(1_234_567),
            read + ns(2_222_221),
            read + ns(7_777_777_777),
        ];
        record_batch(&server.inner, stamps, 3);
        let latency = stamps[3] - stamps[0];
        assert_eq!(stages(stamps).iter().sum::<Duration>(), latency);
        let window = server
            .inner
            .latency
            .stats_at(server.inner.started.elapsed().as_secs_f64());
        let latency = latency.as_secs_f64();
        assert_eq!(window.count, 3);
        assert_eq!((window.min, window.max), (Some(latency), Some(latency)));
        server.shutdown();
        assert_eq!(server.join().responses, 3);
    }

    /// One request over a fresh connection, read to EOF.
    fn one_request(server: &Server, id: usize) {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        writeln!(
            stream,
            "{{\"id\":{id},\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}}"
        )
        .expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read to EOF");
        assert!(
            response.starts_with(&format!("{{\"id\":{id},")),
            "{response}"
        );
    }

    /// Mappings in this process's address space.
    #[cfg(target_os = "linux")]
    fn mappings() -> usize {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read maps");
        maps.lines().count()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn exited_connection_threads_release_their_stacks() {
        let _connections = connections_lock();
        let server = start("127.0.0.1:0", 2);
        // Let the allocator set up its per-thread arenas first.
        (0..20).for_each(|id| one_request(&server, id));
        let before = mappings();
        (20..220).for_each(|id| one_request(&server, id));
        // A thread that exits unjoined and undetached keeps its stack
        // and guard page mapped: 400 threads would add 800 mappings.
        let grown = mappings().saturating_sub(before);
        assert!(grown < 200, "{grown} more mappings after 200 connections");
        server.shutdown();
        assert_eq!(server.join().connections, 220);
    }

    /// Connects and waits for the answer to one request, so the
    /// connection's threads are running.
    fn connect_and_answer(server: &Server) -> TcpStream {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        writeln!(
            stream,
            "{{\"id\":1,\"platform\":\"hera\",\"processor\":\"xscale\",\"rho\":3}}"
        )
        .expect("send");
        let mut response = String::new();
        BufReader::new(&stream)
            .read_line(&mut response)
            .expect("read response");
        assert!(response.starts_with("{\"id\":1,"), "{response}");
        stream
    }

    /// The `voluntary_ctxt_switches` of every `serve-conn` thread in
    /// this process.
    #[cfg(target_os = "linux")]
    fn serve_conn_switches() -> Vec<u64> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("list threads");
        tasks
            .filter_map(|task| {
                let dir = task.ok()?.path();
                let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
                if comm.trim_end() != "serve-conn" {
                    return None;
                }
                let status = std::fs::read_to_string(dir.join("status")).ok()?;
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                    .trim()
                    .parse()
                    .ok()
            })
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_connection_threads_sleep_until_there_is_something_to_read() {
        let _connections = connections_lock();
        let server = start("127.0.0.1:0", 2);
        let client = connect_and_answer(&server);
        // Let the thread that wrote the answer queue up behind the reader.
        std::thread::sleep(Duration::from_millis(50));
        let before = serve_conn_switches();
        std::thread::sleep(Duration::from_millis(300));
        let after = serve_conn_switches();
        assert_eq!(before.len(), 2, "one connection, two threads");
        assert_eq!(after.len(), 2, "one connection, two threads");
        for (b, a) in before.iter().zip(&after) {
            assert!(a - b <= 2, "an idle thread woke {} times in 300 ms", a - b);
        }
        drop(client);
        server.shutdown();
        assert_eq!(server.join().responses, 1);
    }

    #[test]
    fn an_idle_connection_keeps_join_waiting_only_until_the_drain_deadline() {
        let _connections = connections_lock();
        let server = Server::start(ServeOptions {
            drain_secs: 0.2,
            ..ServeOptions::default()
        })
        .expect("bind ephemeral port");
        let mut client = connect_and_answer(&server);
        let stopped = Instant::now();
        server.shutdown();
        assert_eq!(server.join().responses, 1);
        let waited = stopped.elapsed();
        assert!(
            waited < Duration::from_millis(1200),
            "join took {waited:?} with a 0.2 s drain"
        );
        // The daemon closed the socket it abandoned.
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty());
    }

    #[test]
    fn a_panic_while_answering_passes_the_turn_and_closes_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let conn = Conn {
            stream: listener.accept().expect("accept").0,
            read: Mutex::default(),
            turn: Mutex::new(0),
            turn_passed: Condvar::new(),
        };
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let panicked = scope.spawn(|| {
                answer_or_pass(&conn, 0, || {
                    gate.wait();
                    panic!("answering batch 0 failed")
                })
            });
            let next = scope.spawn(|| {
                gate.wait();
                conn.in_turn(1, || (&conn.stream).write_all(b"answer to batch 1\n"))
            });
            assert!(panicked.join().is_err());
            // Batch 1 gets its turn although batch 0 was never written,
            // and finds the connection closed.
            assert!(next.join().expect("no panic").is_err());
        });
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "nothing after a lost batch");
    }

    #[test]
    fn shutdown_wakes_an_accept_loop_bound_to_every_interface() {
        let server = start("0.0.0.0:0", 2);
        let port = server.local_addr().port();
        server.shutdown();
        server.shutdown();
        // The wake-up connection is not a client.
        assert_eq!(server.join().connections, 0);
        assert!(TcpStream::connect(("127.0.0.1", port)).is_err());
    }
}
