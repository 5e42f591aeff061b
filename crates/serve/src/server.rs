//! The TCP daemon (diagram in DESIGN.md §12). The complete lines of one
//! socket read form one batch: the connection's reader queues the batch
//! as one `Job` for the worker pool and, in read order, hands the
//! batch's reply receiver (its ticket) to the connection's writer. The
//! writer waits on each ticket in turn, so responses leave in request
//! order however the workers interleave batches — no sequence numbers,
//! no reorder buffer.
//!
//! Backpressure is counted in batches (`QUEUE_BATCHES`). A line longer
//! than `MAX_LINE` gets a `bad_request` error and is skipped through
//! its newline; the connection stays open.
//!
//! Graceful shutdown ([`Server::shutdown`], or SIGTERM/ctrl-c in the
//! binary): the accept loop closes the listener (new connections are
//! refused), readers keep draining already-open connections until EOF
//! or the drain deadline, workers finish the queue, writers flush every
//! response, and [`Server::join`] finally writes the Prometheus metrics
//! file. Every request read off a socket gets a response.

use crate::service::{PlanService, Query, ServiceConfig};
use crate::wire;
use rexec_obs::{counter, gauge, sketch, RollingWindow};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batches waiting for a worker before readers block, and batches one
/// connection may have unwritten before its reader blocks.
const QUEUE_BATCHES: usize = 64;

/// Longest accepted request line in bytes, newline excluded.
const MAX_LINE: usize = 64 * 1024;

/// Bytes taken off the socket per read: the largest batch.
const READ_BUF: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Batch worker threads.
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

/// A batch's rendered response lines and how many there are.
type Reply = (String, u64);

/// One queued batch: the complete lines of one socket read.
struct Job {
    lines: String,
    reply: SyncSender<Reply>,
}

/// The writer's handle on one batch: when it was read, and where its
/// reply will arrive.
type Ticket = (Instant, Receiver<Reply>);

struct Inner {
    service: PlanService,
    opts: ServeOptions,
    /// When shutdown was requested; set once.
    stop_at: OnceLock<Instant>,
    started: Instant,
    latency: RollingWindow,
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    errors: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn drain_expired(&self) -> bool {
        self.stop_at
            .get()
            .is_some_and(|at| at.elapsed() >= Duration::from_secs_f64(self.opts.drain_secs))
    }
}

/// A running daemon. Obtain with [`Server::start`]; stop with
/// [`Server::shutdown`] + [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop and worker pool.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service: PlanService::new(opts.service.clone()),
            stop_at: OnceLock::new(),
            started: Instant::now(),
            latency: RollingWindow::new(8, 0.5),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
            opts,
        });

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(QUEUE_BATCHES);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..inner.opts.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, listener, job_tx))
                .expect("spawn accept loop")
        };
        Ok(Server {
            inner,
            local_addr,
            accept,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown: stop accepting, drain in-flight work.
    /// Idempotent; returns immediately — follow with [`Server::join`].
    pub fn shutdown(&self) {
        self.inner.stop_at.get_or_init(Instant::now);
    }

    /// Waits for the drain to complete (bounded by `drain_secs` past
    /// the shutdown request), flushes metrics, and reports tallies.
    pub fn join(self) -> ServeReport {
        self.accept.join().expect("accept loop panicked");
        // The accept loop has exited, so conn_threads is complete.
        let conns = std::mem::take(&mut *self.inner.conn_threads.lock().expect("threads"));
        for handle in conns {
            handle.join().expect("connection thread panicked");
        }
        for worker in self.workers {
            worker.join().expect("worker panicked");
        }
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

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener, job_tx: SyncSender<Job>) {
    while inner.stop_at.get().is_none() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.connections.fetch_add(1, Ordering::Relaxed);
                counter!("serve.connections").incr();
                spawn_connection(inner, stream, job_tx.clone());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping the listener here closes the socket: new connections are
    // refused while existing ones drain. Dropping job_tx lets workers
    // exit once every reader is done.
}

fn spawn_connection(inner: &Arc<Inner>, stream: TcpStream, job_tx: SyncSender<Job>) {
    stream.set_nodelay(true).ok();
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return, // connection already dead
    };
    let (ticket_tx, ticket_rx) = mpsc::sync_channel::<Ticket>(QUEUE_BATCHES);
    let reader = {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("serve-conn-reader".into())
            .spawn(move || reader_loop(&inner, stream, &job_tx, &ticket_tx))
            .expect("spawn reader")
    };
    let writer = {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("serve-conn-writer".into())
            .spawn(move || writer_loop(&inner, write_half, ticket_rx))
            .expect("spawn writer")
    };
    let mut threads = inner.conn_threads.lock().expect("threads");
    threads.push(reader);
    threads.push(writer);
}

/// Queues `lines` as one job and hands its ticket to the writer.
/// False once the writer or the workers are gone.
fn send_batch(
    job_tx: &SyncSender<Job>,
    tickets: &SyncSender<Ticket>,
    lines: Vec<u8>,
    t: Instant,
) -> bool {
    let lines = String::from_utf8(lines)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    let (reply, ticket) = mpsc::sync_channel(1);
    tickets.send((t, ticket)).is_ok() && job_tx.send(Job { lines, reply }).is_ok()
}

/// Answers an over-long line with a ticket that is already answered.
fn send_too_long(inner: &Inner, tickets: &SyncSender<Ticket>, t: Instant) -> bool {
    inner.requests.fetch_add(1, Ordering::Relaxed);
    inner.errors.fetch_add(1, Ordering::Relaxed);
    counter!("serve.requests").incr();
    counter!("serve.wire_errors").incr();
    let err = wire::WireError {
        kind: wire::kind::BAD_REQUEST,
        msg: format!("request line longer than {MAX_LINE} bytes"),
    };
    let mut text = String::new();
    wire::render_error(&mut text, None, &err);
    text.push('\n');
    let (reply, ticket) = mpsc::sync_channel(1);
    reply.send((text, 1)).ok();
    tickets.send((t, ticket)).is_ok()
}

/// Reads until EOF (or the drain deadline after shutdown) and sends the
/// complete lines of each read as one batch. Dropping `tickets` at exit
/// is what lets the writer finish.
fn reader_loop(
    inner: &Arc<Inner>,
    mut stream: TcpStream,
    job_tx: &SyncSender<Job>,
    tickets: &SyncSender<Ticket>,
) {
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .ok();
    let mut buf = vec![0u8; READ_BUF];
    // The unterminated tail of the last read, and whether it belongs to
    // an over-long line being skipped.
    let mut line: Vec<u8> = Vec::new();
    let mut skipping = false;
    loop {
        if inner.drain_expired() {
            break; // shutdown drain expired; abandon the socket
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break, // EOF: client is done sending
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break, // reset / broken pipe: nothing left to read
        };
        let t = Instant::now();
        let mut batch = Vec::new();
        for piece in buf[..n].split_inclusive(|&b| b == b'\n') {
            let complete = piece.ends_with(b"\n");
            if skipping {
                skipping = !complete;
            } else if line.len() + piece.len() - usize::from(complete) > MAX_LINE {
                let ok = (batch.is_empty() || send_batch(job_tx, tickets, batch, t))
                    && send_too_long(inner, tickets, t);
                if !ok {
                    return;
                }
                batch = Vec::new();
                line.clear();
                skipping = !complete;
            } else if complete {
                batch.append(&mut line);
                batch.extend_from_slice(piece);
            } else {
                line.extend_from_slice(piece);
            }
        }
        if !batch.is_empty() && !send_batch(job_tx, tickets, batch, t) {
            return;
        }
    }
    // A final unterminated line still counts as a request.
    if !line.is_empty() {
        send_batch(job_tx, tickets, line, Instant::now());
    }
}

/// Takes the tickets in read order and writes each batch's bytes as
/// they arrive; the request latency it records spans read to write.
fn writer_loop(inner: &Arc<Inner>, mut stream: TcpStream, tickets: Receiver<Ticket>) {
    for (t, ticket) in tickets {
        let Ok((text, n)) = ticket.recv() else {
            continue; // the job never reached a worker
        };
        if stream.write_all(text.as_bytes()).is_err() {
            break;
        }
        inner.responses.fetch_add(n, Ordering::Relaxed);
        counter!("serve.responses").add(n);
        let (now, latency) = (
            inner.started.elapsed().as_secs_f64(),
            t.elapsed().as_secs_f64(),
        );
        inner.latency.record_n_at(now, latency, n);
    }
    stream.shutdown(std::net::Shutdown::Both).ok();
}

/// Answers one job at a time, each with one `plan_batch` sweep.
fn worker_loop(inner: &Arc<Inner>, rx: &Mutex<Receiver<Job>>) {
    let mut queries: Vec<Query> = Vec::new();
    let mut answers = Vec::new();
    loop {
        let job = rx.lock().expect("job queue poisoned").recv();
        let Ok(job) = job else {
            break; // every reader is done and the queue is empty
        };
        let reply = process_batch(inner, &job.lines, &mut queries, &mut answers);
        job.reply.send(reply).ok();
    }
}

/// Parses, resolves, plans and renders the request lines of one batch.
/// Blank lines are keep-alives, not requests.
fn process_batch(
    inner: &Inner,
    lines: &str,
    queries: &mut Vec<Query>,
    answers: &mut Vec<crate::service::PlanAnswer>,
) -> Reply {
    // Parse and resolve every line; valid ones join the solve batch.
    queries.clear();
    let mut parsed: Vec<(Option<u64>, Result<usize, wire::WireError>)> = Vec::new();
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
}

/// SIGINT/SIGTERM → drain-and-exit flag for the daemon binary.
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_stop(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Installs SIGINT and SIGTERM handlers that set the stop flag
    /// (async-signal-safe: one atomic store).
    pub fn install() {
        unsafe {
            signal(SIGINT, on_stop as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_stop as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}
