//! The load generator: one connection, one sending thread (the caller)
//! and one receiving thread. Requests go out on a precomputed schedule
//! (open loop) or back to back; every response is checked for the
//! expected id and a success body, and latency is timed from each
//! request's due time.

use crate::gen::Lines;
use crate::stats::{due_latency_ms, lateness_ms};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Give up on missing responses this long after the last send.
const GRACE: Duration = Duration::from_secs(10);
/// Largest single write, bytes.
const CHUNK: usize = 64 * 1024;

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Responses with the expected id and a plan body.
    pub ok: usize,
    /// Error responses, wrong ids, and missing responses.
    pub failed: usize,
    /// Per answered request: ms from due time to answer.
    pub latency_ms: Vec<f64>,
    /// Due time (ns since phase start) of each `latency_ms` entry.
    pub due_ns: Vec<u64>,
    /// Per request: ms the generator sent it late.
    pub lag_ms: Vec<f64>,
    /// Phase start to last answer, seconds.
    pub elapsed_s: f64,
    /// When the last request was due and when the last answer arrived
    /// (ns since phase start).
    pub last_due_ns: u64,
    /// See `last_due_ns`.
    pub last_answer_ns: u64,
    /// `(request index, response line)` of every sampled request.
    pub sampled: Vec<(usize, String)>,
}

/// A connection to the daemon.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects with Nagle off.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    /// Sends `lines` (at `due_ns`, or back to back when `None`) and
    /// collects their responses. Requests whose index satisfies
    /// `sample` keep their response line for the reference check.
    pub fn phase(
        &mut self,
        lines: &Lines,
        due_ns: Option<&[u64]>,
        sample: &(dyn Fn(usize) -> bool + Sync),
    ) -> io::Result<Phase> {
        let n = lines.len();
        let reader = self.stream.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(100)))?;
        let sent_all_ns = AtomicU64::new(u64::MAX);
        precise_sleeps();
        let t0 = Instant::now();
        let due_at = |i: usize| due_ns.map_or(0, |d| d[i]);
        std::thread::scope(|scope| {
            let receiver =
                scope.spawn(|| receive(reader, lines, &due_at, sample, t0, &sent_all_ns));
            let mut lag_ms = Vec::with_capacity(n);
            let mut writer = &self.stream;
            let mut i = 0;
            let sent = loop {
                if i == n {
                    break Ok(());
                }
                wait_until(t0, due_at(i));
                let now = t0.elapsed().as_nanos() as u64;
                let start = if i == 0 { 0 } else { lines.ends[i - 1] };
                let mut j = i + 1;
                while j < n && due_at(j) <= now && lines.ends[j] - start <= CHUNK {
                    j += 1;
                }
                lag_ms.extend((i..j).map(|k| lateness_ms(due_at(k), now)));
                if let Err(e) = writer.write_all(&lines.bytes[start..lines.ends[j - 1]]) {
                    break Err(e);
                }
                i = j;
            };
            sent_all_ns.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            let mut phase = receiver.join().expect("receiver thread panicked");
            phase.lag_ms = lag_ms;
            phase.last_due_ns = if n == 0 { 0 } else { due_at(n - 1) };
            sent.map(|()| phase)
        })
    }
}

/// Sleeps until `due_ns`. It never spins: at the busy rates the gap
/// between requests is shorter than a wake-up, and a spinning sender
/// would hold one of the machine's two cores, so the daemon's threads
/// would queue for the other and the latency would measure the
/// scheduler. A late wake-up instead sends every request due by then in
/// one write, and its lateness is charged to their latency. The sender
/// thread's timer slack is cut to 1 µs first (`PR_SET_TIMERSLACK`), so
/// sleeps end close to on time instead of 50 µs late.
fn wait_until(t0: Instant, due_ns: u64) {
    let now = t0.elapsed().as_nanos() as u64;
    if now < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets the calling thread's timer slack to 1 µs.
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of ours; it only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// The receiving side: reads responses in order until all `lines` are
/// answered or the grace period after the last send runs out.
fn receive(
    mut reader: TcpStream,
    lines: &Lines,
    due_at: &dyn Fn(usize) -> u64,
    sample: &(dyn Fn(usize) -> bool + Sync),
    t0: Instant,
    sent_all_ns: &AtomicU64,
) -> Phase {
    let n = lines.len();
    let mut phase = Phase {
        latency_ms: Vec::with_capacity(n),
        due_ns: Vec::with_capacity(n),
        ..Phase::default()
    };
    let mut buf = vec![0u8; 64 * 1024];
    let mut pending: Vec<u8> = Vec::new();
    let mut k = 0;
    while k < n {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(got) => {
                let now = t0.elapsed().as_nanos() as u64;
                pending.extend_from_slice(&buf[..got]);
                let mut start = 0;
                while let Some(pos) = pending[start..].iter().position(|&b| b == b'\n') {
                    let line = &pending[start..start + pos];
                    start += pos + 1;
                    if k < n && is_plan_for(line, lines.first_id + k as u64) {
                        phase.ok += 1;
                        phase.latency_ms.push(due_latency_ms(due_at(k), now));
                        phase.due_ns.push(due_at(k));
                        phase.last_answer_ns = now;
                    } else {
                        phase.failed += 1;
                    }
                    if k < n && sample(k) {
                        phase
                            .sampled
                            .push((k, String::from_utf8_lossy(line).into_owned()));
                    }
                    k += 1;
                }
                pending.drain(..start);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let sent = sent_all_ns.load(Ordering::SeqCst);
                if sent != u64::MAX
                    && t0.elapsed().as_nanos() as u64 > sent + GRACE.as_nanos() as u64
                {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    phase.failed += n - k.min(n);
    phase.elapsed_s = phase.last_answer_ns as f64 / 1e9;
    phase
}

/// Whether `line` is a plan (not an error) answering request `id`.
fn is_plan_for(line: &[u8], id: u64) -> bool {
    let Some(rest) = line.strip_prefix(b"{\"id\":") else {
        return false;
    };
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let parsed = std::str::from_utf8(&rest[..digits])
        .ok()
        .and_then(|s| s.parse::<u64>().ok());
    parsed == Some(id) && rest[digits..].starts_with(b",\"digest\":")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lines_are_recognized_by_id_and_body() {
        assert!(is_plan_for(
            b"{\"id\":42,\"digest\":\"fnv1a:00\",\"rho\":3}",
            42
        ));
        assert!(!is_plan_for(b"{\"id\":42,\"digest\":\"x\"}", 41));
        assert!(!is_plan_for(b"{\"id\":420,\"digest\":\"x\"}", 42));
        assert!(!is_plan_for(
            b"{\"id\":42,\"err\":{\"kind\":\"parse\"}}",
            42
        ));
        assert!(!is_plan_for(b"{\"err\":{\"kind\":\"parse\"}}", 42));
    }
}
