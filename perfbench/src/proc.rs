//! Processes under test: spawning, SIGTERM, and reaping with the
//! child's peak resident memory (from `wait4`'s rusage).

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernel's `struct rusage` on 64-bit Linux: two timevals, then
/// fourteen longs of which `ru_maxrss` (KiB) is the first. Only the
/// kernel writes the fields this program does not read.
#[repr(C)]
#[allow(dead_code)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub ok: bool,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// A spawned child that is always reaped: [`Proc::wait`] reaps it and
/// reports its peak memory; dropping an unreaped one kills and reaps it.
pub struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    /// Spawns `cmd` with stdout piped.
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        let child = cmd.stdout(Stdio::piped()).spawn()?;
        Ok(Proc {
            child,
            reaped: false,
        })
    }

    /// The child's stdout (taken once).
    pub fn stdout(&mut self) -> ChildStdout {
        self.child.stdout.take().expect("stdout is taken once")
    }

    /// Asks the child to drain and exit (SIGTERM).
    pub fn terminate(&self) {
        // SAFETY: `kill` has no memory-safety preconditions; the pid is
        // our unreaped child, so it cannot name a recycled process.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
    }

    /// Waits for the child to exit and reaps it.
    pub fn wait(mut self) -> io::Result<Exit> {
        self.reap()
    }

    fn reap(&mut self) -> io::Result<Exit> {
        let mut status = 0i32;
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss_kb: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: both pointers are to live, properly sized locals;
            // `RUsage` matches the kernel's `struct rusage` (two timevals
            // then fourteen longs) on 64-bit Linux.
            let r = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut usage) };
            if r >= 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        self.reaped = true;
        Ok(Exit {
            // WIFEXITED && WEXITSTATUS == 0.
            ok: status & 0xffff == 0,
            peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// A running `rexec-serve` on an ephemeral loopback port, with its
/// default tuning.
pub struct Daemon {
    proc: Proc,
    /// `host:port` it listens on.
    pub addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on` line.
    pub fn spawn(bin: &Path, metrics_prom: Option<&Path>) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]).stderr(Stdio::null());
        if let Some(path) = metrics_prom {
            cmd.arg("--metrics-prom").arg(path);
        }
        let mut proc = Proc::spawn(&mut cmd)?;
        let mut stdout = BufReader::new(proc.stdout());
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?
            .to_string();
        Ok(Daemon {
            proc,
            addr,
            _stdout: stdout,
        })
    }

    /// SIGTERM, drain, reap.
    pub fn stop(self) -> io::Result<Exit> {
        self.proc.terminate();
        self.proc.wait()
    }
}

/// One `experiments` invocation: wall time, exit, and the arrival time
/// of every stdout line (stdout is line-buffered, so a line arrives
/// when the program prints it).
pub struct Run {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exit status and peak memory.
    pub exit: Exit,
    /// `(seconds since spawn, line)` for every stdout line.
    pub lines: Vec<(f64, String)>,
}

/// Runs `bin args...` to completion, timestamping its stdout lines.
pub fn run_timed(bin: &Path, args: &[&str]) -> io::Result<Run> {
    let started = Instant::now();
    let mut proc = Proc::spawn(Command::new(bin).args(args))?;
    let mut stdout = BufReader::new(proc.stdout());
    let mut lines = Vec::new();
    let mut line = String::new();
    while stdout.read_line(&mut line)? > 0 {
        lines.push((started.elapsed().as_secs_f64(), line.trim_end().to_string()));
        line.clear();
    }
    let exit = proc.wait()?;
    Ok(Run {
        wall_s: started.elapsed().as_secs_f64(),
        exit,
        lines,
    })
}
