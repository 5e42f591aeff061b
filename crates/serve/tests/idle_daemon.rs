//! An idle `rexec-serve` daemon sleeps: with no connection open, none
//! of its threads wakes up on a timer, and SIGTERM still drains it.
//!
//! Wake-ups are read from the kernel's per-thread
//! `voluntary_ctxt_switches` counters under `/proc/<pid>/task`, so the
//! test runs on Linux only.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// The daemon under test, killed if the test fails before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Voluntary context switches summed over every thread of `pid`.
fn voluntary_switches(pid: u32) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("read the task list");
    tasks
        .map(|task| {
            let status = std::fs::read_to_string(task.expect("task entry").path().join("status"))
                .unwrap_or_default();
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .map_or(0, |n| n.trim().parse().expect("a switch count"))
        })
        .sum()
}

#[test]
fn idle_daemon_stays_asleep_and_drains_on_sigterm() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_rexec-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rexec-serve"),
    );
    let child = &mut daemon.0;
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("read the listening line");
    assert!(line.starts_with("listening on "), "got {line:?}");
    let pid = child.id();

    // Let start-up settle, then count wake-ups over 300 ms of idleness.
    // Polling the stop flag every 50 ms alone would show ~6.
    std::thread::sleep(Duration::from_millis(100));
    let before = voluntary_switches(pid);
    std::thread::sleep(Duration::from_millis(300));
    let woken = voluntary_switches(pid) - before;
    assert!(woken <= 2, "idle daemon woke {woken} times in 300 ms");

    // SAFETY: `kill` takes plain integers; `pid` is our live child.
    assert_eq!(unsafe { kill(pid as i32, SIGTERM) }, 0, "send SIGTERM");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit on SIGTERM");
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(status.success(), "exit {status}: {stderr}");
    assert!(stderr.contains("drained"), "no drain report: {stderr}");
}
