//! `rexec-serve --workers` outside 1 to 1024 is a usage error: the
//! daemon exits 2 with its usage text before it binds a socket or
//! spawns a thread.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn workers_out_of_range_exit_2_before_binding() {
    for workers in ["0", "1025", "1000000"] {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_rexec-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", workers])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rexec-serve");
        // A daemon that accepted the value would serve until stopped.
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.try_wait().expect("poll the daemon").is_none() {
            if Instant::now() > deadline {
                daemon.kill().ok();
                daemon.wait().ok();
                panic!("--workers {workers} was accepted: the daemon kept running");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = daemon.wait_with_output().expect("collect the output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--workers {workers}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "--workers {workers} started listening"
        );
        assert!(
            stderr.contains("--workers must be 1 to 1024") && stderr.contains("USAGE:"),
            "--workers {workers}: {stderr}"
        );
    }
}

#[test]
fn the_library_rejects_the_same_counts() {
    for workers in [0, rexec_serve::server::MAX_WORKERS + 1] {
        let opts = rexec_serve::ServeOptions {
            workers,
            ..rexec_serve::ServeOptions::default()
        };
        let err = rexec_serve::Server::start(opts).err().expect("rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{workers}");
    }
}
