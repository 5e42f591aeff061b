//! `experiments` with its stdout closed — say, piped into `head -1` —
//! ends with a typed error and exit code 1 instead of a panic, and
//! leaves the sealed prefix resumable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn out_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rexec-closed-stdout-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn experiments(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.arg("--out").arg(dir).args(args);
    cmd
}

/// Runs with the read end of the stdout pipe dropped before the first
/// line is written.
fn with_closed_stdout(mut cmd: Command) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait for experiments")
}

fn assert_typed_failure(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: cannot write progress (stdout): "),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn a_closed_stdout_is_a_typed_error_and_the_sealed_prefix_resumes() {
    // A fresh run fails at its first progress line.
    let fresh = out_dir("fresh");
    assert_typed_failure(&with_closed_stdout(experiments(&fresh, &["T-rho8"])));

    // Seal one unit, then resume with stdout closed: the resume fails
    // before it seals anything more.
    let dir = out_dir("resume");
    let units = ["T-rho8", "T-rho3"];
    let killed = experiments(&dir, &units)
        .args(["--fault-plan", "kill-after-unit=1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run experiments");
    assert_eq!(killed.code(), Some(137));
    assert_typed_failure(&with_closed_stdout({
        let mut cmd = experiments(&dir, &units);
        cmd.arg("--resume");
        cmd
    }));

    // The sealed unit still verifies, and the rest is computed.
    let resumed = experiments(&dir, &units)
        .arg("--resume")
        .output()
        .expect("run experiments");
    assert!(resumed.status.success());
    let stdout = String::from_utf8(resumed.stdout).unwrap();
    assert!(
        stdout.contains("[T-rho8] verified intact, skipping"),
        "{stdout}"
    );
    assert!(
        stdout.contains("[T-rho3] re-verification failed (not previously sealed); recomputing"),
        "{stdout}"
    );
    for d in [fresh, dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
