//! Every way `rexec-plan` rejects an invocation, pinned to the exact
//! first stderr line and exit code: a parse-time domain error, a flag
//! the parser does not know, and a spec the planner cannot resolve.

use std::process::Command;

/// `(arguments, first stderr line, exit code)`.
const CASES: &[(&[&str], &str, i32)] = &[
    (
        &["--lambda", "-1"],
        "error: invalid value `-1` for option --lambda: must be strictly positive",
        2,
    ),
    (
        &["--quantile", "1.5"],
        "error: invalid value `1.5` for option --quantile: must be strictly below 1",
        2,
    ),
    (
        &["--schedule-depth", "9"],
        "error: invalid value `9` for option --schedule-depth: must be between 1 and 4",
        2,
    ),
    (
        &["--law", "pareto"],
        "error: invalid value `pareto` for option --law: \
         must be exponential, weibull or lognormal",
        2,
    ),
    (
        &["--law", "weibull"],
        "error: option --shape requires a value",
        2,
    ),
    (
        &["--shape", "2"],
        "error: invalid value `2` for option --shape: \
         only meaningful with a weibull or lognormal law",
        2,
    ),
    (
        &["--speeds", ""],
        "error: cannot parse value `` for option --speeds",
        2,
    ),
    (&["--rho"], "error: option --rho requires a value", 2),
    (&["--bogus"], "error: unknown option --bogus", 2),
    (&["--platform", "mars"], "error: unknown name: mars", 2),
    (
        &["--lambda", "1e-5"],
        "error: missing parameter: --checkpoint \
         (give --platform/--processor or custom values)",
        2,
    ),
];

#[test]
fn bad_invocations_keep_their_messages_and_exit_codes() {
    for &(args, message, code) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_rexec-plan"))
            .args(args)
            .output()
            .expect("rexec-plan runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(message), "{args:?}");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
