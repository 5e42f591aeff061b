//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes, up front and seeded, exactly which faults a
//! run will suffer: the Nth filesystem write attempt fails with a
//! transient I/O error, the Nth sealed artifact is silently corrupted on
//! disk, and/or the run is killed after unit K completes. The plan is
//! parsed from a `--fault-plan` spec so kill/corrupt/resume paths are
//! exercisable from tests and CI without OS-level tricks.

use crate::error::HarnessError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declarative, seeded fault schedule (all counters 1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Fail the Nth write attempt with a transient I/O error.
    pub fail_write: Option<u64>,
    /// Corrupt the Nth artifact: the manifest seals the intended bytes,
    /// but the file lands with one seeded byte flipped — a silent error.
    pub corrupt_artifact: Option<u64>,
    /// Abort the run (exit code 137) right after unit K is sealed.
    pub kill_after_unit: Option<u64>,
    /// Seed steering which byte a corruption flips.
    pub seed: u64,
}

impl FaultPlan {
    /// Parses a comma-separated spec, e.g.
    /// `fail-write=3,corrupt-artifact=2,kill-after-unit=5,seed=42`.
    /// Unknown keys are rejected, not ignored — a typo like
    /// `kil-after-unit=2` must fail loudly, or the test that relies on
    /// it silently tests nothing. Duplicate keys are rejected for the
    /// same reason: last-one-wins hides a contradictory plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, HarnessError> {
        let mut plan = FaultPlan::default();
        let bad = |reason: String| HarnessError::InvalidArg {
            what: "--fault-plan".into(),
            reason,
        };
        let mut seen: Vec<&str> = vec![];
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("`{part}` is not key=value")))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("`{value}` is not an unsigned integer")))?;
            let key = key.trim();
            match key {
                "fail-write" => plan.fail_write = Some(n),
                "corrupt-artifact" => plan.corrupt_artifact = Some(n),
                "kill-after-unit" => plan.kill_after_unit = Some(n),
                "seed" => plan.seed = n,
                other => {
                    return Err(bad(format!(
                        "unknown key `{other}` (expected fail-write, corrupt-artifact, \
                         kill-after-unit or seed)"
                    )))
                }
            }
            if let Some(&dup) = seen.iter().find(|&&s| s == key) {
                return Err(bad(format!("duplicate key `{dup}`")));
            }
            seen.push(key);
        }
        for (key, n) in [
            ("fail-write", plan.fail_write),
            ("corrupt-artifact", plan.corrupt_artifact),
            ("kill-after-unit", plan.kill_after_unit),
        ] {
            if n == Some(0) {
                return Err(bad(format!("{key} is 1-based; 0 never fires")));
            }
        }
        Ok(plan)
    }

    /// A live injector tracking this plan's counters.
    pub fn injector(self) -> FaultInjector {
        FaultInjector {
            plan: self,
            writes: AtomicU64::new(0),
            artifacts: AtomicU64::new(0),
        }
    }
}

/// Process-wide counters deciding when each planned fault fires.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    writes: AtomicU64,
    artifacts: AtomicU64,
}

impl FaultInjector {
    /// An injector that never fires (the production default).
    pub fn none() -> Self {
        FaultPlan::default().injector()
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Called before every write attempt; returns the injected error when
    /// this attempt is the planned failure.
    pub fn on_write_attempt(&self) -> std::io::Result<()> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.fail_write == Some(n) {
            rexec_obs::counter!("harness.injected_write_failures").incr();
            return Err(std::io::Error::other(format!(
                "injected fault: write attempt {n} fails"
            )));
        }
        Ok(())
    }

    /// Called with each artifact's sealed bytes; returns them with one
    /// seeded byte flipped when this artifact is the planned corruption,
    /// and `None` (write the bytes as they are) otherwise.
    pub fn corrupt_artifact(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let n = self.artifacts.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.corrupt_artifact != Some(n) || bytes.is_empty() {
            return None;
        }
        let mut corrupt = bytes.to_vec();
        let idx = (self.plan.seed as usize) % bytes.len();
        // XOR with a fixed nonzero mask so the flip always changes the byte.
        corrupt[idx] ^= 0xA5;
        rexec_obs::counter!("harness.injected_corruptions").incr();
        Some(corrupt)
    }

    /// Whether the plan kills the run after the given completed unit
    /// (1-based).
    pub fn should_kill_after_unit(&self, completed_units: u64) -> bool {
        self.plan.kill_after_unit == Some(completed_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p =
            FaultPlan::parse("fail-write=3,corrupt-artifact=2,kill-after-unit=5,seed=42").unwrap();
        assert_eq!(p.fail_write, Some(3));
        assert_eq!(p.corrupt_artifact, Some(2));
        assert_eq!(p.kill_after_unit, Some(5));
        assert_eq!(p.seed, 42);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("fail-write").is_err());
        assert!(FaultPlan::parse("fail-write=x").is_err());
        assert!(FaultPlan::parse("explode=1").is_err());
        assert!(FaultPlan::parse("kill-after-unit=0").is_err());
    }

    #[test]
    fn a_typoed_key_is_an_error_not_a_noop() {
        // `kil-after-unit=2` must not parse into an empty plan that
        // silently never kills — the CI smoke test would then "pass"
        // without exercising the crash path at all.
        let err = FaultPlan::parse("kil-after-unit=2").unwrap_err();
        assert!(matches!(
            &err,
            HarnessError::InvalidArg { what, reason }
                if what == "--fault-plan" && reason.contains("kil-after-unit")
        ));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        for spec in [
            "fail-write=1,fail-write=2",
            "corrupt-artifact=1,corrupt-artifact=1",
            "kill-after-unit=1,seed=2,kill-after-unit=3",
            "seed=1,seed=1",
            "fail-write=1, fail-write =2", // whitespace does not dodge it
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                matches!(&err, HarnessError::InvalidArg { reason, .. }
                    if reason.contains("duplicate key")),
                "spec `{spec}` gave {err}"
            );
        }
    }

    #[test]
    fn write_failure_fires_exactly_once_on_the_nth_attempt() {
        let inj = FaultPlan::parse("fail-write=2").unwrap().injector();
        assert!(inj.on_write_attempt().is_ok());
        assert!(inj.on_write_attempt().is_err());
        assert!(inj.on_write_attempt().is_ok());
        assert!(inj.on_write_attempt().is_ok());
    }

    #[test]
    fn corruption_is_seeded_and_hits_the_nth_artifact() {
        let inj = FaultPlan::parse("corrupt-artifact=2,seed=3")
            .unwrap()
            .injector();
        assert_eq!(inj.corrupt_artifact(b"abcdef"), None);
        let second = inj.corrupt_artifact(b"abcdef").expect("the 2nd artifact");
        assert_ne!(second, b"abcdef");
        // seed = 3 → byte index 3 flipped, rest untouched.
        assert_eq!(&second[..3], b"abc");
        assert_eq!(&second[4..], b"ef");
    }

    #[test]
    fn kill_fires_only_at_the_planned_unit() {
        let inj = FaultPlan::parse("kill-after-unit=2").unwrap().injector();
        assert!(!inj.should_kill_after_unit(1));
        assert!(inj.should_kill_after_unit(2));
        assert!(!inj.should_kill_after_unit(3));
    }
}
