//! The `reproduce` workload: the real `experiments` binary writes the
//! paper's full artifact set into a fresh directory, then `--resume`
//! re-verifies the sealed directory. The traced part drives
//! `rexec_harness::run_units` in-process over the same experiment list,
//! with timed experiment closures and a timing wrapper over `StdFs`.

use crate::proc::{run_timed, Run};
use crate::report::Report;
use crate::stats::{calm, median, median_at, residual, Steal};
use crate::Ctx;
use rexec_harness::{
    digest_file, run_units, FaultInjector, LifecycleConfig, RetryPolicy, RunManifest, StdFs,
    Storage, UnitDisposition, UnitOutput, UnitPlan, MANIFEST_NAME,
};
use rexec_sweep::experiments::{all_experiment_ids, id_string, run_experiment_seeded};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Units and artifacts of a complete run.
const UNITS: usize = 30;
const ARTIFACTS: usize = 84;
/// Experiments the simulator computes; every other unit is a solver sweep.
const SIM_UNITS: [&str; 3] = ["X-mc", "X-mc-mixed", "X-laws"];
const RESUMED: &str = "verified intact, skipping (sealed by an earlier run)";

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Milliseconds between consecutive stdout lines matching `marker`,
/// keyed by the unit the later line names: one unit's step (fresh: seal
/// of the previous unit plus compute of this one; resume: verification
/// of one unit).
fn steps_ms(run: &Run, marker: impl Fn(&str) -> bool) -> Vec<(String, f64)> {
    let at: Vec<(f64, &str)> = run
        .lines
        .iter()
        .filter(|(_, l)| marker(l))
        .map(|(t, l)| (*t, l.split(']').next().unwrap_or(l)))
        .collect();
    at.windows(2)
        .map(|w| (w[1].1.to_string(), (w[1].0 - w[0].0) * 1e3))
        .collect()
}

/// The median over units of each unit's median step across `runs`:
/// per-unit medians are steady, while a median pooled over all steps
/// jumps between the clusters of cheap and expensive units.
fn median_unit_step<'a>(runs: impl Iterator<Item = &'a Vec<(String, f64)>>) -> f64 {
    let mut by_unit: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (unit, ms) in runs.flatten() {
        by_unit.entry(unit).or_default().push(*ms);
    }
    let per_unit: Vec<f64> = by_unit.values().map(|xs| median(xs)).collect();
    median(&per_unit)
}

fn unit_line(l: &str) -> bool {
    l.starts_with('[') && l.ends_with(" points)")
}

/// The Section 4.2 table at ρ = 3 must still pick σ₁ = σ₂ = 0.4 and
/// Wopt = 2764 (Hera/XScale).
fn table_rho3_pinned(dir: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string(dir.join("report_T-rho3.txt")) else {
        return false;
    };
    text.lines()
        .find(|l| l.contains("<= best"))
        .is_some_and(|l| l.split_whitespace().take(3).eq(["0.4", "0.4", "2764"]))
}

/// Checks a sealed directory; returns the unit count that verified and
/// the `(artifact, digest)` list.
fn check_sealed(dir: &Path) -> (usize, Vec<(String, String)>) {
    let Ok(manifest) = RunManifest::load(&dir.join(MANIFEST_NAME)) else {
        return (0, Vec::new());
    };
    let expected: Vec<String> = all_experiment_ids().into_iter().map(id_string).collect();
    let mut digests = Vec::new();
    let mut good = 0;
    for (unit, id) in manifest.units.iter().zip(&expected) {
        let intact = unit.artifacts.iter().all(|a| {
            digests.push((a.name.clone(), a.digest.clone()));
            digest_file(&dir.join(&a.name)).is_ok_and(|d| d == a.digest)
        });
        good += usize::from(intact && unit.id == *id);
    }
    if !manifest.complete || digests.len() != ARTIFACTS {
        good = 0;
    }
    (good, digests)
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let bin = &ctx.experiments_bin;
    let seed = ctx.seed.to_string();
    let dir = ctx.work.join("out");
    let out = dir.to_str().expect("work paths are UTF-8");
    let quick_dir = ctx.work.join("quick");
    let quick = quick_dir.to_str().expect("work paths are UTF-8");
    let (mut setup_stolen, mut setups) = (Vec::new(), Vec::new());
    let (mut walls, mut resumes, mut rates, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut busy, mut light, mut stolen) = (vec![], vec![], vec![]);
    let mut first: Option<Vec<(String, String)>> = None;
    let started = Instant::now();
    // Each pass takes one sample of every metric: a `--quick` run (the
    // set-up sample), a fresh full run and its `--resume`. The machine's
    // speed drifts over seconds, so the set-up samples are spread over
    // the whole run with the others rather than taken at its start.
    while walls.len() < 3 || started.elapsed().as_secs_f64() < 0.9 * ctx.seconds {
        fresh_dir(&quick_dir)?;
        let setup_started = Steal::now();
        let run = run_timed(bin, &["--out", quick, "--seed", &seed, "--quick"])?;
        setup_stolen.push(setup_started.share_since());
        report.attempt(1);
        report.fail(u64::from(!run.exit.ok), "experiments --quick failed");
        setups.push(run.wall_s);

        fresh_dir(&dir)?;
        let rep_stolen = Steal::now();
        let run = run_timed(bin, &["--out", out, "--seed", &seed])?;
        let (good, digests) = check_sealed(&dir);
        report.attempt(UNITS as u64);
        report.fail(u64::from(!run.exit.ok), "experiments failed");
        report.fail((UNITS - good.min(UNITS)) as u64, "units not sealed intact");
        report.fail(
            u64::from(!table_rho3_pinned(&dir)),
            "T-rho3 no longer pins 0.4/0.4/2764",
        );
        let same = first.get_or_insert_with(|| digests.clone()) == &digests;
        report.fail(u64::from(!same), "artifacts differ between identical runs");
        let resume = run_timed(bin, &["--out", out, "--seed", &seed, "--resume"])?;
        let verified = resume
            .lines
            .iter()
            .filter(|(_, l)| l.ends_with(RESUMED))
            .count();
        report.attempt(UNITS as u64);
        report.fail(u64::from(!resume.exit.ok), "experiments --resume failed");
        report.fail(
            UNITS.saturating_sub(verified) as u64,
            "units not verified on resume",
        );

        walls.push(run.wall_s);
        rates.push(good as f64 / run.wall_s);
        rss.push(run.exit.peak_rss_mb);
        resumes.push(resume.wall_s);
        busy.push(steps_ms(&run, unit_line));
        light.push(steps_ms(&resume, |l| l.ends_with(RESUMED)));
        stolen.push(rep_stolen.share_since());
    }
    let keep = calm(&stolen);
    report.note(format!(
        "reproduce: runs={} seed={} artifacts={} digest of the artifact digests={}",
        walls.len(),
        ctx.seed,
        first.as_ref().map_or(0, Vec::len),
        crate::stats::fnv1a(format!("{first:?}").as_bytes())
    ));
    std::fs::remove_dir_all(&dir)?;
    std::fs::remove_dir_all(&quick_dir)?;

    report.note(format!(
        "calm runs: {} of {} (median stolen CPU share {:.4})",
        keep.len(),
        stolen.len(),
        median(&stolen)
    ));
    report.put("setup_s", median_at(&setups, &calm(&setup_stolen)));
    report.put("qps_max", median_at(&rates, &keep));
    report.put(
        "p50_ms.light",
        median_unit_step(keep.iter().map(|&i| &light[i])),
    );
    report.put(
        "p50_ms.busy",
        median_unit_step(keep.iter().map(|&i| &busy[i])),
    );
    report.put("rss_mb", median(&rss));
    report.put("pipeline_s", median_at(&walls, &keep));
    report.put("resume_s", median_at(&resumes, &keep));
    Ok(())
}

/// `StdFs` with the time spent in each kind of storage operation.
#[derive(Default)]
struct TimedFs {
    seal_s: Cell<f64>,
    sync_s: Cell<f64>,
    syncs: Cell<u64>,
    bytes: Cell<u64>,
}

impl TimedFs {
    fn timed<T>(&self, into: &Cell<f64>, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = op();
        into.set(into.get() + t.elapsed().as_secs_f64());
        r
    }
}

impl Storage for TimedFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(&self.seal_s, || StdFs.create_dir_all(path))
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        self.timed(&self.seal_s, || StdFs.write_file(path, bytes))
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.syncs.set(self.syncs.get() + 1);
        self.timed(&self.sync_s, || StdFs.sync_file(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(&self.seal_s, || StdFs.rename(from, to))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.syncs.set(self.syncs.get() + 1);
        self.timed(&self.sync_s, || StdFs.sync_dir(path))
    }
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdFs.read_file(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(&self.seal_s, || StdFs.remove_file(path))
    }
    fn exists(&self, path: &Path) -> bool {
        StdFs.exists(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        StdFs.list_dir(path)
    }
}

/// The experiment list as lifecycle units, each computation timed into
/// `log` as it runs.
fn units<'a>(seed: u64, log: &'a RefCell<Vec<(String, f64)>>) -> Vec<UnitPlan<'a>> {
    all_experiment_ids()
        .into_iter()
        .map(|id| {
            let key = id_string(id);
            UnitPlan {
                id: key.clone(),
                compute: Box::new(move || {
                    let t = Instant::now();
                    let r = run_experiment_seeded(id, seed)?;
                    let wall_secs = t.elapsed().as_secs_f64();
                    log.borrow_mut().push((key.clone(), wall_secs));
                    let mut artifacts: Vec<(String, Vec<u8>)> = r
                        .datasets
                        .iter()
                        .map(|(name, csv)| (format!("{name}.csv"), csv.as_bytes().to_vec()))
                        .collect();
                    let points = r.point_count() as u64;
                    artifacts.push((format!("report_{key}.txt"), r.report.into_bytes()));
                    Ok(UnitOutput {
                        title: r.title,
                        points,
                        wall_secs,
                        artifacts,
                    })
                }),
            }
        })
        .collect()
}

/// One in-process lifecycle pass over `dir`; returns wall seconds, the
/// unit dispositions and the sealed manifest's unit/artifact counts.
fn lifecycle(
    fs: &dyn Storage,
    dir: &Path,
    seed: u64,
    resume: bool,
    log: &RefCell<Vec<(String, f64)>>,
) -> io::Result<(f64, Vec<UnitDisposition>, usize, usize)> {
    let cfg = LifecycleConfig {
        out_dir: dir.to_path_buf(),
        tool: "experiments".into(),
        tool_version: "0.1.0".into(),
        seed,
        config_digest: rexec_sweep::pipeline::config_digest(),
        resume,
        retry: RetryPolicy::default(),
    };
    let mut plans = units(seed, log);
    let t = Instant::now();
    let outcome = run_units(fs, &cfg, &mut plans, &FaultInjector::none(), &mut |_| {})
        .map_err(|e| io::Error::other(e.to_string()))?;
    let wall = t.elapsed().as_secs_f64();
    let artifacts = outcome
        .manifest
        .units
        .iter()
        .map(|u| u.artifacts.len())
        .sum();
    Ok((
        wall,
        outcome.units.into_iter().map(|(_, d)| d).collect(),
        outcome.manifest.units.len(),
        artifacts,
    ))
}

/// The traced run's reproduce part: untraced and traced in-process
/// passes alternate; each traced fresh pass is followed by a traced
/// resume. Reports medians over the passes.
pub fn traced(ctx: &Ctx, report: &mut Report, budget_s: f64) -> io::Result<()> {
    let dir: PathBuf = ctx.work.join("traced");
    let mut m: [Vec<f64>; 11] = Default::default();
    let started = Instant::now();
    while m[0].len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let scratch = RefCell::new(Vec::new());
        fresh_dir(&dir)?;
        let (plain_wall, ..) = lifecycle(&StdFs, &dir, ctx.seed, false, &scratch)?;

        let log = RefCell::new(Vec::new());
        let fs = TimedFs::default();
        fresh_dir(&dir)?;
        let (wall, _, units, artifacts) = lifecycle(&fs, &dir, ctx.seed, false, &log)?;
        report.attempt(UNITS as u64);
        report.fail(
            u64::from(units != UNITS || artifacts != ARTIFACTS) * UNITS as u64,
            "in-process run did not seal every unit",
        );
        let verify_fs = TimedFs::default();
        let (verify_s, dispositions, ..) = lifecycle(&verify_fs, &dir, ctx.seed, true, &log)?;
        let skipped = dispositions
            .iter()
            .filter(|d| **d == UnitDisposition::SkippedVerified)
            .count();
        report.attempt(UNITS as u64);
        report.fail(
            UNITS.saturating_sub(skipped) as u64,
            "in-process resume recomputed units",
        );

        let log = log.into_inner();
        let time_of = |id: &str| {
            log.iter()
                .filter(|(k, _)| k == id)
                .map(|(_, s)| s)
                .sum::<f64>()
        };
        let total: f64 = log.iter().map(|(_, s)| s).sum();
        let sim: f64 = SIM_UNITS.iter().map(|id| time_of(id)).sum();
        let (seal, sync) = (fs.seal_s.get(), fs.sync_s.get());
        let parts = [
            sim,
            total - sim,
            time_of("X-mc-mixed"),
            time_of("X-laws"),
            seal,
            sync,
            fs.syncs.get() as f64,
            fs.bytes.get() as f64,
            verify_s,
            residual(wall, &[total, seal, sync]),
            100.0 * (wall / plain_wall - 1.0),
        ];
        for (into, v) in m.iter_mut().zip(parts) {
            into.push(v);
        }
    }
    std::fs::remove_dir_all(&dir)?;
    let names = [
        "sim.compute_s",
        "sweep.compute_s",
        "exp.X-mc-mixed_s",
        "exp.X-laws_s",
        "harness.seal_s",
        "harness.sync_s",
        "harness.syncs",
        "harness.bytes_written",
        "harness.verify_s",
        "pipeline.residual_s",
        "trace.overhead_pct.reproduce",
    ];
    for (name, xs) in names.iter().zip(&m) {
        report.put(name, median(xs));
    }
    let negative = m[9].iter().filter(|&&r| r < 0.0).count();
    report.fail(negative as u64, "pipeline.residual_s is negative");
    Ok(())
}
