//! Byte-identity of every figure/heatmap/table artifact between serial
//! (`RAYON_NUM_THREADS=1`) and parallel evaluation: the sweep engine
//! parallelizes across grid points and heatmap rows but collects in index
//! order, so rendered CSVs and tables must not change by a single byte
//! when the thread count does.
//!
//! The same holds end to end: a pipeline run, whose units are computed
//! ahead of the thread that seals them on the shared thread budget,
//! seals the same bytes, digests and deterministic metrics at any width.
//!
//! The tests take turns because the scenarios mutate the process-global
//! `RAYON_NUM_THREADS` and metrics registry, which must not race with a
//! concurrently running sibling test (mirrors `tests/obs_determinism.rs`).

use rexec::obs;
use rexec::sweep::experiments::parse_id;
use rexec::sweep::figure::{lambda_hi_for, sweep_figure, SweepParam};
use rexec::sweep::pipeline::{run, PipelineConfig};
use rexec::sweep::series::to_csv;
use rexec::sweep::table_rho::{rho_table, PAPER_RHOS};
use rexec::sweep::{Grid, Heatmap};
use rexec_harness::RunManifest;
use rexec_platforms::{all_configurations, Configuration};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders every sweep artifact under the given thread count.
fn artifacts(threads: &str) -> Vec<(String, String)> {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let mut out: Vec<(String, String)> = vec![];

    // Every figure sweep: 8 configurations × 6 parameters (small grids so
    // the suite stays fast; the chunking logic is identical at any size).
    for cfg in all_configurations() {
        let lambda_hi = lambda_hi_for(&cfg);
        for param in SweepParam::ALL {
            let grid = match param {
                SweepParam::Lambda => Grid::log(1e-6, lambda_hi, 9),
                SweepParam::Rho => Grid::linear(1.0, 3.5, 9),
                _ => Grid::linear(0.0, 5000.0, 9),
            };
            let series = sweep_figure(&cfg, param, &grid);
            out.push((format!("figure {} {param}", cfg.name()), to_csv(&series)));
        }
    }

    // A λ × ρ heatmap.
    let hera = hera_xscale();
    let map = Heatmap::compute(
        &hera,
        &Grid::log(1e-6, 2e-3, 11),
        &Grid::linear(1.1, 8.0, 13),
    );
    out.push(("heatmap Hera/XScale".to_string(), map.to_csv()));
    out.push(("heatmap pair map".to_string(), map.render_pair_map()));

    // The §4.2 tables at every paper bound.
    for rho in PAPER_RHOS {
        out.push((format!("table rho={rho}"), rho_table(&hera, rho).render()));
    }

    out
}

fn hera_xscale() -> Configuration {
    use rexec_platforms::{configuration, ConfigId, PlatformId, ProcessorId};
    configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
}

#[test]
fn sweep_artifacts_are_byte_identical_across_thread_counts() {
    let _serial = serial();
    let serial = artifacts("1");
    assert!(serial.len() > 50, "expected the full artifact set");
    for threads in ["2", "4", "13"] {
        let parallel = artifacts(threads);
        assert_eq!(serial.len(), parallel.len());
        for ((name_s, bytes_s), (name_p, bytes_p)) in serial.iter().zip(&parallel) {
            assert_eq!(name_s, name_p);
            assert_eq!(
                bytes_s, bytes_p,
                "{name_s}: output differs between 1 and {threads} threads"
            );
        }
    }
}

/// What a pipeline run at the given width seals: every artifact's
/// bytes, the manifest's `(unit, artifact, digest)` list, and the
/// deterministic (counters + histograms) part of `metrics.json`.
type Sealed = (
    BTreeMap<String, Vec<u8>>,
    Vec<(String, String, String)>,
    Value,
);

fn pipeline_run(threads: &str) -> Sealed {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    obs::reset();
    let dir = std::env::temp_dir().join(format!(
        "rexec-parallel-determinism-{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let ids = ["T-rho8", "F4", "F8", "X-mc", "X-heatmap", "X-laws"];
    let cfg = PipelineConfig {
        out_dir: dir.clone(),
        ids: ids.iter().map(|id| parse_id(id).unwrap()).collect(),
        ..PipelineConfig::default()
    };
    run(&cfg, &mut std::io::sink()).expect("pipeline run");

    let mut artifacts = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name != "manifest.json" && name != "metrics.json" {
            artifacts.insert(name.clone(), std::fs::read(dir.join(&name)).unwrap());
        }
    }
    let manifest = RunManifest::load(&dir.join("manifest.json")).unwrap();
    assert!(manifest.complete);
    let digests = manifest
        .units
        .iter()
        .flat_map(|u| {
            u.artifacts
                .iter()
                .map(|a| (u.id.clone(), a.name.clone(), a.digest.clone()))
        })
        .collect();
    let metrics = deterministic_metrics(&dir.join("metrics.json"));
    let _ = std::fs::remove_dir_all(&dir);
    (artifacts, digests, metrics)
}

fn deterministic_metrics(path: &Path) -> Value {
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Object(mut metrics)) = doc.get("metrics").cloned() else {
        panic!("metrics.json carries a metrics object");
    };
    metrics.retain(|k, _| k == "counters" || k == "histograms");
    Value::Object(metrics)
}

#[test]
fn pipeline_runs_seal_identical_bytes_across_thread_counts() {
    let _serial = serial();
    let (artifacts, digests, metrics) = pipeline_run("1");
    assert_eq!(digests.len(), artifacts.len(), "one digest per artifact");
    assert!(
        serde_json::to_string(&metrics)
            .unwrap()
            .contains("sweep.experiments_run"),
        "the deterministic metrics are recorded"
    );
    let (artifacts_3, digests_3, metrics_3) = pipeline_run("3");
    assert_eq!(
        artifacts.keys().collect::<Vec<_>>(),
        artifacts_3.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &artifacts {
        assert!(
            bytes == &artifacts_3[name],
            "{name} differs between 1 and 3 threads"
        );
    }
    assert_eq!(digests, digests_3, "manifest digests differ");
    assert_eq!(metrics, metrics_3, "counters or histograms differ");
}
