//! # rexec-sweep
//!
//! Experiment harness regenerating **every table and figure** of the
//! paper's evaluation section (§4), the §5 extension experiments, and the
//! validation/ablation studies documented in DESIGN.md:
//!
//! * [`table_rho`] — the four §4.2 tables (Hera/XScale at ρ = 8, 3,
//!   1.775, 1.4);
//! * [`figure`] — the six parameter sweeps (C, V, λ, ρ, Pidle, Pio) of
//!   Figures 2–7 (Atlas/Crusoe) and Figures 8–14 (the other seven
//!   configurations);
//! * [`experiments`] — the experiment registry: one entry per paper
//!   artifact plus Theorem 2 scaling, the §5.2 validity window, the Monte
//!   Carlo validation and the exact-vs-first-order ablation;
//! * [`pipeline`] — the crash-tolerant runner behind the `experiments`
//!   binary: every unit is sealed in a verified-checkpoint run manifest
//!   (atomic artifact writes + content digests), `--resume` re-verifies
//!   and skips intact units, and `--fault-plan` injects deterministic
//!   write failures, corruptions and kills;
//! * [`grid`], [`series`], [`render`] — parameter grids, data series with
//!   CSV export, and ASCII rendering.
//!
//! The `experiments` binary (`cargo run -p rexec-sweep --bin experiments`)
//! prints any or all of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod experiments;
pub mod figure;
pub mod grid;
pub mod heatmap;
pub mod pipeline;
pub mod render;
pub mod series;
pub mod table_rho;

pub use experiments::{ExperimentId, ExperimentResult};
pub use figure::{sweep_figure, FigurePoint, FigureSeries, SolutionPoint, SweepParam};
pub use grid::Grid;
pub use heatmap::{Heatmap, HeatmapCell};
pub use pipeline::{PipelineConfig, PipelineSummary, UnitOutcome};
pub use table_rho::{rho_table, RhoTable};
