//! # rexec-serve
//!
//! A long-running planning service over the paper's BiCrit solver: the
//! "heavy traffic from millions of users" deployment of the library.
//! Clients send plan queries (platform parameters, λ, ρ, speed set) as
//! newline-delimited JSON over TCP and receive the energy-optimal
//! two-speed plan (`Wopt`, `σ₁*`, `σ₂*`, `E/W`, `T/W`) per line, in
//! request order.
//!
//! The pipeline is **resolve → quantize → cache → batch-solve**:
//!
//! - [`quant`]: parameters are snapped to a coarse float grid *before*
//!   solving, so the cache key is exactly the solver input and a cache
//!   hit is bit-identical to a fresh solve by construction.
//! - [`cache`]: a sharded, FIFO-bounded plan cache keyed by the
//!   platform-table FNV-1a digest family (same hash as
//!   `rexec-harness`) plus quantized ρ.
//! - [`service`]: the transport-free core — solver cache (one candidate
//!   table per platform) and the batched `solve_many_into` path.
//! - [`wire`]: the NDJSON protocol with typed `{"err": ...}` responses
//!   that reuse the CLI's domain validator ([`rexec_cli::spec`]).
//! - [`server`]: the daemon — accept loop, one batch per socket read
//!   through a bounded queue to a worker pool, per-connection writers
//!   that keep request order by waiting on each batch's ticket in turn,
//!   graceful drain on shutdown, rexec-obs metrics throughout.
//!
//! Binary: `rexec-serve` (the daemon). Its end-to-end benchmark is
//! `perfbench/` at the repository root.

#![warn(missing_docs)]

pub mod cache;
pub mod quant;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use quant::{quantize, TableParams};
pub use server::{ServeOptions, ServeReport, Server};
pub use service::{PlanAnswer, PlanService, Query, ServiceConfig};
pub use wire::{parse_request, render_answer, render_error, WireError};

// Re-export the shared validator so service embedders don't need a
// direct rexec-cli dependency for the request type.
pub use rexec_cli::spec::{PlanSpec, SpecError};
