//! # hyscale-core
//!
//! The HyScale-GNN training system (the paper's primary contribution):
//!
//! * [`sync`] — the Synchronizer: size-weighted gradient all-reduce
//!   (gather → average → broadcast, paper §III-A).
//! * [`drm`] — the Dynamic Resource Management engine (paper
//!   Algorithm 1): a bottleneck-guided optimizer with `balance_work`
//!   and `balance_thread` moves.
//! * [`perf_model`] — the design-time performance model (paper §V,
//!   Eq. 5–13) used for the initial task mapping and the scalability
//!   study.
//! * [`stages`] — the pipeline-stage vocabulary plus
//!   [`StageWorkers`]: the live, resizable worker
//!   pools (sampler / loader / trainer) through which DRM
//!   `balance_thread` decisions steer the *real* pipeline.
//! * [`prefetch`] — Task-level Feature Prefetching as a *real*
//!   pipeline (paper §IV-B): a background producer samples (under the
//!   sampler pool), NUMA-shards feature gathers across socket domains
//!   and fans per-trainer matrices out over loader lanes, and a
//!   dedicated transfer stage precision-round-trips iterations through
//!   per-accelerator [`prefetch::StagingRing`]s into a bounded queue
//!   overlapped with GNN propagation — double-buffered wire transfer,
//!   pool-recycled buffers, a producer restart on every quota change,
//!   bitwise-identical to serial execution.
//! * [`executor`] — the hybrid trainer: 4-stage pipeline (Sampling →
//!   Feature Loading → Data Transfer → GNN Propagation) with Two-stage
//!   Feature Prefetching (paper §IV-B), functional training plus
//!   simulated device timing and measured per-stage wall-clock.
//!
//! The [`executor::HybridTrainer`] is the public entry point; see the
//! workspace `examples/` for end-to-end usage and the repository's
//! `ARCHITECTURE.md` for the pipeline and DRM event-flow diagrams.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod drm;
pub mod executor;
pub mod metrics;
pub mod perf_model;
pub mod pipeline;
pub mod prefetch;
pub mod report;
pub mod stages;
pub mod sync;

pub use config::{AcceleratorKind, OptFlags, PlatformConfig, SystemConfig, TrainConfig};
pub use drm::{DrmEngine, ScriptedDrm, ScriptedDrmEvent, ThreadAlloc, WorkloadSplit};
pub use executor::HybridTrainer;
pub use perf_model::PerfModel;
pub use prefetch::{
    IterationFeed, MatrixPool, PrepareCtx, PreparedIteration, SlotToken, StagingRing, StagingRings,
};
pub use report::{EpochReport, IterationReport, WallStageTimes};
pub use stages::{StageTimes, StageWorkers};
