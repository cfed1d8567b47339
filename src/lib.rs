//! # HyScale-GNN
//!
//! A Rust reproduction of *"HyScale-GNN: A Scalable Hybrid GNN Training
//! System on Single-Node Heterogeneous Architecture"* (Lin & Prasanna,
//! IPDPS 2023, arXiv:2303.00158).
//!
//! This façade crate re-exports the workspace's public API:
//!
//! * [`tensor`] — dense linear algebra (GEMM, losses, optimizers).
//! * [`graph`] — CSR graphs, synthetic generators, Table III datasets.
//! * [`sampler`] — neighbor / random-walk mini-batch samplers.
//! * [`gnn`] — GCN and GraphSAGE with hand-derived backward passes.
//! * [`device`] — simulated heterogeneous devices (Table II specs, PCIe,
//!   FPGA kernel + resource models, GPU cache model).
//! * [`core`] — the HyScale-GNN system: gradient all-reduce, two-stage
//!   feature prefetching, DRM engine, performance model, hybrid trainer.
//! * [`baselines`] — PyG multi-GPU, PaGraph, P3, DistDGLv2 system models.
//!
//! ## Quickstart
//!
//! ```
//! use hyscale::core::{AcceleratorKind, HybridTrainer, SystemConfig};
//! use hyscale::gnn::GnnKind;
//! use hyscale::graph::Dataset;
//!
//! // A small learnable dataset and a 2-FPGA hybrid system.
//! let dataset = Dataset::toy(42);
//! let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
//! cfg.platform.num_accelerators = 2;
//! cfg.train.batch_per_trainer = 64;
//! cfg.train.fanouts = vec![10, 5];
//! cfg.train.max_functional_iters = Some(2);
//!
//! let mut trainer = HybridTrainer::new(cfg, dataset);
//! let report = trainer.train_epoch();
//! assert!(report.loss.is_finite());
//! ```

#![warn(missing_docs)]

pub use hyscale_baselines as baselines;
pub use hyscale_core as core;
pub use hyscale_device as device;
pub use hyscale_gnn as gnn;
pub use hyscale_graph as graph;
pub use hyscale_sampler as sampler;
pub use hyscale_tensor as tensor;
