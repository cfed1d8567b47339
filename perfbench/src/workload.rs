//! The benchmark's workloads: one dataset, model and mapping each, every
//! input derived from the workload seed.

use hyscale_core::config::AcceleratorKind;
use hyscale_core::{OptFlags, SystemConfig};
use hyscale_gnn::GnnKind;
use hyscale_graph::dataset::{DatasetSpec, OGBN_PAPERS100M, OGBN_PRODUCTS};
use hyscale_graph::features::Splits;
use hyscale_graph::Dataset;
use hyscale_tensor::Precision;

/// Share of the materialized vertices used as training seeds. The spec's
/// own split (~8% on products) would leave a 1/50-scale epoch only two
/// iterations long.
const TRAIN_FRAC: f64 = 0.6;
const VAL_FRAC: f64 = 0.2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: DatasetSpec,
    /// Down-scale factor handed to `DatasetSpec::materialize`.
    pub scale: u64,
    pub model: GnnKind,
    pub hidden: usize,
    pub fanouts: [usize; 2],
    pub batch_per_trainer: usize,
    pub drm: bool,
    /// Iterations of epoch 0 the serial replay runs.
    pub replay_iters: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // Compute-bound: GNN propagation is nearly all of a pipelined
    // iteration, so `gnn`/`tensor` changes show and producer changes hide.
    Workload {
        name: "sage-products",
        spec: OGBN_PRODUCTS,
        scale: 50,
        model: GnnKind::GraphSage,
        hidden: 32,
        fanouts: [25, 10],
        batch_per_trainer: 128,
        drm: false,
        replay_iters: 8,
    },
    // Least compute per gathered byte and the shortest iterations: the
    // producer layers and the per-iteration handoff are visible.
    Workload {
        name: "gcn-papers",
        spec: OGBN_PAPERS100M,
        scale: 1000,
        model: GnnKind::Gcn,
        hidden: 16,
        fanouts: [10, 5],
        batch_per_trainer: 256,
        drm: false,
        replay_iters: 16,
    },
    // sage-products under the live DRM: the prefetch producer is driven
    // through invalidate-and-restart while the mapping settles.
    Workload {
        name: "drm-products",
        spec: OGBN_PRODUCTS,
        scale: 50,
        model: GnnKind::GraphSage,
        hidden: 32,
        fanouts: [25, 10],
        batch_per_trainer: 128,
        drm: true,
        replay_iters: 8,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Dataset build: synthetic graph, features and splits from `seed`.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let mut dataset = self.spec.materialize(self.scale, seed);
        dataset.splits = Splits::random(
            dataset.graph.num_vertices(),
            TRAIN_FRAC,
            VAL_FRAC,
            seed.wrapping_add(1),
        );
        dataset
    }

    /// Trainer configuration: CPU + 4× U250, int8 wire precision,
    /// prefetch depth 2, staging ring 2, full epochs.
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), self.model);
        cfg.opt = OptFlags {
            hybrid: true,
            drm: self.drm,
            tfp: true,
        };
        cfg.train.batch_per_trainer = self.batch_per_trainer;
        cfg.train.hidden_dim = self.hidden;
        cfg.train.fanouts = self.fanouts.to_vec();
        cfg.train.seed = seed;
        cfg.train.max_functional_iters = None;
        cfg.train.transfer_precision = Precision::Int8;
        cfg.train.prefetch_depth = 2;
        cfg.train.staging_ring_depth = 2;
        cfg
    }
}
