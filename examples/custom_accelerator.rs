//! The trainer is accelerator-agnostic (paper §III-C): plug in a custom
//! AI-accelerator timing model and the whole system — all-reduce, DRM,
//! prefetching, performance model — works unchanged.
//!
//! This example defines a fictional "TPU-like" systolic accelerator and
//! trains with it.
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```

use hyscale::core::{AcceleratorKind, HybridTrainer, SystemConfig};
use hyscale::device::spec::{DeviceKind, DeviceSpec};
use hyscale::device::timing::{LayerWork, TrainerTiming};
use hyscale::gnn::GnnKind;
use hyscale::graph::Dataset;
use std::sync::Arc;

/// A fictional AI accelerator: big systolic array, HBM, no host stack
/// overhead, aggregation and update fully pipelined.
#[derive(Debug)]
struct TpuLike {
    spec: DeviceSpec,
}

impl TpuLike {
    fn new() -> Self {
        Self {
            spec: DeviceSpec {
                name: "TPU-like AI accelerator",
                kind: DeviceKind::Custom,
                peak_tflops: 90.0,
                mem_bandwidth_gbs: 1200.0,
                mem_capacity_gb: 32.0,
                freq_ghz: 1.0,
                onchip_mb: 128.0,
                cores: 65536,
            },
        }
    }
}

impl TrainerTiming for TpuLike {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn aggregate_time(&self, w: &LayerWork) -> f64 {
        // sparse gather at 40% of HBM bandwidth
        (w.edges as f64 * w.f_in as f64 * 4.0) / (self.spec.mem_bandwidth_gbs * 1e9 * 0.4)
    }

    fn update_time(&self, w: &LayerWork) -> f64 {
        (w.dst_nodes as f64 * w.f_in as f64 * w.f_out as f64 * 2.0)
            / (self.spec.peak_tflops * 1e12 * 0.6)
    }

    fn pipelined(&self) -> bool {
        true
    }

    fn launch_overhead(&self) -> f64 {
        50e-6 // single fused graph execution
    }

    fn sampling_eps(&self) -> Option<f64> {
        None // this accelerator cannot sample; the CPU does it all
    }
}

fn main() {
    let dataset = Dataset::toy(9);
    let test = dataset.splits.test.clone();

    let mut cfg = SystemConfig::paper_default(
        AcceleratorKind::Custom(Arc::new(TpuLike::new())),
        GnnKind::Gcn,
    );
    cfg.platform.num_accelerators = 2;
    cfg.train.batch_per_trainer = 128;
    cfg.train.fanouts = vec![10, 5];
    cfg.train.hidden_dim = 32;
    cfg.train.learning_rate = 0.3;
    cfg.train.max_functional_iters = Some(4);

    let mut trainer = HybridTrainer::new(cfg, dataset);
    println!("training GCN on CPU + 2x custom AI accelerator:");
    for r in trainer.train_epochs(6) {
        println!("{r}");
    }
    println!("\ntest accuracy: {:.3}", trainer.evaluate(&test));
    println!("(no code outside the timing model knew the device type — §III-C's claim)");
}
