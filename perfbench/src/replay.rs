//! Serial replay of a workload's first iterations through each layer's
//! public functions, on one driving thread: the per-layer measurement
//! and the plain single-worker baseline of the pipelined trainer.
//!
//! It runs the trainer's iteration shape (same dataset, model, fanouts,
//! wire precision and per-iteration seed quotas) but draws its own
//! samples, so its losses track the trainer's without matching them.

use crate::trace::Tracer;
use hyscale_core::sync::Synchronizer;
use hyscale_core::SystemConfig;
use hyscale_gnn::{GnnModel, Gradients};
use hyscale_graph::features::gather_features_numa_into;
use hyscale_graph::Dataset;
use hyscale_sampler::{EpochBatcher, NeighborSampler};
use hyscale_tensor::Matrix;
use std::time::Instant;

/// What one replay produced.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Batch-weighted loss of each iteration.
    pub losses: Vec<f32>,
    /// Wall seconds of each iteration.
    pub iter_s: Vec<f64>,
    /// FNV-1a digest of the final parameters' bit patterns.
    pub digest: u64,
    /// Totals over all iterations.
    pub sampled_edges: u64,
    pub gathered_rows: u64,
    pub wire_bytes: u64,
    pub grad_bytes: u64,
}

/// FNV-1a over the bit patterns of `params` (`GnnModel::flatten_params`).
pub fn param_digest(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        p.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Replay epoch 0 for `quotas.len()` iterations, iteration `i` under the
/// per-trainer seed quotas `quotas[i]`, recording spans into `tracer`.
pub fn replay(
    dataset: &Dataset,
    cfg: &SystemConfig,
    quotas: &[Vec<usize>],
    tracer: &mut Tracer,
) -> ReplayOutcome {
    let train = &cfg.train;
    let dims = train.layer_dims(dataset.spec.f0, dataset.data.num_classes);
    let mut model = GnnModel::new(train.model, &dims, train.seed);
    let mut optimizer = train.optimizer.build(train.learning_rate);
    let sampler = NeighborSampler::new(train.fanouts.clone(), train.seed);
    let batcher = EpochBatcher::new(dataset.splits.train.clone(), train.seed);
    let order = batcher.epoch_order(0);
    let loader = rayon::WorkerGroup::new("loader", rayon::host_threads());
    let numa_domains = cfg.platform.numa_domains();
    let precision = train.transfer_precision;
    let sync = Synchronizer::new();
    let hybrid = cfg.opt.hybrid;
    let mut buffers: Vec<Matrix> = Vec::new();
    let mut out = ReplayOutcome::default();

    for (iter, quotas) in quotas.iter().enumerate() {
        tracer.set_iter(iter);
        let wall = Instant::now();
        let loss = tracer.span("replay.iter", |t| {
            let (_, seed_sets) = t
                .span("sampler.plan", |_| {
                    batcher.plan(&order, iter, quotas).next()
                })
                .expect("replayed iterations lie inside epoch 0");
            // trainer index of each non-idle trainer, in trainer order
            let active: Vec<usize> = (0..seed_sets.len())
                .filter(|&i| !seed_sets[i].is_empty())
                .collect();
            let seed_refs: Vec<&[u32]> = active.iter().map(|&i| seed_sets[i].as_slice()).collect();
            let batches = t.span("sampler.sample_many", |_| {
                sampler.sample_many(&dataset.graph, &seed_refs, iter as u64 * 64)
            });
            buffers.resize_with(batches.len().max(buffers.len()), || Matrix::zeros(0, 0));
            for (mb, x) in batches.iter().zip(buffers.iter_mut()) {
                t.span("graph.gather", |_| {
                    gather_features_numa_into(
                        x,
                        &dataset.data.features,
                        &mb.input_nodes,
                        numa_domains,
                        &loader,
                    )
                });
                out.sampled_edges += mb.total_edges();
                out.gathered_rows += mb.input_nodes.len() as u64;
            }
            // the CPU trainer (index 0 when hybrid) reads host memory;
            // every accelerator batch crosses the wire
            for (&trainer, x) in active.iter().zip(buffers.iter_mut()) {
                if !hybrid || trainer > 0 {
                    t.span("tensor.round_trip", |_| precision.round_trip_in_place(x));
                    out.wire_bytes += precision.wire_bytes(x.rows(), x.cols());
                }
            }
            let mut parts: Vec<Gradients> = Vec::with_capacity(batches.len());
            let mut weighted_loss = 0.0f32;
            let mut seeds = 0usize;
            for ((&trainer, mb), x) in active.iter().zip(&batches).zip(&buffers) {
                let labels: Vec<u32> = seed_sets[trainer]
                    .iter()
                    .map(|&s| dataset.data.labels[s as usize])
                    .collect();
                std::hint::black_box(t.span("gnn.forward", |_| model.forward(mb, x)));
                let step = t.span("gnn.train_step", |_| model.train_step(mb, x, &labels));
                weighted_loss += step.loss * labels.len() as f32;
                seeds += labels.len();
                out.grad_bytes += step.grads.nbytes() as u64;
                parts.push(step.grads);
            }
            let averaged = t.span("sync.all_reduce", |_| sync.all_reduce(&parts));
            t.span("gnn.apply_gradients", |_| {
                model.apply_gradients(&averaged, optimizer.as_mut())
            });
            weighted_loss / seeds as f32
        });
        out.iter_s.push(wall.elapsed().as_secs_f64());
        out.losses.push(loss);
    }
    out.digest = param_digest(&model.flatten_params());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn digest_sees_every_bit() {
        let a = param_digest(&[1.0, 2.0]);
        assert_ne!(a, param_digest(&[2.0, 1.0]));
        assert_ne!(
            a,
            param_digest(&[1.0, f32::from_bits(2.0f32.to_bits() ^ 1)])
        );
        assert_eq!(a, param_digest(&[1.0, 2.0]));
    }

    #[test]
    fn toy_replay_is_deterministic_and_traced() {
        let dataset = Dataset::toy(5);
        let mut cfg = WORKLOADS[0].config(5);
        cfg.train.hidden_dim = 8;
        cfg.train.fanouts = vec![4, 3];
        let quotas = vec![vec![8, 4, 4, 4, 4]; 3];
        let plain = replay(&dataset, &cfg, &quotas, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = replay(&dataset, &cfg, &quotas, &mut tracer);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.losses, traced.losses);
        assert!(plain.losses.iter().all(|l| l.is_finite()));
        let roots = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "replay.iter")
            .count();
        assert_eq!(roots, 3);
        // 5 trainers: 5 gathers, 4 wire round-trips per iteration
        let trips = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "tensor.round_trip")
            .count();
        assert_eq!(trips, 12);
    }
}
