//! GCN and GraphSAGE models with hand-derived backward passes.
//!
//! Layer `l` (block `l`, input-most first) computes, for GCN (Eq. 3):
//!
//! ```text
//! agg = C_gcn · H_src            (num_dst × f_in)
//! z   = agg · W + b              (num_dst × f_out)
//! h   = ReLU(z)                  (hidden layers; the last layer emits z)
//! ```
//!
//! and for GraphSAGE (Eq. 4):
//!
//! ```text
//! cat = [H_src[..num_dst] ‖ mean(H_src)]   (num_dst × 2·f_in)
//! z   = cat · W + b
//! h   = ReLU(z)
//! ```
//!
//! Backward walks the same graph in reverse (paper Fig. 1: "Backward
//! propagation performs the same set of GNN operations ... in a reverse
//! direction"), producing `∂W`/`∂b` per layer.

use crate::aggregate::{
    aggregate_gcn, aggregate_gcn_backward, aggregate_mean, aggregate_mean_backward, GcnCoefficients,
};
use crate::grads::Gradients;
use hyscale_sampler::{Block, MiniBatch};
use hyscale_tensor::ops::{add_bias_inplace, bias_grad, relu_backward_inplace, relu_inplace};
use hyscale_tensor::optim::Optimizer;
use hyscale_tensor::{gemm_nn, gemm_nt, gemm_tn, softmax_cross_entropy, xavier_uniform, Matrix};

/// Which aggregate-update model to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph Convolutional Network (paper Eq. 3).
    Gcn,
    /// GraphSAGE with mean aggregator and concatenation (paper Eq. 4).
    GraphSage,
    /// Graph Isomorphism Network (GIN-0): unnormalised sum aggregation
    /// with self-loop. Not in the paper's evaluation, but the system
    /// claims to train "various GNN models" under the aggregate-update
    /// paradigm (§II-A) — GIN exercises that claim.
    Gin,
}

impl GnnKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Gcn => "GCN",
            GnnKind::GraphSage => "GraphSAGE",
            GnnKind::Gin => "GIN",
        }
    }

    /// Width multiplier of the update GEMM input (SAGE concatenates
    /// self + neighbour features).
    pub fn update_width_factor(self) -> usize {
        match self {
            GnnKind::Gcn | GnnKind::Gin => 1,
            GnnKind::GraphSage => 2,
        }
    }
}

/// One GNN layer's parameters.
#[derive(Clone)]
struct LayerParams {
    w: Matrix,
    b: Vec<f32>,
}

/// A multi-layer GNN model (replicated per trainer under synchronous SGD).
#[derive(Clone)]
pub struct GnnModel {
    kind: GnnKind,
    dims: Vec<usize>,
    layers: Vec<LayerParams>,
}

/// Output of a single forward+backward training step.
pub struct StepOutput {
    /// Mean cross-entropy loss over this trainer's seeds.
    pub loss: f32,
    /// Training accuracy over this trainer's seeds.
    pub accuracy: f32,
    /// Parameter gradients (mean over this trainer's batch).
    pub grads: Gradients,
}

impl GnnModel {
    /// Build a model with layer dimensions `dims = [f0, f1, ..., fL]`
    /// (paper Table III rows give `[f0, 256, f2]`), Xavier-initialised
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// If fewer than two dims are given.
    pub fn new(kind: GnnKind, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                let fan_in = w[0] * kind.update_width_factor();
                LayerParams {
                    w: xavier_uniform(fan_in, w[1], seed.wrapping_add(l as u64 * 7919)),
                    b: vec![0.0; w[1]],
                }
            })
            .collect();
        Self {
            kind,
            dims: dims.to_vec(),
            layers,
        }
    }

    /// Model kind.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Layer dimensions `[f0 .. fL]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Weight shapes, for building zero gradients.
    pub fn weight_shapes(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|l| l.w.shape()).collect()
    }

    /// Total scalar parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Model size in bytes — Eq. 13's all-reduce payload.
    pub fn nbytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Forward pass only: logits for the seed vertices.
    ///
    /// `x` holds the gathered input features (`mb.input_nodes` rows).
    pub fn forward(&self, mb: &MiniBatch, x: &Matrix) -> Matrix {
        self.forward_cached(mb, x).logits
    }

    fn forward_cached(&self, mb: &MiniBatch, x: &Matrix) -> ForwardCache {
        assert_eq!(
            mb.num_layers(),
            self.layers.len(),
            "mini-batch layer count mismatch"
        );
        assert_eq!(
            x.rows(),
            mb.input_nodes.len(),
            "feature rows must match input nodes"
        );
        assert_eq!(x.cols(), self.dims[0], "feature width must match f0");

        let mut h = x.clone();
        let mut cache = ForwardCache {
            per_layer: Vec::with_capacity(self.layers.len()),
            logits: Matrix::zeros(0, 0),
        };
        for (l, (block, params)) in mb.blocks.iter().zip(&self.layers).enumerate() {
            let last = l + 1 == self.layers.len();
            let (update_in, gcn_coef) = self.aggregate(block, &h, None);
            let mut z = gemm_nn(&update_in, &params.w);
            add_bias_inplace(&mut z, &params.b);
            let out = if last {
                z.clone()
            } else {
                let mut a = z.clone();
                relu_inplace(&mut a);
                a
            };
            cache.per_layer.push(LayerCache {
                h_src: h,
                update_in,
                z,
                gcn_coef,
            });
            h = out;
        }
        cache.logits = h;
        cache
    }

    /// One training step: forward, loss, backward. Returns loss/accuracy
    /// and gradients (mean over this batch); does *not* update weights —
    /// the synchronizer averages first (paper Fig. 4 step "GNN
    /// Propagation" → "Synchronizer").
    pub fn train_step(&self, mb: &MiniBatch, x: &Matrix, labels: &[u32]) -> StepOutput {
        let cache = self.forward_cached(mb, x);
        let loss_out = softmax_cross_entropy(&cache.logits, labels);
        let acc = hyscale_tensor::accuracy(&cache.logits, labels);

        let mut d_weights: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut d_biases: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        let mut d_h = loss_out.grad; // ∂L/∂logits
        for (l, (block, params)) in mb.blocks.iter().zip(&self.layers).enumerate().rev() {
            let lc = &cache.per_layer[l];
            let last = l + 1 == self.layers.len();
            let mut d_z = d_h;
            if !last {
                relu_backward_inplace(&mut d_z, &lc.z);
            }
            // update backward
            let d_w = gemm_tn(&lc.update_in, &d_z);
            let d_b = bias_grad(&d_z);
            let d_update_in = gemm_nt(&d_z, &params.w);
            // aggregate backward
            let d_src = match self.kind {
                GnnKind::Gcn | GnnKind::Gin => {
                    let coef = lc
                        .gcn_coef
                        .as_ref()
                        .expect("aggregation cache has coefficients");
                    aggregate_gcn_backward(block, &d_update_in, coef)
                }
                GnnKind::GraphSage => {
                    let f_in = lc.h_src.cols();
                    let (d_self, d_mean) = d_update_in.hsplit(f_in);
                    let mut d_src = aggregate_mean_backward(block, &d_mean);
                    for d in 0..block.num_dst {
                        let row = d_self.row(d);
                        let dst = d_src.row_mut(d);
                        for (o, v) in dst.iter_mut().zip(row) {
                            *o += *v;
                        }
                    }
                    d_src
                }
            };
            d_weights.push(d_w);
            d_biases.push(d_b);
            d_h = d_src;
        }
        d_weights.reverse();
        d_biases.reverse();

        StepOutput {
            loss: loss_out.loss,
            accuracy: acc,
            grads: Gradients {
                d_weights,
                d_biases,
                batch_size: mb.seeds.len(),
            },
        }
    }

    /// Apply (already averaged) gradients with the given optimizer.
    /// All replicas call this with identical inputs, keeping weights in
    /// lock-step.
    pub fn apply_gradients(&mut self, grads: &Gradients, opt: &mut dyn Optimizer) {
        assert_eq!(
            grads.num_layers(),
            self.layers.len(),
            "gradient layer mismatch"
        );
        for (l, (params, (dw, db))) in self
            .layers
            .iter_mut()
            .zip(grads.d_weights.iter().zip(&grads.d_biases))
            .enumerate()
        {
            opt.step(2 * l, &mut params.w, dw);
            let mut b = Matrix::from_vec(1, params.b.len(), params.b.clone());
            let db_m = Matrix::from_vec(1, db.len(), db.clone());
            opt.step(2 * l + 1, &mut b, &db_m);
            params.b.copy_from_slice(b.as_slice());
        }
    }

    /// Aggregate stage of one layer: the update GEMM's input (aggregated
    /// for GCN/GIN, `[self ‖ mean]` for SAGE) and the coefficients used
    /// (`None` for SAGE), which the backward pass reuses. `gcn_coef`
    /// overrides GCN's in-block normalisation; GIN and SAGE ignore it.
    /// Shared by training and the exact-inference path.
    pub(crate) fn aggregate(
        &self,
        block: &Block,
        h_src: &Matrix,
        gcn_coef: Option<GcnCoefficients>,
    ) -> (Matrix, Option<GcnCoefficients>) {
        let coef = match self.kind {
            GnnKind::Gcn => gcn_coef.unwrap_or_else(|| GcnCoefficients::from_block(block)),
            GnnKind::Gin => GcnCoefficients::gin(block, 0.0),
            GnnKind::GraphSage => {
                let mean = aggregate_mean(block, h_src);
                // dst features are the src prefix
                let mut self_feats = Matrix::zeros(block.num_dst, h_src.cols());
                for d in 0..block.num_dst {
                    self_feats.row_mut(d).copy_from_slice(h_src.row(d));
                }
                return (self_feats.hconcat(&mean), None);
            }
        };
        (aggregate_gcn(block, h_src, &coef), Some(coef))
    }

    /// Apply layer `layer`'s update stage (`z = in·W + b`, optional
    /// ReLU) to an already-aggregated input. Shared by training and the
    /// exact-inference path.
    pub fn apply_update(&self, update_in: &Matrix, layer: usize, relu: bool) -> Matrix {
        let params = &self.layers[layer];
        let mut z = gemm_nn(update_in, &params.w);
        add_bias_inplace(&mut z, &params.b);
        if relu {
            relu_inplace(&mut z);
        }
        z
    }

    /// Replace one layer's parameters (checkpoint loading, grad-check).
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn set_layer_params(&mut self, layer: usize, w: Matrix, b: Vec<f32>) {
        let params = &mut self.layers[layer];
        assert_eq!(params.w.shape(), w.shape(), "weight shape mismatch");
        assert_eq!(params.b.len(), b.len(), "bias length mismatch");
        params.w = w;
        params.b = b;
    }

    /// Flatten all parameters (weights then bias per layer) for
    /// replica-consistency checks.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
        out
    }
}

struct LayerCache {
    /// Input features of the layer (`H_src`).
    h_src: Matrix,
    /// The GEMM input (aggregated for GCN, concatenated for SAGE).
    update_in: Matrix,
    /// Pre-activation output.
    z: Matrix,
    /// GCN coefficients (None for SAGE).
    gcn_coef: Option<GcnCoefficients>,
}

struct ForwardCache {
    per_layer: Vec<LayerCache>,
    logits: Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_graph::features::gather_features;
    use hyscale_graph::Dataset;
    use hyscale_sampler::NeighborSampler;
    use hyscale_tensor::Sgd;

    fn setup(kind: GnnKind) -> (Dataset, NeighborSampler, GnnModel) {
        let ds = Dataset::toy(7);
        let sampler = NeighborSampler::new(vec![8, 5], 3);
        let model = GnnModel::new(kind, &[16, 32, 4], 11);
        (ds, sampler, model)
    }

    fn labels_of(ds: &Dataset, seeds: &[u32]) -> Vec<u32> {
        seeds.iter().map(|&s| ds.data.labels[s as usize]).collect()
    }

    #[test]
    fn forward_shapes() {
        for kind in [GnnKind::Gcn, GnnKind::GraphSage] {
            let (ds, sampler, model) = setup(kind);
            let seeds: Vec<u32> = ds.splits.train[..32].to_vec();
            let mb = sampler.sample(&ds.graph, &seeds, 0);
            let x = gather_features(&ds.data.features, &mb.input_nodes);
            let logits = model.forward(&mb, &x);
            assert_eq!(logits.shape(), (32, 4));
            assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn train_step_reduces_loss_over_epochs() {
        for kind in [GnnKind::Gcn, GnnKind::GraphSage] {
            let (ds, sampler, mut model) = setup(kind);
            let mut opt = Sgd::new(0.3);
            let mut first = None;
            let mut last = 0.0;
            for step in 0..30 {
                let start = (step * 32) % 512;
                let seeds: Vec<u32> = ds.splits.train[start..start + 32].to_vec();
                let mb = sampler.sample(&ds.graph, &seeds, step as u64);
                let x = gather_features(&ds.data.features, &mb.input_nodes);
                let out = model.train_step(&mb, &x, &labels_of(&ds, &seeds));
                model.apply_gradients(&out.grads, &mut opt);
                if first.is_none() {
                    first = Some(out.loss);
                }
                last = out.loss;
            }
            let first = first.unwrap();
            assert!(
                last < first * 0.8,
                "{}: loss did not fall ({first} -> {last})",
                kind.name()
            );
        }
    }

    #[test]
    fn deterministic_step() {
        let (ds, sampler, model) = setup(GnnKind::GraphSage);
        let seeds: Vec<u32> = ds.splits.train[..16].to_vec();
        let mb = sampler.sample(&ds.graph, &seeds, 1);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let l = labels_of(&ds, &seeds);
        let a = model.train_step(&mb, &x, &l);
        let b = model.train_step(&mb, &x, &l);
        assert_eq!(a.loss, b.loss);
        assert!(a.grads.approx_eq(&b.grads, 0.0));
    }

    #[test]
    fn param_accounting() {
        let model = GnnModel::new(GnnKind::Gcn, &[100, 256, 47], 1);
        assert_eq!(model.num_params(), 100 * 256 + 256 + 256 * 47 + 47);
        let sage = GnnModel::new(GnnKind::GraphSage, &[100, 256, 47], 1);
        assert_eq!(sage.num_params(), 200 * 256 + 256 + 512 * 47 + 47);
        assert_eq!(model.nbytes(), model.num_params() * 4);
    }

    #[test]
    fn three_layer_model_runs() {
        // DistDGLv2 comparison uses a 3-layer model (Table V fanout (15,10,5)).
        let ds = Dataset::toy(9);
        let sampler = NeighborSampler::new(vec![5, 4, 3], 2);
        let model = GnnModel::new(GnnKind::GraphSage, &[16, 32, 32, 4], 3);
        let seeds: Vec<u32> = ds.splits.train[..16].to_vec();
        let mb = sampler.sample(&ds.graph, &seeds, 0);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let out = model.train_step(&mb, &x, &labels_of(&ds, &seeds));
        assert!(out.loss.is_finite());
        assert_eq!(out.grads.num_layers(), 3);
    }

    #[test]
    fn replicas_stay_in_lockstep() {
        let (ds, sampler, model) = setup(GnnKind::Gcn);
        let mut a = model.clone();
        let mut b = model;
        let mut opt_a = Sgd::with_momentum(0.1, 0.9);
        let mut opt_b = Sgd::with_momentum(0.1, 0.9);
        for step in 0..5 {
            let seeds: Vec<u32> = ds.splits.train[step * 16..(step + 1) * 16].to_vec();
            let mb = sampler.sample(&ds.graph, &seeds, step as u64);
            let x = gather_features(&ds.data.features, &mb.input_nodes);
            let l = labels_of(&ds, &seeds);
            let ga = a.train_step(&mb, &x, &l).grads;
            let gb = b.train_step(&mb, &x, &l).grads;
            let avg = Gradients::weighted_average(&[ga, gb]);
            a.apply_gradients(&avg, &mut opt_a);
            b.apply_gradients(&avg, &mut opt_b);
        }
        assert_eq!(a.flatten_params(), b.flatten_params());
    }

    #[test]
    #[should_panic(expected = "mini-batch layer count mismatch")]
    fn rejects_wrong_layer_count() {
        let (ds, _, model) = setup(GnnKind::Gcn);
        let one_hop = NeighborSampler::new(vec![4], 0);
        let seeds: Vec<u32> = ds.splits.train[..8].to_vec();
        let mb = one_hop.sample(&ds.graph, &seeds, 0);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let _ = model.forward(&mb, &x);
    }
}
