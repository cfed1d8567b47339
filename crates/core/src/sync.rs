//! The Synchronizer: gradient all-reduce (paper §III-A).
//!
//! Gathers per-trainer gradients and computes the batch-size-weighted
//! average, which the runtime ([`crate::executor`]) applies to the
//! replicated model. The weighting keeps hybrid training with unequal
//! CPU/accelerator quotas *algorithmically identical* to single-device
//! training with one large batch (paper §II-B), which the workspace's
//! equivalence tests assert.

use hyscale_gnn::Gradients;

/// Stateless all-reduce operator (runs on a CPU thread; the paper notes
/// the CPU's central position in Fig. 2 makes it the natural host).
#[derive(Debug, Default, Clone)]
pub struct Synchronizer;

impl Synchronizer {
    /// A new synchronizer.
    pub fn new() -> Self {
        Self
    }

    /// Gather + weighted-average in `parts` order (the reduce step of the
    /// all-reduce; the runtime applies the result to every replica).
    pub fn all_reduce(&self, parts: &[Gradients]) -> Gradients {
        Gradients::weighted_average(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_tensor::Matrix;

    fn grad(v: f32, batch: usize) -> Gradients {
        Gradients {
            d_weights: vec![Matrix::full(1, 2, v)],
            d_biases: vec![vec![v; 2]],
            batch_size: batch,
        }
    }

    #[test]
    fn all_reduce_weighted() {
        let s = Synchronizer::new();
        let avg = s.all_reduce(&[grad(2.0, 10), grad(6.0, 30)]);
        assert!((avg.d_weights[0][(0, 0)] - 5.0).abs() < 1e-6);
    }
}
