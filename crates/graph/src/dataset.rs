//! Dataset specifications (paper Table III) and scaled materialization.
//!
//! Full-scale graphs (papers100M: 1.6 B edges) cannot be materialized in
//! a laptop-scale reproduction; instead each spec carries the *full-scale
//! statistics* (used by iteration counts and the performance model) and a
//! `materialize(scale)` method that synthesizes a structurally similar
//! graph at `|V| / scale` for functional training. DESIGN.md §2 documents
//! why mini-batch workloads are nearly scale-invariant.

use crate::csr::CsrGraph;
use crate::features::{Splits, VertexData};
use crate::generator::{sbm, SbmConfig};

/// Identification of the paper's three evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ogbn-products: 2.4 M vertices, 62 M edges (medium scale).
    ObgnProducts,
    /// ogbn-papers100M: 111 M vertices, 1.6 B edges.
    ObgnPapers100M,
    /// MAG240M (homogeneous): 122 M vertices, 1.3 B edges, 202 GB features.
    Mag240MHomo,
}

/// Static description of a dataset: full-scale statistics from Table III
/// plus the GNN layer dimensions used in the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub kind: DatasetKind,
    /// Display name.
    pub name: &'static str,
    /// Full-scale vertex count.
    pub num_vertices: u64,
    /// Full-scale edge count.
    pub num_edges: u64,
    /// Input feature length `f0`.
    pub f0: usize,
    /// Hidden feature length `f1`.
    pub f1: usize,
    /// Output feature length `f2` (number of classes).
    pub f2: usize,
    /// Number of labelled training vertices (drives iterations/epoch).
    pub train_vertices: u64,
}

/// Table III row: ogbn-products.
pub const OGBN_PRODUCTS: DatasetSpec = DatasetSpec {
    kind: DatasetKind::ObgnProducts,
    name: "ogbn-products",
    num_vertices: 2_449_029,
    num_edges: 61_859_140,
    f0: 100,
    f1: 256,
    f2: 47,
    // OGB official split: 196,615 train nodes.
    train_vertices: 196_615,
};

/// Table III row: ogbn-papers100M.
pub const OGBN_PAPERS100M: DatasetSpec = DatasetSpec {
    kind: DatasetKind::ObgnPapers100M,
    name: "ogbn-papers100M",
    num_vertices: 111_059_956,
    num_edges: 1_615_685_872,
    f0: 128,
    f1: 256,
    f2: 172,
    // OGB official split: ~1.2M labelled train nodes.
    train_vertices: 1_207_179,
};

/// Table III row: MAG240M (homogeneous).
pub const MAG240M_HOMO: DatasetSpec = DatasetSpec {
    kind: DatasetKind::Mag240MHomo,
    name: "MAG240M (homo)",
    num_vertices: 121_751_666,
    num_edges: 1_297_748_926,
    f0: 756,
    f1: 256,
    f2: 153,
    // OGB-LSC: ~1.1M labelled arxiv papers.
    train_vertices: 1_112_392,
};

/// All three paper datasets in Table III order.
pub const ALL_DATASETS: [DatasetSpec; 3] = [OGBN_PRODUCTS, OGBN_PAPERS100M, MAG240M_HOMO];

impl DatasetSpec {
    /// Average directed degree at full scale.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges as f64 / self.num_vertices as f64
    }

    /// Full-scale feature matrix size in bytes (`|V| · f0 · 4`).
    ///
    /// MAG240M evaluates to ~368 GB raw f32 (the paper quotes 202 GB for
    /// the f16 release); either way it exceeds any device memory, which
    /// is the paper's motivating constraint.
    pub fn feature_bytes(&self) -> u64 {
        self.num_vertices * self.f0 as u64 * 4
    }

    /// Layer dimensions `[f0, f1, f2]` for the 2-layer evaluation models.
    pub fn layer_dims(&self) -> [usize; 3] {
        [self.f0, self.f1, self.f2]
    }

    /// Communities planted by [`materialize`](Self::materialize): `f2`,
    /// capped for tiny scales.
    fn synthetic_classes(&self) -> usize {
        self.f2.min(64)
    }

    /// Largest down-scale factor [`materialize`](Self::materialize)
    /// accepts: the one that still leaves two vertices per planted
    /// community (every scale does when the 64-vertex floor suffices).
    pub fn max_scale(&self) -> u64 {
        let min_vertices = 2 * self.synthetic_classes() as u64;
        if min_vertices <= 64 {
            u64::MAX
        } else {
            self.num_vertices / min_vertices
        }
    }

    /// Synthesize a functional stand-in graph scaled down by `scale`
    /// (vertices ≈ `num_vertices / scale`), preserving average degree and
    /// planting `f2` learnable communities. Deterministic in `seed`.
    ///
    /// # Panics
    /// If `scale` is 0 or exceeds [`max_scale`](Self::max_scale).
    pub fn materialize(&self, scale: u64, seed: u64) -> Dataset {
        assert!(
            (1..=self.max_scale()).contains(&scale),
            "scale {scale} is outside 1..={} for {}",
            self.max_scale(),
            self.name
        );
        let n = (self.num_vertices / scale).max(64) as usize;
        let classes = self.synthetic_classes();
        // symmetrize() roughly doubles the out-degree of a directed SBM,
        // so generate at half the spec's average degree to land on it.
        let avg_degree = (self.avg_degree() / 2.0).round() as usize;
        let (graph, labels) = sbm(
            SbmConfig {
                num_vertices: n,
                communities: classes,
                avg_degree: avg_degree.max(2),
                p_intra: 0.8,
            },
            seed,
        );
        // undirected view: neighbor sampling treats edges as symmetric,
        // matching OGB preprocessing of products/papers.
        let graph = graph.symmetrize();
        let data = VertexData::from_labels(&labels, classes, self.f0, 2.0, seed ^ 0xfeed);
        let train_frac = (self.train_vertices as f64 / self.num_vertices as f64).clamp(0.01, 0.8);
        let splits = Splits::random(n, train_frac, 0.1, seed ^ 0xbeef);
        Dataset {
            spec: *self,
            graph,
            data,
            splits,
            scale,
        }
    }
}

/// A materialized dataset: graph + features + labels + splits, plus the
/// originating spec for full-scale accounting.
#[derive(Clone)]
pub struct Dataset {
    /// The full-scale spec this dataset was synthesized from.
    pub spec: DatasetSpec,
    /// Scaled-down topology (undirected CSR).
    pub graph: CsrGraph,
    /// Features and labels for the scaled graph.
    pub data: VertexData,
    /// Train/val/test splits over the scaled graph.
    pub splits: Splits,
    /// The applied down-scale factor.
    pub scale: u64,
}

impl Dataset {
    /// Iterations per full-scale epoch at a given total mini-batch size
    /// (paper §VI-A2: mini-batch size 1024 over the labelled train set).
    pub fn full_scale_iterations(&self, total_batch: usize) -> u64 {
        self.spec.train_vertices.div_ceil(total_batch as u64)
    }

    /// A small, fast dataset for unit tests (not a paper dataset).
    pub fn toy(seed: u64) -> Dataset {
        let spec = DatasetSpec {
            kind: DatasetKind::ObgnProducts,
            name: "toy",
            num_vertices: 1_000,
            num_edges: 16_000,
            f0: 16,
            f1: 32,
            f2: 4,
            train_vertices: 600,
        };
        let (graph, labels) = sbm(
            SbmConfig {
                num_vertices: 1000,
                communities: 4,
                avg_degree: 16,
                p_intra: 0.85,
            },
            seed,
        );
        let graph = graph.symmetrize();
        let data = VertexData::from_labels(&labels, 4, 16, 2.5, seed ^ 1);
        let splits = Splits::random(1000, 0.6, 0.2, seed ^ 2);
        Dataset {
            spec,
            graph,
            data,
            splits,
            scale: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_statistics() {
        assert_eq!(OGBN_PRODUCTS.num_vertices, 2_449_029);
        assert_eq!(OGBN_PRODUCTS.num_edges, 61_859_140);
        assert_eq!(OGBN_PRODUCTS.layer_dims(), [100, 256, 47]);
        assert_eq!(OGBN_PAPERS100M.layer_dims(), [128, 256, 172]);
        assert_eq!(MAG240M_HOMO.layer_dims(), [756, 256, 153]);
        assert!((OGBN_PRODUCTS.avg_degree() - 25.26).abs() < 0.1);
    }

    #[test]
    fn mag_features_exceed_device_memory() {
        // The paper's motivation: MAG240M features cannot fit in 16-64 GB
        // device memory.
        let gb = MAG240M_HOMO.feature_bytes() as f64 / 1e9;
        assert!(gb > 64.0, "MAG240M features only {gb} GB?");
    }

    #[test]
    fn materialize_scales_down() {
        let d = OGBN_PRODUCTS.materialize(10_000, 42);
        assert!(d.graph.num_vertices() >= 64);
        assert!(d.graph.num_vertices() < 1000);
        assert_eq!(d.data.feat_dim(), 100);
        assert_eq!(d.data.num_classes, 47);
        assert!(!d.splits.train.is_empty());
        d.graph.validate().unwrap();
    }

    #[test]
    fn max_scale_is_the_materialize_bound() {
        let top = OGBN_PRODUCTS.max_scale();
        let d = OGBN_PRODUCTS.materialize(top, 1);
        assert!(d.graph.num_vertices() >= 2 * OGBN_PRODUCTS.synthetic_classes());
        let past = std::panic::catch_unwind(|| OGBN_PRODUCTS.materialize(top + 1, 1));
        assert!(past.is_err(), "scale {} must be rejected", top + 1);
    }

    #[test]
    fn materialize_deterministic() {
        let a = OGBN_PRODUCTS.materialize(20_000, 7);
        let b = OGBN_PRODUCTS.materialize(20_000, 7);
        assert_eq!(a.graph.targets(), b.graph.targets());
        assert_eq!(a.data.labels, b.data.labels);
    }

    #[test]
    fn full_scale_iterations_use_spec() {
        let d = Dataset::toy(1);
        assert_eq!(d.full_scale_iterations(100), 6);
        let p = OGBN_PRODUCTS.materialize(10_000, 1);
        // 196,615 train vertices / 4096 per iteration (4 trainers x 1024)
        assert_eq!(p.full_scale_iterations(4096), 49);
    }

    #[test]
    fn toy_dataset_learnable() {
        let d = Dataset::toy(3);
        assert_eq!(d.graph.num_vertices(), 1000);
        assert_eq!(d.data.num_classes, 4);
        assert_eq!(d.splits.train.len(), 600);
    }
}
