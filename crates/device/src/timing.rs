//! Per-trainer propagation-time models (paper §V, Eq. 9–12).
//!
//! One training iteration's propagation on a device is
//!
//! ```text
//! T_trainer = t_fwd + t_bwd
//!           = Σ_{l=1..L} ⊕(t_agg^l, t_upd^l)          (forward, Eq. 10)
//!           + t_upd^1 + Σ_{l=2..L} ⊕(t_agg^l, t_upd^l) (backward)
//! t_agg^l = |E^{l-1}| · f^l · S_feat / BW_mem           (Eq. 11)
//! t_upd^l = |V^l| · f^l · f^{l+1} / (N · freq)          (Eq. 12)
//! ```
//!
//! with `⊕ = max` when aggregation and update are pipelined (the FPGA
//! kernel) and `⊕ = Σ` otherwise (CPU, GPU).

use crate::calib;
use crate::spec::{DeviceSpec, ALVEO_U250, EPYC_7763, RTX_A5000};
use hyscale_sampler::WorkloadStats;

/// Per-layer workload slice extracted from [`WorkloadStats`] + model dims.
#[derive(Debug, Clone, Copy)]
pub struct LayerWork {
    /// `|E^l|` — edges aggregated by this layer.
    pub edges: usize,
    /// `|V^l|` — destination vertices updated by this layer.
    pub dst_nodes: usize,
    /// `|V^{l-1}|` — distinct source vertices (FPGA reuse bound).
    pub src_nodes: usize,
    /// Input feature width.
    pub f_in: usize,
    /// Output feature width.
    pub f_out: usize,
}

/// Slice `stats` + `dims` into per-layer work items. `width_factor` is 2
/// for GraphSAGE (concatenated update input), 1 for GCN.
///
/// # Panics
/// If `dims.len() != layers + 1`.
pub fn layer_work(stats: &WorkloadStats, dims: &[usize], width_factor: usize) -> Vec<LayerWork> {
    let layers = stats.nodes_per_layer.len();
    assert_eq!(dims.len(), layers + 1, "dims must have layers+1 entries");
    (0..layers)
        .map(|l| LayerWork {
            edges: stats.edges_per_layer[l],
            dst_nodes: stats.nodes_per_layer[l],
            src_nodes: if l == 0 {
                stats.input_nodes
            } else {
                stats.nodes_per_layer[l - 1]
            },
            f_in: dims[l] * width_factor,
            f_out: dims[l + 1],
        })
        .collect()
}

/// A device-specific propagation-time model.
pub trait TrainerTiming: Send + Sync {
    /// The underlying device.
    fn spec(&self) -> &DeviceSpec;

    /// Aggregation time of one layer (Eq. 11).
    fn aggregate_time(&self, work: &LayerWork) -> f64;

    /// Update time of one layer (Eq. 12).
    fn update_time(&self, work: &LayerWork) -> f64;

    /// Whether aggregation and update overlap (⊕ = max).
    fn pipelined(&self) -> bool;

    /// Fixed per-iteration overhead *not* in the paper's performance
    /// model (kernel launch; §VI-C names it as a prediction-error source).
    fn launch_overhead(&self) -> f64 {
        0.0
    }

    /// Full forward+backward propagation time for one mini-batch
    /// (Eq. 10), excluding `launch_overhead`.
    fn propagation_time(&self, stats: &WorkloadStats, dims: &[usize], width_factor: usize) -> f64 {
        let work = layer_work(stats, dims, width_factor);
        let combine = |a: f64, u: f64| if self.pipelined() { a.max(u) } else { a + u };
        let forward: f64 = work
            .iter()
            .map(|w| combine(self.aggregate_time(w), self.update_time(w)))
            .sum();
        // backward (Eq. 10): update of layer 1, then agg⊕update for 2..L
        let backward: f64 = self.update_time(&work[0])
            + work[1..]
                .iter()
                .map(|w| combine(self.aggregate_time(w), self.update_time(w)))
                .sum::<f64>();
        forward + backward
    }

    /// On-device neighbour-sampling rate in edges/second; `None` when the
    /// device cannot sample (pure-offload accelerators).
    fn sampling_eps(&self) -> Option<f64> {
        None
    }
}

/// CPU trainer: Rayon GEMM + gather from CPU DRAM. Not pipelined.
///
/// Compute scales with the thread share the DRM engine assigns; memory
/// bandwidth is the full socket complement (gathers stream regardless of
/// thread count once a few threads are active).
#[derive(Debug, Clone)]
pub struct CpuTiming {
    spec: DeviceSpec,
    /// Sockets on the node (paper platform: 2).
    pub sockets: usize,
    /// Worker threads assigned to the CPU trainer.
    pub threads: usize,
    /// Total hardware threads available for trainer work.
    pub total_threads: usize,
}

impl CpuTiming {
    /// Dual-socket EPYC 7763 with `threads` of `total_threads` assigned.
    pub fn epyc_dual(threads: usize, total_threads: usize) -> Self {
        Self::new(EPYC_7763, 2, threads, total_threads)
    }

    /// Custom CPU platform.
    ///
    /// # Panics
    /// If thread counts are inconsistent.
    pub fn new(spec: DeviceSpec, sockets: usize, threads: usize, total_threads: usize) -> Self {
        assert!(threads >= 1 && threads <= total_threads);
        Self {
            spec,
            sockets,
            threads,
            total_threads,
        }
    }

    fn flops(&self) -> f64 {
        self.spec.peak_tflops
            * 1e12
            * self.sockets as f64
            * (self.threads as f64 / self.total_threads as f64)
            * calib::CPU_GEMM_EFFICIENCY
    }

    fn mem_bw(&self) -> f64 {
        self.spec.mem_bandwidth_gbs * 1e9 * self.sockets as f64 * calib::CPU_GATHER_BW_FRACTION
    }
}

impl TrainerTiming for CpuTiming {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn aggregate_time(&self, w: &LayerWork) -> f64 {
        // Eq. 11: gather |E| source rows of f_in floats from DRAM
        (w.edges as f64 * w.f_in as f64 * 4.0) / self.mem_bw()
    }

    fn update_time(&self, w: &LayerWork) -> f64 {
        // Eq. 12: |V| · f_in · f_out MACs = 2 FLOPs each
        (w.dst_nodes as f64 * w.f_in as f64 * w.f_out as f64 * 2.0) / self.flops()
    }

    fn pipelined(&self) -> bool {
        false
    }

    fn sampling_eps(&self) -> Option<f64> {
        Some(self.threads as f64 * calib::CPU_SAMPLE_EPS_PER_THREAD)
    }
}

/// GPU trainer: fast GEMM, cache-hostile gather, and the per-iteration
/// framework overhead of a PyTorch-stack implementation (the paper builds
/// both its baseline and its CPU-GPU design in PyTorch, §VI-A1). Not
/// pipelined (separate kernel launches per op).
#[derive(Debug, Clone)]
pub struct GpuTiming {
    spec: DeviceSpec,
    /// DRAM efficiency on random row gathers.
    pub gather_bw_eff: f64,
    /// DRAM efficiency on streaming access.
    pub stream_bw_eff: f64,
    /// Per-iteration framework/launch overhead (seconds).
    pub framework_overhead_s: f64,
}

impl GpuTiming {
    /// RTX A5000 with the calibrated efficiencies.
    pub fn a5000() -> Self {
        Self::new(RTX_A5000)
    }

    /// Any GPU spec with the calibrated efficiencies.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            gather_bw_eff: calib::GPU_GATHER_BW_EFF,
            stream_bw_eff: calib::GPU_STREAM_BW_EFF,
            framework_overhead_s: calib::GPU_FRAMEWORK_OVERHEAD_S,
        }
    }
}

impl TrainerTiming for GpuTiming {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn aggregate_time(&self, w: &LayerWork) -> f64 {
        let bw = self.spec.mem_bandwidth_gbs * 1e9;
        // Eq. 11 with the PyG execution reality: a random gather of |E|
        // source rows at gather efficiency, per-edge message
        // materialisation (write + re-read for the segment reduce), and
        // the result write — intermediates all round-trip DRAM.
        let edge_bytes = w.edges as f64 * w.f_in as f64 * 4.0;
        let gather = edge_bytes / (bw * self.gather_bw_eff);
        let messages = 2.0 * edge_bytes / (bw * self.stream_bw_eff);
        let write = w.dst_nodes as f64 * w.f_in as f64 * 4.0 / (bw * self.stream_bw_eff);
        gather + messages + write
    }

    fn update_time(&self, w: &LayerWork) -> f64 {
        (w.dst_nodes as f64 * w.f_in as f64 * w.f_out as f64 * 2.0)
            / (self.spec.peak_tflops * 1e12 * calib::GPU_GEMM_EFFICIENCY)
    }

    fn pipelined(&self) -> bool {
        false
    }

    fn launch_overhead(&self) -> f64 {
        self.framework_overhead_s
    }

    fn sampling_eps(&self) -> Option<f64> {
        Some(calib::GPU_SAMPLE_EPS)
    }
}

/// FPGA trainer implementing the paper's kernel design (§IV-C):
///
/// * edges sorted by source + feature duplicator → each distinct source
///   feature is read from device DRAM **once** (traffic `O(|V^{l-1}|)`
///   instead of `O(|E^l|)`);
/// * aggregation and the systolic update array are pipelined (⊕ = max);
/// * intermediate results stay on-chip — no write-back between layers.
#[derive(Debug, Clone)]
pub struct FpgaTiming {
    spec: DeviceSpec,
    /// Scatter-gather PE count `n` (Table IV: 8).
    pub n_pes: usize,
    /// Systolic MAC count `m` (Table IV: 2048).
    pub m_macs: usize,
    /// Vector lanes per PE.
    pub vec_lanes: usize,
}

impl FpgaTiming {
    /// Alveo U250 with the Table IV configuration (n, m) = (8, 2048).
    pub fn u250() -> Self {
        Self {
            spec: ALVEO_U250,
            n_pes: 8,
            m_macs: 2048,
            vec_lanes: calib::FPGA_VEC_LANES,
        }
    }

    /// Custom configuration.
    ///
    /// # Panics
    /// If any parallelism parameter is zero.
    pub fn new(spec: DeviceSpec, n_pes: usize, m_macs: usize) -> Self {
        assert!(n_pes > 0 && m_macs > 0);
        Self {
            spec,
            n_pes,
            m_macs,
            vec_lanes: calib::FPGA_VEC_LANES,
        }
    }
}

impl TrainerTiming for FpgaTiming {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn aggregate_time(&self, w: &LayerWork) -> f64 {
        // memory side: each distinct source row read once (duplicator)
        let mem = (w.src_nodes as f64 * w.f_in as f64 * 4.0) / (self.spec.mem_bandwidth_gbs * 1e9);
        // compute side: n PEs each consume one edge per ceil(f/lanes) cycles
        let cycles_per_edge = (w.f_in as f64 / self.vec_lanes as f64).ceil();
        let compute =
            w.edges as f64 * cycles_per_edge / (self.n_pes as f64 * self.spec.freq_ghz * 1e9);
        mem.max(compute)
    }

    fn update_time(&self, w: &LayerWork) -> f64 {
        // m MAC units at kernel frequency (Eq. 12 with N = m)
        (w.dst_nodes as f64 * w.f_in as f64 * w.f_out as f64)
            / (self.m_macs as f64 * self.spec.freq_ghz * 1e9)
    }

    fn pipelined(&self) -> bool {
        true
    }

    fn launch_overhead(&self) -> f64 {
        calib::FPGA_LAUNCH_OVERHEAD_S
    }

    fn sampling_eps(&self) -> Option<f64> {
        Some(calib::FPGA_SAMPLE_EPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-like batch: 1024 seeds, fanouts (25,10), papers100M dims.
    fn stats() -> WorkloadStats {
        WorkloadStats {
            batch_size: 1024,
            input_nodes: 220_000,
            nodes_per_layer: vec![26_600, 1024],
            edges_per_layer: vec![266_000, 25_600],
        }
    }

    const DIMS: [usize; 3] = [128, 256, 172];

    #[test]
    fn layer_work_slicing() {
        let w = layer_work(&stats(), &DIMS, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].src_nodes, 220_000);
        assert_eq!(w[0].dst_nodes, 26_600);
        assert_eq!(w[0].f_in, 128);
        assert_eq!(w[0].f_out, 256);
        assert_eq!(w[1].src_nodes, 26_600);
        assert_eq!(w[1].f_out, 172);
    }

    #[test]
    fn width_factor_doubles_update_input() {
        let w = layer_work(&stats(), &DIMS, 2);
        assert_eq!(w[0].f_in, 256);
    }

    #[test]
    fn cpu_eq11_eq12_forms() {
        let cpu = CpuTiming::epyc_dual(64, 128);
        let w = layer_work(&stats(), &DIMS, 1);
        // Eq. 11 shape: traffic / bw
        let traffic = 266_000.0 * 128.0 * 4.0;
        let bw = 205e9 * 2.0 * calib::CPU_GATHER_BW_FRACTION;
        assert!((cpu.aggregate_time(&w[0]) - traffic / bw).abs() / (traffic / bw) < 1e-12);
        // update monotone in dst nodes
        let mut w2 = w[0];
        w2.dst_nodes *= 2;
        assert!(cpu.update_time(&w2) > cpu.update_time(&w[0]));
    }

    #[test]
    fn fpga_aggregation_reads_each_source_once() {
        let fpga = FpgaTiming::u250();
        let w = layer_work(&stats(), &DIMS, 1)[0];
        // memory term must be based on src_nodes, not edges
        let mem_time = (w.src_nodes as f64 * w.f_in as f64 * 4.0) / (77e9);
        assert!(fpga.aggregate_time(&w) >= mem_time * 0.999);
        // an edge-traffic model would be ~E/V0 larger when E >> V0
        let mut dense = w;
        dense.edges = w.src_nodes * 20; // heavy reuse
        let t_dense = fpga.aggregate_time(&dense);
        let naive = (dense.edges as f64 * w.f_in as f64 * 4.0) / 77e9;
        assert!(
            t_dense < naive * 0.6,
            "reuse not modelled: {t_dense} vs naive {naive}"
        );
    }

    #[test]
    fn fpga_pipelines_gpu_does_not() {
        assert!(FpgaTiming::u250().pipelined());
        assert!(!GpuTiming::a5000().pipelined());
        assert!(!CpuTiming::epyc_dual(8, 128).pipelined());
    }

    #[test]
    fn propagation_time_positive_and_ordered() {
        let s = stats();
        let cpu = CpuTiming::epyc_dual(64, 128);
        let gpu = GpuTiming::a5000();
        let fpga = FpgaTiming::u250();
        let t_cpu = cpu.propagation_time(&s, &DIMS, 1) + cpu.launch_overhead();
        let t_gpu = gpu.propagation_time(&s, &DIMS, 1) + gpu.launch_overhead();
        let t_fpga = fpga.propagation_time(&s, &DIMS, 1) + fpga.launch_overhead();
        assert!(t_cpu > 0.0 && t_gpu > 0.0 && t_fpga > 0.0);
        // The FPGA's fused kernel (reuse + pipelining + no framework
        // overhead) must beat the PyTorch-stack GPU trainer per iteration
        // by roughly the 5-6x the paper reports (§VI-E1).
        let ratio = t_gpu / t_fpga;
        assert!(
            (3.0..20.0).contains(&ratio),
            "GPU/FPGA per-iteration ratio {ratio:.2} outside the paper's band \
             (GPU {t_gpu:.4}s, FPGA {t_fpga:.4}s)"
        );
        // raw propagation without overheads: the A5000's bandwidth still
        // wins — the system-level gap comes from overheads, as §VI-E1's
        // normalized comparison implies
        assert!(gpu.propagation_time(&s, &DIMS, 1) < t_fpga * 10.0);
    }

    #[test]
    fn more_cpu_threads_speed_update() {
        let s = stats();
        let few = CpuTiming::epyc_dual(16, 128).propagation_time(&s, &DIMS, 1);
        let many = CpuTiming::epyc_dual(96, 128).propagation_time(&s, &DIMS, 1);
        assert!(many < few);
    }

    #[test]
    fn sampling_rates() {
        assert!(CpuTiming::epyc_dual(32, 128).sampling_eps().unwrap() > 0.0);
        assert!(
            GpuTiming::a5000().sampling_eps().unwrap() > FpgaTiming::u250().sampling_eps().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "dims must have layers+1")]
    fn layer_work_checks_dims() {
        let _ = layer_work(&stats(), &[128, 256], 1);
    }
}
