//! The design-time performance model (paper §V, Eq. 5–13).
//!
//! Predicts stage times from *algorithmic parameters* (batch size,
//! fanouts, feature widths) and *platform metadata* (Table II specs,
//! PCIe bandwidth). HyScale-GNN uses the prediction to derive the
//! coarse-grained initial task mapping at design time; the DRM engine
//! then fine-tunes at runtime (paper §IV-A).
//!
//! [`compute_stage_times`] is shared with the runtime executor: the
//! model feeds it *analytic* expected workloads (sampling cost estimated
//! offline, §V), while the executor feeds it *measured* per-batch
//! workloads — the difference, plus launch/flush overheads, is exactly
//! the prediction error the paper reports in Fig. 8 (5–14 %).

use crate::config::{OptFlags, PlatformConfig, SystemConfig, TrainConfig};
use crate::drm::{ThreadAlloc, WorkloadSplit};
use crate::stages::StageTimes;
use hyscale_device::calib;
use hyscale_device::stage::{LoaderModel, SamplerModel};
use hyscale_device::timing::{CpuTiming, TrainerTiming};
use hyscale_graph::DatasetSpec;
use hyscale_sampler::{expected_workload, WorkloadStats};

/// Everything [`compute_stage_times`] needs for one iteration.
pub struct StageInputs<'a> {
    /// CPU trainer's batch workload (zero-stats when no CPU trainer).
    pub cpu_stats: &'a WorkloadStats,
    /// Per-accelerator batch workloads.
    pub accel_stats: &'a [WorkloadStats],
    /// Model layer dimensions `[f0 .. fL]`.
    pub dims: &'a [usize],
    /// Update-input width factor (2 for SAGE).
    pub width_factor: usize,
    /// All-reduce payload in bytes (model size, Eq. 13 numerator).
    pub model_bytes: u64,
    /// Fraction of sampling executed on accelerators.
    pub sampling_on_accel: f64,
    /// Wire precision of transferred features (§VIII extension).
    pub precision: hyscale_tensor::Precision,
}

/// Compute all stage times for one iteration.
///
/// `include_overheads` selects runtime fidelity (kernel-launch overhead
/// charged to the accelerator stage) versus the paper's pure Eq. 5–13
/// model (design-time prediction).
pub fn compute_stage_times(
    platform: &PlatformConfig,
    threads: &ThreadAlloc,
    inputs: &StageInputs<'_>,
    include_overheads: bool,
) -> StageTimes {
    let accel_timing = platform.accelerator.timing();
    let loader = LoaderModel::new(platform.cpu, platform.sockets);
    let sampler = SamplerModel::default();
    let f0 = inputs.dims[0];

    // --- Sampling (T_SC, T_SA): total sampled edges split by share ---
    let total_edges: u64 = inputs.cpu_stats.total_edges()
        + inputs
            .accel_stats
            .iter()
            .map(WorkloadStats::total_edges)
            .sum::<u64>();
    let accel_edges = (total_edges as f64 * inputs.sampling_on_accel) as u64;
    let cpu_edges = total_edges - accel_edges;
    let sample_cpu = sampler.sample_time(cpu_edges, threads.sampler);
    let sample_accel = match accel_timing.sampling_eps() {
        Some(eps) if accel_edges > 0 => {
            sampler.accel_sample_time(accel_edges, eps * platform.num_accelerators as f64)
        }
        _ => 0.0,
    };

    // --- Feature Loading (T_Load, Eq. 7): loader gathers X' for every
    // trainer (CPU-resident stage) ---
    let mut merged = inputs.cpu_stats.clone();
    for s in inputs.accel_stats {
        merged = merged.merge(s);
    }
    let load = loader.load_time(&merged, f0, threads.loader);

    // --- Data Transfer (T_Tran, Eq. 8): per-accelerator links run in
    // parallel; the stage time is the slowest single link ---
    let transfer = per_lane_transfer_times(platform, inputs)
        .into_iter()
        .fold(0.0f64, f64::max);

    // --- GNN Propagation (Eq. 9–12) ---
    let cpu_timing = CpuTiming::new(
        platform.cpu,
        platform.sockets,
        threads.trainer.max(1),
        platform.total_threads,
    );
    let cpu_stack = if include_overheads {
        platform.accelerator.cpu_stack_overhead()
    } else {
        0.0
    };
    let train_cpu = if inputs.cpu_stats.batch_size == 0 {
        0.0
    } else {
        cpu_timing.propagation_time(inputs.cpu_stats, inputs.dims, inputs.width_factor) + cpu_stack
    };
    let launch = if include_overheads {
        accel_timing.launch_overhead()
    } else {
        0.0
    };
    let train_accel = inputs
        .accel_stats
        .iter()
        .map(|s| {
            if s.batch_size == 0 {
                0.0
            } else {
                accel_timing.propagation_time(s, inputs.dims, inputs.width_factor) + launch
            }
        })
        .fold(0.0f64, f64::max);

    // --- Synchronization (Eq. 13) ---
    let sync = platform.pcie.allreduce_time(inputs.model_bytes);

    StageTimes {
        sample_cpu,
        sample_accel,
        load,
        transfer,
        train_cpu,
        train_accel,
        sync,
    }
}

/// Per-accelerator wire-transfer times for one iteration (Eq. 8, one
/// entry per attached link). Eq. 8's stage time is the max over these
/// — valid only when the links actually run in parallel; a single
/// transfer thread serving every link round-robin pays the *sum*
/// instead. These per-lane times are the inputs to
/// [`crate::pipeline::simulate_pipeline`], which models that difference
/// explicitly.
pub fn per_lane_transfer_times(platform: &PlatformConfig, inputs: &StageInputs<'_>) -> Vec<f64> {
    let f0 = inputs.dims[0];
    inputs
        .accel_stats
        .iter()
        .map(|s| {
            let bytes = inputs.precision.wire_bytes(s.input_nodes, f0) + s.total_edges() * 8;
            platform.pcie.transfer_time(bytes)
        })
        .collect()
}

/// The design-time performance model.
pub struct PerfModel {
    platform: PlatformConfig,
    train: TrainConfig,
    opt: OptFlags,
}

impl PerfModel {
    /// Model for a system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self {
            platform: cfg.platform.clone(),
            train: cfg.train.clone(),
            opt: cfg.opt,
        }
    }

    /// Expected per-batch workload for `quota` seeds on `dataset`
    /// (closed-form, §V: sampling cost is profiled/estimated offline).
    pub fn analytic_workload(&self, dataset: &DatasetSpec, quota: usize) -> WorkloadStats {
        if quota == 0 {
            return WorkloadStats::zero(self.train.fanouts.len());
        }
        expected_workload(
            dataset.num_vertices,
            dataset.avg_degree(),
            quota,
            &self.train.fanouts,
        )
    }

    /// Model layer dims for `dataset`.
    pub fn dims(&self, dataset: &DatasetSpec) -> Vec<usize> {
        self.train.layer_dims(dataset.f0, dataset.f2)
    }

    /// All-reduce payload: Σ_l (f_in·width·f_out + f_out) × 4 bytes.
    pub fn model_bytes(&self, dataset: &DatasetSpec) -> u64 {
        let dims = self.dims(dataset);
        let width = self.train.model.update_width_factor() as u64;
        dims.windows(2)
            .map(|w| (w[0] as u64 * width * w[1] as u64 + w[1] as u64) * 4)
            .sum()
    }

    /// Run `f` over the [`StageInputs`] of one iteration under `split`,
    /// with every trainer's batch at its analytic expected workload.
    fn with_analytic_inputs<R>(
        &self,
        dataset: &DatasetSpec,
        split: &WorkloadSplit,
        f: impl FnOnce(&StageInputs<'_>) -> R,
    ) -> R {
        let cpu_stats = self.analytic_workload(dataset, split.cpu_quota);
        let accel_stats: Vec<WorkloadStats> = (0..split.num_accelerators)
            .map(|i| self.analytic_workload(dataset, split.accel_quota(i)))
            .collect();
        let dims = self.dims(dataset);
        let inputs = StageInputs {
            cpu_stats: &cpu_stats,
            accel_stats: &accel_stats,
            dims: &dims,
            width_factor: self.train.model.update_width_factor(),
            model_bytes: self.model_bytes(dataset),
            sampling_on_accel: split.sampling_on_accel,
            precision: self.train.transfer_precision,
        };
        f(&inputs)
    }

    /// Predicted stage times for a given mapping (no runtime overheads —
    /// the paper's Eq. 5–13 exactly).
    pub fn stage_times(
        &self,
        dataset: &DatasetSpec,
        split: &WorkloadSplit,
        threads: &ThreadAlloc,
    ) -> StageTimes {
        self.with_analytic_inputs(dataset, split, |inputs| {
            compute_stage_times(&self.platform, threads, inputs, false)
        })
    }

    /// Stage times *with* runtime overheads (kernel launch) — the
    /// executor-fidelity view over analytic workloads, used by the
    /// benchmark harness's fast timing-only simulations.
    pub fn stage_times_runtime(
        &self,
        dataset: &DatasetSpec,
        split: &WorkloadSplit,
        threads: &ThreadAlloc,
    ) -> StageTimes {
        self.with_analytic_inputs(dataset, split, |inputs| {
            compute_stage_times(&self.platform, threads, inputs, true)
        })
    }

    /// Predicted iteration time (Eq. 6 when prefetching pipelines the
    /// stages; serial sum otherwise).
    pub fn iteration_time(
        &self,
        dataset: &DatasetSpec,
        split: &WorkloadSplit,
        threads: &ThreadAlloc,
    ) -> f64 {
        let t = self.stage_times(dataset, split, threads);
        if self.opt.tfp {
            t.pipelined_iteration()
        } else {
            t.serial_iteration()
        }
    }

    /// Predicted per-accelerator wire times for a given mapping — the
    /// lane inputs to [`crate::pipeline::simulate_pipeline`], letting the
    /// model quantify what concurrent round-trips buy over one at a time
    /// for this dataset and split.
    pub fn lane_transfer_times(&self, dataset: &DatasetSpec, split: &WorkloadSplit) -> Vec<f64> {
        self.with_analytic_inputs(dataset, split, |inputs| {
            per_lane_transfer_times(&self.platform, inputs)
        })
    }

    /// Optimal sampling share for the accelerators given the CPU
    /// sampler's thread budget: balance `T_SC == T_SA` analytically.
    fn sampling_share(&self, sampler_threads: usize) -> f64 {
        let accel_eps = self
            .platform
            .accelerator
            .timing()
            .sampling_eps()
            .unwrap_or(0.0)
            * self.platform.num_accelerators as f64;
        let cpu_eps = sampler_threads as f64 * calib::CPU_SAMPLE_EPS_PER_THREAD;
        if accel_eps <= 0.0 {
            0.0
        } else {
            accel_eps / (accel_eps + cpu_eps)
        }
    }

    /// Design-time *coarse-grained* task mapping (paper §IV-A: the
    /// design-time mapping is coarse; the DRM engine fine-tunes at
    /// runtime): scan the CPU trainer share in 12.5 % steps with the
    /// default thread allocation and the analytic sampling split.
    pub fn initial_mapping(&self, dataset: &DatasetSpec) -> (WorkloadSplit, ThreadAlloc) {
        let total = self.train.batch_per_trainer
            * (self.platform.num_accelerators + usize::from(self.opt.hybrid));
        let threads = ThreadAlloc::default_for(self.platform.total_threads);
        let shares: Vec<usize> = if self.opt.hybrid {
            (0..=6).map(|i| total * i / 8).collect()
        } else {
            vec![0]
        };
        let mut best: Option<(f64, WorkloadSplit)> = None;
        for cpu_quota in shares {
            let mut split = WorkloadSplit::new(cpu_quota, total, self.platform.num_accelerators);
            split.sampling_on_accel = self.sampling_share(threads.sampler);
            let t = self.iteration_time(dataset, &split, &threads);
            if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                best = Some((t, split));
            }
        }
        let (_, split) = best.expect("at least one candidate");
        (split, threads)
    }

    /// Steady-state mapping: run the DRM policy over the model's own
    /// (overhead-free) stage times until it settles — this is what the
    /// model *predicts* the runtime will converge to, and what epoch-time
    /// predictions are quoted at.
    pub fn settled_mapping(&self, dataset: &DatasetSpec) -> (WorkloadSplit, ThreadAlloc) {
        let (mut split, mut threads) = self.initial_mapping(dataset);
        let drm = crate::drm::DrmEngine::new(self.opt.hybrid);
        let objective =
            |pm: &PerfModel, s: &WorkloadSplit, th: &ThreadAlloc| pm.iteration_time(dataset, s, th);
        let mut best = (objective(self, &split, &threads), split.clone(), threads);
        for _ in 0..60 {
            let t = self.stage_times(dataset, &split, &threads);
            drm.adjust(&t, &mut split, &mut threads);
            let obj = objective(self, &split, &threads);
            if obj < best.0 {
                best = (obj, split.clone(), threads);
            }
        }
        (best.1, best.2)
    }

    /// Predicted epoch time: iterations × iteration time (Eq. 5–6 over
    /// the labelled training set) at the settled mapping.
    pub fn predict_epoch_time(&self, dataset: &DatasetSpec) -> f64 {
        let (split, threads) = self.settled_mapping(dataset);
        let iters = dataset.train_vertices.div_ceil(split.total as u64);
        iters as f64 * self.iteration_time(dataset, &split, &threads)
    }

    /// Training throughput in MTEPS (Eq. 5): million traversed edges per
    /// second at the predicted iteration time.
    pub fn throughput_mteps(&self, dataset: &DatasetSpec) -> f64 {
        let (split, threads) = self.settled_mapping(dataset);
        let cpu = self.analytic_workload(dataset, split.cpu_quota);
        let accel: u64 = (0..split.num_accelerators)
            .map(|i| {
                self.analytic_workload(dataset, split.accel_quota(i))
                    .total_edges()
            })
            .sum();
        let edges = cpu.total_edges() + accel;
        edges as f64 / self.iteration_time(dataset, &split, &threads) / 1e6
    }

    /// Predicted scalability (paper Fig. 9): normalized speedup over the
    /// single-accelerator configuration, per accelerator count. Work per
    /// trainer is constant (weak scaling, §II-B), so speedup is the
    /// throughput ratio.
    pub fn scalability(&self, dataset: &DatasetSpec, counts: &[usize]) -> Vec<(usize, f64)> {
        let tput = |n: usize| {
            let mut cfg = self.platform.clone();
            cfg.num_accelerators = n;
            let model = PerfModel {
                platform: cfg,
                train: self.train.clone(),
                opt: self.opt,
            };
            model.throughput_mteps(dataset)
        };
        let base = tput(1);
        counts.iter().map(|&n| (n, tput(n) / base)).collect()
    }

    /// Expected pipeline-flush + launch epoch overhead (the §VI-C error
    /// sources) for error analysis.
    pub fn unmodelled_epoch_overhead(&self, dataset: &DatasetSpec) -> f64 {
        let (split, threads) = self.settled_mapping(dataset);
        let iters = dataset.train_vertices.div_ceil(split.total as u64);
        let launch = self.platform.accelerator.timing().launch_overhead();
        let flush = calib::PIPELINE_FLUSH_ITERS * self.iteration_time(dataset, &split, &threads);
        iters as f64 * launch + flush
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorKind;
    use hyscale_gnn::GnnKind;
    use hyscale_graph::dataset::{MAG240M_HOMO, OGBN_PAPERS100M, OGBN_PRODUCTS};

    fn fpga_cfg(model: GnnKind) -> SystemConfig {
        SystemConfig::paper_default(AcceleratorKind::u250(), model)
    }

    fn gpu_cfg(model: GnnKind) -> SystemConfig {
        SystemConfig::paper_default(AcceleratorKind::a5000(), model)
    }

    #[test]
    fn stage_times_all_positive() {
        let cfg = fpga_cfg(GnnKind::Gcn);
        let pm = PerfModel::new(&cfg);
        let (split, threads) = pm.initial_mapping(&OGBN_PAPERS100M);
        let t = pm.stage_times(&OGBN_PAPERS100M, &split, &threads);
        assert!(t.load > 0.0 && t.transfer > 0.0 && t.train_accel > 0.0 && t.sync > 0.0);
        assert!(t.sample_cpu > 0.0);
    }

    #[test]
    fn initial_mapping_uses_cpu_when_hybrid() {
        let cfg = fpga_cfg(GnnKind::Gcn);
        let pm = PerfModel::new(&cfg);
        let (split, _) = pm.initial_mapping(&OGBN_PAPERS100M);
        assert_eq!(split.total, 5 * 1024);
        // quota conservation
        assert_eq!(split.quotas().iter().sum::<usize>(), split.total);
    }

    #[test]
    fn baseline_mapping_has_no_cpu_quota() {
        let mut cfg = fpga_cfg(GnnKind::Gcn);
        cfg.opt = crate::config::OptFlags::baseline();
        let pm = PerfModel::new(&cfg);
        let (split, _) = pm.initial_mapping(&OGBN_PAPERS100M);
        assert_eq!(split.cpu_quota, 0);
        assert_eq!(split.total, 4 * 1024);
    }

    #[test]
    fn lane_transfer_times_match_the_stage_max() {
        let cfg = fpga_cfg(GnnKind::GraphSage);
        let pm = PerfModel::new(&cfg);
        let (split, threads) = pm.initial_mapping(&OGBN_PRODUCTS);
        let lanes = pm.lane_transfer_times(&OGBN_PRODUCTS, &split);
        assert_eq!(lanes.len(), split.num_accelerators);
        assert!(lanes.iter().all(|&t| t > 0.0));
        // Eq. 8's stage time is exactly the slowest lane
        let t = pm.stage_times(&OGBN_PRODUCTS, &split, &threads);
        let max = lanes.iter().copied().fold(0.0f64, f64::max);
        assert!((t.transfer - max).abs() < 1e-12);
        // symmetric quotas -> near-symmetric lanes (remainder seeds only)
        let min = lanes.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.1, "lanes implausibly skewed: {lanes:?}");
    }

    #[test]
    fn epoch_time_scales_with_dataset() {
        let cfg = fpga_cfg(GnnKind::GraphSage);
        let pm = PerfModel::new(&cfg);
        let products = pm.predict_epoch_time(&OGBN_PRODUCTS);
        let papers = pm.predict_epoch_time(&OGBN_PAPERS100M);
        // papers100M has ~6x the train vertices and wider features
        assert!(
            papers > 2.0 * products,
            "papers {papers} vs products {products}"
        );
    }

    #[test]
    fn pipelining_helps() {
        let mut cfg = fpga_cfg(GnnKind::Gcn);
        let pm_tfp = PerfModel::new(&cfg);
        cfg.opt.tfp = false;
        let pm_serial = PerfModel::new(&cfg);
        let (split, threads) = pm_tfp.initial_mapping(&MAG240M_HOMO);
        let t_tfp = pm_tfp.iteration_time(&MAG240M_HOMO, &split, &threads);
        let t_serial = pm_serial.iteration_time(&MAG240M_HOMO, &split, &threads);
        assert!(t_tfp < t_serial, "pipelined {t_tfp} vs serial {t_serial}");
    }

    #[test]
    fn fpga_system_beats_gpu_system() {
        // the paper's headline: CPU-FPGA ~5-6x faster than CPU-GPU
        let fpga = PerfModel::new(&fpga_cfg(GnnKind::Gcn));
        let gpu = PerfModel::new(&gpu_cfg(GnnKind::Gcn));
        let (fs, ft) = fpga.settled_mapping(&OGBN_PAPERS100M);
        let (gs, gt) = gpu.settled_mapping(&OGBN_PAPERS100M);
        // include runtime overheads for the honest per-iteration compare
        let f_times = {
            let cpu = fpga.analytic_workload(&OGBN_PAPERS100M, fs.cpu_quota);
            let acc: Vec<_> = (0..4)
                .map(|i| fpga.analytic_workload(&OGBN_PAPERS100M, fs.accel_quota(i)))
                .collect();
            let dims = fpga.dims(&OGBN_PAPERS100M);
            compute_stage_times(
                &fpga.platform,
                &ft,
                &StageInputs {
                    cpu_stats: &cpu,
                    accel_stats: &acc,
                    dims: &dims,
                    width_factor: 1,
                    model_bytes: fpga.model_bytes(&OGBN_PAPERS100M),
                    sampling_on_accel: 0.0,
                    precision: hyscale_tensor::Precision::F32,
                },
                true,
            )
        };
        let g_times = {
            let cpu = gpu.analytic_workload(&OGBN_PAPERS100M, gs.cpu_quota);
            let acc: Vec<_> = (0..4)
                .map(|i| gpu.analytic_workload(&OGBN_PAPERS100M, gs.accel_quota(i)))
                .collect();
            let dims = gpu.dims(&OGBN_PAPERS100M);
            compute_stage_times(
                &gpu.platform,
                &gt,
                &StageInputs {
                    cpu_stats: &cpu,
                    accel_stats: &acc,
                    dims: &dims,
                    width_factor: 1,
                    model_bytes: gpu.model_bytes(&OGBN_PAPERS100M),
                    sampling_on_accel: 0.0,
                    precision: hyscale_tensor::Precision::F32,
                },
                true,
            )
        };
        let ratio = g_times.pipelined_iteration() / f_times.pipelined_iteration();
        assert!(
            (2.0..12.0).contains(&ratio),
            "CPU-FPGA should beat CPU-GPU ~5-6x, got {ratio:.2} \
             (fpga {:.4}s, gpu {:.4}s)",
            f_times.pipelined_iteration(),
            g_times.pipelined_iteration()
        );
    }

    #[test]
    fn scalability_saturates_at_high_accel_counts() {
        let cfg = fpga_cfg(GnnKind::GraphSage);
        let pm = PerfModel::new(&cfg);
        let s = pm.scalability(&OGBN_PAPERS100M, &[1, 2, 4, 8, 16]);
        assert_eq!(s.len(), 5);
        assert!((s[0].1 - 1.0).abs() < 1e-9);
        // monotone non-decreasing speedup
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "speedup regressed: {s:?}");
        }
        // sub-linear at 16 (CPU memory bandwidth saturation, Fig. 9)
        let s16 = s[4].1;
        assert!(s16 > 4.0, "16-accel speedup too low: {s16}");
        assert!(s16 < 15.0, "16-accel speedup implausibly linear: {s16}");
    }

    #[test]
    fn model_bytes_counts_sage_concat() {
        let gcn = PerfModel::new(&fpga_cfg(GnnKind::Gcn));
        let sage = PerfModel::new(&fpga_cfg(GnnKind::GraphSage));
        assert!(sage.model_bytes(&OGBN_PRODUCTS) > gcn.model_bytes(&OGBN_PRODUCTS));
        // GCN products: (100*256+256 + 256*47+47)*4 bytes
        assert_eq!(
            gcn.model_bytes(&OGBN_PRODUCTS),
            ((100 * 256 + 256 + 256 * 47 + 47) * 4) as u64
        );
    }

    #[test]
    fn unmodelled_overhead_is_small_fraction_on_fpga() {
        // Fig. 8: prediction error 5-14%; launch+flush alone must be well
        // under the epoch time.
        let pm = PerfModel::new(&fpga_cfg(GnnKind::Gcn));
        let epoch = pm.predict_epoch_time(&MAG240M_HOMO);
        let overhead = pm.unmodelled_epoch_overhead(&MAG240M_HOMO);
        assert!(
            overhead < epoch * 0.2,
            "overhead {overhead} vs epoch {epoch}"
        );
    }
}
