//! CPU-side pipeline-stage models: sampling and feature loading.
//!
//! These are the stages whose *thread allocation* the DRM engine's
//! `balance_thread` move adjusts (paper §IV-A): loader throughput scales
//! with assigned threads until the socket DRAM bandwidth saturates —
//! exactly the saturation that caps scalability beyond 12 accelerators in
//! paper Fig. 9.

use crate::calib;
use crate::spec::DeviceSpec;
use hyscale_sampler::WorkloadStats;

/// Model of the CPU Feature Loader (paper Fig. 3).
#[derive(Debug, Clone, Copy)]
pub struct LoaderModel {
    /// Host CPU spec (per socket).
    pub cpu: DeviceSpec,
    /// Number of sockets.
    pub sockets: usize,
}

impl LoaderModel {
    /// Loader on the given host.
    pub fn new(cpu: DeviceSpec, sockets: usize) -> Self {
        Self { cpu, sockets }
    }

    /// Achievable gather throughput (bytes/s) with `threads` loader
    /// threads: linear in threads, capped by effective DRAM bandwidth.
    pub fn throughput(&self, threads: usize) -> f64 {
        let per_thread = threads as f64 * calib::GATHER_PER_THREAD_GBS * 1e9;
        let cap =
            self.cpu.mem_bandwidth_gbs * 1e9 * self.sockets as f64 * calib::CPU_GATHER_BW_FRACTION;
        per_thread.min(cap)
    }

    /// Feature-loading time for the merged per-iteration workload
    /// (paper Eq. 7: `Σ_i |V^0_i| · f0 · S_feat / BW_DDR`).
    pub fn load_time(&self, total: &WorkloadStats, f0: usize, threads: usize) -> f64 {
        total.feature_bytes(f0) as f64 / self.throughput(threads.max(1))
    }

    /// Threads at which the loader saturates DRAM; extra threads beyond
    /// this are wasted (DRM should reassign them).
    pub fn saturation_threads(&self) -> usize {
        let cap = self.cpu.mem_bandwidth_gbs * self.sockets as f64 * calib::CPU_GATHER_BW_FRACTION;
        (cap / calib::GATHER_PER_THREAD_GBS).ceil() as usize
    }
}

/// Model of the CPU Mini-batch Sampler (paper Fig. 3).
///
/// The paper profiles sampling rather than modelling it in closed form
/// (§V); this model is the reproduction's "profile": a per-thread edge
/// rate measured once and reused.
#[derive(Debug, Clone, Copy)]
pub struct SamplerModel {
    /// Edges sampled per second per thread.
    pub eps_per_thread: f64,
}

impl Default for SamplerModel {
    fn default() -> Self {
        Self {
            eps_per_thread: calib::CPU_SAMPLE_EPS_PER_THREAD,
        }
    }
}

impl SamplerModel {
    /// Time for CPU threads to sample workloads totalling `edges` edges.
    pub fn sample_time(&self, edges: u64, threads: usize) -> f64 {
        edges as f64 / (self.eps_per_thread * threads.max(1) as f64)
    }

    /// Time for an accelerator sampling at `device_eps` edges/second.
    pub fn accel_sample_time(&self, edges: u64, device_eps: f64) -> f64 {
        edges as f64 / device_eps.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EPYC_7763;

    fn workload() -> WorkloadStats {
        WorkloadStats {
            batch_size: 4096,
            input_nodes: 800_000,
            nodes_per_layer: vec![100_000, 4096],
            edges_per_layer: vec![1_000_000, 102_400],
        }
    }

    #[test]
    fn loader_scales_then_saturates() {
        let m = LoaderModel::new(EPYC_7763, 2);
        let t4 = m.load_time(&workload(), 128, 4);
        let t16 = m.load_time(&workload(), 128, 16);
        assert!(t16 < t4, "more threads should speed loading");
        // far past saturation there is no further gain
        let sat = m.saturation_threads();
        let a = m.load_time(&workload(), 128, sat);
        let b = m.load_time(&workload(), 128, sat * 4);
        assert!((a - b).abs() < 1e-12, "beyond saturation must be flat");
    }

    #[test]
    fn saturation_point_reasonable() {
        let m = LoaderModel::new(EPYC_7763, 2);
        let sat = m.saturation_threads();
        // 246 GB/s / 3 GB/s = 82 threads
        assert!(sat > 40 && sat < 128, "saturation at {sat}");
    }

    #[test]
    fn eq7_form() {
        let m = LoaderModel::new(EPYC_7763, 2);
        let w = workload();
        let t = m.load_time(&w, 128, 1_000_000); // fully saturated
        let bytes = w.feature_bytes(128) as f64;
        let bw = 205e9 * 2.0 * calib::CPU_GATHER_BW_FRACTION;
        assert!((t - bytes / bw).abs() / t < 1e-9);
    }

    #[test]
    fn sampler_linear_in_threads() {
        let s = SamplerModel::default();
        let t1 = s.sample_time(10_000_000, 1);
        let t8 = s.sample_time(10_000_000, 8);
        assert!((t1 / t8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn accel_sampling() {
        let s = SamplerModel::default();
        let t = s.accel_sample_time(400_000_000, calib::GPU_SAMPLE_EPS);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
