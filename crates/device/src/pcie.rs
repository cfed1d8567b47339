//! PCIe link model.
//!
//! Each accelerator hangs off a processor via PCIe (paper Fig. 2); the
//! performance model charges transfers at effective burst bandwidth
//! (Eq. 8) and the all-reduce at two crossings (Eq. 13).

use crate::calib;

/// A point-to-point PCIe link with effective bandwidth and fixed latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Effective burst bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Per-transfer latency, seconds.
    pub latency_s: f64,
}

impl Default for PcieLink {
    fn default() -> Self {
        Self {
            bandwidth_gbs: calib::PCIE_EFF_BW_GBS,
            latency_s: calib::PCIE_LATENCY_S,
        }
    }
}

impl PcieLink {
    /// A link with explicit parameters.
    pub fn new(bandwidth_gbs: f64, latency_s: f64) -> Self {
        assert!(bandwidth_gbs > 0.0);
        Self {
            bandwidth_gbs,
            latency_s,
        }
    }

    /// Time to move `bytes` across the link (paper Eq. 8).
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }

    /// All-reduce time for a model of `bytes`: gather + broadcast crosses
    /// the link twice (paper Eq. 13).
    pub fn allreduce_time(&self, bytes: u64) -> f64 {
        2.0 * self.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(PcieLink::default().transfer_time(0), 0.0);
    }

    #[test]
    fn bandwidth_term_dominates_large_transfers() {
        let link = PcieLink::new(10.0, 1e-6);
        // 1 GB at 10 GB/s = 0.1 s
        let t = link.transfer_time(1_000_000_000);
        assert!((t - 0.1000010).abs() < 1e-6);
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let link = PcieLink::new(10.0, 1e-5);
        let t = link.transfer_time(100);
        assert!(t > 1e-5 && t < 2e-5);
    }

    #[test]
    fn allreduce_is_two_crossings() {
        let link = PcieLink::default();
        let b = 1_000_000;
        assert!((link.allreduce_time(b) - 2.0 * link.transfer_time(b)).abs() < 1e-12);
    }

    #[test]
    fn eq8_matches_paper_form() {
        // T_trans = |V0| * f0 * S_feat / BW_PCIe
        let link = PcieLink::new(12.0, 0.0);
        let v0 = 290_000u64;
        let f0 = 128u64;
        let bytes = v0 * f0 * 4;
        let expect = bytes as f64 / 12e9;
        assert!((link.transfer_time(bytes) - expect).abs() < 1e-9);
    }
}
