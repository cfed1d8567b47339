//! Discrete-event simulation of the 4-stage training pipeline.
//!
//! The analytic iteration-time model (Eq. 6, [`crate::stages`]) assumes a
//! perfectly overlapped steady state. This module simulates the pipeline
//! *exactly*: each iteration's mini-batches flow through Sampling →
//! Feature Loading → Data Transfer → GNN Propagation(+sync) with a
//! bounded prefetch queue between stages (paper Fig. 7: while the
//! accelerator executes batch 1, batch 2 is in flight on PCIe and batch
//! 3 is being loaded). It reproduces the pipeline-fill/drain overhead the
//! paper names as a §VI-C prediction-error source, and verifies that the
//! steady-state latency equals `max(stage times)`.

use crate::stages::StageTimes;

/// Per-iteration stage latencies fed to the simulator (one entry per
/// iteration; reuse one value for homogeneous epochs).
#[derive(Debug, Clone, Copy)]
pub struct PipelineStageCosts {
    /// Sampling time (CPU/accelerator samplers overlapped).
    pub sample: f64,
    /// Feature-loading time (CPU DRAM).
    pub load: f64,
    /// PCIe transfer time.
    pub transfer: f64,
    /// Propagation + synchronization time.
    pub propagate: f64,
}

impl PipelineStageCosts {
    /// Extract pipeline costs from measured stage times.
    pub fn from_stage_times(t: &StageTimes) -> Self {
        Self {
            sample: t.sampling(),
            load: t.load,
            transfer: t.transfer,
            propagate: t.propagation(),
        }
    }

    /// Extract pipeline costs from *measured host wall-clock* stage
    /// times (see [`crate::report::WallStageTimes`]). This lets the
    /// discrete-event simulator predict what the real prefetching
    /// executor should achieve at a given depth — the bench harness
    /// compares that prediction against the measured epoch wall.
    pub fn from_wall(w: &crate::report::WallStageTimes) -> Self {
        Self {
            sample: w.sample_s,
            load: w.load_s,
            transfer: w.transfer_s,
            propagate: w.train_s,
        }
    }

    fn as_array(&self) -> [f64; 4] {
        [self.sample, self.load, self.transfer, self.propagate]
    }

    /// The steady-state bound: slowest stage (Eq. 6).
    pub fn bottleneck(&self) -> f64 {
        self.as_array().into_iter().fold(0.0, f64::max)
    }

    /// Serial execution (no prefetching).
    pub fn serial(&self) -> f64 {
        self.as_array().into_iter().sum()
    }
}

/// Result of simulating an epoch through the pipeline.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Total makespan of the epoch, seconds.
    pub makespan: f64,
    /// Completion time of every iteration's propagation stage.
    pub completions: Vec<f64>,
    /// Steady-state inter-completion gap (last two iterations).
    pub steady_gap: f64,
}

/// Simulate `iterations` identical iterations through the 4-stage
/// pipeline.
///
/// * `depth` is the prefetch look-ahead in batches per stage: `0`
///   serializes everything (the no-TFP configuration), `1` is classic
///   double buffering, the paper's two-stage scheme is `depth ≥ 2`.
/// * `lane_transfer[a]` is accelerator `a`'s wire time per iteration;
///   it replaces `costs.transfer`, which is ignored. Pass
///   `&[costs.transfer]` to model one aggregate transfer stage.
/// * `concurrent_lanes` is how many of those round-trips may run at
///   once. The real producer fans them out across the loader pool, one
///   matrix per fan-out lane, so the stage's per-iteration occupancy is
///   modeled as the work-conserving bound `max(longest lane, Σ lanes /
///   cap)` — monotone non-increasing in the cap. `1` pays the *sum* of
///   the lane times, a cap ≥ the lane count pays the *max*.
/// * `ring_depth` is the per-accelerator staging-ring depth between
///   the transfer and propagation stages: the transfer of iteration `i`
///   may not start before the propagation of iteration `i - ring_depth`
///   has completed (its staging slot is still occupied). `1` is a
///   single staging buffer — transfer and propagation serialize; `2` is
///   the double-buffered arrangement where transfer of batch `i+1`
///   hides behind compute of batch `i`; `0` means unbounded staging (no
///   slot gate).
#[allow(clippy::needless_range_loop)] // gates read finished[i - k]
pub fn simulate_pipeline(
    costs: &PipelineStageCosts,
    lane_transfer: &[f64],
    iterations: usize,
    depth: usize,
    ring_depth: usize,
    concurrent_lanes: usize,
) -> PipelineRun {
    assert!(iterations > 0, "need at least one iteration");
    let cap = concurrent_lanes.max(1).min(lane_transfer.len().max(1));
    // Work-conserving occupancy of the transfer stage per iteration:
    // `cap` fan-out lanes serve the round-trips greedily, so the stage
    // can finish no earlier than its longest single round-trip and no
    // earlier than the total wire work spread over the lanes.
    let total: f64 = lane_transfer.iter().sum();
    let longest = lane_transfer.iter().copied().fold(0.0f64, f64::max);
    let transfer_occupancy = longest.max(total / cap as f64);
    let pre = [costs.sample, costs.load];
    let mut completions = Vec::with_capacity(iterations);
    let mut finished = vec![0.0f64; iterations];

    if depth == 0 {
        // serial (no-TFP) execution: every stage back to back, the
        // transfer stage charged its total wire work
        let serial_iter = costs.sample + costs.load + total + costs.propagate;
        let mut clock = 0.0;
        for i in 0..iterations {
            clock += serial_iter;
            finished[i] = clock;
            completions.push(clock);
        }
    } else {
        let mut pre_free = [0.0f64; 2];
        let mut transfer_free = 0.0f64;
        let mut prop_free = 0.0f64;
        for i in 0..iterations {
            let gate = if i > depth {
                finished[i - depth - 1]
            } else {
                0.0
            };
            let mut batch_ready = gate;
            for (s, &cost) in pre.iter().enumerate() {
                let start = batch_ready.max(pre_free[s]);
                let end = start + cost;
                pre_free[s] = end;
                batch_ready = end;
            }
            // Transfer: the round-trips may start once the batch is
            // gathered, the previous iteration's round-trips are done,
            // and the staging slots are released (iteration
            // i - ring_depth finished propagation).
            let mut start = batch_ready.max(transfer_free);
            if ring_depth > 0 && i >= ring_depth {
                start = start.max(finished[i - ring_depth]);
            }
            let transfer_done = start + transfer_occupancy;
            transfer_free = transfer_done;
            let start = transfer_done.max(prop_free);
            let end = start + costs.propagate;
            prop_free = end;
            finished[i] = end;
            completions.push(end);
        }
    }

    let steady_gap = if iterations >= 2 {
        completions[iterations - 1] - completions[iterations - 2]
    } else {
        completions[0]
    };
    PipelineRun {
        makespan: completions[iterations - 1],
        completions,
        steady_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(sample: f64, load: f64, transfer: f64, propagate: f64) -> PipelineStageCosts {
        PipelineStageCosts {
            sample,
            load,
            transfer,
            propagate,
        }
    }

    /// One aggregate transfer stage (`costs.transfer` as the only lane)
    /// behind staging rings of `ring_depth` slots (0 = unbounded).
    fn ringed(
        c: &PipelineStageCosts,
        iterations: usize,
        depth: usize,
        ring_depth: usize,
    ) -> PipelineRun {
        simulate_pipeline(c, &[c.transfer], iterations, depth, ring_depth, 1)
    }

    /// Reference implementation: the four stages as one generic loop,
    /// with the staging-slot gate on the transfer stage. The lane model
    /// in [`simulate_pipeline`] must reproduce it exactly at one lane.
    #[allow(clippy::needless_range_loop)] // gates read finished[i - k]
    fn oracle(
        costs: &PipelineStageCosts,
        iterations: usize,
        depth: usize,
        ring_depth: usize,
    ) -> PipelineRun {
        const TRANSFER_STAGE: usize = 2;
        let stage_costs = costs.as_array();
        let mut stage_free = [0.0f64; 4];
        let mut completions = Vec::with_capacity(iterations);
        let mut finished = vec![0.0f64; iterations];
        if depth == 0 {
            let mut clock = 0.0;
            for i in 0..iterations {
                clock += costs.serial();
                finished[i] = clock;
                completions.push(clock);
            }
        } else {
            for i in 0..iterations {
                // iteration i may not enter the pipeline before
                // iteration i - depth - 1 has fully completed
                let mut batch_ready = if i > depth {
                    finished[i - depth - 1]
                } else {
                    0.0
                };
                for (s, &cost) in stage_costs.iter().enumerate() {
                    let mut start = batch_ready.max(stage_free[s]);
                    if s == TRANSFER_STAGE && ring_depth > 0 && i >= ring_depth {
                        // the staging slot frees when iteration
                        // i - ring_depth finishes its propagation
                        start = start.max(finished[i - ring_depth]);
                    }
                    let end = start + cost;
                    stage_free[s] = end;
                    batch_ready = end;
                }
                finished[i] = batch_ready;
                completions.push(batch_ready);
            }
        }
        let steady_gap = if iterations >= 2 {
            completions[iterations - 1] - completions[iterations - 2]
        } else {
            completions[0]
        };
        PipelineRun {
            makespan: completions[iterations - 1],
            completions,
            steady_gap,
        }
    }

    #[test]
    fn steady_state_equals_bottleneck() {
        // The analytic Eq. 6 claim, verified by event simulation.
        let c = costs(1.0, 2.0, 5.0, 3.0);
        let run = ringed(&c, 50, 2, 0);
        assert!(
            (run.steady_gap - c.bottleneck()).abs() < 1e-9,
            "steady gap {} vs bottleneck {}",
            run.steady_gap,
            c.bottleneck()
        );
    }

    #[test]
    fn serial_mode_sums_stages() {
        let c = costs(1.0, 2.0, 3.0, 4.0);
        let run = ringed(&c, 10, 0, 0);
        assert!((run.steady_gap - c.serial()).abs() < 1e-9);
        assert!((run.makespan - 10.0 * c.serial()).abs() < 1e-9);
    }

    #[test]
    fn fill_overhead_is_bounded_by_pipeline_depth() {
        let c = costs(1.0, 1.0, 1.0, 1.0);
        let n = 100;
        let run = ringed(&c, n, 3, 0);
        // steady state: 1s per iteration; fill adds the first batch's
        // full traversal (4s) minus one steady gap
        let ideal = n as f64 * c.bottleneck();
        let overhead = run.makespan - ideal;
        assert!(overhead > 0.0, "pipelines must pay a fill cost");
        assert!(
            overhead <= c.serial(),
            "fill overhead {overhead} exceeds one full traversal"
        );
    }

    #[test]
    fn deeper_prefetch_never_hurts() {
        let c = costs(2.0, 1.0, 4.0, 3.0);
        let d1 = ringed(&c, 30, 1, 0).makespan;
        let d2 = ringed(&c, 30, 2, 0).makespan;
        let d4 = ringed(&c, 30, 4, 0).makespan;
        assert!(d2 <= d1 + 1e-9);
        assert!(d4 <= d2 + 1e-9);
    }

    #[test]
    fn pipelined_beats_serial() {
        let c = costs(1.0, 1.5, 2.0, 2.5);
        let serial = ringed(&c, 20, 0, 0).makespan;
        let piped = ringed(&c, 20, 2, 0).makespan;
        assert!(
            piped < serial * 0.5,
            "pipelining too weak: {piped} vs {serial}"
        );
    }

    #[test]
    fn completions_monotone() {
        let c = costs(0.5, 2.0, 1.0, 0.25);
        let run = ringed(&c, 25, 2, 0);
        assert!(run.completions.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(run.completions.len(), 25);
    }

    #[test]
    fn from_stage_times_maps_fields() {
        let t = StageTimes {
            sample_cpu: 1.0,
            sample_accel: 2.0,
            load: 3.0,
            transfer: 4.0,
            train_cpu: 5.0,
            train_accel: 6.0,
            sync: 0.5,
        };
        let c = PipelineStageCosts::from_stage_times(&t);
        assert_eq!(c.sample, 2.0);
        assert_eq!(c.load, 3.0);
        assert_eq!(c.transfer, 4.0);
        assert_eq!(c.propagate, 6.5);
        assert_eq!(c.bottleneck(), 6.5);
    }

    #[test]
    fn from_wall_maps_measured_stages() {
        let w = crate::report::WallStageTimes {
            sample_s: 0.5,
            load_s: 1.5,
            transfer_s: 0.25,
            train_s: 2.0,
            iter_s: 4.25,
            ..Default::default()
        };
        let c = PipelineStageCosts::from_wall(&w);
        assert_eq!(c.sample, 0.5);
        assert_eq!(c.load, 1.5);
        assert_eq!(c.transfer, 0.25);
        assert_eq!(c.propagate, 2.0);
        assert!((c.serial() - w.serial_sum()).abs() < 1e-12);
    }

    #[test]
    fn single_iteration() {
        let c = costs(1.0, 1.0, 1.0, 1.0);
        let run = ringed(&c, 1, 2, 0);
        assert!((run.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_staging_buffer_serializes_transfer_with_propagation() {
        // transfer 2s, propagate 3s: with one slot the steady cadence is
        // their sum; the pipeline can't hide the wire time at all.
        let c = costs(0.1, 0.1, 2.0, 3.0);
        let run = ringed(&c, 40, 4, 1);
        assert!(
            (run.steady_gap - 5.0).abs() < 1e-9,
            "ring-1 steady gap {} should be transfer + propagate",
            run.steady_gap
        );
    }

    #[test]
    fn double_buffer_hides_transfer_when_compute_dominates() {
        // compute-bound, then transfer-bound (compute 0.04 s < wire
        // 0.1 s: the gap is the wire time, the compute hides instead)
        for c in [costs(0.1, 0.1, 2.0, 3.0), costs(0.0, 0.0, 0.1, 0.04)] {
            let ring2 = ringed(&c, 40, 4, 2);
            // double buffering recovers the idealized bottleneck bound
            assert!(
                (ring2.steady_gap - c.bottleneck()).abs() < 1e-9,
                "ring-2 steady gap {} vs bottleneck {}",
                ring2.steady_gap,
                c.bottleneck()
            );
            let ring1 = ringed(&c, 40, 4, 1);
            assert!(
                ring2.makespan < ring1.makespan,
                "deeper ring must hide transfer time: {} vs {}",
                ring2.makespan,
                ring1.makespan
            );
        }
    }

    #[test]
    fn deep_ring_matches_unbounded_staging() {
        // a ring at least as deep as the prefetch window changes nothing
        let c = costs(1.0, 2.0, 5.0, 3.0);
        let unbounded = ringed(&c, 30, 2, 0);
        let deep = ringed(&c, 30, 2, 30);
        assert_eq!(unbounded.completions, deep.completions);
    }

    #[test]
    fn multilane_single_lane_matches_ringed() {
        // one accelerator: the lane model degenerates to the four-stage
        // reference loop, whatever the concurrency cap
        let c = costs(0.5, 0.5, 0.0, 2.0);
        for depth in [0usize, 2, 3] {
            for ring in [0usize, 1, 2] {
                let reference = {
                    let mut cr = c;
                    cr.transfer = 1.5;
                    oracle(&cr, 25, depth, ring)
                };
                for cap in [1usize, 2, 8] {
                    let lane = simulate_pipeline(&c, &[1.5], 25, depth, ring, cap);
                    assert_eq!(
                        reference.completions, lane.completions,
                        "depth {depth} ring {ring} cap {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn multilane_concurrency_beats_serialized_when_transfer_bound() {
        // two transfer-bound lanes (wire 2s each vs 0.5s compute): the
        // serialized transfer thread pays 4s per iteration, concurrent
        // lanes pay 2s — strictly smaller wall
        let c = costs(0.2, 0.2, 0.0, 0.5);
        let lanes = [2.0f64, 2.0];
        let serialized = simulate_pipeline(&c, &lanes, 30, 2, 2, 1);
        let concurrent = simulate_pipeline(&c, &lanes, 30, 2, 2, 2);
        assert!(
            concurrent.makespan < serialized.makespan - 1e-9,
            "concurrent lanes must beat the single transfer thread: {} vs {}",
            concurrent.makespan,
            serialized.makespan
        );
        // steady state: serialized gap = sum of lanes, concurrent = max
        assert!((serialized.steady_gap - 4.0).abs() < 1e-9);
        assert!((concurrent.steady_gap - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multilane_cap_is_monotone_and_bounded() {
        let c = costs(0.3, 0.3, 0.0, 0.8);
        let lanes = [1.0f64, 0.7, 1.3, 0.9];
        let mut prev = f64::INFINITY;
        for cap in 1..=4 {
            let run = simulate_pipeline(&c, &lanes, 25, 3, 2, cap);
            assert!(
                run.makespan <= prev + 1e-9,
                "cap {cap} regressed: {} vs {prev}",
                run.makespan
            );
            prev = run.makespan;
        }
        // a cap beyond the lane count changes nothing
        let at4 = simulate_pipeline(&c, &lanes, 25, 3, 2, 4).makespan;
        let at16 = simulate_pipeline(&c, &lanes, 25, 3, 2, 16).makespan;
        assert_eq!(at4, at16);
        // completions stay monotone
        let run = simulate_pipeline(&c, &lanes, 25, 3, 2, 2);
        assert!(run.completions.windows(2).all(|w| w[1] >= w[0]));

        // Regression: the lane mix that breaks any static lane→thread
        // binning. [3,1,1,3] round-robined over 3 threads would load
        // them [3+3, 1, 1] — *worse* than 2 threads' [3+1, 1+3]. The
        // work-conserving gate model must keep cap 3 ≤ cap 2.
        let skewed = [3.0f64, 1.0, 1.0, 3.0];
        let mut prev = f64::INFINITY;
        for cap in 1..=4 {
            let m = simulate_pipeline(&c, &skewed, 25, 3, 2, cap).makespan;
            assert!(
                m <= prev + 1e-9,
                "skewed lanes: cap {cap} regressed ({m} vs {prev})"
            );
            prev = m;
        }
    }

    #[test]
    fn multilane_serial_depth_sums_all_lanes() {
        // depth 0 charges the summed wire work whatever the cap
        let c = costs(0.5, 0.5, 0.0, 1.0);
        let lanes = [1.0f64, 2.0];
        let a = simulate_pipeline(&c, &lanes, 10, 0, 2, 1);
        let b = simulate_pipeline(&c, &lanes, 10, 0, 2, 2);
        assert_eq!(a.completions, b.completions);
        assert!((a.steady_gap - 5.0).abs() < 1e-9);
    }

    #[test]
    fn multilane_ring_gate_still_binds() {
        // transfer-bound symmetric lanes at ring depth 1 serialize each
        // lane's wire with propagation even when lanes are concurrent
        let c = costs(0.1, 0.1, 0.0, 3.0);
        let lanes = [2.0f64, 2.0];
        let ring1 = simulate_pipeline(&c, &lanes, 40, 4, 1, 2);
        let ring2 = simulate_pipeline(&c, &lanes, 40, 4, 2, 2);
        assert!(
            (ring1.steady_gap - 5.0).abs() < 1e-9,
            "{}",
            ring1.steady_gap
        );
        assert!(
            (ring2.steady_gap - 3.0).abs() < 1e-9,
            "{}",
            ring2.steady_gap
        );
    }

    #[test]
    fn ring_depth_monotone() {
        let c = costs(0.5, 0.5, 3.0, 2.0);
        let m1 = ringed(&c, 25, 3, 1).makespan;
        let m2 = ringed(&c, 25, 3, 2).makespan;
        let m3 = ringed(&c, 25, 3, 3).makespan;
        assert!(m2 <= m1 + 1e-9);
        assert!(m3 <= m2 + 1e-9);
    }
}
