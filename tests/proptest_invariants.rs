//! Property-based tests over the core data structures and kernels,
//! plus the randomized DRM-schedule equivalence harness: arbitrary
//! interleavings of `balance_work` / `balance_thread` / no-op events
//! must leave prefetched training bitwise-identical to serial.

use hyscale::core::drm::{DrmEngine, ScriptedDrm, ScriptedDrmEvent, ThreadAlloc, WorkloadSplit};
use hyscale::core::stages::Stage;
use hyscale::core::StageTimes;
use hyscale::core::{AcceleratorKind, HybridTrainer, OptFlags, SystemConfig};
use hyscale::gnn::aggregate::{
    aggregate_gcn, aggregate_gcn_backward, aggregate_mean, aggregate_mean_backward, GcnCoefficients,
};
use hyscale::gnn::Gradients;
use hyscale::graph::{CsrGraph, GraphBuilder};
use hyscale::sampler::{Block, NeighborSampler};
use hyscale::tensor::{gemm_nn, Matrix};
use proptest::prelude::*;

fn edge_list(max_v: usize, max_e: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_v).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..max_e);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR construction preserves the edge multiset.
    #[test]
    fn csr_preserves_edges((n, edges) in edge_list(64, 200)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.num_edges() as usize, edges.len());
        let mut expect = edges.clone();
        expect.sort_unstable();
        let mut got = g.edges_by_source();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
        g.validate().unwrap();
    }

    /// Reversing twice restores the edge multiset.
    #[test]
    fn reverse_is_involution((n, edges) in edge_list(48, 150)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let rr = g.reverse().reverse();
        let mut a = g.edges_by_source();
        let mut b = rr.edges_by_source();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Symmetrize yields a graph equal to its own reverse.
    #[test]
    fn symmetrize_is_symmetric((n, edges) in edge_list(32, 100)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap().symmetrize();
        let mut a = g.edges_by_source();
        let mut b = g.reverse().edges_by_source();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Builder dedup produces strictly unique edges.
    #[test]
    fn builder_dedup_unique((n, edges) in edge_list(32, 150)) {
        let mut b = GraphBuilder::new(n).dedup(true);
        b.add_edges(edges);
        let g = b.build().unwrap();
        let mut e = g.edges_by_source();
        let before = e.len();
        e.dedup();
        prop_assert_eq!(e.len(), before, "duplicate edges survived");
    }

    /// Sampled mini-batches always satisfy the structural invariants and
    /// fanout bounds, for arbitrary graphs/fanouts/seeds.
    #[test]
    fn sampler_output_always_valid(
        (n, edges) in edge_list(80, 400),
        fanout1 in 1usize..8,
        fanout2 in 1usize..8,
        seed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let sampler = NeighborSampler::new(vec![fanout1, fanout2], seed);
        let seeds: Vec<u32> = (0..(n as u32).min(9)).collect();
        let mb = sampler.sample(&g, &seeds, seed);
        mb.validate().unwrap();
        // per-destination fanout bound on the seed-side block
        let top = mb.blocks.last().unwrap();
        for (d, deg) in top.dst_in_degrees().iter().enumerate() {
            prop_assert!(*deg as usize <= fanout1.min(g.out_degree(seeds[d])));
        }
    }

    /// GEMM distributes over addition: (A+B)C == AC + BC.
    #[test]
    fn gemm_distributes(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, s in 0u64..100,
    ) {
        let a1 = hyscale::tensor::init::randn(m, k, s);
        let a2 = hyscale::tensor::init::randn(m, k, s ^ 1);
        let b = hyscale::tensor::init::randn(k, n, s ^ 2);
        let mut sum = a1.clone();
        sum.add_assign(&a2);
        let lhs = gemm_nn(&sum, &b);
        let mut rhs = gemm_nn(&a1, &b);
        rhs.add_assign(&gemm_nn(&a2, &b));
        prop_assert!(lhs.approx_eq(&rhs, 1e-3), "distributivity violated");
    }

    /// Aggregation adjoint identity <Cx, y> == <x, Cᵀy> on random blocks.
    #[test]
    fn aggregation_adjoint(
        num_src in 2usize..12,
        num_dst_raw in 1usize..12,
        edges_n in 0usize..30,
        f in 1usize..6,
        s in 0u64..100,
    ) {
        let num_dst = num_dst_raw.min(num_src);
        let edge_src: Vec<u32> = (0..edges_n).map(|i| ((i * 7 + s as usize) % num_src) as u32).collect();
        let edge_dst: Vec<u32> = (0..edges_n).map(|i| ((i * 11 + s as usize) % num_dst) as u32).collect();
        let block = Block { num_src, num_dst, edge_src, edge_dst };
        let x = hyscale::tensor::init::randn(num_src, f, s);
        let y = hyscale::tensor::init::randn(num_dst, f, s ^ 3);
        // GCN variant
        let coef = GcnCoefficients::from_block(&block);
        let cx = aggregate_gcn(&block, &x, &coef);
        let cty = aggregate_gcn_backward(&block, &y, &coef);
        let dot = |a: &Matrix, b: &Matrix| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(p, q)| (*p as f64) * (*q as f64)).sum()
        };
        prop_assert!((dot(&cx, &y) - dot(&x, &cty)).abs() < 1e-3);
        // mean variant
        let mx = aggregate_mean(&block, &x);
        let mty = aggregate_mean_backward(&block, &y);
        prop_assert!((dot(&mx, &y) - dot(&x, &mty)).abs() < 1e-3);
    }

    /// Weighted gradient averaging is convex: every averaged entry lies
    /// within the min/max envelope of the inputs.
    #[test]
    fn weighted_average_is_convex(
        v1 in -5.0f32..5.0, v2 in -5.0f32..5.0,
        b1 in 1usize..100, b2 in 1usize..100,
    ) {
        let g = |v: f32, b: usize| Gradients {
            d_weights: vec![Matrix::full(2, 2, v)],
            d_biases: vec![vec![v; 2]],
            batch_size: b,
        };
        let avg = Gradients::weighted_average(&[g(v1, b1), g(v2, b2)]);
        let out = avg.d_weights[0][(0, 0)];
        prop_assert!(out >= v1.min(v2) - 1e-5 && out <= v1.max(v2) + 1e-5);
    }

    /// The FPGA kernel simulator matches the reference aggregation for
    /// arbitrary random blocks and coefficients, and its DRAM reads
    /// never exceed one row per distinct source.
    #[test]
    fn fpga_kernel_matches_reference_on_random_blocks(
        num_src in 2usize..16,
        num_dst_raw in 1usize..16,
        edges_n in 0usize..40,
        f in 1usize..8,
        s in 0u64..100,
    ) {
        use hyscale::device::fpga::kernel::{simulate_aggregation, FpgaKernelConfig};
        let num_dst = num_dst_raw.min(num_src);
        let edge_src: Vec<u32> =
            (0..edges_n).map(|i| ((i * 13 + s as usize) % num_src) as u32).collect();
        let edge_dst: Vec<u32> =
            (0..edges_n).map(|i| ((i * 17 + s as usize) % num_dst) as u32).collect();
        let block = Block { num_src, num_dst, edge_src, edge_dst };
        let h = hyscale::tensor::init::randn(num_src, f, s);
        let coef = GcnCoefficients::from_block(&block);
        let run = simulate_aggregation(
            &block, &h, &coef.edge, &coef.self_loop, &FpgaKernelConfig::default(), false,
        );
        let reference = aggregate_gcn(&block, &h, &coef);
        prop_assert!(run.result.approx_eq(&reference, 1e-4));
        // duplicator bound: at most one read per source row + self rows
        prop_assert!(run.dram_read_bytes <= ((num_src + num_dst) * f * 4) as u64);
    }

    /// Quantization round-trips stay within their precision's error
    /// envelope for arbitrary matrices.
    #[test]
    fn quantization_error_envelopes(rows in 1usize..10, cols in 1usize..20, s in 0u64..100) {
        use hyscale::tensor::Precision;
        let x = hyscale::tensor::init::randn(rows, cols, s);
        let f16 = Precision::F16.round_trip(&x);
        for (a, b) in x.as_slice().iter().zip(f16.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-3 * a.abs().max(6.2e-5), "f16: {a} vs {b}");
        }
        let i8rt = Precision::Int8.round_trip(&x);
        for r in 0..rows {
            let row = x.row(r);
            let (lo, hi) = row.iter().fold(
                (f32::INFINITY, f32::NEG_INFINITY),
                |(l, h), &v| (l.min(v), h.max(v)),
            );
            let step = (hi - lo) / 254.0;
            for (a, b) in row.iter().zip(i8rt.row(r)) {
                // + a relative term for f32 rounding on degenerate rows
                let tol = step + a.abs() * 1e-6 + 1e-7;
                prop_assert!((a - b).abs() <= tol, "int8: {a} vs {b} (tol {tol})");
            }
        }
        // wire ordering: int8 < f16 (once rows amortize the 8-byte
        // per-row metadata, i.e. cols > 8) < f32
        prop_assert!(
            Precision::Int8.wire_bytes(rows, cols) < Precision::F16.wire_bytes(rows, cols)
                || cols <= 8
        );
        prop_assert!(Precision::F16.wire_bytes(rows, cols) < Precision::F32.wire_bytes(rows, cols));
    }

    /// Degree-descending relabeling preserves degree multisets for any
    /// graph.
    #[test]
    fn relabeling_preserves_degrees((n, edges) in edge_list(40, 120)) {
        use hyscale::graph::reorder::Relabeling;
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let r = Relabeling::by_degree_desc(&g);
        let g2 = r.apply_graph(&g);
        let mut d1: Vec<usize> = (0..n as u32).map(|v| g.out_degree(v)).collect();
        let mut d2: Vec<usize> = (0..n as u32).map(|v| g2.out_degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    /// Edge-list text serialization round-trips any graph.
    #[test]
    fn edge_list_io_roundtrip((n, edges) in edge_list(32, 100)) {
        use hyscale::graph::io::{read_edge_list, write_edge_list};
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], Some(n)).unwrap();
        prop_assert_eq!(g.offsets(), g2.offsets());
        prop_assert_eq!(g.targets(), g2.targets());
    }

    /// Any sequence of DRM decisions conserves the seed total, the
    /// thread budget, and the sampling-share range.
    #[test]
    fn drm_invariants_under_random_times(
        times in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let drm = DrmEngine::new(true);
        let mut split = WorkloadSplit::new(512, 2048, 4);
        let mut threads = ThreadAlloc::default_for(64);
        let budget = threads.total();
        for (a, b, c, d, e, f) in times {
            let t = StageTimes {
                sample_cpu: a,
                sample_accel: b,
                load: c,
                transfer: d,
                train_cpu: e,
                train_accel: f,
                sync: 0.001,
            };
            drm.adjust(&t, &mut split, &mut threads);
            prop_assert_eq!(split.quotas().iter().sum::<usize>(), 2048);
            prop_assert_eq!(threads.total(), budget);
            prop_assert!(split.sampling_on_accel >= 0.0 && split.sampling_on_accel <= 1.0);
            prop_assert!(threads.sampler >= 1 && threads.loader >= 1 && threads.trainer >= 1);
        }
    }
}

/// Train two epochs of a small hybrid configuration under a scripted
/// DRM schedule, returning the flattened weights and per-epoch losses.
/// `loader` is the initial loader-pool width (of 16 threads), which is
/// also the producer's round-trip concurrency. Every run of this
/// function with the same `(depth, ring_depth, loader)` and schedule
/// must agree bitwise; runs with *different* depths and loader widths
/// must agree too — that is the property under test.
fn run_scheduled(
    depth: usize,
    ring_depth: usize,
    loader: usize,
    schedule: &[ScriptedDrmEvent],
) -> (Vec<f32>, Vec<f32>) {
    let ds = hyscale::graph::Dataset::toy(41);
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), hyscale::gnn::GnnKind::Gcn);
    cfg.platform.num_accelerators = 2;
    cfg.opt = OptFlags {
        hybrid: true,
        drm: false, // the script is the only source of re-mapping
        tfp: true,
    };
    cfg.train.batch_per_trainer = 32;
    cfg.train.fanouts = vec![4, 3];
    cfg.train.hidden_dim = 8;
    cfg.train.max_functional_iters = Some(6);
    cfg.train.prefetch_depth = depth;
    cfg.train.staging_ring_depth = ring_depth;
    let mut t = HybridTrainer::new(cfg, ds);
    let threads = ThreadAlloc {
        sampler: 4,
        loader,
        trainer: 12 - loader,
    };
    t.set_mapping(WorkloadSplit::new(32, 96, 2), threads);
    t.set_drm_schedule(schedule.to_vec());
    let reports = t.train_epochs(2);
    let losses = reports.iter().map(|r| r.loss).collect();
    (t.model().flatten_params(), losses)
}

proptest! {
    // Smoke-sized by default; the CI matrix deepens it with
    // PROPTEST_CASES=64 on main pushes.
    #![proptest_config(ProptestConfig::env_or(6))]

    /// The randomized DRM-schedule equivalence harness: a random
    /// interleaving of `balance_work` (random deltas, including
    /// explicit zero-diff moves), `balance_thread`, and no-op events at
    /// random iterations must train bitwise-identical weights and
    /// losses to serial execution for every initial loader width
    /// {1, 2, 4} × prefetch depth {1, 2} × staging-ring depth {1, 2}.
    /// This is what licenses the producer restart on a quota change to
    /// re-map mid-epoch, and the loader fan-out to re-time round-trips
    /// freely.
    #[test]
    fn random_drm_schedules_are_bitwise_equivalent(
        raw in prop::collection::vec(
            // (epoch, iter, kind, delta, from, to)
            (0u64..2, 0usize..6, 0u8..4, 0usize..80, 0u8..3, 0u8..3),
            0..8,
        ),
    ) {
        const STAGES: [Stage; 3] = [Stage::SampleCpu, Stage::Load, Stage::TrainCpu];
        let schedule: Vec<ScriptedDrmEvent> = raw
            .iter()
            .map(|&(epoch, iter, kind, delta, from, to)| {
                let action = match kind {
                    // random-magnitude work shift in either direction
                    // (the split clamps it, so some land as zero-diff)
                    0 => ScriptedDrm::BalanceWork { to_cpu: delta as isize - 40 },
                    // explicit zero-delta balance_work: must be a no-op
                    1 => ScriptedDrm::BalanceWork { to_cpu: 0 },
                    2 => ScriptedDrm::BalanceThread { from: STAGES[from as usize], to: STAGES[to as usize] },
                    _ => ScriptedDrm::Noop,
                };
                ScriptedDrmEvent { epoch, iter, action }
            })
            .collect();
        let (serial_params, serial_losses) = run_scheduled(0, 2, 4, &schedule);
        for loader in [1usize, 2, 4] {
            for ring_depth in [1usize, 2] {
                for depth in [1usize, 2] {
                    let (params, losses) = run_scheduled(depth, ring_depth, loader, &schedule);
                    prop_assert_eq!(
                        &serial_params, &params,
                        "loader {} depth {} ring {} diverged from serial under {:?}",
                        loader, depth, ring_depth, schedule
                    );
                    prop_assert_eq!(
                        &serial_losses, &losses,
                        "loader {} depth {} ring {} changed the loss trajectory under {:?}",
                        loader, depth, ring_depth, schedule
                    );
                }
            }
        }
    }
}

/// The lane-starvation script: a scripted schedule that repeatedly
/// slams nearly the whole batch onto the CPU trainer (leaving each
/// accelerator the 1-seed minimum — a fat CPU batch next to starved
/// accelerator round-trips) and then back, at the tightest pipeline
/// configuration (prefetch 1, ring 1) where the producer waits on a
/// staging slot every iteration. Bitwise equivalence with serial must
/// survive for every initial loader width, and so must a prefetch depth
/// deep enough for the queue to actually back up.
#[test]
fn lane_starvation_script_is_bitwise_equivalent() {
    let schedule: Vec<ScriptedDrmEvent> = vec![
        // slam to CPU: accel lanes drop to their 1-seed floor
        ScriptedDrmEvent {
            epoch: 0,
            iter: 1,
            action: ScriptedDrm::BalanceWork { to_cpu: 96 },
        },
        // and back toward the lanes
        ScriptedDrmEvent {
            epoch: 0,
            iter: 3,
            action: ScriptedDrm::BalanceWork { to_cpu: -96 },
        },
        // second epoch: slam and a zero-diff echo (coalescing no-op)
        ScriptedDrmEvent {
            epoch: 1,
            iter: 0,
            action: ScriptedDrm::BalanceWork { to_cpu: 96 },
        },
        ScriptedDrmEvent {
            epoch: 1,
            iter: 0,
            action: ScriptedDrm::BalanceWork { to_cpu: 0 },
        },
    ];
    let (serial_params, serial_losses) = run_scheduled(0, 2, 4, &schedule);
    for loader in [1usize, 2, 4] {
        for (depth, ring_depth) in [(1usize, 1usize), (2, 1), (2, 2)] {
            let (params, losses) = run_scheduled(depth, ring_depth, loader, &schedule);
            assert_eq!(
                serial_params, params,
                "starvation script: loader {loader} depth {depth} ring {ring_depth} \
                 diverged from serial"
            );
            assert_eq!(
                serial_losses, losses,
                "starvation script: loader {loader} depth {depth} ring {ring_depth} \
                 changed the loss trajectory"
            );
        }
    }
}
