//! §VI-C fidelity: the design-time performance model's prediction must
//! stay within a sane error band of the runtime simulation (the paper
//! reports 5–14 % average error on the FPGA platform), and the model's
//! qualitative predictions (Fig. 9 trends) must hold.

use hyscale::core::{AcceleratorKind, HybridTrainer, PerfModel, SystemConfig};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::{DatasetSpec, MAG240M_HOMO, OGBN_PAPERS100M, OGBN_PRODUCTS};
use hyscale::graph::features::Splits;

#[test]
fn prediction_error_within_band_on_functional_run() {
    // scaled functional run vs prediction targeted at the same stand-in
    let mut dataset = MAG240M_HOMO.materialize(8000, 42);
    dataset.splits = Splits::random(dataset.graph.num_vertices(), 0.6, 0.2, 7);
    let spec_scaled = DatasetSpec {
        num_vertices: dataset.graph.num_vertices() as u64,
        num_edges: dataset.graph.num_edges(),
        ..MAG240M_HOMO
    };
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    cfg.train.batch_per_trainer = 256;
    cfg.train.max_functional_iters = Some(3);
    let pm = PerfModel::new(&cfg);
    let predicted = pm.predict_epoch_time(&spec_scaled);
    let mut trainer = HybridTrainer::new(cfg, dataset);
    let actual = trainer.train_epoch().epoch_time_s;
    let err = (predicted - actual).abs() / actual;
    assert!(
        err < 0.35,
        "perf-model error {:.1}% (predicted {predicted:.3}s, actual {actual:.3}s)",
        err * 100.0
    );
}

#[test]
fn scalability_trends_match_fig9() {
    let counts = [1usize, 2, 4, 8, 16];
    let gcn = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&gcn);
    // products+GCN scales worst (PCIe-transfer bound, paper §VI-D)
    let s_products = pm.scalability(&OGBN_PRODUCTS, &counts);
    let s_papers = pm.scalability(&OGBN_PAPERS100M, &counts);
    let s_mag = pm.scalability(&MAG240M_HOMO, &counts);
    for s in [&s_products, &s_papers, &s_mag] {
        assert!((s[0].1 - 1.0).abs() < 1e-9);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.98, "speedup must not regress: {s:?}");
        }
        // saturation: 16 accelerators never reach linear speedup
        assert!(s[4].1 < 16.0);
    }
    let best16 = s_papers[4].1.max(s_mag[4].1);
    assert!(
        s_products[4].1 <= best16 * 1.15,
        "products+GCN should scale no better than the large graphs: {:.2} vs {:.2}",
        s_products[4].1,
        best16
    );
}

/// Per-lane transfer model: with ≥ 2 accelerators in a transfer-bound
/// regime, concurrent per-accelerator round-trips must predict a
/// *strictly* smaller epoch wall than one round-trip at a time (which
/// pays the sum of the lane times per iteration); with 1 accelerator the
/// concurrency cap must not matter at all.
#[test]
fn concurrent_lanes_beat_serialized_transfer_when_transfer_bound() {
    use hyscale::core::pipeline::{simulate_pipeline, PipelineStageCosts};

    // products + GCN is the paper's PCIe-bound regime (§VI-D); the
    // model's own per-lane wire times drive the comparison
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&cfg);
    let (split, threads) = pm.initial_mapping(&OGBN_PRODUCTS);
    let times = pm.stage_times(&OGBN_PRODUCTS, &split, &threads);
    let lane_times = pm.lane_transfer_times(&OGBN_PRODUCTS, &split);
    assert!(lane_times.len() >= 2, "paper node has 4 accelerators");

    let costs = PipelineStageCosts {
        sample: times.sampling(),
        load: times.load,
        transfer: 0.0, // replaced by the lane times below
        propagate: times.propagation(),
    };
    // transfer-bound for the serialized thread: the summed wire time
    // exceeds every other stage
    let summed: f64 = lane_times.iter().sum();
    assert!(
        summed > costs.sample && summed > costs.load && summed > costs.propagate,
        "fixture is not transfer-bound: sum {summed} vs {costs:?}"
    );

    let n = 40;
    for (depth, ring) in [(2usize, 2usize), (3, 2), (2, 1)] {
        let serialized = simulate_pipeline(&costs, &lane_times, n, depth, ring, 1).makespan;
        let concurrent =
            simulate_pipeline(&costs, &lane_times, n, depth, ring, lane_times.len()).makespan;
        assert!(
            concurrent < serialized - 1e-9,
            "depth {depth} ring {ring}: concurrent lanes must strictly beat the \
             serialized transfer thread when ≥2 lanes are transfer-bound: \
             {concurrent} vs {serialized}"
        );
    }

    // 1 accelerator: lane concurrency is vacuous — caps 1 and 4 must
    // agree exactly
    let mut cfg1 = cfg.clone();
    cfg1.platform.num_accelerators = 1;
    let pm1 = PerfModel::new(&cfg1);
    let (split1, threads1) = pm1.initial_mapping(&OGBN_PRODUCTS);
    let times1 = pm1.stage_times(&OGBN_PRODUCTS, &split1, &threads1);
    let lanes1 = pm1.lane_transfer_times(&OGBN_PRODUCTS, &split1);
    assert_eq!(lanes1.len(), 1);
    let costs1 = PipelineStageCosts {
        sample: times1.sampling(),
        load: times1.load,
        transfer: lanes1[0],
        propagate: times1.propagation(),
    };
    let one = simulate_pipeline(&costs1, &lanes1, n, 2, 2, 1);
    let four = simulate_pipeline(&costs1, &lanes1, n, 2, 2, 4);
    assert_eq!(
        one.completions, four.completions,
        "a single accelerator's wall must not depend on the concurrency cap"
    );
}

#[test]
fn throughput_metric_is_consistent() {
    // Eq. 5: MTEPS must equal edges/iteration / iteration-time
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
    let pm = PerfModel::new(&cfg);
    let mteps = pm.throughput_mteps(&OGBN_PAPERS100M);
    assert!(mteps > 1.0, "implausible throughput {mteps}");
    // more accelerators => more throughput
    let mut cfg8 = cfg.clone();
    cfg8.platform.num_accelerators = 8;
    let pm8 = PerfModel::new(&cfg8);
    assert!(pm8.throughput_mteps(&OGBN_PAPERS100M) > mteps);
}

#[test]
fn hidden_dim_raises_sync_and_model_cost() {
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&cfg);
    let small = pm.model_bytes(&OGBN_PRODUCTS);
    cfg.train.hidden_dim = 512;
    let pm_big = PerfModel::new(&cfg);
    assert!(pm_big.model_bytes(&OGBN_PRODUCTS) > small);
}
