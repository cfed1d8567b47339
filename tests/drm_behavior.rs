//! System-level DRM behaviour (paper §IV-A): starting from a bad task
//! mapping, Algorithm 1 must converge to a faster one while preserving
//! the per-iteration seed total and the CPU thread budget — and its two
//! move kinds must have the right effect on the prefetch producer: a
//! `balance_work` move that changes the quotas restarts it once (a
//! zero-diff move costs nothing), a `balance_thread` move restarts
//! nothing.

use hyscale::core::drm::{DrmEngine, ThreadAlloc, WorkloadSplit};
use hyscale::core::{AcceleratorKind, PerfModel, SystemConfig};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::{OGBN_PAPERS100M, OGBN_PRODUCTS};

fn settle(
    cfg: &SystemConfig,
    split: &mut WorkloadSplit,
    threads: &mut ThreadAlloc,
    iters: usize,
) -> (f64, f64) {
    let pm = PerfModel::new(cfg);
    let drm = DrmEngine::new(cfg.opt.hybrid);
    let first = pm
        .stage_times_runtime(&OGBN_PAPERS100M, split, threads)
        .pipelined_iteration();
    let mut best = first;
    for _ in 0..iters {
        let t = pm.stage_times_runtime(&OGBN_PAPERS100M, split, threads);
        drm.adjust(&t, split, threads);
        best = best.min(
            pm.stage_times_runtime(&OGBN_PAPERS100M, split, threads)
                .pipelined_iteration(),
        );
    }
    (first, best)
}

#[test]
fn drm_improves_bad_mapping() {
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    // pathological start: half the batch on the CPU trainer, starved
    // sampler threads
    let mut split = WorkloadSplit::new(2560, 5120, 4);
    let mut threads = ThreadAlloc {
        sampler: 2,
        loader: 2,
        trainer: 124,
    };
    let (first, best) = settle(&cfg, &mut split, &mut threads, 120);
    assert!(
        best < first * 0.7,
        "DRM failed to improve the mapping: {first:.5}s -> {best:.5}s"
    );
}

#[test]
fn drm_conserves_totals() {
    let cfg = SystemConfig::paper_default(AcceleratorKind::a5000(), GnnKind::GraphSage);
    let pm = PerfModel::new(&cfg);
    let drm = DrmEngine::new(true);
    let mut split = WorkloadSplit::new(1000, 5120, 4);
    let mut threads = ThreadAlloc::default_for(128);
    let thread_budget = threads.total();
    for _ in 0..60 {
        let t = pm.stage_times_runtime(&OGBN_PRODUCTS, &split, &threads);
        drm.adjust(&t, &mut split, &mut threads);
        assert_eq!(
            split.quotas().iter().sum::<usize>(),
            5120,
            "seed total changed — synchronous SGD semantics broken"
        );
        assert_eq!(threads.total(), thread_budget, "thread budget leaked");
        assert!(split.sampling_on_accel >= 0.0 && split.sampling_on_accel <= 1.0);
    }
}

#[test]
fn initial_mapping_is_coarse_but_sane() {
    // the paper's two-phase mapping story: the design-time mapping is
    // coarse; runtime DRM fine-tunes it. The coarse mapping should be
    // within a small factor of the settled optimum, and settling should
    // never make things worse.
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&cfg);
    let (mut split, mut threads) = pm.initial_mapping(&OGBN_PAPERS100M);
    let initial = pm
        .stage_times_runtime(&OGBN_PAPERS100M, &split, &threads)
        .pipelined_iteration();
    let (_, settled) = settle(&cfg, &mut split, &mut threads, 80);
    assert!(settled <= initial * 1.001, "DRM made the mapping worse");
    assert!(
        settled > initial * 0.2,
        "design-time mapping was absurdly far off: {initial:.5}s vs {settled:.5}s"
    );
}

#[test]
fn balance_thread_resizes_live_worker_pools() {
    // A DRM balance_thread decision must reach the rayon-shim worker
    // groups the real producer dispatches on — not only the simulated
    // StageTimes. Drive the engine with a loader-bottlenecked profile
    // and mirror its ThreadAlloc into StageWorkers, as the executor does.
    use hyscale::core::drm::DrmAction;
    use hyscale::core::stages::{Stage, StageTimes, StageWorkers};

    let engine = DrmEngine::new(true);
    let mut split = WorkloadSplit::new(1024, 5120, 4);
    let mut threads = ThreadAlloc {
        sampler: 10,
        loader: 10,
        trainer: 44,
    };
    let workers = StageWorkers::from_alloc(&threads);
    assert_eq!(workers.loader().width(), 10);

    // loader is the bottleneck, CPU sampler the fastest CPU task
    let times = StageTimes {
        sample_cpu: 0.05,
        sample_accel: 0.2,
        load: 3.0,
        transfer: 0.5,
        train_cpu: 1.0,
        train_accel: 0.5,
        sync: 0.0,
    };
    let action = engine.adjust(&times, &mut split, &mut threads);
    assert_eq!(
        action,
        DrmAction::BalanceThread {
            from: Stage::SampleCpu,
            to: Stage::Load
        }
    );
    workers.apply(&threads);
    assert_eq!(workers.loader().width(), 11, "loader pool not widened");
    assert_eq!(workers.sampler().width(), 9, "sampler pool not narrowed");
    assert_eq!(workers.observed(), threads);
    assert_eq!(
        workers.group(Stage::Load).unwrap().width(),
        threads.threads_for(Stage::Load)
    );
}

/// Build an [`IterationFeed`] over a toy dataset with `num_accel`
/// accelerator trainers, prefetch depth `depth`, and staging rings of
/// `ring_depth` slots, plus the quotas it was spawned under.
mod ring_fixture {
    use hyscale::core::drm::ThreadAlloc;
    use hyscale::core::stages::StageWorkers;
    use hyscale::core::{IterationFeed, MatrixPool, PrepareCtx, StagingRings};
    use hyscale::graph::Dataset;
    use hyscale::sampler::{EpochBatcher, NeighborSampler};
    use hyscale::tensor::Precision;
    use std::sync::Arc;
    use std::time::Instant;

    pub fn feed(num_accel: usize, depth: usize, ring_depth: usize) -> (IterationFeed, Vec<usize>) {
        let quotas = vec![8usize; 1 + num_accel];
        let dataset = Arc::new(Dataset::toy(5));
        let batcher = EpochBatcher::new(dataset.splits.train.clone(), 99);
        let order = Arc::new(batcher.epoch_order(0));
        let ctx = Arc::new(PrepareCtx {
            dataset,
            batcher,
            sampler: NeighborSampler::new(vec![4, 3], 17),
            precision: Precision::Int8,
            hybrid: true,
            workers: Arc::new(StageWorkers::from_alloc(&ThreadAlloc::default_for(8))),
            numa_domains: 2,
            rings: Arc::new(StagingRings::new(num_accel, ring_depth)),
            origin: Instant::now(),
        });
        let feed = IterationFeed::new(
            ctx,
            order,
            0,
            usize::MAX,
            depth,
            Arc::new(MatrixPool::new()),
            quotas.clone(),
        );
        (feed, quotas)
    }
}

/// `balance_work` semantics: the next request under changed quotas
/// restarts the producer once, and service continues under the new
/// quotas.
#[test]
fn balance_work_restarts_and_drains_every_lane() {
    let (mut feed, quotas) = ring_fixture::feed(2, 2, 2);
    let first = feed.obtain(0, &quotas).expect("first iteration");
    assert_eq!(first.slots.len(), 2, "one staging slot per accel batch");
    feed.recycle(first);
    assert_eq!(feed.restarts(), 0);

    // the DRM moves 4 seeds from accel trainer 1 (lane 0) to the CPU
    let new_quotas = vec![12usize, 4, 8];
    let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");
    assert_eq!(second.quotas, new_quotas);
    feed.recycle(second);
    assert_eq!(feed.restarts(), 1, "balance_work must restart the producer");

    // the reverse move restarts again
    let third = feed.obtain(2, &quotas).expect("post-restart iteration");
    assert_eq!(third.quotas, quotas);
    feed.recycle(third);
    assert_eq!(feed.restarts(), 2);
    let rings = std::sync::Arc::clone(feed.rings());
    feed.finish();
    assert_eq!(rings.in_flight_total(), 0, "slots leaked");
}

/// Train one epoch of a small hybrid configuration at prefetch depth 2
/// with the live DRM off and `schedule` as the only re-mapping source.
fn scripted_epoch(schedule: Vec<hyscale::core::ScriptedDrmEvent>) -> hyscale::core::EpochReport {
    use hyscale::core::{HybridTrainer, OptFlags};
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    cfg.platform.num_accelerators = 2;
    cfg.opt = OptFlags {
        hybrid: true,
        drm: false,
        tfp: true,
    };
    cfg.train.batch_per_trainer = 32;
    cfg.train.fanouts = vec![4, 3];
    cfg.train.hidden_dim = 8;
    cfg.train.max_functional_iters = Some(4);
    cfg.train.prefetch_depth = 2;
    let mut t = HybridTrainer::new(cfg, hyscale::graph::Dataset::toy(41));
    t.set_mapping(WorkloadSplit::new(32, 96, 2), ThreadAlloc::default_for(16));
    t.set_drm_schedule(schedule);
    t.train_epoch()
}

/// Two `balance_work` moves between the same pair of iterations reach
/// the producer as one request under the final quotas: one restart for
/// the pair. A pair that cancels out costs nothing.
#[test]
fn burst_of_moves_before_one_obtain_restarts_once() {
    use hyscale::core::{ScriptedDrm, ScriptedDrmEvent};
    let shift = |to_cpu: isize| ScriptedDrmEvent {
        epoch: 0,
        iter: 1,
        action: ScriptedDrm::BalanceWork { to_cpu },
    };
    let report = scripted_epoch(vec![shift(4), shift(4)]);
    assert_eq!(report.functional_iters, 4);
    assert_eq!(report.prefetch_restarts, 1, "a burst must pay one restart");
    assert_eq!(report.trace[2].cpu_quota, 40);

    let report = scripted_epoch(vec![shift(4), shift(-4)]);
    assert_eq!(report.prefetch_restarts, 0, "a cancelling burst restarted");
}

/// A `balance_work` whose new quotas equal the old is a complete no-op:
/// nothing flushed, no restart, no restart time — and
/// the feed keeps serving without a hiccup.
#[test]
fn zero_diff_balance_work_drains_nothing() {
    let (mut feed, quotas) = ring_fixture::feed(3, 2, 2);
    for iter in 0..=2 {
        let prep = feed.obtain(iter, &quotas).expect("iteration");
        assert_eq!(prep.iter, iter);
        feed.recycle(prep);
    }
    assert_eq!(feed.restarts(), 0, "equal quotas restarted the producer");
    assert_eq!(feed.batches_flushed(), 0, "equal quotas flushed work");
    assert_eq!(
        feed.restart_wall_s(),
        0.0,
        "a no-op re-map must not charge restart time"
    );
    feed.finish();
}

/// `balance_thread` semantics: re-sizing the worker pools — the loader
/// pool's width is also the round-trip concurrency — must leave the
/// staging rings intact: no restart, occupied staging slots
/// stay valid (widths change wall-clock, never bytes).
#[test]
fn balance_thread_leaves_staging_rings_intact() {
    let (mut feed, quotas) = ring_fixture::feed(2, 2, 2);
    let first = feed.obtain(0, &quotas).expect("first iteration");
    feed.recycle(first);
    assert!(feed.workers().observed().loader >= 1);

    let moved = ThreadAlloc {
        sampler: 2,
        loader: 4,
        trainer: 2,
    };
    feed.rebalance_threads(&moved);
    assert_eq!(feed.workers().observed(), moved);
    // the round-trip fan-out width followed the loader budget — a live
    // resize with no restart
    assert_eq!(
        feed.workers().observed().loader,
        4,
        "the loader pool must take the new budget"
    );
    assert_eq!(feed.restarts(), 0, "balance_thread must not restart");

    // prepared iterations keep flowing through the untouched rings,
    // including across a second loader-width change mid-stream
    for iter in 1..=3 {
        if iter == 2 {
            feed.rebalance_threads(&ThreadAlloc {
                sampler: 2,
                loader: 1,
                trainer: 5,
            });
            assert_eq!(feed.workers().observed().loader, 1, "loader narrowed live");
        }
        let prep = feed.obtain(iter, &quotas).expect("post-move iteration");
        assert_eq!(prep.slots.len(), 2);
        feed.recycle(prep);
    }
    assert_eq!(feed.restarts(), 0);
    let rings = std::sync::Arc::clone(feed.rings());
    feed.finish();
    assert_eq!(rings.in_flight_total(), 0, "slots leaked");
}

/// Lane starvation: the producer is wedged against a ring slot the
/// consumer still holds when a quota change arrives. The restart must
/// neither deadlock nor corrupt service.
#[test]
fn lane_starvation_survives_remap_without_deadlock() {
    // ring depth 1 + held slots: after iteration 0 is obtained (and NOT
    // recycled), both rings' single slots stay occupied, so the producer
    // gathers iteration 1 and then blocks taking its first staging slot.
    let (mut feed, quotas) = ring_fixture::feed(2, 1, 1);
    let held = feed.obtain(0, &quotas).expect("first iteration");
    assert_eq!(held.slots.len(), 2, "iteration 0 holds both rings' slots");
    // give the producer time to wedge against the held slots
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(
        feed.buffered(),
        0,
        "nothing can be queued while slots are held"
    );

    // release the held slots only after the producer fully wedged, then
    // request under moved quotas: the restart must shut it down cleanly
    feed.recycle(held);
    let new_quotas = vec![10usize, 6, 8];
    let next = feed
        .obtain(1, &new_quotas)
        .expect("post-starvation iteration");
    assert_eq!(next.quotas, new_quotas);
    assert_eq!(next.seed_sets[0].len(), 10);
    assert_eq!(next.seed_sets[1].len(), 6);
    assert_eq!(feed.restarts(), 1);
    feed.recycle(next);
    // the feed keeps serving normally afterwards
    let after = feed.obtain(2, &new_quotas).expect("steady service resumes");
    feed.recycle(after);
    let rings = std::sync::Arc::clone(feed.rings());
    feed.finish();
    assert_eq!(rings.in_flight_total(), 0, "slots leaked");
}

/// Single-slot rings (ring depth 1) still serve the feed correctly —
/// the transfer stage just serializes against slot release — and a
/// quota change restarts the producer.
#[test]
fn single_slot_rings_serve_and_drain() {
    let (mut feed, quotas) = ring_fixture::feed(2, 1, 1);
    for iter in 0..3 {
        let prep = feed.obtain(iter, &quotas).expect("iteration");
        assert_eq!(prep.slots.len(), 2);
        assert!(prep.slots.iter().all(|s| s.accel() < 2));
        feed.recycle(prep);
    }
    let new_quotas = vec![10usize, 6, 8];
    let next = feed.obtain(3, &new_quotas).expect("post-restart");
    assert_eq!(feed.restarts(), 1, "a quota change restarts the producer");
    feed.recycle(next);
    let rings = std::sync::Arc::clone(feed.rings());
    feed.finish();
    assert_eq!(rings.in_flight_total(), 0);
}
