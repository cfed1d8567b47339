//! Task-level Feature Prefetching — the *real* pipeline.
//!
//! The paper's headline optimization (§IV-B, Fig. 7) overlaps the
//! CPU-side producer stages — Mini-batch Sampling, Feature Loading, and
//! the wire-precision round-trip standing in for Data Transfer — with
//! GNN Propagation. [`crate::pipeline`] *simulates* that overlap with a
//! discrete-event model; this module *executes* it: a background
//! producer walks the epoch's batch plan, prepares iterations, and
//! feeds them through a bounded channel of depth `d`
//! (`TrainConfig::prefetch_depth`) to the consuming trainer.
//!
//! ## One producer thread, staging rings, fan-out round-trips
//!
//! Each producer generation is a single thread. Per iteration it samples
//! and NUMA-gathers features, then takes one slot on each accelerator
//! batch's [`StagingRing`] (in trainer order, blocking while a ring is
//! full), then round-trips every accelerator matrix at the wire
//! precision through the loader pool's [`rayon::WorkerGroup::fan_out`]
//! — one matrix per fan-out lane, so up to `min(loader width,
//! accelerator batches)` round-trips run concurrently (HitGNN-style
//! per-link concurrency) — and finally sends the finished
//! [`PreparedIteration`] down the one bounded consumer queue.
//!
//! Each accelerator's [`StagingRing`] holds
//! `TrainConfig::staging_ring_depth` slots: a slot is occupied from the
//! start of a batch's round-trip until its propagation completes (the
//! consumer drops the batch's [`SlotToken`]s after training), so at ring
//! depth 2 the wire transfer of batch `i+1` overlaps the accelerator
//! compute of batch `i`. Ring depth 1 is a single staging buffer: the
//! producer waits for the previous batch's propagation before shipping
//! the next, exactly like the `ring_depth = 1` case of
//! [`crate::pipeline::simulate_pipeline`], which also models the
//! fan-out's round-trip concurrency.
//!
//! ## Determinism contract
//!
//! A prepared iteration is a pure function of `(epoch_order, epoch,
//! iter, quotas)`: seed slicing comes from
//! [`EpochBatcher::plan`](hyscale_sampler::EpochBatcher) and every
//! sampler draw is keyed by `(seed, epoch, iter, trainer)` streams, so a
//! batch prepared three iterations ahead on a worker thread is
//! bitwise-identical to one prepared inline, and staging rings only
//! re-time the round-trip (which is itself deterministic per matrix).
//! The one hazard is the DRM engine re-balancing `quotas` mid-epoch.
//! [`IterationFeed::obtain`] handles it with a single mechanism: every
//! request names the iteration and quotas it needs, and when they differ
//! from what the live producer generation will deliver next, the feed
//! shuts that generation down, recycles everything it had queued or in
//! flight, and respawns the producer at the requested iteration under
//! the new quotas. A restarted generation has a fresh channel, so
//! nothing prepared under the old plan can reach the consumer. Equal
//! quotas cost nothing, so a zero-diff move — or a burst of moves that
//! cancels out before the next request — needs no special case.
//! `tests/equivalence.rs` and the randomized DRM-schedule harness in
//! `tests/proptest_invariants.rs` pin weights bitwise across prefetch
//! depths {0, 1, 2, 4} × ring depths {1, 2} × loader widths {1, 2, 4}
//! including across re-mapping events.
//!
//! ## Producer failure
//!
//! A producer thread that panics ends its generation early, which closes
//! the consumer queue. The consumer joins the producer thread it stops
//! and re-raises its panic payload on its own thread with
//! [`std::panic::resume_unwind`], so a crashed stage surfaces as a panic
//! out of [`IterationFeed::obtain`] (or [`IterationFeed::finish`]) —
//! never as a silently short epoch.
//!
//! ## Allocation discipline
//!
//! Feature matrices cycle through a [`MatrixPool`], with ring-aware
//! reuse on top: every recycle ([`PrepareCtx::recycle`] — after
//! propagation, and for the items a restart flushes) returns an
//! accelerator batch's buffer to that accelerator's [`StagingRing`] free
//! list, so each accelerator's batch is re-gathered into the buffer it
//! last shipped (lane-local reuse); the shared pool is the fallback and
//! serves the CPU trainer. Steady-state iterations perform zero
//! feature-matrix allocations.
//!
//! ## Thread budget (DRM `balance_thread`)
//!
//! The producer dispatches its stages on the shared
//! [`StageWorkers`] pools: sampling runs
//! under the sampler pool's width, the `n` per-trainer feature matrices
//! fan out across loader lanes ([`rayon::WorkerGroup::fan_out`]) whose
//! gathers are sharded across the feature matrix's NUMA row domains, and
//! the accelerator round-trips fan out across the same loader pool. A
//! DRM `balance_thread` move re-sizes the pools in place
//! ([`IterationFeed::rebalance_threads`]), so it re-times gathers and
//! round-trips alike; widths only change wall-clock, so the queue keeps
//! its prepared iterations, staging rings keep their occupied slots, and
//! each [`PreparedIteration`] records the [`ThreadAlloc`] it was built
//! under so traces show the shift land.

use crate::drm::ThreadAlloc;
use crate::stages::StageWorkers;
use hyscale_graph::features::gather_features_numa_into;
use hyscale_graph::Dataset;
use hyscale_sampler::{EpochBatcher, MiniBatch, NeighborSampler};
use hyscale_tensor::{Matrix, Precision};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A recycling pool of feature-matrix buffers shared between the
/// producer threads and the consuming trainer.
///
/// ```
/// use hyscale_core::MatrixPool;
///
/// let pool = MatrixPool::new();
/// let mut x = pool.acquire();      // arbitrary shape — overwrite before reading
/// x.resize(128, 16);
/// pool.release(x);                 // back to the pool after propagation
/// assert_eq!(pool.idle(), 1);
/// assert_eq!(pool.acquire().shape(), (128, 16)); // allocation reused
/// ```
#[derive(Default)]
pub struct MatrixPool {
    free: Mutex<Vec<Matrix>>,
}

impl MatrixPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer (arbitrary shape/contents) or mint an empty one.
    /// Callers must `resize`/overwrite before reading — `gather_features_into`
    /// does both.
    pub fn acquire(&self) -> Matrix {
        self.free
            .lock()
            .pop()
            .unwrap_or_else(|| Matrix::uninit(0, 0))
    }

    /// Return a buffer for reuse.
    pub fn release(&self, m: Matrix) {
        self.free.lock().push(m);
    }

    /// Number of buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }
}

/// One accelerator's device-side staging buffer, modeled as a bounded
/// slot counter plus a lane-local free list of recycled feature buffers.
///
/// A slot is *occupied* from the moment the producer's transfer stage
/// starts a batch's wire-precision round-trip until the consumer
/// finishes that batch's propagation (and drops its [`SlotToken`]).
/// With `depth = 2` the ring is a classic double buffer: while the
/// accelerator computes on batch `i`'s slot, the transfer of batch
/// `i+1` proceeds into the second slot. With `depth = 1` there is
/// nowhere to stage ahead, so transfer and compute serialize.
///
/// ```
/// use hyscale_core::prefetch::StagingRing;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let ring = StagingRing::new(2);           // double buffer
/// let stop = AtomicBool::new(false);
/// assert!(ring.acquire(&stop));             // transfer of batch i starts
/// assert!(ring.acquire(&stop));             // transfer of batch i+1 overlaps
/// assert_eq!(ring.in_flight(), 2);
/// stop.store(true, Ordering::Release);
/// assert!(!ring.acquire(&stop));            // full ring + stop: refuse, don't block
/// ring.release_slot();                      // batch i propagation done
/// assert_eq!(ring.in_flight(), 1);
/// ```
pub struct StagingRing {
    depth: usize,
    state: Mutex<RingState>,
    cv: Condvar,
}

#[derive(Default)]
struct RingState {
    in_flight: usize,
    free: Vec<Matrix>,
}

impl StagingRing {
    /// A ring of `depth` staging slots (clamped ≥ 1).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            state: Mutex::new(RingState::default()),
            cv: Condvar::new(),
        }
    }

    /// Number of staging slots.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Slots currently occupied by a batch in transfer or in compute.
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    /// Occupy a slot, blocking while the ring is full. Returns `false`
    /// (without occupying) once `stop` is raised — a producer being shut
    /// down must not wedge on a slot that will never free.
    pub fn acquire(&self, stop: &AtomicBool) -> bool {
        let mut st = self.state.lock();
        loop {
            if stop.load(Ordering::Acquire) {
                return false;
            }
            if st.in_flight < self.depth {
                st.in_flight += 1;
                return true;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Free a slot (the batch's propagation completed, or its transfer
    /// was abandoned) and wake any transfer blocked on a full ring.
    pub fn release_slot(&self) {
        {
            let mut st = self.state.lock();
            st.in_flight = st.in_flight.saturating_sub(1);
        }
        self.cv.notify_all();
    }

    /// Take a lane-local recycled buffer, if any.
    pub fn take_buffer(&self) -> Option<Matrix> {
        self.state.lock().free.pop()
    }

    /// Return a buffer to this lane's free list for ring-aware reuse.
    pub fn put_buffer(&self, m: Matrix) {
        self.state.lock().free.push(m);
    }

    /// Wake any waiter so it can observe a raised stop flag. The notify
    /// happens *under the state mutex*: `acquire` checks the stop flag
    /// and parks while holding that lock, so an unlocked notify could
    /// slot between its check and its park and be lost — leaving the
    /// producer asleep on a ring whose slots will never free (the
    /// shutdown path joins that very thread).
    fn interrupt(&self) {
        let _guard = self.state.lock();
        self.cv.notify_all();
    }
}

/// The per-accelerator staging rings of one trainer instance (shared by
/// the producer's transfer stage, the executor, and the restart path).
pub struct StagingRings {
    rings: Vec<StagingRing>,
    depth: usize,
}

impl StagingRings {
    /// One ring of `depth` slots per accelerator.
    pub fn new(num_accelerators: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        Self {
            rings: (0..num_accelerators)
                .map(|_| StagingRing::new(depth))
                .collect(),
            depth,
        }
    }

    /// Number of accelerator lanes.
    pub fn num_rings(&self) -> usize {
        self.rings.len()
    }

    /// Slots per ring.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Accelerator `a`'s ring.
    ///
    /// # Panics
    /// If `a >= num_rings()`.
    pub fn ring(&self, a: usize) -> &StagingRing {
        &self.rings[a]
    }

    /// Total occupied slots across all rings.
    pub fn in_flight_total(&self) -> usize {
        self.rings.iter().map(StagingRing::in_flight).sum()
    }

    /// Wake every slot waiter (producer shutdown).
    fn interrupt_all(&self) {
        for r in &self.rings {
            r.interrupt();
        }
    }

    /// Occupy a slot on ring `a`, returning an RAII token that frees the
    /// slot on drop. `None` once `stop` is raised.
    pub fn acquire_token(self: &Arc<Self>, a: usize, stop: &AtomicBool) -> Option<SlotToken> {
        if self.rings[a].acquire(stop) {
            Some(SlotToken {
                rings: Arc::clone(self),
                accel: a,
            })
        } else {
            None
        }
    }
}

/// RAII occupancy of one staging slot: held from the start of a batch's
/// wire round-trip until the batch's propagation completes; dropping the
/// token frees the slot and wakes the transfer stage.
pub struct SlotToken {
    rings: Arc<StagingRings>,
    accel: usize,
}

impl SlotToken {
    /// The accelerator lane this token occupies a slot on.
    pub fn accel(&self) -> usize {
        self.accel
    }
}

impl Drop for SlotToken {
    fn drop(&mut self) {
        self.rings.ring(self.accel).release_slot();
    }
}

/// Everything the producer needs to prepare iterations without touching
/// the trainer's mutable state.
pub struct PrepareCtx {
    /// Shared dataset (graph + CPU-resident features + labels).
    pub dataset: Arc<Dataset>,
    /// Epoch seed scheduler (pure slicing; cheap clone of the trainer's).
    pub batcher: EpochBatcher,
    /// Seeded neighbor sampler (streams keyed per (epoch, iter, trainer)).
    pub sampler: NeighborSampler,
    /// Wire precision applied to accelerator-bound feature matrices.
    pub precision: Precision,
    /// Whether trainer 0 is the CPU trainer (reads host memory directly,
    /// skipping the precision round-trip).
    pub hybrid: bool,
    /// Live worker pools whose widths mirror the DRM's [`ThreadAlloc`].
    /// Shared with the executor: a `balance_thread` move re-sizes these
    /// in place and the producer observes the new widths on its next
    /// dispatch — no queue invalidation needed, because prepared
    /// iterations are bitwise-independent of pool widths.
    pub workers: Arc<StageWorkers>,
    /// NUMA domains of the CPU feature matrix (one per socket): the
    /// gather is sharded so each socket's rows are copied by that
    /// socket's share of the loader pool, weighted by the sampled rows'
    /// ownership histogram.
    pub numa_domains: usize,
    /// Per-accelerator staging rings gating the transfer stage (shared
    /// with the executor, which releases slots after propagation).
    pub rings: Arc<StagingRings>,
    /// Epoch time origin: transfer spans and propagation windows are
    /// recorded relative to this instant so the executor can measure how
    /// much wire time the rings hid behind compute.
    pub origin: Instant,
}

impl PrepareCtx {
    /// Accelerator (staging-ring) index serving trainer `trainer_idx`,
    /// or `None` for the CPU trainer (which, when hybrid, occupies
    /// trainer index 0 and never stages). The single source of truth
    /// for the trainer→lane mapping — the executor returns buffers to
    /// rings through this too.
    pub(crate) fn accel_of(&self, trainer_idx: usize) -> Option<usize> {
        let offset = usize::from(self.hybrid);
        if trainer_idx >= offset && trainer_idx - offset < self.rings.num_rings() {
            Some(trainer_idx - offset)
        } else {
            None
        }
    }

    /// Return feature buffers for reuse — the one ring-aware recycle
    /// behind every finished or flushed batch: an accelerator trainer's
    /// buffer goes to its lane's staging-ring free list, the CPU
    /// trainer's to the shared `pool`.
    pub fn recycle(&self, features: Vec<Option<Matrix>>, pool: &MatrixPool) {
        for (idx, m) in features.into_iter().enumerate() {
            if let Some(m) = m {
                match self.accel_of(idx) {
                    Some(a) => self.rings.ring(a).put_buffer(m),
                    None => pool.release(m),
                }
            }
        }
    }
}

/// One fully-prepared training iteration: sampled mini-batches plus
/// gathered (and precision-round-tripped) feature matrices, with the
/// producer-side wall-clock stage timings and the staging slots the
/// batch still occupies.
pub struct PreparedIteration {
    /// Iteration index within the epoch.
    pub iter: usize,
    /// The per-trainer seed quotas this iteration was prepared under.
    pub quotas: Vec<usize>,
    /// Per-trainer seed sets (empty for idle trainers).
    pub seed_sets: Vec<Vec<u32>>,
    /// Per-trainer sampled mini-batches (`None` for idle trainers).
    pub batches: Vec<Option<MiniBatch>>,
    /// Per-trainer gathered feature matrices, pool-backed.
    pub features: Vec<Option<Matrix>>,
    /// Wall-clock seconds spent sampling.
    pub sample_wall_s: f64,
    /// Wall-clock seconds of the loader fan-out (feature gathering).
    pub load_wall_s: f64,
    /// One `(wall, (start, end))` stamp per accelerator batch's
    /// precision round-trip (the functional stand-in for the PCIe
    /// transfer): its wall-clock seconds and its span relative to the
    /// epoch origin ([`PrepareCtx::origin`]). The executor sums the
    /// walls and intersects the spans with its propagation windows to
    /// measure the wire time the staging rings hid behind compute.
    pub round_trips: Vec<(f64, (f64, f64))>,
    /// Staging slots this batch occupies, one per accelerator batch —
    /// released (by drop) when the consumer finishes propagation. Empty
    /// in serial execution, which stages nothing ahead.
    pub slots: Vec<SlotToken>,
    /// The worker-pool widths (the DRM [`ThreadAlloc`]) this iteration
    /// was prepared under — the measured-wall twin of the simulated
    /// thread model, surfaced in
    /// [`WallStageTimes`](crate::report::WallStageTimes).
    pub threads: ThreadAlloc,
}

/// Output of the producer's gather stage: a sampled iteration whose
/// feature matrices have not yet made the wire round-trip.
struct StagedIteration {
    iter: usize,
    quotas: Vec<usize>,
    seed_sets: Vec<Vec<u32>>,
    batches: Vec<Option<MiniBatch>>,
    features: Vec<Option<Matrix>>,
    sample_wall_s: f64,
    load_wall_s: f64,
    threads: ThreadAlloc,
}

/// Gather stage: slice seeds under `quotas`, sample one mini-batch per
/// non-idle trainer, and gather features into pooled buffers (ring-local
/// free lists first). Returns `None` once the epoch's seeds are
/// exhausted.
fn stage_gather(
    ctx: &PrepareCtx,
    order: &[u32],
    epoch: u64,
    iter: usize,
    quotas: &[usize],
    pool: &MatrixPool,
) -> Option<StagedIteration> {
    let (plan_iter, seed_sets) = ctx.batcher.plan(order, iter, quotas).next()?;
    debug_assert_eq!(plan_iter, iter);
    // Pool widths as budgeted right now — recorded with the iteration so
    // the trace shows when a balance_thread move reached the producer.
    let threads = ctx.workers.observed();

    // --- Sampling: n mini-batches, one per (non-empty) trainer, drawn
    // under the sampler pool's width (nested parallel draws inherit it) ---
    let sample_start = Instant::now();
    let stream_base = epoch.wrapping_mul(1 << 20) + iter as u64 * 64;
    let seed_refs: Vec<&[u32]> = seed_sets.iter().map(|s| s.as_slice()).collect();
    let batches: Vec<Option<MiniBatch>> = {
        let non_empty: Vec<&[u32]> = seed_refs
            .iter()
            .copied()
            .filter(|s| !s.is_empty())
            .collect();
        let mut sampled = ctx
            .workers
            .sampler()
            .install(|| {
                ctx.sampler
                    .sample_many(&ctx.dataset.graph, &non_empty, stream_base)
            })
            .into_iter();
        seed_refs
            .iter()
            .map(|s| if s.is_empty() { None } else { sampled.next() })
            .collect()
    };
    let sample_wall_s = sample_start.elapsed().as_secs_f64();

    // --- Feature Loading into pooled buffers: the n trainer matrices
    // fan out across loader lanes (one per accelerator/CPU trainer, up
    // to the pool's width), and each lane's gather is itself sharded
    // across the NUMA row domains of `X`, thread shares weighted by the
    // sampled rows' ownership histogram. Accelerator lanes draw their
    // buffer from the staging ring's free list first (lane-local
    // reuse). ---
    let active: Vec<(usize, &MiniBatch)> = batches
        .iter()
        .enumerate()
        .filter_map(|(idx, b)| b.as_ref().map(|mb| (idx, mb)))
        .collect();
    let gathered: Mutex<Vec<(usize, Matrix)>> = Mutex::new(Vec::with_capacity(active.len()));
    let fan_out_start = Instant::now();
    ctx.workers.loader().fan_out(active.len(), |k, lane| {
        let (idx, mb) = active[k];
        let mut x = ctx
            .accel_of(idx)
            .and_then(|a| ctx.rings.ring(a).take_buffer())
            .unwrap_or_else(|| pool.acquire());
        gather_features_numa_into(
            &mut x,
            &ctx.dataset.data.features,
            &mb.input_nodes,
            ctx.numa_domains,
            lane,
        );
        gathered.lock().push((idx, x));
    });
    let load_wall_s = fan_out_start.elapsed().as_secs_f64();
    let mut features: Vec<Option<Matrix>> = batches.iter().map(|_| None).collect();
    for (idx, x) in gathered.into_inner() {
        features[idx] = Some(x);
    }

    Some(StagedIteration {
        iter,
        quotas: quotas.to_vec(),
        seed_sets,
        batches,
        features,
        sample_wall_s,
        load_wall_s,
        threads,
    })
}

/// Transfer stage: round-trip every accelerator-bound matrix at the wire
/// precision (identity at F32; the §VIII quantization extension) through
/// the loader pool's [`rayon::WorkerGroup::fan_out`], one matrix per
/// fan-out lane, each lane stamping its own wall and its span against
/// the epoch origin. `slots` are the staging slots this batch holds
/// until propagation completes (empty in serial execution). Serial and
/// pipelined preparation both call this, and the round-trip is one
/// in-place call per matrix either way, which keeps them
/// bitwise-identical whatever the fan-out width.
fn apply_transfer(
    ctx: &PrepareCtx,
    staged: StagedIteration,
    slots: Vec<SlotToken>,
) -> PreparedIteration {
    let StagedIteration {
        iter,
        quotas,
        seed_sets,
        batches,
        mut features,
        sample_wall_s,
        load_wall_s,
        threads,
    } = staged;
    let work: Vec<Mutex<&mut Matrix>> = features
        .iter_mut()
        .enumerate()
        .filter_map(|(idx, x)| {
            ctx.accel_of(idx)?;
            Some(Mutex::new(x.as_mut()?))
        })
        .collect();
    // (wall, span), stamped by the lane that round-tripped the matrix
    let round_trips = Mutex::new(Vec::with_capacity(work.len()));
    ctx.workers.loader().fan_out(work.len(), |k, lane| {
        let mut x = work[k].lock();
        let start = ctx.origin.elapsed().as_secs_f64();
        let wall_start = Instant::now();
        lane.install(|| ctx.precision.round_trip_in_place(&mut x));
        let wall = wall_start.elapsed().as_secs_f64();
        round_trips
            .lock()
            .push((wall, (start, ctx.origin.elapsed().as_secs_f64())));
    });

    PreparedIteration {
        iter,
        quotas,
        seed_sets,
        batches,
        features,
        sample_wall_s,
        load_wall_s,
        round_trips: round_trips.into_inner(),
        slots,
        threads,
    }
}

/// Prepare iteration `iter` of `epoch` inline: gather stage plus
/// transfer stage back-to-back on the caller thread, staging nothing
/// (no ring slots are taken). Returns `None` once the epoch's seeds are
/// exhausted.
///
/// The serial (`depth = 0`) path calls this directly; the pipelined
/// producer runs the same two stages with the staging-slot gate between
/// them, which is what makes the two bitwise-identical by construction.
pub fn prepare_iteration(
    ctx: &PrepareCtx,
    order: &[u32],
    epoch: u64,
    iter: usize,
    quotas: &[usize],
    pool: &MatrixPool,
) -> Option<PreparedIteration> {
    let staged = stage_gather(ctx, order, epoch, iter, quotas, pool)?;
    Some(apply_transfer(ctx, staged, Vec::new()))
}

/// Handle to one producer generation (one contiguous span of iterations
/// under fixed quotas): a single thread that gathers, takes the staging
/// slots, round-trips the accelerator batches and feeds the consumer
/// queue.
struct Prefetcher {
    rx: Receiver<PreparedIteration>,
    stop: Arc<AtomicBool>,
    ctx: Arc<PrepareCtx>,
    pool: Arc<MatrixPool>,
    /// Prepared iterations currently sitting in the consumer queue
    /// (incremented by the producer on send, decremented on receive) —
    /// lets tests wait for the queue to fill
    /// deterministically instead of sleeping.
    ready: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a producer covering `start_iter..end_iter` under `quotas`,
    /// queueing at most `depth` prepared iterations.
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        epoch: u64,
        start_iter: usize,
        end_iter: usize,
        quotas: Vec<usize>,
        depth: usize,
        pool: Arc<MatrixPool>,
    ) -> Self {
        let (tx, rx) = sync_channel::<PreparedIteration>(depth.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let handle = {
            let ctx = Arc::clone(&ctx);
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::Builder::new()
                .name("hyscale-prefetch".into())
                .spawn(move || {
                    for iter in start_iter..end_iter {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Some(staged) = stage_gather(&ctx, &order, epoch, iter, &quotas, &pool)
                        else {
                            break; // epoch seeds exhausted
                        };
                        // The staging-slot gate: one slot per accelerator
                        // batch, in trainer order. Blocks while a ring's
                        // slots all hold batches still in transfer or
                        // compute — ring depth 1 serializes an
                        // accelerator's wire with its compute, depth 2
                        // double-buffers them — and gives up once `stop`
                        // rises, dropping the slots taken so far.
                        let slots: Option<Vec<SlotToken>> = (0..staged.features.len())
                            .filter(|&idx| staged.features[idx].is_some())
                            .filter_map(|idx| ctx.accel_of(idx))
                            .map(|a| ctx.rings.acquire_token(a, &stop))
                            .collect();
                        let Some(slots) = slots else {
                            ctx.recycle(staged.features, &pool);
                            break;
                        };
                        let prep = apply_transfer(&ctx, staged, slots);
                        // Count the item *before* committing it to the
                        // channel: a consumer receiving it concurrently
                        // must never observe its decrement before this
                        // increment (underflow).
                        ready.fetch_add(1, Ordering::Release);
                        if let Err(rejected) = tx.send(prep) {
                            ready.fetch_sub(1, Ordering::Release);
                            ctx.recycle(rejected.0.features, &pool);
                            break;
                        }
                    }
                })
                .expect("spawn prefetch producer")
        };

        Self {
            rx,
            stop,
            ctx,
            pool,
            ready,
            handle: Some(handle),
        }
    }

    /// Blocking receive; `None` once the producer has finished the
    /// epoch. A producer whose thread panicked closes the queue early:
    /// the panic is re-raised here.
    fn recv(&mut self) -> Option<PreparedIteration> {
        match self.rx.recv() {
            Ok(prep) => {
                self.ready.fetch_sub(1, Ordering::AcqRel);
                Some(prep)
            }
            Err(_) => {
                self.join();
                None
            }
        }
    }

    /// Prepared iterations currently buffered in the consumer queue.
    fn buffered(&self) -> usize {
        self.ready.load(Ordering::Acquire)
    }

    /// Stop the producer, recycle every queued and in-flight item, and
    /// join its thread. Returns the number of per-trainer batches the
    /// queue held (prepared work thrown away).
    fn shutdown(mut self) -> usize {
        self.halt();
        // Receive until the queue disconnects: a producer blocked on the
        // full channel completes its send and then observes `stop`, and
        // one blocked on a staging slot recycles what it holds, so each
        // buffer returns through the ring-aware recycle. Bounded: at most
        // one in-flight iteration — the same work the consumer would do
        // inline anyway before it can proceed.
        let mut flushed = 0;
        while let Ok(prep) = self.rx.recv() {
            flushed += prep.batches.iter().flatten().count();
            self.ctx.recycle(prep.features, &self.pool);
        }
        self.join();
        flushed
    }

    /// Raise `stop` and wake a producer blocked on a full staging ring
    /// so it observes it and bails out.
    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.ctx.rings.interrupt_all();
    }

    /// Halt and join the producer thread, re-raising its panic on this
    /// thread. Idempotent: a second call finds no handle left.
    fn join(&mut self) {
        self.halt();
        if let Some(Err(payload)) = self.handle.take().map(JoinHandle::join) {
            std::panic::resume_unwind(payload);
        }
    }
}

/// The executor's iteration source: serial preparation at `depth = 0`,
/// a background producer pipeline otherwise.
///
/// A DRM `balance_work` move needs no call into the feed: the consumer
/// simply asks [`obtain`](Self::obtain) for the next iteration under
/// the live split's quotas. When the request differs from what the live
/// producer generation will deliver next, the feed restarts it — one
/// mechanism for every re-map, however many moves landed since the
/// previous request. Equal quotas cost nothing.
pub struct IterationFeed {
    ctx: Arc<PrepareCtx>,
    order: Arc<Vec<u32>>,
    epoch: u64,
    end_iter: usize,
    depth: usize,
    pool: Arc<MatrixPool>,
    pipeline: Option<Prefetcher>,
    /// The iteration the live producer generation delivers next.
    next_iter: usize,
    /// The quotas the live producer generation is slicing under.
    quotas: Vec<usize>,
    restarts: usize,
    batches_flushed: usize,
    restart_wall_s: f64,
}

impl IterationFeed {
    /// Create the feed for one epoch, spawning the producer at iteration
    /// 0 when `depth > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        epoch: u64,
        end_iter: usize,
        depth: usize,
        pool: Arc<MatrixPool>,
        initial_quotas: Vec<usize>,
    ) -> Self {
        let mut feed = Self {
            ctx,
            order,
            epoch,
            end_iter,
            depth,
            pool,
            pipeline: None,
            next_iter: 0,
            quotas: initial_quotas,
            restarts: 0,
            batches_flushed: 0,
            restart_wall_s: 0.0,
        };
        if depth > 0 {
            feed.pipeline = Some(feed.spawn());
        }
        feed
    }

    /// Spawn a producer generation at `(next_iter, quotas)`.
    fn spawn(&self) -> Prefetcher {
        Prefetcher::spawn(
            Arc::clone(&self.ctx),
            Arc::clone(&self.order),
            self.epoch,
            self.next_iter,
            self.end_iter,
            self.quotas.clone(),
            self.depth,
            Arc::clone(&self.pool),
        )
    }

    /// Obtain iteration `iter` prepared under exactly `quotas`.
    /// Returns `None` once the epoch's seeds are exhausted.
    ///
    /// A request the live producer generation would not serve next (new
    /// quotas after a DRM move, or a different iteration) restarts it
    /// first: the generation is shut down, every queued and in-flight
    /// item is recycled, and a fresh generation is spawned at `iter`
    /// under `quotas`.
    ///
    /// # Panics
    /// Re-raises the panic of a producer thread that crashed.
    pub fn obtain(&mut self, iter: usize, quotas: &[usize]) -> Option<PreparedIteration> {
        if self.depth == 0 {
            return prepare_iteration(&self.ctx, &self.order, self.epoch, iter, quotas, &self.pool);
        }
        if iter != self.next_iter || quotas != self.quotas {
            self.restart(iter, quotas);
        }
        let prep = self.pipeline.as_mut().expect("producer alive").recv()?;
        debug_assert!(prep.iter == iter && prep.quotas == quotas);
        self.next_iter = iter + 1;
        Some(prep)
    }

    /// Shut the live generation down, count the restart, and respawn at
    /// `(iter, quotas)`.
    fn restart(&mut self, iter: usize, quotas: &[usize]) {
        let t0 = Instant::now();
        if let Some(p) = self.pipeline.take() {
            self.batches_flushed += p.shutdown();
        }
        self.restarts += 1;
        self.next_iter = iter;
        self.quotas = quotas.to_vec();
        self.pipeline = Some(self.spawn());
        self.restart_wall_s += t0.elapsed().as_secs_f64();
    }

    /// Return a finished iteration's buffers through the ring-aware
    /// [`PrepareCtx::recycle`]; its staging slots free as it drops.
    pub fn recycle(&self, prep: PreparedIteration) {
        self.ctx.recycle(prep.features, &self.pool);
    }

    /// Apply a DRM `balance_thread` re-allocation: re-size the shared
    /// worker pools so the producer's next dispatch — gathers and
    /// round-trips alike — runs at the new widths. This is an immediate
    /// cross-thread atomic store, not a message through the queue — it
    /// is unordered with respect to in-flight iterations and
    /// deliberately restarts nothing. Pool widths change wall-clock,
    /// never bytes, so already-prepared iterations and occupied staging
    /// slots remain valid (`tests/equivalence.rs` and the loader-width
    /// matrix in `tests/proptest_invariants.rs` pin this bitwise).
    pub fn rebalance_threads(&self, alloc: &ThreadAlloc) {
        self.ctx.workers.apply(alloc);
    }

    /// The live worker pools this feed's producer dispatches on.
    pub fn workers(&self) -> &StageWorkers {
        &self.ctx.workers
    }

    /// The per-accelerator staging rings this feed's transfer stage
    /// runs through.
    pub fn rings(&self) -> &Arc<StagingRings> {
        &self.ctx.rings
    }

    /// Number of producer restarts this epoch (quota changes).
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Per-trainer batches that were fully prepared and queued when a
    /// restart threw them away, cumulative over this epoch.
    pub fn batches_flushed(&self) -> usize {
        self.batches_flushed
    }

    /// Wall-clock seconds this feed has spent restarting the producer
    /// (shutdown, recycle, respawn).
    pub fn restart_wall_s(&self) -> f64 {
        self.restart_wall_s
    }

    /// Fully-prepared iterations currently buffered ahead of the
    /// consumer.
    pub fn buffered(&self) -> usize {
        self.pipeline.as_ref().map_or(0, Prefetcher::buffered)
    }

    /// Tear down the producer, recycling everything it still holds.
    ///
    /// # Panics
    /// Re-raises the panic of a producer thread that crashed.
    pub fn finish(mut self) {
        if let Some(p) = self.pipeline.take() {
            p.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_tensor::init::randn;

    fn ctx_with_rings(ring_depth: usize) -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        ctx_with(ring_depth, true)
    }

    fn ctx_with(ring_depth: usize, hybrid: bool) -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        let dataset = Arc::new(Dataset::toy(5));
        let batcher = EpochBatcher::new(dataset.splits.train.clone(), 99);
        let order = Arc::new(batcher.epoch_order(0));
        let alloc = ThreadAlloc::default_for(8);
        let ctx = PrepareCtx {
            dataset,
            batcher,
            sampler: NeighborSampler::new(vec![4, 3], 17),
            precision: Precision::F32,
            hybrid,
            workers: Arc::new(StageWorkers::from_alloc(&alloc)),
            numa_domains: 2,
            rings: Arc::new(StagingRings::new(2, ring_depth)),
            origin: Instant::now(),
        };
        (Arc::new(ctx), order)
    }

    fn ctx() -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        ctx_with_rings(2)
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool = MatrixPool::new();
        let mut m = pool.acquire();
        assert_eq!(pool.idle(), 0);
        m.resize(8, 4);
        pool.release(m);
        assert_eq!(pool.idle(), 1);
        let m2 = pool.acquire();
        assert_eq!(m2.shape(), (8, 4), "recycled buffer keeps its allocation");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn ring_slots_bound_in_flight_batches() {
        let rings = Arc::new(StagingRings::new(1, 2));
        let stop = AtomicBool::new(false);
        let t0 = rings.acquire_token(0, &stop).expect("slot 0");
        let t1 = rings.acquire_token(0, &stop).expect("slot 1");
        assert_eq!(rings.ring(0).in_flight(), 2);
        // full + stop raised: acquire refuses instead of blocking
        stop.store(true, Ordering::Release);
        assert!(rings.acquire_token(0, &stop).is_none());
        stop.store(false, Ordering::Release);
        drop(t0); // batch 0's propagation completed
        assert_eq!(rings.ring(0).in_flight(), 1);
        let t2 = rings.acquire_token(0, &stop).expect("slot freed by drop");
        assert_eq!(t2.accel(), 0);
        drop(t1);
        drop(t2);
        assert_eq!(rings.in_flight_total(), 0);
    }

    #[test]
    fn ring_free_list_is_lane_local() {
        let rings = StagingRings::new(2, 2);
        assert!(rings.ring(0).take_buffer().is_none());
        let mut m = Matrix::uninit(0, 0);
        m.resize(4, 3);
        rings.ring(0).put_buffer(m);
        assert!(rings.ring(1).take_buffer().is_none(), "lanes don't share");
        let back = rings.ring(0).take_buffer().expect("lane 0 buffer");
        assert_eq!(back.shape(), (4, 3));
    }

    #[test]
    fn blocked_transfer_wakes_when_slot_frees() {
        // A transfer blocked on a full ring must wake when the consumer
        // releases the slot (token drop), not spin or deadlock.
        let rings = Arc::new(StagingRings::new(1, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let held = rings.acquire_token(0, &stop).expect("slot");
        let waiter = {
            let rings = Arc::clone(&rings);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || rings.acquire_token(0, &stop).is_some())
        };
        // give the waiter time to block, then release the slot
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().expect("waiter"), "waiter never acquired");
        // the waiter's token dropped with its thread: slot freed again
        assert_eq!(rings.in_flight_total(), 0);
    }

    #[test]
    fn prepare_is_deterministic_and_pool_independent() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let quotas = [16usize, 16, 16];
        let a = prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).unwrap();
        // poison the pool and the ring free lists with stale buffers
        pool.release(randn(200, 3, 1));
        pool.release(Matrix::full(1, 1, f32::NAN));
        ctx.rings.ring(0).put_buffer(Matrix::full(7, 7, f32::NAN));
        let b = prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).unwrap();
        assert_eq!(a.seed_sets, b.seed_sets);
        for (x, y) in a.features.iter().zip(&b.features) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.as_slice(), y.as_slice()),
                (None, None) => {}
                _ => panic!("feature presence diverged"),
            }
        }
        assert!(a.slots.is_empty(), "serial preparation must stage nothing");
    }

    #[test]
    fn prepare_ends_after_epoch_exhausted() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let n = order.len();
        let quotas = [n / 2 + 1, n / 2 + 1]; // 1 iteration consumes all
        assert!(prepare_iteration(&ctx, &order, 0, 0, &quotas, &pool).is_some());
        assert!(prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).is_none());
    }

    #[test]
    fn feed_pipelined_matches_serial_across_ring_depths() {
        for ring_depth in [1usize, 2] {
            let (serial_ctx, order) = ctx_with_rings(ring_depth);
            let (piped_ctx, _) = ctx_with_rings(ring_depth);
            let quotas = vec![8usize, 8, 8];
            let serial_pool = Arc::new(MatrixPool::new());
            let mut serial = IterationFeed::new(
                Arc::clone(&serial_ctx),
                Arc::clone(&order),
                0,
                usize::MAX,
                0,
                Arc::clone(&serial_pool),
                quotas.clone(),
            );
            let piped_pool = Arc::new(MatrixPool::new());
            let mut piped = IterationFeed::new(
                Arc::clone(&piped_ctx),
                Arc::clone(&order),
                0,
                usize::MAX,
                3,
                Arc::clone(&piped_pool),
                quotas.clone(),
            );
            let mut iter = 0;
            loop {
                let a = serial.obtain(iter, &quotas);
                let b = piped.obtain(iter, &quotas);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.iter, b.iter);
                        assert_eq!(a.seed_sets, b.seed_sets);
                        for (x, y) in a.features.iter().zip(&b.features) {
                            if let (Some(x), Some(y)) = (x, y) {
                                assert_eq!(x.as_slice(), y.as_slice());
                            }
                        }
                        // two accelerator batches -> two staging slots held
                        assert_eq!(b.slots.len(), 2, "ring depth {ring_depth}");
                        serial.recycle(a);
                        piped.recycle(b);
                    }
                    (None, None) => break,
                    _ => panic!("serial and pipelined feeds disagree on epoch length"),
                }
                iter += 1;
            }
            assert!(iter >= 2, "epoch too short to exercise the pipeline");
            piped.finish();
            serial.finish();
            assert_eq!(
                piped_ctx.rings.in_flight_total(),
                0,
                "staging slots leaked at ring depth {ring_depth}"
            );
        }
    }

    #[test]
    fn rebalance_resizes_pools_the_producer_observes() {
        // A balance_thread move must change the partition widths the
        // producer dispatches on — not only the simulated StageTimes —
        // and must leave the staging rings untouched.
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            Arc::clone(&order),
            0,
            usize::MAX,
            1,
            Arc::clone(&pool),
            quotas.clone(),
        );
        let before = feed.obtain(0, &quotas).expect("first iteration");
        assert_eq!(before.threads, ThreadAlloc::default_for(8));
        feed.recycle(before);

        // DRM moves two threads from the trainer pool to the loader pool.
        let moved = ThreadAlloc {
            sampler: 2,
            loader: 4,
            trainer: 2,
        };
        feed.rebalance_threads(&moved);
        assert_eq!(feed.workers().observed(), moved);
        assert_eq!(feed.workers().loader().width(), 4);

        // Subsequent prepared iterations carry (and ran under) the new
        // widths, without the queue having been invalidated. At depth 1
        // up to a few iterations (queued or in flight on the producer)
        // may predate the re-size; the move must land within a few more.
        let mut landed = false;
        for iter in 1..=6 {
            let prep = feed
                .obtain(iter, &quotas)
                .expect("post-rebalance iteration");
            let threads = prep.threads;
            feed.recycle(prep);
            if threads == moved {
                landed = true;
                break;
            }
        }
        assert!(landed, "producer never observed the balance_thread move");
        assert_eq!(feed.restarts(), 0, "thread moves must not drain the queue");
        feed.finish();
    }

    /// A pipelined feed over `ctx` at prefetch `depth`, spawned under
    /// `quotas`.
    fn feed_over(
        ctx: &Arc<PrepareCtx>,
        order: &Arc<Vec<u32>>,
        depth: usize,
        pool: &Arc<MatrixPool>,
        quotas: &[usize],
    ) -> IterationFeed {
        IterationFeed::new(
            Arc::clone(ctx),
            Arc::clone(order),
            0,
            usize::MAX,
            depth,
            Arc::clone(pool),
            quotas.to_vec(),
        )
    }

    /// Poll until the feed has at least `n` iterations queued.
    fn wait_buffered(feed: &IterationFeed, n: usize) {
        for _ in 0..500 {
            if feed.buffered() >= n {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("producer never buffered {n} iterations");
    }

    #[test]
    fn feed_restarts_on_quota_change() {
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = feed_over(&ctx, &order, 2, &pool, &quotas);
        let first = feed.obtain(0, &quotas).expect("first iteration");
        feed.recycle(first);
        assert_eq!(feed.restarts(), 0);
        // 4 seeds move from trainer 1 (lane 0) to the CPU: the next
        // request names the new quotas, so the producer restarts
        let new_quotas = vec![12usize, 4, 8];
        let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");
        assert_eq!(feed.restarts(), 1);
        assert_eq!(second.quotas, new_quotas);
        assert_eq!(second.seed_sets[0].len(), 12);
        assert_eq!(second.seed_sets[1].len(), 4);
        // bitwise identical to preparing serially under the new quotas
        let reference =
            prepare_iteration(&ctx, &order, 0, 1, &new_quotas, &pool).expect("reference");
        assert_eq!(second.seed_sets, reference.seed_sets);
        for (x, y) in second.features.iter().zip(&reference.features) {
            if let (Some(x), Some(y)) = (x, y) {
                assert_eq!(x.as_slice(), y.as_slice());
            }
        }
        feed.recycle(second);
        feed.recycle(reference);
        feed.finish();
        assert_eq!(ctx.rings.in_flight_total(), 0, "slots leaked after finish");
    }

    #[test]
    fn equal_request_is_a_noop() {
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = feed_over(&ctx, &order, 2, &pool, &quotas);
        for iter in 0..3 {
            let prep = feed.obtain(iter, &quotas).expect("iteration");
            assert_eq!(prep.iter, iter);
            feed.recycle(prep);
        }
        assert_eq!(feed.restarts(), 0, "equal quotas restarted the producer");
        assert_eq!(feed.batches_flushed(), 0);
        assert_eq!(feed.restart_wall_s(), 0.0);
        feed.finish();
    }

    #[test]
    fn restart_and_finish_recycle_accelerator_buffers_to_their_rings() {
        // Non-hybrid: every trainer is an accelerator, so no buffer may
        // ever land in the shared pool — queued items flushed by a
        // restart and by finish() go back to their lanes' rings.
        let (ctx, order) = ctx_with(2, false);
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8];
        let mut feed = feed_over(&ctx, &order, 2, &pool, &quotas);
        let first = feed.obtain(0, &quotas).expect("first iteration");
        feed.recycle(first);
        wait_buffered(&feed, 1);
        let moved = vec![4usize, 12];
        let second = feed.obtain(1, &moved).expect("post-restart iteration");
        assert!(
            feed.batches_flushed() > 0,
            "the restart flushed no queued batch"
        );
        feed.recycle(second);
        wait_buffered(&feed, 1);
        feed.finish();
        assert_eq!(pool.idle(), 0, "accelerator buffers leaked into the pool");
        assert_eq!(ctx.rings.in_flight_total(), 0, "slots leaked");
        for a in 0..2 {
            assert!(
                ctx.rings.ring(a).take_buffer().is_some(),
                "lane {a} got no buffer back"
            );
        }
    }

    #[test]
    fn producer_panic_is_reraised_by_obtain() {
        let (ctx, order) = ctx();
        let mut bad = (*order).clone();
        bad[0] = u32::MAX; // out-of-range vertex: sampling iteration 0 panics
        let bad = Arc::new(bad);
        let quotas = vec![8usize, 8, 8];
        for depth in [1usize, 2] {
            let pool = Arc::new(MatrixPool::new());
            let mut feed = feed_over(&ctx, &bad, depth, &pool, &quotas);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                feed.obtain(0, &quotas).is_none()
            }));
            assert!(
                outcome.is_err(),
                "depth {depth}: a crashed producer must panic, not end the epoch ({outcome:?})"
            );
        }
    }
}
