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
//! ## Concurrent per-accelerator transfer lanes (staging rings)
//!
//! The producer is itself a pipeline. A *gather* thread samples and
//! NUMA-gathers features, then fans each accelerator's matrix out to
//! that accelerator's **transfer lane** — a dedicated thread that pulls
//! gathered batches from its own bounded channel, stages them through
//! its [`StagingRing`], and runs the wire-precision round-trip. Lanes
//! run *concurrently with each other* (DistDGLv2/HitGNN-style per-link
//! saturation: with 4 accelerators the four round-trips overlap each
//! other as well as trainer compute), bounded WorkerGroup-style by the
//! shared [`TransferLaneGate`] (resized live by DRM `balance_thread`
//! moves). An *assembler* thread re-joins the lanes' completions, in
//! lane-FIFO order, into [`PreparedIteration`]s for the consumer queue.
//!
//! Each lane's [`StagingRing`] holds `TrainConfig::staging_ring_depth`
//! slots: a slot is occupied from the start of a batch's round-trip
//! until its propagation completes (the consumer drops the batch's
//! [`SlotToken`]s after training), so at ring depth 2 the wire transfer
//! of batch `i+1` overlaps the accelerator compute of batch `i` —
//! double buffering *within* the lane, not only across the
//! producer/consumer queue. Ring depth 1 is a single staging buffer:
//! that lane's transfer and compute serialize, exactly like the
//! `ring_depth = 1` case of `hyscale_device::stage::StagingModel` and
//! [`crate::pipeline::simulate_pipeline_ringed`]. The lane-concurrency
//! dimension is modeled by
//! [`crate::pipeline::simulate_pipeline_multilane`].
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
//! flight, records one drain on every staging ring, and respawns the
//! producer at the requested iteration under the new quotas. A
//! restarted generation has a fresh channel, so nothing prepared under
//! the old plan can reach the consumer. Equal quotas cost nothing, so a
//! zero-diff move — or a burst of moves that cancels out before the next
//! request — needs no special case. `tests/equivalence.rs` and the
//! randomized DRM-schedule harness in `tests/proptest_invariants.rs` pin
//! weights bitwise across prefetch depths {0, 1, 2, 4} × ring depths
//! {1, 2} × transfer-lane caps {1, 2, 4} including across re-mapping
//! events.
//!
//! ## Producer failure
//!
//! A producer thread that panics ends its generation early, which closes
//! the consumer queue. The consumer joins every producer thread it stops
//! and re-raises the first panic payload on its own thread with
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
//! list, so each lane re-gathers into the buffer it last shipped
//! (lane-local reuse); the shared pool is the fallback and serves the
//! CPU trainer. Steady-state iterations perform zero feature-matrix
//! allocations.
//!
//! ## Thread budget (DRM `balance_thread`)
//!
//! The producer dispatches its stages on the shared
//! [`StageWorkers`] pools: sampling runs
//! under the sampler pool's width, and the `n` per-trainer feature
//! matrices fan out across loader lanes
//! ([`rayon::WorkerGroup::fan_out`]) whose gathers are sharded across
//! the feature matrix's NUMA row domains. A DRM `balance_thread` move
//! re-sizes the pools in place ([`IterationFeed::rebalance_threads`]);
//! widths only change wall-clock, so the queue keeps its prepared
//! iterations, staging rings keep their in-flight transfers, and each
//! [`PreparedIteration`] records the [`ThreadAlloc`] it was built under
//! so traces show the shift land.

use crate::drm::ThreadAlloc;
use crate::stages::StageWorkers;
use hyscale_graph::features::gather_features_numa_into;
use hyscale_graph::Dataset;
use hyscale_sampler::{EpochBatcher, MiniBatch, NeighborSampler};
use hyscale_tensor::{Matrix, Precision};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
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

/// WorkerGroup-style concurrency cap for the per-accelerator transfer
/// lanes: every accelerator owns a dedicated lane (thread + staging
/// ring + bounded channel), and this gate bounds how many of those
/// lanes may run their wire-precision round-trips *at the same time*.
///
/// Like [`rayon::WorkerGroup`], the **logical** cap is resizable at any
/// moment ([`set_cap`](Self::set_cap) — the entry point for DRM
/// `balance_thread` moves, which re-size lane concurrency live without
/// draining anything), while the **effective** cap is additionally
/// bounded by the host's real parallelism. Lane order through the gate
/// is timing-only: round-trips are deterministic per matrix, so the cap
/// changes wall-clock, never bytes.
///
/// ```
/// use hyscale_core::prefetch::TransferLaneGate;
/// use std::sync::atomic::AtomicBool;
///
/// // the effective cap is host-bounded: pretend this doctest machine
/// // has 4 cores so two lanes may genuinely overlap
/// std::env::set_var("HYSCALE_RAYON_THREADS", "4");
/// let gate = TransferLaneGate::new(2, false);
/// let stop = AtomicBool::new(false);
/// assert!(gate.enter(&stop));          // lane 0 transfers
/// assert!(gate.enter(&stop));          // lane 1 overlaps it
/// assert_eq!(gate.in_flight(), 2);
/// gate.set_cap(4);                     // balance_thread widens the budget
/// assert_eq!(gate.cap(), 4);
/// gate.exit();
/// gate.exit();
/// assert_eq!(gate.in_flight(), 0);
/// std::env::remove_var("HYSCALE_RAYON_THREADS");
/// ```
pub struct TransferLaneGate {
    cap: AtomicUsize,
    /// `true` when the cap mirrors the DRM loader thread budget (the
    /// `TrainConfig::transfer_lanes = 0` auto mode): `balance_thread`
    /// moves then re-size it; a fixed explicit cap ignores them.
    follow_threads: bool,
    in_flight: Mutex<usize>,
    cv: Condvar,
}

impl TransferLaneGate {
    /// A gate admitting `cap` concurrent lane round-trips (clamped
    /// ≥ 1). `follow_threads` marks the cap as mirroring the DRM's
    /// loader thread budget (see [`on_thread_alloc`](Self::on_thread_alloc)).
    pub fn new(cap: usize, follow_threads: bool) -> Self {
        Self {
            cap: AtomicUsize::new(cap.max(1)),
            follow_threads,
            in_flight: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Current logical cap.
    pub fn cap(&self) -> usize {
        self.cap.load(Ordering::Acquire)
    }

    /// Lanes inside the gate right now.
    pub fn in_flight(&self) -> usize {
        *self.in_flight.lock()
    }

    /// Concurrency a round of transfers can actually achieve: the
    /// logical cap bounded by the host's real parallelism.
    pub fn effective_cap(&self) -> usize {
        self.cap().min(rayon::host_threads()).max(1)
    }

    /// Re-size the logical cap live (clamped ≥ 1) and wake waiting
    /// lanes so a widened gate is observed immediately. Drains nothing:
    /// in-flight round-trips, staged batches, and queued iterations all
    /// stay valid — lane concurrency is pure wall-clock. The notify
    /// runs under the gate mutex so it cannot be lost between a
    /// waiter's cap check and its park.
    pub fn set_cap(&self, cap: usize) {
        self.cap.store(cap.max(1), Ordering::Release);
        let _guard = self.in_flight.lock();
        self.cv.notify_all();
    }

    /// Apply a DRM [`ThreadAlloc`]: in auto mode the lane cap follows
    /// the loader budget (the transfer stage is the loader-adjacent
    /// wire stage); a fixed cap is left untouched.
    pub fn on_thread_alloc(&self, alloc: &ThreadAlloc) {
        if self.follow_threads {
            self.set_cap(alloc.loader);
        }
    }

    /// Enter the gate, blocking while `effective_cap` lanes are already
    /// transferring. Returns `false` (without entering) once `stop`
    /// rises — a lane being shut down must not wedge on a slot that
    /// will never free.
    pub fn enter(&self, stop: &AtomicBool) -> bool {
        let mut busy = self.in_flight.lock();
        loop {
            if stop.load(Ordering::Acquire) {
                return false;
            }
            if *busy < self.effective_cap() {
                *busy += 1;
                return true;
            }
            self.cv.wait(&mut busy);
        }
    }

    /// Leave the gate, waking one waiting lane.
    pub fn exit(&self) {
        {
            let mut busy = self.in_flight.lock();
            *busy = busy.saturating_sub(1);
        }
        self.cv.notify_all();
    }

    /// Wake every waiter so it can observe a raised stop flag (under
    /// the gate mutex — see [`set_cap`](Self::set_cap) for why an
    /// unlocked notify could be lost).
    fn interrupt(&self) {
        let _guard = self.in_flight.lock();
        self.cv.notify_all();
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
    drains: AtomicUsize,
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
            drains: AtomicUsize::new(0),
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

    /// Times this ring has been drained by a quota-change restart of
    /// the producer (every restart drains every ring once).
    pub fn drains(&self) -> usize {
        self.drains.load(Ordering::Relaxed)
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

    /// Record a restart drain (the staged transfers this lane held died
    /// with the producer generation that prepared them). Buffers stay on
    /// the free list — a drain invalidates *contents*, not allocations.
    fn drain(&self) {
        self.drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Wake any waiter so it can observe a raised stop flag. The notify
    /// happens *under the state mutex*: `acquire` checks the stop flag
    /// and parks while holding that lock, so an unlocked notify could
    /// slot between its check and its park and be lost — leaving a lane
    /// asleep on a ring whose slots will never free (the shutdown path
    /// joins that very lane).
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

    /// Total restart drain events across all rings.
    pub fn drains_total(&self) -> usize {
        self.rings.iter().map(StagingRing::drains).sum()
    }

    /// Record one restart drain on every ring.
    fn drain_all(&self) {
        for r in &self.rings {
            r.drain();
        }
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
    /// Concurrency cap for the per-accelerator transfer lanes (shared
    /// with the executor; a DRM `balance_thread` move re-sizes it live
    /// via [`TransferLaneGate::on_thread_alloc`]).
    pub transfer_gate: Arc<TransferLaneGate>,
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

    /// Inverse of [`accel_of`](Self::accel_of): the trainer index served
    /// by accelerator lane `a`.
    pub(crate) fn trainer_of(&self, a: usize) -> usize {
        a + usize::from(self.hybrid)
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

    /// Concurrent transfer lanes a full round of accelerator round-trips
    /// can achieve right now: one lane per ring, capped by the live
    /// transfer-gate budget.
    pub(crate) fn transfer_lanes(&self) -> usize {
        self.transfer_gate
            .effective_cap()
            .min(self.rings.num_rings())
            .max(1)
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
    /// Wall-clock seconds of the precision round-trip (the functional
    /// stand-in for the PCIe transfer): the *aggregate* wire work, i.e.
    /// the sum over [`lane_transfer_walls`](Self::lane_transfer_walls).
    pub transfer_wall_s: f64,
    /// `(start, end)` of the round-trip relative to the epoch origin
    /// ([`PrepareCtx::origin`]) — the union over every lane's span: the
    /// executor intersects this with its propagation windows to measure
    /// the wire time the staging rings hid behind accelerator compute.
    pub transfer_span: (f64, f64),
    /// Per-accelerator-lane round-trip wall seconds (index = ring
    /// index; `0.0` for lanes that shipped nothing this iteration).
    pub lane_transfer_walls: Vec<f64>,
    /// Per-lane `(start, end)` transfer spans against the epoch origin
    /// (`None` for idle lanes) — the per-lane twin of
    /// [`transfer_span`](Self::transfer_span), from which the executor
    /// measures per-lane hidden-transfer time.
    pub lane_transfer_spans: Vec<Option<(f64, f64)>>,
    /// Concurrent transfer lanes this iteration's round-trips ran under
    /// (`1` for inline serial preparation).
    pub transfer_lanes: usize,
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

/// One accelerator batch traveling from the gather stage to its
/// transfer lane over the lane's bounded channel.
struct LaneWork {
    accel: usize,
    x: Matrix,
}

impl LaneWork {
    /// Return the gathered-but-untransferred buffer to its lane's free
    /// list (a recycle invalidates contents, never allocations).
    fn recycle(self, rings: &StagingRings) {
        rings.ring(self.accel).put_buffer(self.x);
    }
}

/// A lane's completed wire round-trip, headed for the assembler: the
/// transferred matrix, the staging slot it occupies until propagation
/// completes, and the lane-local transfer timing.
struct LaneDone {
    x: Matrix,
    token: SlotToken,
    span: (f64, f64),
    wall_s: f64,
}

impl LaneDone {
    fn recycle(self, rings: &StagingRings) {
        let accel = self.token.accel();
        rings.ring(accel).put_buffer(self.x);
        // self.token drops here, releasing the staging slot
    }
}

/// What a transfer lane reports back to the assembler — exactly one
/// message per [`LaneWork`] it received, **always**, even during
/// teardown. This one-for-one discipline is load-bearing: the assembler
/// pairs completions with skeletons purely by per-lane FIFO order, so a
/// lane that silently dropped a stopped work item would leave the
/// assembler waiting on a completion that never comes while the gather
/// thread is parked on the skeleton channel only the assembler can
/// drain — a deadlock. A lane that bails out (stop raised before its
/// round-trip) recycles the buffer and reports [`Aborted`](Self::Aborted)
/// instead.
enum LaneMsg {
    /// The round-trip completed; the batch occupies its staging slot.
    Done(LaneDone),
    /// The work item was abandoned (shutdown); its buffer was recycled.
    Aborted,
}

/// The non-accelerator remainder of a staged iteration (CPU batch,
/// seed sets, walls) waiting at the assembler for its lanes' completed
/// round-trips. `lanes` lists the ring indices that received a
/// [`LaneWork`] for this iteration, in trainer order — the assembler
/// receives exactly one [`LaneDone`] per entry, in that order, from
/// each lane's FIFO completion channel.
struct StagedSkeleton {
    staged: StagedIteration,
    lanes: Vec<usize>,
}

/// Transfer stage, inline serial variant: round-trip every
/// accelerator-bound matrix at the wire precision (identity at F32; the
/// §VIII quantization extension) back to back on the caller thread,
/// stamping per-lane transfer spans against the epoch origin. `slots`
/// are the staging slots this batch holds until propagation completes
/// (empty in serial execution). The pipelined path runs the *same*
/// round-trip per lane on the concurrent lane threads instead — one
/// in-place call per matrix either way, which is what keeps the two
/// bitwise-identical.
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
    let num_rings = ctx.rings.num_rings();
    let mut lane_transfer_walls = vec![0.0f64; num_rings];
    let mut lane_transfer_spans: Vec<Option<(f64, f64)>> = vec![None; num_rings];
    let mut transfer_wall_s = 0.0f64;
    let mut span: Option<(f64, f64)> = None;
    for (idx, x) in features.iter_mut().enumerate() {
        if let (Some(x), Some(a)) = (x.as_mut(), ctx.accel_of(idx)) {
            let lane_start = ctx.origin.elapsed().as_secs_f64();
            let wall_start = Instant::now();
            ctx.workers
                .loader()
                .install(|| ctx.precision.round_trip_in_place(x));
            let wall = wall_start.elapsed().as_secs_f64();
            let lane_end = ctx.origin.elapsed().as_secs_f64();
            lane_transfer_walls[a] = wall;
            lane_transfer_spans[a] = Some((lane_start, lane_end));
            transfer_wall_s += wall;
            span = Some(match span {
                Some((s, e)) => (s.min(lane_start), e.max(lane_end)),
                None => (lane_start, lane_end),
            });
        }
    }
    let now = ctx.origin.elapsed().as_secs_f64();

    PreparedIteration {
        iter,
        quotas,
        seed_sets,
        batches,
        features,
        sample_wall_s,
        load_wall_s,
        transfer_wall_s,
        transfer_span: span.unwrap_or((now, now)),
        lane_transfer_walls,
        lane_transfer_spans,
        transfer_lanes: 1,
        slots,
        threads,
    }
}

/// Prepare iteration `iter` of `epoch` inline: gather stage plus
/// transfer stage back-to-back on the caller thread, staging nothing
/// (no ring slots are taken). Returns `None` once the epoch's seeds are
/// exhausted.
///
/// This is the single implementation of the producer stages — the
/// serial (`depth = 0`) path calls it directly and the pipelined path
/// runs the same two stages on background threads, which is what makes
/// them bitwise-identical by construction.
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

/// Handle to one background producer run (one contiguous span of
/// iterations under fixed quotas): a gather thread feeding one transfer
/// *lane* per accelerator (each lane owns its staging ring and a
/// bounded work channel; concurrent round-trips are capped by the
/// shared [`TransferLaneGate`]) feeding an assembler that re-joins the
/// lanes' completions into [`PreparedIteration`]s for the consumer
/// queue.
struct Prefetcher {
    rx: Receiver<PreparedIteration>,
    stop: Arc<AtomicBool>,
    ctx: Arc<PrepareCtx>,
    pool: Arc<MatrixPool>,
    /// Prepared iterations currently sitting in the consumer queue
    /// (incremented by the assembler on send, decremented on receive) —
    /// lets tests and benches wait for the queue to fill
    /// deterministically instead of sleeping.
    ready: Arc<AtomicUsize>,
    handles: Vec<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a producer covering `start_iter..end_iter` under `quotas`,
    /// buffering at most `depth` prepared iterations per stage boundary.
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
        let cap = depth.max(1);
        let num_rings = ctx.rings.num_rings();
        let (skel_tx, skel_rx) = sync_channel::<StagedSkeleton>(cap);
        let (ready_tx, rx) = sync_channel::<PreparedIteration>(cap);
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::with_capacity(2 + num_rings);

        // Per-lane channels: gather → lane (bounded work) and lane →
        // assembler (completion). Both are FIFO per lane, so the
        // assembler re-pairs completions with skeletons purely by order
        // — no sequence numbers needed.
        //
        // The completion channel is *unbounded* so a lane's report can
        // never block: real completions are naturally bounded by the
        // staging ring (every LaneDone holds a SlotToken, so at most
        // `ring_depth` exist per lane), and teardown Aborted markers by
        // the work channel's capacity. A lane parked in a completion
        // send would neither drain its work channel (wedging the gather
        // thread) nor drop its sender (wedging the assembler), and
        // neither wait can observe `stop`.
        let mut work_txs = Vec::with_capacity(num_rings);
        let mut done_rxs = Vec::with_capacity(num_rings);
        for a in 0..num_rings {
            let (work_tx, work_rx) = sync_channel::<LaneWork>(cap);
            let (done_tx, done_rx) = std::sync::mpsc::channel::<LaneMsg>();
            work_txs.push(work_tx);
            done_rxs.push(done_rx);

            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name(format!("hyscale-lane-{a}"))
                .spawn(move || {
                    // The lane loop drains its channel to disconnect even
                    // after `stop` rises (recycling, not transferring), so
                    // a gather thread parked on a full lane channel always
                    // completes its send and can observe the flag. Every
                    // received work item is answered with exactly one
                    // LaneMsg — Done or Aborted — because the assembler
                    // pairs completions by FIFO order (see LaneMsg).
                    while let Ok(work) = work_rx.recv() {
                        if stop.load(Ordering::Acquire) {
                            work.recycle(&ctx.rings);
                            let _ = done_tx.send(LaneMsg::Aborted);
                            continue;
                        }
                        // The staging-slot gate: blocks while every slot
                        // of this lane's ring holds a batch still in
                        // transfer or compute — ring depth 1 serializes
                        // this lane's wire with its compute, depth 2
                        // double-buffers them.
                        let Some(token) = ctx.rings.acquire_token(work.accel, &stop) else {
                            work.recycle(&ctx.rings);
                            let _ = done_tx.send(LaneMsg::Aborted);
                            continue;
                        };
                        // The lane-concurrency gate: at most
                        // `TransferLaneGate::effective_cap` lanes run
                        // their round-trips at once (WorkerGroup-style;
                        // resized live by DRM balance_thread moves).
                        // Entered *after* the slot so a gated lane never
                        // blocks slot-holders of other rings.
                        if !ctx.transfer_gate.enter(&stop) {
                            drop(token);
                            work.recycle(&ctx.rings);
                            let _ = done_tx.send(LaneMsg::Aborted);
                            continue;
                        }
                        let lanes = ctx.transfer_lanes();
                        let sub = ctx.workers.loader().sub_group(lanes, work.accel % lanes);
                        let mut x = work.x;
                        let span_start = ctx.origin.elapsed().as_secs_f64();
                        let wall_start = Instant::now();
                        sub.install(|| ctx.precision.round_trip_in_place(&mut x));
                        let wall_s = wall_start.elapsed().as_secs_f64();
                        let span = (span_start, ctx.origin.elapsed().as_secs_f64());
                        ctx.transfer_gate.exit();
                        let done = LaneDone {
                            x,
                            token,
                            span,
                            wall_s,
                        };
                        if let Err(rejected) = done_tx.send(LaneMsg::Done(done)) {
                            // assembler gone (teardown): recycle in place
                            if let LaneMsg::Done(done) = rejected.0 {
                                done.recycle(&ctx.rings);
                            }
                        }
                    }
                })
                .expect("spawn transfer lane");
            handles.push(handle);
        }

        let gather_handle = {
            let ctx = Arc::clone(&ctx);
            let order = Arc::clone(&order);
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hyscale-prefetch".into())
                .spawn(move || {
                    'epoch: for iter in start_iter..end_iter {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        match stage_gather(&ctx, &order, epoch, iter, &quotas, &pool) {
                            Some(mut staged) => {
                                // Fan the accelerator batches out to their
                                // lanes' channels (in trainer order), then
                                // hand the skeleton to the assembler. A
                                // closed channel means the pipeline is
                                // tearing down; recycle what this thread
                                // still holds (the lanes recycle theirs).
                                let mut lanes = Vec::new();
                                for idx in 0..staged.batches.len() {
                                    if staged.batches[idx].is_none() {
                                        continue;
                                    }
                                    let Some(a) = ctx.accel_of(idx) else {
                                        continue;
                                    };
                                    let x = staged.features[idx]
                                        .take()
                                        .expect("gathered accelerator feature matrix");
                                    if work_txs[a].send(LaneWork { accel: a, x }).is_err() {
                                        ctx.recycle(staged.features, &pool);
                                        break 'epoch;
                                    }
                                    lanes.push(a);
                                }
                                if skel_tx.send(StagedSkeleton { staged, lanes }).is_err() {
                                    break; // lane works already sent are
                                           // recycled by their lanes
                                }
                            }
                            None => break, // epoch seeds exhausted
                        }
                    }
                })
                .expect("spawn prefetch gather stage")
        };
        handles.push(gather_handle);

        let assembler_handle = {
            let ctx = Arc::clone(&ctx);
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::Builder::new()
                .name("hyscale-assemble".into())
                .spawn(move || {
                    'assemble: while let Ok(skeleton) = skel_rx.recv() {
                        if stop.load(Ordering::Acquire) {
                            ctx.recycle(skeleton.staged.features, &pool);
                            break;
                        }
                        let StagedSkeleton { staged, lanes } = skeleton;
                        // Collect this iteration's completions, one per
                        // active lane, in lane-FIFO order. An aborted work
                        // item or a dead lane (stop raced us) aborts
                        // assembly; everything gathered so far is
                        // recycled.
                        let mut dones: Vec<(usize, LaneDone)> = Vec::with_capacity(lanes.len());
                        let mut aborted = false;
                        for &a in &lanes {
                            match done_rxs[a].recv() {
                                Ok(LaneMsg::Done(done)) => dones.push((a, done)),
                                Ok(LaneMsg::Aborted) | Err(_) => {
                                    aborted = true;
                                    break;
                                }
                            }
                        }
                        if aborted {
                            for (_, d) in dones {
                                d.recycle(&ctx.rings);
                            }
                            ctx.recycle(staged.features, &pool);
                            break 'assemble;
                        }
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
                        let num_rings = ctx.rings.num_rings();
                        let mut lane_transfer_walls = vec![0.0f64; num_rings];
                        let mut lane_transfer_spans: Vec<Option<(f64, f64)>> =
                            vec![None; num_rings];
                        let mut slots = Vec::with_capacity(dones.len());
                        let mut transfer_wall_s = 0.0f64;
                        let mut span: Option<(f64, f64)> = None;
                        for (a, done) in dones {
                            features[ctx.trainer_of(a)] = Some(done.x);
                            slots.push(done.token);
                            lane_transfer_walls[a] = done.wall_s;
                            lane_transfer_spans[a] = Some(done.span);
                            transfer_wall_s += done.wall_s;
                            span = Some(match span {
                                Some((s, e)) => (s.min(done.span.0), e.max(done.span.1)),
                                None => done.span,
                            });
                        }
                        let now = ctx.origin.elapsed().as_secs_f64();
                        let prep = PreparedIteration {
                            iter,
                            quotas,
                            seed_sets,
                            batches,
                            features,
                            sample_wall_s,
                            load_wall_s,
                            transfer_wall_s,
                            transfer_span: span.unwrap_or((now, now)),
                            lane_transfer_walls,
                            lane_transfer_spans,
                            transfer_lanes: ctx.transfer_lanes(),
                            slots,
                            threads,
                        };
                        // Count the item *before* committing it to the
                        // channel: a consumer receiving it concurrently
                        // must never observe its decrement before this
                        // increment (underflow).
                        ready.fetch_add(1, Ordering::Release);
                        if let Err(rejected) = ready_tx.send(prep) {
                            ready.fetch_sub(1, Ordering::Release);
                            ctx.recycle(rejected.0.features, &pool);
                            break;
                        }
                    }
                    // Recycle whatever the gather stage had buffered.
                    // Blocking receives, not `try_recv`: a gather thread
                    // parked in `send` on the full channel completes its
                    // send into the capacity each receive frees, and a
                    // `try_recv` drain would race past that iteration
                    // and destroy its buffers instead of pooling them.
                    // This terminates: by the time the main loop breaks,
                    // `stop` is raised (every break path follows it), so
                    // the gather thread exits its loop and drops its
                    // senders after at most one in-flight iteration.
                    // Dropping `done_rxs` on exit unblocks any lane
                    // parked in `done_tx.send`, and the lanes' own drain
                    // loops recycle the rest.
                    while let Ok(skeleton) = skel_rx.recv() {
                        ctx.recycle(skeleton.staged.features, &pool);
                    }
                })
                .expect("spawn prefetch assembler stage")
        };
        handles.push(assembler_handle);

        Self {
            rx,
            stop,
            ctx,
            pool,
            ready,
            handles,
        }
    }

    /// Blocking receive; `None` once the producer has finished the
    /// epoch. A producer that stopped because one of its threads
    /// panicked closes the queue early: the panic is re-raised here.
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
    /// join its threads. Returns the number of per-trainer batches the
    /// queue held (prepared work thrown away).
    fn shutdown(mut self) -> usize {
        self.halt();
        // Receive until the queue disconnects: a stage blocked on a full
        // channel completes its send and then observes `stop`, and every
        // stage recycles what it still holds before exiting, so each
        // buffer returns through the ring-aware recycle. Bounded: at most
        // one in-flight iteration per stage — the same work the consumer
        // would do inline anyway before it can proceed.
        let mut flushed = 0;
        while let Ok(prep) = self.rx.recv() {
            flushed += prep.batches.iter().flatten().count();
            self.ctx.recycle(prep.features, &self.pool);
        }
        self.join();
        flushed
    }

    /// Raise `stop` and wake transfer lanes blocked on a full staging
    /// ring or on the lane-concurrency gate so they observe it and bail
    /// out.
    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.ctx.rings.interrupt_all();
        self.ctx.transfer_gate.interrupt();
    }

    /// Halt and join every producer thread, re-raising the first panic
    /// on this thread. Idempotent: a second call finds no handles left.
    fn join(&mut self) {
        self.halt();
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for h in self.handles.drain(..) {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
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
    /// item is recycled, every staging ring records one drain, and a
    /// fresh generation is spawned at `iter` under `quotas`.
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

    /// Shut the live generation down, count the restart and one drain
    /// on every ring, and respawn at `(iter, quotas)`.
    fn restart(&mut self, iter: usize, quotas: &[usize]) {
        let t0 = Instant::now();
        if let Some(p) = self.pipeline.take() {
            self.batches_flushed += p.shutdown();
        }
        self.ctx.rings.drain_all();
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
    /// worker pools — and, in auto mode, the transfer-lane concurrency
    /// cap — so the producer's next dispatch runs at the new widths.
    /// This is an immediate cross-thread atomic store, not a message
    /// through the queue — it is unordered with respect to in-flight
    /// iterations and deliberately restarts nothing. Pool widths and
    /// lane concurrency change wall-clock, never bytes, so
    /// already-prepared iterations and in-flight transfers remain valid
    /// (`tests/equivalence.rs` and the multi-lane matrix in
    /// `tests/proptest_invariants.rs` pin this bitwise).
    pub fn rebalance_threads(&self, alloc: &ThreadAlloc) {
        self.ctx.workers.apply(alloc);
        self.ctx.transfer_gate.on_thread_alloc(alloc);
    }

    /// Concurrent transfer lanes the producer can run right now (one
    /// lane per accelerator ring, capped by the live
    /// [`TransferLaneGate`] budget).
    pub fn transfer_lanes(&self) -> usize {
        self.ctx.transfer_lanes()
    }

    /// The live transfer-lane concurrency gate.
    pub fn transfer_gate(&self) -> &Arc<TransferLaneGate> {
        &self.ctx.transfer_gate
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
            transfer_gate: Arc::new(TransferLaneGate::new(alloc.loader, true)),
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
        // up to a few iterations (buffered or in flight across the two
        // producer stages) may predate the re-size; the move must land
        // within a few more.
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
        assert_eq!(
            feed.rings().drains_total(),
            0,
            "thread moves must not drain the staging rings"
        );
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
    fn feed_restarts_on_quota_change_and_drains_every_ring() {
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = feed_over(&ctx, &order, 2, &pool, &quotas);
        let first = feed.obtain(0, &quotas).expect("first iteration");
        feed.recycle(first);
        assert_eq!(feed.rings().drains_total(), 0);
        // 4 seeds move from trainer 1 (lane 0) to the CPU: the next
        // request names the new quotas, so the producer restarts
        let new_quotas = vec![12usize, 4, 8];
        let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");
        assert_eq!(feed.restarts(), 1);
        for a in 0..2 {
            assert_eq!(feed.rings().ring(a).drains(), 1, "ring {a} drained once");
        }
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
        assert_eq!(feed.rings().drains_total(), 0, "equal quotas drained");
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

    #[test]
    fn transfer_gate_blocks_at_cap_and_wakes_on_resize() {
        // a waiter parked on a full gate must wake when balance_thread
        // widens the cap — not only when a lane exits
        std::env::set_var("HYSCALE_RAYON_THREADS", "4");
        let gate = Arc::new(TransferLaneGate::new(1, true));
        let stop = Arc::new(AtomicBool::new(false));
        assert!(gate.enter(&stop));
        assert_eq!(gate.in_flight(), 1);
        let waiter = {
            let gate = Arc::clone(&gate);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || gate.enter(&stop))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(gate.in_flight(), 1, "cap 1 must hold the second lane");
        gate.on_thread_alloc(&ThreadAlloc {
            sampler: 1,
            loader: 2,
            trainer: 1,
        });
        assert_eq!(gate.cap(), 2, "auto mode follows the loader budget");
        assert!(waiter.join().expect("waiter"), "resize never woke the lane");
        assert_eq!(gate.in_flight(), 2);
        gate.exit();
        gate.exit();
        assert_eq!(gate.in_flight(), 0);
        std::env::remove_var("HYSCALE_RAYON_THREADS");
    }

    #[test]
    fn transfer_gate_refuses_after_stop() {
        let gate = Arc::new(TransferLaneGate::new(1, false));
        let stop = Arc::new(AtomicBool::new(false));
        assert!(gate.enter(&stop));
        stop.store(true, Ordering::Release);
        // full gate + stop: refuse rather than block (shutdown path)
        assert!(!gate.enter(&stop));
        // a fixed cap ignores thread re-allocations
        gate.on_thread_alloc(&ThreadAlloc {
            sampler: 1,
            loader: 8,
            trainer: 1,
        });
        assert_eq!(gate.cap(), 1, "fixed cap must not follow the loader");
        gate.exit();
        assert_eq!(gate.in_flight(), 0);
    }
}
