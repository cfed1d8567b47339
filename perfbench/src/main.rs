//! HyScale-GNN benchmark: trains one workload through `HybridTrainer`,
//! replays its first iterations serially through each layer, checks that
//! training was correct, and prints one JSON result line.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sage-products --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the replay's spans to `perfbench/out/` as Chrome
//! trace-event JSON. Both run the same work; the exit code is non-zero
//! when the correctness gate fails.

mod metrics;
mod replay;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod json;

use hyscale_core::drm::{DrmAction, WorkloadSplit};
use hyscale_core::{EpochReport, HybridTrainer, IterationReport};
use metrics::{result_line, END_TO_END, PER_LAYER};
use replay::{param_digest, replay, ReplayOutcome};
use stats::{mean, median, percentile, IterTally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{chrome_trace_json, self_times, totals_by_name, Tracer};
use workload::{Workload, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Iteration-wall samples the measured window holds at least, so ten lie
/// beyond p90.
const MIN_MEASURED_ITERS: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A `/proc/self/status` field in MB (the kernel reports kB).
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Seeds in iteration `iter` of an epoch over `train` seeds at `total`
/// seeds per iteration (the last one may run short).
fn iteration_seeds(train: usize, total: usize, iter: usize) -> usize {
    train.saturating_sub(iter * total).min(total)
}

/// Everything one run measured, before it is split into the two tables.
struct Run {
    metrics: BTreeMap<&'static str, f64>,
    tally: IterTally,
    errors: Vec<String>,
    trace_json: String,
}

fn run(w: &Workload, seed: u64, seconds: f64) -> Run {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut errors = Vec::new();
    let cfg = w.config(seed);

    // --- Set-up: dataset build + trainer construction, several times ---
    let (mut setup, mut materialize, mut new) = (Vec::new(), Vec::new(), Vec::new());
    let mut trainer = None;
    let mut train_seeds = 0;
    for _ in 0..SETUPS {
        drop(trainer.take()); // one trainer alive at a time: honest peak RSS
        let t0 = Instant::now();
        let dataset = w.dataset(seed);
        let t1 = Instant::now();
        train_seeds = dataset.splits.train.len();
        trainer = Some(HybridTrainer::new(cfg.clone(), dataset));
        let t2 = Instant::now();
        materialize.push((t1 - t0).as_secs_f64());
        new.push((t2 - t1).as_secs_f64());
        setup.push((t2 - t0).as_secs_f64());
    }
    let mut trainer = trainer.expect("at least one set-up");
    eprintln!(
        "set-up walls: {setup:.3?} s, VmHWM {:.0} MB",
        proc_status_mb("VmHWM")
    );
    m.insert("setup_s", median(&setup));
    m.insert("graph.materialize_s", median(&materialize));
    m.insert("executor.new_s", median(&new));

    let split = trainer.split().clone();
    let planned = train_seeds.div_ceil(split.total);
    let seeds_of = |it: &IterationReport| iteration_seeds(train_seeds, split.total, it.iter);

    // --- Warm-up epoch: cold pools, first page faults, DRM settling ---
    let t = Instant::now();
    let warmup = trainer.train_epoch();
    m.insert("warmup_epoch_s", t.elapsed().as_secs_f64());
    let rss_after_warmup = proc_status_mb("VmRSS");
    eprintln!(
        "warm-up: VmRSS {rss_after_warmup:.0} MB, VmHWM {:.0} MB",
        proc_status_mb("VmHWM")
    );

    // --- Measured window: whole epochs, at least MIN_MEASURED_ITERS
    // iterations and at least `seconds` long ---
    let min_epochs = MIN_MEASURED_ITERS.div_ceil(planned);
    let window = Instant::now();
    let mut measured: Vec<EpochReport> = Vec::new();
    let mut digest = 0;
    while measured.len() < min_epochs || window.elapsed() < Duration::from_secs_f64(seconds) {
        let r = trainer.train_epoch();
        eprintln!(
            "epoch {}: {} iterations, wall {:.3} s, loss {:.5}, VmHWM {:.0} MB",
            r.epoch,
            r.trace.len(),
            r.wall_s,
            r.loss,
            proc_status_mb("VmHWM")
        );
        measured.push(r);
        if measured.len() == min_epochs {
            digest = param_digest(&trainer.model().flatten_params());
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    m.insert("peak_rss_mb", proc_status_mb("VmHWM"));
    m.insert(
        "executor.rss_growth_mb",
        proc_status_mb("VmRSS") - rss_after_warmup,
    );
    eprintln!("trainer: parameter digest after epoch {min_epochs}: {digest:016x}");
    drop(trainer);

    let iters: Vec<_> = measured.iter().flat_map(|r| &r.trace).collect();
    let iter_walls: Vec<f64> = iters.iter().map(|it| it.wall.iter_s).collect();
    let seeds: usize = iters.iter().map(|it| seeds_of(it)).sum();
    m.insert("seeds_per_s", seeds as f64 / window_s);
    for (name, q) in [("iter_wall_p50_s", 0.5), ("iter_wall_p90_s", 0.9)] {
        let v = percentile(&iter_walls, q).unwrap_or_else(|e| {
            errors.push(format!("{name}: {e}"));
            f64::NAN
        });
        m.insert(name, v);
    }
    m.insert("executor.measured_iters", iter_walls.len() as f64);
    // Seed-weighted mean loss over the last epoch of the fixed window:
    // an epoch fixed by the seed count, not by host speed, and averaged
    // over its iterations rather than taken from the short last batch.
    let last = &measured[min_epochs - 1].trace;
    let weighted: f64 = last
        .iter()
        .map(|it| f64::from(it.loss) * seeds_of(it) as f64)
        .sum();
    let last_seeds: usize = last.iter().map(seeds_of).sum();
    m.insert("final_loss", weighted / last_seeds.max(1) as f64);
    m.insert(
        "executor.train_s",
        mean(&iters.iter().map(|it| it.wall.train_s).collect::<Vec<_>>()),
    );
    m.insert(
        "executor.data_wait_s",
        mean(
            &iters
                .iter()
                .map(|it| it.wall.iter_s - it.wall.train_s)
                .collect::<Vec<_>>(),
        ),
    );
    let transfer: f64 = iters.iter().map(|it| it.wall.transfer_s).sum();
    let hidden: f64 = iters.iter().map(|it| it.wall.transfer_hidden_s).sum();
    m.insert(
        "executor.transfer_hidden_ratio",
        if transfer > 0.0 {
            hidden / transfer
        } else {
            0.0
        },
    );

    // prefetch and DRM counters over every epoch, warm-up included
    let all: Vec<&EpochReport> = std::iter::once(&warmup).chain(&measured).collect();
    let all_iters = || all.iter().flat_map(|r| &r.trace);
    m.insert(
        "prefetch.restarts",
        all.iter().map(|r| r.prefetch_restarts).sum::<usize>() as f64,
    );
    m.insert(
        "prefetch.invalidation_s",
        all_iters().map(|it| it.wall.invalidation_s).sum(),
    );
    let salvaged: usize = all_iters().map(|it| it.wall.batches_salvaged).sum();
    let flushed: usize = all_iters().map(|it| it.wall.batches_flushed).sum();
    m.insert(
        "prefetch.salvage_ratio",
        if salvaged + flushed > 0 {
            salvaged as f64 / (salvaged + flushed) as f64
        } else {
            0.0
        },
    );
    let count =
        |pred: fn(&DrmAction) -> bool| all_iters().filter(|it| pred(&it.drm_action)).count();
    m.insert(
        "drm.work_moves",
        count(|a| matches!(a, DrmAction::BalanceWork { .. })) as f64,
    );
    m.insert(
        "drm.thread_moves",
        count(|a| matches!(a, DrmAction::BalanceThread { .. })) as f64,
    );

    let mut tally = IterTally::default();
    for r in &all {
        tally.add_epoch(planned, r.trace.iter().map(|it| it.loss));
    }
    m.insert("iters_ok_ratio", tally.ok_ratio());
    if tally.failed() > 0 {
        errors.push(format!(
            "{} of {} planned iterations did not complete with a finite loss",
            tally.failed(),
            tally.planned
        ));
    }

    // --- Serial replay of warm-up iterations, untraced then traced ---
    // Iteration i runs under the quotas the trainer used for it: the
    // initial split, then the split after each DRM decision.
    let replay_iters = w.replay_iters.min(warmup.trace.len());
    let quotas: Vec<Vec<usize>> = (0..replay_iters)
        .map(|i| match i {
            0 => split.quotas(),
            _ => WorkloadSplit::new(
                warmup.trace[i - 1].cpu_quota,
                split.total,
                split.num_accelerators,
            )
            .quotas(),
        })
        .collect();
    let dataset = w.dataset(seed);
    let plain = replay(&dataset, &cfg, &quotas, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = replay(&dataset, &cfg, &quotas, &mut tracer);
    errors.extend(replay_errors(&plain, &traced));

    let n = replay_iters.max(1) as f64;
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let totals = totals_by_name(spans, &selfs);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0) / n;
    for (metric, span) in [
        ("sampler.plan_s", "sampler.plan"),
        ("sampler.sample_s", "sampler.sample_many"),
        ("graph.gather_s", "graph.gather"),
        ("tensor.round_trip_s", "tensor.round_trip"),
        ("gnn.forward_s", "gnn.forward"),
        ("gnn.train_step_s", "gnn.train_step"),
        ("sync.all_reduce_s", "sync.all_reduce"),
        ("gnn.apply_s", "gnn.apply_gradients"),
    ] {
        m.insert(metric, total(span));
    }
    m.insert(
        "gnn.backward_s",
        total("gnn.train_step") - total("gnn.forward"),
    );
    let (root_s, root_self_s) = totals.get("replay.iter").map_or((0.0, 0.0), |t| (t.0, t.1));
    m.insert("replay.self_s", root_self_s / n);
    m.insert(
        "trace.span_coverage_ratio",
        if root_s > 0.0 {
            1.0 - root_self_s / root_s
        } else {
            0.0
        },
    );
    // medians: the first replay also pays for cold buffers
    m.insert("replay.iter_s", median(&plain.iter_s));
    m.insert(
        "trace.overhead_ratio",
        median(&traced.iter_s) / median(&plain.iter_s) - 1.0,
    );
    m.insert("sampler.edges", plain.sampled_edges as f64 / n);
    m.insert("graph.gather_rows", plain.gathered_rows as f64 / n);
    m.insert("tensor.wire_mb", plain.wire_bytes as f64 / n / 1e6);
    m.insert("sync.grad_mb", plain.grad_bytes as f64 / n / 1e6);

    Run {
        metrics: m,
        tally,
        errors,
        trace_json: chrome_trace_json(spans, &selfs),
    }
}

/// The replay's share of the gate: finite, falling losses, and a traced
/// repeat that ends on the same parameters as the untraced run.
fn replay_errors(plain: &ReplayOutcome, traced: &ReplayOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    if plain.losses.len() < 2 {
        errors.push(format!(
            "replay ran {} iterations, needs 2",
            plain.losses.len()
        ));
        return errors;
    }
    if plain.losses.iter().any(|l| !l.is_finite()) {
        errors.push(format!("replay loss not finite: {:?}", plain.losses));
    }
    let half = plain.losses.len() / 2;
    let early = plain.losses[..half].iter().sum::<f32>() / half as f32;
    let late = plain.losses[plain.losses.len() - half..]
        .iter()
        .sum::<f32>()
        / half as f32;
    if late.partial_cmp(&early) != Some(std::cmp::Ordering::Less) {
        errors.push(format!("replay loss did not fall: {:?}", plain.losses));
    }
    if plain.digest != traced.digest || plain.losses != traced.losses {
        errors.push(format!(
            "repeat of the same replay diverged: digest {:016x} vs {:016x}",
            plain.digest, traced.digest
        ));
    }
    errors
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "host: nproc={nproc} rayon_width={} commit={}",
        rayon::max_threads(),
        git_commit()
    );
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let run = run(&args.workload, args.seed, args.seconds);
    if args.trace {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name, args.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &run.trace_json)) {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    }
    for e in &run.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = run.errors.is_empty();
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "{}",
        result_line(
            correct,
            run.tally.planned.max(1),
            run.tally.failed(),
            table,
            &run.metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}
