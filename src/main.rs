//! `hyscale` — command-line interface to the HyScale-GNN training system.
//!
//! ```text
//! hyscale info                         platform + dataset overview
//! hyscale train [options]              train on a synthetic dataset
//! hyscale predict [options]            performance-model predictions
//! hyscale scalability [options]        Fig. 9-style scaling study
//! ```
//!
//! Run `hyscale <command> --help` for options. An unknown flag, an
//! unknown `--dataset`/`--model`/`--accel` value, a numeric option that
//! is not a whole number ≥ 1, and a `--scale` too large for the dataset
//! are rejected with a message naming the flag and exit code 2.

use hyscale::core::metrics::TrainingHistory;
use hyscale::core::{AcceleratorKind, HybridTrainer, PerfModel, SystemConfig};
use hyscale::device::memory::check_device_placement;
use hyscale::device::spec::{table_ii, ALVEO_U250, RTX_A5000};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::{
    DatasetSpec, ALL_DATASETS, MAG240M_HOMO, OGBN_PAPERS100M, OGBN_PRODUCTS,
};
use hyscale::graph::features::Splits;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let opts = match Options::parse(&args[args.len().min(1)..]) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            help();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        "info" => info(),
        "train" => train(&opts),
        "predict" => predict(&opts),
        "scalability" => scalability(&opts),
        "help" | "--help" | "-h" => {
            help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            help();
            ExitCode::FAILURE
        }
    }
}

fn help() {
    println!(
        "hyscale — hybrid GNN training on single-node heterogeneous architectures\n\
         \n\
         USAGE: hyscale <command> [options]\n\
         \n\
         COMMANDS:\n\
           info          platform specs (Table II) and dataset stats (Table III)\n\
           train         functional training on a scaled synthetic dataset\n\
           predict       performance-model epoch-time predictions (Eq. 5-13)\n\
           scalability   normalized speedup across accelerator counts (Fig. 9)\n\
         \n\
         OPTIONS:\n\
           --dataset <products|papers100m|mag240m>   (default products)\n\
           --model <gcn|sage|gin>                    (default gcn)\n\
           --accel <fpga|gpu>                        (default fpga)\n\
           --accelerators <n>                        (default 4)\n\
           --epochs <n>                              (default 4)\n\
           --batch <n>                               seeds per trainer (default 512)\n\
           --scale <n>                               dataset down-scale (default 4000)\n\
           --help, -h                                print this help"
    );
}

struct Options {
    dataset: DatasetSpec,
    model: GnnKind,
    accel: AcceleratorKind,
    accelerators: usize,
    epochs: usize,
    batch: usize,
    scale: u64,
}

/// Parse `flag`'s value as one of `choices`' names.
fn choice<T: Clone>(
    flag: &str,
    value: Option<&String>,
    choices: &[(&str, T)],
) -> Result<T, String> {
    let found = value.and_then(|v| choices.iter().find(|(name, _)| name == v));
    found.map(|(_, t)| t.clone()).ok_or_else(|| {
        let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
        let expected = format!("{flag} expects one of {}", names.join("|"));
        match value {
            Some(v) => format!("{expected}, got `{v}`"),
            None => expected,
        }
    })
}

/// Parse `flag`'s value as a whole number ≥ 1.
fn positive(flag: &str, value: Option<&String>) -> Result<usize, String> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| match value {
            Some(v) => format!("{flag} expects a whole number >= 1, got `{v}`"),
            None => format!("{flag} expects a whole number >= 1"),
        })
}

impl Options {
    /// Parse the options after the command; `Ok(None)` asks for the help.
    fn parse(args: &[String]) -> Result<Option<Options>, String> {
        let mut o = Options {
            dataset: OGBN_PRODUCTS,
            model: GnnKind::Gcn,
            accel: AcceleratorKind::u250(),
            accelerators: 4,
            epochs: 4,
            batch: 512,
            scale: 4000,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--help" | "-h" => return Ok(None),
                "--dataset" => {
                    o.dataset = choice(
                        flag,
                        it.next(),
                        &[
                            ("products", OGBN_PRODUCTS),
                            ("papers100m", OGBN_PAPERS100M),
                            ("mag240m", MAG240M_HOMO),
                        ],
                    )?
                }
                "--model" => {
                    o.model = choice(
                        flag,
                        it.next(),
                        &[
                            ("gcn", GnnKind::Gcn),
                            ("sage", GnnKind::GraphSage),
                            ("gin", GnnKind::Gin),
                        ],
                    )?
                }
                "--accel" => {
                    o.accel = choice(
                        flag,
                        it.next(),
                        &[
                            ("fpga", AcceleratorKind::u250()),
                            ("gpu", AcceleratorKind::a5000()),
                        ],
                    )?
                }
                "--accelerators" => o.accelerators = positive(flag, it.next())?,
                "--epochs" => o.epochs = positive(flag, it.next())?,
                "--batch" => o.batch = positive(flag, it.next())?,
                "--scale" => o.scale = positive(flag, it.next())? as u64,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        // Checked after every flag is read: the bound depends on --dataset.
        let max_scale = o.dataset.max_scale();
        if o.scale > max_scale {
            return Err(format!(
                "--scale expects at most {max_scale} for {}, got `{}`",
                o.dataset.name, o.scale
            ));
        }
        Ok(Some(o))
    }

    fn system(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(self.accel.clone(), self.model);
        cfg.platform.num_accelerators = self.accelerators;
        cfg.train.batch_per_trainer = self.batch;
        cfg.train.max_functional_iters = Some(4);
        cfg
    }
}

fn info() -> ExitCode {
    println!("Platforms (paper Table II):");
    for d in table_ii() {
        println!(
            "  {:<22} {:>5.2} GHz  {:>5.1} TFLOPS  {:>4.0} MB on-chip  {:>4.0} GB/s",
            d.name, d.freq_ghz, d.peak_tflops, d.onchip_mb, d.mem_bandwidth_gbs
        );
    }
    println!("\nDatasets (paper Table III):");
    for d in ALL_DATASETS {
        let fits_gpu = check_device_placement(&d, &RTX_A5000).fits;
        let fits_fpga = check_device_placement(&d, &ALVEO_U250).fits;
        println!(
            "  {:<18} |V| {:>11}  |E| {:>13}  dims {}/{}/{}  device-resident: GPU {} FPGA {}",
            d.name, d.num_vertices, d.num_edges, d.f0, d.f1, d.f2, fits_gpu, fits_fpga
        );
    }
    ExitCode::SUCCESS
}

fn train(o: &Options) -> ExitCode {
    println!(
        "training {} on {} (1/{} scale), CPU + {}x {}",
        o.model.name(),
        o.dataset.name,
        o.scale,
        o.accelerators,
        o.accel.label()
    );
    let mut dataset = o.dataset.materialize(o.scale, 42);
    dataset.splits = Splits::random(dataset.graph.num_vertices(), 0.6, 0.2, 7);
    let test = dataset.splits.test.clone();
    let mut trainer = HybridTrainer::new(o.system(), dataset);
    let mut history = TrainingHistory::new();
    for _ in 0..o.epochs {
        let report = trainer.train_epoch();
        let val = trainer.evaluate(&test);
        println!("{report}  val {val:.3}");
        history.record(&report, Some(val));
    }
    println!(
        "\nbest val accuracy {:.3}; mean simulated epoch {:.3}s; settled cpu quota {}",
        history.best_val_accuracy().unwrap_or(0.0),
        history.mean_epoch_time().unwrap_or(0.0),
        trainer.split().cpu_quota
    );
    ExitCode::SUCCESS
}

fn predict(o: &Options) -> ExitCode {
    let cfg = o.system();
    let pm = PerfModel::new(&cfg);
    let epoch = pm.predict_epoch_time(&o.dataset);
    let mteps = pm.throughput_mteps(&o.dataset);
    let (split, threads) = pm.settled_mapping(&o.dataset);
    println!(
        "performance model ({} on {}, {}x {}):",
        o.model.name(),
        o.dataset.name,
        o.accelerators,
        o.accel.label()
    );
    println!("  predicted epoch time : {epoch:.3} s");
    println!("  predicted throughput : {mteps:.1} MTEPS");
    println!(
        "  settled mapping      : cpu quota {}/{} seeds, sampling on accel {:.0}%, threads s{}/l{}/t{}",
        split.cpu_quota,
        split.total,
        split.sampling_on_accel * 100.0,
        threads.sampler,
        threads.loader,
        threads.trainer
    );
    ExitCode::SUCCESS
}

fn scalability(o: &Options) -> ExitCode {
    let cfg = o.system();
    let pm = PerfModel::new(&cfg);
    let counts = [1usize, 2, 4, 8, 16];
    println!(
        "scalability of {} on {} ({} accelerators/column):",
        o.model.name(),
        o.dataset.name,
        o.accel.label()
    );
    for (n, s) in pm.scalability(&o.dataset, &counts) {
        println!("  {n:>3} accelerators: {s:>6.2}x");
    }
    ExitCode::SUCCESS
}
