//! The repository benchmark's workload process.
//!
//! ```text
//! clm-benchsuite --workload <city-sparse|orbit-dense|serve-churn|pool-reentrancy>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload from a single driver thread and prints a
//! `#detail` JSON line (host, layer shares, failures) followed by the result
//! line `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones of the traced serial driver.  `run.py` builds this binary,
//! runs it under a watchdog and turns hangs and panics into failed runs.

mod common;
mod serve;
mod traced;
mod training;

use clm_core::{SystemKind, TrainConfig};
use clm_runtime::{ExecutionBackend, ThreadedBackend, ThreadedConfig};
use common::{Args, Report};
use gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "city-sparse" => training::run(&training::city_sparse(), &args),
        "orbit-dense" => training::run(&training::orbit_dense(), &args),
        "serve-churn" => serve::run(&args),
        "pool-reentrancy" => pool_reentrancy(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let failed = report.ledger.failures.len() as f64 / report.ledger.attempted.max(1) as f64;
        report.metrics.put("bench.failed_frac", failed, "frac");
    }
    report.print(&args);
}

/// A diagnostic, not a benchmark workload: the threaded backend with two
/// device stand-ins and two compute threads, the public configuration that
/// reaches the compute pool's re-entrant region.  It either finishes or
/// hangs; the watchdog in `run.py` turns a hang into a failed run.
fn pool_reentrancy(args: &Args) -> Report {
    let mut report = Report::default();
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Bicycle),
        &DatasetConfig {
            num_gaussians: 600,
            num_views: 8,
            width: 64,
            height: 48,
            seed: args.seed,
        },
    );
    let targets = clm_core::ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 300,
            seed: args.seed,
            ..Default::default()
        },
    );
    let mut backend = ThreadedBackend::new(
        init,
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 4,
            seed: args.seed,
            ..Default::default()
        },
        ThreadedConfig {
            num_devices: 2,
            compute_threads: 2,
            ..Default::default()
        },
    );
    let started = std::time::Instant::now();
    let mut images = 0;
    while images == 0 || common::secs(started) < args.seconds {
        for r in [0..4, 4..8] {
            backend.execute_batch(&dataset.cameras[r.clone()], &targets[r]);
            images += 4;
            report.ledger.op();
        }
    }
    report.metrics.put(
        "images_per_s",
        images as f64 / common::secs(started),
        "img/s",
    );
    report
}
