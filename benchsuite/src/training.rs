//! The training workloads, `city-sparse` and `orbit-dense`.
//!
//! A run sets the scene up several times (the median is `setup_s`), then
//! trains fixed-length rounds from the same initial model until the time
//! budget is spent.  Each round runs the same trajectory on
//! `ThreadedBackend::execute_batch` and on the single-worker
//! `Trainer::train_batch` (plus, with tracing, on the traced serial
//! driver), alternating which goes first so drift hits both alike.  Every
//! round must end with bit-identical models, equal to the first round's,
//! and the first round's final model must clear the workload's PSNR floor.
//! After the timed rounds the start of the trajectory runs once more on the
//! simulated `PipelinedEngine` for the virtual device clock.

use crate::common::{
    another_round, images_fingerprint, median, model_fingerprint, peak_rss_mb, secs,
    state_fingerprint, tail, Args, HostSpeed, Report,
};
use crate::traced::{put_layers, traced_batch, Layers};
use clm_core::{
    ground_truth_images, DensifySchedule, OrderingStrategy, SystemKind, TrainConfig, Trainer,
};
use clm_runtime::{
    Calibration, ExecutionBackend, PipelinedEngine, PrefetchPolicy, RuntimeConfig, ThreadedBackend,
    ThreadedConfig,
};
use clm_trace::Checkpoint;
use gs_core::gaussian::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, DensifyConfig, InitConfig,
    SceneKind, SceneSpec,
};
use std::time::Instant;

/// Generation seed of the ground-truth scenes.  The scene is part of a
/// workload's definition, so it stays fixed; `--seed` draws the initial
/// point-cloud sample and the ordering and densification seeds.  Scene
/// draws move throughput by ±10% from seed to seed, which would swamp the
/// changes the benchmark exists to resolve.
pub const SCENE_SEED: u64 = 7;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Batches the simulated engine runs for the virtual clock (the start of
/// the round's trajectory).
const SIM_BATCHES: usize = 2;

/// The fixed definition of one training workload.
#[derive(Debug, Clone)]
pub struct TrainingSpec {
    pub scene: SceneKind,
    pub gt_gaussians: usize,
    pub model_gaussians: usize,
    /// Initial isotropic sigma as a fraction of the scene extent.
    pub sigma_frac: f32,
    pub width: u32,
    pub height: u32,
    pub views: usize,
    pub batch: usize,
    /// Densify every this many batches (`None` = fixed-size model).
    pub densify_every: Option<usize>,
    /// `ThreadedConfig::compute_threads` (0 = `nproc`).
    pub compute_threads: usize,
    /// `ThreadedConfig::adam_threads` (0 = `nproc`).
    pub adam_threads: usize,
    /// Batches per round.
    pub round_batches: usize,
    /// Mean training-view PSNR the final model must reach (about 2 dB
    /// under what every seed reached when the benchmark was defined).
    pub psnr_floor_db: f64,
}

/// The paper's regime: a large model seen through sparse views, with a
/// working set far past L2.
pub fn city_sparse() -> TrainingSpec {
    TrainingSpec {
        scene: SceneKind::BigCity,
        gt_gaussians: 200_000,
        model_gaussians: 100_000,
        sigma_frac: 0.03,
        width: 64,
        height: 48,
        views: 16,
        batch: 16,
        densify_every: Some(4),
        compute_threads: 1,
        adam_threads: 1,
        round_batches: 5,
        psnr_floor_db: 20.0,
    }
}

/// The render-bound control: a small model almost entirely visible in
/// every view.
pub fn orbit_dense() -> TrainingSpec {
    TrainingSpec {
        scene: SceneKind::Bicycle,
        gt_gaussians: 4_000,
        model_gaussians: 2_000,
        sigma_frac: 0.03,
        width: 160,
        height: 120,
        views: 16,
        batch: 4,
        densify_every: None,
        compute_threads: 0,
        adam_threads: 0,
        round_batches: 4,
        psnr_floor_db: 17.5,
    }
}

/// One set-up's products and its timed parts.
struct Setup {
    dataset: Dataset,
    targets: Vec<Image>,
    init: GaussianModel,
    times: SetupTimes,
}

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    scene_s: f64,
    targets_s: f64,
    init_s: f64,
    calibrate_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.scene_s + self.targets_s + self.init_s + self.calibrate_s
    }
}

fn set_up(spec: &TrainingSpec, seed: u64, first: bool) -> Setup {
    let scene_spec = SceneSpec::of(spec.scene);
    let t = Instant::now();
    let dataset = generate_dataset(
        &scene_spec,
        &DatasetConfig {
            num_gaussians: spec.gt_gaussians,
            num_views: spec.views,
            width: spec.width,
            height: spec.height,
            seed: SCENE_SEED,
        },
    );
    let scene_s = secs(t);
    let t = Instant::now();
    let targets = ground_truth_images(&dataset);
    let targets_s = secs(t);
    let t = Instant::now();
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: spec.model_gaussians,
            initial_sigma: spec.sigma_frac * scene_spec.extent,
            seed: seed ^ 0x5eed,
            ..Default::default()
        },
    );
    let init_s = secs(t);
    // The first set-up pays the process's one autotune pass; later ones
    // repeat the same calibration micro-benches.
    let t = Instant::now();
    if first {
        clm_runtime::tuned();
    } else {
        std::hint::black_box(Calibration::run());
    }
    let calibrate_s = secs(t);
    Setup {
        dataset,
        targets,
        init,
        times: SetupTimes {
            scene_s,
            targets_s,
            init_s,
            calibrate_s,
        },
    }
}

fn train_config(spec: &TrainingSpec, seed: u64, band_height: u32) -> TrainConfig {
    TrainConfig {
        system: SystemKind::Clm,
        ordering: OrderingStrategy::Tsp,
        batch_size: spec.batch,
        gaussian_caching: true,
        overlapped_adam: true,
        compute_threads: 1,
        band_height,
        densify: spec.densify_every.map(|every| DensifySchedule {
            every_batches: every,
            config: DensifyConfig {
                max_gaussians: spec.model_gaussians * 3 / 2,
                seed: seed ^ 0xd15e,
                ..Default::default()
            },
        }),
        seed,
        ..Default::default()
    }
}

fn threaded_config(spec: &TrainingSpec) -> ThreadedConfig {
    let width = |n: usize| if n == 0 { crate::common::nproc() } else { n };
    ThreadedConfig {
        prefetch_window: 2,
        policy: PrefetchPolicy::Fixed,
        compute_threads: width(spec.compute_threads),
        adam_threads: width(spec.adam_threads),
        ..ThreadedConfig::autotuned()
    }
}

/// The view range of batch `k` (epoch slices of `batch` views).
fn slice(spec: &TrainingSpec, k: usize) -> std::ops::Range<usize> {
    let per_epoch = spec.views.div_ceil(spec.batch);
    let start = (k % per_epoch) * spec.batch;
    start..(start + spec.batch).min(spec.views)
}

/// Model and optimiser fingerprint of a trainer's state.
fn state_of(trainer: &Trainer) -> (u64, u64) {
    state_fingerprint(trainer.model(), &trainer.optimizer().export_rows())
}

/// Per-batch samples of the timed rounds.
#[derive(Default)]
struct Totals {
    images: u64,
    bytes: u64,
    rounds: u64,
    /// Wall seconds of each `execute_batch` call.
    threaded_batches: Vec<f64>,
    /// Images per wall second of each threaded and each synchronous batch.
    threaded_rates: Vec<f64>,
    sync_rates: Vec<f64>,
}

pub fn run(spec: &TrainingSpec, args: &Args) -> Report {
    let mut report = Report::default();
    let ledger = &mut report.ledger;

    // Set-up, several times; every repeat must produce the same inputs.
    let mut times = Vec::new();
    let mut inputs = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let s = set_up(spec, args.seed, i == 0);
        times.push(s.times);
        inputs.push((images_fingerprint(&s.targets), model_fingerprint(&s.init)));
        last = Some(s);
    }
    ledger.check(inputs.iter().all(|x| *x == inputs[0]), || {
        "set-up is not deterministic for one seed".to_string()
    });
    let setup = last.expect("at least one set-up");
    let setup_median = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let knobs = clm_runtime::tuned().knobs;
    let train = train_config(spec, args.seed, knobs.band_height);
    let tcfg = threaded_config(spec);
    let cams = &setup.dataset.cameras;
    let targets = &setup.targets;

    // Timed rounds.
    let budget = Instant::now();
    let mut totals = Totals::default();
    let mut host = HostSpeed::default();
    let mut layers = Layers::default();
    let mut traced_sync_s = 0.0;
    let mut reference: Option<(u64, u64)> = None;
    let mut sim_reference: Option<(u64, u64)> = None;
    let mut psnr = f64::NAN;
    let mut final_rows = 0;
    let (mut evict_s, mut resume_s, mut ckpt_bytes, mut ckpts) = (0.0, 0.0, 0u64, 0u64);
    while another_round(totals.rounds, secs(budget), args.seconds) {
        let round = totals.rounds;
        let mut threaded = ThreadedBackend::new(setup.init.clone(), train.clone(), tcfg.clone());
        let mut sync = Trainer::new(setup.init.clone(), train.clone());
        let mut traced = args
            .trace
            .then(|| Trainer::new(setup.init.clone(), train.clone()));
        let mut sync_s = 0.0;
        for k in 0..spec.round_batches {
            let r = slice(spec, k);
            let (c, tg) = (&cams[r.clone()], &targets[r]);
            // Alternate the order of the backends from round to round.
            let run_threaded = |threaded: &mut ThreadedBackend, totals: &mut Totals| {
                let t = Instant::now();
                let rep = threaded.execute_batch(c, tg);
                let wall = secs(t);
                totals.threaded_batches.push(wall);
                totals.threaded_rates.push(c.len() as f64 / wall);
                totals.bytes += rep.batch.bytes_loaded + rep.batch.bytes_stored;
                totals.images += c.len() as u64;
            };
            let run_sync = |sync: &mut Trainer, totals: &mut Totals, acc: &mut f64| {
                let t = Instant::now();
                sync.train_batch(c, tg);
                let wall = secs(t);
                *acc += wall;
                totals.sync_rates.push(c.len() as f64 / wall);
            };
            // The host's speed, sampled next to each timed batch.
            host.sample();
            if round % 2 == 0 {
                run_threaded(&mut threaded, &mut totals);
                host.sample();
                run_sync(&mut sync, &mut totals, &mut sync_s);
            } else {
                run_sync(&mut sync, &mut totals, &mut sync_s);
                host.sample();
                run_threaded(&mut threaded, &mut totals);
            }
            ledger.op();
            ledger.op();
            if let Some(tr) = traced.as_mut() {
                traced_batch(tr, c, tg, &mut layers, ledger);
                ledger.op();
            }
            if round == 0 && k + 1 == SIM_BATCHES {
                sim_reference = Some(state_of(&sync));
            }
        }
        traced_sync_s += sync_s;
        let st = state_of(threaded.trainer());
        let ss = state_of(&sync);
        ledger.check(st == ss, || {
            format!("round {round}: threaded and synchronous models differ")
        });
        if let Some(tr) = traced.as_ref() {
            ledger.check(state_of(tr) == ss, || {
                format!("round {round}: traced and synchronous models differ")
            });
            // The checkpoint round trip an evict/resume pays.
            let t = Instant::now();
            let bytes = Checkpoint::capture(tr, None).encode();
            evict_s += secs(t);
            let t = Instant::now();
            let restored = Checkpoint::decode(&bytes)
                .map_err(|e| format!("{e:?}"))
                .and_then(|c| c.restore(train.clone()).map_err(|e| format!("{e:?}")));
            resume_s += secs(t);
            ckpt_bytes += bytes.len() as u64;
            ckpts += 1;
            ledger.check(restored.as_ref().map(state_of).ok() == Some(ss), || {
                format!("round {round}: checkpoint round trip changed the state")
            });
        }
        match reference {
            None => reference = Some(ss),
            Some(r) => ledger.check(r == ss, || {
                format!("round {round}: final model differs from round 0")
            }),
        }
        if round == 0 {
            // Quality guard on the final model (every round ends with it).
            psnr = sync.evaluate_psnr(cams, targets) as f64;
            ledger.check(psnr.is_finite() && psnr >= spec.psnr_floor_db, || {
                format!(
                    "psnr {psnr:.3} dB below the floor {} dB",
                    spec.psnr_floor_db
                )
            });
            final_rows = sync.model().len();
        }
        totals.rounds += 1;
    }

    // The start of the trajectory on the simulated engine, with
    // paper-scale costing.
    let scene_spec = SceneSpec::of(spec.scene);
    let rcfg = RuntimeConfig {
        prefetch_window: 2,
        cost_scale: scene_spec.full_gaussians as f64 / spec.model_gaussians as f64,
        pixel_cost_scale: (scene_spec.full_resolution.0 as f64
            * scene_spec.full_resolution.1 as f64)
            / (spec.width as f64 * spec.height as f64),
        compute_threads: tcfg.compute_threads,
        band_height: knobs.band_height,
        ..RuntimeConfig::default()
    };
    let mut engine = PipelinedEngine::new(setup.init.clone(), train.clone(), rcfg);
    let mut makespans = Vec::new();
    let mut sim_images = 0u64;
    for k in 0..SIM_BATCHES {
        let r = slice(spec, k);
        let rep = engine.execute_batch(&cams[r.clone()], &targets[r.clone()]);
        makespans.push(rep.sim_makespan.unwrap_or(0.0));
        sim_images += r.len() as u64;
        ledger.op();
    }
    ledger.check(Some(state_of(engine.trainer())) == sim_reference, || {
        "simulated engine's model differs from the synchronous one".to_string()
    });
    let virtual_s: f64 = makespans.iter().sum();

    // End-to-end metrics.
    // Medians of per-batch throughput: robust to the bursts of contention
    // a shared host imposes on a few batches of a run.  Wall-clock metrics
    // are reported at the reference host's speed (see `HostSpeed`).
    let images_per_s = median(&totals.threaded_rates);
    let sync_images_per_s = median(&totals.sync_rates);
    let batch_p50_s = median(&totals.threaded_batches);
    let (tail_pct, tail_s) = tail(&totals.threaded_batches);
    let speed = host.factor();
    report.host_speed(&host, images_per_s, sync_images_per_s, batch_p50_s, tail_s);
    report.detail("rounds", totals.rounds.to_string());
    report.detail("batches_per_round", spec.round_batches.to_string());
    report.detail("batch_tail_percentile", tail_pct.to_string());
    report.detail("batch_samples", totals.threaded_batches.len().to_string());
    report.detail("final_model_rows", final_rows.to_string());
    report.detail("band_height", knobs.band_height.to_string());
    let m = &mut report.metrics;
    if !args.trace {
        m.put("images_per_s", images_per_s / speed, "img/s");
        m.put("sync_images_per_s", sync_images_per_s / speed, "img/s");
        m.put("batch_p50_s", batch_p50_s * speed, "s");
        m.put("batch_tail_s", tail_s * speed, "s");
        m.put(
            "comm_bytes_per_image",
            totals.bytes as f64 / totals.images as f64,
            "B",
        );
        m.put("psnr_db", psnr, "dB");
        m.put(
            "virtual_images_per_s",
            sim_images as f64 / virtual_s,
            "img/s",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("setup_s", setup_median(SetupTimes::total), "s");
    } else {
        let per = |x: f64| x / layers.batches as f64;
        put_layers(&mut report, &layers, per(traced_sync_s));
        let m = &mut report.metrics;
        m.put(
            "clm-runtime.overlap_gain",
            images_per_s / sync_images_per_s,
            "ratio",
        );
        m.put("clm-serve.evict_s", evict_s / ckpts as f64, "s");
        m.put("clm-serve.resume_s", resume_s / ckpts as f64, "s");
        m.put(
            "clm-trace.ckpt_bytes",
            ckpt_bytes as f64 / ckpts as f64,
            "B",
        );
        m.put("sim-device.virtual_batch_s", median(&makespans), "s");
        m.put("setup.scene_s", setup_median(|s| s.scene_s), "s");
        m.put("setup.targets_s", setup_median(|s| s.targets_s), "s");
        m.put("setup.init_s", setup_median(|s| s.init_s), "s");
        m.put("setup.calibrate_s", setup_median(|s| s.calibrate_s), "s");
    }
    report
}
