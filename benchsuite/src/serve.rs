//! The `serve-churn` workload: a `ClmServe` fleet with more tenants than
//! active slots, driven in a closed loop from one thread.
//!
//! Each round builds a fresh service (registering the scenes, calibrating
//! and admitting the tenants is that round's set-up), then steps it until
//! every tenant has trained its batches.  Every 5th step evicts an active
//! session; evicted sessions resume as soon as a slot is free.  Tenants 0
//! and 2, and 1 and 3, are identical twins, so their final `.clmckpt`
//! bytes must match.  The same rounds train tenants 0 and 1 directly on the
//! single-worker `Trainer::train_batch` (the plain baseline), whose final
//! state must equal the service's.

use crate::common::{
    another_round, median, peak_rss_mb, secs, state_fingerprint, tail, Args, Ledger, Report,
};
use crate::traced::{put_layers, traced_batch, Layers};
use clm_core::{ground_truth_images, DensifySchedule, SystemKind, TrainConfig, Trainer};
use clm_runtime::Calibration;
use clm_serve::service::evicted_of;
use clm_serve::{
    ClmServe, SceneEntry, SceneRegistry, ServeConfig, SessionId, StepOutcome, TenantSpec,
};
use clm_trace::Checkpoint;
use gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, DensifyConfig, InitConfig, SceneKind,
    SceneSpec,
};
use std::collections::VecDeque;
use std::time::Instant;

const ACTIVE_SLOTS: usize = 2;
const TENANTS: usize = 4;
const EVICT_EVERY: u64 = 5;
const GT_GAUSSIANS: usize = 100_000;
const MODEL_GAUSSIANS: usize = 30_000;
const VIEWS: usize = 24;
const BATCH: usize = 8;
const TARGET_BATCHES: usize = 6;
/// Service set-ups per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SCENES: [(&str, SceneKind); 2] =
    [("ithaca", SceneKind::Ithaca), ("rubble", SceneKind::Rubble)];

fn dataset_config(scene: usize) -> DatasetConfig {
    DatasetConfig {
        num_gaussians: GT_GAUSSIANS,
        num_views: VIEWS,
        width: 64,
        height: 48,
        seed: crate::training::SCENE_SEED + scene as u64,
    }
}

/// Tenant `i` trains scene `i mod 2`; tenants `i` and `i + 2` are twins.
fn tenant(seed: u64, i: usize) -> TenantSpec {
    let pair = i % 2;
    let (scene, kind) = SCENES[pair];
    let spec = SceneSpec::of(kind);
    let job_seed = seed.wrapping_mul(31).wrapping_add(pair as u64);
    let mut t = TenantSpec::new(
        &format!("t{i}"),
        scene,
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: BATCH,
            densify: Some(DensifySchedule {
                every_batches: 3,
                config: DensifyConfig {
                    // Low enough that the boundary really clones and
                    // splits rows at this model size.
                    grad_threshold: 1.0e-5,
                    max_gaussians: MODEL_GAUSSIANS * 3 / 2,
                    seed: job_seed ^ 0xd15e,
                    ..Default::default()
                },
            }),
            seed: job_seed,
            ..Default::default()
        },
        InitConfig {
            num_gaussians: MODEL_GAUSSIANS,
            initial_sigma: 0.03 * spec.extent,
            seed: job_seed ^ 0x5eed,
            ..Default::default()
        },
    );
    t.target_batches = TARGET_BATCHES;
    // Paper-scale costing on the simulated device clock.
    t.cost_scale = spec.full_gaussians as f64 / MODEL_GAUSSIANS as f64;
    t
}

/// The view range of a job's batch `k` (the service's epoch slices).
fn slice(k: usize) -> std::ops::Range<usize> {
    let per_epoch = VIEWS.div_ceil(BATCH);
    let start = (k % per_epoch) * BATCH;
    start..(start + BATCH).min(VIEWS)
}

/// Builds one service: scenes, calibration, admission.  Returns it with
/// the set-up's wall seconds.
fn set_up(seed: u64, first: bool, ledger: &mut Ledger) -> (ClmServe, f64) {
    let t = Instant::now();
    let mut registry = SceneRegistry::new();
    for (i, (name, kind)) in SCENES.iter().enumerate() {
        registry.register(name, *kind, dataset_config(i));
    }
    if first {
        clm_runtime::tuned();
    } else {
        std::hint::black_box(Calibration::run());
    }
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: ACTIVE_SLOTS,
            max_queued: TENANTS,
            ..Default::default()
        },
    );
    for i in 0..TENANTS {
        let admitted = serve.admit(tenant(seed, i));
        ledger.check(
            admitted
                .map(|a| a.id() == SessionId(i as u64))
                .unwrap_or(false),
            || format!("admission of tenant {i} failed"),
        );
    }
    (serve, secs(t))
}

/// One tenant's job on a plain trainer: the baseline (and, traced, the
/// per-layer breakdown).  Returns the trainer, the wall seconds of each
/// untraced `train_batch` call and the bytes its batches moved.
fn direct_job(
    scene: &SceneEntry,
    spec: &TenantSpec,
    layers: Option<(&mut Layers, &mut Ledger)>,
) -> (Trainer, Vec<f64>, u64) {
    let init = init_from_point_cloud(&scene.dataset.ground_truth, &spec.init);
    let mut trainer = Trainer::new(init, spec.train.clone());
    let mut walls = Vec::new();
    let mut bytes = 0;
    let cams = &scene.dataset.cameras;
    match layers {
        None => {
            for k in 0..spec.target_batches {
                let r = slice(k);
                let t = Instant::now();
                let rep = trainer.train_batch(&cams[r.clone()], &scene.targets[r]);
                walls.push(secs(t));
                bytes += rep.bytes_loaded + rep.bytes_stored;
            }
        }
        Some((layers, ledger)) => {
            for k in 0..spec.target_batches {
                let r = slice(k);
                traced_batch(
                    &mut trainer,
                    &cams[r.clone()],
                    &scene.targets[r],
                    layers,
                    ledger,
                );
            }
        }
    }
    (trainer, walls, bytes)
}

#[derive(Default)]
struct Totals {
    rounds: u64,
    images: u64,
    loop_s: f64,
    virtual_s: f64,
    /// Images per wall second of each eviction window: the resumes, steps
    /// and eviction from one eviction to the next.
    window_rates: Vec<f64>,
    steps: Vec<f64>,
    costs: Vec<f64>,
    evicts: Vec<f64>,
    resumes: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    setups: Vec<f64>,
    sync_images: u64,
    /// Images per wall second of each directly trained batch.
    sync_rates: Vec<f64>,
    sync_bytes: u64,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut totals = Totals::default();
    let mut layers = Layers::default();
    let mut traced_sync_s = 0.0;
    let mut psnr = Vec::new();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    let ledger = &mut report.ledger;

    // Set-up layers for one scene and tenant, timed apart from the
    // registry (trace only; the first call is the process's autotune pass).
    let mut setup_parts = [0.0f64; 4];
    if args.trace {
        let t = Instant::now();
        let dataset = generate_dataset(&SceneSpec::of(SCENES[0].1), &dataset_config(0));
        setup_parts[0] = secs(t);
        let t = Instant::now();
        std::hint::black_box(ground_truth_images(&dataset));
        setup_parts[1] = secs(t);
        let t = Instant::now();
        std::hint::black_box(init_from_point_cloud(
            &dataset.ground_truth,
            &tenant(args.seed, 0).init,
        ));
        setup_parts[2] = secs(t);
        let t = Instant::now();
        clm_runtime::tuned();
        setup_parts[3] = secs(t);
    }

    let budget = Instant::now();
    while another_round(totals.rounds, secs(budget), args.seconds) {
        let round = totals.rounds;
        let first = round == 0;
        let (mut serve, setup_s) = set_up(args.seed, first, ledger);
        totals.setups.push(setup_s);
        let scenes: Vec<_> = SCENES
            .iter()
            .map(|(name, _)| serve.registry().get(name).expect("registered scene"))
            .collect();

        // The baseline: tenants 0 and 1 on plain trainers, with their
        // total wall seconds.  Alternate whether it runs before or after
        // the service.
        let baseline = |totals: &mut Totals| -> Vec<(Trainer, f64)> {
            let mut out = Vec::new();
            for (i, scene) in scenes.iter().enumerate() {
                let spec = tenant(args.seed, i);
                let (trainer, walls, bytes) = direct_job(scene, &spec, None);
                totals
                    .sync_rates
                    .extend(walls.iter().map(|w| BATCH as f64 / w));
                totals.sync_images += (spec.target_batches * BATCH) as u64;
                let wall = walls.iter().sum();
                totals.sync_bytes += bytes;
                out.push((trainer, wall));
            }
            out
        };
        let mut direct = if round % 2 == 1 {
            baseline(&mut totals)
        } else {
            Vec::new()
        };

        // The closed loop.
        let started = Instant::now();
        let mut evicted: VecDeque<SessionId> = VecDeque::new();
        let mut steps = 0u64;
        let (mut window, mut window_images) = (Instant::now(), 0u64);
        loop {
            while !evicted.is_empty() && serve.active_ids().len() < ACTIVE_SLOTS {
                let id = evicted.pop_front().expect("non-empty");
                let t = Instant::now();
                let resumed = serve.resume(id);
                totals.resumes.push(secs(t));
                ledger.check(resumed.is_ok(), || {
                    format!("resume of {id:?} failed: {resumed:?}")
                });
            }
            if serve.all_done() {
                break;
            }
            let t = Instant::now();
            let outcome = serve.step();
            let wall = secs(t);
            match outcome {
                StepOutcome::Ran { cost, .. } => {
                    totals.steps.push(wall);
                    totals.costs.push(cost);
                    totals.images += BATCH as u64;
                    window_images += BATCH as u64;
                    ledger.op();
                }
                StepOutcome::Idle => {
                    ledger.check(false, || "service idle with work left".to_string());
                    break;
                }
            }
            steps += 1;
            if steps.is_multiple_of(EVICT_EVERY) {
                if let Some(&id) = serve.active_ids().first() {
                    let t = Instant::now();
                    let result = serve.evict(id);
                    totals.evicts.push(secs(t));
                    ledger.check(result.is_ok(), || {
                        format!("evict of {id:?} failed: {result:?}")
                    });
                    if result.is_ok() {
                        let bytes = serve
                            .session(id)
                            .and_then(evicted_of)
                            .map(|e| e.checkpoint.len());
                        totals.ckpt_bytes.push(bytes.unwrap_or(0) as f64);
                        evicted.push_back(id);
                    }
                }
                totals
                    .window_rates
                    .push(window_images as f64 / secs(window));
                (window, window_images) = (Instant::now(), 0);
            }
        }
        totals.loop_s += secs(started);
        totals.virtual_s += serve.virtual_now();
        if direct.is_empty() {
            direct = baseline(&mut totals);
        }

        // Twins end byte-identical; each equals its baseline trainer.
        let ckpts: Vec<Vec<u8>> = (0..TENANTS)
            .map(|i| {
                serve
                    .session(SessionId(i as u64))
                    .and_then(evicted_of)
                    .map(|e| e.checkpoint.clone())
                    .unwrap_or_default()
            })
            .collect();
        for i in 0..2 {
            ledger.check(!ckpts[i].is_empty() && ckpts[i] == ckpts[i + 2], || {
                format!(
                    "round {round}: tenants {i} and {} end with different checkpoints",
                    i + 2
                )
            });
            let decoded = Checkpoint::decode(&ckpts[i]).ok();
            let service_state = decoded
                .as_ref()
                .map(|c| state_fingerprint(&c.model, &c.adam));
            let direct_state =
                state_fingerprint(direct[i].0.model(), &direct[i].0.optimizer().export_rows());
            ledger.check(service_state == Some(direct_state), || {
                format!("round {round}: tenant {i}'s service state differs from the baseline")
            });
        }
        match &reference {
            None => reference = Some(ckpts),
            Some(r) => ledger.check(*r == ckpts, || {
                format!("round {round}: final checkpoints differ from round 0")
            }),
        }
        if first {
            for (i, (trainer, _)) in direct.iter().enumerate() {
                psnr.push(
                    trainer.evaluate_psnr(&scenes[i].dataset.cameras, &scenes[i].targets) as f64,
                );
            }
        }
        if args.trace {
            // Tenant 0's job through the traced driver, against its
            // untraced baseline.
            let spec = tenant(args.seed, 0);
            let (traced, _, _) = direct_job(&scenes[0], &spec, Some((&mut layers, ledger)));
            let (baseline0, wall0) = &direct[0];
            traced_sync_s += wall0;
            let want = state_fingerprint(baseline0.model(), &baseline0.optimizer().export_rows());
            ledger.check(
                state_fingerprint(traced.model(), &traced.optimizer().export_rows()) == want,
                || format!("round {round}: traced driver's state differs from the baseline"),
            );
        }
        totals.rounds += 1;
    }
    // A run fits only a few rounds; top the set-ups up so `setup_s` is a
    // median of several.
    while totals.setups.len() < MIN_SETUPS {
        let (_, setup_s) = set_up(args.seed, false, ledger);
        totals.setups.push(setup_s);
    }

    let psnr_db = psnr.iter().sum::<f64>() / psnr.len().max(1) as f64;
    ledger.check(psnr_db.is_finite() && psnr_db >= PSNR_FLOOR_DB, || {
        format!("psnr {psnr_db:.3} dB below the floor {PSNR_FLOOR_DB} dB")
    });

    // Medians of per-window and per-batch throughput: robust to the bursts
    // of contention a shared host imposes on a few of them.  A window runs
    // the resumes, five steps and the eviction, so the fleet's figure
    // carries the churn.
    let images_per_s = median(&totals.window_rates);
    let sync_images_per_s = median(&totals.sync_rates);
    let (tail_pct, tail_s) = tail(&totals.steps);
    let wall_share = |v: &[f64]| v.iter().sum::<f64>() / totals.loop_s;
    report.detail("rounds", totals.rounds.to_string());
    report.detail("batch_tail_percentile", tail_pct.to_string());
    report.detail("batch_samples", totals.steps.len().to_string());
    report.detail("eviction_windows", totals.window_rates.len().to_string());
    report.detail("evictions", totals.evicts.len().to_string());
    report.detail("resumes", totals.resumes.len().to_string());
    report.detail(
        "evict_wall_share",
        crate::common::num(wall_share(&totals.evicts)),
    );
    report.detail(
        "resume_wall_share",
        crate::common::num(wall_share(&totals.resumes)),
    );
    report.detail(
        "step_wall_share",
        crate::common::num(wall_share(&totals.steps)),
    );
    let m = &mut report.metrics;
    if !args.trace {
        m.put("images_per_s", images_per_s, "img/s");
        m.put("sync_images_per_s", sync_images_per_s, "img/s");
        m.put("batch_p50_s", median(&totals.steps), "s");
        m.put("batch_tail_s", tail_s, "s");
        m.put(
            "comm_bytes_per_image",
            totals.sync_bytes as f64 / totals.sync_images as f64,
            "B",
        );
        m.put("psnr_db", psnr_db, "dB");
        m.put(
            "virtual_images_per_s",
            totals.images as f64 / totals.virtual_s,
            "img/s",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("setup_s", median(&totals.setups), "s");
    } else {
        let per_job = traced_sync_s / totals.rounds as f64 / TARGET_BATCHES as f64;
        put_layers(&mut report, &layers, per_job);
        let m = &mut report.metrics;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.put(
            "clm-runtime.overlap_gain",
            images_per_s / sync_images_per_s,
            "ratio",
        );
        m.put("clm-serve.evict_s", mean(&totals.evicts), "s");
        m.put("clm-serve.resume_s", mean(&totals.resumes), "s");
        m.put("clm-trace.ckpt_bytes", mean(&totals.ckpt_bytes), "B");
        m.put("sim-device.virtual_batch_s", median(&totals.costs), "s");
        m.put("setup.scene_s", setup_parts[0], "s");
        m.put("setup.targets_s", setup_parts[1], "s");
        m.put("setup.init_s", setup_parts[2], "s");
        m.put("setup.calibrate_s", setup_parts[3], "s");
    }
    report
}

/// Mean training-view PSNR the baseline tenants' final models must reach
/// (about 2 dB under what every seed reached when the benchmark was defined).
const PSNR_FLOOR_DB: f64 = 18.0;
