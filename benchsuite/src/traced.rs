//! The traced serial driver: one training batch through the `Trainer`
//! phase API in `Trainer::train_batch`'s order, with every call into a
//! layer's public functions timed from outside the library.
//!
//! The render step calls `gs_render::render` → `l1_loss` →
//! `render_backward` directly with the trainer's own `RenderOptions`, so
//! forward, loss and backward time separately, and the staged-row staleness
//! check `Trainer::render_microbatch` runs is repeated here.  Culling and
//! ordering are timed on their own by re-running `cull_frustum` per view and
//! `order_batch` on the same sets (the order must equal the plan's).  The
//! final model is bit-identical to `Trainer::train_batch`'s.

use crate::common::{num, quote, timed, Ledger, Report};
use clm_core::{order_batch, CachePlan, SystemKind, Trainer};
use gs_core::camera::Camera;
use gs_optim::GradientBuffer;
use gs_render::{l1_loss, render, render_backward, Image, RenderOptions};
use std::time::Instant;

/// Timed layers whose seconds add up (with `bench.unattributed_s`) to the
/// traced total.  Order is report order.
pub const TIME_LAYERS: [&str; 11] = [
    "gs-scene.resize_s",
    "clm-core.plan_s",
    "gs-core.cull_s",
    "clm-core.order_s",
    "gs-optim.adam_s",
    "clm-core.gather_s",
    "gs-render.forward_s",
    "gs-render.loss_s",
    "gs-render.backward_s",
    "gs-optim.grad_store_s",
    "clm-core.finish_s",
];

/// Accumulated layer seconds and counters over traced batches.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Seconds per entry of [`TIME_LAYERS`].
    pub seconds: [f64; 11],
    /// Wall seconds of the whole traced loop (the closure's total).
    pub total_s: f64,
    pub batches: u64,
    pub images: u64,
    pub resize_rows: u64,
    pub gather_rows: u64,
    pub render_rows: u64,
    pub adam_rows: u64,
    /// Σ visible rows and Σ (views × model rows), for the visible fraction.
    pub visible_rows: u64,
    pub candidate_rows: u64,
    /// Σ cached rows and Σ working-set rows over micro-batch transitions.
    pub cached_rows: u64,
    pub working_rows: u64,
}

impl Layers {
    fn add(&mut self, layer: usize, s: f64) {
        self.seconds[layer] += s;
    }

    /// Seconds not covered by any timed layer: loop overhead, buffer
    /// set-up and the staleness check.
    pub fn unattributed_s(&self) -> f64 {
        self.total_s - self.seconds.iter().sum::<f64>()
    }
}

const RESIZE: usize = 0;
const PLAN: usize = 1;
const CULL: usize = 2;
const ORDER: usize = 3;
const ADAM: usize = 4;
const GATHER: usize = 5;
const FORWARD: usize = 6;
const LOSS: usize = 7;
const BACKWARD: usize = 8;
const GRAD_STORE: usize = 9;
const FINISH: usize = 10;

/// Trains one batch on `trainer` through the timed phase sequence,
/// accumulating into `layers`.  Mismatches (plan order, stale staged rows)
/// are recorded in `ledger`.
pub fn traced_batch(
    trainer: &mut Trainer,
    cameras: &[Camera],
    targets: &[Image],
    layers: &mut Layers,
    ledger: &mut Ledger,
) {
    let started = Instant::now();
    let mut t = 0.0;

    // 1. Densification boundary.
    let resize = timed(&mut t, || {
        let event = trainer.pending_resize();
        if let Some(e) = &event {
            trainer.apply_resize(e);
        }
        event
    });
    layers.add(RESIZE, std::mem::take(&mut t));
    if let Some(e) = &resize {
        layers.resize_rows += e.rows_changed() as u64;
    }

    // 2. Plan (culling + ordering + cache and finalisation planning), then
    //    the cache hit rate of the planned transitions.
    let plan = timed(&mut t, || {
        let mut plan = trainer.plan_batch(cameras);
        plan.resize = resize;
        plan
    });
    layers.add(PLAN, std::mem::take(&mut t));
    let mut prev = gs_core::VisibilitySet::new();
    for set in &plan.ordered_sets {
        let cp = CachePlan::new(&prev, set);
        layers.cached_rows += cp.cached.len() as u64;
        layers.working_rows += (cp.cached.len() + cp.fetched.len()) as u64;
        prev = set.clone();
    }

    // Culling and ordering on their own, on the same model and views.
    let model_rows = trainer.model().len() as u64;
    let sets: Vec<_> = timed(&mut t, || {
        cameras
            .iter()
            .map(|cam| gs_core::cull_frustum(trainer.model(), cam))
            .collect()
    });
    layers.add(CULL, std::mem::take(&mut t));
    layers.visible_rows += sets
        .iter()
        .map(|s: &gs_core::VisibilitySet| s.len() as u64)
        .sum::<u64>();
    layers.candidate_rows += model_rows * cameras.len() as u64;
    let config = trainer.config().clone();
    if config.system == SystemKind::Clm {
        let seed = config.seed + trainer.batches_trained() as u64;
        let order = timed(&mut t, || {
            order_batch(config.ordering, cameras, &sets, seed)
        });
        layers.add(ORDER, std::mem::take(&mut t));
        ledger.check(order == plan.order, || {
            format!(
                "order_batch order {order:?} differs from the plan's {:?}",
                plan.order
            )
        });
    }

    // 3. Open the batch (F_0 Adam under overlap).
    let mut grads = timed(&mut t, || GradientBuffer::for_model(trainer.model()));
    layers.add(GRAD_STORE, std::mem::take(&mut t));
    timed(&mut t, || trainer.begin_batch(&plan, &grads));
    layers.add(ADAM, std::mem::take(&mut t));
    if trainer.overlapped() {
        layers.adam_rows += plan.untouched.len() as u64;
    }

    let band_height = trainer.resolved_band_height();
    let options = |visible: Option<Vec<u32>>| RenderOptions {
        background: config.background,
        visible,
        compute_threads: config.compute_threads,
        band_height,
    };
    let mut staging = Vec::new();
    let mut total_loss = 0.0f32;
    for micro in 0..plan.num_microbatches() {
        // 4. Gather the micro-batch's host rows.
        timed(&mut t, || {
            trainer.stage_microbatch(&plan, micro, &mut staging)
        });
        layers.add(GATHER, std::mem::take(&mut t));
        layers.gather_rows += plan.fetched[micro].len() as u64;

        // The staleness check render_microbatch runs (unattributed).
        if config.system == SystemKind::Clm {
            let fresh = staging.len() == plan.fetched[micro].len()
                && plan.fetched[micro]
                    .indices()
                    .iter()
                    .zip(&staging)
                    .all(|(&idx, row)| *row == trainer.model().non_critical_row(idx as usize));
            ledger.check(fresh, || {
                format!("staged rows of micro-batch {micro} went stale")
            });
        }

        // 5. Render: forward, loss, backward.
        let view = plan.order[micro];
        let camera = &cameras[view];
        let visible = match config.system {
            SystemKind::Baseline => None,
            _ => Some(plan.ordered_sets[micro].indices().to_vec()),
        };
        let opts = options(visible);
        let out = timed(&mut t, || render(trainer.model(), camera, &opts));
        layers.add(FORWARD, std::mem::take(&mut t));
        let loss = timed(&mut t, || l1_loss(&out.image, &targets[view]));
        layers.add(LOSS, std::mem::take(&mut t));
        let render_grads = timed(&mut t, || {
            render_backward(trainer.model(), camera, &out.aux, &loss.d_image)
        });
        layers.add(BACKWARD, std::mem::take(&mut t));
        layers.render_rows += plan.ordered_sets[micro].len() as u64;
        total_loss += loss.value;

        // 6. Gradient store.
        timed(&mut t, || grads.accumulate_render(&render_grads));
        layers.add(GRAD_STORE, std::mem::take(&mut t));

        // 7. Early-finalised Adam.
        timed(&mut t, || trainer.apply_finalized(&plan, micro, &grads));
        layers.add(ADAM, std::mem::take(&mut t));
        if trainer.overlapped() {
            layers.adam_rows += plan.finalization.finalized_by(micro).len() as u64;
        }
    }

    // 8. Close the batch (dense Adam when not overlapped, host re-sync).
    timed(&mut t, || trainer.finish_batch(&plan, &grads, total_loss));
    layers.add(FINISH, t);
    layers.batches += 1;
    layers.images += cameras.len() as u64;
    layers.total_s += started.elapsed().as_secs_f64();
}

/// Adds the traced driver's per-batch layer metrics, their shares of the
/// traced total and the closure/overhead figures.  `sync_batch_s` is the
/// untraced serial wall time per batch over the same batches.
pub fn put_layers(report: &mut Report, layers: &Layers, sync_batch_s: f64) {
    let batches = layers.batches.max(1) as f64;
    let total = layers.total_s / batches;
    let unattributed = layers.unattributed_s() / batches;
    let mut shares = Vec::new();
    let mut sum = 0.0;
    for (name, s) in TIME_LAYERS.iter().zip(layers.seconds) {
        let per = s / batches;
        sum += per;
        report.metrics.put(name, per, "s");
        shares.push(format!("{}:{}", quote(name), per / total));
    }
    shares.push(format!("\"bench.unattributed_s\":{}", unattributed / total));
    // Closure: layers plus the unattributed remainder equal the total, and
    // no layer timer overlapped another (the remainder is not negative).
    report.ledger.check(
        unattributed >= 0.0 && ((sum + unattributed) - total).abs() <= 1e-9 * total.max(1.0),
        || format!("closure failed: layers {sum} + unattributed {unattributed} != total {total}"),
    );
    report.detail("layer_shares", format!("{{{}}}", shares.join(",")));
    report.detail("traced_total_s_per_batch", num(total));
    let m = &mut report.metrics;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put(
        "gs-core.visible_frac",
        ratio(layers.visible_rows, layers.candidate_rows),
        "frac",
    );
    m.put(
        "clm-core.cache_hit_rate",
        ratio(layers.cached_rows, layers.working_rows),
        "frac",
    );
    m.put(
        "clm-core.gather_rows",
        layers.gather_rows as f64 / batches,
        "rows",
    );
    m.put(
        "gs-render.rows",
        layers.render_rows as f64 / batches,
        "rows",
    );
    m.put(
        "gs-optim.adam_rows",
        layers.adam_rows as f64 / batches,
        "rows",
    );
    m.put(
        "gs-scene.resize_rows",
        layers.resize_rows as f64 / batches,
        "rows",
    );
    m.put("bench.unattributed_s", unattributed, "s");
    m.put(
        "bench.trace_overhead_frac",
        (total - sync_batch_s) / sync_batch_s,
        "frac",
    );
}
