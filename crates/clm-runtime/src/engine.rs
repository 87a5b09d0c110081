//! The simulated execution engine, on one device or sharded across several.
//!
//! [`SimEngine`] runs a [`clm_core::Trainer`] as a discrete-event pipeline
//! on [`sim_device::Timeline`].  A CLM batch is emitted by the one schedule
//! builder, [`clm_core::build_clm_schedule`] — the paper's Figure 6:
//! windowed parameter gathers, forward/backward compute, gradient stores,
//! the gradient all-reduce and early-finalised CPU Adam.  The engine is the
//! builder's cost source: it prices every op from the batch plan and the
//! Gaussian ownership partition, and drives the trainer's numeric path as
//! the op is issued.  Staged rows live in a recycling [`PinnedBufferPool`].
//!
//! The engine goes by two names, one per artefact identity:
//!
//! * [`PipelinedEngine`] — the single-device `simulated` backend;
//! * [`ShardedEngine`] — the `sharded` backend: `num_devices` simulated
//!   GPUs, each with its own lane group ([`Lane::comm_of`],
//!   [`Lane::compute_of`], [`Lane::adam_of`]) on one shared timeline, and
//!   per-device lane busy times in its reports.  At one device it emits
//!   exactly the `simulated` schedule.
//!
//! # Execution model (data-parallel micro-batches)
//!
//! * **Views**: micro-batch `i` of the planned batch runs on device
//!   `i mod num_devices`, with its own prefetch window over its local
//!   micro-batch sequence.
//! * **Gaussians**: with more than one device, a visibility-aware partition
//!   ([`gs_scene::partition_by_footprint`]) assigns every Gaussian an owner
//!   device by balancing projected-footprint load.  The owner's pinned host
//!   pool holds the Gaussian's offloaded attributes and optimiser state:
//!   gathers of rows owned by another device pay an extra peer hop
//!   ([`PEER_HOP_FACTOR`]), and each finalisation group's CPU Adam update is
//!   split across the owners' Adam lanes.  One device owns everything, so it
//!   never pays for the footprint sweep.
//! * **Gradients**: before a finalisation group's Adam update, its
//!   gradients are all-reduced across the devices in fixed device order.
//!
//! The no-overlap comparison systems (`Baseline`, `EnhancedBaseline`,
//! `NaiveOffload`) are not sharded — they run their single-device schedules
//! on device 0, mirroring how the paper's baselines are measured.
//!
//! # Why the trajectory is bit-identical for every device count
//!
//! The engine drives the same `plan_batch → begin_batch →
//! stage/process/apply_finalized → finish_batch` sequence as the
//! synchronous trainer, in the serial micro-batch order `0, 1, 2, …`
//! regardless of which device a micro-batch is costed on.  Renders are pure
//! and read only their own micro-batch's visibility set, and a Gaussian
//! finalised by micro-batch `i` is never in a later micro-batch's
//! visibility or fetch set, so neither prefetched staging nor deferred
//! reduction can observe a different value than the synchronous trainer's.
//! Pipelining and sharding change *where* and *when* work is costed — never
//! *what* is computed; `tests/sharded_runtime.rs` asserts the trajectory
//! equality for device counts {1, 2, 4} across seeds.

use crate::backend::{ExecutionBackend, ExecutionReport, LaneBusy};
use crate::pool::{PinnedBufferPool, StagingBuffer};
use crate::prefetch::{PrefetchPolicy, WindowSelector};
use crate::report::IterationReport;
use clm_core::{
    build_clm_schedule, push_prologue, AdamGroup, BatchPlan, ClmBatchShape, CostSource, OpCost,
    SystemKind, TrainConfig, Trainer, GRADIENT_BYTES, NON_CRITICAL_BYTES,
};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::GradientBuffer;
use gs_render::Image;
use gs_scene::{partition_by_footprint, Dataset, GaussianPartition};
use sim_device::{DeviceProfile, FaultPlan, Lane, OpId, OpKind, Timeline};

/// Scheduling-lane cost per Gaussian-view of frustum culling (seconds).
const CULL_COST_PER_GAUSSIAN_VIEW: f64 = 2.0e-10;

/// Scheduling-lane cost per micro-batch pair of ordering/TSP work (seconds).
const ORDER_COST_PER_PAIR: f64 = 1.0e-6;

/// Host-side cost per changed row of a densification resize (seconds):
/// compacting/appending one Gaussian's attribute rows, optimiser state and
/// pinned host row is a few hundred bytes of memcpy.
const RESIZE_COST_PER_ROW: f64 = 1.0e-8;

/// Cost multiplier for gathering a row whose owner is another device: the
/// copy crosses from the owner's pinned pool through host memory before the
/// fetching device's DMA engine sees it — one extra hop at PCIe cost.
pub const PEER_HOP_FACTOR: f64 = 2.0;

/// Configuration of the simulated runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The simulated device the schedule is costed against.
    pub device: DeviceProfile,
    /// Prefetch lookahead window: how many micro-batches ahead of the one
    /// currently computing may be gathered (0 = synchronous, 1 = double
    /// buffering).  Under [`PrefetchPolicy::Adaptive`] this seeds the first
    /// batch only.
    pub prefetch_window: usize,
    /// Fixed vs. adaptive per-batch window selection.
    pub policy: PrefetchPolicy,
    /// Multiplier applied to Gaussian counts and transferred bytes when
    /// costing timeline operations.  Numerics are unaffected; this lets
    /// reduced-scale scenes exercise the paper-scale (bandwidth-bound)
    /// regime the figures are about.
    pub cost_scale: f64,
    /// Multiplier applied to pixel counts when costing render operations.
    pub pixel_cost_scale: f64,
    /// Worker threads for the banded render compute (0 = inherit the
    /// trainer's `TrainConfig::compute_threads`).  Pure host scheduling:
    /// the simulated timeline costs and the numerics are unaffected; only
    /// the wall-clock time of executing the lanes inline shrinks.
    pub compute_threads: usize,
    /// Accumulation band height override (0 = inherit the trainer's
    /// `TrainConfig::band_height`).  Part of the numeric contract — see
    /// `TrainConfig::band_height`.
    pub band_height: u32,
    /// Simulated devices the scene is sharded across (1 = single device).
    /// [`PipelinedEngine`] is the single-device backend and requires 1;
    /// [`ShardedEngine`] accepts any count.
    pub num_devices: usize,
    /// Warm start for the tracked prefetch fetch/compute ratio (e.g. a
    /// [`WarmStartCache`](crate::WarmStartCache) entry recorded by an
    /// earlier run on the same scene).  `None` cold-starts as before; under
    /// an adaptive/EWMA policy a warm-started engine picks an adapted
    /// window on its first batch.
    pub warm_start_ratio: Option<f64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            device: DeviceProfile::rtx4090(),
            prefetch_window: 2,
            policy: PrefetchPolicy::Fixed,
            cost_scale: 1.0,
            pixel_cost_scale: 1.0,
            compute_threads: 0,
            band_height: 0,
            num_devices: 1,
            warm_start_ratio: None,
        }
    }
}

impl RuntimeConfig {
    /// A config whose scheduling knobs come from the startup autotuner
    /// ([`crate::autotune::tuned`]): quota-aware compute width, the
    /// calibrated prefetch-window seed and the host-derived band height.
    /// Set any field afterwards to override a derived value.
    pub fn autotuned() -> Self {
        let knobs = crate::autotune::tuned().knobs;
        RuntimeConfig {
            prefetch_window: knobs.prefetch_window,
            compute_threads: knobs.compute_threads,
            band_height: knobs.band_height,
            ..Default::default()
        }
    }
}

/// The discrete-event costing rules: how Gaussian counts, bytes and pixels
/// translate into simulated device seconds.
#[derive(Debug, Clone)]
struct CostModel {
    device: DeviceProfile,
    cost_scale: f64,
    pixel_cost_scale: f64,
}

impl CostModel {
    fn from_runtime(config: &RuntimeConfig) -> Self {
        CostModel {
            device: config.device.clone(),
            cost_scale: config.cost_scale,
            pixel_cost_scale: config.pixel_cost_scale,
        }
    }

    fn scaled_bytes(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.cost_scale).round() as u64
    }

    fn scaled_gaussians(&self, count: usize) -> u64 {
        (count as f64 * self.cost_scale).round() as u64
    }

    fn scaled_pixels(&self, image: &Image) -> u64 {
        (image.pixel_count() as f64 * self.pixel_cost_scale).round() as u64
    }

    fn scheduling_time(&self, model_len: usize, plan: &BatchPlan) -> f64 {
        let n = self.scaled_gaussians(model_len) as f64;
        let m = plan.num_microbatches() as f64;
        n * m * CULL_COST_PER_GAUSSIAN_VIEW + m * m * ORDER_COST_PER_PAIR
    }

    /// Host seconds the boundary resize recorded in `plan` costs (0 when
    /// the plan has none).
    fn resize_time(&self, plan: &BatchPlan) -> f64 {
        plan.resize
            .as_ref()
            .map(|e| self.scaled_gaussians(e.rows_changed()) as f64 * RESIZE_COST_PER_ROW)
            .unwrap_or(0.0)
    }

    /// CPU Adam over `count` Gaussians.
    fn cpu_adam(&self, count: usize) -> OpCost {
        OpCost {
            dur: self
                .device
                .cpu_adam_time(self.scaled_gaussians(count) * PARAMS_PER_GAUSSIAN as u64),
            bytes: 0,
            rows: count as u64,
        }
    }
}

/// The largest per-micro-batch fetch of a plan, in rows — what the pinned
/// staging pool must be able to lease after a resize.
pub(crate) fn max_fetch_rows(plan: &BatchPlan) -> usize {
    plan.fetched.iter().map(|s| s.len()).max().unwrap_or(0)
}

/// A trainer executing as a discrete-event pipeline on simulated devices
/// (see the module docs).  `SHARDED` selects the artefact identity and
/// constructors only: use it through [`PipelinedEngine`] or
/// [`ShardedEngine`].
#[derive(Debug)]
pub struct SimEngine<const SHARDED: bool> {
    trainer: Trainer,
    config: RuntimeConfig,
    partition: GaussianPartition,
    /// The views the partitioner balances projected footprints over, kept so
    /// a densification boundary can re-run the partition for the resized
    /// Gaussian population (empty for [`PipelinedEngine`], which never
    /// partitions).
    partition_cameras: Vec<Camera>,
    pool: PinnedBufferPool,
    /// Adaptive-window state fed by each batch's simulated fetch/compute
    /// times.
    window_selector: WindowSelector,
    /// Staged rows served from the fetching device's own shard so far.
    local_rows: u64,
    /// Staged rows that crossed shards (owner ≠ fetching device) so far.
    cross_shard_rows: u64,
    /// Installed fault-injection plan, if any.  Faults inflate simulated
    /// durations, deny staging leases or drop devices at batch boundaries —
    /// the numeric path is untouched by construction.
    fault_plan: Option<FaultPlan>,
}

/// The single-device `simulated` backend.
pub type PipelinedEngine = SimEngine<false>;

/// The multi-device `sharded` backend.
pub type ShardedEngine = SimEngine<true>;

impl PipelinedEngine {
    /// Creates an engine around an initial model.
    ///
    /// # Panics
    /// Panics if `config.num_devices` is not 1 or a cost scale is not
    /// strictly positive.
    pub fn new(initial_model: GaussianModel, train: TrainConfig, config: RuntimeConfig) -> Self {
        Self::with_trainer(Trainer::new(initial_model, train), config)
    }

    /// Creates an engine around an already-built trainer — the
    /// checkpoint-restore path: the trainer carries its restored model,
    /// optimiser moments and counters, and training continues from there.
    ///
    /// # Panics
    /// Panics under the same config conditions as [`new`](Self::new).
    pub fn with_trainer(trainer: Trainer, config: RuntimeConfig) -> Self {
        assert!(
            config.num_devices == 1,
            "PipelinedEngine is single-device (num_devices must be exactly 1); \
             use ShardedEngine for multi-device configs"
        );
        SimEngine::build(trainer, config, Vec::new())
    }
}

impl ShardedEngine {
    /// Creates a sharded engine around an initial model.  `cameras` are the
    /// views the visibility-aware partitioner balances the Gaussians'
    /// projected footprints over (normally the training dataset's cameras).
    ///
    /// # Panics
    /// Panics if `config.num_devices` is 0 or exceeds the timeline's device
    /// range, or if a cost scale is not strictly positive.
    pub fn new(
        initial_model: GaussianModel,
        train: TrainConfig,
        config: RuntimeConfig,
        cameras: &[Camera],
    ) -> Self {
        Self::with_trainer(Trainer::new(initial_model, train), config, cameras)
    }

    /// Creates a sharded engine around an already-built trainer — the
    /// checkpoint-restore path.  The ownership partition is computed fresh
    /// from the restored model.
    ///
    /// # Panics
    /// Panics under the same config conditions as [`new`](Self::new).
    pub fn with_trainer(trainer: Trainer, config: RuntimeConfig, cameras: &[Camera]) -> Self {
        SimEngine::build(trainer, config, cameras.to_vec())
    }
}

impl<const SHARDED: bool> SimEngine<SHARDED> {
    fn build(mut trainer: Trainer, config: RuntimeConfig, partition_cameras: Vec<Camera>) -> Self {
        assert!(config.num_devices >= 1, "num_devices must be at least 1");
        assert!(
            config.num_devices <= Lane::MAX_DEVICE + 1,
            "num_devices must fit the timeline's device-lane range"
        );
        assert!(config.cost_scale > 0.0, "cost_scale must be positive");
        assert!(
            config.pixel_cost_scale > 0.0,
            "pixel_cost_scale must be positive"
        );
        if config.compute_threads > 0 {
            trainer.set_compute_threads(config.compute_threads);
        }
        if config.band_height > 0 {
            trainer.set_band_height(config.band_height);
        }
        // The trainer's config mirrors the engine's device count so reports
        // and introspection agree; the engine drives the stepwise API
        // itself, so this never re-shards the numeric path.
        trainer.set_num_devices(config.num_devices);
        let mut engine = SimEngine {
            partition: GaussianPartition::single_device(0),
            partition_cameras,
            pool: PinnedBufferPool::new(),
            window_selector: WindowSelector::warm_started(config.warm_start_ratio),
            local_rows: 0,
            cross_shard_rows: 0,
            fault_plan: None,
            trainer,
            config,
        };
        engine.repartition();
        engine
    }

    /// Installs a fault-injection plan: from the next batch on, the
    /// timeline's ops are filtered through the plan's seeded schedule
    /// (transient retries, straggler lanes), staging leases may be denied,
    /// and a scheduled permanent device loss fires at its batch boundary
    /// (see [`lose_devices`](Self::lose_devices)).  Simulated backoff is
    /// priced at the engine's cost scale.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        plan.scale_backoff(self.config.cost_scale);
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Permanently removes `lose` devices at the current batch boundary:
    /// the engine's device count shrinks to the survivors and the Gaussian
    /// ownership partition is recomputed over them.  Because the trajectory
    /// is bit-identical at *every* device count, continuation on the
    /// survivors equals a fault-free run at the surviving count — graceful
    /// degradation, not divergence.
    ///
    /// # Panics
    /// Panics if the loss would leave no survivors.
    pub fn lose_devices(&mut self, lose: usize) {
        let survivors = self.config.num_devices.saturating_sub(lose);
        assert!(
            survivors >= 1,
            "device loss must leave at least one survivor (had {}, losing {lose})",
            self.config.num_devices
        );
        self.config.num_devices = survivors;
        self.trainer.set_num_devices(survivors);
        self.repartition();
    }

    /// The wrapped trainer (model, config, counters).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The Gaussian→device ownership partition in force (trivial at one
    /// device and for the non-CLM comparison systems, which never consult
    /// it).
    pub fn partition(&self) -> &GaussianPartition {
        &self.partition
    }

    /// Recomputes the ownership partition from the current model — run
    /// automatically at every densification boundary so new Gaussians land
    /// on balanced devices.  Pure scheduling: ownership never affects the
    /// numerics.
    pub fn repartition(&mut self) {
        let model = self.trainer.model();
        let devices = self.config.num_devices;
        // The footprint sweep projects every culled Gaussian for every
        // camera — comparable to a render pass.  Only a multi-device CLM
        // pipeline consults ownership, so nothing else pays for it.
        self.partition = if devices > 1 && self.trainer.config().system == SystemKind::Clm {
            partition_by_footprint(model, &self.partition_cameras, devices)
        } else {
            GaussianPartition::single_device(model.len())
        };
    }

    /// Pinned staging-pool statistics accumulated so far (one shared pool;
    /// all device gather lanes draw from it).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Caps the pinned staging pool at `limit` simultaneously checked-out
    /// buffers (`None` removes the cap).  A multi-tenant host enforces
    /// per-session pinned-memory budgets through this seam: the serving
    /// layer clamps the prefetch window so the cap is never reached, and the
    /// pool's high-water/`denied` accounting proves it.
    pub fn set_staging_capacity(&mut self, limit: Option<usize>) {
        self.pool.set_capacity_limit(limit);
    }

    /// The adaptive-window state (tracked fetch/compute ratios), e.g. for
    /// recording into a [`WarmStartCache`](crate::WarmStartCache).
    pub fn window_selector(&self) -> &WindowSelector {
        &self.window_selector
    }

    /// Staged rows served from the fetching device's own shard so far.
    pub fn local_rows(&self) -> u64 {
        self.local_rows
    }

    /// Staged rows whose owner was another device (each paid the
    /// [`PEER_HOP_FACTOR`] on the gather lane) so far.
    pub fn cross_shard_rows(&self) -> u64 {
        self.cross_shard_rows
    }

    /// Mean PSNR of the current model over a set of posed images (delegates
    /// to the trainer).
    pub fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        self.trainer.evaluate_psnr(cameras, targets)
    }

    /// Executes one training batch as a pipelined schedule, returning the
    /// numeric batch report together with the executed timeline.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> IterationReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        assert!(!cameras.is_empty(), "batch must contain at least one view");

        let fault_before = self.fault_plan.as_ref().map(|p| p.stats());
        // Scheduled permanent device loss fires here, at the batch
        // boundary: every lane is drained between batches, so the survivors
        // repartition and continue without any in-flight state to migrate.
        if let Some(lose) = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.device_loss_at(self.trainer.batches_trained() as u64))
        {
            self.lose_devices(lose);
        }

        // Densification boundary next: every lane is scoped to one batch,
        // so between batches the pipeline is drained and the model may
        // resize.  The plan is computed against the post-resize model; the
        // boundary re-runs the ownership partition, re-leases the pinned
        // staging pool at the new row counts, and is costed on the host
        // scheduler lane.
        let plan = self.trainer.resize_and_plan(cameras);
        let mut grads = GradientBuffer::for_model(self.trainer.model());
        let mut timeline = Timeline::new();
        if let Some(fp) = &self.fault_plan {
            timeline.install_fault_sink(fp.sink());
        }
        let cost = CostModel::from_runtime(&self.config);
        let window = self
            .window_selector
            .choose(self.config.policy, self.config.prefetch_window);

        let resize = plan.resize.as_ref().map(|event| OpCost {
            dur: cost.resize_time(&plan),
            bytes: 0,
            rows: event.rows_changed() as u64,
        });
        if resize.is_some() {
            self.repartition();
            self.pool.reprovision(max_fetch_rows(&plan));
        }
        let model_len = self.trainer.model().len();
        let scheduling = OpCost {
            dur: cost.scheduling_time(model_len, &plan),
            bytes: 0,
            rows: model_len as u64,
        };
        let sched = push_prologue(&mut timeline, resize, scheduling);

        let total_loss = match self.trainer.config().system {
            SystemKind::Clm => {
                self.trainer.begin_batch(&plan, &grads);
                let shape = ClmBatchShape {
                    microbatches: plan.num_microbatches(),
                    devices: self.config.num_devices,
                    window,
                    overlapped: self.trainer.overlapped(),
                };
                let mut source = EngineSource {
                    trainer: &mut self.trainer,
                    pool: &mut self.pool,
                    fault_plan: self.fault_plan.as_ref(),
                    partition: &self.partition,
                    local_rows: &mut self.local_rows,
                    cross_shard_rows: &mut self.cross_shard_rows,
                    cost: &cost,
                    plan: &plan,
                    cameras,
                    targets,
                    grads: &mut grads,
                    staged: (0..plan.num_microbatches()).map(|_| None).collect(),
                    total_loss: 0.0,
                };
                build_clm_schedule(&mut timeline, &mut source, sched, shape);
                source.total_loss
            }
            SystemKind::NaiveOffload => run_naive_batch(
                &mut self.trainer,
                &cost,
                &plan,
                cameras,
                targets,
                &mut grads,
                &mut timeline,
                sched,
            ),
            SystemKind::Baseline | SystemKind::EnhancedBaseline => run_gpu_only_batch(
                &mut self.trainer,
                &cost,
                &plan,
                cameras,
                targets,
                &mut grads,
                &mut timeline,
                sched,
            ),
        };

        // Feed the adaptive window policy with this batch's simulated
        // fetch/compute balance.
        if self.trainer.config().system == SystemKind::Clm {
            self.window_selector.observe(
                self.config.policy,
                timeline.time_by_kind(OpKind::LoadParams),
                timeline.time_by_kind(OpKind::Forward) + timeline.time_by_kind(OpKind::Backward),
            );
        }

        let batch = self.trainer.finish_batch(&plan, &grads, total_loss);
        let faults = match (&self.fault_plan, fault_before) {
            (Some(p), Some(before)) => p.stats().since(&before),
            _ => Default::default(),
        };
        IterationReport {
            batch,
            timeline,
            views: cameras.len(),
            prefetch_window: window,
            compute_threads: gs_render::parallel::resolve_compute_threads(
                self.trainer.config().compute_threads,
            ),
            band_height: self.trainer.resolved_band_height(),
            resize: plan.resize.as_ref().map(|e| e.report()),
            faults,
        }
    }

    /// Trains over the whole dataset once (views grouped into batches in
    /// trajectory order), returning the per-iteration reports.
    pub fn run_epoch(&mut self, dataset: &Dataset, targets: &[Image]) -> Vec<IterationReport> {
        assert_eq!(dataset.cameras.len(), targets.len());
        let batch = self.trainer.config().batch_size.max(1);
        let mut reports = Vec::new();
        let mut start = 0;
        while start < dataset.cameras.len() {
            let end = (start + batch).min(dataset.cameras.len());
            reports.push(self.run_batch(&dataset.cameras[start..end], &targets[start..end]));
            start = end;
        }
        reports
    }
}

/// The engine's [`CostSource`]: prices each op of a CLM batch from the plan
/// and the ownership partition, and runs the trainer's numeric path in
/// serial micro-batch order as the builder issues gathers and compute.
struct EngineSource<'a> {
    trainer: &'a mut Trainer,
    pool: &'a mut PinnedBufferPool,
    fault_plan: Option<&'a FaultPlan>,
    partition: &'a GaussianPartition,
    local_rows: &'a mut u64,
    cross_shard_rows: &'a mut u64,
    cost: &'a CostModel,
    plan: &'a BatchPlan,
    cameras: &'a [Camera],
    targets: &'a [Image],
    grads: &'a mut GradientBuffer,
    /// Staging buffers gathered but not yet consumed, by micro-batch.
    staged: Vec<Option<StagingBuffer>>,
    total_loss: f32,
}

impl EngineSource<'_> {
    /// Gaussians in `group`.
    fn group_len(&self, group: AdamGroup) -> usize {
        match group {
            AdamGroup::Untouched => self.plan.untouched.len(),
            AdamGroup::Finalized(i) => self.plan.finalization.finalized_by(i).len(),
            AdamGroup::Dense => self.trainer.model().len(),
        }
    }
}

impl CostSource for EngineSource<'_> {
    /// Splits the fetch by ownership: local rows at full PCIe bandwidth,
    /// cross-shard rows with the extra peer hop.  The recorded bytes are the
    /// full fetch either way, so the timeline's communication volume keeps
    /// matching the batch accounting.
    fn gather(&mut self, i: usize, device: usize) -> OpCost {
        let indices = self.plan.fetched[i].indices();
        let local = indices
            .iter()
            .filter(|&&g| self.partition.owner_of(g) == device)
            .count();
        let remote = indices.len() - local;
        *self.local_rows += local as u64;
        *self.cross_shard_rows += remote as u64;
        let local_bytes = self.cost.scaled_bytes((local * NON_CRITICAL_BYTES) as u64);
        let remote_bytes = self.cost.scaled_bytes((remote * NON_CRITICAL_BYTES) as u64);
        let device = &self.cost.device;
        OpCost {
            dur: device.transfer_time(local_bytes)
                + PEER_HOP_FACTOR * device.transfer_time(remote_bytes),
            bytes: self.cost.scaled_bytes(self.plan.fetch_bytes(i)),
            rows: indices.len() as u64,
        }
    }

    /// Leases a staging buffer and stages the micro-batch's rows into it.
    /// A lease the fault plan denies stalls one backoff interval on the host
    /// scheduler lane and then succeeds (the pool recycles at the batch
    /// boundary), so exhaustion costs schedule time but never changes what
    /// is staged.
    fn gather_issued(&mut self, i: usize, timeline: &mut Timeline) {
        if let Some(fp) = self.fault_plan {
            if fp.next_staging_acquire() {
                self.pool.note_denied();
                timeline.push_traced(
                    OpKind::Other,
                    Lane::CpuScheduler,
                    fp.retry().backoff_base,
                    0,
                    0,
                    None,
                    &[],
                );
            }
        }
        let mut buf = self.pool.acquire(self.plan.fetched[i].len());
        self.trainer.stage_microbatch(self.plan, i, &mut buf);
        self.staged[i] = Some(buf);
    }

    /// Renders the micro-batch, accumulates its gradients and applies the
    /// Adam update of the Gaussians it finalises.
    fn compute(&mut self, i: usize) -> [OpCost; 2] {
        let buf = self.staged[i]
            .take()
            .expect("prefetch schedule must have staged this micro-batch");
        self.total_loss += self.trainer.process_microbatch(
            self.plan,
            i,
            self.cameras,
            self.targets,
            &buf,
            self.grads,
        );
        self.pool.release(buf);
        self.trainer.apply_finalized(self.plan, i, self.grads);

        let pixels = self.cost.scaled_pixels(&self.targets[self.plan.order[i]]);
        let rows = self.plan.ordered_sets[i].len();
        let gaussians = self.cost.scaled_gaussians(rows);
        let device = &self.cost.device;
        [
            device.forward_time(gaussians, pixels),
            device.backward_time(gaussians, pixels),
        ]
        .map(|dur| OpCost {
            dur,
            bytes: 0,
            rows: rows as u64,
        })
    }

    fn store(&mut self, i: usize) -> OpCost {
        let bytes = self.cost.scaled_bytes(self.plan.store_bytes(i));
        OpCost {
            dur: self.cost.device.transfer_time(bytes),
            bytes,
            rows: self.plan.finalization.finalized_by(i).len() as u64,
        }
    }

    /// Each owner device updates its share of the group.
    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let counts = match group {
            AdamGroup::Untouched => self.partition.split_counts(self.plan.untouched.indices()),
            AdamGroup::Finalized(i) => self
                .partition
                .split_counts(self.plan.finalization.finalized_by(i).indices()),
            AdamGroup::Dense => self.partition.device_counts().to_vec(),
        };
        counts.into_iter().map(|c| self.cost.cpu_adam(c)).collect()
    }

    /// Ring all-reduce: every device sends and receives `(D-1)/D` of the
    /// group's gradient bytes.
    fn allreduce(&mut self, group: AdamGroup) -> OpCost {
        let devices = self.partition.num_devices();
        let rows = self.group_len(group);
        let total_bytes = self.cost.scaled_bytes((rows * GRADIENT_BYTES) as u64);
        let per_device =
            (total_bytes as f64 * (devices - 1) as f64 / devices as f64).round() as u64;
        OpCost {
            dur: self.cost.device.transfer_time(per_device),
            bytes: per_device,
            rows: rows as u64,
        }
    }
}

/// Naive (ZeRO-Offload-style) schedule: whole-model upload, serial
/// compute, whole-gradient store, then one dense CPU Adam pass — no
/// overlap anywhere.
#[allow(clippy::too_many_arguments)]
fn run_naive_batch(
    trainer: &mut Trainer,
    cost: &CostModel,
    plan: &BatchPlan,
    cameras: &[Camera],
    targets: &[Image],
    grads: &mut GradientBuffer,
    timeline: &mut Timeline,
    sched: OpId,
) -> f32 {
    let n = trainer.model().len();
    let full_bytes = cost.scaled_bytes((n * PARAMS_PER_GAUSSIAN * gs_core::BYTES_PER_PARAM) as u64);
    let upload = timeline.push_traced(
        OpKind::LoadParams,
        Lane::GpuComm,
        cost.device.transfer_time(full_bytes),
        full_bytes,
        n as u64,
        None,
        &[sched],
    );

    trainer.begin_batch(plan, grads);
    let mut total_loss = 0.0f32;
    let mut staging = Vec::new();
    let mut last_bwd = upload;
    for i in 0..plan.num_microbatches() {
        let pixels = cost.scaled_pixels(&targets[plan.order[i]]);
        let rows = plan.ordered_sets[i].len() as u64;
        let gaussians = cost.scaled_gaussians(plan.ordered_sets[i].len());
        let fwd = timeline.push_traced(
            OpKind::Forward,
            Lane::GpuCompute,
            cost.device.forward_time(gaussians, pixels),
            0,
            rows,
            Some(i as u32),
            &[upload],
        );
        let bwd = timeline.push_traced(
            OpKind::Backward,
            Lane::GpuCompute,
            cost.device.backward_time(gaussians, pixels),
            0,
            rows,
            Some(i as u32),
            &[fwd],
        );
        last_bwd = bwd;
        trainer.stage_microbatch(plan, i, &mut staging);
        total_loss += trainer.process_microbatch(plan, i, cameras, targets, &staging, grads);
        trainer.apply_finalized(plan, i, grads);
    }

    let store = timeline.push_traced(
        OpKind::StoreGrads,
        Lane::GpuComm,
        cost.device.transfer_time(full_bytes),
        full_bytes,
        n as u64,
        None,
        &[last_bwd],
    );
    timeline.push_traced(
        OpKind::CpuAdamUpdate,
        Lane::CpuAdam,
        cost.cpu_adam(n).dur,
        0,
        n as u64,
        None,
        &[store],
    );
    total_loss
}

/// GPU-only baselines: compute per micro-batch plus a fused GPU Adam
/// step at batch end; no PCIe traffic at all.
#[allow(clippy::too_many_arguments)]
fn run_gpu_only_batch(
    trainer: &mut Trainer,
    cost: &CostModel,
    plan: &BatchPlan,
    cameras: &[Camera],
    targets: &[Image],
    grads: &mut GradientBuffer,
    timeline: &mut Timeline,
    sched: OpId,
) -> f32 {
    let n = trainer.model().len();
    let fused_culling = trainer.config().system == SystemKind::Baseline;

    trainer.begin_batch(plan, grads);
    let mut total_loss = 0.0f32;
    let mut staging = Vec::new();
    let mut last_bwd = sched;
    for i in 0..plan.num_microbatches() {
        let pixels = cost.scaled_pixels(&targets[plan.order[i]]);
        // The plain baseline feeds every Gaussian through the kernels;
        // the enhanced baseline pre-culls.
        let count = if fused_culling {
            n
        } else {
            plan.ordered_sets[i].len()
        };
        let gaussians = cost.scaled_gaussians(count);
        let fwd = timeline.push_traced(
            OpKind::Forward,
            Lane::GpuCompute,
            cost.device.forward_time(gaussians, pixels),
            0,
            count as u64,
            Some(i as u32),
            &[sched],
        );
        let bwd = timeline.push_traced(
            OpKind::Backward,
            Lane::GpuCompute,
            cost.device.backward_time(gaussians, pixels),
            0,
            count as u64,
            Some(i as u32),
            &[fwd],
        );
        last_bwd = bwd;
        trainer.stage_microbatch(plan, i, &mut staging);
        total_loss += trainer.process_microbatch(plan, i, cameras, targets, &staging, grads);
        trainer.apply_finalized(plan, i, grads);
    }

    timeline.push_traced(
        OpKind::GpuAdamUpdate,
        Lane::GpuCompute,
        cost.device
            .gpu_adam_time(cost.scaled_gaussians(n) * PARAMS_PER_GAUSSIAN as u64),
        0,
        n as u64,
        None,
        &[last_bwd],
    );
    total_loss
}

impl<const SHARDED: bool> ExecutionBackend for SimEngine<SHARDED> {
    fn backend_name(&self) -> &'static str {
        if SHARDED {
            "sharded"
        } else {
            "simulated"
        }
    }

    fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Executes the batch inline while costing it on the event timeline.
    /// The report's wall-clock time is measured (all lanes ran on this
    /// thread), while the lane busy times are *simulated* device seconds
    /// summed across devices; the sharded backend adds the per-device
    /// breakdown in `device_lanes`.
    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        let wall_start = std::time::Instant::now();
        let report = self.run_batch(cameras, targets);
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        let t = &report.timeline;
        let device_lanes: Vec<LaneBusy> = (0..self.config.num_devices)
            .map(|dev| LaneBusy {
                compute: t.busy_time(Lane::compute_of(dev)),
                comm: t.busy_time(Lane::comm_of(dev)),
                adam: t.busy_time(Lane::adam_of(dev)),
                scheduling: 0.0,
            })
            .collect();
        ExecutionReport {
            views: report.views,
            prefetch_window: report.prefetch_window,
            compute_threads: report.compute_threads,
            band_height: report.band_height,
            wall_seconds,
            lanes: LaneBusy {
                compute: device_lanes.iter().map(|l| l.compute).sum(),
                comm: device_lanes.iter().map(|l| l.comm).sum(),
                adam: device_lanes.iter().map(|l| l.adam).sum(),
                scheduling: t.busy_time(Lane::CpuScheduler),
            },
            device_lanes: if SHARDED { device_lanes } else { Vec::new() },
            sim_makespan: Some(t.makespan()),
            resize: report.resize,
            faults: report.faults,
            batch: report.batch,
        }
    }
}
