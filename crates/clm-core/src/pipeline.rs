//! The CLM batch schedule builder (Figure 6).
//!
//! [`build_clm_schedule`] emits one batch of the CLM pipeline onto a
//! [`Timeline`]: parameter gathers prefetched on each device's
//! communication lane up to a lookahead window ahead of the micro-batch
//! that consumes them, forward/backward on its compute lane, a gradient
//! store after every micro-batch, the fixed-device-order gradient
//! all-reduce, and early-finalised CPU Adam on the owners' Adam lanes.
//!
//! The builder owns the emission order and every dependency edge.  What
//! each op *costs* — and whatever must happen when it is issued — comes from
//! a [`CostSource`].  The runtime engine prices ops from the batch plan and
//! drives the trainer's numeric path as ops are issued; the trace replay
//! passes recorded costs through under altered knobs.  Both therefore emit
//! the same graph by construction.
//!
//! # Execution model
//!
//! * Micro-batch `i` runs on device `i mod D`.  Each device has its own
//!   [`PrefetchWindow`] over its local sequence `d, d + D, d + 2D, …`, and
//!   the initial prefetch frontier is issued device-major before any
//!   compute.
//! * Device `d`'s ops run on [`Lane::comm_of`], [`Lane::compute_of`] and
//!   [`Lane::adam_of`]; at `D = 1` those are the classic single-device
//!   lanes, so the one-device schedule *is* the single-device pipeline.
//! * With overlapped Adam, the batch-untouched set (`F_0`) updates at batch
//!   start, and the group finalised by micro-batch `i` updates right after
//!   its gradient store, once the group's gradients are all-reduced.
//!   Without overlap, one dense update over the whole model closes the
//!   batch.
//! * The all-reduce is a chain of [`OpKind::AllReduce`] ops over devices
//!   `0 → D-1`, each waiting for every device's latest store and the
//!   previous chain, which makes the reduction order an explicit scheduling
//!   dependency.  At `D = 1` there is nothing to exchange: Adam waits on the
//!   store itself.

use sim_device::{Lane, OpId, OpKind, Timeline};

/// Lookahead-window policy for one batch of `num_microbatches` gathers.
///
/// While micro-batch `i` computes, the gathers for micro-batches
/// `i+1 ..= i+W` may be in flight, which needs `W + 1` staging buffers
/// (double buffering is `W = 1`).  `W = 0` is the synchronous schedule;
/// `W ≥ m − 1` leaves every gather unconstrained by compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchWindow {
    window: usize,
    num_microbatches: usize,
}

impl PrefetchWindow {
    /// Creates the policy for a batch.
    pub fn new(window: usize, num_microbatches: usize) -> Self {
        PrefetchWindow {
            window,
            num_microbatches,
        }
    }

    /// The configured lookahead.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Index of the micro-batch whose **compute must have finished** before
    /// the gather of micro-batch `i` may start, or `None` if the gather is
    /// unconstrained (it only waits for the communication lane itself).
    ///
    /// The gather for micro-batch `i` may overlap the compute of
    /// micro-batches `i - window .. i`, so it must wait for micro-batch
    /// `i - window - 1`.
    pub fn gather_depends_on_compute_of(&self, i: usize) -> Option<usize> {
        debug_assert!(i < self.num_microbatches);
        i.checked_sub(self.window.saturating_add(1))
    }

    /// Number of staging buffers the schedule needs: one per micro-batch
    /// that may be gathered but not yet consumed (`window + 1`, capped by
    /// the batch size).
    pub fn staging_buffers(&self) -> usize {
        self.window
            .saturating_add(1)
            .min(self.num_microbatches.max(1))
    }

    /// Micro-batches whose gathers should be issued once micro-batch
    /// `completed` has finished computing (`None` = batch start): the next
    /// contiguous run of gathers the window admits.
    ///
    /// At batch start this is `0 ..= window`; after micro-batch `j`
    /// completes it is `j + window + 1` alone — the slot its completion
    /// freed.
    pub fn issuable_after(&self, completed: Option<usize>) -> std::ops::Range<usize> {
        match completed {
            None => 0..self.window.saturating_add(1).min(self.num_microbatches),
            Some(j) => {
                let next = j.saturating_add(self.window).saturating_add(1);
                next.min(self.num_microbatches)..next.saturating_add(1).min(self.num_microbatches)
            }
        }
    }
}

/// One op's price: its simulated duration plus the accounting annotations
/// recorded with it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Duration in simulated seconds.
    pub dur: f64,
    /// Bytes moved (zero for pure compute).
    pub bytes: u64,
    /// Gaussian rows touched.
    pub rows: u64,
}

/// A set of Gaussians whose CPU Adam update is scheduled as one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdamGroup {
    /// `F_0`: the Gaussians the batch never touches (overlapped Adam).
    Untouched,
    /// The Gaussians finalised by micro-batch `i` (overlapped Adam).
    Finalized(usize),
    /// The whole model, updated at batch end (no overlap).
    Dense,
}

/// Supplies the cost of every op [`build_clm_schedule`] emits, in emission
/// order, and runs whatever has to happen when an op is issued.
pub trait CostSource {
    /// Prices the gather of micro-batch `i` onto `device`.
    fn gather(&mut self, i: usize, device: usize) -> OpCost;

    /// Called right after the gather of micro-batch `i` is pushed.  The
    /// engine leases and stages the rows here.
    fn gather_issued(&mut self, _i: usize, _timeline: &mut Timeline) {}

    /// Forward and backward costs of micro-batch `i`, asked for when its
    /// compute is scheduled.  The engine runs the micro-batch's numerics
    /// here.
    fn compute(&mut self, i: usize) -> [OpCost; 2];

    /// The gradient store after micro-batch `i`.
    fn store(&mut self, i: usize) -> OpCost;

    /// The CPU Adam update of `group`, one entry per owning device in
    /// device order.
    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost>;

    /// One device's link of the all-reduce of `group`'s gradients.  Only
    /// asked for with more than one device.
    fn allreduce(&mut self, group: AdamGroup) -> OpCost;
}

/// The knobs that shape one batch's CLM schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClmBatchShape {
    /// Micro-batches in the batch.
    pub microbatches: usize,
    /// Simulated devices the micro-batches are spread over (at least 1).
    pub devices: usize,
    /// Prefetch lookahead window, per device.
    pub window: usize,
    /// Early-finalised (overlapped) CPU Adam instead of one dense pass.
    pub overlapped: bool,
}

/// Pushes a batch's host prologue on the scheduler lane — the
/// densification resize when the batch has one, then culling and ordering
/// after it — and returns the scheduling op every pipeline op waits for.
pub fn push_prologue(timeline: &mut Timeline, resize: Option<OpCost>, scheduling: OpCost) -> OpId {
    let resize = resize.map(|c| push(timeline, OpKind::Resize, Lane::CpuScheduler, c, None, &[]));
    push(
        timeline,
        OpKind::Scheduling,
        Lane::CpuScheduler,
        scheduling,
        None,
        resize.as_slice(),
    )
}

/// Emits one CLM batch after `sched` (see the module docs for the
/// schedule), pricing every op through `source`.
pub fn build_clm_schedule(
    timeline: &mut Timeline,
    source: &mut impl CostSource,
    sched: OpId,
    shape: ClmBatchShape,
) {
    let ClmBatchShape {
        microbatches: m,
        devices,
        window,
        overlapped,
    } = shape;
    assert!(devices >= 1, "a schedule needs at least one device");
    let windows: Vec<PrefetchWindow> = (0..devices)
        .map(|d| PrefetchWindow::new(window, (m + devices - 1 - d) / devices))
        .collect();
    let mut b = Builder {
        timeline,
        source,
        sched,
        devices,
        windows,
        gathers: vec![None; m],
        backwards: vec![None; m],
        last_store: vec![None; devices],
        last_allreduce: None,
    };

    if overlapped {
        b.push_adam(AdamGroup::Untouched, None, sched);
    }
    for dev in 0..devices {
        for k in b.windows[dev].issuable_after(None) {
            b.issue_gather(k * devices + dev);
        }
    }
    for i in 0..m {
        let (dev, k) = (i % devices, i / devices);
        let mb = Some(i as u32);
        let [forward, backward] = b.source.compute(i);
        let gather = b.gathers[i].expect("gather issued before compute");
        let fwd = push(
            b.timeline,
            OpKind::Forward,
            Lane::compute_of(dev),
            forward,
            mb,
            &[gather],
        );
        let bwd = push(
            b.timeline,
            OpKind::Backward,
            Lane::compute_of(dev),
            backward,
            mb,
            &[fwd],
        );
        b.backwards[i] = Some(bwd);
        let store = push(
            b.timeline,
            OpKind::StoreGrads,
            Lane::comm_of(dev),
            b.source.store(i),
            mb,
            &[bwd],
        );
        b.last_store[dev] = Some(store);
        if overlapped {
            let group = AdamGroup::Finalized(i);
            let reduced = b.push_allreduce(group, mb);
            b.push_adam(group, mb, reduced);
        }
        // This completion frees the next prefetch slot on this device.
        for k2 in b.windows[dev].issuable_after(Some(k)) {
            b.issue_gather(k2 * devices + dev);
        }
    }
    if !overlapped {
        let reduced = b.push_allreduce(AdamGroup::Dense, None);
        b.push_adam(AdamGroup::Dense, None, reduced);
    }
}

/// The in-flight state of one [`build_clm_schedule`] call.
struct Builder<'a, S> {
    timeline: &'a mut Timeline,
    source: &'a mut S,
    sched: OpId,
    devices: usize,
    windows: Vec<PrefetchWindow>,
    gathers: Vec<Option<OpId>>,
    backwards: Vec<Option<OpId>>,
    last_store: Vec<Option<OpId>>,
    last_allreduce: Option<OpId>,
}

impl<S: CostSource> Builder<'_, S> {
    /// Pushes the gather of micro-batch `i` on its device's comm lane,
    /// honouring that device's window dependency on earlier compute.
    fn issue_gather(&mut self, i: usize) {
        let (dev, k) = (i % self.devices, i / self.devices);
        let mut deps = vec![self.sched];
        if let Some(k_dep) = self.windows[dev].gather_depends_on_compute_of(k) {
            deps.push(
                self.backwards[k_dep * self.devices + dev]
                    .expect("window dependencies point at completed compute"),
            );
        }
        let cost = self.source.gather(i, dev);
        self.gathers[i] = Some(push(
            self.timeline,
            OpKind::LoadParams,
            Lane::comm_of(dev),
            cost,
            Some(i as u32),
            &deps,
        ));
        self.source.gather_issued(i, self.timeline);
    }

    /// Pushes the fixed-device-order all-reduce chain for `group` and
    /// returns the op its Adam update must wait for.
    fn push_allreduce(&mut self, group: AdamGroup, mb: Option<u32>) -> OpId {
        if self.devices == 1 {
            return self.last_store[0].unwrap_or(self.sched);
        }
        let cost = self.source.allreduce(group);
        let mut base: Vec<OpId> = self.last_store.iter().flatten().copied().collect();
        if base.is_empty() {
            base.push(self.sched);
        }
        base.extend(self.last_allreduce);
        let mut tail: Option<OpId> = None;
        for dev in 0..self.devices {
            let mut deps = base.clone();
            deps.extend(tail);
            tail = Some(push(
                self.timeline,
                OpKind::AllReduce,
                Lane::comm_of(dev),
                cost,
                mb,
                &deps,
            ));
        }
        self.last_allreduce = tail;
        tail.expect("devices >= 2 pushed at least one op")
    }

    /// Pushes `group`'s CPU Adam update on each owner's Adam lane.
    fn push_adam(&mut self, group: AdamGroup, mb: Option<u32>, dep: OpId) {
        for (dev, cost) in self.source.adam(group).into_iter().enumerate() {
            push(
                self.timeline,
                OpKind::CpuAdamUpdate,
                Lane::adam_of(dev),
                cost,
                mb,
                &[dep],
            );
        }
    }
}

fn push(
    timeline: &mut Timeline,
    kind: OpKind,
    lane: Lane,
    cost: OpCost,
    microbatch: Option<u32>,
    deps: &[OpId],
) -> OpId {
    timeline.push_traced(
        kind, lane, cost.dur, cost.bytes, cost.rows, microbatch, deps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_zero_is_synchronous() {
        // Every gather after the first waits for the immediately preceding
        // compute: no communication/compute overlap at all.
        let w = PrefetchWindow::new(0, 5);
        assert_eq!(w.gather_depends_on_compute_of(0), None);
        for i in 1..5 {
            assert_eq!(w.gather_depends_on_compute_of(i), Some(i - 1));
        }
        assert_eq!(w.staging_buffers(), 1);
        assert_eq!(w.issuable_after(None), 0..1);
        assert_eq!(w.issuable_after(Some(2)), 3..4);
    }

    #[test]
    fn double_buffering_is_window_one() {
        let w = PrefetchWindow::new(1, 6);
        assert_eq!(w.gather_depends_on_compute_of(0), None);
        assert_eq!(w.gather_depends_on_compute_of(1), None);
        assert_eq!(w.gather_depends_on_compute_of(2), Some(0));
        assert_eq!(w.gather_depends_on_compute_of(5), Some(3));
        assert_eq!(w.staging_buffers(), 2);
        assert_eq!(w.issuable_after(None), 0..2);
        assert_eq!(w.issuable_after(Some(0)), 2..3);
    }

    #[test]
    fn window_at_least_batch_size_never_blocks_on_compute() {
        for window in [7, 8, 100, usize::MAX - 1] {
            let w = PrefetchWindow::new(window, 8);
            for i in 0..8 {
                assert_eq!(
                    w.gather_depends_on_compute_of(i),
                    None,
                    "window {window}, micro {i}"
                );
            }
            assert_eq!(w.staging_buffers(), 8, "buffers capped by batch size");
            assert_eq!(w.issuable_after(None), 0..8);
            // Completions free no further slots: everything was issued at
            // batch start.
            assert_eq!(w.issuable_after(Some(0)), 8..8);
        }
    }

    #[test]
    fn issuable_ranges_cover_each_gather_exactly_once() {
        for window in 0..6 {
            for m in 1..7 {
                let w = PrefetchWindow::new(window, m);
                let mut issued = vec![0usize; m];
                for i in w.issuable_after(None) {
                    issued[i] += 1;
                }
                for j in 0..m {
                    for i in w.issuable_after(Some(j)) {
                        issued[i] += 1;
                    }
                }
                assert_eq!(
                    issued,
                    vec![1; m],
                    "window {window}, batch {m}: every gather issued exactly once"
                );
            }
        }
    }

    #[test]
    fn single_microbatch_batches_are_degenerate_but_valid() {
        let w = PrefetchWindow::new(3, 1);
        assert_eq!(w.gather_depends_on_compute_of(0), None);
        assert_eq!(w.staging_buffers(), 1);
        assert_eq!(w.issuable_after(None), 0..1);
    }

    /// Unit costs everywhere; Adam split evenly over `devices`.
    struct Unit {
        devices: usize,
    }

    impl CostSource for Unit {
        fn gather(&mut self, _: usize, _: usize) -> OpCost {
            OpCost {
                dur: 1.0,
                ..Default::default()
            }
        }
        fn compute(&mut self, _: usize) -> [OpCost; 2] {
            [OpCost {
                dur: 1.0,
                ..Default::default()
            }; 2]
        }
        fn store(&mut self, _: usize) -> OpCost {
            OpCost::default()
        }
        fn adam(&mut self, _: AdamGroup) -> Vec<OpCost> {
            vec![OpCost::default(); self.devices]
        }
        fn allreduce(&mut self, _: AdamGroup) -> OpCost {
            OpCost::default()
        }
    }

    fn schedule(devices: usize, window: usize, overlapped: bool) -> Timeline {
        let mut t = Timeline::new();
        let sched = push_prologue(&mut t, None, OpCost::default());
        let shape = ClmBatchShape {
            microbatches: 6,
            devices,
            window,
            overlapped,
        };
        build_clm_schedule(&mut t, &mut Unit { devices }, sched, shape);
        t
    }

    #[test]
    fn every_micro_batch_gets_one_op_of_each_kind_on_its_device() {
        for devices in [1, 2, 3] {
            let t = schedule(devices, 1, true);
            for kind in [
                OpKind::LoadParams,
                OpKind::Forward,
                OpKind::Backward,
                OpKind::StoreGrads,
            ] {
                let mut mbs: Vec<u32> = t
                    .ops()
                    .iter()
                    .filter(|o| o.kind == kind)
                    .map(|o| {
                        let mb = o.microbatch.unwrap();
                        assert_eq!(o.lane.device(), Some(mb as usize % devices));
                        mb
                    })
                    .collect();
                mbs.sort_unstable();
                assert_eq!(mbs, (0..6).collect::<Vec<_>>(), "{kind:?}, D={devices}");
            }
            // F0 plus one group per micro-batch, split over every device.
            let adam = t.ops().iter().filter(|o| o.kind == OpKind::CpuAdamUpdate);
            assert_eq!(adam.count(), 7 * devices);
            let links = t.ops().iter().filter(|o| o.kind == OpKind::AllReduce);
            let expected = if devices == 1 { 0 } else { 6 * devices };
            assert_eq!(links.count(), expected);
        }
    }

    #[test]
    fn one_device_window_zero_serialises_gathers_behind_compute() {
        // Unit gathers and unit forward/backward with no overlap allowed:
        // every micro-batch costs gather + forward + backward = 3 s.
        let t = schedule(1, 0, false);
        assert_eq!(t.makespan(), 18.0);
        // A window of one hides every gather but the first behind compute.
        assert_eq!(schedule(1, 1, false).makespan(), 13.0);
    }
}
