//! Op-trace recording harness: trains the wallclock benchmark's scene on a
//! chosen execution backend and captures every operation into a
//! [`clm_trace::Trace`].
//!
//! This is the producer end of the trace pipeline; the `trace_record`,
//! `trace_replay` and `trace_report` binaries are thin wrappers.  Two kinds
//! of trace come out depending on the backend:
//!
//! * **Simulated schedules** (`simulated`, `sharded`) — flushed straight
//!   from the discrete-event [`Timeline`] each batch executes on, complete
//!   with dependency edges and exact scheduled durations.  These replay
//!   deterministically offline (`clm_trace::verify_exact`) and support
//!   what-if knob replays (prefetch window, device count, cost scaling).
//! * **Measured spans** (`synchronous`, `threaded`) — wall-clock intervals
//!   bracketing the real phases (gathers, render, CPU Adam), with no
//!   dependency structure.  These feed the report/Chrome-trace pipeline but
//!   refuse exact replay (there is no schedule to re-simulate).
//!
//! The workload is [`crate::wallclock`]'s scene (same seeds, same densify
//! cadence), so traces line up with `BENCH_runtime.json` entries.

use crate::wallclock::{bench_scene, detect_host_cores, WallclockScale};
use clm_core::{Trainer, GRADIENT_BYTES};
use clm_runtime::{
    PipelinedEngine, PrefetchPolicy, RuntimeConfig, ShardedEngine, ThreadedBackend, ThreadedConfig,
    PEER_HOP_FACTOR,
};
use clm_trace::{CostParams, Trace, TraceMeta, TraceWriter};
use gs_render::Image;
use gs_scene::Dataset;
use sim_device::{DeviceProfile, Timeline};

/// Seed of the generated dataset (matches [`crate::wallclock`]).
pub const DATASET_SEED: u64 = 29;

/// Backends the recorder knows how to trace, in documentation order.
pub const TRACE_BACKENDS: [&str; 4] = ["synchronous", "simulated", "threaded", "sharded"];

/// Records one full training run of `backend` at `scale` into a trace.
///
/// `backend` must be one of [`TRACE_BACKENDS`]; the sharded entry honours
/// `scale.devices`, everything else runs single-device.
pub fn record_trace(backend: &str, scale: &WallclockScale) -> Result<Trace, String> {
    let (dataset, targets, init) = bench_scene(scale);
    let model_len = init.len();
    let devices = if backend == "sharded" {
        scale.devices.max(1)
    } else {
        1
    };
    let mut writer = TraceWriter::new(trace_meta(backend, scale, model_len, devices));
    match backend {
        "synchronous" => record_synchronous(&mut writer, scale, &dataset, &targets, init),
        "simulated" => record_simulated(&mut writer, scale, &dataset, &targets, init, model_len),
        "threaded" => record_threaded(&mut writer, scale, &dataset, &targets, init),
        "sharded" => record_sharded(&mut writer, scale, &dataset, &targets, init, model_len),
        other => {
            return Err(format!(
                "unknown backend {other:?} (expected one of {TRACE_BACKENDS:?})"
            ))
        }
    }
    Ok(writer.finish())
}

/// The trace header for one recorded run: workload identity plus the
/// cost-model constants device-count replays re-price communication with.
fn trace_meta(
    backend: &str,
    scale: &WallclockScale,
    model_len: usize,
    devices: usize,
) -> TraceMeta {
    let profile = DeviceProfile::rtx4090();
    TraceMeta {
        backend: backend.to_string(),
        scene: format!("rubble-{}", scale.label),
        devices: devices as u32,
        prefetch_window: scale.prefetch_window as u32,
        seed: DATASET_SEED,
        cost: CostParams {
            pcie_latency_s: profile.pcie_latency,
            pcie_bandwidth: profile.pcie_bandwidth,
            cost_scale: 45_200_000.0 / model_len as f64,
            peer_hop_factor: PEER_HOP_FACTOR,
            gradient_bytes: GRADIENT_BYTES as u64,
        },
    }
}

/// Paper-scale costing shared by the simulated and sharded recordings —
/// identical to the wallclock benchmark's, so traces and
/// `BENCH_runtime.json` describe the same schedules.
fn runtime_config(scale: &WallclockScale, model_len: usize, devices: usize) -> RuntimeConfig {
    RuntimeConfig {
        device: DeviceProfile::rtx4090(),
        prefetch_window: scale.prefetch_window,
        policy: PrefetchPolicy::Fixed,
        cost_scale: 45_200_000.0 / model_len as f64,
        pixel_cost_scale: (1920.0 * 1080.0) / (scale.width as f64 * scale.height as f64),
        compute_threads: 0,
        band_height: 0,
        num_devices: devices,
        warm_start_ratio: None,
    }
}

/// Iterates the run's batches in the order every backend trains them:
/// `(epoch, batch-within-epoch, view range)`.
fn batch_ranges(scale: &WallclockScale, views: usize) -> Vec<(u64, u64, usize, usize)> {
    let batch = scale.batch_size.max(1);
    let mut out = Vec::new();
    for epoch in 0..scale.epochs {
        let mut view = 0;
        let mut b = 0u64;
        while view < views {
            let end = (view + batch).min(views);
            out.push((epoch as u64, b, view, end));
            view = end;
            b += 1;
        }
    }
    out
}

fn record_synchronous(
    writer: &mut TraceWriter,
    scale: &WallclockScale,
    dataset: &Dataset,
    targets: &[Image],
    init: gs_core::gaussian::GaussianModel,
) {
    let mut trainer = Trainer::new(init, crate::wallclock::train_config(scale));
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let mut timeline = Timeline::new();
        trainer.train_batch_spanned(&dataset.cameras[lo..hi], &targets[lo..hi], &mut timeline);
        writer.record_timeline(epoch, b, &timeline);
    }
}

fn record_simulated(
    writer: &mut TraceWriter,
    scale: &WallclockScale,
    dataset: &Dataset,
    targets: &[Image],
    init: gs_core::gaussian::GaussianModel,
    model_len: usize,
) {
    let mut engine = PipelinedEngine::new(
        init,
        crate::wallclock::train_config(scale),
        runtime_config(scale, model_len, 1),
    );
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let report = engine.run_batch(&dataset.cameras[lo..hi], &targets[lo..hi]);
        writer.record_timeline(epoch, b, &report.timeline);
    }
}

fn record_threaded(
    writer: &mut TraceWriter,
    scale: &WallclockScale,
    dataset: &Dataset,
    targets: &[Image],
    init: gs_core::gaussian::GaussianModel,
) {
    let mut backend = ThreadedBackend::new(
        init,
        crate::wallclock::train_config(scale),
        ThreadedConfig {
            prefetch_window: scale.prefetch_window,
            ..Default::default()
        },
    );
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let (_report, timeline) =
            backend.run_batch_traced(&dataset.cameras[lo..hi], &targets[lo..hi]);
        writer.record_timeline(epoch, b, &timeline);
    }
}

fn record_sharded(
    writer: &mut TraceWriter,
    scale: &WallclockScale,
    dataset: &Dataset,
    targets: &[Image],
    init: gs_core::gaussian::GaussianModel,
    model_len: usize,
) {
    let devices = scale.devices.max(1);
    let mut engine = ShardedEngine::new(
        init,
        crate::wallclock::train_config(scale),
        runtime_config(scale, model_len, devices),
        &dataset.cameras,
    );
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let report = engine.run_batch(&dataset.cameras[lo..hi], &targets[lo..hi]);
        writer.record_timeline(epoch, b, &report.timeline);
    }
}

/// One line of run context for the binaries' stderr chatter.
pub fn describe(trace: &Trace) -> String {
    format!(
        "backend={} scene={} devices={} window={} events={} batches={} deps={}",
        trace.meta.backend,
        trace.meta.scene,
        trace.meta.devices,
        trace.meta.prefetch_window,
        trace.events.len(),
        trace.batches().len(),
        if trace.has_deps() {
            "scheduled"
        } else {
            "measured"
        },
    )
}

/// Host-cores note for measured-span traces: on a single core the spans
/// time-slice, so overlap in the trace under-represents a multi-core run.
pub fn span_capture_note() -> Option<String> {
    let cores = detect_host_cores();
    (cores == 1).then(|| {
        format!(
            "warning: recorded on {cores} core — measured spans time-slice \
             instead of overlapping"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clm_trace::{replay_exact, verify_exact, TraceReport};

    /// Record → encode → decode round-trips bit-exactly for every backend,
    /// and each trace is non-trivial (covers the whole run's batches).
    #[test]
    fn all_four_backends_record_and_round_trip() {
        let scale = WallclockScale::test();
        let expected_batches = batch_ranges(&scale, scale.views).len();
        for backend in TRACE_BACKENDS {
            let trace = record_trace(backend, &scale).unwrap();
            assert_eq!(trace.meta.backend, backend);
            assert!(!trace.events.is_empty(), "{backend}: empty trace");
            assert_eq!(
                trace.batches().len(),
                expected_batches,
                "{backend}: missing batches"
            );
            let decoded = Trace::decode(&trace.encode()).unwrap();
            assert_eq!(decoded, trace, "{backend}: decode diverged");
            assert_eq!(
                decoded.encode(),
                trace.encode(),
                "{backend}: non-canonical encoding"
            );
            // Simulated schedules carry dependency edges; measured spans
            // never do.
            let scheduled = backend == "simulated" || backend == "sharded";
            assert_eq!(trace.has_deps(), scheduled, "{backend}");
            // Every trace reports, whichever kind it is.
            let report = TraceReport::build(&trace);
            assert!(report.total_makespan_s > 0.0, "{backend}");
            assert_eq!(report.critical.is_some(), scheduled, "{backend}");
        }
    }

    /// Replaying a scheduled trace with unchanged knobs reproduces the
    /// recorded critical path and per-lane busy totals bit for bit — the
    /// acceptance bar the CI trace-smoke job holds release builds to.
    #[test]
    fn unchanged_replay_is_bit_identical() {
        let scale = WallclockScale::test();
        let trace = record_trace("simulated", &scale).unwrap();
        let replays = verify_exact(&trace).unwrap();
        assert_eq!(replays.len(), trace.batches().len());
        for (replay, (_, _, events)) in replays.iter().zip(trace.batches()) {
            let recorded_end = events.iter().map(|e| e.end().to_bits()).max();
            let replayed_end = replay.timeline.ops().iter().map(|o| o.end.to_bits()).max();
            assert_eq!(recorded_end, replayed_end);
        }
    }

    /// Recording the same seeded workload twice yields byte-identical
    /// traces: the pipeline is deterministic end to end.
    #[test]
    fn seeded_recordings_are_reproducible() {
        let scale = WallclockScale::test();
        let a = record_trace("simulated", &scale).unwrap();
        let b = record_trace("simulated", &scale).unwrap();
        assert_eq!(a.encode(), b.encode());
        let sa = record_trace("sharded", &scale).unwrap();
        let sb = record_trace("sharded", &scale).unwrap();
        assert_eq!(sa.encode(), sb.encode());
    }

    /// The sharded recording schedules onto every device's lane group.
    #[test]
    fn sharded_recording_covers_every_device() {
        let scale = WallclockScale::test();
        let trace = record_trace("sharded", &scale).unwrap();
        assert_eq!(trace.meta.devices, scale.devices as u32);
        let max_device = trace
            .events
            .iter()
            .filter_map(|e| e.lane.device())
            .max()
            .unwrap();
        assert_eq!(max_device, scale.devices - 1);
        let replays = replay_exact(&trace).unwrap();
        assert!(!replays.is_empty());
    }

    /// A version bump in the header refuses to decode — stale tooling can
    /// never misread a future trace.
    #[test]
    fn recorded_trace_rejects_a_corrupted_schema_version() {
        let scale = WallclockScale::test();
        let mut bytes = record_trace("simulated", &scale).unwrap().encode();
        bytes[8..12].copy_from_slice(&(clm_trace::FORMAT_VERSION + 7).to_le_bytes());
        assert!(matches!(
            Trace::decode(&bytes),
            Err(clm_trace::TraceError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn unknown_backend_is_refused() {
        assert!(record_trace("quantum", &WallclockScale::test()).is_err());
    }

    /// FNV-1a 64 over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Digest of every replayed op's start and end bits, batch by batch.
    fn timeline_digest(replays: &[clm_trace::BatchReplay]) -> u64 {
        fnv1a(replays.iter().flat_map(|r| {
            r.timeline.ops().iter().flat_map(|op| {
                op.start
                    .to_bits()
                    .to_le_bytes()
                    .into_iter()
                    .chain(op.end.to_bits().to_le_bytes())
            })
        }))
    }

    /// Golden schedules: the recorded traces of the simulated and sharded
    /// backends, and knob replays of the simulated trace, digest to fixed
    /// values.  Every emitted op, dependency edge, duration, start and end
    /// is covered, so any change to the schedule builder's emission order or
    /// pricing shows up here.  At one device the sharded engine emits
    /// exactly the simulated backend's events.
    #[test]
    fn recorded_and_replayed_schedules_match_their_golden_digests() {
        let base = WallclockScale::test();
        let simulated = record_trace("simulated", &base).unwrap();
        assert_eq!(simulated.events.len(), 45);
        assert_eq!(fnv1a(simulated.encode()), 0xf20a_3064_f9eb_4ecc);
        for (devices, events, digest) in [
            (1, 45, None),
            (2, 71, Some(0x2921_7d59_f13a_e507)),
            (4, 107, Some(0xcead_1a6c_b341_8854)),
        ] {
            let scale = WallclockScale { devices, ..base };
            let sharded = record_trace("sharded", &scale).unwrap();
            assert_eq!(sharded.events.len(), events, "devices={devices}");
            match digest {
                Some(d) => assert_eq!(fnv1a(sharded.encode()), d, "devices={devices}"),
                None => assert_eq!(sharded.events, simulated.events),
            }
        }

        let mut digests = Vec::new();
        for window in [0, 1, 3] {
            for devices in [1, 2, 4] {
                let knobs = clm_trace::ReplayKnobs {
                    window: Some(window),
                    devices: Some(devices),
                    ..Default::default()
                };
                let replays = clm_trace::replay_with_knobs(&simulated, &knobs).unwrap();
                digests.push(timeline_digest(&replays));
            }
        }
        assert_eq!(digests, GOLDEN_REPLAYS);
    }

    /// `replay_with_knobs` timeline digests of the simulated test trace,
    /// window-major over windows {0, 1, 3} × devices {1, 2, 4}.
    const GOLDEN_REPLAYS: [u64; 9] = [
        0xba38_0624_d56a_23c5,
        0x5944_a2e6_11f8_a3f3,
        0x1589_8693_21fd_d269,
        0x75cc_748f_e473_4618,
        0x2d0d_6465_a718_3747,
        0x1589_8693_21fd_d269,
        0x6244_c6b8_843c_a7b1,
        0x2d0d_6465_a718_3747,
        0x1589_8693_21fd_d269,
    ];
}
