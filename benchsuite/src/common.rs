//! Shared plumbing: command-line arguments, statistics, bit-level
//! fingerprints, correctness accounting and the result line.

use gs_core::gaussian::GaussianModel;
use gs_optim::AdamRowState;
use gs_render::Image;
use std::time::Instant;

/// Parsed command line: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.max(0.1),
            trace,
        })
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times one call, adding its wall seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += secs(t);
    out
}

/// Whether a loop of whole rounds with a time budget should start another
/// round: always the first, then while ending after the next round lands
/// nearer the budget than stopping now (judged by the mean round so far).
pub fn another_round(rounds: u64, elapsed: f64, seconds: f64) -> bool {
    rounds == 0 || elapsed + 0.5 * elapsed / (rounds as f64) < seconds
}

/// Median of a sample (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Reference-kernel rate (runs per second) of the host the benchmark was
/// defined on, a 2-core Xeon (`intel-2c2t-l2:2048k-l3:107520k-e2`).
const REFERENCE_RATE: f64 = 200.0;

/// The speed of the share of a host that a run gets, relative to the host
/// the benchmark was defined on.
///
/// The benchmark runs on a few cores of a shared machine whose speed swings
/// by a third from minute to minute: one build of `orbit-dense` ran
/// anywhere from 10.6 to 16.9 img/s in ten consecutive runs, and even
/// set-up times spread by 35%.  A training run therefore samples a fixed kernel
/// of its own (not the repository's code, so no change to the program can
/// move it) between its timed operations, and reports wall-clock metrics at
/// the reference host's speed: a rate divided by [`HostSpeed::factor`], a
/// time multiplied by it.  The raw figures and the factor go to the detail
/// line.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// Kernel runs per second, one per sample.
    rates: Vec<f64>,
    /// The kernel's working array, allocated once so that no sample pays
    /// for page faults.
    buf: Vec<f32>,
}

impl HostSpeed {
    /// Times three back-to-back runs of the reference kernel (about 5 ms
    /// each) and records the fastest, so that a preemption or the cache
    /// left behind by the operation before does not count as host speed.
    /// Call it only between timed operations.
    pub fn sample(&mut self) {
        let best = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(reference_kernel(&mut self.buf, REFERENCE_PASSES));
                secs(t)
            })
            .fold(f64::INFINITY, f64::min);
        self.rates.push(1.0 / best);
    }

    /// Median kernel rate over the run relative to [`REFERENCE_RATE`]
    /// (above 1 on a faster host).
    pub fn factor(&self) -> f64 {
        median(&self.rates) / REFERENCE_RATE
    }

    pub fn samples(&self) -> usize {
        self.rates.len()
    }
}

/// Passes of the reference kernel per sample.
const REFERENCE_PASSES: usize = 40;

/// Fixed single-threaded floating-point work over a 64 KiB array: square
/// roots, exponentials and multiply-adds that stay in L1/L2, like the
/// rasteriser's inner loops.
fn reference_kernel(v: &mut Vec<f32>, passes: usize) -> f32 {
    v.clear();
    v.extend((0..16384).map(|i| (i % 97) as f32 * 0.01 + 1.0));
    let mut acc = 0.0f32;
    for pass in 0..std::hint::black_box(passes) {
        let a = 1.0 + pass as f32 * 1e-3;
        for x in v.iter_mut() {
            *x = (*x * a + 0.5).sqrt() + (*x * 0.25).exp().min(4.0) * 0.1;
            acc += *x;
        }
    }
    acc
}

/// The tail latency: the value at the highest whole percentile (nearest
/// rank, at most p99) that still leaves at least ten samples strictly above
/// its rank.  Returns `(percentile, value)`; samples too small to leave ten
/// beyond the median fall back to p50.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (50, 0.0);
    }
    for p in (50..=99u32).rev() {
        let rank = ((p as f64 / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    let rank = ((0.5 * n as f64).ceil().max(1.0)) as usize;
    (50, v[rank - 1])
}

/// FNV-1a over 32-bit words: a bit-exact fingerprint (unlike `==` on
/// floats, it tells `-0.0` from `0.0` and matches NaN payloads).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    pub fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Bit-exact fingerprint of a model's parameters.
pub fn model_fingerprint(model: &GaussianModel) -> u64 {
    let mut h = Fnv::new();
    h.word(model.len() as u32);
    for i in 0..model.len() {
        h.floats(&model.param_row(i));
    }
    h.finish()
}

/// Bit-exact fingerprints of a training state: the model's parameters and
/// the optimiser's moment rows and step counts.
pub fn state_fingerprint(model: &GaussianModel, adam: &[AdamRowState]) -> (u64, u64) {
    (model_fingerprint(model), adam_fingerprint(adam))
}

/// Bit-exact fingerprint of an optimiser's moment rows and step counts.
fn adam_fingerprint(rows: &[AdamRowState]) -> u64 {
    let mut h = Fnv::new();
    h.word(rows.len() as u32);
    for r in rows {
        h.floats(&r.m);
        h.floats(&r.v);
        h.word(r.step as u32);
        h.word((r.step >> 32) as u32);
    }
    h.finish()
}

/// Bit-exact fingerprint of a set of rendered images.
pub fn images_fingerprint(images: &[Image]) -> u64 {
    let mut h = Fnv::new();
    for img in images {
        h.word(img.width());
        h.word(img.height());
        for px in img.pixels() {
            h.floats(px);
        }
    }
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Operation and correctness accounting.  An operation is a batch, an
/// admission, an evict, a resume or a correctness check; each failure is
/// kept with its reason so the report can name it.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation that cannot fail by itself (a batch that
    /// returned normally).
    pub fn op(&mut self) {
        self.attempted += 1;
        if self.attempted.is_multiple_of(16) {
            // Heartbeat for the watchdog: if this process dies, `run.py`
            // still knows how many operations it had attempted.
            println!("#progress attempted={}", self.attempted);
        }
    }

    /// Counts one checked operation; a false `ok` is recorded as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op();
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Formats a float as a JSON number with every digit Rust's shortest
/// round-trip representation gives (non-finite values become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal (the benchmark only quotes plain ASCII names and
/// messages; quotes and backslashes are escaped, control characters
/// dropped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host facts every result carries: the `HostTopology` fingerprint, its
/// effective (quota-aware) cores and the raw `nproc`.
pub fn host_json() -> String {
    let topo = sim_device::HostTopology::cached();
    format!(
        "{{\"fingerprint\":{},\"effective_cores\":{},\"nproc\":{},\"topology\":{}}}",
        quote(&topo.fingerprint()),
        topo.effective_cores(),
        nproc(),
        topo.to_json()
    )
}

/// `nproc` as the benchmark uses it for compute widths.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Metrics,
    pub ledger: Ledger,
    /// Extra `"key":value` JSON members for the detail line (layer shares,
    /// tail percentile, sizes).
    pub detail: Vec<(String, String)>,
}

impl Report {
    pub fn detail(&mut self, key: &str, json_value: String) {
        self.detail.push((key.to_string(), json_value));
    }

    /// Records the host-speed factor and the raw wall-clock figures.
    pub fn host_speed(&mut self, host: &HostSpeed, rate: f64, sync_rate: f64, p50: f64, tail: f64) {
        self.detail("host_speed", host.factor().to_string());
        self.detail("host_speed_samples", host.samples().to_string());
        self.detail(
            "raw",
            format!(
                "{{\"images_per_s\":{rate},\"sync_images_per_s\":{sync_rate},\
                 \"batch_p50_s\":{p50},\"batch_tail_s\":{tail}}}"
            ),
        );
    }

    /// Prints a human-readable table on stderr, then the detail line and
    /// the result line on stdout (the result line last).
    pub fn print(&self, args: &Args) {
        eprintln!(
            "{} seed={} trace={}: {} operations, {} failed",
            args.workload,
            args.seed,
            args.trace as u8,
            self.ledger.attempted,
            self.ledger.failures.len()
        );
        for m in &self.metrics.0 {
            eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let failures: Vec<String> = self.ledger.failures.iter().map(|f| quote(f)).collect();
        let mut detail = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{},\"failures\":[{}]",
            quote(&args.workload),
            args.seed,
            args.trace as u8,
            host_json(),
            failures.join(",")
        );
        for (k, v) in &self.detail {
            detail.push_str(&format!(",{}:{}", quote(k), v));
        }
        detail.push('}');
        println!("#detail {detail}");

        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        let finite = self.metrics.0.iter().all(|m| m.value.is_finite());
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ledger.failures.is_empty() && finite,
            self.ledger.attempted.max(1),
            self.ledger.failures.len(),
            metrics.join(",")
        );
    }
}
