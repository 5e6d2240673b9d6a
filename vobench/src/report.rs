//! Metric names, the printed report, and host metadata.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, work done).
    Lower,
    /// Larger is better (rates, shares).
    Higher,
}

/// A metric the benchmark defines: name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every
/// workload. "Op" is the workload's primary operation: one formed
/// seed on `form_*`, one acknowledged mutation on `trust_write`.
/// `latency_ms` is the one wall-clock figure gated, taken over the
/// time slices with the least hypervisor steal; the other wall-clock
/// figures are `client.*` layer metrics, whose run-to-run spread
/// follows the steal.
pub const END_TO_END: [MetricDef; 3] =
    [def("setup_s", "s", Lower), def("latency_ms", "ms", Lower), def("cpu_ms_per_op", "ms", Lower)];

/// Per-layer metrics, reported by every traced run of every workload
/// (0 where the workload never enters the layer).
pub const PER_LAYER: [MetricDef; 40] = [
    def("client.latency_ms", "ms", Lower),
    def("client.tail_ms", "ms", Lower),
    def("client.ops_per_s", "1/s", Higher),
    def("client.read_ms", "ms", Lower),
    def("client.rss_mb", "MB", Lower),
    def("client.steal_share", "share", Lower),
    def("solver.nodes", "count", Lower),
    def("solver.nodes_per_s", "1/s", Higher),
    def("solver.solve_ms", "ms", Lower),
    def("solver.capped_rounds", "count", Lower),
    def("solver.gap_mean", "share", Lower),
    def("solver.proven_share", "share", Higher),
    def("solver.self_ms", "ms", Lower),
    def("trust.power_us", "us", Lower),
    def("trust.power_iterations", "count", Lower),
    def("trust.self_ms", "ms", Lower),
    def("core.mechanism_ms", "ms", Lower),
    def("core.rounds", "count", Lower),
    def("core.solve_key_us", "us", Lower),
    def("core.self_ms", "ms", Lower),
    def("service.cache_hit_rate", "share", Higher),
    def("service.cache_lookup_us", "us", Lower),
    def("service.encode_us", "us", Lower),
    def("service.decode_us", "us", Lower),
    def("service.response_bytes", "bytes", Lower),
    def("service.queue_wait_ms", "ms", Lower),
    def("service.service_ms", "ms", Lower),
    def("service.registry_apply_us", "us", Lower),
    def("service.snapshot_build_us", "us", Lower),
    def("service.self_ms", "ms", Lower),
    def("store.append_us", "us", Lower),
    def("store.fsync_ms", "ms", Lower),
    def("store.fsyncs", "count", Lower),
    def("store.compactions", "count", Lower),
    def("store.compact_ms", "ms", Lower),
    def("store.journal_bytes", "bytes", Lower),
    def("store.snapshot_bytes", "bytes", Lower),
    def("store.bytes_per_mutation", "bytes", Lower),
    def("store.self_ms", "ms", Lower),
    def("trace.overhead_us", "us", Lower),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: u64,
    /// Extra context for the printed line (e.g. the tail percentile).
    pub detail: String,
}

impl Metric {
    /// A metric without extra context.
    pub fn new(name: &'static str, value: f64, samples: u64) -> Self {
        Metric { name, value, samples, detail: String::new() }
    }

    /// The same metric with a context note.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }
}

/// Look up a metric's definition.
pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name)
}

/// Host and build facts printed with every result.
pub fn host_line() -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "host cores={cores} commit={} profile={profile} os={} arch={}",
        commit(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The checked-out commit, when the working directory is a git
/// checkout and `git` is installed; `unknown` otherwise.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resident set size of this process in MB (`VmRSS`), or `None` where
/// `/proc` is unavailable.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A reading of this process's CPU time and the host's CPU counters.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    process_secs: f64,
    steal_ticks: f64,
    all_ticks: f64,
}

impl CpuMark {
    /// Read this process's CPU clock (every thread, exited ones
    /// included) and the first line of `/proc/stat`.
    pub fn now() -> Option<CpuMark> {
        let process_secs = process_cpu_secs()?;
        let host = std::fs::read_to_string("/proc/stat").ok()?;
        let cpu: Vec<f64> = host
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|x| x.parse().ok())
            .collect();
        Some(CpuMark { process_secs, steal_ticks: *cpu.get(7)?, all_ticks: cpu.iter().sum() })
    }

    /// CPU seconds this process ran since `earlier`, and the share of
    /// all host CPU time the hypervisor stole meanwhile. Stolen time is
    /// not charged to the process.
    pub fn since(&self, earlier: &CpuMark) -> (f64, f64) {
        let all = self.all_ticks - earlier.all_ticks;
        let steal = if all > 0.0 { (self.steal_ticks - earlier.steal_ticks) / all } else { 0.0 };
        (self.process_secs - earlier.process_secs, steal)
    }
}

/// One printed line per metric: name, value, unit, sample count.
pub fn metric_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let unit = def_of(m.name).map_or("", |d| d.unit);
        let _ = write!(out, "  {:<28} {:>16.6} {:<6} n={}", m.name, m.value, unit, m.samples);
        if !m.detail.is_empty() {
            let _ = write!(out, "  ({})", m.detail);
        }
        out.push('\n');
    }
    out
}

/// The machine-readable result line: `correct`, `attempted`, `failed`
/// and `metrics` (`name → {"value", "unit"}`), in that order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest string that reads back as the
        // same f64: every digit the measurement has, nothing more.
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// CPU seconds every thread of this process, exited ones included, has
/// run so far (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution), or
/// `None` where that clock is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_secs() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// CPU seconds of this process: unavailable off 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_secs() -> Option<f64> {
    None
}
