//! The three closed-loop workloads, each against an in-process daemon
//! on loopback, driven from at most two client threads.
//!
//! * `form_cold` — one client sends `form` requests with never-repeated
//!   seeds, alternating TVOF and RVOF, to a daemon whose solve cache is
//!   off (`cache_capacity` 0): every round is a fresh exact solve.
//! * `form_hot` — the default daemon with its cache warmed (during
//!   set-up) by a few hundred seeds; one client sends single `form`s,
//!   the other `form_batch`es, every seed drawn from the warmed set, so
//!   every round is a cache hit.
//! * `trust_write` — a durable daemon over a 16 GSP × 1024 task
//!   program; one client alternates `report_trust` and
//!   `report_receipt`, acknowledged one at a time, while the other
//!   reads the registry, one `registry` request at a time.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gridvo_core::mechanism::FormationConfig;
use gridvo_core::solve_cache::NoCache;
use gridvo_core::{ExecutionReceipt, FormationScenario};
use gridvo_service::protocol::{decode, encode, MechanismKind, Request, Response};
use gridvo_service::{
    GspRegistry, MetricsSnapshot, PersistConfig, ServerConfig, ServerHandle, SharedSolveCache,
};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use gridvo_store::StoreStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::LineClient;
use crate::report::{process_cpu_secs, rss_mb, CpuMark, Metric};
use crate::stats;
use crate::trace::{self, ServedForm};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uncached formation: solver-bound.
    FormCold,
    /// Fully cached formation: dispatch, cache, codec, power method.
    FormHot,
    /// Durable registry mutations beside registry reads.
    TrustWrite,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::FormCold, Workload::FormHot, Workload::TrustWrite];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FormCold => "form_cold",
            Workload::FormHot => "form_hot",
            Workload::TrustWrite => "trust_write",
        }
    }

    /// Parse a name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::QUICK`] only exists so the benchmark's tests run in
/// seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// GSPs in every pool.
    pub gsps: usize,
    /// Tasks in the `form_cold` program.
    pub cold_tasks: usize,
    /// Tasks in the `form_hot` program.
    pub hot_tasks: usize,
    /// Tasks in the `trust_write` program.
    pub trust_tasks: usize,
    /// RVOF seeds the `form_hot` warm-up forms.
    pub warm_rvof: usize,
    /// TVOF seeds the `form_hot` warm-up forms.
    pub warm_tvof: usize,
    /// Seeds per `form_batch` on `form_hot`. The full size is the batch
    /// `service_sweep`'s batch phase sends at its default scale: the
    /// whole five-seed list per request.
    pub batch: usize,
    /// Set-ups before the timed phase (the last one serves it) and again
    /// after it, at least; `setup_s` is the median of all of them.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        gsps: 16,
        cold_tasks: 16,
        hot_tasks: 16,
        trust_tasks: 1024,
        warm_rvof: 240,
        warm_tvof: 16,
        batch: 5,
        setups: 3,
    };

    /// Small sizes for the benchmark's own tests.
    pub const QUICK: Scale = Scale {
        gsps: 8,
        cold_tasks: 12,
        hot_tasks: 12,
        trust_tasks: 256,
        warm_rvof: 24,
        warm_tvof: 4,
        batch: 4,
        setups: 2,
    };
}

/// Generator seeds of the fixed programs. Work per formation differs
/// by orders of magnitude between generated pools (2 ms to 1.4 s per
/// TVOF form across generator seeds 1–8 at 16 × 16), so the pools are
/// fixed and `--seed` draws the request streams.
const COLD_POOL_SEED: u64 = 4;
const HOT_POOL_SEED: u64 = 3;
const TRUST_POOL_SEED: u64 = 1;
/// Seeds the `form_hot` warm-up set.
const WARM_SET_SEED: u64 = 1;

/// Primary operations (and reads) a run completes at least, however
/// short `--seconds` is, so the tail rule always has samples.
const MIN_SAMPLES: usize = 20;
/// Set-ups of a cheap workload repeat for at least this long ...
const SETUP_MIN_SECS: f64 = 1.0;
/// ... up to this many, so `setup_s` is the median of many.
const SETUP_MAX: usize = 40;
/// Time slices a timed phase is cut into for `latency_ms` and
/// `cpu_ms_per_op`.
const TIME_SLICES: usize = 20;
/// How often the primary client samples the resident set size.
const RSS_EVERY: Duration = Duration::from_millis(100);
/// Served operations a traced run replays in-process (the first ones).
const REPLAY_LIMIT: usize = 5_000;
/// Where durable daemons keep their data, under the working directory.
const DATA_ROOT: &str = ".vobench-data";

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seeds every request stream.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Also run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// End-to-end metrics (always).
    pub end_to_end: Vec<Metric>,
    /// Wall-clock figures of the timed phase (always; also part of
    /// `layers` in traced runs).
    pub client: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operations attempted in the timed phase (primary and reads).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// Context worth printing (cache size, pool shape, ...).
    pub notes: Vec<String>,
}

impl RunReport {
    /// True when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Run one workload.
pub fn run(workload: Workload, params: &Params) -> Result<RunReport, String> {
    let report = match workload {
        Workload::FormCold => form_cold(params),
        Workload::FormHot => form_hot(params),
        Workload::TrustWrite => trust_write(params),
    };
    // Only removes the root once every run's directory is gone.
    let _ = std::fs::remove_dir(DATA_ROOT);
    report
}

/// Successes and failures of one stream.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.flag(problem);
    }

    /// Mark an already-counted operation failed (a late output check).
    fn flag(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

/// A daemon plus the data directory it owns.
struct Daemon {
    handle: ServerHandle,
    data_dir: Option<PathBuf>,
}

impl Daemon {
    fn spawn(
        pool: &FormationScenario,
        mut config: ServerConfig,
        durable: bool,
    ) -> Result<Daemon, String> {
        let data_dir = durable.then(fresh_data_dir);
        if let Some(dir) = &data_dir {
            config.persistence = Some(PersistConfig::new(dir));
        }
        let handle = ServerHandle::spawn(pool, config).map_err(|e| format!("daemon spawn: {e}"))?;
        Ok(Daemon { handle, data_dir })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn shutdown(self) {
        self.handle.shutdown();
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A directory no other run (or test thread) of this process uses.
fn fresh_data_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(DATA_ROOT).join(format!("{}-{n}", std::process::id()))
}

/// Run `once` at least `setups` times, and more (up to
/// [`SETUP_MAX`]) until [`SETUP_MIN_SECS`] of wall time have passed,
/// measuring the CPU seconds each takes (every thread of the process,
/// daemon included); keep the last daemon (and whatever else `once`
/// built) and shut the others down unmeasured. A set-up is everything
/// before the timed phase: generating the pool, spawning the daemon,
/// connecting, and any warm-up.
fn set_up<T>(
    setups: usize,
    mut once: impl FnMut() -> Result<(Daemon, T), String>,
) -> Result<(Daemon, T, Vec<f64>), String> {
    let cpu = || process_cpu_secs().ok_or("process CPU clock unavailable");
    let mut times = Vec::new();
    let mut last: Option<(Daemon, T)> = None;
    let began = Instant::now();
    while times.len() < setups.max(1)
        || (times.len() < SETUP_MAX && began.elapsed().as_secs_f64() < SETUP_MIN_SECS)
    {
        if let Some((daemon, _)) = last.take() {
            daemon.shutdown();
        }
        let started = cpu()?;
        last = Some(once()?);
        times.push(cpu()? - started);
    }
    let (daemon, built) = last.expect("at least one set-up ran");
    Ok((daemon, built, times))
}

/// Measure more set-ups after the timed phase (as [`set_up`] does)
/// and shut the last one down. `setup_s` is the median over both
/// rounds, so a burst of host slowness during one of them moves half
/// the samples, not all of them.
fn set_up_again<T>(
    setups: usize,
    once: impl FnMut() -> Result<(Daemon, T), String>,
) -> Result<Vec<f64>, String> {
    let (daemon, _, times) = set_up(setups, once)?;
    daemon.shutdown();
    Ok(times)
}

/// Generate the fixed program of one workload.
pub fn pool(gsps: usize, tasks: usize, generator_seed: u64) -> Result<FormationScenario, String> {
    let cfg = TableI { gsps, task_sizes: vec![tasks], ..TableI::default() };
    let mut rng = StdRng::seed_from_u64(generator_seed);
    ScenarioGenerator::new(cfg)
        .scenario(tasks, &mut rng)
        .map_err(|e| format!("pool generation: {e}"))
}

/// The scenario a fresh daemon serves for `pool` (its registry's
/// materialization, which is what workers form against).
fn served_scenario(pool: &FormationScenario) -> Result<FormationScenario, String> {
    GspRegistry::from_scenario(pool, FormationConfig::default().reputation)
        .and_then(|r| r.scenario())
        .map_err(|e| e.to_string())
}

fn connect(addr: SocketAddr) -> Result<LineClient, String> {
    LineClient::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// A connection to `daemon`, proven ready by one answered read.
fn connect_ready(daemon: &Daemon, shape: (usize, usize)) -> Result<LineClient, String> {
    let mut client = connect(daemon.addr())?;
    let mut probe = Reads::default();
    probe.read_once(&mut client, shape);
    match probe.tally.problems.first() {
        Some(problem) => Err(problem.clone()),
        None => Ok(client),
    }
}

/// Two connections to `daemon`, each proven ready.
fn connect_pair(
    daemon: &Daemon,
    shape: (usize, usize),
) -> Result<(LineClient, LineClient), String> {
    Ok((connect_ready(daemon, shape)?, connect_ready(daemon, shape)?))
}

fn shape(pool: &FormationScenario) -> (usize, usize) {
    (pool.gsp_count(), pool.instance().tasks())
}

/// A request seed. The daemon's JSON reader takes integers only up to
/// 2^53 (beyond that a number reads back as a float and the request is
/// refused), so seeds are drawn below it.
fn wire_seed(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> 11
}

fn form_request(kind: MechanismKind, seed: u64) -> String {
    encode(&Request::Form { seed, mechanism: kind, deadline_ms: None, app: None })
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Registry reads of one connection.
#[derive(Debug, Default)]
struct Reads {
    latencies_ms: Vec<f64>,
    tally: Tally,
    last_epoch: u64,
    /// `(epoch, reputation bits)` of the first answer seen at each epoch.
    seen: Vec<(u64, Vec<u64>)>,
}

impl Reads {
    /// One `registry` read; the answer is checked for a consistent
    /// epoch that never goes backwards and for the pool's shape.
    fn read_once(&mut self, client: &mut LineClient, shape: (usize, usize)) {
        let started = Instant::now();
        let answer = client.call(&encode(&Request::Registry));
        self.latencies_ms.push(ms_since(started));
        let answer = match answer {
            Ok(a) => a,
            Err(e) => {
                self.tally.fail(format!("registry read: {e}"));
                return;
            }
        };
        match decode::<Response>(&answer) {
            Ok(Response::Registry { snapshot, epoch: Some(epoch) })
                if snapshot.epoch == epoch
                    && epoch >= self.last_epoch
                    && (snapshot.gsps, snapshot.tasks) == shape =>
            {
                if self.seen.last().is_none_or(|(e, _)| *e != epoch) {
                    self.seen.push((epoch, bits(&snapshot.reputation)));
                }
                self.last_epoch = epoch;
                self.tally.ok();
            }
            other => self.tally.fail(format!("registry read: unexpected answer {other:?}")),
        }
    }

    /// Closed loop, one read at a time, until `done` is set (and at
    /// least [`MIN_SAMPLES`] reads are in).
    fn read_loop(client: &mut LineClient, done: &AtomicBool, shape: (usize, usize)) -> Reads {
        let mut reads = Reads::default();
        while !done.load(Ordering::SeqCst) || reads.latencies_ms.len() < MIN_SAMPLES {
            reads.read_once(client, shape);
        }
        reads
    }
}

/// Process CPU and host steal over a timed phase, marked by the
/// primary client between its requests, once a slice's length has
/// passed.
#[derive(Debug)]
struct SliceClock {
    started: Instant,
    length: f64,
    marks: Vec<(f64, CpuMark)>,
}

impl SliceClock {
    /// Start marking slices of `seconds / TIME_SLICES`; `started` is the
    /// instant the phase's completion times count from.
    fn new(started: Instant, seconds: f64) -> Result<SliceClock, String> {
        let mark = CpuMark::now().ok_or("CPU counters unavailable (no /proc)")?;
        Ok(SliceClock { started, length: seconds / TIME_SLICES as f64, marks: vec![(0.0, mark)] })
    }

    fn tick(&mut self) {
        let at = self.started.elapsed().as_secs_f64();
        if at - self.marks.last().map_or(0.0, |m| m.0) >= self.length {
            self.marks.extend(CpuMark::now().map(|m| (at, m)));
        }
    }

    /// The phase's slices (a last stretch shorter than half a slice
    /// joins the slice before it), and the process CPU seconds and host
    /// steal share over the whole phase.
    fn finish(mut self) -> (Vec<stats::TimeSlice>, (f64, f64)) {
        let at = self.started.elapsed().as_secs_f64();
        if self.marks.len() > 1 && at - self.marks.last().map_or(0.0, |m| m.0) < self.length / 2.0 {
            self.marks.pop();
        }
        self.marks.extend(CpuMark::now().map(|m| (at, m)));
        let slices = self
            .marks
            .windows(2)
            .map(|w| {
                let (cpu_secs, steal) = w[1].1.since(&w[0].1);
                stats::TimeSlice { start: w[0].0, end: w[1].0, cpu_secs, steal }
            })
            .collect();
        let whole = self.marks[self.marks.len() - 1].1.since(&self.marks[0].1);
        (slices, whole)
    }
}

/// Resident set size, sampled every [`RSS_EVERY`] by the primary client.
#[derive(Debug, Default)]
struct Rss {
    samples_mb: Vec<f64>,
    last: Option<Instant>,
}

impl Rss {
    fn sample(&mut self) {
        if self.last.is_none_or(|at| at.elapsed() >= RSS_EVERY) {
            self.last = Some(Instant::now());
            self.samples_mb.extend(rss_mb());
        }
    }
}

/// The primary operations of a timed phase.
#[derive(Debug, Default)]
struct Ops {
    /// Latency of each request whose latency is sampled (single `form`s
    /// on `form_hot`), in completion order.
    latencies_ms: Vec<f64>,
    /// When each of those completed, in seconds since the phase began.
    latency_done_at: Vec<f64>,
    /// When each primary operation completed (batched seeds included).
    done_at: Vec<f64>,
    /// The phase's time slices.
    slices: Vec<stats::TimeSlice>,
    /// Process CPU seconds and host steal share over the whole phase.
    whole: (f64, f64),
}

/// What one timed phase measured: the gated end-to-end metrics and the
/// wall-clock `client.*` figures. `reads` are the second client's
/// registry reads, where the workload has them.
fn phase_metrics(
    setup_times: &[f64],
    ops: &Ops,
    reads: Option<&Reads>,
    rss: &Rss,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let op_latencies_ms = &ops.latencies_ms[..];
    let few = || format!("too few samples ({} ops)", op_latencies_ms.len());
    let setup = stats::median(setup_times).ok_or_else(few)?;
    let done = ops.done_at.len() as u64;
    let calm = stats::calm_slice_latency(op_latencies_ms, &ops.latency_done_at, &ops.slices)
        .ok_or_else(few)?;
    let cpu_per_op = stats::median_cpu_ms_per_op(&ops.done_at, &ops.slices).ok_or_else(few)?;
    let tail = stats::sliced_tail(op_latencies_ms).ok_or_else(few)?;
    let latency = stats::median_of_slice_means(op_latencies_ms).ok_or_else(few)?;
    let rate = stats::median_slice_rate(&ops.done_at).ok_or_else(few)?;
    let read = match reads {
        Some(r) => stats::median_of_slice_means(&r.latencies_ms)
            .ok_or_else(|| format!("too few reads ({})", r.latencies_ms.len()))?,
        None => 0.0,
    };
    let rss_mb = stats::median(&rss.samples_mb)
        .ok_or("resident set size unavailable (no /proc/self/status)")?;
    let n_ops = op_latencies_ms.len() as u64;
    let slice_means = format!("median of {} slice means", stats::SLICES);
    let end_to_end = vec![
        Metric::new("setup_s", setup, setup_times.len() as u64)
            .with_detail("median CPU seconds of the set-ups"),
        Metric::new("latency_ms", calm, n_ops).with_detail(format!(
            "median over the calmer half of {} slices of the slice's mean",
            ops.slices.len()
        )),
        Metric::new("cpu_ms_per_op", cpu_per_op, done).with_detail(format!(
            "median over {} slices; {:.2} CPU s over the timed phase",
            ops.slices.len(),
            ops.whole.0
        )),
    ];
    let client = vec![
        Metric::new("client.latency_ms", latency, n_ops).with_detail(slice_means.clone()),
        Metric::new("client.tail_ms", tail.value, n_ops).with_detail(format!(
            "p{:.2}, {} samples beyond, median over slices",
            tail.percentile, tail.beyond
        )),
        Metric::new("client.ops_per_s", rate, done)
            .with_detail(format!("median of {} slice rates", stats::SLICES)),
        Metric::new("client.read_ms", read, reads.map_or(0, |r| r.latencies_ms.len() as u64))
            .with_detail(if reads.is_some() { slice_means } else { "no reads".to_string() }),
        Metric::new("client.rss_mb", rss_mb, rss.samples_mb.len() as u64)
            .with_detail("median of samples every 100 ms"),
        Metric::new("client.steal_share", ops.whole.1, 1)
            .with_detail("host CPU time stolen by the hypervisor"),
    ];
    Ok((end_to_end, client))
}

/// Daemon-side counters over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonDelta {
    cache_hits: u64,
    cache_misses: u64,
    queue_wait_ms: f64,
    service_ms: f64,
    store: Option<(StoreStats, StoreStats)>,
}

impl DaemonDelta {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> DaemonDelta {
        let mean = |sum: f64, count: u64| if count == 0 { 0.0 } else { sum / count as f64 };
        DaemonDelta {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            queue_wait_ms: mean(
                after.queue_wait_ms.sum_ms - before.queue_wait_ms.sum_ms,
                after.queue_wait_ms.count - before.queue_wait_ms.count,
            ),
            service_ms: mean(
                after.service_ms.sum_ms - before.service_ms.sum_ms,
                after.service_ms.count - before.service_ms.count,
            ),
            store: None,
        }
    }

    fn hit_rate(&self) -> f64 {
        match self.cache_hits + self.cache_misses {
            0 => 0.0,
            n => self.cache_hits as f64 / n as f64,
        }
    }
}

// ---------------------------------------------------------------- form_cold

fn form_cold(p: &Params) -> Result<RunReport, String> {
    let config = ServerConfig { cache_capacity: 0, ..ServerConfig::default() };
    let mut once = || {
        let pool = pool(p.scale.gsps, p.scale.cold_tasks, COLD_POOL_SEED)?;
        let daemon = Daemon::spawn(&pool, config.clone(), false)?;
        let former = connect_ready(&daemon, shape(&pool))?;
        Ok((daemon, (pool, former)))
    };
    let (daemon, (pool, mut former), mut setup_times) = set_up(p.scale.setups, &mut once)?;
    let shape = shape(&pool);
    let before = daemon.handle.metrics_snapshot();

    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut used = HashSet::new();
    let mut served: Vec<(MechanismKind, u64, String)> = Vec::new();
    let mut ops = Ops::default();
    let mut tally = Tally::default();
    let mut rss = Rss::default();
    let started = Instant::now();
    let mut clock = SliceClock::new(started, p.seconds)?;
    let deadline = started + Duration::from_secs_f64(p.seconds);
    while Instant::now() < deadline || served.len() < MIN_SAMPLES {
        rss.sample();
        clock.tick();
        let kind =
            if served.len().is_multiple_of(2) { MechanismKind::Tvof } else { MechanismKind::Rvof };
        let seed = loop {
            let s = wire_seed(&mut rng);
            if used.insert(s) {
                break s;
            }
        };
        let request = form_request(kind, seed);
        let sent = Instant::now();
        match former.call(&request) {
            Ok(line) => {
                ops.latencies_ms.push(ms_since(sent));
                ops.latency_done_at.push(started.elapsed().as_secs_f64());
                served.push((kind, seed, line));
            }
            Err(e) => {
                tally.fail(format!("form: {e}"));
                break;
            }
        }
    }
    (ops.slices, ops.whole) = clock.finish();
    ops.done_at = ops.latency_done_at.clone();
    let after = daemon.handle.metrics_snapshot();
    daemon.shutdown();

    // Output check, outside the timed phase: every served line against
    // an in-process run of the same seed on the same pool, and every
    // feasible round proven optimal (a capped solve would buy speed
    // with an unproven answer).
    let scenario = served_scenario(&pool)?;
    let served: Vec<ServedForm> = served
        .iter()
        .map(|(kind, seed, line)| ServedForm { kind: *kind, seed: *seed, line })
        .collect();
    let replay = trace::replay_forms(&scenario, &served, &mut NoCache, p.trace);
    for _ in &served {
        tally.ok();
    }
    for problem in &replay.mismatches {
        tally.flag(problem.clone());
    }
    if replay.proven != replay.feasible {
        tally.flag(format!(
            "{} of {} feasible rounds were not proven optimal",
            replay.feasible - replay.proven,
            replay.feasible
        ));
    }
    setup_times.extend(set_up_again(p.scale.setups, &mut once)?);
    let (end_to_end, client) = phase_metrics(&setup_times, &ops, None, &rss)?;
    let layers = if p.trace {
        let delta = DaemonDelta::between(&before, &after);
        with_client(form_layers(&replay, stats::mean(&ops.latencies_ms), &delta), &client)
    } else {
        Vec::new()
    };
    Ok(RunReport {
        workload: Workload::FormCold,
        end_to_end,
        client,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        notes: vec![format!(
            "pool {}x{} (generator seed {COLD_POOL_SEED}), cache off, {} of {} feasible rounds proven",
            shape.0, shape.1, replay.proven, replay.feasible
        )],
    })
}

/// Per-layer metrics of a formation workload, per formed seed.
fn form_layers(traced: &trace::FormReplay, e2e_mean_ms: f64, daemon: &DaemonDelta) -> Vec<Metric> {
    let n = traced.forms.max(1) as f64;
    let c = &traced.cache;
    let s = &traced.spans;
    let per_form_ms = |secs: f64| secs * 1e3 / n;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let power_total = s.total("trust.power");
    let mechanism_total = s.total("core.mechanism");
    let core_self = mechanism_total - c.solve_secs - c.lookup_secs - c.store_secs - power_total;
    let codec_total = s.total("service.encode") + s.total("service.decode");
    let forms = traced.forms;
    let rounds = traced.rounds;
    let mut m = zero_layers(forms);
    let mut set = |name: &'static str, value: f64, samples: u64| {
        if let Some(slot) = m.iter_mut().find(|x| x.name == name) {
            *slot = Metric::new(name, value, samples);
        }
    };
    set("solver.nodes", c.nodes as f64 / n, forms);
    set("solver.nodes_per_s", ratio(c.nodes as f64, c.solve_secs), c.solves);
    set("solver.solve_ms", per_form_ms(c.solve_secs), forms);
    set("solver.capped_rounds", c.capped as f64, c.solves);
    set("solver.gap_mean", ratio(c.gap_sum, c.capped as f64), c.capped);
    set(
        "solver.proven_share",
        ratio(traced.proven as f64, traced.feasible as f64),
        traced.feasible,
    );
    set("solver.self_ms", per_form_ms(c.solve_secs), forms);
    set("trust.power_us", s.mean("trust.power") * 1e6, s.count("trust.power"));
    set(
        "trust.power_iterations",
        ratio(traced.power_iterations as f64, s.count("trust.power") as f64),
        s.count("trust.power"),
    );
    set("trust.self_ms", per_form_ms(power_total), forms);
    set("core.mechanism_ms", per_form_ms(mechanism_total), forms);
    set("core.rounds", rounds as f64 / n, forms);
    set("core.solve_key_us", s.mean("core.solve_key") * 1e6, s.count("core.solve_key"));
    set("core.self_ms", per_form_ms(core_self), forms);
    set("service.cache_hit_rate", daemon.hit_rate(), daemon.cache_hits + daemon.cache_misses);
    set("service.cache_lookup_us", ratio(c.lookup_secs, c.lookups as f64) * 1e6, c.lookups);
    set("service.encode_us", s.total("service.encode") * 1e6 / n, forms);
    set("service.decode_us", s.total("service.decode") * 1e6 / n, forms);
    set("service.response_bytes", traced.bytes as f64 / n, forms);
    set("service.queue_wait_ms", daemon.queue_wait_ms, forms);
    set("service.service_ms", daemon.service_ms, forms);
    set("service.self_ms", e2e_mean_ms - per_form_ms(mechanism_total + codec_total), forms);
    set("trace.overhead_us", (traced.traced_secs - traced.untraced_secs) * 1e6 / n, forms);
    m
}

/// Per-layer metrics with the timed phase's `client.*` figures in.
fn with_client(mut layers: Vec<Metric>, client: &[Metric]) -> Vec<Metric> {
    for m in client {
        if let Some(slot) = layers.iter_mut().find(|x| x.name == m.name) {
            *slot = m.clone();
        }
    }
    layers
}

/// Every per-layer metric at 0: layers a workload never enters.
fn zero_layers(samples: u64) -> Vec<Metric> {
    crate::report::PER_LAYER.iter().map(|d| Metric::new(d.name, 0.0, samples)).collect()
}

// ----------------------------------------------------------------- form_hot

fn form_hot(p: &Params) -> Result<RunReport, String> {
    let config = ServerConfig::default();
    let capacity = config.cache_capacity;

    // The warmed set: distinct seeds per mechanism, the same in every
    // run, so set-up does the same solver work whatever `--seed` is
    // (per-seed RVOF work is heavy-tailed: 2 ms to 260 ms on this pool).
    // `--seed` draws which warmed seeds the timed phase asks for.
    let mut rng = StdRng::seed_from_u64(WARM_SET_SEED);
    let mut draw = |count: usize| -> Vec<u64> {
        let mut seen = HashSet::new();
        std::iter::repeat_with(|| wire_seed(&mut rng))
            .filter(|s| seen.insert(*s))
            .take(count)
            .collect()
    };
    let rvof = draw(p.scale.warm_rvof);
    let tvof = draw(p.scale.warm_tvof);
    let warm: Vec<(MechanismKind, u64)> = rvof
        .iter()
        .map(|&s| (MechanismKind::Rvof, s))
        .chain(tvof.iter().map(|&s| (MechanismKind::Tvof, s)))
        .collect();

    let mut once = || {
        let pool = pool(p.scale.gsps, p.scale.hot_tasks, HOT_POOL_SEED)?;
        let daemon = Daemon::spawn(&pool, config.clone(), false)?;
        let (a, b) = connect_pair(&daemon, shape(&pool))?;
        let mut clients = [a, b];
        // Warm the cache from both connections; the answers are the
        // cold lines every later answer must equal.
        let halves: Vec<&[(MechanismKind, u64)]> = warm.chunks(warm.len().div_ceil(2)).collect();
        let warmed: Result<Vec<Vec<(ColdKey, String)>>, String> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(halves)
                .map(|(client, half)| {
                    scope.spawn(move || {
                        half.iter()
                            .map(|&(kind, seed)| {
                                let line = client
                                    .call(&form_request(kind, seed))
                                    .map_err(|e| e.to_string())?;
                                match decode::<Response>(&line) {
                                    Ok(Response::Form { .. }) => Ok(((kind.as_str(), seed), line)),
                                    other => {
                                        Err(format!("warm-up form: unexpected answer {other:?}"))
                                    }
                                }
                            })
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("warm-up thread panicked")).collect()
        });
        let cold: ColdLines = warmed?.into_iter().flatten().collect();
        let [a, b] = clients;
        Ok((daemon, (pool, a, b, cold)))
    };
    let (daemon, (pool, mut single, mut batcher, cold), mut setup_times) =
        set_up(p.scale.setups, &mut once)?;
    let shape = shape(&pool);
    let before = daemon.handle.metrics_snapshot();

    let done = AtomicBool::new(false);
    let seconds = Duration::from_secs_f64(p.seconds);
    let stream_seed = p.seed;
    let cold = &cold;
    let started = Instant::now();
    let mut clock = SliceClock::new(started, p.seconds)?;
    let (singles, batches, elapsed) = std::thread::scope(|scope| {
        let rvof = &rvof;
        let tvof = &tvof;
        let done = &done;
        let batcher = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(stream_seed ^ 0x9e37_79b9_7f4a_7c15);
            let mut served: Vec<(MechanismKind, u64)> = Vec::new();
            let mut done_at = Vec::new();
            let mut tally = Tally::default();
            while !done.load(Ordering::SeqCst) {
                let tvof_share = tvof.len() as f64 / (tvof.len() + rvof.len()) as f64;
                let (kind, pool_seeds) = if rng.gen_bool(tvof_share) {
                    (MechanismKind::Tvof, tvof)
                } else {
                    (MechanismKind::Rvof, rvof)
                };
                let seeds: Vec<u64> = (0..p.scale.batch)
                    .map(|_| pool_seeds[rng.gen_range(0..pool_seeds.len())])
                    .collect();
                let request = encode(&Request::FormBatch {
                    seeds: seeds.clone(),
                    mechanism: kind,
                    deadline_ms: None,
                });
                match batcher.call_stream(&request) {
                    Ok(lines) => {
                        check_batch(&lines, kind, &seeds, cold, &mut served, &mut tally);
                        done_at.resize(served.len(), started.elapsed().as_secs_f64());
                    }
                    Err(e) => {
                        tally.fail(format!("form_batch: {e}"));
                        break;
                    }
                }
            }
            (served, done_at, tally)
        });
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let mut served: Vec<(MechanismKind, u64)> = Vec::new();
        let mut ops = Ops::default();
        let mut tally = Tally::default();
        let mut rss = Rss::default();
        while started.elapsed() < seconds || served.len() < MIN_SAMPLES {
            rss.sample();
            clock.tick();
            let (kind, seed) = warm[rng.gen_range(0..warm.len())];
            let sent = Instant::now();
            match single.call(&form_request(kind, seed)) {
                Ok(line) => {
                    ops.latencies_ms.push(ms_since(sent));
                    ops.latency_done_at.push(started.elapsed().as_secs_f64());
                    if cold.get(&(kind.as_str(), seed)) == Some(&line) {
                        tally.ok();
                    } else {
                        tally.fail(format!(
                            "{} seed {seed}: hot line differs from cold",
                            kind.as_str()
                        ));
                    }
                    served.push((kind, seed));
                }
                Err(e) => {
                    tally.fail(format!("form: {e}"));
                    break;
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let batches = batcher.join().expect("batch thread panicked");
        (ops.slices, ops.whole) = clock.finish();
        ((served, ops, tally, rss), batches, elapsed)
    });
    let after = daemon.handle.metrics_snapshot();
    daemon.shutdown();

    let (single_served, mut ops, mut tally, rss) = singles;
    let (batch_served, batch_done_at, batch_tally) = batches;
    // Seeds a batch finished after the single-form client stopped fall
    // outside the timed phase.
    ops.done_at = ops.latency_done_at.clone();
    ops.done_at.extend(batch_done_at.into_iter().filter(|&t| t <= elapsed));
    // Output check, outside the timed phase: every cold line (which
    // every hot answer was compared with) equals an uncached
    // in-process run of its seed.
    let scenario = served_scenario(&pool)?;
    for &(kind, seed) in &warm {
        if trace::form_line(&scenario, kind, seed, &mut NoCache).as_ref()
            != Ok(&cold[&(kind.as_str(), seed)])
        {
            tally.flag(format!(
                "{} seed {seed}: cold line differs from an uncached run",
                kind.as_str()
            ));
        }
    }
    setup_times.extend(set_up_again(p.scale.setups, &mut once)?);
    let delta = DaemonDelta::between(&before, &after);
    if delta.cache_misses > 0 {
        tally.flag(format!(
            "{} cache misses in the timed phase: every round must be a hit",
            delta.cache_misses
        ));
    }
    let (end_to_end, client) = phase_metrics(&setup_times, &ops, None, &rss)?;
    let layers = if p.trace {
        // Rebuild the warmed cache in-process, then replay the served
        // seeds through it, untraced and traced.
        let mut cache = SharedSolveCache::new(capacity);
        for &(kind, seed) in &warm {
            trace::form_line(&scenario, kind, seed, &mut cache)?;
        }
        // Every served line already equals its cold line (checked as
        // it arrived), so the replay compares against the cold lines.
        let all: Vec<ServedForm> = single_served
            .iter()
            .chain(&batch_served)
            .map(|&(kind, seed)| ServedForm { kind, seed, line: &cold[&(kind.as_str(), seed)] })
            .collect();
        let replay =
            trace::replay_forms(&scenario, &all[..all.len().min(REPLAY_LIMIT)], &mut cache, true);
        for problem in &replay.mismatches {
            tally.flag(problem.clone());
        }
        with_client(form_layers(&replay, stats::mean(&ops.latencies_ms), &delta), &client)
    } else {
        Vec::new()
    };
    tally.absorb(batch_tally);
    Ok(RunReport {
        workload: Workload::FormHot,
        end_to_end,
        client,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        notes: vec![
            format!(
                "pool {}x{} (generator seed {HOT_POOL_SEED}), warmed {} seeds into {} of {capacity} cache entries",
                shape.0,
                shape.1,
                warm.len(),
                before.cache_entries
            ),
            format!("timed phase: {} cache hits, {} misses", delta.cache_hits, delta.cache_misses),
        ],
    })
}

/// `(mechanism, seed)` of a warmed formation.
type ColdKey = (&'static str, u64);

/// Cold answers by `(mechanism, seed)`.
type ColdLines = HashMap<ColdKey, String>;

/// Check one `form_batch` answer: a line per seed, each equal to that
/// seed's cold line, then a `batch_end` counting them.
fn check_batch(
    lines: &[String],
    kind: MechanismKind,
    seeds: &[u64],
    cold: &ColdLines,
    served: &mut Vec<(MechanismKind, u64)>,
    tally: &mut Tally,
) {
    let ended = matches!(
        lines.last().map(|l| decode::<Response>(l)),
        Some(Ok(Response::BatchEnd { served, .. })) if served == seeds.len() as u64
    );
    if !ended || lines.len() != seeds.len() + 1 {
        for _ in seeds {
            tally.fail(format!("form_batch: malformed stream of {} lines", lines.len()));
        }
        return;
    }
    for (&seed, line) in seeds.iter().zip(lines) {
        if cold.get(&(kind.as_str(), seed)) == Some(line) {
            tally.ok();
        } else {
            tally
                .fail(format!("{} seed {seed}: batched hot line differs from cold", kind.as_str()));
        }
        served.push((kind, seed));
    }
}

// -------------------------------------------------------------- trust_write

fn trust_write(p: &Params) -> Result<RunReport, String> {
    let mut once = || {
        let pool = pool(p.scale.gsps, p.scale.trust_tasks, TRUST_POOL_SEED)?;
        let daemon = Daemon::spawn(&pool, ServerConfig::default(), true)?;
        let (writer, reader) = connect_pair(&daemon, shape(&pool))?;
        Ok((daemon, (pool, writer, reader)))
    };
    let (daemon, (pool, mut writer, mut reader), mut setup_times) =
        set_up(p.scale.setups, &mut once)?;
    let shape = shape(&pool);
    let gsps = shape.0;
    let store_before =
        daemon.handle.store_stats().ok_or("durable daemon reports no store stats")?;

    let mut rng = StdRng::seed_from_u64(p.seed);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let mut clock = SliceClock::new(started, p.seconds)?;
    let (acked, ops, mut tally, reads, rss) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| Reads::read_loop(&mut reader, &done, shape));
        let mut acked: Vec<Request> = Vec::new();
        let mut ops = Ops::default();
        let mut tally = Tally::default();
        let mut rss = Rss::default();
        let deadline = started + Duration::from_secs_f64(p.seconds);
        while Instant::now() < deadline || acked.len() < MIN_SAMPLES {
            rss.sample();
            clock.tick();
            let mutation = next_mutation(&mut rng, gsps, acked.len() as u64);
            let sent = Instant::now();
            let answer = writer.call(&encode(&mutation));
            let latency = ms_since(sent);
            match answer.as_deref().map(decode::<Response>) {
                // One writer: acks must come back on consecutive epochs.
                Ok(Ok(Response::Ack { epoch, .. })) if epoch == acked.len() as u64 + 1 => {
                    tally.ok();
                    ops.latencies_ms.push(latency);
                    ops.latency_done_at.push(started.elapsed().as_secs_f64());
                    acked.push(mutation);
                }
                other => {
                    tally.fail(format!("{}: unexpected answer {other:?}", mutation.op()));
                    break;
                }
            }
        }
        done.store(true, Ordering::SeqCst);
        (ops.slices, ops.whole) = clock.finish();
        ops.done_at = ops.latency_done_at.clone();
        let reads = reader.join().expect("reader thread panicked");
        (acked, ops, tally, reads, rss)
    });
    let final_view =
        match writer.call(&encode(&Request::Registry)).as_deref().map(decode::<Response>) {
            Ok(Ok(Response::Registry { snapshot, .. })) => Some(snapshot),
            _ => None,
        };
    let delta = DaemonDelta {
        store: daemon.handle.store_stats().map(|after| (store_before, after)),
        ..DaemonDelta::default()
    };
    daemon.shutdown();

    // Output check: every reputation vector the reader saw, and the
    // final one, equals a serial replay of the acknowledged mutations
    // at that epoch, bit for bit.
    let final_epoch = acked.len() as u64;
    let mut want: BTreeSet<u64> = reads.seen.iter().map(|(e, _)| *e).collect();
    want.insert(final_epoch);
    let replayed = serial_replay(&pool, &acked, &want)?;
    let served =
        reads.seen.iter().cloned().chain(final_view.map(|v| (v.epoch, bits(&v.reputation))));
    for (epoch, reputation) in served {
        if replayed.get(&epoch) != Some(&reputation) {
            tally
                .flag(format!("reputation served at epoch {epoch} differs from the serial replay"));
        }
    }
    setup_times.extend(set_up_again(p.scale.setups, &mut once)?);
    let (end_to_end, client) = phase_metrics(&setup_times, &ops, Some(&reads), &rss)?;
    let layers = if p.trace {
        let prefix = &acked[..acked.len().min(REPLAY_LIMIT)];
        let traced = replay_durable(&pool, prefix)?;
        let at = prefix.len() as u64;
        let serial = serial_replay(&pool, prefix, &BTreeSet::from([at]))?;
        if serial.get(&at) != Some(&bits(&traced.reputation)) {
            tally.flag("durable replay diverged from the serial replay".to_string());
        }
        with_client(trust_layers(&traced, stats::mean(&ops.latencies_ms), &delta), &client)
    } else {
        Vec::new()
    };
    tally.absorb(reads.tally);
    let store_note = delta.store.map_or(String::new(), |(b, a)| {
        format!(
            ", {} compactions, {} fsyncs in the timed phase",
            a.compactions - b.compactions,
            a.fsyncs - b.fsyncs
        )
    });
    Ok(RunReport {
        workload: Workload::TrustWrite,
        end_to_end,
        client,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        notes: vec![format!(
            "pool {}x{} (generator seed {TRUST_POOL_SEED}), durable, {} acked mutations{store_note}",
            shape.0,
            shape.1,
            acked.len()
        )],
    })
}

/// The `i`-th mutation of the stream: even `i` a direct-trust report,
/// odd `i` a verified execution receipt with two witnesses.
fn next_mutation(rng: &mut StdRng, gsps: usize, i: u64) -> Request {
    let subject = rng.gen_range(0..gsps);
    let other = |rng: &mut StdRng, not: &[usize]| loop {
        let g = rng.gen_range(0..gsps);
        if !not.contains(&g) {
            break g;
        }
    };
    if i.is_multiple_of(2) {
        let to = other(rng, &[subject]);
        Request::ReportTrust { from: subject, to, value: rng.gen_range(0.05..1.0) }
    } else {
        let w1 = other(rng, &[subject]);
        let w2 = other(rng, &[subject, w1]);
        let receipt = ExecutionReceipt::new(
            (i / 2) as usize,
            subject,
            rng.gen_bool(0.8),
            rng.gen_range(1.0..10.0),
            vec![w1, w2],
        );
        Request::ReportReceipt { receipt }
    }
}

/// Replay `acked` serially into a fresh registry over `pool` and return
/// the reputation vector (as bits) at each epoch of `epochs`.
fn serial_replay(
    pool: &FormationScenario,
    acked: &[Request],
    epochs: &BTreeSet<u64>,
) -> Result<BTreeMap<u64, Vec<u64>>, String> {
    let mut registry = GspRegistry::from_scenario(pool, FormationConfig::default().reputation)
        .map_err(|e| e.to_string())?;
    let mut at = BTreeMap::new();
    if epochs.contains(&0) {
        at.insert(0, bits(registry.reputation()));
    }
    for mutation in acked {
        let epoch = trace::apply_bare(&mut registry, mutation).map_err(|e| e.to_string())?;
        if epochs.contains(&epoch) {
            at.insert(epoch, bits(registry.reputation()));
        }
    }
    Ok(at)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn replay_durable(
    pool: &FormationScenario,
    acked: &[Request],
) -> Result<trace::TrustReplay, String> {
    let dirs = (fresh_data_dir(), fresh_data_dir());
    let replay = trace::replay_mutations(pool, acked, (&dirs.0, &dirs.1));
    let _ = std::fs::remove_dir_all(&dirs.0);
    let _ = std::fs::remove_dir_all(&dirs.1);
    replay
}

/// Per-layer metrics of the mutation workload, per acked mutation.
fn trust_layers(
    traced: &trace::TrustReplay,
    e2e_mean_ms: f64,
    daemon: &DaemonDelta,
) -> Vec<Metric> {
    let n = traced.mutations.max(1) as f64;
    let s = &traced.spans;
    let per_op_ms = |secs: f64| secs * 1e3 / n;
    let store_total = s.total("store.append") + s.total("store.fsync") + s.total("store.compact");
    let own = s.total("service.registry_apply")
        + s.total("service.snapshot_build")
        + s.total("service.encode")
        + s.total("service.decode")
        + store_total;
    let samples = traced.mutations;
    let mut m = zero_layers(samples);
    let mut set = |name: &'static str, value: f64, samples: u64| {
        if let Some(slot) = m.iter_mut().find(|x| x.name == name) {
            *slot = Metric::new(name, value, samples);
        }
    };
    let power_calls = s.count("trust.power");
    set("trust.power_us", s.mean("trust.power") * 1e6, power_calls);
    set(
        "trust.power_iterations",
        if power_calls == 0 { 0.0 } else { traced.power_iterations as f64 / power_calls as f64 },
        power_calls,
    );
    set("trust.self_ms", per_op_ms(s.total("trust.power")), samples);
    set("service.encode_us", s.total("service.encode") * 1e6 / n, samples);
    set("service.decode_us", s.total("service.decode") * 1e6 / n, samples);
    set("service.response_bytes", traced.bytes as f64 / n, samples);
    set("service.registry_apply_us", s.mean("service.registry_apply") * 1e6, samples);
    set("service.snapshot_build_us", s.mean("service.snapshot_build") * 1e6, samples);
    set("service.self_ms", e2e_mean_ms - per_op_ms(own), samples);
    set("store.append_us", s.mean("store.append") * 1e6, s.count("store.append"));
    set("store.fsync_ms", s.mean("store.fsync") * 1e3, s.count("store.fsync"));
    set("store.compact_ms", s.mean("store.compact") * 1e3, traced.compactions);
    set("store.self_ms", per_op_ms(store_total), samples);
    if let Some((before, after)) = daemon.store {
        let journal = after.journal_bytes_written - before.journal_bytes_written;
        let snapshots = after.snapshot_bytes_written - before.snapshot_bytes_written;
        let acked = after.events_appended - before.events_appended;
        set("store.fsyncs", (after.fsyncs - before.fsyncs) as f64, acked);
        set("store.compactions", (after.compactions - before.compactions) as f64, acked);
        set("store.journal_bytes", journal as f64, acked);
        set("store.snapshot_bytes", snapshots as f64, acked);
        set("store.bytes_per_mutation", (journal + snapshots) as f64 / acked.max(1) as f64, acked);
    }
    set("trace.overhead_us", (traced.traced_secs - traced.untraced_secs) * 1e6 / n, samples);
    m
}
