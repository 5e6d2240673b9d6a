//! Daemon load benchmark: throughput, latency and cache hit rate vs.
//! concurrent client count, plus an admission-control phase proving
//! the bounded queue sheds load with typed `Busy` responses. Emits
//! `BENCH_service.json`.
//!
//! Phase 1 spins up an in-process [`ServerHandle`] and sweeps client
//! counts (1..=8+). Each client owns one TCP connection and issues
//! `form` requests over the seed list twice, so later rounds replay
//! the solve cache. Phase 2 restarts the daemon with one worker and a
//! queue bound of one, parks the worker on a slow ping, and verifies
//! that surplus requests are rejected with `Busy` rather than queued
//! or deadlocked. The deadline phase points `form` requests carrying a
//! real `deadline_ms` at an instance far past the exact frontier and
//! gates p99 client-observed service time at deadline + margin — the
//! anytime budget, not the solve, decides when the answer comes back.

use std::time::Instant;

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::FormationScenario;
use gridvo_service::protocol::{MechanismKind, Response};
use gridvo_service::{ServerConfig, ServerHandle, ServiceClient};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Seed-list passes per client; ≥ 2 so the cache gets replayed.
const PASSES: usize = 2;

#[derive(Debug, Serialize)]
struct SweepPoint {
    clients: usize,
    requests: u64,
    wall_seconds: f64,
    throughput_rps: f64,
    mean_latency_ms: f64,
    max_latency_ms: f64,
    cache_hit_rate: f64,
    busy_rejections: u64,
}

#[derive(Debug, Serialize)]
struct DeadlineResult {
    gsps: usize,
    tasks: usize,
    deadline_ms: u64,
    requests: u64,
    formed: u64,
    shed: u64,
    truncated: u64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

#[derive(Debug, Serialize)]
struct ShedResult {
    attempts: u64,
    busy: u64,
    served: u64,
}

/// One batched-vs-sequential trial pair.
#[derive(Debug, Serialize)]
struct BatchPair {
    /// Whether the batched side ran first in this pair.
    batched_first: bool,
    sequential_rps: f64,
    batch_rps: f64,
    /// `batch_rps / sequential_rps`.
    ratio: f64,
}

#[derive(Debug, Serialize)]
struct BatchResult {
    clients: usize,
    /// Seeds formed per side of one pair.
    formed_seeds: u64,
    pairs: Vec<BatchPair>,
    /// Median of the per-pair ratios: the gated figure.
    median_ratio: f64,
}

#[derive(Debug, Serialize)]
struct ServiceBench {
    gsps: usize,
    tasks: usize,
    passes: usize,
    seeds: Vec<u64>,
    sweep: Vec<SweepPoint>,
    shed: ShedResult,
    batch: BatchResult,
    deadline: DeadlineResult,
}

fn scenario(args: &BenchArgs) -> FormationScenario {
    let tasks = if args.paper { 64 } else { 24 };
    let cfg = TableI { gsps: 6, task_sizes: vec![tasks], ..TableI::small() };
    let mut rng = StdRng::seed_from_u64(7);
    match ScenarioGenerator::new(cfg).scenario(tasks, &mut rng) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scenario generation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One sweep point: `clients` threads, each forming over every seed
/// `PASSES` times against a fresh daemon.
fn run_point(scenario: &FormationScenario, clients: usize, seeds: &[u64]) -> SweepPoint {
    let config = ServerConfig { workers: 4, queue_capacity: 256, ..ServerConfig::default() };
    let handle = ServerHandle::spawn(scenario, config).expect("daemon spawns in-process");
    let addr = handle.addr().to_string();

    let started = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client =
                        ServiceClient::connect(addr.as_str()).expect("client connects");
                    let mut lat = Vec::with_capacity(seeds.len() * PASSES);
                    for _ in 0..PASSES {
                        for &seed in seeds {
                            let t0 = Instant::now();
                            let resp = client
                                .form(seed, MechanismKind::Tvof, None)
                                .expect("form request round-trips");
                            assert!(
                                matches!(resp, Response::Form { .. }),
                                "unexpected response kind {:?}",
                                resp.kind()
                            );
                            lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    lat
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread survives")).collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let metrics = handle.metrics_snapshot();
    handle.shutdown();

    let requests = latencies.len() as u64;
    SweepPoint {
        clients,
        requests,
        wall_seconds,
        throughput_rps: requests as f64 / wall_seconds.max(1e-9),
        mean_latency_ms: latencies.iter().sum::<f64>() / requests.max(1) as f64,
        max_latency_ms: latencies.iter().fold(0.0, |a: f64, &b| a.max(b)),
        cache_hit_rate: metrics.cache_hit_rate,
        busy_rejections: metrics.busy_rejections,
    }
}

/// Seed-list passes per client in the batch phase. The cache is
/// warmed before the timer starts, so every measured pass is
/// cache-hit traffic — the regime where per-request handoff and
/// transport (what batching amortizes) are the signal rather than
/// noise under branch-and-bound solve variance.
const BATCH_PASSES: usize = 100;

/// Batched-vs-sequential trial pairs in the batch phase. One pair's
/// ratio swings with host noise (0.8x-2.2x observed on a 2-core
/// host), so the gate takes the median over several pairs, alternating
/// which side runs first so drift over the phase favours neither.
const BATCH_PAIRS: usize = 9;

/// Batch phase: at the top client count, the same per-client seed
/// workload issued as `form_batch` requests (one snapshot pin, one
/// round trip per pass) must form seeds at least as fast as the
/// sequential `form` loop — the batch API is a pure win or it is a
/// regression. Each side of each of `BATCH_PAIRS` pairs runs
/// `BATCH_PASSES` passes against one pre-warmed daemon; the gate is
/// the median per-pair ratio.
fn run_batch(scenario: &FormationScenario, clients: usize, seeds: &[u64]) -> BatchResult {
    let config = ServerConfig { workers: 4, queue_capacity: 256, ..ServerConfig::default() };
    let handle = ServerHandle::spawn(scenario, config).expect("daemon spawns in-process");
    let addr = handle.addr().to_string();

    // Untimed warm-up: populate the solve cache so the measured passes
    // compare dispatch paths, not solver luck.
    let mut warmer = ServiceClient::connect(addr.as_str()).expect("warmer connects");
    for &seed in seeds {
        let resp = warmer.form(seed, MechanismKind::Tvof, None).expect("warm-up form round-trips");
        assert!(matches!(resp, Response::Form { .. }));
    }
    drop(warmer);

    let measure = |batched: bool| -> f64 {
        let started = Instant::now();
        let formed: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let mut client =
                            ServiceClient::connect(addr.as_str()).expect("client connects");
                        let mut formed = 0u64;
                        for _ in 0..BATCH_PASSES {
                            if batched {
                                let responses = client
                                    .form_batch(seeds, MechanismKind::Tvof, None)
                                    .expect("batch round-trips");
                                let (tail, forms) =
                                    responses.split_last().expect("batch terminated");
                                assert!(
                                    matches!(tail, Response::BatchEnd { .. }),
                                    "unexpected terminator kind {:?}",
                                    tail.kind()
                                );
                                assert!(forms.iter().all(|r| matches!(r, Response::Form { .. })));
                                formed += forms.len() as u64;
                            } else {
                                for &seed in seeds {
                                    let resp = client
                                        .form(seed, MechanismKind::Tvof, None)
                                        .expect("form round-trips");
                                    assert!(matches!(resp, Response::Form { .. }));
                                    formed += 1;
                                }
                            }
                        }
                        formed
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread survives")).sum()
        });
        let wall_seconds = started.elapsed().as_secs_f64();
        formed as f64 / wall_seconds.max(1e-9)
    };

    let pairs: Vec<BatchPair> = (0..BATCH_PAIRS)
        .map(|i| {
            let batched_first = i % 2 == 1;
            let (first, second) = (measure(batched_first), measure(!batched_first));
            let (batch_rps, sequential_rps) =
                if batched_first { (first, second) } else { (second, first) };
            let ratio = batch_rps / sequential_rps.max(1e-9);
            BatchPair { batched_first, sequential_rps, batch_rps, ratio }
        })
        .collect();
    handle.shutdown();
    let mut ratios: Vec<f64> = pairs.iter().map(|p| p.ratio).collect();
    ratios.sort_by(f64::total_cmp);
    BatchResult {
        clients,
        formed_seeds: (clients * BATCH_PASSES * seeds.len()) as u64,
        median_ratio: ratios[ratios.len() / 2],
        pairs,
    }
}

/// Deadline the anytime phase serves under, and the service-time
/// margin the gate allows on top of it. The margin covers everything
/// outside the budgeted solve: queue handoff, the between-round
/// bookkeeping of the eviction loop (heuristic seeding, reputation
/// power iterations), response encoding and transport.
const DEADLINE_MS: u64 = 500;
const DEADLINE_MARGIN_MS: f64 = 50.0;

/// Deadline phase: requests carrying `deadline_ms` against an instance
/// whose exact solve is unbounded in practice. Every response must
/// come back by deadline + margin — either an anytime `Form` (usually
/// `truncated`, with a gap) or a `DeadlineExceeded` shed.
fn run_deadline(args: &BenchArgs) -> DeadlineResult {
    let (gsps, tasks) = if args.paper { (64, 128) } else { (32, 64) };
    let cfg = TableI { gsps, task_sizes: vec![tasks], trace_jobs: 2_000, ..TableI::default() };
    let mut rng = StdRng::seed_from_u64(0x0DEAD);
    let scenario = match ScenarioGenerator::new(cfg).scenario(tasks, &mut rng) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("deadline-phase scenario generation failed: {e}");
            std::process::exit(1);
        }
    };
    let handle =
        ServerHandle::spawn(&scenario, ServerConfig::default()).expect("daemon spawns in-process");
    let mut client = ServiceClient::connect(handle.addr()).expect("client connects");

    // Distinct seeds per pass: deadline-truncated results are never
    // cached, so every request is a genuine budgeted solve.
    let mut latencies = Vec::new();
    let (mut formed, mut shed, mut truncated) = (0u64, 0u64, 0u64);
    for pass in 0..4u64 {
        for &seed in &args.seeds {
            let t0 = Instant::now();
            let resp = client
                .form(seed ^ (pass << 32), MechanismKind::Tvof, Some(DEADLINE_MS))
                .expect("deadline form round-trips");
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            match resp {
                Response::Form { truncated: t, .. } => {
                    formed += 1;
                    if t == Some(true) {
                        truncated += 1;
                    }
                }
                Response::DeadlineExceeded => shed += 1,
                other => panic!("unexpected response kind {:?}", other.kind()),
            }
        }
    }
    handle.shutdown();

    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies[((latencies.len() as f64 * q).ceil() as usize).max(1) - 1];
    DeadlineResult {
        gsps,
        tasks,
        deadline_ms: DEADLINE_MS,
        requests: latencies.len() as u64,
        formed,
        shed,
        truncated,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        max_ms: *latencies.last().unwrap(),
    }
}

/// Admission-control phase: one worker, queue bound of one. A slow
/// ping parks the worker, a second fills the queue; everything after
/// that must be shed with `Busy`.
fn run_shed(scenario: &FormationScenario) -> ShedResult {
    let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
    let handle = ServerHandle::spawn(scenario, config).expect("daemon spawns in-process");
    let addr = handle.addr().to_string();

    let (attempts, busy, served) = std::thread::scope(|scope| {
        let holder = scope.spawn({
            let addr = addr.clone();
            move || {
                let mut c = ServiceClient::connect(addr.as_str()).expect("holder connects");
                c.ping(600).expect("holder ping round-trips")
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(150));
        let filler = scope.spawn({
            let addr = addr.clone();
            move || {
                let mut c = ServiceClient::connect(addr.as_str()).expect("filler connects");
                c.ping(0).expect("filler ping round-trips")
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(100));

        // Worker parked, queue full: these must all be shed, fast.
        let mut busy = 0u64;
        let mut served = 0u64;
        let mut client = ServiceClient::connect(addr.as_str()).expect("prober connects");
        let attempts = 8u64;
        for _ in 0..attempts {
            match client.ping(0).expect("probe ping round-trips") {
                Response::Busy => busy += 1,
                Response::Pong => served += 1,
                other => panic!("unexpected response kind {:?}", other.kind()),
            }
        }
        for h in [holder, filler] {
            let resp = h.join().expect("held client survives");
            assert!(matches!(resp, Response::Pong), "held ping was not served");
        }
        (attempts, busy, served)
    });
    handle.shutdown();
    ShedResult { attempts, busy, served }
}

fn main() {
    let args = BenchArgs::from_env();
    let scenario = scenario(&args);

    let sweep: Vec<SweepPoint> =
        CLIENT_COUNTS.iter().map(|&n| run_point(&scenario, n, &args.seeds)).collect();

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                p.clients.to_string(),
                p.requests.to_string(),
                format!("{:.1}", p.throughput_rps),
                format!("{:.2}", p.mean_latency_ms),
                format!("{:.2}", p.max_latency_ms),
                format!("{:.2}", p.cache_hit_rate),
                p.busy_rejections.to_string(),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(
            &["clients", "requests", "req/s", "mean ms", "max ms", "cache hit", "busy"],
            &rows
        )
    );

    let shed = run_shed(&scenario);
    eprintln!("admission control: {}/{} probes shed with Busy", shed.busy, shed.attempts);
    if shed.busy == 0 {
        eprintln!("error: bounded queue never shed load — admission control is broken");
        std::process::exit(1);
    }

    let top_clients = *CLIENT_COUNTS.last().unwrap();
    let batch = run_batch(&scenario, top_clients, &args.seeds);
    for p in &batch.pairs {
        eprintln!(
            "batch pair at {} clients ({} first): {:.1} seeds/s batched vs {:.1} req/s \
             sequential ({:.2}x)",
            batch.clients,
            if p.batched_first { "batched" } else { "sequential" },
            p.batch_rps,
            p.sequential_rps,
            p.ratio
        );
    }
    eprintln!("batch phase median ratio over {} pairs: {:.2}x", BATCH_PAIRS, batch.median_ratio);
    let mut gate_failed = batch.median_ratio < 1.0;
    if gate_failed {
        eprintln!("error: median form_batch throughput fell below sequential form throughput");
    }

    let deadline = run_deadline(&args);
    eprintln!(
        "deadline phase ({} GSPs x {} tasks, {} ms budget): {} requests, {} formed \
         ({} truncated), {} shed; p50 {:.0} ms, p99 {:.0} ms",
        deadline.gsps,
        deadline.tasks,
        deadline.deadline_ms,
        deadline.requests,
        deadline.formed,
        deadline.truncated,
        deadline.shed,
        deadline.p50_ms,
        deadline.p99_ms
    );
    if deadline.p99_ms > deadline.deadline_ms as f64 + DEADLINE_MARGIN_MS {
        eprintln!(
            "error: p99 service time {:.0} ms exceeds deadline {} ms + {:.0} ms margin",
            deadline.p99_ms, deadline.deadline_ms, DEADLINE_MARGIN_MS
        );
        gate_failed = true;
    }
    if deadline.formed == 0 {
        eprintln!("error: deadline phase never formed a VO — shedding everything is not anytime");
        gate_failed = true;
    }

    let bench = ServiceBench {
        gsps: scenario.gsp_count(),
        tasks: scenario.task_count(),
        passes: PASSES,
        seeds: args.seeds.clone(),
        sweep,
        shed,
        batch,
        deadline,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    args.write_artifact("BENCH_service.json", &json).unwrap();

    // The artifact is written either way (the numbers are the
    // evidence); only then does the gate decide the exit code.
    if gate_failed {
        std::process::exit(1);
    }
}
