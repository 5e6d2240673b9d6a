//! The traced run: in-process replays of a workload's served requests
//! through the library's public entry points, with a span around each
//! call into a layer. Nothing inside the program is instrumented; the
//! spans live here, in memory, and are summed when the replay ends.
//!
//! Every request is replayed twice in a row, untraced (the same calls,
//! no clock reads) and then traced, so the tracing overhead is the
//! difference of the two passes' wall times and drift of the host's
//! speed cancels out. Both passes check what they produce against what
//! the daemon served.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::solve_cache::{solve_key, CachedSolve, SolveCache};
use gridvo_core::{FormationOutcome, FormationScenario};
use gridvo_service::protocol::{decode, encode, MechanismKind, Request, Response};
use gridvo_service::{
    DurableRegistry, GspRegistry, PersistConfig, ServerConfig, ServiceError, ShardedRegistry,
    Touched,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Span totals by name: `(seconds, calls)`.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    /// A recorder; when `on` is false, [`Spans::time`] only runs the
    /// closure.
    pub fn new(on: bool) -> Self {
        Spans { on, totals: BTreeMap::new() }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    fn add(&mut self, name: &'static str, seconds: f64) {
        let entry = self.totals.entry(name).or_insert((0.0, 0));
        entry.0 += seconds;
        entry.1 += 1;
    }

    /// Total seconds spent in `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0)
    }

    /// Calls recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Mean seconds per call of `name`; 0 when never called.
    pub fn mean(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total(name) / n as f64,
        }
    }
}

/// What the wrapping cache saw.
#[derive(Debug, Default, Clone)]
pub struct CacheTrace {
    /// Lookups made by the mechanism.
    pub lookups: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Seconds inside the inner cache's `lookup`.
    pub lookup_secs: f64,
    /// Seconds inside the inner cache's `store`.
    pub store_secs: f64,
    /// Solves: misses followed by their store.
    pub solves: u64,
    /// Seconds from a miss's `lookup` returning to its `store`.
    pub solve_secs: f64,
    /// Branch-and-bound nodes the solves expanded.
    pub nodes: u64,
    /// Solves that returned an unproven incumbent.
    pub capped: u64,
    /// Sum of the capped solves' optimality gaps.
    pub gap_sum: f64,
}

/// A [`SolveCache`] wrapper timing the inner cache and the solves
/// between a miss and its store.
struct TracingCache<'a> {
    inner: &'a mut dyn SolveCache,
    pending: Option<(u64, Instant)>,
    trace: CacheTrace,
}

impl SolveCache for TracingCache<'_> {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        let started = Instant::now();
        let hit = self.inner.lookup(key);
        self.trace.lookup_secs += started.elapsed().as_secs_f64();
        self.trace.lookups += 1;
        match hit {
            Some(_) => self.trace.hits += 1,
            None => self.pending = Some((key, Instant::now())),
        }
        hit
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        if let Some((pending, since)) = self.pending.take() {
            if pending == key {
                self.trace.solve_secs += since.elapsed().as_secs_f64();
                self.trace.solves += 1;
                self.trace.nodes += value.nodes;
                if let Some((_, _, false)) = value.solved {
                    self.trace.capped += 1;
                    self.trace.gap_sum += value.gap.unwrap_or(0.0);
                }
            }
        }
        let started = Instant::now();
        self.inner.store(key, value);
        self.trace.store_secs += started.elapsed().as_secs_f64();
    }
}

/// The mechanism a daemon worker runs for `kind`.
pub fn mechanism(kind: MechanismKind) -> Mechanism {
    match kind {
        MechanismKind::Tvof => Mechanism::tvof(FormationConfig::default()),
        MechanismKind::Rvof => Mechanism::rvof(FormationConfig::default()),
    }
}

/// The wire line a daemon serves for one `form` (timings zeroed, as
/// the server canonicalizes them), computed in-process.
pub fn form_line(
    scenario: &FormationScenario,
    kind: MechanismKind,
    seed: u64,
    cache: &mut dyn SolveCache,
) -> Result<String, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcome =
        mechanism(kind).run_cached(scenario, &mut rng, cache).map_err(|e| e.to_string())?;
    outcome.zero_timings();
    Ok(encode(&Response::form_from(outcome)))
}

/// One served formation to replay.
#[derive(Debug, Clone, Copy)]
pub struct ServedForm<'a> {
    /// Mechanism requested.
    pub kind: MechanismKind,
    /// Seed requested.
    pub seed: u64,
    /// The exact line the daemon answered.
    pub line: &'a str,
}

/// Totals of one formation replay.
#[derive(Debug, Default)]
pub struct FormReplay {
    /// Span totals of the traced pass.
    pub spans: Spans,
    /// The wrapping cache's counters (traced pass).
    pub cache: CacheTrace,
    /// Formations replayed.
    pub forms: u64,
    /// Algorithm-1 rounds over all formations.
    pub rounds: u64,
    /// Feasible rounds whose IP was proven optimal.
    pub proven: u64,
    /// Feasible rounds.
    pub feasible: u64,
    /// Power-method iterations over the replayed reputation calls.
    pub power_iterations: u64,
    /// Served response bytes.
    pub bytes: u64,
    /// Wall seconds of the untraced pass.
    pub untraced_secs: f64,
    /// Wall seconds of the traced pass, without the per-round calls it
    /// re-runs on their own.
    pub traced_secs: f64,
    /// Served lines that differ from the in-process line.
    pub mismatches: Vec<String>,
}

/// One `form` the way the daemon and its client handle it: the client
/// encodes the request and the server decodes it, a worker runs the
/// mechanism and canonicalizes the outcome, the server encodes the
/// answer and the client decodes the line it received (`served`).
fn serve_form(
    scenario: &FormationScenario,
    form: &ServedForm<'_>,
    cache: &mut dyn SolveCache,
    spans: &mut Spans,
) -> Result<(FormationOutcome, String), String> {
    let request =
        Request::Form { seed: form.seed, mechanism: form.kind, deadline_ms: None, app: None };
    let wire = spans.time("service.encode", || encode(&request));
    spans.time("service.decode", || decode::<Request>(&wire))?;
    let mut rng = StdRng::seed_from_u64(form.seed);
    let outcome = spans
        .time("core.mechanism", || mechanism(form.kind).run_cached(scenario, &mut rng, cache))
        .map_err(|e| e.to_string())?;
    let mut canonical = outcome.clone();
    canonical.zero_timings();
    let line = spans.time("service.encode", || encode(&Response::form_from(canonical)));
    spans.time("service.decode", || decode::<Response>(form.line))?;
    Ok((outcome, line))
}

/// Replay `served` against `scenario` through `cache`, checking each
/// line against what the daemon answered. With `traced`, each request
/// runs a second time with spans, through a wrapping cache, and each
/// round's cache keying and power method are re-run to time them on
/// their own.
pub fn replay_forms(
    scenario: &FormationScenario,
    served: &[ServedForm<'_>],
    cache: &mut dyn SolveCache,
    traced: bool,
) -> FormReplay {
    let engine = FormationConfig::default().reputation;
    let mut rep = FormReplay { spans: Spans::new(true), ..FormReplay::default() };
    for form in served {
        let started = Instant::now();
        let plain = serve_form(scenario, form, cache, &mut Spans::new(false));
        rep.untraced_secs += started.elapsed().as_secs_f64();
        let outcome = match plain {
            Ok((outcome, line)) if line == form.line => outcome,
            Ok(_) => {
                rep.mismatches.push(format!(
                    "{} seed {}: served line differs from the in-process run",
                    form.kind.as_str(),
                    form.seed
                ));
                continue;
            }
            Err(e) => {
                rep.mismatches.push(format!("{} seed {}: {e}", form.kind.as_str(), form.seed));
                continue;
            }
        };
        rep.forms += 1;
        rep.rounds += outcome.iterations.len() as u64;
        rep.feasible += outcome.feasible_vos.len() as u64;
        rep.proven += outcome.feasible_vos.iter().filter(|v| v.optimal).count() as u64;
        rep.bytes += form.line.len() as u64;
        if !traced {
            continue;
        }
        let started = Instant::now();
        let mut tracing =
            TracingCache { inner: &mut *cache, pending: None, trace: CacheTrace::default() };
        let again = serve_form(scenario, form, &mut tracing, &mut rep.spans);
        rep.traced_secs += started.elapsed().as_secs_f64();
        merge(&mut rep.cache, &tracing.trace);
        if !matches!(&again, Ok((_, line)) if line == form.line) {
            rep.mismatches.push(format!(
                "{} seed {}: traced replay differs from the served line",
                form.kind.as_str(),
                form.seed
            ));
        }
        let mut prev: Option<(&[usize], &[f64])> = None;
        for round in &outcome.iterations {
            if let Some(inst) = scenario.instance_for(&round.members) {
                rep.spans.time("core.solve_key", || std::hint::black_box(solve_key(&inst, None)));
            }
            let start: Option<Vec<f64>> = prev.map(|(members, scores)| {
                round
                    .members
                    .iter()
                    .map(|m| members.iter().position(|x| x == m).map_or(0.0, |i| scores[i]))
                    .collect()
            });
            if let Ok(r) = rep.spans.time("trust.power", || {
                engine.compute_with_start(scenario.trust(), &round.members, start.as_deref())
            }) {
                rep.power_iterations += r.iterations as u64;
            }
            prev = Some((&round.members, &round.reputation_scores));
        }
    }
    rep
}

fn merge(into: &mut CacheTrace, from: &CacheTrace) {
    into.lookups += from.lookups;
    into.hits += from.hits;
    into.lookup_secs += from.lookup_secs;
    into.store_secs += from.store_secs;
    into.solves += from.solves;
    into.solve_secs += from.solve_secs;
    into.nodes += from.nodes;
    into.capped += from.capped;
    into.gap_sum += from.gap_sum;
}

/// The ids a mutation touches, as the daemon stages them.
fn touched(mutation: &Request) -> Vec<usize> {
    match mutation {
        Request::ReportTrust { from, to, .. } => vec![*from, *to],
        Request::ReportReceipt { receipt } => vec![receipt.gsp],
        _ => Vec::new(),
    }
}

fn not_a_mutation(mutation: &Request) -> ServiceError {
    ServiceError::Storage(format!("not a registry mutation: {}", mutation.op()))
}

/// `mutation` (a `report_trust` or `report_receipt`) applied to a bare
/// registry: no journal, no snapshot.
pub fn apply_bare(registry: &mut GspRegistry, mutation: &Request) -> Result<u64, ServiceError> {
    match mutation {
        Request::ReportTrust { from, to, value } => registry.report_trust(*from, *to, *value),
        Request::ReportReceipt { receipt } => registry.report_receipt(receipt),
        other => Err(not_a_mutation(other)),
    }
}

/// `mutation` applied to the daemon's durable registry: the registry
/// update plus the journal append, fsync and compaction it triggers.
fn apply_durable(durable: &mut DurableRegistry, mutation: &Request) -> Result<u64, ServiceError> {
    match mutation {
        Request::ReportTrust { from, to, value } => durable.report_trust(*from, *to, *value),
        Request::ReportReceipt { receipt } => durable.report_receipt(receipt),
        other => Err(not_a_mutation(other)),
    }
}

/// A daemon-side registry replaying mutations: the daemon's own
/// [`ShardedRegistry`] over a durable data directory, plus a bare
/// [`GspRegistry`] fed the same mutations, which times the registry
/// update on its own (the durable one cannot be split open).
struct Replica {
    sharded: ShardedRegistry,
    bare: GspRegistry,
}

impl Replica {
    fn open(pool: &FormationScenario, dir: &Path) -> Result<Replica, String> {
        let engine = || FormationConfig::default().reputation;
        let (sharded, _) = ShardedRegistry::open(
            pool,
            engine(),
            ServerConfig::default().shards,
            Some(&PersistConfig::new(dir)),
        )
        .map_err(|e| e.to_string())?;
        let bare = GspRegistry::from_scenario(pool, engine()).map_err(|e| e.to_string())?;
        Ok(Replica { sharded, bare })
    }

    /// One mutation as the daemon and its client handle it: request
    /// codec, the registry update (timed on the bare registry),
    /// `ShardedRegistry::mutate` around `DurableRegistry::report_*`,
    /// and the acknowledgement codec. With spans on, the durable call's
    /// time minus the registry update is store time, filed under
    /// `store.compact`, `store.fsync` or `store.append` by what the
    /// store's counters say the call did, and `mutate` minus the
    /// durable call is the snapshot rebuild and publish. Returns the
    /// acknowledgement's length.
    fn apply(&mut self, mutation: &Request, spans: &mut Spans) -> Result<usize, String> {
        let wire = spans.time("service.encode", || encode(mutation));
        let mutation: Request = spans.time("service.decode", || decode::<Request>(&wire))?;
        let bare = &mut self.bare;
        let (want, apply_secs) = if spans.on {
            let started = Instant::now();
            let epoch = apply_bare(bare, &mutation);
            let secs = started.elapsed().as_secs_f64();
            spans.add("service.registry_apply", secs);
            (epoch, secs)
        } else {
            (apply_bare(bare, &mutation), 0.0)
        };
        let want = want.map_err(|e| e.to_string())?;
        let ids = touched(&mutation);
        let epoch = if spans.on {
            let mut inner = (0.0, None, None);
            let started = Instant::now();
            let epoch = self.sharded.mutate(Touched::Ids(&ids), |durable| {
                let before = durable.store_stats();
                let called = Instant::now();
                let epoch = apply_durable(durable, &mutation);
                inner = (called.elapsed().as_secs_f64(), before, durable.store_stats());
                epoch
            });
            let total = started.elapsed().as_secs_f64();
            let (durable_secs, before, after) = inner;
            spans.add("service.snapshot_build", total - durable_secs);
            let store = match (before, after) {
                (Some(b), Some(a)) if a.compactions > b.compactions => "store.compact",
                (Some(b), Some(a)) if a.fsyncs > b.fsyncs => "store.fsync",
                _ => "store.append",
            };
            spans.add(store, durable_secs - apply_secs);
            epoch
        } else {
            self.sharded.mutate(Touched::Ids(&ids), |durable| apply_durable(durable, &mutation))
        };
        let epoch = epoch.map_err(|e| e.to_string())?;
        if epoch != want {
            return Err(format!("durable epoch {epoch}, bare registry epoch {want}"));
        }
        let ack = spans.time("service.encode", || encode(&Response::Ack { epoch, id: None }));
        spans.time("service.decode", || decode::<Response>(&ack))?;
        Ok(ack.len())
    }
}

/// Totals of one mutation replay.
#[derive(Debug)]
pub struct TrustReplay {
    /// Span totals of the traced pass.
    pub spans: Spans,
    /// The reputation vector the traced replica publishes at the end.
    pub reputation: Vec<f64>,
    /// Mutations replayed.
    pub mutations: u64,
    /// Power-method iterations over the replayed reputation calls.
    pub power_iterations: u64,
    /// Acknowledgement bytes.
    pub bytes: u64,
    /// Compactions the traced replica's store went through.
    pub compactions: u64,
    /// Wall seconds of the untraced pass.
    pub untraced_secs: f64,
    /// Wall seconds of the traced pass, without the registry-wide
    /// power method it re-runs on its own.
    pub traced_secs: f64,
}

/// Replay acknowledged mutations through two replicas of the daemon's
/// write path over `pool`, advancing in lockstep, each journaling into
/// its own directory of `dirs` with the default fsync policy and
/// compaction threshold: one untraced, one traced. The traced one also
/// re-runs the registry-wide power method on its own to time it.
pub fn replay_mutations(
    pool: &FormationScenario,
    mutations: &[Request],
    dirs: (&Path, &Path),
) -> Result<TrustReplay, String> {
    let engine = FormationConfig::default().reputation;
    let mut plain = Replica::open(pool, dirs.0)?;
    let mut traced = Replica::open(pool, dirs.1)?;
    let compactions = |r: &Replica| r.sharded.store_stats().map_or(0, |s| s.compactions);
    let compacted_before = compactions(&traced);
    let members: Vec<usize> = (0..traced.bare.gsp_count()).collect();
    let mut spans = Spans::new(true);
    let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
    let (mut power_iterations, mut bytes) = (0u64, 0u64);
    let mut traced_pass = |mutation: &Request| -> Result<(), String> {
        let prev = traced.bare.reputation().to_vec();
        let started = Instant::now();
        traced.apply(mutation, &mut spans)?;
        traced_secs += started.elapsed().as_secs_f64();
        let scenario = &traced.sharded.snapshot().scenario;
        let rep = spans
            .time("trust.power", || {
                engine.compute_with_start(scenario.trust(), &members, Some(&prev))
            })
            .map_err(|e| e.to_string())?;
        power_iterations += rep.iterations as u64;
        Ok(())
    };
    for (i, mutation) in mutations.iter().enumerate() {
        // The two passes take turns going first, so neither always
        // finds the mutation's data in cache.
        if i % 2 == 1 {
            traced_pass(mutation)?;
        }
        let started = Instant::now();
        bytes += plain.apply(mutation, &mut Spans::new(false))? as u64;
        untraced_secs += started.elapsed().as_secs_f64();
        if i % 2 == 0 {
            traced_pass(mutation)?;
        }
    }
    let reputation = traced.sharded.snapshot().view.reputation.clone();
    if reputation != plain.sharded.snapshot().view.reputation
        || reputation != traced.bare.reputation()
    {
        return Err("the traced, untraced and bare replays diverged".to_string());
    }
    Ok(TrustReplay {
        spans,
        reputation,
        mutations: mutations.len() as u64,
        power_iterations,
        bytes,
        compactions: compactions(&traced) - compacted_before,
        untraced_secs,
        traced_secs,
    })
}
