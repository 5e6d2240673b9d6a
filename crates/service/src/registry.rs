//! The live GSP pool a daemon serves requests against.
//!
//! A [`GspRegistry`] is a [`FormationScenario`] made mutable: the set
//! of providers, the trust graph over them, and the per-task cost /
//! time columns evolve between requests. Every mutation bumps a
//! monotone **epoch** by one and records exactly one
//! [`RegistryEvent`], so clients can correlate responses with the
//! registry state that produced them. Only the latest event is kept
//! ([`GspRegistry::last_event`]): the durable layer journals it, and
//! the journal is the history.
//!
//! The grand-coalition [`AssignmentInstance`] is built and validated
//! once per membership change and shared behind an `Arc` from then
//! on: trust reports, receipts and leases never touch the matrices,
//! so every scenario they publish points at the same instance.
//!
//! Ids are **compacting positions**: GSP `k` is column `k` of the
//! matrices and node `k` of the trust graph. Removing a GSP shifts
//! the ids above it down by one (the response to a removal reports
//! the new epoch; the journaled event records the removal).
//!
//! The pool-wide reputation vector is refreshed **incrementally**:
//! each recompute warm-starts [`ReputationEngine::compute_with_start`]
//! from the previous vector (restricted to the survivors after a
//! removal), so a single trust report costs a handful of power
//! iterations instead of a cold solve.

use std::sync::Arc;

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::{CoreError, ExecutionReceipt, FormationScenario, Gsp};
use gridvo_market::{Lease, LeaseError, LeaseTable};
use gridvo_solver::AssignmentInstance;
use gridvo_trust::beta::{BetaLedger, DEFAULT_LAMBDA};
use gridvo_trust::TrustGraph;
use serde::{Deserialize, Serialize};

use crate::{Result, ServiceError};

/// One epoch-stamped registry mutation.
///
/// Events carry the **full mutation payload** (not just the target
/// ids) so that a journaled event stream is replayable: applying the
/// events of an uninterrupted run to the bootstrap state reconstructs
/// the registry exactly. This is the wire format `gridvo-store`
/// journals line-by-line; `tests/persistence.rs` locks it down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistryEvent {
    /// Epoch the mutation produced (the first mutation is epoch 1).
    pub epoch: u64,
    /// Operation name: `"add_gsp"`, `"remove_gsp"`, `"report_trust"`,
    /// `"report_receipt"`, `"acquire_lease"` or `"release_lease"`.
    pub op: String,
    /// The GSP the operation targeted (the new id for additions, the
    /// removed id for removals, the *reporting* GSP for trust reports).
    pub gsp: Option<usize>,
    /// The reported-on GSP for trust reports.
    pub to: Option<usize>,
    /// The reported trust value, when applicable.
    pub value: Option<f64>,
    /// The joining GSP's speed, for `add_gsp` events.
    pub speed_gflops: Option<f64>,
    /// The joining GSP's per-task cost column, for `add_gsp` events.
    pub cost: Option<Vec<f64>>,
    /// The joining GSP's per-task time column, for `add_gsp` events.
    pub time: Option<Vec<f64>>,
    /// The attested execution receipt, for `report_receipt` events.
    /// Absent from journals written before receipts existed — those
    /// still deserialize (missing `Option` fields parse as `None`).
    pub receipt: Option<ExecutionReceipt>,
    /// The application acquiring a lease, for `acquire_lease` events.
    /// Like `receipt`, absent from pre-market journals — all four
    /// market fields parse as `None` on legacy lines.
    pub app: Option<String>,
    /// The lease id assigned (acquire) or released (release).
    pub lease: Option<u64>,
    /// The leased coalition's global GSP ids, for `acquire_lease`.
    pub members: Option<Vec<usize>>,
    /// Why the lease ended (`"complete"`, `"abandon"` or `"expired"`),
    /// for `release_lease` events.
    pub reason: Option<String>,
}

impl RegistryEvent {
    /// A non-add event (no join payload).
    fn slim(
        epoch: u64,
        op: &str,
        gsp: Option<usize>,
        to: Option<usize>,
        value: Option<f64>,
    ) -> Self {
        RegistryEvent {
            epoch,
            op: op.to_string(),
            gsp,
            to,
            value,
            speed_gflops: None,
            cost: None,
            time: None,
            receipt: None,
            app: None,
            lease: None,
            members: None,
            reason: None,
        }
    }
}

impl gridvo_store::Stamped for RegistryEvent {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The registry's complete durable state: what a `gridvo-store`
/// snapshot holds. Recovery = [`GspRegistry::from_persisted`] on the
/// newest snapshot, then [`GspRegistry::apply_event`] over the
/// journal tail — which reproduces the uninterrupted run's state
/// bit-for-bit, including the warm-start chain of the reputation
/// refreshes (the snapshot carries the exact reputation vector the
/// next refresh warm-starts from). It carries no event log — the
/// journal is the history — and legacy snapshots that still hold an
/// `events` array load with the array ignored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistedState {
    /// Epoch of the last applied mutation.
    pub epoch: u64,
    /// The pool as an immutable scenario (GSPs, trust graph, cost and
    /// time matrices, deadline, payment).
    pub scenario: FormationScenario,
    /// Pool-wide reputation vector at `epoch` (the warm start of the
    /// next refresh — persisting it keeps recovered refreshes on the
    /// uninterrupted run's warm-start chain).
    pub reputation: Vec<f64>,
    /// Power iterations of the refresh that produced `reputation`.
    pub power_iterations: usize,
    /// Receipt-driven Beta evidence, when any receipt has been
    /// reported. Absent from snapshots written before receipts
    /// existed — those still deserialize with no ledger.
    pub beta: Option<BetaLedger>,
    /// Live GSP leases, once any lease has been acquired. Absent
    /// from pre-market snapshots (and from market-idle registries),
    /// which deserialize with a pristine table.
    pub market: Option<LeaseTable>,
}

impl gridvo_store::Stamped for PersistedState {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A serializable view of the registry for `registry` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Current epoch (number of mutations since bootstrap).
    pub epoch: u64,
    /// Number of GSPs in the pool.
    pub gsps: usize,
    /// Number of tasks in the standing program.
    pub tasks: usize,
    /// Pool-wide reputation scores, aligned with GSP ids.
    pub reputation: Vec<f64>,
    /// Power-method iterations the last refresh needed (warm starts
    /// show up as small numbers here).
    pub power_iterations: usize,
    /// Mutations since bootstrap. Every mutation bumps the epoch once
    /// and logs exactly one event, so this always equals `epoch`.
    pub events: usize,
}

/// The mutable provider pool. See the module docs.
#[derive(Debug, Clone)]
pub struct GspRegistry {
    gsps: Vec<Gsp>,
    trust: TrustGraph,
    /// The grand-coalition instance (`tasks × m` cost and time,
    /// deadline, payment); replaced only by `add_gsp`/`remove_gsp`.
    instance: Arc<AssignmentInstance>,
    epoch: u64,
    /// The event the latest mutation logged (what
    /// `DurableRegistry` journals); `None` until one happens.
    last_event: Option<RegistryEvent>,
    engine: ReputationEngine,
    /// Last pool-wide reputation vector (aligned with `gsps`); the
    /// warm start of the next refresh.
    reputation: Vec<f64>,
    power_iterations: usize,
    /// Receipt-driven Beta evidence; `None` until the first receipt,
    /// so a receipt-free registry stays bit-identical to the
    /// pre-receipt behavior (declared trust only).
    beta: Option<BetaLedger>,
    /// Live GSP leases: which providers are committed to an executing
    /// VO and therefore out of the market's candidate pool.
    market: LeaseTable,
}

impl GspRegistry {
    /// Bootstrap a registry from a scenario (the `gridvo serve`
    /// startup path: scenario file or `gridvo-sim` generation).
    pub fn from_scenario(scenario: &FormationScenario, engine: ReputationEngine) -> Result<Self> {
        let mut reg = Self::from_parts(scenario, engine);
        reg.refresh_reputation()?;
        Ok(reg)
    }

    /// Rebuild a registry from a durable snapshot. Unlike
    /// [`GspRegistry::from_scenario`] this restores the epoch and the
    /// exact reputation vector instead of recomputing cold — so
    /// subsequent refreshes continue the uninterrupted run's
    /// warm-start chain bit-for-bit.
    pub fn from_persisted(state: &PersistedState, engine: ReputationEngine) -> Result<Self> {
        let mut reg = Self::from_parts(&state.scenario, engine);
        if state.reputation.len() != reg.gsps.len() {
            return Err(ServiceError::Storage(format!(
                "snapshot reputation has {} entries for {} GSPs",
                state.reputation.len(),
                reg.gsps.len()
            )));
        }
        reg.epoch = state.epoch;
        reg.reputation = state.reputation.clone();
        reg.power_iterations = state.power_iterations;
        reg.beta = state.beta.clone();
        reg.market = state.market.clone().unwrap_or_default();
        Ok(reg)
    }

    /// Field extraction shared by the bootstrap paths: everything but
    /// the reputation state.
    fn from_parts(scenario: &FormationScenario, engine: ReputationEngine) -> Self {
        GspRegistry {
            gsps: scenario.gsps().to_vec(),
            trust: scenario.trust().clone(),
            instance: Arc::new(scenario.instance().clone()),
            epoch: 0,
            last_event: None,
            engine,
            reputation: Vec::new(),
            power_iterations: 0,
            beta: None,
            market: LeaseTable::new(),
        }
    }

    /// The registry's complete durable state (what compaction
    /// snapshots).
    pub fn persisted_state(&self) -> Result<PersistedState> {
        Ok(PersistedState {
            epoch: self.epoch,
            scenario: self.scenario()?,
            reputation: self.reputation.clone(),
            power_iterations: self.power_iterations,
            beta: self.beta.clone(),
            market: if self.market.is_pristine() { None } else { Some(self.market.clone()) },
        })
    }

    /// Replay one journaled event. Events at or below the current
    /// epoch are skipped (idempotent replay); an applied event must
    /// land exactly on the next epoch, and must reproduce the epoch
    /// it recorded — anything else means the journal does not match
    /// the state it is being replayed onto.
    pub fn apply_event(&mut self, event: &RegistryEvent) -> Result<()> {
        if event.epoch <= self.epoch {
            return Ok(());
        }
        if event.epoch != self.epoch + 1 {
            return Err(ServiceError::Storage(format!(
                "journal gap: event epoch {} after registry epoch {}",
                event.epoch, self.epoch
            )));
        }
        let replayed = match event.op.as_str() {
            "add_gsp" => {
                let (speed, cost, time) = match (&event.speed_gflops, &event.cost, &event.time) {
                    (Some(s), Some(c), Some(t)) => (*s, c, t),
                    _ => {
                        return Err(ServiceError::Storage(format!(
                            "add_gsp event at epoch {} lacks its join payload",
                            event.epoch
                        )))
                    }
                };
                self.add_gsp(speed, cost, time).map(|(_, epoch)| epoch)
            }
            "remove_gsp" => {
                let id = event.gsp.ok_or_else(|| {
                    ServiceError::Storage(format!(
                        "remove_gsp event at epoch {} lacks a target id",
                        event.epoch
                    ))
                })?;
                self.remove_gsp(id)
            }
            "report_trust" => {
                let (from, to, value) = match (event.gsp, event.to, event.value) {
                    (Some(f), Some(t), Some(v)) => (f, t, v),
                    _ => {
                        return Err(ServiceError::Storage(format!(
                            "report_trust event at epoch {} lacks its payload",
                            event.epoch
                        )))
                    }
                };
                self.report_trust(from, to, value)
            }
            "report_receipt" => {
                let receipt = event.receipt.as_ref().ok_or_else(|| {
                    ServiceError::Storage(format!(
                        "report_receipt event at epoch {} lacks its receipt",
                        event.epoch
                    ))
                })?;
                self.report_receipt(receipt)
            }
            "acquire_lease" => {
                let (app, members) = match (&event.app, &event.members) {
                    (Some(a), Some(m)) => (a, m),
                    _ => {
                        return Err(ServiceError::Storage(format!(
                            "acquire_lease event at epoch {} lacks its payload",
                            event.epoch
                        )))
                    }
                };
                let (lease, epoch) = self.acquire_lease(app, members)?;
                if event.lease.is_some_and(|recorded| recorded != lease) {
                    return Err(ServiceError::Storage(format!(
                        "acquire_lease replay at epoch {} assigned lease {} but the journal \
                         recorded {:?} — the journal does not match this state",
                        event.epoch, lease, event.lease
                    )));
                }
                Ok(epoch)
            }
            "release_lease" => {
                let lease = event.lease.ok_or_else(|| {
                    ServiceError::Storage(format!(
                        "release_lease event at epoch {} lacks a lease id",
                        event.epoch
                    ))
                })?;
                self.release_lease(lease, event.reason.as_deref().unwrap_or("complete"))
            }
            other => {
                return Err(ServiceError::Storage(format!(
                    "unknown journaled op {other:?} at epoch {}",
                    event.epoch
                )))
            }
        }?;
        debug_assert_eq!(replayed, event.epoch);
        Ok(())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of GSPs in the pool.
    pub fn gsp_count(&self) -> usize {
        self.gsps.len()
    }

    /// The event the latest mutation logged, if any happened since
    /// this registry was built or recovered.
    pub fn last_event(&self) -> Option<&RegistryEvent> {
        self.last_event.as_ref()
    }

    /// Pool-wide reputation scores, aligned with GSP ids.
    pub fn reputation(&self) -> &[f64] {
        &self.reputation
    }

    /// Join the pool: a new GSP with its per-task cost and time
    /// columns (length = task count, finite and positive). It enters
    /// with no trust edges — reputation accrues from later reports.
    /// A join that would leave fewer tasks than GSPs is refused with
    /// [`gridvo_solver::SolverError::TooFewTasks`] before any state
    /// changes. Returns `(new id, new epoch)`.
    pub fn add_gsp(
        &mut self,
        speed_gflops: f64,
        cost: &[f64],
        time: &[f64],
    ) -> Result<(usize, u64)> {
        if !speed_gflops.is_finite() || speed_gflops <= 0.0 {
            return Err(ServiceError::BadColumn { context: "speed must be finite and positive" });
        }
        let (tasks, m) = (self.instance.tasks(), self.gsps.len());
        if cost.len() != tasks || time.len() != tasks {
            return Err(ServiceError::BadColumn { context: "column length != task count" });
        }
        if cost.iter().chain(time.iter()).any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(ServiceError::BadColumn { context: "entries must be finite and positive" });
        }
        // Build everything fallible first, so a refused join leaves
        // the registry untouched: the instance with the new column
        // spliced into each row, and the trust graph grown by one
        // isolated node.
        let mut new_cost = Vec::with_capacity(tasks * (m + 1));
        let mut new_time = Vec::with_capacity(tasks * (m + 1));
        for t in 0..tasks {
            new_cost.extend_from_slice(self.instance.cost_row(t));
            new_cost.push(cost[t]);
            new_time.extend_from_slice(self.instance.time_row(t));
            new_time.push(time[t]);
        }
        let instance = AssignmentInstance::new(
            tasks,
            m + 1,
            new_cost,
            new_time,
            self.instance.deadline(),
            self.instance.payment(),
        )
        .map_err(CoreError::from)?;
        let mut grown = TrustGraph::new(m + 1);
        for (i, j, w) in self.trust.edges() {
            grown.try_set_trust(i, j, w)?;
        }
        self.instance = Arc::new(instance);
        self.trust = grown;
        if let Some(ledger) = &mut self.beta {
            ledger.grow();
        }
        let id = m;
        self.gsps.push(Gsp::new(id, speed_gflops));
        self.epoch += 1;
        self.last_event = Some(RegistryEvent {
            epoch: self.epoch,
            op: "add_gsp".to_string(),
            gsp: Some(id),
            to: None,
            value: None,
            speed_gflops: Some(speed_gflops),
            cost: Some(cost.to_vec()),
            time: Some(time.to_vec()),
            receipt: None,
            app: None,
            lease: None,
            members: None,
            reason: None,
        });
        // The warm start no longer matches the pool size; the refresh
        // falls back to a cold solve for this one recompute.
        self.reputation.clear();
        self.refresh_reputation()?;
        Ok((id, self.epoch))
    }

    /// Leave the pool. Ids above `id` shift down by one (compacting
    /// positional ids). Refuses to empty the pool. Returns the new
    /// epoch.
    pub fn remove_gsp(&mut self, id: usize) -> Result<u64> {
        if id >= self.gsps.len() {
            return Err(ServiceError::UnknownGsp { id });
        }
        if self.gsps.len() == 1 {
            return Err(ServiceError::LastGsp);
        }
        if let Some(held) = self.market.holder_of(id) {
            return Err(ServiceError::Leased { id, lease: held.id });
        }
        let (trust, survivors) = self.trust.remove_node(id)?;
        let instance = self.instance.restrict_gsps(&survivors).map_err(CoreError::from)?;
        self.trust = trust;
        self.instance = Arc::new(instance);
        if let Some(ledger) = &mut self.beta {
            ledger.remove(id)?;
        }
        // Reassign compacted ids and carry the survivors' scores as
        // the next refresh's warm start.
        let prev = std::mem::take(&mut self.reputation);
        self.reputation = survivors.iter().filter_map(|&old| prev.get(old).copied()).collect();
        self.gsps.remove(id);
        for (k, g) in self.gsps.iter_mut().enumerate() {
            g.id = k;
        }
        self.market.shift_down(id);
        self.epoch += 1;
        self.last_event = Some(RegistryEvent::slim(self.epoch, "remove_gsp", Some(id), None, None));
        self.refresh_reputation()?;
        Ok(self.epoch)
    }

    /// Ingest a direct-trust report `u_{from,to} = value`. Returns the
    /// new epoch. The reputation refresh warm-starts from the previous
    /// vector — for small perturbations this converges in a few power
    /// iterations.
    pub fn report_trust(&mut self, from: usize, to: usize, value: f64) -> Result<u64> {
        self.trust.try_set_trust(from, to, value)?;
        self.epoch += 1;
        self.last_event = Some(RegistryEvent::slim(
            self.epoch,
            "report_trust",
            Some(from),
            Some(to),
            Some(value),
        ));
        self.refresh_reputation()?;
        Ok(self.epoch)
    }

    /// Ingest one execution receipt: every witness contributes a
    /// reward-weighted Beta observation about `receipt.gsp`, and the
    /// pool's *effective* trust (declared edges overridden by Beta
    /// posteriors wherever evidence exists) feeds the next reputation
    /// refresh. The receipt's digest must verify — a signed-shape
    /// integrity check on what is, in practice, replayed from a
    /// journal. Returns the new epoch.
    pub fn report_receipt(&mut self, receipt: &ExecutionReceipt) -> Result<u64> {
        if !receipt.verify() {
            return Err(ServiceError::BadReceipt { context: "digest does not match content" });
        }
        let m = self.gsps.len();
        if receipt.gsp >= m {
            return Err(ServiceError::UnknownGsp { id: receipt.gsp });
        }
        if let Some(&w) = receipt.witnesses.iter().find(|&&w| w >= m) {
            return Err(ServiceError::UnknownGsp { id: w });
        }
        if receipt.witnesses.contains(&receipt.gsp) {
            return Err(ServiceError::BadReceipt { context: "subject cannot witness itself" });
        }
        if !receipt.reward.is_finite() || receipt.reward < 0.0 {
            return Err(ServiceError::BadReceipt { context: "reward must be finite and >= 0" });
        }
        let ledger = self.beta.get_or_insert_with(|| BetaLedger::new(m, DEFAULT_LAMBDA));
        receipt.fold_into(ledger)?;
        self.epoch += 1;
        let mut event =
            RegistryEvent::slim(self.epoch, "report_receipt", Some(receipt.gsp), None, None);
        event.receipt = Some(receipt.clone());
        self.last_event = Some(event);
        self.refresh_reputation()?;
        Ok(self.epoch)
    }

    /// Commit `members` to a live VO held by `app`: the market's
    /// lease-acquire mutation. Validates that every member exists and
    /// that none is already committed to another live VO — the
    /// no-double-lease invariant every acked history must satisfy.
    /// Reputation is untouched (a lease changes availability, not
    /// trust). Returns `(lease id, new epoch)`.
    pub fn acquire_lease(&mut self, app: &str, members: &[usize]) -> Result<(u64, u64)> {
        if let Some(&id) = members.iter().find(|&&id| id >= self.gsps.len()) {
            return Err(ServiceError::UnknownGsp { id });
        }
        let lease = match self.market.acquire(app, members, self.epoch + 1) {
            Ok(lease) => lease,
            Err(LeaseError::Empty) => {
                return Err(ServiceError::BadColumn { context: "cannot lease an empty coalition" })
            }
            Err(LeaseError::Held { gsp, lease }) => {
                return Err(ServiceError::Leased { id: gsp, lease })
            }
        };
        self.epoch += 1;
        let mut event = RegistryEvent::slim(self.epoch, "acquire_lease", None, None, None);
        event.app = Some(app.to_string());
        event.lease = Some(lease);
        event.members = Some(
            self.market.leases().last().map_or_else(|| members.to_vec(), |l| l.members.clone()),
        );
        self.last_event = Some(event);
        Ok((lease, self.epoch))
    }

    /// Release lease `lease` (the VO completed, was abandoned, or its
    /// TTL expired — `reason` records which); its members return to
    /// the candidate pool. Returns the new epoch.
    pub fn release_lease(&mut self, lease: u64, reason: &str) -> Result<u64> {
        if self.market.release(lease).is_none() {
            return Err(ServiceError::UnknownLease { lease });
        }
        self.epoch += 1;
        let mut event = RegistryEvent::slim(self.epoch, "release_lease", None, None, None);
        event.lease = Some(lease);
        event.reason = Some(reason.to_string());
        self.last_event = Some(event);
        Ok(self.epoch)
    }

    /// The live lease table.
    pub fn market(&self) -> &LeaseTable {
        &self.market
    }

    /// Global ids of the GSPs held by no live lease — the sub-pool
    /// market-aware formation runs against.
    pub fn free_members(&self) -> Vec<usize> {
        self.market.free_members(self.gsps.len())
    }

    /// Live leases, in acquisition order.
    pub fn leases(&self) -> &[Lease] {
        self.market.leases()
    }

    /// The trust graph requests actually see: declared edges, with
    /// every receipt-evidenced edge overridden by its Beta posterior.
    /// With no receipts this is exactly the declared graph, keeping
    /// the zero-receipt path bit-identical to pre-receipt behavior.
    fn effective_trust(&self) -> Result<TrustGraph> {
        match &self.beta {
            None => Ok(self.trust.clone()),
            Some(ledger) => Ok(ledger.apply_to(&self.trust)?),
        }
    }

    /// The receipt-driven Beta ledger, once any receipt has been
    /// reported.
    pub fn beta(&self) -> Option<&BetaLedger> {
        self.beta.as_ref()
    }

    /// Materialize the current pool as an immutable scenario — what a
    /// formation / execution request actually runs against. It shares
    /// the registry's instance (no matrix copy); only the GSP list and
    /// the `m × m` effective trust graph are built fresh.
    pub fn scenario(&self) -> Result<FormationScenario> {
        let trust = self.effective_trust()?;
        Ok(FormationScenario::from_shared(self.gsps.clone(), trust, Arc::clone(&self.instance))?)
    }

    /// A serializable view for `registry` requests.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            epoch: self.epoch,
            gsps: self.gsps.len(),
            tasks: self.instance.tasks(),
            reputation: self.reputation.clone(),
            power_iterations: self.power_iterations,
            events: self.epoch as usize,
        }
    }

    fn refresh_reputation(&mut self) -> Result<()> {
        let members: Vec<usize> = (0..self.gsps.len()).collect();
        let start = if self.reputation.len() == members.len() {
            Some(self.reputation.as_slice())
        } else {
            None
        };
        let graph = self.effective_trust()?;
        let rep = self.engine.compute_with_start(&graph, &members, start)?;
        self.reputation = rep.scores;
        self.power_iterations = rep.iterations;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> GspRegistry {
        let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0), Gsp::new(2, 60.0)];
        let mut trust = TrustGraph::new(3);
        for i in 0..3usize {
            for j in 0..3usize {
                if i != j {
                    trust.set_trust(i, j, 0.5);
                }
            }
        }
        let inst =
            AssignmentInstance::new(4, 3, vec![1.0; 12], vec![1.0; 12], 10.0, 100.0).unwrap();
        let scenario = FormationScenario::new(gsps, trust, inst).unwrap();
        GspRegistry::from_scenario(&scenario, ReputationEngine::default()).unwrap()
    }

    #[test]
    fn bootstrap_computes_reputation_at_epoch_zero() {
        let reg = registry();
        assert_eq!(reg.epoch(), 0);
        assert_eq!(reg.reputation().len(), 3);
        assert!(reg.last_event().is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.gsps, 3);
        assert_eq!(snap.tasks, 4);
    }

    #[test]
    fn trust_report_bumps_epoch_and_logs() {
        let mut reg = registry();
        let before = reg.reputation().to_vec();
        let epoch = reg.report_trust(0, 2, 1.0).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(reg.snapshot().events, 1);
        assert_eq!(reg.last_event().unwrap().op, "report_trust");
        // GSP 2 is now more trusted than before.
        assert!(reg.reputation()[2] > before[2]);
    }

    #[test]
    fn trust_report_rejects_bad_input() {
        let mut reg = registry();
        assert!(matches!(reg.report_trust(0, 9, 0.5), Err(ServiceError::Trust(_))));
        assert!(matches!(reg.report_trust(0, 1, -1.0), Err(ServiceError::Trust(_))));
        assert_eq!(reg.epoch(), 0, "failed mutations must not bump the epoch");
    }

    #[test]
    fn add_gsp_grows_everything_consistently() {
        let mut reg = registry();
        let (id, epoch) = reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        assert_eq!((id, epoch), (3, 1));
        assert_eq!(reg.gsp_count(), 4);
        assert_eq!(reg.reputation().len(), 4);
        let s = reg.scenario().unwrap();
        assert_eq!(s.gsp_count(), 4);
        assert_eq!(s.instance().cost(0, 3), 2.0);
        assert_eq!(s.instance().time(2, 3), 1.5);
        // Pre-existing trust survived the graph growth.
        assert_eq!(s.trust().trust(0, 1), 0.5);
        assert_eq!(s.trust().trust(0, 3), 0.0);
    }

    #[test]
    fn add_gsp_validates_columns() {
        let mut reg = registry();
        assert!(reg.add_gsp(90.0, &[1.0; 3], &[1.0; 4]).is_err());
        assert!(reg.add_gsp(90.0, &[1.0, 1.0, f64::NAN, 1.0], &[1.0; 4]).is_err());
        assert!(reg.add_gsp(-5.0, &[1.0; 4], &[1.0; 4]).is_err());
        assert_eq!(reg.epoch(), 0);
    }

    #[test]
    fn a_join_past_the_task_count_changes_nothing() {
        let mut reg = registry();
        reg.report_receipt(&ExecutionReceipt::new(0, 1, true, 5.0, vec![0, 2])).unwrap();
        reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        let before = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let last = reg.last_event().cloned();
        let refused = reg.add_gsp(70.0, &[2.0; 4], &[1.5; 4]);
        assert!(matches!(
            refused,
            Err(ServiceError::Core(CoreError::Solver(gridvo_solver::SolverError::TooFewTasks {
                tasks: 4,
                gsps: 5
            })))
        ));
        let after = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        assert_eq!(after, before, "trust, Beta evidence, GSPs and epoch must not move");
        assert_eq!(reg.last_event().cloned(), last, "nothing new to journal");
    }

    #[test]
    fn remove_gsp_compacts_ids() {
        let mut reg = registry();
        reg.report_trust(0, 2, 0.9).unwrap();
        let epoch = reg.remove_gsp(1).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(reg.gsp_count(), 2);
        let s = reg.scenario().unwrap();
        // Old GSP 2 is now id 1 and keeps its incoming trust.
        assert_eq!(s.trust().trust(0, 1), 0.9);
        assert_eq!(s.gsps()[1].id, 1);
        assert!((s.gsps()[1].speed_gflops - 60.0).abs() < 1e-12);
    }

    #[test]
    fn remove_refuses_to_empty_the_pool() {
        let mut reg = registry();
        reg.remove_gsp(0).unwrap();
        reg.remove_gsp(0).unwrap();
        assert!(matches!(reg.remove_gsp(0), Err(ServiceError::LastGsp)));
        assert!(matches!(reg.remove_gsp(7), Err(ServiceError::UnknownGsp { id: 7 })));
    }

    #[test]
    fn persisted_state_round_trips_through_json() {
        let mut reg = registry();
        reg.report_trust(0, 2, 0.9).unwrap();
        reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let back: PersistedState = serde_json::from_str(&json).unwrap();
        let rebuilt = GspRegistry::from_persisted(&back, ReputationEngine::default()).unwrap();
        assert_eq!(rebuilt.epoch(), reg.epoch());
        assert_eq!(rebuilt.reputation(), reg.reputation(), "reputation must survive bit-exactly");
        assert_eq!(
            serde_json::to_string(&rebuilt.snapshot()).unwrap(),
            serde_json::to_string(&reg.snapshot()).unwrap()
        );
    }

    #[test]
    fn replaying_logged_events_rebuilds_the_registry() {
        let mut reg = registry();
        let mut replayed = registry();
        let mut events = Vec::new();
        reg.report_trust(0, 2, 0.9).unwrap();
        events.extend(reg.last_event().cloned());
        reg.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        events.extend(reg.last_event().cloned());
        reg.remove_gsp(1).unwrap();
        events.extend(reg.last_event().cloned());
        reg.report_trust(2, 0, 0.4).unwrap();
        events.extend(reg.last_event().cloned());
        for ev in &events {
            replayed.apply_event(ev).unwrap();
            // Idempotence: re-applying a covered event is a no-op.
            replayed.apply_event(ev).unwrap();
        }
        assert_eq!(replayed.reputation(), reg.reputation());
        assert_eq!(replayed.last_event(), reg.last_event());
        assert_eq!(replayed.snapshot(), reg.snapshot());
        assert_eq!(
            replayed.scenario().unwrap().instance().canonical_hash(),
            reg.scenario().unwrap().instance().canonical_hash()
        );
    }

    #[test]
    fn journal_gaps_and_missing_payloads_are_typed_errors() {
        let mut reg = registry();
        let gap = RegistryEvent::slim(5, "report_trust", Some(0), Some(1), Some(0.5));
        assert!(matches!(reg.apply_event(&gap), Err(ServiceError::Storage(_))));
        let bare_add = RegistryEvent::slim(1, "add_gsp", Some(3), None, None);
        assert!(matches!(reg.apply_event(&bare_add), Err(ServiceError::Storage(_))));
        let unknown = RegistryEvent::slim(1, "fly", None, None, None);
        assert!(matches!(reg.apply_event(&unknown), Err(ServiceError::Storage(_))));
        assert_eq!(reg.epoch(), 0, "failed replays must not mutate the registry");
    }

    #[test]
    fn lease_lifecycle_bumps_epochs_and_logs() {
        let mut reg = registry();
        let rep = reg.reputation().to_vec();
        let (lease, epoch) = reg.acquire_lease("alice", &[2, 0]).unwrap();
        assert_eq!((lease, epoch), (1, 1));
        assert_eq!(reg.free_members(), vec![1]);
        assert_eq!(reg.last_event().unwrap().op, "acquire_lease");
        assert_eq!(reg.last_event().unwrap().members, Some(vec![0, 2]));
        assert_eq!(reg.reputation(), rep, "leases must not touch reputation");
        // The contested member is refused with a typed error.
        assert!(matches!(
            reg.acquire_lease("bob", &[0]),
            Err(ServiceError::Leased { id: 0, lease: 1 })
        ));
        assert!(matches!(reg.acquire_lease("bob", &[9]), Err(ServiceError::UnknownGsp { id: 9 })));
        // A leased GSP cannot leave the pool.
        assert!(matches!(reg.remove_gsp(2), Err(ServiceError::Leased { id: 2, lease: 1 })));
        let epoch = reg.release_lease(lease, "complete").unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(reg.free_members(), vec![0, 1, 2]);
        assert!(matches!(
            reg.release_lease(lease, "complete"),
            Err(ServiceError::UnknownLease { lease: 1 })
        ));
        assert_eq!(reg.epoch(), 2, "failed mutations must not bump the epoch");
    }

    #[test]
    fn remove_gsp_renumbers_live_leases() {
        let mut reg = registry();
        reg.acquire_lease("alice", &[2]).unwrap();
        reg.remove_gsp(0).unwrap();
        // Old GSP 2 is now id 1 and still held by the lease.
        assert_eq!(reg.leases()[0].members, vec![1]);
        assert_eq!(reg.free_members(), vec![0]);
    }

    #[test]
    fn lease_events_replay_and_persist() {
        let mut reg = registry();
        let mut replayed = registry();
        let mut events = Vec::new();
        reg.acquire_lease("alice", &[0, 1]).unwrap();
        events.extend(reg.last_event().cloned());
        reg.report_trust(0, 2, 0.9).unwrap();
        events.extend(reg.last_event().cloned());
        let (b, _) = reg.acquire_lease("bob", &[2]).unwrap();
        events.extend(reg.last_event().cloned());
        reg.release_lease(b, "abandon").unwrap();
        events.extend(reg.last_event().cloned());
        for ev in &events {
            replayed.apply_event(ev).unwrap();
            replayed.apply_event(ev).unwrap();
        }
        assert_eq!(replayed.market(), reg.market());
        assert_eq!(replayed.free_members(), vec![2]);
        // Snapshot round trip carries the table (including next_id, so
        // post-recovery acquires keep matching the uninterrupted run).
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let back: PersistedState = serde_json::from_str(&json).unwrap();
        let mut rebuilt = GspRegistry::from_persisted(&back, ReputationEngine::default()).unwrap();
        assert_eq!(rebuilt.market(), reg.market());
        assert_eq!(rebuilt.acquire_lease("carol", &[2]).unwrap().0, 3);
    }

    #[test]
    fn lease_replay_detects_id_divergence() {
        let mut reg = registry();
        let mut event = RegistryEvent::slim(1, "acquire_lease", None, None, None);
        event.app = Some("alice".to_string());
        event.members = Some(vec![0]);
        event.lease = Some(7); // a fresh table would assign 1
        assert!(matches!(reg.apply_event(&event), Err(ServiceError::Storage(_))));
    }

    #[test]
    fn pristine_market_is_absent_from_snapshots() {
        let reg = registry();
        assert!(reg.persisted_state().unwrap().market.is_none());
        // Legacy snapshot JSON (no market field) still deserializes.
        let json = serde_json::to_string(&reg.persisted_state().unwrap()).unwrap();
        let legacy = json.replace(",\"market\":null", "");
        assert_ne!(legacy, json, "the pristine table serializes as an explicit null");
        let back: PersistedState = serde_json::from_str(&legacy).unwrap();
        assert!(GspRegistry::from_persisted(&back, ReputationEngine::default()).is_ok());
    }

    #[test]
    fn scenario_round_trips_the_bootstrap_input() {
        // With no mutations, the materialized scenario must equal the
        // bootstrap scenario (the differential tests depend on this).
        let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0)];
        let mut trust = TrustGraph::new(2);
        trust.set_trust(0, 1, 0.7);
        trust.set_trust(1, 0, 0.3);
        let inst = AssignmentInstance::new(
            3,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            vec![1.0; 6],
            10.0,
            50.0,
        )
        .unwrap();
        let scenario = FormationScenario::new(gsps, trust, inst).unwrap();
        let reg = GspRegistry::from_scenario(&scenario, ReputationEngine::default()).unwrap();
        let back = reg.scenario().unwrap();
        assert_eq!(back.instance().canonical_hash(), scenario.instance().canonical_hash());
        assert_eq!(back.trust().weight_matrix(), scenario.trust().weight_matrix());
        assert_eq!(back.gsps(), scenario.gsps());
    }
}
