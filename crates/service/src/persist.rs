//! Durability glue: a [`GspRegistry`] whose mutations stream into a
//! `gridvo-store` journal.
//!
//! [`DurableRegistry`] is what the daemon actually locks: in-memory
//! mode it is a zero-cost wrapper around [`GspRegistry`] (the default
//! — `gridvo serve` without `--data-dir` behaves exactly as before);
//! with a [`PersistConfig`] every successful mutation appends its
//! [`RegistryEvent`](crate::registry::RegistryEvent) to the journal
//! *before* the mutation is acknowledged, and the journal is
//! compacted into a full-state snapshot once it crosses the size
//! threshold.
//!
//! ## Recovery
//!
//! [`DurableRegistry::open`] on a non-empty data directory rebuilds
//! the registry from the newest snapshot
//! ([`GspRegistry::from_persisted`]) and replays the journal tail
//! ([`GspRegistry::apply_event`]) — *without* re-appending, so
//! recovery never rewrites the journal it is reading. The recovered
//! registry is bit-identical to the uninterrupted run at the same
//! epoch: the snapshot carries the exact reputation vector, so the
//! power-method warm-start chain continues unchanged
//! (`tests/persistence.rs` and the SIGKILL harness in
//! `crates/cli/tests/cli_persistence.rs` hold this to byte equality).
//!
//! ## Ordering
//!
//! The registry mutates first, then the event is journaled, all under
//! the daemon's registry mutex — so the journal order is the epoch
//! order. If the append itself fails (disk full, dir vanished) the
//! error is surfaced to the client and the daemon's in-memory state
//! is ahead of the journal by one event; the next recovery simply
//! replays to the last durable epoch, which is exactly the contract
//! (an un-acknowledged mutation may be lost, an acknowledged one may
//! not).

use std::path::PathBuf;

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::FormationScenario;
use gridvo_store::{FsyncPolicy, Store, StoreConfig, StoreStats, DEFAULT_COMPACT_BYTES};

use crate::registry::{GspRegistry, PersistedState, RegistryEvent};
use crate::{Result, ServiceError};

/// Where and how durably to journal registry mutations.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Data directory holding `journal.log` and snapshots. Created if
    /// absent; a non-empty directory is recovered from.
    pub data_dir: PathBuf,
    /// When appends reach disk (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Journal size (bytes) that triggers snapshot + truncate
    /// compaction.
    pub compact_bytes: u64,
}

impl PersistConfig {
    /// A config with the default fsync policy (per-epoch windows) and
    /// compaction threshold.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::default(),
            compact_bytes: DEFAULT_COMPACT_BYTES,
        }
    }

    fn store_config(&self) -> StoreConfig {
        StoreConfig {
            dir: self.data_dir.clone(),
            fsync: self.fsync,
            compact_bytes: self.compact_bytes,
        }
    }
}

/// A [`GspRegistry`] plus an optional journal sink. See the module
/// docs for the durability contract.
#[derive(Debug)]
pub struct DurableRegistry {
    registry: GspRegistry,
    store: Option<Store<PersistedState, RegistryEvent>>,
}

impl DurableRegistry {
    /// Wrap a registry with no persistence (the pre-durability
    /// behavior, still the default).
    pub fn in_memory(registry: GspRegistry) -> Self {
        DurableRegistry { registry, store: None }
    }

    /// Bootstrap or recover. With `persist == None` this is
    /// [`DurableRegistry::in_memory`] around a fresh
    /// [`GspRegistry::from_scenario`]. With a config:
    ///
    /// * an empty (or absent) data directory bootstraps the registry
    ///   from `scenario` and writes the epoch-0 snapshot, so recovery
    ///   always has a base;
    /// * a non-empty directory is recovered — **`scenario` is
    ///   ignored** in favor of the durable state — and the recovered
    ///   epoch is returned as `Some(epoch)`.
    pub fn open(
        scenario: &FormationScenario,
        engine: ReputationEngine,
        persist: Option<&PersistConfig>,
    ) -> Result<(Self, Option<u64>)> {
        let Some(config) = persist else {
            let registry = GspRegistry::from_scenario(scenario, engine)?;
            return Ok((DurableRegistry::in_memory(registry), None));
        };
        let (mut store, recovered) = Store::open(&config.store_config())?;
        match recovered {
            Some(rec) => {
                let mut registry = GspRegistry::from_persisted(&rec.snapshot, engine)?;
                for event in &rec.tail {
                    registry.apply_event(event)?;
                }
                let epoch = registry.epoch();
                Ok((DurableRegistry { registry, store: Some(store) }, Some(epoch)))
            }
            None => {
                let registry = GspRegistry::from_scenario(scenario, engine)?;
                store.bootstrap(&registry.persisted_state()?)?;
                Ok((DurableRegistry { registry, store: Some(store) }, None))
            }
        }
    }

    /// The wrapped registry (reads: `scenario()`, `snapshot()`, …).
    pub fn registry(&self) -> &GspRegistry {
        &self.registry
    }

    /// Journal / snapshot counters, when persistence is on.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(Store::stats)
    }

    /// Journaled [`GspRegistry::add_gsp`].
    pub fn add_gsp(
        &mut self,
        speed_gflops: f64,
        cost: &[f64],
        time: &[f64],
    ) -> Result<(usize, u64)> {
        let out = self.registry.add_gsp(speed_gflops, cost, time)?;
        self.journal_last()?;
        Ok(out)
    }

    /// Journaled [`GspRegistry::remove_gsp`].
    pub fn remove_gsp(&mut self, id: usize) -> Result<u64> {
        let epoch = self.registry.remove_gsp(id)?;
        self.journal_last()?;
        Ok(epoch)
    }

    /// Journaled [`GspRegistry::report_trust`].
    pub fn report_trust(&mut self, from: usize, to: usize, value: f64) -> Result<u64> {
        let epoch = self.registry.report_trust(from, to, value)?;
        self.journal_last()?;
        Ok(epoch)
    }

    /// Journaled [`GspRegistry::report_receipt`].
    pub fn report_receipt(&mut self, receipt: &gridvo_core::ExecutionReceipt) -> Result<u64> {
        let epoch = self.registry.report_receipt(receipt)?;
        self.journal_last()?;
        Ok(epoch)
    }

    /// Journaled [`GspRegistry::acquire_lease`].
    pub fn acquire_lease(&mut self, app: &str, members: &[usize]) -> Result<(u64, u64)> {
        let out = self.registry.acquire_lease(app, members)?;
        self.journal_last()?;
        Ok(out)
    }

    /// Journaled [`GspRegistry::release_lease`].
    pub fn release_lease(&mut self, lease: u64, reason: &str) -> Result<u64> {
        let epoch = self.registry.release_lease(lease, reason)?;
        self.journal_last()?;
        Ok(epoch)
    }

    /// Append the event the mutation just logged, then compact if the
    /// journal crossed the threshold.
    fn journal_last(&mut self) -> Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let event = self
            .registry
            .last_event()
            .ok_or_else(|| ServiceError::Storage("mutation logged no event".to_string()))?;
        store.append(event)?;
        if store.should_compact() {
            let state = self.registry.persisted_state()?;
            store.compact(&state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::Gsp;
    use gridvo_solver::AssignmentInstance;
    use gridvo_trust::TrustGraph;

    fn scenario() -> FormationScenario {
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
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    fn scratch(name: &str) -> PersistConfig {
        let dir =
            std::env::temp_dir().join(format!("gridvo-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PersistConfig::new(dir)
    }

    #[test]
    fn in_memory_mode_journals_nothing() {
        let (mut durable, recovered) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), None).unwrap();
        assert!(recovered.is_none());
        durable.report_trust(0, 1, 0.9).unwrap();
        assert!(durable.store_stats().is_none());
    }

    #[test]
    fn restart_recovers_the_exact_registry() {
        let config = scratch("restart");
        let engine = ReputationEngine::default;
        let (mut durable, recovered) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        assert!(recovered.is_none(), "fresh directory must bootstrap, not recover");
        durable.report_trust(0, 2, 0.9).unwrap();
        durable.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        durable.remove_gsp(1).unwrap();
        let want_snapshot = serde_json::to_string(&durable.registry().snapshot()).unwrap();
        let want_reputation = durable.registry().reputation().to_vec();
        drop(durable);

        let (recovered_reg, epoch) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        assert_eq!(epoch, Some(3));
        assert_eq!(
            serde_json::to_string(&recovered_reg.registry().snapshot()).unwrap(),
            want_snapshot
        );
        assert_eq!(recovered_reg.registry().reputation(), want_reputation);
        let _ = std::fs::remove_dir_all(&config.data_dir);
    }

    #[test]
    fn compaction_truncates_and_recovery_still_works() {
        let mut config = scratch("compact");
        config.compact_bytes = 1; // compact after every append
        let (mut durable, _) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        for i in 0..6u64 {
            durable.report_trust(0, 1, 0.3 + (i as f64) * 0.1).unwrap();
        }
        let stats = durable.store_stats().unwrap();
        assert_eq!(stats.compactions, 6);
        assert_eq!(stats.journal_len, 0, "every append was compacted away");
        let want = serde_json::to_string(&durable.registry().snapshot()).unwrap();
        drop(durable);

        let (recovered, epoch) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        assert_eq!(epoch, Some(6));
        assert_eq!(serde_json::to_string(&recovered.registry().snapshot()).unwrap(), want);
        let _ = std::fs::remove_dir_all(&config.data_dir);
    }
}
