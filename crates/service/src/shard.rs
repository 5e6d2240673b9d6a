//! Sharded write path + epoch-stamped immutable read snapshots.
//!
//! The daemon used to put one `Mutex<DurableRegistry>` in front of
//! everything: every formation cloned the scenario under the same
//! lock every trust report was fighting for. [`ShardedRegistry`]
//! splits the two sides:
//!
//! * **Reads** ([`ShardedRegistry::snapshot`]) return an
//!   `Arc<EpochSnapshot>` — an immutable, epoch-stamped image of the
//!   pool (the materialized [`FormationScenario`] plus the
//!   serializable [`RegistrySnapshot`] view) built once per mutation
//!   and swapped in behind an `RwLock<Arc<…>>`. The scenario's
//!   `tasks × m` instance is shared, not copied: it is one
//!   `Arc<AssignmentInstance>` that only `add_gsp` / `remove_gsp`
//!   replace, so a trust report, receipt or lease change rebuilds just
//!   the GSP list, the `m × m` effective trust graph, the registry
//!   view, the free set and the leases. A reader takes the
//!   read lock only long enough to clone the `Arc`; formations,
//!   registry dumps and batch requests then run against their pinned
//!   snapshot for as long as they like without blocking a single
//!   writer. Everything computed from one `EpochSnapshot` is
//!   consistent *by construction* — there is no window in which a
//!   response can mix state from two epochs, which is exactly what
//!   `tests/torture.rs` hammers on.
//!
//! * **Writes** ([`ShardedRegistry::mutate`]) stage on per-shard
//!   locks keyed by GSP id (`id % shards`), then commit under one
//!   short writer lock. The commit itself must stay globally
//!   serialized — the journal is a single total order and the epoch
//!   *is* that order — but the sharding means two trust reports on
//!   disjoint shards never queue behind each other's staging, and a
//!   pool-wide membership change (`add`/`remove`) drains every shard
//!   before renumbering ids. After the commit the fresh
//!   `EpochSnapshot` is built and published while the writer lock is
//!   still held, so snapshot epoch order equals journal order.
//!
//! Because every commit serializes on the writer lock anyway, the
//! shard locks buy no concurrency of their own; they remain only
//! because the benchmark driver (`vobench`) calls
//! [`ShardedRegistry::open`] with a shard count and
//! [`ShardedRegistry::mutate`] with [`Touched`].

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::FormationScenario;

use crate::persist::{DurableRegistry, PersistConfig};
use crate::registry::RegistrySnapshot;
use crate::Result;

/// Default shard count (`gridvo serve --shards`).
pub const DEFAULT_SHARDS: usize = 8;

/// An immutable, consistent image of the registry at one epoch.
/// Everything a read-side request needs is materialized here once,
/// at mutation time, instead of per-request under a lock.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// The epoch this snapshot reflects (mutations since bootstrap).
    pub epoch: u64,
    /// The pool as a solvable scenario (what formations run against).
    pub scenario: FormationScenario,
    /// The serializable registry view (what `registry` requests dump).
    pub view: RegistrySnapshot,
    /// Global ids of the GSPs held by no live lease — the sub-pool a
    /// market-aware formation (`form --app`) runs against.
    pub free: Vec<usize>,
    /// Live leases at this epoch, in acquisition order.
    pub leases: Vec<gridvo_market::Lease>,
}

impl EpochSnapshot {
    fn build(reg: &DurableRegistry) -> Result<EpochSnapshot> {
        Ok(EpochSnapshot {
            epoch: reg.registry().epoch(),
            scenario: reg.registry().scenario()?,
            view: reg.registry().snapshot(),
            free: reg.registry().free_members(),
            leases: reg.registry().leases().to_vec(),
        })
    }
}

/// Which GSP ids a mutation touches, for shard staging.
#[derive(Debug, Clone, Copy)]
pub enum Touched<'a> {
    /// Trust / receipt mutations: the ids whose edges or evidence
    /// change. Ids keep their meaning across the mutation.
    Ids(&'a [usize]),
    /// Membership churn (`add_gsp` / `remove_gsp`): ids renumber, so
    /// every shard must drain before the commit.
    All,
}

/// The daemon's registry: sharded writes, lock-free-after-`Arc`-clone
/// snapshot reads. See the module docs.
#[derive(Debug)]
pub struct ShardedRegistry {
    /// Staging locks, one per shard; they guard no data.
    shards: Vec<Mutex<()>>,
    /// The commit lock: owns the registry + journal. Held only for
    /// apply + journal append + snapshot rebuild.
    writer: Mutex<DurableRegistry>,
    /// The published snapshot. Readers clone the `Arc` and get out.
    current: RwLock<Arc<EpochSnapshot>>,
}

impl ShardedRegistry {
    /// Bootstrap or recover (see [`DurableRegistry::open`]) and
    /// publish the initial snapshot. `shards` is clamped to ≥ 1.
    pub fn open(
        scenario: &FormationScenario,
        engine: ReputationEngine,
        shards: usize,
        persist: Option<&PersistConfig>,
    ) -> Result<(Self, Option<u64>)> {
        let (durable, recovered) = DurableRegistry::open(scenario, engine, persist)?;
        let snapshot = Arc::new(EpochSnapshot::build(&durable)?);
        let sharded = ShardedRegistry {
            shards: (0..shards.max(1)).map(|_| Mutex::new(())).collect(),
            writer: Mutex::new(durable),
            current: RwLock::new(snapshot),
        };
        Ok((sharded, recovered))
    }

    /// The shard owning GSP `id`.
    fn shard_of(&self, id: usize) -> usize {
        id % self.shards.len()
    }

    /// The current snapshot. This is the entire read path: one brief
    /// read lock to clone an `Arc`.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Journal / snapshot counters, when persistence is on.
    pub fn store_stats(&self) -> Option<gridvo_store::StoreStats> {
        self.writer.lock().expect("writer lock poisoned").store_stats()
    }

    /// Run one mutation: stage on the touched shards (ascending-index
    /// order, so concurrent mutations can never deadlock), commit
    /// under the writer lock, publish the new snapshot. The snapshot is
    /// rebuilt and swapped *before* the writer lock drops, so the
    /// published epoch sequence is exactly the journal's.
    pub fn mutate<T>(
        &self,
        touched: Touched<'_>,
        f: impl FnOnce(&mut DurableRegistry) -> Result<T>,
    ) -> Result<T> {
        let staged: Vec<usize> = match touched {
            Touched::Ids(ids) => {
                let mut shards: Vec<usize> = ids.iter().map(|&id| self.shard_of(id)).collect();
                shards.sort_unstable();
                shards.dedup();
                shards
            }
            Touched::All => (0..self.shards.len()).collect(),
        };
        let _guards: Vec<MutexGuard<'_, ()>> =
            staged.iter().map(|&i| self.shards[i].lock().expect("shard lock poisoned")).collect();

        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let result = f(&mut writer);
        let committed = writer.registry().epoch();
        // Publish whenever the epoch moved — even on an error return
        // (a journal-append failure surfaces the error but leaves the
        // in-memory mutation applied; readers must see what the next
        // successful commit would otherwise silently fold in).
        if committed != self.current.read().expect("snapshot lock poisoned").epoch {
            let snapshot = Arc::new(EpochSnapshot::build(&writer)?);
            *self.current.write().expect("snapshot lock poisoned") = snapshot;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::{CoreError, ExecutionReceipt, Gsp};
    use gridvo_solver::{AssignmentInstance, SolverError};
    use gridvo_trust::TrustGraph;

    use crate::ServiceError;

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

    fn open(shards: usize) -> ShardedRegistry {
        ShardedRegistry::open(&scenario(), ReputationEngine::default(), shards, None).unwrap().0
    }

    #[test]
    fn snapshots_are_pinned_while_mutations_publish_new_epochs() {
        let reg = open(4);
        let before = reg.snapshot();
        assert_eq!(before.epoch, 0);
        let epoch = reg.mutate(Touched::Ids(&[0, 1]), |r| r.report_trust(0, 1, 0.9)).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(before.epoch, 0, "the pinned snapshot is immutable");
        let after = reg.snapshot();
        assert_eq!(after.epoch, 1);
        assert_ne!(
            before.scenario.trust().trust(0, 1),
            after.scenario.trust().trust(0, 1),
            "the new snapshot reflects the mutation"
        );
    }

    #[test]
    fn failed_mutations_leave_the_snapshot_alone() {
        let reg = open(2);
        let err = reg.mutate(Touched::Ids(&[0]), |r| r.report_trust(0, 99, 0.5));
        assert!(err.is_err());
        assert_eq!(reg.snapshot().epoch, 0, "no epoch, no publish");
    }

    #[test]
    fn concurrent_writers_produce_a_gapless_epoch_order() {
        let reg = std::sync::Arc::new(open(4));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let mut acked = Vec::new();
                for i in 0..8usize {
                    let (from, to) = ((w + i) % 3, (w + i + 1) % 3);
                    let e = reg
                        .mutate(Touched::Ids(&[from, to]), |r| {
                            r.report_trust(from, to, 0.2 + 0.1 * (w as f64))
                        })
                        .unwrap();
                    acked.push(e);
                }
                acked
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (1..=32).collect::<Vec<u64>>(), "epochs are a gapless total order");
        assert_eq!(reg.snapshot().epoch, 32);
    }

    /// Whether two snapshots point at the same shared instance (the
    /// referents of one `Arc` share an address).
    fn shares_instance(a: &EpochSnapshot, b: &EpochSnapshot) -> bool {
        std::ptr::eq(a.scenario.instance(), b.scenario.instance())
    }

    #[test]
    fn snapshots_share_the_instance_until_membership_changes() {
        let reg = open(2);
        let base = reg.snapshot();
        let mut published = Vec::new();
        reg.mutate(Touched::Ids(&[0, 1]), |r| r.report_trust(0, 1, 0.9)).unwrap();
        published.push(reg.snapshot());
        let receipt = ExecutionReceipt::new(0, 1, true, 5.0, vec![0, 2]);
        reg.mutate(Touched::Ids(&[0, 1, 2]), |r| r.report_receipt(&receipt)).unwrap();
        published.push(reg.snapshot());
        let (lease, _) = reg.mutate(Touched::All, |r| r.acquire_lease("a", &[2])).unwrap();
        published.push(reg.snapshot());
        reg.mutate(Touched::All, |r| r.release_lease(lease, "complete")).unwrap();
        published.push(reg.snapshot());
        for (k, snap) in published.iter().enumerate() {
            assert_eq!(snap.epoch, k as u64 + 1, "every mutation publishes");
            assert!(shares_instance(&base, snap), "epoch {} copied the instance", snap.epoch);
        }

        // A join builds a new instance with the new column last.
        let before = reg.snapshot();
        reg.mutate(Touched::All, |r| r.add_gsp(90.0, &[2.0, 3.0, 4.0, 5.0], &[1.5; 4])).unwrap();
        let joined = reg.snapshot();
        assert!(!shares_instance(&before, &joined));
        let inst = joined.scenario.instance();
        assert_eq!((inst.tasks(), inst.gsps()), (4, 4));
        assert_eq!((0..4).map(|t| inst.cost(t, 3)).collect::<Vec<_>>(), vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(inst.cost_row(0)[..3], before.scenario.instance().cost_row(0)[..]);

        // A leave drops exactly that column.
        reg.mutate(Touched::All, |r| r.remove_gsp(0)).unwrap();
        let left = reg.snapshot();
        assert!(!shares_instance(&joined, &left));
        let inst = left.scenario.instance();
        assert_eq!((inst.tasks(), inst.gsps()), (4, 3));
        for t in 0..4 {
            assert_eq!(inst.cost_row(t), &joined.scenario.instance().cost_row(t)[1..]);
            assert_eq!(inst.time_row(t), &joined.scenario.instance().time_row(t)[1..]);
        }
    }

    /// The pool is 4 tasks × 3 GSPs: one join fits, a second would
    /// leave 4 tasks for 5 GSPs.
    fn join(reg: &ShardedRegistry) -> Result<(usize, u64)> {
        reg.mutate(Touched::All, |r| r.add_gsp(90.0, &[2.0; 4], &[1.5; 4]))
    }

    fn is_too_few_tasks(result: Result<(usize, u64)>) -> bool {
        matches!(
            result,
            Err(ServiceError::Core(CoreError::Solver(SolverError::TooFewTasks {
                tasks: 4,
                gsps: 5
            })))
        )
    }

    #[test]
    fn a_join_that_outgrows_the_program_is_refused_untouched() {
        let reg = open(2);
        assert_eq!(join(&reg).unwrap(), (3, 1));
        let before = reg.snapshot();
        assert!(is_too_few_tasks(join(&reg)));
        let after = reg.snapshot();
        assert_eq!(after.epoch, 1, "a refused join publishes nothing");
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(after.scenario.gsp_count(), 4);
        // The daemon keeps serving: the next trust report publishes.
        assert_eq!(reg.mutate(Touched::Ids(&[0, 3]), |r| r.report_trust(0, 3, 0.8)).unwrap(), 2);
        assert_eq!(reg.snapshot().epoch, 2);
    }

    #[test]
    fn a_refused_join_is_not_journaled_and_the_pool_reopens() {
        let dir =
            std::env::temp_dir().join(format!("gridvo-shard-refused-join-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PersistConfig::new(&dir);
        let engine = ReputationEngine::default;
        let (reg, _) = ShardedRegistry::open(&scenario(), engine(), 2, Some(&config)).unwrap();
        join(&reg).unwrap();
        assert!(is_too_few_tasks(join(&reg)));
        reg.mutate(Touched::Ids(&[0, 3]), |r| r.report_trust(0, 3, 0.8)).unwrap();
        let want = reg.snapshot();
        drop(reg);

        let (reopened, recovered) =
            ShardedRegistry::open(&scenario(), engine(), 2, Some(&config)).unwrap();
        assert_eq!(recovered, Some(2));
        let got = reopened.snapshot();
        assert_eq!(got.view, want.view);
        assert_eq!(got.scenario.instance(), want.scenario.instance());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
