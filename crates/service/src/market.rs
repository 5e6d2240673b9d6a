//! Market-aware formation glue: free-sub-pool scenarios and member
//! remapping.
//!
//! A `form --app` request must only see the **free sub-pool** — the
//! GSPs held by no live lease. The server pins an
//! [`EpochSnapshot`](crate::shard::EpochSnapshot), restricts the
//! standing scenario to `snapshot.free` ([`free_scenario`]), runs the
//! unchanged mechanism over the restricted scenario (whose GSPs are
//! renumbered `0..k`), and lifts the resulting records back into
//! global ids with [`gridvo_core::FormationOutcome::map_members`].
//!
//! Caching needs nothing market-specific: each round's solve key hashes
//! the restricted instance's cost and time columns in order, so a
//! cached optimum computed while GSP 3 was leased can never answer a
//! request made after GSP 3 returned (the columns differ), and an
//! idle market shares entries with plain (`--app`-less) formation
//! byte-for-byte (the columns are the same).
//!
//! These helpers are `pub` so the torture tests drive the exact code
//! the server runs when they recompute a serial oracle's responses.

use gridvo_core::{FormationScenario, Gsp};

/// Restrict `full` to the sub-pool `free` (global ids, ascending).
/// The returned scenario renumbers the survivors `0..free.len()`;
/// lift results back with `FormationOutcome::map_members(free)`.
/// `None` when the sub-pool cannot host the program (empty, or fewer
/// tasks than members — the instance restriction's feasibility
/// precondition).
pub fn free_scenario(full: &FormationScenario, free: &[usize]) -> Option<FormationScenario> {
    if free.iter().any(|&id| id >= full.gsp_count()) {
        return None;
    }
    let inst = full.instance_for(free)?;
    let trust = full.trust_for(free).ok()?;
    let gsps: Vec<Gsp> =
        free.iter().enumerate().map(|(k, &g)| Gsp::new(k, full.gsps()[g].speed_gflops)).collect();
    FormationScenario::new(gsps, trust, inst).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::reputation::ReputationEngine;
    use gridvo_core::{FormationConfig, Mechanism};
    use gridvo_solver::AssignmentInstance;
    use gridvo_trust::TrustGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario(m: usize) -> FormationScenario {
        let gsps: Vec<Gsp> = (0..m).map(|i| Gsp::new(i, 100.0 - 10.0 * i as f64)).collect();
        let mut trust = TrustGraph::new(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    trust.set_trust(i, j, 0.4 + 0.1 * ((i + j) % 3) as f64);
                }
            }
        }
        let tasks = 2 * m;
        let cost: Vec<f64> = (0..tasks * m).map(|k| 1.0 + (k % 7) as f64).collect();
        let time: Vec<f64> = (0..tasks * m).map(|k| 0.5 + (k % 5) as f64 * 0.3).collect();
        let inst = AssignmentInstance::new(tasks, m, cost, time, 50.0, 400.0).unwrap();
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    #[test]
    fn free_scenario_restricts_and_renumbers() {
        let full = scenario(5);
        let free = vec![0, 2, 4];
        let sub = free_scenario(&full, &free).unwrap();
        assert_eq!(sub.gsp_count(), 3);
        assert_eq!(sub.task_count(), full.task_count());
        // Local ids are 0..k; speeds carry over from the survivors.
        for (k, &g) in free.iter().enumerate() {
            assert_eq!(sub.gsps()[k].id, k);
            assert_eq!(sub.gsps()[k].speed_gflops, full.gsps()[g].speed_gflops);
        }
        // Trust edges restrict with the members.
        assert_eq!(sub.trust().trust(0, 1), full.trust().trust(0, 2));
        // Cost columns restrict with the members.
        assert_eq!(sub.instance().cost(1, 2), full.instance().cost(1, 4));
    }

    #[test]
    fn free_scenario_refuses_bad_subpools() {
        let full = scenario(4);
        assert!(free_scenario(&full, &[]).is_none());
        assert!(free_scenario(&full, &[0, 9]).is_none());
    }

    #[test]
    fn restricted_formation_lifts_to_global_ids() {
        // A formation over the sub-pool, lifted via map_members, must
        // select members drawn from the free set (global ids).
        let full = scenario(5);
        let free = vec![1, 2, 4];
        let sub = free_scenario(&full, &free).unwrap();
        let mechanism = Mechanism::tvof(FormationConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut outcome = mechanism.run(&sub, &mut rng).unwrap();
        outcome.map_members(&free);
        let selected = outcome.selected.expect("sub-pool formation is feasible");
        assert!(!selected.members.is_empty());
        assert!(selected.members.iter().all(|m| free.contains(m)));
    }

    #[test]
    fn reputation_engine_default_is_what_the_server_uses() {
        // Guard against free_scenario drifting from the registry's
        // scenario materialization: restricting the full pool to all
        // members must reproduce it exactly.
        let full = scenario(4);
        let all: Vec<usize> = (0..4).collect();
        let sub = free_scenario(&full, &all).unwrap();
        assert_eq!(
            sub.instance().canonical_hash(),
            full.instance().canonical_hash(),
            "identity restriction must preserve the instance"
        );
        assert_eq!(sub.trust().weight_matrix(), full.trust().weight_matrix());
        let _ = ReputationEngine::default();
    }
}
