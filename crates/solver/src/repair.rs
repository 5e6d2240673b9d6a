//! Assignment repair across eviction rounds — the warm-start half of
//! the incremental formation engine.
//!
//! Algorithm 1 shrinks the VO by exactly one GSP per round, so the
//! previous round's optimal assignment is *almost* feasible for the
//! next round: only the evicted GSP's tasks are orphaned. This module
//! greedily re-homes those orphans onto the survivors, producing a
//! feasible incumbent that upper-bounds the next IP — usually far
//! tighter than the heuristic seed, since it inherits an optimal
//! placement of every non-orphaned task.
//!
//! The repair is *best-effort*: it returns `None` whenever the greedy
//! re-homing violates any constraint (deadline, payment), and callers
//! ([`crate::branch_bound::BranchBound::solve`]'s `warm` argument) fall
//! back to the heuristic seed. Because a warm incumbent only tightens
//! the initial upper bound of an exact search, a failed (or suboptimal)
//! repair can never change the solved cost — only the node count.

use crate::instance::AssignmentInstance;
use crate::solution::Assignment;

/// Repair `prev` — a feasible assignment onto a VO of `inst.gsps() + 1`
/// members — after the member at local index `evicted` leaves.
///
/// `inst` is the *new* (restricted) instance over the survivors, whose
/// GSP columns are the previous columns with `evicted` removed (the
/// member order is otherwise preserved, matching
/// `FormationScenario::instance_for` after `Vec::retain`). Survivors
/// keep their tasks; each orphaned task moves to the survivor that can
/// take it within the deadline at the lowest cost, largest-first so the
/// hardest-to-place orphans see the most slack.
///
/// Returns `None` when `prev` does not match the expected shape or when
/// the greedy re-homing cannot produce a fully feasible assignment.
pub fn repair_after_eviction(
    prev: &Assignment,
    evicted: usize,
    inst: &AssignmentInstance,
) -> Option<Assignment> {
    let k = inst.gsps();
    if prev.len() != inst.tasks() || evicted > k {
        return None; // shape mismatch: prev must cover k + 1 GSPs
    }
    let d = inst.deadline();
    let mut gsp_of = vec![usize::MAX; inst.tasks()];
    let mut loads = vec![0.0f64; k];
    let mut orphans: Vec<usize> = Vec::new();
    for (t, &g) in prev.as_slice().iter().enumerate() {
        if g == evicted {
            orphans.push(t);
            continue;
        }
        if g > k {
            return None; // prev referenced a GSP beyond the old VO
        }
        let g = if g > evicted { g - 1 } else { g };
        gsp_of[t] = g;
        loads[g] += inst.time(t, g);
    }
    // Largest orphans first (by their fastest possible execution time):
    // they constrain the packing most, so place them while slack lasts.
    let min_time = |t: usize| (0..k).map(|g| inst.time(t, g)).fold(f64::INFINITY, f64::min);
    orphans.sort_by(|&a, &b| min_time(b).total_cmp(&min_time(a)));
    for t in orphans {
        let mut best: Option<(usize, f64)> = None;
        #[allow(clippy::needless_range_loop)] // g indexes loads and the instance
        for g in 0..k {
            if loads[g] + inst.time(t, g) > d {
                continue;
            }
            let c = inst.cost(t, g);
            if best.is_none_or(|(_, bc)| c < bc) {
                best = Some((g, c));
            }
        }
        let (g, _) = best?;
        gsp_of[t] = g;
        loads[g] += inst.time(t, g);
    }
    // Participation holds automatically when every survivor already had
    // a task; the full audit also enforces the payment cap (10).
    let a = Assignment::new(gsp_of);
    a.is_feasible(inst).then_some(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 tasks × 3 GSPs with distinct costs; loose constraints.
    fn inst3() -> AssignmentInstance {
        AssignmentInstance::new(
            4,
            3,
            vec![
                1.0, 2.0, 3.0, //
                2.0, 1.0, 3.0, //
                3.0, 2.0, 1.0, //
                1.0, 3.0, 2.0,
            ],
            vec![1.0; 12],
            10.0,
            100.0,
        )
        .unwrap()
    }

    fn drop_column(inst: &AssignmentInstance, evicted: usize) -> AssignmentInstance {
        let keep: Vec<usize> = (0..inst.gsps()).filter(|&g| g != evicted).collect();
        inst.restrict_gsps(&keep).unwrap()
    }

    #[test]
    fn repaired_incumbent_is_feasible_when_slack_exists() {
        let full = inst3();
        // optimal-ish assignment using all three GSPs
        let prev = Assignment::new(vec![0, 1, 2, 0]);
        prev.check_feasible(&full).unwrap();
        for evicted in 0..3 {
            let sub = drop_column(&full, evicted);
            let repaired = repair_after_eviction(&prev, evicted, &sub)
                .unwrap_or_else(|| panic!("evicting {evicted} leaves plenty of slack"));
            repaired.check_feasible(&sub).unwrap();
            // survivors keep their tasks
            for (t, &g_old) in prev.as_slice().iter().enumerate() {
                if g_old == evicted {
                    continue;
                }
                let g_new = if g_old > evicted { g_old - 1 } else { g_old };
                assert_eq!(repaired.gsp_of(t), g_new, "survivor task {t} moved");
            }
        }
    }

    #[test]
    fn orphans_go_to_the_cheapest_feasible_survivor() {
        let full = inst3();
        let prev = Assignment::new(vec![0, 1, 2, 0]);
        // evict GSP 2: task 2 (cost row [3, 2, 1]) is orphaned and must
        // land on survivor 1 (cost 2 < 3).
        let sub = drop_column(&full, 2);
        let repaired = repair_after_eviction(&prev, 2, &sub).unwrap();
        assert_eq!(repaired.gsp_of(2), 1);
    }

    #[test]
    fn deadline_pressure_makes_repair_degrade_to_none() {
        // Two GSPs, each exactly full at the deadline; evicting either
        // leaves no room for its orphans.
        let full = AssignmentInstance::new(
            2,
            2,
            vec![1.0, 1.0, 1.0, 1.0],
            vec![2.0, 2.0, 2.0, 2.0],
            2.0,
            100.0,
        )
        .unwrap();
        let prev = Assignment::new(vec![0, 1]);
        prev.check_feasible(&full).unwrap();
        let sub = drop_column(&full, 1);
        assert!(repair_after_eviction(&prev, 1, &sub).is_none());
    }

    #[test]
    fn payment_pressure_makes_repair_degrade_to_none() {
        // Orphan re-homing is time-feasible but busts the payment cap.
        let full =
            AssignmentInstance::new(2, 2, vec![1.0, 50.0, 50.0, 1.0], vec![1.0; 4], 10.0, 52.0)
                .unwrap();
        let prev = Assignment::new(vec![0, 1]); // cost 2
        prev.check_feasible(&full).unwrap();
        // evict GSP 0: both tasks must run on survivor 1 → cost 51 ≤ 52
        let sub = drop_column(&full, 0);
        let ok = repair_after_eviction(&prev, 0, &sub).unwrap();
        assert!((ok.total_cost(&sub) - 51.0).abs() < 1e-12);
        // tighten the payment below 51: repair must give up
        let tight =
            AssignmentInstance::new(2, 1, vec![50.0, 1.0], vec![1.0; 2], 10.0, 40.0).unwrap();
        assert!(repair_after_eviction(&prev, 0, &tight).is_none());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let sub = drop_column(&inst3(), 0);
        // wrong task count
        assert!(repair_after_eviction(&Assignment::new(vec![0, 1]), 0, &sub).is_none());
        // evicted index beyond the old VO (old VO had 3 GSPs → 0..=2)
        let prev = Assignment::new(vec![0, 1, 0, 1]);
        assert!(repair_after_eviction(&prev, 3, &sub).is_none());
        // prev references a GSP the old VO never had
        let bad = Assignment::new(vec![0, 1, 5, 1]);
        assert!(repair_after_eviction(&bad, 0, &sub).is_none());
    }

    #[test]
    fn solver_falls_back_to_heuristic_seed_on_failed_repair() {
        use crate::branch_bound::{BranchBound, Budget, IncumbentSource};
        let full = inst3();
        let sub = drop_column(&full, 2);
        // A deliberately infeasible warm assignment (idle GSP): the
        // solver must ignore it and still solve to optimality.
        let bogus = Assignment::new(vec![0, 0, 0, 0]);
        let unlimited = Budget::unlimited();
        let cold = BranchBound::default().solve(&sub, None, &unlimited).outcome().unwrap();
        let warm = BranchBound::default().solve(&sub, Some(&bogus), &unlimited).outcome().unwrap();
        assert_eq!(cold.cost, warm.cost);
        assert!(warm.optimal);
        assert_ne!(warm.incumbent_source, IncumbentSource::Warm);
    }

    #[test]
    fn good_repair_seeds_the_solver_and_never_changes_the_optimum() {
        use crate::branch_bound::{BranchBound, Budget};
        let solve = |inst: &AssignmentInstance, warm: Option<&Assignment>| {
            BranchBound::default().solve(inst, warm, &Budget::unlimited()).outcome().unwrap()
        };
        let full = inst3();
        let opt_full = solve(&full, None);
        for evicted in 0..3 {
            let sub = drop_column(&full, evicted);
            let warm = repair_after_eviction(&opt_full.assignment, evicted, &sub);
            let cold = solve(&sub, None);
            let seeded = solve(&sub, warm.as_ref());
            assert!((cold.cost - seeded.cost).abs() < 1e-9);
            assert!(seeded.nodes <= cold.nodes, "warm start expanded more nodes");
        }
    }
}
