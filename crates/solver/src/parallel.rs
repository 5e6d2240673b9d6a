//! Rayon-parallel branch-and-bound.
//!
//! The search tree is expanded breadth-first to a shallow frontier
//! (enough subtrees to keep every core busy), then each frontier node
//! runs the sequential [`Searcher`](crate::branch_bound) on its
//! subtree. Workers share one **global incumbent**: the best cost is an
//! `AtomicU64` holding the `f64` bit pattern (for non-negative floats,
//! the IEEE-754 total order coincides with integer order on the bits),
//! read lock-free for pruning, and the best assignment sits behind a
//! `parking_lot::Mutex`; an improvement updates both under that mutex,
//! so the cost never runs ahead of the assignment it belongs to.
//!
//! The result is deterministic in *value* (every worker proves bounds
//! against the same admissible relaxations) though not in *which*
//! optimal assignment is returned when several are tied.

use crate::bounds::BoundTables;
use crate::branch_bound::{
    gap_for, root_lower_bound, starting_incumbent, Budget, IncumbentSink, IncumbentSource,
    Searcher, SolveOutcome, SolveStatus, COST_EPS,
};
use crate::instance::AssignmentInstance;
use crate::solution::Assignment;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Configuration of the parallel branch-and-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelBranchBound {
    /// Per-subtree node budget (the global budget is roughly
    /// `frontier × max_nodes_per_subtree`; the frontier stops growing
    /// once it holds `4 × rayon::current_num_threads()` subproblems).
    pub max_nodes_per_subtree: u64,
    /// Start the shared incumbent from the heuristic seed
    /// ([`crate::heuristics::seed_incumbent`]).
    pub seed_incumbent: bool,
}

impl Default for ParallelBranchBound {
    fn default() -> Self {
        ParallelBranchBound { max_nodes_per_subtree: 50_000_000, seed_incumbent: true }
    }
}

/// Shared incumbent: lock-free cost + locked assignment.
struct SharedIncumbent {
    /// Bit pattern of the best cost (non-negative f64 ⇒ bit order =
    /// value order). Starts at the bits of `f64::INFINITY`.
    cost_bits: AtomicU64,
    best: Mutex<Option<Vec<usize>>>,
    truncated: AtomicBool,
}

impl SharedIncumbent {
    fn new() -> Self {
        SharedIncumbent {
            cost_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            best: Mutex::new(None),
            truncated: AtomicBool::new(false),
        }
    }
}

impl IncumbentSink for SharedIncumbent {
    fn best_cost(&self) -> f64 {
        f64::from_bits(self.cost_bits.load(Ordering::Acquire))
    }

    fn offer(&self, cost: f64, assignment: &[usize]) -> bool {
        debug_assert!(cost >= 0.0, "costs are non-negative by construction");
        let new_bits = cost.to_bits();
        if new_bits >= self.cost_bits.load(Ordering::Acquire) {
            return false; // someone already has an equal-or-better solution
        }
        // Cost and assignment change together under the lock: were the
        // cost published first, a slower worker could overwrite a
        // better assignment with its own after the cost had moved on.
        let mut best = self.best.lock();
        if new_bits >= self.cost_bits.load(Ordering::Acquire) {
            return false;
        }
        self.cost_bits.store(new_bits, Ordering::Release);
        *best = Some(assignment.to_vec());
        true
    }
}

impl ParallelBranchBound {
    /// Solve in parallel under `budget`, optionally seeded with a warm
    /// incumbent. Semantics match
    /// [`BranchBound::solve`](crate::branch_bound::BranchBound::solve):
    /// every subtree worker honors the shared wall-clock deadline, and
    /// the node cap applies per subtree (combined with
    /// `max_nodes_per_subtree`).
    pub fn solve(
        &self,
        inst: &AssignmentInstance,
        warm: Option<&Assignment>,
        budget: &Budget,
    ) -> SolveStatus {
        let tables = BoundTables::new(inst);
        let shared = SharedIncumbent::new();
        let mut seed_source = IncumbentSource::None;
        if let Some((seed, cost, source)) = starting_incumbent(inst, warm, self.seed_incumbent) {
            shared.offer(cost, seed.as_slice());
            seed_source = source;
        }
        let seed_cost = shared.best_cost();

        let frontier = build_frontier(inst, &tables, 4 * rayon::current_num_threads().max(1));

        let total_nodes = AtomicU64::new(0);
        let any_deadline_hit = AtomicBool::new(false);
        let subtree_budget = self.max_nodes_per_subtree.min(budget.max_nodes);
        let expired_at_entry = budget.expired();
        frontier.par_iter().for_each(|prefix| {
            let mut s = Searcher::new(inst, &tables, subtree_budget, Some(&shared));
            s.set_deadline(budget.deadline);
            // Adopt the global incumbent cost before starting.
            let g = shared.best_cost();
            if g.is_finite() {
                s.install_incumbent(Vec::new(), g); // cost-only incumbent
            }
            s.apply_prefix(prefix);
            if expired_at_entry {
                s.mark_deadline_hit();
            } else {
                s.dfs(prefix.len());
            }
            total_nodes.fetch_add(s.nodes(), Ordering::Relaxed);
            let (best, _, truncated, deadline_hit) = s.take_best();
            if truncated {
                shared.truncated.store(true, Ordering::Relaxed);
            }
            if deadline_hit {
                any_deadline_hit.store(true, Ordering::Relaxed);
            }
            if let Some((assign, cost)) = best {
                if !assign.is_empty() {
                    shared.offer(cost, &assign);
                }
            }
        });

        let nodes = total_nodes.load(Ordering::Relaxed);
        let truncated = shared.truncated.load(Ordering::Relaxed);
        let deadline_hit = any_deadline_hit.load(Ordering::Relaxed);
        let cost = shared.best_cost();
        let best = shared.best.lock().take();
        match best {
            Some(b) if cost <= inst.payment() + COST_EPS => {
                // offers only accept strict improvements, so a final
                // cost below the seeded one means a worker's search
                // produced the incumbent
                let source = if cost < seed_cost { IncumbentSource::Search } else { seed_source };
                let assignment = Assignment::new(b);
                // canonical task-order cost (see `Searcher::into_status`)
                let cost = assignment.total_cost(inst);
                let (lower_bound, gap) = if truncated {
                    // Root bounds are computed lazily, only when the
                    // search was actually cut short — the untruncated
                    // path stays byte-identical to the pre-budget one.
                    let lb = root_lower_bound(inst, &tables).min(cost);
                    (Some(lb), Some(gap_for(cost, lb)))
                } else {
                    (Some(cost), Some(0.0))
                };
                let outcome = SolveOutcome {
                    assignment,
                    cost,
                    optimal: !truncated,
                    nodes,
                    incumbent_source: source,
                    lower_bound,
                    gap,
                    deadline_hit,
                };
                if truncated {
                    SolveStatus::Feasible(outcome)
                } else {
                    SolveStatus::Optimal(outcome)
                }
            }
            _ => {
                if truncated {
                    SolveStatus::Unknown { nodes }
                } else {
                    SolveStatus::Infeasible { nodes }
                }
            }
        }
    }
}

/// Breadth-first expansion of the first few task levels into prefix
/// assignments (each prefix = the GSP choice per task in branch
/// order). Only prefixes that pass the same per-child feasibility
/// screens the DFS uses are kept, so no subtree is enumerated twice
/// and none is lost.
fn build_frontier(
    inst: &AssignmentInstance,
    tables: &BoundTables,
    target: usize,
) -> Vec<Vec<usize>> {
    let n = inst.tasks();
    let k = inst.gsps();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut depth = 0;
    while frontier.len() < target && depth < n && depth < 8 {
        let task = tables.order[depth];
        let mut next = Vec::with_capacity(frontier.len() * k);
        for prefix in &frontier {
            // Recompute loads/counts for this prefix (prefixes are tiny).
            let mut loads = vec![0.0; k];
            let mut counts = vec![0usize; k];
            let mut committed = 0.0;
            for (d, &g) in prefix.iter().enumerate() {
                let t = tables.order[d];
                loads[g] += inst.time(t, g);
                counts[g] += 1;
                committed += inst.cost(t, g);
            }
            let idle = counts.iter().filter(|&&c| c == 0).count();
            let remaining = n - depth;
            if remaining < idle {
                continue;
            }
            let must_cover = remaining == idle;
            for &g in tables.children(task, k) {
                let g = g as usize;
                if must_cover && counts[g] != 0 {
                    continue;
                }
                if loads[g] + inst.time(task, g) > inst.deadline() + 1e-9 {
                    continue;
                }
                if committed + inst.cost(task, g) + tables.suffix_min_cost[depth + 1]
                    > inst.payment() + COST_EPS
                {
                    break; // children cost-sorted
                }
                let mut child = prefix.clone();
                child.push(g);
                next.push(child);
            }
        }
        if next.is_empty() {
            // Every extension is infeasible: the prefixes themselves
            // are dead ends, but returning them lets the workers prove
            // that cheaply.
            return frontier;
        }
        frontier = next;
        depth += 1;
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::BranchBound;

    fn structured(n: usize, k: usize, d: f64, p: f64) -> AssignmentInstance {
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..k {
                cost.push(1.0 + ((t * 31 + g * 17) % 23) as f64);
                time.push(1.0 + ((t * 13 + g * 7) % 5) as f64);
            }
        }
        AssignmentInstance::new(n, k, cost, time, d, p).unwrap()
    }

    #[test]
    fn matches_sequential_optimum() {
        let i = structured(40, 5, 40.0, 1e6);
        let seq = BranchBound::default().solve(&i, None, &Budget::unlimited()).outcome().unwrap();
        let par =
            ParallelBranchBound::default().solve(&i, None, &Budget::unlimited()).outcome().unwrap();
        assert!(seq.optimal && par.optimal);
        assert!((seq.cost - par.cost).abs() < 1e-9, "{} vs {}", seq.cost, par.cost);
        par.assignment.check_feasible(&i).unwrap();
    }

    #[test]
    fn detects_infeasible() {
        let i = AssignmentInstance::new(2, 2, vec![10.0; 4], vec![1.0; 4], 10.0, 5.0).unwrap();
        match ParallelBranchBound::default().solve(&i, None, &Budget::unlimited()) {
            SolveStatus::Infeasible { .. } => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn tight_deadline_agreement() {
        let i = structured(24, 4, 12.0, 1e6);
        let seq = BranchBound::default().solve(&i, None, &Budget::unlimited());
        let par = ParallelBranchBound::default().solve(&i, None, &Budget::unlimited());
        match (seq, par) {
            (SolveStatus::Optimal(a), SolveStatus::Optimal(b)) => {
                assert!((a.cost - b.cost).abs() < 1e-9);
            }
            (SolveStatus::Infeasible { .. }, SolveStatus::Infeasible { .. }) => {}
            other => panic!("solvers disagree: {other:?}"),
        }
    }

    #[test]
    fn frontier_covers_whole_tree() {
        // With a huge target, the frontier expansion must not lose or
        // duplicate subtrees: verified indirectly by optimality above;
        // here check the frontier respects participation.
        let i = structured(6, 3, 100.0, 1e6);
        let tables = BoundTables::new(&i);
        let frontier = build_frontier(&i, &tables, 10_000);
        // all prefixes have the same depth and are distinct
        let depth = frontier[0].len();
        assert!(frontier.iter().all(|p| p.len() == depth));
        let mut sorted = frontier.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), frontier.len());
    }

    #[test]
    fn shared_incumbent_orders_costs_correctly() {
        let s = SharedIncumbent::new();
        assert!(s.best_cost().is_infinite());
        assert!(s.offer(10.0, &[0, 1]));
        assert!(!s.offer(11.0, &[1, 0]));
        assert!(!s.offer(10.0, &[1, 0])); // ties rejected
        assert!(s.offer(2.5, &[1, 1]));
        assert_eq!(s.best_cost(), 2.5);
        assert_eq!(s.best.lock().clone().unwrap(), vec![1, 1]);
    }
}
