//! Exact branch-and-bound for the task-assignment IP (the "IP-B&B" of
//! Algorithm 1).
//!
//! Depth-first search over tasks in decreasing-size order; children
//! (GSP choices) expanded cheapest-first. Admissible pruning via
//! [`crate::bounds::BoundTables`]:
//!
//! * cost lower bound (incl. idle-GSP participation penalty) against
//!   the incumbent and the payment cap;
//! * aggregate deadline-slack infeasibility;
//! * per-child deadline check;
//! * participation counting (remaining tasks ≥ idle GSPs; when equal,
//!   branch only to idle GSPs).
//!
//! Because children are cost-sorted, the per-child cost bound allows a
//! `break` (all later children are costlier), which is what makes the
//! search close instantly on instances where constraints do not bind.
//!
//! The search is exact; a configurable node budget and an optional
//! wall-clock deadline (see [`Budget`]) turn it into an anytime
//! algorithm, with [`SolveOutcome::optimal`] reporting whether the
//! tree was exhausted and [`SolveOutcome::gap`] bounding how far the
//! returned incumbent can be from the optimum.

use std::time::Instant;

use crate::bounds::BoundTables;
use crate::heuristics;
use crate::instance::AssignmentInstance;
use crate::solution::Assignment;

/// Absolute cost tolerance used when comparing bounds to incumbents.
pub(crate) const COST_EPS: f64 = 1e-9;

/// How many nodes are expanded between wall-clock deadline checks (and
/// shared-incumbent syncs in parallel mode). This is the granularity
/// of the anytime guarantee: a deadline overrun is bounded by the time
/// it takes to expand this many nodes (microseconds-to-milliseconds).
const CHECK_INTERVAL: u64 = 1024;

/// A shared anytime budget for one solve: an optional absolute
/// wall-clock deadline and a node cap. The deadline is checked every
/// [`CHECK_INTERVAL`] nodes; when either limit trips, the search
/// returns its best incumbent so far (flagged non-optimal, with an
/// optimality gap attached) instead of running to exhaustion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Absolute instant after which the search must stop. `None`
    /// disables the wall-clock limit.
    pub deadline: Option<Instant>,
    /// Node cap for this solve, combined (min) with the solver's own
    /// configured cap. `u64::MAX` disables it.
    pub max_nodes: u64,
}

impl Budget {
    /// No limits: the solve runs to proven optimality or exhaustion of
    /// the solver's own configured node cap.
    pub fn unlimited() -> Self {
        Budget { deadline: None, max_nodes: u64::MAX }
    }

    /// A wall-clock-only budget expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget { deadline: Some(deadline), max_nodes: u64::MAX }
    }

    /// True when the wall-clock deadline has already passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Configuration of the exact branch-and-bound solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBound {
    /// Maximum number of search-tree nodes to expand before returning
    /// the best incumbent found so far (anytime mode). The default is
    /// large enough that every instance in the paper's parameter range
    /// solves to proven optimality.
    pub max_nodes: u64,
    /// Start the search from the heuristic seed
    /// ([`heuristics::seed_incumbent`]; strongly recommended, disable
    /// only to measure its effect in ablations).
    pub seed_incumbent: bool,
}

impl Default for BranchBound {
    fn default() -> Self {
        BranchBound { max_nodes: 50_000_000, seed_incumbent: true }
    }
}

/// Where the final incumbent of a solve came from — telemetry for the
/// incremental formation engine (warm starts across eviction rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// No incumbent was ever installed (unreachable in a feasible
    /// outcome; the initial value before seeding).
    None,
    /// The heuristic seed survived the whole search.
    Heuristic,
    /// A warm-start incumbent (e.g. the previous eviction round's
    /// repaired optimum) survived the whole search.
    Warm,
    /// The tree search found a strictly better solution than any seed.
    Search,
}

impl IncumbentSource {
    /// Stable lowercase label for traces and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            IncumbentSource::None => "none",
            IncumbentSource::Heuristic => "heuristic",
            IncumbentSource::Warm => "warm",
            IncumbentSource::Search => "search",
        }
    }
}

/// Result of a completed (or budget-truncated) solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The best feasible assignment found.
    pub assignment: Assignment,
    /// Its total cost (the IP objective, eq. (9)), recomputed in
    /// canonical task order so equal assignments report bit-identical
    /// costs regardless of the search path that produced them.
    pub cost: f64,
    /// True when the search tree was exhausted, proving optimality.
    /// False when the node budget truncated the search.
    pub optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
    /// Which seed (or the search itself) produced the final incumbent.
    pub incumbent_source: IncumbentSource,
    /// Best proven lower bound on the optimum. Equals `cost` when
    /// `optimal`; on a truncated solve it is the root relaxation bound
    /// (max of the Hungarian participation bound, the Lagrangian dual
    /// and the per-task cost bound), clamped to `≤ cost`.
    pub lower_bound: Option<f64>,
    /// Relative optimality gap `(cost − lower_bound) / cost`, in
    /// `[0, 1]`. `Some(0.0)` when proven optimal.
    pub gap: Option<f64>,
    /// True when the solve was cut short by a wall-clock deadline
    /// (rather than completing or exhausting a node cap). Deadline
    /// truncation is wall-clock-dependent, hence not reproducible —
    /// callers must not cache such results.
    pub deadline_hit: bool,
}

/// Detailed solve status, distinguishing proven infeasibility from a
/// budget-truncated search that found nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveStatus {
    /// Optimal solution found and proven.
    Optimal(SolveOutcome),
    /// Feasible solution found, but the node budget expired before the
    /// proof of optimality completed.
    Feasible(SolveOutcome),
    /// Search exhausted: the IP has no feasible solution. TVOF reads
    /// this as "this VO cannot execute the program".
    Infeasible {
        /// Nodes expanded during the proof.
        nodes: u64,
    },
    /// Budget expired with no feasible solution found; feasibility is
    /// unknown.
    Unknown {
        /// Nodes expanded before giving up.
        nodes: u64,
    },
}

impl SolveStatus {
    /// The assignment found, proven optimal or not; `None` when the
    /// search found nothing (proven [`SolveStatus::Infeasible`] or
    /// budget-[`SolveStatus::Unknown`]).
    pub fn outcome(self) -> Option<SolveOutcome> {
        match self {
            SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => Some(o),
            SolveStatus::Infeasible { .. } | SolveStatus::Unknown { .. } => None,
        }
    }
}

impl BranchBound {
    /// Solve under `budget`, optionally seeded with a caller-supplied
    /// warm incumbent (e.g. the previous eviction round's repaired
    /// optimum). An infeasible or wrong-shaped warm assignment is
    /// silently ignored, so callers can pass whatever the repair
    /// produced without pre-validating.
    ///
    /// The search stops at `budget.deadline` / after `budget.max_nodes`
    /// nodes (combined with the solver's own `max_nodes`), returning
    /// the best incumbent found so far with an optimality gap. The
    /// warm incumbent only tightens the initial upper bound, so the
    /// returned *cost* of an untruncated solve is identical to a cold
    /// one; only the node count (and possibly which of several
    /// cost-tied optimal assignments is returned) can differ.
    pub fn solve(
        &self,
        inst: &AssignmentInstance,
        warm: Option<&Assignment>,
        budget: &Budget,
    ) -> SolveStatus {
        // Root cut: the Hungarian participation bound (matching of
        // distinct representative tasks onto GSPs) dominates the
        // per-node bound. It can prove infeasibility against the
        // payment cap, or prove a seeded incumbent optimal, before any
        // tree search.
        let root_bound = crate::hungarian::participation_bound(inst);
        if root_bound > inst.payment() + COST_EPS {
            return SolveStatus::Infeasible { nodes: 0 };
        }
        let seed = starting_incumbent(inst, warm, self.seed_incumbent);
        let tables = BoundTables::new(inst);
        let mut search = Searcher::new(inst, &tables, self.max_nodes.min(budget.max_nodes), None);
        search.set_deadline(budget.deadline);
        if let Some((assignment, cost, source)) = seed {
            if cost <= root_bound + COST_EPS {
                // the seed met the lower bound: proven optimal
                return SolveStatus::Optimal(SolveOutcome {
                    assignment,
                    cost,
                    optimal: true,
                    nodes: 0,
                    incumbent_source: source,
                    lower_bound: Some(cost),
                    gap: Some(0.0),
                    deadline_hit: false,
                });
            }
            search.install_incumbent_from(assignment.as_slice().to_vec(), cost, source);
        }
        if budget.expired() {
            // The deadline passed before the tree search could start:
            // return the seed (if any) as the anytime incumbent.
            search.mark_deadline_hit();
        } else {
            search.dfs(0);
        }
        search.into_status()
    }
}

/// The incumbent an exact search starts from: the warm assignment
/// (validated against the full constraint set) or the heuristic seed
/// (when `heuristic` is set), whichever is cheaper. The warm one wins
/// only when strictly cheaper, so a tie keeps the cold-run labeling.
pub(crate) fn starting_incumbent(
    inst: &AssignmentInstance,
    warm: Option<&Assignment>,
    heuristic: bool,
) -> Option<(Assignment, f64, IncumbentSource)> {
    let warm = warm.filter(|a| a.is_feasible(inst)).map(|a| (a.clone(), a.total_cost(inst)));
    let heur = heuristic.then(|| heuristics::seed_incumbent(inst)).flatten().map(|a| {
        let cost = a.total_cost(inst);
        (a, cost)
    });
    match (warm, heur) {
        (Some((wa, wc)), Some((_, hc))) if wc < hc => Some((wa, wc, IncumbentSource::Warm)),
        (_, Some((ha, hc))) => Some((ha, hc, IncumbentSource::Heuristic)),
        (Some((wa, wc)), None) => Some((wa, wc, IncumbentSource::Warm)),
        (None, None) => None,
    }
}

/// Best proven root lower bound for `inst`: the max of the Hungarian
/// participation bound, the Lagrangian dual and the per-task cost
/// bound (all admissible). Used to attach an optimality gap to
/// truncated solves.
pub(crate) fn root_lower_bound(inst: &AssignmentInstance, tables: &BoundTables) -> f64 {
    let k = inst.gsps();
    let mut lb = tables.cost_lower_bound(0, 0.0, &vec![0usize; k]);
    if tables.has_mu {
        lb = lb.max(tables.lagrangian_lower_bound(0, 0.0, &vec![0.0; k], inst.deadline()));
    }
    lb.max(crate::hungarian::participation_bound(inst))
}

/// Relative optimality gap `(cost − lb) / cost`, clamped to `[0, 1]`.
pub(crate) fn gap_for(cost: f64, lower_bound: f64) -> f64 {
    if cost.abs() <= COST_EPS {
        0.0
    } else {
        ((cost - lower_bound) / cost).clamp(0.0, 1.0)
    }
}

/// Shared incumbent handle used by the parallel solver; the sequential
/// path passes `None`. See [`crate::parallel`].
pub(crate) trait IncumbentSink: Sync {
    /// Current global best cost (may be better than the local one).
    fn best_cost(&self) -> f64;
    /// Offer an improving solution; returns true if accepted.
    fn offer(&self, cost: f64, assignment: &[usize]) -> bool;
}

pub(crate) struct Searcher<'a> {
    inst: &'a AssignmentInstance,
    tables: &'a BoundTables,
    // search state
    chosen: Vec<usize>, // by depth: gsp chosen for tables.order[depth]
    loads: Vec<f64>,
    counts: Vec<usize>,
    idle: usize,
    /// Bit per GSP, set while the GSP has no task — mirrors
    /// `counts[g] == 0` for the mask-based coverage prune.
    idle_mask: Vec<u64>,
    committed: f64,
    // incumbent
    best_cost: f64,
    /// True once `best_cost` reflects a real feasible solution (local
    /// or global) rather than the initial payment cap.
    have_incumbent: bool,
    best: Option<Vec<usize>>, // task-indexed
    // accounting
    nodes: u64,
    budget: u64,
    deadline: Option<Instant>,
    truncated: bool,
    deadline_hit: bool,
    source: IncumbentSource,
    shared: Option<&'a dyn IncumbentSink>,
}

impl<'a> Searcher<'a> {
    pub(crate) fn new(
        inst: &'a AssignmentInstance,
        tables: &'a BoundTables,
        budget: u64,
        shared: Option<&'a dyn IncumbentSink>,
    ) -> Self {
        let k = inst.gsps();
        let mut idle_mask = vec![0u64; tables.words];
        for g in 0..k {
            idle_mask[g / 64] |= 1u64 << (g % 64);
        }
        Searcher {
            inst,
            tables,
            chosen: vec![usize::MAX; inst.tasks()],
            loads: vec![0.0; k],
            counts: vec![0; k],
            idle: k,
            idle_mask,
            // the payment cap is the initial "incumbent": nothing more
            // expensive can ever be feasible (constraint (10))
            committed: 0.0,
            best_cost: inst.payment() + COST_EPS,
            have_incumbent: false,
            best: None,
            nodes: 0,
            budget,
            deadline: None,
            truncated: false,
            deadline_hit: false,
            source: IncumbentSource::None,
            shared,
        }
    }

    /// Arm the wall-clock deadline (checked every [`CHECK_INTERVAL`]
    /// nodes).
    pub(crate) fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Record that the wall-clock budget expired; the current best
    /// incumbent (if any) becomes the anytime answer.
    pub(crate) fn mark_deadline_hit(&mut self) {
        self.truncated = true;
        self.deadline_hit = true;
    }

    /// Pre-load a known feasible solution as the incumbent.
    pub(crate) fn install_incumbent(&mut self, task_to_gsp: Vec<usize>, cost: f64) {
        if cost < self.best_cost {
            self.best_cost = cost;
            self.have_incumbent = true;
            self.best = Some(task_to_gsp);
        }
    }

    /// [`Searcher::install_incumbent`], also recording where the seed
    /// came from for telemetry.
    pub(crate) fn install_incumbent_from(
        &mut self,
        task_to_gsp: Vec<usize>,
        cost: f64,
        source: IncumbentSource,
    ) {
        if cost < self.best_cost {
            self.source = source;
        }
        self.install_incumbent(task_to_gsp, cost);
    }

    /// Seed the search state to start from a partial prefix assignment
    /// (used by the parallel driver to hand out subtrees).
    pub(crate) fn apply_prefix(&mut self, prefix: &[usize]) {
        for (depth, &g) in prefix.iter().enumerate() {
            let task = self.tables.order[depth];
            self.chosen[depth] = g;
            self.loads[g] += self.inst.time(task, g);
            if self.counts[g] == 0 {
                self.idle -= 1;
                self.idle_mask[g / 64] &= !(1u64 << (g % 64));
            }
            self.counts[g] += 1;
            self.committed += self.inst.cost(task, g);
        }
    }

    #[inline]
    fn sync_shared(&mut self) {
        if let Some(s) = self.shared {
            let g = s.best_cost();
            if g < self.best_cost {
                self.best_cost = g;
                self.have_incumbent = true;
                // We do not copy the global assignment; local `best`
                // only tracks solutions found in this subtree. The
                // driver keeps the global one.
            }
        }
    }

    pub(crate) fn dfs(&mut self, depth: usize) {
        if self.truncated {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.budget {
            self.truncated = true;
            return;
        }
        // Periodic bookkeeping: wall-clock deadline check and (in
        // parallel mode) a pull of the global incumbent.
        if self.nodes.is_multiple_of(CHECK_INTERVAL) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.mark_deadline_hit();
                    return;
                }
            }
            if self.shared.is_some() {
                self.sync_shared();
            }
        }
        let n = self.inst.tasks();
        if depth == n {
            // Leaf: constraints were maintained incrementally.
            let cost = self.committed;
            if cost < self.best_cost - COST_EPS || (!self.have_incumbent && cost <= self.best_cost)
            {
                let mut task_to_gsp = vec![0usize; n];
                for (d, &g) in self.chosen.iter().enumerate() {
                    task_to_gsp[self.tables.order[d]] = g;
                }
                if let Some(s) = self.shared {
                    s.offer(cost, &task_to_gsp);
                }
                self.best_cost = cost;
                self.have_incumbent = true;
                self.best = Some(task_to_gsp);
                self.source = IncumbentSource::Search;
            }
            return;
        }

        // Node-level prunes.
        if self.have_incumbent
            && self.tables.cost_lower_bound(depth, self.committed, &self.counts)
                >= self.best_cost - COST_EPS
        {
            return;
        }
        if self.committed + self.tables.suffix_min_cost[depth] > self.inst.payment() + COST_EPS {
            return;
        }
        // Lagrangian bound: admissible for any μ ≥ 0, and in the
        // deadline-bound regime often far above the plain cost bound.
        // Skipped when all multipliers are zero (it then degenerates
        // to a bound the checks above already dominate).
        if self.tables.has_mu {
            let lag = self.tables.lagrangian_lower_bound(
                depth,
                self.committed,
                &self.loads,
                self.inst.deadline(),
            );
            if (self.have_incumbent && lag >= self.best_cost - COST_EPS)
                || lag > self.inst.payment() + COST_EPS
            {
                return;
            }
        }
        if self.tables.time_infeasible(depth, &self.loads, self.inst.deadline()) {
            return;
        }
        let remaining = n - depth;
        if remaining < self.idle {
            return; // participation (13) can no longer be satisfied
        }
        // Mask-based coverage: an idle GSP no remaining task can reach
        // within the deadline makes participation unsatisfiable.
        if self.idle > 0 && self.tables.idle_uncoverable(depth, &self.idle_mask) {
            return;
        }
        let must_cover = remaining == self.idle;

        let task = self.tables.order[depth];
        let k = self.inst.gsps();
        let deadline = self.inst.deadline();
        for gi in 0..k {
            let g = self.tables.children(task, k)[gi] as usize;
            if must_cover && self.counts[g] != 0 {
                continue;
            }
            let dc = self.inst.cost(task, g);
            // Children are cost-sorted: once the optimistic completion
            // exceeds the incumbent, every later child does too.
            let optimistic = self.committed + dc + self.tables.suffix_min_cost[depth + 1];
            if self.have_incumbent && optimistic >= self.best_cost - COST_EPS {
                break;
            }
            if optimistic > self.inst.payment() + COST_EPS {
                break; // payment cap (10): later children cost even more
            }
            let dt = self.inst.time(task, g);
            if self.loads[g] + dt > deadline + 1e-9 {
                continue;
            }
            // Apply.
            self.chosen[depth] = g;
            self.loads[g] += dt;
            if self.counts[g] == 0 {
                self.idle -= 1;
                self.idle_mask[g / 64] &= !(1u64 << (g % 64));
            }
            self.counts[g] += 1;
            self.committed += dc;

            self.dfs(depth + 1);

            // Undo.
            self.committed -= dc;
            self.counts[g] -= 1;
            if self.counts[g] == 0 {
                self.idle += 1;
                self.idle_mask[g / 64] |= 1u64 << (g % 64);
            }
            self.loads[g] -= dt;
            self.chosen[depth] = usize::MAX;
            if self.truncated {
                return;
            }
        }
    }

    pub(crate) fn nodes(&self) -> u64 {
        self.nodes
    }

    pub(crate) fn take_best(self) -> (Option<(Vec<usize>, f64)>, u64, bool, bool) {
        let Searcher { best, best_cost, nodes, truncated, deadline_hit, .. } = self;
        (best.map(|b| (b, best_cost)), nodes, truncated, deadline_hit)
    }

    fn into_status(self) -> SolveStatus {
        let truncated = self.truncated;
        let deadline_hit = self.deadline_hit;
        let nodes = self.nodes;
        match self.best {
            Some(b) => {
                let assignment = Assignment::new(b);
                // Canonical cost: re-sum in task order so the same
                // assignment reports the same bits whether it arrived
                // via a seed or a search leaf (whose `committed` sums
                // in branch order).
                let cost = assignment.total_cost(self.inst);
                let (lower_bound, gap) = if truncated {
                    let lb = root_lower_bound(self.inst, self.tables).min(cost);
                    (Some(lb), Some(gap_for(cost, lb)))
                } else {
                    (Some(cost), Some(0.0))
                };
                let outcome = SolveOutcome {
                    assignment,
                    cost,
                    optimal: !truncated,
                    nodes,
                    incumbent_source: self.source,
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
            None => {
                if truncated {
                    SolveStatus::Unknown { nodes }
                } else {
                    SolveStatus::Infeasible { nodes }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(bb: BranchBound, inst: &AssignmentInstance) -> Option<SolveOutcome> {
        bb.solve(inst, None, &Budget::unlimited()).outcome()
    }

    fn inst(
        tasks: usize,
        gsps: usize,
        cost: Vec<f64>,
        time: Vec<f64>,
        d: f64,
        p: f64,
    ) -> AssignmentInstance {
        AssignmentInstance::new(tasks, gsps, cost, time, d, p).unwrap()
    }

    #[test]
    fn unconstrained_optimum_is_min_cost_with_participation() {
        // loose deadline and payment: optimum = min cost per task,
        // subject to both GSPs being used.
        let i = inst(3, 2, vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0], vec![1.0; 6], 100.0, 100.0);
        let o = solve(BranchBound::default(), &i).unwrap();
        assert!(o.optimal);
        assert_eq!(o.cost, 4.0); // 0→G0 (1), 1→G1 (1), 2→G1 (2)
        o.assignment.check_feasible(&i).unwrap();
    }

    #[test]
    fn deadline_forces_costlier_split() {
        // Cheapest GSP can only hold one task by time.
        let i = inst(2, 2, vec![1.0, 10.0, 1.0, 10.0], vec![5.0, 1.0, 5.0, 1.0], 6.0, 100.0);
        let o = solve(BranchBound::default(), &i).unwrap();
        // one task on each GSP: cost 1 + 10 = 11
        assert_eq!(o.cost, 11.0);
        assert!(o.optimal);
    }

    #[test]
    fn payment_cap_proves_infeasible() {
        let i = inst(2, 2, vec![10.0; 4], vec![1.0; 4], 10.0, 5.0);
        match BranchBound::default().solve(&i, None, &Budget::unlimited()) {
            SolveStatus::Infeasible { .. } => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn deadline_proves_infeasible() {
        let i = inst(3, 2, vec![1.0; 6], vec![10.0; 6], 5.0, 100.0);
        assert!(solve(BranchBound::default(), &i).is_none());
    }

    #[test]
    fn solution_exactly_at_payment_is_accepted() {
        let i = inst(2, 2, vec![3.0, 3.0, 3.0, 3.0], vec![1.0; 4], 10.0, 6.0);
        let o = solve(BranchBound::default(), &i).expect("cost 6 == payment 6 is feasible");
        assert_eq!(o.cost, 6.0);
    }

    #[test]
    fn budget_truncation_reports_nonoptimal_or_unknown() {
        // An instance whose tree needs more than 1 node.
        let i =
            inst(4, 2, vec![1.0, 2.0, 2.0, 1.0, 1.5, 1.5, 2.0, 1.0], vec![1.0; 8], 100.0, 100.0);
        let bb = BranchBound { max_nodes: 1, seed_incumbent: false };
        match bb.solve(&i, None, &Budget::unlimited()) {
            SolveStatus::Feasible(o) => assert!(!o.optimal),
            SolveStatus::Unknown { .. } => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn seeding_never_changes_the_optimum() {
        let i = inst(
            5,
            3,
            vec![
                3.0, 1.0, 2.0, //
                1.0, 2.0, 3.0, //
                2.0, 3.0, 1.0, //
                1.0, 1.0, 4.0, //
                2.0, 2.0, 2.0,
            ],
            vec![1.0; 15],
            3.0,
            100.0,
        );
        let with = solve(BranchBound { seed_incumbent: true, ..Default::default() }, &i).unwrap();
        let without =
            solve(BranchBound { seed_incumbent: false, ..Default::default() }, &i).unwrap();
        assert_eq!(with.cost, without.cost);
        assert!(with.optimal && without.optimal);
    }

    #[test]
    fn participation_forces_every_gsp_used() {
        // GSP 2 is wildly expensive but must still get a task.
        let i = inst(
            3,
            3,
            vec![1.0, 1.0, 50.0, 1.0, 1.0, 50.0, 1.0, 1.0, 50.0],
            vec![1.0; 9],
            10.0,
            100.0,
        );
        let o = solve(BranchBound::default(), &i).unwrap();
        assert_eq!(o.cost, 52.0);
        assert_eq!(o.assignment.task_counts(&i), vec![1, 1, 1]);
    }

    #[test]
    fn single_gsp_takes_everything() {
        let i = inst(3, 1, vec![2.0, 3.0, 4.0], vec![1.0, 1.0, 1.0], 3.0, 100.0);
        let o = solve(BranchBound::default(), &i).unwrap();
        assert_eq!(o.cost, 9.0);
        assert_eq!(o.assignment.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn equal_tasks_and_gsps_is_a_matching() {
        // 3 tasks, 3 GSPs: each gets exactly one; optimum is the
        // min-cost perfect matching (here the diagonal = 3).
        let i = inst(
            3,
            3,
            vec![1.0, 9.0, 9.0, 9.0, 1.0, 9.0, 9.0, 9.0, 1.0],
            vec![1.0; 9],
            10.0,
            100.0,
        );
        let o = solve(BranchBound::default(), &i).unwrap();
        assert_eq!(o.cost, 3.0);
        let counts = o.assignment.task_counts(&i);
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_plain_solve() {
        let i = inst(
            5,
            3,
            vec![
                3.0, 1.0, 2.0, //
                1.0, 2.0, 3.0, //
                2.0, 3.0, 1.0, //
                1.0, 1.0, 4.0, //
                2.0, 2.0, 2.0,
            ],
            vec![1.0; 15],
            3.0,
            100.0,
        );
        // The budget's node cap combines (min) with the solver's own,
        // so "unlimited" is exactly the plain configured solve.
        let bb = BranchBound { max_nodes: 6, ..Default::default() };
        let own_cap = Budget { deadline: None, max_nodes: bb.max_nodes };
        assert_eq!(
            bb.solve(&i, None, &Budget::unlimited()),
            bb.solve(&i, None, &own_cap),
            "an unlimited budget must add no limit of its own"
        );
    }

    #[test]
    fn expired_deadline_returns_seed_as_anytime_incumbent() {
        let i = inst(3, 2, vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0], vec![1.0; 6], 100.0, 100.0);
        // A deadline in the past: no tree search, but the heuristic
        // seed still yields a feasible anytime answer with a gap.
        let budget = Budget::with_deadline(Instant::now());
        match BranchBound::default().solve(&i, None, &budget) {
            SolveStatus::Feasible(o) => {
                assert!(!o.optimal);
                assert!(o.deadline_hit);
                let lb = o.lower_bound.expect("truncated solve carries a bound");
                let gap = o.gap.expect("truncated solve carries a gap");
                assert!(lb <= o.cost + 1e-12);
                assert!((0.0..=1.0).contains(&gap));
                o.assignment.check_feasible(&i).unwrap();
            }
            // The seed can also prove optimality against the root
            // bound before the deadline check — equally acceptable.
            SolveStatus::Optimal(o) => assert!(o.optimal),
            other => panic!("expected an anytime incumbent, got {other:?}"),
        }
    }

    #[test]
    fn gap_brackets_the_true_optimum_under_a_node_budget() {
        let i =
            inst(4, 2, vec![2.0, 3.0, 3.0, 2.0, 2.5, 2.6, 3.0, 2.0], vec![1.0; 8], 100.0, 100.0);
        let (_, opt) = crate::brute::solve(&i).unwrap().expect("feasible");
        let bb = BranchBound { max_nodes: 1, seed_incumbent: true };
        match bb.solve(&i, None, &Budget::unlimited()) {
            SolveStatus::Feasible(o) => {
                let lb = o.lower_bound.unwrap();
                assert!(lb <= opt + 1e-9, "lower bound {lb} exceeds optimum {opt}");
                assert!(o.cost >= opt - 1e-9, "incumbent {} beats optimum {opt}", o.cost);
                assert!(!o.deadline_hit, "node-cap truncation is not a deadline hit");
            }
            SolveStatus::Optimal(o) => {
                assert_eq!(o.gap, Some(0.0));
                assert!((o.cost - opt).abs() < 1e-9);
            }
            other => panic!("unexpected status {other:?}"),
        }
    }

    fn structured(n: usize, k: usize, d: f64, p: f64) -> AssignmentInstance {
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..k {
                cost.push(1.0 + ((t * 31 + g * 17) % 23) as f64);
                time.push(1.0 + ((t * 13 + g * 7) % 5) as f64);
            }
        }
        inst(n, k, cost, time, d, p)
    }

    #[test]
    fn node_budget_yields_anytime_incumbent_with_gap() {
        let i = structured(30, 5, 30.0, 1e6);
        let budget = Budget { deadline: None, max_nodes: 8 };
        match BranchBound::default().solve(&i, None, &budget) {
            SolveStatus::Feasible(o) => {
                assert!(!o.optimal);
                assert!(o.gap.is_some_and(|g| (0.0..=1.0).contains(&g)));
                assert!(o.lower_bound.is_some_and(|lb| lb <= o.cost + 1e-9));
                o.assignment.check_feasible(&i).unwrap();
            }
            SolveStatus::Optimal(o) => {
                // The seed can prove optimality without any search.
                assert_eq!(o.nodes, 0);
            }
            other => panic!("expected an anytime answer, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_results_are_deterministic() {
        // Node caps (unlike wall-clock deadlines) are reproducible:
        // two identical capped solves must agree bit for bit.
        let i = structured(25, 4, 25.0, 1e6);
        let budget = Budget { deadline: None, max_nodes: 100 };
        let a = BranchBound::default().solve(&i, None, &budget);
        let b = BranchBound::default().solve(&i, None, &budget);
        assert_eq!(a, b);
    }

    #[test]
    fn moderate_instance_closes_fast() {
        // 60 tasks × 6 GSPs with structured costs: must finish well
        // within the default budget.
        let i = structured(60, 6, 100.0, 1e6);
        let o = solve(BranchBound::default(), &i).unwrap();
        assert!(o.optimal);
        o.assignment.check_feasible(&i).unwrap();
    }
}
