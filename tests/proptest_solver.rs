//! Property-based tests for the solver substrate.
//!
//! The central property: on every random small instance, the
//! branch-and-bound (sequential and parallel, seeded and unseeded)
//! agrees **exactly** with the brute-force oracle — same feasibility
//! verdict, same optimal cost. Heuristics must be sound (feasible or
//! `None`) and never beat the optimum.

use gridvo_solver::branch_bound::{BranchBound, Budget, SolveOutcome, SolveStatus};
use gridvo_solver::heuristics::{self, Heuristic};
use gridvo_solver::parallel::ParallelBranchBound;
use gridvo_solver::{brute, repair, AssignmentInstance};
use proptest::prelude::*;

/// Random small instance: 1–4 GSPs (≤ gsps ≤ tasks), 2–9 tasks, costs
/// and times in small ranges, deadline/payment spanning feasible and
/// infeasible regimes.
fn small_instance() -> impl Strategy<Value = AssignmentInstance> {
    (1usize..=4, 0usize..=4).prop_flat_map(|(gsps, extra_tasks)| {
        let tasks = gsps + 1 + extra_tasks; // tasks > gsps keeps (13) satisfiable
        let len = tasks * gsps;
        (
            proptest::collection::vec(1.0f64..20.0, len),
            proptest::collection::vec(0.5f64..5.0, len),
            2.0f64..18.0,   // deadline
            10.0f64..120.0, // payment
        )
            .prop_map(move |(cost, time, d, p)| {
                AssignmentInstance::new(tasks, gsps, cost, time, d, p).expect("valid instance")
            })
    })
}

/// Unbudgeted exact solve: the proven optimum, or `None` when the
/// instance is infeasible.
fn solve(bb: BranchBound, inst: &AssignmentInstance) -> Option<SolveOutcome> {
    bb.solve(inst, None, &Budget::unlimited()).outcome()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn branch_and_bound_matches_brute_force(inst in small_instance()) {
        let oracle = brute::solve(&inst).expect("small instances enumerate");
        let bb = solve(BranchBound::default(), &inst);
        match (oracle, bb) {
            (None, None) => {}
            (Some((_, oc)), Some(o)) => {
                prop_assert!(o.optimal);
                prop_assert!((o.cost - oc).abs() < 1e-9,
                    "B&B cost {} vs oracle {}", o.cost, oc);
                prop_assert!(o.assignment.is_feasible(&inst));
            }
            (a, b) => prop_assert!(false, "feasibility disagrees: oracle {:?} vs bb {:?}",
                a.map(|x| x.1), b.map(|x| x.cost)),
        }
    }

    #[test]
    fn parallel_matches_sequential(inst in small_instance()) {
        let seq = solve(BranchBound::default(), &inst);
        let par = ParallelBranchBound::default().solve(&inst, None, &Budget::unlimited()).outcome();
        match (seq, par) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a.cost - b.cost).abs() < 1e-9,
                "parallel {} vs sequential {}", b.cost, a.cost),
            (a, b) => prop_assert!(false, "feasibility disagrees: {:?} vs {:?}",
                a.map(|x| x.cost), b.map(|x| x.cost)),
        }
    }

    #[test]
    fn unseeded_search_matches_seeded(inst in small_instance()) {
        let seeded = solve(BranchBound { seed_incumbent: true, ..Default::default() }, &inst);
        let bare = solve(BranchBound { seed_incumbent: false, ..Default::default() }, &inst);
        match (seeded, bare) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a.cost - b.cost).abs() < 1e-9),
            _ => prop_assert!(false, "seeding changed feasibility"),
        }
    }

    #[test]
    fn heuristics_sound_and_never_better_than_optimal(inst in small_instance()) {
        let optimal = solve(BranchBound::default(), &inst).map(|o| o.cost);
        for kind in [Heuristic::GreedyCost, Heuristic::MinMin,
                     Heuristic::MaxMin, Heuristic::Sufferage] {
            if let Some(a) = heuristics::run(kind, &inst) {
                prop_assert!(a.is_feasible(&inst), "{kind:?} returned infeasible map");
                let c = a.total_cost(&inst);
                let opt = optimal.expect("heuristic found a solution, so one exists");
                prop_assert!(c >= opt - 1e-9,
                    "{kind:?} cost {c} beats the proven optimum {opt}");
            }
        }
    }

    #[test]
    fn optimal_solution_is_stable_under_gsp_permutation(inst in small_instance()) {
        // permute GSP columns: the optimal COST must be invariant
        let k = inst.gsps();
        let perm: Vec<usize> = (0..k).rev().collect();
        let permuted = inst.restrict_gsps(&perm).expect("full permutation");
        let a = solve(BranchBound::default(), &inst).map(|o| o.cost);
        let b = solve(BranchBound::default(), &permuted).map(|o| o.cost);
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            _ => prop_assert!(false, "permutation changed feasibility"),
        }
    }

    /// Oracle coverage for `solver::repair`: starting from the proven
    /// optimum, evicting any GSP and repairing must (a) yield a
    /// feasible assignment on the reduced instance whenever repair
    /// claims success, and (b) never beat the reduced instance's own
    /// brute-force optimum.
    #[test]
    fn repair_is_feasible_and_never_beats_reduced_optimum(inst in small_instance()) {
        let k = inst.gsps();
        prop_assume!(k >= 2);
        let Some(opt) = solve(BranchBound::default(), &inst) else { return Ok(()) };
        for evicted in 0..k {
            let keep: Vec<usize> = (0..k).filter(|&g| g != evicted).collect();
            let sub = inst.restrict_gsps(&keep).expect("valid restriction");
            if let Some(repaired) = repair::repair_after_eviction(&opt.assignment, evicted, &sub) {
                prop_assert!(repaired.is_feasible(&sub),
                    "repair after evicting {evicted} claimed success but is infeasible");
                let (_, reduced_opt) = brute::solve(&sub)
                    .expect("small instances enumerate")
                    .expect("a feasible repair implies a feasible reduced instance");
                let c = repaired.total_cost(&sub);
                prop_assert!(c >= reduced_opt - 1e-9,
                    "repair cost {c} beats the reduced optimum {reduced_opt}");
            }
        }
    }

    /// Gap soundness against the brute-force oracle: under any node
    /// budget, a feasible outcome's reported bracket must contain the
    /// true optimum — `lower_bound ≤ optimum ≤ incumbent cost` — and
    /// the gap must match its definition, for both exact solvers.
    #[test]
    fn reported_gap_brackets_the_true_optimum(
        inst in small_instance(),
        max_nodes in prop_oneof![Just(0u64), Just(1), Just(4), Just(32), Just(u64::MAX)],
    ) {
        let oracle = brute::solve(&inst).expect("small instances enumerate");
        let budget = Budget { deadline: None, max_nodes };
        for status in [
            BranchBound::default().solve(&inst, None, &budget),
            ParallelBranchBound::default().solve(&inst, None, &budget),
        ] {
            match status {
                SolveStatus::Optimal(o) => {
                    let (_, opt) = oracle.clone().expect("solver proved feasibility");
                    prop_assert!((o.cost - opt).abs() < 1e-9);
                    prop_assert_eq!(o.gap, Some(0.0));
                    prop_assert_eq!(o.lower_bound, Some(o.cost));
                }
                SolveStatus::Feasible(o) => {
                    let (_, opt) = oracle.clone().expect("solver found a feasible point");
                    let lb = o.lower_bound.expect("truncated solves report a bound");
                    let gap = o.gap.expect("truncated solves report a gap");
                    prop_assert!(lb <= opt + 1e-9, "lower bound {lb} above optimum {opt}");
                    prop_assert!(o.cost >= opt - 1e-9, "incumbent {} below optimum {opt}", o.cost);
                    prop_assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");
                    let expect = if o.cost.abs() <= 1e-9 { 0.0 }
                        else { ((o.cost - lb) / o.cost).clamp(0.0, 1.0) };
                    prop_assert!((gap - expect).abs() < 1e-12);
                }
                SolveStatus::Infeasible { .. } => {
                    prop_assert!(oracle.is_none(), "solver claimed infeasible, oracle disagrees");
                }
                SolveStatus::Unknown { .. } => {} // budget too small to say anything
            }
        }
    }

    #[test]
    fn raising_payment_never_hurts(inst in small_instance()) {
        let richer = AssignmentInstance::new(
            inst.tasks(), inst.gsps(),
            (0..inst.tasks()).flat_map(|t| inst.cost_row(t).to_vec()).collect(),
            (0..inst.tasks()).flat_map(|t| inst.time_row(t).to_vec()).collect(),
            inst.deadline(), inst.payment() * 2.0,
        ).expect("valid");
        let base = solve(BranchBound::default(), &inst);
        let rich = solve(BranchBound::default(), &richer);
        if let Some(b) = &base {
            let r = rich.as_ref().expect("loosening payment keeps feasibility");
            prop_assert!(r.cost <= b.cost + 1e-9);
        }
    }
}
