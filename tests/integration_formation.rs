//! End-to-end integration tests spanning the whole stack:
//! workload → instance generation → solver → trust → mechanism →
//! audits. These are the tests that pin the paper's qualitative
//! claims on generated scenarios.

use gridvo_core::mechanism::{FormationConfig, Mechanism, SolverChoice};
use gridvo_core::{pareto, stability};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_solver::branch_bound::{BranchBound, Budget};

fn small_cfg() -> TableI {
    TableI {
        gsps: 6,
        task_sizes: vec![24],
        trace_jobs: 2_000,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    }
}

fn scenario(seed: u64) -> gridvo_core::FormationScenario {
    let generator = ScenarioGenerator::new(small_cfg());
    let mut rng = seeded_rng(0x17E57, seed);
    generator.scenario(24, &mut rng).expect("calibrated scenario")
}

#[test]
fn tvof_selected_vo_assignment_is_feasible_and_optimal() {
    for seed in 0..5u64 {
        let s = scenario(seed);
        let mut rng = seeded_rng(1, seed);
        let outcome = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        let vo = outcome.selected.expect("calibrated scenarios are feasible");
        // the recorded assignment satisfies every IP constraint on the
        // restricted instance
        let inst = s.instance_for(&vo.members).expect("restriction succeeds");
        vo.assignment.check_feasible(&inst).unwrap();
        assert!(vo.optimal, "default budget must prove optimality at this size");
        // v(C) = P − cost, payoff = v/|C|
        assert!((vo.value - (s.payment() - vo.cost)).abs() < 1e-9);
        assert!((vo.payoff_share - vo.value / vo.members.len() as f64).abs() < 1e-9);
    }
}

#[test]
fn selected_cost_matches_independent_resolve() {
    let s = scenario(7);
    let mut rng = seeded_rng(2, 7);
    let outcome = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
    let vo = outcome.selected.unwrap();
    let inst = s.instance_for(&vo.members).unwrap();
    let again = BranchBound::default()
        .solve(&inst, None, &Budget::unlimited())
        .outcome()
        .expect("feasible");
    assert!((again.cost - vo.cost).abs() < 1e-9, "cost must be solver-independent");
}

#[test]
fn theorem1_individual_stability_holds_across_seeds() {
    for seed in 0..5u64 {
        let s = scenario(seed + 100);
        let mut rng = seeded_rng(3, seed);
        let (outcome, verdict, _) =
            stability::run_and_audit(&s, FormationConfig::default(), &mut rng).unwrap();
        if outcome.selected.is_some() {
            assert_eq!(
                verdict,
                Some(stability::StabilityAudit::Stable),
                "Theorem 1 violated on seed {seed}"
            );
        }
    }
}

#[test]
fn theorem2_pareto_optimality_holds_across_seeds() {
    for seed in 0..5u64 {
        let s = scenario(seed + 200);
        let mut rng = seeded_rng(4, seed);
        let (_, _, pareto_ok) =
            stability::run_and_audit(&s, FormationConfig::default(), &mut rng).unwrap();
        assert_ne!(pareto_ok, Some(false), "Theorem 2 violated on seed {seed}");
    }
}

#[test]
fn tvof_trace_invariants() {
    let s = scenario(42);
    let mut rng = seeded_rng(5, 42);
    let outcome = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
    // sizes strictly decrease by one per iteration
    for w in outcome.iterations.windows(2) {
        assert_eq!(w[0].members.len(), w[1].members.len() + 1);
        // the evicted GSP is gone from the next iteration
        let evicted = w[0].evicted.unwrap();
        assert!(!w[1].members.contains(&evicted));
        // and it attained the minimum reputation score in its iteration
        let scores = &w[0].reputation_scores;
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let pos = w[0].members.iter().position(|&m| m == evicted).unwrap();
        assert!(scores[pos] <= min + 1e-12, "TVOF must evict a lowest-reputation member");
    }
    // every feasible iteration contributed a VO to L
    let feasible_iters = outcome.iterations.iter().filter(|it| it.feasible).count();
    assert_eq!(feasible_iters, outcome.feasible_vos.len());
}

#[test]
fn rvof_and_tvof_payoffs_close_but_reputation_differs() {
    // Fig. 1 + Fig. 3's joint qualitative claim, averaged over seeds.
    let mut tvof_pay = 0.0;
    let mut rvof_pay = 0.0;
    let mut tvof_rep = 0.0;
    let mut rvof_rep = 0.0;
    let mut n = 0;
    for seed in 0..8u64 {
        let s = scenario(seed + 300);
        let mut rng = seeded_rng(6, seed);
        let t = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        let r = Mechanism::rvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        if let (Some(tv), Some(rv)) = (t.selected, r.selected) {
            tvof_pay += tv.payoff_share;
            rvof_pay += rv.payoff_share;
            tvof_rep += tv.avg_reputation;
            rvof_rep += rv.avg_reputation;
            n += 1;
        }
    }
    assert!(n >= 6, "most scenarios must form VOs under both mechanisms");
    // payoffs within 25% of each other on average (paper: "the same amount")
    let ratio = tvof_pay / rvof_pay;
    assert!((0.75..=1.34).contains(&ratio), "payoff ratio {ratio} too far from 1");
    // TVOF's reputation advantage (paper Fig. 3): at least not worse
    assert!(
        tvof_rep >= rvof_rep * 0.98,
        "TVOF reputation {tvof_rep} clearly below RVOF {rvof_rep}"
    );
}

#[test]
fn selected_vo_always_on_pareto_front() {
    for seed in 0..5u64 {
        let s = scenario(seed + 400);
        let mut rng = seeded_rng(7, seed);
        let outcome = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        if let Some(vo) = &outcome.selected {
            let idx = outcome
                .feasible_vos
                .iter()
                .position(|v| v.members == vo.members)
                .expect("selected comes from L");
            assert!(pareto::is_pareto_optimal(&outcome.feasible_vos, idx));
        }
    }
}

#[test]
fn heuristic_mechanism_never_beats_exact_payoff() {
    // exactness ablation: the heuristic mechanism's selected payoff
    // cannot exceed the exact solver's (costs are minimized exactly).
    for seed in 0..4u64 {
        let s = scenario(seed + 500);
        let mut rng1 = seeded_rng(8, seed);
        let mut rng2 = seeded_rng(8, seed);
        let exact = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng1).unwrap();
        let heur = Mechanism::tvof(FormationConfig {
            solver: SolverChoice::Heuristic(gridvo_solver::heuristics::Heuristic::GreedyCost),
            ..Default::default()
        })
        .run(&s, &mut rng2)
        .unwrap();
        if let (Some(e), Some(h)) = (exact.selected, heur.selected) {
            // same eviction RNG stream and same trust graph ⇒ the VO
            // sequences match, so payoffs are directly comparable
            assert!(
                h.payoff_share <= e.payoff_share + 1e-6,
                "heuristic payoff {} exceeded exact {}",
                h.payoff_share,
                e.payoff_share
            );
        }
    }
}
