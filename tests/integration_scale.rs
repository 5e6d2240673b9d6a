//! Scale smoke tests for the anytime exact solver: the 64-GSP regime
//! the search cannot close is *open* — a formation run under a
//! wall-clock budget returns promptly with feasible anytime VOs and
//! finite optimality gaps; a deadline holds past 512 tasks, where the
//! heuristic seed stops running its quadratic sweeps; and an
//! unlimited budget changes nothing about a formation trace.

use std::time::{Duration, Instant};

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::solve_cache::NoCache;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_solver::branch_bound::{BranchBound, Budget, SolveStatus};

#[test]
fn sixty_four_gsp_formation_completes_under_a_wall_clock_budget() {
    // 64 GSPs x 128 tasks is far past the exact frontier (the search
    // tree has 64^128 leaves); before the anytime budget this size
    // was simply unreachable.
    let cfg = TableI { gsps: 64, task_sizes: vec![128], trace_jobs: 2_000, ..TableI::default() };
    let mut rng = seeded_rng(0x5CA1E, 0);
    let scenario =
        ScenarioGenerator::new(cfg).scenario(128, &mut rng).expect("calibrated 64-GSP scenario");

    let budget = Budget::with_deadline(Instant::now() + Duration::from_secs(2));
    let started = Instant::now();
    let outcome = Mechanism::tvof(FormationConfig::default())
        .run_cached_with_budget(&scenario, &mut seeded_rng(1, 0), &mut NoCache, &budget)
        .expect("formation runs");
    let elapsed = started.elapsed();

    // Generous CI margin: the budget bounds each solve to the 2 s
    // deadline (within one bound-check interval); the eviction loop
    // adds only heuristic-seeding overhead per round afterwards.
    assert!(elapsed < Duration::from_secs(60), "64-GSP formation took {elapsed:?}");

    // Calibration guarantees a heuristically-feasible grand
    // coalition, so the anytime search must record at least one VO.
    assert!(!outcome.feasible_vos.is_empty(), "no feasible VO at 64 GSPs");
    let vo = outcome.selected.as_ref().expect("a VO is selected");
    let inst = scenario.instance_for(&vo.members).expect("restriction succeeds");
    vo.assignment.check_feasible(&inst).expect("selected anytime assignment is feasible");
    for v in &outcome.feasible_vos {
        if !v.optimal {
            let gap = v.gap.expect("anytime VOs carry a gap");
            assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");
        }
    }
}

#[test]
fn a_deadline_holds_past_512_tasks() {
    // 16 GSPs x 8192 tasks: the paper's largest program, far past the
    // 512-task line above which the heuristic seed skips its O(n^2 k)
    // sweeps. Every phase of the solve must stay within reach of the
    // deadline.
    let tasks = 8192;
    let cfg = TableI { gsps: 16, task_sizes: vec![tasks], trace_jobs: 2_000, ..TableI::default() };
    let scenario = ScenarioGenerator::new(cfg)
        .scenario(tasks, &mut seeded_rng(0x5CA20, 0))
        .expect("calibrated 16-GSP scenario");
    let inst = scenario.instance();

    let started = Instant::now();
    let budget = Budget::with_deadline(started + Duration::from_millis(200));
    let status = BranchBound::default().solve(inst, None, &budget);
    let elapsed = started.elapsed();

    // On a 2-vCPU host a debug build returns in 0.4-0.5 s, a release
    // build in 0.2 s.
    assert!(elapsed < Duration::from_secs(3), "200 ms solve at {tasks} tasks took {elapsed:?}");
    match status {
        SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => {
            o.assignment.check_feasible(inst).expect("anytime assignment is feasible");
            let gap = o.gap.expect("every outcome carries a gap");
            assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");
        }
        other => panic!("calibrated scenario yielded no assignment: {other:?}"),
    }
}

#[test]
fn unlimited_budget_formation_is_bit_identical_to_run() {
    // `run` is `run_cached_with_budget` with no cache and no budget:
    // whole formation traces must agree bit for bit.
    let cfg = TableI {
        gsps: 6,
        task_sizes: vec![24],
        trace_jobs: 2_000,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    };
    let generator = ScenarioGenerator::new(cfg);
    for seed in 0..3u64 {
        let scenario =
            generator.scenario(24, &mut seeded_rng(0x5CA1F, seed)).expect("calibrated scenario");
        let mechanism = Mechanism::tvof(FormationConfig::default());
        let mut plain = mechanism.run(&scenario, &mut seeded_rng(2, seed)).expect("plain run");
        let mut budgeted = mechanism
            .run_cached_with_budget(
                &scenario,
                &mut seeded_rng(2, seed),
                &mut NoCache,
                &Budget::unlimited(),
            )
            .expect("budgeted run");
        plain.zero_timings();
        budgeted.zero_timings();
        assert_eq!(plain, budgeted, "seed {seed}: an unlimited budget changed the trace");
    }
}
