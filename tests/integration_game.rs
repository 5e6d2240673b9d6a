//! Integration tests tying the coalitional-game substrate to the VO
//! formation problem: the induced game `v(C) = max(0, P − C*(T,C))`,
//! payoff-division consistency with eq. (18), and core analyses.

use gridvo_game::characteristic::{check_zero_empty, FnGame, MemoCharacteristic};
use gridvo_game::core_solution::{is_in_core, least_core, most_violated};
use gridvo_game::division::{equal_split, is_efficient, shapley_exact, shapley_monte_carlo};
use gridvo_game::{CharacteristicFn, Coalition};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_solver::branch_bound::{BranchBound, Budget};

fn vo_game(
    seed: u64,
) -> (MemoCharacteristic<FnGame<impl Fn(Coalition) -> f64>>, gridvo_core::FormationScenario) {
    let cfg = TableI {
        gsps: 5,
        task_sizes: vec![15],
        trace_jobs: 2_000,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    };
    let generator = ScenarioGenerator::new(cfg);
    let mut rng = seeded_rng(0x6A3E, seed);
    let scenario = generator.scenario(15, &mut rng).expect("calibrated scenario");
    let payment = scenario.payment();
    let s2 = scenario.clone();
    let game = MemoCharacteristic::new(FnGame::new(scenario.gsp_count(), move |c: Coalition| {
        let members = c.to_vec();
        match s2.instance_for(&members).and_then(|inst| {
            BranchBound::default().solve(&inst, None, &Budget::unlimited()).outcome()
        }) {
            Some(o) => (payment - o.cost).max(0.0),
            None => 0.0,
        }
    }));
    (game, scenario)
}

#[test]
fn vo_game_satisfies_eq15_conventions() {
    let (game, _) = vo_game(1);
    assert!(check_zero_empty(&game), "v(∅) = 0 required by eq. (15)");
    // values are non-negative by construction
    for bits in 0..(1u64 << game.player_count()) {
        assert!(game.value(Coalition::from_bits(bits)) >= 0.0);
    }
}

#[test]
fn equal_split_matches_eq18() {
    let (game, scenario) = vo_game(2);
    let grand = game.grand();
    let shares = equal_split(&game, grand);
    assert_eq!(shares.len(), scenario.gsp_count());
    assert!(is_efficient(&game, grand, &shares, 1e-9));
    for s in &shares {
        assert!((s - game.value(grand) / scenario.gsp_count() as f64).abs() < 1e-12);
    }
}

#[test]
fn shapley_is_efficient_on_the_vo_game() {
    let (game, _) = vo_game(3);
    let phi = shapley_exact(&game).unwrap();
    let vg = game.value(game.grand());
    assert!((phi.iter().sum::<f64>() - vg).abs() < 1e-6);
    // Monte Carlo agrees within sampling error
    let mut rng = seeded_rng(0x6A3F, 3);
    let mc = shapley_monte_carlo(&game, 5_000, &mut rng);
    for (e, m) in phi.iter().zip(mc.iter()) {
        assert!((e - m).abs() < 0.1 * vg.max(1.0), "MC far from exact: {e} vs {m}");
    }
}

#[test]
fn least_core_verdict_consistent_with_membership_check() {
    for seed in 4..8u64 {
        let (game, _) = vo_game(seed);
        let lc = least_core(&game, 1e-6).unwrap();
        if lc.core_nonempty(1e-6) {
            // the least-core point must itself pass the membership audit
            assert!(
                is_in_core(&game, &lc.payoff, 1e-4).unwrap(),
                "seed {seed}: ε* ≤ 0 but the least-core point fails the audit"
            );
        } else {
            // no blocking coalition may certify stability: the most
            // violated coalition must have positive excess everywhere,
            // in particular at the least-core point
            let (_, excess) = most_violated(&game, &lc.payoff);
            assert!(
                excess > -1e-6,
                "seed {seed}: core declared empty but no violated coalition at ε*"
            );
        }
    }
}

#[test]
fn memoization_bounds_ip_solves() {
    let (game, _) = vo_game(9);
    let n = game.player_count();
    // Shapley touches every coalition exactly once thanks to the memo.
    let _ = shapley_exact(&game).unwrap();
    assert!(game.cache_size() <= 1 << n);
    let before = game.cache_size();
    let _ = shapley_exact(&game).unwrap();
    assert_eq!(game.cache_size(), before, "second pass must be fully cached");
}

#[test]
fn subcoalition_values_bounded_by_profit_identity() {
    // For any coalition, value = payment − optimal cost when feasible;
    // restricting members can only raise (or tie) the optimal cost, so
    // v is monotone along chains ... except the ≥1-task-per-GSP
    // constraint, which can make SMALLER coalitions cheaper. Verify
    // the exact identity instead of a false monotonicity claim.
    let (game, scenario) = vo_game(10);
    let payment = scenario.payment();
    for bits in 1..(1u64 << scenario.gsp_count()) {
        let c = Coalition::from_bits(bits);
        let members = c.to_vec();
        let direct = scenario
            .instance_for(&members)
            .and_then(|inst| {
                BranchBound::default().solve(&inst, None, &Budget::unlimited()).outcome()
            })
            .map(|o| (payment - o.cost).max(0.0))
            .unwrap_or(0.0);
        assert!((game.value(c) - direct).abs() < 1e-9);
    }
}
