//! Chain-equals-fresh regression: a [`DeltaInstance`] walking a sweep
//! grid (warm-started solves, one model per structure) must reproduce the
//! device counts of the one-shot solvers on fresh instances, point for
//! point, on the seed-0 state of each experiment grid.
//!
//! This is the correctness half of the warm-start layer's contract (the
//! speed half is measured by `perfbench`: `placement.delta.resolve_us`):
//! the chains reuse *bases*, never answers, so every proven-optimal count
//! must agree with the corresponding `solve_ppm_exact` /
//! `solve_incremental` / `solve_budget` call scenarios.rs used to make per
//! grid point.

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::passive::{solve_budget, solve_incremental, solve_ppm_exact, ExactOptions};
use placement::solve::{SolveOutcome, SolveRequest};
use popgen::{PopSpec, TrafficSpec};

fn seed0_instance() -> PpmInstance {
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 0);
    PpmInstance::from_traffic(&pop.graph, &ts)
}

/// The fig7 k-grid: chained exact solves vs. fresh `solve_ppm_exact`.
#[test]
fn fig7_grid_chain_matches_fresh() {
    let inst = seed0_instance();
    let opts = ExactOptions::default();
    let mut chain = DeltaInstance::from_instance(&inst);
    for k_pct in [75u32, 80, 85, 90, 95, 100] {
        let k = k_pct as f64 / 100.0;
        let chained = chain.solve_exact(k, &opts).expect("coverable");
        let fresh = solve_ppm_exact(&inst, k, &opts).expect("coverable");
        assert_eq!(
            chained.device_count(),
            fresh.device_count(),
            "chained exact diverged from fresh at k = {k_pct}%"
        );
        assert!(chained.proven_optimal && fresh.proven_optimal);
        assert!(inst.is_feasible(&chained.edges, k));
    }
}

/// The xp_incremental upgrade grid: a frozen `PPM(0.8)` base, chained
/// re-targets vs. fresh `solve_incremental` at every higher k.
#[test]
fn incremental_grid_chain_matches_fresh() {
    let inst = seed0_instance();
    let opts = ExactOptions::default();
    let base = solve_ppm_exact(&inst, 0.8, &opts).expect("PPM(0.8) feasible");

    let mut chain = DeltaInstance::from_instance(&inst);
    chain.try_set_installed(&base.edges).unwrap();
    for k_pct in [85u32, 90, 95, 100] {
        let k = k_pct as f64 / 100.0;
        let chained = chain.solve_exact(k, &opts).expect("feasible");
        let fresh = solve_incremental(&inst, k, &base.edges, &opts).expect("feasible");
        assert_eq!(
            chained.device_count(),
            fresh.device_count(),
            "chained incremental diverged from fresh at k = {k_pct}%"
        );
        for &e in &base.edges {
            assert!(chained.edges.contains(&e), "installed device {e} must stay");
        }
        assert!(inst.is_feasible(&chained.edges, k));
    }
}

/// The xp_incremental buy-devices grid: chained budget solves vs. fresh
/// `solve_budget` over the extras grid on top of the `PPM(0.8)` base.
#[test]
fn budget_grid_chain_matches_fresh() {
    let inst = seed0_instance();
    let opts = ExactOptions::default();
    let base = solve_ppm_exact(&inst, 0.8, &opts).expect("PPM(0.8) feasible");

    let mut chain = DeltaInstance::from_instance(&inst);
    chain.try_set_installed(&base.edges).unwrap();
    for extra in [1usize, 2, 3, 4, 5] {
        let req = SolveRequest::budget(extra).with_exact_options(&opts);
        let Ok(SolveOutcome::Budget(chained)) = chain.solve(&req) else {
            panic!("expected a budget outcome");
        };
        let fresh = solve_budget(&inst, extra, &base.edges, &opts);
        assert!(
            (chained.coverage - fresh.coverage).abs() < 1e-6,
            "chained budget diverged from fresh at extra = {extra}: {} vs {}",
            chained.coverage,
            fresh.coverage
        );
        assert!(chained.proven_optimal && fresh.proven_optimal);
    }
}
