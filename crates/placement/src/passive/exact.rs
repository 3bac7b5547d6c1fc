//! Exact `PPM(k)` via the paper's MIP formulations.
//!
//! * [`solve_ppm_exact`] — Linear Program 2, the compact formulation:
//!   binary `x_e` (device on link `e`), fractional `δ_t` (share of traffic
//!   `t` monitored), constraints `Σ_{e ∈ p_t} x_e ≥ δ_t` and
//!   `Σ_t δ_t·v_t ≥ k·Σ_t v_t`. Built, solved and decoded by the crate's
//!   one LP 2 kernel ([`build_lp2`](crate::passive::build_lp2) exposes
//!   the model alone); the one-shot search evaluates a fixed batch of 8
//!   nodes per round in parallel and forwards every [`ExactOptions`] knob.
//! * [`build_lp1`] — Linear Program 1, the arc-path MECF formulation with
//!   explicit flow variables `f_t^e`. Bigger and never solved by the crate:
//!   tests solve it directly to cross-validate LP 2 (Theorem 2 says both
//!   solve the same problem).
//!
//! The exact solver first merges identical-support traffics (halving the
//! row count on symmetric-routing instances), then warm-starts the MIP with
//! the best greedy solution so branch-and-bound prunes from the start.

use milp::{Cmp, Model, Sense, VarId, VarKind};

use crate::instance::PpmInstance;
use crate::passive::cover::{CoverModel, EXACT_NODE_BATCH};
use crate::passive::PpmSolution;
use crate::solve::{greedy_constrained, Anytime};

/// Options for the exact solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOptions {
    /// Node limit handed to branch-and-bound.
    pub max_nodes: usize,
    /// Optional wall-clock limit.
    pub time_limit: Option<std::time::Duration>,
    /// Seed the MIP with the best greedy solution (default true).
    pub warm_start: bool,
    /// Relative optimality gap at which the search may stop early
    /// (default: prove optimality). Useful for the fixed-charge `PPME`
    /// MILP whose LP bound is loose.
    pub rel_gap: f64,
    /// Deterministic work budget (simplex iterations + refactorizations +
    /// branch-and-bound nodes; see [`milp::MipOptions::work_budget`]) for
    /// anytime solves. `None` (the default) solves to the legacy limits
    /// and is byte-identical to the pre-budget behavior. When set, the
    /// legacy kernels degrade silently to the best incumbent (or the
    /// paper's greedy when the search had none); route through the
    /// unified [`crate::solve::SolveRequest`] API to observe the
    /// degradation record ([`crate::solve::SolveOutcome::Degraded`]).
    pub work_budget: Option<u64>,
}

impl Default for ExactOptions {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            time_limit: None,
            warm_start: true,
            rel_gap: 1e-9,
            work_budget: None,
        }
    }
}

/// Builds Linear Program 1 (arc-path MECF form) for `inst` at fraction `k`.
///
/// Variables: `x_e` binary and one `f_t^e ≥ 0` per (traffic, edge on its
/// path). Constraints follow the paper verbatim:
/// `Σ_{t ∈ π_e} f_t^e ≤ x_e · Σ_{t ∈ π_e} v_t` (pay for the arc),
/// `Σ_{e ∈ p_t} f_t^e ≤ v_t` (volume cap), and the flow request
/// `Σ_t Σ_e f_t^e ≥ k·V`.
pub fn build_lp1(inst: &PpmInstance, k: f64) -> (Model, Vec<VarId>) {
    build_lp1_target(inst, k * inst.total_volume())
}

/// [`build_lp1`] with an explicit coverage target in absolute volume (see
/// [`build_lp2_target`](crate::passive::build_lp2_target) for why).
pub fn build_lp1_target(inst: &PpmInstance, target_volume: f64) -> (Model, Vec<VarId>) {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<VarId> = (0..inst.num_edges)
        .map(|e| m.add_var(format!("x_e{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    let loads = inst.edge_loads();
    // f_t^e variables, grouped per edge for the capacity rows.
    let mut per_edge: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_edges];
    let mut request = Vec::new();
    for (t, (v, support)) in inst.traffics.iter().enumerate() {
        let mut per_traffic = Vec::with_capacity(support.len());
        for &e in support {
            let f = m.add_var(format!("f_t{t}_e{e}"), VarKind::Continuous, 0.0, *v, 0.0);
            per_edge[e].push((f, 1.0));
            per_traffic.push((f, 1.0));
            request.push((f, 1.0));
        }
        // Σ_{e ∈ p_t} f_t^e ≤ v_t
        m.add_constr(per_traffic, Cmp::Le, *v);
    }
    for (e, mut terms) in per_edge.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        // Σ_{t ∈ π_e} f_t^e - x_e·load(e) ≤ 0
        terms.push((xs[e], -loads[e]));
        m.add_constr(terms, Cmp::Le, 0.0);
    }
    m.add_constr(request, Cmp::Ge, target_volume);
    (m, xs)
}

/// Solves `PPM(k)` exactly through Linear Program 2.
///
/// Returns `None` when the target is unreachable (uncoverable traffic
/// exceeds `1 - k`). Under a work budget the answer degrades silently to
/// the best incumbent, or the paper's greedy when the search had none.
pub fn solve_ppm_exact(inst: &PpmInstance, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
    solve_ppm_exact_anytime(inst, k, opts).settle(|| greedy_constrained(inst, &[], &[], k))
}

/// The one-shot exact LP 2 solve under the anytime contract, for the
/// unified dispatcher ([`crate::solve::solve_instance`]).
pub(crate) fn solve_ppm_exact_anytime(
    inst: &PpmInstance,
    k: f64,
    opts: &ExactOptions,
) -> Anytime<Option<PpmSolution>> {
    assert!(
        k.is_finite() && (0.0..=1.0 + 1e-12).contains(&k),
        "monitoring fraction k must lie in [0, 1], got {k}"
    );
    // The coverage target is k of the ORIGINAL volume; merging only drops
    // traffics that cannot be covered anyway, and the target must not
    // weaken with them.
    let target = k * inst.total_volume();
    if target > inst.max_coverage_fraction() * inst.total_volume() + 1e-9 {
        return Anytime::Done(None);
    }
    let mut cover = CoverModel::lp2(inst, &[], &[]);
    if opts.warm_start {
        cover.seed_greedy(inst, k);
    }
    let attempt = cover.solve(inst, target, opts, EXACT_NODE_BATCH);
    if let Anytime::Done(Some(solution)) = &attempt {
        debug_assert!(
            inst.is_feasible(&solution.edges, k),
            "exact solver produced an infeasible selection: coverage {} < {}",
            solution.coverage,
            target
        );
    }
    attempt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;
    use crate::passive::brute_force_ppm;

    #[test]
    fn figure3_optimum_is_two() {
        let inst = fixture_figure3();
        let s = solve_ppm_exact(&inst, 1.0, &ExactOptions::default()).unwrap();
        assert_eq!(
            s.device_count(),
            2,
            "optimal solution uses the two load-3 links"
        );
        assert_eq!(s.edges, vec![1, 2]);
        assert!(s.proven_optimal);
    }

    #[test]
    fn lp1_agrees_with_lp2_on_figure3() {
        let inst = fixture_figure3();
        for k in [0.5, 0.75, 1.0] {
            let a = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
            let (lp1, xs) = build_lp1_target(&inst.merged(), k * inst.total_volume());
            let opts = milp::MipOptions {
                integral_objective: Some(true),
                ..Default::default()
            };
            let b = lp1.solve_mip_with(&opts).unwrap();
            let devices = xs.iter().filter(|&&x| b.is_one(x, 1e-4)).count();
            assert_eq!(a.device_count(), devices, "k = {k}");
        }
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let instances = vec![
            fixture_figure3(),
            crate::instance::PpmInstance::new(
                4,
                vec![
                    (3.0, vec![0]),
                    (2.0, vec![1, 2]),
                    (2.0, vec![2, 3]),
                    (1.0, vec![0, 3]),
                ],
            ),
        ];
        for inst in instances {
            for k in [0.4, 0.7, 0.9, 1.0] {
                let exact = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
                let brute = brute_force_ppm(&inst, k).unwrap();
                assert_eq!(
                    exact.device_count(),
                    brute.device_count(),
                    "k = {k}, exact {:?} vs brute {:?}",
                    exact.edges,
                    brute.edges
                );
            }
        }
    }

    #[test]
    fn exact_never_beaten_by_greedy() {
        let inst = fixture_figure3();
        for k in [0.5, 0.8, 1.0] {
            let exact = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
            for g in [
                crate::passive::greedy_static(&inst, k).unwrap(),
                crate::passive::greedy_adaptive(&inst, k).unwrap(),
            ] {
                assert!(exact.device_count() <= g.device_count());
            }
            assert!(inst.is_feasible(&exact.edges, k));
        }
    }

    #[test]
    fn unreachable_target_returns_none() {
        let inst = crate::instance::PpmInstance::new(1, vec![(1.0, vec![0]), (1.0, vec![])]);
        assert!(solve_ppm_exact(&inst, 1.0, &ExactOptions::default()).is_none());
        assert!(solve_ppm_exact(&inst, 0.5, &ExactOptions::default()).is_some());
    }

    #[test]
    fn zero_k_is_empty_solution() {
        let inst = fixture_figure3();
        let s = solve_ppm_exact(&inst, 0.0, &ExactOptions::default()).unwrap();
        assert_eq!(s.device_count(), 0);
    }

    #[test]
    fn no_warm_start_still_optimal() {
        let inst = fixture_figure3();
        let opts = ExactOptions {
            warm_start: false,
            ..Default::default()
        };
        let s = solve_ppm_exact(&inst, 1.0, &opts).unwrap();
        assert_eq!(s.device_count(), 2);
    }

    #[test]
    fn pop_instance_exact_beats_greedy_weakly() {
        let pop = popgen::PopSpec::paper_10().build();
        let ts = popgen::TrafficSpec::default().generate(&pop, 17);
        let inst = crate::instance::PpmInstance::from_traffic(&pop.graph, &ts);
        let k = 0.9;
        let exact = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
        let greedy = crate::passive::greedy_static(&inst, k).unwrap();
        assert!(inst.is_feasible(&exact.edges, k));
        assert!(exact.device_count() <= greedy.device_count());
        assert!(exact.proven_optimal);
    }
}
