//! Deployment variants of `PPM(k)` enabled by the MIP formulation
//! (paper Sections 1 and 4.3):
//!
//! * **incremental** — "from a set of already installed devices that cannot
//!   move, compute the best way to position a new set of monitors": the
//!   installed `x_e` are fixed to 1 and the MIP minimizes the added count;
//! * **budget** — "finding the best positioning of a limited number of
//!   devices": maximize the monitored volume subject to `Σ x_e ≤ B`;
//! * **expected gain** — "the estimation of the expected gain in buying one
//!   or a set of new devices": the budget problem on top of an installed
//!   base, reported as the coverage delta.

use crate::instance::PpmInstance;
use crate::passive::cover::CoverModel;
use crate::passive::{ExactOptions, PpmSolution};
use crate::solve::{greedy_budget, greedy_constrained, Anytime};

/// Solution of the budget-constrained maximum-coverage problem.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSolution {
    /// All selected edges (including the pre-installed ones).
    pub edges: Vec<usize>,
    /// Volume covered.
    pub coverage: f64,
    /// Total volume of the instance.
    pub total_volume: f64,
    /// Whether the MIP proved optimality.
    pub proven_optimal: bool,
}

impl BudgetSolution {
    /// The budget view of a decoded placement.
    pub(crate) fn from_placement(sol: PpmSolution) -> Self {
        BudgetSolution {
            edges: sol.edges,
            coverage: sol.coverage,
            total_volume: sol.total_volume,
            proven_optimal: sol.proven_optimal,
        }
    }

    /// Fraction of the total volume covered.
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_volume > 0.0 {
            self.coverage / self.total_volume
        } else {
            0.0
        }
    }
}

/// Minimum number of *additional* devices to reach coverage `k`, given
/// `installed` devices that cannot move. Returns the complete placement
/// (installed + new). `None` when the target is unreachable. Under a work
/// budget the answer degrades silently to the best incumbent, or the
/// paper's greedy on top of `installed` when the search had none.
pub fn solve_incremental(
    inst: &PpmInstance,
    k: f64,
    installed: &[usize],
    opts: &ExactOptions,
) -> Option<PpmSolution> {
    let mut base = installed.to_vec();
    base.sort_unstable();
    base.dedup();
    if let Some(e) = base.iter().find(|&&e| e >= inst.num_edges) {
        panic!("installed edge {e} out of range");
    }
    // Target is k of the ORIGINAL volume (merging drops uncoverable mass).
    CoverModel::lp2(inst, &base, &[])
        .solve(inst, k * inst.total_volume(), opts, 1)
        .settle(|| greedy_constrained(inst, &base, &[], k))
}

/// Maximum-coverage placement of at most `budget` new devices on top of
/// `installed` ones (pass `&[]` for a fresh deployment). Under a work
/// budget the answer degrades silently to the best incumbent, or the
/// greedy when the search had none.
pub fn solve_budget(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    opts: &ExactOptions,
) -> BudgetSolution {
    // The budget MIP is feasible by construction: only a budget trip
    // before any incumbent falls through to the greedy.
    solve_budget_anytime(inst, budget, installed, opts)
        .settle(|| None)
        .unwrap_or_else(|| greedy_budget(inst, budget, installed, &[]))
}

/// The one-shot budget solve under the anytime contract, for the unified
/// dispatcher ([`crate::solve::solve_instance`]).
pub(crate) fn solve_budget_anytime(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    opts: &ExactOptions,
) -> Anytime<Option<BudgetSolution>> {
    CoverModel::budget(inst, installed, &[])
        .solve(inst, budget as f64, opts, 1)
        .map(|sol| sol.map(BudgetSolution::from_placement))
}

/// Expected coverage gain (absolute volume) from buying `extra` devices on
/// top of `installed` — the paper's "estimation of the expected gain in
/// buying one or a set of new devices".
pub fn expected_gain(
    inst: &PpmInstance,
    installed: &[usize],
    extra: usize,
    opts: &ExactOptions,
) -> f64 {
    let before = inst.coverage(installed);
    let after = solve_budget(inst, extra, installed, opts).coverage;
    (after - before).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;

    #[test]
    fn incremental_respects_installed() {
        let inst = fixture_figure3();
        // Pre-install the greedy-bait heavy link 0; completing to k=1 needs
        // 2 more (links 3/4 or 1/2 pick up the weight-1 traffics).
        let s = solve_incremental(&inst, 1.0, &[0], &ExactOptions::default()).unwrap();
        assert!(s.edges.contains(&0), "installed device must stay");
        assert_eq!(
            s.device_count(),
            3,
            "two new devices on top of the installed one"
        );
        assert!(inst.is_feasible(&s.edges, 1.0));
    }

    #[test]
    fn incremental_with_empty_base_matches_exact() {
        let inst = fixture_figure3();
        let a = solve_incremental(&inst, 1.0, &[], &ExactOptions::default()).unwrap();
        let b = crate::passive::solve_ppm_exact(&inst, 1.0, &ExactOptions::default()).unwrap();
        assert_eq!(a.device_count(), b.device_count());
    }

    #[test]
    fn budget_zero_covers_installed_only() {
        let inst = fixture_figure3();
        let s = solve_budget(&inst, 0, &[0], &ExactOptions::default());
        assert_eq!(s.edges, vec![0]);
        assert_eq!(s.coverage, 4.0);
    }

    #[test]
    fn budget_one_fresh_takes_heaviest() {
        let inst = fixture_figure3();
        let s = solve_budget(&inst, 1, &[], &ExactOptions::default());
        assert_eq!(s.edges.len(), 1);
        assert_eq!(
            s.coverage, 4.0,
            "best single edge covers the two weight-2 traffics"
        );
    }

    #[test]
    fn budget_two_fresh_covers_everything() {
        let inst = fixture_figure3();
        let s = solve_budget(&inst, 2, &[], &ExactOptions::default());
        assert_eq!(s.coverage, 6.0);
        assert!((s.coverage_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_is_monotone() {
        let inst = fixture_figure3();
        let mut last = 0.0;
        for b in 0..=3 {
            let s = solve_budget(&inst, b, &[], &ExactOptions::default());
            assert!(s.coverage + 1e-9 >= last);
            last = s.coverage;
        }
    }

    #[test]
    fn expected_gain_decreases_with_base() {
        let inst = fixture_figure3();
        let fresh = expected_gain(&inst, &[], 1, &ExactOptions::default());
        let on_top = expected_gain(&inst, &[0], 1, &ExactOptions::default());
        assert_eq!(fresh, 4.0);
        // With edge 0 installed, one more device adds at most 2.0 (one of
        // the weight-1 traffics via links 1/2... link 1 adds t2 (1.0) and
        // t0 already covered; link 2 likewise).
        assert!(on_top <= 2.0 + 1e-9);
        assert!(on_top > 0.0);
    }

    #[test]
    fn incremental_honors_the_work_budget() {
        let pop = popgen::PopSpec::paper_10().build();
        let ts = popgen::TrafficSpec::default().generate(&pop, 0);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let base = crate::passive::solve_ppm_exact(&inst, 0.8, &ExactOptions::default()).unwrap();
        let opts = ExactOptions {
            work_budget: Some(1),
            ..Default::default()
        };
        let s = solve_incremental(&inst, 0.95, &base.edges, &opts).unwrap();
        assert!(inst.is_feasible(&s.edges, 0.95));
        assert!(
            !s.proven_optimal,
            "a one-unit budget cannot prove optimality"
        );
        assert!(base.edges.iter().all(|e| s.edges.contains(e)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn incremental_rejects_bad_edge() {
        solve_incremental(&fixture_figure3(), 1.0, &[99], &ExactOptions::default());
    }
}
