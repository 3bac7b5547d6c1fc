//! `PPM(k)` solvers: greedy heuristics, exact MIPs, and deployment
//! variants (paper Sections 4.3–4.4).
//!
//! Every exact MIP here — one-shot `PPM(k)`, incremental, budget, and the
//! warm chains of [`crate::delta`] — is Linear Program 2 or its budget
//! twin, built, solved and decoded by one crate-private kernel
//! (`cover.rs`).

mod brute;
mod cover;
mod exact;
mod greedy;
mod mecf_bb;
mod variants;

pub use brute::brute_force_ppm;
pub(crate) use cover::CoverModel;
pub use cover::{build_lp2, build_lp2_target};
pub(crate) use exact::solve_ppm_exact_anytime;
pub use exact::{build_lp1, build_lp1_target, solve_ppm_exact, ExactOptions};
pub use greedy::{flow_greedy_ppm, greedy_adaptive, greedy_static};
pub use mecf_bb::solve_ppm_mecf_bb;
pub(crate) use variants::solve_budget_anytime;
pub use variants::{expected_gain, solve_budget, solve_incremental, BudgetSolution};

use crate::instance::PpmInstance;

/// A solution to `PPM(k)`: the selected monitor links plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PpmSolution {
    /// Selected edge indices, sorted.
    pub edges: Vec<usize>,
    /// Volume covered by the selection.
    pub coverage: f64,
    /// Total volume `V` of the instance.
    pub total_volume: f64,
    /// `true` when the solution is proven optimal (exact solvers with a
    /// completed search); heuristics always report `false`.
    pub proven_optimal: bool,
}

impl PpmSolution {
    /// Builds a solution from a device set, computing its coverage on
    /// `inst` (sorts and deduplicates the edges).
    pub fn from_edges(inst: &PpmInstance, mut edges: Vec<usize>, proven: bool) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let coverage = inst.coverage(&edges);
        Self {
            edges,
            coverage,
            total_volume: inst.total_volume(),
            proven_optimal: proven,
        }
    }

    /// Number of monitoring devices used.
    pub fn device_count(&self) -> usize {
        self.edges.len()
    }

    /// Fraction of the total volume covered (0 when the instance is empty).
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_volume > 0.0 {
            self.coverage / self.total_volume
        } else {
            0.0
        }
    }
}
