//! The unified solve API: one typed request/outcome pair for every
//! placement entry point.
//!
//! The batch functions ([`solve_ppm_exact`](crate::passive::solve_ppm_exact),
//! [`greedy_static`], [`solve_budget`](crate::passive::solve_budget)), the
//! chained [`DeltaInstance`] and the `popmond` service's wire queries all
//! meet here: [`SolveRequest`] carries the objective (`PPM(k)` or `APM`),
//! the method (greedy or exact) and the solver knobs as one embedded
//! [`ExactOptions`]; [`SolveOutcome`] is one enum over the existing
//! solution types. Validation ([`SolveRequest::validate`]) happens once,
//! with typed [`PlacementError`]s, before any solver state is touched.
//! See DESIGN.md § "The solve API".

use std::fmt;

use milp::{MipOutcome, SolveStatus};
use netgraph::{Graph, NodeId};

use crate::active::{compute_probes, place_beacons_greedy, place_beacons_ilp};
use crate::delta::DeltaInstance;
use crate::instance::PpmInstance;
use crate::passive::{
    greedy_static, solve_budget_anytime, solve_ppm_exact_anytime, BudgetSolution, ExactOptions,
    PpmSolution,
};

/// Typed validation error for placement requests and mutations — the
/// `placement`-side counterpart of `popgen::SpecError`: a stable field
/// name plus a human-readable reason, rendered as one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementError {
    /// The offending parameter.
    pub field: &'static str,
    /// Why the value was rejected.
    pub message: String,
}

impl PlacementError {
    pub(crate) fn new(field: &'static str, message: impl Into<String>) -> Self {
        PlacementError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.message)
    }
}

impl std::error::Error for PlacementError {}

/// What a solve optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Passive monitoring: minimum devices covering fraction `k` of the
    /// traffic (`PPM(k)`), or maximum coverage under a device budget when
    /// [`SolveRequest::device_budget`] is set (ignores `k`).
    Ppm {
        /// Coverage fraction target, `∈ [0, 1]`.
        k: f64,
    },
    /// Active monitoring: beacon placement on a router graph.
    Apm,
}

/// Which solver family answers the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// The paper's greedy (PPM: decreasing-load greedy; APM: improved
    /// greedy beacon placement). Never proven optimal.
    Greedy,
    /// Exact MIP/ILP under the request's node budget.
    Exact,
}

/// A validated solve request: objective, method, and the exact solvers'
/// knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// What to optimize.
    pub objective: Objective,
    /// Greedy or exact.
    pub method: SolveMethod,
    /// `Some(b)`: maximum-coverage placement of at most `b` new devices
    /// (the budget variant) instead of minimum devices at target `k`.
    /// Exact PPM only.
    pub device_budget: Option<usize>,
    /// Knobs of exact solves: node budget (`max_nodes`, ≥ 1), wall-clock
    /// limit, relative gap, greedy warm start, and the deterministic work
    /// budget. With `work_budget` set the solve is *anytime*: when the
    /// budget trips, the dispatcher returns [`SolveOutcome::Degraded`]
    /// carrying the partial exact answer (or a greedy fallback) instead of
    /// blocking until branch-and-bound finishes.
    pub exact: ExactOptions,
}

impl SolveRequest {
    fn with_objective(objective: Objective) -> Self {
        SolveRequest {
            objective,
            method: SolveMethod::Exact,
            device_budget: None,
            exact: ExactOptions::default(),
        }
    }

    /// An exact `PPM(k)` request with default knobs.
    pub fn ppm(k: f64) -> Self {
        Self::with_objective(Objective::Ppm { k })
    }

    /// An exact budget request: maximum coverage with at most `budget`
    /// new devices (`k` is ignored by budget solves).
    pub fn budget(budget: usize) -> Self {
        let mut req = Self::ppm(1.0);
        req.device_budget = Some(budget);
        req
    }

    /// An exact `APM` request with default knobs.
    pub fn apm() -> Self {
        Self::with_objective(Objective::Apm)
    }

    /// Switches the request to the greedy method.
    pub fn greedy(mut self) -> Self {
        self.method = SolveMethod::Greedy;
        self
    }

    /// Switches the request to the exact method.
    pub fn exact(mut self) -> Self {
        self.method = SolveMethod::Exact;
        self
    }

    /// Sets the branch-and-bound node budget.
    pub fn with_node_budget(mut self, node_budget: usize) -> Self {
        self.exact.max_nodes = node_budget;
        self
    }

    /// Caps the exact solve at `units` deterministic work units (see
    /// [`SolveRequest::exact`]): the solve becomes *anytime* and may
    /// return [`SolveOutcome::Degraded`].
    pub fn with_work_budget(mut self, units: u64) -> Self {
        self.exact.work_budget = Some(units);
        self
    }

    /// Replaces every exact-solver knob with `opts`.
    pub fn with_exact_options(mut self, opts: &ExactOptions) -> Self {
        self.exact = opts.clone();
        self
    }

    /// Validates the request with typed errors (the same bounds the
    /// solvers assert, minus any instance-dependent checks).
    pub fn validate(&self) -> Result<(), PlacementError> {
        if let Objective::Ppm { k } = self.objective {
            // Mirrors the solver tolerance: sweeps may land a float hair
            // above 1.
            if !k.is_finite() || !(0.0..=1.0 + 1e-12).contains(&k) {
                return Err(PlacementError::new(
                    "k",
                    format!("monitoring fraction must lie in [0, 1], got {k}"),
                ));
            }
        }
        if self.exact.max_nodes == 0 {
            return Err(PlacementError::new(
                "node_budget",
                "must be at least 1".to_string(),
            ));
        }
        let rel_gap = self.exact.rel_gap;
        if !rel_gap.is_finite() || rel_gap < 0.0 {
            return Err(PlacementError::new(
                "rel_gap",
                format!("must be finite and >= 0, got {rel_gap}"),
            ));
        }
        if self.device_budget.is_some() {
            if self.objective == Objective::Apm {
                return Err(PlacementError::new(
                    "device_budget",
                    "budget solves are PPM-only".to_string(),
                ));
            }
            if self.method == SolveMethod::Greedy {
                return Err(PlacementError::new(
                    "device_budget",
                    "budget solves use the exact method".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// An active (beacon) placement on a router graph, with the probe-phase
/// counters the service reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ApmSolution {
    /// Beacon node indices (in the solved graph's numbering), ascending.
    pub beacons: Vec<usize>,
    /// Number of probes in the computed probe set.
    pub probes: usize,
    /// Links the probe set covers.
    pub covered_links: usize,
    /// Links in the solved (router) graph.
    pub router_links: usize,
    /// `true` when the ILP proved optimality (greedy never does).
    pub proven_optimal: bool,
}

/// Why a budget-tripped solve came back [`SolveOutcome::Degraded`] with
/// the answer it did — the degradation reason that rides the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Branch-and-bound was interrupted holding an incumbent: the partial
    /// exact answer is returned (feasible, optimality unproven).
    PartialExact,
    /// The budget tripped before any incumbent existed: the paper's
    /// greedy supplied the answer instead.
    GreedyFallback,
}

impl DegradeReason {
    /// Stable wire token for the reason (`partial_exact` /
    /// `greedy_fallback`).
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::PartialExact => "partial_exact",
            DegradeReason::GreedyFallback => "greedy_fallback",
        }
    }
}

/// The outcome of a unified solve: one enum over the existing solution
/// types, plus the explicit infeasible case.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome {
    /// The coverage target is unreachable on this instance.
    Unreachable,
    /// A passive (tap) placement.
    Ppm(PpmSolution),
    /// A budget-constrained maximum-coverage placement.
    Budget(BudgetSolution),
    /// An active (beacon) placement.
    Apm(ApmSolution),
    /// An anytime solve whose work budget tripped before proven
    /// optimality: the best answer available plus the anytime record
    /// (`bound ≤ optimal ≤ partial` in the solve's objective sense).
    Degraded {
        /// The degraded answer — a [`SolveOutcome::Ppm`],
        /// [`SolveOutcome::Budget`], or [`SolveOutcome::Unreachable`]
        /// (when even the greedy fallback cannot reach the target); never
        /// itself `Degraded`.
        partial: Box<SolveOutcome>,
        /// Where the answer came from.
        reason: DegradeReason,
        /// Deterministic work units spent when the budget tripped.
        work_spent: u64,
        /// Dual bound proven before interruption, in the solve's own
        /// objective sense (a lower bound on the device count for PPM, an
        /// upper bound on the coverage for budget solves). Infinite when
        /// the budget tripped before the root relaxation finished.
        bound: f64,
    },
}

/// Kernel-level anytime result: the finished answer, or the record of a
/// work-budget interruption with whatever incumbent survived. Mapped onto
/// [`SolveOutcome::Degraded`] by the unified dispatchers.
#[derive(Debug, Clone)]
pub(crate) enum Anytime<T> {
    /// The solve ran to its normal end (no budget, or it never tripped).
    Done(T),
    /// The work budget tripped mid-search.
    Cut {
        /// Best incumbent at interruption, if any.
        incumbent: Option<T>,
        /// Dual bound proven so far, in the solve's objective sense.
        bound: f64,
        /// Work units spent when the budget tripped.
        work_spent: u64,
    },
}

impl<T> Anytime<T> {
    /// Maps a MIP outcome onto the kernel surface; `answer(sol, proven)`
    /// builds the placement from a MIP solution. A finished search is
    /// proven when it reports optimality; an interrupted one never is.
    pub(crate) fn from_mip(
        outcome: MipOutcome,
        mut answer: impl FnMut(&milp::Solution, bool) -> T,
    ) -> Self {
        match outcome {
            MipOutcome::Complete(sol) => {
                Anytime::Done(answer(&sol, sol.status == SolveStatus::Optimal))
            }
            MipOutcome::Interrupted {
                incumbent,
                bound,
                work_spent,
            } => Anytime::Cut {
                incumbent: incumbent.map(|sol| answer(&sol, false)),
                bound,
                work_spent,
            },
        }
    }
}

/// Maps a PPM kernel attempt onto the outcome surface, running `fallback`
/// (the paper's greedy on the same constrained state) when the budget
/// tripped before any incumbent existed.
fn ppm_outcome(
    attempt: Anytime<Option<PpmSolution>>,
    fallback: impl FnOnce() -> Option<PpmSolution>,
) -> SolveOutcome {
    match attempt {
        Anytime::Done(Some(s)) => SolveOutcome::Ppm(s),
        Anytime::Done(None) => SolveOutcome::Unreachable,
        Anytime::Cut {
            incumbent,
            bound,
            work_spent,
        } => {
            let (partial, reason) = match incumbent.flatten() {
                Some(s) => (SolveOutcome::Ppm(s), DegradeReason::PartialExact),
                None => match fallback() {
                    Some(g) => (SolveOutcome::Ppm(g), DegradeReason::GreedyFallback),
                    None => (SolveOutcome::Unreachable, DegradeReason::GreedyFallback),
                },
            };
            SolveOutcome::Degraded {
                partial: Box::new(partial),
                reason,
                work_spent,
                bound,
            }
        }
    }
}

/// [`ppm_outcome`]'s sibling for budget solves (the greedy fallback always
/// produces a placement — the budget problem is feasible by construction).
fn budget_outcome(
    attempt: Anytime<BudgetSolution>,
    fallback: impl FnOnce() -> BudgetSolution,
) -> SolveOutcome {
    match attempt {
        Anytime::Done(s) => SolveOutcome::Budget(s),
        Anytime::Cut {
            incumbent,
            bound,
            work_spent,
        } => {
            let (partial, reason) = match incumbent {
                Some(s) => (SolveOutcome::Budget(s), DegradeReason::PartialExact),
                None => (
                    SolveOutcome::Budget(fallback()),
                    DegradeReason::GreedyFallback,
                ),
            };
            SolveOutcome::Degraded {
                partial: Box::new(partial),
                reason,
                work_spent,
                bound,
            }
        }
    }
}

/// Solves a one-shot PPM request on a static instance, dispatching to the
/// batch kernels ([`solve_ppm_exact`](crate::passive::solve_ppm_exact) /
/// [`greedy_static`] / [`solve_budget`](crate::passive::solve_budget)). APM requests are rejected here — they need a router
/// graph, not an edge-support instance; use [`solve_apm`].
pub fn solve_instance(
    inst: &PpmInstance,
    req: &SolveRequest,
) -> Result<SolveOutcome, PlacementError> {
    req.validate()?;
    let Objective::Ppm { k } = req.objective else {
        return Err(PlacementError::new(
            "objective",
            "APM solves need a router graph; use solve_apm".to_string(),
        ));
    };
    if let Some(budget) = req.device_budget {
        return Ok(budget_outcome(
            solve_budget_anytime(inst, budget, &[], &req.exact),
            || greedy_budget(inst, budget, &[], &[]),
        ));
    }
    let attempt = match req.method {
        SolveMethod::Exact => solve_ppm_exact_anytime(inst, k, &req.exact),
        SolveMethod::Greedy => Anytime::Done(greedy_static(inst, k)),
    };
    Ok(ppm_outcome(attempt, || {
        greedy_constrained(inst, &[], &[], k)
    }))
}

/// Solves an APM request on a (router) graph: probe computation followed
/// by greedy or ILP beacon placement, every node a candidate.
pub fn solve_apm(graph: &Graph, req: &SolveRequest) -> Result<SolveOutcome, PlacementError> {
    req.validate()?;
    if req.objective != Objective::Apm {
        return Err(PlacementError::new(
            "objective",
            "solve_apm answers APM requests only".to_string(),
        ));
    }
    let candidates: Vec<NodeId> = graph.nodes().collect();
    let probes = compute_probes(graph, &candidates);
    let placement = match req.method {
        SolveMethod::Greedy => place_beacons_greedy(&probes, &candidates),
        SolveMethod::Exact => place_beacons_ilp(graph, &probes, &candidates),
    };
    Ok(SolveOutcome::Apm(ApmSolution {
        beacons: placement.beacons.iter().map(|b| b.index()).collect(),
        probes: probes.len(),
        covered_links: probes.covered.iter().filter(|&&c| c).count(),
        router_links: graph.edge_count(),
        proven_optimal: placement.proven_optimal,
    }))
}

/// The paper's decreasing-load greedy, lifted to a constrained state:
/// pre-installed devices contribute their coverage for free (dead ones on
/// failed links do not — failure beats installation, matching
/// [`DeltaInstance::solve_exact`]), failed links can never host a device,
/// and the greedy covers the residual target on the masked instance.
/// `installed` and `disabled` must be sorted.
pub fn greedy_constrained(
    inst: &PpmInstance,
    installed: &[usize],
    disabled: &[usize],
    k: f64,
) -> Option<PpmSolution> {
    if installed.is_empty() && disabled.is_empty() {
        return greedy_static(inst, k);
    }
    let live: Vec<usize> = installed
        .iter()
        .copied()
        .filter(|e| disabled.binary_search(e).is_err())
        .collect();
    let target = k * inst.total_volume();
    let base = inst.coverage(&live);
    if base + 1e-9 >= target {
        return Some(PpmSolution::from_edges(inst, live, false));
    }
    // Residual instance: traffics already covered by the live installed
    // set drop out; the rest lose their failed links (a support that
    // empties becomes uncoverable, as in routed failures).
    let residual: Vec<(f64, Vec<usize>)> = inst
        .traffics
        .iter()
        .filter(|(_, s)| !s.iter().any(|e| live.binary_search(e).is_ok()))
        .map(|(v, s)| {
            (
                *v,
                s.iter()
                    .copied()
                    .filter(|e| disabled.binary_search(e).is_err())
                    .collect(),
            )
        })
        .collect();
    let masked = PpmInstance::new(inst.num_edges, residual);
    let sub_total = masked.total_volume();
    if sub_total <= 0.0 {
        return None;
    }
    let k_residual = ((target - base) / sub_total).min(1.0);
    let picked = greedy_static(&masked, k_residual)?;
    let mut edges = live;
    edges.extend(&picked.edges);
    edges.sort_unstable();
    edges.dedup();
    Some(PpmSolution::from_edges(inst, edges, false))
}

/// The greedy counterpart of the budget MIP, used as the degradation
/// fallback: live installed devices contribute their coverage for free
/// (failure beats installation), then up to `budget` new devices are
/// added one at a time by best marginal coverage gain, skipping failed
/// links. Never proven optimal. `installed` and `disabled` must be
/// sorted.
pub fn greedy_budget(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    disabled: &[usize],
) -> BudgetSolution {
    let mut edges: Vec<usize> = installed
        .iter()
        .copied()
        .filter(|e| disabled.binary_search(e).is_err())
        .collect();
    let mut coverage = inst.coverage(&edges);
    for _ in 0..budget {
        let mut best: Option<(usize, f64)> = None;
        for e in 0..inst.num_edges {
            if disabled.binary_search(&e).is_ok() || edges.contains(&e) {
                continue;
            }
            let mut trial = edges.clone();
            trial.push(e);
            let gain = inst.coverage(&trial) - coverage;
            if gain > best.map_or(0.0, |(_, g)| g) {
                best = Some((e, gain));
            }
        }
        let Some((e, gain)) = best else { break };
        edges.push(e);
        coverage += gain;
    }
    edges.sort_unstable();
    BudgetSolution {
        coverage: inst.coverage(&edges),
        total_volume: inst.total_volume(),
        proven_optimal: false,
        edges,
    }
}

impl DeltaInstance {
    /// Solves a unified request on the chain's current state — the one
    /// dispatch [`DeltaInstance::solve_exact`] and the `popmond` service
    /// route through. Exact solves ride the warm chain; greedy solves run
    /// [`greedy_constrained`] on the materialized instance. APM requests
    /// are rejected (they need a router graph; use [`solve_apm`]).
    ///
    /// With a work budget in [`SolveRequest::exact`] the exact solves are
    /// *anytime*: a tripped budget yields [`SolveOutcome::Degraded`] with
    /// the incumbent or a [`greedy_constrained`] / [`greedy_budget`]
    /// fallback on the same constrained state.
    pub fn solve(&mut self, req: &SolveRequest) -> Result<SolveOutcome, PlacementError> {
        req.validate()?;
        let Objective::Ppm { k } = req.objective else {
            return Err(PlacementError::new(
                "objective",
                "APM solves need a router graph; use solve_apm".to_string(),
            ));
        };
        if let Some(budget) = req.device_budget {
            let attempt = self.solve_budget_core(budget, &req.exact);
            return Ok(budget_outcome(attempt, || {
                greedy_budget(&self.instance(), budget, self.installed(), self.disabled())
            }));
        }
        let attempt = match req.method {
            SolveMethod::Exact => self.solve_exact_core(k, &req.exact),
            SolveMethod::Greedy => {
                let inst = self.instance();
                Anytime::Done(greedy_constrained(
                    &inst,
                    self.installed(),
                    self.disabled(),
                    k,
                ))
            }
        };
        Ok(ppm_outcome(attempt, || {
            greedy_constrained(&self.instance(), self.installed(), self.disabled(), k)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::{solve_budget, solve_ppm_exact};

    fn figure3() -> PpmInstance {
        PpmInstance::new(
            5,
            vec![
                (2.0, vec![0, 1]),
                (2.0, vec![0, 2]),
                (1.0, vec![1, 3]),
                (1.0, vec![2, 4]),
            ],
        )
    }

    #[test]
    fn unified_request_matches_the_kernels() {
        let inst = figure3();
        let opts = ExactOptions::default();
        for k in [0.5, 0.75, 1.0] {
            let unified = solve_instance(&inst, &SolveRequest::ppm(k)).unwrap();
            let kernel = solve_ppm_exact(&inst, k, &opts).unwrap();
            let SolveOutcome::Ppm(sol) = unified else {
                panic!("expected a PPM outcome");
            };
            assert_eq!(sol.device_count(), kernel.device_count(), "k = {k}");

            let unified = solve_instance(&inst, &SolveRequest::ppm(k).greedy()).unwrap();
            let kernel = greedy_static(&inst, k).unwrap();
            let SolveOutcome::Ppm(sol) = unified else {
                panic!("expected a PPM outcome");
            };
            assert_eq!(sol.edges, kernel.edges, "k = {k}");
        }
        for b in 0..=3 {
            let unified = solve_instance(&inst, &SolveRequest::budget(b)).unwrap();
            let kernel = solve_budget(&inst, b, &[], &opts);
            let SolveOutcome::Budget(sol) = unified else {
                panic!("expected a budget outcome");
            };
            assert_eq!(sol.coverage.to_bits(), kernel.coverage.to_bits(), "b = {b}");
        }
    }

    #[test]
    fn delta_solve_matches_the_shims() {
        let inst = figure3();
        let mut a = DeltaInstance::from_instance(&inst);
        let mut b = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        for k in [0.5, 1.0] {
            let via_request = a.solve(&SolveRequest::ppm(k)).unwrap();
            let via_shim = b.solve_exact(k, &opts).unwrap();
            let SolveOutcome::Ppm(sol) = via_request else {
                panic!("expected a PPM outcome");
            };
            assert_eq!(sol.device_count(), via_shim.device_count(), "k = {k}");
        }
    }

    #[test]
    fn validation_rejects_bad_requests() {
        for (req, field) in [
            (SolveRequest::ppm(1.5), "k"),
            (SolveRequest::ppm(f64::NAN), "k"),
            (SolveRequest::ppm(0.5).with_node_budget(0), "node_budget"),
            (SolveRequest::budget(2).greedy(), "device_budget"),
            (
                {
                    let mut r = SolveRequest::apm();
                    r.device_budget = Some(1);
                    r
                },
                "device_budget",
            ),
        ] {
            assert_eq!(req.validate().unwrap_err().field, field, "{req:?}");
        }
        let inst = figure3();
        assert_eq!(
            solve_instance(&inst, &SolveRequest::apm())
                .unwrap_err()
                .field,
            "objective"
        );
    }

    #[test]
    fn exact_options_round_trip() {
        assert_eq!(
            SolveRequest::ppm(0.5)
                .with_work_budget(64)
                .exact
                .work_budget,
            Some(64)
        );
    }

    #[test]
    fn apm_solves_on_a_small_graph() {
        use netgraph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes("r", 4);
        b.add_edge(nodes[0], nodes[1], 1.0);
        b.add_edge(nodes[1], nodes[2], 1.0);
        b.add_edge(nodes[2], nodes[3], 1.0);
        let graph = b.build();
        for req in [SolveRequest::apm(), SolveRequest::apm().greedy()] {
            let SolveOutcome::Apm(sol) = solve_apm(&graph, &req).unwrap() else {
                panic!("expected an APM outcome");
            };
            assert!(!sol.beacons.is_empty());
            assert_eq!(sol.router_links, 3);
        }
        assert_eq!(
            solve_apm(&graph, &SolveRequest::ppm(0.5))
                .unwrap_err()
                .field,
            "objective"
        );
    }
}
