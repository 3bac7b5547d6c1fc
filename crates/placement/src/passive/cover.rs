//! The one Linear Program 2 kernel: every exact `PPM(k)`, incremental and
//! budget MIP of the crate is built, solved and decoded here.
//!
//! [`CoverModel`] owns a merged instance, its MIP, the `x_e` handles, each
//! merged group's `δ` handle, the coverage-target (LP 2) or budget row and
//! the warm basis of the previous solve. The one-shot solvers
//! ([`solve_ppm_exact`](crate::passive::solve_ppm_exact),
//! [`solve_incremental`](crate::passive::solve_incremental),
//! [`solve_budget`](crate::passive::solve_budget)) build one per call; a
//! [`DeltaInstance`](crate::delta::DeltaInstance) caches one per program
//! and repairs it in place along its chain.

use std::collections::HashMap;

use milp::{
    Cmp, ConstrId, MipOptions, MipOutcome, MipWarmStart, Model, Sense, Solution, SolveStatus,
    VarId, VarKind,
};

use crate::instance::PpmInstance;
use crate::passive::{greedy_adaptive, greedy_static, ExactOptions, PpmSolution};
use crate::solve::Anytime;

/// Nodes evaluated per batch-synchronous round of the one-shot `PPM(k)`
/// search. A fixed constant (not a function of the worker count) so the
/// branch-and-bound trajectory — and therefore every solution and CSV
/// derived from it — is identical whether the node LPs run on 1 thread or
/// 16. The chains and the incremental and budget solves search one node at
/// a time.
pub(crate) const EXACT_NODE_BATCH: usize = 8;

/// Builds Linear Program 2 for `inst` at fraction `k` (of the instance's
/// own total volume).
///
/// Returns the model and the `x_e` variable per edge (the `δ_t` variables
/// follow in order but are internal): the program the crate's exact
/// solvers solve, for callers that solve it themselves (its LP
/// relaxation, say).
pub fn build_lp2(inst: &PpmInstance, k: f64) -> (Model, Vec<VarId>) {
    build_lp2_target(inst, k * inst.total_volume())
}

/// [`build_lp2`] with an explicit coverage target in absolute volume.
///
/// This matters when solving a *merged* instance: merging drops
/// uncoverable (empty-support) traffics, so `k · merged.total_volume()`
/// would silently weaken the requirement; the exact solvers always pass
/// `k · V` of the original instance.
pub fn build_lp2_target(inst: &PpmInstance, target_volume: f64) -> (Model, Vec<VarId>) {
    let (model, xs, _, _) = lp2_layout(inst, target_volume);
    (model, xs)
}

/// Linear Program 2 with its handles: binary `x_e` (device on link `e`),
/// fractional `δ_t` (share of traffic `t` monitored), rows
/// `Σ_{e ∈ p_t} x_e ≥ δ_t` and the coverage row `Σ_t δ_t·v_t ≥ target`.
fn lp2_layout(inst: &PpmInstance, target: f64) -> (Model, Vec<VarId>, Vec<VarId>, ConstrId) {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<VarId> = (0..inst.num_edges)
        .map(|e| m.add_var(format!("x_e{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    let deltas = cover_rows(&mut m, inst, &xs, false);
    let coverage = deltas
        .iter()
        .zip(&inst.traffics)
        .map(|(&d, (v, _))| (d, *v))
        .collect();
    let row = m.add_constr(coverage, Cmp::Ge, target);
    (m, xs, deltas, row)
}

/// The maximum-coverage (budget) MIP: maximize `Σ_t δ_t·v_t` under the
/// same `δ_t` rows and a device budget row over the non-installed edges
/// (right-hand side set by each solve).
fn budget_layout(
    inst: &PpmInstance,
    installed: &[usize],
) -> (Model, Vec<VarId>, Vec<VarId>, ConstrId) {
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<VarId> = (0..inst.num_edges)
        .map(|e| m.add_var(format!("x_e{e}"), VarKind::Binary, 0.0, 1.0, 0.0))
        .collect();
    let deltas = cover_rows(&mut m, inst, &xs, true);
    let budget = xs
        .iter()
        .enumerate()
        .filter(|(e, _)| !installed.contains(e))
        .map(|(_, &x)| (x, 1.0))
        .collect();
    let row = m.add_constr(budget, Cmp::Le, 0.0);
    (m, xs, deltas, row)
}

/// Adds one `δ_t ∈ [0, 1]` (objective weight `v_t` when `weighted`, else
/// 0) and its row `Σ_{e ∈ p_t} x_e - δ_t ≥ 0` per traffic, returning the
/// `δ` handles.
fn cover_rows(m: &mut Model, inst: &PpmInstance, xs: &[VarId], weighted: bool) -> Vec<VarId> {
    inst.traffics
        .iter()
        .enumerate()
        .map(|(t, (v, support))| {
            let cost = if weighted { *v } else { 0.0 };
            let d = m.add_var(format!("delta_t{t}"), VarKind::Continuous, 0.0, 1.0, cost);
            let mut terms: Vec<(VarId, f64)> = support.iter().map(|&e| (xs[e], 1.0)).collect();
            terms.push((d, -1.0));
            m.add_constr(terms, Cmp::Ge, 0.0);
            d
        })
        .collect()
}

/// Which program a [`CoverModel`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Program {
    /// Linear Program 2: minimum devices reaching a coverage target.
    Lp2,
    /// Maximum coverage under a device budget.
    Budget,
}

/// Linear Program 2 (or its budget twin) over a merged instance, ready to
/// be re-targeted, repaired and re-solved (see the module docs).
#[derive(Debug)]
pub(crate) struct CoverModel {
    program: Program,
    /// The identical-support groups the model's rows are built on.
    merged: PpmInstance,
    model: Model,
    /// `x_e` per link.
    xs: Vec<VarId>,
    /// `δ` per merged group, in group order.
    deltas: Vec<VarId>,
    /// The coverage-target (LP 2) or device-budget row.
    row: ConstrId,
    /// Root basis of the previous solve, for the next one.
    warm: Option<MipWarmStart>,
}

impl CoverModel {
    /// Linear Program 2 over `inst` merged, with `installed` devices fixed
    /// on at zero cost and `failed` links fixed off.
    pub(crate) fn lp2(inst: &PpmInstance, installed: &[usize], failed: &[usize]) -> Self {
        Self::new(Program::Lp2, inst, installed, failed)
    }

    /// The budget MIP over `inst` merged: at most the solve's budget of
    /// new devices on top of `installed`, none on `failed` links.
    pub(crate) fn budget(inst: &PpmInstance, installed: &[usize], failed: &[usize]) -> Self {
        Self::new(Program::Budget, inst, installed, failed)
    }

    fn new(program: Program, inst: &PpmInstance, installed: &[usize], failed: &[usize]) -> Self {
        let merged = inst.merged();
        let (model, xs, deltas, row) = match program {
            Program::Lp2 => lp2_layout(&merged, 0.0),
            Program::Budget => budget_layout(&merged, installed),
        };
        let mut cover = CoverModel {
            program,
            merged,
            model,
            xs,
            deltas,
            row,
            warm: None,
        };
        for e in 0..cover.xs.len() {
            let (on, off) = (installed.contains(&e), failed.contains(&e));
            if on || off {
                cover.set_edge(e, on, off);
            }
        }
        cover
    }

    /// The one edge-status rule — failure beats installation: a failed
    /// link hosts no device (`x_e = 0`, even when installed), an installed
    /// device stays on (`x_e = 1`) as sunk cost outside the objective, and
    /// any other link is a free binary at its device cost.
    pub(crate) fn set_edge(&mut self, e: usize, installed: bool, failed: bool) {
        let x = self.xs[e];
        let device_cost = match self.program {
            Program::Lp2 => 1.0,
            Program::Budget => 0.0,
        };
        self.model
            .set_cost(x, if installed { 0.0 } else { device_cost });
        if failed {
            self.model.fix_var(x, 0.0);
        } else if installed {
            self.model.fix_var(x, 1.0);
        } else {
            self.model.set_bounds(x, 0.0, 1.0);
        }
    }

    /// Re-weights the coverage row after a volume-only delta to the
    /// original `traffics`, summing each group exactly as
    /// [`PpmInstance::merged`] would (zero-volume and uncoverable traffics
    /// skipped, original order — hence the same floats). Returns `false`,
    /// touching nothing, when some traffic's support is not one of the
    /// merged groups: the structure changed and the model must be rebuilt.
    pub(crate) fn reweigh(&mut self, traffics: &[(f64, Vec<usize>)]) -> bool {
        let index: HashMap<&[usize], usize> = self
            .merged
            .traffics
            .iter()
            .enumerate()
            .map(|(g, (_, s))| (s.as_slice(), g))
            .collect();
        let mut vols = vec![0.0f64; self.deltas.len()];
        for (v, s) in traffics {
            if *v <= 0.0 || s.is_empty() {
                continue;
            }
            match index.get(s.as_slice()) {
                Some(&g) => vols[g] += v,
                None => return false,
            }
        }
        let terms = self
            .deltas
            .iter()
            .zip(&vols)
            .map(|(&d, &v)| (d, v))
            .collect();
        self.model.set_constr(self.row, terms);
        for (group, v) in self.merged.traffics.iter_mut().zip(vols) {
            group.0 = v;
        }
        true
    }

    /// Seeds the search with the better of the paper's two greedy
    /// placements on the original instance `inst` (which carries the right
    /// target semantics) as the initial incumbent. The seed stays on the
    /// model for later solves.
    pub(crate) fn seed_greedy(&mut self, inst: &PpmInstance, k: f64) {
        // `min_by_key` keeps the first of equals: the static greedy wins ties.
        let warm = [greedy_static(inst, k), greedy_adaptive(inst, k)]
            .into_iter()
            .flatten()
            .min_by_key(PpmSolution::device_count);
        let Some(w) = warm else { return };
        let mut values = vec![0.0; self.model.var_count()];
        for &e in &w.edges {
            values[self.xs[e].index()] = 1.0;
        }
        for (d, (_, support)) in self.deltas.iter().zip(&self.merged.traffics) {
            if support.iter().any(|e| w.edges.contains(e)) {
                values[d.index()] = 1.0;
            }
        }
        self.model.set_initial_solution(values);
    }

    /// Solves with the row's right-hand side set to `rhs` (the coverage
    /// target in absolute volume, or the device budget), warm-started from
    /// the previous solve, `node_batch` nodes per search round. The
    /// placement is decoded on the original instance `inst`; `None` when
    /// the program is infeasible.
    pub(crate) fn solve(
        &mut self,
        inst: &PpmInstance,
        rhs: f64,
        opts: &ExactOptions,
        node_batch: usize,
    ) -> Anytime<Option<PpmSolution>> {
        self.model.set_rhs(self.row, rhs);
        let mip = MipOptions {
            max_nodes: opts.max_nodes,
            time_limit: opts.time_limit,
            rel_gap: opts.rel_gap,
            // Device counts are integral: round LP bounds up. Covered
            // volume is not.
            integral_objective: (self.program == Program::Lp2).then_some(true),
            // Node LPs differ from their parent by one bound: reuse the basis.
            warm_basis: true,
            // Batched rounds solve their node LPs in parallel
            // (POPMON_THREADS-aware); the results depend on the batch
            // alone, never on the thread count.
            threads: if node_batch > 1 { 0 } else { 1 },
            node_batch,
            work_budget: opts.work_budget,
            ..Default::default()
        };
        let (outcome, warm) = match self.model.solve_mip_anytime(&mip, self.warm.as_ref()) {
            Ok(out) => out,
            Err(milp::SolverError::Infeasible) => return Anytime::Done(None),
            Err(e) => panic!("MIP solver failed unexpectedly: {e}"),
        };
        if warm.is_some() {
            self.warm = warm;
        }
        let decode = |sol: &Solution, proven: bool| {
            let edges = (0..self.xs.len())
                .filter(|&e| sol.is_one(self.xs[e], 1e-4))
                .collect();
            Some(PpmSolution::from_edges(inst, edges, proven))
        };
        // A finished search is proven when it reports optimality; an
        // interrupted one never is.
        match outcome {
            MipOutcome::Complete(sol) => {
                Anytime::Done(decode(&sol, sol.status == SolveStatus::Optimal))
            }
            MipOutcome::Interrupted {
                incumbent,
                bound,
                work_spent,
            } => Anytime::Cut {
                incumbent: incumbent.map(|sol| decode(&sol, false)),
                bound,
                work_spent,
            },
        }
    }
}
