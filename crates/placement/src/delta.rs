//! Delta-aware instances: sweep grids as chains of perturbations.
//!
//! Every sweep of the experiment suite re-solves near-identical `PPM`
//! programs: the coverage target `k` walks a grid over one traffic
//! matrix, a budget grows device by device, a link fails and everything
//! else stays put. [`DeltaInstance`] represents that directly — one
//! mutable instance plus a chain of deltas — instead of a fresh
//! [`PpmInstance`] per grid point, and threads two kinds of reuse through
//! the solves:
//!
//! * **warm-started exact solves** — the LP 2 / budget MIPs are built
//!   once per instance structure; successive grid points only move a
//!   right-hand side ([`milp::Model::set_rhs`]) and re-optimize from the
//!   previous point's root basis with the dual simplex
//!   ([`milp::Model::solve_mip_anytime`]), with branch-and-bound nodes
//!   reusing their parent's basis;
//! * **delta-aware re-routing** — in routed mode, failing a link re-runs
//!   Yen/Dijkstra only for the traffics whose path actually crossed it
//!   ([`netgraph::delta::RoutePlan`]).
//!
//! Results are *identical* to the one-shot solvers — the chains reuse
//! bases, never answers: a proven-optimal device count is the unique
//! optimum either way (pinned by `tests/delta_chain.rs` against
//! [`solve_ppm_exact`](crate::passive::solve_ppm_exact),
//! [`solve_incremental`](crate::passive::solve_incremental) and
//! [`solve_budget`](crate::passive::solve_budget) on the seed-0 sweeps).

use std::collections::HashMap;

use milp::{ConstrId, MipOptions, MipWarmStart, Model, VarId};
use netgraph::delta::RoutePlan;
use netgraph::{EdgeId, Graph, NodeId};
use popgen::TrafficSet;

use crate::instance::PpmInstance;
use crate::passive::{
    build_budget_model, build_lp2_target, install_greedy_incumbent, BudgetSolution, ExactOptions,
    PpmSolution,
};
use crate::solve::{Anytime, PlacementError, SolveOutcome, SolveRequest};

/// Routed backing for link toggles: the graph and the delta-aware route
/// plan under the current failures (the failure set itself lives in
/// `DeltaInstance::disabled`; the plan records it as its ban list).
#[derive(Debug, Clone)]
struct Routing {
    graph: Graph,
    plan: RoutePlan,
    /// For each current traffic, the plan pair that routes it — `None`
    /// for flows added later with an explicit support, which are not
    /// endpoint-routed and never re-route. Aligned with
    /// `DeltaInstance::traffics` across flow insertions and removals.
    pair_of: Vec<Option<usize>>,
}

/// A cached exact model: rebuilt when the instance structure changes,
/// re-targeted and warm-started along a grid otherwise. Volume-only and
/// bound-only deltas are *repaired in place* (see the mutation methods),
/// so the warm chain survives what-if streams, not just `k` grids.
#[derive(Debug)]
struct ModelCache {
    merged: PpmInstance,
    model: Model,
    xs: Vec<VarId>,
    warm: Option<MipWarmStart>,
    /// The coverage-target (exact) or budget row — stored at build time so
    /// in-place repairs never have to rediscover it.
    target_row: ConstrId,
    /// Exact cache only: the merged identical-support groups in model row
    /// order, each with the `δ` variable that carries the group's volume
    /// in the coverage row. Empty for the budget cache.
    groups: Vec<(Vec<usize>, VarId)>,
}

/// A `PPM` instance under a chain of deltas (see the module docs).
///
/// Structural mutations (flows added/removed, demands scaled, links
/// toggled) invalidate the cached models; coverage-target and budget
/// moves ride the warm-start chain.
#[derive(Debug, Default)]
pub struct DeltaInstance {
    num_edges: usize,
    /// `(volume, sorted support)` per traffic — the *original* (unmerged)
    /// instance the solvers' coverage semantics are defined on.
    traffics: Vec<(f64, Vec<usize>)>,
    /// Pre-installed devices (`x_e` fixed to 1 at zero cost — the paper's
    /// incremental-deployment setting).
    installed: Vec<usize>,
    /// Links that cannot host a device (`x_e` fixed to 0).
    disabled: Vec<usize>,
    routing: Option<Routing>,
    exact_cache: Option<ModelCache>,
    budget_cache: Option<ModelCache>,
}

impl DeltaInstance {
    /// Starts a chain from an existing instance (no routed backing: link
    /// failures only disable device placement, they cannot re-route).
    pub fn from_instance(inst: &PpmInstance) -> Self {
        DeltaInstance {
            num_edges: inst.num_edges,
            traffics: inst.traffics.clone(),
            ..Default::default()
        }
    }

    /// Starts a *routed* chain: volumes and endpoints come from `ts`, and
    /// every traffic is (re-)routed on `graph` by this instance — along
    /// the crate's deterministic shortest paths, delta-aware under link
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics when `ts` references nodes outside `graph`. The benchmark
    /// (`perfbench`) calls this form; other callers use
    /// [`DeltaInstance::try_from_traffic`].
    pub fn from_traffic(graph: &Graph, ts: &TrafficSet) -> Self {
        Self::try_from_traffic(graph, ts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DeltaInstance::from_traffic`]: a typed error
    /// instead of a panic when `ts` references nodes outside `graph`.
    pub fn try_from_traffic(graph: &Graph, ts: &TrafficSet) -> Result<Self, PlacementError> {
        let pairs: Vec<(NodeId, NodeId)> = ts.traffics.iter().map(|t| (t.src, t.dst)).collect();
        let plan = RoutePlan::compute(graph, &pairs, 1, &[]).map_err(|e| {
            PlacementError::new("traffic", format!("endpoints outside the graph: {e}"))
        })?;
        let traffics = ts
            .traffics
            .iter()
            .enumerate()
            .map(|(i, t)| (t.volume, support_of(&plan, i)))
            .collect();
        let pair_of = (0..pairs.len()).map(Some).collect();
        Ok(DeltaInstance {
            num_edges: graph.edge_count(),
            traffics,
            routing: Some(Routing {
                graph: graph.clone(),
                plan,
                pair_of,
            }),
            ..Default::default()
        })
    }

    /// Materializes the current instance (the exact state the chained
    /// solves are answering for).
    pub fn instance(&self) -> PpmInstance {
        PpmInstance::new(self.num_edges, self.traffics.clone())
    }

    /// Number of traffics currently in the instance.
    pub fn traffic_count(&self) -> usize {
        self.traffics.len()
    }

    /// Number of links in the instance.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The pre-installed device set (sorted, deduplicated).
    pub fn installed(&self) -> &[usize] {
        &self.installed
    }

    /// The currently failed links (sorted).
    pub fn disabled(&self) -> &[usize] {
        &self.disabled
    }

    /// `true` for routed chains (built by [`DeltaInstance::from_traffic`]),
    /// where link toggles re-route the crossing traffics. Unrouted chains
    /// keep every support fixed, which is what lets the resilience scorer
    /// track coverage incrementally.
    pub fn is_routed(&self) -> bool {
        self.routing.is_some()
    }

    /// The current demand volume of flow `t`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range flow index.
    pub fn demand(&self, t: usize) -> f64 {
        self.traffics[t].0
    }

    /// Adds a flow and returns its index.
    ///
    /// When the support matches an existing identical-support group of the
    /// cached exact model (or is uncoverable), the model is repaired in
    /// place — one coverage-row update — and the warm chain survives; a
    /// genuinely new support drops the cache.
    ///
    /// Like every mutation, it validates first and mutates nothing on
    /// rejection: an `Err` for a negative/NaN volume or an out-of-range
    /// support edge (callers such as the `popmond` service forward these
    /// straight onto their wire errors).
    pub fn try_add_flow(
        &mut self,
        volume: f64,
        mut support: Vec<usize>,
    ) -> Result<usize, PlacementError> {
        check_volume(volume)?;
        if let Some(&e) = support.iter().find(|&&e| e >= self.num_edges) {
            return Err(self.link_error("support", e));
        }
        support.sort_unstable();
        support.dedup();
        self.budget_cache = None;
        if let Some(routing) = self.routing.as_mut() {
            // Explicit-support flows are not endpoint-routed: they keep
            // their support verbatim across link toggles.
            routing.pair_of.push(None);
        }
        self.traffics.push((volume, support));
        self.refresh_exact_volumes();
        Ok(self.traffics.len() - 1)
    }

    /// Removes flow `t` (indices above `t` shift down, as in `Vec::remove`).
    /// A volume-only repair on the cached exact model: the warm chain
    /// survives (the emptied group's coverage weight drops, its row stays).
    /// `Err` on an out-of-range flow.
    pub fn try_remove_flow(&mut self, t: usize) -> Result<(), PlacementError> {
        self.check_traffic(t)?;
        self.budget_cache = None;
        if let Some(routing) = self.routing.as_mut() {
            routing.pair_of.remove(t);
        }
        self.traffics.remove(t);
        self.refresh_exact_volumes();
        Ok(())
    }

    /// Scales the demand of flow `t` by `factor`. A volume-only repair on
    /// the cached exact model: the warm chain survives. `Err` on an
    /// out-of-range flow, or when the scaled volume is negative or not
    /// finite.
    pub fn try_scale_demand(&mut self, t: usize, factor: f64) -> Result<(), PlacementError> {
        self.check_traffic(t)?;
        let v = self.traffics[t].0 * factor;
        if !v.is_finite() || v < 0.0 {
            return Err(PlacementError::new(
                "factor",
                format!("scaled volume must be finite and >= 0, got {v}"),
            ));
        }
        self.budget_cache = None;
        self.traffics[t].0 = v;
        self.refresh_exact_volumes();
        Ok(())
    }

    /// Sets the demand of flow `t` to an absolute `volume`. The exact-reset
    /// sibling of [`DeltaInstance::try_scale_demand`]: scaling back by
    /// `1/f` does not round-trip in floating point, so chains that must
    /// restore a bit-exact base state (the resilience scorer between
    /// scenarios) set the recorded base volume instead. A volume-only
    /// repair on the cached exact model: the warm chain survives. `Err` on
    /// an out-of-range flow or a negative/NaN volume.
    pub fn try_set_demand(&mut self, t: usize, volume: f64) -> Result<(), PlacementError> {
        self.check_traffic(t)?;
        check_volume(volume)?;
        self.budget_cache = None;
        self.traffics[t].0 = volume;
        self.refresh_exact_volumes();
        Ok(())
    }

    /// Replaces the pre-installed device set (edges fixed to 1 at zero
    /// cost — [`solve_incremental`](crate::passive::solve_incremental)'s
    /// sunk-cost semantics). A bound/cost repair on the cached exact model:
    /// only the edges whose status changed are touched and the warm chain
    /// survives. `Err` on an out-of-range edge.
    pub fn try_set_installed(&mut self, installed: &[usize]) -> Result<(), PlacementError> {
        if let Some(&e) = installed.iter().find(|&&e| e >= self.num_edges) {
            return Err(self.link_error("installed", e));
        }
        let mut new: Vec<usize> = installed.to_vec();
        new.sort_unstable();
        new.dedup();
        let old = std::mem::replace(&mut self.installed, new);
        // The budget model bakes the installed set into its structure.
        self.budget_cache = None;
        if let Some(cache) = self.exact_cache.as_mut() {
            for &e in old.iter().chain(&self.installed) {
                if old.binary_search(&e).is_ok() != self.installed.binary_search(&e).is_ok() {
                    sync_exact_edge(cache, &self.installed, &self.disabled, e);
                }
            }
        }
        Ok(())
    }

    /// Fails link `e`: no device may sit on it — even a pre-installed one
    /// (failure beats installation in both the exact and the budget
    /// solves) — and, in routed mode, every traffic whose path crossed it
    /// is re-routed around it (traffics disconnected by the failure keep
    /// their volume with an empty support, i.e. become uncoverable).
    /// Returns how many traffics were actually re-routed — the delta-aware
    /// savings are `traffic_count()` minus that. `Err` on an out-of-range
    /// link.
    ///
    /// When nothing re-routes (unrouted chains, or no traffic crossed the
    /// link), this is a pure bound repair on the cached exact model —
    /// `x_e` fixed to 0 — and the next solve is an incremental dual-simplex
    /// re-optimization, not a cold rebuild.
    pub fn try_fail_link(&mut self, e: usize) -> Result<usize, PlacementError> {
        self.check_link(e)?;
        if !self.disabled.contains(&e) {
            self.disabled.push(e);
            self.disabled.sort_unstable();
        }
        Ok(self.relink(e))
    }

    /// Restores a previously failed link (an *improving* change: in
    /// routed mode every traffic is re-routed from scratch). Returns the
    /// number of re-routed traffics. Like [`DeltaInstance::try_fail_link`],
    /// a re-route-free restore keeps the warm chain alive. `Err` on an
    /// out-of-range link.
    pub fn try_restore_link(&mut self, e: usize) -> Result<usize, PlacementError> {
        self.check_link(e)?;
        self.disabled.retain(|&d| d != e);
        Ok(self.relink(e))
    }

    /// After link `e` toggled: re-routes, then repairs or drops the cached
    /// models. Returns the number of re-routed traffics.
    fn relink(&mut self, e: usize) -> usize {
        let rerouted = self.reroute();
        self.budget_cache = None;
        if rerouted > 0 {
            // Supports changed: the merged group structure is stale.
            self.exact_cache = None;
        } else if let Some(cache) = self.exact_cache.as_mut() {
            sync_exact_edge(cache, &self.installed, &self.disabled, e);
        }
        rerouted
    }

    /// Checks that link `e` exists.
    fn check_link(&self, e: usize) -> Result<(), PlacementError> {
        if e >= self.num_edges {
            return Err(self.link_error("link", e));
        }
        Ok(())
    }

    /// The out-of-range error for link `e` in `field`.
    fn link_error(&self, field: &'static str, e: usize) -> PlacementError {
        PlacementError::new(
            field,
            format!(
                "link {e} out of range (instance has {} links)",
                self.num_edges
            ),
        )
    }

    /// Checks that flow `t` exists.
    fn check_traffic(&self, t: usize) -> Result<(), PlacementError> {
        if t >= self.traffics.len() {
            return Err(PlacementError::new(
                "traffic",
                format!(
                    "traffic {t} out of range (instance has {} traffics)",
                    self.traffics.len()
                ),
            ));
        }
        Ok(())
    }

    /// Re-routes against the current failure set; no-op without routing.
    fn reroute(&mut self) -> usize {
        let Some(routing) = self.routing.as_mut() else {
            return 0;
        };
        let banned: Vec<EdgeId> = self.disabled.iter().map(|&e| EdgeId(e as u32)).collect();
        let (plan, recomputed) = routing
            .plan
            .reroute_avoiding(&routing.graph, &banned)
            .expect("pairs stay valid");
        routing.plan = plan;
        for (i, t) in self.traffics.iter_mut().enumerate() {
            if let Some(p) = routing.pair_of[i] {
                t.1 = support_of(&routing.plan, p);
            }
        }
        recomputed
    }

    /// After a volume-only delta, repairs the cached exact model's
    /// coverage row in place: the identical-support groups are unchanged,
    /// only their summed volumes moved, so one [`milp::Model::set_constr`]
    /// on the stored target row brings the model back in sync and the warm
    /// basis survives. Drops the cache instead when some traffic's support
    /// no longer maps onto the cached groups (the structural case).
    fn refresh_exact_volumes(&mut self) {
        let Some(mut cache) = self.exact_cache.take() else {
            return;
        };
        let index: HashMap<&[usize], usize> = cache
            .groups
            .iter()
            .enumerate()
            .map(|(g, (s, _))| (s.as_slice(), g))
            .collect();
        // Re-derive each group's volume exactly as `PpmInstance::merged`
        // would: skip zero-volume/uncoverable traffics, sum the rest in
        // original traffic order (merge_traffics stable-sorts, so within a
        // group the summation order — hence the float — is identical).
        let mut vols = vec![0.0f64; cache.groups.len()];
        for (v, s) in &self.traffics {
            if *v <= 0.0 || s.is_empty() {
                continue;
            }
            match index.get(s.as_slice()) {
                Some(&g) => vols[g] += v,
                None => return, // new support group: cache stays dropped
            }
        }
        let terms: Vec<(VarId, f64)> = cache
            .groups
            .iter()
            .zip(&vols)
            .map(|((_, d), &v)| (*d, v))
            .collect();
        cache.model.set_constr(cache.target_row, terms);
        for (g, &v) in vols.iter().enumerate() {
            cache.merged.traffics[g].0 = v;
        }
        self.exact_cache = Some(cache);
    }

    /// Exact minimum-device `PPM(k)` on the current state, warm-started
    /// from the previous solve of this chain: [`DeltaInstance::solve`] on
    /// `SolveRequest::ppm(k).with_exact_options(opts)`, unwrapped to the
    /// placement. Identical results to
    /// [`solve_ppm_exact`](crate::passive::solve_ppm_exact) (no installed
    /// devices) / [`solve_incremental`](crate::passive::solve_incremental)
    /// (with them); `None` when the target is unreachable. A degraded
    /// anytime answer collapses to its partial placement.
    ///
    /// # Panics
    ///
    /// Panics when `k` lies outside `[0, 1]`.
    pub fn solve_exact(&mut self, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
        let req = SolveRequest::ppm(k).with_exact_options(opts);
        let outcome = self.solve(&req).unwrap_or_else(|e| panic!("{e}"));
        let outcome = match outcome {
            SolveOutcome::Degraded { partial, .. } => *partial,
            other => other,
        };
        match outcome {
            SolveOutcome::Ppm(sol) => Some(sol),
            SolveOutcome::Unreachable => None,
            other => unreachable!("PPM request produced {other:?}"),
        }
    }

    /// The exact-solve kernel behind [`DeltaInstance::solve`] (`k` already
    /// validated by the request).
    pub(crate) fn solve_exact_core(
        &mut self,
        k: f64,
        opts: &ExactOptions,
    ) -> Anytime<Option<PpmSolution>> {
        let inst = self.instance();
        let target = k * inst.total_volume();
        if target > inst.max_coverage_fraction() * inst.total_volume() + 1e-9 {
            return Anytime::Done(None);
        }
        if self.exact_cache.is_none() {
            let merged = inst.merged();
            let (mut model, xs) = build_lp2_target(&merged, 0.0);
            for &e in &self.installed {
                model.fix_var(xs[e], 1.0);
                model.set_cost(xs[e], 0.0);
            }
            for &e in &self.disabled {
                model.fix_var(xs[e], 0.0);
            }
            let target_row = model.constr(model.constr_count() - 1);
            // δ variables sit right after the x block, one per merged
            // group in group order (build_lp2_target's layout).
            let groups = merged
                .traffics
                .iter()
                .enumerate()
                .map(|(g, (_, s))| (s.clone(), model.var(xs.len() + g)))
                .collect();
            self.exact_cache = Some(ModelCache {
                merged,
                model,
                xs,
                warm: None,
                target_row,
                groups,
            });
        }
        let plain = self.installed.is_empty() && self.disabled.is_empty();
        let cache = self.exact_cache.as_mut().expect("built above");
        let target_row = cache.target_row;
        cache.model.set_rhs(target_row, target);
        if plain && opts.warm_start {
            install_greedy_incumbent(&mut cache.model, &cache.xs, &inst, &cache.merged, k);
        }
        // Mirror the one-shot solvers' options exactly (solve_ppm_exact
        // forwards rel_gap, solve_incremental keeps the default) so chain
        // results are comparable point for point.
        let mip_opts = MipOptions {
            max_nodes: opts.max_nodes,
            time_limit: opts.time_limit,
            rel_gap: if plain {
                opts.rel_gap
            } else {
                MipOptions::default().rel_gap
            },
            integral_objective: Some(true),
            warm_basis: true,
            work_budget: opts.work_budget,
            ..Default::default()
        };
        let (outcome, warm) = match cache
            .model
            .solve_mip_anytime(&mip_opts, cache.warm.as_ref())
        {
            Ok(out) => out,
            Err(milp::SolverError::Infeasible) => return Anytime::Done(None),
            Err(e) => panic!("MIP solver failed unexpectedly: {e}"),
        };
        if warm.is_some() {
            cache.warm = warm;
        }
        let num_edges = self.num_edges;
        Anytime::from_mip(outcome, |sol, proven| {
            let edges = (0..num_edges)
                .filter(|&e| sol.is_one(cache.xs[e], 1e-4))
                .collect();
            Some(PpmSolution::from_edges(&inst, edges, proven))
        })
    }

    /// The budget-solve kernel behind [`DeltaInstance::solve`]: maximum
    /// coverage with at most `budget` new devices on top of the installed
    /// set, warm-started along the chain. Identical results to
    /// [`solve_budget`](crate::passive::solve_budget).
    pub(crate) fn solve_budget_core(
        &mut self,
        budget: usize,
        opts: &ExactOptions,
    ) -> Anytime<BudgetSolution> {
        let inst = self.instance();
        if self.budget_cache.is_none() {
            let merged = inst.merged();
            let (mut model, xs) = build_budget_model(&merged, &self.installed);
            // Failure beats installation: a device on a failed link is
            // dead, so x_e drops to 0 even when e is in the installed set
            // (matching solve_exact's precedence).
            for &e in &self.disabled {
                model.fix_var(xs[e], 0.0);
            }
            let target_row = model.constr(model.constr_count() - 1);
            self.budget_cache = Some(ModelCache {
                merged,
                model,
                xs,
                warm: None,
                target_row,
                groups: Vec::new(),
            });
        }
        let cache = self.budget_cache.as_mut().expect("built above");
        let budget_row = cache.target_row;
        cache.model.set_rhs(budget_row, budget as f64);
        let mip_opts = MipOptions {
            max_nodes: opts.max_nodes,
            time_limit: opts.time_limit,
            warm_basis: true,
            work_budget: opts.work_budget,
            ..Default::default()
        };
        let (outcome, warm) = cache
            .model
            .solve_mip_anytime(&mip_opts, cache.warm.as_ref())
            .expect("budget problem is always feasible");
        if warm.is_some() {
            cache.warm = warm;
        }
        let num_edges = self.num_edges;
        Anytime::from_mip(outcome, |sol, proven| {
            let edges: Vec<usize> = (0..num_edges)
                .filter(|&e| sol.is_one(cache.xs[e], 1e-4))
                .collect();
            let coverage = inst.coverage(&edges);
            BudgetSolution {
                edges,
                coverage,
                total_volume: inst.total_volume(),
                proven_optimal: proven,
            }
        })
    }
}

/// Checks that a flow volume is finite and non-negative.
fn check_volume(volume: f64) -> Result<(), PlacementError> {
    if !volume.is_finite() || volume < 0.0 {
        return Err(PlacementError::new(
            "volume",
            format!("volume must be finite and >= 0, got {volume}"),
        ));
    }
    Ok(())
}

/// Re-syncs `x_e`'s bounds and cost in a cached exact model after edge `e`
/// changed installed/disabled status — reproducing exactly the state a
/// cold rebuild would set up: installed devices are fixed to 1 at zero
/// cost, failure beats installation (fixed to 0, cost as the rebuild
/// leaves it), free edges are binary at unit cost.
fn sync_exact_edge(cache: &mut ModelCache, installed: &[usize], disabled: &[usize], e: usize) {
    let x = cache.xs[e];
    let installed = installed.binary_search(&e).is_ok();
    if disabled.binary_search(&e).is_ok() {
        cache.model.set_cost(x, if installed { 0.0 } else { 1.0 });
        cache.model.fix_var(x, 0.0);
    } else if installed {
        cache.model.set_cost(x, 0.0);
        cache.model.fix_var(x, 1.0);
    } else {
        cache.model.set_cost(x, 1.0);
        cache.model.set_bounds(x, 0.0, 1.0);
    }
}

/// The sorted support of pair `i` under `plan` (empty when disconnected).
fn support_of(plan: &RoutePlan, i: usize) -> Vec<usize> {
    match plan.routes(i).first() {
        Some(p) => {
            let mut s: Vec<usize> = p.edges().iter().map(|e| e.index()).collect();
            s.sort_unstable();
            s.dedup();
            s
        }
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;
    use crate::passive::{solve_budget, solve_incremental, solve_ppm_exact};

    #[test]
    fn chain_matches_one_shot_on_figure3() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        for k in [0.5, 0.75, 0.9, 1.0] {
            let chained = delta.solve_exact(k, &opts).unwrap();
            let fresh = solve_ppm_exact(&inst, k, &opts).unwrap();
            assert_eq!(chained.device_count(), fresh.device_count(), "k = {k}");
            assert!(inst.is_feasible(&chained.edges, k));
            assert!(chained.proven_optimal);
        }
    }

    #[test]
    fn chain_matches_incremental_with_installed_base() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&[0]).unwrap();
        let opts = ExactOptions::default();
        for k in [0.75, 1.0] {
            let chained = delta.solve_exact(k, &opts).unwrap();
            let fresh = solve_incremental(&inst, k, &[0], &opts).unwrap();
            assert_eq!(chained.device_count(), fresh.device_count(), "k = {k}");
            assert!(chained.edges.contains(&0), "installed device must stay");
        }
    }

    #[test]
    fn budget_chain_matches_one_shot() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        for b in 0..=3 {
            let req = SolveRequest::budget(b).with_exact_options(&opts);
            let Ok(SolveOutcome::Budget(chained)) = delta.solve(&req) else {
                panic!("expected a budget outcome");
            };
            let fresh = solve_budget(&inst, b, &[], &opts);
            assert!(
                (chained.coverage - fresh.coverage).abs() < 1e-9,
                "budget = {b}"
            );
        }
    }

    #[test]
    fn structural_deltas_invalidate_and_stay_exact() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        let _ = delta.solve_exact(1.0, &opts).unwrap();

        // Scale one demand, add a flow, remove a flow — after each delta
        // the chained answer must equal the one-shot answer on the
        // materialized instance.
        delta.try_scale_demand(0, 3.0).unwrap();
        let t = delta.try_add_flow(2.5, vec![3, 4]).unwrap();
        let a = delta.solve_exact(0.9, &opts).unwrap();
        let fresh = solve_ppm_exact(&delta.instance(), 0.9, &opts).unwrap();
        assert_eq!(a.device_count(), fresh.device_count());

        delta.try_remove_flow(t).unwrap();
        let b = delta.solve_exact(0.9, &opts).unwrap();
        let fresh = solve_ppm_exact(&delta.instance(), 0.9, &opts).unwrap();
        assert_eq!(b.device_count(), fresh.device_count());
    }

    #[test]
    fn rejected_mutations_leave_the_state_untouched() {
        type Mutation = Box<dyn Fn(&mut DeltaInstance) -> Result<(), PlacementError>>;
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&[0]).unwrap();
        delta.try_fail_link(2).unwrap();
        let (m, n) = (delta.num_edges(), delta.traffic_count());
        let cases: Vec<(&str, Mutation)> = vec![
            ("link", Box::new(move |d| d.try_fail_link(m).map(drop))),
            ("link", Box::new(move |d| d.try_restore_link(m).map(drop))),
            ("traffic", Box::new(move |d| d.try_scale_demand(n, 2.0))),
            ("factor", Box::new(|d| d.try_scale_demand(0, -1.0))),
            ("factor", Box::new(|d| d.try_scale_demand(0, f64::NAN))),
            ("traffic", Box::new(move |d| d.try_set_demand(n, 1.0))),
            ("volume", Box::new(|d| d.try_set_demand(0, -1.0))),
            ("volume", Box::new(|d| d.try_set_demand(0, f64::NAN))),
            (
                "volume",
                Box::new(|d| d.try_add_flow(-1.0, vec![0]).map(drop)),
            ),
            (
                "volume",
                Box::new(|d| d.try_add_flow(f64::NAN, vec![0]).map(drop)),
            ),
            (
                "support",
                Box::new(move |d| d.try_add_flow(1.0, vec![0, m]).map(drop)),
            ),
            ("traffic", Box::new(move |d| d.try_remove_flow(n))),
            ("installed", Box::new(move |d| d.try_set_installed(&[1, m]))),
        ];
        for (field, mutate) in cases {
            let before = delta.instance();
            let err = mutate(&mut delta).unwrap_err();
            assert_eq!(err.field, field, "{err}");
            let after = delta.instance();
            assert_eq!(after.num_edges, before.num_edges, "{err}");
            assert_eq!(after.traffics, before.traffics, "{err}");
            assert_eq!(delta.installed(), &[0], "{err}");
            assert_eq!(delta.disabled(), &[2], "{err}");
        }
    }

    #[test]
    fn disabled_link_is_never_selected() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        let free = delta.solve_exact(1.0, &opts).unwrap();
        assert_eq!(free.edges, vec![1, 2]);
        // Unrouted mode: failing link 1 only forbids the device there.
        delta.try_fail_link(1).unwrap();
        let constrained = delta.solve_exact(1.0, &opts).unwrap();
        assert!(!constrained.edges.contains(&1));
        assert!(delta.instance().is_feasible(&constrained.edges, 1.0));
        assert!(constrained.device_count() >= free.device_count());
    }

    #[test]
    fn failing_an_installed_link_kills_its_device_in_both_solvers() {
        let inst = fixture_figure3();
        let opts = ExactOptions::default();
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&[1]).unwrap();
        delta.try_fail_link(1).unwrap();
        // Exact: the dead device is gone and the cover must rebuild
        // around it.
        let exact = delta.solve_exact(1.0, &opts).unwrap();
        assert!(
            !exact.edges.contains(&1),
            "failed link must not host a device"
        );
        assert!(inst.is_feasible(&exact.edges, 1.0));
        // Budget: same precedence — with budget 0 nothing can be placed
        // and the dead installed device contributes no coverage.
        let req = SolveRequest::budget(0).with_exact_options(&opts);
        let Ok(SolveOutcome::Budget(b)) = delta.solve(&req) else {
            panic!("expected a budget outcome");
        };
        assert!(
            b.edges.is_empty(),
            "dead installed device must not count, got {:?}",
            b.edges
        );
        assert_eq!(b.coverage, 0.0);
    }

    #[test]
    fn volume_deltas_keep_the_warm_chain_alive() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        let _ = delta.solve_exact(1.0, &opts).unwrap();
        assert!(delta.exact_cache.is_some());

        // Scale, re-add an existing support group, remove — all volume-only
        // repairs: the cached model must survive every one of them.
        delta.try_scale_demand(0, 2.5).unwrap();
        assert!(delta.exact_cache.is_some(), "scale must repair in place");
        let support = delta.traffics[1].1.clone();
        let t = delta.try_add_flow(1.5, support).unwrap();
        assert!(
            delta.exact_cache.is_some(),
            "existing-group try_add_flow must repair in place"
        );
        delta.try_remove_flow(t).unwrap();
        assert!(delta.exact_cache.is_some(), "remove must repair in place");

        // And the repaired model answers exactly like a cold solve.
        let chained = delta.solve_exact(0.9, &opts).unwrap();
        let fresh = solve_ppm_exact(&delta.instance(), 0.9, &opts).unwrap();
        assert_eq!(chained.device_count(), fresh.device_count());
        assert!(delta.instance().is_feasible(&chained.edges, 0.9));

        // A genuinely new support group is structural: cache dropped.
        delta.try_add_flow(1.0, vec![0, 3]).unwrap();
        assert!(
            delta.exact_cache.is_none(),
            "new support group must drop the cache"
        );
        let chained = delta.solve_exact(0.9, &opts).unwrap();
        let fresh = solve_ppm_exact(&delta.instance(), 0.9, &opts).unwrap();
        assert_eq!(chained.device_count(), fresh.device_count());
    }

    #[test]
    fn unrouted_link_toggles_keep_the_warm_chain_alive() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        let _ = delta.solve_exact(1.0, &opts).unwrap();

        // Unrouted fail/restore never re-routes: pure bound repairs.
        delta.try_fail_link(1).unwrap();
        assert!(delta.exact_cache.is_some(), "fail must repair in place");
        let a = delta.solve_exact(1.0, &opts).unwrap();
        let fresh = solve_ppm_exact(&delta.instance(), 1.0, &opts).unwrap();
        // solve_ppm_exact has no disabled set; compare against the chained
        // invariant instead: feasible, link excluded, optimal.
        assert!(!a.edges.contains(&1));
        assert!(delta.instance().is_feasible(&a.edges, 1.0));
        assert!(a.device_count() >= fresh.device_count());

        delta.try_restore_link(1).unwrap();
        assert!(delta.exact_cache.is_some(), "restore must repair in place");
        let b = delta.solve_exact(1.0, &opts).unwrap();
        let cold = solve_ppm_exact(&delta.instance(), 1.0, &opts).unwrap();
        assert_eq!(b.device_count(), cold.device_count());

        // try_set_installed is a cost/bound repair on the changed edges only.
        delta.try_set_installed(&[0]).unwrap();
        assert!(
            delta.exact_cache.is_some(),
            "try_set_installed must repair in place"
        );
        let c = delta.solve_exact(1.0, &opts).unwrap();
        let cold = solve_incremental(&delta.instance(), 1.0, &[0], &opts).unwrap();
        assert_eq!(c.device_count(), cold.device_count());
        assert!(c.edges.contains(&0));
        delta.try_set_installed(&[]).unwrap();
        let d = delta.solve_exact(1.0, &opts).unwrap();
        let cold = solve_ppm_exact(&delta.instance(), 1.0, &opts).unwrap();
        assert_eq!(d.device_count(), cold.device_count());
    }

    #[test]
    fn long_mixed_chain_tracks_cold_solves_exactly() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::small().build();
        let inst = {
            let ts = TrafficSpec::default().generate(&pop, 7);
            PpmInstance::from_traffic(&pop.graph, &ts)
        };
        let mut delta = DeltaInstance::from_instance(&inst);
        let opts = ExactOptions::default();
        let k = 0.8;
        let _ = delta.solve_exact(k, &opts);

        // A what-if stream: every answer must equal the cold solve on the
        // materialized instance (the service's determinism contract).
        let m = inst.num_edges;
        type Mutation = Box<dyn Fn(&mut DeltaInstance)>;
        let script: Vec<Mutation> = vec![
            Box::new(|d| {
                d.try_fail_link(0).unwrap();
            }),
            Box::new(|d| d.try_scale_demand(2, 1.75).unwrap()),
            Box::new(move |d| {
                d.try_fail_link(m - 1).unwrap();
            }),
            Box::new(|d| {
                d.try_restore_link(0).unwrap();
            }),
            Box::new(|d| d.try_set_installed(&[1, 3]).unwrap()),
            Box::new(|d| d.try_scale_demand(0, 0.25).unwrap()),
            Box::new(move |d| {
                d.try_restore_link(m - 1).unwrap();
            }),
            Box::new(|d| d.try_set_installed(&[]).unwrap()),
        ];
        for (step, mutate) in script.iter().enumerate() {
            mutate(&mut delta);
            let chained = delta.solve_exact(k, &opts);
            // The cold reference replays the same mutation prefix on a
            // fresh chain, so its first solve builds the model from
            // scratch — the service-vs-batch contract in miniature.
            let mut replay = DeltaInstance::from_instance(&inst);
            for m in &script[..=step] {
                m(&mut replay);
            }
            let cold = replay.solve_exact(k, &opts);
            // Warm and cold may land on different optimal vertices, so the
            // contract is the optimum value plus feasibility — byte-equal
            // placements are only promised for identical call sequences
            // (the service-vs-batch harness checks that stronger form).
            match (chained, cold) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.device_count(), b.device_count(), "step {step}");
                    let snapshot = delta.instance();
                    assert!(snapshot.is_feasible(&a.edges, k), "step {step}");
                    assert!(snapshot.is_feasible(&b.edges, k), "step {step}");
                }
                (None, None) => {}
                (a, b) => panic!("step {step}: chained {a:?} vs cold {b:?}"),
            }
            // Solver-independent anchor where the one-shot API applies.
            if delta.disabled.is_empty() {
                let snapshot = delta.instance();
                let installed = delta.installed.clone();
                let one_shot = if installed.is_empty() {
                    solve_ppm_exact(&snapshot, k, &opts)
                } else {
                    solve_incremental(&snapshot, k, &installed, &opts)
                };
                if let Some(b) = one_shot {
                    let a = delta.solve_exact(k, &opts).unwrap();
                    assert_eq!(a.device_count(), b.device_count(), "step {step}");
                }
            }
        }
        assert!(
            delta.exact_cache.is_some(),
            "the whole unrouted chain must ride one cached model"
        );
    }

    #[test]
    fn routed_mode_reroutes_only_crossing_traffics() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 0);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);

        // Unfailed routed supports must match the generator's own routing.
        let fresh = PpmInstance::from_traffic(&pop.graph, &ts);
        let routed = delta.instance();
        assert_eq!(routed.num_edges, fresh.num_edges);
        for (a, b) in routed.traffics.iter().zip(&fresh.traffics) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1, b.1, "deterministic tie-breaking must agree");
        }

        // Fail the most loaded link: only its crossing traffics re-route.
        let loads = fresh.edge_loads();
        let heavy = (0..loads.len())
            .max_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .unwrap();
        let crossing = fresh
            .traffics
            .iter()
            .filter(|(_, s)| s.contains(&heavy))
            .count();
        let recomputed = delta.try_fail_link(heavy).unwrap();
        assert_eq!(
            recomputed, crossing,
            "exactly the crossing traffics re-route"
        );
        let after = delta.instance();
        assert!(after.traffics.iter().all(|(_, s)| !s.contains(&heavy)));

        // And the graph-level ground truth: every re-routed support is the
        // shortest path avoiding the failed link.
        let banned = [netgraph::EdgeId(heavy as u32)];
        for (i, t) in ts.traffics.iter().enumerate() {
            let want: Vec<usize> = match netgraph::dijkstra::shortest_path_avoiding(
                &pop.graph,
                t.src,
                t.dst,
                &[],
                &banned,
            ) {
                Ok(p) => {
                    let mut s: Vec<usize> = p.edges().iter().map(|e| e.index()).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                }
                Err(_) => Vec::new(),
            };
            assert_eq!(after.traffics[i].1, want, "traffic {i}");
        }
    }

    #[test]
    fn routed_flow_churn_keeps_pair_alignment() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::small().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);
        assert!(delta.traffic_count() >= 3, "fixture too small for churn");

        // Remove a middle flow, then add one with an explicit support;
        // the surviving endpoint-routed traffics must keep re-routing
        // against their own pairs (this used to index the route plan
        // with post-churn traffic indices).
        delta.try_remove_flow(1).unwrap();
        let added = delta.try_add_flow(4.0, vec![0, 1]).unwrap();
        let mut endpoints: Vec<_> = ts.traffics.iter().map(|t| (t.src, t.dst)).collect();
        endpoints.remove(1);

        let heavy = delta.instance().traffics[0].1[0];
        delta.try_fail_link(heavy).unwrap();
        let after = delta.instance();
        assert_eq!(
            after.traffics[added].1,
            vec![0, 1],
            "explicit-support flows never re-route"
        );
        let banned = [netgraph::EdgeId(heavy as u32)];
        let ground_truth = |src, dst, banned: &[netgraph::EdgeId]| -> Vec<usize> {
            match netgraph::dijkstra::shortest_path_avoiding(&pop.graph, src, dst, &[], banned) {
                Ok(p) => {
                    let mut s: Vec<usize> = p.edges().iter().map(|e| e.index()).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                }
                Err(_) => Vec::new(),
            }
        };
        for (i, &(src, dst)) in endpoints.iter().enumerate() {
            assert_eq!(
                after.traffics[i].1,
                ground_truth(src, dst, &banned),
                "routed traffic {i} after churn + failure"
            );
        }

        // Restoring is an improving change (full recompute): alignment
        // must survive that path too.
        delta.try_restore_link(heavy).unwrap();
        let restored = delta.instance();
        for (i, &(src, dst)) in endpoints.iter().enumerate() {
            assert_eq!(
                restored.traffics[i].1,
                ground_truth(src, dst, &[]),
                "routed traffic {i} after restore"
            );
        }
        assert_eq!(restored.traffics[added].1, vec![0, 1]);
    }
}
