//! Branch-and-bound driver on top of the simplex, enforcing integrality.
//!
//! The search is best-first over a **batch-synchronous node pool**: up to
//! [`MipOptions::node_batch`] open nodes are popped per round, their LP
//! relaxations solved (in parallel over [`MipOptions::threads`] workers
//! pulling from an atomic cursor), and the results merged *sequentially in
//! pop order* — incumbent updates, pseudocost observations, cut rows, and
//! child insertion all happen in the merge, so the search tree is a pure
//! function of the options and never of the thread count. Determinism is
//! keyed to `node_batch` alone: any `threads` value (including 0 = auto)
//! replays the identical node sequence, incumbent trajectory, and final
//! solution bit-for-bit.
//!
//! The relaxation is tightened with **cutting planes** (see [`crate::cuts`]):
//! [`MipOptions::cut_rounds`] violated rounds at the root and one round at
//! nodes no deeper than [`MipOptions::node_cut_depth`]. Cut rows are
//! appended with [`Model::add_constr`] and the LP re-solved from the
//! previous basis — the warm-start row-extension path makes each re-solve
//! a short dual repair of just the violated rows instead of a cold solve.
//!
//! Branching is **reliability branching**: candidates are scored by the
//! two-sided pseudocost rule, but a direction with fewer than
//! [`MipOptions::reliability`] real observations is not trusted — the
//! candidate is strong-branched (its child LP actually solved) and the
//! measured degradation recorded, seeding the pseudocosts with truth
//! before the cheap estimates take over.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::model::{fnv_step, Cmp, Model, Sense, FNV_OFFSET};
use crate::simplex::{self, LpWarmStart};
use crate::{cuts, presolve, tol};
use crate::{Result, Solution, SolveStatus, SolverError};

/// Cut rows accepted per separation round (most violated first).
const CUTS_PER_ROUND: usize = 16;

/// Tuning knobs for [`Model::solve_mip_with`].
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Relative optimality gap at which the search stops early.
    pub rel_gap: f64,
    /// Declares the objective integral over feasible integer solutions,
    /// allowing bounds to be rounded up (`ceil`) for stronger pruning.
    /// `None` auto-detects: true when every variable with a nonzero cost is
    /// integer with an integral cost coefficient.
    pub integral_objective: Option<bool>,
    /// Run the presolve reductions before the search (default true).
    pub presolve: bool,
    /// Reuse each node's LP basis to warm-start its children (dual simplex
    /// on the one changed bound instead of a cold two-phase solve).
    ///
    /// Off by default: basis reuse can land node LPs on *different optimal
    /// vertices* than cold solves, which changes branching order — for
    /// searches stopped early (node limits, loose `rel_gap`) the reported
    /// incumbent may then legitimately differ between the two settings.
    /// Proven-optimal runs return the same objective either way.
    pub warm_basis: bool,
    /// Rounds of cutting planes separated at the root (0 disables cuts).
    /// Each round appends the violated rows and re-solves the root LP from
    /// its previous basis.
    pub cut_rounds: usize,
    /// Additionally separate one round of cuts at interior nodes of depth
    /// at most this (0 = root only). The rows are globally valid, so they
    /// tighten every later node, not just the separating one.
    pub node_cut_depth: usize,
    /// Reliability threshold η: a pseudocost direction with fewer than η
    /// real observations is distrusted, and the candidate is
    /// strong-branched (child LP solved) instead. 0 disables strong
    /// branching and trusts the cost-seeded pseudocosts immediately.
    pub reliability: u32,
    /// Maximum branching candidates strong-branched per node.
    pub strong_cands: usize,
    /// Worker threads for the batch LP solves. 0 resolves `POPMON_THREADS`
    /// and falls back to the machine's parallelism. The value never
    /// affects results — only wall-clock.
    pub threads: usize,
    /// Nodes popped and LP-solved per batch. Results merge sequentially in
    /// pop order, so the search is a function of this value alone and is
    /// byte-identical at any thread count. 1 reproduces the classic
    /// one-node-at-a-time search.
    pub node_batch: usize,
    /// Cooperative **work budget** in deterministic work units (simplex
    /// iterations + basis refactorizations + branch-and-bound nodes).
    /// Unlike [`MipOptions::time_limit`], exhaustion is a pure function of
    /// the search trajectory — identical budgets produce bitwise-identical
    /// results at any thread count — and the anytime entry point
    /// ([`Model::solve_mip_anytime`]) returns the best incumbent and dual
    /// bound found instead of an error. `None` (the default) disables the
    /// budget entirely; the unbudgeted code path is untouched, so existing
    /// results stay byte-identical. The budget can be overshot by a
    /// bounded, deterministic amount (the simplex checks every 64th
    /// iteration, and in-flight batch members run to completion).
    pub work_budget: Option<u64>,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            time_limit: None,
            rel_gap: 1e-9,
            integral_objective: None,
            presolve: true,
            warm_basis: false,
            cut_rounds: 4,
            node_cut_depth: 0,
            reliability: 4,
            strong_cands: 8,
            threads: 1,
            node_batch: 1,
            work_budget: None,
        }
    }
}

/// Result of an anytime MIP solve ([`Model::solve_mip_anytime`]).
///
/// The **anytime contract**: for a minimization model,
/// `bound ≤ optimal ≤ incumbent.objective` whenever an incumbent exists
/// (for maximization the inequalities flip — `bound` is then an upper
/// bound). Both sides tighten monotonically with larger budgets, and a
/// budget at least as large as the uninterrupted solve's
/// [`Solution::work`] reproduces that solve bitwise.
#[derive(Debug, Clone)]
pub enum MipOutcome {
    /// The search ran to its natural end under the budget: a proven
    /// optimum, or a limit-terminated feasible solution exactly as the
    /// non-anytime API would have returned it.
    Complete(Solution),
    /// The work budget tripped mid-search. The best incumbent found so
    /// far (if any) and the sharpest dual bound proven are preserved —
    /// an interrupted solve still yields an answer with a quality
    /// certificate, never just an error.
    Interrupted {
        /// Best integer-feasible solution found before interruption, with
        /// its [`Solution::gap`] measured against `bound`. `None` when
        /// the budget tripped before any incumbent landed.
        incumbent: Option<Solution>,
        /// Dual bound in the model's own sense: no integer solution can
        /// beat it (minimization: `optimal ≥ bound`). `-inf`/`+inf` when
        /// even the root relaxation was interrupted.
        bound: f64,
        /// Work units actually spent (may overshoot the budget by the
        /// documented bounded amount).
        work_spent: u64,
    },
}

impl MipOutcome {
    /// The solution carried by this outcome: the complete solution, or
    /// the interrupted incumbent when one exists.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            MipOutcome::Complete(s) => Some(s),
            MipOutcome::Interrupted { incumbent, .. } => incumbent.as_ref(),
        }
    }

    /// Whether the search ended on its own terms (no budget trip).
    pub fn is_complete(&self) -> bool {
        matches!(self, MipOutcome::Complete(_))
    }
}

/// Resolves the worker count: an explicit request wins; 0 consults
/// `POPMON_THREADS` (the workspace-wide thread knob) and falls back to the
/// machine's available parallelism.
fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::env::var("POPMON_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cross-solve warm-start state returned by [`Model::solve_mip_anytime`]: the
/// optimal basis of the root relaxation (over the *presolved* model),
/// reusable as the root start of the next solve in a perturbation chain.
/// Reuse is guarded by [`LpWarmStart`]'s shape *and* coefficient
/// fingerprint check — presolve may fix different variables (and thus
/// emit structurally different reduced models) at different chain points,
/// and such a stale basis is silently ignored in favor of a cold root
/// solve rather than trusted. The captured basis predates this solve's own
/// cut rows, so the next link's un-cut model accepts it.
#[derive(Debug, Clone)]
pub struct MipWarmStart {
    root: LpWarmStart,
}

/// One open node: a set of bound changes relative to the root model.
#[derive(Debug, Clone)]
struct Node {
    /// Lower bound (minimization) inherited from the parent LP.
    bound: f64,
    depth: usize,
    /// Insertion sequence; later insertions win ties so the up-branch
    /// (pushed last) is plunged first — in covering problems the `x = 1`
    /// side reaches feasible incumbents sooner.
    seq: usize,
    /// `(var index, lo, hi)` overrides.
    changes: Vec<(usize, f64, f64)>,
    /// Parent's LP basis (shared by both children) when basis reuse is on.
    basis: Option<Arc<LpWarmStart>>,
    /// The branching that created this node: `(variable, up branch,
    /// fractional distance moved)`, used to update that variable's
    /// pseudocost once this node's LP solves.
    branched: Option<(usize, bool, f64)>,
    /// Raw (unstrengthened) parent LP objective, the reference point for
    /// the pseudocost degradation measurement.
    parent_obj: f64,
}

/// Observed per-unit objective degradations of branching a variable up /
/// down, seeded with the variable's |objective coefficient| until a real
/// observation lands. Drives the branching score: prefer the variable
/// whose *weaker* branch direction still moves the bound the most (the
/// min rule — both children must make progress), so plunges tighten the
/// bound faster and the best-first queue prunes earlier.
#[derive(Debug, Clone, Copy)]
struct PseudoCost {
    up_sum: f64,
    up_n: u32,
    down_sum: f64,
    down_n: u32,
    prior: f64,
}

impl PseudoCost {
    fn new(prior: f64) -> Self {
        Self {
            up_sum: 0.0,
            up_n: 0,
            down_sum: 0.0,
            down_n: 0,
            prior: prior.abs().max(1e-6),
        }
    }

    fn observe(&mut self, up: bool, per_unit: f64) {
        if up {
            self.up_sum += per_unit;
            self.up_n += 1;
        } else {
            self.down_sum += per_unit;
            self.down_n += 1;
        }
    }

    fn up(&self) -> f64 {
        if self.up_n > 0 {
            self.up_sum / self.up_n as f64
        } else {
            self.prior
        }
    }

    fn down(&self) -> f64 {
        if self.down_n > 0 {
            self.down_sum / self.down_n as f64
        } else {
            self.prior
        }
    }

    /// Branching score at the given floor/ceil distances: the guaranteed
    /// two-sided bound degradation (min rule — both children must move).
    fn score(&self, down_dist: f64, up_dist: f64) -> f64 {
        (self.down() * down_dist).min(self.up() * up_dist)
    }
}

/// Best-first ordering with depth then recency tie-breaking (deeper and
/// fresher first → plunging).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.depth == other.depth && self.seq == other.seq
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound on top.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn auto_integral_objective(model: &Model) -> bool {
    model
        .vars
        .iter()
        .all(|v| v.cost == 0.0 || (v.integer && v.cost.fract() == 0.0))
}

/// Whether a node with lower bound `bound` is closed by the incumbent:
/// either the bound cannot improve on the incumbent at the objective's own
/// scale, or the remaining gap is within the requested tolerance. The gap
/// goes through [`tol::rel_gap`] — scale-relative with a magnitude-safe
/// denominator — so `best ≈ 0`, negative objectives, and unbounded node
/// bounds all prune correctly.
fn closed_by(incumbent: &Option<(f64, Vec<f64>)>, bound: f64, rel_gap: f64) -> bool {
    incumbent.as_ref().is_some_and(|(best, _)| {
        bound >= *best - tol::obj_eps(*best) || tol::rel_gap(*best, bound) <= rel_gap
    })
}

/// Structural fingerprint of a cut row, for duplicate suppression across
/// separation sites (a node solved before a sibling's cut landed can
/// re-separate the identical row).
fn cut_fp(cut: &cuts::Cut) -> u64 {
    let mut h = FNV_OFFSET;
    for &(v, c) in &cut.terms {
        h = fnv_step(h, v.index() as u64);
        h = fnv_step(h, c.to_bits());
    }
    h = fnv_step(h, cut.rhs.to_bits());
    fnv_step(
        h,
        match cut.cmp {
            Cmp::Le => 0,
            Cmp::Eq => 1,
            Cmp::Ge => 2,
        },
    )
}

/// Appends the not-yet-seen cuts to both the root and the node model
/// (kept row-identical for the whole search); returns how many landed.
fn append_cuts(
    root_model: &mut Model,
    node_model: &mut Model,
    found: &[cuts::Cut],
    seen: &mut HashSet<u64>,
) -> usize {
    let mut added = 0;
    for cut in found {
        if !seen.insert(cut_fp(cut)) {
            continue;
        }
        root_model.add_constr(cut.terms.clone(), cut.cmp, cut.rhs);
        node_model.add_constr(cut.terms.clone(), cut.cmp, cut.rhs);
        added += 1;
    }
    added
}

/// A node's solved relaxation: the LP solution plus the basis snapshot
/// (present only when the node went through the warm-capable path).
struct NodeLp {
    sol: Solution,
    basis: Option<LpWarmStart>,
}

/// `Ok(None)` = LP infeasible (node closed); `Err` = numerical failure.
/// The `u64` is the work the LP call performed **whatever** the outcome —
/// infeasible and failed relaxations burn real pivots too, and the
/// anytime ledger must count them or a budget equal to a solve's own
/// reported [`Solution::work`] could trip inside work the report never
/// showed, breaking the reproduction guarantee.
type LpOutcome = (Result<Option<NodeLp>>, u64);

/// Solves one node's relaxation on `model` (a row-identical copy of
/// `root`), applying and then restoring the node's bound overrides. Pure
/// in (model rows, node, lp_budget) — workers call it on private clones,
/// the serial path on the shared node model, with identical results.
///
/// `lp_budget` is the work budget remaining at the owning batch's start —
/// identical for every node in the batch regardless of scheduling, which
/// is what keeps a budget trip deterministic across thread counts. A trip
/// surfaces as `Err(Interrupted)` and is handled by the merge.
fn solve_node_lp(
    model: &mut Model,
    root: &Model,
    node: &Node,
    warm_path: bool,
    lp_budget: Option<u64>,
) -> LpOutcome {
    for &(j, lo, hi) in &node.changes {
        model.vars[j].lo = lo;
        model.vars[j].hi = hi;
    }
    // The root always routes through the warm-capable path so chains can
    // seed it and its basis can seed the next chain link; interior nodes
    // reuse the parent basis only when `warm_basis` is on.
    let mut work = 0u64;
    let capture = warm_path || node.depth == 0;
    let warm = node.basis.as_deref().filter(|_| capture);
    let lp = simplex::solve(model, warm, capture, lp_budget, &mut work);
    restore(model, root, &node.changes);
    let outcome = match lp {
        Ok((sol, basis)) => Ok(Some(NodeLp { sol, basis })),
        Err(SolverError::Infeasible) => Ok(None),
        Err(e) => Err(e),
    };
    (outcome, work)
}

/// Entry point behind [`Model::solve_mip_with`]: a cold search flattened
/// into the plain surface. An interrupted search with an incumbent reports
/// it as a [`SolveStatus::Feasible`] solution with its gap (the same shape
/// a node-limit stop produces), and one without an incumbent surfaces
/// [`SolverError::Interrupted`]. Use [`solve_outcome`] /
/// [`Model::solve_mip_anytime`] for the typed form.
pub(crate) fn solve(model: &Model, opts: &MipOptions) -> Result<Solution> {
    match solve_outcome(model, opts, None)?.0 {
        MipOutcome::Complete(sol)
        | MipOutcome::Interrupted {
            incumbent: Some(sol),
            ..
        } => Ok(sol),
        MipOutcome::Interrupted {
            incumbent: None,
            work_spent,
            ..
        } => Err(SolverError::Interrupted { work_spent }),
    }
}

/// The full anytime search. See [`MipOutcome`] for the contract; with
/// [`MipOptions::work_budget`] unset this never returns
/// [`MipOutcome::Interrupted`] and is byte-identical to the pre-anytime
/// search.
pub(crate) fn solve_outcome(
    model: &Model,
    opts: &MipOptions,
    warm: Option<&MipWarmStart>,
) -> Result<(MipOutcome, Option<MipWarmStart>)> {
    // Work on a minimization copy to keep bound logic single-signed.
    let maximize = matches!(model.sense, Sense::Maximize);
    let mut work = model.clone();
    if maximize {
        work.sense = Sense::Minimize;
        for v in &mut work.vars {
            v.cost = -v.cost;
        }
    }

    // Presolve (kept optional for debugging and for the tests that compare
    // with/without reductions).
    let pre = if opts.presolve {
        presolve::presolve(&work)?
    } else {
        presolve::identity(&work)
    };
    let mut root_model = pre.model.clone();

    let int_vars: Vec<usize> = root_model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.integer)
        .map(|(i, _)| i)
        .collect();

    let integral_obj = opts
        .integral_objective
        .unwrap_or_else(|| auto_integral_objective(&root_model));
    let strengthen = |b: f64| {
        if integral_obj {
            (b - tol::int_eps(b)).ceil()
        } else {
            b
        }
    };

    let finish = |values_reduced: Vec<f64>,
                  status: SolveStatus,
                  gap: f64,
                  iterations: usize,
                  nodes: usize,
                  work: u64|
     -> Solution {
        let values = pre.expand(&values_reduced);
        let objective = model.objective_value(&values);
        Solution {
            values,
            objective,
            status,
            gap,
            iterations,
            nodes,
            work,
        }
    };

    // Initial incumbent from the user-supplied warm start, when feasible.
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-sense obj, reduced values)
    if let Some(init) = &model.initial {
        if model.check_feasible(init, crate::FEAS_TOL).is_ok() {
            let obj = work.objective_value(init);
            incumbent = Some((obj, pre.reduce(init)));
        }
    }

    let start = Instant::now();
    let mut iterations = 0usize;
    let mut nodes_explored = 0usize;
    // Deterministic work-unit ledger: every node charged at batch accept,
    // every LP call's true cost — successful, infeasible, tripped, or
    // failed — charged in merge order. A pure function of the search
    // trajectory, so budget trips replay bitwise at any thread count; and
    // complete (no outcome uncounted), so feeding a finished solve's own
    // `Solution::work` back as the budget reproduces it without a trip.
    let mut work_spent = 0u64;
    let mut interrupted = false;
    let mut open = BinaryHeap::new();
    let mut seq = 0usize;
    open.push(Node {
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq,
        changes: Vec::new(),
        basis: warm.map(|w| Arc::new(w.root.clone())),
        branched: None,
        parent_obj: f64::NEG_INFINITY,
    });
    // Pseudocosts over the reduced model's variables, objective-seeded.
    let mut pseudo: Vec<PseudoCost> = root_model
        .vars
        .iter()
        .map(|v| PseudoCost::new(v.cost))
        .collect();

    let mut node_model = root_model.clone();
    let mut proven = true;
    let mut root_basis_out: Option<MipWarmStart> = None;
    let mut seen_cuts: HashSet<u64> = HashSet::new();
    let nthreads = resolve_threads(opts.threads).max(1);
    let node_batch = opts.node_batch.max(1);

    loop {
        // Collect the next batch (pruning against the incumbent at pop
        // time; the merge re-checks after within-batch improvements).
        let mut batch: Vec<Node> = Vec::new();
        while batch.len() < node_batch {
            let Some(node) = open.pop() else { break };
            if closed_by(&incumbent, node.bound, opts.rel_gap) {
                continue;
            }
            batch.push(node);
        }
        if batch.is_empty() {
            break;
        }
        let work_tripped = opts.work_budget.is_some_and(|b| work_spent >= b);
        if work_tripped
            || nodes_explored + batch.len() > opts.max_nodes
            || opts.time_limit.is_some_and(|l| start.elapsed() >= l)
        {
            // Return the collected nodes so the final gap sees their bounds.
            for node in batch {
                open.push(node);
            }
            proven = false;
            interrupted |= work_tripped;
            break;
        }
        nodes_explored += batch.len();
        work_spent += batch.len() as u64;
        // Per-node LP budget: the work remaining *at batch start*. Fixed
        // for the whole batch so every member sees the same number no
        // matter which worker picks it up — the thread-count invariance
        // of a trip hinges on exactly this.
        let lp_budget = opts.work_budget.map(|b| b.saturating_sub(work_spent));

        // Solve the batch relaxations — in parallel when both the batch
        // and the worker pool are larger than one. Workers pull node
        // indices from an atomic cursor and run on private model clones;
        // results are reassembled in batch order, so the merge below is
        // oblivious to how the work was scheduled.
        let lps: Vec<LpOutcome> = if nthreads > 1 && batch.len() > 1 {
            let cursor = AtomicUsize::new(0);
            let mut slots: Vec<Option<LpOutcome>> = (0..batch.len()).map(|_| None).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..nthreads.min(batch.len()))
                    .map(|_| {
                        let cursor = &cursor;
                        let batch = &batch;
                        let root = &root_model;
                        let warm_path = opts.warm_basis;
                        s.spawn(move || {
                            let mut local = root.clone();
                            let mut out: Vec<(usize, LpOutcome)> = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                                if i >= batch.len() {
                                    break;
                                }
                                out.push((
                                    i,
                                    solve_node_lp(
                                        &mut local, root, &batch[i], warm_path, lp_budget,
                                    ),
                                ));
                            }
                            out
                        })
                    })
                    .collect();
                for h in handles {
                    for (i, r) in h.join().expect("node LP worker panicked") {
                        slots[i] = Some(r);
                    }
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every batch slot solved"))
                .collect()
        } else {
            let mut v = Vec::with_capacity(batch.len());
            for node in &batch {
                v.push(solve_node_lp(
                    &mut node_model,
                    &root_model,
                    node,
                    opts.warm_basis,
                    lp_budget,
                ));
            }
            v
        };

        // Sequential merge in pop order: everything order-sensitive
        // (incumbent, pseudocosts, cuts, child insertion) happens here.
        for (node, (lp, lp_work)) in batch.iter().zip(lps) {
            // Charge the LP's true cost first, whatever its outcome — an
            // infeasible node's closing certificate burns pivots that the
            // ledger must see, or a rerun with this solve's own reported
            // work as its budget would trip inside the uncounted work.
            work_spent += lp_work;
            // A node LP that tripped the batch's budget goes back on the
            // queue (its bound must count in the final dual bound); the
            // rest of the batch still merges — their LPs are solved,
            // discarding them would waste the work — and the search stops
            // at the end of this merge.
            let lp = match lp {
                Err(SolverError::Interrupted { .. }) => {
                    interrupted = true;
                    open.push(node.clone());
                    continue;
                }
                other => other,
            };
            let Some(NodeLp { mut sol, mut basis }) = lp? else {
                continue; // node LP infeasible: closed
            };
            iterations += sol.iterations;

            // Pseudocost update: how much did branching this variable in
            // this direction degrade the relaxation, per unit of
            // fractional distance? (Deterministic: the merge runs in a
            // total order, so the observation sequence is reproducible.)
            if let Some((bj, up, delta)) = node.branched {
                if delta > tol::int_eps(delta) && node.parent_obj.is_finite() {
                    let per_unit = ((sol.objective - node.parent_obj) / delta).max(0.0);
                    pseudo[bj].observe(up, per_unit);
                }
            }

            // Root: capture the chain warm-start first (pre-cut, so the
            // next chain link's un-cut model accepts it), then tighten
            // the relaxation with rounds of cutting planes, re-solving
            // from the previous basis via the row-extension warm path.
            if node.depth == 0 {
                root_basis_out = basis.clone().map(|root| MipWarmStart { root });
                let mut infeasible_by_cuts = false;
                let mut tripped_in_cuts = false;
                for _ in 0..opts.cut_rounds {
                    let found = cuts::separate(&root_model, &sol.values, CUTS_PER_ROUND);
                    if append_cuts(&mut root_model, &mut node_model, &found, &mut seen_cuts) == 0 {
                        break;
                    }
                    let mut cut_work = 0u64;
                    let lp2 =
                        simplex::solve(&node_model, basis.as_ref(), true, lp_budget, &mut cut_work);
                    work_spent += cut_work;
                    match lp2 {
                        Ok((s2, b2)) => {
                            iterations += s2.iterations;
                            sol = s2;
                            basis = b2;
                        }
                        // Valid cuts only exclude integer-infeasible
                        // regions: an infeasible cut relaxation proves
                        // the MIP itself has no integer point.
                        Err(SolverError::Infeasible) => {
                            infeasible_by_cuts = true;
                            break;
                        }
                        // Budget tripped inside a separation re-solve.
                        Err(SolverError::Interrupted { .. }) => {
                            tripped_in_cuts = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if infeasible_by_cuts {
                    continue;
                }
                if tripped_in_cuts {
                    // Terminal by design: expanding this node from a
                    // partially tightened relaxation would put the search
                    // on a different trajectory than a larger budget —
                    // the anytime monotonicity guarantee (bigger budgets
                    // never worsen the incumbent) requires every trip to
                    // stop the search at a shared-prefix point. The last
                    // fully solved relaxation is still a valid bound.
                    let mut back = node.clone();
                    back.bound = strengthen(sol.objective);
                    open.push(back);
                    interrupted = true;
                    continue;
                }
            }

            let mut bound = strengthen(sol.objective);
            if closed_by(&incumbent, bound, opts.rel_gap) {
                continue;
            }

            // Shallow interior nodes: one violated round of globally valid
            // cuts, re-solved under this node's bounds.
            if node.depth > 0 && node.depth <= opts.node_cut_depth {
                let found = cuts::separate(&root_model, &sol.values, CUTS_PER_ROUND);
                if append_cuts(&mut root_model, &mut node_model, &found, &mut seen_cuts) > 0 {
                    for &(j, lo, hi) in &node.changes {
                        node_model.vars[j].lo = lo;
                        node_model.vars[j].hi = hi;
                    }
                    let mut cut_work = 0u64;
                    let lp2 =
                        simplex::solve(&node_model, basis.as_ref(), true, lp_budget, &mut cut_work);
                    restore(&mut node_model, &root_model, &node.changes);
                    work_spent += cut_work;
                    match lp2 {
                        Ok((s2, b2)) => {
                            iterations += s2.iterations;
                            sol = s2;
                            basis = b2;
                        }
                        // Only this subtree is proven empty.
                        Err(SolverError::Infeasible) => continue,
                        // Budget trip mid-tightening: terminal (see the
                        // root-cut trip above) — the pre-cut relaxation
                        // is untouched and still a valid bound for the
                        // requeued node.
                        Err(SolverError::Interrupted { .. }) => {
                            let mut back = node.clone();
                            back.bound = bound;
                            open.push(back);
                            interrupted = true;
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                    bound = strengthen(sol.objective);
                    if closed_by(&incumbent, bound, opts.rel_gap) {
                        continue;
                    }
                }
            }

            // ---- expansion, under this node's bounds ----
            for &(j, lo, hi) in &node.changes {
                node_model.vars[j].lo = lo;
                node_model.vars[j].hi = hi;
            }
            // The LP may leave values a tolerance past their bounds (a
            // binary and the δ it carries at 1 + 3e-6): take them into
            // [lo, hi] before the fractionality test, so an integer reads as
            // integral at its bound rather than branching to a child whose
            // bounds cross, and the snapped candidate below is checked at
            // the projected point.
            for (x, v) in sol.values.iter_mut().zip(&node_model.vars) {
                *x = x.max(v.lo).min(v.hi);
            }

            // Fractional branching candidates with floor/ceil distances.
            let mut cands: Vec<(usize, f64, f64)> = Vec::new();
            for &j in &int_vars {
                let x = sol.values[j];
                if !tol::is_int(x) {
                    cands.push((j, x - x.floor(), x.ceil() - x));
                }
            }

            let lp_arc = basis.map(Arc::new);

            // Reliability branching: strong-branch the top-ranked
            // candidates whose pseudocosts are not yet trusted, feeding
            // the measured degradations back into the estimates. An
            // infeasible probe direction makes its variable the forced
            // choice — branching there closes one child instantly.
            let mut forced: Option<usize> = None;
            let mut probe_tripped = false;
            if opts.reliability > 0 && !cands.is_empty() {
                let mut order: Vec<usize> = (0..cands.len()).collect();
                order.sort_by(|&a, &b| cand_cmp(&pseudo, &cands[a], &cands[b]));
                'probing: for &ci in order.iter().take(opts.strong_cands) {
                    let (j, dd, ud) = cands[ci];
                    for up in [false, true] {
                        let (obs, dist) = if up {
                            (pseudo[j].up_n, ud)
                        } else {
                            (pseudo[j].down_n, dd)
                        };
                        if obs >= opts.reliability {
                            continue;
                        }
                        let x = sol.values[j];
                        let (plo, phi) = (node_model.vars[j].lo, node_model.vars[j].hi);
                        if up {
                            node_model.vars[j].lo = x.ceil();
                        } else {
                            node_model.vars[j].hi = x.floor();
                        }
                        let mut probe_work = 0u64;
                        let probe = simplex::solve(
                            &node_model,
                            lp_arc.as_deref(),
                            false,
                            lp_budget,
                            &mut probe_work,
                        )
                        .map(|(s, _)| s);
                        node_model.vars[j].lo = plo;
                        node_model.vars[j].hi = phi;
                        work_spent += probe_work;
                        match probe {
                            Ok(ps) => {
                                iterations += ps.iterations;
                                pseudo[j]
                                    .observe(up, ((ps.objective - sol.objective) / dist).max(0.0));
                            }
                            Err(SolverError::Infeasible) => {
                                forced = Some(j);
                                break 'probing;
                            }
                            // Budget trip inside a probe: end the search
                            // at this shared-prefix point (see the
                            // root-cut trip) — branching from half-made
                            // pseudocost observations would diverge from
                            // the larger-budget trajectory.
                            Err(SolverError::Interrupted { .. }) => {
                                probe_tripped = true;
                                break 'probing;
                            }
                            // Numerical trouble in a probe is advisory
                            // only — skip the observation (its work is
                            // still on the ledger).
                            Err(_) => {}
                        }
                    }
                }
            }
            if probe_tripped {
                restore(&mut node_model, &root_model, &node.changes);
                let mut back = node.clone();
                back.bound = bound;
                open.push(back);
                interrupted = true;
                continue;
            }

            let mut branch_var: Option<usize> = forced;
            if branch_var.is_none() && !cands.is_empty() {
                let mut best = 0usize;
                for ci in 1..cands.len() {
                    if cand_cmp(&pseudo, &cands[ci], &cands[best]) == Ordering::Less {
                        best = ci;
                    }
                }
                branch_var = Some(cands[best].0);
            }

            // Tolerance-integral LP optimum: snap the integer variables to
            // exact integers and re-verify against the node's true
            // (unscaled) bounds and rows before accepting. A value
            // integral only to within the scale-relative tolerance can
            // round onto an infeasible point; such a candidate must not
            // become the incumbent.
            let mut integral_candidate: Option<Vec<f64>> = None;
            if branch_var.is_none() {
                let mut snapped = sol.values.clone();
                for &j in &int_vars {
                    let v = &node_model.vars[j];
                    snapped[j] = snapped[j].round().clamp(v.lo, v.hi);
                }
                if node_model.check_feasible(&snapped, crate::FEAS_TOL).is_ok() {
                    integral_candidate = Some(snapped);
                } else if let Some(&j) = int_vars.iter().max_by(|&&a, &&b| {
                    let fa = (sol.values[a] - sol.values[a].round()).abs();
                    let fb = (sol.values[b] - sol.values[b].round()).abs();
                    fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
                }) {
                    let x = sol.values[j];
                    if (x - x.round()).abs() > tol::FIX_REL {
                        // Rounding broke feasibility but there is real
                        // fractionality left: branch on it instead.
                        branch_var = Some(j);
                    } else {
                        // Exactly integral yet infeasible on re-check —
                        // drop the node, and stop claiming a proven
                        // optimum since its subtree goes unexplored.
                        proven = false;
                    }
                }
            }

            match branch_var {
                None => {
                    if let Some(snapped) = integral_candidate {
                        let obj = node_model.objective_value(&snapped);
                        if incumbent
                            .as_ref()
                            .is_none_or(|(best, _)| obj < *best - tol::obj_eps(*best))
                        {
                            incumbent = Some((obj, snapped));
                        }
                    }
                }
                Some(j) => {
                    // Try a cheap rounding heuristic for an incumbent.
                    if let Some(rounded) = round_heuristic(&node_model, &sol.values, &int_vars) {
                        let obj = node_model.objective_value(&rounded);
                        if incumbent
                            .as_ref()
                            .is_none_or(|(best, _)| obj < *best - tol::obj_eps(*best))
                        {
                            incumbent = Some((obj, rounded));
                        }
                    }
                    let x = sol.values[j];
                    let (lo, hi) = (node_model.vars[j].lo, node_model.vars[j].hi);
                    let child_basis = if opts.warm_basis {
                        lp_arc.clone()
                    } else {
                        None
                    };
                    // Down child first: the up-branch (pushed last) wins
                    // ties and is plunged first. A child whose bounds
                    // cross is empty and never queued.
                    for (up, clo, chi, moved) in [
                        (false, lo, x.floor(), x - x.floor()),
                        (true, x.ceil(), hi, x.ceil() - x),
                    ] {
                        if clo > chi {
                            continue;
                        }
                        let mut changes = node.changes.clone();
                        changes.push((j, clo, chi));
                        seq += 1;
                        open.push(Node {
                            bound,
                            depth: node.depth + 1,
                            seq,
                            changes,
                            basis: child_basis.clone(),
                            branched: Some((j, up, moved)),
                            parent_obj: sol.objective,
                        });
                    }
                }
            }

            restore(&mut node_model, &root_model, &node.changes);
        }

        if interrupted {
            // A node LP tripped the budget mid-batch: its node is back on
            // the queue (so the dual bound below sees it) and the search
            // ends here deterministically.
            proven = false;
            break;
        }
    }

    let best_open_bound = open.peek().map(|n| n.bound).unwrap_or(f64::INFINITY);

    if interrupted {
        // Anytime surface: best incumbent + sharpest dual bound proven.
        // The dual bound is the least open-node bound, capped by the
        // incumbent (open nodes at or above the incumbent would have been
        // pruned at pop time); the root node re-queued with its -inf
        // bound correctly reports "nothing proven yet".
        let bound_min = match &incumbent {
            Some((obj, _)) => best_open_bound.min(*obj),
            None => best_open_bound,
        };
        let bound = if maximize { -bound_min } else { bound_min };
        let incumbent_sol = incumbent.map(|(obj, values)| {
            let gap = tol::rel_gap(obj, bound_min.min(obj));
            finish(
                values,
                SolveStatus::Feasible,
                gap,
                iterations,
                nodes_explored,
                work_spent,
            )
        });
        return Ok((
            MipOutcome::Interrupted {
                incumbent: incumbent_sol,
                bound,
                work_spent,
            },
            root_basis_out,
        ));
    }

    match incumbent {
        Some((obj, values)) => {
            let gap = if proven && open.is_empty() {
                0.0
            } else {
                tol::rel_gap(obj, best_open_bound.min(obj))
            };
            let status = if gap <= opts.rel_gap || (proven && open.is_empty()) {
                SolveStatus::Optimal
            } else {
                SolveStatus::Feasible
            };
            let gap = if status == SolveStatus::Optimal {
                0.0
            } else {
                gap
            };
            Ok((
                MipOutcome::Complete(finish(
                    values,
                    status,
                    gap,
                    iterations,
                    nodes_explored,
                    work_spent,
                )),
                root_basis_out,
            ))
        }
        None => {
            if proven {
                Err(SolverError::Infeasible)
            } else {
                Err(SolverError::NodeLimitNoSolution {
                    nodes: nodes_explored,
                })
            }
        }
    }
}

/// Candidate ordering for branching: higher pseudocost score first, then
/// most fractional (distance of the fractional part to ½), then lowest
/// index — a deterministic total order.
fn cand_cmp(pseudo: &[PseudoCost], a: &(usize, f64, f64), b: &(usize, f64, f64)) -> Ordering {
    let sa = pseudo[a.0].score(a.1, a.2);
    let sb = pseudo[b.0].score(b.1, b.2);
    sb.partial_cmp(&sa)
        .unwrap_or(Ordering::Equal)
        .then_with(|| {
            let fa = (a.1 - 0.5).abs();
            let fb = (b.1 - 0.5).abs();
            fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
        })
        .then_with(|| a.0.cmp(&b.0))
}

fn restore(node_model: &mut Model, root: &Model, changes: &[(usize, f64, f64)]) {
    for &(j, _, _) in changes {
        node_model.vars[j].lo = root.vars[j].lo;
        node_model.vars[j].hi = root.vars[j].hi;
    }
}

/// Rounds the integer variables of an LP solution and accepts the result
/// when it is feasible for `model`. Tries nearest-integer rounding first,
/// then ceiling — the latter almost always lands feasible on the covering
/// programs of the placement crate (`Σ x ≥ …` rows only grow).
fn round_heuristic(model: &Model, values: &[f64], int_vars: &[usize]) -> Option<Vec<f64>> {
    let snap = |f: fn(f64) -> f64| {
        let mut rounded = values.to_vec();
        for &j in int_vars {
            let v = &model.vars[j];
            rounded[j] = f(rounded[j]).clamp(v.lo, v.hi);
        }
        model
            .check_feasible(&rounded, crate::FEAS_TOL)
            .ok()
            .map(|_| rounded)
    };
    snap(f64::round).or_else(|| snap(|x| (x - tol::int_eps(x)).ceil()))
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, MipOptions, MipOutcome, Model, Sense, SolveStatus, SolverError, VarKind};

    /// The plain search: no cuts, no strong branching, serial single-node
    /// batches — the baseline the enriched default engine must agree with.
    fn plain() -> MipOptions {
        MipOptions {
            cut_rounds: 0,
            node_cut_depth: 0,
            reliability: 0,
            threads: 1,
            node_batch: 1,
            ..Default::default()
        }
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a + c (17)
        // vs b + c (20, weight 6 ok) -> optimum 20.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 10.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, 13.0);
        let c = m.add_var("c", VarKind::Binary, 0.0, 1.0, 7.0);
        m.add_constr(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6, "obj = {}", s.objective);
        assert!(s.is_one(b, 1e-6) && s.is_one(c, 1e-6));
    }

    #[test]
    fn set_cover_triangle_needs_two() {
        // LP relaxation gives 1.5; the MIP must find 2.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 1.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, 1.0);
        let c = m.add_var("c", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(a, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        m.add_constr(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        m.add_constr(vec![(b, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 2x + y, x integer in [0,10], y continuous >= 0,
        // x + y >= 3.5  -> x = 0, y = 3.5? cost 3.5. x=1,y=2.5 -> 4.5. So 3.5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.5);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert!((s.objective - 3.5).abs() < 1e-6);
        assert!(s.value(x).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x, 2x <= 5, x integer -> 2 (LP gives 2.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 2.0)], Cmp::Le, 5.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        assert_eq!(
            m.solve_mip_with(&MipOptions::default()).unwrap_err(),
            SolverError::Infeasible
        );
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer variables: solve_mip_with must behave like solve_lp.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 1.0)], Cmp::Ge, 2.5);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert!((s.objective - 2.5).abs() < 1e-9);
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, 1.0))
            .collect();
        // Each consecutive pair must have one selected.
        for w in vars.windows(2) {
            m.add_constr(vec![(w[0], 1.0), (w[1], 1.0)], Cmp::Ge, 1.0);
        }
        m.set_initial_solution(vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        // Optimal vertex cover of a path of 6 nodes (5 edges) costs 2? No:
        // pairs (0,1),(1,2),(2,3),(3,4),(4,5): picking x1, x3 covers the
        // first four; (4,5) needs x4 or x5 -> 3 total.
        assert!((s.objective - 3.0).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn node_limit_reports_feasible_with_gap() {
        // An equipartition-flavoured instance that needs some branching.
        let weights = [31.0, 27.0, 23.0, 19.0, 17.0, 13.0, 11.0, 7.0, 5.0, 3.0];
        let total: f64 = weights.iter().sum();
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, w))
            .collect();
        let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        m.add_constr(terms, Cmp::Le, total / 2.0 - 0.5);
        let opts = MipOptions {
            max_nodes: 1,
            ..Default::default()
        };
        match m.solve_mip_with(&opts) {
            Ok(s) => {
                // Root produced an incumbent via rounding; gap may be positive.
                assert!(s.objective <= total / 2.0);
            }
            Err(SolverError::NodeLimitNoSolution { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        // With a generous budget it must prove optimality.
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 77.0).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn fixed_binaries_respected_incremental_style() {
        // Paper's incremental deployment: pre-install x0 and ask for the
        // best completion.
        let mut m = Model::new(Sense::Minimize);
        let x0 = m.add_var("x0", VarKind::Binary, 0.0, 1.0, 1.0);
        let x1 = m.add_var("x1", VarKind::Binary, 0.0, 1.0, 1.0);
        let x2 = m.add_var("x2", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x1, 1.0), (x2, 1.0)], Cmp::Ge, 1.0);
        m.fix_var(x0, 1.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert!(s.is_one(x0, 1e-9));
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn equality_with_integers() {
        // x + y = 7, x - y = 1 over integers -> x=4, y=3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 100.0, 1.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 100.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 7.0);
        m.add_constr(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn presolve_toggle_agrees() {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, 1.0))
            .collect();
        for i in 0..8usize {
            let terms = vec![
                (vars[i], 1.0),
                (vars[(i + 2) % 8], 1.0),
                (vars[(i + 5) % 8], 1.0),
            ];
            m.add_constr(terms, Cmp::Ge, 1.0);
        }
        let with = m
            .solve_mip_with(&MipOptions {
                presolve: true,
                ..Default::default()
            })
            .unwrap();
        let without = m
            .solve_mip_with(&MipOptions {
                presolve: false,
                ..Default::default()
            })
            .unwrap();
        assert!((with.objective - without.objective).abs() < 1e-6);
    }

    /// A small set-cover family used by the engine-agreement tests below.
    fn cover_instance(n: usize, stride: usize) -> Model {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|i| {
                m.add_var(
                    format!("x{i}"),
                    VarKind::Binary,
                    0.0,
                    1.0,
                    1.0 + (i % 3) as f64,
                )
            })
            .collect();
        for i in 0..n {
            let terms = vec![
                (vars[i], 1.0),
                (vars[(i + stride) % n], 1.0),
                (vars[(i + 2 * stride + 1) % n], 1.0),
            ];
            m.add_constr(terms, Cmp::Ge, 1.0);
        }
        m
    }

    #[test]
    fn enriched_engine_agrees_with_plain_search() {
        // Cuts + reliability branching + batching must not change proven
        // optima — only how fast the proof goes.
        for (n, stride) in [(8, 2), (11, 3), (13, 4)] {
            let m = cover_instance(n, stride);
            let plain = m.solve_mip_with(&plain()).unwrap();
            let rich = m
                .solve_mip_with(&MipOptions {
                    cut_rounds: 4,
                    node_cut_depth: 2,
                    reliability: 2,
                    node_batch: 4,
                    threads: 2,
                    warm_basis: true,
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(plain.status, SolveStatus::Optimal);
            assert_eq!(rich.status, SolveStatus::Optimal);
            assert!(
                (plain.objective - rich.objective).abs() < 1e-6,
                "n={n}: plain {} vs rich {}",
                plain.objective,
                rich.objective
            );
        }
    }

    #[test]
    fn parallel_pool_is_deterministic_across_thread_counts() {
        // Same node_batch, different thread counts: identical node count,
        // objective, and values — the pool's determinism contract.
        let m = cover_instance(13, 4);
        let solve_with_threads = |threads: usize| {
            m.solve_mip_with(&MipOptions {
                node_batch: 4,
                threads,
                warm_basis: true,
                ..Default::default()
            })
            .unwrap()
        };
        let one = solve_with_threads(1);
        let four = solve_with_threads(4);
        assert_eq!(one.nodes, four.nodes);
        assert_eq!(one.iterations, four.iterations);
        assert!((one.objective - four.objective).abs() == 0.0);
        assert_eq!(one.values, four.values);
    }

    #[test]
    fn zero_and_negative_objectives_prune_correctly() {
        // Optimal objective exactly 0 (the old relative-gap denominator's
        // worst case) and a negative-objective variant: both must close.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0, -1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - (-1.0)).abs() < 1e-9);

        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 1.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, -1.0);
        m.add_constr(vec![(a, 1.0), (b, -1.0)], Cmp::Ge, 0.0);
        let s = m.solve_mip_with(&MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.objective.abs() < 1e-9, "obj = {}", s.objective);
    }

    /// A two-link warm chain from a popmond session (the `serve_small`
    /// benchmark at seed 502): the LP 2 covering program of a chain with
    /// two failed and two installed links, re-solved after one flow's
    /// volume drops to zero and the coverage target rises. The warm root
    /// LP leaves binary `x10` (and the δ it carries) at 1.0000031, past
    /// its bound; the search used to branch on it, queue the up-child
    /// `[2, 1]`, and panic in the rounding heuristic's clamp.
    #[test]
    fn warm_root_value_past_a_binary_bound_is_not_branched_on() {
        const SUPPORTS: [&[usize]; 17] = [
            &[0, 1, 7],
            &[0, 2, 8],
            &[0, 2, 11],
            &[0, 3, 7, 11],
            &[0, 3, 10, 11],
            &[0, 4],
            &[0, 5],
            &[0, 11],
            &[1, 6, 11],
            &[2, 3, 6, 10],
            &[2, 3, 7, 9],
            &[2, 3, 9, 10],
            &[2, 10],
            &[4],
            &[6, 7],
            &[6, 9],
            &[7],
        ];
        let mut volumes = [
            28.0,
            22.0,
            17.0,
            99.81224057894539,
            1.664153830234311,
            16.0,
            13.0,
            24.0,
            6.387157165247225,
            5.856364060607929,
            9.76256422450403,
            1.0389186635780105,
            6.0,
            17.0,
            2.5,
            52.2813328589787,
            1.0,
        ];
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = (0..12)
            .map(|e| m.add_var(format!("x{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
            .collect();
        let mut ds = Vec::new();
        for (t, support) in SUPPORTS.iter().enumerate() {
            let d = m.add_var(format!("d{t}"), VarKind::Continuous, 0.0, 1.0, 0.0);
            let mut terms: Vec<_> = support.iter().map(|&e| (xs[e], 1.0)).collect();
            terms.push((d, -1.0));
            m.add_constr(terms, Cmp::Ge, 0.0);
            ds.push(d);
        }
        let coverage = |volumes: &[f64]| ds.iter().copied().zip(volumes.iter().copied()).collect();
        let row = m.add_constr(coverage(&volumes), Cmp::Ge, 168.94597401317995);
        for e in [6, 7] {
            m.fix_var(xs[e], 1.0);
            m.set_cost(xs[e], 0.0);
        }
        for e in [4, 8] {
            m.fix_var(xs[e], 0.0);
        }
        let opts = MipOptions {
            integral_objective: Some(true),
            warm_basis: true,
            ..Default::default()
        };
        let (_, warm) = m.solve_mip_anytime(&opts, None).unwrap();
        volumes[1] = 0.0;
        m.set_constr(row, coverage(&volumes));
        m.set_rhs(row, 284.3027532237239);
        let (outcome, _) = m.solve_mip_anytime(&opts, warm.as_ref()).unwrap();
        let MipOutcome::Complete(warm_sol) = outcome else {
            panic!("no budget set, so the search completes");
        };
        let cold = m.solve_mip_with(&opts).unwrap();
        assert_eq!(warm_sol.status, SolveStatus::Optimal);
        assert_eq!(warm_sol.objective, cold.objective);
    }
}
