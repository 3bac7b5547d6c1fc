//! Engine-backed experiment scenarios.
//!
//! The `xp_*` binaries used to own ad-hoc serial loops; the sweeps now
//! live here as functions of an [`engine::Engine`], so that
//!
//! * the binaries run them across the worker pool
//!   (`POPMON_THREADS` or all cores by default), and
//! * the parity tests can run the *same* sweep serially and with multiple
//!   workers and assert the reports are byte-identical.
//!
//! Per-case sub-results that several cases share — the seeded deployment a
//! whole budget sweep reuses, or the probe set Φ consumed by three beacon
//! placements — go through the run's [`engine::Memo`], keyed by seed.

use engine::{Case, ChainCase, Engine, ScenarioReport, ScenarioSpec};
use milp::MipOptions;
use netgraph::Graph;
use placement::active::{
    assign_probes_ilp, compute_probes, place_beacons_greedy, place_beacons_ilp,
    place_beacons_thiran, ProbeSet,
};
use placement::campaign::{campaign_exact, campaign_greedy, CampaignProblem};
use placement::cascade::{independent_monitored, solve_ppme_cascade};
use placement::delta::DeltaInstance;
use placement::dynamic::{run_controller, ControllerSpec};
use placement::instance::PpmInstance;
use placement::passive::{
    flow_greedy_ppm, greedy_adaptive, greedy_static, solve_ppm_exact, solve_ppm_mecf_bb,
    ExactOptions,
};
use placement::resilience::{greedy_expected, score_ensemble};
use placement::sampling::{solve_ppme, PpmeOptions, SamplingProblem};
use placement::solve::{SolveOutcome, SolveRequest};
use popgen::dynamic::{DynamicSpec, TrafficProcess};
use popgen::{
    FailureModel, FailureSpec, FamilySpec, GravitySpec, MultiTraffic, Pop, TrafficSet, TrafficSpec,
};

use crate::{mean, stddev, timed};

/// The seed-keyed `PPM` instance every passive sweep starts from: the
/// seeded traffic matrix run through [`PpmInstance::from_traffic`]. The
/// instance construction (one shortest path per traffic pair) is shared
/// by every k-point of a sweep, so it goes through the run's memo.
fn ppm_instance_of(
    memo: &engine::Memo,
    domain: &'static str,
    pop: &Pop,
    seed: u64,
) -> std::sync::Arc<PpmInstance> {
    memo.get_or_compute(domain, seed, || {
        let ts = TrafficSpec::default().generate(pop, seed);
        PpmInstance::from_traffic(&pop.graph, &ts)
    })
}

// ---------------------------------------------------------------------------
// fig7: passive devices vs. k on the 10-router POP (greedy vs. exact ILP)
// ---------------------------------------------------------------------------

/// The figure-7 sweep: for each coverage target `k` (percent), the
/// decreasing-load greedy and the exact ILP device counts averaged over
/// seeds, plus the mean exact solve time. The per-seed instance is built
/// once and shared by every k-point through the memo.
///
/// Runs as per-seed **warm-start chains**: one [`DeltaInstance`] walks
/// the k grid, each exact solve re-targeting the coverage row and reusing
/// the previous point's LP basis. Chains live inside one worker and are
/// keyed by seed, so the CSV stays byte-identical at any thread count
/// (proven counts are unique — the chain reuses bases, not answers).
///
/// The trailing `ilp_time_s` column is a wall-clock measurement and is
/// the one column that legitimately varies run to run; parity tests
/// compare everything before it.
pub fn fig7_report(engine: &Engine, pop: &Pop, k_percents: &[u32], seeds: u64) -> ScenarioReport {
    let spec = ScenarioSpec::new("fig7_passive_10", k_percents.to_vec()).with_seeds(seeds);
    engine.run_chain_report(
        &spec,
        "k_percent,greedy_devices,ilp_devices,greedy_stddev,ilp_stddev,ilp_time_s",
        |c: ChainCase<'_, u32>| {
            let inst = ppm_instance_of(c.memo, "fig7_inst", pop, c.seed);
            let mut chain = DeltaInstance::from_instance(&inst);
            c.points
                .iter()
                .map(|&k_pct| {
                    let k = k_pct as f64 / 100.0;
                    let g = greedy_static(&inst, k).expect("all traffic coverable on this POP");
                    let (ilp, secs) = timed(|| {
                        chain
                            .solve_exact(k, &ExactOptions::default())
                            .expect("feasible")
                    });
                    assert!(inst.is_feasible(&ilp.edges, k));
                    (g.device_count() as f64, ilp.device_count() as f64, secs)
                })
                .collect()
        },
        |k_pct, rs| {
            let greedy: Vec<f64> = rs.iter().map(|r| r.0).collect();
            let ilp: Vec<f64> = rs.iter().map(|r| r.1).collect();
            let times: Vec<f64> = rs.iter().map(|r| r.2).collect();
            format!(
                "{k_pct},{:.2},{:.2},{:.2},{:.2},{:.3}",
                mean(&greedy),
                mean(&ilp),
                stddev(&greedy),
                stddev(&ilp),
                mean(&times),
            )
        },
    )
}

// ---------------------------------------------------------------------------
// fig8: passive devices vs. k on the 15-router POP (greedy vs. MECF B&B)
// ---------------------------------------------------------------------------

/// The figure-8 sweep: greedy vs. the MECF branch-and-bound on the
/// 15-router POP, averaged over seeds, with the fraction of seeded solves
/// that closed the search. `opts` bounds each exact solve (the binary
/// passes the paper protocol's two-minute budget).
///
/// As in [`fig7_report`], the trailing `exact_time_s` column is
/// wall-clock; parity tests strip it.
pub fn fig8_report(
    engine: &Engine,
    pop: &Pop,
    k_percents: &[u32],
    seeds: u64,
    opts: &ExactOptions,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("fig8_passive_15", k_percents.to_vec()).with_seeds(seeds);
    engine.run_report(
        &spec,
        "k_percent,greedy_devices,exact_devices,proven_fraction,exact_time_s",
        |c: Case<'_, u32>| {
            let inst = ppm_instance_of(c.memo, "fig8_inst", pop, c.seed);
            let k = *c.point as f64 / 100.0;
            let g = greedy_static(&inst, k).expect("all traffic coverable on this POP");
            let (s, secs) = timed(|| solve_ppm_mecf_bb(&inst, k, opts).expect("feasible"));
            assert!(inst.is_feasible(&s.edges, k));
            (
                g.device_count() as f64,
                s.device_count() as f64,
                s.proven_optimal,
                secs,
            )
        },
        |k_pct, rs| {
            let greedy: Vec<f64> = rs.iter().map(|r| r.0).collect();
            let exact: Vec<f64> = rs.iter().map(|r| r.1).collect();
            let proven = rs.iter().filter(|r| r.2).count();
            let times: Vec<f64> = rs.iter().map(|r| r.3).collect();
            format!(
                "{k_pct},{:.2},{:.2},{:.2},{:.1}",
                mean(&greedy),
                mean(&exact),
                proven as f64 / rs.len().max(1) as f64,
                mean(&times),
            )
        },
    )
}

// ---------------------------------------------------------------------------
// xp_mecf_ablation: the greedy family vs. the exact solvers across k
// ---------------------------------------------------------------------------

/// The section-4.3 ablation: static/adaptive/flow greedies against the
/// exact ILP and the MECF branch-and-bound on one POP, device counts
/// averaged over seeds. Fully deterministic (no timing columns).
///
/// The ILP column rides a per-seed warm-start chain across the k grid
/// (as in [`fig7_report`]); the other solvers are per-point.
pub fn mecf_ablation_report(
    engine: &Engine,
    pop: &Pop,
    k_percents: &[u32],
    seeds: u64,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("xp_mecf_ablation", k_percents.to_vec()).with_seeds(seeds);
    engine.run_chain_report(
        &spec,
        "k_percent,static_greedy,adaptive_greedy,flow_greedy,ilp,mecf_bb",
        |c: ChainCase<'_, u32>| {
            let inst = ppm_instance_of(c.memo, "ablation_inst", pop, c.seed);
            let opts = ExactOptions::default();
            let mut chain = DeltaInstance::from_instance(&inst);
            c.points
                .iter()
                .map(|&k_pct| {
                    let k = k_pct as f64 / 100.0;
                    [
                        greedy_static(&inst, k).expect("feasible").device_count() as f64,
                        greedy_adaptive(&inst, k).expect("feasible").device_count() as f64,
                        flow_greedy_ppm(&inst, k).expect("feasible").device_count() as f64,
                        chain
                            .solve_exact(k, &opts)
                            .expect("feasible")
                            .device_count() as f64,
                        solve_ppm_mecf_bb(&inst, k, &opts)
                            .expect("feasible")
                            .device_count() as f64,
                    ]
                })
                .collect()
        },
        |k_pct, rs| {
            let col = |i: usize| mean(&rs.iter().map(|r| r[i]).collect::<Vec<_>>());
            format!(
                "{k_pct},{:.2},{:.2},{:.2},{:.2},{:.2}",
                col(0),
                col(1),
                col(2),
                col(3),
                col(4),
            )
        },
    )
}

// ---------------------------------------------------------------------------
// xp_cascade: additive vs. independent-sampling (cascade) cost across k
// ---------------------------------------------------------------------------

/// The seed-keyed multi-routed traffic set shared by every k-point of the
/// sampling sweeps (2 routes per pair, the section-5 setting).
fn multi_traffic_of(
    memo: &engine::Memo,
    domain: &'static str,
    pop: &Pop,
    seed: u64,
) -> std::sync::Arc<Vec<MultiTraffic>> {
    memo.get_or_compute(domain, seed, || {
        TrafficSpec::default().generate_multi(pop, seed, 2)
    })
}

/// The section-7 cascade sweep: for each coverage target `k`, the additive
/// (packet-marking) optimum against the independent-sampling cascade
/// solver, plus the *actual* coverage the additive solution achieves when
/// devices cannot coordinate. Averaged over seeds.
pub fn cascade_report(
    engine: &Engine,
    pop: &Pop,
    k_percents: &[u32],
    seeds: u64,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("xp_cascade", k_percents.to_vec()).with_seeds(seeds);
    engine.run_report(
        &spec,
        "k_percent,additive_cost,cascade_cost,overhead_percent,additive_true_coverage",
        |c: Case<'_, u32>| {
            let multi = multi_traffic_of(c.memo, "cascade_multi", pop, c.seed);
            let k = *c.point as f64 / 100.0;
            let (ci, ce) = SamplingProblem::uniform_costs(pop.graph.edge_count());
            let prob = SamplingProblem::from_multi(&pop.graph, &multi, 0.0, k, ci, ce);
            let additive = solve_ppme(&prob, &PpmeOptions::default()).expect("feasible");
            let cascade = solve_ppme_cascade(&prob, &PpmeOptions::default()).expect("feasible");
            let actual = independent_monitored(&prob, &additive.rates);
            (
                additive.total_cost(),
                cascade.total_cost(),
                100.0 * actual / prob.total_volume(),
            )
        },
        |k_pct, rs| {
            let a = mean(&rs.iter().map(|r| r.0).collect::<Vec<_>>());
            let c = mean(&rs.iter().map(|r| r.1).collect::<Vec<_>>());
            let cov = mean(&rs.iter().map(|r| r.2).collect::<Vec<_>>());
            format!(
                "{k_pct},{a:.2},{c:.2},{:.1},{cov:.1}",
                100.0 * (c - a) / a.max(1e-9)
            )
        },
    )
}

// ---------------------------------------------------------------------------
// xp_sampling_cost: PPME(h,k) setup/exploitation cost structure
// ---------------------------------------------------------------------------

/// The section-5 cost sweep: for each `(h, k)` percent pair, the PPME
/// fixed-charge MILP's device count and cost split, averaged over seeds.
/// Callers pass pre-filtered pairs (`h ≤ k`); the multi-routed traffic
/// set is memoized per seed across all pairs.
pub fn sampling_cost_report(
    engine: &Engine,
    pop: &Pop,
    hk_percents: &[(u32, u32)],
    seeds: u64,
    opts: &PpmeOptions,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("xp_sampling_cost", hk_percents.to_vec()).with_seeds(seeds);
    engine.run_report(
        &spec,
        "k_percent,h_percent,devices,setup_cost,exploit_cost,total_cost",
        |c: Case<'_, (u32, u32)>| {
            let (h_pct, k_pct) = *c.point;
            let multi = multi_traffic_of(c.memo, "sampling_multi", pop, c.seed);
            let (ci, ce) = SamplingProblem::uniform_costs(pop.graph.edge_count());
            let prob = SamplingProblem::from_multi(
                &pop.graph,
                &multi,
                h_pct as f64 / 100.0,
                k_pct as f64 / 100.0,
                ci,
                ce,
            );
            let s = solve_ppme(&prob, opts).expect("feasible");
            prob.check_solution(&s.installed, &s.rates, 1e-5)
                .expect("valid solution");
            [
                s.device_count() as f64,
                s.setup_cost,
                s.exploit_cost,
                s.total_cost(),
            ]
        },
        |(h_pct, k_pct), rs| {
            let col = |i: usize| mean(&rs.iter().map(|r| r[i]).collect::<Vec<_>>());
            format!(
                "{k_pct},{h_pct},{:.2},{:.2},{:.2},{:.2}",
                col(0),
                col(1),
                col(2),
                col(3)
            )
        },
    )
}

// ---------------------------------------------------------------------------
// xp_incremental: frozen-device upgrades and the gain of buying devices
// ---------------------------------------------------------------------------

/// Per-seed state shared by both incremental sections: the instance and
/// the exact `PPM(0.8)` base deployment the upgrades start from.
struct IncrementalSeedSetup {
    inst: PpmInstance,
    base_edges: Vec<usize>,
}

fn incremental_seed_setup(
    memo: &engine::Memo,
    pop: &Pop,
    seed: u64,
) -> std::sync::Arc<IncrementalSeedSetup> {
    memo.get_or_compute("incremental_base", seed, || {
        let ts = TrafficSpec::default().generate(pop, seed);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let base = solve_ppm_exact(&inst, 0.8, &ExactOptions::default())
            .expect("PPM(0.8) is feasible on this POP");
        IncrementalSeedSetup {
            inst,
            base_edges: base.edges,
        }
    })
}

/// Section-1/4.3 upgrades: additional devices needed to reach each higher
/// `k` when the `PPM(0.8)` base cannot move, against a from-scratch
/// deployment. The base solve is memoized per seed (the serial loops
/// re-solved it for every k-point).
///
/// Both columns ride per-seed warm-start chains: one [`DeltaInstance`]
/// with the frozen base installed (the incremental totals) and one plain
/// (the from-scratch totals), each walking the k grid on a single model
/// whose coverage row is re-targeted point to point.
pub fn incremental_report(
    engine: &Engine,
    pop: &Pop,
    k_percents: &[u32],
    seeds: u64,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("xp_incremental", k_percents.to_vec()).with_seeds(seeds);
    let opts = ExactOptions::default();
    engine.run_chain_report(
        &spec,
        "section,x,incremental_total,scratch_total,penalty",
        |c: ChainCase<'_, u32>| {
            let setup = incremental_seed_setup(c.memo, pop, c.seed);
            let mut inc_chain = DeltaInstance::from_instance(&setup.inst);
            inc_chain
                .try_set_installed(&setup.base_edges)
                .expect("base placement edges are in range");
            let mut scratch_chain = DeltaInstance::from_instance(&setup.inst);
            c.points
                .iter()
                .map(|&k_pct| {
                    let k = k_pct as f64 / 100.0;
                    let inc = inc_chain.solve_exact(k, &opts).expect("feasible");
                    let scratch = scratch_chain.solve_exact(k, &opts).expect("feasible");
                    assert!(setup.inst.is_feasible(&inc.edges, k));
                    (inc.device_count() as f64, scratch.device_count() as f64)
                })
                .collect()
        },
        |k_pct, rs| {
            let i = mean(&rs.iter().map(|r| r.0).collect::<Vec<_>>());
            let s = mean(&rs.iter().map(|r| r.1).collect::<Vec<_>>());
            format!("upgrade_to_k,{k_pct},{i:.2},{s:.2},{:.2}", i - s)
        },
    )
}

/// Section-1/4.3 expected gain: coverage bought by adding 1..n optimally
/// placed devices on top of the `PPM(0.8)` base (memoized per seed, as in
/// [`incremental_report`]). The budget MIP rides a per-seed warm-start
/// chain over the extras grid (only the budget row's RHS moves).
pub fn budget_gain_report(
    engine: &Engine,
    pop: &Pop,
    extras: &[u32],
    seeds: u64,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("xp_incremental_gain", extras.to_vec()).with_seeds(seeds);
    let opts = ExactOptions::default();
    engine.run_chain_report(
        &spec,
        "section,x,coverage_gain,coverage_after_percent,unused",
        |c: ChainCase<'_, u32>| {
            let setup = incremental_seed_setup(c.memo, pop, c.seed);
            let before = setup.inst.coverage(&setup.base_edges);
            let mut chain = DeltaInstance::from_instance(&setup.inst);
            chain
                .try_set_installed(&setup.base_edges)
                .expect("base placement edges are in range");
            c.points
                .iter()
                .map(|&extra| {
                    let req = SolveRequest::budget(extra as usize).with_exact_options(&opts);
                    let Ok(SolveOutcome::Budget(b)) = chain.solve(&req) else {
                        unreachable!("a budget solve without a work budget finishes");
                    };
                    let gain = (b.coverage - before).max(0.0);
                    (gain, 100.0 * b.coverage_fraction())
                })
                .collect()
        },
        |extra, rs| {
            let gain = mean(&rs.iter().map(|r| r.0).collect::<Vec<_>>());
            let after = mean(&rs.iter().map(|r| r.1).collect::<Vec<_>>());
            format!("buy_devices,{extra},{gain:.2},{after:.2},0")
        },
    )
}

// ---------------------------------------------------------------------------
// xp_campaign: re-route traffic under a stretch budget for a fixed deployment
// ---------------------------------------------------------------------------

/// Per-seed state shared by every budget point of the campaign sweep: the
/// seeded traffic matrix, the fixed `PPM(0.8)` deployment, and the stretch
/// the unconstrained campaign would spend (the budget reference).
struct CampaignSeedSetup {
    ts: TrafficSet,
    installed: Vec<bool>,
    free_stretch: f64,
}

fn campaign_seed_setup(pop: &Pop, seed: u64) -> CampaignSeedSetup {
    let ts = TrafficSpec::default().generate(pop, seed);
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let placed = solve_ppm_exact(&inst, 0.8, &ExactOptions::default())
        .expect("PPM(0.8) is feasible on the campaign POP");
    let mut installed = vec![false; pop.graph.edge_count()];
    for &e in &placed.edges {
        installed[e] = true;
    }
    let free = CampaignProblem::new(&pop.graph, &ts, installed.clone(), 3, f64::INFINITY);
    let free_stretch = campaign_greedy(&free).total_stretch;
    CampaignSeedSetup {
        ts,
        installed,
        free_stretch,
    }
}

/// The measurement-campaign sweep (section 7 extension): for each stretch
/// budget (percent of the unconstrained campaign's stretch), the coverage
/// recaptured by the greedy and exact campaign solvers, averaged over
/// seeds. One CSV row per budget point.
pub fn campaign_report(
    engine: &Engine,
    pop: &Pop,
    budget_percents: &[u32],
    seeds: u64,
) -> ScenarioReport {
    let spec = ScenarioSpec::new("xp_campaign", budget_percents.to_vec()).with_seeds(seeds);
    engine.run_report(
        &spec,
        "budget_percent,coverage_before,greedy_after,exact_after,greedy_stretch",
        |c: Case<'_, u32>| {
            let setup = c
                .memo
                .get_or_compute("campaign_seed", c.seed, || campaign_seed_setup(pop, c.seed));
            let budget_pct = *c.point;
            let budget = if budget_pct == 100 {
                f64::INFINITY
            } else {
                setup.free_stretch * budget_pct as f64 / 100.0
            };
            let prob =
                CampaignProblem::new(&pop.graph, &setup.ts, setup.installed.clone(), 3, budget);
            let total = prob.total_volume();
            let before = prob.evaluate(&vec![0; prob.traffics.len()]).0;
            let g = campaign_greedy(&prob);
            let e = campaign_exact(&prob, &MipOptions::default());
            [
                100.0 * before / total,
                100.0 * g.monitored / total,
                100.0 * e.monitored / total,
                g.total_stretch,
            ]
        },
        |budget_pct, rs| {
            let col = |i: usize| mean(&rs.iter().map(|r| r[i]).collect::<Vec<_>>());
            format!(
                "{budget_pct},{:.1},{:.1},{:.1},{:.1}",
                col(0),
                col(1),
                col(2),
                col(3)
            )
        },
    )
}

// ---------------------------------------------------------------------------
// xp_dynamic_traffic: the threshold controller under evolving traffic
// ---------------------------------------------------------------------------

/// Outcome of one controller trajectory (one seed).
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// Devices installed by the initial exact `PPM(0.95)` placement.
    pub devices: usize,
    /// `seed,step,coverage_before,reoptimized,coverage_after,exploit_cost`
    /// rows.
    pub rows: Vec<String>,
    /// Number of steps on which the controller re-optimized rates.
    pub reoptimizations: usize,
    /// Trajectory length.
    pub steps: usize,
}

/// The dynamic-traffic experiment (section 5.4): one controller trajectory
/// per seed, trajectories fanned out across the pool. Returns the merged
/// trace report (seed-major row order) plus the per-seed outcomes for
/// summary printing.
pub fn dynamic_traffic_report(
    engine: &Engine,
    pop: &Pop,
    seeds: u64,
    steps: usize,
) -> (ScenarioReport, Vec<DynamicOutcome>) {
    let spec = ScenarioSpec::new(
        "xp_dynamic_traffic",
        (0..seeds.max(1)).collect::<Vec<u64>>(),
    );
    let ne = pop.graph.edge_count();
    let grouped = engine.run_cases(&spec, |c: Case<'_, u64>| {
        let seed = *c.point;
        let ts = TrafficSpec::default().generate(pop, seed);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let placed =
            solve_ppm_exact(&inst, 0.95, &ExactOptions::default()).expect("PPM(0.95) feasible");
        let mut installed = vec![false; ne];
        for &e in &placed.edges {
            installed[e] = true;
        }
        let ctrl = ControllerSpec {
            k: 0.9,
            h: 0.0,
            threshold: 0.85,
        };
        let drift = DynamicSpec {
            shift_probability: 0.25,
            ..Default::default()
        };
        let mut process = TrafficProcess::new(ts, drift, seed.wrapping_mul(31) + 1);
        let trace = run_controller(
            &mut process,
            &pop.graph,
            &installed,
            &ctrl,
            vec![1.0; ne],
            vec![0.5; ne],
            steps,
        );
        let rows = trace
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{seed},{},{:.4},{},{:.4},{:.3}",
                    s.step,
                    s.coverage_before,
                    s.reoptimized as u8,
                    s.coverage_after,
                    s.exploit_cost
                )
            })
            .collect();
        DynamicOutcome {
            devices: placed.device_count(),
            rows,
            reoptimizations: trace.reoptimizations,
            steps: trace.steps.len(),
        }
    });

    let outcomes: Vec<DynamicOutcome> = grouped.into_iter().map(|mut g| g.remove(0)).collect();
    let rows = outcomes
        .iter()
        .flat_map(|o| o.rows.iter().cloned())
        .collect();
    let report = ScenarioReport {
        name: spec.name.clone(),
        header: "seed,step,coverage_before,reoptimized,coverage_after,exploit_cost".into(),
        rows,
    };
    (report, outcomes)
}

// ---------------------------------------------------------------------------
// xp_scale_150: the full pipeline on a large POP, stages fanned out
// ---------------------------------------------------------------------------

/// Independent solver stages of the large-POP pipeline. Passive and active
/// stages have no data dependency on each other, so they load-balance
/// across the pool; the probe set Φ and the ILP beacon placement are
/// shared through the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    PassiveGreedy,
    PassiveExact,
    Probes,
    BeaconsThiran,
    BeaconsGreedy,
    BeaconsIlp,
    ProbeMakespan,
}

/// Runs the passive + active solver stages of the scale experiment and
/// returns `metric,value,seconds` rows in stage order. `k` is the passive
/// coverage target; `opts` bounds the exact branch-and-bound.
///
/// Each `seconds` column times that stage's own computation, but stages
/// execute concurrently on shared cores, so per-stage wall-clock is an
/// upper bound on isolated cost and varies with the thread count; only
/// the `metric,value` columns are deterministic (and parity-tested).
pub fn pipeline_stage_report(
    engine: &Engine,
    pop: &Pop,
    ts: &TrafficSet,
    k: f64,
    opts: &ExactOptions,
) -> ScenarioReport {
    use PipelineStage::*;
    let inst = PpmInstance::from_traffic(&pop.graph, ts);
    let (rgraph, _) = pop.router_subgraph();
    let candidates: Vec<netgraph::NodeId> = rgraph.nodes().collect();
    let probes_of = |c: &Case<'_, PipelineStage>| {
        c.memo
            .get_or_compute("probes", 0, || compute_probes(&rgraph, &candidates))
    };
    let ilp_of = |c: &Case<'_, PipelineStage>| {
        let probes = probes_of(c);
        c.memo.get_or_compute("beacons_ilp", 0, || {
            place_beacons_ilp(&rgraph, &probes, &candidates)
        })
    };

    let spec = ScenarioSpec::new(
        "xp_scale_pipeline",
        vec![
            PassiveGreedy,
            PassiveExact,
            Probes,
            BeaconsThiran,
            BeaconsGreedy,
            BeaconsIlp,
            ProbeMakespan,
        ],
    );
    engine.run_report(
        &spec,
        "metric,value,seconds",
        |c: Case<'_, PipelineStage>| match *c.point {
            PassiveGreedy => {
                let (g, t) = timed(|| greedy_static(&inst, k).expect("feasible"));
                format!("passive_greedy_devices,{},{t:.2}", g.device_count())
            }
            PassiveExact => {
                let (s, t) = timed(|| solve_ppm_mecf_bb(&inst, k, opts).expect("feasible"));
                assert!(inst.is_feasible(&s.edges, k));
                format!(
                    "passive_exact_devices,{} (proven {}),{t:.2}",
                    s.device_count(),
                    s.proven_optimal
                )
            }
            Probes => {
                // Time the computation itself (not a memo lookup a racing
                // dependent stage may already have satisfied), then
                // publish the result for the beacon stages.
                let (p, t) = timed(|| compute_probes(&rgraph, &candidates));
                let p = c.memo.get_or_compute("probes", 0, || p);
                format!("probes,{},{t:.2}", p.len())
            }
            BeaconsThiran => {
                let probes = probes_of(&c);
                let (b, t) = timed(|| place_beacons_thiran(&probes, &candidates));
                format!("beacons_thiran,{},{t:.2}", b.len())
            }
            BeaconsGreedy => {
                let probes = probes_of(&c);
                let (b, t) = timed(|| place_beacons_greedy(&probes, &candidates));
                format!("beacons_greedy,{},{t:.2}", b.len())
            }
            BeaconsIlp => {
                let probes = probes_of(&c);
                let (ilp, t) = timed(|| {
                    c.memo.get_or_compute("beacons_ilp", 0, || {
                        place_beacons_ilp(&rgraph, &probes, &candidates)
                    })
                });
                format!(
                    "beacons_ilp,{} (proven {}),{t:.2}",
                    ilp.len(),
                    ilp.proven_optimal
                )
            }
            ProbeMakespan => {
                let probes = probes_of(&c);
                let ilp = ilp_of(&c);
                let (assign, t) = timed(|| assign_probes_ilp(&probes, &ilp));
                format!("probe_makespan,{},{t:.2}", assign.max_load)
            }
        },
        |_, rs| rs[0].clone(),
    )
}

// ---------------------------------------------------------------------------
// xp_topology_families: devices and beacons across the open instance space
// ---------------------------------------------------------------------------

/// One point of the topology-family sweep: a family name crossed with an
/// instance size and a density setting (percent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyPoint {
    /// Family name (`"waxman"`, `"ba"`, `"hier"`).
    pub family: &'static str,
    /// Router count of the generated instances.
    pub routers: usize,
    /// Density knob in percent (maps to `FamilySpec::density`).
    pub density_pct: u32,
}

/// The validated spec for a sweep point: the family's canonical shape with
/// the point's size and density, and `routers/2` traffic endpoints so the
/// traffic matrix scales quadratically but stays solvable.
pub fn family_spec(point: &FamilyPoint) -> FamilySpec {
    let endpoints = (point.routers / 2).max(2);
    let mut spec = FamilySpec::canonical(point.family, point.routers, endpoints)
        .unwrap_or_else(|| panic!("unknown family {:?}", point.family));
    spec.density = point.density_pct as f64 / 100.0;
    spec.validate().expect("sweep points map to valid specs");
    spec
}

/// The exact-solver budget every topology-family consumer shares (the
/// sweep binary, the golden/parity tests, the bench stages): node-bounded
/// and never wall-clock-bounded, so family reports stay deterministic and
/// the regression tests can never drift from the shipped sweep's options.
pub fn family_exact_options() -> ExactOptions {
    ExactOptions {
        max_nodes: 20_000,
        time_limit: None,
        ..Default::default()
    }
}

/// The topology-family sweep: for every `family × size × density` point,
/// seeded random instances with gravity traffic, solved by the passive
/// greedy, the exact MECF branch-and-bound, and the active greedy beacon
/// placement; links, device counts, and beacon counts averaged over seeds.
///
/// Fully deterministic (the exact solver must be bounded by `max_nodes`,
/// not wall-clock — callers pass `time_limit: None` so reports stay
/// byte-identical across runs and thread counts).
pub fn topology_families_report(
    engine: &Engine,
    points: &[FamilyPoint],
    seeds: u64,
    k: f64,
    opts: &ExactOptions,
) -> ScenarioReport {
    assert!(
        opts.time_limit.is_none(),
        "wall-clock bounds would break report determinism"
    );
    let spec = ScenarioSpec::new("xp_topology_families", points.to_vec()).with_seeds(seeds);
    engine.run_report(
        &spec,
        "family,routers,density_pct,links,greedy_devices,exact_devices,beacons_greedy",
        |c: Case<'_, FamilyPoint>| {
            let fam = family_spec(c.point);
            // Waxman draws positions and the spanning tree before any
            // density-dependent sampling, so its density sweeps compare
            // paired instances at a given (size, seed).
            let pop = fam.build(c.seed).expect("validated spec");
            let ts = GravitySpec::default().generate(&pop, c.seed);
            let inst = PpmInstance::from_traffic(&pop.graph, &ts);
            let g = greedy_static(&inst, k).expect("family flows all cross >= 1 link");
            let e = solve_ppm_mecf_bb(&inst, k, opts).expect("feasible");
            assert!(inst.is_feasible(&g.edges, k) && inst.is_feasible(&e.edges, k));
            let (rgraph, _) = pop.router_subgraph();
            let candidates: Vec<netgraph::NodeId> = rgraph.nodes().collect();
            let probes = compute_probes(&rgraph, &candidates);
            let b = place_beacons_greedy(&probes, &candidates);
            debug_assert!(b.covers(&probes));
            [
                pop.graph.edge_count() as f64,
                g.device_count() as f64,
                e.device_count() as f64,
                b.len() as f64,
            ]
        },
        |p, rs| {
            let col = |i: usize| mean(&rs.iter().map(|r| r[i]).collect::<Vec<_>>());
            format!(
                "{},{},{},{:.1},{:.2},{:.2},{:.2}",
                p.family,
                p.routers,
                p.density_pct,
                col(0),
                col(1),
                col(2),
                col(3),
            )
        },
    )
}

// ---------------------------------------------------------------------------
// figs 9–11: the active-monitoring sweep (used by `active_experiment`)
// ---------------------------------------------------------------------------

/// Per-case result of the active sweep: beacon counts for the three
/// strategies plus the probe-set size.
#[derive(Debug, Clone, Copy)]
pub struct ActiveCounts {
    pub thiran: f64,
    pub greedy: f64,
    pub ilp: f64,
    pub probes: f64,
}

/// The figures 9/10/11 sweep: for every candidate-set size `|V_B|` in
/// `sizes`, seeded random router subsets, probe computation, and the
/// three beacon placements, averaged over seeds. One CSV row per `|V_B|`.
/// The binaries sweep `2..=n`; golden and parity tests pass subsets (a
/// case depends only on its own `(size, seed)`, so subset rows are
/// byte-identical to the full sweep's).
pub fn active_report(
    engine: &Engine,
    graph: &Graph,
    sizes: &[usize],
    seeds: u64,
) -> ScenarioReport {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let routers: Vec<netgraph::NodeId> = graph.nodes().collect();
    let spec = ScenarioSpec::new("active_experiment", sizes.to_vec()).with_seeds(seeds);
    engine.run_report(
        &spec,
        "vb_size,thiran,greedy,ilp,probes",
        |c: Case<'_, usize>| {
            let size = *c.point;
            let mut rng = rand::rngs::StdRng::seed_from_u64(c.seed * 10_007 + size as u64);
            let mut pool = routers.clone();
            pool.shuffle(&mut rng);
            let candidates = &pool[..size];
            let probes: ProbeSet = compute_probes(graph, candidates);
            let t = place_beacons_thiran(&probes, candidates);
            let g = place_beacons_greedy(&probes, candidates);
            let i = place_beacons_ilp(graph, &probes, candidates);
            debug_assert!(t.covers(&probes) && g.covers(&probes) && i.covers(&probes));
            ActiveCounts {
                thiran: t.len() as f64,
                greedy: g.len() as f64,
                ilp: i.len() as f64,
                probes: probes.len() as f64,
            }
        },
        |size, rs| {
            let col = |f: fn(&ActiveCounts) -> f64| mean(&rs.iter().map(f).collect::<Vec<_>>());
            format!(
                "{size},{:.2},{:.2},{:.2},{:.1}",
                col(|r| r.thiran),
                col(|r| r.greedy),
                col(|r| r.ilp),
                col(|r| r.probes),
            )
        },
    )
}

// ---------------------------------------------------------------------------
// xp_resilience: Monte-Carlo failure ensembles, deterministic vs. stochastic
// ---------------------------------------------------------------------------

/// One point of the resilience sweep: a topology family crossed with an
/// instance size and an SRLG failure intensity (percent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResiliencePoint {
    /// Family name (`"waxman"`, `"ba"`, `"hier"`).
    pub family: &'static str,
    /// Router count of the generated instances.
    pub routers: usize,
    /// Failure intensity in percent: the per-scenario SRLG group rate is
    /// `rate_pct/100`, the independent per-link rate a quarter of that.
    pub rate_pct: u32,
}

/// The failure model at a sweep point's intensity: a handful of SRLG
/// groups whose joint failure rate dominates, plus a weaker independent
/// per-link fault process. Churn stays off so every scenario difference
/// comes from the intensity knob.
pub fn resilience_failure_spec(rate_pct: u32) -> FailureSpec {
    let rate = rate_pct as f64 / 100.0;
    let spec = FailureSpec {
        groups: 4,
        group_rate: rate,
        link_rate: rate / 4.0,
        churn: 0.0,
    };
    spec.validate()
        .expect("sweep intensities map to valid specs");
    spec
}

/// The resilience campaign sweep: for every `family × size × intensity`
/// point, a seeded ensemble of SRLG failure scenarios with diurnal demand
/// perturbation, scored for two rival placements of equal device count —
///
/// * **det** — the deterministic exact `PPM(0.9)` optimum, solved once
///   per `(family, size, seed)` through the unified
///   [`SolveRequest`]/[`SolveOutcome`] API, blind to failures; and
/// * **sto** — [`greedy_expected`], which sees the sampled ensemble and
///   maximizes *expected* coverage with the same device budget.
///
/// Each seed walks its whole point list through **one warm
/// [`DeltaInstance`] chain** per `(family, size)` group (points are
/// ordered intensity-innermost): both placements are scored by
/// [`score_ensemble`], which hands the chain back in its entry state, so
/// the deterministic base placement and the chain survive to the next
/// intensity. Every column is deterministic — the CSV is byte-identical
/// at any `POPMON_THREADS`.
pub fn resilience_report(
    engine: &Engine,
    points: &[ResiliencePoint],
    seeds: u64,
    scenarios_per_point: usize,
) -> ScenarioReport {
    // Per-(family, size) state carried across the intensity grid: the
    // instance, its warm chain, and the deterministic optimum.
    struct GroupState {
        key: (&'static str, usize),
        pop: Pop,
        inst: PpmInstance,
        chain: DeltaInstance,
        det: Vec<usize>,
    }
    let spec = ScenarioSpec::new("xp_resilience", points.to_vec()).with_seeds(seeds);
    engine.run_chain_report(
        &spec,
        "family,routers,rate_pct,devices,det_expected,det_p99,det_worst,sto_expected,sto_p99,sto_worst",
        |c: ChainCase<'_, ResiliencePoint>| {
            let req = SolveRequest::ppm(0.9)
                .exact()
                .with_exact_options(&family_exact_options());
            let dspec = DynamicSpec::default();
            let mut state: Option<GroupState> = None;
            c.points
                .iter()
                .map(|p| {
                    let key = (p.family, p.routers);
                    if state.as_ref().map(|s| s.key) != Some(key) {
                        let fam = family_spec(&FamilyPoint {
                            family: p.family,
                            routers: p.routers,
                            density_pct: 70,
                        });
                        let pop = fam.build(c.seed).expect("validated spec");
                        let ts = GravitySpec::default().generate(&pop, c.seed);
                        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
                        let mut chain = DeltaInstance::from_instance(&inst);
                        let det = match chain.solve(&req).expect("request validated above") {
                            SolveOutcome::Ppm(sol) => sol.edges,
                            _ => unreachable!("family flows all cross >= 1 link"),
                        };
                        state = Some(GroupState {
                            key,
                            pop,
                            inst,
                            chain,
                            det,
                        });
                    }
                    let s = state.as_mut().expect("state set above");
                    let model =
                        FailureModel::try_new(&s.pop, &resilience_failure_spec(p.rate_pct))
                            .expect("valid spec");
                    let sample_seed = c.seed.wrapping_mul(1009).wrapping_add(p.rate_pct as u64);
                    let ensemble = model
                        .sample_scenarios(
                            s.inst.traffics.len(),
                            Some(&dspec),
                            scenarios_per_point,
                            sample_seed,
                        )
                        .expect("valid sampling request");
                    let det_score =
                        score_ensemble(&mut s.chain, &s.det, &ensemble).expect("validated inputs");
                    let sto = greedy_expected(&s.inst, &[], &ensemble, s.det.len())
                        .expect("validated inputs");
                    let sto_score =
                        score_ensemble(&mut s.chain, &sto, &ensemble).expect("validated inputs");
                    [
                        s.det.len() as f64,
                        det_score.expected_coverage,
                        det_score.p99_tail,
                        det_score.worst_case,
                        sto_score.expected_coverage,
                        sto_score.p99_tail,
                        sto_score.worst_case,
                    ]
                })
                .collect()
        },
        |p, rs| {
            // `+ 0.0` maps the scorer's exact `-0.0` (the empty covered
            // sum) to `+0.0` so the CSV never renders a negative zero.
            let col = |i: usize| mean(&rs.iter().map(|r| r[i]).collect::<Vec<_>>()) + 0.0;
            format!(
                "{},{},{},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                p.family,
                p.routers,
                p.rate_pct,
                col(0),
                col(1),
                col(2),
                col(3),
                col(4),
                col(5),
                col(6),
            )
        },
    )
}
