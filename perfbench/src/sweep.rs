//! `sweep_figures`: the paper's passive figures and the instance-space
//! sweeps as one batch job.
//!
//! One pass is, for one instance seed: the figure 7 grid (`paper_10`, six
//! k points on one warm-started ILP chain), the figure 8 grid (`paper_15`,
//! MECF branch-and-bound under its 50 000-node budget, one cell per k), the
//! 30-router topology-family points (one cell per family over three
//! densities: greedy + MECF B&B + beacon greedy), and the resilience grid
//! (one cell per family over four SRLG intensities, 64-scenario ensembles
//! on one warm chain). Each cell is one `engine` case; passes run through
//! `Engine::with_threads(2)` with a fresh instance seed each until the
//! measured time is used. Set-up generates every pass's topologies,
//! traffic and PPM instances. Cold solves dominate: LU factorization,
//! pricing, cuts, branching and the MECF flow bounds.

use std::sync::Arc;
use std::time::Instant;

use engine::{Engine, ScenarioSpec};
use placement::active::{compute_probes, place_beacons_greedy};
use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::passive::{greedy_static, solve_ppm_mecf_bb, ExactOptions};
use placement::resilience::{greedy_expected, score_ensemble};
use placement::solve::{SolveOutcome, SolveRequest};
use popgen::{
    DynamicSpec, FailureModel, FailureSpec, FamilySpec, GravitySpec, Pop, PopSpec, TrafficSpec,
};

use crate::report::Report;
use crate::stats::{self, percentile};
use crate::trace::{self, span};
use crate::{probes, Config};

const K_PCT: [u32; 6] = [75, 80, 85, 90, 95, 100];
const FAMILIES: [&str; 3] = ["waxman", "ba", "hier"];
const DENSITIES: [u32; 3] = [40, 70, 100];
const FAMILY_ROUTERS: usize = 30;
const RESILIENCE_ROUTERS: usize = 12;
const RATES: [u32; 4] = [0, 5, 15, 30];
const SCENARIOS: usize = 64;
/// Passes prepared by set-up; a run stops early if it uses them all.
const MAX_PASSES: usize = 10;
const SETUPS: usize = 5;
const THREADS: usize = 2;

/// Figure 8's exact-solver budget (node-bounded only, so cells are
/// deterministic).
fn fig8_options() -> ExactOptions {
    ExactOptions {
        max_nodes: 50_000,
        time_limit: None,
        ..Default::default()
    }
}

/// The topology-family and resilience sweeps' exact-solver budget.
fn family_options() -> ExactOptions {
    ExactOptions {
        max_nodes: 20_000,
        time_limit: None,
        ..Default::default()
    }
}

fn family_spec(family: &str, routers: usize, density_pct: u32) -> FamilySpec {
    let mut spec = FamilySpec::canonical(family, routers, (routers / 2).max(2))
        .expect("the sweep names only known families");
    spec.density = density_pct as f64 / 100.0;
    spec
}

fn failure_spec(rate_pct: u32) -> FailureSpec {
    let rate = rate_pct as f64 / 100.0;
    FailureSpec {
        groups: 4,
        group_rate: rate,
        link_rate: rate / 4.0,
        churn: 0.0,
    }
}

/// A generated topology with its traffic routed into a PPM instance.
struct Instance {
    pop: Pop,
    inst: PpmInstance,
}

fn family_instance(family: &str, routers: usize, density_pct: u32, seed: u64) -> Instance {
    let spec = family_spec(family, routers, density_pct);
    let pop = span("popgen.pop", || spec.build(seed)).expect("sweep points are valid specs");
    let ts = span("popgen.traffic", || {
        GravitySpec::default().generate(&pop, seed)
    });
    let inst = span("placement.instance", || {
        PpmInstance::from_traffic(&pop.graph, &ts)
    });
    Instance { pop, inst }
}

fn paper_instance(pop: &Pop, seed: u64) -> PpmInstance {
    let ts = span("popgen.traffic", || {
        TrafficSpec::default().generate(pop, seed)
    });
    span("placement.instance", || {
        PpmInstance::from_traffic(&pop.graph, &ts)
    })
}

/// One pass's inputs.
struct Inputs {
    seed: u64,
    fig7: PpmInstance,
    fig8: PpmInstance,
    /// `FAMILIES × DENSITIES`, family-major.
    families: Vec<Instance>,
    /// One per family.
    resilience: Vec<Instance>,
}

fn inputs(seed: u64, paper_10: &Pop, paper_15: &Pop) -> Inputs {
    Inputs {
        seed,
        fig7: paper_instance(paper_10, seed),
        fig8: paper_instance(paper_15, seed),
        families: FAMILIES
            .iter()
            .flat_map(|f| {
                DENSITIES
                    .iter()
                    .map(move |&d| family_instance(f, FAMILY_ROUTERS, d, seed))
            })
            .collect(),
        resilience: FAMILIES
            .iter()
            .map(|f| family_instance(f, RESILIENCE_ROUTERS, 70, seed))
            .collect(),
    }
}

/// The instance seed of pass `p` of a run with input seed `seed`.
fn pass_seed(seed: u64, p: usize) -> u64 {
    seed.wrapping_mul(MAX_PASSES as u64).wrapping_add(p as u64)
}

fn setup(seed: u64) -> Vec<Arc<Inputs>> {
    let paper_10 = span("popgen.pop", || PopSpec::paper_10().build());
    let paper_15 = span("popgen.pop", || PopSpec::paper_15().build());
    (0..MAX_PASSES)
        .map(|p| Arc::new(inputs(pass_seed(seed, p), &paper_10, &paper_15)))
        .collect()
}

/// One grid cell (one engine case).
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Figure 7: the six k points on one warm ILP chain.
    Fig7,
    /// Figure 8 at one k (percent).
    Fig8(u32),
    /// Family `i`'s density points.
    Family(usize),
    /// The resilience intensities on family `i`'s chain.
    Resilience(usize),
}

/// Cells in dispatch order: the longest first, so the pool's tail is short.
fn cells() -> Vec<Cell> {
    let mut c: Vec<Cell> = K_PCT.iter().rev().map(|&k| Cell::Fig8(k)).collect();
    c.extend((0..FAMILIES.len()).map(Cell::Family));
    c.extend((0..FAMILIES.len()).map(Cell::Resilience));
    c.push(Cell::Fig7);
    c
}

/// A cell's deterministic rows plus its exact answers `(devices, proven)`.
#[derive(Debug, Clone, Default, PartialEq)]
struct CellOut {
    rows: Vec<String>,
    exact: Vec<(usize, bool)>,
}

fn fig8_cell(inst: &PpmInstance, k_pct: u32, opts: &ExactOptions) -> (usize, usize, bool) {
    let k = k_pct as f64 / 100.0;
    let g =
        span("placement.greedy", || greedy_static(inst, k)).expect("every traffic is coverable");
    let e = span("placement.mecf_bb", || solve_ppm_mecf_bb(inst, k, opts)).expect("feasible");
    assert!(
        inst.is_feasible(&e.edges, k),
        "MECF B&B answer misses k = {k}"
    );
    (g.device_count(), e.device_count(), e.proven_optimal)
}

fn fig7_rows(inst: &PpmInstance, seed: u64) -> CellOut {
    let mut out = CellOut::default();
    let mut chain = DeltaInstance::from_instance(inst);
    for k_pct in K_PCT {
        let k = k_pct as f64 / 100.0;
        let g = span("placement.greedy", || greedy_static(inst, k))
            .expect("every traffic is coverable");
        let ilp = span("placement.delta.resolve", || {
            chain.solve_exact(k, &ExactOptions::default())
        })
        .expect("feasible");
        assert!(inst.is_feasible(&ilp.edges, k), "ILP answer misses k = {k}");
        out.rows.push(format!(
            "fig7,{seed},{k_pct},{},{},{}",
            g.device_count(),
            ilp.device_count(),
            ilp.proven_optimal
        ));
        out.exact.push((ilp.device_count(), ilp.proven_optimal));
    }
    out
}

fn family_row(family: &str, density: u32, x: &Instance, seed: u64) -> CellOut {
    let k = 0.9;
    let g =
        span("placement.greedy", || greedy_static(&x.inst, k)).expect("family flows cross a link");
    let e = span("placement.mecf_bb", || {
        solve_ppm_mecf_bb(&x.inst, k, &family_options())
    })
    .expect("feasible");
    assert!(
        x.inst.is_feasible(&e.edges, k),
        "MECF B&B answer misses k = {k}"
    );
    let (rgraph, _) = x.pop.router_subgraph();
    let candidates: Vec<netgraph::NodeId> = rgraph.nodes().collect();
    let probes = compute_probes(&rgraph, &candidates);
    let beacons = place_beacons_greedy(&probes, &candidates);
    CellOut {
        rows: vec![format!(
            "family,{seed},{family},{},{density},{},{},{},{},{}",
            x.pop.routers().len(),
            x.pop.graph.edge_count(),
            g.device_count(),
            e.device_count(),
            e.proven_optimal,
            beacons.len()
        )],
        exact: vec![(e.device_count(), e.proven_optimal)],
    }
}

fn resilience_rows(family: &str, x: &Instance, seed: u64) -> CellOut {
    let req = SolveRequest::ppm(0.9)
        .exact()
        .with_exact_options(&family_options());
    let mut chain = DeltaInstance::from_instance(&x.inst);
    let det = match span("placement.delta.resolve", || chain.solve(&req)).expect("valid request") {
        SolveOutcome::Ppm(sol) => sol,
        other => panic!("family flows all cross a link, got {other:?}"),
    };
    let dspec = DynamicSpec::default();
    let mut out = CellOut {
        exact: vec![(det.device_count(), det.proven_optimal)],
        ..CellOut::default()
    };
    for rate in RATES {
        let model = FailureModel::try_new(&x.pop, &failure_spec(rate)).expect("valid spec");
        let sample_seed = seed.wrapping_mul(1009).wrapping_add(rate as u64);
        let ensemble = span("popgen.scenarios", || {
            model.sample_scenarios(x.inst.traffics.len(), Some(&dspec), SCENARIOS, sample_seed)
        })
        .expect("valid sampling request");
        let d = span("placement.resilience", || {
            score_ensemble(&mut chain, &det.edges, &ensemble)
        })
        .expect("valid inputs");
        let sto = greedy_expected(&x.inst, &[], &ensemble, det.edges.len()).expect("valid inputs");
        let s = span("placement.resilience", || {
            score_ensemble(&mut chain, &sto, &ensemble)
        })
        .expect("valid inputs");
        // `+ 0.0` renders the scorer's exact `-0.0` as `0.0000`.
        out.rows.push(format!(
            "{family},{},{rate},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            x.pop.routers().len(),
            det.device_count() as f64,
            d.expected_coverage + 0.0,
            d.p99_tail + 0.0,
            d.worst_case + 0.0,
            s.expected_coverage + 0.0,
            s.p99_tail + 0.0,
            s.worst_case + 0.0
        ));
    }
    out
}

fn run_cell(cell: Cell, x: &Inputs) -> CellOut {
    match cell {
        Cell::Fig7 => fig7_rows(&x.fig7, x.seed),
        Cell::Fig8(k) => {
            let (g, e, proven) = fig8_cell(&x.fig8, k, &fig8_options());
            CellOut {
                rows: vec![format!("fig8,{},{k},{g},{e},{proven}", x.seed)],
                exact: vec![(e, proven)],
            }
        }
        Cell::Family(i) => {
            let mut out = CellOut::default();
            for (j, &d) in DENSITIES.iter().enumerate() {
                let c = family_row(FAMILIES[i], d, &x.families[i * DENSITIES.len() + j], x.seed);
                out.rows.extend(c.rows);
                out.exact.extend(c.exact);
            }
            out
        }
        Cell::Resilience(i) => resilience_rows(FAMILIES[i], &x.resilience[i], x.seed),
    }
}

/// One pass through the engine: each cell's output and `(start, end)` ns.
struct Pass {
    seed: u64,
    cells: Vec<(CellOut, u64, u64)>,
    start: u64,
    end: u64,
}

fn pass(engine: &Engine, x: &Inputs) -> Pass {
    let spec = ScenarioSpec::new("sweep_figures", cells());
    let start = trace::now_ns();
    let grouped = engine.run_cases(&spec, |c| {
        let t = trace::now_ns();
        let out = span("engine.cell", || run_cell(*c.point, x));
        (out, t, trace::now_ns())
    });
    Pass {
        seed: x.seed,
        cells: grouped.into_iter().flatten().collect(),
        start,
        end: trace::now_ns(),
    }
}

/// Passes until `seconds` have passed (or the prepared inputs run out).
fn measure(cfg: &Config, x: &[Arc<Inputs>]) -> (Vec<Pass>, f64) {
    let engine = Engine::with_threads(THREADS);
    let start = Instant::now();
    let mut passes = Vec::new();
    while start.elapsed().as_secs_f64() < cfg.seconds as f64 && passes.len() < x.len() {
        passes.push(pass(&engine, &x[passes.len()]));
    }
    (passes, start.elapsed().as_secs_f64())
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut x = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        x = setup(cfg.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (passes, wall) = measure(cfg, &x);
    let peak_rss = stats::peak_rss_mb();
    summarize(&mut report, &setup_s, &passes, wall, peak_rss);
    if passes.len() == x.len() {
        report.line(format!(
            "note: the run used all {MAX_PASSES} prepared passes"
        ));
    }
    if cfg.trace {
        traced(
            cfg,
            &mut report,
            passes.iter().map(|p| p.cells.len()).sum::<usize>() as f64 / wall,
        )?;
    }
    check_serial(&mut report, &x[0], &passes[0]);
    check_golden(&mut report);
    Ok(report)
}

fn summarize(report: &mut Report, setup_s: &[f64], passes: &[Pass], wall: f64, peak_rss: f64) {
    let times: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|(_, a, b)| (b - a) as f64 / 1e6))
        .collect();
    let exact: Vec<(usize, bool)> = passes
        .iter()
        .flat_map(|p| p.cells.iter().flat_map(|(c, _, _)| c.exact.iter().copied()))
        .collect();
    let proven = exact.iter().filter(|e| e.1).count();
    let unproven_devices: usize = exact.iter().filter(|e| !e.1).map(|e| e.0).sum();
    let tail = stats::tail(&times, 75);
    // A batch user waits for a whole figure set: its latency is the pass.
    let pass_ms: Vec<f64> = passes
        .iter()
        .map(|p| (p.end - p.start) as f64 / 1e6)
        .collect();
    report.attempted = times.len() as u64;
    report.set("setup_s", stats::median(setup_s));
    report.set("throughput_rps", times.len() as f64 / wall);
    report.set("proven_fraction", proven as f64 / exact.len().max(1) as f64);
    report.set("peak_rss_mb", peak_rss);
    report.layer("placement.devices_unproven", unproven_devices as f64);
    let (eff, straggle) = engine_shares(passes);
    report.layer("engine.efficiency", eff);
    report.layer("engine.straggler_share", straggle);
    report.line(format!(
        "sweep_figures: {} passes of {} cells through Engine::with_threads({THREADS}); instance seeds {:?}",
        passes.len(),
        cells().len(),
        passes.iter().map(|p| p.seed).collect::<Vec<_>>()
    ));
    report.line(format!(
        "pass wall: median {:.3} ms, slowest {:.3} ms over {} passes: {:?}",
        stats::median(&pass_ms),
        pass_ms.iter().cloned().fold(0.0, f64::max),
        pass_ms.len(),
        pass_ms
    ));
    report.line(format!(
        "cells_per_s {:.4} ({} cells in {wall:.3} s); cell p50 {:.3} ms, p{} {:.3} ms over {} cells",
        times.len() as f64 / wall,
        times.len(),
        percentile(&times, 50.0),
        tail.pct,
        tail.value,
        tail.n
    ));
    report.line(format!(
        "proven_fraction {:.4} ({proven} of {} exact answers), devices_unproven {unproven_devices}, \
         engine efficiency {eff:.4}, straggler share {straggle:.4}",
        proven as f64 / exact.len().max(1) as f64,
        exact.len()
    ));
    report.line(format!(
        "setup_s median of {} set-ups: {:?}",
        setup_s.len(),
        setup_s
    ));
    if let Some(p) = passes.first() {
        for (c, a, b) in &p.cells {
            for r in &c.rows {
                report.line(format!("  {r},{:.3}", (b - a) as f64 / 1e9));
            }
        }
    }
}

/// Mean over passes of Σ cell time / (threads × pass wall), and of the
/// slowest cell's share of the pass wall.
fn engine_shares(passes: &[Pass]) -> (f64, f64) {
    let per: Vec<(f64, f64)> = passes
        .iter()
        .map(|p| {
            let wall = (p.end - p.start) as f64;
            let busy: f64 = p.cells.iter().map(|(_, a, b)| (b - a) as f64).sum();
            let slowest = p.cells.iter().map(|(_, a, b)| b - a).max().unwrap_or(0) as f64;
            (busy / (THREADS as f64 * wall), slowest / wall)
        })
        .collect();
    (
        stats::mean(&per.iter().map(|x| x.0).collect::<Vec<_>>()),
        stats::mean(&per.iter().map(|x| x.1).collect::<Vec<_>>()),
    )
}

/// The first pass's rows must equal an `Engine::serial()` run of the same
/// grid (the wall-clock times are not part of the rows).
fn check_serial(report: &mut Report, x: &Inputs, parallel: &Pass) {
    let serial = pass(&Engine::serial(), x);
    for ((a, _, _), (b, _, _)) in parallel.cells.iter().zip(&serial.cells) {
        if a != b {
            report.fail(format!(
                "parallel rows {:?} differ from serial {:?}",
                a.rows, b.rows
            ));
        }
    }
}

/// Seed-0 device counts and rows pinned by the repository's golden tests
/// (`crates/bench/tests/golden_figures.rs`).
fn check_golden(report: &mut Report) {
    let mut expect = |what: &str, got: String, want: String| {
        if got != want {
            report.fail(format!("golden {what}: got {got}, pinned {want}"));
        }
    };
    let paper_10 = PopSpec::paper_10().build();
    let fig7 = fig7_rows(&paper_instance(&paper_10, 0), 0);
    let want7 = [(8, 4), (8, 5), (10, 5), (13, 6), (15, 7), (18, 11)];
    for ((k, (g, i)), row) in K_PCT.iter().zip(want7).zip(&fig7.rows) {
        expect("fig7", row.clone(), format!("fig7,0,{k},{g},{i},true"));
    }
    let fig8 = paper_instance(&PopSpec::paper_15().build(), 0);
    let greedy8 = [13, 14, 15, 18, 32, 57];
    for (k, g) in K_PCT.iter().zip(greedy8) {
        let got = greedy_static(&fig8, *k as f64 / 100.0).map_or(0, |s| s.device_count());
        expect("fig8 greedy", got.to_string(), g.to_string());
    }
    for (k, e) in [(75, 9), (80, 10)] {
        let (_, got, proven) = fig8_cell(&fig8, k, &fig8_options());
        expect("fig8 exact", format!("{got},{proven}"), format!("{e},true"));
    }
    for (f, want) in FAMILIES.iter().zip([
        "waxman,10,60,19,3,3,4",
        "ba,10,60,20,3,3,5",
        "hier,10,60,22,3,3,6",
    ]) {
        let x = family_instance(f, 10, 60, 0);
        let row = &family_row(f, 60, &x, 0).rows[0];
        // family,seed,name,routers,density,links,greedy,exact,proven,beacons
        let c: Vec<&str> = row.split(',').collect();
        let got = [c[2], c[3], c[4], c[5], c[6], c[7], c[9]].join(",");
        expect("families", got, want.to_string());
    }
    let want_res = [
        "waxman,12,0,3.00,0.9050,0.6119,0.6119,0.9050,0.6119,0.6119",
        "waxman,12,5,3.00,0.8778,0.3093,0.3093,0.8778,0.3093,0.3093",
        "waxman,12,15,3.00,0.7962,0.0000,0.0000,0.8031,0.3235,0.3235",
        "waxman,12,30,3.00,0.5979,0.0000,0.0000,0.6171,0.0000,0.0000",
        "ba,12,0,3.00,0.9020,0.7778,0.7778,0.9020,0.7778,0.7778",
        "ba,12,5,3.00,0.8358,0.0000,0.0000,0.8543,0.3896,0.3896",
        "ba,12,15,3.00,0.6679,0.0000,0.0000,0.7475,0.0000,0.0000",
        "ba,12,30,3.00,0.6060,0.0000,0.0000,0.6692,0.0000,0.0000",
        "hier,12,0,3.00,0.9043,0.6090,0.6090,0.9043,0.6090,0.6090",
        "hier,12,5,3.00,0.8812,0.3948,0.3948,0.8907,0.3948,0.3948",
        "hier,12,15,3.00,0.8037,0.2015,0.2015,0.8134,0.3390,0.3390",
        "hier,12,30,3.00,0.6432,0.0000,0.0000,0.6509,0.0000,0.0000",
    ];
    let got_res: Vec<String> = FAMILIES
        .iter()
        .flat_map(|f| resilience_rows(f, &family_instance(f, RESILIENCE_ROUTERS, 70, 0), 0).rows)
        .collect();
    for (got, want) in got_res.iter().zip(want_res) {
        expect("resilience", got.clone(), want.to_string());
    }
}

/// The traced run: set-up and passes again with spans on, plus direct
/// probes of `milp`, `netgraph` and `mcmf` on pass 0's instances.
fn traced(cfg: &Config, report: &mut Report, untraced_rate: f64) -> Result<(), String> {
    trace::set_enabled(true);
    let x = setup(cfg.seed);
    let (passes, wall) = measure(cfg, &x);
    let traced_rate = passes.iter().map(|p| p.cells.len()).sum::<usize>() as f64 / wall;
    let fig7: Vec<_> = K_PCT
        .iter()
        .map(|&k| (&x[0].fig7, k as f64 / 100.0))
        .collect();
    let fig8: Vec<_> = K_PCT
        .iter()
        .map(|&k| (&x[0].fig8, k as f64 / 100.0))
        .collect();
    let lp_cases: Vec<_> = fig7
        .iter()
        .copied()
        .chain(fig8.iter().copied().take(1))
        .collect();
    probes::lp(report, &lp_cases);
    probes::mip(report, &fig7);
    let paper_10 = PopSpec::paper_10().build();
    let paper_15 = PopSpec::paper_15().build();
    let mut graphs = vec![&paper_10.graph, &paper_15.graph];
    graphs.extend(x[0].families.iter().map(|f| &f.pop.graph));
    probes::routing(&graphs);
    probes::min_cost_flows(&fig8);
    trace::set_enabled(false);

    let spans = trace::take();
    let totals = trace::totals(&spans);
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
    report.layer("placement.greedy_us", mean("placement.greedy"));
    report.layer("placement.mecf_bb_us", mean("placement.mecf_bb"));
    report.layer(
        "placement.delta.resolve_us",
        mean("placement.delta.resolve"),
    );
    report.layer("placement.instance_us", mean("placement.instance"));
    report.layer("milp.mip.solve_us", mean("milp.mip"));
    report.layer("popgen.pop_us", mean("popgen.pop"));
    report.layer("popgen.traffic_us", mean("popgen.traffic"));
    report.layer("popgen.scenarios_us", mean("popgen.scenarios"));
    report.layer("netgraph.spt_us", mean("netgraph.spt"));
    report.layer("netgraph.ksp_us", mean("netgraph.ksp"));
    report.layer("mcmf.min_cost_flow_us", mean("mcmf.min_cost_flow"));
    let scenarios = totals
        .get("popgen.scenarios")
        .map_or(0.0, |t| t.count as f64 * SCENARIOS as f64 * 2.0);
    let resilience_s = totals
        .get("placement.resilience")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    report.layer(
        "placement.resilience.scenarios_per_s",
        if resilience_s > 0.0 {
            scenarios / resilience_s
        } else {
            0.0
        },
    );
    let (eff, straggle) = engine_shares(&passes);
    report.layer("engine.efficiency", eff);
    report.layer("engine.straggler_share", straggle);
    report.layer(
        "trace.overhead",
        untraced_rate / traced_rate.max(1e-9) - 1.0,
    );
    report.layer("trace.spans", spans.len() as f64);
    report.line(format!(
        "trace: cells_per_s untraced {untraced_rate:.4}, traced {traced_rate:.4}; engine \
         efficiency = busy cell time / ({THREADS} threads x pass wall) over {} traced passes",
        passes.len()
    ));
    report.spans = spans;
    Ok(())
}
