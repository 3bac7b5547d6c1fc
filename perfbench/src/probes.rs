//! Direct calls into the lower layers on a workload's own instances, made
//! by traced runs only. The request workloads reach `milp` through
//! `placement`, and the sweep reaches `netgraph` and `mcmf` inside the
//! placement kernels, so the benchmark calls those layers' public entry
//! points itself on the same inputs to give each its own counters and time.

use mcmf::mecf::build_mecf;
use mcmf::mincost::min_cost_flow;
use milp::MipOptions;
use netgraph::{dijkstra, ksp, Graph};
use placement::instance::PpmInstance;
use placement::passive::build_lp2;

use crate::report::Report;
use crate::trace::span;

/// LP 2's relaxation (`build_lp2` + `Model::solve_lp`) at each `(instance,
/// k)`: mean iterations and work units per solve, and µs per iteration.
pub fn lp(report: &mut Report, cases: &[(&PpmInstance, f64)]) {
    let (mut iters, mut work, mut n) = (0u64, 0u64, 0u64);
    let start = std::time::Instant::now();
    for (inst, k) in cases {
        let sol = span("milp.lp", || {
            let (model, _) = build_lp2(inst, *k);
            model.solve_lp()
        });
        if let Ok(sol) = sol {
            iters += sol.iterations as u64;
            work += sol.work;
            n += 1;
        }
    }
    let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
    let n = n.max(1) as f64;
    report.layer("milp.lp.iterations", iters as f64 / n);
    report.layer("milp.lp.work", work as f64 / n);
    report.layer(
        "milp.lp.us_per_iter",
        if iters == 0 {
            0.0
        } else {
            elapsed_us / iters as f64
        },
    );
}

/// LP 2 as a MIP (`Model::solve_mip_with`, default options) at each
/// `(instance, k)`: mean nodes and work units per solve.
pub fn mip(report: &mut Report, cases: &[(&PpmInstance, f64)]) {
    let (mut nodes, mut work, mut n) = (0u64, 0u64, 0u64);
    for (inst, k) in cases {
        let sol = span("milp.mip", || {
            let (model, _) = build_lp2(inst, *k);
            model.solve_mip_with(&MipOptions::default())
        });
        if let Ok(sol) = sol {
            nodes += sol.nodes as u64;
            work += sol.work;
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    report.layer("milp.mip.nodes", nodes as f64 / n);
    report.layer("milp.mip.work", work as f64 / n);
}

/// Shortest-path trees from every node, and Yen's 4 shortest paths
/// between a fixed spread of node pairs, on each graph.
pub fn routing(graphs: &[&Graph]) {
    for g in graphs {
        let nodes: Vec<_> = g.nodes().collect();
        for &s in &nodes {
            let _ = span("netgraph.spt", || dijkstra::shortest_path_tree(g, s));
        }
        let n = nodes.len();
        for i in 0..n.min(8) {
            let (a, b) = (nodes[i], nodes[(i * 7 + n / 2) % n]);
            if a != b {
                let _ = span("netgraph.ksp", || ksp::k_shortest_paths(g, a, b, 4));
            }
        }
    }
}

/// The min-cost flow behind the MECF root bound: the auxiliary graph with
/// cost `1/load(e)` per edge arc, asked for `k·V` units.
pub fn min_cost_flows(cases: &[(&PpmInstance, f64)]) {
    for (inst, k) in cases {
        let mon = inst.merged().to_monitoring();
        let costs: Vec<f64> = mon
            .edge_loads()
            .iter()
            .map(|&l| if l > 0.0 { 1.0 / l } else { 1e12 })
            .collect();
        let mut g = build_mecf(&mon, &costs);
        let demand = k * inst.total_volume();
        let _ = span("mcmf.min_cost_flow", || {
            min_cost_flow(&mut g.net, g.source, g.sink, demand)
        });
    }
}
