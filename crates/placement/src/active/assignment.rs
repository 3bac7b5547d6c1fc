//! Probe-to-beacon assignment — the message-cost half of the paper's
//! active-monitoring objective (Section 1: *"to optimize both the number
//! of devices and the number of generated messages"*).
//!
//! After placement, each probe `ϕ = (u, v)` must be *emitted* by a beacon
//! sitting at `u` or `v`. When both extremities host beacons the operator
//! chooses, and the choice shapes the per-beacon message load: probing is
//! periodic, so the busiest beacon bounds the measurement overhead on its
//! access link. Two policies:
//!
//! * [`assign_probes_greedy`] — longest-processing-time style: probes with
//!   a single eligible beacon first, then both-eligible probes to the
//!   currently lighter endpoint;
//! * [`assign_probes_ilp`] — exact makespan minimization (binary choice per
//!   both-eligible probe, an auxiliary max-load variable, solved by
//!   `milp`).

use milp::{Cmp, MipOptions, Model, Sense, VarId, VarKind};
use netgraph::NodeId;

use crate::active::{BeaconPlacement, ProbeSet};

/// A probe-to-beacon assignment.
#[derive(Debug, Clone)]
pub struct ProbeAssignment {
    /// `emitter[i]` is the beacon emitting probe `i` of the probe set.
    pub emitter: Vec<NodeId>,
    /// Messages per beacon, aligned with [`BeaconPlacement::beacons`].
    pub load: Vec<usize>,
    /// The maximum per-beacon load (the makespan being minimized).
    pub max_load: usize,
}

impl ProbeAssignment {
    fn from_emitters(placement: &BeaconPlacement, emitter: Vec<NodeId>) -> Self {
        let mut load = vec![0usize; placement.beacons.len()];
        for b in &emitter {
            let idx = placement
                .beacons
                .iter()
                .position(|x| x == b)
                .expect("emitters are placed beacons");
            load[idx] += 1;
        }
        let max_load = load.iter().copied().max().unwrap_or(0);
        Self {
            emitter,
            load,
            max_load,
        }
    }

    /// Total messages (= number of probes).
    pub fn total_messages(&self) -> usize {
        self.emitter.len()
    }
}

/// Greedy balancing: forced probes (one endpoint hosts a beacon) first,
/// then free probes to the lighter endpoint, heavier-constrained first.
///
/// # Panics
///
/// Panics if some probe has no endpoint among the placed beacons (the
/// placement does not cover the probe set).
pub fn assign_probes_greedy(probes: &ProbeSet, placement: &BeaconPlacement) -> ProbeAssignment {
    let has = |n: NodeId| placement.beacons.contains(&n);
    let mut load: std::collections::HashMap<NodeId, usize> =
        placement.beacons.iter().map(|&b| (b, 0)).collect();
    let mut emitter: Vec<Option<NodeId>> = vec![None; probes.probes.len()];

    // Forced probes first.
    let mut free = Vec::new();
    for (i, p) in probes.probes.iter().enumerate() {
        match (has(p.u), has(p.v)) {
            (true, false) => emitter[i] = Some(p.u),
            (false, true) => emitter[i] = Some(p.v),
            (true, true) => free.push(i),
            (false, false) => panic!("placement does not cover probe ({}, {})", p.u, p.v),
        }
        if let Some(b) = emitter[i] {
            *load.get_mut(&b).expect("beacon exists") += 1;
        }
    }
    // Free probes: assign to the lighter endpoint (ties to the smaller id).
    for i in free {
        let p = &probes.probes[i];
        let (lu, lv) = (load[&p.u], load[&p.v]);
        let pick = if lu < lv || (lu == lv && p.u < p.v) {
            p.u
        } else {
            p.v
        };
        emitter[i] = Some(pick);
        *load.get_mut(&pick).expect("beacon exists") += 1;
    }

    ProbeAssignment::from_emitters(
        placement,
        emitter
            .into_iter()
            .map(|e| e.expect("assigned above"))
            .collect(),
    )
}

/// Exact min-makespan assignment via a small MIP: binary `z_i` per
/// both-eligible probe (0 → `u` emits, 1 → `v` emits) and an integer
/// makespan variable `L ≥ load(b)` for every beacon.
///
/// # Panics
///
/// Panics if the placement does not cover the probe set.
pub fn assign_probes_ilp(probes: &ProbeSet, placement: &BeaconPlacement) -> ProbeAssignment {
    let has = |n: NodeId| placement.beacons.contains(&n);
    let mut m = Model::new(Sense::Minimize);
    let makespan = m.add_var("L", VarKind::Integer, 0.0, probes.probes.len() as f64, 1.0);

    // Per-beacon load terms: constant part (forced probes) + z parts.
    let mut fixed_load: std::collections::HashMap<NodeId, f64> =
        placement.beacons.iter().map(|&b| (b, 0.0)).collect();
    let mut z_terms: std::collections::HashMap<NodeId, Vec<(VarId, f64)>> =
        placement.beacons.iter().map(|&b| (b, Vec::new())).collect();
    let mut choice: Vec<Option<(VarId, NodeId, NodeId)>> = vec![None; probes.probes.len()];

    for (i, p) in probes.probes.iter().enumerate() {
        match (has(p.u), has(p.v)) {
            (true, false) => *fixed_load.get_mut(&p.u).expect("beacon") += 1.0,
            (false, true) => *fixed_load.get_mut(&p.v).expect("beacon") += 1.0,
            (true, true) => {
                let z = m.add_var(format!("z{i}"), VarKind::Binary, 0.0, 1.0, 0.0);
                // z = 0 -> u emits; z = 1 -> v emits.
                z_terms.get_mut(&p.u).expect("beacon").push((z, -1.0)); // (1 - z)
                *fixed_load.get_mut(&p.u).expect("beacon") += 1.0;
                z_terms.get_mut(&p.v).expect("beacon").push((z, 1.0));
                choice[i] = Some((z, p.u, p.v));
            }
            (false, false) => panic!("placement does not cover probe ({}, {})", p.u, p.v),
        }
    }

    for &b in &placement.beacons {
        // load(b) = fixed + Σ z-terms ≤ L.
        let mut terms = z_terms[&b].clone();
        terms.push((makespan, -1.0));
        m.add_constr(terms, Cmp::Le, -fixed_load[&b]);
    }

    let sol = m
        .solve_mip_with(&MipOptions::default())
        .expect("assignment is always feasible");
    let emitter: Vec<NodeId> = probes
        .probes
        .iter()
        .enumerate()
        .map(|(i, p)| match choice[i] {
            Some((z, u, v)) => {
                if sol.is_one(z, 1e-4) {
                    v
                } else {
                    u
                }
            }
            None => {
                if has(p.u) {
                    p.u
                } else {
                    p.v
                }
            }
        })
        .collect();
    ProbeAssignment::from_emitters(placement, emitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::{compute_probes, place_beacons_greedy, place_beacons_ilp};
    use popgen::PopSpec;

    fn setting() -> (netgraph::Graph, Vec<NodeId>) {
        let pop = PopSpec::paper_15().build();
        let (g, _) = pop.router_subgraph();
        let candidates: Vec<NodeId> = g.nodes().collect();
        (g, candidates)
    }

    #[test]
    fn greedy_assignment_is_complete_and_consistent() {
        let (g, candidates) = setting();
        let probes = compute_probes(&g, &candidates);
        let placement = place_beacons_greedy(&probes, &candidates);
        let a = assign_probes_greedy(&probes, &placement);
        assert_eq!(a.total_messages(), probes.len());
        assert_eq!(a.load.iter().sum::<usize>(), probes.len());
        for (p, e) in probes.probes.iter().zip(&a.emitter) {
            assert!(*e == p.u || *e == p.v, "emitter is an extremity");
            assert!(placement.beacons.contains(e), "emitter is a beacon");
        }
    }

    #[test]
    fn ilp_makespan_never_worse_than_greedy() {
        let (g, candidates) = setting();
        let probes = compute_probes(&g, &candidates);
        for placement in [
            place_beacons_greedy(&probes, &candidates),
            place_beacons_ilp(&g, &probes, &candidates),
        ] {
            let greedy = assign_probes_greedy(&probes, &placement);
            let ilp = assign_probes_ilp(&probes, &placement);
            assert!(
                ilp.max_load <= greedy.max_load,
                "ilp {} vs greedy {}",
                ilp.max_load,
                greedy.max_load
            );
            // Loads always bound the mean.
            let mean = probes.len() as f64 / placement.len() as f64;
            assert!(ilp.max_load as f64 + 1e-9 >= mean);
        }
    }

    #[test]
    fn forced_probes_have_no_choice() {
        // Two beacons on a path graph: every probe endpoint pair is the
        // two beacons, so both can emit; makespan must split evenly.
        let mut b = netgraph::GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("r{i}"))).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        let g = b.build();
        let probes = compute_probes(&g, &[n[0], n[3]]);
        assert_eq!(probes.len(), 1);
        let placement = place_beacons_ilp(&g, &probes, &[n[0], n[3]]);
        let a = assign_probes_ilp(&probes, &placement);
        assert_eq!(a.max_load, 1);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn uncovered_probe_panics() {
        let (g, candidates) = setting();
        let probes = compute_probes(&g, &candidates);
        let empty = BeaconPlacement {
            beacons: vec![],
            proven_optimal: false,
        };
        assign_probes_greedy(&probes, &empty);
    }
}
