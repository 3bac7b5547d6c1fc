//! Differential proof of the resilience scorer's exactness contract:
//! on unrouted chains, [`placement::resilience::score_ensemble`] —
//! walking every scenario through ONE warm `DeltaInstance` chain with
//! incremental hit counters and fail/restore resets — must be *bitwise*
//! equal to [`placement::resilience::score_ensemble_cold`], which builds
//! an independent `PpmInstance` per scenario from scratch. Coverage
//! fractions compare by `to_bits`, live device counts exactly; and the
//! chain must hand back its entry state (volumes and failure set) so a
//! second campaign over the same chain reproduces the first.
//!
//! The scenarios come from the real `popgen::FailureModel` sampler (SRLG
//! groups + independent faults + churn + demand perturbation), so the
//! property also exercises the sampler's output contract (sorted failed
//! links, ascending demand factors) end to end.

use placement::passive::greedy_static;
use placement::resilience::{score_ensemble, score_ensemble_cold};
use placement::{DeltaInstance, PpmInstance};
use popgen::{DynamicSpec, FailureModel, FailureSpec, FamilySpec, GravitySpec, Pop};
use proptest::prelude::*;

/// Strategy: a seeded family instance plus a failure-model configuration
/// and a sampling seed — small topologies, ensembles of up to 24
/// scenarios, failure rates spanning calm to catastrophic.
#[allow(clippy::type_complexity)]
fn cases() -> impl Strategy<Value = ((FamilySpec, u64), (FailureSpec, bool, u64, usize), u32, u32)>
{
    let family = (0usize..3, 6usize..=10, 3usize..=5, 0u64..500).prop_map(
        |(fam, routers, endpoints, seed)| {
            let name = ["waxman", "ba", "hier"][fam];
            let spec = FamilySpec::canonical(name, routers, endpoints).expect("known family");
            (spec, seed)
        },
    );
    let failure = (
        (1usize..=6, 0.0f64..=0.5, 0.0f64..=0.3, 0.0f64..=0.2),
        (0u32..2, 0u64..1000, 1usize..=24),
    )
        .prop_map(
            |((groups, group_rate, link_rate, churn), (dynamic, seed, count))| {
                let dynamic = dynamic == 1;
                let spec = FailureSpec {
                    groups,
                    group_rate,
                    link_rate,
                    churn,
                };
                spec.validate().expect("strategy emits valid specs");
                (spec, dynamic, seed, count)
            },
        );
    (family, failure, 50u32..=100, 0u32..=2)
}

fn build(spec: &FamilySpec, seed: u64) -> (Pop, PpmInstance) {
    let pop = spec.build(seed).expect("strategy emits valid specs");
    let ts = GravitySpec::default().generate(&pop, seed);
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    (pop, inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The warm chain scores every scenario bitwise-identically to the
    /// cold per-scenario rebuild — coverage AND device counts — and the
    /// chain comes back in its entry state.
    #[test]
    fn warm_chain_equals_cold_rebuild(case in cases()) {
        let ((family, inst_seed), (fspec, dynamic, sample_seed, count), k_pct, base_fails) = case;
        let (pop, inst) = build(&family, inst_seed);
        let model = FailureModel::try_new(&pop, &fspec).expect("valid spec");
        let dspec = DynamicSpec::default();
        let scenarios = model
            .sample_scenarios(
                inst.traffics.len(),
                if dynamic { Some(&dspec) } else { None },
                count,
                sample_seed,
            )
            .expect("valid sampling request");

        // A realistic placement: the deterministic greedy's answer at a
        // random target (fall back to the two heaviest links when the
        // target is unreachable on this instance).
        let k = k_pct as f64 / 100.0;
        let placement: Vec<usize> = match greedy_static(&inst, k) {
            Some(sol) => sol.edges,
            None => vec![0, inst.num_edges / 2],
        };

        let mut delta = DeltaInstance::from_instance(&inst);
        // Up to two links already failed on the chain at entry: scenario
        // failures must layer on top without double-faulting them.
        let base_disabled: Vec<usize> = (0..base_fails as usize)
            .map(|i| (i * 7 + 1) % inst.num_edges)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &e in &base_disabled {
            delta.try_fail_link(e).unwrap();
        }

        let warm = score_ensemble(&mut delta, &placement, &scenarios)
            .expect("validated inputs");
        let cold = score_ensemble_cold(&inst, &base_disabled, &placement, &scenarios)
            .expect("validated inputs");

        prop_assert_eq!(warm.per_scenario.len(), cold.per_scenario.len());
        for (i, (w, c)) in warm.per_scenario.iter().zip(&cold.per_scenario).enumerate() {
            prop_assert_eq!(
                w.coverage.to_bits(), c.coverage.to_bits(),
                "scenario {} coverage: warm {} vs cold {} ({} seed {} sample {})",
                i, w.coverage, c.coverage, family, inst_seed, sample_seed
            );
            prop_assert_eq!(
                w.live_devices, c.live_devices,
                "scenario {} device count ({} seed {})", i, family, inst_seed
            );
        }
        prop_assert_eq!(warm.expected_coverage.to_bits(), cold.expected_coverage.to_bits());
        prop_assert_eq!(warm.p99_tail.to_bits(), cold.p99_tail.to_bits());
        prop_assert_eq!(warm.worst_case.to_bits(), cold.worst_case.to_bits());

        // Entry state restored: same failure set, same volume bits.
        prop_assert_eq!(delta.disabled(), base_disabled.as_slice());
        for (t, &(v, _)) in inst.traffics.iter().enumerate() {
            prop_assert_eq!(delta.demand(t).to_bits(), v.to_bits(), "traffic {}", t);
        }

        // And the reset is real: a second campaign over the SAME chain
        // reproduces the first bit for bit.
        let again = score_ensemble(&mut delta, &placement, &scenarios)
            .expect("validated inputs");
        for (w, a) in warm.per_scenario.iter().zip(&again.per_scenario) {
            prop_assert_eq!(w.coverage.to_bits(), a.coverage.to_bits());
            prop_assert_eq!(w.live_devices, a.live_devices);
        }
    }
}
