//! Property tests for the warm-start layer: re-optimizing a perturbed
//! model from the previous optimal basis must agree with a cold solve.
//!
//! Models are random bounded LPs (finite box bounds, so `Unbounded` is
//! impossible and every disagreement is a real bug). A *chain* of random
//! perturbations — right-hand sides, variable bounds, objective
//! coefficients — is applied one link at a time; after every link the
//! warm-started solve (basis carried along the chain) is compared against
//! a from-scratch solve:
//!
//! * both must agree on feasibility, and
//! * on feasible links the objectives must match within tolerance (the
//!   optimal *vertex* may legitimately differ).
//!
//! A second property runs the same contract through the MIP layer:
//! `solve_mip_anytime` with node-level basis reuse against a cold
//! `solve_mip_with`, over covering programs whose coverage target drifts.
//!
//! Perturbation kind 3 rewrites a whole row's coefficients via
//! `Model::set_constr`: the per-column fingerprint scheme must either
//! reuse the basis (edit missed the basic columns) or silently fall back
//! cold — never disagree with a from-scratch solve.

use milp::{Cmp, LpWarmStart, MipOptions, MipOutcome, Model, Sense, SolverError, VarKind};
use proptest::prelude::*;

/// One chain link, decoded from a generated tuple: `kind % 4` selects
/// rhs / bounds / cost / row-rewrite, the remaining fields are reused per
/// kind.
#[derive(Debug, Clone, Copy)]
struct Perturbation {
    kind: u32,
    slot: usize,
    a: f64,
    b: f64,
}

fn apply(model: &mut Model, p: &Perturbation, nvars: usize, nrows: usize) {
    match p.kind % 4 {
        0 => {
            // Overwrite a row's right-hand side (scaled into a range that
            // crosses feasible and infeasible territory).
            let id = model.constr(p.slot % nrows);
            model.set_rhs(id, p.a * 3.0 - 6.0);
        }
        1 => {
            // Move the variable's box to [lo, lo + width].
            let v = model.var(p.slot % nvars);
            let lo = p.a.min(3.0);
            model.set_bounds(v, lo, lo + p.b.max(0.25));
        }
        2 => {
            let v = model.var(p.slot % nvars);
            model.set_cost(v, p.a * 2.0 - 4.0);
        }
        _ => {
            // Rewrite a row's coefficients (small integers, possibly
            // zeroing the row): exercises the touched-column fingerprint
            // invalidation behind warm-start reuse.
            let id = model.constr(p.slot % nrows);
            let v1 = model.var(p.slot % nvars);
            let v2 = model.var((p.slot + 3) % nvars);
            let c1 = (p.a - 2.0).round();
            let c2 = (p.b - 1.0).round();
            model.set_constr(id, vec![(v1, c1), (v2, c2)]);
        }
    }
}

/// A generated row: sparse terms, a comparison selector, and a rhs.
type RawRow = (Vec<(usize, i32)>, u32, f64);

/// Builds the random LP: box-bounded vars, small integer coefficients.
fn build(vars: &[(f64, f64)], rows: &[RawRow]) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let ids: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &(hi, cost))| m.add_var(format!("x{i}"), VarKind::Continuous, 0.0, hi, cost))
        .collect();
    for (terms, cmp, rhs) in rows {
        let cmp = match cmp % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let terms: Vec<_> = terms
            .iter()
            .map(|&(v, a)| (ids[v % ids.len()], a as f64))
            .collect();
        m.add_constr(terms, cmp, *rhs);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Warm-started LP re-optimization along a random perturbation chain
    /// agrees with cold solves on feasibility and objective.
    #[test]
    fn warm_lp_chain_matches_cold(
        vars in proptest::collection::vec((1.0f64..=8.0, -4.0f64..=4.0), 2..=5),
        rows in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..8, -3i32..=3), 1..=4),
                0u32..3,
                -6.0f64..=12.0,
            ),
            1..=4,
        ),
        links in proptest::collection::vec((0u32..4, 0usize..8, 0.0f64..=4.0, 0.0f64..=4.0), 1..=6),
    ) {
        let mut model = build(&vars, &rows);
        let nvars = vars.len();
        let nrows = rows.len();
        let mut basis: Option<LpWarmStart> = None;

        // Seed the chain (cold solve through the warm API must agree with
        // the plain LP entry point).
        match model.solve_lp_warm(None) {
            Ok((s, b)) => {
                basis = b;
                let cold = model.solve_lp().unwrap();
                prop_assert!((s.objective - cold.objective).abs() < 1e-6);
            }
            Err(SolverError::Infeasible) => {}
            Err(e) => panic!("unexpected error on the seed solve: {e}"),
        }

        for link in &links {
            let p = Perturbation { kind: link.0, slot: link.1, a: link.2, b: link.3 };
            apply(&mut model, &p, nvars, nrows);
            let warm = model.solve_lp_warm(basis.as_ref());
            let cold = model.solve_lp();
            match (warm, cold) {
                (Ok((w, b)), Ok(c)) => {
                    prop_assert!(
                        (w.objective - c.objective).abs() < 1e-6 * (1.0 + c.objective.abs()),
                        "warm {} vs cold {} after {:?}",
                        w.objective,
                        c.objective,
                        p
                    );
                    basis = b;
                }
                (Err(SolverError::Infeasible), Err(SolverError::Infeasible)) => {}
                (w, c) => panic!("warm {w:?} disagrees with cold {c:?} after {p:?}"),
            }
        }
    }

    /// A warm basis captured at one scaling must survive an exact
    /// power-of-two rescaling of the whole model: the scaling fingerprint
    /// in [`LpWarmStart`] either certifies reuse or the solve falls back
    /// cold — in both cases the answer matches a from-scratch solve of
    /// the rescaled twin (the objective is invariant under the rescaling,
    /// so the two must agree to relative tolerance). A follow-up bound
    /// perturbation then chains a second warm solve *within* the rescaled
    /// space.
    #[test]
    fn warm_survives_pow2_rescaling(
        vars in proptest::collection::vec((1.0f64..=8.0, -4.0f64..=4.0), 2..=5),
        rows in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..8, -3i32..=3), 1..=4),
                0u32..3,
                -6.0f64..=12.0,
            ),
            1..=4,
        ),
        rpow in proptest::collection::vec(-24i32..=24, 4),
        cpow in proptest::collection::vec(-24i32..=24, 5),
        link in (0u32..4, 0usize..8, 0.0f64..=4.0, 0.0f64..=4.0),
    ) {
        let model = build(&vars, &rows);
        let mut basis: Option<LpWarmStart> = None;
        if let Ok((_, b)) = model.solve_lp_warm(None) {
            basis = b;
        }
        let mut scaled = model.equivalently_rescaled(&rpow[..rows.len()], &cpow[..vars.len()]);
        let warm = scaled.solve_lp_warm(basis.as_ref());
        let cold = scaled.solve_lp();
        let chained = match (warm, cold) {
            (Ok((w, b)), Ok(c)) => {
                prop_assert!(
                    (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                    "cross-scale warm {} vs cold {}",
                    w.objective,
                    c.objective
                );
                b
            }
            (Err(SolverError::Infeasible), Err(SolverError::Infeasible)) => None,
            (w, c) => panic!("cross-scale warm {w:?} disagrees with cold {c:?}"),
        };
        // Chain a perturbation in the rescaled space — expressed *at the
        // row's / variable's own scale* so the perturbed model stays an
        // exact rescaling of a unit-scale model (an O(1) edit on a 2^-24
        // row would instead create a mixed-scale instance outside any
        // solver's precision contract). The carried basis fingerprints
        // refer to the rescaled model now, so reuse is legal and must
        // still match a cold solve.
        let p = Perturbation { kind: link.0, slot: link.1, a: link.2, b: link.3 };
        match p.kind % 3 {
            0 => {
                let r = p.slot % rows.len();
                let id = scaled.constr(r);
                scaled.set_rhs(id, (p.a * 3.0 - 6.0) * (rpow[r] as f64).exp2());
            }
            1 => {
                let j = p.slot % vars.len();
                let v = scaled.var(j);
                let s = (-cpow[j] as f64).exp2();
                let lo = p.a.min(3.0);
                scaled.set_bounds(v, lo * s, (lo + p.b.max(0.25)) * s);
            }
            _ => {
                let j = p.slot % vars.len();
                let v = scaled.var(j);
                scaled.set_cost(v, (p.a * 2.0 - 4.0) * (cpow[j] as f64).exp2());
            }
        }
        match (scaled.solve_lp_warm(chained.as_ref()), scaled.solve_lp()) {
            (Ok((w, _)), Ok(c)) => {
                prop_assert!(
                    (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                    "in-scale warm {} vs cold {} after {:?}",
                    w.objective,
                    c.objective,
                    p
                );
            }
            (Err(SolverError::Infeasible), Err(SolverError::Infeasible)) => {}
            (w, c) => panic!("in-scale warm {w:?} disagrees with cold {c:?} after {p:?}"),
        }
    }

    /// MIP chains: a binary covering program whose coverage right-hand
    /// side drifts along the chain. Warm roots + node basis reuse must
    /// reproduce the cold proven optimum at every link.
    #[test]
    fn warm_mip_chain_matches_cold(
        nvars in 3usize..=6,
        supports in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..=3), 2..=5),
        targets in proptest::collection::vec(0.5f64..=3.0, 1..=4),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let ids: Vec<_> = (0..nvars)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, 1.0 + (i % 3) as f64))
            .collect();
        let mut row_ids = Vec::new();
        for s in &supports {
            let terms: Vec<_> = s.iter().map(|&v| (ids[v % nvars], 1.0)).collect();
            row_ids.push(m.add_constr(terms, Cmp::Ge, 1.0));
        }
        let warm_opts = MipOptions { warm_basis: true, ..Default::default() };
        let mut warm_state: Option<milp::MipWarmStart> = None;
        for (i, &t) in targets.iter().enumerate() {
            let row = row_ids[i % row_ids.len()];
            m.set_rhs(row, t.round());
            let warm = m.solve_mip_anytime(&warm_opts, warm_state.as_ref());
            let cold = m.solve_mip_with(&MipOptions::default());
            match (warm, cold) {
                (Ok((MipOutcome::Complete(w), state)), Ok(c)) => {
                    prop_assert!(
                        (w.objective - c.objective).abs() < 1e-6,
                        "warm {} vs cold {} at target {t}",
                        w.objective,
                        c.objective
                    );
                    warm_state = state;
                }
                (Err(SolverError::Infeasible), Err(SolverError::Infeasible)) => {}
                (w, c) => panic!("warm {w:?} disagrees with cold {c:?} at target {t}"),
            }
        }
    }
}
