//! Jacobian-reuse (modified-Newton) solver contract on the paper's Fig. 3
//! nonlinear circuits: a cached sweep lands on the same solutions as
//! uncached full-refactor Newton — every point within the solver's residual
//! bound — while factoring the Jacobian strictly less than once per
//! iteration across a warm-started transfer-curve sweep.

mod common;

use common::uncached_sweep;
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit};
use pnc_spice::sweep::linspace;
use pnc_spice::{DcSolver, NewtonCache, RecoveryRung, SolverBackend};

fn fig3_circuit(backend: SolverBackend) -> PtanhCircuit {
    let mut ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).unwrap();
    ckt.set_solver(DcSolver::with_backend(backend));
    ckt
}

#[test]
fn reuse_sweep_matches_full_refactor_sweep_within_residual_bound() {
    let grid = linspace(0.0, 1.0, 81);
    let full = uncached_sweep(
        &DcSolver::with_backend(SolverBackend::DenseLu),
        &NonlinearCircuitParams::nominal(),
        &grid,
    );
    let reused = fig3_circuit(SolverBackend::DenseLu)
        .transfer_curve_solutions(&grid)
        .unwrap();
    let tol = DcSolver::new().residual_tolerance;
    for (i, (a, b)) in full.iter().zip(&reused).enumerate() {
        // Both paths must satisfy the identical acceptance criterion...
        assert!(a.diagnostics().residual < tol, "full residual at point {i}");
        assert!(
            b.diagnostics().residual < tol,
            "reuse residual at point {i}"
        );
        // ...and land on the same operating point (two Newton solutions of
        // the same monotone circuit within the same residual bound).
        for (va, vb) in a.voltages().iter().zip(b.voltages()) {
            assert!((va - vb).abs() < 1e-6, "point {i}: full {va} vs reuse {vb}");
        }
    }
}

#[test]
fn reuse_sweep_factors_less_than_once_per_iteration() {
    let grid = linspace(0.0, 1.0, 81);
    for backend in [SolverBackend::DenseLu, SolverBackend::SparseLu] {
        let sols = fig3_circuit(backend)
            .transfer_curve_solutions(&grid)
            .unwrap();
        let iterations: usize = sols.iter().map(|s| s.diagnostics().iterations).sum();
        let factorizations: usize = sols.iter().map(|s| s.diagnostics().factorizations).sum();
        assert!(
            sols.iter()
                .all(|s| s.diagnostics().rung == RecoveryRung::Plain),
            "{backend:?}: the nominal Fig. 3 sweep must not need recovery"
        );
        assert!(
            factorizations > 0,
            "{backend:?}: a cold sweep must factor at least once"
        );
        assert!(
            iterations > factorizations,
            "{backend:?}: Jacobian reuse must average more than one iteration per \
             factorization: {iterations} iterations / {factorizations} factorizations"
        );
    }
}

#[test]
fn full_newton_factors_exactly_once_per_iteration() {
    let grid = linspace(0.0, 1.0, 31);
    let sols = uncached_sweep(
        &DcSolver::with_backend(SolverBackend::DenseLu),
        &NonlinearCircuitParams::nominal(),
        &grid,
    );
    for (i, s) in sols.iter().enumerate() {
        let d = s.diagnostics();
        assert_eq!(
            d.iterations, d.factorizations,
            "classic path at point {i} must factor every iteration"
        );
    }
}

#[test]
fn warm_cache_carries_across_close_operating_points() {
    // Consecutive warm-started solves at the same operating point: the
    // cold solve factors (possibly several times, far from the solution);
    // a followup may refactor once near the solution; after that the
    // cached LU is taken at the operating point itself, so further solves
    // reuse it entirely — zero new factorizations — while still meeting
    // the residual bound.
    let ckt = fig3_circuit(SolverBackend::DenseLu);
    let solver = ckt.solver().clone();
    let mut cache = NewtonCache::new();
    let first = solver
        .solve_with_cache(ckt.circuit(), None, &mut cache)
        .unwrap();
    assert!(cache.is_warm());
    assert!(first.diagnostics().factorizations >= 1);
    let guess: Vec<f64> = first.voltages()[1..].to_vec();
    let second = solver
        .solve_with_cache(ckt.circuit(), Some(&guess), &mut cache)
        .unwrap();
    assert!(
        second.diagnostics().factorizations <= 1,
        "a warm restart may refactor at most once near the solution"
    );
    let third = solver
        .solve_with_cache(ckt.circuit(), Some(&guess), &mut cache)
        .unwrap();
    assert_eq!(
        third.diagnostics().factorizations,
        0,
        "a repeat solve at the cached operating point must reuse the LU"
    );
    for sol in [&second, &third] {
        assert!(sol.diagnostics().residual < solver.residual_tolerance);
        for (a, b) in first.voltages().iter().zip(sol.voltages()) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}
