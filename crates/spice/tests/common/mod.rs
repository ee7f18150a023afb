//! Shared by the Newton solver tests.

use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit};
use pnc_spice::{DcSolver, Solution};

/// The transfer curve of the Fig. 1 cell at `p` over `grid`, solved point
/// by point without a `NewtonCache` (classic Newton), each point
/// warm-started from the previous solution.
pub fn uncached_sweep(
    solver: &DcSolver,
    p: &NonlinearCircuitParams,
    grid: &[f64],
) -> Vec<Solution> {
    let ckt = PtanhCircuit::build(p).unwrap();
    let mut c = ckt.circuit().clone();
    let mut guess: Option<Vec<f64>> = None;
    grid.iter()
        .map(|&v| {
            c.set_vsource(ckt.input_source(), v).unwrap();
            let sol = solver.solve_with_guess(&c, guess.as_deref()).unwrap();
            guess = Some(sol.voltages()[1..].to_vec());
            sol
        })
        .collect()
}
