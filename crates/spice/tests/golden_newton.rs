//! Golden digests of the dense-LU Newton solver, the oracle every other
//! backend is checked against (docs/SOLVERS.md §1).
//!
//! Each test solves a fixed set of operating points with
//! [`SolverBackend::DenseLu`] pinned and hashes, per solution, the bits of
//! every node voltage and source current plus its iteration, factorization
//! and attempt counts, its recovery rung and the bits of its final residual
//! (FNV-1a 64). The sets cover each way the solver is driven:
//!
//! * cached transfer-curve sweeps (modified Newton, as characterization runs
//!   them) of the Fig. 1 cell at the nominal design and eight fixed ω inside
//!   the Tab. I box;
//! * the same grids solved point by point without a cache (classic Newton,
//!   warm-started from the previous point);
//! * fault-injected solves rescued by each rung of the recovery ladder;
//! * one backward-Euler transient run.
//!
//! A digest may only change with a justification recorded where it is
//! re-pinned. The bits are those of the x86-64 Linux build (`exp` and `ln`
//! come from the platform's libm).

mod common;

use common::uncached_sweep;
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;
use pnc_spice::{
    DcSolver, Device, FaultInjection, RecoveryRung, Solution, SolverBackend, TransientSolver,
    GROUND,
};

const SWEEP_POINTS: usize = 61;
/// Every circuit here is the Fig. 1 cell, with VDD and the input source.
const VSOURCES: usize = 2;

const CACHED_SWEEPS: u64 = 0xa6b0_4805_bff4_7b23;
const UNCACHED_SWEEPS: u64 = 0x99b6_80cc_af93_aa9e;
const RECOVERY_LADDER: u64 = 0xd467_a8a9_e2fd_f8da;
const TRANSIENT: u64 = 0xaeb5_9c21_c8ee_d25f;

/// Eight designs inside the Tab. I box (`[r1, r2, r3, r4, r5, w, l]`, SI
/// units, `r2 < r1` and `r4 < r3`), spread over its corners and middle.
const OMEGAS: [[f64; 7]; 8] = [
    [20.0, 10.0, 20e3, 15e3, 20e3, 250e-6, 15e-6],
    [480.0, 240.0, 480e3, 390e3, 480e3, 780e-6, 65e-6],
    [120.0, 30.0, 250e3, 40e3, 150e3, 500e-6, 30e-6],
    [350.0, 200.0, 60e3, 50e3, 400e3, 300e-6, 50e-6],
    [60.0, 55.0, 400e3, 100e3, 60e3, 700e-6, 12e-6],
    [250.0, 125.0, 150e3, 140e3, 250e3, 450e-6, 40e-6],
    [450.0, 20.0, 300e3, 280e3, 90e3, 600e-6, 20e-6],
    [90.0, 80.0, 35e3, 10e3, 300e3, 220e-6, 68e-6],
];

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn solution(&mut self, sol: &Solution) {
        for v in sol.voltages() {
            self.word(v.to_bits());
        }
        for k in 0..VSOURCES {
            self.word(sol.source_current(k).to_bits());
        }
        let d = sol.diagnostics();
        self.word(d.iterations as u64);
        self.word(d.factorizations as u64);
        self.word(d.attempts as u64);
        self.word(d.rung as u64);
        self.word(d.residual.to_bits());
    }
}

fn dense() -> DcSolver {
    DcSolver::with_backend(SolverBackend::DenseLu)
}

/// The nominal design followed by the eight [`OMEGAS`].
fn designs() -> Vec<NonlinearCircuitParams> {
    let mut all = vec![NonlinearCircuitParams::nominal()];
    all.extend(OMEGAS.map(NonlinearCircuitParams::from_array));
    all
}

#[test]
fn cached_sweeps_match_golden_digest() {
    let grid = linspace(0.0, VDD, SWEEP_POINTS);
    let mut digest = Digest::new();
    for p in designs() {
        let mut ckt = PtanhCircuit::build(&p).unwrap();
        ckt.set_solver(dense());
        for sol in ckt.transfer_curve_solutions(&grid).unwrap() {
            digest.solution(&sol);
        }
    }
    assert_eq!(
        digest.0, CACHED_SWEEPS,
        "cached sweeps: 0x{:016x}",
        digest.0
    );
}

#[test]
fn uncached_sweeps_match_golden_digest() {
    let grid = linspace(0.0, VDD, SWEEP_POINTS);
    let solver = dense();
    let mut digest = Digest::new();
    for p in designs() {
        for sol in uncached_sweep(&solver, &p, &grid) {
            digest.solution(&sol);
        }
    }
    assert_eq!(
        digest.0, UNCACHED_SWEEPS,
        "uncached sweeps: 0x{:016x}",
        digest.0
    );
}

#[test]
fn recovery_ladder_matches_golden_digest() {
    let grid = linspace(0.0, VDD, SWEEP_POINTS);
    let triggers = vec![grid[0], grid[20], grid[33], grid[47]];
    let mut digest = Digest::new();
    for rung in [
        RecoveryRung::PerturbedGuess,
        RecoveryRung::GminStepping,
        RecoveryRung::SourceStepping,
    ] {
        let solver = DcSolver {
            fault_injection: Some(FaultInjection {
                trigger_values: triggers.clone(),
                tolerance: 1e-9,
                min_successful_rung: Some(rung),
            }),
            ..dense()
        };
        // A cold single solve at a triggered input...
        let ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).unwrap();
        let mut c = ckt.circuit().clone();
        c.set_vsource(ckt.input_source(), grid[33]).unwrap();
        let sol = solver.solve(&c).unwrap();
        assert_eq!(sol.diagnostics().rung, rung);
        digest.solution(&sol);
        // ...and a cached sweep whose triggered points climb the ladder.
        for p in [
            NonlinearCircuitParams::nominal(),
            NonlinearCircuitParams::from_array(OMEGAS[5]),
        ] {
            let mut ckt = PtanhCircuit::build(&p).unwrap();
            ckt.set_solver(solver.clone());
            let sols = ckt.transfer_curve_solutions(&grid).unwrap();
            for (i, sol) in sols.iter().enumerate() {
                let expected = if [0, 20, 33, 47].contains(&i) {
                    rung
                } else {
                    RecoveryRung::Plain
                };
                assert_eq!(sol.diagnostics().rung, expected, "point {i}");
                digest.solution(sol);
            }
        }
    }
    assert_eq!(
        digest.0, RECOVERY_LADDER,
        "recovery ladder: 0x{:016x}",
        digest.0
    );
}

#[test]
fn transient_run_matches_golden_digest() {
    // The Fig. 1 cell with printed gate and load capacitances, driven by an
    // input step from 0 to 0.8 V.
    let ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).unwrap();
    let vin = ckt.input_source();
    let mut c = ckt.circuit().clone();
    // The second stage's gate and output: the last EGT's gate and drain.
    let (g2, out) = c
        .devices()
        .iter()
        .rev()
        .find_map(|d| match d {
            Device::Egt { drain, gate, .. } => Some((*gate, *drain)),
            _ => None,
        })
        .unwrap();
    c.capacitor(g2, GROUND, 1e-9).unwrap();
    c.capacitor(out, GROUND, 2e-9).unwrap();
    let solver = TransientSolver {
        dc: dense(),
        ..TransientSolver::new(2e-5)
    };
    let wave = solver
        .simulate(&mut c, 2e-3, |t, c| {
            c.set_vsource(vin, if t > 0.0 { 0.8 } else { 0.0 })
        })
        .unwrap();
    let mut digest = Digest::new();
    for sol in &wave.solutions {
        digest.solution(sol);
    }
    assert_eq!(digest.0, TRANSIENT, "transient: 0x{:016x}", digest.0);
}
