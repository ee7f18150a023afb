//! A DC analog circuit simulator for printed neuromorphic circuits.
//!
//! The paper characterizes its nonlinear subcircuits with Cadence Virtuoso
//! SPICE simulations on a printed process design kit (pPDK) \[Rasheed et al.\].
//! Neither is available here, so this crate is the substitute substrate: a
//! from-scratch DC operating-point simulator built on
//!
//! * **modified nodal analysis** (MNA) assembly of resistors, independent
//!   sources and transistors ([`Circuit`]),
//! * a behavioral **printed electrolyte-gated transistor** (EGT) model with
//!   geometry (W/L) scaling, smooth triode/saturation interpolation and
//!   channel-length modulation ([`EgtModel`]),
//! * damped **Newton–Raphson** iteration with analytic device Jacobians and a
//!   `gmin` safety conductance ([`DcSolver`]),
//! * three interchangeable **solver backends** — dense LU (the oracle),
//!   sparse LU with cached symbolic analysis, and the exact
//!   coordinate-descent method of Scellier 2024 — selected per-circuit via
//!   [`DcSolver::backend`] or process-wide via `PNC_SPICE_BACKEND`
//!   ([`SolverBackend`]; catalogue and selection guidance in
//!   `docs/SOLVERS.md` at the workspace root),
//! * **DC sweeps** with warm-started continuation ([`sweep::dc_sweep`]), and
//! * ready-made netlists of the paper's nonlinear subcircuits: the two-stage
//!   tanh-like `ptanh` circuit, the single-stage negative-weight inverter,
//!   and scalable resistor-ladder / crossbar-network benchmark topologies
//!   ([`circuits`]).
//!
//! # MNA formulation
//!
//! The unknown vector stacks the non-ground node voltages (indices
//! `0..num_nodes`) and one branch current per independent voltage source
//! (indices `num_nodes..`). Node rows are Kirchhoff current sums —
//! conductance stamps for resistors, backward-Euler companions for
//! capacitors in transient analysis, linearized companion models for EGTs —
//! and each voltage source contributes a branch row `v₊ − v₋ = V` plus
//! `±1` couplings that inject its branch current into the terminal node
//! rows. Every backend solves this same system (coordinate descent
//! eliminates the branch unknowns by clamping source-driven nodes) and all
//! honor the same dual convergence contract: the voltage update *and* the
//! KCL residual must settle below their tolerances.
//!
//! The substitution preserves what the downstream pipeline needs: a smooth
//! family of tanh-like transfer curves, nonlinearly parameterized by the seven
//! physical quantities ω = [R1ᴺ..R5ᴺ, W, L] of Tab. I.
//!
//! # Examples
//!
//! Solve a resistive divider:
//!
//! ```
//! use pnc_spice::{Circuit, DcSolver, GROUND};
//!
//! # fn main() -> Result<(), pnc_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.new_node();
//! let out = ckt.new_node();
//! ckt.vsource(vin, GROUND, 1.0)?;
//! ckt.resistor(vin, out, 1_000.0)?;
//! ckt.resistor(out, GROUND, 3_000.0)?;
//! let sol = DcSolver::new().solve(&ckt)?;
//! assert!((sol.voltage(out) - 0.75).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Every recovered solve feeds the `spice.*` counters and histograms of
//! `pnc-obs` (solve totals, Newton iterations, recovery-rung usage, KCL
//! residuals) — see `docs/METRICS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod cd;
pub mod circuits;
mod egt;
mod error;
mod mna;
mod netlist;
mod netlist_io;
pub mod sweep;
mod transient;

pub use backend::{SolverBackend, BACKEND_ENV_VAR};
pub use egt::{EgtModel, EgtOperatingPoint};
pub use error::SpiceError;
pub use mna::{
    DcSolver, FaultInjection, NewtonCache, RecoveryPolicy, RecoveryRung, Solution, SolveDiagnostics,
};
pub use netlist::{Circuit, Device, DeviceId, Node, GROUND};
pub use netlist_io::parse_value;
pub use transient::{TransientSolver, Waveform};
