use crate::backend::SolverBackend;
use crate::{Circuit, Device, SpiceError};
use pnc_linalg::sparse::{CscMatrix, SparseBuilder, SparseLu};
use pnc_linalg::{LinalgError, Lu, Matrix};
use pnc_obs::{Counter, FieldValue, Histogram};
use serde::{Deserialize, Serialize};

// Observability: one record per (possibly recovered) solve, taken at the
// `solve_recovered` wrapper so plain DC solves, every recovery rung, and
// transient backward-Euler steps all land in the same tallies. Catalogued in
// docs/METRICS.md.
static OBS_SOLVES: Counter = Counter::new("spice.solve.total");
static OBS_SOLVE_FAILURES: Counter = Counter::new("spice.solve.failures");
static OBS_NEWTON_ITERATIONS: Counter = Counter::new("spice.newton.iterations");
static OBS_NEWTON_ATTEMPTS: Counter = Counter::new("spice.newton.attempts");
static OBS_NEWTON_FACTORIZATIONS: Counter = Counter::new("spice.newton.factorizations");
static OBS_RUNG_PLAIN: Counter = Counter::new("spice.recovery.plain");
static OBS_RUNG_PERTURBED: Counter = Counter::new("spice.recovery.perturbed_guess");
static OBS_RUNG_GMIN: Counter = Counter::new("spice.recovery.gmin_stepping");
static OBS_RUNG_SOURCE: Counter = Counter::new("spice.recovery.source_stepping");
static OBS_GMIN_STEPS: Counter = Counter::new("spice.recovery.gmin_steps");
static OBS_SOURCE_STEPS: Counter = Counter::new("spice.recovery.source_steps");
static OBS_RESIDUAL: Histogram = Histogram::new("spice.newton.residual");
// Backend-dispatch tallies: one per-solve count on the backend that ran it,
// plus the sparse/coordinate-descent work counters those backends emit.
static OBS_BACKEND_DENSE: Counter = Counter::new("spice.backend.dense_lu");
static OBS_BACKEND_SPARSE: Counter = Counter::new("spice.backend.sparse_lu");
static OBS_BACKEND_CD: Counter = Counter::new("spice.backend.coord_descent");
pub(crate) static OBS_CD_SWEEPS: Counter = Counter::new("spice.backend.cd_sweeps");
static OBS_SPARSE_SYMBOLIC: Counter = Counter::new("spice.backend.sparse_symbolic");
static OBS_SPARSE_REFACTOR: Counter = Counter::new("spice.backend.sparse_refactor");

/// Registers the crate's whole metric set so summaries always carry every
/// documented key, including zero-valued failure/recovery counters.
fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_SOLVES.register();
        OBS_SOLVE_FAILURES.register();
        OBS_NEWTON_ITERATIONS.register();
        OBS_NEWTON_ATTEMPTS.register();
        OBS_NEWTON_FACTORIZATIONS.register();
        OBS_RUNG_PLAIN.register();
        OBS_RUNG_PERTURBED.register();
        OBS_RUNG_GMIN.register();
        OBS_RUNG_SOURCE.register();
        OBS_GMIN_STEPS.register();
        OBS_SOURCE_STEPS.register();
        OBS_RESIDUAL.register();
        OBS_BACKEND_DENSE.register();
        OBS_BACKEND_SPARSE.register();
        OBS_BACKEND_CD.register();
        OBS_CD_SWEEPS.register();
        OBS_SPARSE_SYMBOLIC.register();
        OBS_SPARSE_REFACTOR.register();
    });
}

/// Modified-Newton keeps a stale Jacobian only while each iteration shrinks
/// the residual to at most this fraction of the previous one; slower
/// contraction counts as a stall and triggers a refactorization.
const STALL_CONTRACTION: f64 = 0.5;

/// A factorization carried across warm-started solves is dropped when the
/// new starting point moved farther than this (infinity norm, volts) from
/// the operating point it was taken at.
const CACHE_GUESS_TOL: f64 = 0.05;

/// Reusable modified-Newton state: the most recent Jacobian LU
/// factorization and the operating point it was taken at.
///
/// Thread one cache through consecutive warm-started solves (e.g. the
/// points of a transfer-curve sweep) via [`DcSolver::solve_with_cache`].
/// While the residual keeps contracting geometrically the stale
/// factorization is reused — across iterations *and* across sweep points
/// whose operating point moved little — so iterations-per-factorization
/// rises above one. The cache is pure acceleration state: every iteration
/// still evaluates the exact residual of the freshly assembled system, so
/// dropping (or never supplying) a cache only costs speed, never accuracy.
#[derive(Debug, Default)]
pub struct NewtonCache {
    lu: Option<Lu>,
    /// Sparse counterpart of `lu`, used by the `sparse-lu` backend: carrying
    /// it across warm-started solves reuses both the numeric factorization
    /// (while the residual contracts) and its symbolic pivot order (on every
    /// refactorization).
    sparse: Option<SparseLu>,
    x_at_factor: Vec<f64>,
}

impl NewtonCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        NewtonCache::default()
    }

    /// `true` when the cache holds a factorization ready for reuse.
    pub fn is_warm(&self) -> bool {
        self.lu.is_some() || self.sparse.is_some()
    }

    /// Drops any held factorization.
    pub fn clear(&mut self) {
        self.lu = None;
        self.sparse = None;
        self.x_at_factor.clear();
    }

    /// `true` if the factorization held in `F`'s slot can be trusted for a
    /// solve of dimension `dim` starting from `x`.
    fn matches<F: MnaLu>(&mut self, dim: usize, x: &[f64]) -> bool {
        F::slot(self).as_ref().is_some_and(|lu| lu.dim() == dim) && self.guess_close(dim, x)
    }

    fn guess_close(&self, dim: usize, x: &[f64]) -> bool {
        if self.x_at_factor.len() != dim {
            return false;
        }
        let mut dist = 0.0_f64;
        for (a, b) in self.x_at_factor.iter().zip(x) {
            dist = dist.max((a - b).abs());
        }
        dist <= CACHE_GUESS_TOL
    }
}

impl RecoveryRung {
    /// Stable lower-snake-case name used in metrics and sink events.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryRung::Plain => "plain",
            RecoveryRung::PerturbedGuess => "perturbed_guess",
            RecoveryRung::GminStepping => "gmin_stepping",
            RecoveryRung::SourceStepping => "source_stepping",
        }
    }
}

/// Which rung of the convergence-recovery ladder produced a solution.
///
/// The variants are ordered by escalation cost: [`DcSolver`] tries them in
/// declaration order and stops at the first rung that converges, so
/// `rung == RecoveryRung::Plain` means no recovery was needed at all.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum RecoveryRung {
    /// The plain damped Newton loop from the caller's initial guess.
    #[default]
    Plain,
    /// Retry from a deterministically perturbed initial guess.
    PerturbedGuess,
    /// Gmin stepping: solve with a large shunt conductance on every node and
    /// relax it geometrically back to the configured `gmin`, warm-starting
    /// each step from the previous solution.
    GminStepping,
    /// Source stepping: ramp every independent source from zero to its full
    /// value, continuing from each intermediate solution.
    SourceStepping,
}

/// Structured outcome of a (possibly recovered) Newton solve.
///
/// Every [`Solution`] carries one of these instead of a bare iteration
/// count, so sweep and dataset layers can account for *how* each operating
/// point was obtained — not just that it was.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveDiagnostics {
    /// Total Newton iterations (LU solves) across all attempts, including
    /// failed rungs.
    pub iterations: usize,
    /// Infinity norm of the KCL residual (amperes on node rows, volts on
    /// source branch rows) at the accepted solution.
    pub residual: f64,
    /// The recovery rung that produced the solution.
    pub rung: RecoveryRung,
    /// Newton attempts made, counting every continuation step; `1` means the
    /// plain solve succeeded directly.
    pub attempts: usize,
    /// Jacobian LU factorizations performed across the counted successful
    /// attempts (failed attempts are excluded — their factorization count is
    /// not recoverable from the error). An uncached solve factors once per
    /// iteration; a solve given a [`NewtonCache`] factors only when
    /// contraction stalls, so `iterations / factorizations` measures the
    /// reuse win. `0` is possible when a solve converges entirely on a
    /// factorization carried over from an earlier warm-started solve.
    pub factorizations: usize,
}

impl SolveDiagnostics {
    /// `true` if the plain Newton loop converged without any recovery.
    pub fn recovered(&self) -> bool {
        self.rung != RecoveryRung::Plain
    }
}

/// Configuration of the convergence-recovery ladder of [`DcSolver`].
///
/// When the plain damped Newton loop fails (iteration budget exhausted, a
/// stalled update, or a singular Jacobian mid-iteration), the solver
/// escalates through the enabled rungs in [`RecoveryRung`] order. Every rung
/// is deterministic — no randomness, no dependence on thread scheduling — so
/// recovered sweeps stay bit-identical across thread counts.
///
/// Set a rung's step/attempt count to `0` to disable it;
/// [`RecoveryPolicy::disabled`] turns the ladder off entirely, restoring the
/// historical fail-fast behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Number of perturbed-guess retries (rung 1). Each retry `k` starts from
    /// the caller's guess (or zero) shifted by `k · perturbation_scale` with
    /// alternating sign per node.
    pub guess_perturbations: usize,
    /// Magnitude of the deterministic initial-guess perturbation, in volts.
    pub perturbation_scale: f64,
    /// Number of geometric gmin relaxation steps (rung 2); the shunt
    /// conductance travels from `gmin_initial` down to the solver's `gmin`.
    pub gmin_steps: usize,
    /// Starting shunt conductance of gmin stepping, in siemens.
    pub gmin_initial: f64,
    /// Number of source-ramp steps (rung 3); sources scale through
    /// `k / source_steps` for `k = 1..=source_steps`. Only applied to DC
    /// solves (never inside a transient timestep).
    pub source_steps: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            guess_perturbations: 2,
            perturbation_scale: 0.1,
            gmin_steps: 8,
            gmin_initial: 1e-3,
            source_steps: 8,
        }
    }
}

impl RecoveryPolicy {
    /// Disables every rung: a failed plain Newton solve errors immediately.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            guess_perturbations: 0,
            perturbation_scale: 0.0,
            gmin_steps: 0,
            gmin_initial: 0.0,
            source_steps: 0,
        }
    }
}

/// Deterministic fault injection for exercising the recovery ladder and the
/// downstream degradation paths in tests.
///
/// When any independent voltage source in the circuit matches one of
/// `trigger_values` (within `tolerance`), Newton attempts on rungs *below*
/// `min_successful_rung` fail instantly with
/// [`SpiceError::NoConvergence`]; attempts at or above that rung run
/// normally. `min_successful_rung: None` makes matching solves unrecoverable
/// at every rung.
///
/// This is a test-only diagnostic device: it lets a test force
/// non-convergence on chosen sweep points (a sweep grid value is a vsource
/// value) and assert that the ladder rescues them — or, with `None`, that
/// failure accounting degrades gracefully. Production solvers leave
/// [`DcSolver::fault_injection`] as `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// Voltage-source values (in volts) that trigger an injected failure.
    pub trigger_values: Vec<f64>,
    /// Absolute tolerance used when matching trigger values.
    pub tolerance: f64,
    /// First rung allowed to succeed on a triggered solve; `None` means no
    /// rung succeeds.
    pub min_successful_rung: Option<RecoveryRung>,
}

impl FaultInjection {
    /// A plan that fails plain Newton (and perturbed restarts) on the given
    /// source values but lets gmin stepping rescue the solve.
    pub fn recoverable_at(trigger_values: Vec<f64>) -> Self {
        FaultInjection {
            trigger_values,
            tolerance: 1e-9,
            min_successful_rung: Some(RecoveryRung::GminStepping),
        }
    }

    /// A plan under which the triggered solves fail at every rung.
    pub fn unrecoverable_at(trigger_values: Vec<f64>) -> Self {
        FaultInjection {
            trigger_values,
            tolerance: 1e-9,
            min_successful_rung: None,
        }
    }

    fn triggers(&self, circuit: &Circuit, rung: RecoveryRung) -> bool {
        let below = match self.min_successful_rung {
            Some(min) => rung < min,
            None => true,
        };
        below
            && circuit.devices().iter().any(|d| {
                if let Device::VSource { voltage, .. } = d {
                    self.trigger_values
                        .iter()
                        .any(|t| (voltage - t).abs() <= self.tolerance)
                } else {
                    false
                }
            })
    }
}

/// The result of a DC operating-point analysis.
///
/// Node voltages are indexed by [`Node`](crate::Node); branch currents are
/// reported for voltage sources in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Voltage of every node including ground at index 0.
    pub(crate) voltages: Vec<f64>,
    /// Current through each voltage source (flowing from `plus` through the
    /// source to `minus`), in source insertion order.
    pub(crate) source_currents: Vec<f64>,
    /// How the solve went: iterations, recovery rung, final residual.
    pub(crate) diagnostics: SolveDiagnostics,
}

impl Solution {
    /// Voltage at `node` in volts.
    pub fn voltage(&self, node: crate::Node) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages, ground first.
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current through the `k`-th voltage source (insertion order among
    /// voltage sources), in amperes. Positive current flows into the `plus`
    /// terminal (i.e. the source is sinking current).
    pub fn source_current(&self, k: usize) -> f64 {
        self.source_currents[k]
    }

    /// Newton iterations the solve needed (summed over all recovery
    /// attempts).
    pub fn iterations(&self) -> usize {
        self.diagnostics.iterations
    }

    /// Full structured diagnostics of the solve.
    pub fn diagnostics(&self) -> &SolveDiagnostics {
        &self.diagnostics
    }
}

/// Damped Newton–Raphson DC operating-point solver over an MNA formulation.
///
/// Each iteration linearizes the nonlinear devices (EGTs) at the present
/// estimate, assembles the modified-nodal-analysis matrix (node equations
/// plus one branch equation per voltage source), solves it with LU, and takes
/// a damped step. A `gmin` conductance from every node to ground keeps the
/// system well posed even with floating subcircuits.
///
/// Convergence requires *both* a settled voltage update (`tolerance`) and a
/// small KCL residual (`residual_tolerance`), so a stalled damped update
/// cannot be reported as a solution. When the plain loop fails, the solver
/// escalates through the deterministic recovery ladder configured by
/// [`RecoveryPolicy`] — perturbed restarts, gmin stepping, source stepping —
/// and every returned [`Solution`] carries [`SolveDiagnostics`] describing
/// which rung succeeded.
///
/// # Examples
///
/// ```
/// use pnc_spice::{Circuit, DcSolver, RecoveryRung, GROUND};
///
/// # fn main() -> Result<(), pnc_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let n = ckt.new_node();
/// ckt.isource(GROUND, n, 1e-3)?;
/// ckt.resistor(n, GROUND, 2_000.0)?;
/// let sol = DcSolver::new().solve(&ckt)?;
/// assert!((sol.voltage(n) - 2.0).abs() < 1e-6);
/// assert_eq!(sol.diagnostics().rung, RecoveryRung::Plain);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolver {
    /// Maximum Newton iterations before reporting no convergence.
    pub max_iterations: usize,
    /// Convergence tolerance on the infinity norm of the voltage update, in
    /// volts.
    pub tolerance: f64,
    /// Convergence tolerance on the infinity norm of the KCL residual
    /// (amperes on node rows, volts on source branch rows).
    pub residual_tolerance: f64,
    /// Per-iteration limit on any voltage change, in volts (Newton damping).
    pub max_step: f64,
    /// Safety conductance from every node to ground, in siemens.
    pub gmin: f64,
    /// The convergence-recovery ladder used when plain Newton fails.
    pub recovery: RecoveryPolicy,
    /// Deterministic test-only fault injection; `None` in production.
    pub fault_injection: Option<FaultInjection>,
    /// Which algorithm computes the operating point (see [`SolverBackend`]
    /// and `docs/SOLVERS.md`). `None` — the default — resolves the
    /// `PNC_SPICE_BACKEND` environment variable at each solve, so an
    /// unrecognized value there surfaces as [`SpiceError::Config`] from the
    /// solve itself rather than silently falling back; `Some(backend)` pins
    /// the choice in code and ignores the environment.
    pub backend: Option<SolverBackend>,
}

impl Default for DcSolver {
    fn default() -> Self {
        DcSolver {
            max_iterations: 500,
            tolerance: 1e-10,
            residual_tolerance: 1e-9,
            max_step: 0.25,
            gmin: 1e-12,
            recovery: RecoveryPolicy::default(),
            fault_injection: None,
            backend: None,
        }
    }
}

impl DcSolver {
    /// Creates a solver with default settings suitable for the 1 V printed
    /// circuits in this workspace.
    pub fn new() -> Self {
        DcSolver::default()
    }

    /// Creates a default solver pinned to `backend`, ignoring the
    /// `PNC_SPICE_BACKEND` environment variable.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnc_spice::{Circuit, DcSolver, SolverBackend, GROUND};
    ///
    /// # fn main() -> Result<(), pnc_spice::SpiceError> {
    /// let mut ckt = Circuit::new();
    /// let n = ckt.new_node();
    /// ckt.vsource(n, GROUND, 1.0)?;
    /// ckt.resistor(n, GROUND, 1_000.0)?;
    /// let sol = DcSolver::with_backend(SolverBackend::CoordDescent).solve(&ckt)?;
    /// assert!((sol.voltage(n) - 1.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_backend(backend: SolverBackend) -> Self {
        DcSolver {
            backend: Some(backend),
            ..DcSolver::default()
        }
    }

    /// Solves the DC operating point starting from an all-zero voltage guess.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NoConvergence`] if the Newton iteration does not
    /// settle within the budget on any recovery rung and
    /// [`SpiceError::SingularSystem`] if the MNA matrix cannot be factored
    /// even with recovery (e.g. a loop of ideal sources). When every rung
    /// fails, the error of the *plain* attempt is reported.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, SpiceError> {
        self.solve_with_guess(circuit, None)
    }

    /// Solves the DC operating point from a warm-start guess of node
    /// voltages (ground excluded, i.e. `guess.len() == circuit.num_nodes()`).
    ///
    /// Sweeps use this to continue from the previous point, which both speeds
    /// up convergence and keeps the solver on the same branch of the
    /// (monotone) transfer curve.
    ///
    /// # Errors
    ///
    /// As for [`DcSolver::solve`]; additionally returns
    /// [`SpiceError::BadDeviceRef`] if the guess has the wrong length.
    pub fn solve_with_guess(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
    ) -> Result<Solution, SpiceError> {
        self.solve_recovered(circuit, guess, None)
    }

    /// Solves the DC operating point from a warm-start guess while carrying
    /// modified-Newton state in `cache` (see [`NewtonCache`]).
    ///
    /// The plain Newton loop runs modified Newton: it keeps the cached
    /// Jacobian factorization while the residual contracts geometrically —
    /// across its own iterations and across consecutive calls whose
    /// warm-start point moved little — and refactors only when contraction
    /// stalls. Convergence criteria are unchanged, so the accepted solution
    /// satisfies the same residual bound as a full-Newton solve. Recovery
    /// rungs never use the cache.
    ///
    /// # Errors
    ///
    /// As for [`DcSolver::solve_with_guess`].
    pub fn solve_with_cache(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cache: &mut NewtonCache,
    ) -> Result<Solution, SpiceError> {
        self.solve_recovered_cached(circuit, guess, None, Some(cache))
    }

    /// Runs the recovery ladder around [`Self::newton_solve`]: plain solve,
    /// then perturbed restarts, gmin stepping and (for DC solves) source
    /// stepping, stopping at the first rung that converges. Records one
    /// observability sample per call (see `docs/METRICS.md`).
    pub(crate) fn solve_recovered(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
    ) -> Result<Solution, SpiceError> {
        self.solve_recovered_cached(circuit, guess, cap_state, None)
    }

    /// [`Self::solve_recovered`] with optional modified-Newton state threaded
    /// into the plain rung.
    pub(crate) fn solve_recovered_cached(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        obs_register();
        // Resolve the backend once per solve. A bad `PNC_SPICE_BACKEND`
        // value errors out here, before any numeric work — no fallback.
        let resolved = match self.backend {
            Some(b) => b,
            None => SolverBackend::from_env()?,
        };
        match resolved {
            SolverBackend::DenseLu => OBS_BACKEND_DENSE.increment(),
            SolverBackend::SparseLu => OBS_BACKEND_SPARSE.increment(),
            SolverBackend::CoordDescent => OBS_BACKEND_CD.increment(),
        }
        // Pin the resolved backend so every recovery rung (some clone the
        // solver) dispatches identically without re-reading the environment.
        let pinned;
        let solver = if self.backend == Some(resolved) {
            self
        } else {
            pinned = DcSolver {
                backend: Some(resolved),
                ..self.clone()
            };
            &pinned
        };
        let result = solver.solve_recovered_inner(circuit, guess, cap_state, cache);
        OBS_SOLVES.increment();
        match &result {
            Ok(sol) => {
                let d = sol.diagnostics();
                OBS_NEWTON_ITERATIONS.add(d.iterations as u64);
                OBS_NEWTON_ATTEMPTS.add(d.attempts as u64);
                OBS_NEWTON_FACTORIZATIONS.add(d.factorizations as u64);
                OBS_RESIDUAL.observe(d.residual);
                match d.rung {
                    RecoveryRung::Plain => OBS_RUNG_PLAIN.increment(),
                    RecoveryRung::PerturbedGuess => OBS_RUNG_PERTURBED.increment(),
                    RecoveryRung::GminStepping => OBS_RUNG_GMIN.increment(),
                    RecoveryRung::SourceStepping => OBS_RUNG_SOURCE.increment(),
                }
                // Recovered solves are rare enough to stream individually;
                // plain solves would flood the sink and are summarized by the
                // counters instead.
                if d.rung != RecoveryRung::Plain && pnc_obs::sink::enabled() {
                    pnc_obs::sink::emit(
                        "spice.solve.recovered",
                        &[
                            ("rung", FieldValue::Str(d.rung.as_str())),
                            ("iterations", FieldValue::U64(d.iterations as u64)),
                            ("attempts", FieldValue::U64(d.attempts as u64)),
                            ("residual", FieldValue::F64(d.residual)),
                        ],
                    );
                }
            }
            Err(e @ (SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. })) => {
                OBS_SOLVE_FAILURES.increment();
                if pnc_obs::sink::enabled() {
                    pnc_obs::sink::emit(
                        "spice.solve.failed",
                        &[(
                            "kind",
                            FieldValue::Str(match e {
                                SpiceError::NoConvergence { .. } => "no_convergence",
                                _ => "singular_system",
                            }),
                        )],
                    );
                }
            }
            Err(_) => OBS_SOLVE_FAILURES.increment(),
        }
        result
    }

    fn solve_recovered_inner(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        // Total iterations, factorizations, and attempts across the ladder,
        // folded into the successful solution's diagnostics.
        let mut iterations = 0usize;
        let mut factorizations = 0usize;
        let mut attempts = 1usize;

        let first_err =
            match self.newton_solve(circuit, guess, cap_state, RecoveryRung::Plain, cache) {
                Ok(sol) => return Ok(sol),
                Err(e @ (SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. })) => {
                    if let SpiceError::NoConvergence { iterations: n, .. } = e {
                        iterations += n;
                    }
                    e
                }
                Err(e) => return Err(e),
            };

        let finish = |mut sol: Solution,
                      rung: RecoveryRung,
                      iterations: usize,
                      factorizations: usize,
                      attempts: usize| {
            sol.diagnostics.iterations += iterations;
            sol.diagnostics.factorizations += factorizations;
            sol.diagnostics.rung = rung;
            sol.diagnostics.attempts = attempts;
            sol
        };

        // Rung 1: deterministic perturbed restarts.
        let n = circuit.num_nodes();
        for k in 1..=self.recovery.guess_perturbations {
            attempts += 1;
            let start = perturbed_guess(n, guess, k, self.recovery.perturbation_scale);
            match self.newton_solve(
                circuit,
                Some(&start),
                cap_state,
                RecoveryRung::PerturbedGuess,
                None,
            ) {
                Ok(sol) => {
                    return Ok(finish(
                        sol,
                        RecoveryRung::PerturbedGuess,
                        iterations,
                        factorizations,
                        attempts,
                    ))
                }
                Err(SpiceError::NoConvergence { iterations: n, .. }) => iterations += n,
                Err(SpiceError::SingularSystem { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        // Rung 2: gmin stepping.
        if self.recovery.gmin_steps > 0 {
            match self.gmin_stepping(
                circuit,
                guess,
                cap_state,
                &mut iterations,
                &mut factorizations,
                &mut attempts,
            ) {
                Ok(sol) => {
                    return Ok(finish(
                        sol,
                        RecoveryRung::GminStepping,
                        iterations,
                        factorizations,
                        attempts,
                    ))
                }
                Err(SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        // Rung 3: source stepping — DC only; ramping sources inside a
        // backward-Euler step would fight the capacitor history terms.
        if self.recovery.source_steps > 0 && cap_state.is_none() {
            match self.source_stepping(circuit, &mut iterations, &mut factorizations, &mut attempts)
            {
                Ok(sol) => {
                    return Ok(finish(
                        sol,
                        RecoveryRung::SourceStepping,
                        iterations,
                        factorizations,
                        attempts,
                    ))
                }
                Err(SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        Err(first_err)
    }

    /// Rung 2: solve with a large gmin and geometrically relax it back to
    /// the configured value, warm-starting each step.
    fn gmin_stepping(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        iterations: &mut usize,
        factorizations: &mut usize,
        attempts: &mut usize,
    ) -> Result<Solution, SpiceError> {
        let steps = self.recovery.gmin_steps;
        let start = self.recovery.gmin_initial.max(self.gmin.max(1e-15));
        let target = self.gmin.max(1e-15);
        let mut relaxed = self.clone();
        let mut guess_vec: Option<Vec<f64>> = guess.map(<[f64]>::to_vec);
        let mut last: Option<Solution> = None;
        for step in 0..=steps {
            relaxed.gmin = if step == steps {
                self.gmin
            } else {
                start * (target / start).powf(step as f64 / steps as f64)
            };
            *attempts += 1;
            OBS_GMIN_STEPS.increment();
            match relaxed.newton_solve(
                circuit,
                guess_vec.as_deref(),
                cap_state,
                RecoveryRung::GminStepping,
                None,
            ) {
                Ok(sol) => {
                    *iterations += sol.diagnostics.iterations;
                    *factorizations += sol.diagnostics.factorizations;
                    guess_vec = Some(sol.voltages()[1..].to_vec());
                    last = Some(sol);
                }
                Err(e) => {
                    if let SpiceError::NoConvergence { iterations: n, .. } = e {
                        *iterations += n;
                    }
                    return Err(e);
                }
            }
        }
        let Some(mut sol) = last else {
            // Zero steps only happens with a degenerate schedule; report it as
            // a non-convergence instead of panicking.
            return Err(SpiceError::NoConvergence {
                iterations: *iterations,
                residual: f64::INFINITY,
            });
        };
        // The accumulated totals are applied by `finish`; this solution's own
        // counts are already inside `iterations`/`factorizations`.
        sol.diagnostics.iterations = 0;
        sol.diagnostics.factorizations = 0;
        Ok(sol)
    }

    /// Rung 3: ramp all independent sources from zero to full value,
    /// continuing from each intermediate solution.
    fn source_stepping(
        &self,
        circuit: &Circuit,
        iterations: &mut usize,
        factorizations: &mut usize,
        attempts: &mut usize,
    ) -> Result<Solution, SpiceError> {
        let steps = self.recovery.source_steps;
        let mut guess_vec: Option<Vec<f64>> = None;
        let mut last: Option<Solution> = None;
        for k in 1..=steps {
            // The final step solves the original circuit verbatim, so the
            // returned operating point is exact — not a scaled variant.
            let scaled = if k == steps {
                circuit.clone()
            } else {
                circuit.scaled_sources(k as f64 / steps as f64)
            };
            *attempts += 1;
            OBS_SOURCE_STEPS.increment();
            match self.newton_solve(
                &scaled,
                guess_vec.as_deref(),
                None,
                RecoveryRung::SourceStepping,
                None,
            ) {
                Ok(sol) => {
                    *iterations += sol.diagnostics.iterations;
                    *factorizations += sol.diagnostics.factorizations;
                    guess_vec = Some(sol.voltages()[1..].to_vec());
                    last = Some(sol);
                }
                Err(e) => {
                    if let SpiceError::NoConvergence { iterations: n, .. } = e {
                        *iterations += n;
                    }
                    return Err(e);
                }
            }
        }
        let Some(mut sol) = last else {
            return Err(SpiceError::NoConvergence {
                iterations: *iterations,
                residual: f64::INFINITY,
            });
        };
        sol.diagnostics.iterations = 0;
        sol.diagnostics.factorizations = 0;
        Ok(sol)
    }

    /// Newton iteration shared by DC analysis (`cap_state` = `None`,
    /// capacitors open) and the transient solver's backward-Euler steps
    /// (`cap_state` = previous node voltages including ground, and the
    /// timestep). `rung` tags the attempt for diagnostics and fault
    /// injection; it does not change the numerics.
    ///
    /// Acceptance requires the voltage update *and* the KCL residual to be
    /// below their tolerances, so a stalled damped update is not mistaken
    /// for convergence.
    ///
    /// With `cache` supplied the loop runs modified Newton: the Jacobian
    /// factorization is kept while the residual contracts geometrically
    /// (including a factorization carried in from an earlier warm-started
    /// solve whose operating point is close) and rebuilt only when
    /// contraction stalls. The residual is always evaluated on the freshly
    /// assembled system, so the acceptance criteria — and hence the
    /// returned solution's accuracy — are identical to the full-Newton
    /// path.
    pub(crate) fn newton_solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        rung: RecoveryRung,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        let n = circuit.num_nodes();
        let m = circuit.num_vsources();
        let dim = n + m;

        let mut x = vec![0.0; dim];
        if let Some(g) = guess {
            if g.len() != n {
                return Err(SpiceError::BadDeviceRef {
                    detail: format!("guess has {} entries, circuit has {} nodes", g.len(), n),
                });
            }
            x[..n].copy_from_slice(g);
        }

        if dim == 0 {
            return Ok(Solution {
                voltages: vec![0.0],
                source_currents: Vec::new(),
                diagnostics: SolveDiagnostics {
                    iterations: 0,
                    residual: 0.0,
                    rung,
                    attempts: 1,
                    factorizations: 0,
                },
            });
        }

        if let Some(fault) = &self.fault_injection {
            if fault.triggers(circuit, rung) {
                return Err(SpiceError::NoConvergence {
                    iterations: 0,
                    residual: f64::INFINITY,
                });
            }
        }

        // Backend dispatch happens after the shared prelude so guess
        // validation, trivial circuits, and fault injection behave the same
        // regardless of backend. `None` only reaches this point via direct
        // internal calls; it means the dense default.
        match self.backend.unwrap_or_default() {
            SolverBackend::DenseLu => self.newton_loop::<Lu>(circuit, x, cap_state, rung, cache),
            SolverBackend::SparseLu => {
                self.newton_loop::<SparseLu>(circuit, x, cap_state, rung, cache)
            }
            SolverBackend::CoordDescent => crate::cd::solve(self, circuit, &x, cap_state, rung),
        }
    }

    /// The Newton loop behind both LU backends: [`SolverBackend::DenseLu`]
    /// runs it over [`Lu`], [`SolverBackend::SparseLu`] over [`SparseLu`].
    /// The dense instantiation is the oracle path the other backends are
    /// validated against.
    ///
    /// Without a cache every iteration factors the freshly assembled
    /// Jacobian and solves for the next iterate directly (classic Newton).
    /// With a cache it runs modified Newton in delta form,
    /// `J_stale·Δ = −F(x)`, refactoring only when the slot is empty or the
    /// residual stopped contracting geometrically.
    fn newton_loop<F: MnaLu>(
        &self,
        circuit: &Circuit,
        mut x: Vec<f64>,
        cap_state: Option<(&[f64], f64)>,
        rung: RecoveryRung,
        mut cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        let n = circuit.num_nodes();
        let dim = x.len();

        // A factorization carried over from an earlier solve is only
        // trusted when the warm-start point stayed near where it was taken;
        // otherwise start cold.
        if let Some(c) = cache.as_deref_mut() {
            if !c.matches::<F>(dim, &x) {
                c.clear();
            }
        }
        // Factorization slot of an uncached solve: refreshed every
        // iteration (the sparse backend keeps its symbolic pivot order
        // across those refreshes) and dropped on return.
        let mut local: Option<F> = None;

        let mut last_update = f64::INFINITY;
        let mut last_residual = f64::INFINITY;
        let mut prev_residual = f64::INFINITY;
        let mut factorizations = 0usize;
        let mut rhs = vec![0.0; dim];
        let mut f = vec![0.0; dim];
        let mut delta = vec![0.0; dim];
        for iter in 0..=self.max_iterations {
            let a = F::assemble(self, circuit, &x, cap_state, &mut rhs)?;

            // KCL residual of the nonlinear system at x: the companion
            // linearization is exact at its expansion point, so
            // F(x) = A(x)·x − rhs(x).
            let residual = F::residual(&a, &x, &rhs, &mut f)?;
            last_residual = residual;

            if last_update < self.tolerance && residual < self.residual_tolerance {
                let mut voltages = vec![0.0; n + 1];
                voltages[1..].copy_from_slice(&x[..n]);
                return Ok(Solution {
                    voltages,
                    source_currents: x[n..].to_vec(),
                    diagnostics: SolveDiagnostics {
                        iterations: iter,
                        residual,
                        rung,
                        attempts: 1,
                        factorizations,
                    },
                });
            }
            if iter == self.max_iterations {
                break;
            }

            match cache.as_deref_mut() {
                Some(c) => {
                    if F::slot(c).is_none() || residual > STALL_CONTRACTION * prev_residual {
                        F::refresh(F::slot(c), &a)?;
                        c.x_at_factor.clear();
                        c.x_at_factor.extend_from_slice(&x);
                        factorizations += 1;
                    }
                    for fi in f.iter_mut() {
                        *fi = -*fi;
                    }
                    if let Some(lu) = F::slot(c).as_ref() {
                        lu.solve_into(&f, &mut delta)?;
                    }
                }
                None => {
                    F::refresh(&mut local, &a)?;
                    factorizations += 1;
                    if let Some(lu) = local.as_ref() {
                        lu.solve_into(&rhs, &mut delta)?;
                    }
                    for (d, xi) in delta.iter_mut().zip(&x) {
                        *d -= xi;
                    }
                }
            }

            // Damped update: limit each voltage step.
            let mut max_delta = 0.0_f64;
            for (i, d) in delta.iter().enumerate() {
                let mut d = *d;
                // Only damp node voltages; source branch currents may move
                // freely.
                if i < n {
                    d = d.clamp(-self.max_step, self.max_step);
                }
                x[i] += d;
                if i < n {
                    max_delta = max_delta.max(d.abs());
                }
            }
            last_update = max_delta;
            prev_residual = residual;
        }

        Err(SpiceError::NoConvergence {
            iterations: self.max_iterations,
            residual: last_residual,
        })
    }

    /// Stamps the linearized MNA system `G·x = rhs` at the estimate `x`
    /// into `sink` and `rhs` (which is overwritten).
    ///
    /// With `cap_state = Some((prev_voltages, h))`, capacitors contribute
    /// their backward-Euler companion (conductance `C/h` plus a history
    /// current); otherwise they are open circuits (DC analysis). Stamp
    /// positions depend only on the netlist topology, never on `x`, so a
    /// sparse pattern — and its cached symbolic pivot order — is stable
    /// across Newton iterations and same-circuit sweep points.
    fn assemble_into(
        &self,
        circuit: &Circuit,
        x: &[f64],
        cap_state: Option<(&[f64], f64)>,
        g: &mut impl Stamp,
        rhs: &mut [f64],
    ) {
        let n = circuit.num_nodes();
        rhs.fill(0.0);

        // gmin from every node to ground keeps floating nodes solvable.
        for i in 0..n {
            g.add(i, i, self.gmin);
        }

        // Voltage of a node under the current estimate (ground = 0).
        let volt = |node: crate::Node| -> f64 {
            if node.index() == 0 {
                0.0
            } else {
                x[node.index() - 1]
            }
        };
        // Row/col index of a node in the MNA system, None for ground.
        let idx = |node: crate::Node| -> Option<usize> {
            if node.index() == 0 {
                None
            } else {
                Some(node.index() - 1)
            }
        };

        let mut vsrc_counter = 0usize;
        for device in circuit.devices() {
            match device {
                Device::Resistor { a, b, resistance } => {
                    let cond = 1.0 / resistance;
                    if let Some(i) = idx(*a) {
                        g.add(i, i, cond);
                    }
                    if let Some(j) = idx(*b) {
                        g.add(j, j, cond);
                    }
                    if let (Some(i), Some(j)) = (idx(*a), idx(*b)) {
                        g.add(i, j, -cond);
                        g.add(j, i, -cond);
                    }
                }
                Device::VSource {
                    plus,
                    minus,
                    voltage,
                } => {
                    let k = n + vsrc_counter;
                    vsrc_counter += 1;
                    if let Some(i) = idx(*plus) {
                        g.add(i, k, 1.0);
                        g.add(k, i, 1.0);
                    }
                    if let Some(j) = idx(*minus) {
                        g.add(j, k, -1.0);
                        g.add(k, j, -1.0);
                    }
                    rhs[k] = *voltage;
                }
                Device::Capacitor { a, b, capacitance } => {
                    let Some((prev, h)) = cap_state else {
                        continue; // open circuit in DC analysis
                    };
                    let g_c = capacitance / h;
                    let v_prev = prev[a.index()] - prev[b.index()];
                    if let Some(i) = idx(*a) {
                        g.add(i, i, g_c);
                        rhs[i] += g_c * v_prev;
                    }
                    if let Some(j) = idx(*b) {
                        g.add(j, j, g_c);
                        rhs[j] -= g_c * v_prev;
                    }
                    if let (Some(i), Some(j)) = (idx(*a), idx(*b)) {
                        g.add(i, j, -g_c);
                        g.add(j, i, -g_c);
                    }
                }
                Device::ISource { from, to, current } => {
                    if let Some(i) = idx(*from) {
                        rhs[i] -= current;
                    }
                    if let Some(j) = idx(*to) {
                        rhs[j] += current;
                    }
                }
                Device::Egt {
                    drain,
                    gate,
                    source,
                    model,
                } => {
                    let vgs = volt(*gate) - volt(*source);
                    let vds = volt(*drain) - volt(*source);
                    let op = model.evaluate(vgs, vds);
                    // Companion model: i_d ≈ i_eq + gm·v_gs + gds·v_ds.
                    let i_eq = op.id - op.gm * vgs - op.gds * vds;

                    let d = idx(*drain);
                    let gt = idx(*gate);
                    let s = idx(*source);

                    // KCL at drain: +i_d leaves the node into the channel.
                    if let Some(di) = d {
                        rhs[di] -= i_eq;
                        if let Some(gi) = gt {
                            g.add(di, gi, op.gm);
                        }
                        g.add(di, di, op.gds);
                        if let Some(si) = s {
                            g.add(di, si, -(op.gm + op.gds));
                        }
                    }
                    // KCL at source: −i_d (channel current enters the node).
                    if let Some(si) = s {
                        rhs[si] += i_eq;
                        if let Some(gi) = gt {
                            g.add(si, gi, -op.gm);
                        }
                        if let Some(di) = d {
                            g.add(si, di, -op.gds);
                        }
                        g.add(si, si, op.gm + op.gds);
                    }
                    // Gate draws no DC current.
                }
            }
        }
    }
}

/// Where [`DcSolver::assemble_into`] writes its matrix stamps. Subtracting
/// a conductance is adding its negation, which is the same IEEE result.
trait Stamp {
    fn add(&mut self, i: usize, j: usize, v: f64);
}

impl Stamp for Matrix {
    fn add(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] += v;
    }
}

/// The builder keeps explicit zeros, so the pattern is topology-only.
impl Stamp for SparseBuilder {
    fn add(&mut self, i: usize, j: usize, v: f64) {
        self.push(i, j, v);
    }
}

/// What differs between the LU backends of [`DcSolver::newton_loop`]: the
/// matrix they assemble into, how they form the residual, how they
/// (re)factor, and which [`NewtonCache`] slot they keep.
trait MnaLu: Sized {
    /// The assembled MNA matrix.
    type Matrix;

    /// Assembles the system at `x`, writing the right-hand side to `rhs`.
    fn assemble(
        solver: &DcSolver,
        circuit: &Circuit,
        x: &[f64],
        cap_state: Option<(&[f64], f64)>,
        rhs: &mut [f64],
    ) -> Result<Self::Matrix, SpiceError>;

    /// Writes `F = A·x − rhs` to `f` and returns its infinity norm.
    fn residual(a: &Self::Matrix, x: &[f64], rhs: &[f64], f: &mut [f64])
        -> Result<f64, SpiceError>;

    /// Stores a factorization of `a` in `slot`.
    fn refresh(slot: &mut Option<Self>, a: &Self::Matrix) -> Result<(), SpiceError>;

    /// Solves `A·out = b` with the stored factorization.
    fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), SpiceError>;

    /// Dimension of the factored matrix.
    fn dim(&self) -> usize;

    /// This backend's slot in a [`NewtonCache`].
    fn slot(cache: &mut NewtonCache) -> &mut Option<Self>;
}

impl MnaLu for Lu {
    type Matrix = Matrix;

    fn assemble(
        solver: &DcSolver,
        circuit: &Circuit,
        x: &[f64],
        cap_state: Option<(&[f64], f64)>,
        rhs: &mut [f64],
    ) -> Result<Matrix, SpiceError> {
        let mut g = Matrix::zeros(rhs.len(), rhs.len());
        solver.assemble_into(circuit, x, cap_state, &mut g, rhs);
        Ok(g)
    }

    fn residual(g: &Matrix, x: &[f64], rhs: &[f64], f: &mut [f64]) -> Result<f64, SpiceError> {
        let mut residual = 0.0_f64;
        for (i, fi) in f.iter_mut().enumerate() {
            let mut acc = -rhs[i];
            for (j, xj) in x.iter().enumerate() {
                acc += g[(i, j)] * xj;
            }
            *fi = acc;
            residual = residual.max(acc.abs());
        }
        Ok(residual)
    }

    fn refresh(slot: &mut Option<Self>, g: &Matrix) -> Result<(), SpiceError> {
        *slot = Some(Lu::factor(g)?);
        Ok(())
    }

    fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), SpiceError> {
        Ok(Lu::solve_into(self, b, out)?)
    }

    fn dim(&self) -> usize {
        Lu::dim(self)
    }

    fn slot(cache: &mut NewtonCache) -> &mut Option<Self> {
        &mut cache.lu
    }
}

impl MnaLu for SparseLu {
    type Matrix = CscMatrix;

    fn assemble(
        solver: &DcSolver,
        circuit: &Circuit,
        x: &[f64],
        cap_state: Option<(&[f64], f64)>,
        rhs: &mut [f64],
    ) -> Result<CscMatrix, SpiceError> {
        let mut b = SparseBuilder::new(rhs.len(), rhs.len());
        solver.assemble_into(circuit, x, cap_state, &mut b, rhs);
        Ok(b.build()?)
    }

    fn residual(a: &CscMatrix, x: &[f64], rhs: &[f64], f: &mut [f64]) -> Result<f64, SpiceError> {
        a.mul_vec(x, f)?;
        let mut residual = 0.0_f64;
        for (fi, r) in f.iter_mut().zip(rhs) {
            *fi -= *r;
            residual = residual.max(fi.abs());
        }
        Ok(residual)
    }

    /// Refactors numerically on the held symbolic pivot order; a fresh
    /// Markowitz analysis runs when there is none of this dimension or the
    /// held order has gone numerically bad at this operating point.
    fn refresh(slot: &mut Option<Self>, a: &CscMatrix) -> Result<(), SpiceError> {
        if let Some(lu) = slot.as_mut().filter(|lu| lu.dim() == a.rows()) {
            match lu.refactor(a) {
                Ok(()) => {
                    OBS_SPARSE_REFACTOR.increment();
                    return Ok(());
                }
                Err(LinalgError::Singular { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        *slot = Some(SparseLu::factor(a)?);
        OBS_SPARSE_SYMBOLIC.increment();
        Ok(())
    }

    fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), SpiceError> {
        Ok(SparseLu::solve_into(self, b, out)?)
    }

    fn dim(&self) -> usize {
        SparseLu::dim(self)
    }

    fn slot(cache: &mut NewtonCache) -> &mut Option<Self> {
        &mut cache.sparse
    }
}

/// The deterministic rung-1 starting point: the caller's guess (or zero)
/// shifted by `k · scale` with alternating sign per node, so successive
/// retries explore both directions at growing amplitude.
fn perturbed_guess(n: usize, guess: Option<&[f64]>, k: usize, scale: f64) -> Vec<f64> {
    let mut x: Vec<f64> = match guess {
        Some(g) => g.to_vec(),
        None => vec![0.0; n],
    };
    for (i, xi) in x.iter_mut().enumerate() {
        let sign = if (i + k).is_multiple_of(2) { 1.0 } else { -1.0 };
        *xi += sign * scale * k as f64;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EgtModel, GROUND};

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.new_node();
        let mid = c.new_node();
        c.vsource(vin, GROUND, 1.0).unwrap();
        c.resistor(vin, mid, 1_000.0).unwrap();
        c.resistor(mid, GROUND, 1_000.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(mid) - 0.5).abs() < 1e-9);
        assert!((sol.voltage(vin) - 1.0).abs() < 1e-12);
        // Source sinks the loop current: V/R_total = 0.5 mA flowing out of
        // the plus terminal, i.e. −0.5 mA into it.
        assert!((sol.source_current(0) + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn two_sources_and_superposition() {
        // Two 1 V sources through 1 kΩ each into a common node with 1 kΩ to
        // ground: node voltage is 2/3 V.
        let mut c = Circuit::new();
        let a = c.new_node();
        let b = c.new_node();
        let out = c.new_node();
        c.vsource(a, GROUND, 1.0).unwrap();
        c.vsource(b, GROUND, 1.0).unwrap();
        c.resistor(a, out, 1_000.0).unwrap();
        c.resistor(b, out, 1_000.0).unwrap();
        c.resistor(out, GROUND, 1_000.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(out) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.isource(GROUND, n, 2e-3).unwrap();
        c.resistor(n, GROUND, 500.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(n) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_is_pulled_to_ground_by_gmin() {
        let mut c = Circuit::new();
        let float = c.new_node();
        let used = c.new_node();
        c.vsource(used, GROUND, 1.0).unwrap();
        c.resistor(used, GROUND, 100.0).unwrap();
        // `float` has no device at all.
        let _ = float;
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!(sol.voltage(float).abs() < 1e-9);
    }

    #[test]
    fn crossbar_weighted_sum_matches_eq1() {
        // A 2-input resistor crossbar (Fig. 1 left): V_z should equal the
        // conductance-weighted mean of inputs and bias, Eq. (1) of the paper.
        let g1 = 1.0 / 2_000.0;
        let g2 = 1.0 / 5_000.0;
        let gb = 1.0 / 10_000.0;
        let gd = 1.0 / 4_000.0;
        let (v1, v2, vb) = (0.8, 0.3, 1.0);

        let mut c = Circuit::new();
        let n1 = c.new_node();
        let n2 = c.new_node();
        let nb = c.new_node();
        let z = c.new_node();
        c.vsource(n1, GROUND, v1).unwrap();
        c.vsource(n2, GROUND, v2).unwrap();
        c.vsource(nb, GROUND, vb).unwrap();
        c.resistor(n1, z, 1.0 / g1).unwrap();
        c.resistor(n2, z, 1.0 / g2).unwrap();
        c.resistor(nb, z, 1.0 / gb).unwrap();
        c.resistor(z, GROUND, 1.0 / gd).unwrap();

        let sol = DcSolver::new().solve(&c).unwrap();
        let g_total = g1 + g2 + gb + gd;
        let expected = (g1 * v1 + g2 * v2 + gb * vb) / g_total;
        assert!((sol.voltage(z) - expected).abs() < 1e-9);
    }

    #[test]
    fn egt_inverter_output_swings() {
        let vdd = 1.0;
        let model = EgtModel::printed(600e-6, 20e-6);

        let out_at = |vin: f64| -> f64 {
            let mut c = Circuit::new();
            let supply = c.new_node();
            let input = c.new_node();
            let out = c.new_node();
            c.vsource(supply, GROUND, vdd).unwrap();
            c.vsource(input, GROUND, vin).unwrap();
            c.resistor(supply, out, 200_000.0).unwrap();
            c.egt(out, input, GROUND, model).unwrap();
            DcSolver::new().solve(&c).unwrap().voltage(out)
        };

        let high = out_at(0.0);
        let low = out_at(1.0);
        assert!(
            high > 0.95,
            "inverter output should be near VDD when off, got {high}"
        );
        assert!(
            low < 0.3,
            "inverter output should be pulled low when on, got {low}"
        );
    }

    #[test]
    fn egt_inverter_is_monotone_decreasing() {
        let model = EgtModel::printed(400e-6, 40e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        let vin_id = c.vsource(input, GROUND, 0.0).unwrap();
        c.resistor(supply, out, 100_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();

        let solver = DcSolver::new();
        let mut prev = f64::INFINITY;
        let mut guess: Option<Vec<f64>> = None;
        for i in 0..=20 {
            let vin = i as f64 / 20.0;
            c.set_vsource(vin_id, vin).unwrap();
            let sol = solver.solve_with_guess(&c, guess.as_deref()).unwrap();
            let v = sol.voltage(out);
            assert!(
                v <= prev + 1e-9,
                "inverter must be monotone: {v} after {prev}"
            );
            prev = v;
            guess = Some(sol.voltages()[1..].to_vec());
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let model = EgtModel::printed(400e-6, 40e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        c.vsource(input, GROUND, 0.5).unwrap();
        c.resistor(supply, out, 100_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();

        let solver = DcSolver::new();
        let cold = solver.solve(&c).unwrap();
        let warm = solver
            .solve_with_guess(&c, Some(&cold.voltages()[1..]))
            .unwrap();
        assert!(
            warm.iterations() <= 2,
            "warm start took {} iterations",
            warm.iterations()
        );
        assert!((warm.voltage(out) - cold.voltage(out)).abs() < 1e-8);
    }

    #[test]
    fn wrong_guess_length_is_rejected() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.resistor(n, GROUND, 1.0).unwrap();
        let err = DcSolver::new().solve_with_guess(&c, Some(&[0.0, 0.0]));
        assert!(matches!(err, Err(SpiceError::BadDeviceRef { .. })));
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let c = Circuit::new();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert_eq!(sol.voltages(), &[0.0]);
        assert_eq!(sol.diagnostics().rung, RecoveryRung::Plain);
    }

    #[test]
    fn plain_solve_reports_residual_and_rung() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 1.0).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        let d = sol.diagnostics();
        assert_eq!(d.rung, RecoveryRung::Plain);
        assert_eq!(d.attempts, 1);
        assert!(d.residual.is_finite());
        assert!(d.residual < 1e-9, "residual {}", d.residual);
        assert!(!d.recovered());
    }

    #[test]
    fn residual_check_rejects_stalled_updates() {
        // A solver whose residual tolerance can never be met must report
        // NoConvergence even though the (tiny) voltage updates settle.
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 1.0).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            residual_tolerance: 0.0, // unachievable
            recovery: RecoveryPolicy::disabled(),
            ..DcSolver::new()
        };
        let err = solver.solve(&c);
        assert!(
            matches!(err, Err(SpiceError::NoConvergence { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn fault_injection_fails_without_recovery() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            recovery: RecoveryPolicy::disabled(),
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        assert!(matches!(
            solver.solve(&c),
            Err(SpiceError::NoConvergence { .. })
        ));
    }

    #[test]
    fn ladder_rescues_injected_fault_via_gmin_stepping() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        let sol = solver.solve(&c).unwrap();
        assert!((sol.voltage(n) - 0.5).abs() < 1e-9);
        let d = sol.diagnostics();
        assert_eq!(d.rung, RecoveryRung::GminStepping);
        assert!(d.recovered());
        // Plain + 2 perturbed restarts failed before the gmin rung ran.
        assert!(d.attempts > 3, "attempts {}", d.attempts);
    }

    #[test]
    fn ladder_rescues_via_source_stepping_when_gmin_is_disabled() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            recovery: RecoveryPolicy {
                gmin_steps: 0,
                guess_perturbations: 0,
                ..RecoveryPolicy::default()
            },
            fault_injection: Some(FaultInjection {
                trigger_values: vec![0.5],
                tolerance: 1e-9,
                min_successful_rung: Some(RecoveryRung::SourceStepping),
            }),
            ..DcSolver::new()
        };
        let sol = solver.solve(&c).unwrap();
        assert!((sol.voltage(n) - 0.5).abs() < 1e-9);
        assert_eq!(sol.diagnostics().rung, RecoveryRung::SourceStepping);
    }

    #[test]
    fn unrecoverable_fault_fails_at_every_rung() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            fault_injection: Some(FaultInjection::unrecoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        assert!(matches!(
            solver.solve(&c),
            Err(SpiceError::NoConvergence { .. })
        ));
        // A non-triggering source value solves normally.
        let mut ok = Circuit::new();
        let m = ok.new_node();
        ok.vsource(m, GROUND, 0.7).unwrap();
        ok.resistor(m, GROUND, 1_000.0).unwrap();
        let sol = solver.solve(&ok).unwrap();
        assert_eq!(sol.diagnostics().rung, RecoveryRung::Plain);
    }

    #[test]
    fn recovered_solution_matches_plain_solution() {
        // The rescued EGT inverter operating point must equal the one plain
        // Newton finds without injection.
        let model = EgtModel::printed(600e-6, 20e-6);
        let build = || {
            let mut c = Circuit::new();
            let supply = c.new_node();
            let input = c.new_node();
            let out = c.new_node();
            c.vsource(supply, GROUND, 1.0).unwrap();
            c.vsource(input, GROUND, 0.4).unwrap();
            c.resistor(supply, out, 200_000.0).unwrap();
            c.egt(out, input, GROUND, model).unwrap();
            (c, out)
        };
        let (c, out) = build();
        let plain = DcSolver::new().solve(&c).unwrap();
        let faulted = DcSolver {
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.4])),
            ..DcSolver::new()
        };
        let rescued = faulted.solve(&c).unwrap();
        assert_eq!(rescued.diagnostics().rung, RecoveryRung::GminStepping);
        assert!(
            (rescued.voltage(out) - plain.voltage(out)).abs() < 1e-8,
            "rescued {} vs plain {}",
            rescued.voltage(out),
            plain.voltage(out)
        );
    }

    #[test]
    fn ladder_is_deterministic() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        let a = solver.solve(&c).unwrap();
        let b = solver.solve(&c).unwrap();
        assert_eq!(a, b, "recovery must be deterministic");
    }

    #[test]
    fn recovery_policy_default_and_disabled() {
        let p = RecoveryPolicy::default();
        assert!(p.guess_perturbations > 0 && p.gmin_steps > 0 && p.source_steps > 0);
        let off = RecoveryPolicy::disabled();
        assert_eq!(off.guess_perturbations, 0);
        assert_eq!(off.gmin_steps, 0);
        assert_eq!(off.source_steps, 0);
    }

    fn egt_inverter_circuit(vin: f64) -> (Circuit, crate::Node) {
        let model = EgtModel::printed(600e-6, 20e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        c.vsource(input, GROUND, vin).unwrap();
        c.resistor(supply, out, 200_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();
        (c, out)
    }

    #[test]
    fn sparse_backend_matches_dense_on_nonlinear_circuit() {
        for vin in [0.0, 0.3, 0.5, 0.8, 1.0] {
            let (c, out) = egt_inverter_circuit(vin);
            let dense = DcSolver::new().solve(&c).unwrap();
            let sparse = DcSolver::with_backend(SolverBackend::SparseLu)
                .solve(&c)
                .unwrap();
            assert!(
                (dense.voltage(out) - sparse.voltage(out)).abs() < 1e-9,
                "vin {vin}: dense {} vs sparse {}",
                dense.voltage(out),
                sparse.voltage(out)
            );
            assert!((dense.source_current(0) - sparse.source_current(0)).abs() < 1e-9);
        }
    }

    #[test]
    fn coord_descent_matches_dense_on_nonlinear_circuit() {
        for vin in [0.0, 0.3, 0.5, 0.8, 1.0] {
            let (c, out) = egt_inverter_circuit(vin);
            let dense = DcSolver::new().solve(&c).unwrap();
            let cd = DcSolver::with_backend(SolverBackend::CoordDescent)
                .solve(&c)
                .unwrap();
            // CD stops once the KCL residual is below tolerance; through the
            // 200 kΩ output impedance that allows a few µV of voltage slack
            // (the documented cross-backend agreement bound in SOLVERS.md).
            assert!(
                (dense.voltage(out) - cd.voltage(out)).abs() < 1e-5,
                "vin {vin}: dense {} vs cd {}",
                dense.voltage(out),
                cd.voltage(out)
            );
            assert!((dense.source_current(0) - cd.source_current(0)).abs() < 1e-8);
            assert_eq!(cd.diagnostics().factorizations, 0);
        }
    }

    #[test]
    fn coord_descent_source_currents_match_dense() {
        let mut c = Circuit::new();
        let vin = c.new_node();
        let mid = c.new_node();
        c.vsource(vin, GROUND, 1.0).unwrap();
        c.resistor(vin, mid, 1_000.0).unwrap();
        c.resistor(mid, GROUND, 1_000.0).unwrap();
        let cd = DcSolver::with_backend(SolverBackend::CoordDescent)
            .solve(&c)
            .unwrap();
        assert!((cd.voltage(mid) - 0.5).abs() < 1e-9);
        assert!((cd.source_current(0) + 0.5e-3).abs() < 1e-8);
    }

    #[test]
    fn coord_descent_handles_minus_clamped_sources() {
        // A vsource wired ground-to-node clamps the node at −V.
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(GROUND, n, 1.0).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let cd = DcSolver::with_backend(SolverBackend::CoordDescent)
            .solve(&c)
            .unwrap();
        let dense = DcSolver::new().solve(&c).unwrap();
        assert!((cd.voltage(n) + 1.0).abs() < 1e-9);
        assert!((cd.source_current(0) - dense.source_current(0)).abs() < 1e-8);
    }

    #[test]
    fn coord_descent_rejects_floating_vsource() {
        let mut c = Circuit::new();
        let a = c.new_node();
        let b = c.new_node();
        c.vsource(a, b, 0.5).unwrap();
        c.resistor(a, GROUND, 1_000.0).unwrap();
        c.resistor(b, GROUND, 1_000.0).unwrap();
        let err = DcSolver::with_backend(SolverBackend::CoordDescent).solve(&c);
        assert!(
            matches!(err, Err(SpiceError::UnsupportedTopology { backend, .. }) if backend == "coord-descent"),
            "{err:?}"
        );
        // The LU backends handle the same circuit fine.
        DcSolver::new().solve(&c).unwrap();
        DcSolver::with_backend(SolverBackend::SparseLu)
            .solve(&c)
            .unwrap();
    }

    #[test]
    fn sparse_backend_reuses_symbolic_analysis_across_sweep() {
        // A warm-started sweep through one cache must refactor numerically
        // without redoing the Markowitz analysis (counted via diagnostics:
        // factorizations happen, yet solves still converge identically).
        let model = EgtModel::printed(400e-6, 40e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        let vin_id = c.vsource(input, GROUND, 0.0).unwrap();
        c.resistor(supply, out, 100_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();

        let dense = DcSolver::new();
        let sparse = DcSolver::with_backend(SolverBackend::SparseLu);
        let mut cache = NewtonCache::new();
        let mut guess: Option<Vec<f64>> = None;
        for i in 0..=10 {
            let vin = i as f64 / 10.0;
            c.set_vsource(vin_id, vin).unwrap();
            let s = sparse
                .solve_with_cache(&c, guess.as_deref(), &mut cache)
                .unwrap();
            let d = dense.solve(&c).unwrap();
            assert!(
                (s.voltage(out) - d.voltage(out)).abs() < 1e-8,
                "vin {vin}: sparse {} vs dense {}",
                s.voltage(out),
                d.voltage(out)
            );
            guess = Some(s.voltages()[1..].to_vec());
        }
        assert!(cache.is_warm());
    }

    #[test]
    fn backend_solves_are_deterministic() {
        for backend in SolverBackend::all() {
            let (c, _) = egt_inverter_circuit(0.45);
            let solver = DcSolver::with_backend(backend);
            let a = solver.solve(&c).unwrap();
            let b = solver.solve(&c).unwrap();
            assert_eq!(a, b, "{backend:?} must be run-to-run deterministic");
        }
    }

    #[test]
    fn rung_ordering_matches_escalation_cost() {
        assert!(RecoveryRung::Plain < RecoveryRung::PerturbedGuess);
        assert!(RecoveryRung::PerturbedGuess < RecoveryRung::GminStepping);
        assert!(RecoveryRung::GminStepping < RecoveryRung::SourceStepping);
    }
}
