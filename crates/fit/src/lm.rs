use crate::FitError;
use pnc_linalg::{Lu, Matrix};
use pnc_obs::{Counter, Histogram};

// Observability: one record per completed LM run, accumulated locally and
// flushed with a handful of atomic adds at the end so the inner damping loop
// stays untouched. Catalogued in docs/METRICS.md.
static OBS_RUNS: Counter = Counter::new("fit.lm.runs");
static OBS_ITERATIONS: Counter = Counter::new("fit.lm.iterations");
static OBS_LAMBDA_ESCALATIONS: Counter = Counter::new("fit.lm.lambda_escalations");
static OBS_NONCONVERGED: Counter = Counter::new("fit.lm.nonconverged");
static OBS_FINAL_COST: Histogram = Histogram::new("fit.lm.final_cost");

pub(crate) fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_RUNS.register();
        OBS_ITERATIONS.register();
        OBS_LAMBDA_ESCALATIONS.register();
        OBS_NONCONVERGED.register();
        OBS_FINAL_COST.register();
    });
}

/// Options for the Levenberg–Marquardt solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmOptions {
    /// Maximum number of accepted-or-rejected iterations.
    pub max_iterations: usize,
    /// Stop when the relative cost improvement falls below this.
    pub cost_tolerance: f64,
    /// Stop when the infinity norm of the step falls below this.
    pub step_tolerance: f64,
    /// Initial damping factor λ.
    pub initial_lambda: f64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iterations: 200,
            cost_tolerance: 1e-14,
            step_tolerance: 1e-12,
            initial_lambda: 1e-3,
        }
    }
}

/// The outcome of a Levenberg–Marquardt run.
#[derive(Debug, Clone, PartialEq)]
pub struct LmResult {
    /// The best parameter vector found.
    pub params: Vec<f64>,
    /// Final cost `0.5 · ‖r‖²`.
    pub cost: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether a tolerance-based stop was reached (as opposed to running out
    /// of iterations).
    pub converged: bool,
}

/// Minimizes `0.5 · ‖r(p)‖²` by damped Gauss–Newton (Levenberg–Marquardt).
///
/// `model(p, r, j)` evaluates the model at `p`: it overwrites every entry of
/// the residual vector `r` (length `residuals`) and of the Jacobian `j`
/// (`residuals`×`p.len()`, with `j[(i, k)] = ∂r_i/∂p_k`). The buffers are
/// owned by the solver and reused across calls, so they arrive holding an
/// earlier evaluation's values; an iteration allocates nothing beyond the
/// LU factorization of the damped normal equations.
///
/// Damping uses the Marquardt diagonal scaling
/// `(JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr`, multiplying λ by 10 on a rejected step
/// and dividing by 10 on an accepted one.
///
/// # Errors
///
/// Returns [`FitError::InvalidData`] for an empty parameter vector or a
/// non-finite cost at the starting point, and [`FitError::Singular`] if the
/// damped normal equations stay singular even at very large λ (every damped
/// factorization in an inner loop failed).
///
/// When the inner damping loop exhausts its λ escalations without an
/// accepted step, the result distinguishes a genuine local optimum — the
/// smallest attempted step was below `step_tolerance`, reported as
/// `converged: true` — from giving up (a meaningful step existed but no
/// candidate improved the finite cost), reported as `converged: false`. A
/// `converged: true` result always carries a finite `cost`.
///
/// ```
/// use pnc_fit::{levenberg_marquardt, FitError, LmOptions};
///
/// // NaN residuals at the starting point are rejected up front.
/// let err = levenberg_marquardt(&[1.0], 1, LmOptions::default(), |p, r, j| {
///     r[0] = f64::NAN * p[0];
///     j[(0, 0)] = 1.0;
/// });
/// assert!(matches!(err, Err(FitError::InvalidData { .. })));
/// ```
///
/// # Examples
///
/// Fit a line through two points:
///
/// ```
/// use pnc_fit::{levenberg_marquardt, LmOptions};
///
/// # fn main() -> Result<(), pnc_fit::FitError> {
/// let data = [(0.0, 1.0), (1.0, 3.0)];
/// let result = levenberg_marquardt(
///     &[0.0, 0.0],
///     data.len(),
///     LmOptions::default(),
///     |p, r, j| {
///         for (i, &(x, y)) in data.iter().enumerate() {
///             r[i] = p[0] + p[1] * x - y;
///             j[(i, 0)] = 1.0;
///             j[(i, 1)] = x;
///         }
///     },
/// )?;
/// assert!((result.params[0] - 1.0).abs() < 1e-9);
/// assert!((result.params[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn levenberg_marquardt(
    initial: &[f64],
    residuals: usize,
    options: LmOptions,
    mut model: impl FnMut(&[f64], &mut [f64], &mut Matrix),
) -> Result<LmResult, FitError> {
    let n = initial.len();
    if n == 0 {
        return Err(FitError::InvalidData {
            detail: "empty parameter vector".into(),
        });
    }

    // The current point and the candidate each own a parameter, residual
    // and Jacobian buffer; an accepted step swaps the two sets.
    let mut params = initial.to_vec();
    let mut residual = vec![0.0; residuals];
    let mut jacobian = Matrix::zeros(residuals, n);
    let mut candidate = vec![0.0; n];
    let mut cand_res = vec![0.0; residuals];
    let mut cand_jac = Matrix::zeros(residuals, n);
    model(&params, &mut residual, &mut jacobian);
    let mut cost = 0.5 * residual.iter().map(|r| r * r).sum::<f64>();
    if !cost.is_finite() {
        return Err(FitError::InvalidData {
            detail: format!("initial cost is not finite ({cost})"),
        });
    }
    obs_register();
    let mut lambda = options.initial_lambda;
    let mut converged = false;
    let mut iterations = 0;
    let mut lambda_escalations: u64 = 0;
    // Hoisted scratch for the normal equations: the parameter count is fixed,
    // so the n×n system, the negated gradient, and the step vector are
    // allocated once and refilled every (re-damped) attempt.
    let mut jtj = Matrix::zeros(n, n);
    let mut damped = Matrix::zeros(n, n);
    let mut neg_g = vec![0.0; n];
    let mut step = vec![0.0; n];

    for iter in 0..options.max_iterations {
        iterations = iter + 1;

        // Normal equations: JᵀJ (without materializing Jᵀ) and −Jᵀr.
        if let Err(source) = jacobian.matmul_tn_into(&jacobian, &mut jtj) {
            return Err(FitError::Singular { source });
        }
        for (j, g) in neg_g.iter_mut().enumerate() {
            *g = -residual
                .iter()
                .enumerate()
                .map(|(i, r)| jacobian[(i, j)] * r)
                .sum::<f64>();
        }

        // Try steps with increasing damping until one is accepted or λ
        // explodes.
        let mut accepted = false;
        let mut last_singular = None;
        // Step norm of the least-damped solvable system: heavy damping
        // shrinks later steps toward zero regardless of the gradient, so only
        // the first attempt says whether a meaningful step existed.
        let mut first_step_norm = None;
        for _ in 0..30 {
            if let Err(source) = damped.copy_from(&jtj) {
                return Err(FitError::Singular { source });
            }
            for j in 0..n {
                // Marquardt scaling; fall back to absolute damping for zero
                // diagonal entries (parameters the residual ignores locally).
                let d = jtj[(j, j)];
                damped[(j, j)] = d + lambda * if d > 0.0 { d } else { 1.0 };
            }
            match Lu::factor(&damped).and_then(|lu| lu.solve_into(&neg_g, &mut step)) {
                Ok(()) => {}
                Err(source) => {
                    last_singular = Some(source);
                    lambda *= 10.0;
                    lambda_escalations += 1;
                    continue;
                }
            }
            let step_norm = step.iter().fold(0.0_f64, |m, s| m.max(s.abs()));
            first_step_norm.get_or_insert(step_norm);
            for ((c, p), s) in candidate.iter_mut().zip(&params).zip(&step) {
                *c = p + s;
            }
            model(&candidate, &mut cand_res, &mut cand_jac);
            let cand_cost = 0.5 * cand_res.iter().map(|r| r * r).sum::<f64>();

            if cand_cost.is_finite() && cand_cost < cost {
                let improvement = (cost - cand_cost) / cost.max(f64::MIN_POSITIVE);
                std::mem::swap(&mut params, &mut candidate);
                std::mem::swap(&mut residual, &mut cand_res);
                std::mem::swap(&mut jacobian, &mut cand_jac);
                cost = cand_cost;
                lambda = (lambda / 10.0).max(1e-12);
                accepted = true;
                if improvement < options.cost_tolerance || step_norm < options.step_tolerance {
                    converged = true;
                }
                break;
            }
            lambda *= 10.0;
            lambda_escalations += 1;
        }

        if !accepted {
            // The damping loop exhausted every λ escalation. Distinguish the
            // documented failure modes instead of claiming convergence:
            match first_step_norm {
                // Every damped factorization failed — the normal equations
                // are singular at any achievable damping.
                None => {
                    return match last_singular {
                        Some(source) => Err(FitError::Singular { source }),
                        // Unreachable by construction (no step norm means at
                        // least one solve failed), but degrade to an error
                        // rather than a panic.
                        None => Err(FitError::InvalidData {
                            detail: "damping loop made no step and recorded no solver failure"
                                .into(),
                        }),
                    };
                }
                // The least-damped proposed step already vanished: genuine
                // local optimum.
                Some(norm) if norm < options.step_tolerance => converged = true,
                // A meaningful step existed but nothing went downhill (e.g.
                // the model returns non-finite residuals nearby): give up
                // honestly rather than reporting convergence.
                Some(_) => break,
            }
        }
        if converged {
            break;
        }
    }

    OBS_RUNS.increment();
    OBS_ITERATIONS.add(iterations as u64);
    OBS_LAMBDA_ESCALATIONS.add(lambda_escalations);
    if !converged {
        OBS_NONCONVERGED.increment();
    }
    OBS_FINAL_COST.observe(cost);

    Ok(LmResult {
        params,
        cost,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential decay fit: a classic nonlinear test problem.
    #[test]
    fn fits_exponential_decay() {
        let truth = (2.5, 1.3);
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let data: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x, truth.0 * (-truth.1 * x).exp()))
            .collect();

        let result =
            levenberg_marquardt(&[1.0, 0.5], data.len(), LmOptions::default(), |p, r, j| {
                for (i, &(x, y)) in data.iter().enumerate() {
                    let e = (-p[1] * x).exp();
                    r[i] = p[0] * e - y;
                    j[(i, 0)] = e;
                    j[(i, 1)] = -p[0] * x * e;
                }
            })
            .unwrap();

        assert!(result.converged);
        assert!((result.params[0] - truth.0).abs() < 1e-6);
        assert!((result.params[1] - truth.1).abs() < 1e-6);
        assert!(result.cost < 1e-15);
    }

    #[test]
    fn rosenbrock_valley() {
        // Rosenbrock as a residual problem: r = [10(y − x²), 1 − x].
        let result = levenberg_marquardt(
            &[-1.2, 1.0],
            2,
            LmOptions {
                max_iterations: 500,
                ..LmOptions::default()
            },
            |p, r, j| {
                r.copy_from_slice(&[10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]]);
                j.as_mut_slice()
                    .copy_from_slice(&[-20.0 * p[0], 10.0, -1.0, 0.0]);
            },
        )
        .unwrap();
        assert!((result.params[0] - 1.0).abs() < 1e-6);
        assert!((result.params[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_empty_parameters() {
        let err = levenberg_marquardt(&[], 1, LmOptions::default(), |_, _, _| {});
        assert!(matches!(err, Err(FitError::InvalidData { .. })));
    }

    #[test]
    fn handles_insensitive_parameter() {
        // Second parameter does not influence the residual: JᵀJ is singular,
        // but Marquardt damping with the absolute fallback keeps it solvable.
        let result = levenberg_marquardt(&[0.0, 5.0], 1, LmOptions::default(), |p, r, j| {
            r[0] = p[0] - 3.0;
            j.as_mut_slice().copy_from_slice(&[1.0, 0.0]);
        })
        .unwrap();
        assert!((result.params[0] - 3.0).abs() < 1e-8);
        // Insensitive parameter stays where it started.
        assert!((result.params[1] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn nan_initial_cost_is_rejected() {
        // A model that is NaN at the starting point must not "converge".
        let err = levenberg_marquardt(&[0.0], 1, LmOptions::default(), |p, r, j| {
            r[0] = if p[0] == 0.0 { f64::NAN } else { p[0] - 1.0 };
            j[(0, 0)] = 1.0;
        });
        match err {
            Err(FitError::InvalidData { detail }) => {
                assert!(detail.contains("initial cost"), "{detail}")
            }
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn infinite_initial_cost_is_rejected() {
        let err = levenberg_marquardt(&[0.0], 1, LmOptions::default(), |_, r, j| {
            r[0] = f64::INFINITY;
            j[(0, 0)] = 1.0;
        });
        assert!(matches!(err, Err(FitError::InvalidData { .. })));
    }

    #[test]
    fn exhausted_damping_reports_not_converged() {
        // Finite at the start, NaN everywhere else: every candidate step is
        // rejected although the proposed steps are large. The solver must
        // give up honestly instead of claiming a tolerance-based stop.
        let result = levenberg_marquardt(&[0.0], 1, LmOptions::default(), |p, r, j| {
            r[0] = if p[0] == 0.0 { 1.0 } else { f64::NAN };
            j[(0, 0)] = 1.0;
        })
        .unwrap();
        assert!(!result.converged, "gave-up path must not claim convergence");
        assert!(result.cost.is_finite());
        assert_eq!(result.params, vec![0.0], "params stay at the best point");
        assert_eq!(result.iterations, 1, "one exhausted outer iteration");
    }

    #[test]
    fn persistently_singular_normal_equations_return_the_documented_error() {
        // A Jacobian so small that JᵀJ ≈ 1e-40 keeps the damped pivot under
        // the LU tolerance at every achievable λ: all 30 damped solves fail
        // and the documented `FitError::Singular` must surface (previously
        // this was silently reported as converged).
        let err = levenberg_marquardt(&[1.0], 1, LmOptions::default(), |p, r, j| {
            r[0] = 1e-20 * p[0] - 1.0;
            j[(0, 0)] = 1e-20;
        });
        assert!(matches!(err, Err(FitError::Singular { .. })), "{err:?}");
    }

    #[test]
    fn converged_never_pairs_with_nonfinite_cost() {
        // A model that degrades to NaN after improving for a while: whatever
        // the outcome, `converged` must imply a finite cost.
        let result = levenberg_marquardt(&[10.0], 1, LmOptions::default(), |p, r, j| {
            r[0] = if p[0].abs() < 5.0 { f64::NAN } else { p[0] };
            j[(0, 0)] = 1.0;
        })
        .unwrap();
        if result.converged {
            assert!(result.cost.is_finite());
        }
    }

    #[test]
    fn already_optimal_start_converges_immediately() {
        let result = levenberg_marquardt(&[3.0], 1, LmOptions::default(), |p, r, j| {
            r[0] = p[0] - 3.0;
            j[(0, 0)] = 1.0;
        })
        .unwrap();
        assert!(result.converged);
        assert!(result.cost < 1e-20);
        assert!(result.iterations <= 2);
    }
}
