//! Nonlinear least-squares fitting for printed-circuit characteristic curves.
//!
//! The surrogate-modelling pipeline (Sec. III-A of the paper) extracts, for
//! every simulated nonlinear circuit, the auxiliary parameters
//! η = \[η₁, η₂, η₃, η₄\] of the modified tanh function
//!
//! ```text
//! ptanh(v) = η₁ + η₂ · tanh((v − η₃) · η₄)          (Eq. 2)
//! ```
//!
//! by minimizing the Euclidean distance to the simulated `(V_in, V_out)`
//! samples. This crate provides:
//!
//! * [`Ptanh`] — the curve model with analytic Jacobian,
//! * [`levenberg_marquardt`] — a generic damped Gauss–Newton solver over any
//!   residual model, which fills solver-owned residual and Jacobian buffers,
//! * [`fit_ptanh`] — the production entry point. LM runs from a data-driven
//!   start first; four fallback starts run only when that start does not
//!   converge, and the lowest-cost run then wins.
//!
//! # Examples
//!
//! ```
//! use pnc_fit::{fit_ptanh, Ptanh};
//!
//! # fn main() -> Result<(), pnc_fit::FitError> {
//! let truth = Ptanh { eta: [0.5, 0.4, 0.55, 6.0] };
//! let points: Vec<(f64, f64)> = (0..50)
//!     .map(|i| {
//!         let x = i as f64 / 49.0;
//!         (x, truth.eval(x))
//!     })
//!     .collect();
//! let fit = fit_ptanh(&points)?;
//! assert!(fit.rmse < 1e-4);
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Completed LM runs and ptanh fits feed the `fit.*` counters and
//! histograms of `pnc-obs` (iterations, λ escalations, fallbacks, final
//! cost, fit RMSE) — see `docs/METRICS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lm;
mod ptanh;

pub use lm::{levenberg_marquardt, LmOptions, LmResult};
pub use ptanh::{fit_ptanh, fit_ptanh_with, Ptanh, PtanhFit};

use std::fmt;

/// Error type for curve fitting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FitError {
    /// The input data were unusable (too few points, NaNs, zero variance in
    /// `x`).
    InvalidData {
        /// Human-readable description.
        detail: String,
    },
    /// The damped normal equations were singular beyond recovery.
    Singular {
        /// The underlying linear-algebra failure.
        source: pnc_linalg::LinalgError,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::InvalidData { detail } => write!(f, "invalid fit data: {detail}"),
            FitError::Singular { source } => write!(f, "singular normal equations: {source}"),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FitError::Singular { source } => Some(source),
            _ => None,
        }
    }
}
