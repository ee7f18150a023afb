//! Property-based checks of the Levenberg–Marquardt contract: a `converged`
//! result always carries a finite cost, and pathological models surface as
//! errors or `converged: false` — never as a silent convergence claim.

use pnc_fit::{levenberg_marquardt, FitError, LmOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random exponential-decay fitting problems (including noisy and
    /// badly-started ones), `converged` implies a finite cost, and the cost
    /// never exceeds the initial cost.
    #[test]
    fn converged_implies_finite_cost(
        amp in 0.1..5.0f64,
        rate in 0.1..3.0f64,
        start_amp in -2.0..6.0f64,
        start_rate in 0.01..4.0f64,
        noise in 0.0..0.2f64,
    ) {
        let data: Vec<(f64, f64)> = (0..25)
            .map(|i| {
                let x = i as f64 * 0.15;
                // Deterministic pseudo-noise, varied by the proptest inputs.
                let wiggle = ((i * 7 + 3) % 11) as f64 / 11.0 - 0.5;
                (x, amp * (-rate * x).exp() + noise * wiggle)
            })
            .collect();

        let initial = [start_amp, start_rate];
        let initial_cost: f64 = 0.5
            * data
                .iter()
                .map(|&(x, y)| (initial[0] * (-initial[1] * x).exp() - y).powi(2))
                .sum::<f64>();

        let outcome = levenberg_marquardt(&initial, data.len(), LmOptions::default(), |p, r, j| {
            for (i, &(x, y)) in data.iter().enumerate() {
                let e = (-p[1] * x).exp();
                r[i] = p[0] * e - y;
                j[(i, 0)] = e;
                j[(i, 1)] = -p[0] * x * e;
            }
        });

        match outcome {
            Ok(result) => {
                if result.converged {
                    prop_assert!(
                        result.cost.is_finite(),
                        "converged with cost {}",
                        result.cost
                    );
                }
                prop_assert!(result.cost <= initial_cost + 1e-12);
                prop_assert!(result.params.iter().all(|p| p.is_finite()));
            }
            // A degenerate start (e.g. a vanishing Jacobian) may leave the
            // damped normal equations singular at every λ — the documented
            // error, never a silent convergence claim.
            Err(FitError::InvalidData { .. }) | Err(FitError::Singular { .. }) => {}
            Err(other) => {
                prop_assert!(false, "unexpected error {other:?}");
            }
        }
    }

    /// A model that is NaN everywhere except the starting point must either
    /// error or report `converged: false` — and never a non-finite cost with
    /// `converged: true`.
    #[test]
    fn nan_wall_never_claims_convergence(start in -3.0..3.0f64) {
        let result = levenberg_marquardt(&[start], 1, LmOptions::default(), |p, r, j| {
            r[0] = if p[0] == start { 1.0 } else { f64::NAN };
            j[(0, 0)] = 1.0;
        })
        .unwrap();
        prop_assert!(!result.converged);
        prop_assert!(result.cost.is_finite());
    }

    /// Non-finite residuals at the starting point are always rejected as
    /// invalid data, whatever the non-finite value.
    #[test]
    fn nonfinite_start_is_invalid_data(which in 0usize..3) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let err = levenberg_marquardt(&[0.0], 1, LmOptions::default(), |_, r, j| {
            r[0] = bad;
            j[(0, 0)] = 1.0;
        });
        let is_invalid_data = matches!(err, Err(FitError::InvalidData { .. }));
        prop_assert!(is_invalid_data);
    }
}
