//! The `PNC_INFER_PRECISION` environment path of [`PlanPrecision`].
//!
//! Kept in its own integration-test binary because it mutates process
//! environment — no other test shares this process, so there is no race
//! with parallel test threads reading the variable.

use pnc_core::{PlanPrecision, PnnError};

#[test]
fn from_env_honours_valid_values_and_hard_errors_on_typos() {
    const VAR: &str = "PNC_INFER_PRECISION";

    std::env::remove_var(VAR);
    assert_eq!(
        PlanPrecision::from_env().expect("unset is the f64 default"),
        PlanPrecision::F64
    );

    for (value, expected) in [
        ("f64", PlanPrecision::F64),
        (" Q16 ", PlanPrecision::QuantI16),
        ("quant", PlanPrecision::QuantI16),
    ] {
        std::env::set_var(VAR, value);
        assert_eq!(
            PlanPrecision::from_env().expect("valid spelling"),
            expected,
            "{value:?}"
        );
    }

    // The hardened path: an operator typo must be a typed error naming the
    // variable, never a silent f64 fallback.
    for bad in ["f63", "fp32", "garbage", ""] {
        std::env::set_var(VAR, bad);
        match PlanPrecision::from_env() {
            Err(PnnError::Config { detail }) => {
                assert!(
                    detail.contains(VAR) && detail.contains(bad),
                    "error must name the variable and the bad value: {detail}"
                );
            }
            other => panic!("{bad:?} must fail from_env, got {other:?}"),
        }
    }

    // The removed f32 precision points the operator to its replacement.
    std::env::set_var(VAR, "f32");
    match PlanPrecision::from_env() {
        Err(PnnError::Config { detail }) => assert!(
            detail.contains(VAR) && detail.contains("use f64"),
            "the f32 error must name the variable and point to f64: {detail}"
        ),
        other => panic!("f32 must fail from_env, got {other:?}"),
    }

    std::env::remove_var(VAR);
}
