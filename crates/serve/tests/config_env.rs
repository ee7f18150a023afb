//! The `PNC_INFER_PRECISION` path of [`ServeConfig::from_env`].
//!
//! Kept in its own integration-test binary because it mutates process
//! environment — no other test shares this process.

use pnc_core::PlanPrecision;
use pnc_serve::{ServeConfig, ServeError};

#[test]
fn from_env_reads_the_precision_and_surfaces_the_f32_error() {
    const VAR: &str = "PNC_INFER_PRECISION";

    std::env::set_var(VAR, "q16");
    let config = ServeConfig::from_env().expect("q16 is a valid precision");
    assert_eq!(config.precision, PlanPrecision::QuantI16);

    std::env::set_var(VAR, "f32");
    let core_error = PlanPrecision::from_env().expect_err("f32 was removed");
    match ServeConfig::from_env() {
        Err(ServeError::Config { detail }) => {
            assert_eq!(detail, core_error.to_string(), "passed through unchanged");
            assert!(
                detail.contains(VAR) && detail.contains("use f64"),
                "{detail}"
            );
        }
        other => panic!("f32 must fail ServeConfig::from_env, got {other:?}"),
    }

    std::env::remove_var(VAR);
}
