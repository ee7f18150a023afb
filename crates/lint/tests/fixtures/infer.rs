//! Fixture: the compiled-inference observability surface, checked against
//! the REAL workspace docs (not inline fixture tables). Every name here
//! ships in `pnc-core::infer`, so the doc/code consistency rules must stay
//! completely quiet — a finding on this file means docs/METRICS.md or the
//! README env-var table lost a row the code still carries.

use pnc_obs::Counter;

/// Plans compiled over the process lifetime.
pub static PLANS_COMPILED: Counter = Counter::new("infer.plans_compiled");

/// Rows pushed through any compiled plan.
pub static SAMPLES: Counter = Counter::new("infer.samples");

/// Batched inference calls.
pub static BATCHES: Counter = Counter::new("infer.batches");

/// Precision selection, as `PlanPrecision::from_env` reads it.
pub fn precision_from_env() -> Option<String> {
    std::env::var("PNC_INFER_PRECISION").ok()
}
