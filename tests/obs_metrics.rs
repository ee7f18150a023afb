//! Integration tests for the observability layer: a miniature fig4-style
//! pipeline (SPICE characterization → ptanh extraction → dataset build) must
//! produce a metrics summary containing the keys documented in
//! `docs/METRICS.md`, with counters bit-identical across 1, 2, and 8 worker
//! threads.
//!
//! The metric registry is process-global, so the tests in this binary
//! serialize through one mutex and `reset()` before each measured run.

use printed_neuromorphic::fit::fit_ptanh;
use printed_neuromorphic::linalg::ParallelConfig;
use printed_neuromorphic::obs;
use printed_neuromorphic::spice::circuits::{characteristic_curve, NonlinearCircuitParams};
use printed_neuromorphic::surrogate::{build_dataset_opts, BuildOptions, DatasetConfig};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("unpoisoned")
}

/// The counters the fig4 metrics summary documents in `docs/METRICS.md` and
/// which any SPICE-and-fit trajectory must populate.
const DOCUMENTED_COUNTERS: &[&str] = &[
    "spice.solve.total",
    "spice.solve.failures",
    "spice.newton.iterations",
    "spice.newton.attempts",
    "spice.recovery.plain",
    "fit.lm.runs",
    "fit.lm.iterations",
    "fit.lm.lambda_escalations",
    "fit.ptanh.fits",
    "fit.ptanh.fallbacks",
    "surrogate.dataset.points",
    "surrogate.dataset.entries",
];

const DOCUMENTED_HISTOGRAMS: &[&str] = &[
    "spice.newton.residual",
    "fit.lm.final_cost",
    "fit.ptanh.rmse",
    "surrogate.dataset.fit_rmse",
    "surrogate.dataset.build_seconds",
];

/// A miniature fig4 trajectory: one characteristic curve + fit, then a tiny
/// dataset build, all at the given thread count.
fn run_pipeline(threads: usize) -> obs::MetricsSnapshot {
    obs::reset();
    let curve = characteristic_curve(&NonlinearCircuitParams::nominal(), 31).expect("simulates");
    fit_ptanh(&curve).expect("fits");
    build_dataset_opts(
        &DatasetConfig {
            samples: 16,
            sweep_points: 21,
        },
        &BuildOptions {
            parallel: ParallelConfig::with_threads(threads),
            max_failure_fraction: Some(0.5),
            ..BuildOptions::default()
        },
    )
    .expect("builds");
    obs::snapshot()
}

#[test]
fn fig4_style_summary_contains_documented_keys() {
    let _guard = test_lock();
    let snap = run_pipeline(2);
    for name in DOCUMENTED_COUNTERS {
        assert!(
            snap.counter(name).is_some(),
            "documented counter {name} missing from summary"
        );
    }
    for name in DOCUMENTED_HISTOGRAMS {
        assert!(
            snap.histogram(name).is_some(),
            "documented histogram {name} missing from summary"
        );
    }
    // Sanity on contents: work actually happened and was tallied.
    assert!(snap.counter("spice.solve.total").unwrap() > 0);
    assert!(snap.counter("fit.lm.runs").unwrap() > 0);
    assert_eq!(snap.counter("surrogate.dataset.points"), Some(16));
    assert!(snap.histogram("spice.newton.residual").unwrap().count > 0);

    // The JSON serialization carries the same keys.
    let json = snap.to_json();
    for name in DOCUMENTED_COUNTERS.iter().chain(DOCUMENTED_HISTOGRAMS) {
        assert!(json.contains(name), "{name} missing from JSON summary");
    }
    obs::reset();
}

#[test]
fn pipeline_counters_are_bit_identical_across_thread_counts() {
    let _guard = test_lock();
    let reference = run_pipeline(1);
    for threads in [2, 8] {
        let snap = run_pipeline(threads);
        assert_eq!(
            snap.counters, reference.counters,
            "counters diverged at {threads} threads"
        );
        // Numeric histograms (residuals, costs, rmse) are deterministic too;
        // only wall-clock duration histograms are exempt, so compare the
        // rest field by field.
        for (a, b) in snap.histograms.iter().zip(&reference.histograms) {
            assert_eq!(a.name, b.name);
            if a.name.ends_with("_seconds") {
                assert_eq!(a.count, b.count, "{}: count must still match", a.name);
            } else {
                assert_eq!(a, b, "{} diverged at {threads} threads", a.name);
            }
        }
    }
    obs::reset();
}

#[test]
fn write_summary_produces_parseable_json_file() {
    let _guard = test_lock();
    obs::reset();
    let curve = characteristic_curve(&NonlinearCircuitParams::nominal(), 21).expect("simulates");
    fit_ptanh(&curve).expect("fits");
    let dir = std::env::temp_dir().join("pnc-obs-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("summary.json");
    obs::write_summary(&path).expect("writes");
    let text = std::fs::read_to_string(&path).expect("readable");
    let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    drop(value);
    assert!(text.contains("spice.solve.total"));
    std::fs::remove_file(&path).ok();
    obs::reset();
}
