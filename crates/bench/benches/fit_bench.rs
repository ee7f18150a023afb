//! Throughput of the Levenberg–Marquardt ptanh extraction (the per-circuit
//! cost of the surrogate dataset build).

use criterion::{criterion_group, criterion_main, Criterion};
use pnc_fit::{fit_ptanh, Ptanh};
use std::hint::black_box;

fn curve(n: usize) -> Vec<(f64, f64)> {
    let truth = Ptanh {
        eta: [0.55, 0.4, 0.6, 8.0],
    };
    (0..n)
        .map(|i| {
            let x = i as f64 / (n - 1) as f64;
            (x, truth.eval(x))
        })
        .collect()
}

fn bench_fit(c: &mut Criterion) {
    let clean = curve(61);
    c.bench_function("fit/ptanh_61pts_clean", |b| {
        b.iter(|| fit_ptanh(black_box(&clean)).expect("fits"))
    });

    // A flat curve: start 0 converges in 4 iterations, as on the clean
    // curve, so neither runs a fallback start.
    let flat: Vec<(f64, f64)> = (0..61).map(|i| (i as f64 / 60.0, 0.81)).collect();
    c.bench_function("fit/ptanh_61pts_flat", |b| {
        b.iter(|| fit_ptanh(black_box(&flat)).expect("fits"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_fit
}
criterion_main!(benches);
