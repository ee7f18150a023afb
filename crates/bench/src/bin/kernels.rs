//! Hot-path kernel benchmark: dense matmul throughput, variation-aware
//! epoch wall time with and without graph/buffer reuse, and modified-Newton
//! factorization reuse on the Fig. 1 transfer-curve sweeps of
//! characterization. Results
//! go to `BENCH_kernels.json` at the repo root.
//!
//! Three sections:
//!
//! 1. **matmul** — GFLOP/s of the naive reference kernel, the cache-blocked
//!    kernel ([`Matrix::matmul`]), and the row-partitioned parallel kernel,
//!    all bit-identical to each other by construction.
//! 2. **epoch** — wall time of one MC training epoch (batch 128, single
//!    thread) on the pre-PR naive path (fresh `Graph` per draw, allocating
//!    backward and gradient accumulation) vs the reuse path (one graph +
//!    gradient store recycled via `reset`/`backward_into`/`add_assign`).
//! 3. **newton** — characterization traffic: 61-point warm-started DC
//!    sweeps of the Fig. 1 cell at the first 32 Sobol' designs of Tab. I,
//!    solved without a cache (full-refactor Newton) and through a
//!    `NewtonCache` (Jacobian-reuse Newton): iterations, LU
//!    factorizations, and sweep throughput.
//!
//! ```sh
//! cargo run --release -p pnc-bench --bin kernels -- [--quick]
//! ```

use pnc_autodiff::{GradStore, Graph};
use pnc_core::{LossKind, Pnn, PnnConfig};
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;
use pnc_spice::{Solution, SpiceError};
use pnc_surrogate::{
    build_dataset, train_surrogate, DatasetConfig, DesignSpace, TrainConfig as STrain,
};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Sobol' designs swept by the newton section: a characterization-sized
/// slice of the Tab. I box.
const NEWTON_DESIGNS: usize = 32;

/// One matrix size's throughput measurement (square `n × n` operands).
#[derive(Debug, Serialize)]
struct MatmulPoint {
    /// Operand dimension (`n × n` · `n × n`).
    size: usize,
    /// Naive triple-loop reference kernel.
    reference_gflops: f64,
    /// Cache-blocked serial kernel (the `Matrix::matmul` default).
    blocked_gflops: f64,
    /// Row-partitioned deterministic parallel kernel; `null` when the
    /// machine has a single physical core (a 1-thread "parallel" number
    /// would only measure pool overhead, not parallelism).
    parallel_gflops: Option<f64>,
}

#[derive(Debug, Serialize)]
struct MatmulSection {
    /// Cache block edge the blocked kernel ran with (`PNC_MATMUL_BLOCK`).
    block: usize,
    /// Worker threads used by the parallel rows (1 = parallel columns are
    /// skipped and emitted as `null`).
    parallel_threads: usize,
    results: Vec<MatmulPoint>,
}

#[derive(Debug, Serialize)]
struct EpochSection {
    /// Training batch rows.
    batch: usize,
    /// Monte-Carlo draws per epoch.
    n_mc: usize,
    /// Epochs per timed run.
    epochs: usize,
    /// Pre-PR path: fresh graph per draw, allocating backward/accumulate.
    naive_wall_ms: f64,
    /// Reuse path: one graph + store, `reset`/`backward_into`/`add_assign`.
    reuse_wall_ms: f64,
    /// `naive_wall_ms / reuse_wall_ms`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct NewtonSection {
    /// Operating points per transfer-curve sweep.
    sweep_points: usize,
    /// Newton iterations of the full-refactor sweeps (= their factorizations).
    full_iterations: usize,
    /// Newton iterations of the Jacobian-reuse sweeps.
    reuse_iterations: usize,
    /// LU factorizations of the Jacobian-reuse sweeps.
    reuse_factorizations: usize,
    /// `reuse_iterations / reuse_factorizations` — the reuse win; > 1 means
    /// the factored Jacobian outlives single iterations.
    iterations_per_factorization: f64,
    /// Sweep throughput, full-refactor path.
    full_points_per_s: f64,
    /// Sweep throughput, Jacobian-reuse path.
    reuse_points_per_s: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    /// Physical cores on the measuring machine (unique `(physical id,
    /// core id)` pairs from `/proc/cpuinfo`; SMT siblings collapse).
    machine_threads: usize,
    /// `std::thread::available_parallelism` (logical CPUs), for context.
    machine_logical_threads: usize,
    matmul: MatmulSection,
    epoch: EpochSection,
    newton: NewtonSection,
}

fn logical_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical core count: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo`. SMT siblings share both ids, so hyperthreads collapse
/// into one core. Falls back to [`logical_threads`] where the file is
/// absent or unparsable.
fn physical_cores() -> usize {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return logical_threads();
    };
    let mut cores = std::collections::HashSet::new();
    let (mut package, mut core) = (None::<u64>, None::<u64>);
    for line in info.lines().chain(std::iter::once("")) {
        if line.trim().is_empty() {
            if let (Some(p), Some(c)) = (package, core) {
                cores.insert((p, c));
            }
            package = None;
            core = None;
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        match key.trim() {
            "physical id" => package = value.trim().parse().ok(),
            "core id" => core = value.trim().parse().ok(),
            _ => {}
        }
    }
    if cores.is_empty() {
        logical_threads()
    } else {
        cores.len()
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds, after one warmup run.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn bench_matmul(quick: bool, parallel: &ParallelConfig, run_parallel: bool) -> MatmulSection {
    let sizes: &[usize] = if quick { &[48, 96] } else { &[64, 128, 256] };
    let reps = if quick { 3 } else { 5 };
    let mut results = Vec::new();
    for &n in sizes {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 17) as f64 / 16.0 - 0.4);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 13) as f64 / 12.0 - 0.5);
        let flops = 2.0 * (n as f64).powi(3);
        let gflops = |ms: f64| flops / (ms * 1e-3) / 1e9;
        let reference_ms = time_best(reps, || {
            a.matmul_reference(&b).expect("square operands conform");
        });
        let blocked_ms = time_best(reps, || {
            a.matmul(&b).expect("square operands conform");
        });
        let parallel_gflops = run_parallel.then(|| {
            let parallel_ms = time_best(reps, || {
                a.matmul_parallel(&b, parallel)
                    .expect("square operands conform");
            });
            gflops(parallel_ms)
        });
        let point = MatmulPoint {
            size: n,
            reference_gflops: gflops(reference_ms),
            blocked_gflops: gflops(blocked_ms),
            parallel_gflops,
        };
        let parallel_col = match point.parallel_gflops {
            Some(g) => format!("{g:>6.2}"),
            None => "  skip".to_string(),
        };
        eprintln!(
            "  {n:>4}³: reference {:>6.2}  blocked {:>6.2}  parallel {parallel_col} GFLOP/s",
            point.reference_gflops, point.blocked_gflops
        );
        results.push(point);
    }
    MatmulSection {
        block: pnc_linalg::kernels::block_size(),
        parallel_threads: if run_parallel {
            parallel.effective_threads()
        } else {
            1
        },
        results,
    }
}

/// One MC epoch on the pre-PR path: a fresh graph per draw, the allocating
/// `backward`, and allocating gradient accumulation.
fn epoch_naive(pnn: &Pnn, x: &Matrix, y: &[usize], n_mc: usize) {
    let mut acc: Vec<Matrix> = Vec::new();
    for _ in 0..n_mc {
        let mut g = Graph::new();
        let (scores, vars) = pnn.forward(&mut g, x, None).expect("forward");
        let loss = pnn
            .loss(&mut g, scores, y, LossKind::default())
            .expect("loss");
        let store = g.backward_reference(loss).expect("backward");
        let grads: Vec<Matrix> = vars
            .thetas
            .iter()
            .map(|v| store.get(*v).cloned().expect("theta gradient"))
            .collect();
        if acc.is_empty() {
            acc = grads;
        } else {
            acc = acc
                .iter()
                .zip(&grads)
                .map(|(a, b)| a.add(b).expect("same shape"))
                .collect();
        }
    }
    for m in &mut acc {
        m.scale_in_place(1.0 / n_mc as f64);
    }
}

/// The same epoch on the reuse path: one graph and one gradient store
/// recycled across draws, in-place accumulation.
fn epoch_reuse(
    pnn: &Pnn,
    x: &Matrix,
    y: &[usize],
    n_mc: usize,
    g: &mut Graph,
    store: &mut GradStore,
) {
    let mut acc: Vec<Matrix> = Vec::new();
    for _ in 0..n_mc {
        g.reset();
        let (scores, vars) = pnn.forward(g, x, None).expect("forward");
        let loss = pnn.loss(g, scores, y, LossKind::default()).expect("loss");
        g.backward_into(loss, store).expect("backward");
        if acc.is_empty() {
            acc = vars
                .thetas
                .iter()
                .map(|v| store.get(*v).cloned().expect("theta gradient"))
                .collect();
        } else {
            for (a, v) in acc.iter_mut().zip(&vars.thetas) {
                a.add_assign(store.get(*v).expect("theta gradient"))
                    .expect("same shape");
            }
        }
    }
    for m in &mut acc {
        m.scale_in_place(1.0 / n_mc as f64);
    }
}

fn bench_epoch(quick: bool) -> Result<EpochSection, Box<dyn std::error::Error>> {
    eprintln!("building fixture surrogate ...");
    let data = build_dataset(&DatasetConfig {
        samples: if quick { 60 } else { 120 },
        sweep_points: if quick { 21 } else { 31 },
    })?;
    let surrogate = Arc::new(
        train_surrogate(
            &data,
            &STrain {
                layer_sizes: vec![10, 8, 4],
                max_epochs: if quick { 60 } else { 200 },
                patience: 100,
                ..STrain::default()
            },
        )?
        .0,
    );
    let batch = 128;
    let n_mc = if quick { 4 } else { 8 };
    let epochs = if quick { 2 } else { 4 };
    let reps = if quick { 2 } else { 3 };
    let x = Matrix::from_fn(batch, 6, |i, j| ((i * 5 + j * 3) % 13) as f64 / 12.0);
    let y: Vec<usize> = (0..batch).map(|i| i % 3).collect();
    let pnn = Pnn::new(PnnConfig::for_dataset(6, 3), surrogate)?;

    eprintln!("timing {epochs} epoch(s) of {n_mc} MC draws at batch {batch}, 1 thread ...");
    let naive_wall_ms = time_best(reps, || {
        for _ in 0..epochs {
            epoch_naive(&pnn, &x, &y, n_mc);
        }
    });
    let mut g = Graph::new();
    let mut store = GradStore::new();
    let reuse_wall_ms = time_best(reps, || {
        for _ in 0..epochs {
            epoch_reuse(&pnn, &x, &y, n_mc, &mut g, &mut store);
        }
    });
    let speedup = naive_wall_ms / reuse_wall_ms;
    eprintln!("  naive {naive_wall_ms:>8.1} ms   reuse {reuse_wall_ms:>8.1} ms   ({speedup:.2}x)");
    Ok(EpochSection {
        batch,
        n_mc,
        epochs,
        naive_wall_ms,
        reuse_wall_ms,
        speedup,
    })
}

/// Newton work and throughput of transfer-curve sweeps over `designs`,
/// each on a freshly built Fig. 1 cell and warm-started point to point:
/// through one `NewtonCache` per sweep (modified Newton, as
/// characterization runs them) or point by point without one (classic
/// Newton, factoring every iteration).
fn sweep_stats(
    cached: bool,
    designs: &[NonlinearCircuitParams],
    grid: &[f64],
    reps: usize,
) -> Result<(usize, usize, f64), Box<dyn std::error::Error>> {
    let sweep_all = || -> Result<Vec<Solution>, SpiceError> {
        let mut sols = Vec::with_capacity(designs.len() * grid.len());
        for p in designs {
            let mut ckt = PtanhCircuit::build(p)?;
            if cached {
                sols.extend(ckt.transfer_curve_solutions(grid)?);
                continue;
            }
            let mut c = ckt.circuit().clone();
            let mut guess: Option<Vec<f64>> = None;
            for &v in grid {
                c.set_vsource(ckt.input_source(), v)?;
                let sol = ckt.solver().solve_with_guess(&c, guess.as_deref())?;
                guess = Some(sol.voltages()[1..].to_vec());
                sols.push(sol);
            }
        }
        Ok(sols)
    };
    let wall_ms = time_best(reps, || {
        sweep_all().expect("sweeps converge");
    });
    let sols = sweep_all()?;
    let iterations = sols.iter().map(|s| s.diagnostics().iterations).sum();
    let factorizations = sols.iter().map(|s| s.diagnostics().factorizations).sum();
    Ok((
        iterations,
        factorizations,
        sols.len() as f64 / (wall_ms * 1e-3),
    ))
}

fn bench_newton(quick: bool) -> Result<NewtonSection, Box<dyn std::error::Error>> {
    let points = 61;
    let reps = if quick { 2 } else { 5 };
    let grid = linspace(0.0, VDD, points);
    let designs: Vec<NonlinearCircuitParams> = DesignSpace::paper()
        .sample(NEWTON_DESIGNS)?
        .into_iter()
        .map(NonlinearCircuitParams::from_array)
        .collect();
    eprintln!(
        "timing {NEWTON_DESIGNS} {points}-point Fig. 1 transfer-curve sweeps over Sobol' designs ..."
    );
    let (full_iterations, full_factorizations, full_points_per_s) =
        sweep_stats(false, &designs, &grid, reps)?;
    debug_assert_eq!(full_iterations, full_factorizations);
    let (reuse_iterations, reuse_factorizations, reuse_points_per_s) =
        sweep_stats(true, &designs, &grid, reps)?;
    let iterations_per_factorization =
        reuse_iterations as f64 / (reuse_factorizations.max(1)) as f64;
    eprintln!(
        "  full: {full_iterations} iters = factorizations ({full_points_per_s:.0} points/s)\n  \
         reuse: {reuse_iterations} iters / {reuse_factorizations} factorizations = \
         {iterations_per_factorization:.2} ({reuse_points_per_s:.0} points/s)"
    );
    Ok(NewtonSection {
        sweep_points: points,
        full_iterations,
        reuse_iterations,
        reuse_factorizations,
        iterations_per_factorization,
        full_points_per_s,
        reuse_points_per_s,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let machine = physical_cores();
    let run_parallel = machine > 1;
    if !run_parallel {
        eprintln!("single physical core detected: parallel matmul columns will be null");
    }

    eprintln!("matmul throughput ...");
    let matmul = bench_matmul(quick, &ParallelConfig::automatic(), run_parallel);
    let epoch = bench_epoch(quick)?;
    let newton = bench_newton(quick)?;

    let report = Report {
        machine_threads: machine,
        machine_logical_threads: logical_threads(),
        matmul,
        epoch,
        newton,
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&out, serde_json::to_string_pretty(&report)?)?;
    eprintln!("\nreport saved to {}", out.display());

    println!(
        "epoch reuse speedup: {:.2}x; Newton iterations per factorization: {:.2}",
        report.epoch.speedup, report.newton.iterations_per_factorization
    );
    Ok(())
}
