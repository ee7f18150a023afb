//! The `characterize` phase: Sobol ω → SPICE DC sweep of the Fig. 1 cell
//! → ptanh LM fit → on-disk store, then the store read back.
//!
//! Untraced, each repetition builds a fresh store with `StreamBuilder`
//! over the Sobol points `[offset, offset + WINDOW_POINTS)`; the offset is
//! chosen by the seed. `StreamBuilder` always starts at point 0, so each
//! repetition first commits the `offset` prefix untimed and then times the
//! window's chunks plus `load_all`. The traced run replays the same window
//! through the layers' public calls (`DesignSampler`, `PtanhCircuit`,
//! `fit_ptanh`, `DatasetStore`) with a span around each call.

use crate::report::{object, text, Outcome};
use crate::{stats, trace, Ctx};
use pnc_fit::fit_ptanh;
use pnc_linalg::ParallelConfig;
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;
use pnc_surrogate::{
    build_dataset_opts, BuildOptions, DatasetConfig, DatasetEntry, DatasetStore, DesignSampler,
    DesignSpace, FailureRecord, FailureStage, SamplingMode, StoreMeta, StoreRecord, StreamBuilder,
    StreamConfig,
};
use serde::Value;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::path::Path;
use std::time::Instant;

/// `V_in` points per transfer curve (the paper's characterization grid).
const SWEEP_POINTS: usize = 61;
/// Points per committed chunk.
const CHUNK_POINTS: usize = 128;
/// Points timed per repetition.
const WINDOW_POINTS: usize = 1024;
/// The seed picks the window's start among this many chunk offsets.
const OFFSET_CHOICES: u64 = 4;
/// Window points compared against the frozen batch oracle.
const ORACLE_POINTS: usize = 64;
/// Allowed η difference from the oracle, relative to `max(1, |η|)`. The
/// streamed build is bit-identical today; a faster fit may move η within
/// this tolerance and no further.
const ETA_TOLERANCE: f64 = 1e-6;
/// `char.points_per_s` is this percentile of the repetitions' rates. On a
/// shared host a repetition's rate moves by half with the neighbours'
/// load; the slow end, where the host is busy, repeats from run to run
/// and the median does not.
const RATE_PERCENTILE: f64 = 10.0;
/// Set-up warms the pipeline with a build of this many points.
const WARMUP_POINTS: usize = 32;

type Res<T> = Result<T, Box<dyn Error>>;

/// The phase's set-up: warms the pipeline with a small build.
pub fn setup(ctx: &Ctx) -> Res<()> {
    let warm = ctx.work.join("warmup.pncds");
    let mut builder = StreamBuilder::create(&warm, &stream_config(WARMUP_POINTS, 0))?;
    builder.run_to_completion()?;
    std::fs::remove_file(&warm)?;
    Ok(())
}

/// Runs the phase; returns the outcome and the phase parameters.
pub fn run(ctx: &Ctx) -> Res<(Outcome, Vec<(String, Value)>)> {
    let offset = (stats::splitmix64(ctx.seed) % OFFSET_CHOICES) as usize * CHUNK_POINTS;
    let params = vec![
        ("sobol_offset".to_string(), Value::U64(offset as u64)),
        (
            "window_points".to_string(),
            Value::U64(WINDOW_POINTS as u64),
        ),
        ("chunk_points".to_string(), Value::U64(CHUNK_POINTS as u64)),
        ("sweep_points".to_string(), Value::U64(SWEEP_POINTS as u64)),
        ("threads".to_string(), Value::U64(1)),
    ];
    let store_path = ctx.work.join("characterize.pncds");

    let mut out = Outcome::default();
    let measure_start = Instant::now();
    let (mut reps, mut reference) = (Vec::new(), Vec::new());
    loop {
        // Only the first window is kept; later ones are checked by digest.
        let (rep, window) = stream_rep(&store_path, offset)?;
        if reps.is_empty() {
            reference = window;
        }
        reps.push(rep);
        // The traced run needs one reference build; the untraced run
        // repeats for the whole measuring time.
        if ctx.trace || (reps.len() >= 2 && measure_start.elapsed().as_secs_f64() >= ctx.seconds) {
            break;
        }
    }
    check_outputs(&mut out, &reps, &reference, offset)?;
    out.attempted = (reps.len() * WINDOW_POINTS) as u64;
    out.failed = reps.iter().map(|r| r.failures as u64).sum();

    if ctx.trace {
        traced(ctx, &mut out, offset, &reference, measure_start)?;
    } else {
        let points_per_s: Vec<f64> = reps
            .iter()
            .map(|r| WINDOW_POINTS as f64 / r.seconds)
            .collect();
        let rmse = stats::sorted(&reference.iter().map(|e| e.fit_rmse).collect::<Vec<_>>());
        let p99 = stats::percentile(&rmse, 99.0).ok_or("the window has no entries")?;
        let floor = stats::percentile(&stats::sorted(&points_per_s), RATE_PERCENTILE)
            .ok_or("no repetition ran")?;
        out.metric("char.points_per_s", floor.value, "1/s");
        out.metric("char.fit_rmse_p99", p99.value, "V");
        out.detail(
            "char.fit_rmse_p99",
            object(vec![
                ("samples", Value::U64(p99.samples as u64)),
                ("beyond", Value::U64(p99.beyond as u64)),
            ]),
        );
        out.detail(
            "points_per_s_by_rep",
            Value::Array(points_per_s.into_iter().map(Value::F64).collect()),
        );
    }
    out.detail("repetitions", Value::U64(reps.len() as u64));
    std::fs::remove_file(&store_path).ok();
    Ok((out, params))
}

fn stream_config(total: usize, chunk: usize) -> StreamConfig {
    StreamConfig {
        chunk_points: if chunk == 0 { total } else { chunk },
        parallel: ParallelConfig::serial(),
        ..StreamConfig::new(total, SWEEP_POINTS)
    }
}

/// One timed repetition over the window.
struct Rep {
    seconds: f64,
    failures: usize,
    /// Window entries with a non-finite η or rmse.
    non_finite: usize,
    digest: u64,
}

/// Builds the store once and returns the repetition with its window.
fn stream_rep(path: &Path, offset: usize) -> Res<(Rep, Vec<DatasetEntry>)> {
    let config = stream_config(offset + WINDOW_POINTS, CHUNK_POINTS);
    let mut builder = StreamBuilder::create(path, &config)?;
    let mut prefix_entries = 0;
    for _ in 0..offset / CHUNK_POINTS {
        if let Some(chunk) = builder.next_chunk()? {
            prefix_entries += chunk.entries;
        }
    }
    let t = Instant::now();
    let mut failures = 0;
    while let Some(chunk) = builder.next_chunk()? {
        failures += chunk.failures;
    }
    let (mut entries, _) = builder.store().load_all()?;
    let seconds = t.elapsed().as_secs_f64();
    let window = entries.split_off(prefix_entries);
    let non_finite = window
        .iter()
        .filter(|e| !e.eta.iter().all(|v| v.is_finite()) || !e.fit_rmse.is_finite())
        .count();
    let rep = Rep {
        seconds,
        failures,
        non_finite,
        digest: digest(&window),
    };
    Ok((rep, window))
}

fn entry_bits(e: &DatasetEntry) -> impl Iterator<Item = f64> + '_ {
    e.omega
        .iter()
        .chain(e.eta.iter())
        .copied()
        .chain(std::iter::once(e.fit_rmse))
}

fn digest(entries: &[DatasetEntry]) -> u64 {
    stats::fnv1a_f64(entries.iter().flat_map(entry_bits))
}

fn check_outputs(
    out: &mut Outcome,
    reps: &[Rep],
    reference: &[DatasetEntry],
    offset: usize,
) -> Res<()> {
    let non_finite: usize = reps.iter().map(|r| r.non_finite).sum();
    out.check(
        "eta_finite",
        non_finite == 0,
        format!("{non_finite} committed entries with a non-finite η or rmse"),
    );
    let first = reps[0].digest;
    out.check(
        "repetitions_identical",
        reps.iter().all(|r| r.digest == first),
        "every repetition commits the same bits",
    );
    out.detail("dataset_fnv1a", text(format!("{first:016x}")));

    // The frozen batch oracle over the first ORACLE_POINTS window points.
    let oracle = build_dataset_opts(
        &DatasetConfig {
            samples: offset + ORACLE_POINTS,
            sweep_points: SWEEP_POINTS,
        },
        &BuildOptions {
            parallel: ParallelConfig::serial(),
            max_failure_fraction: Some(1.0),
            ..BuildOptions::default()
        },
    )?;
    let bits = |omega: &[f64; 7]| omega.map(f64::to_bits);
    let in_window: HashSet<[u64; 7]> = DesignSpace::paper()
        .sample(offset + ORACLE_POINTS)?
        .iter()
        .skip(offset)
        .map(bits)
        .collect();
    let window: HashMap<[u64; 7], &DatasetEntry> =
        reference.iter().map(|e| (bits(&e.omega), e)).collect();
    let (mut expected, mut compared, mut worst) = (0usize, 0usize, 0.0f64);
    for want in oracle
        .entries
        .iter()
        .filter(|e| in_window.contains(&bits(&e.omega)))
    {
        expected += 1;
        if let Some(got) = window.get(&bits(&want.omega)) {
            compared += 1;
            for (g, w) in got.eta.iter().zip(&want.eta) {
                worst = worst.max((g - w).abs() / w.abs().max(1.0));
            }
        }
    }
    out.check(
        "oracle_subset",
        compared == expected && compared > 0 && worst <= ETA_TOLERANCE,
        format!(
            "{compared} of {expected} window points matched the batch oracle; \
             worst relative η difference {worst:e} (tolerance {ETA_TOLERANCE:e})"
        ),
    );
    Ok(())
}

/// Layer spans recorded by the traced replay, in report order.
const LAYERS: [(&str, &str); 6] = [
    ("fit.ptanh", "fit.ptanh_s"),
    ("spice.sweep", "spice.sweep_s"),
    ("spice.build", "spice.build_s"),
    ("qmc.sample", "qmc.sample_s"),
    ("surrogate.store_write", "surrogate.store_write_s"),
    ("surrogate.store_read", "surrogate.store_read_s"),
];

/// Program counters read around one traced pass.
const COUNTERS: [&str; 6] = [
    "fit.lm.runs",
    "fit.lm.iterations",
    "fit.ptanh.fits",
    "spice.newton.iterations",
    "spice.newton.factorizations",
    "spice.solve.failures",
];

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    offset: usize,
    reference: &[DatasetEntry],
    measure_start: Instant,
) -> Res<()> {
    let path = ctx.work.join("replay.pncds");
    let (mut walls_off, mut walls_on) = (Vec::new(), Vec::new());
    let mut counters = HashMap::new();
    let mut mismatched = 0usize;
    let mut pass = 0u64;
    while walls_on.is_empty() || measure_start.elapsed().as_secs_f64() < ctx.seconds {
        for on in [false, true] {
            trace::set_enabled(on);
            let before = pnc_obs::snapshot();
            let t = Instant::now();
            let (entries, failures) = replay(&path, offset, pass)?;
            let wall = t.elapsed().as_nanos() as u64;
            trace::set_enabled(false);
            if on && counters.is_empty() {
                let after = pnc_obs::snapshot();
                for name in COUNTERS {
                    let delta =
                        after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
                    counters.insert(name, delta);
                }
            }
            mismatched += usize::from(digest(&entries) != digest(reference));
            out.attempted += WINDOW_POINTS as u64;
            out.failed += failures as u64;
            if on {
                walls_on.push((pass, wall));
            } else {
                walls_off.push(wall as f64);
            }
            pass += 1;
        }
    }
    std::fs::remove_file(&path).ok();
    out.check(
        "replay_matches_stream",
        mismatched == 0,
        format!("{mismatched} replay passes differ from the StreamBuilder window"),
    );

    let spans = trace::take();
    let selfs = trace::self_times(&spans);
    let mut per_layer: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut shares, mut ratios) = (Vec::new(), Vec::new());
    for &(req, wall) in &walls_on {
        let totals = trace::totals_by_name(&spans, &selfs, |s| s.req == req);
        let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
        for (span, _) in LAYERS {
            per_layer.entry(span).or_default().push(secs(span));
        }
        let point = totals
            .get("char.point")
            .map_or(0.0, |t| t.total_ns as f64 * 1e-9);
        shares.push((secs("fit.ptanh") + secs("spice.sweep")) / point);
        let root = spans
            .iter()
            .find(|s| s.req == req && s.name == "char.replay")
            .ok_or("traced pass recorded no root span")?;
        ratios.push(trace::self_sum_ratio(&spans, &selfs, root.id, wall));
    }
    let on: Vec<f64> = walls_on.iter().map(|&(_, w)| w as f64).collect();
    let overhead = stats::median(&on) / stats::median(&walls_off);
    let self_sum = stats::median(&ratios);
    crate::check_self_sum(out, &ratios);

    for (span, metric) in LAYERS {
        out.metric(metric, stats::median(&per_layer[span]), "s");
    }
    let runs = counters["fit.lm.runs"] as f64;
    out.metric("fit.lm.runs", runs, "count");
    out.metric(
        "fit.lm.iterations",
        counters["fit.lm.iterations"] as f64,
        "count",
    );
    out.metric(
        "fit.lm.useful_ratio",
        counters["fit.ptanh.fits"] as f64 / runs.max(1.0),
        "ratio",
    );
    for name in [
        "spice.newton.iterations",
        "spice.newton.factorizations",
        "spice.solve.failures",
    ] {
        out.metric(name, counters[name] as f64, "count");
    }
    out.metric("char.fit_sweep_share", stats::median(&shares), "ratio");
    out.metric("trace.overhead_ratio", overhead, "ratio");
    out.metric("trace.self_sum_ratio", self_sum, "ratio");
    out.metric(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.detail("traced_passes", Value::U64(walls_on.len() as u64));
    trace::write_jsonl(
        &ctx.work
            .join(format!("trace-characterize-seed{}.jsonl", ctx.seed)),
        &spans,
    )?;
    Ok(())
}

/// One pass over the window through the layers' public calls, mirroring
/// what `StreamBuilder` does per chunk. `req` tags the pass's spans.
fn replay(path: &Path, offset: usize, req: u64) -> Res<(Vec<DatasetEntry>, usize)> {
    trace::span("char.replay", req, || -> Res<(Vec<DatasetEntry>, usize)> {
        let space = DesignSpace::paper();
        let meta = StoreMeta {
            total_points: WINDOW_POINTS as u64,
            chunk_points: CHUNK_POINTS as u64,
            sweep_points: SWEEP_POINTS as u32,
            sampling: SamplingMode::Uniform,
            seed: 0,
            max_failure_fraction: 0.05,
            space: space.clone(),
        };
        let mut store = trace::span("surrogate.store_write", req, || {
            DatasetStore::create(path, &meta)
        })?;
        let mut sampler = trace::span("qmc.sample", req, || -> Res<DesignSampler> {
            let mut sampler = DesignSampler::new(&space)?;
            sampler.skip(offset)?;
            Ok(sampler)
        })?;
        let grid = linspace(0.0, VDD, SWEEP_POINTS);
        let mut index = offset;
        for _ in 0..WINDOW_POINTS / CHUNK_POINTS {
            let omegas = trace::span("qmc.sample", req, || sampler.next_batch(CHUNK_POINTS))?;
            let mut records = Vec::with_capacity(CHUNK_POINTS);
            for omega in &omegas {
                records.push(trace::span("char.point", req, || {
                    point(index, omega, &grid, req)
                }));
                index += 1;
            }
            trace::span("surrogate.store_write", req, || {
                store.append_chunk(&records)
            })?;
        }
        let (entries, failures) = trace::span("surrogate.store_read", req, || store.load_all())?;
        Ok((entries, failures.len()))
    })
}

/// Build, sweep and fit one design point.
fn point(index: usize, omega: &[f64; 7], grid: &[f64], req: u64) -> StoreRecord {
    let fail = |stage: FailureStage, cause: String| {
        StoreRecord::Failure(FailureRecord {
            index,
            omega: *omega,
            stage,
            cause,
        })
    };
    let params = NonlinearCircuitParams::from_array(*omega);
    let mut circuit = match trace::span("spice.build", req, || PtanhCircuit::build(&params)) {
        Ok(c) => c,
        Err(e) => return fail(FailureStage::Build, e.to_string()),
    };
    let curve = match trace::span("spice.sweep", req, || circuit.transfer_curve(grid)) {
        Ok(c) => c,
        Err(e) => return fail(FailureStage::Sweep, e.to_string()),
    };
    match trace::span("fit.ptanh", req, || fit_ptanh(&curve)) {
        Ok(fit) => StoreRecord::Entry {
            index: index as u64,
            entry: DatasetEntry {
                omega: *omega,
                eta: fit.curve.eta,
                fit_rmse: fit.rmse,
            },
        },
        Err(e) => fail(FailureStage::Fit, e.to_string()),
    }
}
