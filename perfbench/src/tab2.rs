//! The `tab2` phase: Tab. II rows (4 arms × ε ∈ {5 %, 10 %}) for the
//! workload's datasets at the scaled budget with one training seed, on the
//! committed surrogate.
//!
//! Untraced, whole slices run through `run_dataset_row`. The traced run
//! replays each row through `train_best_of_seeds` and `mc_evaluate`, then
//! replays single training steps (`Pnn::forward`, `Pnn::loss`,
//! `Graph::backward_into`, `Adam::step_dense`, and the surrogate η graph
//! that forward builds) with a span around each call.

use crate::report::{object, Outcome};
use crate::{stats, trace, Ctx};
use pnc_autodiff::{Adam, GradStore, Graph, Optimizer, Parameter};
use pnc_bench::experiment::{run_dataset_row, Arm, Budget, DatasetRow};
use pnc_core::{
    mc_evaluate, train_best_of_seeds, LabeledData, LossKind, McStats, NoiseSample, Pnn, PnnConfig,
    PnnError, TrainConfig, VariationModel,
};
use pnc_datasets::Dataset;
use pnc_linalg::Matrix;
use pnc_surrogate::SurrogateModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::HashMap;
use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The committed surrogate the slice trains against.
const SURROGATE: &str = "artifacts/surrogate-default.json";
/// Training steps replayed per dataset in the traced run.
const REPLAY_STEPS: usize = 20;
/// Variation level of the replayed steps (the learnable VA arm at 10 %).
const REPLAY_EPSILON: f64 = 0.10;
/// Index of the learnable, variation-aware cells (@5 %, @10 %) in a row.
const FULL_ARM_CELLS: [usize; 2] = [6, 7];

type Res<T> = Result<T, Box<dyn Error>>;

/// One budget per split: the split and Monte-Carlo seeds of split `i`
/// derive from the workload seed and `i`.
fn budgets(seed: u64, splits: usize) -> Vec<Budget> {
    (0..splits as u64)
        .map(|i| {
            let split_seed = stats::splitmix64(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9)));
            Budget {
                seeds: vec![1],
                split_seed,
                mc_seed: stats::splitmix64(split_seed ^ 0x7ab2_e5c0),
                ..Budget::scaled()
            }
        })
        .collect()
}

/// What the phase trains with: the committed surrogate and the datasets.
pub type Ready = (Arc<SurrogateModel>, Vec<Dataset>);

/// The phase's set-up: loads the surrogate and makes the datasets.
pub fn setup(datasets: fn() -> Vec<Dataset>) -> Res<Ready> {
    let surrogate = Arc::new(SurrogateModel::load(Path::new(SURROGATE))?);
    Ok((surrogate, datasets()))
}

/// Runs the phase on its datasets, each at `splits` train/validation/test
/// splits; returns the outcome and the phase parameters. A slice is every
/// dataset's row at every split.
pub fn run(
    ctx: &Ctx,
    (surrogate, datasets): Ready,
    splits: usize,
) -> Res<(Outcome, Vec<(String, Value)>)> {
    let budgets = budgets(ctx.seed, splits);
    let params = vec![
        (
            "datasets".to_string(),
            Value::Array(
                datasets
                    .iter()
                    .map(|d| Value::Str(d.name.clone()))
                    .collect(),
            ),
        ),
        (
            "budgets".to_string(),
            Value::Array(budgets.iter().map(serde::Serialize::to_value).collect()),
        ),
        ("surrogate".to_string(), Value::Str(SURROGATE.into())),
        ("threads".to_string(), Value::U64(1)),
    ];
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, &mut out, &datasets, &surrogate, &budgets)?;
        return Ok((out, params));
    }

    let measure_start = Instant::now();
    let mut slices: Vec<(f64, u64, Vec<DatasetRow>)> = Vec::new();
    loop {
        let epochs_before = epochs();
        let t = Instant::now();
        let mut rows = Vec::new();
        for budget in &budgets {
            for dataset in &datasets {
                out.attempted += 8;
                match run_dataset_row(dataset, surrogate.clone(), budget) {
                    Ok(row) => rows.push(row),
                    Err(e) => {
                        eprintln!("tab2: {} failed: {e}", dataset.name);
                        out.failed += 8;
                    }
                }
            }
        }
        let wall = t.elapsed().as_secs_f64();
        slices.push((wall, epochs() - epochs_before, rows));
        // Another slice only when it fits in the measuring time.
        if measure_start.elapsed().as_secs_f64() + wall > ctx.seconds {
            break;
        }
    }

    let stats_of = |rows: &[DatasetRow]| -> Vec<McStats> {
        rows.iter()
            .flat_map(|r| r.cells.iter().map(|c| c.stats.clone()))
            .collect()
    };
    check_accuracies(&mut out, &stats_of(&slices[0].2));
    out.check(
        "slices_identical",
        slices.iter().all(|s| s.2 == slices[0].2),
        format!("{} slices produce the same rows", slices.len()),
    );
    let walls: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let epochs_per_s: Vec<f64> = slices.iter().map(|s| s.1 as f64 / s.0).collect();
    out.metric("tab2.wall_s", stats::median(&walls), "s");
    out.metric("tab2.epochs_per_s", stats::median(&epochs_per_s), "1/s");
    out.metric("tab2.full_acc_mean", full_acc_mean(&slices[0].2), "ratio");
    out.detail("slices", Value::U64(slices.len() as u64));
    out.detail("epochs_per_slice", Value::U64(slices[0].1));
    out.detail(
        "rows",
        Value::Array(
            slices[0]
                .2
                .iter()
                .map(|r| {
                    object(vec![
                        ("dataset", Value::Str(r.dataset.clone())),
                        (
                            "mean_accuracy",
                            Value::Array(
                                r.cells.iter().map(|c| Value::F64(c.stats.mean)).collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    );
    Ok((out, params))
}

fn epochs() -> u64 {
    pnc_obs::snapshot()
        .counter("core.train.epochs")
        .unwrap_or(0)
}

/// Mean accuracy of the learnable, variation-aware arm over the slice's
/// rows and both ε.
fn full_acc_mean(rows: &[DatasetRow]) -> f64 {
    let accs: Vec<f64> = rows
        .iter()
        .flat_map(|r| FULL_ARM_CELLS.iter().map(|&i| r.cells[i].stats.mean))
        .collect();
    accs.iter().sum::<f64>() / accs.len().max(1) as f64
}

fn check_accuracies(out: &mut Outcome, cells: &[McStats]) {
    let valid = |a: f64| a.is_finite() && (0.0..=1.0).contains(&a);
    let bad = cells
        .iter()
        .filter(|s| !valid(s.mean) || !s.accuracies.iter().all(|&a| valid(a)))
        .count();
    out.check(
        "accuracy_in_unit_interval",
        bad == 0 && !cells.is_empty(),
        format!(
            "{bad} of {} cells with an accuracy outside [0, 1] or non-finite",
            cells.len()
        ),
    );
}

/// One Tab. II row through the public calls `run_dataset_row` makes, in
/// its cell order, with spans around training and evaluation.
fn replay_row(
    dataset: &Dataset,
    surrogate: &Arc<SurrogateModel>,
    budget: &Budget,
    req: u64,
) -> Result<Vec<McStats>, PnnError> {
    trace::span("tab2.row", req, || {
        let mut cells = Vec::with_capacity(8);
        for learnable in [false, true] {
            let nominal = Arm {
                learnable,
                variation_aware: false,
            };
            for eps in [0.05, 0.10] {
                cells.push(replay_cell(
                    dataset, nominal, 0.0, eps, surrogate, budget, req,
                )?);
            }
            let aware = Arm {
                learnable,
                variation_aware: true,
            };
            for eps in [0.05, 0.10] {
                cells.push(replay_cell(
                    dataset, aware, eps, eps, surrogate, budget, req,
                )?);
            }
        }
        Ok(cells)
    })
}

/// Mirrors `run_cell`: split, train the best of the budget's seeds,
/// evaluate under Monte-Carlo variation.
fn replay_cell(
    dataset: &Dataset,
    arm: Arm,
    train_epsilon: f64,
    test_epsilon: f64,
    surrogate: &Arc<SurrogateModel>,
    budget: &Budget,
    req: u64,
) -> Result<McStats, PnnError> {
    let (train, val, test) = dataset.split(budget.split_seed);
    let train_d = LabeledData::new(&train.features, &train.labels)?;
    let val_d = LabeledData::new(&val.features, &val.labels)?;
    let test_d = LabeledData::new(&test.features, &test.labels)?;
    let mut config = PnnConfig::for_dataset(dataset.num_features(), dataset.num_classes);
    if !arm.learnable {
        config = config.with_fixed_nonlinearity();
    }
    let train_config = TrainConfig {
        lr_omega: if arm.learnable { 0.005 } else { 0.0 },
        variation: if arm.variation_aware {
            VariationModel::Uniform {
                epsilon: train_epsilon,
            }
        } else {
            VariationModel::None
        },
        vary_nonlinear: arm.learnable,
        n_train_mc: budget.n_train_mc,
        n_val_mc: budget.n_val_mc,
        max_epochs: budget.max_epochs,
        patience: budget.patience,
        ..TrainConfig::default()
    };
    let (pnn, _) = trace::span("core.train", req, || {
        train_best_of_seeds(
            &config,
            surrogate.clone(),
            &train_config,
            train_d,
            val_d,
            &budget.seeds,
        )
    })?;
    trace::span("core.eval", req, || {
        mc_evaluate(
            &pnn,
            test_d,
            &VariationModel::Uniform {
                epsilon: test_epsilon,
            },
            budget.n_test,
            budget.mc_seed,
        )
    })
}

/// Replays `REPLAY_STEPS` variation-aware training steps on one dataset.
/// `surrogate.eta` rebuilds, on a graph of its own, the η nodes that
/// `Pnn::forward` builds for every circuit, so its time is a part of
/// `core.forward`'s measured beside it.
fn replay_steps(
    dataset: &Dataset,
    surrogate: &Arc<SurrogateModel>,
    budget: &Budget,
    req: u64,
) -> Res<()> {
    let (train, _, _) = dataset.split(budget.split_seed);
    let config = PnnConfig::for_dataset(dataset.num_features(), dataset.num_classes)
        .with_seed(budget.seeds[0]);
    let mut pnn = Pnn::new(config, surrogate.clone())?;
    let variation = VariationModel::Uniform {
        epsilon: REPLAY_EPSILON,
    };
    let defaults = TrainConfig::default();
    let mut rng = StdRng::seed_from_u64(budget.seeds[0]);
    let (mut g, mut eta_g, mut store) = (Graph::new(), Graph::new(), GradStore::new());
    let mut adam = Adam::new(defaults.lr_theta);
    let shapes = pnn.theta_shapes();
    for _ in 0..REPLAY_STEPS {
        trace::span("tab2.step", req, || -> Res<()> {
            let noise = NoiseSample::draw(&variation, &mut rng, &shapes, pnn.num_circuits());
            g.reset();
            let (scores, vars) = trace::span("core.forward", req, || {
                pnn.forward(&mut g, &train.features, Some(&noise))
            })?;
            trace::span("surrogate.eta", req, || -> Res<()> {
                eta_g.reset();
                for (act, inv) in pnn.circuits() {
                    for circuit in [act, inv] {
                        let omega = eta_g.leaf(Matrix::row_vector(&circuit.printable_omega()));
                        surrogate.predict_eta_graph(&mut eta_g, omega)?;
                    }
                }
                Ok(())
            })?;
            let loss = trace::span("core.loss", req, || {
                pnn.loss(&mut g, scores, &train.labels, LossKind::default())
            })?;
            trace::span("autodiff.backward", req, || {
                g.backward_into(loss, &mut store)
            })?;
            let grads: Vec<Matrix> = vars
                .thetas
                .iter()
                .zip(&shapes)
                .map(|(v, &(r, c))| {
                    store
                        .get(*v)
                        .cloned()
                        .unwrap_or_else(|| Matrix::zeros(r, c))
                })
                .collect();
            trace::span("autodiff.adam", req, || {
                let mut params: Vec<&mut Parameter> =
                    pnn.layers_mut().iter_mut().map(|l| &mut l.theta).collect();
                let refs: Vec<&Matrix> = grads.iter().collect();
                adam.step_dense(&mut params, &refs);
            });
            Ok(())
        })?;
    }
    Ok(())
}

/// Span names reported as per-layer totals, with their metric names.
const LAYERS: [(&str, &str); 7] = [
    ("core.train", "core.train_s"),
    ("core.eval", "core.eval_s"),
    ("core.forward", "core.forward_s"),
    ("surrogate.eta", "surrogate.eta_s"),
    ("core.loss", "core.loss_s"),
    ("autodiff.backward", "autodiff.backward_s"),
    ("autodiff.adam", "autodiff.adam_s"),
];

const COUNTERS: [&str; 3] = [
    "core.train.epochs",
    "core.train.mc_draws",
    "core.train.early_stops",
];

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    datasets: &[Dataset],
    surrogate: &Arc<SurrogateModel>,
    budgets: &[Budget],
) -> Res<()> {
    let budget = &budgets[0];
    // Tracing overhead on the first row: the untraced library call before
    // and after the traced replay of the same work, which must agree with
    // it bit for bit.
    let untraced_row = || -> Res<(DatasetRow, f64)> {
        let t = Instant::now();
        let row = run_dataset_row(&datasets[0], surrogate.clone(), budget)?;
        Ok((row, t.elapsed().as_secs_f64()))
    };
    let (reference, untraced_before) = untraced_row()?;

    let before = pnc_obs::snapshot();
    trace::set_enabled(true);
    let mut walls = Vec::new();
    let mut cells = Vec::new();
    let rows = budgets
        .iter()
        .flat_map(|b| datasets.iter().map(move |d| (b, d)));
    for (i, (row_budget, dataset)) in rows.enumerate() {
        let t = Instant::now();
        out.attempted += 8;
        match replay_row(dataset, surrogate, row_budget, i as u64) {
            Ok(row) => cells.push(row),
            Err(e) => {
                eprintln!("tab2: {} failed: {e}", dataset.name);
                out.failed += 8;
            }
        }
        walls.push((i as u64, t.elapsed().as_nanos() as u64));
    }
    let after = pnc_obs::snapshot();
    trace::set_enabled(false);
    let (_, untraced_after) = untraced_row()?;
    trace::set_enabled(true);
    for (i, dataset) in datasets.iter().enumerate() {
        let t = Instant::now();
        let req = (budgets.len() * datasets.len() + i) as u64;
        replay_steps(dataset, surrogate, budget, req)?;
        walls.push((req, t.elapsed().as_nanos() as u64));
    }
    trace::set_enabled(false);

    let reference_stats: Vec<McStats> = reference.cells.iter().map(|c| c.stats.clone()).collect();
    out.check(
        "replay_matches_row",
        cells.first() == Some(&reference_stats),
        format!(
            "traced replay of {} reproduces run_dataset_row",
            datasets[0].name
        ),
    );
    check_accuracies(out, &cells.concat());

    let spans = trace::take();
    let selfs = trace::self_times(&spans);
    let totals = trace::totals_by_name(&spans, &selfs, |_| true);
    for (span, metric) in LAYERS {
        let secs = totals.get(span).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
        out.metric(metric, secs, "s");
    }
    for name in COUNTERS {
        let delta = after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        out.metric(name, delta as f64, "count");
    }
    let traced_first = walls[0].1 as f64 * 1e-9;
    let untraced = (untraced_before + untraced_after) / 2.0;
    out.metric("trace.overhead_ratio", traced_first / untraced, "ratio");
    let roots: HashMap<u64, u32> = spans
        .iter()
        .filter(|s| s.name == "tab2.row")
        .map(|s| (s.req, s.id))
        .collect();
    let ratios: Vec<f64> = walls
        .iter()
        .filter_map(|&(req, wall)| {
            roots
                .get(&req)
                .map(|&root| trace::self_sum_ratio(&spans, &selfs, root, wall))
        })
        .collect();
    out.metric("trace.self_sum_ratio", stats::median(&ratios), "ratio");
    crate::check_self_sum(out, &ratios);
    out.metric(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.detail("replay_steps_per_dataset", Value::U64(REPLAY_STEPS as u64));
    trace::write_jsonl(
        &ctx.work.join(format!("trace-tab2-seed{}.jsonl", ctx.seed)),
        &spans,
    )?;
    Ok(())
}
