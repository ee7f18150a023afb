//! Parity contracts of the compiled inference plans (DESIGN.md §12),
//! exercised on the paper's network topology across the full 13-dataset
//! benchmark suite:
//!
//! * the f64 [`InferencePlan`] is **bit-identical** to the autodiff-graph
//!   forward — exact `assert_eq!`, at every batch chunking and at 1/2/8
//!   threads, on trained and freshly initialized networks alike;
//! * the Q1.14 fixed-point plan is bounded-error: aggregate
//!   classification agreement with the f64 path on held-out rows must be
//!   ≥ 99.5 %, and it is bit-identical to *itself* across thread counts;
//! * both precisions reproduce committed golden digests on a fixed,
//!   hand-written artifact.

use pnc_core::{
    ArtifactLayer, CompiledPnn, InferencePlan, InferencePlanQuant, LabeledData,
    NonlinearityGranularity, PlanPrecision, Pnn, PnnArtifact, PnnConfig, PrintedDesign,
    TrainConfig, Trainer, VariationModel, ARTIFACT_FORMAT_VERSION,
};
use pnc_datasets::{benchmark_suite, Dataset};
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_surrogate::{
    build_dataset, train_surrogate, DatasetConfig, SurrogateModel, TrainConfig as SurrogateTrain,
};
use std::sync::{Arc, OnceLock};

fn surrogate() -> Arc<SurrogateModel> {
    static CELL: OnceLock<Arc<SurrogateModel>> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = build_dataset(&DatasetConfig {
            samples: 150,
            sweep_points: 31,
        })
        .expect("builds");
        Arc::new(
            train_surrogate(
                &data,
                &SurrogateTrain {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 300,
                    patience: 100,
                    ..SurrogateTrain::default()
                },
            )
            .expect("trains")
            .0,
        )
    })
    .clone()
}

/// A network with the paper's `#input-3-#output` topology for a dataset,
/// briefly trained when `epochs > 0` (enough to move every parameter off
/// its initialization, so the plans face *trained* weights and circuits).
fn network_for(ds: &Dataset, train: &Dataset, val: &Dataset, seed: u64, epochs: usize) -> Pnn {
    let config = PnnConfig::for_dataset(ds.num_features(), ds.num_classes).with_seed(seed);
    let mut pnn = Pnn::new(config, surrogate()).expect("valid config");
    if epochs > 0 {
        Trainer::new(TrainConfig {
            variation: VariationModel::None,
            n_train_mc: 1,
            n_val_mc: 1,
            max_epochs: epochs,
            patience: epochs,
            parallel: ParallelConfig::serial(),
            ..TrainConfig::default()
        })
        .train(
            &mut pnn,
            LabeledData::new(&train.features, &train.labels).expect("train data"),
            LabeledData::new(&val.features, &val.labels).expect("val data"),
        )
        .expect("trains");
    }
    pnn
}

/// Small datasets get real training epochs; the larger ones ride along
/// untrained (same forward math, keeps the suite's runtime bounded).
fn training_epochs(ds: &Dataset) -> usize {
    if ds.len() <= 200 {
        6
    } else {
        0
    }
}

#[test]
fn f64_plan_is_bit_identical_on_all_13_datasets() {
    let mut checked = 0;
    for (i, ds) in benchmark_suite().iter().enumerate() {
        let (train, val, test) = ds.split(7);
        let pnn = network_for(ds, &train, &val, 40 + i as u64, training_epochs(ds));
        let graph_out = pnn.infer(&test.features, None).expect("graph forward");
        let mut plan = InferencePlan::compile(&pnn).expect("compiles");
        let plan_out = plan.infer(&test.features).expect("plan forward");
        assert_eq!(graph_out, plan_out, "{}: plan vs graph differ", ds.name);
        assert_eq!(
            pnn.predict(&test.features, None).expect("graph predict"),
            plan.predict(&test.features).expect("plan predict"),
            "{}: predictions differ",
            ds.name
        );
        checked += 1;
    }
    assert_eq!(checked, 13, "the suite must cover all 13 datasets");
}

#[test]
fn f64_plan_is_bit_identical_at_1_2_8_threads_and_any_chunking() {
    let suite = benchmark_suite();
    // Three datasets spanning small/medium feature counts keep this fast;
    // thread count and chunking cannot interact with the data anyway (the
    // forward has no cross-row coupling).
    for ds in suite.iter().take(3) {
        let (train, val, test) = ds.split(11);
        let pnn = network_for(ds, &train, &val, 5, training_epochs(ds));
        let graph_out = pnn.infer(&test.features, None).expect("graph forward");
        for capacity in [1, 3, 64] {
            let mut plan = InferencePlan::compile_with_capacity(&pnn, capacity).expect("compiles");
            assert_eq!(
                graph_out,
                plan.infer(&test.features).expect("plan forward"),
                "{}: capacity {capacity} chunking changed bits",
                ds.name
            );
            for threads in [1, 2, 8] {
                let par = plan
                    .infer_parallel(&test.features, &ParallelConfig::with_threads(threads))
                    .expect("parallel forward");
                assert_eq!(
                    graph_out, par,
                    "{}: {threads} threads / capacity {capacity} changed bits",
                    ds.name
                );
            }
        }
    }
}

#[test]
fn f64_plan_covers_every_granularity_and_headless_output() {
    let ds = &benchmark_suite()[0];
    let (_, _, test) = ds.split(3);
    for granularity in [
        NonlinearityGranularity::Shared,
        NonlinearityGranularity::PerLayer,
        NonlinearityGranularity::PerNeuron,
    ] {
        for activation_on_output in [true, false] {
            let mut config = PnnConfig::for_dataset(ds.num_features(), ds.num_classes);
            config.granularity = granularity;
            config.activation_on_output = activation_on_output;
            let pnn = Pnn::new(config, surrogate()).expect("valid config");
            let graph_out = pnn.infer(&test.features, None).expect("graph forward");
            let mut plan = InferencePlan::compile(&pnn).expect("compiles");
            assert_eq!(
                graph_out,
                plan.infer(&test.features).expect("plan forward"),
                "{granularity:?} / activation_on_output={activation_on_output}"
            );
        }
    }
}

#[test]
fn quant_plan_agrees_with_f64_on_995_permille_of_held_out_rows() {
    let mut total = 0usize;
    let mut quant_agree = 0usize;
    for (i, ds) in benchmark_suite().iter().enumerate() {
        let (train, val, test) = ds.split(17);
        let pnn = network_for(ds, &train, &val, 70 + i as u64, training_epochs(ds));
        let mut plan64 = InferencePlan::compile(&pnn).expect("f64 compiles");
        let mut planq = InferencePlanQuant::compile(&pnn).expect("quant compiles");
        let p64 = plan64.predict(&test.features).expect("f64 predict");
        let pq = planq.predict(&test.features).expect("quant predict");
        total += p64.len();
        quant_agree += p64.iter().zip(&pq).filter(|(a, b)| a == b).count();
    }
    let quant_rate = quant_agree as f64 / total as f64;
    assert!(
        quant_rate >= 0.995,
        "quant agreement {quant_rate:.4} < 99.5% over {total} held-out rows"
    );
}

#[test]
fn reduced_precision_plans_are_self_consistent_across_threads() {
    let ds = &benchmark_suite()[1];
    let (train, val, test) = ds.split(23);
    let pnn = network_for(ds, &train, &val, 9, training_epochs(ds));
    let mut planq = InferencePlanQuant::compile_with_capacity(&pnn, 5).expect("quant compiles");
    let serialq = planq.infer(&test.features).expect("quant serial");
    for threads in [1, 2, 8] {
        let par = ParallelConfig::with_threads(threads);
        assert_eq!(
            serialq,
            planq
                .infer_parallel(&test.features, &par)
                .expect("quant par"),
            "quant plan changed bits at {threads} threads"
        );
    }
}

/// Micro-batch chunking edge cases through both precisions: an empty
/// batch (0 rows — a serving micro-batcher flushing an empty queue), and
/// row counts sitting exactly on, one under, and one over the capacity
/// boundary. Chunking must never panic and never change bits.
#[test]
fn empty_and_capacity_boundary_batches_chunk_correctly_at_all_precisions() {
    let ds = &benchmark_suite()[0];
    let (train, val, test) = ds.split(29);
    let pnn = network_for(ds, &train, &val, 3, training_epochs(ds));
    let graph_all = pnn.infer(&test.features, None).expect("graph forward");

    for capacity in [1, 3, 4] {
        let mut plan64 = InferencePlan::compile_with_capacity(&pnn, capacity).expect("f64");
        let mut planq = InferencePlanQuant::compile_with_capacity(&pnn, capacity).expect("q16");

        // Reference outputs at full batch, per precision.
        let refq = planq.infer(&test.features).expect("q16 full");

        // 0 rows: must succeed with a 0-row output, not panic.
        let empty = Matrix::zeros(0, ds.num_features());
        for (name, out) in [
            ("f64", plan64.infer(&empty).expect("f64 empty")),
            ("q16", planq.infer(&empty).expect("q16 empty")),
        ] {
            assert_eq!(out.shape(), (0, ds.num_classes), "{name} empty batch");
        }
        assert_eq!(
            plan64.predict(&empty).expect("f64 empty predict"),
            Vec::<usize>::new()
        );
        // The parallel path must also tolerate 0 rows.
        for threads in [1, 2] {
            let par = ParallelConfig::with_threads(threads);
            assert_eq!(
                plan64
                    .infer_parallel(&empty, &par)
                    .expect("f64 par empty")
                    .shape(),
                (0, ds.num_classes)
            );
        }

        // capacity-1, capacity, and capacity+1 rows: the exact boundary at
        // which the chunk loop rolls over. Bits must match the full-batch
        // reference rows.
        for rows in [capacity.saturating_sub(1), capacity, capacity + 1] {
            let rows = rows.min(test.features.rows());
            let x = Matrix::from_fn(rows, ds.num_features(), |i, j| test.features[(i, j)]);
            let out64 = plan64.infer(&x).expect("f64 boundary");
            let outq = planq.infer(&x).expect("q16 boundary");
            for i in 0..rows {
                assert_eq!(
                    out64.row(i),
                    graph_all.row(i),
                    "f64 cap {capacity} rows {rows}"
                );
                assert_eq!(outq.row(i), refq.row(i), "q16 cap {capacity} rows {rows}");
            }
        }
    }
}

#[test]
fn plan_rejects_wrong_input_width_and_output_shape() {
    let ds = &benchmark_suite()[0];
    let pnn = Pnn::new(
        PnnConfig::for_dataset(ds.num_features(), ds.num_classes),
        surrogate(),
    )
    .expect("valid config");
    let mut plan = InferencePlan::compile(&pnn).expect("compiles");
    let bad = Matrix::zeros(2, ds.num_features() + 1);
    assert!(plan.infer(&bad).is_err(), "wrong width must be rejected");
    let good = Matrix::zeros(2, ds.num_features());
    let mut wrong_out = Matrix::zeros(3, ds.num_classes);
    assert!(
        plan.infer_into(&good, &mut wrong_out).is_err(),
        "wrong output shape must be rejected"
    );
}

/// `inv(1 V)` of an inverter η quadruple, as the artifact's bias leg stores it.
fn inv_at_one(e: [f64; 4]) -> f64 {
    e[0] - ((1.0 - e[2]) * e[3]).tanh() * e[1]
}

/// A fixed, hand-written two-layer artifact: a 3→3 crossbar with one shared
/// circuit pair, then a 3→2 crossbar with one pair per neuron, so both
/// kernel branches run. Each weight sits on one sign path only, and every
/// column's weights sum to 1, as in the normalized crossbars of a trained
/// network.
fn golden_artifact() -> PnnArtifact {
    // `(in + 2) × out` row-major; the last two rows are the bias and g_d legs.
    #[rustfmt::skip]
    let (w0_pos, w0_neg) = (
        vec![
            0.30, 0.00, 0.10,
            0.00, 0.25, 0.00,
            0.20, 0.00, 0.40,
            0.15, 0.35, 0.00,
            0.00, 0.05, 0.10,
        ],
        vec![
            0.00, 0.20, 0.00,
            0.25, 0.00, 0.30,
            0.00, 0.15, 0.00,
            0.00, 0.00, 0.10,
            0.10, 0.00, 0.00,
        ],
    );
    #[rustfmt::skip]
    let (w1_pos, w1_neg) = (
        vec![
            0.40, 0.00,
            0.00, 0.30,
            0.25, 0.00,
            0.00, 0.20,
            0.05, 0.00,
        ],
        vec![
            0.00, 0.15,
            0.20, 0.00,
            0.00, 0.25,
            0.10, 0.00,
            0.00, 0.10,
        ],
    );
    let shared_inv = vec![[0.55, 0.5, 0.45, 5.0]];
    let neuron_inv = vec![[0.5, 0.5, 0.5, 6.0], [0.6, 0.45, 0.4, 5.5]];
    PnnArtifact {
        format_version: ARTIFACT_FORMAT_VERSION,
        name: "golden".to_string(),
        in_dim: 3,
        out_dim: 2,
        layers: vec![
            ArtifactLayer {
                in_dim: 3,
                out_dim: 3,
                w_pos: w0_pos,
                w_neg: w0_neg,
                eta_act: vec![[0.5, 0.45, 0.5, 6.0]],
                inv_ones: shared_inv.iter().copied().map(inv_at_one).collect(),
                eta_inv: shared_inv,
                apply_act: true,
            },
            ArtifactLayer {
                in_dim: 3,
                out_dim: 2,
                w_pos: w1_pos,
                w_neg: w1_neg,
                eta_act: vec![[0.45, 0.5, 0.55, 4.0], [0.5, 0.4, 0.5, 7.0]],
                inv_ones: neuron_inv.iter().copied().map(inv_at_one).collect(),
                eta_inv: neuron_inv,
                apply_act: true,
            },
        ],
        design: PrintedDesign {
            crossbars: Vec::new(),
            circuits: Vec::new(),
        },
    }
}

/// FNV-1a 64 over the little-endian bit patterns of `values`.
fn fnv1a64_bits(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Pins the exact output bits of both precisions on a fixed artifact, with
/// no surrogate and no training in the way: any change to plan lowering,
/// the kernels, quantization or chunking that moves a single bit fails
/// here. The rows include values beyond ±1.9999 V, which saturate Q1.14.
/// The digests are those of the x86-64 Linux build (`tanh` comes from the
/// platform's libm).
#[test]
fn golden_artifact_outputs_match_committed_digests() {
    #[rustfmt::skip]
    let x = Matrix::from_vec(7, 3, vec![
        0.0, 0.0, 0.0,
        1.0, 1.0, 1.0,
        0.25, 0.5, 0.75,
        0.9, 0.1, 0.6,
        2.5, -3.0, 1.9999,
        -0.4, 4.0, -2.0,
        0.333, 0.667, 0.123,
    ])
    .expect("7 × 3 rows");
    let artifact = golden_artifact();
    for (precision, expected) in [
        (PlanPrecision::F64, 0x61fd_fd96_a7a0_c8e9_u64),
        (PlanPrecision::QuantI16, 0x6c0f_277d_9b50_c192),
    ] {
        for capacity in [1, 3, 64] {
            let mut plan =
                CompiledPnn::compile_artifact(&artifact, precision, capacity).expect("compiles");
            let mut out = Matrix::zeros(x.rows(), plan.out_dim());
            plan.infer_into(&x, &mut out).expect("infers");
            let digest = fnv1a64_bits(out.as_slice());
            assert_eq!(
                digest,
                expected,
                "{} plan at capacity {capacity}: digest {digest:#018x}, outputs {:?}",
                precision.name(),
                out.as_slice()
            );
        }
    }
}
