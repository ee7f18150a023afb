//! Compiled allocation-free inference plans for trained pNNs.
//!
//! [`Pnn::infer`] walks the full autodiff graph on every call: it re-runs
//! the 13-layer surrogate MLP per circuit pair, re-projects θ, and rebuilds
//! every node of the forward tape — all of which is input-independent for a
//! trained network. [`InferencePlan::compile`] hoists that work to
//! construction time: the printable weights `W⁺`/`W⁻` of Eq. 1 and the η
//! curve parameters of Eqs. 2–3 are extracted **once** (through the same
//! graph machinery the training forward uses, so the f64 plan is
//! bit-identical to [`Pnn::infer`]), and the per-call work collapses to a
//! fixed sequence of microkernel GEMMs and tanh curve evaluations over
//! preallocated buffers — zero allocations and zero graph-walking per
//! forward, for single samples and micro-batches alike.
//!
//! One plan type, [`Plan`], runs at two precisions (see DESIGN.md §12 for
//! the full contract):
//!
//! * [`InferencePlan`] (`Plan<F64>`) — f64, **bit-identical** to the graph
//!   path at every batch size and thread count.
//! * [`InferencePlanQuant`] (`Plan<Q16>`) — fixed-point Q1.14 `i16`
//!   weights and activations with `i32` accumulators
//!   ([`pnc_linalg::simd::gemm_i16_i32`]); curve nonlinearities evaluate in
//!   f32 between crossbars. The Q1.14 scheme is overflow-safe by
//!   construction: normalized crossbar columns sum to 1, so each
//!   accumulator stays below `2·2^15·2^14 < i32::MAX`.
//!
//! [`CompiledPnn`] holds either one, selected by [`PlanPrecision`] —
//! programmatically or via the `PNC_INFER_PRECISION` environment variable.
//!
//! Plans capture the *nominal* network: printing variation (a training and
//! robustness-evaluation concern) stays on the graph path.
//!
//! # Examples
//!
//! ```no_run
//! # use pnc_core::{InferencePlan, Pnn};
//! # use pnc_linalg::Matrix;
//! # fn demo(pnn: &Pnn, x: &Matrix) -> Result<(), pnc_core::PnnError> {
//! let mut plan = InferencePlan::compile(pnn)?;
//! let scores = plan.infer(x)?; // bit-identical to pnn.infer(x, None)
//! # let _ = scores;
//! # Ok(())
//! # }
//! ```

use crate::layer::project_printable;
use crate::network::Pnn;
use crate::PnnError;
use pnc_autodiff::Graph;
use pnc_linalg::simd::{gemm_f64, gemm_i16_i32};
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_obs::Counter;

// Observability: compiled-inference traffic. Catalogued in docs/METRICS.md.
static OBS_PLANS_COMPILED: Counter = Counter::new("infer.plans_compiled");
static OBS_SAMPLES: Counter = Counter::new("infer.samples");
static OBS_BATCHES: Counter = Counter::new("infer.batches");

fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_PLANS_COMPILED.register();
        OBS_SAMPLES.register();
        OBS_BATCHES.register();
    });
}

/// Environment variable selecting the default plan precision for
/// [`PlanPrecision::from_env`]: `f64` (default) or `q16` (aliases `i16`,
/// `quant`).
pub const PRECISION_ENV_VAR: &str = "PNC_INFER_PRECISION";

/// Default micro-batch capacity of a compiled plan: forward buffers are
/// sized for this many rows; larger batches stream through in chunks.
pub const DEFAULT_CAPACITY: usize = 64;

/// Q1.14 fixed-point scale of [`InferencePlanQuant`] (14 fractional bits).
const Q14_SCALE: f32 = 16384.0;
/// Dequantization factor for a product of two Q1.14 values (Q2.28).
const Q28_DEQ: f32 = 1.0 / (16384.0 * 16384.0);
/// Largest magnitude representable in Q1.14 without `i16` overflow.
const Q14_CLAMP: f32 = 1.9999;

fn quantize_q14(x: f32) -> i16 {
    (x.clamp(-Q14_CLAMP, Q14_CLAMP) * Q14_SCALE).round() as i16
}

/// Numeric precision of a compiled inference plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPrecision {
    /// Full f64 — bit-identical to the autodiff-graph forward.
    F64,
    /// Fixed-point Q1.14 `i16` crossbars with `i32` accumulation.
    QuantI16,
}

impl PlanPrecision {
    /// Parses a precision name: `f64` or `q16` (aliases `i16`, `quant`),
    /// case-insensitively and ignoring surrounding whitespace.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Config`] for any other spelling. There is no
    /// silent fallback: a typo in a deployment config must fail loudly, not
    /// quietly serve a different numeric contract. `f32`, a precision this
    /// crate no longer has, gets an error that points to `f64`.
    pub fn parse(raw: &str) -> Result<Self, PnnError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "f64" => Ok(PlanPrecision::F64),
            "q16" | "i16" | "quant" => Ok(PlanPrecision::QuantI16),
            "f32" => Err(PnnError::Config {
                detail: "plan precision \"f32\" was removed; use f64, which is faster".to_string(),
            }),
            other => Err(PnnError::Config {
                detail: format!(
                    "unrecognized plan precision {other:?} (expected f64 or q16/i16/quant)"
                ),
            }),
        }
    }

    /// Reads the precision from the `PNC_INFER_PRECISION` environment
    /// variable. Unset means [`Self::F64`]; a set but unrecognized value is
    /// a hard [`PnnError::Config`] error, naming the variable, surfaced to
    /// the caller.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Config`] when the variable is set to anything
    /// [`Self::parse`] rejects.
    pub fn from_env() -> Result<Self, PnnError> {
        match std::env::var(PRECISION_ENV_VAR) {
            Ok(raw) => Self::parse(&raw).map_err(|e| match e {
                PnnError::Config { detail } => PnnError::Config {
                    detail: format!("invalid {PRECISION_ENV_VAR}={raw:?}: {detail}"),
                },
                other => other,
            }),
            Err(_) => Ok(PlanPrecision::F64),
        }
    }

    /// Canonical lower-case name (`f64`, `q16`), accepted back by
    /// [`Self::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            PlanPrecision::F64 => "f64",
            PlanPrecision::QuantI16 => "q16",
        }
    }
}

/// One crossbar layer, flattened for execution: printable weights split by
/// sign, η curve parameters per circuit pair, and the precomputed inverter
/// response to the 1 V bias leg. `etas.len()` is 1 for the single-GEMM path
/// (shared or per-layer circuit granularity) and `out_dim` for the
/// per-neuron bespoke path — exactly the dispatch [`crate::PLayer::forward`]
/// uses.
#[derive(Debug, Clone)]
pub(crate) struct ExtractedLayer {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// `(in_dim + 2) × out_dim` row-major: normalized weights of θ ≥ 0
    /// entries, zero elsewhere.
    pub(crate) w_pos: Vec<f64>,
    /// Same shape: normalized weights of θ < 0 entries.
    pub(crate) w_neg: Vec<f64>,
    /// `(activation, negative-weight)` η quadruples per circuit pair.
    pub(crate) etas: Vec<([f64; 4], [f64; 4])>,
    /// `inv(1 V)` per pair — the negative-weight path of the bias leg.
    pub(crate) inv_ones: Vec<f64>,
    pub(crate) apply_act: bool,
}

impl ExtractedLayer {
    fn ext_dim(&self) -> usize {
        self.in_dim + 2
    }
}

/// Replicates the inverter transfer curve of [`crate::apply_inv`] with the
/// graph's exact scalar operation sequence.
#[inline]
fn inv_curve(e: &[f64; 4], x: f64) -> f64 {
    e[0] - ((x - e[2]) * e[3]).tanh() * e[1]
}

/// Replicates the ptanh activation of [`crate::apply_ptanh`] with the
/// graph's exact scalar operation sequence.
#[inline]
fn ptanh_curve(e: &[f64; 4], x: f64) -> f64 {
    ((x - e[2]) * e[3]).tanh() * e[1] + e[0]
}

/// f32 twin of [`inv_curve`], for the Q1.14 plan's between-crossbar curves.
#[inline]
fn inv_curve_f32(e: &[f32; 4], x: f32) -> f32 {
    e[0] - ((x - e[2]) * e[3]).tanh() * e[1]
}

/// f32 twin of [`ptanh_curve`].
#[inline]
fn ptanh_curve_f32(e: &[f32; 4], x: f32) -> f32 {
    ((x - e[2]) * e[3]).tanh() * e[1] + e[0]
}

/// Extracts the flattened layers of a trained network.
///
/// η values are read back from a scratch autodiff graph running the same
/// [`crate::NonlinearCircuit::eta_graph`] chain the training forward builds
/// (the plain `eta()` path differs from the graph in the last ulps), and
/// the weight arithmetic mirrors [`crate::PLayer::forward`] operation for
/// operation — both are required for the f64 plan's bit-identity contract.
pub(crate) fn extract_layers(pnn: &Pnn) -> Result<Vec<ExtractedLayer>, PnnError> {
    // η per circuit pair, through the graph machinery.
    let mut g = Graph::new();
    let mut pair_etas = Vec::with_capacity(pnn.circuits().len());
    for (act, inv) in pnn.circuits() {
        let act_w = act.register(&mut g);
        let inv_w = inv.register(&mut g);
        let eta_act = act.eta_graph(&mut g, act_w, pnn.surrogate(), None)?;
        let eta_inv = inv.eta_graph(&mut g, inv_w, pnn.surrogate(), None)?;
        let read = |g: &Graph, v| {
            let m = g.value(v);
            [m[(0, 0)], m[(0, 1)], m[(0, 2)], m[(0, 3)]]
        };
        pair_etas.push((read(&g, eta_act), read(&g, eta_inv)));
    }

    let config = pnn.config();
    let last = pnn.num_layers() - 1;
    let mut layers = Vec::with_capacity(pnn.num_layers());
    for (i, layer) in pnn.layers().iter().enumerate() {
        let (rows, out_dim) = layer.theta_shape();
        let in_dim = layer.in_dim();
        let theta = layer.theta.value();

        // Mirror the graph ops of `PLayer::forward` (nominal, no noise):
        // project (STE value) → abs → ascending-row column sums → divide →
        // multiply by the 1.0/0.0 sign masks.
        let projected: Vec<f64> = theta
            .as_slice()
            .iter()
            .map(|&t| project_printable(t, config.g_min, config.g_max))
            .collect();
        let mut total = vec![0.0_f64; out_dim];
        for r in 0..rows {
            for (j, tj) in total.iter_mut().enumerate() {
                *tj += projected[r * out_dim + j].abs();
            }
        }
        let mut w_pos = vec![0.0_f64; rows * out_dim];
        let mut w_neg = vec![0.0_f64; rows * out_dim];
        for r in 0..rows {
            for j in 0..out_dim {
                let p = projected[r * out_dim + j];
                let weight = p.abs() / total[j];
                let mask_pos = if p >= 0.0 { 1.0 } else { 0.0 };
                let mask_neg = if p < 0.0 { 1.0 } else { 0.0 };
                w_pos[r * out_dim + j] = weight * mask_pos;
                w_neg[r * out_dim + j] = weight * mask_neg;
            }
        }

        let etas: Vec<([f64; 4], [f64; 4])> = pair_etas[pnn.pair_range(i)].to_vec();
        let inv_ones: Vec<f64> = etas.iter().map(|(_, inv)| inv_curve(inv, 1.0)).collect();
        layers.push(ExtractedLayer {
            in_dim,
            out_dim,
            w_pos,
            w_neg,
            etas,
            inv_ones,
            apply_act: i < last || config.activation_on_output,
        });
    }
    Ok(layers)
}

/// Widest activation row, extended input row and output row over a layer
/// chain: per-row sizes of a plan's scratch buffers, fixed at compile time.
#[derive(Debug, Clone, Copy)]
struct Widths {
    act: usize,
    ext: usize,
    out: usize,
}

impl Widths {
    fn of(layers: &[ExtractedLayer]) -> Widths {
        Widths {
            act: layers
                .iter()
                .map(|l| l.in_dim.max(l.out_dim))
                .max()
                .unwrap_or(1),
            ext: layers
                .iter()
                .map(ExtractedLayer::ext_dim)
                .max()
                .unwrap_or(2),
            out: layers.iter().map(|l| l.out_dim).max().unwrap_or(1),
        }
    }
}

/// What a plan precision supplies to [`Plan`]: its lowered layer and
/// scratch types and the steps that touch them. Everything else —
/// compilation, chunking, shape checks, counters — is written once in
/// `Plan`. The trait is private, so [`F64`] and [`Q16`] are the only
/// precisions.
trait Precision {
    /// One crossbar layer lowered to this precision.
    type Layer: Clone + std::fmt::Debug + Sync;
    /// Preallocated forward buffers.
    type Scratch: Clone + std::fmt::Debug;
    /// Lowers an extracted f64 layer.
    fn lower(layer: ExtractedLayer) -> Self::Layer;
    /// Buffers for `rows` rows of the given widths.
    fn scratch(widths: Widths, rows: usize) -> Self::Scratch;
    /// Loads row-major f64 inputs into the first activation buffer.
    fn load(s: &mut Self::Scratch, x: &[f64]);
    /// Runs every layer over the first `rows` loaded rows.
    fn run(layers: &[Self::Layer], s: &mut Self::Scratch, rows: usize);
    /// Widens the last layer's outputs into `out`.
    fn store(s: &Self::Scratch, out: &mut [f64]);

    /// Loads `x`, runs the layers and stores into `out`: one chunk of
    /// `rows` rows.
    fn forward(
        layers: &[Self::Layer],
        s: &mut Self::Scratch,
        x: &[f64],
        out: &mut [f64],
        rows: usize,
    ) {
        Self::load(s, x);
        Self::run(layers, s, rows);
        Self::store(s, out);
    }
}

/// Precision marker of [`InferencePlan`]: f64 throughout.
#[derive(Debug, Clone, Copy)]
pub struct F64;

/// Precision marker of [`InferencePlanQuant`]: Q1.14 fixed point.
#[derive(Debug, Clone, Copy)]
pub struct Q16;

/// Preallocated forward buffers of an f64 plan, sized at compile time for
/// `capacity` rows. `h` ping-pongs activations between layers; `x_ext` and
/// `x_inv` hold the `[x, 1, 0]` / `[inv(x), inv(1), 0]` extended inputs of
/// Eq. 1; `z_pos`/`z_neg` hold the two crossbar GEMM results.
#[derive(Debug, Clone)]
struct Scratch {
    h: Vec<f64>,
    x_ext: Vec<f64>,
    x_inv: Vec<f64>,
    z_pos: Vec<f64>,
    z_neg: Vec<f64>,
}

impl Precision for F64 {
    type Layer = ExtractedLayer;
    type Scratch = Scratch;

    fn lower(layer: ExtractedLayer) -> ExtractedLayer {
        layer
    }

    fn scratch(w: Widths, rows: usize) -> Scratch {
        Scratch {
            h: vec![0.0; rows * w.act],
            x_ext: vec![0.0; rows * w.ext],
            x_inv: vec![0.0; rows * w.ext],
            z_pos: vec![0.0; rows * w.out],
            z_neg: vec![0.0; rows * w.out],
        }
    }

    fn load(s: &mut Scratch, x: &[f64]) {
        s.h[..x.len()].copy_from_slice(x);
    }

    fn run(layers: &[ExtractedLayer], s: &mut Scratch, rows: usize) {
        run_layers_f64(layers, s, rows);
    }

    fn store(s: &Scratch, out: &mut [f64]) {
        out.copy_from_slice(&s.h[..out.len()]);
    }
}

/// Runs all layers over the `b` rows currently in `s.h` (row-major,
/// `layers[0].in_dim` wide); leaves the `b × out` output in `s.h`.
fn run_layers_f64(layers: &[ExtractedLayer], s: &mut Scratch, b: usize) {
    for layer in layers {
        let (input, ext, out) = (layer.in_dim, layer.ext_dim(), layer.out_dim);
        // Extended inputs [x, 1, 0] (and the copy frees `h` for the output).
        for i in 0..b {
            let row = i * ext;
            s.x_ext[row..row + input].copy_from_slice(&s.h[i * input..(i + 1) * input]);
            s.x_ext[row + input] = 1.0;
            s.x_ext[row + input + 1] = 0.0;
        }

        if layer.etas.len() == 1 {
            // Single circuit pair: the dual-GEMM path of Eq. 1 + Eq. 3.
            let (eta_act, eta_inv) = &layer.etas[0];
            for i in 0..b {
                let src = &s.x_ext[i * ext..i * ext + input];
                let dst = &mut s.x_inv[i * ext..(i + 1) * ext];
                for (d, &x) in dst[..input].iter_mut().zip(src) {
                    *d = inv_curve(eta_inv, x);
                }
                dst[input] = layer.inv_ones[0];
                dst[input + 1] = 0.0;
            }
            gemm_f64(
                b,
                ext,
                out,
                &s.x_ext[..b * ext],
                &layer.w_pos,
                &mut s.z_pos[..b * out],
            );
            gemm_f64(
                b,
                ext,
                out,
                &s.x_inv[..b * ext],
                &layer.w_neg,
                &mut s.z_neg[..b * out],
            );
            for idx in 0..b * out {
                let z = s.z_pos[idx] + s.z_neg[idx];
                s.h[idx] = if layer.apply_act {
                    ptanh_curve(eta_act, z)
                } else {
                    z
                };
            }
        } else {
            // Per-neuron bespoke circuits: column j routes through its own
            // inverter and activation design (dot products, k ascending).
            for (j, (eta_act, eta_inv)) in layer.etas.iter().enumerate() {
                for i in 0..b {
                    let row = i * ext;
                    for k in 0..input {
                        s.x_inv[row + k] = inv_curve(eta_inv, s.x_ext[row + k]);
                    }
                    s.x_inv[row + input] = layer.inv_ones[j];
                    s.x_inv[row + input + 1] = 0.0;
                }
                for i in 0..b {
                    let row = i * ext;
                    let mut z_pos = 0.0;
                    for k in 0..ext {
                        z_pos += s.x_ext[row + k] * layer.w_pos[k * out + j];
                    }
                    let mut z_neg = 0.0;
                    for k in 0..ext {
                        z_neg += s.x_inv[row + k] * layer.w_neg[k * out + j];
                    }
                    let z = z_pos + z_neg;
                    s.h[i * out + j] = if layer.apply_act {
                        ptanh_curve(eta_act, z)
                    } else {
                        z
                    };
                }
            }
        }
    }
}

/// Argmax of one row of output voltages: the largest value under IEEE
/// total order, the last one on exact ties, and 0 for an empty row. Every
/// predict path — [`Pnn::predict`], [`Plan::predict`] and the serving
/// batcher — picks its class with this one function.
pub fn argmax_row(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
        .unwrap_or(0)
}

fn check_input(x: &Matrix, in_dim: usize) -> Result<(), PnnError> {
    if x.cols() != in_dim {
        return Err(PnnError::Data {
            detail: format!("plan expects {} input features, got {}", in_dim, x.cols()),
        });
    }
    Ok(())
}

/// A trained pNN compiled to a flat, allocation-free forward pass at
/// precision `P` — [`F64`] ([`InferencePlan`]) or [`Q16`]
/// ([`InferencePlanQuant`]).
///
/// The f64 plan's outputs are **bit-identical** to [`Pnn::infer`] with
/// nominal printing (`noise = None`) at every batch size, chunking, and —
/// via [`Self::infer_parallel`] — thread count; the property tests in
/// `tests/infer_plan.rs` assert exact equality across the 13-dataset suite.
/// The Q1.14 plan clamps voltages to ±1.9999 V at quantization — far
/// outside the 0–1 V supply range real circuits produce — and agrees with
/// the f64 plan's classification on ≥ 99.5 % of held-out rows. Each plan is
/// bit-identical to itself across chunkings and thread counts, and
/// artifact- and network-compiled plans of one precision are bit-identical
/// to each other. After compilation, the serial entry points perform no
/// heap allocation beyond the caller-provided output.
// The private `Precision` bound seals the parameter: callers name only
// `InferencePlan` and `InferencePlanQuant`.
#[allow(private_bounds)]
#[derive(Debug, Clone)]
pub struct Plan<P: Precision> {
    layers: Vec<P::Layer>,
    in_dim: usize,
    out_dim: usize,
    capacity: usize,
    widths: Widths,
    scratch: P::Scratch,
}

/// The f64 compiled plan, bit-identical to the graph forward.
pub type InferencePlan = Plan<F64>;

/// The Q1.14 fixed-point compiled plan: `i16` crossbars with `i32`
/// accumulation ([`pnc_linalg::simd::gemm_i16_i32`]), f32 curve evaluation
/// between layers.
pub type InferencePlanQuant = Plan<Q16>;

#[allow(private_bounds)]
impl<P: Precision> Plan<P> {
    /// Compiles a trained network with the [`DEFAULT_CAPACITY`] micro-batch
    /// size.
    ///
    /// # Errors
    ///
    /// Propagates surrogate/graph failures from η extraction.
    pub fn compile(pnn: &Pnn) -> Result<Self, PnnError> {
        Self::compile_with_capacity(pnn, DEFAULT_CAPACITY)
    }

    /// Compiles with an explicit micro-batch capacity (clamped to ≥ 1).
    /// Larger batches stream through in `capacity`-row chunks — chunking
    /// never changes results because the forward has no cross-row coupling.
    ///
    /// # Errors
    ///
    /// Propagates surrogate/graph failures from η extraction.
    pub fn compile_with_capacity(pnn: &Pnn, capacity: usize) -> Result<Self, PnnError> {
        Ok(Self::lower(extract_layers(pnn)?, capacity))
    }

    /// Compiles a plan from an exported [`crate::PnnArtifact`] — no live
    /// network or surrogate needed. The artifact carries the exact f64
    /// numbers [`Self::compile`] would extract, so the resulting plan is
    /// **bit-identical** to one compiled from the originating network.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] if the artifact fails validation
    /// (non-finite values, inconsistent shapes).
    pub fn compile_artifact(artifact: &crate::PnnArtifact) -> Result<Self, PnnError> {
        Self::compile_artifact_with_capacity(artifact, DEFAULT_CAPACITY)
    }

    /// [`Self::compile_artifact`] with an explicit micro-batch capacity
    /// (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] if the artifact fails validation.
    pub fn compile_artifact_with_capacity(
        artifact: &crate::PnnArtifact,
        capacity: usize,
    ) -> Result<Self, PnnError> {
        artifact.validate()?;
        Ok(Self::lower(artifact.extracted_layers(), capacity))
    }

    fn lower(layers: Vec<ExtractedLayer>, capacity: usize) -> Self {
        obs_register();
        let capacity = capacity.max(1);
        let widths = Widths::of(&layers);
        let in_dim = layers.first().map_or(0, |l| l.in_dim);
        let out_dim = layers.last().map_or(0, |l| l.out_dim);
        OBS_PLANS_COMPILED.increment();
        Plan {
            layers: layers.into_iter().map(P::lower).collect(),
            in_dim,
            out_dim,
            capacity,
            widths,
            scratch: P::scratch(widths, capacity),
        }
    }

    /// Input width the plan was compiled for.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width (number of classes).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of compiled crossbar layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output voltages for a batch (for the f64 plan, bit-identical to
    /// `pnn.infer(x, None)`). Allocates only the returned matrix; use
    /// [`Self::infer_into`] for the fully allocation-free path.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `x` does not match the input width.
    pub fn infer(&mut self, x: &Matrix) -> Result<Matrix, PnnError> {
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        self.infer_into(x, &mut out)?;
        Ok(out)
    }

    /// Writes output voltages for a batch into `out` (`x.rows() ×
    /// out_dim`), allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] on input-width or output-shape mismatch.
    pub fn infer_into(&mut self, x: &Matrix, out: &mut Matrix) -> Result<(), PnnError> {
        check_input(x, self.in_dim)?;
        let (rows, in_dim, out_dim) = (x.rows(), self.in_dim, self.out_dim);
        if out.shape() != (rows, out_dim) {
            return Err(PnnError::Data {
                detail: format!(
                    "output buffer is {:?}, need {:?}",
                    out.shape(),
                    (rows, out_dim)
                ),
            });
        }
        let mut start = 0;
        while start < rows {
            let end = (start + self.capacity).min(rows);
            P::forward(
                &self.layers,
                &mut self.scratch,
                &x.as_slice()[start * in_dim..end * in_dim],
                &mut out.as_mut_slice()[start * out_dim..end * out_dim],
                end - start,
            );
            start = end;
        }
        OBS_SAMPLES.add(rows as u64);
        OBS_BATCHES.increment();
        Ok(())
    }

    /// Argmax class predictions ([`argmax_row`] per row); the f64 plan's
    /// match [`Pnn::predict`] bit for bit.
    ///
    /// # Errors
    ///
    /// As for [`Self::infer`].
    pub fn predict(&mut self, x: &Matrix) -> Result<Vec<usize>, PnnError> {
        let scores = self.infer(x)?;
        Ok((0..scores.rows())
            .map(|i| argmax_row(scores.row(i)))
            .collect())
    }

    /// Parallel batched inference: rows are split into `capacity`-sized
    /// bands mapped over [`ParallelConfig`]'s deterministic ordered pool.
    /// Each band runs on its own scratch (one allocation per band — the
    /// price of `&self` sharing); results are bit-identical to
    /// [`Self::infer`] at every thread count because the forward has no
    /// cross-row coupling.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `x` does not match the input width.
    pub fn infer_parallel(&self, x: &Matrix, par: &ParallelConfig) -> Result<Matrix, PnnError> {
        check_input(x, self.in_dim)?;
        let (rows, in_dim, out_dim) = (x.rows(), self.in_dim, self.out_dim);
        let (layers, widths) = (&self.layers, self.widths);
        let bands = pnc_linalg::kernels::row_bands(rows, self.capacity);
        let results = par.ordered_par_map(&bands, |&(s, e)| {
            let mut scratch = P::scratch(widths, e - s);
            let mut band = vec![0.0; (e - s) * out_dim];
            let x = &x.as_slice()[s * in_dim..e * in_dim];
            P::forward(layers, &mut scratch, x, &mut band, e - s);
            band
        });
        let mut out = Matrix::zeros(rows, out_dim);
        for (&(s, e), band) in bands.iter().zip(&results) {
            out.as_mut_slice()[s * out_dim..e * out_dim].copy_from_slice(band);
        }
        OBS_SAMPLES.add(rows as u64);
        OBS_BATCHES.increment();
        Ok(out)
    }
}

/// Q1.14 lowering of an [`ExtractedLayer`]: `i16` weights, f32 η curves
/// evaluated between crossbars.
#[derive(Debug, Clone)]
struct LayerQuant {
    in_dim: usize,
    out_dim: usize,
    w_pos: Vec<i16>,
    w_neg: Vec<i16>,
    etas: Vec<([f32; 4], [f32; 4])>,
    inv_ones_q: Vec<i16>,
    apply_act: bool,
}

impl LayerQuant {
    fn ext_dim(&self) -> usize {
        self.in_dim + 2
    }
}

#[derive(Debug, Clone)]
struct ScratchQuant {
    /// Current activations, Q1.14.
    h_q: Vec<i16>,
    /// Current activations, f32 (the last layer's values are the output).
    h_f: Vec<f32>,
    x_ext: Vec<i16>,
    x_inv: Vec<i16>,
    z_pos: Vec<i32>,
    z_neg: Vec<i32>,
}

impl Precision for Q16 {
    type Layer = LayerQuant;
    type Scratch = ScratchQuant;

    fn lower(l: ExtractedLayer) -> LayerQuant {
        let etas: Vec<([f32; 4], [f32; 4])> = l
            .etas
            .iter()
            .map(|(a, i)| (a.map(|v| v as f32), i.map(|v| v as f32)))
            .collect();
        let inv_ones_q = etas
            .iter()
            .map(|(_, i)| quantize_q14(inv_curve_f32(i, 1.0)))
            .collect();
        LayerQuant {
            in_dim: l.in_dim,
            out_dim: l.out_dim,
            w_pos: l.w_pos.iter().map(|&w| quantize_q14(w as f32)).collect(),
            w_neg: l.w_neg.iter().map(|&w| quantize_q14(w as f32)).collect(),
            etas,
            inv_ones_q,
            apply_act: l.apply_act,
        }
    }

    fn scratch(w: Widths, rows: usize) -> ScratchQuant {
        ScratchQuant {
            h_q: vec![0; rows * w.act],
            h_f: vec![0.0; rows * w.act],
            x_ext: vec![0; rows * w.ext],
            x_inv: vec![0; rows * w.ext],
            z_pos: vec![0; rows * w.out],
            z_neg: vec![0; rows * w.out],
        }
    }

    fn load(s: &mut ScratchQuant, x: &[f64]) {
        for (dst, &src) in s.h_q.iter_mut().zip(x) {
            *dst = quantize_q14(src as f32);
        }
    }

    fn run(layers: &[LayerQuant], s: &mut ScratchQuant, rows: usize) {
        run_layers_quant(layers, s, rows);
    }

    fn store(s: &ScratchQuant, out: &mut [f64]) {
        for (dst, &src) in out.iter_mut().zip(&s.h_f) {
            *dst = f64::from(src);
        }
    }
}

fn run_layers_quant(layers: &[LayerQuant], s: &mut ScratchQuant, b: usize) {
    const ONE_Q14: i16 = 16384;
    for layer in layers {
        let (input, ext, out) = (layer.in_dim, layer.ext_dim(), layer.out_dim);
        for i in 0..b {
            let src_start = i * input;
            let dst = i * ext;
            for k in 0..input {
                s.x_ext[dst + k] = s.h_q[src_start + k];
            }
            s.x_ext[dst + input] = ONE_Q14;
            s.x_ext[dst + input + 1] = 0;
        }
        if layer.etas.len() == 1 {
            let (eta_act, eta_inv) = &layer.etas[0];
            for i in 0..b {
                let row = i * ext;
                for k in 0..input {
                    let xf = f32::from(s.x_ext[row + k]) / Q14_SCALE;
                    s.x_inv[row + k] = quantize_q14(inv_curve_f32(eta_inv, xf));
                }
                s.x_inv[row + input] = layer.inv_ones_q[0];
                s.x_inv[row + input + 1] = 0;
            }
            gemm_i16_i32(
                b,
                ext,
                out,
                &s.x_ext[..b * ext],
                &layer.w_pos,
                &mut s.z_pos[..b * out],
            );
            gemm_i16_i32(
                b,
                ext,
                out,
                &s.x_inv[..b * ext],
                &layer.w_neg,
                &mut s.z_neg[..b * out],
            );
            for idx in 0..b * out {
                // Q2.28 accumulator → f32 voltage. Overflow-safe: the two
                // crossbar column sums each stay below 2^15 · 2^14.
                let z = (s.z_pos[idx] + s.z_neg[idx]) as f32 * Q28_DEQ;
                s.h_f[idx] = if layer.apply_act {
                    ptanh_curve_f32(eta_act, z)
                } else {
                    z
                };
            }
        } else {
            for (j, (eta_act, eta_inv)) in layer.etas.iter().enumerate() {
                for i in 0..b {
                    let row = i * ext;
                    for k in 0..input {
                        let xf = f32::from(s.x_ext[row + k]) / Q14_SCALE;
                        s.x_inv[row + k] = quantize_q14(inv_curve_f32(eta_inv, xf));
                    }
                    s.x_inv[row + input] = layer.inv_ones_q[j];
                    s.x_inv[row + input + 1] = 0;
                }
                for i in 0..b {
                    let row = i * ext;
                    let mut z_pos = 0_i32;
                    for k in 0..ext {
                        z_pos += i32::from(s.x_ext[row + k]) * i32::from(layer.w_pos[k * out + j]);
                    }
                    let mut z_neg = 0_i32;
                    for k in 0..ext {
                        z_neg += i32::from(s.x_inv[row + k]) * i32::from(layer.w_neg[k * out + j]);
                    }
                    let z = (z_pos + z_neg) as f32 * Q28_DEQ;
                    s.h_f[i * out + j] = if layer.apply_act {
                        ptanh_curve_f32(eta_act, z)
                    } else {
                        z
                    };
                }
            }
        }
        // Requantize for the next crossbar (harmless after the last layer).
        for idx in 0..b * out {
            s.h_q[idx] = quantize_q14(s.h_f[idx]);
        }
    }
}

/// A compiled pNN at either precision, behind one dispatching API — the
/// serving registry's plan type.
#[derive(Debug, Clone)]
pub enum CompiledPnn {
    /// Bit-exact f64 plan.
    F64(InferencePlan),
    /// Fixed-point Q1.14 plan.
    QuantI16(InferencePlanQuant),
}

impl CompiledPnn {
    /// Compiles an exported [`crate::PnnArtifact`] at the requested
    /// precision and micro-batch capacity — the serving-registry entry
    /// point: no live network or surrogate required, and the plan is
    /// bit-identical to one of the same precision compiled from the
    /// originating network.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] if the artifact fails validation.
    pub fn compile_artifact(
        artifact: &crate::PnnArtifact,
        precision: PlanPrecision,
        capacity: usize,
    ) -> Result<CompiledPnn, PnnError> {
        Ok(match precision {
            PlanPrecision::F64 => {
                CompiledPnn::F64(Plan::compile_artifact_with_capacity(artifact, capacity)?)
            }
            PlanPrecision::QuantI16 => {
                CompiledPnn::QuantI16(Plan::compile_artifact_with_capacity(artifact, capacity)?)
            }
        })
    }

    /// Input width the plan was compiled for.
    pub fn in_dim(&self) -> usize {
        match self {
            CompiledPnn::F64(p) => p.in_dim(),
            CompiledPnn::QuantI16(p) => p.in_dim(),
        }
    }

    /// Output width (number of classes).
    pub fn out_dim(&self) -> usize {
        match self {
            CompiledPnn::F64(p) => p.out_dim(),
            CompiledPnn::QuantI16(p) => p.out_dim(),
        }
    }

    /// Writes output voltages for a batch into `out` (`x.rows() ×
    /// out_dim`), allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] on input-width or output-shape mismatch.
    pub fn infer_into(&mut self, x: &Matrix, out: &mut Matrix) -> Result<(), PnnError> {
        match self {
            CompiledPnn::F64(p) => p.infer_into(x, out),
            CompiledPnn::QuantI16(p) => p.infer_into(x, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_round_trips_supply_range() {
        for v in [0.0_f32, 0.25, 0.5, 0.9999, 1.0, -0.3] {
            let q = quantize_q14(v);
            let back = f32::from(q) / Q14_SCALE;
            assert!((back - v).abs() <= 0.5 / Q14_SCALE + 1e-7, "{v} -> {back}");
        }
        // Saturation instead of wraparound outside the representable range.
        assert_eq!(quantize_q14(3.0), quantize_q14(Q14_CLAMP));
        assert_eq!(quantize_q14(-3.0), quantize_q14(-Q14_CLAMP));
    }

    #[test]
    fn precision_parse_accepts_all_spellings() {
        // Exercises the parsing helper directly to avoid mutating process
        // env (`from_env` is `parse` plus the unset → F64 default).
        assert_eq!(
            PlanPrecision::parse(" Q16 ").unwrap(),
            PlanPrecision::QuantI16
        );
        assert_eq!(
            PlanPrecision::parse("i16").unwrap(),
            PlanPrecision::QuantI16
        );
        assert_eq!(
            PlanPrecision::parse("quant").unwrap(),
            PlanPrecision::QuantI16
        );
        assert_eq!(PlanPrecision::parse("F64").unwrap(), PlanPrecision::F64);
        for p in [PlanPrecision::F64, PlanPrecision::QuantI16] {
            assert_eq!(PlanPrecision::parse(p.name()).unwrap(), p);
        }
    }

    #[test]
    fn precision_parse_rejects_unknown_values_with_typed_error() {
        // The silent-fallback regression: a typo'd precision used to
        // quietly select F64; it must now surface as a Config error.
        for bad in ["garbage", "f16", "", "q14", "fp64", "f32"] {
            match PlanPrecision::parse(bad) {
                Err(PnnError::Config { detail }) => {
                    assert!(
                        detail.contains("precision"),
                        "error should name the problem: {detail}"
                    );
                }
                other => panic!("{bad:?} must be a Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn argmax_row_takes_the_last_maximum_in_total_order() {
        // Last maximum wins on exact ties, and positive NaN sorts above
        // every number under IEEE total order (NaN can't occur in served
        // scores, but every predict path must break ties the same way).
        assert_eq!(argmax_row(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax_row(&[2.0, 2.0, 1.0]), 1);
        assert_eq!(argmax_row(&[f64::NAN, 0.0]), 0);
        assert_eq!(argmax_row(&[0.0, -0.0]), 0, "+0 beats -0 in total order");
        assert_eq!(argmax_row(&[]), 0);
    }
}
