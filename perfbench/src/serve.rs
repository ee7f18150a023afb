//! The `serve` phase: a compiled Iris pNN served in-process by `Server` behind
//! `TcpServer` on loopback, with `ServeConfig::default()` (max batch 32,
//! 200 µs dwell, one worker).
//!
//! Load comes from at most two threads over at most two connections:
//! a closed loop of one blocking `WireClient`, and open loops at 200 and
//! 1,000 req/s with requests pipelined by id on one connection (a sender
//! and a receiver thread). The traced run adds the in-process path and a
//! rate ladder for the highest rate whose p99 meets the latency limit
//! without a growing backlog. Open-loop arrivals are evenly paced and every
//! latency is timed from the request's due time, so a stall also charges
//! the requests queued behind it.

use crate::report::{object, Outcome};
use crate::{stats, trace, Ctx};
use pnc_core::{
    train_best_of_seeds, CompiledPnn, InferencePlan, LabeledData, PlanPrecision, PnnArtifact,
    PnnConfig, TrainConfig,
};
use pnc_datasets::generators;
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_serve::wire::{read_frame, write_frame, TcpServer, WireClient, WireRequest, WireResponse};
use pnc_serve::{ModelRegistry, Scored, ServeConfig, Server};
use pnc_surrogate::SurrogateModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::error::Error;
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SURROGATE: &str = "artifacts/surrogate-default.json";
const MODEL: &str = "Iris";
/// Latency limit on the p99, counted from the due time.
const LIMIT_S: f64 = 0.050;
/// The two fixed open-loop rates.
const LOW_RPS: f64 = 200.0;
const HIGH_RPS: f64 = 1_000.0;
/// The ladder doubles from here until a rate misses the limit, then
/// bisects (in log space) between the last pass and the first miss.
const LADDER_START_RPS: f64 = 1_000.0;
const LADDER_MAX_RPS: f64 = 64_000.0;
const LADDER_MIN_RPS: f64 = 125.0;
const BISECTIONS: usize = 4;
/// Samples a ladder step needs so its p99 has ten samples beyond it.
const STEP_SAMPLES: f64 = 1_000.0;
/// How long the receiver waits for a straggler before counting the rest
/// of a phase's requests as missing.
const DRAIN: Duration = Duration::from_secs(2);
/// A phase has a growing backlog when the median latency of its last
/// quarter of requests exceeds this multiple of its first quarter's
/// (floored at 1 ms).
const BACKLOG_FACTOR: f64 = 4.0;
/// Epochs of the nominal Iris training in set-up.
const SETUP_EPOCHS: usize = 100;
/// Calls timed per in-memory probe (plan inference, codec).
const PROBE_CALLS: usize = 20_000;
/// Sequential in-process requests per block timed with tracing off and on,
/// and the number of off/on block pairs.
const OVERHEAD_CALLS: usize = 250;
const OVERHEAD_ROUNDS: usize = 4;

type Res<T> = Result<T, Box<dyn Error>>;
/// Response frames with the time each was read.
type Frames = Vec<(Instant, Vec<u8>)>;

/// A served model plus what the checks compare against.
pub struct Deployment {
    artifact: PnnArtifact,
    server: Arc<Server>,
    tcp: TcpServer,
    rows: Vec<Vec<f64>>,
    /// Direct single-row `InferencePlan` scores and class per row.
    expected: Vec<(Vec<f64>, usize)>,
}

impl Deployment {
    fn matches(&self, row: usize, scores: &[f64], class: usize) -> bool {
        let (want, want_class) = &self.expected[row];
        class == *want_class
            && scores.len() == want.len()
            && scores
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Shuts the TCP front and the server down.
    pub fn stop(&self) {
        self.tcp.shutdown();
        self.server.shutdown();
    }
}

fn deploy(seed: u64) -> Res<Deployment> {
    let surrogate = Arc::new(SurrogateModel::load(Path::new(SURROGATE))?);
    let iris = generators::iris();
    let (train, val, _) = iris.split(stats::splitmix64(seed));
    let train_config = TrainConfig {
        max_epochs: SETUP_EPOCHS,
        patience: SETUP_EPOCHS,
        n_train_mc: 1,
        n_val_mc: 1,
        parallel: ParallelConfig::serial(),
        ..TrainConfig::default()
    };
    let (pnn, _) = train_best_of_seeds(
        &PnnConfig::for_dataset(iris.num_features(), iris.num_classes),
        surrogate,
        &train_config,
        LabeledData::new(&train.features, &train.labels)?,
        LabeledData::new(&val.features, &val.labels)?,
        &[1 + stats::splitmix64(seed ^ 1) % 1_000],
    )?;
    let artifact = PnnArtifact::from_pnn(&pnn, MODEL)?;
    let config = ServeConfig::default();
    let mut registry = ModelRegistry::new(config.precision, config.max_batch);
    registry.insert(artifact.clone())?;
    let server = Arc::new(Server::start(&registry, config));
    let tcp = TcpServer::start(server.clone(), "127.0.0.1:0")?;

    let mut plan = InferencePlan::compile_artifact(&artifact)?;
    let rows: Vec<Vec<f64>> = (0..iris.len()).map(|i| iris.sample(i).to_vec()).collect();
    let mut expected = Vec::with_capacity(rows.len());
    for row in &rows {
        let x = Matrix::row_vector(row);
        let scores = plan.infer(&x)?.as_slice().to_vec();
        let class = plan.predict(&x)?[0];
        expected.push((scores, class));
    }
    Ok(Deployment {
        artifact,
        server,
        tcp,
        rows,
        expected,
    })
}

/// Evenly spaced due times (seconds from the phase start) at `rate` over
/// `duration`: paced arrivals, so latency reflects the serving path rather
/// than bursts of the generator's own making.
fn schedule(rate: f64, duration: f64) -> Vec<f64> {
    let n = (rate * duration).floor() as usize;
    (0..n).map(|i| (i as f64 + 0.5) / rate).collect()
}

/// Latency of each request from its due time: `received` holds
/// `(request id, seconds from phase start)`; a request without a response
/// reads as infinite, so it misses every limit.
fn latencies_from_due(due: &[f64], received: &[(u64, f64)]) -> Vec<f64> {
    let mut latency = vec![f64::INFINITY; due.len()];
    for &(id, at) in received {
        if let Some(slot) = latency.get_mut(id as usize) {
            *slot = at - due[id as usize];
        }
    }
    latency
}

/// Whether latencies (in request order) grow from the first quarter of a
/// phase to its last by more than [`BACKLOG_FACTOR`].
fn backlog_growing(latency: &[f64]) -> bool {
    let q = latency.len() / 4;
    if q == 0 {
        return false;
    }
    let first = stats::median(&latency[..q]).max(0.001);
    stats::median(&latency[latency.len() - q..]) > BACKLOG_FACTOR * first
}

/// The highest percentile with ten samples beyond it, in milliseconds.
fn tail_value(tail: Option<(f64, stats::Tail)>) -> Value {
    tail.map_or(Value::Null, |(q, t)| {
        object(vec![
            ("percentile", Value::F64(q)),
            ("ms", Value::F64(t.value * 1e3)),
            ("samples", Value::U64(t.samples as u64)),
            ("beyond", Value::U64(t.beyond as u64)),
        ])
    })
}

/// One open-loop phase's record.
#[derive(Debug, Default)]
struct Phase {
    rate: f64,
    /// Per request, from due time (open loop) or send (closed loop);
    /// infinite for a request without a correct answer.
    latency: Vec<f64>,
    /// How late the generator sent each request.
    late: Vec<f64>,
    /// Answers compared against the direct plan call.
    answered: u64,
    errors: u64,
    rejects: u64,
    wrong: u64,
}

impl Phase {
    fn sorted_latency(&self) -> Vec<f64> {
        stats::sorted(&self.latency)
    }

    fn p(&self, q: f64) -> stats::Tail {
        stats::percentile(&self.sorted_latency(), q).unwrap_or(stats::Tail {
            value: f64::INFINITY,
            samples: 0,
            beyond: 0,
        })
    }

    /// Requests that got no correct answer within the limit.
    fn misses(&self) -> u64 {
        self.latency.iter().filter(|&&l| l > LIMIT_S).count() as u64
    }

    /// Requests without a correct answer: missing, errors, rejects and
    /// wrong answers.
    fn failed(&self) -> u64 {
        self.latency.iter().filter(|l| l.is_infinite()).count() as u64
    }

    fn meets_limit(&self) -> bool {
        let p99 = self.p(99.0);
        p99.beyond >= stats::MIN_BEYOND
            && p99.value <= LIMIT_S
            && self.failed() == 0
            && !backlog_growing(&self.latency)
    }

    fn summary(&self) -> Value {
        let p99 = self.p(99.0);
        let tail = stats::highest_supported(&self.sorted_latency());
        let late = stats::sorted(&self.late);
        let late_p = |q| stats::percentile(&late, q).map_or(0.0, |t| t.value * 1e3);
        object(vec![
            ("rate_rps", Value::F64(self.rate)),
            ("samples", Value::U64(p99.samples as u64)),
            ("p50_ms", Value::F64(self.p(50.0).value * 1e3)),
            ("p99_ms", Value::F64(p99.value * 1e3)),
            ("p99_beyond", Value::U64(p99.beyond as u64)),
            ("tail", tail_value(tail)),
            ("late_p50_ms", Value::F64(late_p(50.0))),
            ("late_p99_ms", Value::F64(late_p(99.0))),
            ("late_max_ms", Value::F64(late_p(100.0))),
            ("limit_misses", Value::U64(self.misses())),
            ("failed", Value::U64(self.failed())),
            (
                "backlog_growing",
                Value::Bool(backlog_growing(&self.latency)),
            ),
            ("meets_limit", Value::Bool(self.meets_limit())),
        ])
    }
}

/// Sends paced arrivals at `rate` for `duration` seconds over one
/// connection, pipelined by id, and collects every response.
fn open_loop(d: &Deployment, rate: f64, duration: f64, rng: &mut StdRng, tag: u64) -> Res<Phase> {
    let due = schedule(rate, duration);
    let picks: Vec<usize> = due.iter().map(|_| rng.gen_range(0..d.rows.len())).collect();
    let stream = TcpStream::connect(d.tcp.local_addr())?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(DRAIN))?;
    let n = due.len();
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(duration) + DRAIN;
    let (late, frames) = std::thread::scope(|s| -> Res<(Vec<f64>, Frames)> {
        let receiver = s.spawn(move || {
            let mut frames = Vec::with_capacity(n);
            while frames.len() < n && Instant::now() < deadline {
                match read_frame(&mut reader) {
                    Ok(raw) => frames.push((Instant::now(), raw)),
                    Err(_) => break,
                }
            }
            frames
        });
        let mut writer = &stream;
        let mut late = Vec::with_capacity(n);
        for (id, (&at, &row)) in due.iter().zip(&picks).enumerate() {
            let at = start + Duration::from_secs_f64(at);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            late.push(Instant::now().saturating_duration_since(at).as_secs_f64());
            let request = WireRequest {
                id: id as u64,
                model: MODEL.into(),
                features: d.rows[row].clone(),
            };
            if write_frame(&mut writer, serde_json::to_string(&request)?.as_bytes()).is_err() {
                break;
            }
        }
        let frames = receiver.join().expect("the receiver thread does not panic");
        Ok((late, frames))
    })?;
    stream.shutdown(Shutdown::Both).ok();

    let mut phase = Phase {
        rate,
        late,
        ..Phase::default()
    };
    let mut received = Vec::with_capacity(frames.len());
    for (at, raw) in &frames {
        let Ok(response) = std::str::from_utf8(raw)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<WireResponse>(t).map_err(|e| e.to_string()))
        else {
            phase.errors += 1;
            continue;
        };
        let id = response.id as usize;
        if !response.ok {
            if response.error_kind == "overloaded" {
                phase.rejects += 1;
            } else {
                phase.errors += 1;
            }
            continue;
        }
        phase.answered += 1;
        if id >= n || !d.matches(picks[id], &response.scores, response.class) {
            phase.wrong += 1;
            continue;
        }
        received.push((response.id, at.duration_since(start).as_secs_f64()));
        trace::record(
            "serve.tcp_request",
            tag << 32 | response.id,
            start + Duration::from_secs_f64(due[id]),
            *at,
        );
    }
    phase.latency = latencies_from_due(&due, &received);
    Ok(phase)
}

/// Closed loop: one blocking `WireClient`, the next request sent when the
/// previous answer arrives.
fn closed_loop(d: &Deployment, duration: f64, rng: &mut StdRng) -> Res<Phase> {
    let mut client = WireClient::connect(d.tcp.local_addr())?;
    let start = Instant::now();
    let mut phase = Phase::default();
    while start.elapsed().as_secs_f64() < duration {
        let row = rng.gen_range(0..d.rows.len());
        let t = Instant::now();
        let rtt = match client.classify(MODEL, &d.rows[row]) {
            Ok(Scored { scores, class }) => {
                phase.answered += 1;
                let ok = d.matches(row, &scores, class);
                phase.wrong += u64::from(!ok);
                if ok {
                    t.elapsed().as_secs_f64()
                } else {
                    f64::INFINITY
                }
            }
            Err(_) => {
                phase.errors += 1;
                f64::INFINITY
            }
        };
        phase.latency.push(rtt);
    }
    Ok(phase)
}

/// The rate ladder: returns the highest passing rate and every step.
fn ladder(d: &Deployment, rng: &mut StdRng) -> Res<(f64, Vec<Phase>)> {
    let mut steps = Vec::new();
    // A rate passes when two of up to three attempts meet the limit, so
    // one stall near the delayed-ACK tail neither ends the climb nor
    // passes a rate the server cannot sustain.
    let mut step = |rate: f64, steps: &mut Vec<Phase>| -> Res<bool> {
        let duration = (STEP_SAMPLES * 1.2 / rate).max(1.0);
        let (mut passed, mut failed) = (0, 0);
        while passed < 2 && failed < 2 {
            let phase = open_loop(d, rate, duration, rng, 0)?;
            if phase.meets_limit() {
                passed += 1;
            } else {
                failed += 1;
            }
            steps.push(phase);
            std::thread::sleep(Duration::from_millis(100));
        }
        Ok(passed == 2)
    };
    let (mut lo, mut hi) = (None::<f64>, None::<f64>);
    let mut rate = LADDER_START_RPS;
    while rate <= LADDER_MAX_RPS {
        if step(rate, &mut steps)? {
            lo = Some(rate);
            rate *= 2.0;
        } else {
            hi = Some(rate);
            break;
        }
    }
    if lo.is_none() {
        rate = LADDER_START_RPS / 2.0;
        while rate >= LADDER_MIN_RPS {
            if step(rate, &mut steps)? {
                lo = Some(rate);
                break;
            }
            hi = Some(rate);
            rate /= 2.0;
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        for _ in 0..BISECTIONS {
            let mid = (l * h).sqrt();
            if step(mid, &mut steps)? {
                l = mid;
            } else {
                h = mid;
            }
        }
        lo = Some(l);
    }
    Ok((lo.unwrap_or(0.0), steps))
}

/// The phase's set-up: trains, compiles and serves the Iris model. The
/// caller stops the returned deployment or hands it to [`run`].
pub fn setup(ctx: &Ctx) -> Res<Deployment> {
    deploy(ctx.seed)
}

/// Runs the phase on a deployment from [`setup`], which it stops; returns
/// the outcome and the phase parameters.
pub fn run(ctx: &Ctx, d: Deployment) -> Res<(Outcome, Vec<(String, Value)>)> {
    let config = ServeConfig::default();
    let params = vec![
        ("model".to_string(), Value::Str(MODEL.into())),
        ("max_batch".to_string(), Value::U64(config.max_batch as u64)),
        (
            "max_wait_us".to_string(),
            Value::U64(config.max_wait.as_micros() as u64),
        ),
        (
            "worker_threads".to_string(),
            Value::U64(config.worker_threads as u64),
        ),
        ("limit_p99_ms".to_string(), Value::F64(LIMIT_S * 1e3)),
        ("low_rps".to_string(), Value::F64(LOW_RPS)),
        ("high_rps".to_string(), Value::F64(HIGH_RPS)),
        ("arrivals".to_string(), Value::Str("paced".into())),
    ];
    let mut rng = StdRng::seed_from_u64(stats::splitmix64(ctx.seed ^ 2));
    let mut out = Outcome::default();
    let result = if ctx.trace {
        traced(ctx, &mut out, &d, &mut rng)
    } else {
        untraced(ctx, &mut out, &d, &mut rng)
    };
    d.stop();
    result?;
    Ok((out, params))
}

/// Adds phases to the run's counts. In a fixed-rate phase every request
/// without a correct answer failed; ladder steps past the limit leave
/// requests unanswered by design, so only their errors, rejects and wrong
/// answers count.
fn tally(out: &mut Outcome, phases: &[&Phase], ladder: bool) {
    for p in phases {
        out.attempted += p.latency.len() as u64;
        out.failed += if ladder {
            p.errors + p.rejects + p.wrong
        } else {
            p.failed()
        };
    }
}

fn check_responses(out: &mut Outcome, phases: &[&Phase], extra_wrong: u64, extra: u64) {
    let wrong = extra_wrong + phases.iter().map(|p| p.wrong).sum::<u64>();
    let answered = extra + phases.iter().map(|p| p.answered).sum::<u64>();
    out.check(
        "responses_bit_identical",
        wrong == 0 && answered > 0,
        format!("{wrong} of {answered} answers differ from a direct InferencePlan call"),
    );
}

fn untraced(ctx: &Ctx, out: &mut Outcome, d: &Deployment, rng: &mut StdRng) -> Res<()> {
    let s = ctx.seconds;
    let closed = closed_loop(d, 0.3 * s, rng)?;
    let low = open_loop(d, LOW_RPS, 0.5 * s, rng, 0)?;
    let high = open_loop(d, HIGH_RPS, 0.2 * s, rng, 0)?;
    let phases = [&closed, &low, &high];
    tally(out, &phases, false);
    check_responses(out, &phases, 0, 0);

    out.metric("serve.rtt_p50_ms", closed.p(50.0).value * 1e3, "ms");
    out.metric("serve.low.p50_ms", low.p(50.0).value * 1e3, "ms");
    out.detail("closed_loop", closed.summary());
    out.detail("low", low.summary());
    out.detail("high", high.summary());
    Ok(())
}

/// Median seconds per call of `f`, run `calls` times with a span each.
fn probe(name: &'static str, calls: usize, mut f: impl FnMut() -> bool) -> (f64, u64) {
    let mut times = Vec::with_capacity(calls);
    let mut wrong = 0;
    for i in 0..calls {
        let t = Instant::now();
        let ok = trace::span(name, i as u64, &mut f);
        times.push(t.elapsed().as_secs_f64());
        wrong += u64::from(!ok);
    }
    (stats::median(&times), wrong)
}

fn traced(ctx: &Ctx, out: &mut Outcome, d: &Deployment, rng: &mut StdRng) -> Res<()> {
    let s = ctx.seconds;
    trace::set_enabled(true);
    let low = open_loop(d, LOW_RPS, 0.2 * s, rng, 1)?;
    let high = open_loop(d, HIGH_RPS, 0.1 * s, rng, 2)?;
    let high_p50 = high.p(50.0).value;
    tally(out, &[&low, &high], false);

    // The blocking path, measured in-process on this thread.
    let before = pnc_obs::snapshot();
    let wall_start = Instant::now();
    let (classify, infer, codec, classify_wrong, in_process) = trace::span(
        "serve.in_process",
        0,
        || -> Res<(f64, f64, f64, u64, u64)> {
            let due = schedule(HIGH_RPS, 0.1 * s);
            let start = Instant::now();
            let (mut times, mut bad) = (Vec::with_capacity(due.len()), 0u64);
            for (i, &at) in due.iter().enumerate() {
                let at = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let row = rng.gen_range(0..d.rows.len());
                let t = Instant::now();
                let got = trace::span("serve.classify", i as u64, || {
                    d.server.classify(MODEL, &d.rows[row])
                });
                times.push(t.elapsed().as_secs_f64());
                bad += u64::from(!got.is_ok_and(|r| d.matches(row, &r.scores, r.class)));
            }
            let mut plan = CompiledPnn::compile_artifact(&d.artifact, PlanPrecision::F64, 1)?;
            let mut y = Matrix::zeros(1, d.expected[0].0.len());
            let rows: Vec<Matrix> = d.rows.iter().map(|r| Matrix::row_vector(r)).collect();
            let mut k = 0;
            let (infer, infer_bad) = probe("core.infer", PROBE_CALLS, || {
                k = (k + 1) % rows.len();
                plan.infer_into(&rows[k], &mut y).is_ok()
                    && d.matches(k, y.as_slice(), d.expected[k].1)
            });
            let (codec, codec_bad) = probe("serve.codec", PROBE_CALLS, || {
                k = (k + 1) % rows.len();
                codec_cycle(d, k)
            });
            Ok((
                stats::median(&times),
                infer,
                codec,
                bad + infer_bad + codec_bad,
                due.len() as u64,
            ))
        },
    )?;
    let wall = wall_start.elapsed().as_nanos() as u64;
    let after = pnc_obs::snapshot();
    let mut wrong = classify_wrong;
    let mut checked = in_process + 2 * PROBE_CALLS as u64;

    // Tracing overhead on sequential in-process requests, untraced and
    // traced blocks interleaved so drift in the machine's load cancels.
    let mut overhead_walls = [0.0f64; 2];
    for round in 0..OVERHEAD_ROUNDS {
        for (slot, on) in [false, true].into_iter().enumerate() {
            trace::set_enabled(on);
            let t = Instant::now();
            for i in 0..OVERHEAD_CALLS {
                let row = (round * OVERHEAD_CALLS + i) % d.rows.len();
                let got = trace::span("serve.classify_seq", i as u64, || {
                    d.server.classify(MODEL, &d.rows[row])
                });
                wrong += u64::from(!got.is_ok_and(|r| d.matches(row, &r.scores, r.class)));
            }
            overhead_walls[slot] += t.elapsed().as_secs_f64();
            checked += OVERHEAD_CALLS as u64;
        }
    }
    trace::set_enabled(false);
    out.attempted += checked;
    out.failed += wrong;

    // The rate ladder, untraced.
    let (max_rps, steps) = ladder(d, rng)?;
    let step_refs: Vec<&Phase> = steps.iter().collect();
    tally(out, &step_refs, true);
    let mut all = vec![&low, &high];
    all.extend(step_refs);
    check_responses(out, &all, wrong, checked);

    let spans = trace::take();
    let selfs = trace::self_times(&spans);
    let root = spans
        .iter()
        .find(|s| s.name == "serve.in_process")
        .ok_or("the in-process section recorded no span")?;
    let ratio = trace::self_sum_ratio(&spans, &selfs, root.id, wall);
    crate::check_self_sum(out, &[ratio]);

    let delta = |name: &str| {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    };
    out.metric("core.infer_s", infer, "s");
    out.metric("serve.classify_s", classify, "s");
    out.metric("serve.wait_s", classify - infer, "s");
    out.metric(
        "serve.rows_per_batch",
        delta("serve.responses") / delta("serve.batches").max(1.0),
        "ratio",
    );
    out.metric("serve.wire_s", high_p50 - classify, "s");
    out.metric("serve.codec_s", codec, "s");
    out.metric(
        "serve.rejects.overload",
        pnc_obs::snapshot()
            .counter("serve.rejects.overload")
            .unwrap_or(0) as f64,
        "count",
    );
    out.metric("serve.high.p50_ms", high_p50 * 1e3, "ms");
    for (name, phase) in [("low", &low), ("high", &high)] {
        let p99 = phase.p(99.0);
        out.metric(&format!("serve.{name}.p99_ms"), p99.value * 1e3, "ms");
        let late = stats::sorted(&phase.late);
        let late_p99 = stats::percentile(&late, 99.0).map_or(0.0, |t| t.value);
        out.metric(&format!("serve.{name}.late_p99_ms"), late_p99 * 1e3, "ms");
        out.detail(name, phase.summary());
    }
    out.metric("serve.max_rps", max_rps, "1/s");
    out.detail(
        "ladder",
        Value::Array(steps.iter().map(Phase::summary).collect()),
    );
    out.metric(
        "trace.overhead_ratio",
        overhead_walls[1] / overhead_walls[0],
        "ratio",
    );
    out.metric("trace.self_sum_ratio", ratio, "ratio");
    out.metric(
        "fail_ratio",
        (out.failed + low.misses() + high.misses()) as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    trace::write_jsonl(
        &ctx.work.join(format!("trace-serve-seed{}.jsonl", ctx.seed)),
        &spans,
    )?;
    Ok(())
}

/// One request's JSON and framing round trip in memory, both directions,
/// as client and server do it; true when the scores survive bit for bit.
fn codec_cycle(d: &Deployment, row: usize) -> bool {
    let request = WireRequest {
        id: row as u64,
        model: MODEL.into(),
        features: d.rows[row].clone(),
    };
    let Ok(payload) = serde_json::to_string(&request) else {
        return false;
    };
    let mut wire = Vec::new();
    if write_frame(&mut wire, payload.as_bytes()).is_err() {
        return false;
    }
    let Ok(raw) = read_frame(&mut wire.as_slice()) else {
        return false;
    };
    let Ok(parsed) = serde_json::from_str::<WireRequest>(&String::from_utf8_lossy(&raw)) else {
        return false;
    };
    let (scores, class) = d.expected[row].clone();
    let response = WireResponse::success(parsed.id, Scored { scores, class });
    let Ok(payload) = serde_json::to_string(&response) else {
        return false;
    };
    wire.clear();
    if write_frame(&mut wire, payload.as_bytes()).is_err() {
        return false;
    }
    let Ok(raw) = read_frame(&mut wire.as_slice()) else {
        return false;
    };
    serde_json::from_str::<WireResponse>(&String::from_utf8_lossy(&raw))
        .is_ok_and(|r| d.matches(row, &r.scores, r.class))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        // Requests due every 10 ms; the server stalls 40 ms on the second
        // and answers the queue behind it in a burst.
        let due = [0.000, 0.010, 0.020, 0.030];
        let received = [(0, 0.001), (1, 0.051), (2, 0.0515), (3, 0.052)];
        let latency = latencies_from_due(&due, &received);
        let want = [0.001, 0.041, 0.0315, 0.022];
        for (got, want) in latency.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        // A request never answered misses every limit.
        let latency = latencies_from_due(&due, &received[..3]);
        assert!(latency[3].is_infinite());
        let phase = Phase {
            latency,
            ..Phase::default()
        };
        assert_eq!(phase.failed(), 1);
        assert_eq!(phase.misses(), 1);
    }

    #[test]
    fn backlog_is_a_growing_latency() {
        let steady: Vec<f64> = (0..100).map(|i| 0.002 + (i % 3) as f64 * 1e-4).collect();
        assert!(!backlog_growing(&steady));
        let growing: Vec<f64> = (0..100).map(|i| 0.001 * f64::from(i)).collect();
        assert!(backlog_growing(&growing));
    }

    #[test]
    fn schedule_is_paced_at_its_rate() {
        let due = schedule(1_000.0, 2.0);
        assert_eq!(due.len(), 2_000);
        assert!(due.windows(2).all(|w| (w[1] - w[0] - 1e-3).abs() < 1e-12));
        assert!(due[1_999] < 2.0);
    }
}
