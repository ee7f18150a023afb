//! The pipeline benchmark: one command, two workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_models --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every workload runs the whole pipeline in one process, phase after
//! phase: `characterize` (Sobol ω → SPICE sweep → ptanh fit → on-disk
//! store), `tab2` (Tab. II rows) and `serve` (framed-TCP serving of a
//! compiled Iris pNN). The workloads differ in the datasets of the Tab. II
//! phase: `small_models` trains on Iris and Seeds, `large_models` on
//! Tic-Tac-Toe Endgame and Cardiotocography. `--workload all` runs each in
//! its own child process. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced replay and prints the per-layer metrics.
//! The last line of standard output is the result object; the line before
//! it is the full report (provenance, checks, details), also written to
//! `.perfbench/`. `--compare A B` reads two files of result lines and
//! applies the bounds in `BENCHMARK.json`. See `perfbench/WORKLOADS.md`.

mod characterize;
mod report;
mod serve;
mod stats;
mod tab2;
mod trace;

use pnc_datasets::{generators, Dataset};
use report::{Outcome, Provenance};
use serde::Value;
use std::error::Error;
use std::path::PathBuf;
use std::time::Instant;

/// Settings every phase receives.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Seconds the phase measures for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for stores, span traces and reports.
    pub work: PathBuf,
}

/// Times every phase's set-up runs at the start of each phase. Each phase
/// thus sets up `SETUP_ROUNDS` × 3 times at three points of the run; the
/// medians of the phases' set-up times are summed into `setup_s`.
const SETUP_ROUNDS: usize = 3;

/// A phase, set up and ready to run.
enum Ready {
    Characterize,
    Tab2(tab2::Ready),
    Serve(Box<serve::Deployment>),
}

impl Ready {
    fn set_up(phase: &str, ctx: &Ctx, workload: &Workload) -> Result<Ready, Box<dyn Error>> {
        Ok(match phase {
            "characterize" => {
                characterize::setup(ctx)?;
                Ready::Characterize
            }
            "tab2" => Ready::Tab2(tab2::setup(workload.datasets)?),
            "serve" => Ready::Serve(Box::new(serve::setup(ctx)?)),
            other => unreachable!("phase {other} is listed"),
        })
    }

    /// Releases a set-up that will not run.
    fn discard(self) {
        if let Ready::Serve(d) = self {
            d.stop();
        }
    }

    fn run(self, ctx: &Ctx, workload: &Workload) -> Result<(Outcome, Params), Box<dyn Error>> {
        match self {
            Ready::Characterize => characterize::run(ctx),
            Ready::Tab2(ready) => tab2::run(ctx, ready, workload.splits),
            Ready::Serve(d) => serve::run(ctx, *d),
        }
    }
}

/// A phase's parameters, for the provenance block.
type Params = Vec<(String, Value)>;

/// Largest gap allowed between the summed self times of a traced section
/// and the wall time measured around it, as a share of that wall time.
pub const SELF_SUM_TOLERANCE: f64 = 0.02;

/// Checks that the self times of the spans on the blocking path add up to
/// the traced wall time (one ratio per traced section).
pub fn check_self_sum(out: &mut Outcome, ratios: &[f64]) {
    let worst = ratios.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max);
    out.check(
        "trace_self_sum",
        !ratios.is_empty() && worst <= SELF_SUM_TOLERANCE,
        format!(
            "{} traced sections; worst |self-time sum / wall - 1| = {worst:.5} \
             (tolerance {SELF_SUM_TOLERANCE})",
            ratios.len()
        ),
    );
}

/// A workload: the whole pipeline, with these datasets in its Tab. II
/// phase, each at `splits` train/validation/test splits.
struct Workload {
    name: &'static str,
    datasets: fn() -> Vec<Dataset>,
    splits: usize,
}

/// Iris and Seeds rows take under 3 s a split and their accuracies move a
/// lot from one split to the next, so `small_models` averages eight splits.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "small_models",
        datasets: || vec![generators::iris(), generators::seeds()],
        splits: 8,
    },
    Workload {
        name: "large_models",
        datasets: || vec![generators::tic_tac_toe(), generators::cardiotocography()],
        splits: 1,
    },
];

/// The phases of every workload, in run order, with their shares of
/// `--seconds`. The Tab. II phase runs at least one whole slice, which
/// takes longer than its share on `large_models`.
const PHASES: [(&str, f64); 3] = [("characterize", 0.4), ("tab2", 0.45), ("serve", 0.15)];

/// The traced serving phase's share of `--seconds`, larger than the
/// untraced one's so that its tail percentiles rest on enough samples.
const TRACED_SERVE_SHARE: f64 = 0.6;

/// How a metric that more than one phase reports becomes the run's.
fn combine(name: &str, values: &[f64]) -> f64 {
    match name {
        // The worst phase.
        "fail_ratio" | "trace.overhead_ratio" => values.iter().copied().fold(f64::MIN, f64::max),
        // The phase furthest from a perfect sum.
        "trace.self_sum_ratio" => values
            .iter()
            .copied()
            .max_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()))
            .unwrap_or(1.0),
        // Any other metric: the last phase's.
        _ => values[values.len() - 1],
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {names:?} or all, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<bool, Box<dyn Error>> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("the workload was validated");
    let env = report::pnc_env();
    // The single-core target: characterization and training run on one
    // thread whatever the caller's environment says (recorded above).
    std::env::set_var("PNC_NUM_THREADS", "1");
    let work = PathBuf::from(".perfbench").join(workload.name);
    std::fs::create_dir_all(&work)?;
    trace::set_enabled(false);
    let mut outcome = Outcome::default();
    let mut params = Vec::new();
    let mut setup_times = vec![Vec::new(); PHASES.len()];
    for (i, (phase, share)) in PHASES.into_iter().enumerate() {
        let seconds = if args.trace && phase == "serve" {
            TRACED_SERVE_SHARE
        } else {
            share
        };
        let ctx = Ctx {
            seed: args.seed,
            seconds: seconds * args.seconds as f64,
            trace: args.trace,
            work: work.clone(),
        };
        // Every phase's set-up, this phase's last: the host's load moves
        // within a run, and set-ups spread over it see more of that load
        // than one burst would.
        let mut ready = None;
        for j in (0..PHASES.len()).filter(|&j| j != i).chain([i]) {
            for round in 0..SETUP_ROUNDS {
                let t = Instant::now();
                let r = Ready::set_up(PHASES[j].0, &ctx, workload)?;
                setup_times[j].push(t.elapsed().as_secs_f64());
                if j == i && round + 1 == SETUP_ROUNDS {
                    ready = Some(r);
                } else {
                    r.discard();
                }
            }
        }
        let ready = ready.expect("the phase's own set-up runs last");
        let (phase_outcome, phase_params) = ready.run(&ctx, workload)?;
        outcome.absorb(phase, phase_outcome);
        params.push((phase.to_string(), Value::Object(phase_params)));
    }
    if !args.trace {
        let medians: Vec<f64> = setup_times.iter().map(|t| stats::median(t)).collect();
        outcome.metric("setup_s", medians.iter().sum(), "s");
        outcome.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
        let by_phase = PHASES
            .iter()
            .zip(&medians)
            .map(|((phase, _), &m)| (phase.to_string(), Value::F64(m)))
            .collect();
        outcome.detail("setup_s_by_phase", Value::Object(by_phase));
    }
    outcome.combine_shared(combine);
    let provenance = Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        env,
        params,
    };
    let report = outcome.report(provenance.to_value());
    let report_text = serde_json::to_string(&report)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(work.join(format!("{stem}.json")), &report_text)?;
    println!("{report_text}");
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut correct = true;
    for workload in WORKLOADS.map(|w| w.name) {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        println!("{workload}: {last}");
        correct &= output.status.success() && last.contains("\"correct\":true");
    }
    println!("{{\"all_correct\":{correct}}}");
    Ok(correct)
}

/// Metric values of every result line in a file, by metric name.
fn read_runs(path: &str) -> Result<std::collections::BTreeMap<String, Vec<f64>>, Box<dyn Error>> {
    let mut out: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for line in std::fs::read_to_string(path)?.lines() {
        let Ok(Value::Object(fields)) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let Some((_, Value::Object(metrics))) = fields.iter().find(|(k, _)| k == "metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let Value::Object(m) = m else { continue };
            let value = m
                .iter()
                .find(|(k, _)| k == "value")
                .and_then(|(_, v)| match v {
                    Value::F64(x) => Some(*x),
                    Value::U64(x) => Some(*x as f64),
                    Value::I64(x) => Some(*x as f64),
                    _ => None,
                });
            if let Some(v) = value {
                out.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Prints, per end-to-end metric, both sets' medians and spreads and
/// whether the second set stays within the metric's bound. Returns false
/// when a spread (other than `setup_s`'s) or a worsening exceeds a bound.
fn compare(base: &str, candidate: &str) -> Result<bool, Box<dyn Error>> {
    let bench: Value = serde_json::from_str(&std::fs::read_to_string("BENCHMARK.json")?)?;
    let Value::Object(bench) = bench else {
        return Err("BENCHMARK.json is not an object".into());
    };
    let Some((_, Value::Array(end_to_end))) = bench.iter().find(|(k, _)| k == "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let (a, b) = (read_runs(base)?, read_runs(candidate)?);
    let mut ok = true;
    for metric in end_to_end {
        let Value::Object(fields) = metric else {
            continue;
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (Some(Value::Str(name)), Some(Value::Str(better)), Some(bound)) =
            (get("name"), get("better"), get("bound"))
        else {
            continue;
        };
        let bound = match bound {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
            _ => continue,
        };
        let better = stats::Better::parse(better).ok_or("better must be lower or higher")?;
        let (Some(va), Some(vb)) = (a.get(name), b.get(name)) else {
            continue;
        };
        let (sa, sb) = (
            stats::spread(va).unwrap_or(f64::NAN),
            stats::spread(vb).unwrap_or(f64::NAN),
        );
        let worse = stats::worsening(va, vb, better);
        let spread_ok = name == "setup_s" || (sa <= bound && sb <= bound);
        let pass = spread_ok && stats::within_bound(va, vb, better, bound);
        ok &= pass;
        println!(
            "{name:<20} median {:>12.6} -> {:>12.6}  spread {:.4} / {:.4}  worse {:+.4}  bound {bound}  {}",
            stats::median(va),
            stats::median(vb),
            sa,
            sb,
            worse,
            if pass { "ok" } else { "FAIL" }
        );
    }
    Ok(ok)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if raw.first().map(String::as_str) == Some("--compare") {
        match raw.as_slice() {
            [_, a, b] => compare(a, b),
            _ => Err("usage: --compare <base runs> <candidate runs>".into()),
        }
    } else {
        match parse_args(&raw) {
            Ok(args) if args.workload == "all" => run_all(&args),
            Ok(args) => run_workload(&args),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: an output check or bound failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
