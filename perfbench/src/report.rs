//! What one run reports: metrics with units, output checks, details and
//! provenance, printed as JSON.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (points, cells or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Informational values for the report line (parameters, sample
    /// counts, digests).
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    /// Adds an informational value.
    pub fn detail(&mut self, name: &str, value: Value) {
        self.details.push((name.to_string(), value));
    }

    /// Adds a phase's outcome to this one: counts add up, check and detail
    /// names take the phase as prefix, and the phase's metrics are kept
    /// both in order and, under `<phase>.metrics`, in the details.
    pub fn absorb(&mut self, phase: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let by_phase = other
            .metrics
            .iter()
            .map(|(name, value, _)| (name.clone(), Value::F64(*value)))
            .collect();
        self.details
            .push((format!("{phase}.metrics"), Value::Object(by_phase)));
        self.metrics.extend(other.metrics);
        self.checks.extend(
            other
                .checks
                .into_iter()
                .map(|(name, ok, detail)| (format!("{phase}.{name}"), ok, detail)),
        );
        self.details.extend(
            other
                .details
                .into_iter()
                .map(|(name, value)| (format!("{phase}.{name}"), value)),
        );
    }

    /// Merges metrics reported more than once into one, at the place of
    /// the first, with the value `combine(name, values)` gives.
    pub fn combine_shared(&mut self, combine: impl Fn(&str, &[f64]) -> f64) {
        let mut merged: Vec<(String, f64, &'static str)> = Vec::new();
        for (name, _, unit) in &self.metrics {
            if merged.iter().any(|(n, _, _)| n == name) {
                continue;
            }
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .collect();
            let value = if values.len() == 1 {
                values[0]
            } else {
                combine(name, &values)
            };
            merged.push((name.clone(), value, unit));
        }
        self.metrics = merged;
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`
    /// (each with its value and unit).
    fn result(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(*value)),
                        ("unit".into(), Value::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// The result object as one line of JSON.
    pub fn result_line(&self) -> String {
        serde_json::to_string(&self.result()).expect("a Value always serializes")
    }

    /// The full report: provenance, checks, details and the result.
    pub fn report(&self, provenance: Value) -> Value {
        let checks = self
            .checks
            .iter()
            .map(|(name, ok, detail)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("passed".into(), Value::Bool(*ok)),
                    ("detail".into(), Value::Str(detail.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("provenance".into(), provenance),
            ("checks".into(), Value::Array(checks)),
            ("details".into(), Value::Object(self.details.clone())),
            ("result".into(), self.result()),
        ])
    }
}

/// Shorthand for a string value.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Shorthand for an object value.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Where the run came from: source revision, inputs, knobs and machine.
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Every `PNC_*` variable as the process found it, before pinning.
    pub env: BTreeMap<String, String>,
    /// Workload parameters.
    pub params: Vec<(String, Value)>,
}

impl Provenance {
    /// Serializes with the revision and machine facts read now.
    pub fn to_value(&self) -> Value {
        let env = self
            .env
            .iter()
            .map(|(k, v)| (k.clone(), text(v.clone())))
            .collect();
        object(vec![
            ("revision", text(git_revision(Path::new(".")))),
            ("workload", text(self.workload.clone())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::U64(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("params", Value::Object(self.params.clone())),
            ("pnc_env", Value::Object(env)),
            ("nproc", Value::U64(logical_threads() as u64)),
            ("physical_cores", Value::U64(physical_cores() as u64)),
        ])
    }
}

/// Every `PNC_*` environment variable, sorted by name.
pub fn pnc_env() -> BTreeMap<String, String> {
    std::env::vars()
        .filter(|(k, _)| k.starts_with("PNC_"))
        .collect()
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree without `.git` reports `unknown`.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to the process.
pub fn logical_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical cores: distinct `(physical id, core id)` pairs in
/// `/proc/cpuinfo`, or the logical count where that file says nothing.
pub fn physical_cores() -> usize {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return logical_threads();
    };
    let mut cores = std::collections::BTreeSet::new();
    let (mut package, mut core) = (None::<u64>, None::<u64>);
    for line in info.lines().chain(std::iter::once("")) {
        if line.trim().is_empty() {
            if let (Some(p), Some(c)) = (package.take(), core.take()) {
                cores.insert((p, c));
            }
            continue;
        }
        if let Some((key, value)) = line.split_once(':') {
            match key.trim() {
                "physical id" => package = value.trim().parse().ok(),
                "core id" => core = value.trim().parse().ok(),
                _ => {}
            }
        }
    }
    if cores.is_empty() {
        logical_threads()
    } else {
        cores.len()
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    pnc_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}
