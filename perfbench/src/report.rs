//! The result line, the statistics behind it, and the host context
//! printed with every result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What one benchmark invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Every outcome checked out: no failures, exact repeats.
    pub correct: bool,
    /// Vehicles simulated.
    pub attempted: u64,
    /// Stranded vehicles plus vehicles named in a safety violation.
    pub failed: u64,
    /// The pass's metrics.
    pub metrics: Vec<Metric>,
}

impl BenchResult {
    /// The one-line JSON object the benchmark prints last. A non-finite
    /// value cannot be written as JSON, so it marks the result incorrect
    /// and is written as 0.
    #[must_use]
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut body = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and always marks a float ("3.0").
            let _ = write!(
                body,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed
        )
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`; 0 for none.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// `num / den`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 if the kernel
/// does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores this process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the working directory, when it is a git
/// work tree root; `unknown` otherwise (e.g. an exported source tree).
#[must_use]
pub fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// The host context line printed before every result.
#[must_use]
pub fn host_context(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "# host nproc={} rustc=\"{}\" profile={} commit={} workload={workload} seed={seed} seconds={seconds} trace={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
        u8::from(trace),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let result = BenchResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("run_s", "s", 1.0),
                Metric::new("x", "count", 0.25),
            ],
        };
        let parsed = crossroads_metrics::parse_json(&result.to_json()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("run_s"))
                .and_then(|r| r.get("value")),
            Some(&crossroads_metrics::JsonValue::Number(1.0))
        );
        let poisoned = BenchResult {
            metrics: vec![Metric::new("x", "s", f64::NAN)],
            ..result
        };
        assert!(poisoned.to_json().starts_with("{\"correct\": false"));
    }
}
