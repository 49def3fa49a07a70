//! Result reporting and the small statistics the workloads share.

use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: the last line the benchmark prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// A result; it is correct when no answer failed.
    pub fn new(attempted: usize, failed: usize, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The result line. Values are printed with every digit measured.
    pub fn render(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: impl Into<String>, n: f64) {
        self.push(name, n, "count");
    }
}

/// The end-to-end measurements every workload reports.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    /// Time to verdict of every request (ms).
    pub verdicts: &'a [f64],
    pub verdicts_per_s: f64,
    pub states_per_s: f64,
    pub states_generated: usize,
    /// Requests answered from the cache (ms).
    pub hits: &'a [f64],
    /// Requests that explored (ms).
    pub misses: &'a [f64],
    pub goodput_rps: f64,
    pub peak_rss_mb: f64,
    pub ok_share: f64,
}

impl EndToEnd<'_> {
    /// The `end_to_end` metrics of `BENCHMARK.json`, in its order.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let mut m = Metrics::default();
        m.push("setup_s", self.setup_s, "s");
        m.push("verdict_p50_ms", median_of(self.verdicts, "verdict")?, "ms");
        m.push(
            "verdict_p99_ms",
            tail("verdict", self.verdicts, 0.99)?,
            "ms",
        );
        m.push("verdicts_per_s", self.verdicts_per_s, "1/s");
        m.push("states_per_s", self.states_per_s, "1/s");
        m.count("states_generated", self.states_generated as f64);
        m.push("hit_p50_ms", median_of(self.hits, "hit")?, "ms");
        m.push("hit_p99_ms", tail("hit", self.hits, 0.99)?, "ms");
        m.push("miss_p50_ms", median_of(self.misses, "miss")?, "ms");
        m.push("miss_p90_ms", tail("miss", self.misses, 0.90)?, "ms");
        m.push("goodput_rps", self.goodput_rps, "1/s");
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.push("ok_share", self.ok_share, "ratio");
        Ok(m.0)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated
/// between closest ranks; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The `q`-quantile of `samples`, which must have at least ten samples
/// beyond it (the highest percentile a run may report).
pub fn tail(name: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    let beyond = (samples.len() as f64 * (1.0 - q)).floor() as usize;
    if beyond < 10 {
        return Err(format!(
            "{name}: {} samples leave {beyond} beyond the {q} quantile; at least 10 are needed",
            samples.len()
        ));
    }
    Ok(quantile(samples, q).expect("non-empty"))
}

pub fn median_of(samples: &[f64], name: &str) -> Result<f64, String> {
    quantile(samples, 0.5).ok_or_else(|| format!("{name}: no samples"))
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Times `f`, returning its result and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Set-ups per run; the median time is reported.
pub const SETUP_REPEATS: usize = 5;

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result and the median
/// time, each time multiplied by the mean of what `factor` returns just
/// before and just after it (a host-speed adjustment, or 1).
pub fn repeated_setup<T>(
    mut factor: impl FnMut() -> f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let before = factor();
        let (out, d) = timed(&mut setup);
        times.push(d.as_secs_f64() * (before + factor()) / 2.0);
        last = Some(out?);
    }
    let median = quantile(&times, 0.5).expect("set up at least once");
    Ok((last.expect("set up at least once"), median))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail("x", &s, 0.99).is_err());
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail("x", &s, 0.99).is_ok());
    }
}
