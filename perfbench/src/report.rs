//! Metric bookkeeping, percentiles and the result line.

use serde_json::Value;

/// One run's verdict and numbers, printed as the last line of stdout.
pub struct Outcome {
    /// Every checked answer matched its oracle.
    pub correct: bool,
    /// Operations the run attempted (requests sent, pattern runs made).
    pub attempted: u64,
    /// Attempted operations that did not succeed (rejected, errored or
    /// wrong).
    pub failed: u64,
    pub metrics: Metrics,
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| n == name) {
            *slot = (name.to_string(), value, unit);
        } else {
            self.0.push((name.to_string(), value, unit));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

impl Outcome {
    /// Prints every metric by name and unit, then the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in self.metrics.iter() {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(*value)),
                        ("unit".to_string(), Value::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("result line serialises")
        );
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`.
///
/// A percentile is only defined here when at least ten samples lie beyond
/// it (so p99 needs 1000 samples, p90 needs 100, p50 needs 20); with fewer
/// the call fails instead of reporting a number the sample cannot support.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let needed = (10.0 / (1.0 - p / 100.0) - 1e-9).ceil() as usize;
    if samples.len() < needed {
        return Err(format!(
            "p{p} needs at least {needed} samples, got {}",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Splits `samples` into as many consecutive windows of at least `window`
/// samples as it holds, takes percentile `p` of each and returns the median
/// window. One burst then moves one window, not the reported figure. Every
/// window obeys the rule of [`percentile`]; a sample shorter than one
/// window is an error.
pub fn windowed_percentile(samples: &[f64], window: usize, p: f64) -> Result<f64, String> {
    let windows = samples.len() / window;
    if windows == 0 {
        return Err(format!(
            "{} samples are fewer than one {window}-sample window",
            samples.len()
        ));
    }
    let size = samples.len() / windows;
    let per_window = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            percentile(&samples[w * size..end], p)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&per_window))
}

/// The median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `min / median / max` of a non-empty sample of seconds, for the log.
pub fn spread(secs: &[f64]) -> String {
    let min = secs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = secs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("min {min:.3} / median {:.3} / max {max:.3} s", median(secs))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_refuse_thin_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert!(percentile(&hundred, 99.0).is_err());
        assert_eq!(percentile(&hundred[..20], 50.0), Ok(10.0));
        assert!(percentile(&hundred[..19], 50.0).is_err());
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        samples[500] = 1e9; // a burst in the first window only
        assert_eq!(windowed_percentile(&samples, 1000, 99.0), Ok(989.0));
        // 2500 samples make two windows of 1250 (p50s 624 and 1874); none
        // is dropped.
        let ascending: Vec<f64> = (0..2500).map(f64::from).collect();
        assert_eq!(windowed_percentile(&ascending, 1000, 50.0), Ok(1249.0));
        assert!(windowed_percentile(&samples[..999], 1000, 99.0).is_err());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
