//! Metric values, order statistics and the result line.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The body and the tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    pub samples: usize,
    pub p50: f64,
    /// The highest percentile that still has at least ten samples above it
    /// — the largest sample when there are ten or fewer.
    pub tail: f64,
    /// The percentile `tail` sits at, in percent.
    pub tail_pct: f64,
}

impl Distribution {
    /// Summarises `samples` (any unit); all zero when empty.
    pub fn of(samples: &[u64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Distribution {
                samples: 0,
                p50: 0.0,
                tail: 0.0,
                tail_pct: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        // Index n - 11 leaves exactly ten samples above it.
        let tail_idx = if n >= 11 { n - 11 } else { n - 1 };
        Distribution {
            samples: n,
            p50: sorted[(n - 1) / 2] as f64,
            tail: sorted[tail_idx] as f64,
            tail_pct: 100.0 * (tail_idx + 1) as f64 / n as f64,
        }
    }
}

/// The last line of the benchmark's output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that is not a finite number
        // is a harness bug, reported as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
