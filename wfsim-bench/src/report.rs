//! Summary statistics and the one-line JSON result.

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Throughput over a phase: the median, over `blocks` consecutive blocks
/// of equally many completions, of each block's completions per second.
/// `done_s` holds the completion times in seconds from the phase start.
/// A few slow or fast seconds of the host move it less than a mean would.
pub fn block_rate(done_s: &[f64], blocks: usize) -> f64 {
    let mut done = done_s.to_vec();
    done.sort_by(f64::total_cmp);
    let per = done.len() / blocks.max(1);
    if per == 0 {
        return done.len() as f64 / done.last().copied().unwrap_or(0.0).max(1e-9);
    }
    let rates: Vec<f64> = (0..blocks)
        .map(|b| {
            let from = if b == 0 { 0.0 } else { done[b * per - 1] };
            per as f64 / (done[(b + 1) * per - 1] - from).max(1e-9)
        })
        .collect();
    median(&rates)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Human-readable lines, one per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<42} {value:>14.4} {unit}");
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its full-precision value and unit.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf; a non-finite value is a benchmark
                // bug and is reported as a failed run by the caller.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, value, _)| value.is_finite())
    }
}
