//! Summary statistics and the one-line JSON result.

/// Nearest-rank percentile of sorted samples (`p` in 0..=1); 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank] as f64
}

/// Mean of the samples; 0 when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The benchmark's result: correctness, op accounting and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Values checked against the expected state, per check.
    checks: Vec<(&'static str, u64)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts `n` more values checked by `check`.
    pub fn checked(&mut self, check: &'static str, n: u64) {
        match self.checks.iter_mut().find(|(name, _)| *name == check) {
            Some((_, total)) => *total += n,
            None => self.checks.push((check, n)),
        }
    }

    /// The checks line: how many values each correctness check compared.
    pub fn checks_json(&self) -> String {
        let fields: Vec<String> = self
            .checks
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Marks the run incorrect, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        if self.problems.len() < 8 {
            self.problems.push(why.into());
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
