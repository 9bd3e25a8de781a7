//! Collecting metrics and printing the result line.

/// Every metric of one run, plus the correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (allocation requests).
    pub attempted: u64,
    /// Operations that failed a correctness gate or did not complete.
    pub failed: u64,
    /// Human-readable reasons for every failure.
    pub failures: Vec<String>,
}

impl Report {
    /// Records metric `name` in `unit`. Non-finite values read as 0.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.fail_many(1, why);
    }

    /// Records `count` failed operations sharing one reason.
    pub fn fail_many(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints every metric as a `name value unit` line, then the result
    /// object on the last line with the metrics named in `json` (each must
    /// have been recorded).
    pub fn print(&self, json: &[&str]) {
        for why in &self.failures {
            println!("FAIL {why}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        let fields: Vec<String> = json
            .iter()
            .map(|want| {
                let (name, value, unit) = self
                    .metrics
                    .iter()
                    .find(|(name, _, _)| name == want)
                    .unwrap_or_else(|| panic!("metric {want} was not recorded"));
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}
