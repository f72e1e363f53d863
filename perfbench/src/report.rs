//! One run's result: the operations attempted and failed, and the
//! metrics, printed as a table and as the final JSON line.

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The unit `BENCHMARK.json` lists.
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells answered, requests sent).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric; non-finite values (an empty sample) read 0.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one attempted operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Failed operations over attempted ones.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Whether every operation succeeded with a correct output.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The machine-readable last line of the run's output.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable table printed above the JSON line.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<34} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "{:<34} {:>16.6} frac ({} failed of {} attempted)\n",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("mismatch".to_owned()));
        r.push("setup_s", 0.25, "s");
        r.push("empty", f64::NAN, "ms");
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"empty\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(r.failed_frac(), 0.5);
    }
}
