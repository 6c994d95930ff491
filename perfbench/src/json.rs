//! The result line the benchmark prints last.

use quatrex::probe::json::escape;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric set of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// Render the result object. Every value is printed with all its digits
/// (Rust's shortest round-trip form); non-finite values, which JSON cannot
/// hold, are printed as `-1` and must already have made `correct` false.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(&m.name),
                v,
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
