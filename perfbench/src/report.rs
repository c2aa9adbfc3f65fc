//! The result of one run: metrics, correctness checks, operation counts
//! and provenance, printed as a readable block followed by one JSON line.

use std::fmt::Write as _;

use crate::stats;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (1 for a single measurement).
    pub samples: usize,
    /// What the value is, when the name alone does not say (a tail's
    /// percentile, a ratio's base).
    pub note: String,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted during the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Operations that succeeded only after a client retry.
    pub retried: u64,
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_with(name, value, unit, samples, String::new());
    }

    pub fn metric_with(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// The first metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Report the median of `samples`, scaled by `scale` (e.g. seconds to
    /// milliseconds). An empty sample fails a check instead.
    pub fn median(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        match stats::median(samples) {
            Some(m) => self.metric(name, m * scale, unit, samples.len()),
            None => self.check(&format!("{name} has samples"), false, "no samples".into()),
        }
    }

    /// Report the highest percentile up to `want` that `samples`
    /// supports, noting which percentile it is.
    pub fn tail(&mut self, name: &str, samples: &[f64], want: f64, scale: f64, unit: &'static str) {
        match stats::tail(samples, want) {
            Some(t) => self.metric_with(
                name,
                t.value * scale,
                unit,
                samples.len(),
                format!("p{}", t.pct),
            ),
            None => self.check(&format!("{name} has samples"), false, "no samples".into()),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Every check passed, and there was at least one.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// The readable block: provenance, checks, and metrics with units
    /// and sample counts. Metrics named in `result` are marked `metric`,
    /// the others `detail`.
    pub fn render_text(&self, result: &[&str]) -> String {
        let mut out = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "provenance {k} = {v}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {:<44} {verdict:<6} {}", c.name, c.detail);
        }
        let _ = writeln!(
            out,
            "operations attempted={} failed={} retried={}",
            self.attempted, self.failed, self.retried
        );
        for m in &self.metrics {
            let kind = if result.contains(&m.name.as_str()) {
                "metric"
            } else {
                "detail"
            };
            let _ = writeln!(
                out,
                "{kind} {:<44} {:>14.4} {:<6} n={:<6} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        out
    }

    /// The one-line JSON result, holding the metrics named in `result`
    /// (in that order) that the run reported.
    pub fn render_json(&self, result: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in result.iter().filter_map(|n| self.get(n)).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Provenance, checks, and every metric with its sample count, as one
    /// JSON object for the
    /// trace file and the log.
    pub fn render_detail_json(&self) -> String {
        let mut out = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(k), json_str(v));
        }
        out.push_str("}, \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        let _ = write!(out, "], \"retried\": {}, \"metrics\": {{", self.retried);
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"n\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                m.samples,
                json_str(&m.note)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number. A non-finite value (a tail made of failed operations)
/// prints as the largest finite double: it missed every limit.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        format!("{}", f64::MIN)
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms", 3);
        o.metric("tail_ms", f64::INFINITY, "ms", 3);
        o.metric("noisy_ms", 2.0, "ms", 3);
        o.check("answers", true, String::new());
        let result = ["latency_ms", "tail_ms"];
        let line = o.render_json(&result);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(!line.contains("inf"));
        assert!(!line.contains("noisy_ms"));
        assert!(o.render_text(&result).contains("detail noisy_ms"));
    }

    #[test]
    fn no_checks_is_not_correct() {
        assert!(!Outcome::default().correct());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
