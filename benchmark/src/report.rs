//! The result of one run and the JSON line that reports it.

use serde::Value;

use crate::quant::median;
use crate::spec::{per_layer, END_TO_END};

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON string.
pub fn s(text: impl Into<String>) -> Value {
    Value::String(text.into())
}

/// A JSON whole number (counts here stay far below 2^63).
pub fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

/// Correctness checks of one run: each is an attempted operation, a
/// failure is counted and printed, never a panic.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; print `what` to stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Named metric values in a fixed order, every one with its unit.
#[derive(Debug, Clone)]
pub struct Metrics {
    rows: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// The end-to-end set, all unset (NaN until [`Metrics::set`]).
    pub fn end_to_end() -> Self {
        Metrics {
            rows: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit, f64::NAN))
                .collect(),
        }
    }

    /// The per-layer set, all 0: the value of a layer a workload's
    /// traced pass does not exercise.
    pub fn per_layer() -> Self {
        Metrics {
            rows: per_layer()
                .into_iter()
                .map(|m| (m.name, m.unit, 0.0))
                .collect(),
        }
    }

    /// Set a metric the set declares; an undeclared name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        row.2 = value;
    }

    fn to_value(&self) -> Value {
        let row = |(name, unit, value): &(String, &str, f64)| {
            let fields = vec![("value", Value::Float(*value)), ("unit", s(*unit))];
            (name.clone(), obj(fields))
        };
        obj(self.rows.iter().map(row).collect())
    }
}

/// The timed iterations of one run: each one's wall and CPU seconds,
/// raw and scaled by the host's slowness while it ran (see `pace`).
#[derive(Debug, Default)]
pub struct Samples {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    raw_walls: Vec<f64>,
    slownesses: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, wall_s: f64, cpu_s: f64, slowness: f64) {
        self.walls.push(wall_s / slowness);
        self.cpus.push(cpu_s / slowness);
        self.raw_walls.push(wall_s);
        self.slownesses.push(slowness);
    }

    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// Set `wall_s`, `cpu_s` and `work_per_s` (`work` units per
    /// iteration) to the medians; returns the stderr note with the raw
    /// median beside them.
    pub fn report(&self, work: f64, metrics: &mut Metrics) -> String {
        Samples::report_sum(std::slice::from_ref(self), work, metrics)
    }

    /// [`Samples::report`] for iterations timed in `parts`: the times
    /// are the sums of the parts' medians.
    pub fn report_sum(parts: &[Samples], work: f64, metrics: &mut Metrics) -> String {
        let sum = |series: fn(&Samples) -> &Vec<f64>| -> f64 {
            parts.iter().map(|p| median(series(p))).sum()
        };
        let wall_s = sum(|p| &p.walls);
        metrics.set("wall_s", wall_s);
        metrics.set("cpu_s", sum(|p| &p.cpus));
        metrics.set("work_per_s", work / wall_s);
        let slownesses: Vec<f64> = parts.iter().flat_map(|p| p.slownesses.clone()).collect();
        format!(
            "raw wall_s median {:.6}, host slowness median {:.3}",
            sum(|p| &p.raw_walls),
            median(&slownesses)
        )
    }
}

/// What one `--workload` run found.
#[derive(Debug)]
pub struct RunResult {
    pub checks: Checks,
    pub metrics: Metrics,
}

impl RunResult {
    /// The one JSON object the driver reads from the last stdout line.
    pub fn json_line(&self) -> String {
        let every_value_measured = self.metrics.rows.iter().all(|r| r.2.is_finite());
        let doc = obj(vec![
            (
                "correct",
                Value::Bool(self.checks.failed == 0 && every_value_measured),
            ),
            ("attempted", int(self.checks.attempted.max(1))),
            ("failed", int(self.checks.failed)),
            ("metrics", self.metrics.to_value()),
        ]);
        serde_json::to_string(&doc).expect("a Value tree always renders")
    }
}

/// Fields of a parsed JSON object.
pub fn fields(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Object(f) => Some(f),
        _ => None,
    }
}

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    fields(v)?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::end_to_end();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.set(m.name, 1.5 + i as f64);
        }
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        let line = RunResult { checks, metrics }.json_line();
        assert!(!line.contains('\n'));
        let v = serde_json::parse(&line).unwrap();
        let keys: Vec<&str> = fields(&v)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "correct"), Some(&Value::Bool(true)));
        let m = field(&v, "metrics").unwrap();
        assert_eq!(fields(m).unwrap().len(), END_TO_END.len());
        let setup = field(m, "setup_s").unwrap();
        assert_eq!(number(field(setup, "value").unwrap()), Some(1.5));
        assert_eq!(field(setup, "unit"), Some(&Value::String("s".into())));
    }

    #[test]
    fn an_unmeasured_metric_or_a_failed_check_is_not_correct() {
        let unset = RunResult {
            checks: Checks::default(),
            metrics: Metrics::end_to_end(),
        };
        assert!(unset.json_line().contains("\"correct\":false"));
        let mut checks = Checks::default();
        checks.check(false, || "expected by this test".into());
        let failed = RunResult {
            checks,
            metrics: Metrics::per_layer(),
        };
        let line = failed.json_line();
        assert!(
            line.contains("\"correct\":false") && line.contains("\"failed\":1"),
            "{line}"
        );
    }
}
