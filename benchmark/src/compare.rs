//! `--compare A.json B.json`: hold two suite reports against the bounds
//! the first one carries, one row per workload and end-to-end metric.

use serde::Value;

use crate::quant::{quartiles, spread};
use crate::report::{field, fields, number};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Better,
    /// The run-to-run spread of a side is wider than the bound and the
    /// sides' samples overlap, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge samples `b` against the base samples `a`. `bound` is the share
/// of `a`'s median by which the metric may get worse.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Orient so that larger is always worse.
    let orient = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|x| if lower_is_better { *x } else { -*x })
            .collect()
    };
    let (a, b) = (orient(a), orient(b));
    let (base, new) = (quartiles(&a).1, quartiles(&b).1);
    let scale = base.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if spread(&a) > bound || spread(&b) > bound {
        return if max(&b) < min(&a) {
            Verdict::Better
        } else if min(&b) > max(&a) && new - base > bound * scale {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if new - base > bound * scale {
        Verdict::Worse
    } else if base - new > bound * scale {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn samples(metric: &Value) -> Option<Vec<f64>> {
    match field(metric, "samples")? {
        Value::Array(items) => items.iter().map(number).collect(),
        _ => None,
    }
}

/// Print the verdict table of report `b` against report `a`; `Ok(true)`
/// when no row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let bounds = field(a, "end_to_end").ok_or("the first report has no end_to_end table")?;
    let workloads_a = field(a, "workloads")
        .and_then(fields)
        .ok_or("the first report has no workloads")?;
    let workloads_b = field(b, "workloads").ok_or("the second report has no workloads")?;
    let mut all_fine = true;
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "change", "spreadA", "spreadB"
    );
    for (workload, wa) in workloads_a {
        let Some(wb) = field(workloads_b, workload) else {
            println!("{workload:<16} missing from the second report");
            all_fine = false;
            continue;
        };
        for (metric, spec) in fields(bounds).ok_or("end_to_end is not an object")? {
            let bound = field(spec, "bound")
                .and_then(number)
                .ok_or_else(|| format!("{metric} has no bound"))?;
            let lower = field(spec, "better") == Some(&Value::String("lower".to_string()));
            let get = |w: &Value| {
                field(w, "end_to_end")
                    .and_then(|m| field(m, metric))
                    .and_then(samples)
            };
            let (Some(sa), Some(sb)) = (get(wa), get(wb)) else {
                println!("{workload:<16} {metric:<15} missing samples");
                all_fine = false;
                continue;
            };
            let v = verdict(&sa, &sb, lower, bound);
            all_fine &= v != Verdict::Worse;
            let (base, new) = (quartiles(&sa).1, quartiles(&sb).1);
            println!(
                "{workload:<16} {metric:<15} {base:>14.6e} {new:>14.6e} {:>+8.2}% {:>6.2}% {:>6.2}%  {} (bound {:.0}% of {base:.6e}, n {}/{})",
                (new / base - 1.0) * 100.0,
                spread(&sa) * 100.0,
                spread(&sb) * 100.0,
                v.label(),
                bound * 100.0,
                sa.len(),
                sb.len(),
            );
        }
        let failed = |w: &Value| field(w, "failed").and_then(number).unwrap_or(f64::NAN);
        if failed(wa) != failed(wb) {
            println!(
                "{workload:<16} failed operations differ: {} vs {}",
                failed(wa),
                failed(wb)
            );
            all_fine = false;
        }
    }
    Ok(all_fine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, rel_step: f64) -> Vec<f64> {
        (-3..=3)
            .map(|i| center * (1.0 + rel_step * f64::from(i)))
            .collect()
    }

    #[test]
    fn verdict_table_on_synthetic_inputs() {
        let base = around(1.0, 0.005);
        // Tight samples: the medians decide.
        assert_eq!(
            verdict(&base, &around(1.02, 0.005), true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &around(1.20, 0.005), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &around(0.80, 0.005), true, 0.10),
            Verdict::Better
        );
        // A higher-is-better metric flips the direction.
        assert_eq!(
            verdict(&base, &around(1.20, 0.005), false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &around(0.80, 0.005), false, 0.10),
            Verdict::Worse
        );
        // A side noisier than the bound with overlapping samples decides nothing ...
        assert_eq!(
            verdict(&base, &around(1.05, 0.08), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&around(1.0, 0.08), &base, true, 0.10),
            Verdict::Unresolved
        );
        // ... unless every sample of one side beats every sample of the other.
        assert_eq!(
            verdict(&around(1.0, 0.08), &around(0.5, 0.08), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&around(1.0, 0.08), &around(2.0, 0.08), true, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_reports_and_flags_worse_rows() {
        let report = |wall: f64| {
            let samples: Vec<String> = around(wall, 0.005)
                .iter()
                .map(|x| format!("{x:?}"))
                .collect();
            let text = format!(
                r#"{{"end_to_end": {{"wall_s": {{"unit": "s", "better": "lower", "bound": 0.1}}}},
                    "workloads": {{"bulk-tcp": {{"failed": 0, "end_to_end": {{"wall_s": {{"samples": [{}]}}}}}}}}}}"#,
                samples.join(", ")
            );
            serde_json::parse(&text).unwrap()
        };
        assert_eq!(compare(&report(1.0), &report(1.03)), Ok(true));
        assert_eq!(compare(&report(1.0), &report(1.3)), Ok(false));
        assert!(compare(&Value::Null, &report(1.0)).is_err());
    }
}
