//! The result line: one JSON object, printed last on standard output.

use std::fmt::Write as _;

use crate::stats::{valid_metric_name, valid_unit};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Render the result line. Refuses a metric whose name or unit breaks
/// `BENCHMARK.json`'s naming rules, or whose value is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "metric {:?} [{}] breaks the naming rules",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints every digit of an f64 and always a decimal point
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_has_exactly_the_result_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("ops_per_s", 3.0, "1/s"),
            ],
        )
        .expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn bad_names_duplicates_and_non_finite_values_are_refused() {
        assert!(result_line(true, 1, 0, &[Metric::new("_x", 1.0, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", 1.0, "per sec")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]).is_err());
        let twice = [Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")];
        assert!(result_line(true, 1, 0, &twice).is_err());
    }
}
