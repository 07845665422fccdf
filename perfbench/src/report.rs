//! Order statistics, the human-readable metric lines, and the final JSON
//! result line.

use std::fmt::Write as _;

/// Median of a sample (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample; 0 when it is empty.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Metrics in the order they were recorded, each printed as it is added.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric and prints it, with `note` (sample count, source).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("  {name:<34} {value:>16.4} {unit:<6} {note}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// A metric recorded earlier.
    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .unwrap_or_else(|| panic!("metric {name} was not recorded"))
            .1
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to a String");
        }
        s.push_str("}}");
        s
    }
}
