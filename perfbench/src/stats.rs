//! Percentiles, resident memory, and the metric records both binaries
//! print.

use serde_json::{Map, Value};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
    /// True when the value is a count that repeats exactly for a seed.
    pub exact: bool,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a timed or sampled metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            exact: false,
        });
    }

    /// Adds an exact count (or a ratio of exact counts).
    pub fn count(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put(name, value, unit, samples);
        self.0.last_mut().expect("just pushed").exact = true;
    }

    /// The metrics as the JSON object the wrapper reads.
    pub fn to_json(&self) -> Value {
        let mut out = Map::new();
        for m in &self.0 {
            let record = obj([
                ("value", m.value.into()),
                ("unit", m.unit.into()),
                ("samples", (m.samples as u64).into()),
                ("exact", m.exact.into()),
            ]);
            out.insert(m.name.clone(), record);
        }
        Value::Object(out)
    }
}

/// A JSON object from key/value pairs, in order.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's resident set size in bytes, from `/proc/self/status`.
pub fn rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}
