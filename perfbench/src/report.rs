//! What one run reports: metrics with units, output checks, the output
//! digest and run metadata, printed as one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a over little-endian words: the output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interquartile range over the median: the within-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - quantile(values, 0.25)) / m
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer values gathered over several traced repetitions; each metric
/// reports the median of its samples.
#[derive(Debug, Default)]
pub struct Samples {
    values: BTreeMap<String, (Vec<f64>, &'static str)>,
}

impl Samples {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values
            .entry(name.into())
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| median(v))
    }

    pub fn into_report(self, report: &mut Report) {
        for (name, (values, unit)) in self.values {
            report.metric(&name, median(&values), unit);
        }
    }
}

/// Everything a run prints in its result line.
#[derive(Debug)]
pub struct Report {
    workload: String,
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(String, String)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            metrics: Vec::new(),
            meta: Vec::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: None,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a metadata value; `value` must already be valid JSON.
    pub fn meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_string(), value.into()));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta(key, json_str(value));
    }

    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.errors.push(what());
        }
        ok
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Pins the run's output digest: every repetition must produce the
    /// same one.
    pub fn digest(&mut self, what: &str, digest: u64) -> bool {
        match self.digest {
            None => {
                self.digest = Some(digest);
                true
            }
            Some(first) => self.check(first == digest, || {
                format!("{what}: output digest {digest:016x} differs from the first repetition's {first:016x}")
            }),
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"ok\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": {}, ",
            json_str(&self.workload),
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            self.digest
                .map_or("null".to_string(), |d| json_str(&format!("{d:016x}")))
        );
        out.push_str("\"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(e));
        }
        out.push_str("], \"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push_str("}, \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", json_str(k));
        }
        out.push_str("}}");
        out
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

/// A number as JSON, with every digit Rust prints for it.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
