//! Metric collection, order statistics, digests and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, split the way `BENCHMARK.json` splits them.
#[derive(Default)]
pub struct Metrics {
    /// What a user of the simulator sees; measured on the production pass.
    pub end_to_end: Vec<Metric>,
    /// Single layers: host time of each public call and exact work counts.
    pub per_layer: Vec<Metric>,
}

impl Metrics {
    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.into(), value: finite(value), unit });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name: name.into(), value: finite(value), unit });
    }
}

/// Ratios over empty sets come out as NaN; JSON has no NaN, so they read 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest order statistic of `v` with at least ten samples above it,
/// and its percentile rank; the maximum when there are ten or fewer.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let i = if n > 10 { n - 11 } else { n - 1 };
    (s[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// FNV-1a 64 over a byte stream, the digest the committed expected files
/// hold.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`). Each production
/// pass runs in a process of its own, so no other pass or workload is in
/// it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The human-readable table: every metric by name with its unit.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=280).map(f64::from).collect();
        // 280 samples: the 270th has exactly ten above it.
        assert_eq!(tail(&v).0, 270.0);
        assert_eq!(tail(&[5.0, 1.0]).0, 5.0);
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric { name: "wall_s".into(), value: 1.5, unit: "s" }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
